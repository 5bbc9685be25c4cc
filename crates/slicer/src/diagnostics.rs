//! Slice-level defect diagnosis (the Fig. 7a observable).
//!
//! The paper inspects the CatalystEX preview: in x-z orientation the sliced
//! spline-split model shows a **discontinuity** around the spline at every
//! STL resolution, while in x-y it shows none. This module quantifies that
//! observation on the analysis raster:
//!
//! * a layer whose model region is **disconnected** (≥ 2 raster components)
//!   shows an outright discontinuity;
//! * **internal void** cells measure sub-road-width crack pockets (the
//!   tessellation gaps that surface as texture disruption in Fig. 8).
//!
//! Both are computed on the run-length form of the raster
//! ([`LayerRuns`]), never on a cell grid: two runs in adjacent rows are
//! 4-connected exactly when their column intervals overlap, so connected
//! regions are a union-find over runs.

use std::cmp::Ordering;

use am_geom::{Aabb2, Point2};

use crate::raster::layer_bounds;
use crate::{rasterize_layer_runs, CellMaterial, Layer, LayerRuns, SlicedModel};

/// Defect metrics for one sliced model.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceReport {
    /// Layers examined.
    pub layers: usize,
    /// Layers whose model region is disconnected by a near-zero gap.
    pub discontinuous_layers: usize,
    /// Largest component count seen in any layer.
    pub max_components: usize,
    /// Total internal-void cells across layers.
    pub internal_void_cells: usize,
    /// Total internal-void area (mm²) across layers.
    pub internal_void_area: f64,
    /// Cell size used for the analysis.
    pub cell: f64,
    /// Inter-body seam interface analysis (see [`SeamExposure`]).
    pub seam: Option<SeamExposure>,
}

impl SliceReport {
    /// `true` if the sliced model shows the split — the paper's Fig. 7a
    /// "discontinuity can be observed".
    ///
    /// Two mechanisms flag it:
    ///
    /// * layers whose cross-section is outright **disconnected** by a
    ///   near-zero gap (the lateral chord mismatch between the two bodies,
    ///   dominant at Coarse resolution in x-z);
    /// * an **exposed seam**: a narrow inter-body interface that shifts
    ///   laterally from layer to layer, so the abutting body walls form a
    ///   staircase traced on the part surface. This is resolution
    ///   independent — the diagonal spline moves the interface by
    ///   `|dx/dy| · layer height` every layer in x-z — whereas in x-y the
    ///   interface is a wide band in exact registry across layers, hidden
    ///   by the infill above and below.
    pub fn has_discontinuity(&self) -> bool {
        self.discontinuous_layers >= 2
            || self.seam.as_ref().is_some_and(SeamExposure::is_exposed)
    }
}

/// Geometry of the inter-body seam interface across layers.
///
/// An "interface" in a layer is the set of boundary vertices of one body's
/// contour lying within half a road width of a *different* body's contour —
/// the abutting cold-joint walls a planted split leaves behind.
#[derive(Debug, Clone, PartialEq)]
pub struct SeamExposure {
    /// Layers containing an inter-body interface.
    pub interface_layers: usize,
    /// Median in-plane width (max extent, mm) of the interface region per
    /// layer: narrow (≈ the part thickness) when layers cross the seam
    /// (x-z), wide (≈ the spline length) when the seam lies in-plane (x-y).
    pub median_span: f64,
    /// Mean lateral displacement (mm) of the interface centre between
    /// consecutive interface layers.
    pub mean_shift: f64,
}

impl SeamExposure {
    /// `true` if the seam is exposed as a surface staircase: a narrow
    /// interface that moves between layers.
    pub fn is_exposed(&self) -> bool {
        self.interface_layers >= 3 && self.median_span < 4.0 && self.mean_shift > 0.05
    }
}

/// Largest model gap (mm) that still counts as a seam: a seam splits the
/// cross-section into pieces that *almost touch*, while legitimately
/// disjoint geometry (dogbone grips in x-z) is far apart.
const SEAM_GAP_MM: f64 = 2.0;

/// Diagnoses a sliced model on a raster of the given cell size.
///
/// # Examples
///
/// ```
/// use am_cad::parts::{tensile_bar_with_spline, TensileBarDims};
/// use am_mesh::{tessellate_shells, Resolution};
/// use am_slicer::{diagnose_slices, orient_shells, slice_shells, Orientation};
///
/// let part = tensile_bar_with_spline(&TensileBarDims::default())?.resolve()?;
/// let shells = tessellate_shells(&part, &Resolution::Coarse.params());
///
/// // x-z: layers cross the planted seam → discontinuity.
/// let standing = orient_shells(&shells, Orientation::Xz);
/// let report = diagnose_slices(&slice_shells(&standing, 0.1778), 0.05);
/// assert!(report.has_discontinuity());
///
/// // x-y: the seam lies in-plane and heals below road width → none.
/// let flat = orient_shells(&shells, Orientation::Xy);
/// let report = diagnose_slices(&slice_shells(&flat, 0.1778), 0.05);
/// assert!(!report.has_discontinuity());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn diagnose_slices(sliced: &SlicedModel, cell: f64) -> SliceReport {
    let bounds2 = layer_bounds(sliced, cell);

    let mut report = SliceReport {
        layers: sliced.layers.len(),
        discontinuous_layers: 0,
        max_components: 0,
        internal_void_cells: 0,
        internal_void_area: 0.0,
        cell,
        seam: seam_exposure(sliced, 0.3),
    };
    for layer in &sliced.layers {
        if layer.loops.is_empty() {
            continue;
        }
        let runs = rasterize_layer_runs(layer, bounds2, cell, true);
        let components = runs.model_components();
        report.max_components = report.max_components.max(components);
        if components >= 2 && runs.min_model_gap().is_some_and(|g| g <= SEAM_GAP_MM) {
            report.discontinuous_layers += 1;
        }
        let voids = runs.internal_void_cells();
        report.internal_void_cells += voids;
        report.internal_void_area += voids as f64 * cell * cell;
    }
    report
}

/// Computes the [`SeamExposure`] of a sliced model: per layer, collect the
/// contour vertices of each body lying within `interface_tol` of another
/// body's contour, then track the interface region's in-plane span and its
/// layer-to-layer drift.
///
/// Returns `None` if no layer has an inter-body interface (e.g. an intact
/// part, or bodies that never touch).
pub fn seam_exposure(sliced: &SlicedModel, interface_tol: f64) -> Option<SeamExposure> {
    summarize_seam(sliced.layers.iter().map(|layer| interface_vertices(layer, interface_tol)))
}

/// The vertices of each body's contours within `interface_tol` of another
/// body's contour, in contour-pair then vertex order. A vertex outside the
/// other contour's bounding box inflated by `2 × interface_tol` is too far
/// from its boundary to match, so the exact distance test is skipped for it.
fn interface_vertices(layer: &Layer, interface_tol: f64) -> Vec<Point2> {
    let near: Vec<Aabb2> =
        layer.loops.iter().map(|c| c.polygon.aabb().inflated(2.0 * interface_tol)).collect();
    let mut matched = Vec::new();
    for a in &layer.loops {
        for (b, near_b) in layer.loops.iter().zip(&near) {
            if a.body == b.body {
                continue;
            }
            for &v in a.polygon.vertices() {
                if near_b.contains(v) && b.polygon.distance_to_boundary(v) <= interface_tol {
                    matched.push(v);
                }
            }
        }
    }
    matched
}

/// Folds per-layer interface vertices into a [`SeamExposure`]; layers with
/// fewer than two interface vertices do not count.
fn summarize_seam(layers: impl Iterator<Item = Vec<Point2>>) -> Option<SeamExposure> {
    let mut spans: Vec<f64> = Vec::new();
    let mut centers: Vec<Point2> = Vec::new();
    for matched in layers {
        if matched.len() < 2 {
            continue;
        }
        let bbox = Aabb2::from_points(matched.iter().copied()).expect("matched is non-empty");
        let size = bbox.size();
        spans.push(size.x.max(size.y));
        centers.push(bbox.center());
    }
    if spans.is_empty() {
        return None;
    }
    let mut sorted = spans.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite spans"));
    let median_span = sorted[sorted.len() / 2];
    let shifts: Vec<f64> = centers.windows(2).map(|w| w[0].distance(w[1])).collect();
    let mean_shift = if shifts.is_empty() {
        0.0
    } else {
        shifts.iter().sum::<f64>() / shifts.len() as f64
    };
    Some(SeamExposure { interface_layers: spans.len(), median_span, mean_shift })
}

/// Union-find over run indices (path halving; the smaller index becomes
/// the root).
struct DisjointSets {
    parent: Vec<usize>,
}

impl DisjointSets {
    fn new(n: usize) -> Self {
        DisjointSets { parent: (0..n).collect() }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Joins the sets of `a` and `b`; `true` if they were distinct.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra.max(rb)] = ra.min(rb);
        true
    }
}

/// Connected-region analysis of a run-length raster layer.
///
/// Cells are 4-connected. Runs in one row touch when they are neighbours;
/// runs `a` and `b` in adjacent rows touch exactly when their column
/// intervals overlap (`a.start < b.end && b.start < a.end`) — diagonal
/// contact (`a.end == b.start`) shares only a corner. Tests check these
/// against cell-grid flood fills (`tests/oracle/mod.rs`).
impl LayerRuns {
    /// Union-find over the runs whose material satisfies `member`, joining
    /// touching ones. Returns the sets and the number of joins made.
    fn connect(&self, member: impl Fn(CellMaterial) -> bool) -> (DisjointSets, usize) {
        let (runs, starts) = (self.runs(), self.row_starts());
        let mut sets = DisjointSets::new(runs.len());
        let mut joins = 0;
        let mut link = |sets: &mut DisjointSets, a: usize, b: usize| {
            if member(runs[a].material) && member(runs[b].material) && sets.union(a, b) {
                joins += 1;
            }
        };
        for j in 0..starts.len() - 1 {
            let (lo, hi) = (starts[j], starts[j + 1]);
            for k in lo + 1..hi {
                link(&mut sets, k - 1, k);
            }
            if j == 0 {
                continue;
            }
            // Both rows tile the same columns, so a merge-style sweep that
            // advances whichever run ends first visits exactly the
            // overlapping pairs.
            let (mut a, mut b) = (starts[j - 1], lo);
            while a < lo && b < hi {
                debug_assert!(runs[a].start < runs[b].end && runs[b].start < runs[a].end);
                link(&mut sets, a, b);
                match runs[a].end.cmp(&runs[b].end) {
                    Ordering::Less => a += 1,
                    Ordering::Greater => b += 1,
                    Ordering::Equal => {
                        a += 1;
                        b += 1;
                    }
                }
            }
        }
        (sets, joins)
    }

    /// Number of 4-connected components of model material — ≥ 2 means the
    /// layer's cross-section is *disconnected* (the Fig. 7a discontinuity
    /// signature).
    pub fn model_components(&self) -> usize {
        let (_, joins) = self.connect(|m| m == CellMaterial::Model);
        self.runs().iter().filter(|r| r.material == CellMaterial::Model).count() - joins
    }

    /// Number of *internal void* cells: empty cells with no 4-connected path
    /// to the grid border through non-model cells. These are the
    /// tessellation-gap pockets a planted seam leaves inside the part.
    ///
    /// A region of non-model runs (empty or support) is outside when one of
    /// its runs lies in the first or last row, starts at column 0 or ends
    /// at the last column.
    pub fn internal_void_cells(&self) -> usize {
        let (mut sets, _) = self.connect(|m| m != CellMaterial::Model);
        let (nx, ny) = self.dims();
        let (runs, starts) = (self.runs(), self.row_starts());
        let mut outside = vec![false; runs.len()];
        for j in 0..ny {
            for k in starts[j]..starts[j + 1] {
                let r = runs[k];
                let border = j == 0 || j + 1 == ny || r.start == 0 || r.end == nx;
                if border && r.material != CellMaterial::Model {
                    outside[sets.find(k)] = true;
                }
            }
        }
        (0..runs.len())
            .filter(|&k| runs[k].material == CellMaterial::Empty && !outside[sets.find(k)])
            .map(|k| runs[k].end - runs[k].start)
            .sum()
    }

    /// Minimum horizontal gap (in mm) between two model runs in any row, or
    /// `None` if no row contains two separated model runs.
    ///
    /// A planted seam separates the cross-section by a near-zero gap, while
    /// legitimately disjoint geometry (e.g. the two grip ends of a dogbone
    /// sliced in x-z above the gauge band) sits tens of millimetres apart —
    /// this metric tells them apart.
    /// Only **empty** gaps count: support-filled spans are deliberate
    /// geometry (a through-hole the slicer chose to support), not a crack.
    pub fn min_model_gap(&self) -> Option<f64> {
        let mut best: Option<usize> = None;
        for (_, row) in self.rows() {
            let mut last_model_end: Option<usize> = None;
            let mut gap_is_empty = true;
            for r in row {
                match r.material {
                    CellMaterial::Model => {
                        if let Some(end) = last_model_end {
                            if gap_is_empty {
                                let gap = r.start - end;
                                best = Some(best.map_or(gap, |b| b.min(gap)));
                            }
                        }
                        last_model_end = Some(r.end);
                        gap_is_empty = true;
                    }
                    CellMaterial::Support => gap_is_empty = false,
                    CellMaterial::Empty => {}
                }
            }
        }
        best.map(|cells| cells as f64 * self.cell_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{oracle, orient_shells, rasterize_layer, slice_shells, Orientation};
    use am_cad::parts::{
        bracket_with_spline, prism_with_sphere, tensile_bar, tensile_bar_with_spline, BracketDims,
        PrismDims, TensileBarDims,
    };
    use am_cad::{BodyKind, MaterialRemoval, Part};
    use am_mesh::{tessellate_shells, Resolution};

    /// The three protected demo parts (spline-split bar and bracket,
    /// sphere-cavity prism) × every resolution × every orientation, sliced
    /// at `layer_height`.
    fn paper_slicings(layer_height: f64) -> Vec<(String, SlicedModel)> {
        let parts: [(&str, Part); 3] = [
            ("bar", tensile_bar_with_spline(&TensileBarDims::default()).unwrap()),
            ("bracket", bracket_with_spline(&BracketDims::default()).unwrap()),
            (
                "prism",
                prism_with_sphere(&PrismDims::default(), BodyKind::Solid, MaterialRemoval::Without)
                    .unwrap(),
            ),
        ];
        let mut out = Vec::new();
        for (name, part) in parts {
            let resolved = part.resolve().unwrap();
            for res in Resolution::ALL {
                let shells = tessellate_shells(&resolved, &res.params());
                for o in Orientation::ALL {
                    let sliced = slice_shells(&orient_shells(&shells, o), layer_height);
                    out.push((format!("{name}/{res}/{o}"), sliced));
                }
            }
        }
        out
    }

    /// [`diagnose_slices`] restated on the cell grid: full rasterization
    /// and the flood-fill oracles.
    fn diagnose_slices_oracle(sliced: &SlicedModel, cell: f64) -> SliceReport {
        let bounds2 = layer_bounds(sliced, cell);
        let mut report = SliceReport {
            layers: sliced.layers.len(),
            discontinuous_layers: 0,
            max_components: 0,
            internal_void_cells: 0,
            internal_void_area: 0.0,
            cell,
            seam: seam_exposure(sliced, 0.3),
        };
        for layer in &sliced.layers {
            if layer.loops.is_empty() {
                continue;
            }
            let raster = rasterize_layer(layer, bounds2, cell, true);
            let components = oracle::model_components(&raster);
            report.max_components = report.max_components.max(components);
            if components >= 2 && oracle::min_model_gap(&raster).is_some_and(|g| g <= SEAM_GAP_MM) {
                report.discontinuous_layers += 1;
            }
            let voids = oracle::internal_void_cells(&raster);
            report.internal_void_cells += voids;
            report.internal_void_area += voids as f64 * cell * cell;
        }
        report
    }

    fn assert_matches_oracle(layer_height: f64, cell: f64) {
        for (name, sliced) in paper_slicings(layer_height) {
            assert_eq!(
                diagnose_slices(&sliced, cell),
                diagnose_slices_oracle(&sliced, cell),
                "{name} at cell {cell}"
            );
        }
    }

    #[test]
    fn paper_parts_report_matches_cell_grid_oracle_native() {
        assert_matches_oracle(0.1778, 0.05);
    }

    #[test]
    fn paper_parts_report_matches_cell_grid_oracle_service_cell() {
        // The daemon's default plan for a `layer` override: cell = layer / 2.
        assert_matches_oracle(0.7, 0.35);
    }

    /// [`interface_vertices`] without the bounding-box reject.
    fn interface_vertices_unfiltered(layer: &Layer, interface_tol: f64) -> Vec<Point2> {
        let mut matched = Vec::new();
        for a in &layer.loops {
            for b in &layer.loops {
                if a.body == b.body {
                    continue;
                }
                for &v in a.polygon.vertices() {
                    if b.polygon.distance_to_boundary(v) <= interface_tol {
                        matched.push(v);
                    }
                }
            }
        }
        matched
    }

    #[test]
    fn seam_bbox_reject_matches_unfiltered_loop() {
        for (name, sliced) in paper_slicings(0.1778) {
            for layer in &sliced.layers {
                assert_eq!(
                    interface_vertices(layer, 0.3),
                    interface_vertices_unfiltered(layer, 0.3),
                    "{name} z = {}",
                    layer.z
                );
            }
            let unfiltered = summarize_seam(
                sliced.layers.iter().map(|layer| interface_vertices_unfiltered(layer, 0.3)),
            );
            assert_eq!(seam_exposure(&sliced, 0.3), unfiltered, "{name}");
        }
    }

    fn report(split: bool, orientation: Orientation, res: Resolution) -> SliceReport {
        let dims = TensileBarDims::default();
        let part = if split {
            tensile_bar_with_spline(&dims).unwrap().resolve().unwrap()
        } else {
            tensile_bar(&dims).unwrap().resolve().unwrap()
        };
        let shells = tessellate_shells(&part, &res.params());
        let oriented = orient_shells(&shells, orientation);
        diagnose_slices(&slice_shells(&oriented, 0.1778), 0.05)
    }

    #[test]
    fn intact_bar_clean_in_both_orientations() {
        for o in Orientation::ALL {
            let r = report(false, o, Resolution::Coarse);
            assert!(!r.has_discontinuity(), "{o}: {r:?}");
            assert!(r.seam.is_none(), "{o}: intact bar has no inter-body seam");
        }
    }

    #[test]
    fn split_bar_xz_discontinuous_at_all_resolutions() {
        // The paper's headline slicing result (Fig. 7a).
        for res in Resolution::ALL {
            let r = report(true, Orientation::Xz, res);
            assert!(r.has_discontinuity(), "{res}: {r:?}");
        }
    }

    #[test]
    fn split_bar_xy_not_discontinuous() {
        for res in Resolution::ALL {
            let r = report(true, Orientation::Xy, res);
            assert!(!r.has_discontinuity(), "{res}: {r:?}");
        }
    }

    #[test]
    fn split_bar_xy_coarse_leaves_crack_pockets() {
        // The Fig. 8a surface-disruption precursor: sub-road-width pockets
        // along the seam at Coarse, vanishing at higher resolutions.
        let coarse = report(true, Orientation::Xy, Resolution::Coarse);
        let custom = report(true, Orientation::Xy, Resolution::Custom);
        assert!(
            coarse.internal_void_cells > custom.internal_void_cells,
            "coarse {} vs custom {}",
            coarse.internal_void_cells,
            custom.internal_void_cells
        );
    }
}
