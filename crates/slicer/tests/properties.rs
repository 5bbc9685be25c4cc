//! Property-based tests for slicing, rasterization and tool paths.

use am_geom::{Aabb2, Point2, Polygon2};
use am_slicer::{
    generate_toolpath, rasterize_layer, rasterize_layer_runs, rasterize_layer_scan, slice_shells,
    CellMaterial, Contour, Layer, RasterLayer, SlicerConfig, ToolMaterial,
};
use proptest::prelude::*;

mod oracle;

fn rect() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (1.0..40.0f64, 1.0..20.0f64, -20.0..20.0f64, -20.0..20.0f64)
}

fn layer_of(polys: Vec<Polygon2>) -> Layer {
    Layer {
        z: 0.5,
        loops: polys.into_iter().enumerate().map(|(i, polygon)| Contour { polygon, body: i }).collect(),
        open_paths: Vec::new(),
    }
}

/// Cell size of the run-analysis equivalence property.
const RUN_CELL: f64 = 0.25;

/// A rectangle `(x, y, w, h)` on the `RUN_CELL` lattice, in cells.
fn lattice_rect() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    (0usize..40, 0usize..40, 1usize..16, 1usize..16)
}

/// A multi-loop analysis layer and the raster bounds to analyse it over:
/// overlapping free and lattice-aligned rectangles, CW circular holes
/// (support pockets where enclosed), a lattice-aligned split pair whose
/// halves sit 0–3 cells apart, a lattice-aligned frame whose pocket is
/// sealed or opened by a 1–3 cell slot in any wall, and one of four grids:
/// roomy, tight to the frame (or to all loops; model on the border), a
/// single row, or a single column.
fn analysis_layer() -> impl Strategy<Value = (Layer, Aabb2)> {
    (
        collection::vec((0.0..10.0f64, 0.0..10.0f64, 0.2..6.0f64, 0.2..6.0f64), 0..4),
        collection::vec(lattice_rect(), 0..3),
        collection::vec((0.1..0.9f64, 0.1..0.9f64, 0.1..2.0f64), 0..3),
        (lattice_rect(), 0usize..4, 0usize..2),
        (lattice_rect(), 1usize..3, (0usize..4, 0usize..4), 0usize..2),
        (0usize..4, 0.0..12.0f64),
    )
        .prop_map(|(free, lattice, holes, split, frame, (grid, cut))| {
            let c = RUN_CELL;
            let rect = |x: f64, y: f64, w: f64, h: f64| {
                Polygon2::rectangle(Point2::new(x, y), Point2::new(x + w, y + h))
            };
            let cells = |(x, y, w, h): (usize, usize, usize, usize)| {
                (x as f64 * c, y as f64 * c, w as f64 * c, h as f64 * c)
            };
            let mut polys: Vec<Polygon2> =
                free.into_iter().map(|(x, y, w, h)| rect(x, y, w, h)).collect();
            for r in lattice {
                let (x, y, w, h) = cells(r);
                polys.push(rect(x, y, w, h));
            }
            let (pair, gap, with_pair) = split;
            if with_pair == 1 {
                let (x, y, w, h) = cells(pair);
                polys.push(rect(x, y, w, h));
                polys.push(rect(x + w + gap as f64 * c, y, w, h));
            }
            let (inner, t, (slot, side), with_frame) = frame;
            let mut tight = None;
            if with_frame == 1 {
                let (x, y, w, h) = cells(inner);
                let (t, slot) = (t as f64 * c, slot as f64 * c);
                tight = Some(rect(x - t, y - t, w + 2.0 * t, h + 2.0 * t).aabb());
                polys.push(rect(x - t, y - t, w + 2.0 * t, t));
                polys.push(rect(x - t, y + h, w + 2.0 * t, t));
                polys.push(rect(x - t, y, t, h));
                polys.push(rect(x + w, y, t, h));
                // A CW rectangle cancels one wall's winding over the slot:
                // support or empty, opening the pocket on that side.
                if slot > 0.0 {
                    let cut = match side {
                        0 => rect(x - t, y, t, slot),
                        1 => rect(x + w, y, t, slot),
                        2 => rect(x, y - t, slot, t),
                        _ => rect(x, y + h, slot, t),
                    };
                    polys.push(cut.reversed());
                }
            }
            if polys.is_empty() {
                polys.push(rect(1.0, 1.0, 2.0, 2.0));
            }
            let host = polys[0].aabb();
            for (fx, fy, r) in holes {
                let at = Point2::new(
                    host.min.x + fx * (host.max.x - host.min.x),
                    host.min.y + fy * (host.max.y - host.min.y),
                );
                polys.push(Polygon2::circle(at, r, 12).reversed());
            }
            let tight = tight.unwrap_or_else(|| {
                Aabb2::from_points(polys.iter().flat_map(|p| p.vertices().to_vec()))
                    .expect("at least one loop")
            });
            let layer = layer_of(polys);
            let bounds = match grid {
                0 => Aabb2::new(Point2::new(-1.0, -1.0), Point2::new(17.0, 17.0)),
                1 => tight,
                2 => Aabb2::new(Point2::new(-1.0, cut), Point2::new(17.0, cut + 0.2)),
                _ => Aabb2::new(Point2::new(cut, -1.0), Point2::new(cut + 0.2, 17.0)),
            };
            (layer, bounds)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn raster_model_area_matches_polygon_area((w, h, x, y) in rect()) {
        let poly = Polygon2::rectangle(Point2::new(x, y), Point2::new(x + w, y + h));
        let layer = layer_of(vec![poly.clone()]);
        let raster = rasterize_layer(&layer, poly.aabb().inflated(0.5), 0.1, true);
        let area = raster.count(am_slicer::CellMaterial::Model) as f64 * 0.01;
        prop_assert!((area - w * h).abs() / (w * h) < 0.1, "area {area} vs {}", w * h);
        prop_assert_eq!(oracle::model_components(&raster), 1);
        prop_assert_eq!(oracle::internal_void_cells(&raster), 0);
        let runs = rasterize_layer_runs(&layer, poly.aabb().inflated(0.5), 0.1, true);
        prop_assert_eq!(runs.model_components(), 1);
        prop_assert_eq!(runs.internal_void_cells(), 0);
    }

    #[test]
    fn hole_classifies_as_support((w, h, _, _) in rect(), r in 0.3..4.0f64) {
        // A circular cavity (CW loop) inside a rectangle: enclosed region
        // must classify as support, with winding semantics intact.
        let w = w.max(12.0);
        let h = h.max(12.0);
        let outer = Polygon2::rectangle(Point2::ZERO, Point2::new(w, h));
        let r = r.min(w.min(h) / 2.0 - 1.0).max(0.3);
        let center = Point2::new(w / 2.0, h / 2.0);
        let hole = Polygon2::circle(center, r, 24).reversed();
        let layer = layer_of(vec![outer.clone(), hole]);
        let raster = rasterize_layer(&layer, outer.aabb().inflated(0.5), 0.1, true);
        prop_assert_eq!(raster.material_at(center), am_slicer::CellMaterial::Support);
        prop_assert_eq!(
            raster.material_at(Point2::new(0.5, 0.5)),
            am_slicer::CellMaterial::Model
        );
    }

    #[test]
    fn toolpath_volume_tracks_box_volume((w, h, _, _) in rect(), depth in 2.0..10.0f64) {
        use am_cad::{Part, Feature, SolidShape};
        use am_geom::{Aabb3, Point3};
        // Perimeter/infill overlap dominates on very small parts, so keep
        // the footprint at realistic scale.
        let (w, h) = (w.max(8.0), h.max(8.0));
        let part = Part::new("box")
            .with_feature(Feature::Base(SolidShape::Cuboid(Aabb3::new(
                Point3::ZERO,
                Point3::new(w, h, depth),
            ))))
            .unwrap()
            .resolve()
            .unwrap();
        let shells = am_mesh::tessellate_shells(&part, &am_mesh::Resolution::Fine.params());
        let sliced = slice_shells(&shells, 0.3556);
        let tp = generate_toolpath(&sliced, &SlicerConfig::default());
        let exact = w * h * depth;
        let deposited = tp.material_volume(ToolMaterial::Model);
        prop_assert!(
            (deposited - exact).abs() / exact < 0.35,
            "deposited {deposited} vs {exact}"
        );
    }

    #[test]
    fn gcode_round_trip_for_random_boxes((w, h, _, _) in rect()) {
        use am_cad::{Part, Feature, SolidShape};
        use am_geom::{Aabb3, Point3};
        let part = Part::new("box")
            .with_feature(Feature::Base(SolidShape::Cuboid(Aabb3::new(
                Point3::ZERO,
                Point3::new(w.max(3.0), h.max(3.0), 3.0),
            ))))
            .unwrap()
            .resolve()
            .unwrap();
        let shells = am_mesh::tessellate_shells(&part, &am_mesh::Resolution::Coarse.params());
        let sliced = slice_shells(&shells, 0.3556);
        let tp = generate_toolpath(&sliced, &SlicerConfig::default());
        let back = am_slicer::parse_gcode(&am_slicer::to_gcode(&tp)).unwrap();
        prop_assert_eq!(back.roads.len(), tp.roads.len());
        let (a, b) = (tp.total_length(ToolMaterial::Model), back.total_length(ToolMaterial::Model));
        prop_assert!((a - b).abs() < 0.001 * a.max(1.0));
    }

    #[test]
    fn sliced_volume_conservation((w, h, _, _) in rect(), depth in 2.0..10.0f64) {
        use am_cad::{Part, Feature, SolidShape};
        use am_geom::{Aabb3, Point3};
        let (w, h) = (w.max(3.0), h.max(3.0));
        let part = Part::new("box")
            .with_feature(Feature::Base(SolidShape::Cuboid(Aabb3::new(
                Point3::ZERO,
                Point3::new(w, h, depth),
            ))))
            .unwrap()
            .resolve()
            .unwrap();
        let shells = am_mesh::tessellate_shells(&part, &am_mesh::Resolution::Fine.params());
        let sliced = slice_shells(&shells, 0.1);
        let exact = w * h * depth;
        prop_assert!(
            (sliced.volume_estimate() - exact).abs() / exact < 0.05,
            "sliced {} vs {exact}",
            sliced.volume_estimate()
        );
    }

    /// PR 2 determinism property: on random sphere-cavity prisms, the
    /// z-interval sweep must reproduce the per-layer scan **bit for bit**
    /// at every thread count — the whole performance rewrite is gated on
    /// parallel output being indistinguishable from the serial baseline.
    #[test]
    fn sweep_matches_scan_on_random_prisms(
        (sx, sy, sz) in (12.0..30.0f64, 6.0..15.0f64, 6.0..15.0f64),
        radius in 1.5..2.8f64,
        layer_height in 0.3..0.8f64,
        orient_idx in 0..2usize,
    ) {
        use am_cad::parts::{prism_with_sphere, PrismDims};
        use am_cad::{BodyKind, MaterialRemoval};
        use am_geom::Point3;
        use am_slicer::{orient_shells, slice_shells_scan, try_slice_shells_with, Orientation};

        let dims = PrismDims { size: Point3::new(sx, sy, sz), sphere_radius: radius };
        let part = prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without)
            .unwrap()
            .resolve()
            .unwrap();
        let shells = am_mesh::tessellate_shells(&part, &am_mesh::Resolution::Fine.params());
        let orientation = [Orientation::Xy, Orientation::Xz][orient_idx];
        let oriented = orient_shells(&shells, orientation);

        let scan = slice_shells_scan(&oriented, layer_height).unwrap();
        for threads in [1usize, 2, 8] {
            let sweep =
                try_slice_shells_with(&oriented, layer_height, am_par::Parallelism::threads(threads))
                    .unwrap();
            prop_assert!(
                scan == sweep,
                "sweep (threads={}) diverged from scan on {}x{}x{} r={} h={}",
                threads, sx, sy, sz, radius, layer_height
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The run-length slice analysis equals the cell-grid oracles: model
    /// components, internal void cells and minimum model gap, on random
    /// multi-loop layers with and without support classification.
    #[test]
    fn run_analysis_matches_cell_grid_oracles(
        (layer, bounds) in analysis_layer(),
        support in 0usize..2,
    ) {
        let support = support == 1;
        let raster = rasterize_layer(&layer, bounds, RUN_CELL, support);
        prop_assert_eq!(&raster, &rasterize_layer_scan(&layer, bounds, RUN_CELL, support));
        let runs = rasterize_layer_runs(&layer, bounds, RUN_CELL, support);
        prop_assert_eq!(runs.dims(), raster.dims());
        prop_assert_eq!(runs.model_components(), oracle::model_components(&raster));
        prop_assert_eq!(runs.internal_void_cells(), oracle::internal_void_cells(&raster));
        prop_assert_eq!(runs.min_model_gap(), oracle::min_model_gap(&raster));
    }
}

#[test]
fn raster_layer_outside_bounds_is_empty() {
    let poly = Polygon2::rectangle(Point2::ZERO, Point2::new(2.0, 2.0));
    let layer = layer_of(vec![poly]);
    let raster = rasterize_layer(
        &layer,
        Aabb2::new(Point2::new(-1.0, -1.0), Point2::new(3.0, 3.0)),
        0.1,
        true,
    );
    assert_eq!(raster.material_at(Point2::new(-0.5, -0.5)), am_slicer::CellMaterial::Empty);
}
