//! Cell-grid oracles for the run-length slice analysis.
//!
//! `LayerRuns::{model_components, internal_void_cells, min_model_gap}`
//! answer from per-row material runs; these answer the same questions the
//! direct way, by flood fill and row walk over a [`RasterLayer`]'s cells
//! read through `RasterLayer::rows()`. Shared by the crate's unit tests and
//! its integration tests; the including module must have `CellMaterial`
//! and `RasterLayer` in scope.

#![allow(dead_code)]

use super::{CellMaterial, RasterLayer};

/// The layer's cells, row-major.
fn cells(raster: &RasterLayer) -> Vec<CellMaterial> {
    raster.rows().flat_map(|(_, row)| row.iter().copied()).collect()
}

/// Pushes the 4-neighbours of `idx` that satisfy `open` and are not yet
/// marked in `seen`, marking them.
fn visit_neighbours(
    idx: usize,
    (nx, ny): (usize, usize),
    open: impl Fn(usize) -> bool,
    seen: &mut [bool],
    stack: &mut Vec<usize>,
) {
    let (i, j) = (idx % nx, idx / nx);
    let mut visit = |nidx: usize| {
        if !seen[nidx] && open(nidx) {
            seen[nidx] = true;
            stack.push(nidx);
        }
    };
    if i > 0 {
        visit(idx - 1);
    }
    if i + 1 < nx {
        visit(idx + 1);
    }
    if j > 0 {
        visit(idx - nx);
    }
    if j + 1 < ny {
        visit(idx + nx);
    }
}

/// Number of 4-connected components of model material, by flood fill.
pub fn model_components(raster: &RasterLayer) -> usize {
    let cells = cells(raster);
    let dims = raster.dims();
    let is_model = |idx: usize| cells[idx] == CellMaterial::Model;
    let mut seen = vec![false; cells.len()];
    let mut components = 0;
    let mut stack = Vec::new();
    for start in 0..cells.len() {
        if seen[start] || !is_model(start) {
            continue;
        }
        components += 1;
        seen[start] = true;
        stack.push(start);
        while let Some(idx) = stack.pop() {
            visit_neighbours(idx, dims, is_model, &mut seen, &mut stack);
        }
    }
    components
}

/// Number of empty cells with no 4-connected path to the grid border
/// through non-model cells, by flood fill from every non-model border cell.
pub fn internal_void_cells(raster: &RasterLayer) -> usize {
    let cells = cells(raster);
    let (nx, ny) = raster.dims();
    let open = |idx: usize| cells[idx] != CellMaterial::Model;
    let mut outside = vec![false; cells.len()];
    let mut stack = Vec::new();
    for j in 0..ny {
        for i in 0..nx {
            let idx = j * nx + i;
            let border = i == 0 || j == 0 || i + 1 == nx || j + 1 == ny;
            if border && open(idx) {
                outside[idx] = true;
                stack.push(idx);
            }
        }
    }
    while let Some(idx) = stack.pop() {
        visit_neighbours(idx, (nx, ny), open, &mut outside, &mut stack);
    }
    cells.iter().zip(&outside).filter(|&(&c, &out)| c == CellMaterial::Empty && !out).count()
}

/// Minimum horizontal gap (mm) between two model runs in any row with only
/// empty cells between them, by a cell-by-cell row walk.
pub fn min_model_gap(raster: &RasterLayer) -> Option<f64> {
    let mut best: Option<usize> = None;
    for (_, row) in raster.rows() {
        let mut last_model_end: Option<usize> = None;
        let mut gap_is_empty = true;
        let mut i = 0;
        while i < row.len() {
            match row[i] {
                CellMaterial::Model => {
                    let run_start = i;
                    while i < row.len() && row[i] == CellMaterial::Model {
                        i += 1;
                    }
                    if let Some(end) = last_model_end {
                        if gap_is_empty {
                            let gap = run_start - end;
                            best = Some(best.map_or(gap, |b| b.min(gap)));
                        }
                    }
                    last_model_end = Some(i);
                    gap_is_empty = true;
                }
                CellMaterial::Support => {
                    gap_is_empty = false;
                    i += 1;
                }
                CellMaterial::Empty => i += 1,
            }
        }
    }
    best.map(|cells| cells as f64 * raster.cell_size())
}
