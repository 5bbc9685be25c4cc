//! The outside-in stage trace: an in-memory span recorder, and a staged
//! re-execution of one pipeline job through the substrate crates' public
//! functions, in the order `obfuscade`'s pipeline calls them, with a span
//! around each call.
//!
//! Nothing here runs inside the program: the spans are recorded by the
//! benchmark around the calls it makes. The staged outputs are compared
//! with `run_pipeline`'s, so a trace can only be read if it re-executed
//! exactly the job the untraced run measured.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use am_cad::Part;
use am_fea::{Lattice, SolverPool, TensileConfig};
use am_geom::{Tolerance, Transform3, Vec3};
use am_mesh::{binary_stl_size, seam_report, tessellate_shells, weld_vertices, TriMesh};
use am_printer::{check_limits_at_feed, scan, BuildEnvelope, PrintedPart, Process, ScanReport};
use am_slicer::{
    build_transform, diagnose_slices, orient_shells, try_generate_toolpath, try_slice_shells_with,
    Orientation, SliceReport, ToolMaterial,
};
use obfuscade::{PipelineOutput, ProcessPlan, StageHasher};

/// Name of the root span every staged job records its stages under.
pub const JOB_SPAN: &str = "job";

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name (`layer.stage`), or [`JOB_SPAN`] for a job's root.
    pub name: &'static str,
    /// Identifier shared by every span of one job.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, job: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, job, parent);
        let result = f();
        self.close(id);
        result
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total ms and count per span name, over all jobs.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut totals: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.name).or_default();
            entry.0 += span.ms();
            entry.1 += 1;
        }
        totals
    }

    /// Per job root: (job id, root duration, sum of its direct children),
    /// durations in ms.
    pub fn job_coverage(&self) -> Vec<(u64, f64, f64)> {
        let mut children: BTreeMap<usize, f64> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *children.entry(parent).or_default() += span.ms();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == JOB_SPAN)
            .map(|(i, s)| (s.job, s.ms(), children.get(&i).copied().unwrap_or(0.0)))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"job\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Everything a job produces that correctness is judged on: triangle
/// count, slice report, tool-path lengths, printed weight and voxel-grid
/// digest, scan, cold-joint contact and tensile result bits.
#[derive(Debug, Clone, PartialEq)]
pub struct Observables {
    /// Triangles in the exported STL.
    pub triangles: usize,
    /// Exact binary STL size.
    pub stl_bytes: u64,
    /// Slicing defect diagnosis.
    pub slice: SliceReport,
    /// Model and support road length, layer count, print-time estimate.
    pub toolpath: (f64, f64, usize, f64),
    /// Printed weight (g).
    pub weight_g: f64,
    /// Digest of the printed voxel grid.
    pub grid_digest: u128,
    /// Internal-structure scan.
    pub scan: ScanReport,
    /// Cold-joint contact fraction.
    pub joint_contact: f64,
    /// UTS, Young's modulus, failure strain, toughness, ruptured.
    pub tensile: Option<(f64, f64, f64, f64, bool)>,
}

impl Observables {
    /// The observables of a `run_pipeline` output.
    pub fn of(out: &PipelineOutput) -> Observables {
        Observables {
            triangles: out.mesh_triangles,
            stl_bytes: out.stl_bytes,
            slice: out.slice_report.clone(),
            toolpath: (
                out.toolpath.model_mm,
                out.toolpath.support_mm,
                out.toolpath.layers,
                out.toolpath.time_s,
            ),
            weight_g: out.printed.weight_g(),
            grid_digest: out.printed.grid_digest(),
            scan: out.scan,
            joint_contact: out.joint_contact,
            tensile: out.tensile.as_ref().map(|t| {
                (
                    t.uts_mpa,
                    t.young_modulus_gpa,
                    t.failure_strain,
                    t.toughness_kj_m3,
                    t.ruptured,
                )
            }),
        }
    }

    /// A 64-bit fold of every field, for cheap comparison against a
    /// reference run.
    pub fn digest(&self) -> u64 {
        let mut h = StageHasher::new("perfbench/observables/v1");
        h.write_u64(self.triangles as u64);
        h.write_u64(self.stl_bytes);
        h.write_str(&format!("{:?}", self.slice));
        h.write_f64(self.toolpath.0);
        h.write_f64(self.toolpath.1);
        h.write_u64(self.toolpath.2 as u64);
        h.write_f64(self.toolpath.3);
        h.write_f64(self.weight_g);
        h.write_u64(self.grid_digest as u64);
        h.write_u64((self.grid_digest >> 64) as u64);
        h.write_str(&format!("{:?}", self.scan));
        h.write_f64(self.joint_contact);
        if let Some((uts, young, strain, tough, ruptured)) = self.tensile {
            for v in [uts, young, strain, tough] {
                h.write_f64(v);
            }
            h.write_u8(u8::from(ruptured));
        }
        h.finish().to_words()[0]
    }
}

/// Work counts of one staged job.
#[derive(Debug, Clone, Copy, Default)]
pub struct StagedCounts {
    /// Triangles tessellated.
    pub triangles: usize,
    /// Slice layers.
    pub layers: usize,
    /// Roads in the tool path.
    pub roads: usize,
    /// Deposition spans planned (process-global counter delta).
    pub spans_planned: u64,
    /// Voxels filled by planned spans (process-global counter delta).
    pub span_fill_voxels: u64,
    /// Solver work (process-global counter delta).
    pub solver: am_fea::SolverCounters,
}

/// Re-executes one clean (fault-free) job stage by stage under a `job`
/// root span, mirroring the pipeline's own calls: CAD resolve →
/// tessellation (+ seam report and the repair check) → orientation and
/// contour slicing → slice analysis → tool path → firmware limits →
/// deposition + support removal → scan → lattice → solve.
///
/// # Errors
///
/// A description of the first failing stage.
pub fn run_staged(
    part: &Part,
    plan: &ProcessPlan,
    pool: &SolverPool,
    rec: &mut Recorder,
    job: u64,
) -> Result<(Observables, StagedCounts), String> {
    let root = rec.open(JOB_SPAN, job, None);
    let parent = Some(root);
    let mut counts = StagedCounts::default();

    let resolved = rec
        .time("cad.resolve", job, parent, || part.resolve())
        .map_err(|e| e.to_string())?;
    let params = plan.resolution.params();
    let (shells, seam) = rec.time("mesh.tessellate", job, parent, || {
        let mut shells: Vec<TriMesh> = tessellate_shells(&resolved, &params);
        let seam = seam_report(&resolved, &params);
        let tol = Tolerance::new(1e-9);
        if shells.iter().any(|s| s.degenerate_count(tol) > 0) {
            shells = shells.iter().map(|s| weld_vertices(s, tol).0).collect();
        }
        (shells, seam)
    });
    counts.triangles = shells.iter().map(TriMesh::triangle_count).sum();
    if counts.triangles == 0 {
        return Err("empty build".to_string());
    }

    let config = plan.slicer;
    let bed_margin = Transform3::translation(Vec3::new(5.0, 5.0, 0.0));
    // Each stage frees the intermediates it uses last inside its own
    // span, as the untraced job frees them inside its own wall time.
    let (sliced, to_build) = rec
        .time("slicer.contours", job, parent, move || {
            let oriented: Vec<TriMesh> = orient_shells(&shells, plan.orientation)
                .iter()
                .map(|m| m.transformed(&bed_margin))
                .collect();
            let to_build = build_transform(&shells, plan.orientation).then(&bed_margin);
            try_slice_shells_with(&oriented, config.layer_height, plan.parallelism)
                .map(|s| (s, to_build))
        })
        .map_err(|e| e.to_string())?;
    let slice = rec.time("slicer.analysis", job, parent, || {
        diagnose_slices(&sliced, config.analysis_cell)
    });
    counts.layers = slice.layers;

    let (toolpath, stats) = rec
        .time("slicer.toolpath", job, parent, move || {
            try_generate_toolpath(&sliced, &config).map(|tp| {
                let stats = (
                    tp.total_length(ToolMaterial::Model),
                    tp.total_length(ToolMaterial::Support),
                    tp.layer_count(),
                    tp.try_print_time_estimate(plan.printer.feed_mm_per_s)
                        .unwrap_or(0.0),
                );
                (tp, stats)
            })
        })
        .map_err(|e| e.to_string())?;
    counts.roads = toolpath.roads.len();
    let violations = rec.time("printer.firmware", job, parent, || {
        let envelope = match plan.printer.process {
            Process::Fdm => BuildEnvelope::dimension_elite(),
            Process::PolyJet => BuildEnvelope::objet30_pro(),
        };
        check_limits_at_feed(&toolpath, &envelope, Some(plan.printer.feed_mm_per_s))
    });
    if let Some(first) = violations.first() {
        return Err(format!("firmware rejected the tool path: {first}"));
    }

    let stamp_before = am_printer::stamp_counters();
    let printed = rec
        .time("printer.deposit", job, parent, move || {
            PrintedPart::try_from_toolpath_planned(
                &toolpath,
                &plan.printer,
                to_build,
                plan.seed,
                plan.parallelism,
            )
            .map(|mut p| {
                p.dissolve_support();
                p
            })
        })
        .map_err(|e| e.to_string())?;
    let stamp_after = am_printer::stamp_counters();
    counts.spans_planned = stamp_after.spans_planned - stamp_before.spans_planned;
    counts.span_fill_voxels = stamp_after.span_fill_voxels - stamp_before.span_fill_voxels;
    let scanned = rec.time("printer.inspect", job, parent, || scan(&printed));

    // The cold-joint contact model, as the pipeline derives it from the
    // seam report and the slice diagnosis.
    let joint_contact = match (&seam, plan.orientation) {
        (Some(s), Orientation::Xy) => {
            (1.0 - 1.5 * s.chain_mismatch / config.road_width).clamp(0.3, 1.0)
        }
        (Some(_), Orientation::Xz) => {
            let frac = if slice.layers == 0 {
                0.0
            } else {
                slice.discontinuous_layers as f64 / slice.layers as f64
            };
            (1.0 - 0.5 * frac).clamp(0.3, 1.0)
        }
        (None, _) => 1.0,
    };

    let tensile = if plan.tensile {
        let tensile_config = TensileConfig {
            joint_contact,
            solver: plan.fea_solver,
            ..TensileConfig::fdm(plan.orientation)
        };
        let lattice = rec
            .time("fea.lattice", job, parent, || {
                Lattice::try_from_printed(&printed, &tensile_config, plan.seed)
            })
            .map_err(|e| e.to_string())?;
        let solver_before = am_fea::solver_counters();
        let result = rec
            .time("fea.solve", job, parent, move || {
                let mut lattice = lattice;
                pool.run(&mut lattice, &tensile_config, plan.parallelism)
            })
            .map_err(|e| e.to_string())?;
        counts.solver = am_fea::solver_counters().since(&solver_before);
        Some((
            result.uts_mpa,
            result.young_modulus_gpa,
            result.failure_strain,
            result.toughness_kj_m3,
            result.ruptured,
        ))
    } else {
        None
    };
    rec.close(root);

    let observables = Observables {
        triangles: counts.triangles,
        stl_bytes: binary_stl_size(counts.triangles),
        slice,
        toolpath: stats,
        weight_g: printed.weight_g(),
        grid_digest: printed.grid_digest(),
        scan: scanned,
        joint_contact,
        tensile,
    };
    Ok((observables, counts))
}
