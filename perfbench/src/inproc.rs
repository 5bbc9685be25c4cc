//! The in-process workloads — `cold-native` and `tensile-study` — and the
//! traced re-execution shared by every workload.

use std::time::Instant;

use am_cad::Part;
use am_fea::SolverPool;
use am_mesh::Resolution;
use am_par::Parallelism;
use am_service::JobSpec;
use am_slicer::Orientation;
use obfuscade::{
    run_pipeline, run_pipeline_jobs_with, BatchJob, Deadline, FaultPlan, ProcessPlan, StageCache,
};

use crate::report::RunResult;
use crate::stats::{
    coverage, highest_supported, mean, median, overhead_pct, peak_rss_mb, percentile, sorted,
};
use crate::trace::{run_staged, Observables, Recorder, StagedCounts};
use crate::Rng;

/// Set-up repetitions at the start of a run and before each study pass.
const SETUP_REPS: usize = 9;
/// Job-set builds timed as one set-up repetition: one build takes tens of
/// microseconds, too short to time steadily on its own.
const SETUP_BUILDS: usize = 200;
/// Tail percentiles tried, highest first, for per-job latency.
const TAIL_LADDER: &[f64] = &[0.99, 0.9, 0.75];

const RESOLUTIONS: [Resolution; 2] = [Resolution::Coarse, Resolution::Fine];
const ORIENTATIONS: [Orientation; 2] = [Orientation::Xy, Orientation::Xz];

/// A job ready to run: the part and the plan.
pub type Job = (Part, ProcessPlan);

/// Builds the parts and plans for `specs`.
///
/// # Errors
///
/// A spec naming an unknown part, or a CAD failure.
pub fn build_jobs(specs: &[JobSpec]) -> Result<Vec<Job>, String> {
    specs
        .iter()
        .map(|s| Ok((s.build_part()?, s.plan())))
        .collect()
}

/// Set-up time sampled through a run. On a shared 2-vCPU VM the host's
/// speed shifted by up to 1.6x for seconds at a time, and one repetition (a few milliseconds of
/// small allocations) feels that more than the jobs do: the median
/// repetition moved by 25-35% between two ten-run sets whose throughput
/// moved by 1-7%. Repetitions are therefore interleaved with the measured
/// work and `setup_s` is the fastest of them (per job-set build), which
/// stays at the build's own cost whenever the run sees the host at speed.
struct SetupTimer<'a> {
    specs: &'a [JobSpec],
    /// Mean build time of each repetition (s).
    times: Vec<f64>,
    /// Wall time spent in repetitions (s), kept out of measured time.
    spent: f64,
}

impl<'a> SetupTimer<'a> {
    fn new(specs: &'a [JobSpec]) -> SetupTimer<'a> {
        SetupTimer {
            specs,
            times: Vec::new(),
            spent: 0.0,
        }
    }

    /// Times `reps` repetitions of [`SETUP_BUILDS`] builds; returns the
    /// jobs of the last build.
    fn sample(&mut self, reps: usize) -> Result<Vec<Job>, String> {
        let mut jobs = Vec::new();
        for _ in 0..reps {
            let t = Instant::now();
            for _ in 0..SETUP_BUILDS {
                jobs = build_jobs(self.specs)?;
            }
            let s = t.elapsed().as_secs_f64();
            self.spent += s;
            self.times.push(s / SETUP_BUILDS as f64);
        }
        Ok(jobs)
    }

    fn put(&self, r: &mut RunResult) {
        let times = sorted(&self.times);
        r.put(
            "setup_s",
            times.first().copied().unwrap_or(0.0),
            times.len(),
        );
        r.line(format!(
            "setup: median {:.4e} s per build, fastest {:.4e}, slowest {:.4e} (n={})",
            median(&times),
            times.first().unwrap_or(&0.0),
            times.last().unwrap_or(&0.0),
            times.len()
        ));
    }
}

/// `cold-native`: every protected demo part × resolution × orientation,
/// at the slicer's native settings, tensile off, in seeded order.
pub fn cold_native_specs(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed ^ 0xc01d);
    let mut specs = Vec::new();
    for part in ["bar", "bracket", "prism"] {
        for resolution in RESOLUTIONS {
            for orientation in ORIENTATIONS {
                specs.push(JobSpec {
                    part: part.to_string(),
                    resolution,
                    orientation,
                    seed: rng.below(1 << 20) as u64 + 1,
                    layer: None,
                    ..JobSpec::default()
                });
            }
        }
    }
    rng.shuffle(&mut specs);
    specs
}

/// `tensile-study`: the Table 2 replicate study — spline-split and intact
/// bars × resolution × orientation × replicates 1 and 2, tensile on,
/// native settings, submitted in seeded order. The replicate numbers are
/// the specimen seeds: they set the solver's work (its iteration counts
/// differ by about 30% between seed sets), so they stay fixed and the
/// workload seed only permutes the submission.
pub fn tensile_specs(seed: u64) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for replicate in 1..=2 {
        for intact in [false, true] {
            for resolution in RESOLUTIONS {
                for orientation in ORIENTATIONS {
                    specs.push(JobSpec {
                        part: "bar".to_string(),
                        intact,
                        resolution,
                        orientation,
                        seed: replicate,
                        tensile: true,
                        layer: None,
                        ..JobSpec::default()
                    });
                }
            }
        }
    }
    Rng::new(seed ^ 0x7e51).shuffle(&mut specs);
    specs
}

/// Whether a run of whole passes should stop: it has at least
/// `min_passes` and another half pass would pass the time budget.
fn passes_done(passes: usize, min_passes: usize, elapsed: f64, seconds: f64) -> bool {
    passes >= min_passes && elapsed + elapsed / passes as f64 / 2.0 >= seconds
}

fn batch(jobs: &[Job]) -> Vec<BatchJob<'_>> {
    jobs.iter()
        .map(|(part, plan)| BatchJob {
            part,
            plan: plan.clone(),
            faults: FaultPlan::none(),
        })
        .collect()
}

/// Untraced `cold-native`: serial `run_pipeline` calls, no cache, in
/// whole passes over the job set; the reference is the same jobs through
/// the shared-prefix batch engine.
pub fn cold_native(seed: u64, seconds: f64, nproc: usize) -> Result<RunResult, String> {
    let mut r = RunResult::default();
    let specs = cold_native_specs(seed);
    let mut setup = SetupTimer::new(&specs);
    let jobs = setup.sample(SETUP_REPS)?;
    let setup_before = setup.spent;

    let mut latencies = Vec::new();
    let mut pass_means = Vec::new();
    let mut digests: Vec<Vec<u64>> = vec![Vec::new(); jobs.len()];
    let start = Instant::now();
    let mut passes = 0;
    while !passes_done(passes, 1, start.elapsed().as_secs_f64(), seconds) {
        let pass_start = latencies.len();
        for (i, (part, plan)) in jobs.iter().enumerate() {
            setup.sample(1)?;
            r.attempted += 1;
            let t = Instant::now();
            match run_pipeline(part, plan) {
                Ok(out) => {
                    latencies.push(t.elapsed().as_secs_f64() * 1e3);
                    digests[i].push(Observables::of(&out).digest());
                }
                Err(e) => r.fail(format!("job {i}: {e}")),
            }
        }
        pass_means.push(mean(&latencies[pass_start..]));
        passes += 1;
    }
    let measured = start.elapsed().as_secs_f64() - (setup.spent - setup_before);
    setup.put(&mut r);
    r.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), 1);
    r.put(
        "throughput_per_s",
        latencies.len() as f64 / measured,
        latencies.len(),
    );
    // The job set is 12 fixed jobs of very different cost, so the median
    // job sits on a gap between two of them and jumps with small speed
    // changes; the median over passes of the mean job is the steady
    // figure of a typical job.
    r.put("latency_p50_ms", median(&pass_means), pass_means.len());
    let lat = sorted(&latencies);
    r.line(format!(
        "cold-native: {passes} passes of {} jobs in {measured:.3} s",
        jobs.len()
    ));
    r.line(format!(
        "jobs_per_s {:.4} (n={})",
        latencies.len() as f64 / measured,
        lat.len()
    ));
    r.line(format!(
        "job_p50_ms {:.3} (n={})",
        percentile(&lat, 0.5).unwrap_or(f64::NAN),
        lat.len()
    ));
    match highest_supported(&lat, TAIL_LADDER) {
        Some((q, v)) => r.line(format!("job_p{:.0}_ms {v:.3} (n={})", q * 100.0, lat.len())),
        None => r.line(format!(
            "job tail: no percentile has 10 samples beyond it (n={})",
            lat.len()
        )),
    }

    let cache = StageCache::with_budget(StageCache::DEFAULT_BUDGET);
    let reference = run_pipeline_jobs_with(
        &batch(&jobs),
        &cache,
        Parallelism::threads(nproc),
        Deadline::none(),
    );
    for (i, outcome) in reference.iter().enumerate() {
        let expected = match outcome {
            Ok(out) => Observables::of(out).digest(),
            Err(e) => {
                r.fail(format!("reference job {i}: {e}"));
                continue;
            }
        };
        for got in &digests[i] {
            if *got != expected {
                r.fail(format!(
                    "job {i}: output digest differs from the batch reference"
                ));
            }
        }
    }
    Ok(r)
}

/// Untraced `tensile-study`: whole study passes through the batch engine,
/// each with a fresh stage cache and `nproc` threads. Every pass must
/// reproduce the first pass's outputs, and two specimens are re-run
/// through plain `run_pipeline` as an independent reference.
pub fn tensile_study(seed: u64, seconds: f64, nproc: usize) -> Result<RunResult, String> {
    let mut r = RunResult::default();
    let specs = tensile_specs(seed);
    let mut setup = SetupTimer::new(&specs);
    let jobs = setup.sample(SETUP_REPS)?;

    let jobs_batch = batch(&jobs);
    let mut pass_ms = Vec::new();
    let mut first: Vec<Option<u64>> = Vec::new();
    let mut completed = 0usize;
    let start = Instant::now();
    while !passes_done(pass_ms.len(), 2, start.elapsed().as_secs_f64(), seconds) {
        setup.sample(SETUP_REPS)?;
        let cache = StageCache::with_budget(StageCache::DEFAULT_BUDGET);
        let t = Instant::now();
        let outcomes = run_pipeline_jobs_with(
            &jobs_batch,
            &cache,
            Parallelism::threads(nproc),
            Deadline::none(),
        );
        pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let digests: Vec<Option<u64>> = outcomes
            .iter()
            .map(|o| o.as_ref().ok().map(|out| Observables::of(out).digest()))
            .collect();
        for (i, outcome) in outcomes.iter().enumerate() {
            r.attempted += 1;
            match outcome {
                Ok(_) => completed += 1,
                Err(e) => r.fail(format!("specimen {i}: {e}")),
            }
        }
        if first.is_empty() {
            first = digests;
        } else {
            for (i, (a, b)) in first.iter().zip(&digests).enumerate() {
                if a.is_some() && b.is_some() && a != b {
                    r.fail(format!(
                        "specimen {i}: pass {} differs from pass 1",
                        pass_ms.len()
                    ));
                }
            }
        }
    }
    let measured: f64 = pass_ms.iter().sum::<f64>() / 1e3;
    setup.put(&mut r);
    r.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), 1);
    r.put("throughput_per_s", completed as f64 / measured, completed);
    r.put("latency_p50_ms", median(&pass_ms), pass_ms.len());
    r.line(format!(
        "tensile-study: {} passes of {} specimens, pass ms {pass_ms:.1?}",
        pass_ms.len(),
        jobs.len()
    ));
    r.line(format!(
        "jobs_per_s {:.4} (n={completed})",
        completed as f64 / measured
    ));

    // Independent reference: the first split and the first intact
    // specimen of the seeded order, through the plain, uncached runner.
    let first_of = |intact: bool| specs.iter().position(|s| s.intact == intact).unwrap_or(0);
    for i in [first_of(false), first_of(true)] {
        let (part, plan) = &jobs[i];
        let plan = plan.clone().with_parallelism(Parallelism::threads(nproc));
        match run_pipeline(part, &plan) {
            Ok(out) if Some(Observables::of(&out).digest()) == first[i] => {}
            Ok(_) => r.fail(format!(
                "specimen {i}: batch output differs from run_pipeline"
            )),
            Err(e) => r.fail(format!("reference specimen {i}: {e}")),
        }
    }
    Ok(r)
}

/// Aggregates of a traced re-execution.
#[derive(Debug, Default)]
pub struct TraceAgg {
    /// Untraced `run_pipeline` wall time per job (ms).
    pub untraced_ms: Vec<f64>,
    /// Work counts of each traced job.
    pub counts: Vec<StagedCounts>,
}

/// Runs jobs untraced and then staged under `rec`, alternating which goes
/// first, until `seconds` have passed and at least `min_jobs` ran
/// (cycling through `jobs`). Every staged output must equal the
/// untraced one.
pub fn trace_jobs(
    jobs: &[Job],
    seconds: f64,
    min_jobs: usize,
    rec: &mut Recorder,
    r: &mut RunResult,
) -> TraceAgg {
    let pool = SolverPool::new();
    let mut agg = TraceAgg::default();
    if jobs.is_empty() {
        return agg;
    }
    let start = Instant::now();
    let mut k = 0usize;
    while k < min_jobs || start.elapsed().as_secs_f64() < seconds {
        let i = k % jobs.len();
        let (part, plan) = &jobs[i];
        let job_id = k as u64;
        let untraced = |agg: &mut TraceAgg| {
            let t = Instant::now();
            let out = run_pipeline(part, plan);
            agg.untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out
        };
        r.attempted += 1;
        let (plain, staged) = if k.is_multiple_of(2) {
            let plain = untraced(&mut agg);
            (plain, run_staged(part, plan, &pool, rec, job_id))
        } else {
            let staged = run_staged(part, plan, &pool, rec, job_id);
            (untraced(&mut agg), staged)
        };
        match (plain, staged) {
            (Ok(out), Ok((obs, counts))) => {
                if Observables::of(&out) != obs {
                    r.fail(format!("job {i}: staged outputs differ from run_pipeline"));
                }
                agg.counts.push(counts);
            }
            (Err(e), _) => r.fail(format!("job {i}: {e}")),
            (_, Err(e)) => r.fail(format!("job {i} (staged): {e}")),
        }
        k += 1;
    }
    agg
}

/// Stage span names and the per-layer metric each one feeds.
const STAGE_METRICS: &[(&str, &str)] = &[
    ("cad.resolve", "cad.resolve_ms"),
    ("mesh.tessellate", "mesh.tessellate_ms"),
    ("slicer.contours", "slicer.contours_ms"),
    ("slicer.analysis", "slicer.analysis_ms"),
    ("slicer.toolpath", "slicer.toolpath_ms"),
    ("printer.firmware", "printer.firmware_ms"),
    ("printer.deposit", "printer.deposit_ms"),
    ("printer.inspect", "printer.inspect_ms"),
    ("fea.lattice", "fea.lattice_ms"),
    ("fea.solve", "fea.solve_ms"),
];

/// Puts the stage, count, `core.job_ms` and trace-quality metrics of a
/// traced re-execution. Stage times and counts are means per job, so
/// they add up to the mean span sum; `core.trace_coverage` compares the
/// median span sum with the median untraced job.
pub fn put_trace_metrics(r: &mut RunResult, rec: &Recorder, agg: &TraceAgg) {
    let jobs = agg.counts.len();
    if jobs == 0 {
        return;
    }
    let totals = rec.totals();
    let mut stage_sum = 0.0;
    for &(span, metric) in STAGE_METRICS {
        if let Some(&(ms, n)) = totals.get(span) {
            r.put(metric, ms / jobs as f64, n);
            stage_sum += ms / jobs as f64;
        }
    }
    let per_job = |f: fn(&StagedCounts) -> f64| agg.counts.iter().map(f).sum::<f64>() / jobs as f64;
    r.put("mesh.triangles", per_job(|c| c.triangles as f64), jobs);
    r.put("slicer.layers", per_job(|c| c.layers as f64), jobs);
    r.put("slicer.roads", per_job(|c| c.roads as f64), jobs);
    r.put(
        "printer.spans_planned",
        per_job(|c| c.spans_planned as f64),
        jobs,
    );
    r.put(
        "printer.span_fill_voxels",
        per_job(|c| c.span_fill_voxels as f64),
        jobs,
    );
    if totals.contains_key("fea.solve") {
        r.put(
            "fea.newton_iters",
            per_job(|c| c.solver.newton_iters as f64),
            jobs,
        );
        r.put(
            "fea.pcg_iters",
            per_job(|c| c.solver.pcg_iters as f64),
            jobs,
        );
        r.put(
            "fea.residual_evals",
            per_job(|c| c.solver.force_evals as f64),
            jobs,
        );
    }

    // Each traced job against its own untraced run (job ids index
    // `untraced_ms`), so job-size differences cancel.
    let (mut covered, mut overheads, mut span_sums) = (Vec::new(), Vec::new(), Vec::new());
    for (job, root, spans) in rec.job_coverage() {
        if let Some(&untraced) = agg.untraced_ms.get(job as usize) {
            covered.push(coverage(spans, untraced));
            overheads.push(overhead_pct(root, untraced));
            span_sums.push(spans);
        }
    }
    let untraced = median(&agg.untraced_ms);
    r.put("core.job_ms", untraced, agg.untraced_ms.len());
    r.put("core.trace_coverage", median(&covered), covered.len());
    r.put(
        "core.trace_overhead_pct",
        median(&overheads),
        overheads.len(),
    );
    r.line(format!(
        "trace: {jobs} jobs, mean stage sum {stage_sum:.3} ms, median span sum {:.3} ms, median untraced job {untraced:.3} ms",
        median(&span_sums)
    ));
    let largest = STAGE_METRICS
        .iter()
        .filter_map(|&(span, metric)| totals.get(span).map(|t| (t.0, metric)))
        .fold((0.0, ""), |best, x| if x.0 > best.0 { x } else { best });
    r.line(format!("trace: largest stage {}", largest.1));
}

/// Traced `cold-native`: the same jobs, untraced and staged.
pub fn cold_native_traced(
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
) -> Result<RunResult, String> {
    let mut r = RunResult::default();
    let jobs = build_jobs(&cold_native_specs(seed))?;
    let agg = trace_jobs(&jobs, seconds, jobs.len(), rec, &mut r);
    put_trace_metrics(&mut r, rec, &agg);
    Ok(r)
}

/// Traced `tensile-study`: one untraced study pass for the cache and
/// solver-pool counters, then every specimen untraced and staged (at
/// least once each, for enough pairs to compare on a noisy host).
pub fn tensile_study_traced(
    seed: u64,
    seconds: f64,
    nproc: usize,
    rec: &mut Recorder,
) -> Result<RunResult, String> {
    let mut r = RunResult::default();
    let jobs = build_jobs(&tensile_specs(seed))?;

    let cache = StageCache::with_budget(StageCache::DEFAULT_BUDGET);
    let pool_before = obfuscade::fea_solver_pool_stats();
    let outcomes = run_pipeline_jobs_with(
        &batch(&jobs),
        &cache,
        Parallelism::threads(nproc),
        Deadline::none(),
    );
    let pool_after = obfuscade::fea_solver_pool_stats();
    for (i, o) in outcomes.iter().enumerate() {
        r.attempted += 1;
        if let Err(e) = o {
            r.fail(format!("specimen {i}: {e}"));
        }
    }
    let stats = cache.stats();
    put_cache_metrics(&mut r, stats.hits, stats.misses, stats.evictions, 0, 0);
    let reuses = pool_after.reuses - pool_before.reuses;
    let builds = pool_after.builds - pool_before.builds;
    let runs = (reuses + builds) as usize;
    r.put(
        "fea.pool_reuse_ratio",
        reuses as f64 / runs.max(1) as f64,
        runs,
    );

    let agg = trace_jobs(&jobs, seconds, jobs.len(), rec, &mut r);
    put_trace_metrics(&mut r, rec, &agg);
    Ok(r)
}

/// Puts the `core.cache.*` metrics from traffic counters.
pub fn put_cache_metrics(
    r: &mut RunResult,
    hits: u64,
    misses: u64,
    evictions: u64,
    spill_writes: u64,
    spill_hits: u64,
) {
    let lookups = (hits + misses) as usize;
    r.put(
        "core.cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        lookups,
    );
    r.put("core.cache.hits", hits as f64, lookups);
    r.put("core.cache.misses", misses as f64, lookups);
    r.put("core.cache.evictions", evictions as f64, lookups);
    r.put("core.cache.spill_writes", spill_writes as f64, lookups);
    r.put("core.cache.spill_hits", spill_hits as f64, lookups);
}
