//! Shared-prefix batch evaluation of pipeline runs.
//!
//! The paper's experiments are *sweeps*: the same part (or small part
//! family) pushed through many [`ProcessPlan`]s that differ only in their
//! tail — orientation, seed, slicer settings. Run independently, every
//! plan repays the full CAD→STL→slice→print chain even though long stage
//! prefixes are identical. The batch engine instead:
//!
//! 1. derives every plan's chained stage keys up front (pure hashing —
//!    no stage executes);
//! 2. *warms* each unique prefix exactly once, phase by phase (all unique
//!    mesh keys, then all unique slice keys, then all unique tool-path
//!    keys), fanning the representatives out on the `am-par` pool — within
//!    a phase the representatives are key-disjoint, so no work duplicates;
//! 3. runs a tensile phase for the jobs that test: each prints and builds
//!    its lattice to learn the tensile stage's *content* key (DESIGN.md
//!    §9), and the first job per distinct lattice solves — plans whose
//!    prints are byte-identical (an intact bar at two STL resolutions)
//!    share one solve. The phase is skipped when no job asks for the
//!    tensile test;
//! 4. runs every plan through [`run_pipeline_cached`], where the shared
//!    prefix and every solve are now cache hits and only the remaining
//!    suffix computes.
//!
//! Results are **bit-identical** to independent [`run_pipeline`] calls
//! (pinned by `tests/batch_determinism.rs`): the cache stores exactly what
//! each stage computes, and the determinism contract (DESIGN.md §8) makes
//! the thread budget unobservable in the output.
//!
//! Tensile replicates additionally share the process-wide FEA solver pool
//! (DESIGN.md §10): each replicate checks out a pooled
//! [`SolverScratch`](am_fea::SolverScratch) — CSR incidence, packed bond
//! parameters, Newton–PCG work vectors — instead of reallocating it, so a
//! sweep's per-replicate setup cost amortises across the batch. Pooling is
//! allocation reuse only; every buffer is rebuilt or overwritten per run,
//! so it is unobservable in the results.
//!
//! [`run_pipeline`]: crate::run_pipeline

use std::collections::{HashMap, HashSet};

use am_cad::{CadError, Part};
use am_par::{Parallelism, Pool};
use am_printer::PrintError;

use crate::cache::{StageCache, StageKey};
use crate::fault::FaultPlan;
use crate::key::ProcessKey;
use crate::pipeline::{
    plan_keys, run_pipeline_cached_deadline, warm_prefix, Deadline, PipelineError, PipelineOutput,
    PlanKeys, PrefixDepth, ProcessPlan, Stage,
};

/// One unit of batch work: a part, the full process plan to run it under,
/// and the faults to inject.
#[derive(Debug, Clone)]
pub struct BatchJob<'a> {
    /// The part to manufacture.
    pub part: &'a Part,
    /// The complete process plan.
    pub plan: ProcessPlan,
    /// Faults to inject ([`FaultPlan::none`] for a clean run).
    pub faults: FaultPlan,
}

/// Runs a batch of jobs against a shared [`StageCache`], evaluating each
/// unique stage prefix exactly once.
///
/// Results come back in input order, one per job, each exactly what the
/// corresponding independent [`run_pipeline_with_faults`] call returns.
/// Inside the batch every plan's own thread budget is overridden to
/// serial — parallelism comes from fanning *across* jobs instead, and the
/// determinism contract makes the switch unobservable in the output.
///
/// Errors never enter the [`StageCache`] (it outlives the batch and a
/// cached error could mask a later code change), but they are not
/// recomputed either: a prefix that fails during warming — possibly
/// *after* substantial work, e.g. a tessellation allocation cap — records
/// its [`PipelineError`] in a per-batch side map keyed by the failed
/// prefix's stage key, and every job sharing that prefix replays the
/// recorded error instead of re-deriving it. Determinism makes the replay
/// exact: the clone renders identically to what an independent run would
/// produce.
///
/// [`run_pipeline_with_faults`]: crate::run_pipeline_with_faults
pub fn run_pipeline_jobs(
    jobs: &[BatchJob<'_>],
    cache: &StageCache,
    parallelism: Parallelism,
) -> Vec<Result<PipelineOutput, PipelineError>> {
    run_pipeline_jobs_with(jobs, cache, parallelism, Deadline::none())
}

/// [`run_pipeline_jobs`] under a cooperative [`Deadline`] shared by the
/// whole batch — the service daemon's per-request cancellation hook.
///
/// The deadline is budget-checked between stages, during warming and
/// during the final pass alike. Jobs the deadline catches return
/// [`PipelineError::DeadlineExceeded`]; jobs whose stages all started in
/// time complete normally. A deadline that never expires makes this
/// byte-identical to [`run_pipeline_jobs`].
///
/// Deadline errors are wall-clock accidents, not functions of a stage
/// key, so they are **never** recorded in the per-batch failure map and
/// never poison the shared cache: re-running the same jobs with a fresh
/// deadline recomputes (or cache-hits) them cleanly.
pub fn run_pipeline_jobs_with(
    jobs: &[BatchJob<'_>],
    cache: &StageCache,
    parallelism: Parallelism,
    deadline: Deadline,
) -> Vec<Result<PipelineOutput, PipelineError>> {
    let jobs: Vec<BatchJob<'_>> = jobs
        .iter()
        .map(|job| BatchJob {
            part: job.part,
            plan: job.plan.clone().with_parallelism(Parallelism::serial()),
            faults: job.faults.clone(),
        })
        .collect();
    let keys: Vec<PlanKeys> = jobs
        .iter()
        .map(|job| plan_keys(job.part, &job.plan, &job.faults))
        .collect();

    let pool = Pool::new(parallelism);
    type KeySelector = fn(&PlanKeys) -> StageKey;
    let phases: [(PrefixDepth, KeySelector); 3] = [
        (PrefixDepth::Mesh, |k| k.mesh),
        (PrefixDepth::Slice, |k| k.slice),
        (PrefixDepth::Toolpath, |k| k.toolpath),
    ];
    // Deterministic warm failures, keyed by the stage key of the prefix
    // that produced them. Populated between phases (never concurrently),
    // read by the final pass.
    let mut failed: HashMap<StageKey, PipelineError> = HashMap::new();
    for (depth, select) in phases {
        // A representative whose shallower prefix already failed would
        // only replay that same failure — skip it.
        let reps: Vec<usize> = prefix_representatives(&keys, select)
            .into_iter()
            .filter(|&i| !shallower_prefix_failed(&failed, &keys[i], depth))
            .collect();
        let outcomes = pool.par_map(&reps, |&i| {
            let job = &jobs[i];
            warm_prefix(job.part, &job.plan, &job.faults, cache, depth, deadline).err()
        });
        for (&i, err) in reps.iter().zip(outcomes) {
            // Record the error only if the stage it names is a pure
            // function of this phase's key. Plan-validation errors (bad
            // slicer config during mesh warming, bad printer profile
            // during mesh/slice warming) are NOT: two plans can share a
            // mesh key while only one carries the invalid config, so
            // attributing the error to the shared key would poison valid
            // jobs. Those fall through and are re-derived by the final
            // pass's own validation, which is cheap.
            if let Some(e) = err.filter(|e| stage_determined_by(depth, e.stage())) {
                record_failure(&mut failed, select(&keys[i]), e);
            }
        }
    }

    // Tensile phase: print every tensile job and key it by the content of
    // its lattice, then solve each distinct lattice once. Plans that print
    // identical gauge sections (an intact bar at two STL resolutions)
    // share one solve; the final pass finds every solve cached.
    let tensile: Vec<usize> = (0..jobs.len())
        .filter(|&i| {
            jobs[i].plan.tensile
                && !shallower_prefix_failed(&failed, &keys[i], PrefixDepth::Lattice)
        })
        .collect();
    let lattice_keys = pool.par_map(&tensile, |&i| {
        let job = &jobs[i];
        warm_prefix(job.part, &job.plan, &job.faults, cache, PrefixDepth::Lattice, deadline)
    });
    let mut seen: HashSet<StageKey> = HashSet::with_capacity(tensile.len());
    let mut solve: Vec<usize> = Vec::new();
    for (&i, outcome) in tensile.iter().zip(lattice_keys) {
        match outcome {
            Ok(key) => {
                if key.is_some_and(|key| seen.insert(key)) {
                    solve.push(i);
                }
            }
            // The print key pins everything a print and a lattice are
            // built from — the tool path, printer and seed; the
            // orientation; and, through the mesh and slice, the joint
            // contact — so either failure is a pure function of it.
            Err(e) => record_failure(&mut failed, keys[i].print, e),
        }
    }
    pool.par_map(&solve, |&i| {
        let job = &jobs[i];
        // Only the cache entry matters here; an error is re-derived by the
        // final pass.
        let _ = run_pipeline_cached_deadline(job.part, &job.plan, &job.faults, cache, deadline);
    });

    let indexed: Vec<usize> = (0..jobs.len()).collect();
    pool.par_map(&indexed, |&i| {
        let job = &jobs[i];
        let k = &keys[i];
        // Mirror `run_pipeline_inner`'s error ordering exactly: plan
        // validation precedes every stage, so it must also precede the
        // recorded-failure replay.
        job.plan.slicer.validate().map_err(PipelineError::InvalidConfig)?;
        job.plan
            .printer
            .validate()
            .map_err(|e| PipelineError::Print(PrintError::Profile(e)))?;
        for key in [k.mesh, k.slice, k.toolpath, k.print] {
            if let Some(e) = failed.get(&key) {
                // A lattice failure recorded under the print key concerns
                // only the jobs that go on to the tensile test.
                if job.plan.tensile || e.stage() != Stage::Test {
                    return Err(e.clone());
                }
            }
        }
        run_pipeline_cached_deadline(job.part, &job.plan, &job.faults, cache, deadline)
    })
}

/// Records a deterministic warm failure against the stage key it is a
/// pure function of. Deadline expiry is a property of the wall clock, not
/// of the stage key — recording it would replay a spurious timeout to
/// later jobs sharing the prefix — so it is dropped.
fn record_failure(
    failed: &mut HashMap<StageKey, PipelineError>,
    key: StageKey,
    e: PipelineError,
) {
    if !matches!(e, PipelineError::DeadlineExceeded { .. }) {
        failed.insert(key, e);
    }
}

/// Whether an error at `stage`, observed while warming to `depth`, is a
/// pure function of that phase's stage key (and may therefore be recorded
/// against it and replayed to every job sharing the key).
///
/// The mesh key pins the part recipe, resolution and STL/repair faults —
/// it determines CAD, STL and repair failures, but says nothing about the
/// slicer config. The slice key adds orientation, the full slicer config
/// and slicer faults, so it additionally determines slice failures
/// (including post-fault config re-validation). The tool-path key hashes
/// the entire remaining input set of its stages — every stage a warm can
/// fail in is a function of it.
fn stage_determined_by(depth: PrefixDepth, stage: Stage) -> bool {
    match depth {
        PrefixDepth::Mesh => matches!(stage, Stage::Cad | Stage::Stl | Stage::Repair),
        PrefixDepth::Slice => {
            matches!(stage, Stage::Cad | Stage::Stl | Stage::Repair | Stage::Slice)
        }
        PrefixDepth::Toolpath | PrefixDepth::Lattice => true,
    }
}

/// Whether one of this plan's prefixes shallower than `depth` already has
/// a recorded failure (in which case warming to `depth` is pointless —
/// it would stop at the same failure).
fn shallower_prefix_failed(
    failed: &HashMap<StageKey, PipelineError>,
    keys: &PlanKeys,
    depth: PrefixDepth,
) -> bool {
    [
        (PrefixDepth::Mesh, keys.mesh),
        (PrefixDepth::Slice, keys.slice),
        (PrefixDepth::Toolpath, keys.toolpath),
    ]
    .iter()
    .any(|&(prefix, key)| prefix < depth && failed.contains_key(&key))
}

/// First job index per unique stage key — the set of jobs that must run a
/// warming pass for this phase. Within a phase the representatives carry
/// pairwise-distinct keys, so parallel warming never duplicates a stage.
fn prefix_representatives(keys: &[PlanKeys], select: fn(&PlanKeys) -> StageKey) -> Vec<usize> {
    let mut seen: HashSet<StageKey> = HashSet::with_capacity(keys.len());
    let mut reps = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        if seen.insert(select(k)) {
            reps.push(i);
        }
    }
    reps
}

/// Runs one part through many plans, sharing every common stage prefix.
///
/// Convenience front end over [`run_pipeline_jobs`]: fresh default-budget
/// cache, no faults, [`Parallelism::auto`]. Results are in plan order and
/// bit-identical to independent [`run_pipeline`] calls.
///
/// [`run_pipeline`]: crate::run_pipeline
///
/// # Examples
///
/// ```no_run
/// use am_cad::parts::{tensile_bar_with_spline, TensileBarDims};
/// use am_mesh::Resolution;
/// use am_slicer::Orientation;
/// use obfuscade::{run_pipeline_batch, ProcessPlan};
///
/// let part = tensile_bar_with_spline(&TensileBarDims::default())?;
/// let plans: Vec<ProcessPlan> = [Orientation::Xy, Orientation::Xz]
///     .into_iter()
///     .map(|o| ProcessPlan::fdm(Resolution::Fine, o))
///     .collect();
/// // Both orientations share the Fine mesh: it tessellates once.
/// for result in run_pipeline_batch(&part, &plans) {
///     let output = result?;
///     println!("{}: {} layers", output.part_name, output.slice_report.layers);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_pipeline_batch(
    part: &Part,
    plans: &[ProcessPlan],
) -> Vec<Result<PipelineOutput, PipelineError>> {
    let cache = StageCache::default();
    run_pipeline_batch_with(part, plans, &FaultPlan::none(), &cache, Parallelism::auto())
}

/// [`run_pipeline_batch`] with explicit faults, cache and thread budget.
///
/// The caller-supplied cache persists across calls, so successive batches
/// (or an experiment suite) keep sharing prefixes; read
/// [`StageCache::stats`] to see the traffic.
pub fn run_pipeline_batch_with(
    part: &Part,
    plans: &[ProcessPlan],
    faults: &FaultPlan,
    cache: &StageCache,
    parallelism: Parallelism,
) -> Vec<Result<PipelineOutput, PipelineError>> {
    let jobs: Vec<BatchJob<'_>> = plans
        .iter()
        .map(|plan| BatchJob { part, plan: plan.clone(), faults: faults.clone() })
        .collect();
    run_pipeline_jobs(&jobs, cache, parallelism)
}

/// Sweeps a set of [`ProcessKey`]s — the counterfeiter's search, evaluated
/// in bulk.
///
/// `part_for_recipe` builds the part for each key's CAD recipe (keys whose
/// part fails to build report [`PipelineError::Cad`] in their slot);
/// `base` supplies everything the key does not pin (slicer, printer, seed,
/// tensile flag). Keys sharing a recipe and resolution share their mesh,
/// keys sharing an orientation on top share slices and tool paths — each
/// unique prefix computes once against `cache`.
///
/// Results are in key order and bit-identical to running each key through
/// [`run_pipeline`] independently (pinned by `tests/batch_determinism.rs`).
///
/// [`run_pipeline`]: crate::run_pipeline
pub fn sweep_key_space<F>(
    mut part_for_recipe: F,
    base: &ProcessPlan,
    keys: &[ProcessKey],
    cache: &StageCache,
    parallelism: Parallelism,
) -> Vec<(ProcessKey, Result<PipelineOutput, PipelineError>)>
where
    F: FnMut(crate::key::CadRecipe) -> Result<Part, CadError>,
{
    // Build each key's part once per *distinct recipe*, reusing the built
    // part across the resolutions/orientations that share it (identical
    // parts then share mesh keys naturally).
    let mut built: Vec<(crate::key::CadRecipe, Result<Part, CadError>)> = Vec::new();
    for key in keys {
        if !built.iter().any(|(recipe, _)| *recipe == key.recipe) {
            built.push((key.recipe, part_for_recipe(key.recipe)));
        }
    }

    let mut jobs: Vec<BatchJob<'_>> = Vec::new();
    for key in keys {
        if let Some((_, Ok(part))) = built.iter().find(|(recipe, _)| *recipe == key.recipe) {
            jobs.push(BatchJob {
                part,
                plan: ProcessPlan {
                    resolution: key.resolution,
                    orientation: key.orientation,
                    ..base.clone()
                },
                faults: FaultPlan::none(),
            });
        }
    }
    let mut results = run_pipeline_jobs(&jobs, cache, parallelism).into_iter();
    drop(jobs);

    let mut out: Vec<(ProcessKey, Result<PipelineOutput, PipelineError>)> =
        Vec::with_capacity(keys.len());
    for key in keys {
        let slot = match built.iter().position(|(recipe, _)| *recipe == key.recipe) {
            Some(i) => i,
            None => continue, // unreachable: every recipe was built above
        };
        match &built[slot].1 {
            Ok(_) => {
                if let Some(result) = results.next() {
                    out.push((*key, result));
                }
            }
            Err(e) => out.push((*key, Err(PipelineError::Cad(e.clone())))),
        }
    }
    out
}
