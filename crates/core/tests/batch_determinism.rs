//! Determinism properties for the content-addressed stage cache and the
//! shared-prefix batch engine (PR 3).
//!
//! The batch engine's contract is that caching is *invisible* except in
//! wall-clock time: `run_pipeline_batch` / `sweep_key_space` must return
//! **bit-identical** output to independent cold `run_pipeline` calls — for
//! clean runs and seeded fault-injection runs alike, at every thread
//! budget, and even when clean and faulted runs share one cache (the
//! fault-poisoning rule). As in `parallel_determinism.rs`, comparing the
//! `Debug` rendering of the whole `Result` makes the check exhaustive: a
//! single ULP of drift anywhere in the output breaks the string equality.

use am_cad::parts::{prism_with_sphere, tensile_bar, PrismDims, TensileBarDims};
use am_cad::{BodyKind, MaterialRemoval, Part};
use am_geom::Point3;
use am_mesh::Resolution;
use am_par::Parallelism;
use am_slicer::{Orientation, SlicerConfig};
use obfuscade::{
    run_pipeline, run_pipeline_batch_with, run_pipeline_cached, run_pipeline_jobs,
    run_pipeline_with_faults, sweep_key_space, BatchJob, FaultPlan, FeaSolver, ProcessKey,
    ProcessPlan, Stage, StageCache,
};
use proptest::prelude::*;

/// Fault specs spanning the catalog's stages (subset of the
/// `parallel_determinism.rs` list), plus the clean run.
const FAULT_SPECS: &[&str] = &[
    "",
    "stl.degenerate=3",
    "stl.void=0.15 stl.flip=2",
    "toolpath.dup=0.5 toolpath.drop=0.2",
    "slicer.zero_layer toolpath.drop=0.5",
    "firmware.feed=1.5",
];

fn fault_plan(spec: &str, seed: u64) -> FaultPlan {
    if spec.is_empty() {
        FaultPlan::none().with_seed(seed)
    } else {
        spec.parse::<FaultPlan>().expect(spec).with_seed(seed)
    }
}

fn specimen(sphere_radius: f64) -> Part {
    let dims = PrismDims { size: Point3::new(25.4, 12.7, 12.7), sphere_radius };
    prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without).expect("prism")
}

/// A coarse slicer config keeping each pipeline run cheap.
fn coarse_slicer(layer: f64) -> SlicerConfig {
    SlicerConfig {
        layer_height: layer,
        road_width: layer,
        analysis_cell: layer / 2.0,
        ..SlicerConfig::default()
    }
}

/// A batch of plans with genuinely shared prefixes: both orientations ×
/// two seeds, so the mesh is shared 4 ways and each slice/tool-path
/// prefix 2 ways.
fn plan_batch(layer: f64, tensile: bool, solver: FeaSolver, seed: u64) -> Vec<ProcessPlan> {
    let mut plans = Vec::new();
    for orientation in [Orientation::Xy, Orientation::Xz] {
        for ds in 0..2u64 {
            let mut plan = ProcessPlan::fdm(Resolution::Coarse, orientation)
                .with_seed(seed + ds)
                .with_tensile(tensile)
                .with_fea_solver(solver);
            plan.slicer = coarse_slicer(layer);
            plans.push(plan);
        }
    }
    plans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `run_pipeline_batch_with` must be indistinguishable from independent
    /// `run_pipeline_with_faults` calls — with and without seeded faults,
    /// across thread budgets {1, 2, 8}.
    #[test]
    fn batch_is_bit_identical_to_independent_runs(
        spec_idx in 0..FAULT_SPECS.len(),
        fault_seed in 1..10_000u64,
        layer in 0.5..0.9f64,
        sphere_radius in 2.0..4.0f64,
        tensile in 0..2usize,
        solver_idx in 0..2usize,
    ) {
        let part = specimen(sphere_radius);
        let faults = fault_plan(FAULT_SPECS[spec_idx], fault_seed);
        let plans = plan_batch(layer, tensile == 1, FeaSolver::ALL[solver_idx], fault_seed);

        let independent: Vec<String> = plans
            .iter()
            .map(|plan| format!("{:?}", run_pipeline_with_faults(&part, plan, &faults)))
            .collect();

        for threads in [1usize, 2, 8] {
            let cache = StageCache::default();
            let batch = run_pipeline_batch_with(
                &part,
                &plans,
                &faults,
                &cache,
                Parallelism::threads(threads),
            );
            prop_assert_eq!(batch.len(), plans.len());
            for (slot, (cold, hot)) in independent.iter().zip(&batch).enumerate() {
                prop_assert_eq!(
                    cold,
                    &format!("{:?}", hot),
                    "batch slot {} diverged at threads={} (faults: {}, seed {})",
                    slot,
                    threads,
                    FAULT_SPECS[spec_idx],
                    fault_seed
                );
            }
            // The batch genuinely shared work: 4 plans, 1 unique mesh.
            prop_assert!(cache.stats().hits > 0, "no cache hits in a shared-prefix batch");
        }
    }
}

/// The acceptance pin: `sweep_key_space` over the **full**
/// `ProcessKey::key_space()` returns exactly what cold per-key
/// `run_pipeline` calls return, slot for slot.
#[test]
fn sweep_key_space_is_bit_identical_to_cold_per_key_runs() {
    let dims = PrismDims { size: Point3::new(18.0, 9.0, 9.0), sphere_radius: 3.0 };
    let mut base = ProcessPlan::fdm(Resolution::Fine, Orientation::Xy).with_seed(7);
    base.slicer = coarse_slicer(0.7);
    let keys = ProcessKey::key_space();

    let cache = StageCache::default();
    let swept = sweep_key_space(
        |recipe| prism_with_sphere(&dims, recipe.body, recipe.removal),
        &base,
        &keys,
        &cache,
        Parallelism::threads(2),
    );
    assert_eq!(swept.len(), keys.len());

    for (key, result) in &swept {
        let part = prism_with_sphere(&dims, key.recipe.body, key.recipe.removal).expect("part");
        let plan = ProcessPlan {
            resolution: key.resolution,
            orientation: key.orientation,
            ..base.clone()
        };
        let cold = run_pipeline(&part, &plan);
        assert_eq!(
            format!("{cold:?}"),
            format!("{result:?}"),
            "sweep diverged from cold run at key {key}"
        );
    }

    // 24 keys share 12 unique meshes (4 recipes × 3 resolutions): the
    // sweep must have actually deduplicated the prefix work.
    let stats = cache.stats();
    assert!(stats.hits >= 12, "expected ≥ 12 mesh hits, got {stats:?}");
}

/// Solver poisoning at the cache level: a Newton–PCG run and a relaxation
/// run sharing one cache must each still match their cold counterparts.
/// The two solvers agree only to solver tolerance — not to the bit — so a
/// tensile curve computed by one must never be served to the other, even
/// though every upstream stage (mesh through print) is legitimately
/// shared.
#[test]
fn tensile_solvers_never_alias_in_a_shared_cache() {
    let part = specimen(3.0);
    let mut plan = ProcessPlan::fdm(Resolution::Coarse, Orientation::Xy)
        .with_seed(13)
        .with_tensile(true);
    plan.slicer = coarse_slicer(0.6);
    let faults = FaultPlan::none();
    let newton = plan.clone().with_fea_solver(FeaSolver::NewtonPcg);
    let relax = plan.clone().with_fea_solver(FeaSolver::Relaxation);

    let cold_newton = format!("{:?}", run_pipeline_with_faults(&part, &newton, &faults));
    let cold_relax = format!("{:?}", run_pipeline_with_faults(&part, &relax, &faults));

    let cache = StageCache::default();
    // Warm with Newton–PCG, then ask for relaxation (and again, hot): the
    // cache must rebuild the tensile stage for the other solver, not
    // replay the cached curve.
    for _ in 0..2 {
        let hot_newton = format!("{:?}", run_pipeline_cached(&part, &newton, &faults, &cache));
        let hot_relax = format!("{:?}", run_pipeline_cached(&part, &relax, &faults, &cache));
        assert_eq!(cold_newton, hot_newton);
        assert_eq!(cold_relax, hot_relax);
    }
    // Upstream prefix stages were genuinely shared across the solvers.
    assert!(cache.stats().hits > 0, "no cache hits across solver variants");
}

/// Fault poisoning: a clean run and a faulted run sharing one cache must
/// each still match their cold counterparts — the faulted run may not
/// serve any stage from the clean run's entries (or vice versa).
#[test]
fn faulted_runs_never_alias_clean_ones_in_a_shared_cache() {
    let part = specimen(3.0);
    let mut plan = ProcessPlan::fdm(Resolution::Coarse, Orientation::Xy).with_seed(11);
    plan.slicer = coarse_slicer(0.6);
    let clean = FaultPlan::none().with_seed(42);
    let faulted = fault_plan("stl.degenerate=3 toolpath.dup=0.5", 42);

    let cold_clean = format!("{:?}", run_pipeline_with_faults(&part, &plan, &clean));
    let cold_faulted = format!("{:?}", run_pipeline_with_faults(&part, &plan, &faulted));
    assert_ne!(cold_clean, cold_faulted, "fault plan was a no-op; test is vacuous");

    let cache = StageCache::default();
    // Warm the cache with the clean run, then run faulted (and once more
    // each, fully hot) — every answer must match its cold counterpart.
    for _ in 0..2 {
        let hot_clean = format!("{:?}", run_pipeline_cached(&part, &plan, &clean, &cache));
        let hot_faulted = format!("{:?}", run_pipeline_cached(&part, &plan, &faulted, &cache));
        assert_eq!(cold_clean, hot_clean);
        assert_eq!(cold_faulted, hot_faulted);
    }
}

/// Content-keyed tensile stage in the batch engine: the intact bar is a
/// box, so its Coarse and Fine plans print identical gauge sections and
/// build byte-identical lattices — the batch must solve that lattice once,
/// not once per resolution, and still return exactly what independent
/// runs return. Two faulted jobs whose print fails (every road dropped)
/// share one print key: the first records the failure while prints warm,
/// the second replays it, and neither may disturb the clean jobs.
#[test]
fn identical_lattices_solve_once_per_batch() {
    let bar = tensile_bar(&TensileBarDims::default()).expect("bar");
    let plan = |resolution: Resolution, tensile: bool| {
        ProcessPlan::fdm(resolution, Orientation::Xy).with_seed(3).with_tensile(tensile)
    };
    let no_roads = fault_plan("toolpath.drop=1", 5);
    let jobs_for = |tensile: bool| {
        vec![
            BatchJob { part: &bar, plan: plan(Resolution::Coarse, tensile), faults: FaultPlan::none() },
            BatchJob { part: &bar, plan: plan(Resolution::Fine, tensile), faults: FaultPlan::none() },
            BatchJob { part: &bar, plan: plan(Resolution::Fine, tensile), faults: no_roads.clone() },
            BatchJob { part: &bar, plan: plan(Resolution::Coarse, tensile), faults: no_roads.clone() },
        ]
    };
    let jobs = jobs_for(true);
    let independent: Vec<String> = jobs
        .iter()
        .map(|job| format!("{:?}", run_pipeline_with_faults(job.part, &job.plan, &job.faults)))
        .collect();
    let failure = run_pipeline_with_faults(&bar, &jobs[2].plan, &no_roads).expect_err("no roads");
    assert_eq!(failure.stage(), Stage::Print, "the faulted job must fail at the print: {failure}");

    for threads in [1usize, 2] {
        let cache = StageCache::default();
        let batch = run_pipeline_jobs(&jobs, &cache, Parallelism::threads(threads));
        assert_eq!(batch.len(), jobs.len());
        for (slot, (cold, hot)) in independent.iter().zip(&batch).enumerate() {
            assert_eq!(cold, &format!("{hot:?}"), "batch slot {slot} diverged at threads={threads}");
        }

        // The same batch without the tensile test inserts every other
        // stage artifact; the tensile test adds exactly one entry.
        let untested = StageCache::default();
        for result in run_pipeline_jobs(&jobs_for(false), &untested, Parallelism::threads(threads))
            .iter()
            .take(2)
        {
            assert!(result.is_ok(), "clean tensile-off job failed: {result:?}");
        }
        assert_eq!(
            cache.stats().insertions,
            untested.stats().insertions + 1,
            "threads={threads}: Coarse and Fine intact lattices must share one solve"
        );
    }
}
