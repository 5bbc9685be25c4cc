//! Virtual tensile testing of printed parts: a 2-D bond-lattice fracture
//! simulator.
//!
//! This crate replaces the paper's physical tensile tests (Table 2, Fig. 9)
//! with a transparent mechanical model:
//!
//! 1. [`Lattice::from_printed`] samples the printed artifact's gauge
//!    section at mid-thickness into a node grid; bonds inherit strength and
//!    ductility from the printer profile (road vs. layer anisotropy mapped
//!    through the build orientation) and become brittle **cold joints**
//!    wherever the voxels' body tags change — i.e. exactly along a planted
//!    spline split.
//! 2. [`run_tensile_test`] pulls the gauge apart in strain steps with
//!    elastic–perfectly-plastic–brittle springs and damped dynamic
//!    relaxation; breaking cascades propagate cracks.
//! 3. [`TensileResult`] reports the stress–strain curve, Young's modulus,
//!    UTS, failure strain, toughness, and the fracture origin.
//!
//! The mechanism the paper describes emerges rather than being scripted:
//! after yield, deformation localizes in the weak seam bonds, which snap at
//! their reduced ductility — so a protected specimen keeps its modulus and
//! (mostly) its strength but loses half or more of its failure strain and
//! toughness, with the crack starting at the spline tip.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod kernel;
mod lattice;
mod newton;
mod result;
mod solve;

pub use config::{FeaConfigError, FeaSolver, TensileConfig};
pub use kernel::{
    reset_solver_counters, run_tensile_test_with, solver_counters, try_run_tensile_test_in,
    try_run_tensile_test_with, SolverPool, SolverPoolStats, SolverScratch,
};
pub use lattice::{Bond, BondState, Grip, Lattice, Node};
pub use result::{SolverCounters, Stat, TensileResult, TensileSummary};
pub use solve::{run_tensile_test, run_tensile_test_reference, try_run_tensile_test_reference};

#[cfg(test)]
mod tests {
    use super::*;
    use am_cad::parts::{tensile_bar, tensile_bar_with_spline, TensileBarDims};
    use am_mesh::{tessellate_shells, Resolution};
    use am_printer::{PrintedPart, PrinterProfile};
    use am_slicer::{
        build_transform, generate_toolpath, orient_shells, slice_shells, Orientation,
        SlicerConfig,
    };

    fn print_bar(split: bool, orientation: Orientation, seed: u64) -> PrintedPart {
        let dims = TensileBarDims::default();
        let part = if split {
            tensile_bar_with_spline(&dims).unwrap().resolve().unwrap()
        } else {
            tensile_bar(&dims).unwrap().resolve().unwrap()
        };
        let shells = tessellate_shells(&part, &Resolution::Coarse.params());
        let oriented = orient_shells(&shells, orientation);
        let to_build = build_transform(&shells, orientation);
        let sliced = slice_shells(&oriented, 0.1778);
        let toolpath = generate_toolpath(&sliced, &SlicerConfig::default());
        PrintedPart::from_toolpath(&toolpath, &PrinterProfile::dimension_elite(), to_build, seed)
    }

    pub(crate) fn test_bar(split: bool, orientation: Orientation, seed: u64) -> TensileResult {
        let printed = print_bar(split, orientation, seed);
        // Coarser strain steps than the default keep the test suite quick;
        // the experiment binaries use the fine default.
        let config =
            TensileConfig { strain_step: 0.0015, ..TensileConfig::fdm(orientation) };
        let mut lattice = Lattice::from_printed(&printed, &config, seed);
        run_tensile_test(&mut lattice, &config)
    }

    #[test]
    fn intact_xy_is_in_calibration_band() {
        let r = test_bar(false, Orientation::Xy, 1);
        assert!((1.5..2.6).contains(&r.young_modulus_gpa), "E = {}", r.young_modulus_gpa);
        assert!((24.0..36.0).contains(&r.uts_mpa), "UTS = {}", r.uts_mpa);
        assert!((0.018..0.045).contains(&r.failure_strain), "εf = {}", r.failure_strain);
    }

    #[test]
    fn intact_xz_is_most_ductile() {
        let xz = test_bar(false, Orientation::Xz, 1);
        let xy = test_bar(false, Orientation::Xy, 1);
        assert!(
            xz.failure_strain > 1.8 * xy.failure_strain,
            "xz {} vs xy {}",
            xz.failure_strain,
            xy.failure_strain
        );
        assert!(xz.toughness_kj_m3 > 2.0 * xy.toughness_kj_m3);
    }

    #[test]
    fn spline_split_halves_ductility() {
        for orientation in Orientation::ALL {
            let intact = test_bar(false, orientation, 8);
            let spline = test_bar(true, orientation, 8);
            // The paper's headline Table 2 shape: comparable stiffness,
            // collapsed failure strain and toughness. Seed and thresholds are
            // calibrated against the vendored deterministic RNG; the x-y
            // orientation is the tight case because the coarse test
            // strain_step quantizes εf to 1.5e-3 increments.
            assert!(
                (spline.young_modulus_gpa - intact.young_modulus_gpa).abs()
                    < 0.35 * intact.young_modulus_gpa,
                "{orientation}: E {} vs {}",
                spline.young_modulus_gpa,
                intact.young_modulus_gpa
            );
            assert!(
                spline.failure_strain < 0.72 * intact.failure_strain,
                "{orientation}: εf {} vs {}",
                spline.failure_strain,
                intact.failure_strain
            );
            assert!(
                spline.toughness_kj_m3 < 0.60 * intact.toughness_kj_m3,
                "{orientation}: U {} vs {}",
                spline.toughness_kj_m3,
                intact.toughness_kj_m3
            );
        }
    }

    #[test]
    fn fracture_starts_at_the_seam() {
        let dims = TensileBarDims::default();
        let r = test_bar(true, Orientation::Xz, 3);
        let origin = r.fracture_origin.expect("split specimen fractures");
        // The seam spans x ∈ [−9, 9]; the fracture must start on it
        // (within a lattice cell of the spline).
        let spline = am_cad::parts::standard_split_spline(&dims).unwrap();
        let d = (0..=64)
            .map(|i| spline.point_at(i as f64 / 64.0).distance(origin))
            .fold(f64::INFINITY, f64::min);
        assert!(d < 1.5, "fracture origin {origin} is {d} mm from the seam");
    }

    #[test]
    fn split_lattice_has_joint_bonds() {
        let printed = print_bar(true, Orientation::Xy, 4);
        let config = TensileConfig::fdm_xy();
        let lattice = Lattice::from_printed(&printed, &config, 4);
        assert!(lattice.joint_bond_count() > 10, "{}", lattice.joint_bond_count());
        let intact = Lattice::from_printed(&print_bar(false, Orientation::Xy, 4), &config, 4);
        assert_eq!(intact.joint_bond_count(), 0);
    }

    /// A quick configuration for kernel-equivalence tests: coarse lattice,
    /// few strain steps — enough physics to break bonds, small enough that
    /// running it several times (and with oversubscribed thread pools on a
    /// small CI box) stays fast.
    fn quick_config(orientation: Orientation) -> TensileConfig {
        TensileConfig {
            node_spacing: 1.0,
            strain_step: 0.004,
            max_strain: 0.048,
            ..TensileConfig::fdm(orientation)
        }
    }

    #[test]
    fn parallel_tensile_is_bit_identical_to_serial() {
        let printed = print_bar(true, Orientation::Xy, 5);
        for solver in FeaSolver::ALL {
            let config = TensileConfig { solver, ..quick_config(Orientation::Xy) };
            let run = |threads: usize| {
                let mut lattice = Lattice::from_printed(&printed, &config, 5);
                run_tensile_test_with(&mut lattice, &config, am_par::Parallelism::threads(threads))
            };
            let serial = run(1);
            assert!(!serial.curve.is_empty());
            for threads in [2, 8] {
                assert_eq!(serial, run(threads), "solver = {solver}, threads = {threads}");
            }
        }
    }

    /// Shared body of the solver-equivalence pins: both optimized solvers
    /// accept the same force-residual tolerance with the same constitutive
    /// law, so they find the same equilibria as the reference kernel — but
    /// by different paths (mass-scaled warm-started relaxation vs.
    /// Newton–PCG). Pre-rupture stresses therefore agree to solver
    /// tolerance (measured drift ≤ 3e-4 relative; asserted at 10×), and
    /// every engineering output must agree tightly. The post-peak tail is
    /// excluded: once the fracture cascade starts, tolerance-level
    /// differences decide individual bond-break order and the rubble
    /// stresses diverge — only the rupture verdict is comparable there.
    fn assert_tracks_reference(solver: FeaSolver) {
        let printed = print_bar(false, Orientation::Xy, 6);
        let config = TensileConfig { solver, ..quick_config(Orientation::Xy) };
        let mut a = Lattice::from_printed(&printed, &config, 6);
        let mut b = Lattice::from_printed(&printed, &config, 6);
        let reference = run_tensile_test_reference(&mut a, &config);
        let optimized = run_tensile_test(&mut b, &config);

        assert_eq!(reference.ruptured, optimized.ruptured, "{solver}: rupture verdict");
        for ((s1, f1), (s2, f2)) in reference.curve.iter().zip(&optimized.curve) {
            assert_eq!(s1, s2);
            if *s1 > reference.failure_strain {
                break;
            }
            assert!(
                (f1 - f2).abs() <= 3e-3 * (1.0 + f1.abs()),
                "{solver} at ε={s1}: {f1} vs {f2}"
            );
        }
        let rel = |x: f64, y: f64, tol: f64, what: &str| {
            assert!((x - y).abs() <= tol * (1.0 + x.abs()), "{solver} {what}: {x} vs {y}");
        };
        rel(reference.young_modulus_gpa, optimized.young_modulus_gpa, 1e-3, "E");
        rel(reference.uts_mpa, optimized.uts_mpa, 3e-3, "UTS");
        rel(reference.toughness_kj_m3, optimized.toughness_kj_m3, 1e-2, "toughness");
        assert!(
            (reference.failure_strain - optimized.failure_strain).abs()
                <= config.strain_step + 1e-12,
            "{solver} εf {} vs {}",
            reference.failure_strain,
            optimized.failure_strain
        );
    }

    #[test]
    fn relaxation_kernel_tracks_reference() {
        assert_tracks_reference(FeaSolver::Relaxation);
    }

    #[test]
    fn newton_pcg_tracks_reference() {
        assert_tracks_reference(FeaSolver::NewtonPcg);
    }

    #[test]
    fn pooled_scratch_reuse_is_bit_identical_to_fresh() {
        let printed_a = print_bar(true, Orientation::Xy, 7);
        let printed_b = print_bar(false, Orientation::Xz, 7);
        let config_a = quick_config(Orientation::Xy);
        let config_b = quick_config(Orientation::Xz);
        let fresh = |printed, config: &TensileConfig, seed| {
            let mut lattice = Lattice::from_printed(printed, config, seed);
            try_run_tensile_test_with(&mut lattice, config, am_par::Parallelism::serial())
                .expect("valid config")
        };
        // One scratch carried across different specimens, topologies and
        // seeds — every pooled result must equal its fresh-scratch twin.
        let mut scratch = SolverScratch::new();
        for (printed, config, seed) in
            [(&printed_a, &config_a, 7u64), (&printed_b, &config_b, 9), (&printed_a, &config_a, 11)]
        {
            let mut lattice = Lattice::from_printed(printed, config, seed);
            let pooled =
                try_run_tensile_test_in(&mut scratch, &mut lattice, config, am_par::Parallelism::serial())
                    .expect("valid config");
            assert_eq!(pooled, fresh(printed, config, seed), "seed {seed}");
        }

        // The SolverPool wrapper recycles scratches and reports it.
        let pool = SolverPool::new();
        for seed in [7u64, 11] {
            let mut lattice = Lattice::from_printed(&printed_a, &config_a, seed);
            let pooled = pool
                .run(&mut lattice, &config_a, am_par::Parallelism::serial())
                .expect("valid config");
            assert_eq!(pooled, fresh(&printed_a, &config_a, seed), "pool seed {seed}");
        }
        let stats = pool.stats();
        assert_eq!((stats.builds, stats.reuses), (1, 1), "{stats:?}");
    }

    /// FNV-1a over the exact bits of a result's curve, fracture path and
    /// rupture verdict.
    fn result_digest(r: &TensileResult) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for &(strain, stress) in &r.curve {
            eat(strain.to_bits());
            eat(stress.to_bits());
        }
        for p in &r.fracture_path {
            eat(p.x.to_bits());
            eat(p.y.to_bits());
        }
        eat(u64::from(r.ruptured));
        h
    }

    /// Golden bits of the Newton–PCG solve on both build orientations of a
    /// split bar. The solver's arithmetic is part of the stage-cache
    /// contract (cached results must equal recomputed ones), so a change
    /// that moves any float here — a reordered sum, a fused multiply-add —
    /// must be deliberate, with the tensile key's domain bumped alongside.
    #[test]
    fn newton_pcg_results_are_pinned_bit_for_bit() {
        for (orientation, golden) in [(Orientation::Xy, GOLDEN_XY), (Orientation::Xz, GOLDEN_XZ)] {
            let printed = print_bar(true, orientation, 5);
            let config = quick_config(orientation);
            let mut lattice = Lattice::from_printed(&printed, &config, 5);
            let r = try_run_tensile_test_with(&mut lattice, &config, am_par::Parallelism::serial())
                .expect("valid config");
            assert!(!r.fracture_path.is_empty(), "{orientation}: the golden run must break bonds");
            assert_eq!(result_digest(&r), golden, "{orientation}: {:#018x}", result_digest(&r));
        }
    }
    const GOLDEN_XY: u64 = 0x3f79_4322_e75a_e5b6;
    const GOLDEN_XZ: u64 = 0x1477_2b55_f107_61bb;

    #[test]
    fn solver_counters_accumulate() {
        // Counters are process-global and other tests run concurrently, so
        // assert monotonic growth against a snapshot instead of resetting.
        let printed = print_bar(false, Orientation::Xy, 6);
        let config = quick_config(Orientation::Xy);
        let before = solver_counters();
        let mut lattice = Lattice::from_printed(&printed, &config, 6);
        run_tensile_test(&mut lattice, &config);
        let delta = solver_counters().since(&before);
        assert!(delta.force_evals > 0, "{delta:?}");
        assert!(delta.newton_iters > 0, "{delta:?}");
        assert!(delta.inner_iters() >= delta.pcg_iters);
    }

    #[test]
    fn invalid_config_is_a_typed_error_not_a_panic() {
        let printed = print_bar(false, Orientation::Xy, 6);
        let good = quick_config(Orientation::Xy);
        let bad = TensileConfig { strain_step: -1.0, ..good.clone() };
        let mut lattice = Lattice::from_printed(&printed, &good, 6);
        let err = try_run_tensile_test_with(&mut lattice, &bad, am_par::Parallelism::serial())
            .expect_err("negative strain step must fail");
        assert!(matches!(err, FeaConfigError::NonPositive { name: "strain_step", .. }));
        assert!(try_run_tensile_test_reference(&mut lattice, &bad).is_err());
        assert!(Lattice::try_from_printed(&printed, &bad, 6).is_err());
    }

    #[test]
    fn replicates_scatter_but_agree() {
        let results: Vec<TensileResult> =
            (0..3).map(|s| test_bar(false, Orientation::Xy, 10 + s)).collect();
        let summary = TensileSummary::from_results(&results);
        assert_eq!(summary.specimens, 3);
        assert!(summary.uts_mpa.std < 0.2 * summary.uts_mpa.mean);
    }
}

/// Ignored calibration helper: prints spline/intact ductility ratios per
/// seed so `spline_split_halves_ductility` thresholds can be re-tuned when
/// the lattice model or the deterministic RNG changes.
/// Run with `cargo test -p am-fea -- --ignored --nocapture sweep`.
#[cfg(test)]
mod seed_sweep {
    use super::tests::test_bar;

    #[test]
    #[ignore]
    fn sweep() {
        for seed in 1u64..9 {
            for orientation in am_slicer::Orientation::ALL {
                let intact = test_bar(false, orientation, seed);
                let spline = test_bar(true, orientation, seed);
                println!(
                    "seed {seed} {orientation}: E {:.3}/{:.3} ef {:.4}/{:.4} ratio {:.3} U ratio {:.3}",
                    spline.young_modulus_gpa, intact.young_modulus_gpa,
                    spline.failure_strain, intact.failure_strain,
                    spline.failure_strain / intact.failure_strain,
                    spline.toughness_kj_m3 / intact.toughness_kj_m3,
                );
            }
        }
    }
}
