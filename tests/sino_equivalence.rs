//! Equivalence properties of the incremental Phase II solvers against the
//! seed clone-and-reevaluate implementations kept in
//! `gsino_sino::reference`.
//!
//! The [`DeltaEval`]-driven greedy constructor, net-ordering baseline and
//! annealer must be observationally *identical* to the seed solvers —
//! same layouts bit for bit, and therefore the same
//! [`gsino_sino::keff::Evaluation`] values — across random instances,
//! budgets, sensitivity rates and annealing seeds. This is the Phase II
//! counterpart of `router_equivalence.rs`'s `reference::SeedIdRouter`
//! contract.

use gsino_grid::SensitivityModel;
use gsino_sino::anneal::AnnealConfig;
use gsino_sino::delta::DeltaEval;
use gsino_sino::instance::{SegmentSpec, SinoInstance};
use gsino_sino::keff::evaluate;
use gsino_sino::layout::Layout;
use gsino_sino::solver::{SinoSolver, SolverConfig};
use gsino_sino::{greedy, reference};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn instance(n: usize, rate: f64, kth: f64, seed: u64) -> SinoInstance {
    let segs = (0..n).map(|i| SegmentSpec { net: i as u32, kth }).collect();
    SinoInstance::from_model(segs, &SensitivityModel::new(rate, seed)).expect("valid instance")
}

/// An instance whose budgets differ per segment: log-uniform in
/// `[1e-3, 10^1.5]`, drawn from `budget_seed`.
fn mixed_instance(n: usize, rate: f64, budget_seed: u64, seed: u64) -> SinoInstance {
    let mut rng = StdRng::seed_from_u64(budget_seed);
    let segs = (0..n)
        .map(|i| SegmentSpec {
            net: i as u32,
            kth: 10f64.powf(rng.gen_range(-3.0..1.5)),
        })
        .collect();
    SinoInstance::from_model(segs, &SensitivityModel::new(rate, seed)).expect("valid instance")
}

/// Greedy and the seed greedy agree on `inst`, layout and evaluation.
fn assert_greedy_agrees(inst: &SinoInstance, what: &str) {
    let fast = greedy::solve_greedy(inst);
    let slow = reference::solve_greedy(inst);
    assert_eq!(fast, slow, "{what}");
    assert_eq!(evaluate(inst, &fast), evaluate(inst, &slow), "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The delta-driven greedy solver returns bit-identical layouts to the
    /// seed greedy solver, and its evaluation matches a from-scratch one:
    /// with one uniform budget or per-segment budgets, and with a drawn
    /// sensitivity rate or the tie-heavy rates 0 and 1 (`rate_mode` 1, 2).
    #[test]
    fn greedy_matches_reference(
        n in 0usize..24,
        rate_pct in 0u32..=100,
        rate_mode in 0u8..3,
        kth_exp in -3i32..2,
        budget_seed in 0u64..5000,
        mixed in 0u8..2,
        seed in 0u64..5000,
    ) {
        let rate = match rate_mode {
            0 => rate_pct as f64 / 100.0,
            1 => 0.0,
            _ => 1.0,
        };
        let inst = if mixed == 1 {
            mixed_instance(n, rate, budget_seed, seed)
        } else {
            instance(n, rate, 10f64.powi(kth_exp), seed)
        };
        assert_greedy_agrees(&inst, "small");
    }

    /// The delta-driven net-ordering baseline matches the seed one.
    #[test]
    fn order_only_matches_reference(
        n in 0usize..40,
        rate_pct in 0u32..=100,
        seed in 0u64..5000,
    ) {
        let inst = instance(n, rate_pct as f64 / 100.0, 1.0, seed);
        prop_assert_eq!(greedy::order_only(&inst), reference::order_only(&inst));
    }

    /// The apply/undo annealer consumes the RNG identically to the seed
    /// clone-and-rescore annealer and lands on the same layout.
    #[test]
    fn annealer_matches_reference(
        n in 2usize..12,
        rate_pct in 10u32..=100,
        kth_exp in -2i32..1,
        seed in 0u64..5000,
        iters in 1usize..900,
    ) {
        let inst = instance(n, rate_pct as f64 / 100.0, 10f64.powi(kth_exp), seed);
        let start = reference::solve_greedy(&inst);
        let cfg = AnnealConfig { iters, seed, ..AnnealConfig::default() };
        let fast = gsino_sino::anneal::improve(&inst, start.clone(), &cfg);
        let slow = reference::improve(&inst, start, &cfg);
        prop_assert_eq!(fast, slow);
    }

    /// The full solver facade (greedy + optional anneal + validation)
    /// matches `reference::solve` for both configurations, including when
    /// one `DeltaEval` scratch is reused across consecutive solves.
    #[test]
    fn solver_facade_matches_reference(
        n in 0usize..14,
        rate_pct in 0u32..=100,
        seed in 0u64..5000,
        anneal_iters in 0usize..600,
    ) {
        let inst = instance(n, rate_pct as f64 / 100.0, 0.4, seed);
        // `0` doubles as "no annealing" to cover both solver configs.
        let config = match anneal_iters {
            0 => SolverConfig::default(),
            iters => SolverConfig::with_anneal(iters, seed),
        };
        let slow = reference::solve(&config, &inst).expect("reference solve");
        let mut scratch = DeltaEval::new();
        let fast = SinoSolver::new(config)
            .solve_with(&inst, &mut scratch)
            .expect("incremental solve");
        prop_assert_eq!(&fast, &slow);
        // Scratch reuse: solving again from the dirty scratch must not
        // change the answer.
        let again = SinoSolver::new(config)
            .solve_with(&inst, &mut scratch)
            .expect("incremental solve, reused scratch");
        prop_assert_eq!(&again, &slow);
    }

    /// Random edit sequences on a `DeltaEval` stay bitwise-equal to a
    /// from-scratch `evaluate` at every step (the oracle that underpins
    /// all the equivalences above), including across a mid-sequence
    /// `load` retarget.
    #[test]
    fn delta_eval_matches_scratch_evaluate(
        n in 1usize..10,
        rate_pct in 0u32..=100,
        kth_exp in -2i32..2,
        seed in 0u64..5000,
        ops in prop::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..48),
    ) {
        let inst = instance(n, rate_pct as f64 / 100.0, 10f64.powi(kth_exp), seed);
        let mut delta = DeltaEval::new();
        delta.load(&inst, &Layout::from_order(&(0..n).collect::<Vec<_>>()));
        for (i, (op, x, y)) in ops.into_iter().enumerate() {
            let area = delta.area();
            match op {
                0 => delta.swap(&inst, x % area, y % area),
                1 => delta.relocate(&inst, x % area, y % (area + 1)),
                2 => delta.insert_shield(&inst, x % (area + 1)),
                _ => {
                    delta.remove_shield_at(&inst, x % area);
                }
            }
            let layout = delta.to_layout();
            prop_assert_eq!(delta.evaluation(), evaluate(&inst, &layout), "op {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Regions up to 60 segments with per-segment budgets. The placement
    /// scan's overflow brackets widen with the block length, so this is
    /// where they most often fail to decide and exact evaluation has to
    /// take over.
    #[test]
    fn greedy_matches_reference_large_mixed(
        n in 24usize..=60,
        rate_pct in 0u32..=100,
        budget_seed in 0u64..5000,
        seed in 0u64..5000,
    ) {
        let inst = mixed_instance(n, rate_pct as f64 / 100.0, budget_seed, seed);
        assert_greedy_agrees(&inst, "large");
    }
}

/// Tie-heavy regions at full size: with rate 0 no placement gap differs,
/// and with rate 1 and one budget mirrored gaps tie in exact arithmetic,
/// so the `1e-12` tolerance decides between near-equal f64 overflows.
#[test]
fn tie_heavy_regions_match_reference() {
    for rate in [0.0, 1.0] {
        for n in [7, 19, 40, 60] {
            for kth in [0.05, 0.7, 3.0] {
                let inst = instance(n, rate, kth, n as u64);
                assert_greedy_agrees(&inst, &format!("rate {rate} n {n} kth {kth}"));
            }
            let inst = mixed_instance(n, rate, 7, n as u64);
            assert_greedy_agrees(&inst, &format!("rate {rate} n {n} mixed budgets"));
        }
    }
}

/// One denser non-property check: a tight-budget, high-sensitivity batch
/// where repair and compaction both do real work — every layout, shield
/// count and coupling vector must agree with the reference solver.
#[test]
fn dense_batch_full_agreement() {
    let mut scratch = DeltaEval::new();
    for seed in 0..24u64 {
        let inst = instance(14, 0.7, 0.15, seed);
        let slow = reference::solve_greedy(&inst);
        let fast = greedy::solve_greedy_with(&inst, &mut scratch);
        assert_eq!(fast, slow, "seed {seed}");
        let eval = evaluate(&inst, &fast);
        assert!(eval.feasible, "seed {seed} infeasible");
        assert_eq!(eval, evaluate(&inst, &slow));
    }
}
