//! Cross-scale invariant suite for the workload scale ladder
//! (`ScaleSpec::ladder()`): structural invariants every rung must
//! satisfy, full-pipeline invariants on a debug-friendly mini rung, and
//! `#[ignore]`d heavy legs for the 5k/50k/500k rungs that CI runs in
//! release (`cargo test --release -- --ignored`).

use gsino::circuits::generator::{circuit_digest, generate_scaled, ScaleSpec};
use gsino::circuits::io::{parse_workload_str, write_workload, Workload};
use gsino::core::pipeline::{run_flow_with_artifacts, Approach, GsinoConfig};
use gsino::grid::{Dir, Technology, TrackUsage};

/// Structural invariants shared by every rung, any tier.
fn assert_structure(spec: &ScaleSpec, wl: &Workload) {
    let circuit = wl.circuit();
    assert_eq!(circuit.num_nets(), spec.num_nets, "{}: net count", spec.id);
    let die = circuit.die();
    assert!(
        (die.width() - f64::from(wl.nx()) * wl.tile_w()).abs() < 1e-6,
        "{}: die width is nx tiles",
        spec.id
    );
    assert!(
        (die.height() - f64::from(wl.ny()) * wl.tile_h()).abs() < 1e-6,
        "{}: die height is ny tiles",
        spec.id
    );
    let mut prev = None;
    for net in circuit.nets() {
        assert!(net.degree() > 0, "{}: empty net", spec.id);
        if let Some(p) = prev {
            assert!(net.id() > p, "{}: ids strictly increasing", spec.id);
        }
        prev = Some(net.id());
        for pin in net.pins() {
            assert!(die.contains(*pin), "{}: pin escapes the die", spec.id);
        }
    }
    // The grid the file dictates must construct under the stock process.
    let grid = wl.grid(&Technology::itrs_100nm()).expect("grid builds");
    assert_eq!(
        u64::from(grid.num_regions()),
        u64::from(wl.nx()) * u64::from(wl.ny()),
        "{}: grid dimensions",
        spec.id
    );
}

/// Generate → write → parse → identity, then the structural checks.
fn round_trip_rung(spec: &ScaleSpec) -> Workload {
    let wl = generate_scaled(spec).expect("rung generates");
    let mut text = Vec::new();
    write_workload(&wl, &mut text).expect("writes");
    let parsed =
        parse_workload_str(&String::from_utf8(text).expect("utf-8")).expect("written rung parses");
    assert_eq!(parsed, wl, "{}: parse ∘ write identity", spec.id);
    assert_structure(spec, &wl);
    wl
}

#[test]
fn ladder_is_well_formed() {
    let ladder = ScaleSpec::ladder();
    assert_eq!(ladder.len(), 3);
    for pair in ladder.windows(2) {
        assert!(
            pair[0].num_nets < pair[1].num_nets,
            "rungs ordered smallest first"
        );
        assert!(pair[0].congestion <= pair[1].congestion);
        assert!(pair[0].fanout_boost <= pair[1].fanout_boost);
    }
    for spec in &ladder {
        let found = ScaleSpec::by_id(&spec.id).expect("by_id finds every rung");
        assert_eq!(&found, spec);
    }
    assert!(ScaleSpec::by_id("nope").is_none());
}

#[test]
fn mini_rung_round_trips() {
    round_trip_rung(&ScaleSpec::rung("mini", 300, 1.0, 0.0));
}

/// Full three-phase pipeline on a debug-friendly rung: every net routed,
/// no capacity overflow, a violation-free final state, self-consistent
/// artifacts, and a deterministic outcome.
#[test]
fn mini_rung_full_pipeline_invariants() {
    let spec = ScaleSpec::rung("mini", 300, 1.0, 0.0);
    let wl = round_trip_rung(&spec);
    let config = GsinoConfig::builder()
        .threads(1)
        .build()
        .expect("valid config");
    let (outcome, internals) =
        run_flow_with_artifacts(wl.circuit(), &config, Approach::Gsino).expect("pipeline runs");

    assert_eq!(
        outcome.routes.len(),
        wl.circuit().num_nets(),
        "every net routed"
    );
    // `wirelength_stats` counts HPWL for trivial single-region routes,
    // so the reported total dominates the route-set sum.
    let routed_um = outcome.routes.total_wirelength(&internals.grid);
    assert!(
        outcome.wirelength.total_um.is_finite()
            && outcome.wirelength.total_um >= routed_um - 1e-6
            && routed_um > 0.0,
        "reported wirelength ({}) must be finite and dominate the route-set sum ({routed_um})",
        outcome.wirelength.total_um
    );
    assert_eq!(
        outcome.usage.total_shields(),
        outcome.total_shields,
        "usage and outcome agree on shields"
    );
    // The outcome's usage must be exactly what the route set implies —
    // same per-region net counts as a from-scratch rebuild. (Demand may
    // legitimately exceed capacity: the router trades overflow against
    // noise, so overflow is reported, not forbidden.)
    let nets_only = TrackUsage::from_routes(&internals.grid, &outcome.routes);
    for r in 0..nets_only.num_regions() {
        for dir in [Dir::H, Dir::V] {
            assert_eq!(
                nets_only.nets(r as u32, dir),
                outcome.usage.nets(r as u32, dir),
                "usage in region {r} must derive from the routes"
            );
        }
    }
    assert_eq!(
        outcome.violations.violating_nets(),
        0,
        "the refined state is violation-free"
    );
    for (&(net, _region, _dir), &kth) in internals.budgets.iter() {
        assert!(
            kth.is_finite() && kth >= 0.0,
            "budget for net {net} must be finite and non-negative, got {kth}"
        );
    }

    // Same inputs, same outcome: the full flow is deterministic.
    let (again, _) =
        run_flow_with_artifacts(wl.circuit(), &config, Approach::Gsino).expect("pipeline runs");
    assert_eq!(again.routes, outcome.routes);
    assert_eq!(again.total_shields, outcome.total_shields);
}

#[test]
fn rungs_are_distinct_workloads() {
    let mini = generate_scaled(&ScaleSpec::rung("mini", 300, 1.0, 0.0)).expect("mini");
    let mini2 = generate_scaled(&ScaleSpec::rung("mini2", 301, 1.0, 0.0)).expect("mini2");
    assert_ne!(
        circuit_digest(mini.circuit()),
        circuit_digest(mini2.circuit())
    );
}

// ---------------------------------------------------------------------
// Heavy legs: `cargo test --release -- --ignored` (the CI scale-ladder
// job). Debug-mode tier-1 skips them.
// ---------------------------------------------------------------------

#[test]
#[ignore = "heavy: run in release via -- --ignored (CI scale-ladder job)"]
fn scale5k_round_trips() {
    let spec = ScaleSpec::by_id("scale5k").expect("ladder rung");
    round_trip_rung(&spec);
}

/// The 5k rung's full flow is the same at one and two worker threads:
/// routes, budgets, SINO solutions, shield count, and the area and
/// wire-length bits.
#[test]
#[ignore = "heavy: run in release via -- --ignored (CI scale-ladder job)"]
fn scale5k_is_bit_identical_across_thread_counts() {
    let spec = ScaleSpec::by_id("scale5k").expect("ladder rung");
    let wl = generate_scaled(&spec).expect("rung generates");
    let run = |threads| {
        let config = GsinoConfig::builder()
            .threads(threads)
            .build()
            .expect("valid config");
        run_flow_with_artifacts(wl.circuit(), &config, Approach::Gsino).expect("pipeline runs")
    };
    let (one, one_internals) = run(1);
    let (two, two_internals) = run(2);
    assert_eq!(one.routes, two.routes, "routes");
    assert_eq!(one_internals.budgets, two_internals.budgets, "budgets");
    assert_eq!(one_internals.sino, two_internals.sino, "sino");
    assert_eq!(one.total_shields, two.total_shields, "total_shields");
    assert_eq!(one.refine_stats, two.refine_stats, "refine_stats");
    assert_eq!(
        one.area.area().to_bits(),
        two.area.area().to_bits(),
        "routing area"
    );
    assert_eq!(
        one.wirelength.total_um.to_bits(),
        two.wirelength.total_um.to_bits(),
        "wirelength"
    );
}

#[test]
#[ignore = "heavy: run in release via -- --ignored (CI scale-ladder job)"]
fn scale50k_round_trips() {
    let spec = ScaleSpec::by_id("scale50k").expect("ladder rung");
    round_trip_rung(&spec);
}

#[test]
#[ignore = "heavy: run in release via -- --ignored (CI scale-ladder job)"]
fn scale500k_round_trips() {
    let spec = ScaleSpec::by_id("scale500k").expect("ladder rung");
    round_trip_rung(&spec);
}

#[test]
#[ignore = "heavy: run in release via -- --ignored (CI scale-ladder job)"]
fn upper_rungs_are_distinct() {
    let ids: Vec<u64> = ScaleSpec::ladder()
        .iter()
        .map(|s| circuit_digest(generate_scaled(s).expect("generates").circuit()))
        .collect();
    assert_eq!(ids.len(), 3);
    assert!(ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2]);
}
