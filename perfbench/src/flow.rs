//! The traced GSINO flow: the public steps `run_flow` takes, called in the
//! same order from the benchmark and timed one by one.
//!
//! Nothing here reaches inside the program. Each layer's time is the wall
//! time of the benchmark's own call into that layer's public function, and
//! each layer's work counts are read from what the call returns. The
//! outcome is compared field by field with the untraced flow, so a change
//! to the pipeline's composition fails the benchmark instead of silently
//! timing a different flow.

use crate::Report;
use gsino_core::budget::Budgets;
use gsino_core::budget::{budgets_with_constraints, uniform_budgets, BudgetPolicy, LengthModel};
use gsino_core::metrics::{wirelength_stats, WirelengthStats};
use gsino_core::phase2::{solve_regions_with_engine, RegionMode, RegionSino};
use gsino_core::pipeline::{reference_kth, GsinoConfig, GsinoOutcome, RouterKind};
use gsino_core::refine::{refine, RefineStats};
use gsino_core::router::{IdRouter, RouterStats, ShieldTerm};
use gsino_core::violations::{check, ViolationReport};
use gsino_core::CoreError;
use gsino_grid::area::{AreaModel, RoutingArea};
use gsino_grid::net::Circuit;
use gsino_grid::region::RegionGrid;
use gsino_grid::route::RouteSet;
use gsino_grid::usage::TrackUsage;
use gsino_lsk::table::NoiseTable;
use gsino_sino::nss::NssModel;
use std::time::Instant;

/// Seconds and work counts per layer, summed over every traced flow of a
/// run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `RegionGrid::new`.
    pub grid_s: f64,
    /// `NoiseTable::calibrated`.
    pub lsk_table_s: f64,
    /// `reference_kth` + `NssModel::fit`.
    pub nss_fit_s: f64,
    /// `IdRouter::route`.
    pub route_s: f64,
    /// The budgeting call.
    pub budget_s: f64,
    /// `solve_regions_with_engine`.
    pub sino_s: f64,
    /// `refine`.
    pub refine_s: f64,
    /// Usage, area, wire length and the violation check.
    pub check_s: f64,
    /// Router counters.
    pub router: RouterStats,
    /// Budget entries written by the budgeting call.
    pub budget_entries: u64,
    /// Region instances solved by Phase II.
    pub sino_regions: u64,
    /// Shields placed by Phase II, before refinement.
    pub sino_shields: u64,
    /// Refinement counters.
    pub refine: RefineStats,
    /// Shields in the final routed result.
    pub total_shields: u64,
}

impl Layers {
    /// Sum of every layer's time: what the traced flow spent inside the
    /// program.
    pub fn total_s(&self) -> f64 {
        self.grid_s
            + self.lsk_table_s
            + self.nss_fit_s
            + self.route_s
            + self.budget_s
            + self.sino_s
            + self.refine_s
            + self.check_s
    }

    /// Adds another flow's layers to these.
    pub fn add(&mut self, o: &Layers) {
        self.grid_s += o.grid_s;
        self.lsk_table_s += o.lsk_table_s;
        self.nss_fit_s += o.nss_fit_s;
        self.route_s += o.route_s;
        self.budget_s += o.budget_s;
        self.sino_s += o.sino_s;
        self.refine_s += o.refine_s;
        self.check_s += o.check_s;
        self.total_shields += o.total_shields;
        let (r, s) = (&mut self.router, &o.router);
        r.connections += s.connections;
        r.edges_initial += s.edges_initial;
        r.deletions += s.deletions;
        r.kept += s.kept;
        r.reinserts += s.reinserts;
        r.stale_skips += s.stale_skips;
        r.speculative_reroutes += s.speculative_reroutes;
        r.connectivity_o1_hits += s.connectivity_o1_hits;
        r.connectivity_repairs += s.connectivity_repairs;
        r.connectivity_recomputes += s.connectivity_recomputes;
        self.budget_entries += o.budget_entries;
        self.sino_regions += o.sino_regions;
        self.sino_shields += o.sino_shields;
        let (r, s) = (&mut self.refine, &o.refine);
        r.pass1_nets += s.pass1_nets;
        r.pass1_shields_added += s.pass1_shields_added;
        r.pass2_shields_removed += s.pass2_shields_removed;
        r.pass2_regions += s.pass2_regions;
        r.pass1_unfixed += s.pass1_unfixed;
        r.clean &= s.clean;
    }
}

/// What the traced flow produced, in the shape of [`GsinoOutcome`] plus
/// the final budgets and region solutions.
pub struct Traced {
    pub routes: RouteSet,
    pub usage: TrackUsage,
    pub area: RoutingArea,
    pub area_nets_only: RoutingArea,
    pub wirelength: WirelengthStats,
    pub violations: ViolationReport,
    pub total_shields: u64,
    pub router_stats: RouterStats,
    pub refine_stats: RefineStats,
    pub budgets: Budgets,
    pub sino: RegionSino,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_secs_f64();
    out
}

/// Runs the GSINO flow step by step, timing each layer.
///
/// Only the configurations the workloads use are composed: the ID router
/// and the uniform budget policy with shield reservation on.
///
/// # Errors
///
/// `BadConfig` for a configuration outside that set, else any flow error.
pub fn traced_gsino(
    circuit: &Circuit,
    config: &GsinoConfig,
) -> Result<(Traced, Layers), CoreError> {
    config.validate()?;
    if config.router != RouterKind::IterativeDeletion
        || config.budget_policy != BudgetPolicy::Uniform
        || !config.shield_reservation
        || config.nss_model.is_some()
    {
        return Err(CoreError::BadConfig {
            reason: "the traced flow composes only the ID router with uniform budgets and a \
                     fitted shield estimate"
                .into(),
        });
    }
    let mut l = Layers::default();
    let grid = timed(&mut l.grid_s, || {
        RegionGrid::new(circuit, &config.tech, config.tile_um)
    })?;
    let table = timed(&mut l.lsk_table_s, || NoiseTable::calibrated(&config.tech));
    let model = timed(&mut l.nss_fit_s, || {
        NssModel::fit(
            reference_kth(circuit, &table, config.vth),
            config.nss_fit_seed,
        )
    })?;
    let shield_term = ShieldTerm::Estimated {
        model,
        rate: config.sensitivity.rate(),
    };
    let (routes, router_stats) = timed(&mut l.route_s, || {
        IdRouter::new(&grid, config.weights, shield_term).route(circuit)
    })?;
    let mut budgets = timed(&mut l.budget_s, || {
        if config.vth_overrides.is_empty() {
            uniform_budgets(
                circuit,
                &grid,
                &routes,
                &table,
                config.vth,
                LengthModel::Manhattan,
            )
        } else {
            budgets_with_constraints(
                circuit,
                &grid,
                &routes,
                &table,
                &|net, sink| config.vth_for(net, sink),
                LengthModel::Manhattan,
            )
        }
    })?;
    let mut sino = timed(&mut l.sino_s, || {
        solve_regions_with_engine(
            &grid,
            &routes,
            &budgets,
            &config.sensitivity,
            config.solver,
            RegionMode::Sino,
            config.threads,
            config.sino_engine,
        )
    })?;
    l.budget_entries = budgets.len() as u64;
    l.sino_regions = sino.len() as u64;
    l.sino_shields = sino.total_shields();
    let refine_stats = timed(&mut l.refine_s, || {
        refine(
            circuit,
            &grid,
            &routes,
            &mut budgets,
            &mut sino,
            &table,
            config.vth,
            config.solver,
            &config.refine,
        )
    })?;
    let traced = timed(&mut l.check_s, || {
        let mut usage = TrackUsage::from_routes(&grid, &routes);
        let area_nets_only = AreaModel.evaluate(&grid, &usage);
        sino.apply_shields(&mut usage);
        let area = AreaModel.evaluate(&grid, &usage);
        let wirelength = wirelength_stats(circuit, &grid, &routes);
        let violations = check(circuit, &grid, &routes, &sino, &table, config.vth);
        let total_shields = sino.total_shields();
        Traced {
            routes,
            usage,
            area,
            area_nets_only,
            wirelength,
            violations,
            total_shields,
            router_stats,
            refine_stats,
            budgets,
            sino,
        }
    });
    l.router = router_stats;
    l.refine = refine_stats;
    l.total_shields = traced.total_shields;
    Ok((traced, l))
}

/// Names the fields where the traced flow differs from the untraced
/// `run_gsino` outcome; empty when the two are bit-identical. Floats are
/// compared by their bits.
pub fn mismatches(o: &GsinoOutcome, t: &Traced) -> Vec<&'static str> {
    let area_bits = |a: &RoutingArea| (a.width.to_bits(), a.height.to_bits());
    let wl_bits = |w: &WirelengthStats| (w.total_um.to_bits(), w.mean_um.to_bits(), w.nets);
    let mut bad = Vec::new();
    let mut want = |ok: bool, name| {
        if !ok {
            bad.push(name);
        }
    };
    want(o.routes == t.routes, "routes");
    want(o.usage == t.usage, "usage");
    want(area_bits(&o.area) == area_bits(&t.area), "area");
    want(
        area_bits(&o.area_nets_only) == area_bits(&t.area_nets_only),
        "area_nets_only",
    );
    want(
        wl_bits(&o.wirelength) == wl_bits(&t.wirelength),
        "wirelength",
    );
    want(o.violations == t.violations, "violations");
    want(o.total_shields == t.total_shields, "total_shields");
    want(o.router_stats == t.router_stats, "router_stats");
    want(o.refine_stats == Some(t.refine_stats), "refine_stats");
    bad
}

/// Sets the pipeline-layer metrics of a run from its summed layers.
pub fn report_layers(r: &mut Report, l: &Layers) {
    r.set("grid.s", l.grid_s);
    r.set("lsk.table_ms", l.lsk_table_s * 1e3);
    r.set("nss.fit_ms", l.nss_fit_s * 1e3);
    r.set("router.route_s", l.route_s);
    r.set("router.deletions", l.router.deletions as f64);
    r.set("router.reinserts", l.router.reinserts as f64);
    r.set(
        "router.connectivity_repairs",
        l.router.connectivity_repairs as f64,
    );
    r.set(
        "router.connectivity_recomputes",
        l.router.connectivity_recomputes as f64,
    );
    r.set("budget.s", l.budget_s);
    r.set("budget.entries", l.budget_entries as f64);
    r.set("sino.solve_s", l.sino_s);
    r.set("sino.regions", l.sino_regions as f64);
    r.set("sino.shields", l.sino_shields as f64);
    r.set("refine.s", l.refine_s);
    r.set("refine.pass1_nets", l.refine.pass1_nets as f64);
    r.set("refine.pass2_regions", l.refine.pass2_regions as f64);
    r.set(
        "refine.pass2_shields_removed",
        l.refine.pass2_shields_removed as f64,
    );
    let yield_ = if l.refine.pass2_regions == 0 {
        0.0
    } else {
        l.refine.pass2_shields_removed as f64 / l.refine.pass2_regions as f64
    };
    r.set("refine.pass2_yield", yield_);
    r.set("check.s", l.check_s);
    r.set("check.total_shields", l.total_shields as f64);
    r.set("trace.layers_s", l.total_s());
}
