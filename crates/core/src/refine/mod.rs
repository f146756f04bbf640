//! Phase III: iterative local refinement (paper Fig. 2), incremental
//! engine.
//!
//! Phase I budgets with the Manhattan source→sink estimate; detours make
//! real paths longer, under-estimating crosstalk, so a few nets can still
//! violate after Phase II. Pass 1 walks violating nets (worst first) and,
//! for each, tightens the budget of its segment in the *least congested*
//! region it crosses until one more shield goes in, re-running SINO there,
//! until the net is clean. Pass 2 then walks the *most congested* regions
//! and tries to buy a shield back: raise the budgets of the largest-slack
//! nets until SINO drops a shield, accepting only if no net starts
//! violating.
//!
//! # The incremental contract
//!
//! The seed pass (preserved verbatim in [`mod@reference`]) re-derived all of
//! its bookkeeping from scratch per edit. This module keeps Phase III's
//! cost proportional to what an edit actually touches, mirroring the
//! [`gsino_sino::delta::DeltaEval`] contract of Phase II:
//!
//! * **What is cached.** A [`tracker::LskTracker`] holds, per sink, the
//!   flat `(lⱼ, Kᵢʲ)` term list of paper Eq. (1) — region paths and
//!   per-region lengths are fixed for the whole phase, so they are walked
//!   exactly once at entry — plus a `(region, dir) → terms` reverse index
//!   and the per-net worst violating voltage. Pass 1's work queue is a
//!   [`tracker::SeverityQueue`] (lazy max-heap) instead of a full-map scan
//!   per pick.
//!
//! * **When it is patched.** A pass-1 budget tweak re-solves its region
//!   through [`SinoSolver::resolve_after_kth`] (bit-identical to a cold
//!   `solve`, leaving one scratch evaluator mirroring the result, so the
//!   couplings are read from it instead of a re-evaluate); the tracker
//!   then patches only the crossing nets' sums — O(crossing segments +
//!   dirty-sink terms) instead of full `check_net` route walks.
//!
//! * **Pass 2 as region-local trials.** A recovery trial (raise the
//!   largest-slack budgets until SINO drops a shield) reads only its own
//!   region's instance, layout and couplings; only the accept/reject
//!   verdict reads the tracker, and a region's state changes only when
//!   its own trial commits as recovered. So each sweep sorts the eligible
//!   regions once (density descending, key order on ties — exactly the
//!   seed pass's pick-the-max scan order, since unvisited regions cannot
//!   change within a sweep), computes every trial it has not cached yet
//!   on `threads` workers, and then commits the trials one by one in that
//!   order. A trial stays cached across sweeps until its region commits
//!   as recovered. A rejected commit swaps the saved layout and couplings
//!   back and re-patches the tracker. Inside a trial, a raise that
//!   [`budget_swap_preserves_solution`] proves cannot move the solver's
//!   output skips its re-solve; [`RefineStats::pass2_resolves`] counts
//!   the solves that ran.
//!
//! * **Why the result is identical.** Dirty sinks are re-summed over the
//!   cached terms in the exact order the seed pass's `sink_lsk` iterates,
//!   the queue reproduces the seed tie-break (highest voltage, then
//!   smallest net id — see [`tracker::SeverityQueue`]), pass 2 visits and
//!   commits regions in the seed order, and the region re-solves are the
//!   same pure function of the instance. Final [`Budgets`],
//!   [`RegionSino`] and the outcome fields of [`RefineStats`] are
//!   therefore **bit-identical** to [`reference::refine`] for every
//!   thread count — property-tested in `tests/refine_equivalence.rs` and
//!   asserted in the `phase_runtime` bench.
//!
//! * **The debug oracle.** In `cfg(debug_assertions)` builds, every region
//!   edit (pass 1 install, pass 2 accept/reject) is followed by
//!   [`tracker::LskTracker::oracle_check`], which re-runs the full
//!   [`check`] and compares every severity and sink violation bitwise, and
//!   every skipped pass-2 re-solve is re-run and compared.

pub mod reference;
pub mod tracker;

use crate::budget::Budgets;
use crate::cancel::CancelToken;
use crate::phase2::{drain_worklist, resolve_threads, RegionSino, RegionSolution};
use crate::violations::check;
use crate::Result;
use gsino_grid::net::Circuit;
use gsino_grid::region::{RegionGrid, RegionIdx};
use gsino_grid::route::{Dir, RouteSet};
use gsino_lsk::table::NoiseTable;
use gsino_sino::delta::DeltaEval;
use gsino_sino::layout::Layout;
use gsino_sino::solver::{SinoSolver, SolverConfig};
use gsino_sino::warm::budget_swap_preserves_solution;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use tracker::{LskTracker, SeverityQueue};

/// Safety bounds for the refinement loops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefineConfig {
    /// Outer-loop bound of pass 1 (distinct net fixes).
    pub max_pass1_iters: usize,
    /// Inner-loop bound per net.
    pub max_inner_iters: usize,
    /// Whether to run the congestion-reduction pass 2.
    pub enable_pass2: bool,
    /// Full sweeps of pass 2.
    pub pass2_sweeps: usize,
    /// Pass 2 only visits regions at least this dense: shields in
    /// under-capacity regions cost no routing area, so recovering them
    /// buys nothing (the paper's pass 2 is congestion-driven).
    pub pass2_density_floor: f64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            max_pass1_iters: 50_000,
            max_inner_iters: 256,
            enable_pass2: true,
            pass2_sweeps: 2,
            pass2_density_floor: 0.75,
        }
    }
}

/// What refinement did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Nets processed by pass 1.
    pub pass1_nets: usize,
    /// Shields added by pass 1.
    pub pass1_shields_added: u64,
    /// Shields recovered by pass 2.
    pub pass2_shields_removed: u64,
    /// Regions visited by pass 2.
    pub pass2_regions: usize,
    /// Nets pass 1 could not fix within its iteration bounds.
    pub pass1_unfixed: usize,
    /// Whether pass 1 left the solution violation-free.
    pub clean: bool,
    /// SINO solves pass 2 actually ran: a work counter, not an outcome.
    /// Deterministic for any thread count; the incremental pass never
    /// runs more than [`reference::refine`].
    pub pass2_resolves: u64,
}

impl RefineStats {
    /// The outcome fields alone (the work counter zeroed) — what the
    /// incremental pass and [`reference::refine`] must agree on.
    pub fn outcome(self) -> RefineStats {
        RefineStats {
            pass2_resolves: 0,
            ..self
        }
    }
}

/// How one pass-2 commit ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Recovery {
    /// A shield came out and every crossing net stayed clean.
    Recovered,
    /// A shield came out but some net started violating; the region and
    /// the tracker were put back.
    Rejected,
    /// No budget raise freed a shield.
    NoCandidate,
}

/// What a pass-2 trial found for one region. It depends only on the
/// region's own state, so it stays valid until that region commits.
#[derive(Debug, Clone, PartialEq)]
enum Trial {
    /// No budget raise frees a shield.
    NoCandidate,
    /// The first raise sequence that frees a shield.
    Drop {
        /// `(segment, new Kth)` in raise order.
        raised: Vec<(usize, f64)>,
        /// The re-solved layout, with fewer shields than the installed one.
        layout: Layout,
        /// Its per-segment couplings.
        k: Vec<f64>,
    },
}

/// Runs both passes, mutating budgets and region solutions in place.
///
/// Bit-identical to [`reference::refine`] (same final [`Budgets`],
/// [`RegionSino`] and [`RefineStats::outcome`]) — see the module docs for
/// the incremental contract.
///
/// # Errors
///
/// Propagates SINO solver errors (internal-invariant failures only).
#[allow(clippy::too_many_arguments)]
pub fn refine(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &mut Budgets,
    sino: &mut RegionSino,
    table: &NoiseTable,
    vth: f64,
    solver: SolverConfig,
    config: &RefineConfig,
) -> Result<RefineStats> {
    refine_cancel(
        circuit,
        grid,
        routes,
        budgets,
        sino,
        table,
        vth,
        solver,
        config,
        1,
        &CancelToken::never(),
    )
}

/// [`refine`] computing pass-2 trials on `threads` workers (`0` = available
/// parallelism; the result is identical for every count) and polling a
/// [`CancelToken`] once per pass-1 net pick, once per pass-2 trial and
/// once per pass-2 commit. Cancellation leaves `budgets`/`sino` in a
/// consistent but partially-refined state — transactional callers (the
/// ECO session) refine **clones** and discard them on error, so nothing
/// needs undoing here.
///
/// # Errors
///
/// [`CoreError::Canceled`](crate::CoreError) once the token
/// fires, plus the same solver errors as [`refine`].
#[allow(clippy::too_many_arguments)]
pub fn refine_cancel(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &mut Budgets,
    sino: &mut RegionSino,
    table: &NoiseTable,
    vth: f64,
    solver: SolverConfig,
    config: &RefineConfig,
    threads: usize,
    cancel: &CancelToken,
) -> Result<RefineStats> {
    let mut stats = RefineStats::default();
    let mut tracker = LskTracker::new(circuit, grid, routes, sino, table, vth);
    let solver = SinoSolver::new(solver);
    pass1(
        circuit,
        grid,
        routes,
        budgets,
        sino,
        table,
        &solver,
        config,
        &mut stats,
        &mut tracker,
        cancel,
    )?;
    stats.clean = tracker.is_clean();
    debug_assert_eq!(
        stats.clean,
        check(circuit, grid, routes, sino, table, vth).is_clean(),
        "tracker cleanliness diverged from a full check"
    );
    if config.enable_pass2 && stats.clean {
        pass2(
            circuit,
            grid,
            routes,
            budgets,
            sino,
            table,
            &solver,
            config,
            &mut stats,
            &mut tracker,
            threads,
            cancel,
        )?;
    }
    Ok(stats)
}

/// Routing density of a solved region: nets plus shields over capacity.
fn density(grid: &RegionGrid, dir: Dir, sol: &RegionSolution) -> f64 {
    let cap = match dir {
        Dir::H => grid.hc(),
        Dir::V => grid.vc(),
    } as f64;
    (sol.nets.len() + sol.layout.num_shields()) as f64 / cap
}

/// Pass 1: eliminate crosstalk violations.
///
/// The violation report is maintained incrementally: re-solving one region
/// only changes the coupling of the nets crossing it, so only those nets'
/// cached sums are patched — this is what keeps Phase III cheap relative
/// to the ID routing phase (paper §5).
#[allow(clippy::too_many_arguments)]
fn pass1(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &mut Budgets,
    sino: &mut RegionSino,
    table: &NoiseTable,
    solver: &SinoSolver,
    config: &RefineConfig,
    stats: &mut RefineStats,
    tracker: &mut LskTracker,
    cancel: &CancelToken,
) -> Result<()> {
    let mut scratch = DeltaEval::new();
    let mut queue = SeverityQueue::new(&tracker.nets_by_severity());
    for _ in 0..config.max_pass1_iters {
        cancel.check("phase3")?;
        let net_id = match queue.pick() {
            Some(n) => n,
            None => return Ok(()),
        };
        stats.pass1_nets += 1;
        // invariant: the tracker only reports nets it scored from routes.
        let route = routes.get(net_id).expect("violating net is routed");
        // Nets whose queue entry the inner loop dirtied. The flush is
        // batched to one `queue.set` per net per outer iteration: `pick()`
        // only runs in the outer loop and the queue is last-write-wins
        // against the tracker, so deferring the writes is bit-identical
        // while pushing one lazy heap entry per net instead of one per
        // (region edit × crossing net).
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        for _ in 0..config.max_inner_iters {
            if tracker.net_is_clean(net_id) {
                break;
            }
            // Candidate segments of this net, least congested region first
            // (paper: "the least congested routing region through which Ni
            // is routed"), skipping segments that already have K = 0.
            let mut candidates: Vec<(f64, RegionIdx, Dir)> = Vec::new();
            for r in route.regions() {
                for dir in [Dir::H, Dir::V] {
                    if !route.occupies(grid, r, dir) {
                        continue;
                    }
                    if let Some(sol) = sino.solution(r, dir) {
                        let k = sol.index_of(net_id).map(|i| sol.k[i]).unwrap_or(0.0);
                        if k > 1e-12 {
                            candidates.push((density(grid, dir, sol), r, dir));
                        }
                    }
                }
            }
            candidates.sort_by(|a, b| {
                // invariant: region densities are finite ratios of counts.
                a.0.partial_cmp(&b.0)
                    .expect("finite densities")
                    .then_with(|| a.1.cmp(&b.1))
            });
            let (_, r, dir) = match candidates.first() {
                Some(&c) => c,
                // No coupled segment left to shield; the net cannot be
                // improved further in this pass.
                None => break,
            };
            {
                // invariant: the candidate list above was enumerated from
                // this net's solved segments, so both lookups succeed.
                let sol = sino
                    .solution_mut(r, dir)
                    .expect("candidate came from a solution");
                let idx = sol.index_of(net_id).expect("net is in this region");
                // Tighten the segment budget so SINO must shield it harder
                // (Formula (3)'s inverse role in the paper — decide how
                // much Kth drops for one more shield). 0.7 trims K without
                // grossly over-shielding the region.
                let new_kth = (sol.k[idx] * 0.7).max(1e-9);
                sol.instance.set_kth(idx, new_kth)?;
                budgets.set(net_id, r, dir, new_kth);
                let before = sol.layout.num_shields();
                sol.layout = solver.resolve_after_kth(&sol.instance, &mut scratch)?;
                // The scratch mirrors the re-solved layout, so the
                // couplings come straight from its cache — no re-evaluate.
                sol.k.clear();
                sol.k.extend_from_slice(scratch.k_values());
                stats.pass1_shields_added +=
                    (sol.layout.num_shields().saturating_sub(before)) as u64;
                tracker.region_updated(r, dir, &sol.k, table);
            }
            // Mirror the seed pass's affected-net recheck on the queue:
            // every crossing net is re-enqueued (or dropped) at its
            // tracked severity, via the batched flush below.
            // invariant: the picked key came from the solved-region scan.
            let affected = sino.solution(r, dir).expect("exists");
            touched.extend(affected.nets.iter().copied());
            debug_oracle(tracker, circuit, grid, routes, sino, table);
        }
        for &nid in &touched {
            queue.set(nid, tracker.net_worst(nid));
        }
        // The net may be unfixable within bounds (no coupled segments
        // left); drop it from the queue either way — if it is still dirty,
        // the tracker (and the final report) flags it honestly.
        if !tracker.net_is_clean(net_id) {
            stats.pass1_unfixed += 1;
        }
        queue.remove(net_id);
    }
    Ok(())
}

/// Pass 2: reduce routing congestion by recovering shields where slack
/// allows — per sweep, sort once, compute the uncached trials on
/// `threads` workers, then commit them in visiting order.
#[allow(clippy::too_many_arguments)]
fn pass2(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    budgets: &mut Budgets,
    sino: &mut RegionSino,
    table: &NoiseTable,
    solver: &SinoSolver,
    config: &RefineConfig,
    stats: &mut RefineStats,
    tracker: &mut LskTracker,
    threads: usize,
    cancel: &CancelToken,
) -> Result<()> {
    let workers = resolve_threads(threads);
    // The key set never changes during refinement; trials are cached by
    // key index.
    let keys = sino.keys();
    let mut trials: Vec<Option<Trial>> = vec![None; keys.len()];
    for _ in 0..config.pass2_sweeps {
        // Visiting order: eligible regions, most congested first. Only a
        // visited region changes within a sweep, so this one stable sort
        // reproduces the seed pass's per-pick max scan (strict `>`, so
        // ties keep key order).
        let mut order: Vec<(f64, usize)> = Vec::new();
        for (idx, &(r, dir)) in keys.iter().enumerate() {
            // invariant: iterating `keys()` of the same solution set.
            let sol = sino.solution(r, dir).expect("key enumerated");
            let d = density(grid, dir, sol);
            if sol.layout.num_shields() > 0 && d >= config.pass2_density_floor {
                order.push((d, idx));
            }
        }
        // invariant: region densities are finite ratios of counts.
        order.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite densities"));

        let fresh: Vec<usize> = order
            .iter()
            .map(|&(_, idx)| idx)
            .filter(|&idx| trials[idx].is_none())
            .collect();
        let work: Vec<&RegionSolution> = fresh
            .iter()
            .map(|&idx| {
                let (r, dir) = keys[idx];
                sino.solution(r, dir).expect("key enumerated")
            })
            .collect();
        let done = drain_worklist(work, workers, DeltaEval::new, |sol, scratch| {
            cancel.check("phase3")?;
            run_trial(sol, solver, scratch)
        });
        for batch in done {
            for (i, (trial, resolves)) in batch? {
                trials[fresh[i]] = Some(trial);
                stats.pass2_resolves += resolves;
            }
        }

        let mut improved = false;
        for &(_, idx) in &order {
            cancel.check("phase3")?;
            let (r, dir) = keys[idx];
            stats.pass2_regions += 1;
            // invariant: every key in `order` got a trial above.
            let trial = trials[idx].as_mut().expect("trial computed");
            let sol = sino.solution_mut(r, dir).expect("key enumerated");
            let outcome = commit_trial(r, dir, sol, trial, budgets, tracker, table, stats)?;
            debug_oracle(tracker, circuit, grid, routes, sino, table);
            if outcome == Recovery::Recovered {
                trials[idx] = None;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    Ok(())
}

/// Tries to remove one shield from a region by raising the budgets of its
/// largest-slack nets, on a clone of the instance: returns the first
/// layout with fewer shields (or [`Trial::NoCandidate`]) and the number of
/// SINO solves it ran. Reads nothing but `sol`; `scratch` is any reusable
/// evaluator.
fn run_trial(
    sol: &RegionSolution,
    solver: &SinoSolver,
    scratch: &mut DeltaEval,
) -> Result<(Trial, u64)> {
    let n = sol.nets.len();
    let base_shields = sol.layout.num_shields();
    let mut inst = sol.instance.clone();
    let mut kth: Vec<f64> = inst.segments().iter().map(|s| s.kth).collect();
    let mut raised: Vec<(usize, f64)> = Vec::new();
    let mut resolves = 0u64;
    for _ in 0..n {
        // Largest remaining positive slack against the installed couplings.
        let mut pick: Option<(f64, usize)> = None;
        for (i, (&budget, &coupling)) in kth.iter().zip(&sol.k).enumerate() {
            if raised.iter().any(|&(j, _)| j == i) {
                continue;
            }
            let slack = budget - coupling;
            if slack > 1e-12 && pick.is_none_or(|(s, _)| slack > s) {
                pick = Some((slack, i));
            }
        }
        let Some((slack, i)) = pick else { break };
        kth[i] += slack;
        raised.push((i, kth[i]));
        // The previous layout (the installed one before the first solve)
        // equals `solver.solve(&inst)` and kept every shield. If the raise
        // provably cannot move the solver's output, skip the re-solve.
        // Phase II seeds its annealer per region, so an installed layout
        // only matches this solver's output when no annealer runs.
        let prev_is_solve = resolves > 0 || solver.config().anneal.is_none();
        let skip = prev_is_solve && budget_swap_preserves_solution(&inst, &kth);
        inst.set_kth(i, kth[i])?;
        if skip {
            #[cfg(debug_assertions)]
            {
                let prev = if resolves == 0 {
                    sol.layout.slots()
                } else {
                    scratch.slots()
                };
                debug_assert_eq!(
                    solver.solve(&inst)?.slots(),
                    prev,
                    "a proven warm skip changed the layout"
                );
            }
            continue;
        }
        let layout = solver.resolve_after_kth(&inst, scratch)?;
        resolves += 1;
        if layout.num_shields() < base_shields {
            let k = scratch.k_values().to_vec();
            return Ok((Trial::Drop { raised, layout, k }, resolves));
        }
    }
    Ok((Trial::NoCandidate, resolves))
}

/// Commits a trial to its region: installs the layout and couplings and
/// asks the tracker. A violation puts the saved layout and couplings back
/// (the trial keeps its own, for the next sweep) and re-patches the
/// tracker; otherwise the raised budgets go into the instance and
/// `budgets`.
#[allow(clippy::too_many_arguments)]
fn commit_trial(
    r: RegionIdx,
    dir: Dir,
    sol: &mut RegionSolution,
    trial: &mut Trial,
    budgets: &mut Budgets,
    tracker: &mut LskTracker,
    table: &NoiseTable,
    stats: &mut RefineStats,
) -> Result<Recovery> {
    let Trial::Drop { raised, layout, k } = trial else {
        return Ok(Recovery::NoCandidate);
    };
    let removed = (sol.layout.num_shields() - layout.num_shields()) as u64;
    std::mem::swap(&mut sol.layout, layout);
    std::mem::swap(&mut sol.k, k);
    tracker.region_updated(r, dir, &sol.k, table);
    if sol.nets.iter().any(|&nid| !tracker.net_is_clean(nid)) {
        std::mem::swap(&mut sol.layout, layout);
        std::mem::swap(&mut sol.k, k);
        tracker.region_updated(r, dir, &sol.k, table);
        return Ok(Recovery::Rejected);
    }
    for &(i, kth) in raised.iter() {
        sol.instance.set_kth(i, kth)?;
        budgets.set(sol.nets[i], r, dir, kth);
    }
    stats.pass2_shields_removed += removed;
    Ok(Recovery::Recovered)
}

/// Debug-build oracle: the tracker must stay bit-identical to a full
/// [`check`] after every region edit.
#[cfg(debug_assertions)]
fn debug_oracle(
    tracker: &LskTracker,
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    sino: &RegionSino,
    table: &NoiseTable,
) {
    tracker.oracle_check(circuit, grid, routes, sino, table);
}

#[cfg(not(debug_assertions))]
#[inline]
fn debug_oracle(
    _tracker: &LskTracker,
    _circuit: &Circuit,
    _grid: &RegionGrid,
    _routes: &RouteSet,
    _sino: &RegionSino,
    _table: &NoiseTable,
) {
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{uniform_budgets, LengthModel};
    use crate::phase2::{solve_regions_with_engine, RegionMode, SinoEngine};
    use crate::router::{route_all, ShieldTerm, Weights};
    use gsino_grid::geom::{Point, Rect};
    use gsino_grid::net::{Circuit, Net};
    use gsino_grid::sensitivity::SensitivityModel;
    use gsino_grid::tech::Technology;

    /// A bus guaranteed to violate after Phase II when budgets are computed
    /// from a deliberately optimistic length estimate.
    fn violating_setup() -> (
        Circuit,
        gsino_grid::RegionGrid,
        RouteSet,
        NoiseTable,
        Budgets,
        RegionSino,
    ) {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(3840.0, 640.0)).unwrap();
        let nets: Vec<Net> = (0..14)
            .map(|i| {
                Net::two_pin(
                    i,
                    Point::new(8.0, 320.0 + i as f64),
                    Point::new(3830.0, 320.0 + i as f64),
                )
            })
            .collect();
        let circuit = Circuit::new("viol", die, nets).unwrap();
        let tech = Technology::itrs_100nm();
        let grid = gsino_grid::RegionGrid::new(&circuit, &tech, 64.0).unwrap();
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let table = NoiseTable::calibrated(&tech);
        // Budget with a loose vth (0.30) but check against a strict one
        // (0.15) — mimics the Manhattan-underestimate situation that makes
        // Phase III necessary, in a controlled way. A mid sensitivity rate
        // matters: at rate 1.0 capacitive freedom already isolates every
        // net (K = 0 everywhere) and nothing can violate.
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.30,
            LengthModel::Manhattan,
        )
        .unwrap();
        let sens = SensitivityModel::new(0.5, 3);
        let sino = solve_regions_with_engine(
            &grid,
            &routes,
            &budgets,
            &sens,
            SolverConfig::default(),
            RegionMode::Sino,
            1,
            SinoEngine::Incremental,
        )
        .unwrap();
        (circuit, grid, routes, table, budgets, sino)
    }

    #[test]
    fn pass1_eliminates_all_violations() {
        let (circuit, grid, routes, table, mut budgets, mut sino) = violating_setup();
        let before = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        assert!(before.violating_nets() > 0, "setup must violate at 0.15 V");
        let stats = refine(
            &circuit,
            &grid,
            &routes,
            &mut budgets,
            &mut sino,
            &table,
            0.15,
            SolverConfig::default(),
            &RefineConfig::default(),
        )
        .unwrap();
        assert!(stats.clean);
        assert!(stats.pass1_nets > 0);
        let after = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        assert!(
            after.is_clean(),
            "{} nets still violate",
            after.violating_nets()
        );
    }

    #[test]
    fn refine_on_clean_input_is_cheap() {
        let (circuit, grid, routes, table, mut budgets, mut sino) = violating_setup();
        // Check against the same loose vth used for budgeting: no
        // violations exist, so pass 1 should do nothing.
        let stats = refine(
            &circuit,
            &grid,
            &routes,
            &mut budgets,
            &mut sino,
            &table,
            0.30,
            SolverConfig::default(),
            &RefineConfig {
                enable_pass2: false,
                ..RefineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(stats.pass1_nets, 0);
        assert_eq!(stats.pass1_shields_added, 0);
        assert!(stats.clean);
    }

    #[test]
    fn pass2_never_reintroduces_violations() {
        let (circuit, grid, routes, table, mut budgets, mut sino) = violating_setup();
        let stats = refine(
            &circuit,
            &grid,
            &routes,
            &mut budgets,
            &mut sino,
            &table,
            0.15,
            SolverConfig::default(),
            &RefineConfig {
                pass2_sweeps: 2,
                ..RefineConfig::default()
            },
        )
        .unwrap();
        assert!(stats.clean);
        let after = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        assert!(after.is_clean());
    }

    #[test]
    fn pass1_respects_iteration_bounds() {
        let (circuit, grid, routes, table, mut budgets, mut sino) = violating_setup();
        let stats = refine(
            &circuit,
            &grid,
            &routes,
            &mut budgets,
            &mut sino,
            &table,
            0.15,
            SolverConfig::default(),
            &RefineConfig {
                max_pass1_iters: 1,
                max_inner_iters: 1,
                enable_pass2: false,
                pass2_sweeps: 0,
                ..RefineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(stats.pass1_nets, 1);
    }

    /// The incremental engine and the preserved seed pass must agree on
    /// every output, bit for bit, across configurations.
    #[test]
    fn incremental_matches_reference_pass() {
        let (circuit, grid, routes, table, budgets0, sino0) = violating_setup();
        let configs = [
            (SolverConfig::default(), RefineConfig::default()),
            (
                SolverConfig::default(),
                RefineConfig {
                    enable_pass2: false,
                    ..RefineConfig::default()
                },
            ),
            (SolverConfig::with_anneal(300, 11), RefineConfig::default()),
            (
                SolverConfig::default(),
                RefineConfig {
                    max_pass1_iters: 3,
                    max_inner_iters: 2,
                    ..RefineConfig::default()
                },
            ),
        ];
        for (solver, refine_cfg) in configs {
            let (mut b_ref, mut s_ref) = (budgets0.clone(), sino0.clone());
            let (mut b_inc, mut s_inc) = (budgets0.clone(), sino0.clone());
            let stats_ref = reference::refine(
                &circuit,
                &grid,
                &routes,
                &mut b_ref,
                &mut s_ref,
                &table,
                0.15,
                solver,
                &refine_cfg,
            )
            .unwrap();
            let stats_inc = refine(
                &circuit,
                &grid,
                &routes,
                &mut b_inc,
                &mut s_inc,
                &table,
                0.15,
                solver,
                &refine_cfg,
            )
            .unwrap();
            assert_eq!(
                stats_ref.outcome(),
                stats_inc.outcome(),
                "stats diverged ({refine_cfg:?})"
            );
            assert!(
                stats_inc.pass2_resolves <= stats_ref.pass2_resolves,
                "incremental pass 2 ran more solves ({refine_cfg:?})"
            );
            assert_eq!(b_ref, b_inc, "budgets diverged ({refine_cfg:?})");
            assert_eq!(s_ref, s_inc, "region solutions diverged ({refine_cfg:?})");
        }
    }

    /// The heap-backed queue picks exactly the net `nets_by_severity`
    /// ranks first (highest voltage, ties to the smallest net id) — the
    /// deterministic ordering both engines share.
    #[test]
    fn queue_pick_agrees_with_nets_by_severity() {
        let (circuit, grid, routes, table, _, sino) = violating_setup();
        let tracker = LskTracker::new(&circuit, &grid, &routes, &sino, &table, 0.15);
        let ranked = tracker.nets_by_severity();
        assert!(!ranked.is_empty(), "setup must violate");
        let mut queue = SeverityQueue::new(&ranked);
        for &(net, _) in &ranked {
            assert_eq!(queue.pick(), Some(net));
            queue.remove(net);
        }
        assert_eq!(queue.pick(), None);
        // Cross-check against the report the seed pass scans.
        let report = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        assert_eq!(ranked, report.nets_by_severity());
    }

    /// A rejected pass-2 commit must leave budgets, region solutions and
    /// the tracker bitwise-untouched — no state leaks from the trial.
    #[test]
    fn rejected_recovery_rolls_back_completely() {
        let (circuit, grid, routes, table, mut budgets, mut sino) = violating_setup();
        refine(
            &circuit,
            &grid,
            &routes,
            &mut budgets,
            &mut sino,
            &table,
            0.15,
            SolverConfig::default(),
            &RefineConfig::default(),
        )
        .unwrap();
        // The tightest constraint the refined solution still meets:
        // recovering any load-bearing shield there must violate and roll
        // back.
        let worst = check(&circuit, &grid, &routes, &sino, &table, 0.0)
            .worst_net()
            .map(|(_, v)| v)
            .expect("some coupling remains");
        let vth = worst + 1e-6;
        let mut tracker = LskTracker::new(&circuit, &grid, &routes, &sino, &table, vth);
        assert!(tracker.is_clean(), "vth sits above the worst voltage");
        let solver = SinoSolver::new(SolverConfig::default());
        let mut scratch = DeltaEval::new();
        let mut stats = RefineStats::default();
        let mut rejected = 0;
        for (r, dir) in sino.keys() {
            if sino.solution(r, dir).unwrap().layout.num_shields() == 0 {
                continue;
            }
            let budgets_before = budgets.clone();
            let sino_before = sino.clone();
            let severity_before = tracker.nets_by_severity();
            let sol = sino.solution_mut(r, dir).unwrap();
            let (mut trial, _) = run_trial(sol, &solver, &mut scratch).unwrap();
            let trial_before = trial.clone();
            let outcome = commit_trial(
                r,
                dir,
                sol,
                &mut trial,
                &mut budgets,
                &mut tracker,
                &table,
                &mut stats,
            )
            .unwrap();
            match outcome {
                Recovery::Rejected => {
                    rejected += 1;
                    assert_eq!(budgets, budgets_before, "budgets leaked at {r} {dir:?}");
                    assert_eq!(sino, sino_before, "solutions leaked at {r} {dir:?}");
                    assert_eq!(
                        tracker.nets_by_severity(),
                        severity_before,
                        "tracker leaked at {r} {dir:?}"
                    );
                    tracker.oracle_check(&circuit, &grid, &routes, &sino, &table);
                    // The trial survives its rejection intact, ready for
                    // the next sweep.
                    assert_eq!(trial, trial_before, "trial damaged at {r} {dir:?}");
                }
                Recovery::NoCandidate => {
                    assert_eq!(budgets, budgets_before);
                    assert_eq!(sino, sino_before);
                }
                Recovery::Recovered => {}
            }
        }
        assert!(
            rejected > 0,
            "scenario produced no rejected recovery; tighten vth"
        );
    }
}
