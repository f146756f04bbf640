//! Sequential A* global router — the paper's §5 future-work router.
//!
//! §5: *"A more efficient global router will be developed or be integrated
//! into the GSINO framework."* This is that router: connections are routed
//! one at a time along least-cost region paths (congestion-aware A*), which
//! is far faster than iterative deletion but **order-dependent** — exactly
//! the trade-off the paper cites for choosing ID ("less efficient but may
//! lead to better solutions"). The `ablation_router` bench measures both
//! sides of that trade.
//!
//! Cost model per region step, mirroring Formula (2)'s terms: the tile
//! length (wire length), β·HD with `HU = Nns + Nss` (committed demand plus
//! the GSINO shield reservation), and γ·HOFR once a region would overflow.
//!
//! # Implementation
//!
//! The search kernel is the flat-array [`SearchScratch`] (epoch-stamped
//! `g`/`prev` arrays plus a monotone bucket heap) instead of the seed's
//! per-call `HashMap`s and `BinaryHeap`; the seed lives on in
//! [`super::reference`] as the correctness and performance baseline, and
//! the `router_equivalence` suite proves the two produce byte-identical
//! route sets. [`AstarRouter::route_with_threads`] additionally routes
//! batches of connections speculatively across threads and commits them in
//! the sequential order, re-routing any connection whose search read a
//! region that an earlier commit in the batch touched — so the parallel
//! output equals the sequential output bit for bit (see `router` module
//! docs for the argument).

use super::assemble::assemble_trees;
use super::scratch::SearchScratch;
use super::{ShieldTerm, Weights};
use crate::{CoreError, Result};
use gsino_grid::net::{Circuit, NetId};
use gsino_grid::region::{RegionGrid, RegionIdx};
use gsino_grid::route::{Dir, GridEdge, RouteSet};
use gsino_steiner::decompose::{decompose_net, Connection};
use std::collections::HashMap;

/// The sequential congestion-aware A* router.
///
/// # Example
///
/// ```
/// use gsino_core::router::{AstarRouter, ShieldTerm, Weights};
/// use gsino_grid::{Circuit, Net, Point, Rect, RegionGrid, Technology};
///
/// # fn main() -> Result<(), gsino_core::CoreError> {
/// let die = Rect::new(Point::new(0.0, 0.0), Point::new(320.0, 320.0))?;
/// let net = Net::two_pin(0, Point::new(10.0, 10.0), Point::new(300.0, 300.0));
/// let circuit = Circuit::new("t", die, vec![net])?;
/// let grid = RegionGrid::new(&circuit, &Technology::itrs_100nm(), 64.0)?;
/// let (routes, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
///     .route(&circuit)?;
/// assert_eq!(routes.len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct AstarRouter<'a> {
    grid: &'a RegionGrid,
    weights: Weights,
    shield_term: ShieldTerm,
    /// Per-region `(cx, cy)`, precomputed so the expansion loop never
    /// divides.
    coords: Vec<(u32, u32)>,
    /// Per-region geometric centers, precomputed with the exact same
    /// arithmetic as [`RegionGrid::center`] so heuristic values (and
    /// therefore tie-breaking) match the seed router bit for bit.
    centers: Vec<gsino_grid::geom::Point>,
}

/// One speculative search result awaiting ordered commit.
enum Speculative {
    /// Terminals share a region; nothing to route.
    Skip,
    /// A path plus the set of regions whose demand the search read.
    Found {
        path: Vec<RegionIdx>,
        reads: Vec<RegionIdx>,
    },
    /// The search failed; the ordered re-route will surface the error.
    Failed,
}

impl<'a> AstarRouter<'a> {
    /// Creates the router (precomputes per-region coordinate and center
    /// tables, O(regions)).
    pub fn new(grid: &'a RegionGrid, weights: Weights, shield_term: ShieldTerm) -> Self {
        let coords = (0..grid.num_regions()).map(|r| grid.coords(r)).collect();
        let centers = (0..grid.num_regions()).map(|r| grid.center(r)).collect();
        AstarRouter {
            grid,
            weights,
            shield_term,
            coords,
            centers,
        }
    }

    /// A scratch sized for this router's grid: the heap bucket quantum is
    /// one minimum step cost, so each bucket holds about one wavefront
    /// ring. Callers of [`AstarRouter::route_prepared`] should obtain
    /// their scratch here rather than `SearchScratch::new()`, whose
    /// default quantum is not tuned to the grid.
    pub fn make_scratch(&self) -> SearchScratch {
        SearchScratch::with_bucket_width(
            self.weights.alpha * self.grid.tile_w().min(self.grid.tile_h()),
        )
    }

    /// Routes the circuit sequentially with an internal scratch.
    ///
    /// # Errors
    ///
    /// [`CoreError::RoutingFailed`] if a connection's target region cannot
    /// be reached or route assembly fails.
    pub fn route(&self, circuit: &Circuit) -> Result<(RouteSet, super::RouterStats)> {
        let mut scratch = self.make_scratch();
        self.route_prepared(circuit, &self.prepare(circuit), &mut scratch)
    }

    /// Routes the circuit, batching independent connections across
    /// `threads` worker threads (`0` = available parallelism).
    ///
    /// Speculative searches run against a demand snapshot; commits happen
    /// in the sequential order, and any connection whose search read a
    /// region a predecessor's commit changed is re-routed on the spot — so
    /// the result is bit-for-bit identical to [`AstarRouter::route`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`AstarRouter::route`].
    pub fn route_with_threads(
        &self,
        circuit: &Circuit,
        threads: usize,
    ) -> Result<(RouteSet, super::RouterStats)> {
        let conns = self.prepare(circuit);
        self.route_prepared_with_threads(circuit, &conns, threads)
    }

    /// Parallel variant of [`AstarRouter::route_prepared`]: same
    /// speculative batching and ordered commit as
    /// [`AstarRouter::route_with_threads`].
    ///
    /// # Errors
    ///
    /// See [`AstarRouter::route`].
    pub fn route_prepared_with_threads(
        &self,
        circuit: &Circuit,
        conns: &[Connection],
        threads: usize,
    ) -> Result<(RouteSet, super::RouterStats)> {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        if threads <= 1 {
            let mut scratch = self.make_scratch();
            return self.route_prepared(circuit, conns, &mut scratch);
        }
        self.route_parallel(circuit, conns, threads)
    }

    /// Routes pre-decomposed connections (see [`AstarRouter::prepare`])
    /// sequentially over caller-owned scratch space.
    ///
    /// Splitting preparation from routing lets batch flows and benches
    /// decompose once and route many times; `conns` must be the exact
    /// output of [`AstarRouter::prepare`] for the same circuit (the
    /// longest-first order is part of the router's contract).
    ///
    /// # Errors
    ///
    /// See [`AstarRouter::route`].
    pub fn route_prepared(
        &self,
        circuit: &Circuit,
        conns: &[Connection],
        scratch: &mut SearchScratch,
    ) -> Result<(RouteSet, super::RouterStats)> {
        let mut stats = super::RouterStats {
            connections: conns.len(),
            ..Default::default()
        };
        let nregions = self.grid.num_regions() as usize;
        let mut demand = [vec![0u32; nregions], vec![0u32; nregions]];
        let mut per_net: HashMap<NetId, Vec<GridEdge>> = HashMap::new();
        scratch.counters = Default::default();
        for c in conns {
            let t1 = self.grid.region_of(c.from);
            let t2 = self.grid.region_of(c.to);
            if t1 == t2 {
                continue;
            }
            let path = self
                .astar(scratch, t1, t2, &demand)
                .ok_or(CoreError::RoutingFailed { net: c.net })?;
            commit_path(
                self.grid,
                path,
                &mut demand,
                per_net.entry(c.net).or_default(),
                None,
            )?;
        }
        stats.stale_skips = scratch.counters.stale_skips;
        let routes = assemble_trees(self.grid, circuit, &mut per_net)?;
        Ok((routes, stats))
    }

    fn route_parallel(
        &self,
        circuit: &Circuit,
        conns: &[Connection],
        threads: usize,
    ) -> Result<(RouteSet, super::RouterStats)> {
        use std::sync::mpsc;
        use std::sync::Arc;

        let mut stats = super::RouterStats {
            connections: conns.len(),
            ..Default::default()
        };
        let nregions = self.grid.num_regions() as usize;
        let mut demand = [vec![0u32; nregions], vec![0u32; nregions]];
        // `version[r]` is the commit ordinal that last changed region r's
        // demand; a speculative search is valid iff nothing it read moved
        // after its snapshot.
        let mut version: Vec<u32> = vec![0; nregions];
        let mut commit_seq: u32 = 0;
        let mut per_net: HashMap<NetId, Vec<GridEdge>> = HashMap::new();
        let mut committer = self.make_scratch();
        // Batches several times the thread count keep speculation windows
        // (and thus re-route rates) small while leaving every worker a few
        // connections per round.
        let batch = threads * 4;

        // One persistent worker per thread for the whole route: each gets
        // its batch assignment over a channel (the chunk plus an Arc'd
        // demand snapshot frozen at batch start) and reports its stripe's
        // results back; spawning per batch would cost a thread spawn/join
        // cycle every `batch` connections.
        type Snapshot = Arc<[Vec<u32>; 2]>;
        let mut result = Ok(());
        let routes_out: Option<RouteSet> = std::thread::scope(|scope| {
            let (result_tx, result_rx) =
                mpsc::channel::<(usize, Vec<(usize, Speculative)>, usize)>();
            let mut batch_txs: Vec<mpsc::Sender<(&[Connection], Snapshot)>> = Vec::new();
            for w in 0..threads {
                let (tx, rx) = mpsc::channel::<(&[Connection], Snapshot)>();
                batch_txs.push(tx);
                let result_tx = result_tx.clone();
                scope.spawn(move || {
                    let mut scratch = self.make_scratch();
                    scratch.set_record_reads(true);
                    while let Ok((chunk, snapshot)) = rx.recv() {
                        let before = scratch.counters.stale_skips;
                        let mut out = Vec::new();
                        let mut i = w;
                        while i < chunk.len() {
                            let c = &chunk[i];
                            let t1 = self.grid.region_of(c.from);
                            let t2 = self.grid.region_of(c.to);
                            let spec = if t1 == t2 {
                                Speculative::Skip
                            } else {
                                match self.astar(&mut scratch, t1, t2, &snapshot) {
                                    Some(path) => Speculative::Found {
                                        path: path.to_vec(),
                                        reads: scratch.reads().to_vec(),
                                    },
                                    None => Speculative::Failed,
                                }
                            };
                            out.push((i, spec));
                            i += threads;
                        }
                        let skips = scratch.counters.stale_skips - before;
                        if result_tx.send((w, out, skips)).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(result_tx);

            let mut start = 0;
            while start < conns.len() {
                let chunk = &conns[start..(start + batch).min(conns.len())];
                start += chunk.len();
                let snapshot: Snapshot = Arc::new(demand.clone());
                for tx in &batch_txs {
                    if tx.send((chunk, Arc::clone(&snapshot))).is_err() {
                        result = Err(CoreError::RoutingFailed { net: chunk[0].net });
                        return None;
                    }
                }
                let mut slots: Vec<Option<Speculative>> = Vec::new();
                slots.resize_with(chunk.len(), || None);
                for _ in 0..threads {
                    let Ok((_, stripe, skips)) = result_rx.recv() else {
                        result = Err(CoreError::RoutingFailed { net: chunk[0].net });
                        return None;
                    };
                    stats.stale_skips += skips;
                    for (i, spec) in stripe {
                        slots[i] = Some(spec);
                    }
                }
                let snap = commit_seq;
                for (slot, c) in slots.into_iter().zip(chunk) {
                    // invariant: the speculative pass above filled every
                    // slot of this chunk before we got here.
                    let spec = slot.expect("every slot routed");
                    let valid = match &spec {
                        Speculative::Skip => continue,
                        Speculative::Found { reads, .. } => {
                            reads.iter().all(|&r| version[r as usize] <= snap)
                        }
                        Speculative::Failed => false,
                    };
                    commit_seq += 1;
                    let commit = if valid {
                        let Speculative::Found { path, .. } = spec else {
                            // invariant: `valid` is only true for Found.
                            unreachable!()
                        };
                        commit_path(
                            self.grid,
                            &path,
                            &mut demand,
                            per_net.entry(c.net).or_default(),
                            Some((&mut version, commit_seq)),
                        )
                    } else {
                        stats.speculative_reroutes += 1;
                        let t1 = self.grid.region_of(c.from);
                        let t2 = self.grid.region_of(c.to);
                        match self.astar(&mut committer, t1, t2, &demand) {
                            None => Err(CoreError::RoutingFailed { net: c.net }),
                            Some(path) => {
                                let path = path.to_vec();
                                commit_path(
                                    self.grid,
                                    &path,
                                    &mut demand,
                                    per_net.entry(c.net).or_default(),
                                    Some((&mut version, commit_seq)),
                                )
                            }
                        }
                    };
                    if let Err(e) = commit {
                        result = Err(e);
                        return None;
                    }
                }
            }
            drop(batch_txs); // Workers drain and exit before the scope joins.
            stats.stale_skips += committer.counters.stale_skips;
            match assemble_trees(self.grid, circuit, &mut per_net) {
                Ok(routes) => Some(routes),
                Err(e) => {
                    result = Err(e);
                    None
                }
            }
        });
        result?;
        // invariant: the worker stores routes before returning Ok.
        let routes = routes_out.expect("Ok result implies routes");
        Ok((routes, stats))
    }

    /// Steiner-decomposes every net into two-pin connections, longest
    /// first (the standard sequential-router ordering heuristic: the
    /// hardest connections see the emptiest chip). The output feeds
    /// [`AstarRouter::route_prepared`].
    pub fn prepare(&self, circuit: &Circuit) -> Vec<Connection> {
        let mut conns: Vec<Connection> = Vec::new();
        for net in circuit.nets() {
            conns.extend(decompose_net(net));
        }
        conns.sort_by(|a, b| {
            // invariant: manhattan lengths of in-die pins are finite.
            b.manhattan()
                .partial_cmp(&a.manhattan())
                .expect("finite lengths")
                .then_with(|| a.net.cmp(&b.net))
        });
        conns
    }

    /// Congestion-aware A* between two regions over the flat scratch.
    /// Returns `None` if `to` is unreachable (never panics — the seed
    /// indexed `prev[&cur]` and panicked here).
    fn astar<'s>(
        &self,
        scratch: &'s mut SearchScratch,
        from: RegionIdx,
        to: RegionIdx,
        demand: &[Vec<u32>; 2],
    ) -> Option<&'s [RegionIdx]> {
        let grid = self.grid;
        let coords = &self.coords;
        let centers = &self.centers;
        let target_center = centers[to as usize];
        scratch
            .astar(
                grid.num_regions() as usize,
                from,
                to,
                // neighbor_array order (W, E, S, N) with the cached,
                // division-free coordinates.
                |r| {
                    let (cx, cy) = coords[r as usize];
                    grid.neighbor_array_at(r, cx, cy)
                },
                |a, b| self.step_cost(a, b, demand),
                |r| centers[r as usize].manhattan(target_center),
            )
            .ok()
    }

    /// Cost of stepping across one region boundary: length plus the same
    /// density/overflow pressure as Formula (2), scaled into µm.
    fn step_cost(&self, a: RegionIdx, b: RegionIdx, demand: &[Vec<u32>; 2]) -> f64 {
        let edge_dir = {
            let (ax, ay) = self.coords[a as usize];
            let (bx, by) = self.coords[b as usize];
            debug_assert!(ax.abs_diff(bx) + ay.abs_diff(by) == 1);
            if ay == by {
                Dir::H
            } else {
                Dir::V
            }
        };
        let (len, cap, d) = match edge_dir {
            Dir::H => (self.grid.tile_w(), self.grid.hc() as f64, 0),
            Dir::V => (self.grid.tile_h(), self.grid.vc() as f64, 1),
        };
        let mut penalty = 0.0;
        for r in [a, b] {
            let nns = demand[d][r as usize] as f64;
            let used = nns + self.shield_term.shields(nns);
            penalty += self.weights.beta * (used / cap) / 2.0;
            penalty += self.weights.gamma * ((used - cap).max(0.0) / cap) / 2.0;
        }
        // α scales the pure length term, matching Formula (2)'s balance.
        self.weights.alpha * len + penalty * len
    }
}

/// Commits one routed path: bumps demand on both endpoint regions of every
/// edge, collects the edges into the net's pool, and (in parallel mode)
/// stamps the touched regions with the commit ordinal.
fn commit_path(
    grid: &RegionGrid,
    path: &[RegionIdx],
    demand: &mut [Vec<u32>; 2],
    edges_out: &mut Vec<GridEdge>,
    mut version: Option<(&mut Vec<u32>, u32)>,
) -> Result<()> {
    for w in path.windows(2) {
        let edge = GridEdge::new(grid, w[0], w[1])?;
        let d = match edge.dir(grid) {
            Dir::H => 0,
            Dir::V => 1,
        };
        for r in [w[0], w[1]] {
            demand[d][r as usize] += 1;
            if let Some((version, seq)) = version.as_mut() {
                version[r as usize] = *seq;
            }
        }
        edges_out.push(edge);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsino_grid::geom::{Point, Rect};
    use gsino_grid::net::Net;
    use gsino_grid::tech::Technology;
    use gsino_grid::usage::TrackUsage;
    use std::collections::HashSet;

    fn setup(nets: Vec<Net>, side: f64) -> (Circuit, RegionGrid) {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(side, side)).unwrap();
        let circuit = Circuit::new("t", die, nets).unwrap();
        let grid = RegionGrid::new(&circuit, &Technology::itrs_100nm(), 64.0).unwrap();
        (circuit, grid)
    }

    #[test]
    fn straight_net_routes_minimally() {
        let (circuit, grid) = setup(
            vec![Net::two_pin(
                0,
                Point::new(32.0, 32.0),
                Point::new(600.0, 32.0),
            )],
            640.0,
        );
        let (routes, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
            .route(&circuit)
            .unwrap();
        assert_eq!(routes.get(0).unwrap().wirelength(&grid), 9.0 * 64.0);
    }

    #[test]
    fn multipin_spans_all_pins() {
        let pins = vec![
            Point::new(32.0, 32.0),
            Point::new(600.0, 32.0),
            Point::new(32.0, 600.0),
        ];
        let (circuit, grid) = setup(vec![Net::new(0, pins.clone())], 640.0);
        let (routes, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
            .route(&circuit)
            .unwrap();
        let r = routes.get(0).unwrap();
        let regions: HashSet<_> = r.regions().into_iter().collect();
        for p in &pins {
            assert!(regions.contains(&grid.region_of(*p)));
        }
    }

    #[test]
    fn congestion_cost_spreads_nets() {
        let mut nets = Vec::new();
        for i in 0..40u32 {
            let y = 16.0 + (i % 4) as f64;
            nets.push(Net::two_pin(i, Point::new(16.0, y), Point::new(620.0, y)));
        }
        let (circuit, grid) = setup(nets, 640.0);
        let (routes, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
            .route(&circuit)
            .unwrap();
        let usage = TrackUsage::from_routes(&grid, &routes);
        let rows_used = (0..grid.ny())
            .filter(|&cy| (0..grid.nx()).any(|cx| usage.nets(grid.idx(cx, cy), Dir::H) > 0))
            .count();
        assert!(
            rows_used >= 3,
            "A* must spread 40 nets beyond capacity-16 rows"
        );
    }

    #[test]
    fn paths_match_id_router_on_sparse_input() {
        // With no congestion both routers find shortest trees, so total
        // wire length should agree.
        let (circuit, grid) = setup(
            vec![
                Net::two_pin(0, Point::new(32.0, 32.0), Point::new(600.0, 500.0)),
                Net::two_pin(1, Point::new(100.0, 600.0), Point::new(500.0, 100.0)),
            ],
            640.0,
        );
        let (a, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
            .route(&circuit)
            .unwrap();
        let (b, _) =
            super::super::route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        assert_eq!(a.total_wirelength(&grid), b.total_wirelength(&grid));
    }

    #[test]
    fn deterministic() {
        let (circuit, grid) = setup(
            (0..20u32)
                .map(|i| {
                    let x = 20.0 + (i as f64 * 97.0) % 600.0;
                    let y = 20.0 + (i as f64 * 61.0) % 600.0;
                    Net::two_pin(i, Point::new(x, y), Point::new(620.0 - x, 620.0 - y))
                })
                .collect(),
            640.0,
        );
        let router = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None);
        let (a, _) = router.route(&circuit).unwrap();
        let (b, _) = router.route(&circuit).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let (circuit, grid) = setup(
            (0..15u32)
                .map(|i| {
                    let x = 24.0 + (i as f64 * 83.0) % 580.0;
                    let y = 24.0 + (i as f64 * 59.0) % 580.0;
                    Net::two_pin(i, Point::new(x, y), Point::new(616.0 - x, 616.0 - y))
                })
                .collect(),
            640.0,
        );
        let router = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None);
        let mut scratch = router.make_scratch();
        let conns = router.prepare(&circuit);
        let (a, _) = router
            .route_prepared(&circuit, &conns, &mut scratch)
            .unwrap();
        // Same scratch, second run: epoch stamping must isolate it fully.
        let (b, _) = router
            .route_prepared(&circuit, &conns, &mut scratch)
            .unwrap();
        let (fresh, _) = router.route(&circuit).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, fresh);
    }

    #[test]
    fn parallel_routing_matches_sequential_bit_for_bit() {
        // Dense enough that speculative searches collide and re-route.
        let (circuit, grid) = setup(
            (0..60u32)
                .map(|i| {
                    let x = 16.0 + (i as f64 * 37.0) % 600.0;
                    let y = 16.0 + (i as f64 * 53.0) % 600.0;
                    Net::two_pin(i, Point::new(x, y), Point::new(620.0 - x, 620.0 - y))
                })
                .collect(),
            640.0,
        );
        let router = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None);
        let (seq, _) = router.route(&circuit).unwrap();
        for threads in [2, 3, 8] {
            let (par, _) = router.route_with_threads(&circuit, threads).unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn degenerate_one_by_n_grid_routes_without_panicking() {
        // Regression for the seed's `prev[&cur]` panic path: a 1×N die
        // exercises the narrowest possible search frontier.
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(64.0, 640.0)).unwrap();
        let nets = vec![
            Net::two_pin(0, Point::new(32.0, 16.0), Point::new(32.0, 620.0)),
            Net::two_pin(1, Point::new(16.0, 320.0), Point::new(48.0, 16.0)),
        ];
        let circuit = Circuit::new("thin", die, nets).unwrap();
        let grid = RegionGrid::new(&circuit, &Technology::itrs_100nm(), 64.0).unwrap();
        assert_eq!((grid.nx(), grid.ny()), (1, 10));
        let (routes, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
            .route(&circuit)
            .unwrap();
        assert_eq!(routes.get(0).unwrap().wirelength(&grid), 9.0 * 64.0);
        let (par, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
            .route_with_threads(&circuit, 4)
            .unwrap();
        assert_eq!(routes, par);
    }

    #[test]
    fn stale_skips_are_counted() {
        let (circuit, grid) = setup(
            (0..30u32)
                .map(|i| {
                    let y = 16.0 + (i % 3) as f64;
                    Net::two_pin(i, Point::new(16.0, y), Point::new(620.0, y))
                })
                .collect(),
            640.0,
        );
        let (_, stats) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
            .route(&circuit)
            .unwrap();
        assert!(
            stats.stale_skips > 0,
            "congested search must hit stale entries"
        );
    }
}
