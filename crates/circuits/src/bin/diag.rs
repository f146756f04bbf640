//! Circuit/routing diagnostics: wire-length decomposition and congestion
//! profile for a generated benchmark. Useful when calibrating the suite.
//!
//! ```text
//! cargo run -p gsino-circuits --bin diag --release -- [ibm01] [scale]
//! ```

use gsino_circuits::generator::generate;
use gsino_circuits::spec::CircuitSpec;
use gsino_core::metrics::wirelength_stats;
use gsino_core::router::{route_all, ShieldTerm, Weights};
use gsino_grid::region::RegionGrid;
use gsino_grid::route::Dir;
use gsino_grid::tech::Technology;
use gsino_grid::usage::TrackUsage;
use gsino_steiner::rsmt_estimate;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("ibm01");
    let scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let weights = args
        .get(2)
        .map(|s| {
            let v: Vec<f64> = s.split(',').filter_map(|x| x.parse().ok()).collect();
            Weights {
                alpha: v[0],
                beta: v[1],
                gamma: v[2],
            }
        })
        .unwrap_or_default();
    let spec = CircuitSpec::suite()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(CircuitSpec::ibm01)
        .scaled(scale);
    let circuit = generate(&spec, 2002).expect("generation");
    let tech = Technology::itrs_100nm();
    let grid = RegionGrid::new(&circuit, &tech, 64.0).expect("grid");

    let n = circuit.num_nets() as f64;
    let mean_hpwl = circuit.mean_hpwl();
    let mean_steiner: f64 = circuit
        .nets()
        .iter()
        .map(|net| rsmt_estimate(net.pins()))
        .sum::<f64>()
        / n;
    println!(
        "{name} scale {scale}: {} nets, die {:.0} x {:.0}",
        circuit.num_nets(),
        spec.die_w,
        spec.die_h
    );
    println!("mean HPWL      {mean_hpwl:8.1} um");
    println!(
        "mean RSMT est  {mean_steiner:8.1} um  (target {:.0})",
        spec.target_wl
    );

    let (routes, stats) = route_all(&grid, &circuit, weights, ShieldTerm::None).expect("routing");
    let wl = wirelength_stats(&circuit, &grid, &routes);
    println!(
        "mean routed    {:8.1} um  (inflation vs RSMT {:.2}x)",
        wl.mean_um,
        wl.mean_um / mean_steiner
    );
    println!(
        "router: {} connections, {} edges, {} deletions, {} reinserts",
        stats.connections, stats.edges_initial, stats.deletions, stats.reinserts
    );

    let usage = TrackUsage::from_routes(&grid, &routes);
    let mut densities: Vec<f64> = Vec::new();
    for r in 0..grid.num_regions() {
        densities.push(usage.density(r, Dir::H));
        densities.push(usage.density(r, Dir::V));
    }
    densities.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pick = |q: f64| densities[((densities.len() - 1) as f64 * q) as usize];
    println!(
        "density quantiles: p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}",
        pick(0.5),
        pick(0.9),
        pick(0.99),
        pick(1.0)
    );
    println!("total overflow tracks: {}", usage.total_overflow());

    // Per-region coupling profile under order-only (the ID+NO regime).
    use gsino_core::budget::{uniform_budgets, LengthModel};
    use gsino_core::phase2::{solve_regions_with_engine, RegionMode, SinoEngine};
    use gsino_core::violations::check;
    use gsino_grid::sensitivity::SensitivityModel;
    use gsino_lsk::table::NoiseTable;
    use gsino_sino::solver::SolverConfig;
    let table = NoiseTable::calibrated(&tech);
    for rate in [0.3, 0.5] {
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        let sens = SensitivityModel::new(rate, 2002 ^ 0xC1C);
        let sino = solve_regions_with_engine(
            &grid,
            &routes,
            &budgets,
            &sens,
            SolverConfig::default(),
            RegionMode::OrderOnly,
            0,
            SinoEngine::Incremental,
        )
        .unwrap();
        let mut ks: Vec<f64> = Vec::new();
        let mut occ: Vec<f64> = Vec::new();
        for (r, d) in sino.keys() {
            let sol = sino.solution(r, d).unwrap();
            occ.push(sol.nets.len() as f64);
            ks.extend(sol.k.iter().copied());
        }
        ks.sort_by(|a, b| a.partial_cmp(b).unwrap());
        occ.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |v: &[f64], p: f64| v[((v.len() - 1) as f64 * p) as usize];
        let report = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        println!(
            "rate {rate}: occupancy p50 {:.1} p90 {:.1} | K p50 {:.2} p90 {:.2} p99 {:.2} | violating nets {} ({:.1}%)",
            q(&occ, 0.5),
            q(&occ, 0.9),
            q(&ks, 0.5),
            q(&ks, 0.9),
            q(&ks, 0.99),
            report.violating_nets(),
            100.0 * report.violating_nets() as f64 / circuit.num_nets() as f64
        );
    }
}
