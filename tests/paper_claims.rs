//! The paper's headline claims, asserted on ibm01 at scale 0.3 (seed 2002,
//! sensitivity rates 30% and 50%).
//!
//! Bit-identity suites prove that a refactor changed nothing; they cannot
//! judge a deliberate algorithm change. These checks can: they assert the
//! inequalities of Tables 1 and 3 (GSINO against the iSINO and ID+NO
//! baselines), and they measure the production greedy SINO solver against
//! the exact branch-and-bound optimum on every small Phase II region.
//!
//! Measured values at the time the checks were written are quoted next to
//! each assertion; the assertions themselves are the paper's inequalities,
//! plus measured ceilings where the paper gives none.

use gsino_circuits::experiment::{run_suite, ExperimentConfig};
use gsino_circuits::generator::generate;
use gsino_circuits::spec::CircuitSpec;
use gsino_core::pipeline::{run_flow_with_artifacts, Approach, GsinoConfig};
use gsino_grid::sensitivity::SensitivityModel;
use gsino_sino::exact::solve_exact;

const SCALE: f64 = 0.3;
const SEED: u64 = 2002;
const RATES: [f64; 2] = [0.3, 0.5];

/// Tables 1 and 3: GSINO and iSINO are violation-free, the ID+NO baseline
/// is not (and worsens with the sensitivity rate), and GSINO needs fewer
/// shields and no more routing area than iSINO.
#[test]
fn gsino_beats_the_baselines_on_violations_shields_and_area() {
    let config = ExperimentConfig {
        scale: SCALE,
        rates: RATES.to_vec(),
        circuits: vec![CircuitSpec::ibm01()],
        seed: SEED,
        threads: 0,
    };
    let suite = run_suite(&config).expect("suite runs");
    eprintln!("{}", suite.render_table1());
    eprintln!("{}", suite.render_table3());
    let name = &suite.results[0].name;
    let cells: Vec<_> = RATES
        .iter()
        .map(|&rate| suite.get(name, rate).expect("cell for every rate"))
        .collect();
    for cell in &cells {
        let rate = cell.rate;
        assert_eq!(cell.gsino.violating_nets, 0, "GSINO violates at {rate}");
        assert_eq!(cell.isino.violating_nets, 0, "iSINO violates at {rate}");
        // Measured: 30 vs 100 shields at 30%, 269 vs 485 at 50%.
        assert!(
            cell.gsino.shields < cell.isino.shields,
            "rate {rate}: GSINO {} shields, iSINO {}",
            cell.gsino.shields,
            cell.isino.shields
        );
        // Measured: 922,908 vs 931,188 um^2 at 30%, 966,062 vs 968,514 at
        // 50%.
        assert!(
            cell.gsino.area <= cell.isino.area,
            "rate {rate}: GSINO area {} > iSINO area {}",
            cell.gsino.area,
            cell.isino.area
        );
    }
    // Measured: 4.08% at 30%, 24.46% at 50%.
    let (low, high) = (&cells[0].id_no, &cells[1].id_no);
    assert!(low.violating_pct > 0.0, "ID+NO is violation-free at 30%");
    assert!(
        high.violating_pct > low.violating_pct,
        "ID+NO violating share must grow with the rate: {}% -> {}%",
        low.violating_pct,
        high.violating_pct
    );
}

/// The greedy SINO solver against the exact optimum, on every iSINO Phase
/// II region of 2 to 10 segments: exact solves finish, never lose to
/// greedy, and greedy's total area stays under the measured ceiling.
#[test]
fn greedy_sino_stays_within_measured_gap_of_exact() {
    let circuit = generate(&CircuitSpec::ibm01().scaled(SCALE), SEED).expect("generator circuit");
    // (rate, greedy area, exact area) measured over the same regions; the
    // ratio is the ceiling.
    let ceilings = [(0.3, 1661usize, 1643usize), (0.5, 1807, 1735)];
    for (rate, ceiling_greedy, ceiling_exact) in ceilings {
        let config = GsinoConfig {
            sensitivity: SensitivityModel::new(rate, SEED ^ 0xC1C),
            ..GsinoConfig::default()
        };
        let (_, internals) =
            run_flow_with_artifacts(&circuit, &config, Approach::Isino).expect("iSINO flow");
        let (mut regions, mut greedy_total, mut exact_total) = (0usize, 0usize, 0usize);
        for (region, dir) in internals.sino.keys() {
            let solution = internals.sino.solution(region, dir).expect("listed key");
            if !(2..=10).contains(&solution.instance.n()) {
                continue;
            }
            let exact = solve_exact(&solution.instance, None).expect("exact solve");
            assert!(
                exact.optimal,
                "rate {rate}: region {region} {dir:?} hit the node limit"
            );
            let greedy_area = solution.layout.area();
            assert!(
                exact.layout.area() <= greedy_area,
                "rate {rate}: region {region} {dir:?} exact {} > greedy {greedy_area}",
                exact.layout.area()
            );
            regions += 1;
            greedy_total += greedy_area;
            exact_total += exact.layout.area();
        }
        eprintln!(
            "[paper_claims] rate {rate}: {regions} regions, greedy/exact area \
             {greedy_total}/{exact_total}"
        );
        // 209 regions were measured at each rate.
        assert!(regions >= 200, "rate {rate}: only {regions} small regions");
        assert!(
            greedy_total * ceiling_exact <= ceiling_greedy * exact_total,
            "rate {rate}: greedy/exact {greedy_total}/{exact_total} exceeds the \
             measured ceiling {ceiling_greedy}/{ceiling_exact}"
        );
    }
}
