//! The paper's comparison baselines (§4).
//!
//! * **ID+NO** — the ID global router minimizing wire length and congestion
//!   only (no `Nss` term in `HU`), followed by net ordering within each
//!   region "to eliminate as much capacitive coupling as possible". No
//!   shields are inserted, so inductive crosstalk goes unchecked — up to
//!   24% of nets violate at 3 GHz (Table 1).
//! * **iSINO** — the same crosstalk-oblivious routing, followed by full
//!   SINO within each region. Violation-free, but since the routing neither
//!   reserved nor minimized shielding area, the shields concentrate in
//!   sensitive-dense regions and the routing area balloons (Table 3).

use crate::cancel::CancelToken;
use crate::pipeline::{run_flow, Approach, GsinoConfig, GsinoOutcome};
use crate::Result;
use gsino_grid::net::Circuit;

/// Runs the ID+NO baseline.
///
/// # Errors
///
/// Same conditions as [`crate::pipeline::run_gsino`].
pub fn run_id_no(circuit: &Circuit, config: &GsinoConfig) -> Result<GsinoOutcome> {
    run_flow(circuit, config, Approach::IdNo, &CancelToken::never()).map(|(o, _)| o)
}

/// Runs the iSINO baseline.
///
/// # Errors
///
/// Same conditions as [`crate::pipeline::run_gsino`].
pub fn run_isino(circuit: &Circuit, config: &GsinoConfig) -> Result<GsinoOutcome> {
    run_flow(circuit, config, Approach::Isino, &CancelToken::never()).map(|(o, _)| o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_gsino;
    use gsino_grid::geom::{Point, Rect};
    use gsino_grid::net::Net;
    use gsino_grid::sensitivity::SensitivityModel;
    use gsino_sino::nss::NssModel;

    /// A congested circuit with long parallel nets: the regime where the
    /// three approaches separate.
    fn hot_circuit() -> Circuit {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(1920.0, 640.0)).unwrap();
        let mut nets = Vec::new();
        let mut id = 0u32;
        // Three buses of 14 long horizontal nets in adjacent rows.
        for bus in 0..3u32 {
            for i in 0..14u32 {
                let y = 128.0 + bus as f64 * 192.0 + i as f64 * 2.0;
                nets.push(Net::two_pin(id, Point::new(8.0, y), Point::new(1900.0, y)));
                id += 1;
            }
        }
        // A few cross nets.
        for i in 0..8u32 {
            let x = 100.0 + i as f64 * 220.0;
            nets.push(Net::two_pin(id, Point::new(x, 16.0), Point::new(x, 620.0)));
            id += 1;
        }
        Circuit::new("hot", die, nets).unwrap()
    }

    fn config(rate: f64) -> GsinoConfig {
        GsinoConfig {
            sensitivity: SensitivityModel::new(rate, 11),
            nss_model: Some(NssModel::from_coefficients(
                [0.9, -0.5, 0.4, -0.2, 0.05, -0.3],
                0.5,
            )),
            threads: 1,
            ..GsinoConfig::default()
        }
    }

    #[test]
    fn id_no_violates_where_sino_flows_do_not() {
        let circuit = hot_circuit();
        let cfg = config(0.5);
        let id_no = run_id_no(&circuit, &cfg).unwrap();
        let isino = run_isino(&circuit, &cfg).unwrap();
        let gsino = run_gsino(&circuit, &cfg).unwrap();
        assert!(
            id_no.violations.violating_nets() > 0,
            "ID+NO must violate on the hot circuit"
        );
        assert!(isino.violations.is_clean(), "iSINO must be violation-free");
        assert!(gsino.violations.is_clean(), "GSINO must be violation-free");
        assert_eq!(id_no.total_shields, 0);
        assert!(isino.total_shields > 0);
        assert!(gsino.total_shields > 0);
    }

    #[test]
    fn isino_keeps_id_no_wirelength() {
        // iSINO and ID+NO share the routing stage, so their wire lengths
        // match exactly (paper §4).
        let circuit = hot_circuit();
        let cfg = config(0.5);
        let id_no = run_id_no(&circuit, &cfg).unwrap();
        let isino = run_isino(&circuit, &cfg).unwrap();
        assert_eq!(id_no.wirelength.total_um, isino.wirelength.total_um);
    }

    #[test]
    fn violations_grow_with_sensitivity_rate() {
        let circuit = hot_circuit();
        let low = run_id_no(&circuit, &config(0.3)).unwrap();
        let high = run_id_no(&circuit, &config(0.5)).unwrap();
        assert!(
            high.violations.violating_nets() >= low.violations.violating_nets(),
            "high {} < low {}",
            high.violations.violating_nets(),
            low.violations.violating_nets()
        );
    }

    #[test]
    fn area_ordering_matches_paper() {
        // Paper Table 3: area(ID+NO) <= area(GSINO) <= area(iSINO).
        let circuit = hot_circuit();
        let cfg = config(0.5);
        let id_no = run_id_no(&circuit, &cfg).unwrap();
        let isino = run_isino(&circuit, &cfg).unwrap();
        let gsino = run_gsino(&circuit, &cfg).unwrap();
        assert!(id_no.area.area() <= isino.area.area());
        assert!(
            gsino.area.area() <= isino.area.area() * 1.02,
            "GSINO area {} should not exceed iSINO {}",
            gsino.area.area(),
            isino.area.area()
        );
    }
}
