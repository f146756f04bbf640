//! The batch workloads, `gsino5k` and `route20k`: one generated rung routed
//! by `run_gsino`.

use crate::flow::{mismatches, report_layers, traced_gsino};
use crate::stats::median;
use crate::{peak_rss_mb, Args, Report, Size};
use gsino_circuits::generator::{circuit_digest, generate_scaled, ScaleSpec};
use gsino_circuits::io::{parse_workload_str, write_workload, Workload};
use gsino_core::pipeline::{run_gsino, GsinoConfig, GsinoOutcome};
use gsino_core::refine::RefineConfig;
use gsino_grid::geom::Point;
use gsino_grid::net::{Circuit, Net};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Phase II and the parallel parts of the flow run on this many threads.
const THREADS: usize = 2;

/// Largest pin displacement per axis, in µm, that `--seed` applies to a
/// generated circuit: an eighth of a 64 µm ladder tile.
pub const JITTER_UM: f64 = 8.0;

/// The rung and configuration of a batch workload.
fn workload(name: &str, size: Size) -> Result<(ScaleSpec, GsinoConfig), String> {
    let (nets, refine) = match name {
        "gsino5k" => (5_000, RefineConfig::default()),
        "route20k" => (
            20_000,
            RefineConfig {
                enable_pass2: false,
                ..RefineConfig::default()
            },
        ),
        other => return Err(format!("{other} is not a batch workload")),
    };
    let spec = match (name, size) {
        ("gsino5k", Size::Full) => ScaleSpec::by_id("scale5k").ok_or("no scale5k rung")?,
        (_, Size::Full) => ScaleSpec::rung(name, nets, 1.0, 0.0),
        (_, Size::Tiny) => ScaleSpec::rung(name, nets / 50, 1.0, 0.0),
    };
    let config = GsinoConfig::builder()
        .threads(THREADS)
        .refine(refine)
        .build()
        .map_err(|e| e.to_string())?;
    Ok((spec, config))
}

/// Moves every pin of `wl` by a seeded offset of up to [`JITTER_UM`] per
/// axis, clamped to the die.
///
/// The generator seed places the circuit's congestion hotspots, and on its
/// own it changes the 5k pipeline's run time up to threefold. The
/// benchmark keeps the rung's own generator seed, so every `--seed` has
/// the same hotspots, and lets `--seed` move pins instead. A shift of at
/// most an eighth of a tile moves some pins into a neighbouring tile and
/// so changes routes and quality figures, but keeps the seed-to-seed
/// spread of the run time to about 5%; half a tile made it about 18%.
pub fn jitter(wl: &Workload, seed: u64) -> Result<Workload, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let die = *wl.circuit().die();
    let (lo, hi) = (die.lo(), die.hi());
    let nets = wl
        .circuit()
        .nets()
        .iter()
        .map(|net| {
            let pins = net
                .pins()
                .iter()
                .map(|p| {
                    let x = p.x + rng.gen_range(-JITTER_UM..JITTER_UM);
                    let y = p.y + rng.gen_range(-JITTER_UM..JITTER_UM);
                    Point::new(x.clamp(lo.x, hi.x), y.clamp(lo.y, hi.y))
                })
                .collect();
            Net::new(net.id(), pins)
        })
        .collect();
    Workload::new(
        wl.name(),
        wl.nx(),
        wl.ny(),
        wl.hc(),
        wl.vc(),
        wl.tile_w(),
        wl.tile_h(),
        nets,
    )
    .map_err(|e| e.to_string())
}

/// Generated inputs as the router receives them, with set-up timings.
pub struct Inputs {
    pub circuits: Vec<Circuit>,
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    pub generate_ms: Vec<f64>,
    pub parse_ms: Vec<f64>,
}

impl Inputs {
    /// Generates every circuit, writes it in the text workload format and
    /// parses it back, `reps` times; keeps the last parsed copies.
    pub fn build(
        r: &mut Report,
        reps: usize,
        generate: impl Fn() -> Result<Vec<Workload>, String>,
    ) -> Result<Inputs, String> {
        let mut inputs = Inputs {
            circuits: Vec::new(),
            setup_s: Vec::new(),
            generate_ms: Vec::new(),
            parse_ms: Vec::new(),
        };
        let mut round_trip_ok = true;
        for _ in 0..reps {
            let t = Instant::now();
            let workloads = generate()?;
            let generated = t.elapsed().as_secs_f64();
            let mut parse_s = 0.0;
            let mut circuits = Vec::new();
            for wl in workloads {
                let mut text = Vec::new();
                write_workload(&wl, &mut text).map_err(|e| e.to_string())?;
                let text = String::from_utf8(text).map_err(|e| e.to_string())?;
                let tp = Instant::now();
                let parsed = parse_workload_str(&text).map_err(|e| e.to_string())?;
                parse_s += tp.elapsed().as_secs_f64();
                round_trip_ok &= parsed == wl;
                circuits.push(parsed.into_circuit());
            }
            inputs.setup_s.push(t.elapsed().as_secs_f64());
            inputs.generate_ms.push(generated * 1e3);
            inputs.parse_ms.push(parse_s * 1e3);
            inputs.circuits = circuits;
        }
        r.check("text_round_trip_is_identity", round_trip_ok);
        let digests: Vec<String> = inputs
            .circuits
            .iter()
            .map(|c| format!("{:016x}", circuit_digest(c)))
            .collect();
        r.note_str("circuit_digest", &digests.join(","));
        r.note(
            "nets",
            inputs.circuits.iter().map(|c| c.num_nets()).sum::<usize>() as f64,
        );
        r.set("circuits.generate_ms", median(&inputs.generate_ms));
        r.set("circuits.parse_ms", median(&inputs.parse_ms));
        Ok(inputs)
    }
}

/// Every net has a route and no sink violates its constraint.
pub fn check_outcome(r: &mut Report, circuit: &Circuit, o: &GsinoOutcome) {
    let routed = circuit
        .nets()
        .iter()
        .all(|n| o.routes.get(n.id()).is_some());
    r.check(
        "every_net_routed",
        routed && o.routes.len() == circuit.num_nets(),
    );
    r.check("violating_nets_zero", o.violations.violating_nets() == 0);
}

/// Runs `gsino5k` or `route20k`.
///
/// Untraced: one `run_gsino` call, whose wall time is `pipeline_s`; at
/// full size that call alone outlasts `--seconds`. Traced: the same call,
/// then the traced composition of the same steps, whose outcome must be
/// bit-identical.
///
/// # Errors
///
/// Set-up failures and flow errors.
pub fn run(name: &str, args: &Args) -> Result<Report, String> {
    let (spec, config) = workload(name, args.size)?;
    let mut r = Report::default();
    let inputs = Inputs::build(&mut r, SETUP_REPS, || {
        let wl = generate_scaled(&spec).map_err(|e| e.to_string())?;
        Ok(vec![jitter(&wl, args.seed)?])
    })?;
    r.set("setup_s", median(&inputs.setup_s));
    let circuit = &inputs.circuits[0];

    r.attempted += 1;
    let t = Instant::now();
    let o = run_gsino(circuit, &config).map_err(|e| format!("run_gsino failed: {e}"))?;
    let untraced_s = t.elapsed().as_secs_f64();
    check_outcome(&mut r, circuit, &o);

    if args.trace {
        r.attempted += 1;
        let t = Instant::now();
        let (traced, layers) = traced_gsino(circuit, &config).map_err(|e| e.to_string())?;
        let traced_s = t.elapsed().as_secs_f64();
        let bad = mismatches(&o, &traced);
        if !bad.is_empty() {
            eprintln!("traced flow differs from run_gsino in: {}", bad.join(", "));
        }
        r.check("traced_flow_identical_to_run_gsino", bad.is_empty());
        report_layers(&mut r, &layers);
        r.set("trace.untraced_s", untraced_s);
        r.set("trace.overhead_s", traced_s - untraced_s);
    } else {
        r.set("pipeline_s", untraced_s);
        // One call per run, so a batch run's request rate is 1/pipeline_s.
        r.set("requests_per_s", 1.0 / untraced_s);
        r.note("total_shields", o.total_shields as f64);
        r.set("routing_area_um2", o.area.area());
        r.set("wirelength_um", o.wirelength.total_um);
        r.set("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(r)
}
