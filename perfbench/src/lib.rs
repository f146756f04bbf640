//! The repository benchmark: three workloads over the GSINO router, with
//! end-to-end metrics from an untraced run and a per-layer breakdown from
//! a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gsino5k --seed 1 --seconds 10 --trace 0
//! cargo test --release --manifest-path perfbench/Cargo.toml   # smoke test
//! ```
//!
//! The smoke test runs every workload at a tiny size ([`Size::Tiny`]),
//! which only the library exposes; the command line always runs
//! [`Size::Full`].
//!
//! Workloads. Each circuit is generated with its rung's fixed generator
//! seed, its pins are moved by up to an eighth of a tile from `--seed`,
//! and it is written in the text workload format and parsed back, so the
//! router sees only parsed inputs:
//!
//! * `gsino5k` — the `scale5k` ladder rung through `run_gsino` with the
//!   default configuration at `threads = 2`. Refinement pass 2 dominates.
//! * `route20k` — a 20,000-net rung with refinement pass 2 off, at
//!   `threads = 2`. Phase I routing dominates, then Phase II SINO.
//! * `eco_wire` — a `RoutingService` behind a `NetServer` on TCP loopback;
//!   two `NetClient` connections each own one 245-net session and run a
//!   closed loop of designer requests (budget edits, re-pins, reads).
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; with `--trace 0` the metrics are
//! [`END_TO_END`], with `--trace 1` they are [`PER_LAYER`]. The line
//! before it is a `detail` object: circuit digests, sample counts, the
//! final shield count and the outcome of every correctness check. Any
//! failed check makes `correct` false and the exit code 1.
//!
//! Every workload emits every metric of its catalogue. A per-layer metric
//! of a layer the workload never calls reads 0: the batch workloads open
//! no session, and on `eco_wire` the pipeline layers describe the traced
//! from-scratch flows its sessions are checked against at close.
//! `perfbench/layer_map.json` names the end-to-end metric and workload
//! each per-layer metric should move.

pub mod batch;
pub mod eco;
pub mod flow;
pub mod stats;

use std::collections::BTreeMap;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["gsino5k", "route20k", "eco_wire"];

/// Every end-to-end metric with its unit, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
    ("routing_area_um2", "um2"),
    ("wirelength_um", "um"),
    ("requests_per_s", "1/s"),
];

/// Every per-layer metric with its unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuits.generate_ms", "ms"),
    ("circuits.parse_ms", "ms"),
    ("grid.s", "s"),
    ("lsk.table_ms", "ms"),
    ("nss.fit_ms", "ms"),
    ("router.route_s", "s"),
    ("router.deletions", "count"),
    ("router.reinserts", "count"),
    ("router.connectivity_repairs", "count"),
    ("router.connectivity_recomputes", "count"),
    ("budget.s", "s"),
    ("budget.entries", "count"),
    ("sino.solve_s", "s"),
    ("sino.regions", "count"),
    ("sino.shields", "count"),
    ("refine.s", "s"),
    ("refine.pass1_nets", "count"),
    ("refine.pass2_regions", "count"),
    ("refine.pass2_shields_removed", "count"),
    ("refine.pass2_yield", "shields/region"),
    ("check.s", "s"),
    ("check.total_shields", "count"),
    ("trace.untraced_s", "s"),
    ("trace.layers_s", "s"),
    ("trace.overhead_s", "s"),
    ("session.budget_commits", "count"),
    ("session.budget_commit_ms_p50", "ms"),
    ("session.budget_commit_ms_p95", "ms"),
    ("session.phase1_commits", "count"),
    ("session.phase1_commit_ms_p50", "ms"),
    ("session.phase1_commit_ms_p95", "ms"),
    ("session.regions_resolved", "count"),
    ("session.regions_reused", "count"),
    ("session.reuse_ratio", "ratio"),
    ("session.warm_skips", "count"),
    ("session.oracle_checks", "count"),
    ("service.edit_ms_p50", "ms"),
    ("service.query_ms_p50", "ms"),
    ("service.queue_ms_p50", "ms"),
    ("pool.busy_ratio", "ratio"),
    ("pool.parks", "count"),
    ("pool.steals", "count"),
    ("wire.edit_overhead_ms_p50", "ms"),
    ("wire.query_overhead_ms_p50", "ms"),
    ("client.edit_samples", "count"),
    ("client.edit_ms_p50", "ms"),
    ("client.edit_ms_p95", "ms"),
    ("client.query_samples", "count"),
    ("client.query_ms_p50", "ms"),
    ("client.query_ms_p95", "ms"),
    ("share.budget_edit.wire", "ratio"),
    ("share.budget_edit.service", "ratio"),
    ("share.budget_edit.session", "ratio"),
    ("share.repin_edit.wire", "ratio"),
    ("share.repin_edit.service", "ratio"),
    ("share.repin_edit.session", "ratio"),
    ("share.query.wire", "ratio"),
    ("share.query.service", "ratio"),
    ("share.query.session", "ratio"),
];

/// Problem size: `Full` is the benchmark, `Tiny` the smoke test's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
    /// into a full-size run.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut kv = BTreeMap::new();
        let mut it = args.into_iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?
                .to_string();
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            kv.insert(name, value);
        }
        let take = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
        let workload = take("workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
            ));
        }
        let seed = take("seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?;
        let seconds: f64 = take("seconds")?
            .parse()
            .map_err(|e| format!("bad --seconds: {e}"))?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        let trace = match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?}; expected 0 or 1")),
        };
        if let Some(k) = kv
            .keys()
            .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
        {
            return Err(format!("unknown option --{k}"));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            size: Size::Full,
        })
    }
}

/// One run's result: counts, metrics, correctness checks and details.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every correctness check by name, with its outcome.
    pub checks: Vec<(String, bool)>,
    /// Extra facts for the `detail` line, as JSON values.
    pub detail: BTreeMap<String, String>,
}

impl Report {
    /// Records a correctness check; a check made more than once passes
    /// only if every instance passed.
    pub fn check(&mut self, name: &str, ok: bool) {
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some((_, passed)) => *passed &= ok,
            None => self.checks.push((name.to_string(), ok)),
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a detail as a JSON number.
    pub fn note(&mut self, key: &str, value: f64) {
        self.detail.insert(key.to_string(), json_num(value));
    }

    /// Records a detail as a JSON string.
    pub fn note_str(&mut self, key: &str, value: &str) {
        self.detail.insert(key.to_string(), json_str(value));
    }

    /// The metric catalogue this run reports.
    pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Whether every check passed and every catalogue metric is a finite
    /// number.
    pub fn correct(&self, trace: bool) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
            && Self::catalogue(trace)
                .iter()
                .all(|(name, _)| self.metrics.get(name).is_some_and(|v| v.is_finite()))
    }

    /// The `detail` line: digests, sample counts and checks.
    pub fn detail_line(&self) -> String {
        let mut fields: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(name, ok)| format!("{}: {ok}", json_str(name)))
            .collect();
        fields.push(format!("\"checks\": {{{}}}", checks.join(", ")));
        format!("{{\"detail\": {{{}}}}}", fields.join(", "))
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of the catalogue with its unit.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::catalogue(trace)
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(trace),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all the digits of `v`; non-finite values (which
/// [`Report::correct`] rejects) print as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs one workload.
///
/// # Errors
///
/// A message for a failure that leaves no result to report (a flow error
/// or a failed set-up); failed correctness checks are reported in the
/// [`Report`] instead.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = match args.workload.as_str() {
        "eco_wire" => eco::run(args),
        name => batch::run(name, args),
    }?;
    if args.trace {
        // A per-layer metric the workload did not set belongs to a layer
        // it never calls.
        for (name, _) in PER_LAYER {
            report.metrics.entry(name).or_insert(0.0);
        }
    }
    Ok(report)
}

/// Peak resident memory of this process in MB, or an error where the
/// platform does not report it.
pub fn peak_rss_mb() -> Result<f64, String> {
    gsino_bench::report::peak_rss_mb().ok_or_else(|| "peak RSS unavailable".to_string())
}
