//! The `eco_wire` workload: two designers, each on their own TCP
//! connection and session, edit and read a routed circuit in a closed loop
//! through `NetClient` → `NetServer` → `RoutingService` → `EcoSession`.
//!
//! The traced run replays each client's recorded request stream twice
//! more — through an in-process `SessionHandle` and on a bare
//! `EcoSession` — and assigns each layer the difference: wire = TCP −
//! handle, service = handle − bare session, session = bare session.

use crate::batch::{jitter, Inputs};
use crate::flow::{mismatches, report_layers, traced_gsino, Layers};
use crate::stats::{median, quantile};
use crate::{peak_rss_mb, Args, Report, Size};
use gsino_circuits::generator::{generate, LADDER_TILE};
use gsino_circuits::io::Workload;
use gsino_circuits::spec::CircuitSpec;
use gsino_core::pipeline::{run_flow_with_artifacts, Approach, GsinoConfig};
use gsino_core::service::{
    NetClient, NetServer, PoolStats, RoutingService, ServiceConfig, SessionHandle,
};
use gsino_core::session::{EcoEdit, EcoSession};
use gsino_core::CoreError;
use gsino_grid::geom::{Point, Rect};
use gsino_grid::net::{Circuit, CircuitEdit, Net};
use gsino_grid::tech::Technology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// One session, and one client connection, per designer.
const SESSIONS: usize = 2;

/// Workers in the service's shared pool.
const POOL_THREADS: usize = 2;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Share of `--seconds` spent on from-scratch flows at close.
const FLOW_WINDOW_SHARE: f64 = 0.8;

/// Samples per request class that a p95 with ten samples beyond it needs.
const TAIL_SAMPLES: usize = 200;

/// How many times `--seconds` a traced run may stretch its TCP loop to
/// reach `TAIL_SAMPLES`.
const TRACE_STRETCH: u32 = 4;

/// Request classes, each with its own latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// `TightenVth` / `RelaxVth`: replays budgets only.
    BudgetEdit,
    /// `RePin`: replays Phase I.
    RePinEdit,
    /// `Query` / `Stats`.
    Read,
}

#[derive(Debug, Clone)]
enum Request {
    Edit(Class, EcoEdit),
    Query,
    Stats,
}

impl Request {
    fn class(&self) -> Class {
        match self {
            Request::Edit(class, _) => *class,
            Request::Query | Request::Stats => Class::Read,
        }
    }
}

/// One designer's request generator: about six in ten requests are
/// budget edits, one in ten a re-pin, the rest reads.
struct Designer {
    rng: StdRng,
    nets: Vec<Net>,
    die: Rect,
    vth: f64,
    /// Sinks with a constraint override, which a relax may remove.
    tightened: Vec<(u32, u32)>,
}

impl Designer {
    fn new(circuit: &Circuit, vth: f64, seed: u64) -> Self {
        Designer {
            rng: StdRng::seed_from_u64(seed),
            nets: circuit.nets().to_vec(),
            die: *circuit.die(),
            vth,
            tightened: Vec::new(),
        }
    }

    fn next(&mut self) -> Request {
        let roll: f64 = self.rng.gen();
        if roll < 0.6 {
            Request::Edit(Class::BudgetEdit, self.budget_edit())
        } else if roll < 0.7 {
            Request::Edit(Class::RePinEdit, self.re_pin())
        } else if roll < 0.85 {
            Request::Query
        } else {
            Request::Stats
        }
    }

    fn budget_edit(&mut self) -> EcoEdit {
        if !self.tightened.is_empty() && self.rng.gen_bool(0.5) {
            let i = self.rng.gen_range(0..self.tightened.len());
            let (net, sink) = self.tightened.swap_remove(i);
            return EcoEdit::RelaxVth { net, sink };
        }
        let net = &self.nets[self.rng.gen_range(0..self.nets.len())];
        let sink = self.rng.gen_range(0..net.sinks().len().max(1)) as u32;
        let key = (net.id(), sink);
        if !self.tightened.contains(&key) {
            self.tightened.push(key);
        }
        let vth = self.vth * self.rng.gen_range(0.85..0.97);
        EcoEdit::TightenVth {
            net: key.0,
            sink,
            vth,
        }
    }

    /// Moves one net rigidly by up to 48 µm per axis, staying on the die.
    fn re_pin(&mut self) -> EcoEdit {
        let i = self.rng.gen_range(0..self.nets.len());
        let pins = self.nets[i].pins();
        let fold = |f: fn(f64, f64) -> f64, pick: fn(&Point) -> f64, init: f64| {
            pins.iter().map(pick).fold(init, f)
        };
        let (lo, hi) = (self.die.lo(), self.die.hi());
        let x_lo = fold(f64::min, |p| p.x, f64::INFINITY);
        let x_hi = fold(f64::max, |p| p.x, f64::NEG_INFINITY);
        let y_lo = fold(f64::min, |p| p.y, f64::INFINITY);
        let y_hi = fold(f64::max, |p| p.y, f64::NEG_INFINITY);
        let dx = self
            .rng
            .gen_range(-48.0..48.0f64)
            .clamp(lo.x - x_lo, hi.x - x_hi);
        let dy = self
            .rng
            .gen_range(-48.0..48.0f64)
            .clamp(lo.y - y_lo, hi.y - y_hi);
        let moved: Vec<Point> = pins
            .iter()
            .map(|p| Point::new(p.x + dx, p.y + dy))
            .collect();
        let id = self.nets[i].id();
        self.nets[i] = Net::new(id, moved.clone());
        EcoEdit::Circuit(CircuitEdit::RePin {
            net: id,
            pins: moved,
        })
    }
}

/// One request's outcome as a client saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    class: Class,
    ms: f64,
    /// Time the request waited in the session's run queue (edits over the
    /// service only).
    queue_ms: Option<f64>,
    ok: bool,
}

/// A layer of the stack a recorded request stream can be sent through.
trait Target {
    fn send(&mut self, req: &Request) -> Result<Option<f64>, CoreError>;
}

struct Wire<'a> {
    client: &'a mut NetClient,
    session: &'a str,
}

impl Target for Wire<'_> {
    fn send(&mut self, req: &Request) -> Result<Option<f64>, CoreError> {
        match req {
            Request::Edit(_, e) => {
                let receipt = self.client.edit(self.session, vec![e.clone()])?;
                Ok(Some(receipt.queue_ms))
            }
            Request::Query => self.client.query(self.session).map(|_| None),
            Request::Stats => self.client.stats(self.session).map(|_| None),
        }
    }
}

impl Target for SessionHandle {
    fn send(&mut self, req: &Request) -> Result<Option<f64>, CoreError> {
        match req {
            Request::Edit(_, e) => Ok(Some(self.edit(vec![e.clone()])?.queue_ms)),
            Request::Query => self.query().map(|_| None),
            Request::Stats => self.stats().map(|_| None),
        }
    }
}

impl Target for EcoSession {
    fn send(&mut self, req: &Request) -> Result<Option<f64>, CoreError> {
        match req {
            Request::Edit(_, e) => {
                self.begin()?;
                if let Err(err) = self.apply(e.clone()) {
                    self.rollback()?;
                    return Err(err);
                }
                self.commit()?;
            }
            Request::Query => {
                std::hint::black_box(self.violations());
            }
            Request::Stats => {
                std::hint::black_box(self.stats());
            }
        }
        Ok(None)
    }
}

fn send_timed(target: &mut impl Target, req: &Request) -> Sample {
    let t = Instant::now();
    let out = target.send(req);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = &out {
        eprintln!("request failed: {e}");
    }
    Sample {
        class: req.class(),
        ms,
        queue_ms: out.as_ref().ok().copied().flatten(),
        ok: out.is_ok(),
    }
}

/// The service behind its TCP server, with one client connection and open
/// session per designer.
struct Stack {
    service: Arc<RoutingService>,
    server: NetServer,
    addr: SocketAddr,
    clients: Vec<NetClient>,
}

fn session_name(i: usize) -> String {
    format!("designer{i}")
}

fn service() -> Arc<RoutingService> {
    Arc::new(RoutingService::new(ServiceConfig {
        pool_threads: POOL_THREADS,
        ..ServiceConfig::default()
    }))
}

impl Stack {
    /// Starts the service and its server on a loopback port.
    fn start() -> Result<Stack, String> {
        let service = service();
        let server =
            NetServer::bind_tcp("127.0.0.1:0", Arc::clone(&service)).map_err(|e| e.to_string())?;
        let addr = server.local_addr().ok_or("server has no TCP address")?;
        Ok(Stack {
            service,
            server,
            addr,
            clients: Vec::new(),
        })
    }

    /// Retires any earlier designers, then connects one client per
    /// circuit and opens its session. Returns the seconds until every
    /// session has answered its first read.
    fn open(&mut self, circuits: &[Circuit], config: &GsinoConfig) -> Result<f64, String> {
        self.retire()?;
        let addr = self.addr;
        let t = Instant::now();
        self.clients = thread::scope(|s| {
            let joins: Vec<_> = circuits
                .iter()
                .enumerate()
                .map(|(i, circuit)| {
                    s.spawn(move || -> Result<NetClient, CoreError> {
                        let name = session_name(i);
                        let mut client = NetClient::connect_tcp(addr)?;
                        client.open(&name, circuit.clone(), config.clone())?;
                        client.query(&name)?;
                        Ok(client)
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("client thread panicked"))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
        Ok(t.elapsed().as_secs_f64())
    }

    /// Disconnects the clients and closes their sessions, handing the
    /// sessions back.
    fn retire(&mut self) -> Result<Vec<EcoSession>, String> {
        let open = self.clients.len();
        self.clients.clear();
        (0..open)
            .map(|i| {
                self.service
                    .close(&session_name(i))
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Retires the designers and stops the server.
    fn shutdown(mut self) -> Result<Vec<EcoSession>, String> {
        let sessions = self.retire()?;
        self.server.shutdown();
        Ok(sessions)
    }
}

/// Pool counters accrued between two snapshots.
fn pool_delta(before: &PoolStats, after: &PoolStats) -> PoolStats {
    let mut d = after.clone();
    d.steals -= before.steals;
    d.parks -= before.parks;
    d.uptime_ms -= before.uptime_ms;
    for (w, b) in d.workers.iter_mut().zip(&before.workers) {
        w.tasks -= b.tasks;
        w.busy_ms -= b.busy_ms;
    }
    d
}

/// Sends each stream through its own target, each on its own thread;
/// returns the samples per stream.
fn replay<T: Target + Send>(targets: &mut [T], streams: &[Vec<Request>]) -> Vec<Vec<Sample>> {
    thread::scope(|s| {
        let joins: Vec<_> = targets
            .iter_mut()
            .zip(streams)
            .map(|(target, stream)| {
                s.spawn(move || {
                    stream
                        .iter()
                        .map(|req| send_timed(target, req))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("replay thread panicked"))
            .collect()
    })
}

/// The two designers' circuits: ibm01 at 20% scale (2% for the smoke
/// test) from generator seeds 2002 and 2003, on dies rounded up to whole
/// 64 µm tiles, with pins moved by `--seed` as in [`jitter`].
fn workloads(size: Size, seed: u64) -> Result<Vec<Workload>, String> {
    let scale = match size {
        Size::Full => 0.2,
        Size::Tiny => 0.02,
    };
    let spec = CircuitSpec::ibm01().scaled(scale);
    let tracks = Technology::itrs_100nm().tracks_for(LADDER_TILE);
    (0..SESSIONS as u64)
        .map(|i| {
            let circuit = generate(&spec, 2002 + i).map_err(|e| e.to_string())?;
            let (_, die, nets) = circuit.into_parts();
            let nx = (die.hi().x / LADDER_TILE).ceil() as u32;
            let ny = (die.hi().y / LADDER_TILE).ceil() as u32;
            let wl = Workload::new(
                format!("{}_{i}", spec.name),
                nx,
                ny,
                tracks,
                tracks,
                LADDER_TILE,
                LADDER_TILE,
                nets,
            )
            .map_err(|e| e.to_string())?;
            jitter(&wl, seed.wrapping_mul(SESSIONS as u64).wrapping_add(i))
        })
        .collect()
}

/// Sessions hold the same circuit, routes, budgets and region solutions.
fn same_state(a: &EcoSession, b: &EcoSession) -> bool {
    a.circuit() == b.circuit()
        && a.routes() == b.routes()
        && a.budgets() == b.budgets()
        && a.sino() == b.sino()
}

fn is_edit(c: Class) -> bool {
    c != Class::Read
}

fn is_read(c: Class) -> bool {
    c == Class::Read
}

/// Latencies of the successful requests whose class `keep` selects.
fn latencies(samples: &[Sample], keep: impl Fn(Class) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok && keep(s.class))
        .map(|s| s.ms)
        .collect()
}

/// Per-request differences `a − b` between two replays of one stream,
/// for the requests `keep` selects.
fn paired_diff(a: &[Vec<Sample>], b: &[Vec<Sample>], keep: impl Fn(Class) -> bool) -> Vec<f64> {
    a.iter()
        .flatten()
        .zip(b.iter().flatten())
        .filter(|(x, y)| x.ok && y.ok && keep(x.class))
        .map(|(x, y)| x.ms - y.ms)
        .collect()
}

/// Runs `eco_wire`.
///
/// # Errors
///
/// Set-up failures: generation, binding the server, opening sessions.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let inputs = Inputs::build(&mut r, SETUP_REPS, || workloads(args.size, args.seed))?;
    let config = GsinoConfig::builder()
        .threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    let circuits = &inputs.circuits;

    // Set-up: every repetition opens fresh sessions on new connections;
    // the last ones are kept.
    let mut stack = Stack::start()?;
    let mut setup_s = Vec::new();
    for gen_s in &inputs.setup_s {
        setup_s.push(gen_s + stack.open(circuits, &config)?);
    }
    r.set("setup_s", median(&setup_s));

    // The measured closed loop over TCP. A traced run keeps going past
    // `--seconds`, up to `TRACE_STRETCH` times as long, until edits and
    // reads each have the samples a p95 with ten beyond it needs.
    let seconds = Duration::from_secs_f64(args.seconds);
    let stretch = if args.trace {
        seconds * TRACE_STRETCH
    } else {
        seconds
    };
    let edit_count = AtomicUsize::new(0);
    let read_count = AtomicUsize::new(0);
    let keep_going = |elapsed: Duration| {
        elapsed < seconds
            || (elapsed < stretch
                && (edit_count.load(Ordering::Relaxed) < TAIL_SAMPLES
                    || read_count.load(Ordering::Relaxed) < TAIL_SAMPLES))
    };
    let pool_before = stack.service.pool_stats();
    let t_loop = Instant::now();
    let (streams, tcp): (Vec<Vec<Request>>, Vec<Vec<Sample>>) = thread::scope(|s| {
        let joins: Vec<_> = stack
            .clients
            .iter_mut()
            .zip(circuits)
            .enumerate()
            .map(|(i, (client, circuit))| {
                let mut designer = Designer::new(
                    circuit,
                    config.vth,
                    args.seed ^ (0xEC0 + i as u64).rotate_left(32),
                );
                let (keep_going, edit_count, read_count) = (&keep_going, &edit_count, &read_count);
                s.spawn(move || {
                    let session = session_name(i);
                    let mut wire = Wire {
                        client,
                        session: &session,
                    };
                    let start = Instant::now();
                    let (mut stream, mut samples) = (Vec::new(), Vec::new());
                    while keep_going(start.elapsed()) {
                        let req = designer.next();
                        let count = match req.class() {
                            Class::Read => read_count,
                            _ => edit_count,
                        };
                        samples.push(send_timed(&mut wire, &req));
                        count.fetch_add(1, Ordering::Relaxed);
                        stream.push(req);
                    }
                    (stream, samples)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread panicked"))
            .unzip()
    });
    let loop_s = t_loop.elapsed().as_secs_f64();
    let pool = pool_delta(&pool_before, &stack.service.pool_stats());
    let tcp_all: Vec<Sample> = tcp.iter().flatten().copied().collect();
    r.attempted += tcp_all.len() as u64;
    r.failed += tcp_all.iter().filter(|s| !s.ok).count() as u64;
    r.check("pinning_violations_zero", pool.pinning_violations == 0);
    let sessions = stack.shutdown()?;

    // Close-time oracle: every session equals a from-scratch flow on its
    // final circuit and configuration. The flows repeat round robin for a
    // share of `--seconds`, and `pipeline_s` is their mean, which averages
    // over the host's slow and fast spells better than a median of short
    // flows.
    let mut flows: Vec<Vec<f64>> = vec![Vec::new(); sessions.len()];
    let mut firsts = Vec::new();
    let window = Duration::from_secs_f64(args.seconds * FLOW_WINDOW_SHARE);
    let t_flows = Instant::now();
    while firsts.len() < sessions.len() || t_flows.elapsed() < window {
        for (session, times) in sessions.iter().zip(&mut flows) {
            let t = Instant::now();
            let flow =
                run_flow_with_artifacts(session.circuit(), session.config(), Approach::Gsino)
                    .map_err(|e| e.to_string())?;
            times.push(t.elapsed().as_secs_f64());
            if firsts.len() < sessions.len() {
                firsts.push(flow);
            }
        }
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let all_flows: Vec<f64> = flows.concat();
    r.set("pipeline_s", mean(&all_flows));
    r.note("pipeline_runs", all_flows.len() as f64);
    let untraced_s: f64 = flows.iter().map(|f| mean(f)).sum();
    let (mut shields, mut area, mut wirelength) = (0.0, 0.0, 0.0);
    let (mut traced_s, mut layers) = (0.0, Layers::default());
    for (session, (o, art)) in sessions.iter().zip(&firsts) {
        r.check("divergences_zero", session.stats().divergences == 0);
        r.check(
            "violating_nets_zero",
            session.violations().violating_nets() == 0,
        );
        let routed = session
            .circuit()
            .nets()
            .iter()
            .all(|n| session.routes().get(n.id()).is_some());
        r.check("every_net_routed", routed);
        r.check(
            "session_identical_to_scratch_flow",
            session.routes() == &o.routes
                && session.budgets() == &art.budgets
                && session.sino() == &art.sino
                && session.violations() == o.violations,
        );
        shields += o.total_shields as f64;
        area += o.area.area();
        wirelength += o.wirelength.total_um;
        if args.trace {
            let t = Instant::now();
            let (traced, step_layers) =
                traced_gsino(session.circuit(), session.config()).map_err(|e| e.to_string())?;
            traced_s += t.elapsed().as_secs_f64();
            layers.add(&step_layers);
            r.check(
                "traced_flow_identical_to_run_gsino",
                mismatches(o, &traced).is_empty()
                    && traced.budgets == art.budgets
                    && traced.sino == art.sino,
            );
        }
    }
    let edit_ms = latencies(&tcp_all, is_edit);
    let read_ms = latencies(&tcp_all, is_read);
    r.note("client_edit_samples", edit_ms.len() as f64);
    r.note("client_query_samples", read_ms.len() as f64);
    r.note("client_edit_ms_p50", median(&edit_ms));
    r.note("client_query_ms_p50", median(&read_ms));
    r.set("requests_per_s", tcp_all.len() as f64 / loop_s);
    r.note("total_shields", shields);
    r.set("routing_area_um2", area);
    r.set("wirelength_um", wirelength);

    if args.trace {
        trace_layers(&mut r, circuits, &config, &streams, &tcp, &sessions, &pool)?;
        report_layers(&mut r, &layers);
        r.set("trace.untraced_s", untraced_s);
        r.set("trace.overhead_s", traced_s - untraced_s);
    }
    r.set("peak_rss_mb", peak_rss_mb()?);
    Ok(r)
}

/// Replays the recorded TCP streams in process and on bare sessions, and
/// reports the session, service, pool, wire and client layers.
fn trace_layers(
    r: &mut Report,
    circuits: &[Circuit],
    config: &GsinoConfig,
    streams: &[Vec<Request>],
    tcp: &[Vec<Sample>],
    tcp_sessions: &[EcoSession],
    pool: &PoolStats,
) -> Result<(), String> {
    // In process: the same service, reached through `SessionHandle`s.
    let service = service();
    let mut handles = circuits
        .iter()
        .enumerate()
        .map(|(i, c)| service.open(&session_name(i), c.clone(), config.clone()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for h in &handles {
        h.query().map_err(|e| e.to_string())?;
    }
    let handle = replay(&mut handles, streams);
    drop(handles);
    for (i, tcp_session) in tcp_sessions.iter().enumerate() {
        let s = service.close(&session_name(i)).map_err(|e| e.to_string())?;
        r.check("in_process_replay_identical", same_state(&s, tcp_session));
    }
    drop(service);

    // Bare sessions: the same edits as direct commits.
    let mut bare_sessions = circuits
        .iter()
        .map(|c| EcoSession::new(c, config))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let bare = replay(&mut bare_sessions, streams);
    for (s, tcp_session) in bare_sessions.iter().zip(tcp_sessions) {
        r.check("bare_replay_identical", same_state(s, tcp_session));
        r.check("divergences_zero", s.stats().divergences == 0);
    }
    for samples in [&handle, &bare] {
        let all: Vec<&Sample> = samples.iter().flatten().collect();
        r.attempted += all.len() as u64;
        r.failed += all.iter().filter(|s| !s.ok).count() as u64;
    }

    // Session layer.
    let bare_all: Vec<Sample> = bare.iter().flatten().copied().collect();
    for (class, count, p50, p95) in [
        (
            Class::BudgetEdit,
            "session.budget_commits",
            "session.budget_commit_ms_p50",
            "session.budget_commit_ms_p95",
        ),
        (
            Class::RePinEdit,
            "session.phase1_commits",
            "session.phase1_commit_ms_p50",
            "session.phase1_commit_ms_p95",
        ),
    ] {
        let ms = latencies(&bare_all, |c| c == class);
        r.set(count, ms.len() as f64);
        r.set(p50, median(&ms));
        r.set(p95, quantile(&ms, 0.95));
    }
    let mut stats = gsino_core::session::SessionStats::default();
    for s in &bare_sessions {
        let o = s.stats();
        stats.regions_resolved += o.regions_resolved;
        stats.regions_reused += o.regions_reused;
        stats.warm_skips += o.warm_skips;
        stats.oracle_checks += o.oracle_checks;
    }
    let replayed = stats.regions_resolved + stats.regions_reused;
    r.set("session.regions_resolved", stats.regions_resolved as f64);
    r.set("session.regions_reused", stats.regions_reused as f64);
    r.set(
        "session.reuse_ratio",
        if replayed == 0 {
            0.0
        } else {
            stats.regions_reused as f64 / replayed as f64
        },
    );
    r.set("session.warm_skips", stats.warm_skips as f64);
    r.set("session.oracle_checks", stats.oracle_checks as f64);

    // Service and pool layers.
    let handle_all: Vec<Sample> = handle.iter().flatten().copied().collect();
    let tcp_all: Vec<Sample> = tcp.iter().flatten().copied().collect();
    let queue_ms: Vec<f64> = tcp_all.iter().filter_map(|s| s.queue_ms).collect();
    r.set(
        "service.edit_ms_p50",
        median(&latencies(&handle_all, is_edit)),
    );
    r.set(
        "service.query_ms_p50",
        median(&latencies(&handle_all, is_read)),
    );
    r.set("service.queue_ms_p50", median(&queue_ms));
    let busy_ms: f64 = pool.workers.iter().map(|w| w.busy_ms).sum();
    r.set(
        "pool.busy_ratio",
        busy_ms / (pool.uptime_ms * pool.pool_threads.max(1) as f64),
    );
    r.set("pool.parks", pool.parks as f64);
    r.set("pool.steals", pool.steals as f64);

    // Wire and client layers.
    r.set(
        "wire.edit_overhead_ms_p50",
        median(&paired_diff(tcp, &handle, is_edit)),
    );
    r.set(
        "wire.query_overhead_ms_p50",
        median(&paired_diff(tcp, &handle, is_read)),
    );
    let edit_ms = latencies(&tcp_all, is_edit);
    let read_ms = latencies(&tcp_all, is_read);
    r.set("client.edit_samples", edit_ms.len() as f64);
    r.set("client.edit_ms_p50", median(&edit_ms));
    r.set("client.edit_ms_p95", quantile(&edit_ms, 0.95));
    r.set("client.query_samples", read_ms.len() as f64);
    r.set("client.query_ms_p50", median(&read_ms));
    r.set("client.query_ms_p95", quantile(&read_ms, 0.95));

    // Each layer's share of the client-observed median, per class.
    for (class, names) in [
        (
            Class::BudgetEdit,
            [
                "share.budget_edit.wire",
                "share.budget_edit.service",
                "share.budget_edit.session",
            ],
        ),
        (
            Class::RePinEdit,
            [
                "share.repin_edit.wire",
                "share.repin_edit.service",
                "share.repin_edit.session",
            ],
        ),
        (
            Class::Read,
            [
                "share.query.wire",
                "share.query.service",
                "share.query.session",
            ],
        ),
    ] {
        let only = |c: Class| c == class;
        let whole = median(&latencies(&tcp_all, only));
        let share = |part: f64| if whole > 0.0 { part / whole } else { 0.0 };
        r.set(names[0], share(median(&paired_diff(tcp, &handle, only))));
        r.set(names[1], share(median(&paired_diff(&handle, &bare, only))));
        r.set(names[2], share(median(&latencies(&bare_all, only))));
    }
    Ok(())
}
