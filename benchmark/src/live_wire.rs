//! `live_wire`: wire to wire through the socket.
//!
//! `mlp_serve::Server::start` on loopback (128 machines, v-MLP, four
//! connection workers), driven by at most two closed-loop connections:
//! phase A issues `RUN <type>` from the balanced mix and times each
//! request at the client; phase B pings over the same keep-alive
//! connections; phase C connects, asks `GET /healthz` with
//! `Connection: close`, and closes, over and over. B and C time the front
//! door with the kernel out of the picture (keep-alive path, accept path).
//!
//! The timed pass is phase A for the whole run. The traced pass runs a
//! shorter A, then B and C, then A once more against a server with the
//! audit trail and the ledger counters on.

use crate::host::{self, now_ns, SetupClock};
use crate::layers::{self, SpanDump};
use crate::live_open::pick_type;
use crate::reference::Reference;
use crate::report::RunReport;
use crate::stats::{self, median, percentile, tail_percentile};
use crate::Options;
use mlp_cluster::ledger::query_stats;
use mlp_engine::sim::SimOutput;
use mlp_engine::ExperimentConfig;
use mlp_model::RequestCatalog;
use mlp_serve::client::Client;
use mlp_serve::protocol::{self, Mode, Request, Response};
use mlp_serve::{ServeConfig, Server, StatsSnapshot};
use mlp_sim::SimRng;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Closed-loop connections (and the threads driving them): two, or fewer
/// on a host with fewer cores.
fn connections() -> usize {
    host::nproc().min(2)
}

/// Fresh servers phase A is split over in a timed run.
const SEGMENTS: usize = 5;
/// Reference-kernel samples a traced run takes once its load is over.
const REFERENCE_SAMPLES: usize = 5;
/// Fresh servers per side (untraced, traced) in a traced run.
const TRACED_SEGMENTS: usize = 3;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What one phase-A connection saw.
#[derive(Default)]
struct RunSamples {
    sent: u64,
    completed: u64,
    shed: u64,
    busy: u64,
    timeouts: u64,
    errors: u64,
    slo_ok: u64,
    wire_ms: Vec<f64>,
    kernel_ms: Vec<f64>,
    overhead_us: Vec<f64>,
    /// `(start_ns, end_ns, kernel request id)` per completed request.
    spans: Vec<(u64, u64, u64)>,
}

impl RunSamples {
    fn merge(mut self, other: RunSamples) -> RunSamples {
        self.sent += other.sent;
        self.completed += other.completed;
        self.shed += other.shed;
        self.busy += other.busy;
        self.timeouts += other.timeouts;
        self.errors += other.errors;
        self.slo_ok += other.slo_ok;
        self.wire_ms.extend(other.wire_ms);
        self.kernel_ms.extend(other.kernel_ms);
        self.overhead_us.extend(other.overhead_us);
        self.spans.extend(other.spans);
        self
    }

    fn failed(&self) -> u64 {
        self.sent - self.completed
    }
}

fn connect(addr: &str) -> Client {
    Client::connect(addr, IO_TIMEOUT)
        .unwrap_or_else(|e| crate::die(&format!("connect {addr}: {e}")))
}

/// One connection's closed loop of `RUN <type>` until the deadline.
fn run_loop(
    client: &mut Client,
    catalog: &RequestCatalog,
    mut rng: SimRng,
    deadline: Instant,
) -> RunSamples {
    let mix = catalog.balanced_mix();
    let mut s = RunSamples::default();
    while Instant::now() < deadline {
        let rtype = catalog.request(pick_type(&mix, &mut rng));
        let start_ns = now_ns();
        let t = Instant::now();
        let reply = client.run(&rtype.name);
        let wire_us = t.elapsed().as_secs_f64() * 1e6;
        s.sent += 1;
        match reply {
            Ok(Response::Ok { latency_us, request }) => {
                s.completed += 1;
                s.wire_ms.push(wire_us / 1e3);
                s.kernel_ms.push(latency_us as f64 / 1e3);
                s.overhead_us.push(wire_us - latency_us as f64);
                s.slo_ok += u64::from(wire_us / 1e3 <= rtype.slo_ms);
                s.spans.push((start_ns, now_ns(), request));
            }
            Ok(Response::Shed { .. }) => s.shed += 1,
            Ok(Response::Busy) => s.busy += 1,
            Ok(Response::Timeout) => s.timeouts += 1,
            Ok(_) | Err(_) => s.errors += 1,
        }
    }
    s
}

/// Phase A: every connection in a closed loop for `seconds`. Returns the
/// merged samples, the process CPU the phase used, and the thread count
/// seen while it ran.
fn phase_a(clients: &mut [Client], seed: u64, seconds: f64) -> (RunSamples, u64, usize) {
    let catalog = RequestCatalog::paper();
    let cpu0 = host::process_cpu_us();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (samples, threads) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let rng = SimRng::new(seed).fork(20 + i as u64);
                let catalog = &catalog;
                scope.spawn(move || run_loop(client, catalog, rng, deadline))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(seconds / 2.0));
        let threads = host::thread_count();
        let merged = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread does not panic"))
            .fold(RunSamples::default(), RunSamples::merge);
        (merged, threads)
    });
    (samples, host::process_cpu_us() - cpu0, threads)
}

/// One thread per element of `drivers`, each calling `op` in a closed loop
/// for `seconds`. Returns the round-trip times of the calls that succeeded
/// (µs, sorted), how many failed, and successes per second over all threads.
fn closed_loops<D: Send>(
    drivers: impl Iterator<Item = D>,
    seconds: f64,
    op: impl Fn(&mut D) -> bool + Sync,
) -> (Vec<f64>, u64, f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let op = &op;
    let per_thread: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = drivers
            .map(|mut driver| {
                scope.spawn(move || {
                    let (mut rtts, mut failed) = (Vec::new(), 0u64);
                    while Instant::now() < deadline {
                        let t = Instant::now();
                        if op(&mut driver) {
                            rtts.push(t.elapsed().as_secs_f64() * 1e6);
                        } else {
                            failed += 1;
                        }
                    }
                    (rtts, failed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a client thread does not panic")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let failed = per_thread.iter().map(|(_, f)| f).sum();
    let mut rtts: Vec<f64> = per_thread.into_iter().flat_map(|(r, _)| r).collect();
    stats::sort(&mut rtts);
    let per_s = rtts.len() as f64 / elapsed;
    (rtts, failed, per_s)
}

/// Phase B: closed-loop `PING` on every connection.
fn phase_b(clients: &mut [Client], seconds: f64) -> (Vec<f64>, u64, f64) {
    closed_loops(clients.iter_mut(), seconds, |client| matches!(client.ping(), Ok(Response::Pong)))
}

fn healthz_once(addr: &str) -> std::io::Result<bool> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    Ok(reply.starts_with(b"HTTP/1.1 200"))
}

/// Phase C: connect → `GET /healthz` → close, per thread, for `seconds`.
fn phase_c(addr: &str, seconds: f64) -> (Vec<f64>, u64, f64) {
    closed_loops(0..connections(), seconds, |_| matches!(healthz_once(addr), Ok(true)))
}

/// ns per direct call into `protocol::parse_line` and
/// `protocol::write_response`, the two halves of a line-mode exchange.
fn protocol_costs() -> (f64, f64) {
    const CALLS: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..CALLS {
        let req = protocol::parse_line(black_box("RUN compose-post\n"));
        assert!(matches!(black_box(req), Request::Run(_)));
    }
    let parse_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS);

    let reply = Response::Ok { latency_us: 141_234, request: 4_242 };
    let mut wire = Vec::with_capacity(64);
    let t = Instant::now();
    for _ in 0..CALLS {
        wire.clear();
        let keep = protocol::write_response(&mut wire, Mode::Line, black_box(&reply), false);
        assert!(matches!(black_box(keep), Ok(true)));
    }
    let write_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS);
    (parse_ns, write_ns)
}

fn start_server(base: &ExperimentConfig, seed: u64, traced: bool) -> Server {
    let mut experiment = base.clone();
    experiment.seed = seed;
    experiment.audit = traced;
    Server::start(ServeConfig::smoke(experiment))
        .unwrap_or_else(|e| crate::die(&format!("bind loopback: {e}")))
}

fn connect_all(server: &Server) -> Vec<Client> {
    let addr = server.local_addr().to_string();
    (0..connections()).map(|_| connect(&addr)).collect()
}

/// One round of set-ups: time to a server that answers (config load,
/// `Server::start`, connect, first `PING` on every connection). Returns
/// the config.
fn time_setups(
    setups: &mut SetupClock,
    workload: &str,
    seed: u64,
    opts: &Options,
) -> ExperimentConfig {
    let mut base = None;
    setups.time_round(
        if opts.smoke { 1 } else { host::SETUP_REPS_SERVER },
        || {
            let cfg = crate::sim::load_config(workload, 1.0).unwrap_or_else(|e| crate::die(&e));
            let server = start_server(&cfg, seed, false);
            let mut clients = connect_all(&server);
            let ready = clients.iter_mut().all(|c| matches!(c.ping(), Ok(Response::Pong)));
            if !ready {
                crate::die("a fresh server did not answer PING");
            }
            (cfg, server, clients)
        },
        |(cfg, server, clients)| {
            drop(clients);
            server.stop();
            base = Some(cfg);
        },
    );
    base.expect("at least one set-up ran")
}

fn check_server(
    report: &mut RunReport,
    tag: &str,
    a: &RunSamples,
    stats: StatsSnapshot,
    out: &SimOutput,
) {
    layers::kernel_checks(report, tag, out);
    let kinds = a.completed + a.shed + a.busy + a.timeouts + a.errors;
    report.check(&format!("{tag}.sent_equals_outcomes"), a.sent == kinds, || {
        format!("sent {} != sum of outcome kinds {kinds}", a.sent)
    });
    report.check(
        &format!("{tag}.server_counts_match_client"),
        stats.requests == a.sent && stats.completed == a.completed,
        || {
            format!(
                "server saw {} requests / {} completed, client sent {} / got {} OK",
                stats.requests, stats.completed, a.sent, a.completed
            )
        },
    );
    report.check(
        &format!("{tag}.kernel_saw_every_send"),
        out.arrived as u64 == a.sent - a.busy - a.errors,
        || {
            format!(
                "kernel arrived {} != accepted sends {}",
                out.arrived,
                a.sent - a.busy - a.errors
            )
        },
    );
}

/// Phase A, split over fresh servers.
///
/// How fast one server's threads wake each other depends on which cores
/// the OS happens to put them on, and stays that way while its connections
/// live: one server adds ~330 µs to a request, the next ~600 µs. A run that
/// met only one server would report whichever mode it drew, so phase A
/// meets several and reports the median server.
struct PhaseA {
    /// Samples of every segment, sorted.
    pooled: RunSamples,
    /// Median added latency (client-observed minus echoed) per segment, µs.
    overhead_p50_us: Vec<f64>,
    cpu_us: u64,
    /// CPU of the servers' `mlp-kernel` threads while phase A ran, µs.
    kernel_cpu_us: u64,
    threads: usize,
    /// The last segment's server counters and kernel output.
    last: Option<(StatsSnapshot, SimOutput)>,
}

/// How one phase A is laid out.
#[derive(Clone, Copy)]
struct Plan<'a> {
    base: &'a ExperimentConfig,
    seed: u64,
    traced: bool,
    segments: usize,
    /// Length of the whole phase, all segments together.
    seconds: f64,
}

impl PhaseA {
    /// `between` runs against the last segment's server once its phase A
    /// is over and its connections are idle (phases B and C live there);
    /// `after_segment` runs once each segment's server has stopped.
    fn run(
        report: &mut RunReport,
        tag: &str,
        plan: Plan<'_>,
        mut between: impl FnMut(&Server, Vec<Client>),
        mut after_segment: impl FnMut(),
    ) -> PhaseA {
        let Plan { base, seed, traced, segments, seconds } = plan;
        let mut phase = PhaseA {
            pooled: RunSamples::default(),
            overhead_p50_us: Vec::new(),
            cpu_us: 0,
            kernel_cpu_us: 0,
            threads: 0,
            last: None,
        };
        for seg in 0..segments {
            let server = start_server(base, crate::sim::sub_seed(seed, seg), traced);
            let mut clients = connect_all(&server);
            let kernel_cpu0 = host::named_thread_cpu_us("mlp-kernel");
            let (a, cpu_us, threads) =
                phase_a(&mut clients, crate::sim::sub_seed(seed, seg), seconds / segments as f64);
            phase.kernel_cpu_us += host::named_thread_cpu_us("mlp-kernel") - kernel_cpu0;
            let a = sorted(a);
            if seg + 1 == segments {
                between(&server, clients);
            } else {
                drop(clients);
            }
            let stats = server.stats();
            let out = server.stop();
            check_server(report, &format!("{tag}{seg}"), &a, stats, &out);
            phase.overhead_p50_us.push(percentile(&a.overhead_us, 50.0));
            phase.cpu_us += cpu_us;
            phase.threads = threads;
            phase.pooled = phase.pooled.merge(a);
            phase.last = Some((stats, out));
            after_segment();
        }
        phase.pooled = sorted(phase.pooled);
        phase
    }

    fn cpu_us_per_req(&self) -> f64 {
        self.cpu_us as f64 / self.pooled.sent.max(1) as f64
    }
}

fn sorted(mut a: RunSamples) -> RunSamples {
    stats::sort(&mut a.wire_ms);
    stats::sort(&mut a.kernel_ms);
    stats::sort(&mut a.overhead_us);
    a
}

/// Phase A under the names the design issue uses.
fn phase_a_extras(report: &mut RunReport, phase: &PhaseA) {
    let a = &phase.pooled;
    report.set_extra("samples", a.wire_ms.len() as f64);
    report.set_extra("wire_p50_ms", percentile(&a.wire_ms, 50.0));
    report.set_extra("wire_p90_ms", percentile(&a.wire_ms, 90.0));
    report.set_extra("overhead_p50_us", median(&phase.overhead_p50_us));
    report.set_extra("cpu_us_per_req", phase.cpu_us_per_req());
    report.set_extra("fail_share", a.failed() as f64 / a.sent as f64);
    report.set_extra("peak_rss_mb", host::peak_rss_mb());
}

/// Runs `live_wire` for about `seconds` and reports it.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool, opts: &Options) -> RunReport {
    let mut report = RunReport::new(workload, seed, traced);
    let mut setups = SetupClock::default();
    let base = time_setups(&mut setups, workload, seed, opts);
    report.check("workload.auditor_on", base.auditor, || {
        "workload file turns the auditor off".into()
    });

    if !traced {
        let segments = if opts.smoke { 1 } else { SEGMENTS };
        let plan = Plan { base: &base, seed, traced: false, segments, seconds };
        // One more round of set-ups after every server, at the pace the
        // host keeps then.
        let phase = PhaseA::run(
            &mut report,
            "segment",
            plan,
            |_, _| {},
            || drop(time_setups(&mut setups, workload, seed, opts)),
        );
        let setup_s = report.set_setup_extras(&setups);
        let a = &phase.pooled;
        report.attempted = a.sent;
        report.failed = a.failed();
        phase_a_extras(&mut report, &phase);
        let tail_p = tail_percentile(a.wire_ms.len());
        report.set_extra("tail_percentile", tail_p);
        report.set("setup_s", setup_s);
        report.set("host_us_per_req", median(&phase.overhead_p50_us));
        report.set("cpu_us_per_req", phase.cpu_us_per_req());
        report.set("peak_rss_mb", host::peak_rss_mb());
        report.set("latency_p50_ms", percentile(&a.wire_ms, 50.0));
        report.set("latency_tail_ms", percentile(&a.wire_ms, tail_p));
        report.set("slo_ok_share", a.slo_ok as f64 / a.sent as f64);
        report.set("ok_share", a.completed as f64 / a.sent as f64);
        return report;
    }

    report.set_setup_extras(&setups);
    let mut dump = SpanDump::default();
    let segments = if opts.smoke { 1 } else { TRACED_SEGMENTS };
    // Untraced servers: A; then B and C against the last of them.
    let phase_start = now_ns();
    let mut front_door = None;
    let plan = Plan { base: &base, seed, traced: false, segments, seconds: seconds * 0.3 };
    let plain = PhaseA::run(
        &mut report,
        "segment",
        plan,
        |server, mut clients| {
            let b_start = now_ns();
            let b = phase_b(&mut clients, seconds * 0.2);
            drop(clients);
            let c_start = now_ns();
            let c = phase_c(&server.local_addr().to_string(), seconds * 0.2);
            front_door = Some((b, c, b_start, c_start, now_ns()));
        },
        || {},
    );
    let (
        (ping_rtts, ping_failed, ping_per_s),
        (connect_rtts, connect_failed, connect_per_s),
        b_start,
        c_start,
        c_end,
    ) = front_door.expect("phases B and C ran against the last server");
    let root = dump.push("wire.phase_a", phase_start, b_start, None, None);
    for &(start, end, request) in &plain.pooled.spans {
        dump.push("wire.run", start, end, Some(root), Some(request));
    }
    dump.push("wire.phase_b", b_start, c_start, None, None);
    dump.push("wire.phase_c", c_start, c_end, None, None);
    report.check("phase_b.every_ping_answered", ping_failed == 0 && !ping_rtts.is_empty(), || {
        format!("{ping_failed} pings failed, {} answered", ping_rtts.len())
    });
    report.check(
        "phase_c.every_healthz_ok",
        connect_failed == 0 && !connect_rtts.is_empty(),
        || format!("{connect_failed} connects failed, {} answered", connect_rtts.len()),
    );
    phase_a_extras(&mut report, &plain);

    // Traced servers: A again, audit trail and ledger counters on.
    query_stats::reset();
    query_stats::set_enabled(true);
    let phase_start = now_ns();
    let traced_phase =
        PhaseA::run(&mut report, "traced", Plan { traced: true, ..plan }, |_, _| {}, || {});
    query_stats::set_enabled(false);
    dump.push("wire.phase_a.traced", phase_start, now_ns(), None, None);

    let (a, ta) = (&plain.pooled, &traced_phase.pooled);
    let pings = ping_rtts.len() as u64 + ping_failed;
    let connects = connect_rtts.len() as u64 + connect_failed;
    report.attempted = a.sent + ta.sent + pings + connects;
    report.failed = a.failed() + ta.failed() + ping_failed + connect_failed;

    let (stats, _) = plain.last.as_ref().expect("at least one segment ran");
    let (_, traced_out) = traced_phase.last.as_ref().expect("at least one segment ran");
    // The counters ran through every traced segment, the kernel output is
    // the last segment's: divide each by its own request count.
    layers::ledger_metrics(&mut report, query_stats::snapshot(), ta.sent - ta.busy - ta.errors);
    layers::kernel_metrics(&mut report, traced_out);
    let (parse_ns, write_ns) = protocol_costs();
    report.set("serve.overhead_p90_us", percentile(&a.overhead_us, 90.0));
    report.set("serve.ping_rtt_p50_us", percentile(&ping_rtts, 50.0));
    report.set("serve.ping_rtt_p99_us", percentile(&ping_rtts, 99.0));
    report.set("serve.ping_per_s", ping_per_s);
    report.set("serve.connect_rtt_p50_us", percentile(&connect_rtts, 50.0));
    report.set("serve.connect_per_s", connect_per_s);
    report.set("serve.threads", plain.threads as f64);
    report.set("serve.parse_line_ns", parse_ns);
    report.set("serve.write_response_ns", write_ns);
    report.set("serve.stats.connections", stats.connections as f64);
    report.set("serve.stats.requests", stats.requests as f64);
    report.set("serve.stats.completed", stats.completed as f64);
    report.set("serve.stats.shed", stats.shed as f64);
    report.set("serve.stats.busy", stats.busy as f64);
    report.set("serve.stats.timeouts", stats.timeouts as f64);
    report.set("serve.stats.draining", stats.draining as f64);
    report.set("serve.stats.errors", stats.errors as f64);
    // Not used to scale anything here; it says how the host was doing.
    let mut reference = Reference::default();
    reference.sample_times(REFERENCE_SAMPLES);
    report.set("loadgen.reference_ms", reference.median_ms());
    report.set("loadgen.sent", a.sent as f64);
    let kernel_cpu_per_req = plain.kernel_cpu_us as f64 / a.sent.max(1) as f64;
    report.set("engine.live.kernel_cpu_us_per_req", kernel_cpu_per_req);
    // Traced wall over untraced wall, as a client sees it: the median
    // latency of the same seeded request sequence against servers with and
    // without the audit trail and the ledger counters. Every `serve.*`
    // timing above comes from the untraced servers; the traced ones give
    // counts only. The kernel thread's CPU per request, which shows tracing
    // in `live_open`, is idle polling at a dozen requests a second and
    // differs by a quarter between two servers of the same kind; it is
    // printed beside this for what it is worth.
    report.set(
        "trace_overhead_share",
        percentile(&ta.wire_ms, 50.0) / percentile(&a.wire_ms, 50.0) - 1.0,
    );
    report.set_extra(
        "trace_kernel_cpu_share",
        traced_phase.kernel_cpu_us as f64 / ta.sent.max(1) as f64 / kernel_cpu_per_req - 1.0,
    );

    match dump.write(workload) {
        Ok(path) => eprintln!("span dump: {} spans in {}", dump.len(), path.display()),
        Err(e) => report.check("span_dump.written", false, || e.to_string()),
    }
    report
}
