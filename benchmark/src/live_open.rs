//! `live_open`: an honest open loop on the wall-clock kernel.
//!
//! `mlp_engine::live::run_live` runs on a kernel thread this file spawns,
//! fed through its `sync_channel<Submission>` by one generator thread on a
//! seeded Poisson schedule whose due-times never look at completions.
//! Latency counts from the *intended* send instant, a full channel is
//! `BUSY` and is not retried, and outcomes are stamped in the notify sink.
//!
//! The timed pass drives the headline step (1200 req/s on 256 machines)
//! for the whole run. The traced pass climbs a ladder of fresh kernels at
//! a constant 4.7 req/s/machine, untraced, to find `engine.live.max_ok_rps`,
//! and runs the headline step twice more with the timing decorator on, each
//! time right after an untraced headline step to compare it with.

use crate::host::{self, now_ns, SetupClock};
use crate::layers::{self, SpanDump};
use crate::reference::Reference;
use crate::report::RunReport;
use crate::stats::{self, median, percentile, tail_percentile};
use crate::timed::{SchedTrace, TimedScheduler};
use crate::Options;
use mlp_cluster::ledger::query_stats::{self, LedgerQueryStats};
use mlp_engine::live::{run_live, LiveOptions, LiveOutcome, OutcomeKind, Submission};
use mlp_engine::profiling::warm_profiles;
use mlp_engine::sim::SimOutput;
use mlp_engine::{default_registry, ExperimentConfig};
use mlp_model::{RequestCatalog, RequestTypeId};
use mlp_sim::SimRng;
use rand::Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `(req/s, machines)`, ascending, 4.7 req/s/machine throughout.
pub const LADDER: [(f64, usize); 5] =
    [(600.0, 128), (1200.0, 256), (1800.0, 384), (2400.0, 512), (3000.0, 640)];
/// The ladder step the headline numbers come from.
pub const HEADLINE: usize = 1;
/// Submission-queue depth, that of `vmlp serve`.
const QUEUE_CAP: usize = 512;
/// A send this far behind its due-time is late.
const LATE_NS: u64 = 1_000_000;
/// A step with a larger share of late sends measured the generator, not
/// the kernel; it is reported invalid and run again.
pub const MAX_LATE_SHARE: f64 = 0.01;
/// A headline step whose second attempt still has a larger share of late
/// sends than this fails the run. Not `MAX_LATE_SHARE`: on the shared
/// reference host whole-VM stalls of 50–100 ms leave 1–3 % of a step's
/// sends late in one run in ten even on the second attempt (they delay
/// the kernel as much as the generator), and such a run would then fail
/// for no fault of the program; first attempts have reached 6 %. The gated
/// medians do not move at such shares, and the share is always reported.
pub const FAIL_LATE_SHARE: f64 = 0.10;
/// How long after a step's last send its completions may still arrive.
const SETTLE: Duration = Duration::from_secs(1);
/// Reference-kernel samples a traced run takes once its load is over.
const REFERENCE_SAMPLES: usize = 5;
/// Untraced/traced pairs of the headline step in a traced run.
const TRACED_PAIRS: usize = 2;

/// A seeded open-loop schedule: when each request is due and what it asks.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Due-times, ns after the step starts, non-decreasing.
    pub due_ns: Vec<u64>,
    pub rtypes: Vec<RequestTypeId>,
}

/// Draws a request type from `(type, weight)` pairs.
pub fn pick_type(mix: &[(RequestTypeId, f64)], rng: &mut SimRng) -> RequestTypeId {
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let mut x = rng.rng().gen_range(0.0..total);
    for &(id, w) in mix {
        if x < w {
            return id;
        }
        x -= w;
    }
    mix.last().expect("a mix has at least one type").0
}

/// Poisson arrivals at `rate` req/s over `duration_s`, types from `mix`.
/// A function of its arguments only: the same seed gives the same inputs.
pub fn poisson_schedule(
    seed: u64,
    rate: f64,
    duration_s: f64,
    mix: &[(RequestTypeId, f64)],
) -> Schedule {
    let mut gaps = SimRng::new(seed).fork(10);
    let mut types = SimRng::new(seed).fork(11);
    let mut schedule = Schedule { due_ns: Vec::new(), rtypes: Vec::new() };
    let mut t = 0.0f64;
    loop {
        let u: f64 = gaps.rng().gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= duration_s {
            return schedule;
        }
        schedule.due_ns.push((t * 1e9) as u64);
        schedule.rtypes.push(pick_type(mix, &mut types));
    }
}

/// The ladder's pass rule: the serving path adds at most 50 ms at p99,
/// nothing was refused, and the backlog is not growing (98 % of sends
/// answered within a second of the step's end).
pub fn step_passes(overhead_p99_us: f64, busy: u64, sent: u64, answered_in_time: u64) -> bool {
    overhead_p99_us <= 50_000.0 && busy == 0 && answered_in_time as f64 >= 0.98 * sent as f64
}

const NONE: u64 = 0;
const SHED: u64 = 2;
const ABANDONED: u64 = 3;
const DROPPED: u64 = 4;

/// One slot per token, written once by the notify sink on the kernel
/// thread and read by the generator thread after the step.
struct Slots {
    done_ns: Vec<AtomicU64>,
    /// `latency_us << 3 | 1` for a completion, else one of the codes above.
    outcome: Vec<AtomicU64>,
    request: Vec<AtomicU64>,
    answered: AtomicU64,
    duplicates: AtomicU64,
}

impl Slots {
    fn new(n: usize) -> Slots {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(NONE)).collect::<Vec<_>>();
        Slots {
            done_ns: zeros(n),
            outcome: zeros(n),
            request: zeros(n),
            answered: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
        }
    }

    /// The notify sink: stamp, store, never block. The counters publish no
    /// other data before the kernel thread is joined, so Relaxed suffices.
    fn record(&self, o: LiveOutcome) {
        let now = now_ns();
        let code = match o.kind {
            OutcomeKind::Completed { latency_us } => latency_us << 3 | 1,
            OutcomeKind::Shed { .. } => SHED,
            OutcomeKind::Abandoned => ABANDONED,
            OutcomeKind::Dropped => DROPPED,
        };
        let Some(slot) = self.outcome.get(o.token as usize) else {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if slot.swap(code, Ordering::Relaxed) != NONE {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.done_ns[o.token as usize].store(now, Ordering::Relaxed);
        self.request[o.token as usize].store(o.request, Ordering::Relaxed);
        self.answered.fetch_add(1, Ordering::Relaxed);
    }
}

/// What the kernel thread hands back when it ends.
struct KernelExit {
    out: SimOutput,
    cpu_us: u64,
    trace: Option<SchedTrace>,
}

/// A live kernel on its own thread.
struct Kernel {
    submissions: SyncSender<Submission>,
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<KernelExit>,
}

impl Kernel {
    /// Warms profiles, spawns the kernel thread and returns once it has
    /// built its scheduler and is about to enter `run_live`.
    fn start(cfg: &ExperimentConfig, slots: Arc<Slots>, traced: bool) -> Kernel {
        let catalog = RequestCatalog::paper();
        let root = SimRng::new(cfg.seed);
        let profiles = warm_profiles(&catalog, cfg.warmup_cases, &mut root.fork(2));
        let (submissions, sub_rx) = mpsc::sync_channel::<Submission>(QUEUE_CAP);
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        let shutdown = Arc::new(AtomicBool::new(false));
        let kernel_shutdown = Arc::clone(&shutdown);
        let cfg = cfg.clone();
        let handle = std::thread::Builder::new()
            .name("bench-kernel".into())
            .spawn(move || {
                let mut rng = root.fork(1);
                let inner = default_registry()
                    .build(&cfg.scheme, cfg.seed)
                    .unwrap_or_else(|e| crate::die(&e.to_string()));
                let opts =
                    LiveOptions { drain_timeout: Duration::from_secs(5), ..LiveOptions::default() };
                let notify = Box::new(move |o| slots.record(o));
                let _ = ready_tx.send(());
                let cpu0 = host::thread_cpu_us();
                let (out, trace) = if traced {
                    let mut timed = TimedScheduler::new(inner);
                    let out = run_live(
                        &cfg,
                        &catalog,
                        profiles,
                        &mut timed,
                        &mut rng,
                        sub_rx,
                        kernel_shutdown,
                        &opts,
                        notify,
                    );
                    (out, Some(timed.take_trace()))
                } else {
                    let mut plain = inner;
                    let out = run_live(
                        &cfg,
                        &catalog,
                        profiles,
                        plain.as_mut(),
                        &mut rng,
                        sub_rx,
                        kernel_shutdown,
                        &opts,
                        notify,
                    );
                    (out, None)
                };
                KernelExit { out, cpu_us: host::thread_cpu_us() - cpu0, trace }
            })
            .expect("spawn the kernel thread");
        ready_rx.recv().expect("the kernel thread reports ready");
        Kernel { submissions, shutdown, handle }
    }

    /// Raises shutdown, hangs up, joins; returns the exit and the drain time.
    fn stop(self) -> (KernelExit, f64) {
        let t = Instant::now();
        self.shutdown.store(true, Ordering::SeqCst);
        drop(self.submissions);
        let exit = self.handle.join().expect("the kernel thread does not panic");
        (exit, t.elapsed().as_secs_f64() * 1e3)
    }
}

/// Everything one ladder step measured.
pub struct StepResult {
    pub sent: u64,
    pub busy: u64,
    pub completed: u64,
    pub shed: u64,
    pub abandoned: u64,
    pub dropped: u64,
    pub unanswered: u64,
    pub duplicates: u64,
    pub answered_in_time: u64,
    pub slo_ok: u64,
    pub late_share: f64,
    pub max_late_ms: f64,
    /// Client-observed latency from the intended send, ms, sorted.
    pub wire_ms: Vec<f64>,
    /// The kernel's own `latency_us`, echoed, ms, sorted.
    pub kernel_ms: Vec<f64>,
    /// Client-observed minus echoed, µs, sorted.
    pub overhead_us: Vec<f64>,
    pub drain_ms: f64,
    pub process_cpu_us: u64,
    pub kernel_cpu_us: u64,
    pub out: SimOutput,
    pub trace: Option<SchedTrace>,
    pub ledger: Option<LedgerQueryStats>,
}

impl StepResult {
    pub fn failed(&self) -> u64 {
        self.sent - self.completed
    }

    pub fn valid(&self) -> bool {
        self.late_share <= MAX_LATE_SHARE
    }

    pub fn passes(&self) -> bool {
        step_passes(
            percentile(&self.overhead_us, 99.0),
            self.busy,
            self.sent,
            self.answered_in_time,
        )
    }
}

fn step_config(
    base: &ExperimentConfig,
    machines: usize,
    seed: u64,
    traced: bool,
) -> ExperimentConfig {
    let mut cfg = base.clone();
    cfg.shards = base.shards * machines / base.machines;
    cfg.machines = machines;
    cfg.seed = seed;
    cfg.audit = traced;
    cfg
}

/// Drives one fresh kernel at `rate` for `duration_s`.
fn run_step(
    base: &ExperimentConfig,
    (rate, machines): (f64, usize),
    duration_s: f64,
    seed: u64,
    traced: bool,
    dump: &mut SpanDump,
) -> StepResult {
    let cfg = step_config(base, machines, seed, traced);
    let catalog = RequestCatalog::paper();
    let schedule = poisson_schedule(seed, rate, duration_s, &cfg.mix.resolve(&catalog));
    let n = schedule.due_ns.len();
    let slots = Arc::new(Slots::new(n));
    if traced {
        query_stats::reset();
        query_stats::set_enabled(true);
    }
    let kernel = Kernel::start(&cfg, Arc::clone(&slots), traced);

    let cpu0 = host::process_cpu_us();
    let step_start_ns = now_ns();
    let t0 = Instant::now() + Duration::from_millis(5);
    let t0_ns = step_start_ns + 5_000_000;
    let mut accepted = vec![false; n];
    let (mut busy, mut late, mut max_late_ns) = (0u64, 0u64, 0u64);
    for (i, accepted) in accepted.iter_mut().enumerate() {
        let due = t0 + Duration::from_nanos(schedule.due_ns[i]);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let behind = Instant::now().saturating_duration_since(due).as_nanos() as u64;
        max_late_ns = max_late_ns.max(behind);
        late += u64::from(behind > LATE_NS);
        match kernel.submissions.try_send(Submission { token: i as u64, rtype: schedule.rtypes[i] })
        {
            Ok(()) => *accepted = true,
            Err(TrySendError::Full(_)) => busy += 1,
            Err(TrySendError::Disconnected(_)) => crate::die("the live kernel hung up mid-step"),
        }
    }
    let in_flight = n as u64 - busy;
    let settle = Instant::now();
    while slots.answered.load(Ordering::Relaxed) < in_flight && settle.elapsed() < SETTLE {
        std::thread::sleep(Duration::from_millis(2));
    }
    let answered_in_time = slots.answered.load(Ordering::Relaxed);
    let process_cpu_us = host::process_cpu_us() - cpu0;
    let (exit, drain_ms) = kernel.stop();
    let ledger = traced.then(|| {
        query_stats::set_enabled(false);
        query_stats::snapshot()
    });

    let step_span = dump.push(
        if traced { "live.step.traced" } else { "live.step" },
        step_start_ns,
        now_ns(),
        None,
        None,
    );
    let mut r = StepResult {
        sent: n as u64,
        busy,
        completed: 0,
        shed: 0,
        abandoned: 0,
        dropped: 0,
        unanswered: 0,
        duplicates: slots.duplicates.load(Ordering::Relaxed),
        answered_in_time,
        slo_ok: 0,
        late_share: late as f64 / n.max(1) as f64,
        max_late_ms: max_late_ns as f64 / 1e6,
        wire_ms: Vec::new(),
        kernel_ms: Vec::new(),
        overhead_us: Vec::new(),
        drain_ms,
        process_cpu_us,
        kernel_cpu_us: exit.cpu_us,
        out: exit.out,
        trace: exit.trace,
        ledger,
    };
    for i in (0..n).filter(|&i| accepted[i]) {
        match slots.outcome[i].load(Ordering::Relaxed) {
            NONE => r.unanswered += 1,
            SHED => r.shed += 1,
            ABANDONED => r.abandoned += 1,
            DROPPED => r.dropped += 1,
            code => {
                r.completed += 1;
                let due_ns = t0_ns + schedule.due_ns[i];
                let done_ns = slots.done_ns[i].load(Ordering::Relaxed);
                let wire_us = done_ns.saturating_sub(due_ns) as f64 / 1e3;
                let kernel_us = (code >> 3) as f64;
                r.wire_ms.push(wire_us / 1e3);
                r.kernel_ms.push(kernel_us / 1e3);
                r.overhead_us.push(wire_us - kernel_us);
                r.slo_ok += u64::from(wire_us / 1e3 <= catalog.request(schedule.rtypes[i]).slo_ms);
                if traced || r.completed <= 2_000 {
                    let request = slots.request[i].load(Ordering::Relaxed);
                    dump.push("live.request", due_ns, done_ns, Some(step_span), Some(request));
                }
            }
        }
    }
    if let Some(trace) = &r.trace {
        dump.push_calls(&trace.spans, step_span);
    }
    stats::sort(&mut r.wire_ms);
    stats::sort(&mut r.kernel_ms);
    stats::sort(&mut r.overhead_us);
    r
}

/// Runs a step, and once more if the generator ran late.
fn run_valid_step(
    base: &ExperimentConfig,
    step: (f64, usize),
    duration_s: f64,
    seed: u64,
    traced: bool,
    dump: &mut SpanDump,
) -> StepResult {
    let first = run_step(base, step, duration_s, seed, traced, dump);
    if first.valid() {
        return first;
    }
    eprintln!(
        "live_open: step {} rps invalid (late_share {:.3} > {MAX_LATE_SHARE}), running it again",
        step.0, first.late_share
    );
    // Freed before the second attempt allocates, or a rerun would show as
    // a higher `peak_rss_mb`.
    drop(first);
    run_step(base, step, duration_s, seed, traced, dump)
}

fn check_step(report: &mut RunReport, tag: &str, s: &StepResult) {
    layers::kernel_checks(report, tag, &s.out);
    let kinds = s.completed + s.shed + s.abandoned + s.dropped + s.unanswered + s.busy;
    report.check(&format!("{tag}.sent_equals_outcomes"), s.sent == kinds, || {
        format!("sent {} != sum of outcome kinds {kinds}", s.sent)
    });
    report.check(&format!("{tag}.one_outcome_per_token"), s.duplicates == 0, || {
        format!("{} tokens answered twice or out of range", s.duplicates)
    });
    report.check(
        &format!("{tag}.kernel_saw_every_send"),
        s.out.arrived as u64 == s.sent - s.busy,
        || format!("kernel arrived {} != accepted sends {}", s.out.arrived, s.sent - s.busy),
    );
    report.check(&format!("{tag}.every_accepted_send_answered"), s.unanswered == 0, || {
        format!("{} accepted sends never answered", s.unanswered)
    });
}

/// One round of set-ups: time to a ready kernel (config load, profile
/// warm-up, kernel thread up and its scheduler built). Returns the config.
fn time_setups(
    setups: &mut SetupClock,
    workload: &str,
    seed: u64,
    opts: &Options,
) -> ExperimentConfig {
    let mut base = None;
    setups.time_round(
        if opts.smoke { 1 } else { host::SETUP_REPS },
        || {
            let cfg = crate::sim::load_config(workload, 1.0).unwrap_or_else(|e| crate::die(&e));
            let (_, machines) = LADDER[HEADLINE];
            let kernel = Kernel::start(
                &step_config(&cfg, machines, seed, false),
                Arc::new(Slots::new(0)),
                false,
            );
            (cfg, kernel)
        },
        |(cfg, kernel)| {
            kernel.stop();
            base = Some(cfg);
        },
    );
    base.expect("at least one set-up ran")
}

/// A headline step the generator drove on time, or a failed check.
fn check_on_time(report: &mut RunReport, tag: &str, s: &StepResult) {
    report.check(&format!("{tag}.generator_on_time"), s.late_share <= FAIL_LATE_SHARE, || {
        format!("late_share {:.3} > {FAIL_LATE_SHARE} on the second attempt", s.late_share)
    });
}

/// Runs `live_open` for about `seconds` and reports it.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool, opts: &Options) -> RunReport {
    let mut report = RunReport::new(workload, seed, traced);
    let mut dump = SpanDump::default();
    let mut setups = SetupClock::default();
    let base = time_setups(&mut setups, workload, seed, opts);
    report.check("workload.auditor_on", base.auditor, || {
        "workload file turns the auditor off".into()
    });
    report.check("loadgen.within_nproc", host::nproc() >= 2, || {
        "one generator thread plus one kernel thread need two cores".into()
    });

    if !traced {
        let s = run_valid_step(&base, LADDER[HEADLINE], seconds, seed, false, &mut dump);
        // A second round of set-ups, at the pace the host keeps now.
        time_setups(&mut setups, workload, seed, opts);
        let setup_s = report.set_setup_extras(&setups);
        check_step(&mut report, "headline", &s);
        check_on_time(&mut report, "headline", &s);
        report.attempted = s.sent;
        report.failed = s.failed();
        headline_extras(&mut report, &s);
        let tail_p = tail_percentile(s.wire_ms.len());
        report.set_extra("tail_percentile", tail_p);
        report.set("setup_s", setup_s);
        report.set("host_us_per_req", percentile(&s.overhead_us, 50.0));
        report.set("cpu_us_per_req", s.process_cpu_us as f64 / s.sent as f64);
        report.set("peak_rss_mb", host::peak_rss_mb());
        report.set("latency_p50_ms", percentile(&s.wire_ms, 50.0));
        report.set("latency_tail_ms", percentile(&s.wire_ms, tail_p));
        report.set("slo_ok_share", s.slo_ok as f64 / s.sent as f64);
        report.set("ok_share", s.completed as f64 / s.sent as f64);
        return report;
    }

    report.set_setup_extras(&setups);
    // The ladder, untraced, stopping after the first failing step, then one
    // more untraced headline step. Each untraced headline step is followed
    // at once by its traced twin, so that host drift cancels within a pair.
    let pairs = if opts.smoke { 1 } else { TRACED_PAIRS };
    let slot_s = seconds / (LADDER.len() + 2 * pairs - 1) as f64;
    let traced_twin = |report: &mut RunReport, dump: &mut SpanDump, plain: &StepResult| {
        let tr = run_valid_step(&base, LADDER[HEADLINE], slot_s, seed, true, dump);
        check_step(report, "headline.traced", &tr);
        check_on_time(report, "headline.traced", &tr);
        report.attempted += tr.sent;
        report.failed += tr.failed();
        let ratio = (tr.kernel_cpu_us as f64 / tr.sent as f64)
            / (plain.kernel_cpu_us as f64 / plain.sent as f64);
        (tr, ratio)
    };
    let mut max_ok_rps = 0.0;
    let mut headline = None;
    let mut twins = Vec::new();
    for (i, &step) in LADDER.iter().enumerate() {
        let s = run_valid_step(&base, step, slot_s, seed, false, &mut dump);
        check_step(&mut report, &format!("ladder{}", step.0), &s);
        report.attempted += s.sent;
        let passed = s.valid() && s.passes();
        eprintln!(
            "live_open: {:>5} rps @ {:>3} machines: sent {} busy {} overhead p99 {:.0} us, answered in time {} -> {}",
            step.0, step.1, s.sent, s.busy, percentile(&s.overhead_us, 99.0), s.answered_in_time,
            if passed { "ok" } else { "fail" },
        );
        if passed {
            max_ok_rps = step.0;
        }
        if i == HEADLINE {
            check_on_time(&mut report, "headline", &s);
            report.failed += s.failed();
            twins.push(traced_twin(&mut report, &mut dump, &s));
            headline = Some(s);
        }
        if !passed && i >= HEADLINE {
            break;
        }
    }
    let plain = headline.expect("the ladder reaches the headline step");
    for _ in 1..pairs {
        let again = run_valid_step(&base, LADDER[HEADLINE], slot_s, seed, false, &mut dump);
        check_step(&mut report, "headline.again", &again);
        report.attempted += again.sent;
        report.failed += again.failed();
        twins.push(traced_twin(&mut report, &mut dump, &again));
    }
    headline_extras(&mut report, &plain);

    // Counts and call timings from the last traced step.
    let ratios: Vec<f64> = twins.iter().map(|(_, ratio)| *ratio).collect();
    let (tr, _) = twins.pop().expect("at least one traced step ran");
    let arrived = tr.out.arrived as u64;
    if let Some(trace) = &tr.trace {
        layers::sched_metrics(&mut report, trace, arrived);
    }
    if let Some(ledger) = tr.ledger {
        layers::ledger_metrics(&mut report, ledger, arrived);
    }
    layers::kernel_metrics(&mut report, &tr.out);

    report.set("engine.live.kernel_cpu_us_per_req", plain.kernel_cpu_us as f64 / plain.sent as f64);
    report.set("engine.live.kernel_p50_ms", percentile(&plain.kernel_ms, 50.0));
    report.set("engine.live.kernel_p99_ms", percentile(&plain.kernel_ms, 99.0));
    report.set("engine.live.overhead_p99_us", percentile(&plain.overhead_us, 99.0));
    report.set("engine.live.busy", plain.busy as f64);
    report.set("engine.live.drain_ms", plain.drain_ms);
    report.set("engine.live.max_ok_rps", max_ok_rps);
    // Not used to scale anything here; it says how the host was doing.
    let mut reference = Reference::default();
    reference.sample_times(REFERENCE_SAMPLES);
    report.set("loadgen.reference_ms", reference.median_ms());
    report.set("loadgen.sent", plain.sent as f64);
    report.set("loadgen.late_share", plain.late_share);
    report.set("loadgen.max_late_ms", plain.max_late_ms);
    // Wall latency is modelled service time; tracing shows in the kernel
    // thread's CPU per request.
    report.set("trace_overhead_share", median(&ratios) - 1.0);
    report.set_extra("traced_pairs", ratios.len() as f64);

    match dump.write(workload) {
        Ok(path) => eprintln!("span dump: {} spans in {}", dump.len(), path.display()),
        Err(e) => report.check("span_dump.written", false, || e.to_string()),
    }
    report
}

/// The headline step under the names the design issue uses.
fn headline_extras(report: &mut RunReport, s: &StepResult) {
    report.set_extra("samples", s.wire_ms.len() as f64);
    report.set_extra("wire_p50_ms", percentile(&s.wire_ms, 50.0));
    report.set_extra("wire_p99_ms", percentile(&s.wire_ms, 99.0));
    report.set_extra("overhead_p50_us", percentile(&s.overhead_us, 50.0));
    report.set_extra("cpu_us_per_req", s.process_cpu_us as f64 / s.sent as f64);
    report.set_extra("fail_share", s.failed() as f64 / s.sent as f64);
    report.set_extra("peak_rss_mb", host::peak_rss_mb());
    report.set_extra("loadgen.late_share", s.late_share);
    report.set_extra("loadgen.max_late_ms", s.max_late_ms);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Vec<(RequestTypeId, f64)> {
        RequestCatalog::paper().balanced_mix()
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(7, 1200.0, 2.0, &mix());
        let b = poisson_schedule(7, 1200.0, 2.0, &mix());
        let c = poisson_schedule(8, 1200.0, 2.0, &mix());
        assert_eq!(a, b, "same seed, same inputs");
        assert_ne!(a.due_ns, c.due_ns, "another seed, other due-times");
        assert_ne!(a.rtypes, c.rtypes, "another seed, other request types");
    }

    #[test]
    fn schedule_is_poisson_shaped_and_ordered() {
        let s = poisson_schedule(2022, 1200.0, 5.0, &mix());
        let n = s.due_ns.len() as f64;
        assert!((n - 6000.0).abs() < 4.0 * 6000f64.sqrt(), "{n} arrivals for a mean of 6000");
        assert!(s.due_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s.due_ns.last().unwrap() < 5_000_000_000);
        assert_eq!(s.rtypes.len(), s.due_ns.len());
        let kinds: std::collections::BTreeSet<u32> = s.rtypes.iter().map(|t| t.0).collect();
        assert_eq!(kinds.len(), mix().len(), "every type of the mix is drawn");
    }

    #[test]
    fn ladder_keeps_load_per_machine_constant() {
        for (rate, machines) in LADDER {
            assert!((rate / machines as f64 - 4.6875).abs() < 1e-9);
        }
        assert_eq!(LADDER[HEADLINE], (1200.0, 256));
    }

    #[test]
    fn ladder_pass_rule() {
        assert!(step_passes(49_999.0, 0, 1000, 980));
        assert!(step_passes(50_000.0, 0, 1000, 1000));
        assert!(!step_passes(50_001.0, 0, 1000, 1000), "overhead p99 over 50 ms");
        assert!(!step_passes(100.0, 1, 1000, 1000), "any BUSY fails the step");
        assert!(!step_passes(100.0, 0, 1000, 979), "a growing backlog fails the step");
    }
}
