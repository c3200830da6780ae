//! The four virtual-time workloads: `sim_steady`, `sim_peak`, `sim_scale`,
//! `sim_storm`. Each run loads its `ExperimentConfig` from
//! `benchmark/workloads/`, sets the seed, and repeats
//! `Experiment::run_full` on seeds derived from `--seed`. A fixed number
//! of iterations per workload always runs and gives the simulated-time
//! results, which therefore depend on the seed alone; iterations beyond
//! them, until `--seconds` are used, only add samples to the host-time
//! medians.

use crate::host::{self, now_ns, SetupClock};
use crate::layers::{self, SpanDump};
use crate::reference::{self, Reference};
use crate::report::{Digest, RunReport};
use crate::stats::{median, tail_percentile};
use crate::timed::{take_last_trace, traced_registry, Group};
use crate::Options;
use mlp_cluster::ledger::query_stats;
use mlp_engine::profiling::warm_profiles;
use mlp_engine::sim::SimOutput;
use mlp_engine::{default_registry, Experiment, ExperimentConfig, ExperimentResult};
use mlp_model::{RequestCatalog, VolatilityClass};
use mlp_sim::{SimRng, SimTime};
use mlp_trace::metrics::names;
use mlp_workload::{ArrivalSource, OpenLoopSource, RateSchedule};
use std::hint::black_box;
use std::time::Instant;

/// The one constant request counts, horizons and fault/surge windows are
/// scaled by, so that several iterations fit in one run of the contract's
/// length. Rates, cluster shapes and names are those of the workload files.
pub const SCALE: f64 = 0.25;
/// The scale of `--smoke`: every workload in a second or two.
pub const SMOKE_SCALE: f64 = 0.02;

/// Iterations whose simulated-time results are reported and gated. They
/// always run, in the timed and in the traced pass, whatever `--seconds`
/// says, so the model numbers and the `sim_digest` of one seed are the same
/// on a fast and a slow host. Sized to ten to fourteen seconds on the
/// reference host; the queue-building workloads get the most, because their latency
/// differs most from seed to seed.
fn model_iters(workload: &str) -> usize {
    match workload {
        "sim_steady" => 3,
        "sim_peak" => 8,
        "sim_scale" => 4,
        "sim_storm" => 12,
        other => crate::die(&format!("`{other}` is not a sim workload")),
    }
}

/// Untraced/traced pairs a traced run makes at least.
const TRACED_PAIRS: usize = 2;

fn scaled_ms(ms: u64, scale: f64) -> u64 {
    (ms as f64 * scale).round() as u64
}

/// Applies the scale constant to everything that is a count or a duration.
pub fn scale_config(cfg: &mut ExperimentConfig, scale: f64) {
    cfg.horizon_s *= scale;
    cfg.max_requests = cfg.max_requests.map(|n| ((n as f64 * scale).round() as u64).max(1));
    let f = &mut cfg.faults;
    f.storm_start_ms = scaled_ms(f.storm_start_ms, scale);
    f.storm_duration_ms = scaled_ms(f.storm_duration_ms, scale);
    f.outage_ms = scaled_ms(f.outage_ms, scale);
    f.degrade_start_ms = scaled_ms(f.degrade_start_ms, scale);
    f.degrade_duration_ms = scaled_ms(f.degrade_duration_ms, scale);
    let o = &mut cfg.overload;
    o.surge_start_s *= scale;
    o.surge_duration_s *= scale;
    o.surge_ramp_s *= scale;
}

/// Loads a workload's experiment shape through the engine's own loader.
pub fn load_config(workload: &str, scale: f64) -> Result<ExperimentConfig, String> {
    let path = crate::workloads_dir().join(format!("{workload}.json"));
    let experiment = Experiment::from_config_file(&path).map_err(|e| e.to_string())?;
    let mut cfg = experiment.config().clone();
    scale_config(&mut cfg, scale);
    Ok(cfg)
}

/// The seed of iteration `i` of a run seeded `seed`.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    SimRng::new(seed).fork(i as u64).seed()
}

/// The arrival stream `Experiment::run_full` offers for `cfg`, built
/// standalone from the same seed: an open-loop source over the config's
/// pattern, or over its flash-crowd schedule when a surge is configured.
fn arrival_source(cfg: &ExperimentConfig, catalog: &RequestCatalog) -> OpenLoopSource {
    let mix = cfg.mix.resolve(catalog);
    let rng = SimRng::new(cfg.seed).fork(0);
    let o = cfg.overload;
    let source = if o.enabled && o.surge_multiplier > 1.0 {
        let schedule = RateSchedule::flash_crowd(
            cfg.pattern,
            cfg.max_rate,
            o.surge_start_s,
            o.surge_duration_s,
            o.surge_multiplier,
            o.surge_ramp_s,
        )
        .expect("workload file describes a valid surge");
        OpenLoopSource::scheduled(schedule, cfg.horizon_s, mix, rng)
            .expect("workload file describes a valid stream")
    } else {
        OpenLoopSource::poisson(cfg.pattern, cfg.max_rate, cfg.horizon_s, mix, rng)
    };
    match cfg.max_requests {
        Some(cap) => source.with_max_requests(cap),
        None => source,
    }
}

/// What one set-up cost in the two layers that do most of it.
struct SetupLayers {
    warm_profiles_ms: f64,
    build_scheduler_ms: f64,
}

/// Everything `Experiment::run_full` does before its first event, through
/// the same public functions: config load, catalog, profile warm-up,
/// cluster build, scheduler build, arrival source.
fn set_up(
    workload: &str,
    scale: f64,
    seed: u64,
    dump: &mut SpanDump,
) -> (ExperimentConfig, SetupLayers) {
    let start_ns = now_ns();
    let mut cfg = load_config(workload, scale).unwrap_or_else(|e| crate::die(&e));
    cfg.seed = seed;
    let catalog = RequestCatalog::paper();

    let warm_start = now_ns();
    let t = Instant::now();
    let profiles = warm_profiles(&catalog, cfg.warmup_cases, &mut SimRng::new(seed).fork(2));
    let warm_profiles_ms = t.elapsed().as_secs_f64() * 1e3;
    let warm_end = now_ns();

    let cluster = cfg.build_cluster();

    let t = Instant::now();
    let scheduler =
        default_registry().build(&cfg.scheme, seed).unwrap_or_else(|e| crate::die(&e.to_string()));
    let build_scheduler_ms = t.elapsed().as_secs_f64() * 1e3;
    let build_end = now_ns();

    let source = arrival_source(&cfg, &catalog);
    black_box((&profiles, &cluster, scheduler.waiting(), &source));

    let root = dump.push("bench.set_up", start_ns, now_ns(), None, None);
    dump.push("engine.warm_profiles", warm_start, warm_end, Some(root), None);
    let build_start = build_end - (build_scheduler_ms * 1e6) as u64;
    dump.push("engine.build_scheduler", build_start, build_end, Some(root), None);
    (cfg, SetupLayers { warm_profiles_ms, build_scheduler_ms })
}

/// One finished `Experiment::run_full`, with its output still in hand.
struct Iteration {
    wall_s: f64,
    result: ExperimentResult,
    out: SimOutput,
}

fn run_once(experiment: Experiment<'_>) -> Iteration {
    let t = Instant::now();
    let (result, out) = experiment.run_full().unwrap_or_else(|e| crate::die(&e.to_string()));
    Iteration { wall_s: t.elapsed().as_secs_f64(), result, out }
}

/// What is kept of an iteration once its output is dropped. Keeping the
/// outputs themselves would make peak memory grow with the iteration
/// count, which `--seconds` and the host's speed decide.
struct Kept {
    wall_us_per_req: f64,
    /// The same at the reference host's undisturbed speed; set once the
    /// reference sample after the iteration is in.
    scaled_wall_us_per_req: f64,
    arrived: usize,
    unaccounted: u64,
    digest: u64,
    p50_ms: f64,
    p99_ms: f64,
    tail_ms: f64,
    tail_percentile: f64,
    violation_rate: f64,
    fail_share: f64,
    utilization: f64,
}

impl Iteration {
    fn keep(&self) -> Kept {
        let r = &self.result;
        let (tail_percentile, tail_ms) = model_tail_ms(r);
        Kept {
            wall_us_per_req: self.wall_s * 1e6 / r.arrived as f64,
            scaled_wall_us_per_req: 0.0,
            arrived: r.arrived,
            unaccounted: (r.arrived as i64 - (r.completed + r.unfinished) as i64).unsigned_abs(),
            digest: sim_digest(r, &self.out),
            p50_ms: r.latency_ms[0],
            p99_ms: r.latency_ms[2],
            tail_ms,
            tail_percentile,
            violation_rate: r.violation_rate,
            fail_share: (r.arrived - r.completed) as f64 / r.arrived as f64,
            utilization: r.mean_utilization,
        }
    }
}

/// Hash of every simulated-time result of one run: counts,
/// latency-percentile bits, healing / fault / overload counters. Equal
/// seeds must give equal digests, traced or not.
fn sim_digest(r: &ExperimentResult, out: &SimOutput) -> u64 {
    let mut d = Digest::default();
    for n in [r.arrived, r.completed, r.completed_in_horizon, r.unfinished, r.good_in_horizon] {
        d.word(n as u64);
    }
    for x in r.latency_ms {
        d.float(x);
    }
    for x in [r.violation_rate, r.mean_latency_ms, r.mean_utilization, r.mttr_ms] {
        d.float(x);
    }
    for n in [r.healing.0, r.healing.1, r.healing.2] {
        d.word(n);
    }
    for n in [r.abandoned, r.request_table_peak, r.shed_requests] {
        d.word(n as u64);
    }
    for n in [
        r.node_failures,
        r.fault_retries,
        r.machine_crashes,
        r.crash_replans,
        r.shard_overflows,
        r.branch_sheds,
        r.retries_denied,
        r.breaker_opens,
        out.metrics.counter(names::LATE_INVOCATIONS),
        out.metrics.counter(names::INDEX_INVALIDATIONS),
    ] {
        d.word(n);
    }
    d.finish()
}

fn check_iteration(report: &mut RunReport, tag: &str, it: &Iteration) {
    layers::kernel_checks(report, tag, &it.out);
    let r = &it.result;
    report.check(&format!("{tag}.requests_arrived"), r.arrived > 0, || "no arrivals".into());
    report.check(
        &format!("{tag}.result_matches_output"),
        r.arrived == it.out.arrived
            && r.completed == it.out.collector.completed()
            && r.invariant_violations == 0,
        || format!("result {}/{} vs output {}", r.arrived, r.completed, it.out.arrived),
    );
}

/// The latency percentile gated as the tail of a sim run: p90 (p50 when the
/// completed count does not support even that).
///
/// Not p99, which the count would support: where queues build, one
/// iteration's p99 is set by its worst peak and differs by a third from
/// seed to seed (coefficient of variation 0.32 over 41 seeds of `sim_peak`,
/// 0.13 on `sim_storm`; p90: 0.24 and 0.07), and no iteration count that
/// fits a run brings its mean within the largest bound the contract allows.
/// p99 is still reported, as `model_p99_ms`, and `compare` holds it to
/// exact equality at a fixed seed.
fn model_tail_ms(r: &ExperimentResult) -> (f64, f64) {
    if tail_percentile(r.completed) >= 90.0 {
        (90.0, r.latency_ms[1])
    } else {
        (50.0, r.latency_ms[0])
    }
}

/// The collector queries `runner::summarize` makes (it is crate-private),
/// timed as `engine.summarize_ms`.
fn time_summary_queries(cfg: &ExperimentConfig, out: &SimOutput) -> f64 {
    let t = Instant::now();
    let horizon = SimTime::from_secs_f64(cfg.horizon_s);
    let c = &out.collector;
    for p in [50.0, 90.0, 99.0] {
        black_box(c.latency_percentile(p, None));
    }
    if !c.is_streaming() {
        black_box(c.latency_cdf(None).mean());
        black_box(c.completed_where(|r| r.end <= horizon));
        black_box(c.completed_where(|r| r.end <= horizon && !r.violated()));
        black_box(c.completed_where(|r| r.violated()));
    }
    for class in [VolatilityClass::Low, VolatilityClass::Mid, VolatilityClass::High] {
        black_box(c.violation_rate(Some(class)));
        black_box(c.latency_percentile(99.0, Some(class)));
    }
    black_box((c.lateness_stats(), c.capped_fraction(), c.mean_breakdown()));
    black_box(out.utilization.clone().mean());
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs one sim workload for about `seconds` and reports it.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool, opts: &Options) -> RunReport {
    let mut report = RunReport::new(workload, seed, traced);
    let mut dump = SpanDump::default();
    let scale = if opts.smoke { SMOKE_SCALE } else { SCALE };
    let model_iters = if opts.smoke { 1 } else { model_iters(workload) };

    let setup_reps = if opts.smoke { 1 } else { host::SETUP_REPS };
    let mut setups = SetupClock::default();
    let mut layers_of_setups = Vec::new();
    let mut cfg = None;
    setups.time_round(
        setup_reps,
        || set_up(workload, scale, seed, &mut dump),
        |(c, layers)| {
            layers_of_setups.push(layers);
            cfg = Some(c);
        },
    );
    let cfg = cfg.expect("at least one set-up ran");
    let over_setups =
        |f: fn(&SetupLayers) -> f64| median(&layers_of_setups.iter().map(f).collect::<Vec<_>>());
    let warm_ms = over_setups(|s| s.warm_profiles_ms);
    let build_ms = over_setups(|s| s.build_scheduler_ms);
    report
        .check("workload.auditor_on", cfg.auditor, || "workload file turns the auditor off".into());

    let catalog = RequestCatalog::paper();
    let registry = traced_registry();
    let started = Instant::now();
    // CPU of the experiment runs alone: the reference kernel timed between
    // them is not the program's work.
    let mut cpu_us = 0u64;
    let mut reference = Reference::default();
    let mut reference_before = None;
    let mut peak_rss_mb = 0.0;

    let mut plain: Vec<Kept> = Vec::new();
    // Per traced iteration: wall µs/req, its ratio to the untraced twin,
    // and busy µs/req per callback group.
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut traced_ratios: Vec<f64> = Vec::new();
    let mut traced_busy: Vec<[f64; 5]> = Vec::new();
    let mut traced_arrived = 0u64;
    let mut spans_dropped = 0u64;
    let mut last_s = 0.0;
    loop {
        let i = plain.len();
        let time_is_up = started.elapsed().as_secs_f64() + last_s > seconds;
        if i >= model_iters && time_is_up {
            break;
        }
        let round = Instant::now();
        let mut cfg_i = cfg.clone();
        cfg_i.seed = sub_seed(seed, i);

        let span_start = now_ns();
        let cpu0 = host::process_cpu_us();
        let it = run_once(Experiment::from_config(cfg_i.clone()).catalog(&catalog));
        cpu_us += host::process_cpu_us() - cpu0;
        dump.push("engine.run_full", span_start, now_ns(), None, None);
        if i == 0 {
            // Set-up and one whole iteration, before the reference kernel
            // has touched this process's heap.
            peak_rss_mb = host::peak_rss_mb();
        }
        check_iteration(&mut report, &format!("iter{i}"), &it);
        let mut kept = it.keep();
        drop(it);
        let reference_after = reference.sample();
        let around = (reference_before.unwrap_or(reference_after) + reference_after) / 2.0;
        kept.scaled_wall_us_per_req = kept.wall_us_per_req * reference::factor(around);
        reference_before = Some(reference_after);

        // A traced run pairs iterations with a decorated twin until its
        // time is up; the model iterations still to come then run alone.
        if traced && (traced_walls.len() < TRACED_PAIRS || !time_is_up) {
            // The same seed again with the decorator on: the per-layer
            // numbers must describe the schedule the untraced run timed.
            // The first pair is the counting pair: it also turns on the
            // audit trail and the ledger counters (an atomic add per
            // query, hundreds per request on `sim_peak`) and gives the
            // exact counts. The timings come from the later pairs, which
            // carry the decorator alone.
            let counting = i == 0;
            query_stats::reset();
            query_stats::set_enabled(counting);
            let span_start = now_ns();
            let cpu0 = host::process_cpu_us();
            let tr = run_once(
                Experiment::from_config(cfg_i)
                    .audit(counting)
                    .catalog(&catalog)
                    .registry(&registry),
            );
            cpu_us += host::process_cpu_us() - cpu0;
            let span_end = now_ns();
            query_stats::set_enabled(false);
            let ledger = query_stats::snapshot();
            let trace = take_last_trace().unwrap_or_default();
            let parent = dump.push("engine.run_full.traced", span_start, span_end, None, None);
            check_iteration(&mut report, &format!("iter{i}.traced"), &tr);
            let traced_digest = sim_digest(&tr.result, &tr.out);
            report.check(
                &format!("iter{i}.tracing_keeps_schedule"),
                kept.digest == traced_digest,
                || {
                    format!(
                        "sim_digest {:016x} untraced vs {traced_digest:016x} traced",
                        kept.digest
                    )
                },
            );
            let reqs = tr.result.arrived as f64;
            traced_arrived += tr.result.arrived as u64;
            traced_walls.push(tr.wall_s * 1e6 / reqs);
            traced_ratios.push(tr.wall_s * 1e6 / reqs / kept.wall_us_per_req);
            traced_busy.push(Group::ALL.map(|g| trace.group(g).busy_ns() / 1e3 / reqs));
            spans_dropped += trace.spans_dropped;
            if counting {
                // Exact counts come from this iteration: a fixed seed.
                dump.push_calls(&trace.spans, parent);
                layers::sched_metrics(&mut report, &trace, tr.result.arrived as u64);
                layers::ledger_metrics(&mut report, ledger, tr.result.arrived as u64);
                layers::kernel_metrics(&mut report, &tr.out);
                let span_start = now_ns();
                report.set("engine.summarize_ms", time_summary_queries(&tr.result.config, &tr.out));
                dump.push("engine.summary_queries", span_start, now_ns(), None, None);
            }
        }
        plain.push(kept);
        // One more round of set-ups at the pace the host keeps now.
        setups.time_round(setup_reps, || set_up(workload, scale, seed, &mut dump), drop);
        last_s = round.elapsed().as_secs_f64();
    }
    let arrived_total = plain.iter().map(|k| k.arrived as u64).sum::<u64>() + traced_arrived;

    // Simulated-time results: the model iterations alone, so that they are
    // a function of the seed and not of how many iterations the host fitted
    // into the run.
    let model = &plain[..model_iters];
    let over_model = |f: fn(&Kept) -> f64| model.iter().map(f).sum::<f64>() / model.len() as f64;
    let mut digest = Digest::default();
    model.iter().for_each(|k| digest.word(k.digest));
    report.digest = Some(digest.hex());
    report.attempted = arrived_total;
    // A request the model sheds or leaves unfinished is a result
    // (`ok_share`), not a failed operation; only an arrival the kernel
    // cannot account for is.
    report.failed = plain.iter().map(|k| k.unaccounted).sum();

    let violation_rate = over_model(|k| k.violation_rate);
    let fail_share = over_model(|k| k.fail_share);
    let wall_us_per_req = median(&plain.iter().map(|k| k.wall_us_per_req).collect::<Vec<_>>());
    let cpu_us_per_req = cpu_us as f64 / arrived_total as f64;

    report.set_extra("iterations", plain.len() as f64);
    report.set_extra("model_iterations", model.len() as f64);
    report.set_extra("model_requests", model.iter().map(|k| k.arrived as f64).sum());
    report.set_extra("tail_percentile", model[0].tail_percentile);
    report.set_extra("wall_us_per_req", wall_us_per_req);
    report.set_extra("reference_ms", reference.median_ms());
    report.set_extra("cpu_us_per_req", cpu_us_per_req);
    report.set_extra("fail_share", fail_share);
    report.set_extra("model_p99_ms", over_model(|k| k.p99_ms));
    report.set_extra("model_violation_rate", violation_rate);
    report.set_extra("model_utilization", over_model(|k| k.utilization));
    report.set_extra("peak_rss_mb", peak_rss_mb);
    let setup_s = report.set_setup_extras(&setups);

    if !traced {
        report.set("setup_s", setup_s);
        let scaled: Vec<f64> = plain.iter().map(|k| k.scaled_wall_us_per_req).collect();
        report.set("host_us_per_req", median(&scaled));
        report.set("cpu_us_per_req", cpu_us_per_req * reference.factor());
        report.set("peak_rss_mb", peak_rss_mb);
        report.set("latency_p50_ms", over_model(|k| k.p50_ms));
        report.set("latency_tail_ms", over_model(|k| k.tail_ms));
        report.set("slo_ok_share", 1.0 - violation_rate);
        report.set("ok_share", 1.0 - fail_share);
        return report;
    }

    // Timings are medians over the traced iterations after the counting
    // pair (over that pair alone when `--smoke` ran no other).
    let timed_from = usize::from(traced_walls.len() > 1);
    let mut sched_busy_us_per_req = 0.0;
    for g in Group::ALL {
        let busy =
            median(&traced_busy[timed_from..].iter().map(|b| b[g as usize]).collect::<Vec<_>>());
        report.set(&format!("sched.{}.busy_us_per_req", g.name()), busy);
        sched_busy_us_per_req += busy;
    }

    // The same seeded source as iteration 0, drained standalone.
    let mut cfg0 = cfg.clone();
    cfg0.seed = sub_seed(seed, 0);
    let mut source = arrival_source(&cfg0, &catalog);
    let span_start = now_ns();
    let t = Instant::now();
    let mut drained = 0usize;
    while let Some(a) = source.next_arrival() {
        black_box(a);
        drained += 1;
    }
    let source_us_per_req = t.elapsed().as_secs_f64() * 1e6 / drained.max(1) as f64;
    dump.push("workload.next_arrival.drain", span_start, now_ns(), None, None);
    report.check("workload.same_stream_standalone", drained == plain[0].arrived, || {
        format!("standalone source gave {drained} arrivals, the run saw {}", plain[0].arrived)
    });
    report.set("workload.next_arrival.busy_us_per_req", source_us_per_req);

    let traced_wall_us_per_req = median(&traced_walls[timed_from..]);
    let setup_us_per_req = (warm_ms + build_ms) * 1e3 / plain[0].arrived as f64;
    report.set(
        "engine.self_us_per_req",
        traced_wall_us_per_req - sched_busy_us_per_req - source_us_per_req - setup_us_per_req,
    );
    report.set("loadgen.reference_ms", reference.median_ms());
    report.set("engine.warm_profiles_ms", warm_ms);
    report.set("engine.build_scheduler_ms", build_ms);
    // Each traced run against its untraced twin, which ran just before
    // it: slow drift of a shared host cancels within a pair.
    report.set("trace_overhead_share", median(&traced_ratios[timed_from..]) - 1.0);
    report.set_extra("traced_pairs", traced_walls.len() as f64);
    report.set_extra("spans_dropped", spans_dropped as f64);

    match dump.write(workload) {
        Ok(path) => eprintln!("span dump: {} spans in {}", dump.len(), path.display()),
        Err(e) => report.check("span_dump.written", false, || e.to_string()),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM_WORKLOADS: [&str; 4] = ["sim_steady", "sim_peak", "sim_scale", "sim_storm"];

    #[test]
    fn every_workload_file_loads_validates_and_keeps_the_auditor_on() {
        for workload in SIM_WORKLOADS.iter().chain(&["live_open", "live_wire"]) {
            let cfg = load_config(workload, SCALE).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(cfg.auditor, "{workload}: the invariant auditor is on in every run");
            assert_eq!(cfg.scheme.name(), "vmlp", "{workload}: schemes are spec strings for v-MLP");
            Experiment::from_config(cfg).validate().unwrap_or_else(|e| panic!("{workload}: {e}"));
        }
    }

    #[test]
    fn scale_keeps_rates_and_shapes_and_shrinks_counts_and_durations() {
        let full = load_config("sim_storm", 1.0).unwrap();
        let quarter = load_config("sim_storm", 0.25).unwrap();
        assert_eq!((quarter.machines, quarter.shards), (full.machines, full.shards));
        assert_eq!(quarter.max_rate, full.max_rate);
        assert_eq!(quarter.faults.machine_crashes, full.faults.machine_crashes);
        assert_eq!(quarter.horizon_s, full.horizon_s / 4.0);
        assert_eq!(quarter.faults.storm_duration_ms, full.faults.storm_duration_ms / 4);
        assert_eq!(quarter.overload.surge_duration_s, full.overload.surge_duration_s / 4.0);
        let steady = load_config("sim_steady", 0.25).unwrap();
        assert_eq!(steady.max_requests, Some(75_000));
    }

    #[test]
    fn iteration_seeds_are_a_function_of_the_run_seed() {
        assert_eq!(sub_seed(2022, 3), sub_seed(2022, 3));
        assert_ne!(sub_seed(2022, 3), sub_seed(2022, 4));
        assert_ne!(sub_seed(2022, 3), sub_seed(2023, 3));
    }

    #[test]
    fn standalone_source_is_the_stream_the_experiment_sees() {
        let catalog = RequestCatalog::paper();
        for workload in ["sim_peak", "sim_storm"] {
            let mut cfg = load_config(workload, SMOKE_SCALE).unwrap();
            cfg.seed = sub_seed(7, 0);
            let mut source = arrival_source(&cfg, &catalog);
            let drained = std::iter::from_fn(|| source.next_arrival()).count();
            let result = Experiment::from_config(cfg).catalog(&catalog).run().unwrap();
            assert_eq!(drained, result.arrived, "{workload}");
        }
    }
}
