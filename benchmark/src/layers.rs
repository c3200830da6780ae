//! Per-layer metrics shared by the sim and live runners: what the timing
//! decorator, the ledger counters and the kernel's own metrics registry
//! say about one traced run, under the `<module>.<thing>` names of
//! `BENCHMARK.json`. `_per_req` divides by arrived requests.

use crate::report::RunReport;
use crate::timed::{CallSpan, Group, SchedTrace};
use mlp_cluster::ledger::query_stats::LedgerQueryStats;
use mlp_engine::sim::SimOutput;
use mlp_trace::metrics::names;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `sched.*`: calls, busy time and slowest call per callback group, plus
/// how much each admission round and heal callback produced.
pub fn sched_metrics(report: &mut RunReport, trace: &SchedTrace, arrived: u64) {
    let reqs = arrived as f64;
    for g in Group::ALL {
        let s = trace.group(g);
        let name = g.name();
        report.set(&format!("sched.{name}.calls_per_req"), ratio(s.calls as f64, reqs));
        report.set(&format!("sched.{name}.busy_us_per_req"), ratio(s.busy_ns() / 1e3, reqs));
        report.set(&format!("sched.{name}.max_us"), s.max_ns as f64 / 1e3);
    }
    let rounds = trace.group(Group::Schedule).calls as f64;
    report.set("sched.schedule.plans_per_call", ratio(trace.plans as f64, rounds));
    report.set("sched.schedule.empty_share", ratio(trace.empty_rounds as f64, rounds));
    let heals = trace.group(Group::Heal).calls as f64;
    report.set("sched.heal.actions_per_call", ratio(trace.heal_actions as f64, heals));
    report.set("sched.waiting.peak", trace.waiting_peak as f64);
}

/// `cluster.ledger.*`: exact operation counts from `ledger::query_stats`.
pub fn ledger_metrics(report: &mut RunReport, q: LedgerQueryStats, arrived: u64) {
    let reqs = arrived as f64;
    report.set("cluster.ledger.earliest_fit_per_req", ratio(q.earliest_fit as f64, reqs));
    report.set("cluster.ledger.peak_usage_per_req", ratio(q.peak_usage as f64, reqs));
    report.set("cluster.ledger.usage_at_per_req", ratio(q.usage_at as f64, reqs));
    report.set("cluster.ledger.writes_per_req", ratio(q.writes as f64, reqs));
}

/// `core.*`, `overload.*`, `faults.*`, `trace.*` and the kernel gauges:
/// exact counts the kernel published, which a pure speed-up must not move.
pub fn kernel_metrics(report: &mut RunReport, out: &SimOutput) {
    let reqs = out.arrived as f64;
    let counter = |name: &str| out.metrics.counter(name) as f64;
    let gauge = |name: &str| out.metrics.gauge(name).unwrap_or(0.0);

    report.set("cluster.ledger.timeline_max", gauge(names::LEDGER_TIMELINE_MAX));
    report.set("cluster.shard_overflows", counter(names::SHARD_OVERFLOWS));

    report.set("core.delay_slot_fills_per_req", ratio(counter(names::DELAY_SLOT_FILLS), reqs));
    report.set("core.stretches_per_req", ratio(counter(names::RESOURCE_STRETCHES), reqs));
    report.set("core.late_invocations_per_req", ratio(counter(names::LATE_INVOCATIONS), reqs));
    report.set("core.queue_switches", counter(names::QUEUE_SWITCHES));
    report.set("core.index_invalidations", counter(names::INDEX_INVALIDATIONS));

    report.set("overload.shed_requests", out.shed_requests as f64);
    report.set("overload.branch_sheds", counter(names::OVERLOAD_BRANCH_SHEDS));
    report.set("overload.retries_denied", counter(names::OVERLOAD_RETRIES_DENIED));
    report.set("overload.breaker_opens", gauge(names::BREAKER_OPENS));

    report.set("faults.machine_crashes", counter(names::MACHINE_CRASHES));
    report.set("faults.crash_replans", counter(names::CRASH_REPLANS));
    report.set("faults.node_failures", counter(names::NODE_FAILURES));
    report.set("faults.retries", counter(names::RETRIES));
    report.set("faults.abandons", counter(names::ABANDONS));
    report.set("faults.mttr_ms", gauge(names::MTTR_MS));

    report.set("engine.request_table_peak", out.request_table_peak as f64);
    report.set("engine.model_utilization", out.utilization.mean());

    let decisions = out.audit.len() as f64 + out.audit.dropped() as f64;
    report.set("trace.decisions_per_req", ratio(decisions, reqs));
    report.set("trace.invariant_violations", counter(names::INVARIANT_VIOLATIONS));
}

/// Checks every run makes of the kernel's output: the auditor stayed
/// silent and every arrival is accounted for.
pub fn kernel_checks(report: &mut RunReport, tag: &str, out: &SimOutput) {
    let violations = out.metrics.counter(names::INVARIANT_VIOLATIONS);
    report.check(
        &format!("{tag}.auditor_silent"),
        violations == 0 && out.invariant_report.is_none(),
        || format!("{violations} violations; first: {:?}", out.invariant_report),
    );
    let completed = out.collector.completed();
    report.check(&format!("{tag}.conservation"), out.arrived == completed + out.unfinished, || {
        format!("arrived {} != completed {completed} + unfinished {}", out.arrived, out.unfinished)
    });
}

/// The in-memory span store of a traced run, written out once at the end.
#[derive(Debug, Default)]
pub struct SpanDump {
    spans: Vec<DumpedSpan>,
}

#[derive(Debug)]
struct DumpedSpan {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: Option<u64>,
}

impl SpanDump {
    /// Adds one span and returns its id (its line number).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        self.spans.push(DumpedSpan { name, start_ns, end_ns, parent, request });
        self.spans.len() - 1
    }

    /// Adds the decorator's call spans as children of `parent`.
    pub fn push_calls(&mut self, calls: &[CallSpan], parent: usize) {
        for c in calls {
            self.push(c.name, c.start_ns, c.end_ns, Some(parent), c.request);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes `benchmark/out/<workload>.spans.jsonl` under the current
    /// directory (the checkout root) and returns the path.
    pub fn write(&self, workload: &str) -> io::Result<PathBuf> {
        let dir = PathBuf::from("benchmark/out");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}.spans.jsonl"));
        let mut w = BufWriter::new(fs::File::create(&path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"request\":{}}}",
                opt(s.parent.map(|p| p as u64)),
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                opt(s.request),
            )?;
        }
        w.flush()?;
        Ok(path)
    }
}
