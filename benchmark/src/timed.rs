//! Per-layer timing taken from outside: a decorator around
//! `Box<dyn Scheduler>` that times every call the engine makes into the
//! scheduling layer and records a span for it. Nothing inside the program
//! under test is touched; the traced pass installs the decorator through
//! `SchedulerRegistry::register` (sim) or hands it to `run_live` (live).

use crate::host::now_ns;
use mlp_cluster::{MachineId, ShardPool};
use mlp_engine::{default_registry, RegistryEntry, SchedulerRegistry, SchemeSpec};
use mlp_sched::{
    HealingAction, LateInfo, NodeFailure, RequestInfo, RequestPlan, Scheduler, SchedulerCtx,
};
use mlp_sim::SimTime;
use mlp_trace::{RequestId, Span};
use std::cell::RefCell;

/// The scheduler callbacks, grouped by what they are for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// `on_arrival`.
    Arrival,
    /// `schedule` / `schedule_parallel`: the admission round.
    Schedule,
    /// `on_late_invocation`, `on_span_complete`, `on_node_ready`.
    Heal,
    /// `on_span_start`, `on_request_complete`, `on_node_skipped`.
    Lifecycle,
    /// `on_node_failure`, `on_machine_failure`, `on_request_abandoned`.
    Recover,
}

impl Group {
    pub const ALL: [Group; 5] =
        [Group::Arrival, Group::Schedule, Group::Heal, Group::Lifecycle, Group::Recover];

    pub fn name(self) -> &'static str {
        match self {
            Group::Arrival => "arrival",
            Group::Schedule => "schedule",
            Group::Heal => "heal",
            Group::Lifecycle => "lifecycle",
            Group::Recover => "recover",
        }
    }
}

/// One call in this many is timed in the `heal` and `lifecycle` groups.
/// They are called some nineteen times per request for 0.1–0.6 µs a call,
/// so two clock reads around every one of them cost more than the calls
/// and put a tenth on the traced run. Every call is still counted; busy
/// time is the timed calls' scaled by calls / timed; `max_us` is the
/// slowest *timed* call. `arrival`, `schedule` and `recover` are timed on
/// every call.
const SAMPLE_ONE_IN: u64 = 8;

/// Calls, busy time and slowest call of one group.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupStats {
    /// Every call, timed or not.
    pub calls: u64,
    /// The calls that were timed.
    pub timed: u64,
    /// Busy time of the timed calls.
    timed_busy_ns: u64,
    /// Slowest timed call.
    pub max_ns: u64,
}

impl GroupStats {
    /// Busy time of all calls, ns: measured where every call is timed,
    /// estimated from the timed share elsewhere.
    pub fn busy_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_busy_ns as f64 * self.calls as f64 / self.timed as f64
        }
    }
}

/// One call into a layer, as seen from outside it.
#[derive(Debug, Clone, Copy)]
pub struct CallSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request the call was about, when the callback names one.
    pub request: Option<u64>,
}

/// Spans kept per traced run; later calls are counted, not kept, so the
/// recorder's memory cannot disturb the run it measures.
pub const SPAN_CAP: usize = 100_000;

/// Everything the decorator learned about one run.
#[derive(Debug, Default)]
pub struct SchedTrace {
    groups: [GroupStats; 5],
    /// Plans returned by admission rounds.
    pub plans: u64,
    /// Admission rounds that returned no plan: work with nothing to show.
    pub empty_rounds: u64,
    /// Healing / recovery actions returned by the heal callbacks.
    pub heal_actions: u64,
    /// Largest waiting queue seen after an arrival or a round.
    pub waiting_peak: usize,
    pub spans: Vec<CallSpan>,
    pub spans_dropped: u64,
}

impl SchedTrace {
    pub fn group(&self, g: Group) -> GroupStats {
        self.groups[g as usize]
    }

    fn calls(&self) -> u64 {
        self.groups.iter().map(|g| g.calls).sum()
    }

    /// Counts one call; `start_ns` is `None` for a call that was not timed.
    fn record(
        &mut self,
        group: Group,
        name: &'static str,
        start_ns: Option<u64>,
        request: Option<u64>,
    ) {
        let end_ns = start_ns.map(|_| now_ns());
        let g = &mut self.groups[group as usize];
        g.calls += 1;
        let (Some(start_ns), Some(end_ns)) = (start_ns, end_ns) else { return };
        let dur = end_ns.saturating_sub(start_ns);
        g.timed += 1;
        g.timed_busy_ns += dur;
        g.max_ns = g.max_ns.max(dur);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(CallSpan { name, start_ns, end_ns, request });
        } else {
            self.spans_dropped += 1;
        }
    }
}

thread_local! {
    /// Where a registry-built decorator leaves its trace when the engine
    /// drops it at the end of `Experiment::run_full` (a registry `BuildFn`
    /// is a plain fn pointer and cannot carry a handle back to the caller).
    static LAST_TRACE: RefCell<Option<SchedTrace>> = const { RefCell::new(None) };
}

/// The trace of the last decorated scheduler dropped on this thread.
pub fn take_last_trace() -> Option<SchedTrace> {
    LAST_TRACE.with(|t| t.borrow_mut().take())
}

/// Times every call into the wrapped scheduler.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    trace: SchedTrace,
    /// State of the generator that picks which sampled-group calls are
    /// timed: fixed start, so the choice is the same in every run.
    lottery: u64,
}

impl TimedScheduler {
    pub fn new(inner: Box<dyn Scheduler>) -> Self {
        let trace = SchedTrace { spans: Vec::with_capacity(SPAN_CAP), ..SchedTrace::default() };
        TimedScheduler { inner, trace, lottery: 2022 }
    }

    /// The clock at the start of a call, when this call is to be timed.
    fn start(&mut self, group: Group) -> Option<u64> {
        let timed = match group {
            Group::Heal | Group::Lifecycle => {
                // Knuth's MMIX generator; the top bits are the good ones.
                self.lottery = self
                    .lottery
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (self.lottery >> 32).is_multiple_of(SAMPLE_ONE_IN)
            }
            Group::Arrival | Group::Schedule | Group::Recover => true,
        };
        timed.then(now_ns)
    }

    /// Moves the trace out (the live path owns its decorator and asks
    /// directly; the sim path goes through [`take_last_trace`]).
    pub fn take_trace(&mut self) -> SchedTrace {
        std::mem::take(&mut self.trace)
    }

    fn note_waiting(&mut self) {
        self.trace.waiting_peak = self.trace.waiting_peak.max(self.inner.waiting());
    }

    fn note_round(&mut self, plans: &[RequestPlan]) {
        self.trace.plans += plans.len() as u64;
        if plans.is_empty() {
            self.trace.empty_rounds += 1;
        }
        self.note_waiting();
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        // `Experiment::validate` builds and drops a scheduler that never
        // ran; only a decorator that saw calls has a trace worth keeping.
        if self.trace.calls() > 0 {
            let trace = self.take_trace();
            LAST_TRACE.with(|t| *t.borrow_mut() = Some(trace));
        }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_arrival(&mut self, req: RequestInfo, ctx: &mut SchedulerCtx<'_>) {
        let t = self.start(Group::Arrival);
        let id = req.id.0;
        self.inner.on_arrival(req, ctx);
        self.trace.record(Group::Arrival, "sched.on_arrival", t, Some(id));
        self.note_waiting();
    }

    fn schedule(&mut self, ctx: &mut SchedulerCtx<'_>) -> Vec<RequestPlan> {
        let t = self.start(Group::Schedule);
        let plans = self.inner.schedule(ctx);
        self.trace.record(Group::Schedule, "sched.schedule", t, None);
        self.note_round(&plans);
        plans
    }

    fn schedule_parallel(
        &mut self,
        ctx: &mut SchedulerCtx<'_>,
        pool: &ShardPool,
    ) -> Vec<RequestPlan> {
        let t = self.start(Group::Schedule);
        let plans = self.inner.schedule_parallel(ctx, pool);
        self.trace.record(Group::Schedule, "sched.schedule_parallel", t, None);
        self.note_round(&plans);
        plans
    }

    fn on_node_ready(
        &mut self,
        request: RequestId,
        node: usize,
        at: SimTime,
        ctx: &mut SchedulerCtx<'_>,
    ) {
        let t = self.start(Group::Heal);
        self.inner.on_node_ready(request, node, at, ctx);
        self.trace.record(Group::Heal, "sched.on_node_ready", t, Some(request.0));
    }

    fn on_span_start(&mut self, request: RequestId, node: usize, ctx: &mut SchedulerCtx<'_>) {
        let t = self.start(Group::Lifecycle);
        self.inner.on_span_start(request, node, ctx);
        self.trace.record(Group::Lifecycle, "sched.on_span_start", t, Some(request.0));
    }

    fn on_span_complete(&mut self, span: &Span, ctx: &mut SchedulerCtx<'_>) -> Vec<HealingAction> {
        let t = self.start(Group::Heal);
        let actions = self.inner.on_span_complete(span, ctx);
        self.trace.record(Group::Heal, "sched.on_span_complete", t, Some(span.request.0));
        self.trace.heal_actions += actions.len() as u64;
        actions
    }

    fn on_request_complete(&mut self, request: RequestId, ctx: &mut SchedulerCtx<'_>) {
        let t = self.start(Group::Lifecycle);
        self.inner.on_request_complete(request, ctx);
        self.trace.record(Group::Lifecycle, "sched.on_request_complete", t, Some(request.0));
    }

    fn on_late_invocation(
        &mut self,
        late: LateInfo,
        ctx: &mut SchedulerCtx<'_>,
    ) -> Vec<HealingAction> {
        let t = self.start(Group::Heal);
        let actions = self.inner.on_late_invocation(late, ctx);
        self.trace.record(Group::Heal, "sched.on_late_invocation", t, Some(late.request.0));
        self.trace.heal_actions += actions.len() as u64;
        actions
    }

    fn on_node_failure(
        &mut self,
        failure: NodeFailure,
        ctx: &mut SchedulerCtx<'_>,
    ) -> Vec<HealingAction> {
        let t = self.start(Group::Recover);
        let actions = self.inner.on_node_failure(failure, ctx);
        self.trace.record(Group::Recover, "sched.on_node_failure", t, Some(failure.request.0));
        actions
    }

    fn on_machine_failure(
        &mut self,
        machine: MachineId,
        orphans: &[(RequestId, usize)],
        ctx: &mut SchedulerCtx<'_>,
    ) -> Vec<HealingAction> {
        let t = self.start(Group::Recover);
        let actions = self.inner.on_machine_failure(machine, orphans, ctx);
        self.trace.record(Group::Recover, "sched.on_machine_failure", t, None);
        actions
    }

    fn on_request_abandoned(&mut self, request: RequestId, ctx: &mut SchedulerCtx<'_>) {
        let t = self.start(Group::Recover);
        self.inner.on_request_abandoned(request, ctx);
        self.trace.record(Group::Recover, "sched.on_request_abandoned", t, Some(request.0));
    }

    fn on_node_skipped(&mut self, request: RequestId, node: usize, ctx: &mut SchedulerCtx<'_>) {
        let t = self.start(Group::Lifecycle);
        self.inner.on_node_skipped(request, node, ctx);
        self.trace.record(Group::Lifecycle, "sched.on_node_skipped", t, Some(request.0));
    }

    fn waiting(&self) -> usize {
        self.inner.waiting()
    }
}

/// A registry that builds every workload scheme exactly as the default
/// one does, wrapped in a [`TimedScheduler`]. The workloads all run
/// `vmlp`; another scheme in a workload file fails here by name.
pub fn traced_registry() -> SchedulerRegistry {
    let vmlp = default_registry().resolve("vmlp").expect("vmlp is a built-in scheme").clone();
    let mut registry = SchedulerRegistry::empty();
    registry
        .register(RegistryEntry {
            build: |params, ctx| {
                let spec = SchemeSpec::with_params("vmlp", params.clone());
                let inner = default_registry().build(&spec, ctx.seed).map_err(|e| e.to_string())?;
                Ok(Box::new(TimedScheduler::new(inner)) as Box<dyn Scheduler>)
            },
            ..vmlp
        })
        .expect("one entry cannot collide");
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untimed_calls_are_counted_and_busy_time_is_scaled_to_all_calls() {
        let mut trace = SchedTrace::default();
        for _ in 0..7 {
            trace.record(Group::Heal, "sched.on_node_ready", None, None);
        }
        trace.record(Group::Heal, "sched.on_node_ready", Some(now_ns()), Some(3));
        let heal = trace.group(Group::Heal);
        assert_eq!((heal.calls, heal.timed), (8, 1));
        assert_eq!(heal.busy_ns(), heal.timed_busy_ns as f64 * 8.0);
        assert_eq!(trace.spans.len(), 1, "only a timed call leaves a span");
        assert_eq!(trace.group(Group::Schedule).busy_ns(), 0.0, "no calls, no time");
    }
}
