//! Sampling-tick bookkeeping: utilization series, reservation-ledger
//! pruning, and the gauges long runs assert on (retained ledger
//! breakpoints, request-table occupancy), plus the per-shard peak loads
//! the epilogue publishes.

use super::*;
use mlp_sched::pressure_signal;
use mlp_trace::metrics::names;
use mlp_trace::{Decision, DecisionKind};

impl<'c, D: Driver> Sim<'c, D> {
    /// One `Event::Sample` tick's telemetry work. Ordering matters for
    /// byte-identity with the historical engine: utilization first, then
    /// ledger pruning, then gauge publication (gauges never feed back into
    /// scheduling, but the prune does — it bounds what window queries can
    /// see — so it runs before the admission round the kernel issues
    /// right after this). `waiting` is the scheduler's admission-queue
    /// depth, sampled by the kernel before handing control here; it feeds
    /// the overload pressure signal.
    pub(super) fn on_sample(&mut self, now: SimTime, waiting: usize) {
        if now <= self.horizon {
            self.utilization.push(self.cluster.utilization());
        }
        // Prune to the `LEDGER_RETENTION_S` window. Long runs assert on the
        // cluster's largest timeline (a high-water mark across ticks) and
        // the per-tick total to prove retained breakpoints stay bounded.
        let cutoff = now.saturating_sub(SimDuration::from_secs_f64(LEDGER_RETENTION_S));
        let (mut total, mut largest) = (0usize, 0usize);
        for m in self.cluster.machines_mut() {
            m.ledger.prune_before(cutoff);
            let len = m.ledger.timeline_len();
            total += len;
            largest = largest.max(len);
        }
        let max_seen =
            self.metrics.gauge(names::LEDGER_TIMELINE_MAX).unwrap_or(0.0).max(largest as f64);
        self.metrics.set_gauge(names::LEDGER_TIMELINE_MAX, max_seen);
        self.metrics.set_gauge(names::LEDGER_TIMELINE_TOTAL, total as f64);
        // Request-table occupancy: the soak benchmark asserts the peak
        // plateaus (memory tracks the in-flight window, not arrivals).
        self.metrics.set_gauge(names::REQUEST_TABLE_PEAK, self.table.peak() as f64);
        // Per-shard utilization high-water marks, only when actually
        // sharded: scale runs watch whether load stays balanced across
        // shards or piles up in a few. Kept here and published as gauges
        // once, when the run ends.
        let shards = self.cluster.shard_count();
        if shards > 1 {
            self.shard_peaks.resize(shards, 0.0);
            for (s, peak) in self.shard_peaks.iter_mut().enumerate() {
                let util = self.cluster.shard_utilization(mlp_cluster::ShardId(s as u32));
                *peak = peak.max(util);
            }
        }
        self.overload_tick(now, waiting);
    }

    /// Overload-resilience sampling: compute the pressure signal, advance
    /// the brownout controller and breaker cooldown clocks, publish the
    /// gauges, and drain newly recorded breaker transitions into the
    /// decision-audit log. No-op when overload is disabled (the runtime is
    /// never constructed), so overload-off runs stay byte-identical.
    fn overload_tick(&mut self, now: SimTime, waiting: usize) {
        // Queue component: total in-system backlog (admission queue plus
        // live admitted requests), matching what the admission gate sees.
        // Load component: cluster utilization mapped onto a nominal
        // in-flight scale — `pressure_signal` clamps both terms, so the
        // exact scale only needs to be monotone in utilization.
        let util = self.cluster.utilization();
        let backlog = waiting + self.table.live();
        let Some(o) = self.overload.as_mut() else { return };
        let pressure =
            pressure_signal(backlog, o.cfg.max_queue_depth, (util * 1000.0) as usize, 1000);
        let (tier_move, _transitions) = o.on_tick(now, pressure);
        self.metrics.set_gauge(names::OVERLOAD_PRESSURE, pressure);
        self.metrics.set_gauge(names::BROWNOUT_TIER, o.brownout.tier() as f64);
        self.metrics.set_gauge(names::BREAKER_OPEN_CIRCUITS, o.breakers.open_count() as f64);
        self.metrics.set_gauge(names::RETRY_TOKENS, o.budget.tokens_available());
        if let Some((from, to)) = tier_move {
            self.audit.record(
                Decision::new(now, DecisionKind::Brownout, "pressure-tier-change")
                    .rank(from as f64)
                    .value(to as f64),
            );
        }
        // Breaker transitions accumulate in the bank (from gate calls and
        // success/failure recording as well as the tick above); mirror any
        // new ones into the audit log exactly once.
        let all = o.breakers.transitions();
        for t in &all[self.breaker_log_cursor..] {
            use mlp_sched::BreakerState as B;
            let reason = match (t.from, t.to) {
                (B::Closed, B::Open) => "tripped-open",
                (B::Open, B::HalfOpen) => "cooldown-half-open",
                (B::HalfOpen, B::Open) => "probe-failed",
                (B::HalfOpen, B::Closed) => "probes-recovered",
                _ => "illegal-transition",
            };
            self.audit.record(
                Decision::new(t.at, DecisionKind::BreakerTransition, reason)
                    .value(t.service.0 as f64),
            );
        }
        self.breaker_log_cursor = all.len();
    }
}
