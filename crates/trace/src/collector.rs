//! Trace collection and end-to-end request accounting.
//!
//! Every span and request is folded once, on arrival, into exact counts
//! and sums: completions (overall, in-horizon, SLO-compliant in-horizon),
//! violations overall and per class, breakdown sums, and late/capped span
//! counts. The retention mode decides only where latency quantiles come
//! from:
//!
//! * **exact** (the default, [`TraceCollector::new`]): every [`Span`] and
//!   [`RequestRecord`] is also kept, and quantiles come from an exact CDF
//!   over the records, so fixed-seed figure runs stay byte-identical.
//!   Memory is O(total requests).
//! * **streaming** ([`TraceCollector::streaming`]): records are dropped and
//!   a Welford mean plus P² quantile markers stand in for the CDF. Memory
//!   is O(1), which is what lets a soak run push millions of requests
//!   through a laptop.

use crate::span::{RequestId, Span};
use mlp_model::{RequestTypeId, VolatilityClass};
use mlp_sim::{SimDuration, SimTime};
use mlp_stats::{Cdf, P2Quantile, Summary};
use serde::{Deserialize, Serialize};

/// Critical-path decomposition of one request's end-to-end latency.
///
/// The engine walks the request's critical chain (the dependency path that
/// actually gated completion) and attributes every microsecond of
/// `end − arrival` to exactly one bucket, so the first five components
/// telescope to the measured latency ([`Self::total_ms`]). `healed_ms` is
/// informational — wall-clock the self-healing module reclaimed (it is
/// already absent from the other components, not part of the sum).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Waiting before admission / before a dependency-ready node was
    /// planned to run.
    pub queue_ms: f64,
    /// Scheduler-chosen delay between physical readiness and planned
    /// start (ledger alignment).
    pub placement_ms: f64,
    /// Caller→callee communication on the critical chain.
    pub comm_ms: f64,
    /// Pure execution time (what the spans would have taken uncapped).
    pub exec_ms: f64,
    /// Extra execution time caused by resource capping.
    pub cap_ms: f64,
    /// Wall-clock reclaimed by healing stretches (informational).
    pub healed_ms: f64,
}

impl LatencyBreakdown {
    /// Sum of the attributed components — equals the measured end-to-end
    /// latency (`healed_ms` excluded; it is already reflected in the
    /// shortened execution the other components measure).
    pub fn total_ms(&self) -> f64 {
        self.queue_ms + self.placement_ms + self.comm_ms + self.exec_ms + self.cap_ms
    }
}

/// End-to-end record of one finished request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Request instance.
    pub id: RequestId,
    /// Its type.
    pub request_type: RequestTypeId,
    /// Volatility class of the type (denormalized for cheap filtering).
    pub class: VolatilityClass,
    /// Arrival time.
    pub arrival: SimTime,
    /// Completion time.
    pub end: SimTime,
    /// SLO for this request, ms.
    pub slo_ms: f64,
    /// Critical-path latency attribution (absent in traces recorded
    /// before the field existed).
    #[serde(default)]
    pub breakdown: Option<LatencyBreakdown>,
}

impl RequestRecord {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.end.since(self.arrival)
    }

    /// Whether the request violated its SLO (the QoS metric of Fig 10).
    pub fn violated(&self) -> bool {
        self.latency().as_millis_f64() > self.slo_ms
    }
}

/// Collects spans and request completions for one simulation run and
/// answers the questions the evaluation section asks: latency
/// distributions (Fig 12), tail latency (Fig 13), QoS-violation rates
/// (Fig 10), throughput (Fig 14), and lateness diagnostics.
#[derive(Debug, Clone)]
pub struct TraceCollector {
    /// Completions at or before this instant count as in-horizon.
    horizon: SimTime,
    tally: Tally,
    spans: Vec<Span>,
    requests: Vec<RequestRecord>,
    /// Streaming-mode latency estimators; `None` means exact mode (retain
    /// every record).
    sketch: Option<Box<Sketch>>,
}

impl TraceCollector {
    /// Creates an empty collector in exact mode (every record retained),
    /// counting completions at or before `horizon` as in-horizon (the
    /// throughput numerator).
    pub fn new(horizon: SimTime) -> Self {
        TraceCollector {
            horizon,
            tally: Tally::default(),
            spans: Vec::new(),
            requests: Vec::new(),
            sketch: None,
        }
    }

    /// Creates a collector in streaming mode: counts are folded as in
    /// [`new`](Self::new), but records are dropped and latency quantiles
    /// come from P² estimators. Record-level queries
    /// ([`spans`](Self::spans), [`requests`](Self::requests),
    /// [`completed_where`](Self::completed_where), [`latency_cdf`](Self::latency_cdf))
    /// see nothing in this mode.
    pub fn streaming(horizon: SimTime) -> Self {
        TraceCollector { sketch: Some(Box::new(Sketch::new())), ..TraceCollector::new(horizon) }
    }

    /// Whether this collector folds instead of retains.
    pub fn is_streaming(&self) -> bool {
        self.sketch.is_some()
    }

    /// Records one completed span.
    pub fn record_span(&mut self, span: Span) {
        let t = &mut self.tally;
        t.spans += 1;
        if span.was_late() {
            t.spans_late += 1;
            t.lateness_sum_ms += span.lateness().as_millis_f64();
        }
        if span.was_capped() {
            t.spans_capped += 1;
        }
        if self.sketch.is_none() {
            self.spans.push(span);
        }
    }

    /// Records one completed request.
    pub fn record_request(&mut self, rec: RequestRecord) {
        let t = &mut self.tally;
        let violated = rec.violated();
        let class = class_idx(rec.class);
        t.completed += 1;
        t.class_completed[class] += 1;
        if rec.end <= self.horizon {
            t.completed_in_horizon += 1;
            if !violated {
                t.good_in_horizon += 1;
            }
        }
        if violated {
            t.violated += 1;
            t.class_violated[class] += 1;
        }
        if let Some(b) = &rec.breakdown {
            t.breakdown_sum.queue_ms += b.queue_ms;
            t.breakdown_sum.placement_ms += b.placement_ms;
            t.breakdown_sum.comm_ms += b.comm_ms;
            t.breakdown_sum.exec_ms += b.exec_ms;
            t.breakdown_sum.cap_ms += b.cap_ms;
            t.breakdown_sum.healed_ms += b.healed_ms;
            t.breakdown_n += 1;
        }
        match &mut self.sketch {
            Some(s) => s.record(rec.latency().as_millis_f64(), class),
            None => self.requests.push(rec),
        }
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All completed requests.
    pub fn requests(&self) -> &[RequestRecord] {
        &self.requests
    }

    /// Number of completed requests.
    pub fn completed(&self) -> usize {
        self.tally.completed
    }

    /// Completions at or before the horizon (Fig 14's throughput
    /// numerator: "the number of finished requests within certain
    /// scheduling period").
    pub fn completed_in_horizon(&self) -> usize {
        self.tally.completed_in_horizon
    }

    /// In-horizon completions that also met their SLO (goodput).
    pub fn good_in_horizon(&self) -> usize {
        self.tally.good_in_horizon
    }

    /// Completed-and-violated count (excludes unfinished requests, which
    /// the engine accounts separately).
    pub fn violated(&self) -> usize {
        self.tally.violated
    }

    /// Number of retained completed requests matching a predicate.
    pub fn completed_where(&self, mut pred: impl FnMut(&RequestRecord) -> bool) -> usize {
        self.requests.iter().filter(|r| pred(r)).count()
    }

    /// Mean critical-path latency attribution over completed requests that
    /// carry a breakdown. `None` when no request has one (attribution off
    /// or no completions).
    pub fn mean_breakdown(&self) -> Option<LatencyBreakdown> {
        let t = &self.tally;
        if t.breakdown_n == 0 {
            return None;
        }
        let inv = 1.0 / t.breakdown_n as f64;
        let sum = &t.breakdown_sum;
        Some(LatencyBreakdown {
            queue_ms: sum.queue_ms * inv,
            placement_ms: sum.placement_ms * inv,
            comm_ms: sum.comm_ms * inv,
            exec_ms: sum.exec_ms * inv,
            cap_ms: sum.cap_ms * inv,
            healed_ms: sum.healed_ms * inv,
        })
    }

    /// Fraction of completed requests that violated their SLO, optionally
    /// restricted to one volatility class.
    pub fn violation_rate(&self, class: Option<VolatilityClass>) -> f64 {
        let t = &self.tally;
        let (total, bad) = match class {
            None => (t.completed, t.violated),
            Some(c) => (t.class_completed[class_idx(c)], t.class_violated[class_idx(c)]),
        };
        ratio(bad, total)
    }

    /// Latency CDF (ms) over the retained records, optionally restricted to
    /// one volatility class.
    pub fn latency_cdf(&self, class: Option<VolatilityClass>) -> Cdf {
        let mut cdf = Cdf::new();
        for r in &self.requests {
            if class.is_none_or(|c| r.class == c) {
                cdf.record(r.latency().as_millis_f64());
            }
        }
        cdf
    }

    /// The `p`-percentile latency in ms (e.g. 99.0 for the tail of Fig 13);
    /// `None` when no matching requests completed. Streaming mode answers
    /// from its P² estimators, which track p50/p90/p99 overall and p99 per
    /// class; other combinations return `None` there.
    pub fn latency_percentile(&self, p: f64, class: Option<VolatilityClass>) -> Option<f64> {
        match &self.sketch {
            Some(s) => s.percentile(p, class),
            None => self.latency_cdf(class).percentile(p),
        }
    }

    /// Overall latency percentiles `[p50, p90, p99]` and mean latency, all
    /// in ms and 0 when nothing completed: exact over the retained records,
    /// P² estimates and a Welford mean in streaming mode.
    pub fn latency_summary(&self) -> ([f64; 3], f64) {
        match &self.sketch {
            Some(s) => {
                let ps = [&s.p50, &s.p90, &s.p99].map(|q| q.estimate().unwrap_or(0.0));
                let mean = if s.latency.count() == 0 { 0.0 } else { s.latency.mean() };
                (ps, mean)
            }
            None => {
                let mut cdf = self.latency_cdf(None);
                let ps = [50.0, 90.0, 99.0].map(|p| cdf.percentile(p).unwrap_or(0.0));
                (ps, cdf.mean())
            }
        }
    }

    /// Fraction of spans that started later than planned, and their mean
    /// lateness (ms) — how disturbed the schedule was.
    pub fn lateness_stats(&self) -> (f64, f64) {
        let t = &self.tally;
        let mean = if t.spans_late == 0 { 0.0 } else { t.lateness_sum_ms / t.spans_late as f64 };
        (ratio(t.spans_late, t.spans), mean)
    }

    /// Fraction of spans that ran resource-capped (contention indicator).
    pub fn capped_fraction(&self) -> f64 {
        ratio(self.tally.spans_capped, self.tally.spans)
    }
}

fn class_idx(c: VolatilityClass) -> usize {
    match c {
        VolatilityClass::Low => 0,
        VolatilityClass::Mid => 1,
        VolatilityClass::High => 2,
    }
}

/// `part / whole`, or 0 for an empty whole.
fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Exact counts and sums over every folded record, kept in both modes.
/// Each is accumulated in record order, so it equals a rescan of the
/// retained records bit for bit.
#[derive(Debug, Clone, Default)]
struct Tally {
    completed: usize,
    completed_in_horizon: usize,
    good_in_horizon: usize,
    violated: usize,
    class_completed: [usize; 3],
    class_violated: [usize; 3],
    breakdown_sum: LatencyBreakdown,
    breakdown_n: usize,
    spans: usize,
    spans_late: usize,
    lateness_sum_ms: f64,
    spans_capped: usize,
}

/// Constant-memory latency estimators: what a streaming-mode collector
/// keeps instead of the records. The mean is Welford's update inside
/// [`Summary`]; quantiles are P² five-marker estimates (Jain & Chlamtac
/// 1985).
#[derive(Debug, Clone)]
struct Sketch {
    latency: Summary,
    p50: P2Quantile,
    p90: P2Quantile,
    p99: P2Quantile,
    class_p99: [P2Quantile; 3],
}

impl Sketch {
    fn new() -> Self {
        Sketch {
            latency: Summary::new(),
            p50: P2Quantile::new(0.50),
            p90: P2Quantile::new(0.90),
            p99: P2Quantile::new(0.99),
            class_p99: std::array::from_fn(|_| P2Quantile::new(0.99)),
        }
    }

    fn record(&mut self, latency_ms: f64, class: usize) {
        self.latency.record(latency_ms);
        self.p50.record(latency_ms);
        self.p90.record(latency_ms);
        self.p99.record(latency_ms);
        self.class_p99[class].record(latency_ms);
    }

    fn percentile(&self, p: f64, class: Option<VolatilityClass>) -> Option<f64> {
        let near = |q: f64| (p - q).abs() < 1e-9;
        let est = match class {
            None if near(50.0) => &self.p50,
            None if near(90.0) => &self.p90,
            None if near(99.0) => &self.p99,
            Some(c) if near(99.0) => &self.class_p99[class_idx(c)],
            _ => return None,
        };
        est.estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_cluster::MachineId;
    use mlp_model::ServiceId;

    fn req(
        id: u64,
        class: VolatilityClass,
        arrival_ms: u64,
        end_ms: u64,
        slo: f64,
    ) -> RequestRecord {
        RequestRecord {
            id: RequestId(id),
            request_type: RequestTypeId(0),
            class,
            arrival: SimTime::from_millis(arrival_ms),
            end: SimTime::from_millis(end_ms),
            slo_ms: slo,
            breakdown: None,
        }
    }

    fn span(service: u32, start: u64, end: u64, planned: u64, sat: f64) -> Span {
        Span {
            request: RequestId(0),
            request_type: RequestTypeId(0),
            service: ServiceId(service),
            dag_node: 0,
            machine: MachineId(0),
            planned_start: SimTime::from_millis(planned),
            start: SimTime::from_millis(start),
            end: SimTime::from_millis(end),
            satisfaction: sat,
        }
    }

    #[test]
    fn violation_rate_by_class() {
        let mut c = TraceCollector::new(SimTime::ZERO);
        c.record_request(req(1, VolatilityClass::High, 0, 100, 50.0)); // violated
        c.record_request(req(2, VolatilityClass::High, 0, 30, 50.0)); // ok
        c.record_request(req(3, VolatilityClass::Low, 0, 10, 50.0)); // ok
        assert!((c.violation_rate(None) - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.violation_rate(Some(VolatilityClass::High)) - 0.5).abs() < 1e-12);
        assert_eq!(c.violation_rate(Some(VolatilityClass::Low)), 0.0);
        assert_eq!(c.violation_rate(Some(VolatilityClass::Mid)), 0.0);
    }

    #[test]
    fn latency_percentiles() {
        let mut c = TraceCollector::new(SimTime::ZERO);
        for i in 1..=100u64 {
            c.record_request(req(i, VolatilityClass::Mid, 0, i, 1e9));
        }
        assert_eq!(c.latency_percentile(50.0, None), Some(50.0));
        assert_eq!(c.latency_percentile(99.0, None), Some(99.0));
        assert_eq!(c.latency_percentile(99.0, Some(VolatilityClass::High)), None);
        assert_eq!(c.latency_summary(), ([50.0, 90.0, 99.0], 50.5));
    }

    #[test]
    fn lateness_and_capping() {
        let mut c = TraceCollector::new(SimTime::ZERO);
        c.record_span(span(1, 10, 20, 10, 1.0)); // on time, uncapped
        c.record_span(span(1, 15, 30, 10, 0.5)); // 5ms late, capped
        c.record_span(span(2, 8, 20, 10, 1.0)); // early
        let (frac, mean) = c.lateness_stats();
        assert!((frac - 1.0 / 3.0).abs() < 1e-12);
        assert!((mean - 5.0).abs() < 1e-12);
        assert!((c.capped_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_collector_is_calm() {
        let c = TraceCollector::new(SimTime::ZERO);
        assert_eq!(c.completed(), 0);
        assert_eq!(c.violation_rate(None), 0.0);
        assert_eq!(c.lateness_stats(), (0.0, 0.0));
        assert_eq!(c.capped_fraction(), 0.0);
        assert_eq!(c.latency_percentile(50.0, None), None);
        assert_eq!(c.latency_summary(), ([0.0; 3], 0.0));
        assert_eq!(TraceCollector::streaming(SimTime::ZERO).latency_summary(), ([0.0; 3], 0.0));
    }

    /// Feeds the same records through both modes and checks the streaming
    /// aggregates agree with the exact answers (exactly for counts and
    /// means, approximately for P² quantiles).
    #[test]
    fn streaming_mode_matches_exact_aggregates() {
        let horizon = SimTime::from_millis(60);
        let mut exact = TraceCollector::new(horizon);
        let mut stream = TraceCollector::streaming(horizon);
        for i in 1..=200u64 {
            let class = match i % 3 {
                0 => VolatilityClass::Low,
                1 => VolatilityClass::Mid,
                _ => VolatilityClass::High,
            };
            let mut r = req(i, class, 0, i % 100, 50.0);
            r.breakdown = Some(LatencyBreakdown {
                queue_ms: 1.0,
                placement_ms: 2.0,
                comm_ms: 3.0,
                exec_ms: (i % 100) as f64 - 6.0,
                cap_ms: 0.0,
                healed_ms: 0.5,
            });
            exact.record_request(r);
            stream.record_request(r);
            let s = span(
                1,
                10,
                20,
                if i % 4 == 0 { 5 } else { 10 },
                if i % 5 == 0 { 0.5 } else { 1.0 },
            );
            exact.record_span(s);
            stream.record_span(s);
        }
        assert!(stream.is_streaming() && !exact.is_streaming());
        assert_eq!(stream.completed(), exact.completed());
        assert_eq!(stream.violation_rate(None), exact.violation_rate(None));
        for c in [VolatilityClass::Low, VolatilityClass::Mid, VolatilityClass::High] {
            assert_eq!(stream.violation_rate(Some(c)), exact.violation_rate(Some(c)));
        }
        assert_eq!(stream.lateness_stats(), exact.lateness_stats());
        assert_eq!(stream.capped_fraction(), exact.capped_fraction());
        assert_eq!(stream.mean_breakdown(), exact.mean_breakdown());
        for c in [&exact, &stream] {
            assert_eq!(
                c.completed_in_horizon(),
                exact.completed_where(|r| r.end <= horizon),
                "horizon split must be exact"
            );
            assert_eq!(
                c.good_in_horizon(),
                exact.completed_where(|r| r.end <= horizon && !r.violated())
            );
            assert_eq!(c.violated(), exact.completed_where(|r| r.violated()));
        }
        let ((ep, exact_mean), (sp, stream_mean)) =
            (exact.latency_summary(), stream.latency_summary());
        assert!((stream_mean - exact_mean).abs() < 1e-9, "Welford mean must be exact");
        // P² estimates: approximate, but close on a smooth distribution.
        assert_eq!(ep[0], exact.latency_percentile(50.0, None).unwrap());
        assert_eq!(sp[0], stream.latency_percentile(50.0, None).unwrap());
        assert!((sp[0] - ep[0]).abs() < 10.0, "p50 stream {} vs exact {}", sp[0], ep[0]);
        // Streaming retains no records.
        assert!(stream.requests().is_empty() && stream.spans().is_empty());
    }
}
