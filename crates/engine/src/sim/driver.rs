//! The clock abstraction: what "next" means is the only difference
//! between a simulator and a server.
//!
//! The kernel (event application, admission rounds, lifecycle, auditing)
//! is mode-agnostic: it consumes a stream of [`Step`]s — arrivals and due
//! events — and schedules future events back through the same interface.
//! *Where* those steps come from is the [`Driver`]'s business:
//!
//! * [`SimDriver`] — the historical virtual clock. Events sit in a
//!   deterministic priority queue, arrivals are pulled lazily from an
//!   [`ArrivalSource`] and interleaved by timestamp (the arrival wins
//!   ties, reproducing the dense engine's ordering exactly), and time
//!   jumps discontinuously from one timestamp to the next. Fixed-seed
//!   runs through this driver are byte-identical to the pre-split
//!   engine: the interleave logic moved here verbatim, and pulling the
//!   *next* arrival before (rather than after) the kernel processes the
//!   current one is unobservable because the source owns its own RNG.
//!
//! * [`LiveDriver`] — a monotonic wall-clock tick loop. `SimTime` is
//!   reinterpreted as "microseconds since the server epoch"; events the
//!   kernel schedules become timer expirations that fire when the wall
//!   clock catches up, and arrivals are real submissions received over a
//!   channel from the serve front door. Nothing here is deterministic —
//!   live mode gates on the invariant auditor instead of byte-identity.
//!
//! **How the live driver sleeps.** Between steps it blocks on the
//! submission channel until the next timer is due (capped at the poll
//! window). Linux lets such a wait end up to the thread's timer slack
//! (50 µs by default) late, which batches wake-ups. Most timers only move
//! the model along and keep that slack, but the one that finishes a
//! request is where a client waits. So a wait for a timer the kernel's
//! `emits_outcome` predicate marks runs at a 1 ns slack: the timer
//! slack is a per-wait decision, not a thread setting. A 1 ns slack on
//! every wait was measured too (the benchmark's `live_open` workload on a
//! 2-core VM): it wakes the thread nearly once per timer, 10.9 sleeps per
//! request instead of 6.7, and costs about a quarter more CPU per
//! request. Once every submission sender has hung up, the driver sleeps
//! out its waits instead of polling a channel that returns at once.

use super::Event;
use crate::live::Submission;
use mlp_sim::{EventQueue, SimTime};
use mlp_workload::{Arrival, ArrivalSource};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One unit of kernel work, as decided by the driver.
pub(crate) enum Step {
    /// A request arrival. The second field is the live submission token
    /// (`None` in sim mode): the kernel maps it to the request id it is
    /// about to assign so completion outcomes can find their way back to
    /// the waiting connection.
    Arrival(Arrival, Option<u64>),
    /// A scheduled event came due at its fire time.
    Event(SimTime, Event),
    /// Live mode only: the poll window elapsed with nothing due. Gives
    /// the kernel a chance to observe the shutdown flag between waits.
    Idle,
    /// The run is over: stream exhausted / horizon passed (sim) or
    /// shutdown drained (live).
    Done,
}

/// The mode boundary: virtual-time simulation vs wall-clock serving.
pub(crate) trait Driver {
    /// Queues `ev` to fire at absolute time `at`.
    fn schedule(&mut self, at: SimTime, ev: Event);

    /// Produces the next unit of work. `next_request_id` is the id the
    /// kernel will assign to the arrival this call may return (live
    /// drivers publish it to the response plumbing); `live_requests` is
    /// the kernel's count of admitted-or-queued work (live drivers use it
    /// to decide when a drain is complete); `emits_outcome` tells whether
    /// a queued event, applied now, would finish its request (live
    /// drivers wake precisely for such a timer).
    fn next_step(
        &mut self,
        next_request_id: u64,
        live_requests: usize,
        emits_outcome: impl Fn(&Event) -> bool,
    ) -> Step;

    /// Whether undelivered work remains inside the driver (queued events
    /// beyond the one being processed, or a pending arrival). Feeds the
    /// kernel's decision to keep the sampling tick alive.
    fn has_pending(&self) -> bool;

    /// True when the driver runs its own shutdown/drain protocol (live
    /// mode). When false, the kernel honors the process-wide
    /// [`shutdown`](crate::shutdown) flag at sampling-tick boundaries by
    /// ending the run itself.
    fn handles_shutdown(&self) -> bool {
        false
    }
}

/// The virtual clock: today's priority-queue event loop, byte-identical
/// at fixed seed to the pre-split engine.
pub(crate) struct SimDriver<'s> {
    queue: EventQueue<Event>,
    source: &'s mut dyn ArrivalSource,
    /// The next arrival pulled from the source but not yet delivered
    /// (lookahead for timestamp interleaving with queued events).
    pending: Option<Arrival>,
    /// Hard wall on simulated time (`horizon × DRAIN_FACTOR`).
    hard_cap: SimTime,
}

impl<'s> SimDriver<'s> {
    /// The event queue starts with room for 4096 events: it only ever
    /// holds the in-flight window, however long the arrival stream is.
    pub(crate) fn new(source: &'s mut dyn ArrivalSource, hard_cap: SimTime) -> Self {
        let mut d =
            SimDriver { queue: EventQueue::with_capacity(4096), source, pending: None, hard_cap };
        d.pending = d.source.next_arrival();
        d
    }
}

impl Driver for SimDriver<'_> {
    fn schedule(&mut self, at: SimTime, ev: Event) {
        self.queue.schedule(at, ev);
    }

    fn next_step(
        &mut self,
        _next_request_id: u64,
        _live_requests: usize,
        _emits_outcome: impl Fn(&Event) -> bool,
    ) -> Step {
        // Interleave the pending arrival with queued events by timestamp;
        // the arrival wins ties (the historical engine scheduled every
        // arrival up front with the lowest sequence numbers, so at a
        // timestamp tie the arrival always popped first).
        let take_arrival = match (&self.pending, self.queue.peek_time()) {
            (Some(a), Some(t)) => a.at <= t,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_arrival {
            let a = self.pending.take().expect("checked above");
            if a.at > self.hard_cap {
                return Step::Done;
            }
            self.pending = self.source.next_arrival();
            return Step::Arrival(a, None);
        }
        let Some((now, ev)) = self.queue.pop() else { return Step::Done };
        if now > self.hard_cap {
            return Step::Done;
        }
        Step::Event(now, ev)
    }

    fn has_pending(&self) -> bool {
        !self.queue.is_empty() || self.pending.is_some()
    }
}

/// The wall clock: timer expirations and live submissions.
///
/// `SimTime` is microseconds since `epoch`. Scheduled events fire when the
/// monotonic clock passes their timestamp, and submissions become arrivals
/// stamped with the receive instant. Every delivered timestamp is clamped
/// to the high-water mark of times already delivered: when the kernel
/// falls behind the wall clock, a fresh arrival can carry a later stamp
/// than a queued-but-overdue timer, and delivering that timer at its
/// original (now earlier) time would run the kernel's clock backwards.
/// The scheduler's incremental structures (delay-slot index, reorder
/// queue, banded-Δt estimator) were built under simulation's monotone
/// clock and keep that guarantee here; the bump also keeps lateness
/// accounting honest — an event delivered late *is* late, and the
/// deviation it shows the kernel includes the kernel's own lag.
pub(crate) struct LiveDriver {
    queue: EventQueue<Event>,
    submissions: Receiver<Submission>,
    epoch: Instant,
    shutdown: Arc<AtomicBool>,
    /// Set once the shutdown flag is first observed: the wall-clock
    /// instant after which the drain gives up on stragglers.
    drain_deadline: Option<Instant>,
    drain_timeout: Duration,
    /// Longest single wait on the submission channel (bounds shutdown
    /// reaction latency when the queue is empty and traffic is idle).
    poll: Duration,
    /// The channel hung up (every front-door sender dropped).
    disconnected: bool,
    /// Latest timestamp delivered to the kernel; every subsequent step is
    /// clamped to at least this, making kernel time monotone.
    watermark: SimTime,
    /// The thread's timer slack, precise while the next timer finishes a
    /// request. Slack is per thread, and `run_live` builds, runs and drops
    /// the driver on the one kernel thread.
    slack: TimerSlack,
}

impl LiveDriver {
    pub(crate) fn new(
        submissions: Receiver<Submission>,
        shutdown: Arc<AtomicBool>,
        drain_timeout: Duration,
        poll: Duration,
    ) -> Self {
        LiveDriver {
            queue: EventQueue::new(),
            submissions,
            epoch: Instant::now(),
            shutdown,
            drain_deadline: None,
            drain_timeout,
            poll: poll.max(Duration::from_millis(1)),
            disconnected: false,
            watermark: SimTime::ZERO,
            slack: TimerSlack::new(),
        }
    }

    /// Wall clock as kernel time: µs since the server epoch.
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// Clamps a delivery timestamp to the monotone watermark and records
    /// it as the new high-water mark.
    fn deliver(&mut self, at: SimTime) -> SimTime {
        let at = at.max(self.watermark);
        self.watermark = at;
        at
    }
}

impl Driver for LiveDriver {
    fn schedule(&mut self, at: SimTime, ev: Event) {
        // The kernel schedules relative to event timestamps, which can
        // trail the wall clock under load; clamp into the queue's present
        // so a late follow-up never trips the no-time-travel assertion.
        self.queue.schedule(at.max(self.queue.now()), ev);
    }

    fn next_step(
        &mut self,
        _next_request_id: u64,
        live_requests: usize,
        emits_outcome: impl Fn(&Event) -> bool,
    ) -> Step {
        if self.shutdown.load(Ordering::Relaxed) && self.drain_deadline.is_none() {
            self.drain_deadline = Some(Instant::now() + self.drain_timeout);
        }
        if let Some(deadline) = self.drain_deadline {
            // Drained (or gave up): queued submissions that raced the flag
            // were still admitted; once nothing is in flight, stop.
            if live_requests == 0 || Instant::now() >= deadline {
                return Step::Done;
            }
        } else if self.disconnected && live_requests == 0 {
            return Step::Done;
        }

        // Fire anything already due. Otherwise wait for a submission until
        // the next timer (or the poll cap, whichever is sooner), precisely
        // if that timer finishes a request.
        let now = self.now();
        let (wait, precise) = match self.queue.peek() {
            Some((t, _)) if t <= now => {
                let (at, ev) = self.queue.pop().expect("peeked");
                return Step::Event(self.deliver(at), ev);
            }
            Some((t, ev)) => (Duration::from_micros(t.0 - now.0).min(self.poll), emits_outcome(ev)),
            None => (self.poll, false),
        };
        self.slack.set_precise(precise);
        if self.disconnected {
            // Nobody can submit any more, and the channel would return at
            // once: sleep the wait out instead of spinning until the drain
            // ends.
            std::thread::sleep(wait);
            return Step::Idle;
        }
        match self.submissions.recv_timeout(wait) {
            Ok(sub) => {
                let at = self.deliver(self.now());
                Step::Arrival(Arrival { at, request_type: sub.rtype }, Some(sub.token))
            }
            Err(RecvTimeoutError::Timeout) => Step::Idle,
            Err(RecvTimeoutError::Disconnected) => {
                self.disconnected = true;
                Step::Idle
            }
        }
    }

    fn has_pending(&self) -> bool {
        // A live server always has "more work" until it is shut down and
        // drained: the sampling tick (auditor, telemetry, admission
        // rounds) must keep running while the front door is open.
        self.drain_deadline.is_none() || !self.queue.is_empty()
    }

    fn handles_shutdown(&self) -> bool {
        true
    }
}

/// The calling thread's timer slack, switched between its original value
/// and 1 ns. `prctl` runs only when the wanted slack changes; dropping
/// puts the original back. A no-op where the slack cannot be read.
struct TimerSlack {
    /// The thread's slack when this was built, ns.
    original: Option<u64>,
    precise: bool,
}

impl TimerSlack {
    fn new() -> Self {
        TimerSlack { original: sys::timer_slack(), precise: false }
    }

    fn set_precise(&mut self, precise: bool) {
        if precise == self.precise {
            return;
        }
        if let Some(original) = self.original {
            sys::set_timer_slack(if precise { 1 } else { original });
            self.precise = precise;
        }
    }
}

impl Drop for TimerSlack {
    fn drop(&mut self) {
        self.set_precise(false);
    }
}

/// `prctl(2)` timer-slack calls through the libc that std already links.
#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_ulong};

    const PR_SET_TIMERSLACK: c_int = 29;
    const PR_GET_TIMERSLACK: c_int = 30;

    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }

    /// The calling thread's timer slack, ns.
    pub(super) fn timer_slack() -> Option<u64> {
        let zero: c_ulong = 0;
        // SAFETY: PR_GET_TIMERSLACK reads the calling thread's slack and
        // touches no memory; the four unused arguments are passed as the
        // `unsigned long`s prctl(2) reads.
        let slack = unsafe { prctl(PR_GET_TIMERSLACK, zero, zero, zero, zero) };
        u64::try_from(slack).ok().filter(|&ns| ns > 0)
    }

    /// Sets the calling thread's timer slack, ns (0 would mean the
    /// thread's default, so callers pass at least 1).
    pub(super) fn set_timer_slack(ns: u64) {
        let zero: c_ulong = 0;
        // SAFETY: PR_SET_TIMERSLACK writes only the calling thread's slack
        // and touches no memory; every argument is an `unsigned long`.
        unsafe {
            prctl(PR_SET_TIMERSLACK, ns as c_ulong, zero, zero, zero);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub(super) fn timer_slack() -> Option<u64> {
        None
    }

    pub(super) fn set_timer_slack(_ns: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_sim::SimDuration;
    use std::sync::mpsc;

    fn live_driver(rx: Receiver<Submission>) -> LiveDriver {
        let never = Arc::new(AtomicBool::new(false));
        LiveDriver::new(rx, never, Duration::from_secs(5), Duration::from_millis(50))
    }

    fn finishes(ev: &Event) -> bool {
        matches!(ev, Event::Complete { .. })
    }

    /// Steps until a timer fires; returns how many `Idle` steps came first.
    fn idles_before_event(d: &mut LiveDriver) -> usize {
        let mut idles = 0;
        loop {
            match d.next_step(0, 1, finishes) {
                Step::Idle => idles += 1,
                Step::Event(..) => return idles,
                Step::Arrival(..) | Step::Done => panic!("expected a timer or Idle"),
            }
            assert!(idles < 1000, "the driver spins instead of waiting");
        }
    }

    #[test]
    fn hung_up_drain_sleeps_until_the_next_timer() {
        let (tx, rx) = mpsc::sync_channel::<Submission>(1);
        drop(tx);
        let mut d = live_driver(rx);
        let at = d.now() + SimDuration::from_millis(30);
        d.schedule(at, Event::Sample);
        let idles = idles_before_event(&mut d);
        assert!(idles <= 3, "{idles} Idle steps before a timer 30 ms out");
        assert!(d.now() >= at, "the timer fired early");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn outcome_timers_are_waited_for_at_a_precise_slack() {
        let original = sys::timer_slack().expect("the thread's timer slack is readable");
        assert!(original > 1);
        let (_tx, rx) = mpsc::sync_channel::<Submission>(1);
        let mut d = live_driver(rx);
        let complete = Event::Complete { request: 0, node: 0, gen: 0 };
        let planned = Event::PlannedStart { request: 0, node: 0 };

        d.schedule(d.now() + SimDuration::from_millis(20), complete);
        assert!(matches!(d.next_step(0, 1, finishes), Step::Idle), "waited for the timer");
        assert_eq!(sys::timer_slack(), Some(1), "precise while an outcome timer is next");
        idles_before_event(&mut d);

        d.schedule(d.now() + SimDuration::from_millis(5), planned);
        idles_before_event(&mut d);
        assert_eq!(sys::timer_slack(), Some(original), "default for other timers");

        d.schedule(d.now() + SimDuration::from_millis(20), complete);
        d.next_step(0, 1, finishes);
        assert_eq!(sys::timer_slack(), Some(1));
        drop(d);
        assert_eq!(sys::timer_slack(), Some(original), "restored on drop");
    }
}
