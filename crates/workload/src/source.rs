//! Pull-based arrival sources: how the engine consumes a workload.
//!
//! An [`ArrivalSource`] is pulled one arrival at a time: the engine asks
//! for the next arrival when it is ready to schedule it, so memory stays
//! O(1) in the stream length and the stream can be unbounded (capped by a
//! horizon and/or a request count instead). Every run builds exactly one
//! [`OpenLoopSource`] over a [`RateSchedule`].
//!
//! Every source is deterministic in its seed: pulling the same source twice
//! yields bit-identical streams. [`generate_stream`](crate::generate_stream)
//! is the dense oracle — it draws the identical sequence up front — and
//! [`SliceSource`] replays such a trace through the pull interface, which
//! is how the tests pin the lazy path against it.

use crate::arrivals::{next_candidate, sample_mix, thin_accept, validate_stream_params, Arrival};
use crate::error::WorkloadError;
use crate::patterns::WorkloadPattern;
use crate::schedule::RateSchedule;
use mlp_model::RequestTypeId;
use mlp_sim::{SimRng, SimTime};
use rand::Rng;

/// A pull-based, deterministic stream of request arrivals.
///
/// Arrivals come back in non-decreasing time order. `None` means the
/// stream is exhausted (horizon reached, count cap hit, or slice drained)
/// and will keep returning `None`.
pub trait ArrivalSource {
    /// The next arrival, or `None` when the stream is exhausted.
    fn next_arrival(&mut self) -> Option<Arrival>;
}

/// Replays a pre-generated trace slice, bit-identically.
///
/// The dense oracle's adapter: `generate_stream` → `SliceSource` feeds the
/// arrivals of a materialized trace in order, so a run over it can be
/// compared against the same run over the lazy [`OpenLoopSource`].
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    arrivals: &'a [Arrival],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Wraps a trace slice (assumed sorted by arrival time, as
    /// `generate_stream` produces).
    pub fn new(arrivals: &'a [Arrival]) -> Self {
        SliceSource { arrivals, pos: 0 }
    }

    /// How many arrivals remain unpulled.
    pub fn remaining(&self) -> usize {
        self.arrivals.len() - self.pos
    }
}

impl ArrivalSource for SliceSource<'_> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let a = self.arrivals.get(self.pos).copied();
        if a.is_some() {
            self.pos += 1;
        }
        a
    }
}

/// Lazily generates a non-homogeneous Poisson arrival stream whose rate
/// follows a [`RateSchedule`]: a memory footprint of **zero** arrivals —
/// each one is drawn when pulled, by Lewis–Shedler thinning against the
/// schedule's [`peak_rate`](RateSchedule::peak_rate).
///
/// Stops at the time horizon, and additionally at a request-count cap when
/// one is set (open-loop soak runs size themselves by count, not time).
/// Deterministic in the `SimRng` it owns: over a steady schedule it draws
/// the *identical* RNG sequence as [`generate_stream`](crate::generate_stream),
/// so collecting this source reproduces the dense trace bit-for-bit.
#[derive(Debug)]
pub struct OpenLoopSource {
    schedule: RateSchedule,
    /// Majorant rate for thinning (the schedule's peak rate).
    max_rate: f64,
    horizon_s: f64,
    mix: Vec<(RequestTypeId, f64)>,
    total_w: f64,
    max_requests: Option<u64>,
    emitted: u64,
    /// Candidate-process clock, seconds.
    t: f64,
    rng: SimRng,
    done: bool,
}

impl OpenLoopSource {
    /// A source following `pattern` at peak `max_rate`: a steady schedule,
    /// exactly the process behind [`generate_stream`](crate::generate_stream).
    /// Panics on invalid parameters; [`Self::scheduled`] returns the typed
    /// [`WorkloadError`] instead.
    pub fn poisson(
        pattern: WorkloadPattern,
        max_rate: f64,
        horizon_s: f64,
        mix: Vec<(RequestTypeId, f64)>,
        rng: SimRng,
    ) -> Self {
        RateSchedule::steady(pattern, max_rate)
            .and_then(|schedule| Self::scheduled(schedule, horizon_s, mix, rng))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// A source driven by a [`RateSchedule`]: the base pattern's load times
    /// the schedule's multipliers, thinned against its
    /// [`peak_rate`](RateSchedule::peak_rate). A steady schedule's rate is
    /// the bare pattern's times exactly 1.0 and its peak is the base rate,
    /// so surge-off runs draw the dense generator's sequence bit for bit.
    pub fn scheduled(
        schedule: RateSchedule,
        horizon_s: f64,
        mix: Vec<(RequestTypeId, f64)>,
        rng: SimRng,
    ) -> Result<Self, WorkloadError> {
        let max_rate = schedule.peak_rate();
        let total_w = validate_stream_params(max_rate, &mix)?;
        Ok(OpenLoopSource {
            schedule,
            max_rate,
            horizon_s,
            mix,
            total_w,
            max_requests: None,
            emitted: 0,
            t: 0.0,
            rng,
            done: false,
        })
    }

    /// Caps the stream at `n` arrivals (in addition to the horizon).
    pub fn with_max_requests(mut self, n: u64) -> Self {
        self.max_requests = Some(n);
        self
    }

    /// Arrivals emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl ArrivalSource for OpenLoopSource {
    fn next_arrival(&mut self) -> Option<Arrival> {
        if self.done {
            return None;
        }
        if self.max_requests.is_some_and(|cap| self.emitted >= cap) {
            self.done = true;
            return None;
        }
        loop {
            // Identical draw sequence to `generate_stream`: candidate gap,
            // acceptance, and (only when accepted) the mix draw.
            self.t = next_candidate(self.t, self.max_rate, &mut self.rng);
            if self.t >= self.horizon_s {
                self.done = true;
                return None;
            }
            let accept: f64 = self.rng.rng().gen_range(0.0..1.0);
            if thin_accept(accept, self.max_rate, self.schedule.rate_at(self.t)) {
                let request_type = sample_mix(&self.mix, self.total_w, &mut self.rng);
                self.emitted += 1;
                return Some(Arrival { at: SimTime::from_secs_f64(self.t), request_type });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_stream;

    /// Drains a source into a vector.
    pub(super) fn collect_source(source: &mut dyn ArrivalSource) -> Vec<Arrival> {
        std::iter::from_fn(|| source.next_arrival()).collect()
    }

    fn mix2() -> Vec<(RequestTypeId, f64)> {
        vec![(RequestTypeId(0), 0.6), (RequestTypeId(1), 0.4)]
    }

    #[test]
    fn slice_source_replays_exactly() {
        let mut rng = SimRng::new(5);
        let trace = generate_stream(WorkloadPattern::L1Pulse, 200.0, 20.0, &mix2(), &mut rng);
        let mut src = SliceSource::new(&trace);
        assert_eq!(src.remaining(), trace.len());
        let replay = collect_source(&mut src);
        assert_eq!(replay, trace);
        assert_eq!(src.next_arrival(), None, "stays exhausted");
    }

    #[test]
    fn open_loop_matches_generate_stream_bit_for_bit() {
        for (seed, pattern) in
            [(1u64, WorkloadPattern::L2Fluctuating), (9, WorkloadPattern::Constant)]
        {
            let mut rng = SimRng::new(seed);
            let dense = generate_stream(pattern, 300.0, 25.0, &mix2(), &mut rng);
            let mut src = OpenLoopSource::poisson(pattern, 300.0, 25.0, mix2(), SimRng::new(seed));
            let lazy = collect_source(&mut src);
            assert_eq!(lazy, dense, "seed {seed}: lazy and dense streams diverge");
        }
    }

    #[test]
    fn open_loop_is_reproducible_and_capped() {
        let mut a = OpenLoopSource::poisson(
            WorkloadPattern::Constant,
            500.0,
            1e9, // effectively unbounded horizon
            mix2(),
            SimRng::new(7),
        )
        .with_max_requests(1000);
        let mut b =
            OpenLoopSource::poisson(WorkloadPattern::Constant, 500.0, 1e9, mix2(), SimRng::new(7))
                .with_max_requests(1000);
        let sa = collect_source(&mut a);
        let sb = collect_source(&mut b);
        assert_eq!(sa, sb);
        assert_eq!(sa.len(), 1000, "count cap must bound the stream");
        assert_eq!(a.emitted(), 1000);
        assert!(sa.windows(2).all(|w| w[0].at <= w[1].at), "stream must be time-ordered");
    }

    #[test]
    fn steady_schedule_matches_poisson_bit_for_bit() {
        // `poisson` is a steady schedule: spelling the schedule out must
        // give the identical stream.
        let sched = RateSchedule::steady(WorkloadPattern::L2Fluctuating, 300.0).unwrap();
        let mut a = OpenLoopSource::scheduled(sched, 25.0, mix2(), SimRng::new(17)).unwrap();
        let mut b = OpenLoopSource::poisson(
            WorkloadPattern::L2Fluctuating,
            300.0,
            25.0,
            mix2(),
            SimRng::new(17),
        );
        assert_eq!(collect_source(&mut a), collect_source(&mut b));
    }

    #[test]
    fn flash_crowd_schedule_surges_the_stream() {
        let sched =
            RateSchedule::flash_crowd(WorkloadPattern::Constant, 200.0, 30.0, 20.0, 3.0, 2.0)
                .unwrap();
        let mut src = OpenLoopSource::scheduled(sched, 80.0, mix2(), SimRng::new(23)).unwrap();
        let arrivals = collect_source(&mut src);
        let rate = crate::empirical_rate(&arrivals, 80.0, 5.0);
        let v = rate.values();
        // Buckets inside the surge (35–45 s) run ~3× the pre-surge ones.
        let pre = (v[0] + v[1] + v[2]) / 3.0;
        let surge = (v[7] + v[8]) / 2.0;
        let post = (v[12] + v[13] + v[14]) / 3.0;
        assert!(surge > 2.2 * pre, "surge {surge} vs pre {pre}");
        assert!(post < 1.4 * pre, "load must recover, post {post} vs pre {pre}");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::collect_source;
    use super::*;
    use crate::generate_stream;
    use proptest::prelude::*;

    proptest! {
        /// Core tentpole equivalence at the workload layer: for any seed,
        /// rate, and pattern, the lazy open-loop source and the dense
        /// generator produce bit-identical streams.
        #[test]
        fn open_loop_equals_dense_for_any_seed(
            seed: u64,
            rate in 20.0f64..400.0,
            pattern_idx in 0usize..4,
        ) {
            let pattern = [
                WorkloadPattern::L1Pulse,
                WorkloadPattern::L2Fluctuating,
                WorkloadPattern::L3PeriodicWide,
                WorkloadPattern::Constant,
            ][pattern_idx];
            let mix = vec![(RequestTypeId(0), 0.5), (RequestTypeId(1), 0.5)];
            let dense = generate_stream(pattern, rate, 15.0, &mix, &mut SimRng::new(seed));
            let mut src = OpenLoopSource::poisson(pattern, rate, 15.0, mix, SimRng::new(seed));
            let lazy = collect_source(&mut src);
            prop_assert_eq!(lazy, dense);
        }

        /// A capped source emits exactly min(cap, uncapped-count) arrivals,
        /// and the capped stream is a prefix of the uncapped one.
        #[test]
        fn cap_is_a_prefix(seed: u64, cap in 1u64..200) {
            let mix = vec![(RequestTypeId(0), 1.0)];
            let mut full = OpenLoopSource::poisson(
                WorkloadPattern::Constant, 100.0, 3.0, mix.clone(), SimRng::new(seed));
            let all = collect_source(&mut full);
            let mut capped = OpenLoopSource::poisson(
                WorkloadPattern::Constant, 100.0, 3.0, mix, SimRng::new(seed))
                .with_max_requests(cap);
            let some = collect_source(&mut capped);
            let expect = all.len().min(cap as usize);
            prop_assert_eq!(some.len(), expect);
            prop_assert_eq!(&some[..], &all[..expect]);
        }
    }
}
