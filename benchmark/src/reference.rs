//! A fixed piece of work timed alongside every measurement, to take the
//! host's mood out of the CPU-bound numbers.
//!
//! The reference host is a shared 2-core VM. For a minute or two at a time
//! a neighbour makes *everything* on it 15–50 % slower (no steal time is
//! reported; it looks like cache and SMT-sibling contention), and a whole
//! 15 s run lands inside such an episode or outside it, so medians within a
//! run cannot help. Two sets of runs of one commit, minutes apart, differed
//! by +28 % and +40 % on `sim_steady` and `sim_peak` that way — more than
//! the largest bound the driver contract allows (0.25), so wider bounds or
//! `compare`'s `unresolved` verdict alone would not get a set of raw times
//! accepted twice in a row.
//!
//! So every sim run times this kernel between its iterations and reports
//! its CPU-bound end-to-end times (`host_us_per_req`, `cpu_us_per_req`)
//! multiplied by `NOMINAL_MS / median(reference)`: time *at the reference
//! host's undisturbed speed*, not the time measured. In episodes the kernel
//! slows about half as much as the simulator does (it is less sensitive to
//! a thrashed last-level cache), so this halves the swing rather than
//! removing it, and adds the kernel's own noise. The raw values stay in
//! every run's parenthesised rows (`wall_us_per_req`, `cpu_us_per_req`),
//! and `loadgen.reference_ms` says how the host was doing.
//!
//! `setup_s` is not scaled: it is built from the fastest tenth of rounds
//! of set-ups (`host::SetupClock`), each a few hundredths of a second long,
//! and the kernel's median over the whole run says nothing about those
//! moments (between two sets of ten runs the medians as measured moved by
//! 0.001–0.007, the scaled ones by 0.014–0.10).
//!
//! The live workloads are not scaled: what they report is mostly wake-up
//! latency and a kernel thread that sleeps between events, which this
//! kernel does not resemble (scaling them made their spread five times
//! wider, not narrower).
//!
//! The kernel runs in this process, on the measuring thread, right after
//! each iteration: timed from a helper process it came out noisier than
//! what it was meant to steady (a process that sleeps between passes starts
//! each one cold). Its few megabytes would count towards `peak_rss_mb`, so
//! a sim run reads its peak memory before the kernel's first pass.
//!
//! The kernel is the benchmark's own code over the standard library's
//! collections, with its own number generator: it calls nothing of the
//! program under test, so no change to the program can move it.

use crate::stats::median;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Median [`sample_ms`] on the reference host (2-core Xeon 2.1 GHz VM) in
/// quiet minutes. Only fixes the unit; a ratio between two records does not
/// depend on it.
pub const NOMINAL_MS: f64 = 39.0;

/// SplitMix64: the kernel's private stream of keys.
struct Keys(u64);

impl Keys {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Times one pass of the kernel, ms: ordered-map churn with small vector
/// payloads, then hash-map inserts and lookups — the allocation-heavy,
/// pointer-chasing kind of work the simulator does, over a few megabytes.
fn sample_ms() -> f64 {
    let t = Instant::now();
    let mut rng = Keys(5);
    let mut ordered: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for i in 0..120_000u64 {
        ordered.entry(rng.next_u64() >> 48).or_default().push(i);
        if i % 3 == 0 {
            ordered.remove(&(rng.next_u64() >> 48));
        }
    }
    let mut hashed = HashMap::new();
    let mut keys = Keys(3);
    for i in 0..200_000u64 {
        hashed.insert(keys.next_u64() >> 40, i);
    }
    let mut keys = Keys(3);
    let mut found = 0u64;
    for _ in 0..200_000 {
        found += hashed.get(&(keys.next_u64() >> 40)).copied().unwrap_or(0);
    }
    black_box((ordered.len(), found));
    t.elapsed().as_secs_f64() * 1e3
}

/// The reference samples of one run.
#[derive(Debug, Default)]
pub struct Reference {
    samples_ms: Vec<f64>,
}

impl Reference {
    /// Times the kernel once more and returns that sample, ms.
    pub fn sample(&mut self) -> f64 {
        let ms = sample_ms();
        self.samples_ms.push(ms);
        ms
    }

    /// Times the kernel `n` more times.
    pub fn sample_times(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Median sample of the run, ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// What a time measured during this run is multiplied by.
    pub fn factor(&self) -> f64 {
        factor(self.median_ms())
    }
}

/// The factor for a measurement taken while the kernel took `reference_ms`.
pub fn factor(reference_ms: f64) -> f64 {
    if reference_ms > 0.0 {
        NOMINAL_MS / reference_ms
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_nominal_speed() {
        assert_eq!(factor(NOMINAL_MS), 1.0);
        assert_eq!(factor(NOMINAL_MS * 2.0), 0.5, "a host twice as slow halves the reading");
        assert_eq!(factor(0.0), 1.0);
    }

    #[test]
    fn kernel_runs_and_takes_time() {
        assert!(sample_ms() > 0.0);
    }
}
