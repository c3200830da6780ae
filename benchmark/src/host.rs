//! What the benchmark reads about its own process and host, all from
//! outside the program under test: CPU clocks, peak memory, thread count,
//! and the host descriptor every result record carries.

use crate::stats::{median, percentile, sort};
use std::fs;
use std::process::Command;
use std::sync::OnceLock;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `/proc/self/stat` counts CPU in 10 ms ticks, which is a tenth of what
/// `live_wire` burns in a whole run; the POSIX CPU clocks count the same
/// utime+stime in nanoseconds and include threads that already exited.
fn cpu_clock_us(clock_id: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for 64-bit Linux
    // (two 64-bit fields), and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000 + ts.tv_nsec as u64 / 1_000
}

/// CPU time (user + system) of the whole process so far, µs.
pub fn process_cpu_us() -> u64 {
    cpu_clock_us(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time (user + system) of the calling thread so far, µs.
pub fn thread_cpu_us() -> u64 {
    cpu_clock_us(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time so far of this process's threads named `name` (the kernel's
/// per-thread `schedstat`, ns resolution), µs; 0 when there is none. This
/// is how a thread the program under test spawned is read from outside.
pub fn named_thread_cpu_us(name: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .filter(|t| fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim() == name))
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map(|ns| ns / 1_000)
        .sum()
}

/// The instant `main` started; every span and `setup_s` counts from here.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Set-ups timed per round. A run has a round before its load and one at
/// every pause in it.
pub const SETUP_REPS: usize = 50;
/// `live_wire` tears a whole server down after each set-up (25 ms).
pub const SETUP_REPS_SERVER: usize = 16;
/// The share of a round's set-ups, fastest first, whose slowest stands for
/// the round.
pub const SETUP_PERCENTILE: f64 = 10.0;

/// What setting a workload up costs, s.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Process start to the end of the first set-up: what the one process
    /// really paid, page faults and first-use initialisation included.
    pub cold_s: f64,
    /// Median over the run's rounds of each round's lower decile: what a
    /// set-up takes when nothing else is in its way.
    pub quiet_s: f64,
    /// Median over all the set-ups of the run, the cold one among them.
    pub median_s: f64,
}

/// Times a run's set-ups, in as many rounds as the run has pauses for.
///
/// The driver contract asks for several set-ups per run: the one cold start
/// of a process takes 1.5–6 ms here and comes in two modes (its median over
/// ten processes was 4.1 ms in one set and 2.0 ms in the next), which no
/// bound the contract allows would hold. Nor does the median of the
/// re-set-ups: a set-up is half a millisecond of warm-up arithmetic plus a
/// thread or a socket, the first dozen in a process are slower than the
/// rest, and handing over to a fresh thread takes 25 µs or 100 µs for
/// seconds at a time (the median of 15 moved by a third between two sets of
/// runs of one commit). The lower decile of a round of set-ups sees neither
/// unless it lasts nine tenths of the round (spread 0.025 over 20 runs
/// where the median of the same set-ups spread 0.08), and a change that
/// puts work into set-up slows every one of them, the fastest too.
///
/// What the decile does not leave out is the host's pace, which steps
/// between levels a fifth apart every ten seconds or so (a round's decile
/// on `live_open` reads 0.39, 0.43, 0.49, 0.56 or 0.68 ms, the same at the
/// end of one process and the start of the next). So a run times a round
/// wherever its load pauses and reports the median round, and the median
/// over the runs of a set then sees the pace the host keeps most of the
/// time. Cold value and overall median are reported beside it, ungated.
#[derive(Debug, Default)]
pub struct SetupClock {
    times: Vec<f64>,
    round_deciles: Vec<f64>,
}

impl SetupClock {
    /// One round: runs `set_up` `reps` times and times each; `after` gets
    /// what it built, off the clock (to keep it, or to tear it down). The
    /// very first set-up of a process counts from [`epoch`].
    pub fn time_round<T>(
        &mut self,
        reps: usize,
        mut set_up: impl FnMut() -> T,
        mut after: impl FnMut(T),
    ) {
        let first = self.times.len();
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            let built = set_up();
            let took = if self.times.is_empty() { epoch().elapsed() } else { t.elapsed() };
            self.times.push(took.as_secs_f64());
            after(built);
        }
        let mut round = self.times[first..].to_vec();
        self.round_deciles.push(percentile(sort(&mut round), SETUP_PERCENTILE));
    }

    /// Over every round timed so far; there must be one.
    pub fn times(&self) -> SetupTimes {
        SetupTimes {
            cold_s: self.times[0],
            quiet_s: median(&self.round_deciles),
            median_s: median(&self.times),
        }
    }
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// OS threads of this process right now (entries in `/proc/self/task`).
pub fn thread_count() -> usize {
    fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Where a result was measured. Two records compare only when this matches.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl HostInfo {
    pub fn collect() -> HostInfo {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string());
        HostInfo {
            nproc: nproc(),
            cpu_model,
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// Cores this process may use; the cap on generator threads/connections.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_rounds_hand_every_build_over_and_report_the_median_round() {
        epoch();
        let nap = |us| std::thread::sleep(std::time::Duration::from_micros(us));
        let mut clock = SetupClock::default();
        let mut built = Vec::new();
        let mut next = 0;
        // A round in which every set-up is slow, then two at the usual pace
        // with a slow set-up in every four.
        for us in [3_000, 50, 50] {
            clock.time_round(
                20,
                || {
                    next += 1;
                    nap(if next % 4 == 0 { 3_000 } else { us });
                    next
                },
                |n| built.push(n),
            );
        }
        assert_eq!(built, (1..=60).collect::<Vec<_>>());
        let t = clock.times();
        assert!(t.cold_s >= 3e-3, "the first set-up counts from process start");
        assert!(t.quiet_s > 0.0 && t.quiet_s < 3e-3, "one slow round of three is outvoted");
        assert!(t.quiet_s <= t.median_s);
    }
}
