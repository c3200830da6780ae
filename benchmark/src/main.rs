//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! vmlp-bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! vmlp-bench suite [--reps N] [--seed N] [--seconds S] [--vary-seed]
//!                  [--only a,b] [--smoke] [--out FILE]
//! vmlp-bench compare A.json B.json
//! ```
//!
//! The first form is one run of one workload in one OS process, and ends
//! with the one-line JSON result the driver contract asks for. `suite`
//! runs every workload that way (timed repetitions plus one traced pass)
//! and writes a result record; `compare` holds two records against the
//! bounds in `BENCHMARK.json`. Run from the repository root.

mod host;
mod layers;
mod live_open;
mod live_wire;
mod record;
mod reference;
mod report;
mod sim;
mod stats;
mod timed;

use report::{RunReport, Spec};
use std::path::PathBuf;
use std::process::ExitCode;

/// Flags that shape a single run beyond the contract's four.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Tiny sizes and a single set-up: every workload in seconds, for CI.
    pub smoke: bool,
}

/// Prints `msg` and exits non-zero without a result line.
pub fn die(msg: &str) -> ! {
    eprintln!("vmlp-bench: {msg}");
    std::process::exit(2)
}

/// `benchmark/workloads` under the current directory (the repository
/// root), or next to this package's manifest when run from elsewhere.
pub fn workloads_dir() -> PathBuf {
    let from_root = PathBuf::from("benchmark/workloads");
    if from_root.is_dir() {
        from_root
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("workloads")
    }
}

/// Runs one workload once in this process.
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    opts: &Options,
) -> RunReport {
    match workload {
        "sim_steady" | "sim_peak" | "sim_scale" | "sim_storm" => {
            sim::run(workload, seed, seconds, traced, opts)
        }
        "live_open" => live_open::run(workload, seed, seconds, traced, opts),
        "live_wire" => live_wire::run(workload, seed, seconds, traced, opts),
        other => die(&format!("unknown workload `{other}`")),
    }
}

/// `--key value` and `--key=value` arguments plus bare words.
struct Args {
    flags: Vec<(String, Option<String>)>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        const SWITCHES: [&str; 2] = ["smoke", "vary-seed"];
        let mut args = Args { flags: Vec::new(), words: Vec::new() };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                None => args.words.push(a),
                Some(flag) => match flag.split_once('=') {
                    Some((k, v)) => args.flags.push((k.to_string(), Some(v.to_string()))),
                    None if SWITCHES.contains(&flag) => args.flags.push((flag.to_string(), None)),
                    None => args.flags.push((flag.to_string(), raw.next())),
                },
            }
        }
        args
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == key)
    }

    fn text(&self, key: &str) -> Option<&str> {
        self.flags.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.text(key)
            .map(|v| v.parse().unwrap_or_else(|_| die(&format!("--{key}: bad value `{v}`"))))
    }
}

fn main() -> ExitCode {
    host::epoch();
    let args = Args::parse(std::env::args().skip(1));
    let spec = Spec::load().unwrap_or_else(|e| die(&e));
    let opts = Options { smoke: args.has("smoke") };

    match args.words.first().map(String::as_str) {
        Some("suite") => record::suite(&spec, &args_for_suite(&args, &spec)),
        Some("compare") => match args.words.as_slice() {
            [_, a, b] => record::compare(&spec, a, b),
            _ => die("usage: compare A.json B.json"),
        },
        Some(other) => die(&format!("unknown command `{other}`")),
        None => {
            let workload =
                args.text("workload").unwrap_or_else(|| die("--workload NAME is required"));
            let seed = args.number("seed").unwrap_or(2022);
            let seconds = args.number("seconds").unwrap_or(spec.run_seconds);
            let traced = args.number::<u8>("trace").unwrap_or(0) != 0;
            if !spec.workloads.iter().any(|w| w == workload) {
                die(&format!("workload `{workload}` is not listed in BENCHMARK.json"));
            }
            let mut report = run_workload(workload, seed, seconds, traced, &opts);
            let specs = spec.metrics(traced);
            report.fit_to(specs);
            record::print_run(&report, specs);
            println!("detail {}", report.detail_line());
            println!("{}", report.result_line(specs));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn args_for_suite(args: &Args, spec: &Spec) -> record::SuiteArgs {
    let smoke = args.has("smoke");
    record::SuiteArgs {
        reps: args.number("reps").unwrap_or(if smoke { 1 } else { 5 }),
        seed: args.number("seed").unwrap_or(2022),
        seconds: args.number("seconds").unwrap_or(if smoke { 1.5 } else { spec.run_seconds }),
        vary_seed: args.has("vary-seed"),
        smoke,
        only: args.text("only").map(|s| s.split(',').map(str::to_string).collect()),
        out: args.text("out").map(PathBuf::from),
    }
}
