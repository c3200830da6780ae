//! Result records: `suite` runs every workload in child processes (one OS
//! process per workload and repetition, so set-up time and peak memory are
//! per run), folds the repetitions into median / quartiles / n, and writes
//! a record carrying host, commit, seed and repetitions. `compare` holds
//! two records against the bounds in `BENCHMARK.json` and, when they were
//! made from the same seeds, the simulated-time results of each repetition
//! against exact equality.

use crate::host::HostInfo;
use crate::report::{num, obj, str, MetricSpec, RunReport, Spec};
use crate::stats::{quartiles, spread};
use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// What the traced pass may cost before `suite` reports a problem.
const MAX_TRACE_OVERHEAD: f64 = 0.10;

/// What `suite` was asked to do.
pub struct SuiteArgs {
    pub reps: usize,
    pub seed: u64,
    pub seconds: f64,
    /// Give repetition `i` the seed `seed + i` (how the driver calibrates
    /// spreads) instead of repeating one seed (how determinism is checked).
    pub vary_seed: bool,
    pub smoke: bool,
    pub only: Option<Vec<String>>,
    pub out: Option<PathBuf>,
}

/// Prints one run for a human: every metric by name with its unit, then
/// the checks.
pub fn print_run(report: &RunReport, specs: &[MetricSpec]) {
    println!(
        "{} seed {} {} pass: attempted {} failed {}",
        report.workload,
        report.seed,
        if report.traced { "traced" } else { "timed" },
        report.attempted,
        report.failed
    );
    for s in specs {
        // A per-layer 0 means "not exercised by this workload"; the result
        // line carries it, the table does not.
        match report.metrics.get(&s.name) {
            Some(v) if !(report.traced && *v == 0.0) => {
                println!("  {:<44} {:>16.4} {}", s.name, v, s.unit)
            }
            _ => {}
        }
    }
    for (name, v) in &report.extra {
        println!("  ({name:<42}) {v:>16.4}");
    }
    let failed: Vec<_> = report.checks.iter().filter(|c| !c.ok).collect();
    println!("  checks: {} run, {} failed", report.checks.len(), failed.len());
    for c in failed {
        println!("  FAILED {}: {}", c.name, c.detail);
    }
}

/// What the suite keeps of one child run.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    extra: BTreeMap<String, f64>,
    digest: Option<String>,
    failed_checks: Vec<String>,
}

fn number_map(v: Option<&Value>, pick: impl Fn(&Value) -> Option<f64>) -> BTreeMap<String, f64> {
    match v {
        Some(Value::Object(entries)) => {
            entries.iter().filter_map(|(k, v)| Some((k.clone(), pick(v)?))).collect()
        }
        _ => BTreeMap::new(),
    }
}

/// Runs one (workload, seed, pass) in a child process of this executable.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let result: Value = serde_json::from_str(last).map_err(|e| format!("result line: {e}"))?;
    let detail: Value = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .map(serde_json::from_str)
        .transpose()
        .map_err(|e| format!("detail line: {e}"))?
        .unwrap_or(Value::Null);
    let mut failed_checks: Vec<String> = match detail.get("failed_checks") {
        Some(Value::Array(items)) => {
            items.iter().filter_map(|v| v.as_str().map(str::to_string)).collect()
        }
        _ => Vec::new(),
    };
    if !output.status.success() && failed_checks.is_empty() {
        failed_checks.push(format!("child exited with {}", output.status));
    }
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Value::Bool(true)) && output.status.success(),
        attempted: result.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        failed: result.get("failed").and_then(Value::as_u64).unwrap_or(0),
        metrics: number_map(result.get("metrics"), |m| m.get("value").and_then(Value::as_f64)),
        extra: number_map(detail.get("extra"), Value::as_f64),
        digest: detail.get("digest").and_then(Value::as_str).map(str::to_string),
        failed_checks,
    })
}

/// Median, quartiles, n and spread of one metric over the repetitions.
fn summary(unit: &str, values: &[f64]) -> Value {
    let (q1, median, q3) = quartiles(values);
    obj(vec![
        ("unit", str(unit)),
        ("median", num(median)),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("n", Value::Num(Number::U(values.len() as u64))),
        ("spread", num(spread(values))),
        ("values", Value::Array(values.iter().map(|v| num(*v)).collect())),
    ])
}

fn print_summary_row(workload: &str, name: &str, unit: &str, values: &[f64], bound: Option<f64>) {
    let (q1, median, q3) = quartiles(values);
    let bound = bound.map_or(String::new(), |b| format!("  bound {b:.2}"));
    println!(
        "{workload:<11} {name:<24} {unit:<6} median {median:>12.4}  q1 {q1:>12.4}  q3 {q3:>12.4}  n {}  spread {:.4}{bound}",
        values.len(),
        spread(values),
    );
}

fn column(runs: &[ChildRun], pick: impl Fn(&ChildRun) -> Option<f64>) -> Vec<f64> {
    runs.iter().filter_map(pick).collect()
}

/// Runs the suite; non-zero exit when any run or cross-run check failed.
pub fn suite(spec: &Spec, args: &SuiteArgs) -> ExitCode {
    let host = HostInfo::collect();
    println!(
        "host: {} x {} | kernel {} | {} | commit {}",
        host.nproc, host.cpu_model, host.kernel, host.rustc, host.commit
    );
    println!(
        "suite: seed {}{} | {} timed repetitions + 1 traced pass per workload | {} s per run{}",
        args.seed,
        if args.vary_seed { " (+i per repetition)" } else { "" },
        args.reps,
        args.seconds,
        if args.smoke { " | smoke sizes" } else { "" },
    );
    let mut problems: Vec<String> = Vec::new();
    let mut workloads = Vec::new();
    for workload in &spec.workloads {
        if args.only.as_ref().is_some_and(|only| !only.contains(workload)) {
            continue;
        }
        let mut timed = Vec::new();
        for rep in 0..args.reps {
            let seed = if args.vary_seed { args.seed + rep as u64 } else { args.seed };
            match run_child(workload, seed, args.seconds, false, args.smoke) {
                Ok(run) => timed.push(run),
                Err(e) => problems.push(format!("{workload} rep {rep}: {e}")),
            }
        }
        let traced = run_child(workload, args.seed, args.seconds, true, args.smoke)
            .map_err(|e| problems.push(format!("{workload} traced: {e}")))
            .ok();
        for (tag, run) in
            timed.iter().map(|r| ("timed", r)).chain(traced.iter().map(|r| ("traced", r)))
        {
            if !run.correct {
                problems.push(format!("{workload} {tag}: {}", run.failed_checks.join("; ")));
            }
        }

        // Simulated-time results are a function of the seed alone: equal
        // across repetitions, and equal with tracing on.
        let digests: Vec<&String> = timed.iter().filter_map(|r| r.digest.as_ref()).collect();
        let repeats = args.vary_seed || digests.windows(2).all(|w| w[0] == w[1]);
        if !repeats {
            problems
                .push(format!("{workload}: sim_digest differs across repetitions: {digests:?}"));
        }
        let traced_digest = traced.as_ref().and_then(|r| r.digest.as_ref());
        let traced_equal = match (digests.first(), traced_digest) {
            (Some(a), Some(b)) => a == &b,
            _ => true,
        };
        if !traced_equal {
            problems.push(format!(
                "{workload}: sim_digest differs between the timed and the traced pass"
            ));
        }

        let mut end_to_end = Vec::new();
        for m in &spec.end_to_end {
            let values = column(&timed, |r| r.metrics.get(&m.name).copied());
            print_summary_row(workload, &m.name, &m.unit, &values, m.bound);
            end_to_end.push((m.name.as_str(), summary(&m.unit, &values)));
        }
        let extra_names: Vec<String> =
            timed.first().map_or_else(Vec::new, |r| r.extra.keys().cloned().collect());
        let mut issue_named = Vec::new();
        for name in &extra_names {
            let values = column(&timed, |r| r.extra.get(name).copied());
            print_summary_row(workload, &format!("({name})"), "", &values, None);
            issue_named.push((name.as_str(), summary("", &values)));
        }
        let mut per_layer = Vec::new();
        if let Some(t) = &traced {
            for m in &spec.per_layer {
                let v = t.metrics.get(&m.name).copied().unwrap_or(0.0);
                if v != 0.0 {
                    println!("{workload:<11} {:<44} {v:>16.4} {}", m.name, m.unit);
                }
                per_layer
                    .push((m.name.as_str(), obj(vec![("unit", str(&m.unit)), ("value", num(v))])));
            }
            // Per-layer numbers from a run a tenth slower than the one the
            // end-to-end numbers timed describe another run. (At `--smoke`
            // sizes a pair is a few milliseconds and its ratio is noise.)
            let overhead = t.metrics.get("trace_overhead_share").copied().unwrap_or(0.0);
            if overhead >= MAX_TRACE_OVERHEAD && !args.smoke {
                problems.push(format!(
                    "{workload}: trace_overhead_share {overhead:.3} is not under {MAX_TRACE_OVERHEAD}"
                ));
            }
        }
        let counts = |pick: fn(&ChildRun) -> u64| {
            Value::Array(timed.iter().map(|r| Value::Num(Number::U(pick(r)))).collect())
        };
        workloads.push((
            workload.as_str(),
            obj(vec![
                ("sim_digests", Value::Array(digests.iter().map(|d| str(d)).collect())),
                ("sim_digest_repeats", Value::Bool(repeats)),
                ("sim_digest_traced_equal", Value::Bool(traced_equal)),
                ("attempted", counts(|r| r.attempted)),
                ("failed", counts(|r| r.failed)),
                ("end_to_end", obj(end_to_end)),
                ("issue_named", obj(issue_named)),
                ("per_layer", obj(per_layer)),
            ]),
        ));
    }

    let record = obj(vec![
        ("schema", str("vmlp-benchmark-record-v1")),
        (
            "host",
            obj(vec![
                ("nproc", Value::Num(Number::U(host.nproc as u64))),
                ("cpu_model", str(&host.cpu_model)),
                ("kernel", str(&host.kernel)),
                ("rustc", str(&host.rustc)),
            ]),
        ),
        ("commit", str(&host.commit)),
        ("seed", Value::Num(Number::U(args.seed))),
        ("vary_seed", Value::Bool(args.vary_seed)),
        ("repetitions", Value::Num(Number::U(args.reps as u64))),
        ("seconds", num(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("problems", Value::Array(problems.iter().map(|p| str(p)).collect())),
        ("workloads", obj(workloads)),
    ]);
    if let Some(path) = &args.out {
        let text = serde_json::to_string_pretty(&record).expect("a value tree serializes");
        if let Err(e) = fs::write(path, text + "\n") {
            problems.push(format!("write {}: {e}", path.display()));
        } else {
            println!("record written to {}", path.display());
        }
    }
    if problems.is_empty() {
        println!("suite: every check passed");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("PROBLEM {p}");
        }
        ExitCode::FAILURE
    }
}

/// How one metric moved between two records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// A side's run-to-run spread is wider than the bound: the records
    /// cannot tell.
    Unresolved,
}

/// One side of a comparison: its median and interquartile range.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub iqr: f64,
}

/// The rule of `compare`. `worse` is the new median's distance from the
/// baseline's in the bad direction, as a share of the baseline median. A
/// spread wider than the bound on either side is unresolved; worse by more
/// than the bound is regressed; better by more than the baseline's own
/// spread is improved.
pub fn verdict(base: Side, new: Side, higher_is_better: bool, bound: f64) -> Verdict {
    if base.median == new.median && base.iqr == 0.0 && new.iqr == 0.0 {
        return Verdict::Unchanged;
    }
    let scale = base.median.abs().max(f64::MIN_POSITIVE);
    if base.iqr / scale > bound || new.iqr / new.median.abs().max(f64::MIN_POSITIVE) > bound {
        return Verdict::Unresolved;
    }
    let delta = if higher_is_better { base.median - new.median } else { new.median - base.median };
    if delta / scale > bound {
        Verdict::Regressed
    } else if -delta > base.iqr {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load_record(path: &str) -> Value {
    let text = fs::read_to_string(path).unwrap_or_else(|e| crate::die(&format!("{path}: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| crate::die(&format!("{path}: {e}")))
}

fn side(record: &Value, workload: &str, metric: &str) -> Option<Side> {
    let m = record.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    let f = |k: &str| m.get(k).and_then(Value::as_f64);
    (m.get("n")?.as_u64()? > 0).then_some(())?;
    Some(Side { median: f("median")?, iqr: f("q3")? - f("q1")? })
}

/// What `suite` was given that decides a run's inputs. Two records agree
/// exactly on simulated-time results only when these agree.
const INPUT_KEYS: [&str; 4] = ["seed", "vary_seed", "repetitions", "smoke"];

/// `(section, name)` of the sim results that are a function of the seed
/// alone: a pure speed-up leaves every one of them as it was, bit for bit.
const EXACT: [(&str, &str); 10] = [
    ("issue_named", "model_p99_ms"),
    ("issue_named", "model_violation_rate"),
    ("issue_named", "model_utilization"),
    ("issue_named", "fail_share"),
    ("issue_named", "model_requests"),
    ("issue_named", "model_iterations"),
    ("end_to_end", "latency_p50_ms"),
    ("end_to_end", "latency_tail_ms"),
    ("end_to_end", "slo_ok_share"),
    ("end_to_end", "ok_share"),
];

/// Whether two records hold the same per-repetition values; `None` when
/// either lacks them.
fn same_values(base: &Value, new: &Value, workload: &str, path: &[&str]) -> Option<bool> {
    let values = |r: &Value| {
        let mut v = r.get("workloads")?.get(workload)?;
        for key in path {
            v = v.get(key)?;
        }
        match v {
            Value::Array(items) if !items.is_empty() => Some(items.clone()),
            _ => None,
        }
    };
    Some(values(base)? == values(new)?)
}

/// Prints one row per workload × end-to-end metric, and for the sim
/// workloads of two records made from the same seeds one row per result
/// that must repeat exactly; non-zero exit when any row regressed.
pub fn compare(spec: &Spec, a: &str, b: &str) -> ExitCode {
    let (base, new) = (load_record(a), load_record(b));
    for key in ["host", "seconds"] {
        if base.get(key) != new.get(key) {
            println!(
                "NOTE the records differ in `{key}`: {:?} vs {:?}",
                base.get(key),
                new.get(key)
            );
        }
    }
    let same_inputs = INPUT_KEYS.iter().all(|k| base.get(k) == new.get(k));
    if !same_inputs {
        println!("NOTE the records were made from other seeds: no exact rows");
    }
    let mut tally = BTreeMap::new();
    let mut row = |workload: &str, name: &str, verdict: Verdict, rest: String| {
        let word = format!("{verdict:?}").to_lowercase();
        println!("{workload:<11} {name:<20} {word:<10} {rest}");
        *tally.entry(word).or_insert(0u32) += 1;
    };
    for workload in &spec.workloads {
        if same_inputs {
            let exact = |same: bool| if same { Verdict::Unchanged } else { Verdict::Regressed };
            if let Some(same) = same_values(&base, &new, workload, &["sim_digests"]) {
                row(workload, "sim_digest", exact(same), "(exact)".into());
                for (section, name) in EXACT {
                    if let Some(same) =
                        same_values(&base, &new, workload, &[section, name, "values"])
                    {
                        row(workload, name, exact(same), "(exact)".into());
                    }
                }
            }
        }
        for m in &spec.end_to_end {
            let (Some(x), Some(y)) =
                (side(&base, workload, &m.name), side(&new, workload, &m.name))
            else {
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let share = |s: Side| s.iqr / s.median.abs().max(f64::MIN_POSITIVE);
            row(
                workload,
                &m.name,
                verdict(x, y, m.higher_is_better, bound),
                format!(
                    "{:>12.4} -> {:>12.4} {:<5} ({:+.2}%, spreads {:.3} / {:.3}, bound {bound:.2})",
                    x.median,
                    y.median,
                    m.unit,
                    (y.median - x.median) / x.median.abs().max(f64::MIN_POSITIVE) * 100.0,
                    share(x),
                    share(y),
                ),
            );
        }
    }
    println!("compare: {tally:?}");
    if tally.contains_key("regressed") {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, iqr: f64) -> Side {
        Side { median, iqr }
    }

    #[test]
    fn verdict_applies_bound_spread_and_direction() {
        // Lower is better, bound 10 %.
        assert_eq!(verdict(s(100.0, 2.0), s(105.0, 2.0), false, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(s(100.0, 2.0), s(111.0, 2.0), false, 0.10), Verdict::Regressed);
        assert_eq!(verdict(s(100.0, 2.0), s(97.0, 2.0), false, 0.10), Verdict::Improved);
        assert_eq!(verdict(s(100.0, 2.0), s(99.0, 2.0), false, 0.10), Verdict::Unchanged);
        // Higher is better flips the direction.
        assert_eq!(verdict(s(100.0, 2.0), s(89.0, 2.0), true, 0.10), Verdict::Regressed);
        assert_eq!(verdict(s(100.0, 2.0), s(103.0, 2.0), true, 0.10), Verdict::Improved);
        // A spread wider than the bound on either side cannot resolve.
        assert_eq!(verdict(s(100.0, 11.0), s(150.0, 1.0), false, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(s(100.0, 1.0), s(150.0, 20.0), false, 0.10), Verdict::Unresolved);
        // Exact repeats are unchanged whatever the bound.
        assert_eq!(verdict(s(0.5, 0.0), s(0.5, 0.0), true, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(s(0.5, 0.0), s(0.4, 0.0), true, 0.02), Verdict::Regressed);
    }

    #[test]
    fn exact_rows_compare_every_repetition_bit_for_bit() {
        let record = |p99: &str| -> Value {
            serde_json::from_str(&format!(
                r#"{{"workloads":{{"sim_peak":{{"sim_digests":["0a","0b"],
                    "issue_named":{{"model_p99_ms":{{"values":[410.5,{p99}]}}}}}},
                    "live_wire":{{"sim_digests":[]}}}}}}"#
            ))
            .unwrap()
        };
        let (a, b, c) = (record("3836.25"), record("3836.25"), record("3836.250000001"));
        let p99 = ["issue_named", "model_p99_ms", "values"];
        assert_eq!(same_values(&a, &b, "sim_peak", &p99), Some(true));
        assert_eq!(same_values(&a, &c, "sim_peak", &p99), Some(false));
        assert_eq!(same_values(&a, &c, "sim_peak", &["sim_digests"]), Some(true));
        assert_eq!(same_values(&a, &b, "live_wire", &["sim_digests"]), None, "no digest, no row");
        assert_eq!(same_values(&a, &b, "sim_peak", &["end_to_end", "x", "values"]), None);
    }
}
