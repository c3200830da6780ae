//! Smoke tests for every paper figure/table regeneration path: each
//! `FIGURES` entry named `tables` or `figNN…` runs through its `run`,
//! renders a non-empty report with no gate failures, and contains its
//! identifying markers. The heavyweight grids run at tiny scale here;
//! `figs` defaults to `--scale=small`.

use mlp_bench::figs::{Args, Figure, FIGURES};
use mlp_bench::{fig12_latency, Scale};
use std::collections::HashMap;
use std::sync::OnceLock;

/// The report of paper figure `name`; all of them run once, on first use.
fn report(name: &str) -> &'static str {
    static REPORTS: OnceLock<HashMap<&str, String>> = OnceLock::new();
    let paper =
        |f: &&Figure| f.name == "tables" || f.name[..4] == *"fig0" || f.name[..4] == *"fig1";
    &REPORTS.get_or_init(|| FIGURES.iter().filter(paper).map(run).collect())[name]
}

fn run(f: &'static Figure) -> (&'static str, String) {
    // Fig 11 needs a horizon long enough to contain the 40 s peak.
    let long = Scale { machines: 6, max_rate: 30.0, horizon_s: 100.0, ..Scale::tiny() };
    let scale = if f.name == "fig11_utilization" { long } else { Scale::tiny() };
    let out = (f.run)(&Args::new(f, scale));
    let (report, failures) = (out.report, out.failures);
    assert!(!report.trim().is_empty() && failures.is_empty(), "{}: {failures:?}", f.name);
    (f.name, report)
}

/// Asserts `name`'s report contains every marker.
fn has(name: &str, markers: &[&str]) -> &'static str {
    let r = report(name);
    for m in markers {
        assert!(r.contains(m), "{name}: missing {m} in:\n{r}");
    }
    r
}

#[test]
fn fig02_report() {
    let services = ["ts-order", "ts-ticketinfo", "ts-travel", "ts-basic", "ts-seat", "ts-station"];
    has("fig02_heterogeneity", &services);
}

#[test]
fn fig03_reports() {
    has("fig03a_resource_profile", &["social-graph-service"]);
    has("fig03b_alibaba_util", &["surge peaks"]);
    has("fig03c_capping", &["High", "Moderate", "Less"]);
}

#[test]
fn fig04_report() {
    has("fig04_comm", &["single machine", "across machines"]);
}

#[test]
fn fig05_report() {
    has("fig05_challenge", &["late invocations", "v-MLP"]);
}

#[test]
fn fig09_report() {
    has("fig09_patterns", &["L1", "L2", "L3", "generated"]);
}

#[test]
fn fig10_report_tiny() {
    let r = has("fig10_qos", &["normalized to v-MLP", "High V_r"]);
    // Three patterns × header rows.
    assert_eq!(r.matches("Fig 10").count(), 3);
}

#[test]
fn fig11_report_tiny() {
    has("fig11_utilization", &["peak @ 40s", "after/before"]);
}

#[test]
fn fig12_report_tiny() {
    let r = has("fig12_latency_dist", &["p99"]);
    assert_eq!(r.matches("Fig 12").count(), fig12_latency::LEVELS.len());
}

#[test]
fn fig13_report_tiny() {
    let r = has("fig13_tail_latency", &["normalized to FairSched"]);
    assert_eq!(r.matches("Fig 13").count(), 3);
}

#[test]
fn fig14_report_tiny() {
    has("fig14_throughput", &["100% high", "0% high"]);
}

#[test]
fn tables_report() {
    has("tables", &["Table I", "Table II", "Table III", "Table V", "Table VI"]);
}
