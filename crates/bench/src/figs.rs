//! The `figs` front door: every figure and table in one [`FIGURES`]
//! table, and one argument parser for all of them. An entry's `run` hands
//! back an [`Outcome`]; the `figs` binary prints its report, merges its
//! points into `BENCH_sim.json` and exits 1 on a gate failure.

use crate::scale::Scale;
use crate::{
    ablations, fig02_heterogeneity, fig03_resources, fig04_comm, fig05_challenge, fig09_patterns,
    fig10_qos, fig11_utilization, fig12_latency, fig13_tail, fig14_throughput, fig_faults,
    fig_overload, fig_scale, fig_serve, fig_soak, fig_zoo, tables,
};
use mlp_engine::config::{ExperimentConfig, MixSpec};
use mlp_engine::sweep::SweepConfig;
use mlp_workload::WorkloadPattern::Constant;
use serde::Serialize;
use serde_json::Value;
use std::path::PathBuf;

/// The seed every figure runs at.
pub const SEED: u64 = 2022;

/// One runnable figure or table.
pub struct Figure {
    /// The name `figs` is called with.
    pub name: &'static str,
    /// One-line summary for the listing.
    pub about: &'static str,
    /// The default sweep; `None` when the figure takes no `--sweep`.
    pub sweep: Option<fn() -> SweepConfig>,
    /// The companion run `--audit=FILE` records; `None`: no `--audit`.
    pub audit: Option<fn(&Scale) -> ExperimentConfig>,
    /// Runs the figure.
    pub run: fn(&Args) -> Outcome,
}

/// A figure without a sweep or an audited companion.
const fn fig(name: &'static str, about: &'static str, run: fn(&Args) -> Outcome) -> Figure {
    Figure { name, about, sweep: None, audit: None, run }
}

/// A parsed command line.
pub struct Args {
    /// The figure to run.
    pub figure: &'static Figure,
    /// `--scale` (default small); figures without a scale ignore it.
    pub scale: Scale,
    /// `--audit`: where the companion run's decision trail goes.
    pub audit: Option<PathBuf>,
    sweep: Option<SweepConfig>,
}

impl Args {
    /// `figure` at `scale` with its default sweep and no audit.
    pub fn new(figure: &'static Figure, scale: Scale) -> Args {
        Args { figure, scale, audit: None, sweep: figure.sweep.map(|default| default()) }
    }

    /// `--sweep=FILE` once loaded, else the figure's default sweep.
    pub fn sweep(&self) -> &SweepConfig {
        self.sweep.as_ref().expect("only figures with a sweep read it")
    }

    fn announce(&self) {
        eprintln!("running {} at --scale={} …", self.figure.name, self.scale.label);
    }
}

/// What one figure run hands back to `figs`.
pub struct Outcome {
    /// Printed to stdout as is.
    pub report: String,
    /// A `BENCH_sim.json` top-level entry to merge.
    pub bench: Option<(&'static str, Value)>,
    /// Gate failures, one line each; any makes the exit code 1.
    pub failures: Vec<String>,
}

impl From<String> for Outcome {
    fn from(report: String) -> Outcome {
        Outcome { report, bench: None, failures: Vec::new() }
    }
}

impl Outcome {
    /// A table plus its points under the figure's name, and its gates. No
    /// points (ctrl-c before the first finished) leave the committed ones.
    fn recorded(a: &Args, table: String, points: &impl Serialize, failures: Vec<String>) -> Self {
        let value = serde_json::to_value(points).expect("figure points serialize");
        let bench = (value != Value::Array(Vec::new())).then_some((a.figure.name, value));
        Outcome { report: table + "\n", bench, failures }
    }
}

/// Announces `report(scale, SEED)` on stderr and runs it.
fn scaled(a: &Args, report: fn(Scale, u64) -> String) -> Outcome {
    a.announce();
    report(a.scale, SEED).into()
}

/// Every figure and table: the paper's in order, then the extensions.
pub const FIGURES: &[Figure] = &[
    fig("tables", "Tables I, II, III, V and VI", |_| tables::all().into()),
    fig("fig02_heterogeneity", "Fig 2: exec times", |_| fig02_heterogeneity::report(SEED).into()),
    fig("fig03a_resource_profile", "Fig 3a: demands", |_| fig03_resources::fig3a_report().into()),
    fig("fig03b_alibaba_util", "Fig 3b: Alibaba", |_| fig03_resources::fig3b_report(SEED).into()),
    fig("fig03c_capping", "Fig 3c: capping", |_| fig03_resources::fig3c_report(SEED).into()),
    fig("fig04_comm", "Fig 4: communication times", |_| fig04_comm::report(SEED).into()),
    fig("fig05_challenge", "Fig 5: mispredictions", |_| fig05_challenge::report(SEED).into()),
    fig("fig09_patterns", "Fig 9: workload patterns", |a| scaled(a, fig09_patterns::report)),
    fig("fig10_qos", "Fig 10: normalized QoS violations", |a| scaled(a, fig10_qos::report)),
    fig("fig11_utilization", "Fig 11: peak utilization", |a| scaled(a, fig11_utilization::report)),
    fig("fig12_latency_dist", "Fig 12: latency vs load", |a| scaled(a, fig12_latency::report)),
    fig("fig13_tail_latency", "Fig 13: normalized tail latency", |a| scaled(a, fig13_tail::report)),
    Figure {
        sweep: Some(fig14_throughput::default_sweep),
        // The sweep's most contended cell: v-MLP at the 50% high-V_r ratio.
        audit: Some(|s| s.config("vmlp").with_pattern(Constant).with_mix(MixSpec::HighRatio(0.5))),
        ..fig("fig14_throughput", "Fig 14: throughput vs high-V_r ratio", |a| {
            a.announce();
            fig14_throughput::report_sweep(a.scale, SEED, a.sweep()).into()
        })
    },
    Figure {
        sweep: Some(fig_faults::default_sweep),
        // v-MLP riding out the same storm: crash-replans, sheds, retries.
        audit: Some(|s| s.config("vmlp").with_faults(fig_faults::storm_for(s))),
        ..fig("fig_faults", "fault storm (extension)", |a| {
            a.announce();
            fig_faults::report_sweep(a.scale, SEED, a.sweep()).into()
        })
    },
    Figure {
        sweep: Some(fig_overload::default_sweep),
        ..fig("fig_overload", "flash-crowd overload, gated (extension)", |a| {
            let points = fig_overload::data_sweep(&a.scale, SEED, a.sweep());
            let gates = fig_overload::gates(&points, &a.scale);
            Outcome::recorded(a, fig_overload::report(&points, &a.scale), &points, gates)
        })
    },
    fig("fig_scale", "scale trajectory 8 → 4096 machines, gated (extension)", |a| {
        let (points, wall_ms): (Vec<_>, Vec<_>) =
            fig_scale::data(&a.scale, SEED).into_iter().unzip();
        let gates = fig_scale::gates(&points);
        Outcome::recorded(a, fig_scale::report(&points, &wall_ms, &a.scale), &points, gates)
    }),
    fig("fig_serve", "live loopback serving soak, gated (extension)", |a| {
        // Every number in the point is a wall-clock measurement, so it is
        // printed and gated but not recorded in BENCH_sim.json.
        let point = fig_serve::run(&a.scale, SEED);
        let failures = fig_serve::gates(&point);
        Outcome { report: fig_serve::report(&point) + "\n", bench: None, failures }
    }),
    Figure {
        sweep: Some(fig_soak::default_sweep),
        ..fig("fig_soak", "bounded-memory soak, gated (extension)", |a| {
            mlp_engine::shutdown::install_signal_handler();
            let (points, wall_ms): (Vec<_>, Vec<_>) =
                fig_soak::data_sweep(&a.scale, SEED, a.sweep()).into_iter().unzip();
            let gates = fig_soak::gates(&points, &wall_ms, &a.scale);
            Outcome::recorded(a, fig_soak::report(&points, &wall_ms, &a.scale), &points, gates)
        })
    },
    Figure {
        sweep: Some(fig_zoo::default_sweep),
        ..fig("fig_zoo", "scheduler zoo, steady + storm, gated (extension)", |a| {
            mlp_engine::shutdown::install_signal_handler();
            a.announce();
            let points = fig_zoo::data(&a.scale, SEED, a.sweep());
            let gates = fig_zoo::gates(&points);
            Outcome::recorded(a, fig_zoo::report(&points, &a.scale), &points, gates)
        })
    },
    fig("ablations", "v-MLP design-choice ablations", |a| scaled(a, ablations::report)),
];

/// The usage line and every figure's name and summary.
pub fn listing() -> String {
    let rows: String = FIGURES.iter().map(|f| format!("  {:<24} {}\n", f.name, f.about)).collect();
    format!("usage: figs <name> [--scale=tiny|small|paper] [--sweep=FILE] [--audit=FILE]\n\n{rows}")
}

/// A rejected command line: the message and the exit code (2 for usage
/// errors, [`mlp_engine::Error::exit_code`] for a bad sweep file).
pub struct ArgError {
    pub code: u8,
    pub message: String,
}

/// Parses `figs`'s arguments (without the program name). An unknown
/// figure, scale or flag, or a `--sweep` / `--audit` the figure does not
/// take, is a usage error that names the valid choices.
pub fn parse_args(argv: &[String]) -> Result<Args, ArgError> {
    let usage = |message: String| ArgError { code: 2, message };
    let Some((name, flags)) = argv.split_first() else { return Err(usage(listing())) };
    let figure = FIGURES.iter().find(|f| f.name == *name);
    let figure =
        figure.ok_or_else(|| usage(format!("error: unknown figure '{name}'\n{}", listing())))?;
    let mut args = Args::new(figure, Scale::small());
    let sweep = if figure.sweep.is_some() { " [--sweep=FILE]" } else { "" };
    let audit = if figure.audit.is_some() { " [--audit=FILE]" } else { "" };
    for flag in flags {
        let bad = || {
            let takes = format!("usage: figs {name} [--scale=tiny|small|paper]{sweep}{audit}");
            usage(format!("error: bad argument '{flag}'\n{takes}"))
        };
        match flag.split_once('=').ok_or_else(bad)? {
            ("--scale", "tiny") => args.scale = Scale::tiny(),
            ("--scale", "small") => args.scale = Scale::small(),
            ("--scale", "paper") => args.scale = Scale::paper(),
            ("--sweep", path) if figure.sweep.is_some() && !path.is_empty() => {
                let sweep = SweepConfig::load(path.as_ref()).and_then(|s| s.validate().map(|()| s));
                let sweep = sweep
                    .map_err(|e| ArgError { code: e.exit_code(), message: format!("error: {e}") });
                args.sweep = Some(sweep?);
            }
            ("--audit", path) if figure.audit.is_some() && !path.is_empty() => {
                args.audit = Some(path.into())
            }
            _ => return Err(bad()),
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &str) -> Result<Args, ArgError> {
        parse_args(&argv.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn names_are_unique_and_listed() {
        let listing = listing();
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(FIGURES[..i].iter().all(|g| g.name != f.name), "duplicate {}", f.name);
            assert!(listing.contains(&format!("  {:<24} {}\n", f.name, f.about)), "{}", f.name);
        }
    }

    #[test]
    fn typos_and_unsupported_flags_are_usage_errors() {
        for argv in [
            "",
            "fig10",
            "fig10_qos --scale=papr",
            "fig10_qos --scale",
            "tables --verbose",
            "fig10_qos --sweep=sweeps/paper.json",
            "fig_overload --audit=t.jsonl",
            "fig14_throughput --sweep=",
            "tables fig02_heterogeneity",
        ] {
            let e = parse(argv).err().unwrap_or_else(|| panic!("'{argv}' parsed"));
            assert_eq!(e.code, 2, "{argv}");
            assert!(e.message.contains("usage: figs"), "{argv}: {}", e.message);
        }
        let e = parse("fig10_qos --scale=papr").err().unwrap().message;
        assert!(e.ends_with("usage: figs fig10_qos [--scale=tiny|small|paper]"), "{e}");
        let missing = parse("fig_zoo --sweep=no/such/sweep.json").err().unwrap();
        assert_eq!(missing.code, 4, "I/O errors keep their own code: {}", missing.message);
    }

    #[test]
    fn accepted_forms() {
        let a = parse("fig10_qos").ok().unwrap();
        assert_eq!((a.figure.name, a.scale, a.audit), ("fig10_qos", Scale::small(), None));
        assert_eq!(parse("tables --scale=tiny").ok().unwrap().scale, Scale::tiny());
        let sweep = concat!("--sweep=", env!("CARGO_MANIFEST_DIR"), "/../../sweeps/zoo.json");
        let a =
            parse(&format!("fig14_throughput --scale=paper {sweep} --audit=t.jsonl")).ok().unwrap();
        assert_eq!(a.sweep().labels(), fig_zoo::default_sweep().labels());
        assert_eq!(parse("fig_zoo").ok().unwrap().sweep().labels(), a.sweep().labels());
        assert_eq!((a.scale, a.audit), (Scale::paper(), Some(PathBuf::from("t.jsonl"))));
    }
}
