//! `vmlp` — command-line experiment runner.
//!
//! Runs one scheduling experiment from flags or a JSON config file and
//! prints (or saves) the result — the "downstream user" entry point to the
//! simulator.
//!
//! ```sh
//! vmlp --scheme=v-mlp --pattern=l2 --machines=20 --rate=140 --horizon=60
//! vmlp --config=experiment.json --out=result.json
//! vmlp serve --addr=127.0.0.1:7411 --machines=20
//! vmlp --help
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use v_mlp::engine;
use v_mlp::prelude::*;

const HELP: &str = "\
vmlp — run one v-MLP scheduling experiment

USAGE:
    vmlp [FLAGS]
    vmlp serve [FLAGS]     serve live TCP traffic (vmlp serve --help)

FLAGS:
    --scheme=SPEC     registered scheme, optionally with typed params:
                      fairsched | cursched | partprofile | fullprofile |
                      v-mlp (default) | searchsched
                      params attach as NAME:k=v,k2=v2 — e.g.
                      v-mlp:healing=off  or  v-mlp:reorder=off,dt_policy=always-p99
    --pattern=NAME    l1 | l2 | l3 | const   (default l1)
    --mix=NAME        balanced | low | mid | high | ratio:<0..1>  (default balanced)
    --machines=N      cluster size            (default 20)
    --rate=R          peak req/s              (default 140)
    --horizon=S       run length, seconds     (default 60)
    --seed=N          RNG seed                (default 2022)
    --small-tier=N:S  heterogeneous fleet: N machines at scale S (e.g. 5:0.5)
    --shards=K        partition the cluster into K round-robin scheduling
                      shards (default 1)
    --config=FILE     load a JSON ExperimentConfig instead of flags
    --out=FILE        save the result as JSON (traceio format)
    --audit=FILE      record the decision-audit trail as JSONL and run the
                      invariant auditor (never changes simulation results)
    --help            this text

EXIT CODES:
    0  success        2  usage / invalid config
    3  malformed or version-skewed file
    4  file I/O failure
";

/// Parses and registry-validates a `--scheme` spec; the error message
/// names the offending key/name and lists the registered schemes.
fn parse_scheme(s: &str) -> Result<SchemeSpec, String> {
    let spec = SchemeSpec::parse(s)?;
    default_registry().validate_spec(&spec).map_err(|e| e.to_string())?;
    Ok(spec)
}

fn parse_pattern(s: &str) -> Option<WorkloadPattern> {
    Some(match s.to_ascii_lowercase().as_str() {
        "l1" => WorkloadPattern::L1Pulse,
        "l2" => WorkloadPattern::L2Fluctuating,
        "l3" => WorkloadPattern::L3PeriodicWide,
        "const" | "constant" => WorkloadPattern::Constant,
        _ => return None,
    })
}

fn parse_mix(s: &str) -> Option<MixSpec> {
    Some(match s.to_ascii_lowercase().as_str() {
        "balanced" => MixSpec::Balanced,
        "low" => MixSpec::SingleClass(VolatilityClass::Low),
        "mid" => MixSpec::SingleClass(VolatilityClass::Mid),
        "high" => MixSpec::SingleClass(VolatilityClass::High),
        other => {
            let r = other.strip_prefix("ratio:")?.parse::<f64>().ok()?;
            MixSpec::HighRatio(r)
        }
    })
}

const USAGE_EXIT: u8 = 2;

const SERVE_HELP: &str = "\
vmlp serve — run the kernel live against the wall clock behind a TCP socket

The same event-application loop the simulator runs — admission, lifecycle,
healing, the invariant auditor — drives real traffic: line protocol
(`RUN <type>` → `OK <latency_us> <request>`) or minimal HTTP/1.1
(`GET /run/<type>`), auto-detected per connection. Ctrl-C (SIGINT/SIGTERM)
drains in-flight requests, then prints the run summary and the auditor's
verdict.

USAGE:
    vmlp serve [FLAGS]

FLAGS:
    --addr=HOST:PORT  bind address            (default 127.0.0.1:7411)
    --scheme=SPEC     registered scheme spec, as in plain vmlp
                      (default v-mlp)
    --machines=N      cluster size            (default 20)
    --seed=N          RNG seed for the simulated cluster (default 2022)
    --queue-cap=N     bounded submission queue; BUSY past it (default 512)
    --drain=S         shutdown drain timeout, seconds (default 10)
    --overload=on|off paper admission gate / breakers / brownout
                      (default off; on ⇒ overload SHED replies)
    --auditor=on|off  live invariant auditing  (default on)
    --audit=FILE      save the decision-audit trail as JSONL on drain
    --help            this text

EXIT CODES:
    0  clean drain, no invariant violations
    1  the auditor caught an invariant violation during the run
    2  usage / invalid config
    4  file I/O failure
";

fn serve_main(args: &[String]) -> ExitCode {
    let mut serve_cfg = mlp_serve::ServeConfig {
        addr: "127.0.0.1:7411".into(),
        queue_cap: 512,
        request_timeout: std::time::Duration::from_secs(30),
        drain_timeout: std::time::Duration::from_secs(10),
        experiment: ExperimentConfig { machines: 20, ..ExperimentConfig::paper_default("vmlp") }
            // Live runs are open-ended: aggregate in constant memory and cap
            // the profile store so a soak cannot grow without bound.
            .with_stream_stats(true)
            .with_profile_retention(512)
            .with_auditor(true),
    };
    let mut audit_out: Option<PathBuf> = None;

    for arg in args {
        let bad = |msg: &str| {
            eprintln!("error: {msg}\n\n{SERVE_HELP}");
            ExitCode::from(USAGE_EXIT)
        };
        if arg == "--help" || arg == "-h" {
            print!("{SERVE_HELP}");
            return ExitCode::SUCCESS;
        }
        let Some((key, value)) = arg.split_once('=') else {
            return bad(&format!("unrecognized argument '{arg}'"));
        };
        match key {
            "--addr" => serve_cfg.addr = value.to_string(),
            "--scheme" => match parse_scheme(value) {
                Ok(s) => serve_cfg.experiment.scheme = s,
                Err(e) => return bad(&e),
            },
            "--machines" => match value.parse() {
                Ok(n) => serve_cfg.experiment.machines = n,
                Err(_) => return bad("machines must be an integer"),
            },
            "--seed" => match value.parse() {
                Ok(s) => serve_cfg.experiment.seed = s,
                Err(_) => return bad("seed must be an integer"),
            },
            "--queue-cap" => match value.parse() {
                Ok(n) if n > 0 => serve_cfg.queue_cap = n,
                _ => return bad("queue-cap must be a positive integer"),
            },
            "--drain" => match value.parse::<f64>() {
                Ok(s) if s >= 0.0 => {
                    serve_cfg.drain_timeout = std::time::Duration::from_secs_f64(s)
                }
                _ => return bad("drain must be non-negative seconds"),
            },
            "--overload" => match value.to_ascii_lowercase().as_str() {
                "on" => {
                    serve_cfg.experiment = serve_cfg.experiment.with_overload(OverloadConfig {
                        enabled: true,
                        resilience: true,
                        ..OverloadConfig::disabled()
                    })
                }
                "off" => {
                    serve_cfg.experiment =
                        serve_cfg.experiment.with_overload(OverloadConfig::disabled())
                }
                _ => return bad("overload must be on or off"),
            },
            "--auditor" => match value.to_ascii_lowercase().as_str() {
                "on" => serve_cfg.experiment = serve_cfg.experiment.with_auditor(true),
                "off" => serve_cfg.experiment = serve_cfg.experiment.with_auditor(false),
                _ => return bad("auditor must be on or off"),
            },
            "--audit" => audit_out = Some(PathBuf::from(value)),
            _ => return bad(&format!("unknown flag '{key}'")),
        }
    }
    if audit_out.is_some() {
        serve_cfg.experiment = serve_cfg.experiment.with_audit(true).with_auditor(true);
    }

    engine::shutdown::install_signal_handler();
    let server = match mlp_serve::Server::start(serve_cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start server on {}: {e}", serve_cfg.addr);
            return ExitCode::from(USAGE_EXIT);
        }
    };
    eprintln!(
        "serving {} on {} machines at {} (queue {}, auditor {}) — ctrl-c drains",
        serve_cfg.experiment.scheme.display_name(),
        serve_cfg.experiment.machines,
        server.local_addr(),
        serve_cfg.queue_cap,
        if serve_cfg.experiment.auditor { "on" } else { "off" },
    );

    // Park until a signal arrives, surfacing counters as a heartbeat.
    let mut last_report = std::time::Instant::now();
    while !engine::shutdown::requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
        if last_report.elapsed() >= std::time::Duration::from_secs(15) {
            let s = server.stats();
            eprintln!(
                "live: {} conns, {} reqs, {} completed, {} shed, {} busy, mean {:.0} us",
                s.connections,
                s.requests,
                s.completed,
                s.shed,
                s.busy,
                if s.completed > 0 { s.latency_us_sum as f64 / s.completed as f64 } else { 0.0 },
            );
            last_report = std::time::Instant::now();
        }
    }
    eprintln!("shutdown requested — draining …");
    let stats = server.stats();
    let out = server.stop();

    println!("requests served:       {}", stats.requests);
    println!("arrived / completed:   {} / {}", out.arrived, stats.completed);
    println!("shed / busy / errors:  {} / {} / {}", stats.shed, stats.busy, stats.errors);
    println!(
        "mean latency:          {:.1} us",
        if stats.completed > 0 {
            stats.latency_us_sum as f64 / stats.completed as f64
        } else {
            0.0
        }
    );
    if let Some(path) = audit_out {
        if let Err(e) = out.audit.write_jsonl(&path) {
            eprintln!("error: cannot save audit trail: {e}");
            return ExitCode::from(4);
        }
        eprintln!("audit: {} decisions saved to {}", out.audit.len(), path.display());
    }
    match &out.invariant_report {
        None if serve_cfg.experiment.auditor => {
            eprintln!("auditor: no invariant violations");
            ExitCode::SUCCESS
        }
        None => ExitCode::SUCCESS,
        Some(report) => {
            eprintln!("auditor: VIOLATIONS DETECTED\n{report}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return serve_main(&argv[1..]);
    }

    let mut config = ExperimentConfig {
        machines: 20,
        max_rate: 140.0,
        horizon_s: 60.0,
        ..ExperimentConfig::paper_default("vmlp")
    };
    let mut out: Option<PathBuf> = None;
    let mut audit_out: Option<PathBuf> = None;

    for arg in std::env::args().skip(1) {
        let bad = |msg: &str| {
            eprintln!("error: {msg}\n\n{HELP}");
            ExitCode::from(USAGE_EXIT)
        };
        if arg == "--help" || arg == "-h" {
            print!("{HELP}");
            return ExitCode::SUCCESS;
        }
        let Some((key, value)) = arg.split_once('=') else {
            return bad(&format!("unrecognized argument '{arg}'"));
        };
        match key {
            "--scheme" => match parse_scheme(value) {
                Ok(s) => config.scheme = s,
                Err(e) => return bad(&e),
            },
            "--pattern" => match parse_pattern(value) {
                Some(p) => config.pattern = p,
                None => return bad(&format!("unknown pattern '{value}'")),
            },
            "--mix" => match parse_mix(value) {
                Some(m) => config.mix = m,
                None => return bad(&format!("unknown mix '{value}'")),
            },
            "--machines" => match value.parse() {
                Ok(n) => config.machines = n,
                Err(_) => return bad("machines must be an integer"),
            },
            "--rate" => match value.parse() {
                Ok(r) => config.max_rate = r,
                Err(_) => return bad("rate must be a number"),
            },
            "--horizon" => match value.parse() {
                Ok(h) => config.horizon_s = h,
                Err(_) => return bad("horizon must be a number"),
            },
            "--seed" => match value.parse() {
                Ok(s) => config.seed = s,
                Err(_) => return bad("seed must be an integer"),
            },
            "--small-tier" => {
                let parsed = value
                    .split_once(':')
                    .and_then(|(n, s)| Some((n.parse().ok()?, s.parse().ok()?)));
                match parsed {
                    Some((n, s)) => config.small_tier = Some((n, s)),
                    None => return bad("small-tier must be N:SCALE, e.g. 5:0.5"),
                }
            }
            "--shards" => match value.parse() {
                Ok(k) => config.shards = k,
                Err(_) => return bad("shards must be an integer"),
            },
            "--config" => match Experiment::from_config_file(Path::new(value)) {
                Ok(e) => config = e.config().clone(),
                Err(e) => {
                    eprintln!("error: cannot load config: {e}");
                    return ExitCode::from(e.exit_code());
                }
            },
            "--out" => out = Some(PathBuf::from(value)),
            "--audit" => audit_out = Some(PathBuf::from(value)),
            _ => return bad(&format!("unknown flag '{key}'")),
        }
    }

    eprintln!(
        "running {} on {} machines ({} shard{}), {} @ {} req/s peak, {}s …",
        config.scheme.display_name(),
        config.machines,
        config.shards.max(1),
        if config.shards.max(1) == 1 { "" } else { "s" },
        config.pattern.label(),
        config.max_rate,
        config.horizon_s
    );
    if audit_out.is_some() {
        config = config.with_audit(true).with_auditor(true);
    }
    let catalog = RequestCatalog::paper();
    let (result, sim) = match Experiment::from_config(config.clone()).catalog(&catalog).run_full() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(e.exit_code());
        }
    };

    println!("arrived / completed:   {} / {}", result.arrived, result.completed);
    println!("throughput:            {:.1} req/s", result.throughput());
    println!(
        "latency p50/p90/p99:   {:.1} / {:.1} / {:.1} ms",
        result.latency_ms[0], result.latency_ms[1], result.latency_ms[2]
    );
    println!("SLO violations:        {:.2}%", result.violation_rate * 100.0);
    println!(
        "violations low/mid/high: {:.2}% / {:.2}% / {:.2}%",
        result.violation_by_class[0] * 100.0,
        result.violation_by_class[1] * 100.0,
        result.violation_by_class[2] * 100.0
    );
    println!("mean utilization:      {:.1}%", result.mean_utilization * 100.0);
    let (a, b, c) = result.healing;
    println!("healing (slot/stretch/switch): {a}/{b}/{c}");
    if config.shards.max(1) > 1 {
        println!("shard overflows:       {}", result.shard_overflows);
    }
    if let Some(bd) = result.mean_breakdown {
        println!(
            "critical path (mean ms): queue {:.2} + place {:.2} + comm {:.2} + exec {:.2} + cap {:.2} = {:.2} (healed {:.2})",
            bd.queue_ms, bd.placement_ms, bd.comm_ms, bd.exec_ms, bd.cap_ms, bd.total_ms(), bd.healed_ms
        );
    }

    if let Some(path) = audit_out {
        if let Err(e) = sim.audit.write_jsonl(&path) {
            eprintln!("error: cannot save audit trail: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "audit: {} decisions saved to {} ({} dropped by the ring buffer)",
            sim.audit.len(),
            path.display(),
            sim.audit.dropped()
        );
        match &sim.invariant_report {
            None => eprintln!("auditor: no invariant violations"),
            Some(report) => eprintln!("auditor: VIOLATIONS DETECTED\n{report}"),
        }
    }

    if let Some(path) = out {
        if let Err(e) = traceio::save_experiment(&path, &result) {
            eprintln!("error: cannot save result: {e}");
            return ExitCode::from(e.exit_code());
        }
        eprintln!("saved result to {}", path.display());
    }
    ExitCode::SUCCESS
}
