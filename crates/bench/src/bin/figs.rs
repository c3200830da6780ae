//! Regenerates one figure or table of the evaluation:
//! `figs <name> [--scale=tiny|small|paper] [--sweep=FILE] [--audit=FILE]`.
//! Without a name it lists them all. Exits 2 on a usage error, 130 after
//! ctrl-c (the finished points are still flushed), 1 when a gate fails.

use mlp_bench::figs::parse_args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{}", e.message);
        std::process::exit(e.code.into());
    });
    let figure = args.figure;
    let outcome = (figure.run)(&args);
    print!("{}", outcome.report);
    if let Some((key, value)) = outcome.bench {
        mlp_bench::merge_bench_json(key, value);
    }
    if let (Some(path), Some(companion)) = (&args.audit, figure.audit) {
        mlp_bench::audit_run(companion(&args.scale), path);
    }
    if mlp_engine::shutdown::requested() {
        eprintln!("{}: interrupted — kept only the points that finished", figure.name);
        std::process::exit(130);
    }
    for failure in &outcome.failures {
        eprintln!("{}: {failure}", figure.name);
    }
    std::process::exit(if outcome.failures.is_empty() { 0 } else { 1 });
}
