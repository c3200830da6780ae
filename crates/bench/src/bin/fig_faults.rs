//! Regenerates the fault-storm robustness scenario (extension figure)
//! over a sweep config (`--sweep=FILE`, default: CurSched / FullProfile /
//! v-MLP).
fn main() {
    let scale = mlp_bench::scale_from_args();
    let sweep = mlp_bench::sweep_from_args().unwrap_or_else(mlp_bench::fig_faults::default_sweep);
    eprintln!(
        "running fault-storm scenario at --scale={} over [{}] …",
        scale.label,
        sweep.labels().join(", ")
    );
    print!("{}", mlp_bench::fig_faults::report_sweep(scale, 2022, &sweep));
    if let Some(path) = mlp_bench::audit_from_args() {
        // Audited companion run: v-MLP riding out the same storm, so the
        // trail captures crash-replans, sheds, and retries.
        let cfg = scale.config("vmlp").with_faults(mlp_bench::fig_faults::storm_for(&scale));
        mlp_bench::audit_run(cfg, &path);
    }
}
