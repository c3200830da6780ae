//! Ablation benchmarks for the design choices DESIGN.md §6 calls out:
//! Δt policy, delay slot, resource stretch, queue reordering/switching,
//! and reservation trimming — each as a timed end-to-end run of the
//! corresponding v-MLP variant. (The *quality* impact of the same
//! [`VARIANTS`] is reported by `figs ablations`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlp_bench::ablations::VARIANTS;
use mlp_bench::Scale;
use mlp_engine::experiment::Experiment;

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("vmlp_ablations");
    g.sample_size(10);
    for (_, spec) in VARIANTS {
        g.bench_with_input(BenchmarkId::from_parameter(spec), &spec, |b, &spec| {
            let ec = Scale::tiny().config(spec);
            b.iter(|| Experiment::from_config(ec.clone()).run().unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
