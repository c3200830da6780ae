//! Microbenchmarks of the scheduling hot paths: ledger arithmetic,
//! placement, volatility scoring, queue reordering, and the execution
//! model's samplers. These are the kernels every simulated second runs
//! thousands of times; regressions here directly inflate figure runtimes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mlp_cluster::{Cluster, ResourceLedger};
use mlp_core::reorder::sort_by_reorder_ratio;
use mlp_core::volatility::Volatility;
use mlp_model::{RequestCatalog, ResourceVector};
use mlp_net::NetworkModel;
use mlp_sched::{RequestInfo, SchedulerCtx};
use mlp_sim::{SimDuration, SimRng, SimTime};
use mlp_stats::Dist;
use mlp_trace::{AuditLog, MetricsRegistry, ProfileStore, RequestId};
use rand::Rng;

fn bench_ledger(c: &mut Criterion) {
    let mut g = c.benchmark_group("ledger");
    let cap = ResourceVector::new(2.4, 2500.0, 350.0);
    let amt = ResourceVector::new(0.8, 300.0, 40.0);

    g.bench_function("reserve_unreserve", |b| {
        let mut ledger = ResourceLedger::new(cap);
        let mut t = 0u64;
        b.iter(|| {
            let from = SimTime::from_micros(t % 1_000_000);
            let to = from + SimDuration::from_millis(20);
            ledger.reserve(from, to, amt);
            ledger.unreserve(from, to, amt);
            t += 997;
        });
    });

    // A realistically loaded ledger: ~200 overlapping reservations.
    let mut loaded = ResourceLedger::new(cap);
    let mut rng = SimRng::new(7);
    for _ in 0..200 {
        let from = SimTime::from_micros(rng.rng().gen_range(0..1_000_000));
        let dur = SimDuration::from_micros(rng.rng().gen_range(5_000..50_000));
        loaded.reserve(from, from + dur, amt * 0.3);
    }
    g.bench_function("earliest_fit_loaded", |b| {
        b.iter(|| {
            loaded.earliest_fit(
                black_box(SimTime::from_micros(1000)),
                SimTime::from_secs(10),
                SimDuration::from_millis(25),
                black_box(amt),
                None,
            )
        });
    });
    g.bench_function("peak_usage_loaded", |b| {
        b.iter(|| loaded.peak_usage(black_box(SimTime::ZERO), SimTime::from_secs(1)));
    });

    // Query scaling with timeline length: ledgers pre-filled with 10 / 100
    // / 1000 overlapping reservations. The indexed profile should hold
    // query cost near-flat as n grows (binary search + bucket summaries)
    // where the naive rescan grew linearly.
    for n in [10usize, 100, 1000] {
        let mut ledger = ResourceLedger::new(cap);
        let mut rng = SimRng::new(11);
        let span_us = 1_000_000u64.max(n as u64 * 5_000);
        for _ in 0..n {
            let from = SimTime::from_micros(rng.rng().gen_range(0..span_us));
            let dur = SimDuration::from_micros(rng.rng().gen_range(5_000..50_000));
            ledger.reserve(from, from + dur, amt * 0.1);
        }
        let horizon = SimTime::from_micros(span_us + 100_000);
        g.bench_function(format!("usage_at_{n}"), |b| {
            b.iter(|| ledger.usage_at(black_box(SimTime::from_micros(span_us / 2))));
        });
        g.bench_function(format!("peak_usage_{n}"), |b| {
            b.iter(|| ledger.peak_usage(black_box(SimTime::ZERO), horizon));
        });
        g.bench_function(format!("earliest_fit_{n}"), |b| {
            b.iter(|| {
                ledger.earliest_fit(
                    black_box(SimTime::from_micros(1000)),
                    horizon,
                    SimDuration::from_millis(25),
                    black_box(amt),
                    None,
                )
            });
        });
    }
    g.finish();
}

fn bench_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("model");
    let catalog = RequestCatalog::paper();
    let compose = catalog.request_by_name("compose-post").unwrap();

    g.bench_function("volatility_of_request", |b| {
        b.iter(|| Volatility::of_request(black_box(compose), &catalog));
    });
    g.bench_function("dag_topo_order", |b| {
        b.iter(|| black_box(&compose.dag).topo_order());
    });
    g.bench_function("dag_chains", |b| {
        b.iter(|| black_box(&compose.dag).chains());
    });

    let mut rng = SimRng::new(1);
    let svc = catalog.services.get(compose.dag.node(1).service);
    g.bench_function("sample_exec_capped", |b| {
        b.iter(|| svc.sample_exec_ms_capped(black_box(1.2), 0.7, rng.rng()));
    });
    let d = Dist::lognormal_mean_cv(20.0, 0.18);
    g.bench_function("lognormal_sample", |b| {
        b.iter(|| d.sample(rng.rng()));
    });
    g.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduling");
    let catalog = RequestCatalog::paper();
    let net = NetworkModel::paper_default();
    let profiles = ProfileStore::new();
    let metrics = MetricsRegistry::new();
    let audit = AuditLog::disabled();

    // Reorder-ratio sort of a 256-request waiting queue.
    let queue: Vec<RequestInfo> = (0..256)
        .map(|i| RequestInfo {
            id: RequestId(i),
            rtype: catalog.requests[(i % 5) as usize].id,
            arrival: SimTime::from_millis(i * 3),
        })
        .collect();
    let mut cluster = Cluster::paper_default();
    g.bench_function("reorder_sort_256", |b| {
        let mut q = queue.clone();
        b.iter(|| {
            let ctx = SchedulerCtx {
                now: SimTime::from_secs(2),
                cluster: &mut cluster,
                profiles: &profiles,
                catalog: &catalog,
                net: &net,
                metrics: &metrics,
                audit: &audit,
            };
            sort_by_reorder_ratio(&mut q, SimTime::from_secs(2), &ctx);
        });
    });

    // Full-request placement on a 100-machine cluster (v-MLP policy).
    g.bench_function("plan_compose_post_100m", |b| {
        let mut cluster = Cluster::paper_default();
        let mut cursor = 0usize;
        let req = RequestInfo {
            id: RequestId(0),
            rtype: catalog.request_by_name("compose-post").unwrap().id,
            arrival: SimTime::ZERO,
        };
        let policy = mlp_core::organizer::OrganizerPolicy::new(Volatility::new(0.8));
        b.iter(|| {
            let mut ctx = SchedulerCtx {
                now: SimTime::ZERO,
                cluster: &mut cluster,
                profiles: &profiles,
                catalog: &catalog,
                net: &net,
                metrics: &metrics,
                audit: &audit,
            };
            let plan =
                mlp_sched::placement::plan_request(&req, &policy, true, &mut cursor, &mut ctx)
                    .expect("placeable");
            mlp_sched::placement::unreserve_plan(&plan, &mut ctx);
        });
    });
    g.finish();
}

criterion_group!(benches, bench_ledger, bench_model, bench_scheduling);
criterion_main!(benches);
