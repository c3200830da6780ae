//! One admission-round "kernel tick" at growing shard counts: the unit of
//! work `run_round` issues every sampling period, isolated from the event
//! loop. Each iteration rebuilds a fresh v-MLP scheduler, queues 64
//! arrivals, and runs one `schedule` round against a fleet of 16 machines
//! per shard (the `fig_scale` sharding regime): the sequential round at
//! one shard, the sharded round (home-shard passes, then overflow) above.
//! The cluster clone per iteration is part of the measured cost — a flat
//! memcpy that grows with the fleet.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mlp_cluster::Cluster;
use mlp_core::VMlpScheduler;
use mlp_engine::profiling::warm_profiles;
use mlp_model::{RequestCatalog, ResourceVector};
use mlp_net::NetworkModel;
use mlp_sched::{RequestInfo, Scheduler, SchedulerCtx};
use mlp_sim::{SimRng, SimTime};
use mlp_trace::{AuditLog, MetricsRegistry, RequestId};

/// Queued arrivals per tick — deep enough that every shard sees work at
/// 64 shards, small enough that one round drains it.
const QUEUE: usize = 64;

fn bench_kernel_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_tick");
    g.sample_size(10);
    let catalog = RequestCatalog::paper();
    let profiles = warm_profiles(&catalog, 100, &mut SimRng::new(3));
    let net = NetworkModel::paper_default();
    let metrics = MetricsRegistry::new();
    let audit = AuditLog::disabled();

    let mix = catalog.balanced_mix();
    let reqs: Vec<RequestInfo> = (0..QUEUE)
        .map(|i| RequestInfo {
            id: RequestId(i as u64),
            rtype: mix[i % mix.len()].0,
            arrival: SimTime::ZERO,
        })
        .collect();

    for &shards in &[1usize, 16, 64] {
        let base = Cluster::homogeneous(shards * 16, ResourceVector::new(2.4, 2_500.0, 350.0))
            .with_shards(shards);
        let id = BenchmarkId::from_parameter(format!("s{shards}"));
        g.bench_with_input(id, &shards, |b, _| {
            b.iter(|| {
                let mut cluster = base.clone();
                let mut sched = VMlpScheduler::new();
                let mut ctx = SchedulerCtx {
                    now: SimTime::from_secs(1),
                    cluster: &mut cluster,
                    profiles: &profiles,
                    catalog: &catalog,
                    net: &net,
                    metrics: &metrics,
                    audit: &audit,
                };
                for r in &reqs {
                    sched.on_arrival(*r, &mut ctx);
                }
                black_box(sched.schedule(&mut ctx))
            });
        });
    }
    g.finish();
}

/// The queue-depth axis: one sequential admission round over a waiting
/// queue of 16 / 256 / 4096 requests. The reorder index pays per pop, not
/// per queued request, so the round's cost should track how many requests
/// it tries (capped per round), not the depth. A single 16-machine shard
/// keeps placement cost fixed so the spread across depths isolates queue
/// maintenance.
fn bench_queue_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_depth_tick");
    g.sample_size(10);
    let catalog = RequestCatalog::paper();
    let profiles = warm_profiles(&catalog, 100, &mut SimRng::new(3));
    let net = NetworkModel::paper_default();
    let metrics = MetricsRegistry::new();
    let audit = AuditLog::disabled();
    let mix = catalog.balanced_mix();
    let base = Cluster::homogeneous(16, ResourceVector::new(2.4, 2_500.0, 350.0));

    for &depth in &[16usize, 256, 4096] {
        let reqs: Vec<RequestInfo> = (0..depth)
            .map(|i| RequestInfo {
                id: RequestId(i as u64),
                rtype: mix[i % mix.len()].0,
                // Spread arrivals so the reorder ranks are non-trivial.
                arrival: SimTime::from_millis((i as u64 * 7) % 900),
            })
            .collect();
        let id = BenchmarkId::from_parameter(format!("q{depth}"));
        g.bench_with_input(id, &depth, |b, _| {
            b.iter(|| {
                let mut cluster = base.clone();
                let mut sched = VMlpScheduler::new();
                let mut ctx = SchedulerCtx {
                    now: SimTime::from_secs(1),
                    cluster: &mut cluster,
                    profiles: &profiles,
                    catalog: &catalog,
                    net: &net,
                    metrics: &metrics,
                    audit: &audit,
                };
                for r in &reqs {
                    sched.on_arrival(*r, &mut ctx);
                }
                black_box(sched.schedule(&mut ctx))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kernel_tick, bench_queue_depth);
criterion_main!(benches);
