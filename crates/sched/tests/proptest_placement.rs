//! Differential property test of the placement scan: on random shards the
//! two-pass [`earliest_slot`] must pick the same `(machine, slot)` as the
//! brute-force loop it replaced, which asked every live machine the
//! `might_fit` → `earliest_fit` → `available` triple and kept the earliest
//! slot, ties broken by strictly greater headroom (admission) or by scan
//! order (crash re-planning). The reference lives here, in test code only.

use mlp_cluster::{Cluster, Machine, MachineId, ShardId};
use mlp_model::{RequestCatalog, ResourceVector};
use mlp_net::NetworkModel;
use mlp_sched::placement::{earliest_slot, earliest_slot_in_cluster, SlotTie};
use mlp_sched::SchedulerCtx;
use mlp_sim::{SimDuration, SimTime};
use mlp_trace::metrics::names::SHARD_OVERFLOWS;
use mlp_trace::{AuditLog, MetricsRegistry, ProfileStore};
use proptest::prelude::*;

/// CPU and IO follow `c`, memory follows `m`: not every vector is a
/// multiple of every other, so fit and headroom can disagree.
fn rv(c: f64, m: f64) -> ResourceVector {
    ResourceVector::new(c, m * 100.0, c * 10.0)
}

fn ms(t: u64) -> SimTime {
    SimTime::from_millis(t)
}

/// The scan as it was before the two-pass rewrite, one shard.
fn reference_slot<'a>(
    machines: impl Iterator<Item = &'a Machine>,
    ready: SimTime,
    horizon_end: SimTime,
    budget: SimDuration,
    grant: ResourceVector,
    tie: SlotTie,
) -> Option<(MachineId, SimTime)> {
    let mut best: Option<(MachineId, SimTime, f64)> = None;
    for m in machines {
        if !m.is_up() || !m.ledger.might_fit(grant) {
            continue;
        }
        let Some(slot) = m.ledger.earliest_fit(ready, horizon_end, budget, grant, None) else {
            continue;
        };
        let headroom = match tie {
            SlotTie::MostHeadroom => {
                m.ledger.available(slot, slot + budget).utilization_against(&m.capacity)
            }
            SlotTie::FirstInScan => 0.0,
        };
        let better = match best {
            None => true,
            Some((_, t, h)) => slot < t || (slot == t && headroom > h),
        };
        if better {
            best = Some((m.id, slot, headroom));
        }
    }
    best.map(|(m, t, _)| (m, t))
}

/// One scripted mutation of a machine before the probes run.
#[derive(Debug, Clone, Copy)]
enum Op {
    Reserve(u64, u64, ResourceVector),
    /// Un-reserves a window nobody reserved: after a `Clear` this leaves
    /// the net-negative deltas a straggling release produces.
    Unreserve(u64, u64, ResourceVector),
    Clear,
    Crash,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..16, 0u64..150, 1u64..60, 0.1f64..3.0, 0.1f64..3.0).prop_map(|(sel, s, l, c, m)| match sel
    {
        0..=10 => Op::Reserve(s, l, rv(c, m)),
        11..=12 => Op::Unreserve(s, l, rv(c, m)),
        13..=14 => Op::Clear,
        _ => Op::Crash,
    })
}

/// A sharded cluster of 1–10 machines with two capacities, ledgers built
/// by op scripts; some machines end up down. Machine `i` runs script
/// `i % distinct`, so with few distinct scripts several machines offer the
/// same slot with the same headroom and the scan-order rule decides.
fn arb_cluster() -> impl Strategy<Value = Cluster> {
    let scripts = prop::collection::vec(prop::collection::vec(arb_op(), 0..40), 1..10);
    (scripts, 1usize..10, 1usize..5).prop_map(|(scripts, distinct, shards)| {
        let caps = (0..scripts.len()).map(|i| if i % 4 == 3 { rv(6.0, 6.0) } else { rv(4.0, 4.0) });
        let mut cluster = Cluster::heterogeneous(caps.collect());
        for (i, m) in cluster.machines_mut().iter_mut().enumerate() {
            for &op in &scripts[i % distinct.min(scripts.len())] {
                match op {
                    Op::Reserve(s, l, amount) => m.ledger.reserve(ms(s), ms(s + l), amount),
                    Op::Unreserve(s, l, amount) => m.ledger.unreserve(ms(s), ms(s + l), amount),
                    Op::Clear => m.ledger.clear(),
                    Op::Crash => m.crash(),
                }
            }
        }
        let k = shards.min(cluster.len());
        cluster.with_shards(k)
    })
}

/// `(request id, ready ms, budget ms, horizon ms, grant)`: zero budgets (one
/// probe in six), horizons before `ready + budget` (and before `ready`),
/// and grants above every capacity are all in range.
fn arb_probe() -> impl Strategy<Value = (u64, u64, u64, u64, ResourceVector)> {
    (0u64..8, 0u64..220, 0u64..60, 0u64..420, 0.1f64..7.0, 0.1f64..7.0).prop_map(
        |(rid, ready, budget, horizon, c, m)| {
            (rid, ready, budget.saturating_sub(10), horizon, rv(c, m))
        },
    )
}

proptest! {
    #[test]
    fn scan_matches_the_brute_force_triple(
        cluster in arb_cluster(),
        probes in prop::collection::vec(arb_probe(), 1..30),
    ) {
        let mut cluster = cluster;
        let (catalog, net) = (RequestCatalog::paper(), NetworkModel::paper_default());
        let (profiles, audit) = (ProfileStore::new(), AuditLog::disabled());
        for (rid, ready, budget, horizon, grant) in probes {
            let (ready, horizon_end) = (ms(ready), ms(horizon));
            let budget = SimDuration::from_millis(budget);
            for tie in [SlotTie::MostHeadroom, SlotTie::FirstInScan] {
                // One shard at a time, as `plan_request_in_shard` scans.
                for s in 0..cluster.shard_count() {
                    let shard = ShardId(s as u32);
                    prop_assert_eq!(
                        earliest_slot(
                            cluster.shard_machines(shard), ready, horizon_end, budget, grant, tie
                        ),
                        reference_slot(
                            cluster.shard_machines(shard), ready, horizon_end, budget, grant, tie
                        ),
                        "shard {} tie {:?}", s, tie
                    );
                }
                // Shard-first with overflow: the first shard in rotation
                // order that has a window wins, and leaving home is counted.
                let home = cluster.home_shard(rid);
                let expected = cluster.shard_scan_order(home).find_map(|shard| {
                    let machines = cluster.shard_machines(shard);
                    reference_slot(machines, ready, horizon_end, budget, grant, tie)
                        .map(|hit| (hit, shard != home))
                });
                let metrics = MetricsRegistry::new();
                let ctx = SchedulerCtx {
                    now: SimTime::ZERO,
                    cluster: &mut cluster,
                    profiles: &profiles,
                    catalog: &catalog,
                    net: &net,
                    metrics: &metrics,
                    audit: &audit,
                };
                let got =
                    earliest_slot_in_cluster(&ctx, home, ready, horizon_end, budget, grant, tie);
                prop_assert_eq!(got, expected.map(|(hit, _)| hit));
                prop_assert_eq!(
                    metrics.counter(SHARD_OVERFLOWS),
                    u64::from(expected.is_some_and(|(_, overflowed)| overflowed))
                );
            }
        }
    }
}
