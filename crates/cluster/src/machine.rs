//! Machines and the simulated cluster.

use crate::ledger::ResourceLedger;
use crate::shard::{ShardId, ShardMap};
use mlp_model::{ResourceKind, ResourceVector};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a machine in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MachineId(pub u32);

/// Handle to one occupancy grant returned by [`Machine::occupy`].
///
/// Releases are by-handle and idempotent: releasing a grant twice (or a
/// grant wiped by a [`Machine::crash`]) is a no-op, so the engine's
/// failure-recovery paths can never drive `actual_used` negative or leak
/// occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GrantId(u64);

/// One worker node: capacity, a future-reservation plan, and the actual
/// instantaneous usage of services currently executing on it.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Machine id (dense, equals its index in the [`Cluster`]).
    pub id: MachineId,
    /// Total resources of this node.
    pub capacity: ResourceVector,
    /// Planned (future) occupancy — what schedulers consult.
    pub ledger: ResourceLedger,
    /// What is *actually* in use right now (running services).
    actual_used: ResourceVector,
    /// Live grants by id; `actual_used` is always their sum.
    grants: BTreeMap<u64, ResourceVector>,
    next_grant: u64,
    /// Whether the machine is alive (fault injection crashes machines).
    up: bool,
}

impl Machine {
    /// Creates an idle machine.
    pub fn new(id: MachineId, capacity: ResourceVector) -> Self {
        Machine {
            id,
            capacity,
            ledger: ResourceLedger::new(capacity),
            actual_used: ResourceVector::ZERO,
            grants: BTreeMap::new(),
            next_grant: 0,
            up: true,
        }
    }

    /// Resources not actually in use right now.
    pub fn actual_free(&self) -> ResourceVector {
        (self.capacity - self.actual_used).clamp_non_negative()
    }

    /// What is actually in use right now.
    pub fn actual_used(&self) -> ResourceVector {
        self.actual_used
    }

    /// Number of services currently executing.
    pub fn running(&self) -> usize {
        self.grants.len()
    }

    /// Amount held by a live grant (`None` once released or crash-wiped).
    /// Introspection for the invariant auditor: the engine's view of a
    /// running node's occupancy must match the machine's.
    pub fn grant_amount(&self, grant: GrantId) -> Option<ResourceVector> {
        self.grants.get(&grant.0).copied()
    }

    /// Sum of all live grants. By construction this always equals
    /// [`actual_used`](Machine::actual_used) up to float rounding — the
    /// invariant auditor cross-checks the two independently.
    pub fn grants_total(&self) -> ResourceVector {
        self.grants.values().fold(ResourceVector::ZERO, |acc, &g| acc + g)
    }

    /// Occupancy snapshot: `(grants in flight, total granted, actual
    /// used, actual free)` — one consistent view for observability layers.
    pub fn occupancy(&self) -> (usize, ResourceVector, ResourceVector, ResourceVector) {
        (self.grants.len(), self.grants_total(), self.actual_used, self.actual_free())
    }

    /// Whether the machine is alive.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Marks `demand` as actually occupied (service invocation) and hands
    /// back the grant to release on completion.
    #[must_use = "the grant handle is required to release the occupancy"]
    pub fn occupy(&mut self, demand: ResourceVector) -> GrantId {
        let id = GrantId(self.next_grant);
        self.next_grant += 1;
        self.grants.insert(id.0, demand);
        self.actual_used += demand;
        id
    }

    /// Releases a grant on service completion. Idempotent: returns `false`
    /// (and changes nothing) when the grant was already released or wiped
    /// by a crash.
    pub fn release(&mut self, grant: GrantId) -> bool {
        match self.grants.remove(&grant.0) {
            Some(amount) => {
                self.actual_used = (self.actual_used - amount).clamp_non_negative();
                true
            }
            None => false,
        }
    }

    /// Enlarges a live grant by `extra` (resource stretch). Returns `false`
    /// when the grant no longer exists (completed or wiped by a crash).
    pub fn grow(&mut self, grant: GrantId, extra: ResourceVector) -> bool {
        match self.grants.get_mut(&grant.0) {
            Some(amount) => {
                *amount += extra;
                self.actual_used += extra;
                true
            }
            None => false,
        }
    }

    /// Crashes the machine: every running service is killed, its actual
    /// usage vanishes, and its planned future (the ledger) is void. The
    /// machine stays in the cluster but reports `is_up() == false` until
    /// [`recover`](Machine::recover).
    pub fn crash(&mut self) {
        self.up = false;
        self.grants.clear();
        self.actual_used = ResourceVector::ZERO;
        self.ledger.clear();
    }

    /// Brings a crashed machine back, empty.
    pub fn recover(&mut self) {
        self.up = true;
    }

    /// Instantaneous utilization of this node:
    /// `(u_cpu + u_mem + u_io) / 3` against capacity (Section V-B).
    pub fn utilization(&self) -> f64 {
        self.actual_used.utilization_against(&self.capacity)
    }

    /// Current load fraction of one resource kind.
    pub fn load(&self, kind: ResourceKind) -> f64 {
        let cap = self.capacity.get(kind);
        if cap <= 0.0 {
            0.0
        } else {
            (self.actual_used.get(kind) / cap).clamp(0.0, 1.0)
        }
    }
}

/// The simulated cluster: a pool of machines (the paper's evaluation uses
/// 100 nodes, Section V-B) partitioned into one or more scheduling shards.
///
/// Every constructor starts with a single shard holding all machines —
/// the unsharded behaviour the paper evaluates. Production-scale runs call
/// [`with_shards`](Cluster::with_shards) to split the fleet so placement
/// and healing scan one shard instead of the whole pool.
#[derive(Debug, Clone)]
pub struct Cluster {
    machines: Vec<Machine>,
    shards: ShardMap,
}

impl Cluster {
    /// Builds `n` identical machines of the given capacity.
    pub fn homogeneous(n: usize, capacity: ResourceVector) -> Self {
        let machines: Vec<Machine> =
            (0..n).map(|i| Machine::new(MachineId(i as u32), capacity)).collect();
        let shards = ShardMap::single(&machines);
        Cluster { machines, shards }
    }

    /// The paper's simulated cluster: 100 nodes. Per-node capacity is a
    /// simulation parameter the paper does not state; it is calibrated so
    /// that the 1000 req/s peak of Fig 9 drives the cluster into the
    /// 40–90 % utilization regime of Fig 11 (see EXPERIMENTS.md §calibration).
    pub fn paper_default() -> Self {
        Cluster::homogeneous(100, ResourceVector::new(2.4, 2_500.0, 350.0))
    }

    /// Builds a heterogeneous cluster from explicit per-machine
    /// capacities (an extension beyond the paper's homogeneous setup —
    /// real fleets mix generations; schedulers that reserve against
    /// per-machine ledgers handle this transparently, while capacity-
    /// oblivious ones like FairSched mis-size their slices).
    pub fn heterogeneous(capacities: Vec<ResourceVector>) -> Self {
        let machines: Vec<Machine> = capacities
            .into_iter()
            .enumerate()
            .map(|(i, c)| Machine::new(MachineId(i as u32), c))
            .collect();
        let shards = ShardMap::single(&machines);
        Cluster { machines, shards }
    }

    /// A two-tier fleet: `n_big` machines at `big` capacity and `n_small`
    /// at `small` capacity (the common old-generation/new-generation mix).
    pub fn two_tier(
        n_big: usize,
        big: ResourceVector,
        n_small: usize,
        small: ResourceVector,
    ) -> Self {
        let mut caps = vec![big; n_big];
        caps.extend(std::iter::repeat_n(small, n_small));
        Cluster::heterogeneous(caps)
    }

    /// Re-partitions the cluster into `k` round-robin shards. `k` is
    /// clamped to the machine count (no empty shards); `k = 1` restores
    /// the unsharded default. Builder-style so constructors chain:
    /// `Cluster::homogeneous(256, cap).with_shards(16)`.
    pub fn with_shards(mut self, k: usize) -> Self {
        self.shards = ShardMap::build(&self.machines, k);
        self
    }

    /// The shard partition.
    pub fn shards(&self) -> &ShardMap {
        &self.shards
    }

    /// Number of shards (1 unless [`with_shards`](Cluster::with_shards)
    /// was applied).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard of a machine.
    pub fn shard_of(&self, machine: MachineId) -> ShardId {
        self.shards.shard_of(machine)
    }

    /// Member machines of a shard, ascending id.
    pub fn shard_members(&self, shard: ShardId) -> &[MachineId] {
        self.shards.members(shard)
    }

    /// Deterministic home shard for a request id.
    pub fn home_shard(&self, request_id: u64) -> ShardId {
        self.shards.home_shard(request_id)
    }

    /// Shards in scan order for a request homed at `home`: home first,
    /// then cross-shard overflow in ascending rotation.
    pub fn shard_scan_order(&self, home: ShardId) -> impl Iterator<Item = ShardId> + '_ {
        self.shards.scan_order(home)
    }

    /// Member machines of a shard as an iterator over `&Machine`, in the
    /// shard's scan order (ascending id). With one shard this visits the
    /// whole cluster in exactly the order [`machines`](Cluster::machines)
    /// does, which is what keeps `shards = 1` byte-identical to the
    /// unsharded code path. `Clone`, because the placement scan may walk a
    /// shard twice.
    pub fn shard_machines(&self, shard: ShardId) -> impl Iterator<Item = &Machine> + Clone + '_ {
        self.shards.members(shard).iter().map(|&id| &self.machines[id.0 as usize])
    }

    /// Aggregate capacity of a shard.
    pub fn shard_capacity(&self, shard: ShardId) -> ResourceVector {
        self.shards.capacity(shard)
    }

    /// Mean instantaneous utilization across a shard's members (the
    /// per-shard analogue of [`utilization`](Cluster::utilization), for
    /// per-shard metrics gauges).
    pub fn shard_utilization(&self, shard: ShardId) -> f64 {
        let members = self.shards.members(shard);
        if members.is_empty() {
            return 0.0;
        }
        members.iter().map(|&id| self.machines[id.0 as usize].utilization()).sum::<f64>()
            / members.len() as f64
    }

    /// Total capacity across all machines.
    pub fn total_capacity(&self) -> ResourceVector {
        self.machines.iter().fold(ResourceVector::ZERO, |acc, m| acc + m.capacity)
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the cluster has no machines.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Machine by id.
    pub fn machine(&self, id: MachineId) -> &Machine {
        &self.machines[id.0 as usize]
    }

    /// Mutable machine by id.
    pub fn machine_mut(&mut self, id: MachineId) -> &mut Machine {
        &mut self.machines[id.0 as usize]
    }

    /// Iterates over all machines.
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// Mutable iteration.
    pub fn machines_mut(&mut self) -> &mut [Machine] {
        &mut self.machines
    }

    /// Cluster-wide utilization `U = Σ_nodes (u_cpu + u_mem + u_io) /
    /// (#resource_types · #nodes)` — the efficiency metric of Fig 11.
    pub fn utilization(&self) -> f64 {
        if self.machines.is_empty() {
            return 0.0;
        }
        self.machines.iter().map(Machine::utilization).sum::<f64>() / self.machines.len() as f64
    }

    /// Id of the live machine with the lowest instantaneous utilization
    /// (CurSched's placement rule). Crashed machines are skipped.
    ///
    /// `total_cmp` plus an explicit id tie-break: a NaN utilization (e.g. a
    /// degenerate zero-capacity machine) must not panic the scheduler, and
    /// ties must resolve to the lowest id regardless of iteration quirks —
    /// the same convention as shard-level scans.
    pub fn least_loaded(&self) -> Option<MachineId> {
        self.machines
            .iter()
            .filter(|m| m.is_up())
            .min_by(|a, b| a.utilization().total_cmp(&b.utilization()).then(a.id.cmp(&b.id)))
            .map(|m| m.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_sim::SimTime;

    fn rv(c: f64, m: f64, i: f64) -> ResourceVector {
        ResourceVector::new(c, m, i)
    }

    #[test]
    fn occupy_release_roundtrip() {
        let mut m = Machine::new(MachineId(0), rv(4.0, 1000.0, 100.0));
        let d = rv(1.0, 250.0, 25.0);
        let g = m.occupy(d);
        assert_eq!(m.running(), 1);
        assert!((m.utilization() - 0.25).abs() < 1e-12);
        assert!(m.release(g));
        assert_eq!(m.running(), 0);
        assert_eq!(m.actual_used(), ResourceVector::ZERO);
        assert_eq!(m.utilization(), 0.0);
    }

    #[test]
    fn double_release_is_a_noop() {
        let mut m = Machine::new(MachineId(0), rv(4.0, 1000.0, 100.0));
        let a = m.occupy(rv(1.0, 100.0, 10.0));
        let b = m.occupy(rv(2.0, 200.0, 20.0));
        assert!(m.release(a));
        assert!(!m.release(a), "second release must be rejected");
        // The other grant is untouched by the double release.
        assert_eq!(m.actual_used(), rv(2.0, 200.0, 20.0));
        assert_eq!(m.running(), 1);
        assert!(m.release(b));
        assert!(!m.actual_used().has_negative());
        assert_eq!(m.actual_used(), ResourceVector::ZERO);
    }

    #[test]
    fn grow_enlarges_grant_and_release_returns_all_of_it() {
        let mut m = Machine::new(MachineId(0), rv(4.0, 1000.0, 100.0));
        let g = m.occupy(rv(1.0, 100.0, 10.0));
        assert!(m.grow(g, rv(0.5, 50.0, 5.0)));
        assert_eq!(m.actual_used(), rv(1.5, 150.0, 15.0));
        assert!(m.release(g));
        assert_eq!(m.actual_used(), ResourceVector::ZERO);
        // Growing a released grant does nothing.
        assert!(!m.grow(g, rv(1.0, 1.0, 1.0)));
        assert_eq!(m.actual_used(), ResourceVector::ZERO);
    }

    #[test]
    fn occupancy_introspection_matches_grants() {
        let mut m = Machine::new(MachineId(0), rv(4.0, 1000.0, 100.0));
        let a = m.occupy(rv(1.0, 100.0, 10.0));
        let b = m.occupy(rv(0.5, 50.0, 5.0));
        assert_eq!(m.grant_amount(a), Some(rv(1.0, 100.0, 10.0)));
        assert_eq!(m.grants_total(), rv(1.5, 150.0, 15.0));
        assert_eq!(m.grants_total(), m.actual_used());
        let (n, granted, used, free) = m.occupancy();
        assert_eq!(n, 2);
        assert_eq!(granted, used);
        assert_eq!(free, rv(2.5, 850.0, 85.0));
        assert!(m.release(a));
        assert_eq!(m.grant_amount(a), None, "released grant is gone");
        assert!(m.grow(b, rv(0.5, 0.0, 0.0)));
        assert_eq!(m.grant_amount(b), Some(rv(1.0, 50.0, 5.0)));
        assert_eq!(m.grants_total(), m.actual_used());
    }

    #[test]
    fn crash_wipes_grants_and_release_after_crash_is_safe() {
        let mut m = Machine::new(MachineId(0), rv(4.0, 1000.0, 100.0));
        let g = m.occupy(rv(2.0, 500.0, 50.0));
        m.ledger.reserve(SimTime::ZERO, SimTime::from_secs(1), rv(1.0, 100.0, 10.0));
        m.crash();
        assert!(!m.is_up());
        assert_eq!(m.running(), 0);
        assert_eq!(m.actual_used(), ResourceVector::ZERO);
        assert_eq!(m.ledger.timeline_len(), 0, "crash voids the planned future");
        // The dangling grant from before the crash is dead.
        assert!(!m.release(g));
        assert_eq!(m.actual_used(), ResourceVector::ZERO);
        m.recover();
        assert!(m.is_up());
    }

    #[test]
    fn cluster_utilization_is_average() {
        let mut c = Cluster::homogeneous(2, rv(4.0, 1000.0, 100.0));
        let _ = c.machine_mut(MachineId(0)).occupy(rv(4.0, 1000.0, 100.0)); // 100%
        assert!((c.utilization() - 0.5).abs() < 1e-12); // other idle
    }

    #[test]
    fn paper_default_shape() {
        let c = Cluster::paper_default();
        assert_eq!(c.len(), 100);
        assert_eq!(c.machine(MachineId(99)).capacity.cpu, 2.4);
    }

    #[test]
    fn least_loaded_prefers_idle() {
        let mut c = Cluster::homogeneous(3, rv(4.0, 1000.0, 100.0));
        let _ = c.machine_mut(MachineId(0)).occupy(rv(2.0, 0.0, 0.0));
        let _ = c.machine_mut(MachineId(2)).occupy(rv(1.0, 0.0, 0.0));
        assert_eq!(c.least_loaded(), Some(MachineId(1)));
    }

    /// Regression: this scan once compared with `partial_cmp().unwrap()`,
    /// which panicked the first time a utilization came out NaN (poisoned
    /// occupancy accounting). `total_cmp` ranks NaN above every real
    /// utilization, so the scan must skip the poisoned machine and resolve
    /// the remaining zero-utilization tie to the lowest id.
    #[test]
    fn least_loaded_survives_nan_utilization() {
        let mut c = Cluster::homogeneous(3, rv(4.0, 1000.0, 100.0));
        c.machine_mut(MachineId(0)).actual_used = rv(f64::NAN, 0.0, 0.0);
        assert!(c.machine(MachineId(0)).utilization().is_nan(), "fixture must poison m0");
        assert_eq!(c.least_loaded(), Some(MachineId(1)));
    }

    #[test]
    fn least_loaded_skips_crashed_machines() {
        let mut c = Cluster::homogeneous(2, rv(4.0, 1000.0, 100.0));
        let _ = c.machine_mut(MachineId(1)).occupy(rv(3.0, 0.0, 0.0));
        c.machine_mut(MachineId(0)).crash();
        assert_eq!(c.least_loaded(), Some(MachineId(1)), "idle machine is down");
        c.machine_mut(MachineId(0)).recover();
        assert_eq!(c.least_loaded(), Some(MachineId(0)));
    }

    #[test]
    fn load_per_kind() {
        let mut m = Machine::new(MachineId(0), rv(4.0, 1000.0, 100.0));
        let _ = m.occupy(rv(1.0, 500.0, 0.0));
        assert!((m.load(ResourceKind::Cpu) - 0.25).abs() < 1e-12);
        assert!((m.load(ResourceKind::Memory) - 0.5).abs() < 1e-12);
        assert_eq!(m.load(ResourceKind::Io), 0.0);
    }

    #[test]
    fn heterogeneous_cluster_keeps_per_machine_capacity() {
        let c = Cluster::two_tier(2, rv(8.0, 2000.0, 200.0), 3, rv(2.0, 500.0, 50.0));
        assert_eq!(c.len(), 5);
        assert_eq!(c.machine(MachineId(0)).capacity.cpu, 8.0);
        assert_eq!(c.machine(MachineId(4)).capacity.cpu, 2.0);
        let total = c.total_capacity();
        assert_eq!(total.cpu, 2.0 * 8.0 + 3.0 * 2.0);
        // Ledgers are sized per machine, not per fleet.
        assert_eq!(c.machine(MachineId(4)).ledger.capacity().cpu, 2.0);
    }

    #[test]
    fn utilization_weighs_machines_equally() {
        // U averages per-node utilization (paper formula), so a saturated
        // small machine counts as much as a saturated big one.
        let mut c = Cluster::two_tier(1, rv(8.0, 800.0, 80.0), 1, rv(2.0, 200.0, 20.0));
        let _ = c.machine_mut(MachineId(1)).occupy(rv(2.0, 200.0, 20.0));
        assert!((c.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clusters_default_to_one_shard_in_machine_order() {
        let c = Cluster::two_tier(1, rv(8.0, 2000.0, 200.0), 2, rv(2.0, 500.0, 50.0));
        assert_eq!(c.shard_count(), 1);
        assert_eq!(c.shard_members(ShardId(0)), &[MachineId(0), MachineId(1), MachineId(2)]);
        let scanned: Vec<MachineId> = c.shard_machines(ShardId(0)).map(|m| m.id).collect();
        let direct: Vec<MachineId> = c.machines().iter().map(|m| m.id).collect();
        assert_eq!(scanned, direct, "single-shard scan must match whole-cluster order");
        assert_eq!(c.shard_capacity(ShardId(0)), c.total_capacity());
        assert_eq!(c.home_shard(12345), ShardId(0));
    }

    #[test]
    fn with_shards_partitions_and_aggregates() {
        let mut c = Cluster::homogeneous(8, rv(4.0, 1000.0, 100.0)).with_shards(4);
        assert_eq!(c.shard_count(), 4);
        assert_eq!(c.shard_members(ShardId(1)), &[MachineId(1), MachineId(5)]);
        assert_eq!(c.shard_capacity(ShardId(1)), rv(8.0, 2000.0, 200.0));
        assert_eq!(c.shard_of(MachineId(6)), ShardId(2));
        // Per-shard utilization only sees that shard's members.
        let _ = c.machine_mut(MachineId(1)).occupy(rv(4.0, 1000.0, 100.0));
        assert!((c.shard_utilization(ShardId(1)) - 0.5).abs() < 1e-12);
        assert_eq!(c.shard_utilization(ShardId(0)), 0.0);
        assert!(c.shards().check_partition(c.machines()).is_ok());
    }

    #[test]
    fn shard_scan_order_starts_at_home() {
        let c = Cluster::homogeneous(9, rv(4.0, 1000.0, 100.0)).with_shards(3);
        let home = c.home_shard(7); // 7 % 3 == 1
        assert_eq!(home, ShardId(1));
        let order: Vec<u32> = c.shard_scan_order(home).map(|s| s.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn empty_cluster_utilization() {
        let c = Cluster::homogeneous(0, rv(1.0, 1.0, 1.0));
        assert_eq!(c.utilization(), 0.0);
        assert_eq!(c.least_loaded(), None);
    }
}
