//! Cluster sharding: partition the machine pool into K shards so the
//! scheduling hot paths (placement, healing, crash re-planning) scan one
//! shard instead of the whole fleet.
//!
//! The paper evaluates on 8 machines; Alibaba-scale clusters run
//! thousands. A single global placement loop is O(machines) *per DAG
//! node*, which at 1024 machines dominates the scheduling round. The
//! shard map fixes the asymptotics without changing semantics:
//!
//! - every machine belongs to exactly one shard, machine `i` to shard
//!   `i mod K` (a strict partition, cross-checked by the engine's
//!   invariant auditor);
//! - each request gets a deterministic *home shard* (`request id mod K`),
//!   so repeated runs shard identically;
//! - placement scans the home shard first and *overflows* to the other
//!   shards in rotation order only when the home shard has no feasible
//!   window (work-stealing for requests whose home shard is saturated);
//! - `K = 1` (the default everywhere) degenerates to a single shard whose
//!   member order is exactly the old whole-cluster scan order, so
//!   unsharded runs are byte-identical to the pre-shard code.

use crate::machine::{Machine, MachineId};
use mlp_model::ResourceVector;
use serde::{Deserialize, Serialize};

/// Identifier of a shard (dense, `0..ShardMap::len()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ShardId(pub u32);

/// The machine → shard partition plus its inverse, with per-shard
/// aggregate capacity maintained for scheduling heuristics and metrics.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// Shard of each machine, indexed by dense machine id.
    shard_of: Vec<ShardId>,
    /// Members of each shard, ascending machine id — scan order within a
    /// shard matches the old whole-cluster ascending-id scan.
    members: Vec<Vec<MachineId>>,
    /// Aggregate capacity per shard (sum of member capacities).
    capacity: Vec<ResourceVector>,
}

impl ShardMap {
    /// Partitions `machines` into `k` shards round-robin: machine `i`
    /// joins shard `i mod k`. With a homogeneous fleet this is also
    /// capacity-balanced, and it keeps shard membership stable as clusters
    /// grow (machine ids are dense). `k` is clamped to
    /// `[1, machines.len().max(1)]` — more shards than machines would
    /// leave empty shards with no scheduling value.
    pub fn build(machines: &[Machine], k: usize) -> Self {
        let k = k.clamp(1, machines.len().max(1));
        let mut shard_of = vec![ShardId(0); machines.len()];
        let mut members: Vec<Vec<MachineId>> = vec![Vec::new(); k];
        let mut capacity = vec![ResourceVector::ZERO; k];
        for (i, m) in machines.iter().enumerate() {
            let s = i % k;
            shard_of[i] = ShardId(s as u32);
            capacity[s] += m.capacity;
        }

        for (i, &s) in shard_of.iter().enumerate() {
            members[s.0 as usize].push(MachineId(i as u32));
        }
        ShardMap { shard_of, members, capacity }
    }

    /// A single shard holding every machine — the unsharded default.
    pub fn single(machines: &[Machine]) -> Self {
        Self::build(machines, 1)
    }

    /// Number of shards (≥ 1 whenever the cluster is non-empty).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the map has no shards (empty cluster).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Shard of a machine.
    pub fn shard_of(&self, machine: MachineId) -> ShardId {
        self.shard_of[machine.0 as usize]
    }

    /// Members of a shard, ascending machine id.
    pub fn members(&self, shard: ShardId) -> &[MachineId] {
        &self.members[shard.0 as usize]
    }

    /// Aggregate capacity of a shard.
    pub fn capacity(&self, shard: ShardId) -> ResourceVector {
        self.capacity[shard.0 as usize]
    }

    /// Deterministic home shard for a request id: `id mod K`. Stable
    /// across runs and independent of cluster state, so placement is
    /// reproducible.
    pub fn home_shard(&self, request_id: u64) -> ShardId {
        ShardId((request_id % self.members.len().max(1) as u64) as u32)
    }

    /// Shard ids in scan order for a request homed at `home`: the home
    /// shard first, then the others in ascending rotation (`home+1, …`,
    /// wrapping). Placement takes the first shard that yields a feasible
    /// window — the tail of the iterator is the cross-shard overflow path.
    pub fn scan_order(&self, home: ShardId) -> impl Iterator<Item = ShardId> + '_ {
        let k = self.members.len();
        (0..k).map(move |i| ShardId(((home.0 as usize + i) % k) as u32))
    }

    /// Structural self-check for the invariant auditor: every machine in
    /// exactly one shard, member lists consistent with `shard_of`,
    /// ascending and duplicate-free, and aggregate capacities equal to the
    /// sum of their members'. Returns the first problem found.
    pub fn check_partition(&self, machines: &[Machine]) -> Result<(), String> {
        if self.shard_of.len() != machines.len() {
            return Err(format!(
                "shard map covers {} machines but the cluster has {}",
                self.shard_of.len(),
                machines.len()
            ));
        }
        let member_count: usize = self.members.iter().map(Vec::len).sum();
        if member_count != machines.len() {
            return Err(format!(
                "shard members sum to {member_count} machines, cluster has {}",
                machines.len()
            ));
        }
        for (s, members) in self.members.iter().enumerate() {
            let mut cap = ResourceVector::ZERO;
            let mut prev: Option<MachineId> = None;
            for &mid in members {
                if self.shard_of.get(mid.0 as usize) != Some(&ShardId(s as u32)) {
                    return Err(format!(
                        "machine {mid:?} listed in shard {s} but mapped elsewhere"
                    ));
                }
                if prev.is_some_and(|p| p >= mid) {
                    return Err(format!("shard {s} member list not strictly ascending at {mid:?}"));
                }
                prev = Some(mid);
                cap += machines[mid.0 as usize].capacity;
            }
            let agg = self.capacity[s];
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
            if !(close(cap.cpu, agg.cpu) && close(cap.mem, agg.mem) && close(cap.io, agg.io)) {
                return Err(format!("shard {s} aggregate capacity {agg:?} != member sum {cap:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn fleet(caps: &[(f64, f64, f64)]) -> Vec<Machine> {
        caps.iter()
            .enumerate()
            .map(|(i, &(c, m, io))| {
                Machine::new(MachineId(i as u32), ResourceVector::new(c, m, io))
            })
            .collect()
    }

    fn homogeneous(n: usize) -> Vec<Machine> {
        fleet(&vec![(4.0, 1000.0, 100.0); n])
    }

    #[test]
    fn single_shard_holds_all_machines_in_id_order() {
        let ms = homogeneous(5);
        let map = ShardMap::single(&ms);
        assert_eq!(map.len(), 1);
        assert_eq!(
            map.members(ShardId(0)),
            &[MachineId(0), MachineId(1), MachineId(2), MachineId(3), MachineId(4)]
        );
        assert!(map.check_partition(&ms).is_ok());
    }

    #[test]
    fn round_robin_partitions_evenly() {
        let ms = homogeneous(10);
        let map = ShardMap::build(&ms, 3);
        assert_eq!(map.len(), 3);
        assert_eq!(map.members(ShardId(0)).len(), 4); // 0,3,6,9
        assert_eq!(map.members(ShardId(1)).len(), 3);
        assert_eq!(map.members(ShardId(2)).len(), 3);
        assert_eq!(map.shard_of(MachineId(4)), ShardId(1));
        assert!(map.check_partition(&ms).is_ok());
    }

    #[test]
    fn shard_count_clamped_to_machines() {
        let ms = homogeneous(3);
        let map = ShardMap::build(&ms, 10);
        assert_eq!(map.len(), 3, "no empty shards");
        let map = ShardMap::build(&ms, 0);
        assert_eq!(map.len(), 1, "zero clamps to one shard");
    }

    #[test]
    fn home_shard_is_deterministic_and_in_range() {
        let ms = homogeneous(8);
        let map = ShardMap::build(&ms, 4);
        for id in 0..100u64 {
            let h = map.home_shard(id);
            assert!((h.0 as usize) < map.len());
            assert_eq!(h, map.home_shard(id), "stable");
        }
        assert_eq!(map.home_shard(6), ShardId(2));
    }

    #[test]
    fn scan_order_rotates_from_home() {
        let ms = homogeneous(8);
        let map = ShardMap::build(&ms, 4);
        let order: Vec<u32> = map.scan_order(ShardId(2)).map(|s| s.0).collect();
        assert_eq!(order, vec![2, 3, 0, 1]);
    }

    #[test]
    fn check_partition_catches_mismatched_cluster() {
        let ms = homogeneous(4);
        let map = ShardMap::build(&ms, 2);
        let bigger = homogeneous(5);
        assert!(map.check_partition(&bigger).is_err());
    }
}
