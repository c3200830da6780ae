//! Generation-indexed request slab: the engine's bounded working set.
//!
//! The historical engine kept three dense vectors sized by *total*
//! arrivals (`reqs`, `infos`, `slot_of`), so memory grew with the length
//! of the run even though almost every request was long finished. The
//! [`RequestTable`] replaces them with a slab keyed by raw [`RequestId`]:
//! entries are inserted at admission, looked up by id while in flight, and
//! reclaimed as soon as the request completes or is abandoned and its
//! record has been flushed. Occupancy therefore tracks *in-flight*
//! requests — the [`peak`](RequestTable::peak) high-water mark is exported
//! as the `request_table_peak` gauge, and soak runs assert it plateaus
//! while arrivals grow into the millions.

use super::{Event, RunReq};
use std::collections::HashMap;

/// Slab of live (admitted, not yet reclaimed) requests.
pub(super) struct RequestTable {
    /// Slot storage; `None` slots are free and listed in `free`.
    slots: Vec<Option<RunReq>>,
    /// Indices of free slots, reused LIFO.
    free: Vec<usize>,
    /// Raw request id → slot index.
    index: HashMap<u64, usize>,
    /// Live entries (== `index.len()`).
    live: usize,
    /// High-water mark of `live`.
    peak: usize,
    /// Requests ever admitted; also assigns each entry's `admit_seq`
    /// (iteration in admission order must survive slot reuse — slot
    /// indices alone no longer encode it).
    admitted: u64,
}

impl RequestTable {
    pub(super) fn new() -> Self {
        RequestTable {
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            live: 0,
            peak: 0,
            admitted: 0,
        }
    }

    /// Inserts a newly admitted request, stamping its `admit_seq`.
    /// Panics if the id is already live (a request admitted twice).
    pub(super) fn insert(&mut self, id: u64, mut req: RunReq) {
        assert!(!self.index.contains_key(&id), "request {id} admitted twice");
        req.admit_seq = self.admitted;
        self.admitted += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some(req);
                s
            }
            None => {
                self.slots.push(Some(req));
                self.slots.len() - 1
            }
        };
        self.index.insert(id, slot);
        self.live += 1;
        self.peak = self.peak.max(self.live);
    }

    pub(super) fn get(&self, id: u64) -> Option<&RunReq> {
        self.index.get(&id).and_then(|&s| self.slots[s].as_ref())
    }

    pub(super) fn get_mut(&mut self, id: u64) -> Option<&mut RunReq> {
        match self.index.get(&id) {
            Some(&s) => self.slots[s].as_mut(),
            None => None,
        }
    }

    /// Reclaims a finished entry, freeing its slot for reuse. Unknown ids
    /// are a no-op (a request can be queued for reclamation only once, but
    /// defensive callers may retry).
    pub(super) fn remove(&mut self, id: u64) -> Option<RunReq> {
        let slot = self.index.remove(&id)?;
        let req = self.slots[slot].take();
        debug_assert!(req.is_some(), "index pointed at an empty slot");
        self.free.push(slot);
        self.live -= 1;
        req
    }

    /// Live entries right now.
    pub(super) fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of live entries over the run.
    pub(super) fn peak(&self) -> usize {
        self.peak
    }

    /// Requests ever admitted.
    pub(super) fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Whether applying `ev` now would finish its request: a `Complete` of
    /// the node's current generation, for a live request whose only
    /// unfinished node it is. The live driver wakes precisely for such a
    /// timer, since a client is waiting on the outcome it emits. A miss
    /// (a brownout branch shed finishing the request early) costs that
    /// wake-up its precision, nothing else.
    pub(super) fn emits_outcome(&self, ev: &Event) -> bool {
        let Event::Complete { request, node, gen } = *ev else { return false };
        self.get(request).is_some_and(|r| !r.abandoned && r.remaining == 1 && r.gens[node] == gen)
    }

    /// Ids of live entries, sorted by admission order. The crash handler
    /// and the invariant auditor iterate in this order so their scheduler
    /// notifications, event scheduling, and violation reports stay
    /// deterministic (and identical to the historical dense-vector scans)
    /// regardless of slot reuse or hash-map iteration order.
    pub(super) fn live_ids_in_admission_order(&self) -> Vec<u64> {
        let mut ids: Vec<(u64, u64)> = self
            .index
            .iter()
            .filter_map(|(&id, &s)| self.slots[s].as_ref().map(|r| (r.admit_seq, id)))
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{NState, NodeAttrib};
    use super::*;
    use mlp_model::RequestTypeId;
    use mlp_sched::{RequestInfo, RequestPlan};
    use mlp_sim::SimTime;
    use mlp_trace::RequestId;

    /// An admitted request of `n` nodes, all still unfinished.
    fn entry(id: u64, n: usize) -> RunReq {
        let t = SimTime::ZERO;
        RunReq {
            info: RequestInfo { id: RequestId(id), rtype: RequestTypeId(0), arrival: t },
            plan: RequestPlan { request: RequestId(id), nodes: Vec::new() },
            state: vec![NState::Ready { at: t }; n],
            gens: vec![0; n],
            remaining: n,
            attempts: vec![0; n],
            abandoned: false,
            attrib: vec![NodeAttrib::new(t, t); n],
            admit_seq: 0,
        }
    }

    /// Marks `node` of `id` finished, as the lifecycle does.
    fn finish(table: &mut RequestTable, id: u64, node: usize) {
        let r = table.get_mut(id).unwrap();
        r.state[node] = NState::Done;
        r.remaining -= 1;
    }

    fn complete(request: u64, node: usize, gen: u64) -> Event {
        Event::Complete { request, node, gen }
    }

    #[test]
    fn last_unfinished_nodes_current_completion_emits() {
        let mut t = RequestTable::new();
        t.insert(7, entry(7, 1));
        assert!(t.emits_outcome(&complete(7, 0, 0)));
        assert!(!t.emits_outcome(&complete(8, 0, 0)), "unknown request");
    }

    #[test]
    fn stale_generations_and_other_events_do_not_emit() {
        let mut t = RequestTable::new();
        t.insert(1, entry(1, 1));
        t.get_mut(1).unwrap().gens[0] = 2;
        assert!(!t.emits_outcome(&complete(1, 0, 1)), "stale generation");
        assert!(t.emits_outcome(&complete(1, 0, 2)));
        for ev in [
            Event::TryInvoke { request: 1, node: 0, gen: 2 },
            Event::PlannedStart { request: 1, node: 0 },
            Event::NodeFailed { request: 1, node: 0, gen: 2 },
            Event::Sample,
        ] {
            assert!(!t.emits_outcome(&ev), "{ev:?}");
        }
        t.get_mut(1).unwrap().abandoned = true;
        assert!(!t.emits_outcome(&complete(1, 0, 2)), "abandoned");
    }

    #[test]
    fn two_leaf_dag_emits_once_the_other_leaf_is_done() {
        // Root 0 fans out to leaves 1 and 2.
        let mut t = RequestTable::new();
        t.insert(3, entry(3, 3));
        finish(&mut t, 3, 0);
        assert!(!t.emits_outcome(&complete(3, 1, 0)), "leaf 2 still unfinished");
        assert!(!t.emits_outcome(&complete(3, 2, 0)), "leaf 1 still unfinished");
        finish(&mut t, 3, 2);
        assert!(t.emits_outcome(&complete(3, 1, 0)));
        t.remove(3);
        assert!(!t.emits_outcome(&complete(3, 1, 0)), "reclaimed");
    }
}
