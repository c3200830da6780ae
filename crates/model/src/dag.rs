//! Request DAGs over microservice templates.

use crate::microservice::ServiceId;
use serde::{Deserialize, Serialize};

/// One vertex of a request DAG: a microservice template plus the work
/// factor this request type induces on it (how much of the service's logic
/// the request triggers — the per-request component of Fig 2's spread).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DagNode {
    /// Which microservice template executes at this vertex.
    pub service: ServiceId,
    /// Multiplier on the service's nominal execution time for this request
    /// type (1.0 = nominal logic).
    pub work_factor: f64,
}

/// A request's invocation DAG (Fig 1(b)): vertices are microservices, edges
/// are caller→callee relationships. Execution follows topological order and
/// produces chain-structured sequences (Section I).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServiceDag {
    nodes: Vec<DagNode>,
    /// Edges as (caller, callee) node-index pairs.
    edges: Vec<(usize, usize)>,
}

impl ServiceDag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        ServiceDag::default()
    }

    /// Adds a vertex running `service` with `work_factor`, returning its
    /// node index.
    pub fn add_node(&mut self, service: ServiceId, work_factor: f64) -> usize {
        self.nodes.push(DagNode { service, work_factor });
        self.nodes.len() - 1
    }

    /// Adds a caller→callee edge between node indices.
    ///
    /// # Panics
    /// Panics on out-of-range indices or self-loops.
    pub fn add_edge(&mut self, caller: usize, callee: usize) {
        assert!(caller < self.nodes.len() && callee < self.nodes.len(), "edge index out of range");
        assert_ne!(caller, callee, "self-loop");
        self.edges.push((caller, callee));
    }

    /// Number of vertices (`n` in the volatility formula).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the DAG has no vertices.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Vertex data by index.
    pub fn node(&self, i: usize) -> &DagNode {
        &self.nodes[i]
    }

    /// All vertices.
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// All edges as (caller, callee) index pairs.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Direct callers of node `i`.
    pub fn parents(&self, i: usize) -> Vec<usize> {
        self.parents_iter(i).collect()
    }

    /// Direct callers of node `i`, allocation-free. Same order as
    /// [`parents`](Self::parents) (edge insertion order) — the planning and
    /// healing hot loops walk dependencies per node per round, where the
    /// per-call `Vec` was pure overhead.
    pub fn parents_iter(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges.iter().filter(move |&&(_, c)| c == i).map(|&(p, _)| p)
    }

    /// Direct callees of node `i`.
    pub fn children(&self, i: usize) -> Vec<usize> {
        self.children_iter(i).collect()
    }

    /// Direct callees of node `i`, allocation-free (same order as
    /// [`children`](Self::children)).
    pub fn children_iter(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges.iter().filter(move |&&(p, _)| p == i).map(|&(_, c)| c)
    }

    /// Vertices with no callers (request entry points).
    pub fn roots(&self) -> Vec<usize> {
        let mut has_parent = vec![false; self.nodes.len()];
        for &(_, c) in &self.edges {
            has_parent[c] = true;
        }
        (0..self.nodes.len()).filter(|&i| !has_parent[i]).collect()
    }

    /// Vertices with no callees.
    pub fn leaves(&self) -> Vec<usize> {
        let mut has_child = vec![false; self.nodes.len()];
        for &(p, _) in &self.edges {
            has_child[p] = true;
        }
        (0..self.nodes.len()).filter(|&i| !has_child[i]).collect()
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.nodes.len()];
        for &(_, c) in &self.edges {
            deg[c] += 1;
        }
        deg
    }

    /// Kahn topological sort. `None` if the graph has a cycle (and is thus
    /// not a valid request DAG). Ties break by lowest node index, so the
    /// order is deterministic.
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        let n = self.nodes.len();
        let mut deg = self.in_degrees();
        // children adjacency
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(p, c) in &self.edges {
            children[p].push(c);
        }
        // Min-index-first frontier for determinism.
        let mut frontier: Vec<usize> = (0..n).filter(|&i| deg[i] == 0).collect();
        frontier.sort_unstable_by(|a, b| b.cmp(a)); // pop from back = smallest
        let mut out = Vec::with_capacity(n);
        while let Some(i) = frontier.pop() {
            out.push(i);
            for &c in &children[i] {
                deg[c] -= 1;
                if deg[c] == 0 {
                    // Insert keeping frontier sorted descending.
                    let pos = frontier.partition_point(|&x| x > c);
                    frontier.insert(pos, c);
                }
            }
        }
        if out.len() == n {
            Some(out)
        } else {
            None
        }
    }

    /// True when the graph is acyclic.
    pub fn is_valid(&self) -> bool {
        self.topo_order().is_some()
    }

    /// Length of the longest path weighted by `node_cost(i)` — with
    /// per-node nominal execution times this is the request's ideal
    /// (zero-contention, zero-communication) latency.
    pub fn critical_path(&self, mut node_cost: impl FnMut(usize) -> f64) -> f64 {
        let order = match self.topo_order() {
            Some(o) => o,
            None => return f64::INFINITY,
        };
        let mut dist = vec![0.0f64; self.nodes.len()];
        for &i in &order {
            let best_parent = self.parents(i).into_iter().map(|p| dist[p]).fold(0.0f64, f64::max);
            dist[i] = best_parent + node_cost(i);
        }
        dist.into_iter().fold(0.0, f64::max)
    }

    /// Builds a linear chain DAG `s₀ → s₁ → …` (the common microservice
    /// topology the paper's figures use).
    pub fn chain(services: &[(ServiceId, f64)]) -> ServiceDag {
        let mut dag = ServiceDag::new();
        let mut prev: Option<usize> = None;
        for &(sid, wf) in services {
            let n = dag.add_node(sid, wf);
            if let Some(p) = prev {
                dag.add_edge(p, n);
            }
            prev = Some(n);
        }
        dag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> ServiceDag {
        // 0 → {1, 2} → 3
        let mut d = ServiceDag::new();
        for i in 0..4 {
            d.add_node(ServiceId(i), 1.0);
        }
        d.add_edge(0, 1);
        d.add_edge(0, 2);
        d.add_edge(1, 3);
        d.add_edge(2, 3);
        d
    }

    #[test]
    fn structure_queries() {
        let d = diamond();
        assert_eq!(d.roots(), vec![0]);
        assert_eq!(d.leaves(), vec![3]);
        assert_eq!(d.parents(3), vec![1, 2]);
        assert_eq!(d.children(0), vec![1, 2]);
        assert_eq!(d.in_degrees(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let d = diamond();
        let order = d.topo_order().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (rank, &n) in order.iter().enumerate() {
                p[n] = rank;
            }
            p
        };
        for &(a, b) in d.edges() {
            assert!(pos[a] < pos[b], "edge {a}→{b} violated");
        }
    }

    #[test]
    fn cycle_is_rejected() {
        let mut d = ServiceDag::new();
        d.add_node(ServiceId(0), 1.0);
        d.add_node(ServiceId(1), 1.0);
        d.add_edge(0, 1);
        d.add_edge(1, 0);
        assert!(d.topo_order().is_none());
        assert!(!d.is_valid());
    }

    #[test]
    fn chain_constructor_is_linear() {
        let d = ServiceDag::chain(&[(ServiceId(5), 1.0), (ServiceId(6), 2.0), (ServiceId(7), 1.0)]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(d.node(1).work_factor, 2.0);
    }

    #[test]
    fn critical_path_takes_longest_branch() {
        let d = diamond();
        // Costs: node1 = 10, node2 = 30, others 1.
        let cp = d.critical_path(|i| match i {
            1 => 10.0,
            2 => 30.0,
            _ => 1.0,
        });
        assert_eq!(cp, 1.0 + 30.0 + 1.0);
    }

    #[test]
    fn empty_dag() {
        let d = ServiceDag::new();
        assert!(d.is_empty());
        assert!(d.is_valid());
        assert!(d.edges().is_empty() && d.leaves().is_empty());
        assert_eq!(d.critical_path(|_| 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut d = ServiceDag::new();
        d.add_node(ServiceId(0), 1.0);
        d.add_edge(0, 0);
    }

    #[test]
    fn multi_root_dag() {
        // Two independent entry services joining at 2 (fan-in).
        let mut d = ServiceDag::new();
        for i in 0..3 {
            d.add_node(ServiceId(i), 1.0);
        }
        d.add_edge(0, 2);
        d.add_edge(1, 2);
        assert_eq!(d.roots(), vec![0, 1]);
        assert_eq!(d.leaves(), vec![2]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Random DAG: edges only go from lower to higher indices (guaranteed
    /// acyclic), plus a shuffle of node labels through work factors.
    fn arb_dag() -> impl Strategy<Value = ServiceDag> {
        (2usize..12).prop_flat_map(|n| {
            let edges = prop::collection::vec((0..n, 0..n), 0..n * 2);
            edges.prop_map(move |raw| {
                let mut d = ServiceDag::new();
                for i in 0..n {
                    d.add_node(ServiceId(i as u32), 1.0);
                }
                for (a, b) in raw {
                    if a < b {
                        d.add_edge(a, b);
                    }
                }
                d
            })
        })
    }

    proptest! {
        #[test]
        fn topo_order_is_valid_linearization(d in arb_dag()) {
            let order = d.topo_order().expect("forward-edge DAGs are acyclic");
            prop_assert_eq!(order.len(), d.len());
            let mut pos = vec![0; d.len()];
            for (rank, &nd) in order.iter().enumerate() { pos[nd] = rank; }
            for &(a, b) in d.edges() {
                prop_assert!(pos[a] < pos[b]);
            }
        }

        #[test]
        fn critical_path_at_least_max_node(d in arb_dag()) {
            // With unit costs, the critical path is >= 1 and <= n.
            let cp = d.critical_path(|_| 1.0);
            prop_assert!(cp >= 1.0);
            prop_assert!(cp <= d.len() as f64);
        }
    }
}
