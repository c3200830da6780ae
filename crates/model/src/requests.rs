//! The five evaluated request types (Table V) and raw volatility scoring.

use crate::benchmarks::{combined_catalog, sn, tt, Benchmark, ServiceCatalog};
use crate::dag::ServiceDag;
use serde::{Deserialize, Serialize};

/// Identifier of a request type within a [`RequestCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RequestTypeId(pub u32);

/// The paper's three request-volatility categories (Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum VolatilityClass {
    /// `V_r ≤ 0.3` — e.g. timeline reads.
    Low,
    /// `0.3 < V_r < 0.7` — e.g. basicSearch.
    Mid,
    /// `V_r ≥ 0.7` — e.g. compose-post, getCheapest.
    High,
}

impl VolatilityClass {
    /// Classifies a raw `V_r` value using Algorithm 1's band boundaries.
    pub fn from_vr(vr: f64) -> VolatilityClass {
        if vr <= 0.3 {
            VolatilityClass::Low
        } else if vr < 0.7 {
            VolatilityClass::Mid
        } else {
            VolatilityClass::High
        }
    }
}

/// Normalization factor α of the volatility formula.
///
/// The paper leaves α unspecified beyond "normalized value between (0,1)".
/// The per-service product `I·S·C` ranges over `[1, 27]`; we pick `α = 1/18`
/// so that a request averaging mid-level terms (`2·3·3`) saturates at
/// `V_r = 1`, which places the five Table V request types into their
/// published bands (asserted in tests below).
pub const VOLATILITY_ALPHA: f64 = 1.0 / 18.0;

/// Raw request volatility `V_r = α · Σᵢ Iᵢ·Sᵢ·Cᵢ / n` over the DAG's
/// invoked microservices, clamped to `(0, 1]`.
pub fn raw_volatility(dag: &ServiceDag, catalog: &ServiceCatalog) -> f64 {
    if dag.is_empty() {
        return 0.0;
    }
    let sum: f64 = dag
        .nodes()
        .iter()
        .map(|n| {
            let s = catalog.get(n.service);
            (s.inner.level() as f64) * (s.sensitivity.level() as f64) * (s.comm.level() as f64)
        })
        .sum();
    (VOLATILITY_ALPHA * sum / dag.len() as f64).min(1.0)
}

/// One evaluated request type.
#[derive(Debug, Clone, Serialize)]
pub struct RequestType {
    /// Dense id within the catalog.
    pub id: RequestTypeId,
    /// Paper name (Table V), e.g. `compose-post`.
    pub name: String,
    /// Source benchmark.
    pub benchmark: Benchmark,
    /// Invocation DAG. Immutable once the type exists: `topo` is derived
    /// from it.
    pub dag: ServiceDag,
    /// End-to-end SLO in milliseconds (violation ⇒ QoS violation, Fig 10).
    pub slo_ms: f64,
    /// Precomputed `V_r`.
    pub volatility: f64,
    /// `dag.topo_order()`, computed once when the type is built or
    /// deserialized — every planning call walks it.
    #[serde(skip)]
    topo: Vec<usize>,
}

/// The serialized form of [`RequestType`]; deserialization goes through it
/// so that the topological order is rebuilt and a cyclic DAG is rejected at
/// the boundary instead of panicking a planner later.
#[derive(Deserialize)]
struct RequestTypeRepr {
    id: RequestTypeId,
    name: String,
    benchmark: Benchmark,
    dag: ServiceDag,
    slo_ms: f64,
    volatility: f64,
}

impl Deserialize for RequestType {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let RequestTypeRepr { id, name, benchmark, dag, slo_ms, volatility } =
            RequestTypeRepr::from_value(v)?;
        let topo = dag.topo_order().ok_or_else(|| {
            serde::Error::custom(format!("RequestType `{name}`: DAG has a cycle"))
        })?;
        Ok(RequestType { id, name, benchmark, dag, slo_ms, volatility, topo })
    }
}

impl RequestType {
    /// The DAG's nodes in topological order (ties by lowest index), as
    /// [`ServiceDag::topo_order`] returns them.
    pub fn topo_order(&self) -> &[usize] {
        &self.topo
    }

    /// Volatility band of this request type.
    pub fn class(&self) -> VolatilityClass {
        VolatilityClass::from_vr(self.volatility)
    }

    /// Ideal latency (ms): critical path of nominal execution times, no
    /// queueing, no communication.
    pub fn ideal_latency_ms(&self, catalog: &ServiceCatalog) -> f64 {
        self.dag.critical_path(|i| {
            let node = self.dag.node(i);
            catalog.get(node.service).base_ms * node.work_factor
        })
    }
}

/// The full evaluation catalog: both benchmark service sets plus the five
/// request types of Table V.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestCatalog {
    /// Combined service templates (SocialNetwork + TrainTicket).
    pub services: ServiceCatalog,
    /// The five request types.
    pub requests: Vec<RequestType>,
}

/// SLO = `SLO_FACTOR ×` ideal latency; tail-latency SLOs in interactive
/// services are conventionally a small multiple of the median.
pub const SLO_FACTOR: f64 = 5.0;

impl RequestCatalog {
    /// Builds the paper's evaluation catalog.
    pub fn paper() -> Self {
        let services = combined_catalog();
        let mut requests = Vec::new();
        let mut add = |name: &str, benchmark: Benchmark, dag: ServiceDag| {
            let volatility = raw_volatility(&dag, &services);
            let id = RequestTypeId(requests.len() as u32);
            let topo = dag.topo_order().expect("catalog DAGs are acyclic");
            let name = name.to_string();
            let mut rt = RequestType { id, name, benchmark, dag, slo_ms: 0.0, volatility, topo };
            rt.slo_ms = rt.ideal_latency_ms(&services) * SLO_FACTOR;
            requests.push(rt);
        };

        // -- compose-post (SocialNetwork, High V_r) ----------------------
        // nginx → compose → {text → {url-shorten, user-mention}, media,
        // unique-id, user} → post-storage-write → {user-timeline-write,
        // home-timeline-write}
        let mut d = ServiceDag::new();
        let nginx = d.add_node(sn::NGINX, 1.0);
        let compose = d.add_node(sn::COMPOSE_POST, 1.0);
        let text = d.add_node(sn::TEXT, 1.2);
        let media = d.add_node(sn::MEDIA, 1.4);
        let uid = d.add_node(sn::UNIQUE_ID, 1.0);
        let user = d.add_node(sn::USER, 1.0);
        let url = d.add_node(sn::URL_SHORTEN, 1.0);
        let mention = d.add_node(sn::USER_MENTION, 1.2);
        let storage = d.add_node(sn::POST_STORAGE_WRITE, 1.3);
        let utl = d.add_node(sn::USER_TIMELINE_WRITE, 1.0);
        let htl = d.add_node(sn::HOME_TIMELINE_WRITE, 1.2);
        d.add_edge(nginx, compose);
        for &mid in &[text, media, uid, user] {
            d.add_edge(compose, mid);
        }
        d.add_edge(text, url);
        d.add_edge(text, mention);
        for &pre in &[url, mention, media, uid, user] {
            d.add_edge(pre, storage);
        }
        d.add_edge(storage, utl);
        d.add_edge(storage, htl);
        add("compose-post", Benchmark::SocialNetwork, d);

        // -- getCheapest (TrainTicket, High V_r: advanced search) --------
        // ui → travel → ticketinfo → {price, seat} → order
        let mut d = ServiceDag::new();
        let ui = d.add_node(tt::UI_DASHBOARD, 1.0);
        let travel = d.add_node(tt::TRAVEL, 1.8);
        let info = d.add_node(tt::TICKETINFO, 1.5);
        let price = d.add_node(tt::PRICE, 1.4);
        let seat = d.add_node(tt::SEAT, 1.3);
        let order = d.add_node(tt::ORDER, 1.6);
        d.add_edge(ui, travel);
        d.add_edge(travel, info);
        d.add_edge(info, price);
        d.add_edge(info, seat);
        d.add_edge(price, order);
        d.add_edge(seat, order);
        add("getCheapest", Benchmark::TrainTicket, d);

        // -- basicSearch (TrainTicket, Mid V_r) --------------------------
        // ui → basic → {station, travel → ticketinfo}
        let mut d = ServiceDag::new();
        let ui = d.add_node(tt::UI_DASHBOARD, 1.0);
        let basic = d.add_node(tt::BASIC, 1.0);
        let station = d.add_node(tt::STATION, 1.0);
        let travel = d.add_node(tt::TRAVEL, 1.0);
        let info = d.add_node(tt::TICKETINFO, 1.0);
        d.add_edge(ui, basic);
        d.add_edge(basic, station);
        d.add_edge(basic, travel);
        d.add_edge(travel, info);
        add("basicSearch", Benchmark::TrainTicket, d);

        // -- read-home-timeline (SocialNetwork, Low V_r) ------------------
        // nginx → home-timeline-read → {social-graph, post-storage-read}
        let mut d = ServiceDag::new();
        let nginx = d.add_node(sn::NGINX, 1.0);
        let htl = d.add_node(sn::HOME_TIMELINE_READ, 1.0);
        let graph = d.add_node(sn::SOCIAL_GRAPH, 1.0);
        let storage = d.add_node(sn::POST_STORAGE_READ, 1.0);
        d.add_edge(nginx, htl);
        d.add_edge(htl, graph);
        d.add_edge(htl, storage);
        add("read-home-timeline", Benchmark::SocialNetwork, d);

        // -- read-user-timeline (SocialNetwork, Low V_r) ------------------
        let mut d = ServiceDag::new();
        let nginx = d.add_node(sn::NGINX, 1.0);
        let utl = d.add_node(sn::USER_TIMELINE_READ, 1.0);
        let storage = d.add_node(sn::POST_STORAGE_READ, 1.0);
        d.add_edge(nginx, utl);
        d.add_edge(utl, storage);
        add("read-user-timeline", Benchmark::SocialNetwork, d);

        RequestCatalog { services, requests }
    }

    /// Request type by id.
    pub fn request(&self, id: RequestTypeId) -> &RequestType {
        &self.requests[id.0 as usize]
    }

    /// Request type by paper name.
    pub fn request_by_name(&self, name: &str) -> Option<&RequestType> {
        self.requests.iter().find(|r| r.name == name)
    }

    /// Ids of all request types in a volatility class (Table V rows).
    pub fn requests_in_class(&self, class: VolatilityClass) -> Vec<RequestTypeId> {
        self.requests.iter().filter(|r| r.class() == class).map(|r| r.id).collect()
    }

    /// A mix giving each volatility *category* equal weight, and each
    /// request type equal weight within its category ("different types of
    /// requests in one category take up the same portion", Section IV).
    pub fn balanced_mix(&self) -> Vec<(RequestTypeId, f64)> {
        let classes = [VolatilityClass::Low, VolatilityClass::Mid, VolatilityClass::High];
        let mut mix = Vec::new();
        for class in classes {
            let ids = self.requests_in_class(class);
            if ids.is_empty() {
                continue;
            }
            let w = 1.0 / (classes.len() as f64 * ids.len() as f64);
            for id in ids {
                mix.push((id, w));
            }
        }
        mix
    }

    /// A mix containing only one volatility class, types equally weighted
    /// (the separated streams of Fig 13).
    pub fn class_mix(&self, class: VolatilityClass) -> Vec<(RequestTypeId, f64)> {
        let ids = self.requests_in_class(class);
        let w = 1.0 / ids.len().max(1) as f64;
        ids.into_iter().map(|id| (id, w)).collect()
    }

    /// A mix with `high_ratio` of high-volatility requests and the rest
    /// split evenly between low and mid (the Fig 14 ratio sweep).
    pub fn high_ratio_mix(&self, high_ratio: f64) -> Vec<(RequestTypeId, f64)> {
        let high_ratio = high_ratio.clamp(0.0, 1.0);
        let mut mix = Vec::new();
        let high = self.requests_in_class(VolatilityClass::High);
        for &id in &high {
            mix.push((id, high_ratio / high.len() as f64));
        }
        let rest = 1.0 - high_ratio;
        let low = self.requests_in_class(VolatilityClass::Low);
        let mid = self.requests_in_class(VolatilityClass::Mid);
        for &id in &low {
            mix.push((id, rest / 2.0 / low.len() as f64));
        }
        for &id in &mid {
            mix.push((id, rest / 2.0 / mid.len() as f64));
        }
        mix.retain(|&(_, w)| w > 0.0);
        mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_five_requests() {
        let cat = RequestCatalog::paper();
        assert_eq!(cat.requests.len(), 5);
        for r in &cat.requests {
            assert!(r.dag.is_valid(), "{} DAG has a cycle", r.name);
            assert!(r.slo_ms > 0.0);
            assert!(r.volatility > 0.0 && r.volatility <= 1.0);
        }
    }

    /// The heart of Table V: each request type must land in its paper band.
    #[test]
    fn table5_volatility_bands() {
        let cat = RequestCatalog::paper();
        let expect = [
            ("compose-post", VolatilityClass::High),
            ("getCheapest", VolatilityClass::High),
            ("basicSearch", VolatilityClass::Mid),
            ("read-home-timeline", VolatilityClass::Low),
            ("read-user-timeline", VolatilityClass::Low),
        ];
        for (name, class) in expect {
            let r = cat.request_by_name(name).unwrap();
            assert_eq!(
                r.class(),
                class,
                "{name}: V_r = {:.3} classified {:?}, paper says {:?}",
                r.volatility,
                r.class(),
                class
            );
        }
    }

    #[test]
    fn topo_order_is_cached_and_survives_a_round_trip() {
        let cat = RequestCatalog::paper();
        let back = RequestCatalog::from_value(&cat.to_value()).unwrap();
        for (r, b) in cat.requests.iter().zip(&back.requests) {
            assert_eq!(r.topo_order(), r.dag.topo_order().unwrap());
            assert_eq!(b.topo_order(), r.topo_order(), "{}", r.name);
        }
        // A cycle is refused when it enters, not when a planner walks it.
        let mut rt = cat.requests[4].clone();
        rt.dag.add_edge(2, 0);
        assert!(RequestType::from_value(&rt.to_value()).is_err());
    }

    #[test]
    fn class_queries() {
        let cat = RequestCatalog::paper();
        assert_eq!(cat.requests_in_class(VolatilityClass::High).len(), 2);
        assert_eq!(cat.requests_in_class(VolatilityClass::Mid).len(), 1);
        assert_eq!(cat.requests_in_class(VolatilityClass::Low).len(), 2);
    }

    #[test]
    fn balanced_mix_sums_to_one_with_equal_category_mass() {
        let cat = RequestCatalog::paper();
        let mix = cat.balanced_mix();
        let total: f64 = mix.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for class in [VolatilityClass::Low, VolatilityClass::Mid, VolatilityClass::High] {
            let mass: f64 = mix
                .iter()
                .filter(|(id, _)| cat.request(*id).class() == class)
                .map(|(_, w)| w)
                .sum();
            assert!((mass - 1.0 / 3.0).abs() < 1e-9, "{class:?} mass {mass}");
        }
    }

    #[test]
    fn high_ratio_mix_controls_high_mass() {
        let cat = RequestCatalog::paper();
        for ratio in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let mix = cat.high_ratio_mix(ratio);
            let total: f64 = mix.iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9, "ratio {ratio}: total {total}");
            let high_mass: f64 = mix
                .iter()
                .filter(|(id, _)| cat.request(*id).class() == VolatilityClass::High)
                .map(|(_, w)| w)
                .sum();
            assert!((high_mass - ratio).abs() < 1e-9);
        }
    }

    #[test]
    fn ideal_latency_is_critical_path() {
        let cat = RequestCatalog::paper();
        let r = cat.request_by_name("read-user-timeline").unwrap();
        // nginx(5) → utl-read(20) → storage-read(12.5) = 37.5ms chain.
        assert!((r.ideal_latency_ms(&cat.services) - 37.5).abs() < 1e-9);
        assert!((r.slo_ms - 187.5).abs() < 1e-9);
    }

    #[test]
    fn volatility_of_empty_dag_is_zero() {
        let cat = RequestCatalog::paper();
        assert_eq!(raw_volatility(&ServiceDag::new(), &cat.services), 0.0);
    }

    #[test]
    fn volatility_band_boundaries() {
        assert_eq!(VolatilityClass::from_vr(0.3), VolatilityClass::Low);
        assert_eq!(VolatilityClass::from_vr(0.31), VolatilityClass::Mid);
        assert_eq!(VolatilityClass::from_vr(0.69), VolatilityClass::Mid);
        assert_eq!(VolatilityClass::from_vr(0.7), VolatilityClass::High);
    }

    #[test]
    fn high_vr_requests_use_more_volatile_services() {
        let cat = RequestCatalog::paper();
        let hi = cat.request_by_name("compose-post").unwrap().volatility;
        let lo = cat.request_by_name("read-home-timeline").unwrap().volatility;
        assert!(hi > 2.0 * lo, "high {hi} vs low {lo}");
    }
}
