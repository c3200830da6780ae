//! Zipkin-compatible span export.
//!
//! The paper's deployment collects traces with Zipkin/Jaeger (Table III);
//! our simulated collector can export its spans in the Zipkin v2 JSON
//! shape, so recorded runs can be loaded into real tracing UIs (or any
//! downstream tooling that speaks the format). Parent links are
//! reconstructed from the request DAG: a span's parent is its latest-
//! finishing DAG predecessor.

use crate::collector::TraceCollector;
use crate::span::Span;
use mlp_model::RequestCatalog;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One span in Zipkin v2 JSON shape (subset of fields).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ZipkinSpan {
    /// 16-hex trace id (one per request).
    #[serde(rename = "traceId")]
    pub trace_id: String,
    /// 16-hex span id.
    pub id: String,
    /// Parent span id, absent for root spans.
    #[serde(rename = "parentId", skip_serializing_if = "Option::is_none")]
    pub parent_id: Option<String>,
    /// Service name.
    pub name: String,
    /// Start timestamp in microseconds.
    pub timestamp: u64,
    /// Duration in microseconds.
    pub duration: u64,
    /// Local endpoint (the machine the span ran on).
    #[serde(rename = "localEndpoint")]
    pub local_endpoint: Endpoint,
    /// Extra key/value tags.
    pub tags: HashMap<String, String>,
}

/// Zipkin local endpoint.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Endpoint {
    /// Service name as shown in the Zipkin UI.
    #[serde(rename = "serviceName")]
    pub service_name: String,
}

fn hex16(hi: u64, lo: u64) -> String {
    format!("{:08x}{:08x}", hi as u32, lo as u32)
}

/// Converts one simulator span (plus its resolved parent) into Zipkin form.
fn convert(span: &Span, parent: Option<&Span>, catalog: &RequestCatalog) -> ZipkinSpan {
    let svc_name = catalog.services.get(span.service).name.clone();
    let mut tags = HashMap::new();
    tags.insert("machine".to_string(), format!("m{}", span.machine.0));
    tags.insert("dag.node".to_string(), span.dag_node.to_string());
    tags.insert("satisfaction".to_string(), format!("{:.3}", span.satisfaction));
    tags.insert("planned.start.us".to_string(), span.planned_start.as_micros().to_string());
    ZipkinSpan {
        trace_id: hex16(span.request.0, 0xC0DE),
        id: hex16(span.request.0, span.dag_node as u64 + 1),
        parent_id: parent.map(|p| hex16(p.request.0, p.dag_node as u64 + 1)),
        name: svc_name.clone(),
        timestamp: span.start.as_micros(),
        duration: span.duration().as_micros(),
        local_endpoint: Endpoint { service_name: svc_name },
        tags,
    }
}

/// Exports every span of a collector as Zipkin v2 spans. Parents are the
/// latest-finishing DAG predecessors within the same request.
pub fn export(collector: &TraceCollector, catalog: &RequestCatalog) -> Vec<ZipkinSpan> {
    // Group spans per request for parent resolution.
    let mut per_req: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in collector.spans() {
        per_req.entry(s.request.0).or_default().push(s);
    }
    let mut out = Vec::with_capacity(collector.spans().len());
    for spans in per_req.values() {
        let dag = &catalog.request(spans[0].request_type).dag;
        let by_node: HashMap<usize, &Span> = spans.iter().map(|s| (s.dag_node, *s)).collect();
        for s in spans {
            let parent = dag
                .parents(s.dag_node)
                .into_iter()
                .filter_map(|p| by_node.get(&p).copied())
                .max_by_key(|p| p.end);
            out.push(convert(s, parent, catalog));
        }
    }
    // Deterministic order for stable exports.
    out.sort_by(|a, b| a.timestamp.cmp(&b.timestamp).then_with(|| a.id.cmp(&b.id)));
    out
}

/// Serializes an export to the Zipkin v2 JSON array format.
pub fn to_json(spans: &[ZipkinSpan]) -> serde_json::Result<String> {
    serde_json::to_string_pretty(spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceCollector;
    use crate::span::RequestId;
    use mlp_cluster::MachineId;
    use mlp_sim::{SimDuration, SimTime};

    /// Builds a collector holding a full read-user-timeline request
    /// (chain 0→1→2).
    fn collector_with_chain(catalog: &RequestCatalog) -> TraceCollector {
        let rt = catalog.request_by_name("read-user-timeline").unwrap();
        let mut c = TraceCollector::new(SimTime::ZERO);
        let mut t = SimTime::from_millis(10);
        for (i, node) in rt.dag.nodes().iter().enumerate() {
            let end = t + SimDuration::from_millis(5);
            c.record_span(Span {
                request: RequestId(7),
                request_type: rt.id,
                service: node.service,
                dag_node: i,
                machine: MachineId(i as u32),
                planned_start: t,
                start: t,
                end,
                satisfaction: 1.0,
            });
            t = end + SimDuration::from_micros(500);
        }
        c
    }

    #[test]
    fn export_reconstructs_parent_links() {
        let catalog = RequestCatalog::paper();
        let c = collector_with_chain(&catalog);
        let spans = export(&c, &catalog);
        assert_eq!(spans.len(), 3);
        // Root has no parent; each subsequent span points at its DAG parent.
        assert!(spans[0].parent_id.is_none());
        assert_eq!(spans[1].parent_id.as_deref(), Some(spans[0].id.as_str()));
        assert_eq!(spans[2].parent_id.as_deref(), Some(spans[1].id.as_str()));
        // All share one trace id.
        assert!(spans.iter().all(|s| s.trace_id == spans[0].trace_id));
    }

    #[test]
    fn tags_carry_simulator_context() {
        let catalog = RequestCatalog::paper();
        let c = collector_with_chain(&catalog);
        let spans = export(&c, &catalog);
        let s = &spans[1];
        assert_eq!(s.tags["machine"], "m1");
        assert_eq!(s.tags["dag.node"], "1");
        assert_eq!(s.tags["satisfaction"], "1.000");
        assert_eq!(s.name, "user-timeline-read");
    }

    #[test]
    fn json_roundtrip() {
        let catalog = RequestCatalog::paper();
        let c = collector_with_chain(&catalog);
        let spans = export(&c, &catalog);
        let json = to_json(&spans).unwrap();
        assert!(json.contains("\"traceId\""));
        assert!(json.contains("\"localEndpoint\""));
        let back: Vec<ZipkinSpan> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spans);
    }

    #[test]
    fn durations_are_microseconds() {
        let catalog = RequestCatalog::paper();
        let c = collector_with_chain(&catalog);
        let spans = export(&c, &catalog);
        assert!(spans.iter().all(|s| s.duration == 5_000));
        assert_eq!(spans[0].timestamp, 10_000);
    }
}
