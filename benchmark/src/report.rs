//! What one run reports, and the metric contract it reports against.
//!
//! `BENCHMARK.json` at the repository root is the single source of names,
//! units, directions and bounds: a run looks its metrics up there, so a
//! metric that is listed but not produced (or the reverse) fails the run
//! instead of drifting silently.

use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::fs;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics, which explain and are not gated.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a string"))
}

fn items<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match field(v, key)? {
        Value::Array(items) => Ok(items),
        _ => Err(format!("BENCHMARK.json: `{key}` is not a list")),
    }
}

fn metric_specs(v: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    items(v, key)?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: text(m, "better")? == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Reads `BENCHMARK.json` from the current directory (the driver and
    /// the README both run the benchmark from the repository root).
    pub fn load() -> Result<Spec, String> {
        let json = fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let v: Value = serde_json::from_str(&json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Spec {
            run_seconds: field(&v, "run_seconds")?
                .as_f64()
                .ok_or("BENCHMARK.json: `run_seconds` is not a number")?,
            workloads: items(&v, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metric_specs(&v, "end_to_end")?,
            per_layer: metric_specs(&v, "per_layer")?,
        })
    }

    /// The metric list a run of this kind must print.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// One correctness check of one run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one (workload, seed, pass) run produced.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Operations issued against the program under test.
    pub attempted: u64,
    /// Operations that did not end the way a healthy run ends them.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Contract metrics: end-to-end (timed pass) or per-layer (traced).
    pub metrics: BTreeMap<String, f64>,
    /// The same run under the names the design issue uses per workload
    /// (`wall_us_per_req`, `wire_p99_ms`, …) plus sample counts.
    pub extra: BTreeMap<String, f64>,
    /// Hash of every simulated-time result; equal for equal inputs.
    pub digest: Option<String>,
}

impl RunReport {
    pub fn new(workload: &str, seed: u64, traced: bool) -> RunReport {
        RunReport { workload: workload.to_string(), seed, traced, ..RunReport::default() }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn set_extra(&mut self, name: &str, value: f64) {
        self.extra.insert(name.to_string(), value);
    }

    /// The run's set-ups in its printed rows; returns the gated `setup_s`.
    pub fn set_setup_extras(&mut self, setups: &crate::host::SetupClock) -> f64 {
        let setup = setups.times();
        self.set_extra("setup_s", setup.quiet_s);
        self.set_extra("setup_median_s", setup.median_s);
        self.set_extra("setup_cold_s", setup.cold_s);
        setup.quiet_s
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        let detail = if ok { String::new() } else { detail() };
        self.checks.push(Check { name: name.to_string(), ok, detail });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Fits the produced metrics to the contract list. A per-layer metric
    /// a workload does not exercise reads 0; an end-to-end metric must be
    /// produced, finite and non-zero, and nothing unlisted may be produced.
    pub fn fit_to(&mut self, specs: &[MetricSpec]) {
        let traced = self.traced;
        let mut missing = Vec::new();
        let mut invalid = Vec::new();
        for spec in specs {
            match self.metrics.get(&spec.name).copied() {
                None if traced => self.set(&spec.name, 0.0),
                None => missing.push(spec.name.clone()),
                Some(v) if !v.is_finite() || (!traced && v == 0.0) => {
                    invalid.push(format!("{}={v}", spec.name))
                }
                Some(_) => {}
            }
        }
        let unlisted: Vec<String> =
            self.metrics.keys().filter(|k| !specs.iter().any(|s| &s.name == *k)).cloned().collect();
        self.check("metrics.all_listed_produced", missing.is_empty(), || missing.join(", "));
        self.check("metrics.finite_and_nonzero", invalid.is_empty(), || invalid.join(", "));
        self.check("metrics.none_unlisted", unlisted.is_empty(), || unlisted.join(", "));
        for name in unlisted {
            self.metrics.remove(&name);
        }
    }

    /// The driver contract's result line: exactly four keys.
    pub fn result_line(&self, specs: &[MetricSpec]) -> String {
        let metrics = specs
            .iter()
            .filter_map(|s| {
                let value = *self.metrics.get(&s.name)?;
                Some((s.name.clone(), obj(vec![("value", num(value)), ("unit", str(&s.unit))])))
            })
            .collect();
        to_line(&obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(Number::U(self.attempted.max(1)))),
            ("failed", Value::Num(Number::U(self.failed))),
            ("metrics", Value::Object(metrics)),
        ]))
    }

    /// Everything else the suite wants from a child run, as one line.
    pub fn detail_line(&self) -> String {
        let map = |m: &BTreeMap<String, f64>| {
            Value::Object(m.iter().map(|(k, v)| (k.clone(), num(*v))).collect())
        };
        let failed_checks = self
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| str(&format!("{}: {}", c.name, c.detail)))
            .collect();
        to_line(&obj(vec![
            ("workload", str(&self.workload)),
            ("seed", Value::Num(Number::U(self.seed))),
            ("traced", Value::Bool(self.traced)),
            ("digest", self.digest.as_deref().map_or(Value::Null, str)),
            ("checks", Value::Num(Number::U(self.checks.len() as u64))),
            ("failed_checks", Value::Array(failed_checks)),
            ("extra", map(&self.extra)),
        ]))
    }
}

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn num(v: f64) -> Value {
    Value::Num(Number::F(v))
}

pub fn str(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn to_line(v: &Value) -> String {
    serde_json::to_string(v).expect("a value tree serializes")
}

/// 64-bit FNV-1a over a sequence of words; the `sim_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> MetricSpec {
        MetricSpec { name: name.into(), unit: "us".into(), higher_is_better: false, bound: None }
    }

    #[test]
    fn timed_run_must_produce_every_listed_metric_non_zero() {
        let mut r = RunReport::new("w", 1, false);
        r.set("a", 1.5);
        r.set("b", 0.0);
        r.set("stray", 2.0);
        r.fit_to(&[spec("a"), spec("b"), spec("c")]);
        assert!(!r.correct());
        let failed: Vec<&str> =
            r.checks.iter().filter(|c| !c.ok).map(|c| c.name.as_str()).collect();
        assert_eq!(
            failed,
            ["metrics.all_listed_produced", "metrics.finite_and_nonzero", "metrics.none_unlisted"]
        );
    }

    #[test]
    fn traced_run_reads_zero_for_a_layer_it_does_not_exercise() {
        let mut r = RunReport::new("w", 1, true);
        r.set("a", 1.5);
        r.fit_to(&[spec("a"), spec("b")]);
        assert!(r.correct());
        assert_eq!(r.metrics["b"], 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunReport::new("w", 1, false);
        r.attempted = 10;
        r.set("a", 1.2034);
        let line = r.result_line(&[spec("a")]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"a":{"value":1.2034,"unit":"us"}}}"#
        );
    }

    #[test]
    fn digest_depends_on_every_word_and_its_order() {
        let hex = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|w| d.word(*w));
            d.hex()
        };
        assert_eq!(hex(&[1, 2]), hex(&[1, 2]));
        assert_ne!(hex(&[1, 2]), hex(&[2, 1]));
        assert_ne!(hex(&[1, 2]), hex(&[1, 3]));
    }
}
