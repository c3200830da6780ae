//! Scheduler registry: name + typed params → `Box<dyn Scheduler>`.
//!
//! The one way to name a scheduler is a spec string (`"vmlp"`,
//! `"vmlp:healing=off"`, `"FairSched"`) resolved against an open factory
//! table: a [`SchemeSpec`] names a registered scheduler and carries typed,
//! validated [`SchedulerParams`]; [`SchedulerRegistry::build`] resolves the name,
//! rejects unknown names and unknown/ill-typed params with
//! [`Error::InvalidConfig`] (listing the registered names), and invokes
//! the entry's factory with a [`BuildCtx`] carrying the experiment seed.
//!
//! Every built-in — the four Table VI baselines, v-MLP with all its
//! ablation switches, and the local-search contender `SearchSched` — is
//! pre-registered in [`default_registry`]. Out-of-tree schedulers
//! register through [`SchedulerRegistry::register`] on a custom registry
//! handed to [`Experiment::registry`](crate::Experiment::registry).
//! [`PAPER_SCHEMES`] lists the five Table VI schemes by their table names,
//! each of which is also a spec string and its own display name.

use crate::error::Error;
use mlp_core::organizer::DtPolicy;
use mlp_core::{VMlpConfig, VMlpScheduler};
use mlp_sched::{CurSched, FairSched, FullProfile, PartProfile, Scheduler, SearchSched};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// One typed scheduler parameter value.
///
/// Spec strings parse tokens in this order: `on`/`true` and `off`/`false`
/// become booleans, then integers, then floats, and anything else stays a
/// string. Display is the exact inverse, so spec strings round-trip.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A flag (`on`/`off` in spec strings).
    Bool(bool),
    /// An integer count or id.
    Int(i64),
    /// A real-valued knob.
    Float(f64),
    /// An enumerated choice (e.g. `dt_policy=always-p99`).
    Str(String),
}

impl ParamValue {
    /// Parses one `k=v` value token from a spec string.
    pub fn parse_token(tok: &str) -> ParamValue {
        match tok {
            "on" | "true" => return ParamValue::Bool(true),
            "off" | "false" => return ParamValue::Bool(false),
            _ => {}
        }
        if let Ok(i) = tok.parse::<i64>() {
            return ParamValue::Int(i);
        }
        if let Ok(f) = tok.parse::<f64>() {
            return ParamValue::Float(f);
        }
        ParamValue::Str(tok.to_string())
    }

    fn type_name(&self) -> &'static str {
        match self {
            ParamValue::Bool(_) => "bool",
            ParamValue::Int(_) => "int",
            ParamValue::Float(_) => "float",
            ParamValue::Str(_) => "string",
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Bool(true) => f.write_str("on"),
            ParamValue::Bool(false) => f.write_str("off"),
            ParamValue::Int(i) => write!(f, "{i}"),
            // `{:?}` keeps a trailing `.0`, so floats stay floats on
            // re-parse ("margin=1.0" round-trips as Float, not Int).
            ParamValue::Float(x) => write!(f, "{x:?}"),
            ParamValue::Str(s) => f.write_str(s),
        }
    }
}

impl From<bool> for ParamValue {
    fn from(b: bool) -> Self {
        ParamValue::Bool(b)
    }
}
impl From<i64> for ParamValue {
    fn from(i: i64) -> Self {
        ParamValue::Int(i)
    }
}
impl From<usize> for ParamValue {
    fn from(n: usize) -> Self {
        ParamValue::Int(n as i64)
    }
}
impl From<f64> for ParamValue {
    fn from(x: f64) -> Self {
        ParamValue::Float(x)
    }
}
impl From<&str> for ParamValue {
    fn from(s: &str) -> Self {
        ParamValue::Str(s.to_string())
    }
}
impl From<String> for ParamValue {
    fn from(s: String) -> Self {
        ParamValue::Str(s)
    }
}

impl Serialize for ParamValue {
    fn to_value(&self) -> Value {
        match self {
            ParamValue::Bool(b) => b.to_value(),
            ParamValue::Int(i) => i.to_value(),
            ParamValue::Float(x) => x.to_value(),
            ParamValue::Str(s) => s.to_value(),
        }
    }
}

impl Deserialize for ParamValue {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Bool(b) => Ok(ParamValue::Bool(*b)),
            Value::Num(_) => {
                // Canonicalize numbers: exact integers become Int so JSON
                // `3` and spec-string `3` compare equal.
                if let Some(i) = v.as_i64() {
                    Ok(ParamValue::Int(i))
                } else {
                    Ok(ParamValue::Float(v.as_f64().expect("numbers convert to f64")))
                }
            }
            Value::Str(s) => Ok(ParamValue::parse_token(s)),
            other => Err(serde::Error::custom(format!(
                "ParamValue: expected bool, number, or string, got {}",
                other.kind()
            ))),
        }
    }
}

/// Typed, validated parameters for one scheduler instance.
///
/// A sorted map, so [`fmt::Display`] of a [`SchemeSpec`] — and therefore
/// every derived display name and serialized sweep file — is canonical
/// regardless of insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchedulerParams(BTreeMap<String, ParamValue>);

impl SchedulerParams {
    /// No parameters: every knob at the scheduler's default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insert.
    pub fn with(mut self, key: &str, value: impl Into<ParamValue>) -> Self {
        self.0.insert(key.to_string(), value.into());
        self
    }

    /// True when no parameter was set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Raw lookup.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.0.get(key)
    }

    /// Iterates `(key, value)` in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Typed read: a flag, defaulting when absent.
    pub fn bool_or(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(ParamValue::Bool(b)) => Ok(*b),
            Some(other) => {
                Err(format!("param `{key}` expects on/off, got {} `{other}`", other.type_name()))
            }
        }
    }

    /// Typed read: an enumerated string choice, defaulting when absent.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> Result<&'a str, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(ParamValue::Str(s)) => Ok(s.as_str()),
            Some(other) => {
                Err(format!("param `{key}` expects a string, got {} `{other}`", other.type_name()))
            }
        }
    }

    /// Rejects any key outside `known` (factories call this first, so a
    /// typo'd param is an [`Error::InvalidConfig`], not a silent no-op).
    pub fn check_keys(&self, known: &[&str]) -> Result<(), String> {
        for k in self.0.keys() {
            if !known.contains(&k.as_str()) {
                let known = if known.is_empty() { "none".to_string() } else { known.join(", ") };
                return Err(format!("unknown param `{k}` (known params: {known})"));
            }
        }
        Ok(())
    }
}

impl Serialize for SchedulerParams {
    fn to_value(&self) -> Value {
        Value::Object(self.0.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

impl Deserialize for SchedulerParams {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let Value::Object(entries) = v else {
            return Err(serde::Error::custom(format!(
                "SchedulerParams: expected object, got {}",
                v.kind()
            )));
        };
        let mut map = BTreeMap::new();
        for (k, val) in entries {
            let pv = ParamValue::from_value(val)
                .map_err(|e| e.in_context(&format!("SchedulerParams.{k}")))?;
            map.insert(k.clone(), pv);
        }
        Ok(SchedulerParams(map))
    }
}

/// Lowercases and strips `-`/`_`, so `v-MLP`, `vmlp`, and `FairSched` /
/// `fairsched` all address the same registry entry.
pub fn canonical_name(name: &str) -> String {
    name.chars().filter(|c| *c != '-' && *c != '_').map(|c| c.to_ascii_lowercase()).collect()
}

/// A scheduler by registered name plus typed parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeSpec {
    /// Canonical registry name (lowercase, separators stripped).
    name: String,
    /// Typed knobs; empty means "the scheduler's defaults".
    params: SchedulerParams,
}

impl SchemeSpec {
    /// A spec with default params.
    pub fn named(name: &str) -> Self {
        SchemeSpec { name: canonical_name(name), params: SchedulerParams::new() }
    }

    /// A spec with explicit params.
    pub fn with_params(name: &str, params: SchedulerParams) -> Self {
        SchemeSpec { name: canonical_name(name), params }
    }

    /// The canonical scheme name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The typed parameters.
    pub fn params(&self) -> &SchedulerParams {
        &self.params
    }

    /// Parses `"name"` or `"name:k=v,k2=v2"`. A bare key (no `=`) is a
    /// flag set to `on`. Name resolution happens later, at registry
    /// build/validate time — parse only checks the spec's shape.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (name, rest) = match spec.split_once(':') {
            None => (spec.trim(), None),
            Some((n, r)) => (n.trim(), Some(r)),
        };
        if name.is_empty() {
            return Err(format!("scheme spec `{spec}` has an empty name"));
        }
        let mut params = SchedulerParams::new();
        if let Some(rest) = rest {
            for tok in rest.split(',') {
                let tok = tok.trim();
                if tok.is_empty() {
                    return Err(format!("scheme spec `{spec}` has an empty param token"));
                }
                let (k, v) = match tok.split_once('=') {
                    None => (tok, ParamValue::Bool(true)),
                    Some((k, v)) => (k.trim(), ParamValue::parse_token(v.trim())),
                };
                if k.is_empty() {
                    return Err(format!("scheme spec `{spec}` has an empty param key"));
                }
                if params.get(k).is_some() {
                    return Err(format!("scheme spec `{spec}` sets param `{k}` twice"));
                }
                params = params.with(k, v);
            }
        }
        Ok(SchemeSpec::with_params(name, params))
    }

    /// Human-facing label from the default registry (e.g.
    /// `v-MLP[healing=off]`); falls back to the canonical spec string for
    /// unregistered names or invalid params.
    pub fn display_name(&self) -> String {
        default_registry().display_name(self).unwrap_or_else(|_| self.to_string())
    }
}

impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        let mut sep = ':';
        for (k, v) in self.params.iter() {
            write!(f, "{sep}{k}={v}")?;
            sep = ',';
        }
        Ok(())
    }
}

/// Ergonomic conversion for static spec strings in tests and binaries
/// (`Experiment::from_config(ExperimentConfig::smoke("vmlp"))`). Panics on
/// a malformed spec — use [`SchemeSpec::parse`] for untrusted input.
impl From<&str> for SchemeSpec {
    fn from(spec: &str) -> Self {
        SchemeSpec::parse(spec).expect("static scheme spec parses")
    }
}

impl Serialize for SchemeSpec {
    fn to_value(&self) -> Value {
        // Spec-string form whenever it round-trips; the object form is
        // the escape hatch for string params that collide with the spec
        // grammar.
        let ambiguous = self.params.iter().any(
            |(_, v)| matches!(v, ParamValue::Str(s) if s.contains([',', ':', '=']) || s.is_empty()),
        );
        if ambiguous {
            Value::Object(vec![
                ("name".to_string(), self.name.to_value()),
                ("params".to_string(), self.params.to_value()),
            ])
        } else {
            Value::Str(self.to_string())
        }
    }
}

impl Deserialize for SchemeSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            // Spec strings and the unit variants of the retired enum
            // (`"VMlp"`, `"FairSched"`, …) that configs and result files
            // written before the registry carry — canonicalization makes
            // those names parse to the right registry entries for free.
            Value::Str(s) => SchemeSpec::parse(s).map_err(serde::Error::custom),
            Value::Object(entries) => {
                if let Some(name) = v.get("name") {
                    let name = name
                        .as_str()
                        .ok_or_else(|| serde::Error::custom("SchemeSpec.name: expected string"))?;
                    let params = match v.get("params") {
                        None => SchedulerParams::new(),
                        Some(p) => SchedulerParams::from_value(p)
                            .map_err(|e| e.in_context("SchemeSpec.params"))?,
                    };
                    return Ok(SchemeSpec::with_params(name, params));
                }
                // The retired enum's externally-tagged
                // `{"VMlpCustom": <VMlpConfig>}`.
                if let [(tag, cfg)] = entries.as_slice() {
                    if tag == "VMlpCustom" {
                        let cfg = VMlpConfig::from_value(cfg)
                            .map_err(|e| e.in_context("SchemeSpec.VMlpCustom"))?;
                        return Ok(SchemeSpec::with_params("vmlp", vmlp_params_from_config(cfg)));
                    }
                }
                Err(serde::Error::custom(
                    "SchemeSpec: expected a spec string, {name, params}, or a legacy VMlpCustom value",
                ))
            }
            other => Err(serde::Error::custom(format!(
                "SchemeSpec: expected string or object, got {}",
                other.kind()
            ))),
        }
    }
}

/// The five evaluated schemes in Table VI order, by their table names. Each
/// parses as a spec for its registry entry and is that entry's
/// [`display_name`](SchemeSpec::display_name).
pub const PAPER_SCHEMES: [&str; 5] =
    ["FairSched", "CurSched", "PartProfile", "FullProfile", "v-MLP"];

/// Context handed to scheduler factories at build time.
#[derive(Debug, Clone, Copy)]
pub struct BuildCtx {
    /// The experiment's root RNG seed; seeded schedulers must fork their
    /// streams from this so runs stay reproducible.
    pub seed: u64,
}

/// A registered scheduler factory: typed params + build context in,
/// boxed scheduler out (errors are param-validation messages).
pub type BuildFn = fn(&SchedulerParams, &BuildCtx) -> Result<Box<dyn Scheduler>, String>;

/// One registered scheduler: name, docs, known params, and factories.
#[derive(Clone)]
pub struct RegistryEntry {
    /// Canonical name (must already be in [`canonical_name`] form).
    pub name: &'static str,
    /// One-line description for `--help` style listings.
    pub summary: &'static str,
    /// Every param key the factory understands (unknown keys error).
    pub param_keys: &'static [&'static str],
    /// Builds the scheduler; errors are param-validation messages.
    pub build: BuildFn,
    /// Derives the display label for a param set (e.g. `v-MLP[healing=off]`).
    pub display: fn(&SchedulerParams) -> Result<String, String>,
}

/// The scheme-name → factory table.
pub struct SchedulerRegistry {
    entries: Vec<RegistryEntry>,
}

impl SchedulerRegistry {
    /// An empty registry (out-of-tree embedders start here).
    pub fn empty() -> Self {
        SchedulerRegistry { entries: Vec::new() }
    }

    /// A registry with every built-in scheme registered.
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        for e in builtin_entries() {
            r.register(e).expect("built-in names are unique");
        }
        r
    }

    /// Registers a scheduler; duplicate names are an error.
    pub fn register(&mut self, entry: RegistryEntry) -> Result<(), Error> {
        if entry.name != canonical_name(entry.name) {
            return Err(Error::InvalidConfig(format!(
                "registry name `{}` is not canonical (want `{}`)",
                entry.name,
                canonical_name(entry.name)
            )));
        }
        if self.resolve(entry.name).is_some() {
            return Err(Error::InvalidConfig(format!(
                "scheme `{}` is already registered",
                entry.name
            )));
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Registered canonical names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<_> = self.entries.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names
    }

    /// The registered entries, in registration order.
    pub fn entries(&self) -> &[RegistryEntry] {
        &self.entries
    }

    /// Looks up an entry by (canonicalized) name.
    pub fn resolve(&self, name: &str) -> Option<&RegistryEntry> {
        let canon = canonical_name(name);
        self.entries.iter().find(|e| e.name == canon)
    }

    fn entry_for(&self, spec: &SchemeSpec) -> Result<&RegistryEntry, Error> {
        self.resolve(spec.name()).ok_or_else(|| {
            Error::InvalidConfig(format!(
                "unknown scheme `{}`; registered schemes: {}",
                spec.name(),
                self.names().join(", ")
            ))
        })
    }

    /// Builds the scheduler a spec describes. Unknown names, unknown
    /// params, and ill-typed params all surface as
    /// [`Error::InvalidConfig`].
    pub fn build(&self, spec: &SchemeSpec, seed: u64) -> Result<Box<dyn Scheduler>, Error> {
        let entry = self.entry_for(spec)?;
        spec.params()
            .check_keys(entry.param_keys)
            .and_then(|()| (entry.build)(spec.params(), &BuildCtx { seed }))
            .map_err(|msg| Error::InvalidConfig(format!("scheme `{}`: {msg}", entry.name)))
    }

    /// The display label for a spec (e.g. `v-MLP[healing=off]`).
    pub fn display_name(&self, spec: &SchemeSpec) -> Result<String, Error> {
        let entry = self.entry_for(spec)?;
        spec.params()
            .check_keys(entry.param_keys)
            .and_then(|()| (entry.display)(spec.params()))
            .map_err(|msg| Error::InvalidConfig(format!("scheme `{}`: {msg}", entry.name)))
    }

    /// Full validation: the name resolves and the params build.
    pub fn validate_spec(&self, spec: &SchemeSpec) -> Result<(), Error> {
        self.build(spec, 0).map(|_| ())
    }
}

/// The process-wide registry of built-in schemes.
pub fn default_registry() -> &'static SchedulerRegistry {
    static REGISTRY: OnceLock<SchedulerRegistry> = OnceLock::new();
    REGISTRY.get_or_init(SchedulerRegistry::builtin)
}

// ---------------------------------------------------------------------------
// Built-in entries
// ---------------------------------------------------------------------------

/// Zero-param baselines share this entry shape; a macro (not a helper fn)
/// because `RegistryEntry.build` is a plain fn pointer and cannot close
/// over the concrete scheduler type.
macro_rules! baseline_entry {
    ($name:literal, $summary:literal, $label:literal, $ty:ty) => {
        RegistryEntry {
            name: $name,
            summary: $summary,
            param_keys: &[],
            build: |params, _ctx| {
                params.check_keys(&[])?;
                Ok(Box::new(<$ty>::new()) as Box<dyn Scheduler>)
            },
            display: |_params| Ok($label.to_string()),
        }
    };
}

const VMLP_PARAM_KEYS: &[&str] = &[
    "healing",
    "reorder",
    "queue_switch",
    "delay_slot",
    "resource_stretch",
    "trim_reservations",
    "dt_policy",
];

fn dt_policy_from_str(s: &str) -> Result<DtPolicy, String> {
    match canonical_name(s).as_str() {
        "banded" => Ok(DtPolicy::Banded),
        "alwaysmean" => Ok(DtPolicy::AlwaysMean),
        "alwaysp99" => Ok(DtPolicy::AlwaysP99),
        _ => {
            Err(format!("param `dt_policy` expects banded, always-mean, or always-p99, got `{s}`"))
        }
    }
}

fn dt_policy_str(p: DtPolicy) -> &'static str {
    match p {
        DtPolicy::Banded => "banded",
        DtPolicy::AlwaysMean => "always-mean",
        DtPolicy::AlwaysP99 => "always-p99",
    }
}

/// Lowers typed params onto [`VMlpConfig::paper`]. The aggregate
/// `healing` flag drives both healing switches; the specific flags win
/// when both are given.
fn vmlp_config_from_params(params: &SchedulerParams) -> Result<VMlpConfig, String> {
    let mut cfg = VMlpConfig::paper();
    if params.get("healing").is_some() {
        let on = params.bool_or("healing", true)?;
        cfg.delay_slot = on;
        cfg.resource_stretch = on;
    }
    cfg.reorder = params.bool_or("reorder", cfg.reorder)?;
    cfg.queue_switch = params.bool_or("queue_switch", cfg.queue_switch)?;
    cfg.delay_slot = params.bool_or("delay_slot", cfg.delay_slot)?;
    cfg.resource_stretch = params.bool_or("resource_stretch", cfg.resource_stretch)?;
    cfg.trim_reservations = params.bool_or("trim_reservations", cfg.trim_reservations)?;
    cfg.dt_policy = dt_policy_from_str(params.str_or("dt_policy", dt_policy_str(cfg.dt_policy))?)?;
    Ok(cfg)
}

/// Inverse of [`vmlp_config_from_params`]: the minimal param set whose
/// application to `paper()` reproduces `cfg`. Used for display names and
/// by the legacy `VMlpCustom` deserializer.
fn vmlp_params_from_config(cfg: VMlpConfig) -> SchedulerParams {
    let paper = VMlpConfig::paper();
    let mut p = SchedulerParams::new();
    if !cfg.delay_slot && !cfg.resource_stretch && (paper.delay_slot || paper.resource_stretch) {
        p = p.with("healing", false);
    } else {
        if cfg.delay_slot != paper.delay_slot {
            p = p.with("delay_slot", cfg.delay_slot);
        }
        if cfg.resource_stretch != paper.resource_stretch {
            p = p.with("resource_stretch", cfg.resource_stretch);
        }
    }
    if cfg.reorder != paper.reorder {
        p = p.with("reorder", cfg.reorder);
    }
    if cfg.queue_switch != paper.queue_switch {
        p = p.with("queue_switch", cfg.queue_switch);
    }
    if cfg.trim_reservations != paper.trim_reservations {
        p = p.with("trim_reservations", cfg.trim_reservations);
    }
    if cfg.dt_policy != paper.dt_policy {
        p = p.with("dt_policy", dt_policy_str(cfg.dt_policy));
    }
    p
}

fn vmlp_display(params: &SchedulerParams) -> Result<String, String> {
    let cfg = vmlp_config_from_params(params)?;
    let diff = vmlp_params_from_config(cfg);
    if diff.is_empty() {
        return Ok("v-MLP".to_string());
    }
    let parts: Vec<String> = diff.iter().map(|(k, v)| format!("{k}={v}")).collect();
    Ok(format!("v-MLP[{}]", parts.join(",")))
}

fn builtin_entries() -> Vec<RegistryEntry> {
    vec![
        baseline_entry!(
            "fairsched",
            "FCFS admission, equal resource slices, round-robin placement",
            "FairSched",
            FairSched
        ),
        baseline_entry!(
            "cursched",
            "FCFS admission, placement on the currently least-loaded machine",
            "CurSched",
            CurSched
        ),
        baseline_entry!(
            "partprofile",
            "deadline priority queue, execution-time profiles drive placement",
            "PartProfile",
            PartProfile
        ),
        baseline_entry!(
            "fullprofile",
            "deadline priority queue, full time+resource profile reservations",
            "FullProfile",
            FullProfile
        ),
        RegistryEntry {
            name: "vmlp",
            summary: "the paper's volatility-aware MLP scheduler (every ablation switchable)",
            param_keys: VMLP_PARAM_KEYS,
            build: |params, _ctx| {
                Ok(Box::new(VMlpScheduler::with_config(vmlp_config_from_params(params)?)))
            },
            display: vmlp_display,
        },
        RegistryEntry {
            name: "searchsched",
            summary: "seeded local-search placement (greedy + variable-neighborhood refinement)",
            param_keys: &[],
            build: |params, ctx| {
                params.check_keys(&[])?;
                Ok(Box::new(SearchSched::new(ctx.seed)))
            },
            display: |_params| Ok("SearchSched".to_string()),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trips_names_and_builds() {
        let reg = default_registry();
        for name in ["fairsched", "cursched", "partprofile", "fullprofile", "vmlp", "searchsched"] {
            let spec = SchemeSpec::named(name);
            let sched = reg.build(&spec, 2022).unwrap();
            assert_eq!(
                canonical_name(sched.name()),
                canonical_name(name),
                "built scheduler's name maps back to its registry entry"
            );
            assert_eq!(SchemeSpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }

    #[test]
    fn display_names_match_legacy_labels() {
        for (name, label) in [
            ("fairsched", "FairSched"),
            ("cursched", "CurSched"),
            ("partprofile", "PartProfile"),
            ("fullprofile", "FullProfile"),
            ("vmlp", "v-MLP"),
            ("searchsched", "SearchSched"),
        ] {
            assert_eq!(SchemeSpec::named(name).display_name(), label);
        }
    }

    #[test]
    fn paper_schemes_build_under_their_table_names() {
        for name in PAPER_SCHEMES {
            let spec = SchemeSpec::parse(name).unwrap();
            let sched = default_registry().build(&spec, 0).unwrap();
            assert_eq!(sched.name(), name);
            assert_eq!(sched.waiting(), 0);
        }
    }

    #[test]
    fn names_canonicalize() {
        assert_eq!(canonical_name("v-MLP"), "vmlp");
        assert_eq!(canonical_name("FairSched"), "fairsched");
        assert_eq!(canonical_name("search_sched"), "searchsched");
        assert!(default_registry().resolve("v-MLP").is_some());
    }

    #[test]
    fn ablated_vmlp_gets_a_descriptive_display_name() {
        let spec = SchemeSpec::parse("vmlp:healing=off").unwrap();
        assert_eq!(spec.display_name(), "v-MLP[healing=off]");
        let spec = SchemeSpec::parse("vmlp:reorder=off,dt_policy=always-p99").unwrap();
        assert_eq!(spec.display_name(), "v-MLP[dt_policy=always-p99,reorder=off]");
    }

    fn build_err(spec: &SchemeSpec) -> Error {
        match default_registry().build(spec, 1) {
            Ok(_) => panic!("spec `{spec}` unexpectedly built"),
            Err(e) => e,
        }
    }

    #[test]
    fn unknown_scheme_lists_registered_names() {
        let err = build_err(&SchemeSpec::named("bogus"));
        let msg = err.to_string();
        assert!(msg.contains("bogus"), "{msg}");
        for name in default_registry().names() {
            assert!(msg.contains(name), "{msg} should list {name}");
        }
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn bad_params_name_the_offending_key() {
        let cases = [
            ("vmlp:typo=on", "typo"),
            ("vmlp:reorder=nope", "reorder"),
            ("vmlp:dt_policy=sometimes", "dt_policy"),
            ("fairsched:anything=1", "anything"),
            // SearchSched's former knobs are constants now.
            ("searchsched:neighborhood=3", "neighborhood"),
            ("searchsched:window=8", "window"),
            ("searchsched:iters=24", "iters"),
            ("searchsched:round_budget=8", "round_budget"),
            ("searchsched:margin=1.1", "margin"),
        ];
        for (spec, key) in cases {
            let spec = SchemeSpec::parse(spec).unwrap();
            let err = build_err(&spec);
            let msg = err.to_string();
            assert!(msg.contains(key), "`{msg}` should name `{key}`");
            assert_eq!(err.exit_code(), 2);
        }
    }

    #[test]
    fn params_serde_round_trip() {
        let params = SchedulerParams::new()
            .with("healing", false)
            .with("iters", 4usize)
            .with("margin", 1.5)
            .with("dt_policy", "always-p99");
        let js = serde_json::to_string(&params).unwrap();
        let back: SchedulerParams = serde_json::from_str(&js).unwrap();
        assert_eq!(back, params);
    }

    #[test]
    fn spec_serde_round_trip_and_legacy_forms() {
        let spec = SchemeSpec::parse("vmlp:healing=off,dt_policy=always-mean").unwrap();
        let js = serde_json::to_string(&spec).unwrap();
        let back: SchemeSpec = serde_json::from_str(&js).unwrap();
        assert_eq!(back, spec);

        // Legacy unit-variant strings load as the matching registry spec.
        let legacy: SchemeSpec = serde_json::from_str("\"VMlp\"").unwrap();
        assert_eq!(legacy, SchemeSpec::named("vmlp"));
        let legacy: SchemeSpec = serde_json::from_str("\"FairSched\"").unwrap();
        assert_eq!(legacy, SchemeSpec::named("fairsched"));
        let legacy: SchemeSpec = serde_json::from_str("\"PartProfile\"").unwrap();
        assert_eq!(legacy, SchemeSpec::named("partprofile"));

        // Legacy `VMlpCustom` objects load as vmlp + diff params.
        let cfg = serde_json::to_string(&VMlpConfig::without_healing()).unwrap();
        let js = format!("{{\"VMlpCustom\":{cfg}}}");
        let back: SchemeSpec = serde_json::from_str(&js).unwrap();
        assert_eq!(back, SchemeSpec::parse("vmlp:healing=off").unwrap());
        // One written while the sort-based round was still selectable, or
        // while the heal fanout was a field, carries those keys; they are
        // ignored, the rest loads.
        let cfg = cfg.strip_suffix('}').expect("config serializes to an object");
        let js =
            format!("{{\"VMlpCustom\":{cfg},\"unindexed_reorder\":false,\"heal_fanout\":5}}}}");
        let back: SchemeSpec = serde_json::from_str(&js).unwrap();
        assert_eq!(back, SchemeSpec::parse("vmlp:healing=off").unwrap());
    }

    #[test]
    fn vmlp_params_round_trip_through_config() {
        let cfgs = [
            VMlpConfig::paper(),
            VMlpConfig::without_healing(),
            VMlpConfig { reorder: false, ..VMlpConfig::paper() },
            VMlpConfig { dt_policy: DtPolicy::AlwaysP99, ..VMlpConfig::paper() },
            VMlpConfig { delay_slot: false, ..VMlpConfig::paper() },
        ];
        for cfg in cfgs {
            let params = vmlp_params_from_config(cfg);
            let back = vmlp_config_from_params(&params).unwrap();
            assert_eq!(back, cfg, "params {params:?}");
        }
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut reg = SchedulerRegistry::builtin();
        let err = reg.register(baseline_entry!("vmlp", "dup", "dup", FairSched)).unwrap_err();
        assert!(err.to_string().contains("already registered"));
    }

    #[test]
    fn custom_registration_is_buildable() {
        let mut reg = SchedulerRegistry::builtin();
        reg.register(baseline_entry!("myfair", "out-of-tree example", "MyFair", FairSched))
            .unwrap();
        let sched = reg.build(&SchemeSpec::named("my-fair"), 7).unwrap();
        assert_eq!(sched.name(), "FairSched");
        assert_eq!(reg.display_name(&SchemeSpec::named("myfair")).unwrap(), "MyFair");
    }

    #[test]
    fn seeded_schemes_get_the_experiment_seed() {
        // Two builds with the same seed must behave identically; the
        // registry must thread the seed through (SearchSched's RNG).
        let spec = SchemeSpec::named("searchsched");
        let a = default_registry().build(&spec, 11).unwrap();
        let b = default_registry().build(&spec, 11).unwrap();
        assert_eq!(a.name(), b.name());
    }
}
