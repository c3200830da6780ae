//! Sweep-config files: a named list of scheme specs.
//!
//! Figure binaries used to hardcode their scheme arrays; a sweep config
//! moves that list into a small JSON file so a new contender (or an
//! ablation) joins a figure without touching bench source:
//!
//! ```json
//! {
//!   "schemes": [
//!     "fairsched",
//!     "vmlp:healing=off",
//!     { "name": "vmlp", "params": { "dt_policy": "always-p99" } }
//!   ]
//! }
//! ```
//!
//! Committed defaults live in `sweeps/` at the repo root and reproduce
//! the historically hardcoded lists exactly; bins accept `--sweep=FILE`
//! to override.

use crate::error::Error;
use crate::registry::{default_registry, SchemeSpec};
use serde::{Deserialize, Serialize, Value};
use std::path::Path;

/// An ordered list of scheme specs to sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// The schemes, in sweep (and figure-column) order.
    pub schemes: Vec<SchemeSpec>,
}

impl SweepConfig {
    /// Builds a sweep from already-parsed specs.
    pub fn new(schemes: Vec<SchemeSpec>) -> Self {
        SweepConfig { schemes }
    }

    /// Parses the JSON document format (see the module docs).
    pub fn from_json(json: &str) -> Result<Self, Error> {
        serde_json::from_str(json).map_err(|e| Error::InvalidConfig(format!("sweep config: {e}")))
    }

    /// Loads and parses a sweep file. Missing file → [`Error::Io`];
    /// malformed JSON or specs → [`Error::InvalidConfig`].
    pub fn load(path: &Path) -> Result<Self, Error> {
        let json = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
        Self::from_json(&json).map_err(|e| Error::InvalidConfig(format!("{}: {e}", path.display())))
    }

    /// Validates every spec against the default registry (names resolve,
    /// params build). Call before a long sweep to fail fast.
    pub fn validate(&self) -> Result<(), Error> {
        if self.schemes.is_empty() {
            return Err(Error::InvalidConfig("sweep config lists no schemes".to_string()));
        }
        for spec in &self.schemes {
            default_registry().validate_spec(spec)?;
        }
        Ok(())
    }

    /// Display labels for the swept schemes, in order.
    pub fn labels(&self) -> Vec<String> {
        self.schemes.iter().map(|s| s.display_name()).collect()
    }
}

impl Serialize for SweepConfig {
    fn to_value(&self) -> Value {
        Value::Object(vec![("schemes".to_string(), self.schemes.to_value())])
    }
}

impl Deserialize for SweepConfig {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let schemes = match v.get("schemes") {
            Some(list) => Vec::<SchemeSpec>::from_value(list)
                .map_err(|e| e.in_context("SweepConfig.schemes"))?,
            None => return Err(serde::Error::custom("SweepConfig: missing `schemes` list")),
        };
        Ok(SweepConfig { schemes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_three_spec_forms() {
        let sweep = SweepConfig::from_json(
            r#"{"schemes": [
                "fairsched",
                "vmlp:healing=off",
                {"name": "vmlp", "params": {"dt_policy": "always-p99"}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(sweep.schemes.len(), 3);
        assert_eq!(sweep.schemes[0], SchemeSpec::named("fairsched"));
        assert_eq!(sweep.schemes[1], SchemeSpec::parse("vmlp:healing=off").unwrap());
        assert_eq!(sweep.schemes[2], SchemeSpec::parse("vmlp:dt_policy=always-p99").unwrap());
        sweep.validate().unwrap();
        assert_eq!(
            sweep.labels(),
            ["FairSched", "v-MLP[healing=off]", "v-MLP[dt_policy=always-p99]"]
        );
    }

    #[test]
    fn serde_round_trip() {
        let sweep = SweepConfig::new(vec![
            SchemeSpec::named("vmlp"),
            SchemeSpec::parse("vmlp:reorder=off,dt_policy=always-mean").unwrap(),
        ]);
        let js = serde_json::to_string(&sweep).unwrap();
        assert_eq!(SweepConfig::from_json(&js).unwrap(), sweep);
    }

    #[test]
    fn bad_documents_are_typed_errors() {
        for doc in ["{}", "[]", "{\"schemes\": 4}", "not json"] {
            let err = SweepConfig::from_json(doc).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{doc} should be InvalidConfig");
        }
        let unknown = SweepConfig::from_json(r#"{"schemes": ["nope"]}"#).unwrap();
        let err = unknown.validate().unwrap_err();
        assert!(err.to_string().contains("registered schemes"));
        let empty = SweepConfig::new(vec![]);
        assert!(empty.validate().is_err());
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = SweepConfig::load(Path::new("/nonexistent/sweep.json")).unwrap_err();
        assert!(matches!(err, Error::Io { .. }));
    }
}
