//! The evaluated scheduling schemes (Table VI) as a buildable enum.
//!
//! Deprecated shim: scheduler construction now goes through the
//! [`registry`](crate::registry) — a `Scheme` converts losslessly into a
//! [`SchemeSpec`] (`Scheme::VMlp` → `"vmlp"`, `Scheme::VMlpCustom(cfg)` →
//! `"vmlp"` plus the params that differ from the paper config), and every
//! construction path funnels through [`SchedulerRegistry::build`]. The
//! enum survives so existing call sites (and Table VI iteration via
//! [`Scheme::PAPER`]) keep compiling and fixed-seed figures stay
//! byte-identical.
//!
//! [`SchedulerRegistry::build`]: crate::registry::SchedulerRegistry::build

use crate::registry::{default_registry, vmlp_params_from_config, SchemeSpec};
use mlp_core::VMlpConfig;
use mlp_sched::Scheduler;
use serde::{Deserialize, Serialize};

/// One of the five evaluated schemes, plus ablated v-MLP variants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Scheme {
    /// Simple: FCFS + equal resource slices.
    FairSched,
    /// Simple: FCFS + current-load placement.
    CurSched,
    /// Advanced: priority + performance profile.
    PartProfile,
    /// Advanced: priority + overall profile.
    FullProfile,
    /// The paper's proposal.
    VMlp,
    /// v-MLP with a custom (typically ablated) configuration.
    VMlpCustom(VMlpConfig),
}

impl Scheme {
    /// The five paper schemes in Table VI order.
    pub const PAPER: [Scheme; 5] = [
        Scheme::FairSched,
        Scheme::CurSched,
        Scheme::PartProfile,
        Scheme::FullProfile,
        Scheme::VMlp,
    ];

    /// The registry spec this enum value is a shorthand for.
    pub fn spec(self) -> SchemeSpec {
        match self {
            Scheme::FairSched => SchemeSpec::named("fairsched"),
            Scheme::CurSched => SchemeSpec::named("cursched"),
            Scheme::PartProfile => SchemeSpec::named("partprofile"),
            Scheme::FullProfile => SchemeSpec::named("fullprofile"),
            Scheme::VMlp => SchemeSpec::named("vmlp"),
            Scheme::VMlpCustom(cfg) => {
                SchemeSpec::with_params("vmlp", vmlp_params_from_config(cfg))
            }
        }
    }

    /// Instantiates the scheduler.
    #[deprecated(note = "build through the scheduler registry: \
                         `default_registry().build(&scheme.spec(), seed)`")]
    pub fn build(self) -> Box<dyn Scheduler> {
        default_registry().build(&self.spec(), 0).expect("built-in schemes always build")
    }

    /// Display label.
    ///
    /// Static Table VI names; `VMlpCustom` collapses to `"v-MLP*"` — use
    /// [`display_name`](Scheme::display_name) (or
    /// [`SchemeSpec::display_name`]) for a label that says *which*
    /// ablation ran.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::FairSched => "FairSched",
            Scheme::CurSched => "CurSched",
            Scheme::PartProfile => "PartProfile",
            Scheme::FullProfile => "FullProfile",
            Scheme::VMlp => "v-MLP",
            Scheme::VMlpCustom(_) => "v-MLP*",
        }
    }

    /// Registry-derived display name (e.g. `v-MLP[healing=off]` for an
    /// ablated custom config).
    pub fn display_name(self) -> String {
        self.spec().display_name()
    }
}

impl From<Scheme> for SchemeSpec {
    fn from(s: Scheme) -> SchemeSpec {
        s.spec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(deprecated)]
    fn builds_all_schemes_with_table6_names() {
        for s in Scheme::PAPER {
            let built = s.build();
            assert_eq!(built.name(), s.label());
            assert_eq!(built.waiting(), 0);
        }
    }

    #[test]
    #[allow(deprecated)]
    fn custom_vmlp_builds() {
        let s = Scheme::VMlpCustom(VMlpConfig::without_healing()).build();
        assert_eq!(s.name(), "v-MLP");
    }

    #[test]
    fn custom_vmlp_display_name_says_which_ablation() {
        let s = Scheme::VMlpCustom(VMlpConfig::without_healing());
        assert_eq!(s.label(), "v-MLP*", "static label stays for compatibility");
        assert_eq!(s.display_name(), "v-MLP[healing=off]");
        assert_eq!(Scheme::VMlp.display_name(), "v-MLP");
        for s in Scheme::PAPER {
            assert_eq!(s.display_name(), s.label(), "paper schemes keep Table VI names");
        }
    }

    #[test]
    fn enum_and_spec_serializations_both_load() {
        // The enum's own serde encoding still round-trips…
        let js = serde_json::to_string(&Scheme::VMlpCustom(VMlpConfig::without_healing())).unwrap();
        let back: Scheme = serde_json::from_str(&js).unwrap();
        assert_eq!(back, Scheme::VMlpCustom(VMlpConfig::without_healing()));
        // …and the same bytes load as the equivalent registry spec.
        let spec: SchemeSpec = serde_json::from_str(&js).unwrap();
        assert_eq!(spec, SchemeSpec::parse("vmlp:healing=off").unwrap());
        let spec: SchemeSpec = serde_json::from_str("\"PartProfile\"").unwrap();
        assert_eq!(spec, Scheme::PartProfile.spec());
        // A config written while the sort-based round was still selectable
        // carries its flag; the field is ignored, the rest loads.
        let legacy = format!(
            "{},\"unindexed_reorder\":false}}}}",
            js.strip_suffix("}}").expect("{\"VMlpCustom\":{…}}")
        );
        let back: Scheme = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, Scheme::VMlpCustom(VMlpConfig::without_healing()));
        let spec: SchemeSpec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(spec, SchemeSpec::parse("vmlp:healing=off").unwrap());
    }
}
