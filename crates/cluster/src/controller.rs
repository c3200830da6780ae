//! cgroups-like resource controllers (Table III).
//!
//! The real system caps a container's CPU via `cgroups cpuset`, memory via
//! `memory.limit_in_bytes`, and IO via `net_cls`. In the simulation the
//! cap is the grant a span occupies ([`Machine::occupy`](crate::Machine::occupy),
//! enlarged by [`Machine::grow`](crate::Machine::grow) on a resource
//! stretch); the engine turns the satisfaction fraction of that grant into
//! an execution-time penalty through [`mlp_model::ResourceSensitivity`].
//! [`ControllerTool`] names the knob per resource kind for Table III.

use mlp_model::ResourceKind;
use serde::{Deserialize, Serialize};

/// The control knob used per resource kind (Table III's right column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControllerTool {
    /// `cgroups cpuset` — CPU core pinning/sharing.
    CgroupsCpuset,
    /// `cgroups memory.limit_in_bytes` — memory cap.
    CgroupsMemoryLimit,
    /// `cgroups net_cls` — IO/network bandwidth class.
    CgroupsNetCls,
}

impl ControllerTool {
    /// The controller used for a resource kind, per Table III.
    pub fn for_kind(kind: ResourceKind) -> ControllerTool {
        match kind {
            ResourceKind::Cpu => ControllerTool::CgroupsCpuset,
            ResourceKind::Memory => ControllerTool::CgroupsMemoryLimit,
            ResourceKind::Io => ControllerTool::CgroupsNetCls,
        }
    }

    /// Display name matching the paper's table.
    pub fn name(self) -> &'static str {
        match self {
            ControllerTool::CgroupsCpuset => "cgroups cpuset",
            ControllerTool::CgroupsMemoryLimit => "cgroups memory.limit_in_bytes",
            ControllerTool::CgroupsNetCls => "cgroups net_cls",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_mapping() {
        assert_eq!(ControllerTool::for_kind(ResourceKind::Cpu).name(), "cgroups cpuset");
        assert_eq!(
            ControllerTool::for_kind(ResourceKind::Memory).name(),
            "cgroups memory.limit_in_bytes"
        );
        assert_eq!(ControllerTool::for_kind(ResourceKind::Io).name(), "cgroups net_cls");
    }
}
