//! IP sockets over the BNEP interface — where the bind race manifests.
//!
//! "A *bind failed* failure occurs whenever the application attempts to
//! bind a socket on the supposed existing BNEP interface before `T_C`
//! and `T_H`. In particular, if the bind request is issued before `T_C`,
//! a HCI command failure (command for invalid handle) occurs, because
//! the L2CAP connection is not present. If the request is instead issued
//! after `T_C` but before `T_H`, a failure occurs, either because the
//! interface is not present or it does not have been configured yet."
//!
//! The masking strategy checks the L2CAP handle validity (covers `T_C`)
//! and has the hotplug daemon notify interface readiness (covers `T_H`):
//! a bind issued at [`SetupTiming::iface_up_at`] never fails.
//!
//! [`SetupTiming::iface_up_at`]: crate::hotplug::SetupTiming::iface_up_at

use std::fmt;

/// Why a bind failed (maps onto the Table 2 bind causes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindError {
    /// Bound before `T_C`: the L2CAP handle does not exist yet, the
    /// stack reports an HCI invalid-handle error.
    HciInvalidHandle,
    /// Bound after `T_C` but before the interface was created: the BNEP
    /// module cannot be located.
    InterfaceMissing,
    /// Bound after creation but before hotplug configured it.
    InterfaceNotConfigured,
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::HciInvalidHandle => write!(f, "bind: HCI command for invalid handle"),
            BindError::InterfaceMissing => write!(f, "bind: can't locate bnep0"),
            BindError::InterfaceNotConfigured => {
                write!(f, "bind: interface not configured by hotplug")
            }
        }
    }
}

impl std::error::Error for BindError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(BindError::HciInvalidHandle
            .to_string()
            .contains("invalid handle"));
        assert!(BindError::InterfaceMissing.to_string().contains("bnep0"));
        assert!(BindError::InterfaceNotConfigured
            .to_string()
            .contains("hotplug"));
    }
}
