//! Static host configuration: stack variant, transport and quirks.
//!
//! Mirrors the testbed machines of the paper's Table 1: Linux PCs on
//! BlueZ 2.10 over USB, the Windows XP machine on the Broadcom stack
//! (the native XP stack exposes no PAN API), and the PDAs on BlueZ over
//! BCSP. The campaign reads the quirks; the stack and transport fields
//! describe the machine in topology files and reports.

use crate::transport::TransportKind;
use btpan_faults::HostQuirks;

/// Which protocol stack implementation the host runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum StackVariant {
    /// The official Linux Bluetooth stack (BlueZ 2.10 in the testbed).
    BlueZ,
    /// The commercial Broadcom stack for Windows.
    Broadcom,
}

/// Static configuration of one host.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Host name (`Giallo`, `Verde`, ...).
    pub name: String,
    /// Stable node identifier within the testbed.
    pub node_id: u64,
    /// Stack implementation.
    pub stack: StackVariant,
    /// Host ↔ controller transport.
    pub transport: TransportKind,
    /// Failure-modulating quirks.
    pub quirks: HostQuirks,
    /// Antenna distance from the NAP in metres.
    pub distance_m: f64,
}
