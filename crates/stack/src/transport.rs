//! Host ↔ controller transports: USB and BCSP.
//!
//! The communication between a BT host and its controller runs over a
//! serial channel. Commodity PCs in the testbed use **USB**; the PDAs
//! use the **BlueCore Serial Protocol (BCSP)**, which multiplexes
//! parallel flows over a single UART link and adds sequence numbers,
//! error checking and retransmission. The paper traces 49.7 % of
//! switch-role command failures to BCSP out-of-order/missing packets;
//! the campaign draws those failures from the fault injector for hosts
//! whose `HostQuirks::uses_bcsp` is set.

/// Which transport a host uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TransportKind {
    /// Universal Serial Bus (commodity PCs).
    Usb,
    /// BlueCore Serial Protocol over UART (PDAs).
    Bcsp,
}
