//! # btpan-stack
//!
//! The parts of the Bluetooth host stack the campaign's behavioural
//! failure model needs. The campaign does not execute a protocol-level
//! stack; it samples setup timing and injected faults per phase. This
//! crate holds the pieces of that model that are about the host:
//!
//! * [`hotplug`] — the OS hotplug/HAL daemon that configures the BNEP
//!   interface *asynchronously* — the source of the bind race: the PAN
//!   connect API returns before the interval `T_C` (L2CAP connection
//!   creation) plus `T_H` (BNEP + hotplug configuration) has elapsed;
//! * [`socket`] — the [`BindError`] a bind issued before `T_C`/`T_H`
//!   fails with (HCI invalid-handle before `T_C`; missing/unconfigured
//!   interface between `T_C` and `T_H`);
//! * [`host`] — the static per-machine configuration (stack variant,
//!   transport, quirks, antenna distance);
//! * [`transport`] — the host↔controller transport kind (USB or BCSP).
//!
//! ```
//! use btpan_sim::prelude::*;
//! use btpan_stack::hotplug::HotplugDaemon;
//!
//! let daemon = HotplugDaemon::hal_bug();
//! let mut rng = SimRng::seed_from(7);
//! let timing = daemon.sample(SimTime::ZERO, &mut rng);
//! // Binding once hotplug reports the interface up never fails.
//! assert!(timing.iface_up_at >= timing.l2cap_usable_at);
//! ```

pub mod host;
pub mod hotplug;
pub mod socket;
pub mod transport;

pub use host::{HostConfig, StackVariant};
pub use hotplug::{HotplugDaemon, SetupTiming};
pub use socket::BindError;
pub use transport::TransportKind;
