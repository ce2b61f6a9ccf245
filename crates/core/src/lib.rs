//! # btpan-core
//!
//! The top of the workspace: the simulated twin of the paper's two
//! Bluetooth-PAN testbeds and the experiment campaigns that reproduce
//! every table and figure.
//!
//! * [`machine`] — the seven machines of paper Table 1 (`Giallo` the
//!   NAP, `Verde`, `Miseno`, `Azzurro`, `Win`, the iPAQ H3870 and the
//!   Zaurus SL-5600) with their stacks, transports, quirks and antenna
//!   distances;
//! * [`topology`] — data-driven testbeds: serde-loadable
//!   [`topology::Topology`] specs describing N piconets (each 1 NAP +
//!   PANUs with per-machine profiles and per-link overrides) plus
//!   scatternet bridge nodes, with paper presets and validation;
//! * [`campaign`] — the 24/7 campaign simulator: runs `BlueTest`
//!   connection plans on every PANU, consults the baseband/latent/stress
//!   models and the fault injector, writes Test/System logs, ships them
//!   through LogAnalyzers into a [`btpan_collect::Repository`], applies
//!   the active recovery policy (and masking), and keeps per-node
//!   failure timelines for TTF/TTR analysis;
//! * [`experiment`] — one entry point per paper artifact (Table 2–4,
//!   Fig. 2–4, section-6 findings), each returning both the measured
//!   values and the paper references;
//! * [`runner`] — the multi-seed parallel campaign runner;
//! * [`cli`] — the `btpan` command-line tool (campaign / analyze /
//!   table4 / markov).

pub mod campaign;
pub mod cli;
pub mod error;
pub mod experiment;
pub mod machine;
pub mod runner;
pub mod topology;

pub use campaign::{Campaign, CampaignConfig, CampaignConfigBuilder, CampaignResult};
pub use error::Error;
pub use machine::{node_name, paper_machines, MachineRole};
pub use runner::run_seeds;
pub use topology::{BridgeSpec, LinkSpec, MachineSpec, PiconetSpec, Topology};

/// Convenient re-exports of the whole stack for downstream users.
pub mod prelude {
    pub use crate::campaign::{Campaign, CampaignConfig, CampaignResult};
    pub use crate::machine::paper_machines;
    pub use crate::topology::Topology;
    pub use btpan_analysis as analysis;
    pub use btpan_baseband as baseband;
    pub use btpan_collect as collect;
    pub use btpan_faults as faults;
    pub use btpan_recovery as recovery;
    pub use btpan_recovery::RecoveryPolicy;
    pub use btpan_sim as sim;
    pub use btpan_sim::prelude::*;
    pub use btpan_stack as stack;
    pub use btpan_workload as workload;
    pub use btpan_workload::WorkloadKind;
}
