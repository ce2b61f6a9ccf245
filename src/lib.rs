//! # btpan
//!
//! A faithful, fully-simulated reproduction of *Collecting and Analyzing
//! Failure Data of Bluetooth Personal Area Networks* (Cinque, Cotroneo,
//! Russo — DSN 2006): two heterogeneous Bluetooth PAN testbeds under a
//! 24/7 synthetic workload, the merge-and-coalesce failure-data analysis
//! pipeline, software-implemented recovery actions, error-masking
//! strategies, and the dependability improvements they buy. The
//! testbeds run a behavioural failure model (calibrated fault injection,
//! hotplug setup timing, a calibrated loss model), not a protocol-level
//! host stack.
//!
//! This facade crate re-exports [`btpan_core`]; see the workspace crates
//! for the individual subsystems:
//!
//! * `btpan-sim` — simulated time, seeded RNG, samplers and statistics;
//! * `btpan-baseband` — slot-level ACL link (CRC-16, FEC, bursty
//!   channel, ARQ) that calibrates the campaign's loss model, piconet
//!   membership and scatternet bridges;
//! * `btpan-stack` — the hotplug `T_C`/`T_H` timing behind the bind
//!   race, bind errors, and per-host stack/transport configuration;
//! * `btpan-faults` — the failure model of paper Table 1 with the
//!   calibrated injection profiles of Tables 2–3;
//! * `btpan-workload` — the Random and Realistic `BlueTest` workloads;
//! * `btpan-collect` — Test/System logs, LogAnalyzer, repository,
//!   tupling coalescence and the window-sensitivity analysis;
//! * `btpan-stream` — sharded streaming ingestion and incremental
//!   online analysis (watermark merge, online coalescence, Welford
//!   estimators, checkpoint/resume);
//! * `btpan-recovery` — the seven SIRAs, masking strategies, and the
//!   four Table 4 recovery policies;
//! * `btpan-analysis` — TTF/TTR, MTTF/MTTR/availability/coverage, the
//!   failure-distribution figures, paper reference values;
//! * `btpan-core` — machines, topologies, campaign simulation,
//!   experiments and the `btpan` CLI.
//!
//! ## Quickstart
//!
//! ```
//! use btpan::prelude::*;
//!
//! // One simulated hour of the Random-WL testbed under the SIRA policy.
//! let config = CampaignConfig::paper(42, WorkloadKind::Random, RecoveryPolicy::Siras)
//!     .duration(SimDuration::from_secs(3_600));
//! let result = Campaign::new(config).run();
//! println!(
//!     "{} cycles, {} failures, {} log items collected",
//!     result.cycles_run,
//!     result.failure_count,
//!     result.repository.total_count()
//! );
//! ```

pub use btpan_core::*;

/// The streaming ingestion + online analysis subsystem.
pub use btpan_stream as stream;

/// Everything needed for typical use.
pub mod prelude {
    pub use btpan_core::prelude::*;
    pub use btpan_sim::time::{SimDuration, SimTime};
}
