//! # btpan-analysis
//!
//! The statistical-analysis stage of the pipeline — the role SAS played
//! in the paper's lab. Consumes the repository filled by
//! `btpan-collect` and the recovery outcomes of `btpan-recovery`, and
//! produces every table and figure of the evaluation:
//!
//! * [`ttf`] — failure episodes, TTF/TTR series extraction, and the
//!   uptime/downtime partition of each node's timeline;
//! * [`dependability`] — MTTF, MTTR, availability, coverage and masking
//!   percentages with the paper's min/max/std columns (Table 4);
//! * [`distributions`] — failure shares by packet type (Fig. 3a),
//!   connection age (Fig. 3b), networked application (Fig. 3c), host
//!   (Fig. 4), workload (84 %/16 %), antenna distance, and the
//!   idle-time comparison;
//! * [`paper`] — the published reference values every `repro_*` binary
//!   prints next to its measurements;
//! * [`tables`] — ASCII rendering of paper-vs-measured tables;
//! * [`report`] — JSON export of experiment evidence;
//! * [`markov`] — an analytic CTMC availability model fitted from the
//!   measured data (the "abstract models" the paper invites);
//! * [`redundancy`] — the paper's redundant-overlapped-piconets
//!   suggestion, evaluated by timeline replay.

pub mod dependability;
pub mod distributions;
pub mod markov;
pub mod paper;
pub mod redundancy;
pub mod report;
pub mod tables;
pub mod ttf;

pub use dependability::{ConfidenceInterval, DependabilityReport, ScenarioMeasurement};
pub use distributions::{AgeHistogram, ShareTable};
pub use markov::MarkovAvailability;
pub use redundancy::{replay_with_redundancy, RedundancyConfig};
pub use tables::{format_row, render_comparison, render_table, Alignment};
pub use ttf::{FailureEpisode, NodeTimeline, TtfTtrSeries};
