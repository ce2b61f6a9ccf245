//! # btpan-collect
//!
//! The failure-data collection infrastructure and the paper's novel
//! "merge and coalesce" analysis scheme (Fig. 2).
//!
//! Each BT node produces two files: the **Test Log** (user-level failure
//! reports with node status) and the **System Log** (error entries from
//! BT stack modules and OS daemons). A [`analyzer::LogAnalyzer`] daemon
//! periodically extracts both, filters them, and ships them to a central
//! [`repository::Repository`].
//!
//! The analysis pipeline then:
//!
//! 1. [`merge`]s each node's Test and System logs (and the NAP's System
//!    log) on a time basis;
//! 2. [`coalesce()`](coalesce::coalesce)s the merged stream with the tupling scheme of Buckley
//!    & Siewiorek — events clustered in time join one tuple, governed by
//!    the *coalescence window*;
//! 3. tunes the window with a [`sensitivity`] sweep: too small truncates
//!    (events of one error split across tuples), too large collapses
//!    (independent errors merge); the knee of the tuples-vs-window curve
//!    — 330 s in the paper — is the operating point;
//! 4. [`relate`]s user failures to the system errors sharing their
//!    tuples, producing the error–failure relationship matrix (Table 2)
//!    including NAP→PANU propagation evidence.
//!
//! Because the daemons ship over the same unreliable PAN they measure,
//! the pipeline itself is a fault domain: [`trace`] provides the JSONL
//! export/import path with both strict and lenient (skip-and-count)
//! importers, and [`chaos`] deterministically injects transport faults
//! (truncated/garbled lines, duplicated shipments, out-of-order
//! delivery, clock skew) to exercise those defenses.

pub mod analyzer;
pub mod chaos;
pub mod coalesce;
pub mod entry;
pub mod logs;
pub mod merge;
pub mod relate;
pub mod repository;
pub mod sensitivity;
pub mod trace;

pub use analyzer::LogAnalyzer;
pub use chaos::{inject, ship_through_chaos, ChaosConfig, ChaosStats};
pub use coalesce::{coalesce, coalesce_fixed_window, truncation_rate, OnlineCoalescer, Tuple};
pub use entry::{LogRecord, RecordPayload, SystemLogEntry, TestLogEntry};
pub use logs::{SystemLog, TestLog};
pub use merge::merge_records;
pub use relate::{RelationshipMatrix, RelationshipObservation};
pub use repository::Repository;
pub use sensitivity::{detect_knee, SensitivityCurve};
pub use trace::{
    export_trace, import_trace, import_trace_lenient, repository_from_records, QuarantineReport,
    TraceError,
};
