//! Portable failure-trace export/import (JSON Lines).
//!
//! The paper published its unclassified failure reports on the project
//! web site; this module is the equivalent data-publication path: a
//! campaign's repository serializes to a line-per-record JSONL trace
//! that external tooling (or a later `btpan` session) can re-import and
//! re-analyze without re-simulating.
//!
//! Import comes in two strictness levels:
//!
//! * [`import_trace`] — all-or-nothing, for traces that are supposed to
//!   be pristine. It distinguishes a line that is *truncated* (the file
//!   was cut mid-write — [`TraceError::TruncatedLine`]) from one that is
//!   *malformed* (garbled content — [`TraceError::Malformed`]), because
//!   the remedies differ: a truncated tail means re-shipping the end of
//!   the log; a garbled middle means the transport corrupted data.
//! * [`import_trace_lenient`] — skip-and-count, for traces that crossed
//!   an unreliable collection pipeline (see [`crate::chaos`]). Bad
//!   lines are quarantined with their line number and reason in a
//!   [`QuarantineReport`] and the survivors are re-sorted into
//!   canonical `(timestamp, seq)` order, so out-of-order delivery and
//!   a bounded amount of corruption degrade coverage instead of
//!   aborting analysis.

use crate::entry::LogRecord;
use crate::repository::Repository;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from strict trace parsing.
#[derive(Debug)]
pub enum TraceError {
    /// A line failed to parse as a record.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The underlying serde error.
        source: serde_json::Error,
    },
    /// A line ended mid-value: the trace was cut off while being
    /// written or shipped (distinct from garbled content).
    TruncatedLine {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Malformed { line, source } => {
                write!(f, "malformed trace line {line}: {source}")
            }
            TraceError::TruncatedLine { line } => {
                write!(f, "truncated trace line {line}: record cut off mid-write")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Malformed { source, .. } => Some(source),
            TraceError::TruncatedLine { .. } => None,
        }
    }
}

/// Serializes every record of a repository (both levels, time-sorted)
/// into a JSONL string.
///
/// Sequence numbers are part of each line, so a re-import through
/// [`Repository::store_record`] and a second export reproduce this
/// output byte for byte — including records of system-only nodes such
/// as the NAP, which carry their original repository sequence numbers
/// rather than synthetic ones.
pub fn export_trace(repo: &Repository) -> String {
    let mut out = String::new();
    export_trace_into(repo, &mut out);
    out
}

/// Buffer-reusing variant of [`export_trace`]: clears `out` and writes
/// the trace into it, so periodic exporters (checkpointing, streaming
/// relays) keep one buffer alive instead of reallocating per export.
/// Each record is written straight into the buffer, with no per-line
/// `String`.
pub fn export_trace_into(repo: &Repository, out: &mut String) {
    let mut buf = std::mem::take(out).into_bytes();
    buf.clear();
    for r in repo.records() {
        serde_json::to_writer(&mut buf, &r).expect("records serialize");
        buf.push(b'\n');
    }
    *out = String::from_utf8(buf).expect("JSON output is UTF-8");
}

/// Parses a JSONL trace back into records, all-or-nothing.
///
/// # Errors
///
/// [`TraceError::TruncatedLine`] if a line ends mid-record, otherwise
/// [`TraceError::Malformed`]; both name the first bad line.
pub fn import_trace(trace: &str) -> Result<Vec<LogRecord>, TraceError> {
    let mut records = Vec::with_capacity(count_lines(trace));
    for (i, line) in trace.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: LogRecord = serde_json::from_str(line).map_err(|source| {
            if source.is_eof() {
                TraceError::TruncatedLine { line: i + 1 }
            } else {
                TraceError::Malformed {
                    line: i + 1,
                    source,
                }
            }
        })?;
        records.push(record);
    }
    Ok(records)
}

/// What a lenient import refused to take.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineReport {
    /// Non-blank lines inspected.
    pub total_lines: usize,
    /// Lines successfully imported.
    pub imported: usize,
    /// `(1-based line, reason)` for every rejected line.
    pub quarantined: Vec<(usize, String)>,
}

impl QuarantineReport {
    /// True when nothing was rejected.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Fraction of inspected lines that imported (1.0 for an empty
    /// trace).
    pub fn yield_fraction(&self) -> f64 {
        if self.total_lines == 0 {
            return 1.0;
        }
        self.imported as f64 / self.total_lines as f64
    }
}

impl fmt::Display for QuarantineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} lines imported, {} quarantined",
            self.imported,
            self.total_lines,
            self.quarantined.len()
        )
    }
}

/// Parses a JSONL trace, skipping and counting undecodable lines
/// instead of failing, and re-sorting the survivors into canonical
/// `(timestamp, seq)` order.
pub fn import_trace_lenient(trace: &str) -> (Vec<LogRecord>, QuarantineReport) {
    let mut records = Vec::with_capacity(count_lines(trace));
    let mut report = QuarantineReport::default();
    for (i, line) in trace.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        report.total_lines += 1;
        match serde_json::from_str::<LogRecord>(line) {
            Ok(record) => {
                report.imported += 1;
                records.push(record);
            }
            Err(e) => {
                let reason = if e.is_eof() {
                    "truncated record".to_string()
                } else {
                    format!("malformed record: {e}")
                };
                report.quarantined.push((i + 1, reason));
            }
        }
    }
    records.sort();
    (records, report)
}

/// Upper bound on the record count of a trace (one record per line),
/// used to pre-size import vectors and avoid growth reallocations on
/// multi-hundred-thousand-line traces.
fn count_lines(trace: &str) -> usize {
    let newlines = trace.bytes().filter(|&b| b == b'\n').count();
    // A final unterminated line still holds a record.
    if trace.ends_with('\n') || trace.is_empty() {
        newlines
    } else {
        newlines + 1
    }
}

/// Rebuilds a repository from imported records.
///
/// Uses the seq-preserving [`Repository::store_record`] path, so
/// duplicated records collapse to one copy and a re-export reproduces
/// the original trace.
pub fn repository_from_records(records: &[LogRecord]) -> Repository {
    let repo = Repository::new();
    for r in records {
        repo.store_record(r.clone());
    }
    repo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{SystemLogEntry, TestLogEntry, WorkloadTag};
    use btpan_faults::{SystemFault, UserFailure};
    use btpan_sim::time::SimTime;

    fn sample_repo() -> Repository {
        let repo = Repository::new();
        repo.store_test(TestLogEntry {
            at: SimTime::from_secs(10),
            node: 1,
            failure: UserFailure::PacketLoss,
            workload: WorkloadTag::Random,
            packet_type: Some("DM1".into()),
            packets_sent_before: Some(42),
            app: None,
            distance_m: 5.0,
            idle_before_s: Some(12.5),
        });
        repo.store_system(SystemLogEntry::new(
            SimTime::from_secs(8),
            1,
            SystemFault::HciCommandTimeout,
        ));
        // NAP entry: node 0 has no test reports.
        repo.store_system(SystemLogEntry::new(
            SimTime::from_secs(9),
            0,
            SystemFault::L2capUnexpectedFrame,
        ));
        repo
    }

    #[test]
    fn export_import_round_trip() {
        let repo = sample_repo();
        let trace = export_trace(&repo);
        assert_eq!(trace.lines().count(), 3);
        let records = import_trace(&trace).expect("valid trace");
        assert_eq!(records.len(), 3);
        let rebuilt = repository_from_records(&records);
        assert_eq!(rebuilt.test_count(), repo.test_count());
        assert_eq!(rebuilt.system_count(), repo.system_count());
        assert_eq!(rebuilt.tests(), repo.tests());
    }

    #[test]
    fn reexport_is_byte_identical() {
        // The system-only NAP node used to be re-exported with a
        // synthetic seq, so export→import→export drifted. It must not.
        let repo = sample_repo();
        let trace = export_trace(&repo);
        let rebuilt = repository_from_records(&import_trace(&trace).unwrap());
        assert_eq!(export_trace(&rebuilt), trace);
    }

    #[test]
    fn export_trace_into_reuses_and_clears_buffer() {
        let repo = sample_repo();
        let mut buf = String::from("stale content from a previous export");
        export_trace_into(&repo, &mut buf);
        assert_eq!(buf, export_trace(&repo));
        let cap = buf.capacity();
        export_trace_into(&repo, &mut buf);
        assert_eq!(buf.capacity(), cap, "re-export must not reallocate");
    }

    #[test]
    fn trace_is_time_sorted() {
        let trace = export_trace(&sample_repo());
        let records = import_trace(&trace).unwrap();
        for w in records.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn malformed_line_reports_position() {
        let repo = sample_repo();
        let mut trace = export_trace(&repo);
        trace.push_str("{not json\n");
        let err = import_trace(&trace).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 4"), "{msg}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn truncated_line_distinguished_from_malformed() {
        let repo = sample_repo();
        let full = export_trace(&repo);
        let one_line = full.lines().next().unwrap();
        let cut = &one_line[..one_line.len() / 2];
        match import_trace(cut).unwrap_err() {
            TraceError::TruncatedLine { line } => assert_eq!(line, 1),
            other => panic!("expected TruncatedLine, got {other}"),
        }
        match import_trace("{\"at\": ???}").unwrap_err() {
            TraceError::Malformed { line, .. } => assert_eq!(line, 1),
            other => panic!("expected Malformed, got {other}"),
        }
    }

    #[test]
    fn blank_lines_skipped() {
        let repo = sample_repo();
        let trace = format!("\n{}\n\n", export_trace(&repo));
        assert_eq!(import_trace(&trace).unwrap().len(), 3);
    }

    #[test]
    fn lenient_import_quarantines_and_sorts() {
        let repo = sample_repo();
        let trace = export_trace(&repo);
        let mut lines: Vec<&str> = trace.lines().collect();
        lines.reverse(); // out-of-order delivery
        let mut shuffled = lines.join("\n");
        shuffled.push_str("\ngarbage line\n");
        let (records, report) = import_trace_lenient(&shuffled);
        assert_eq!(records.len(), 3);
        assert_eq!(report.total_lines, 4);
        assert_eq!(report.imported, 3);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].0, 4);
        assert!((report.yield_fraction() - 0.75).abs() < 1e-12);
        for w in records.windows(2) {
            assert!((w[0].at, w[0].seq) < (w[1].at, w[1].seq));
        }
        assert!(!report.is_clean());
        assert_eq!(report.to_string(), "3/4 lines imported, 1 quarantined");
    }
}
