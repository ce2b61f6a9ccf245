//! End-to-end dependability of the collection pipeline: a campaign's
//! trace shipped over a corrupting channel is rejected by the strict
//! importer and quarantined line by line by the lenient one, which keeps
//! the rest analyzable.

use btpan_collect::chaos::{inject, ChaosConfig};
use btpan_collect::trace::{export_trace, import_trace, import_trace_lenient};
use btpan_core::prelude::*;
use btpan_recovery::RecoveryPolicy;

#[test]
fn corrupted_trace_is_quarantined_line_by_line() {
    let result = Campaign::new(
        CampaignConfig::paper(101, WorkloadKind::Random, RecoveryPolicy::Siras)
            .duration(SimDuration::from_secs(8 * 3600)),
    )
    .run();

    // Pipeline chaos on the trace: 5 % of lines garbled. The strict
    // importer aborts; the lenient importer quarantines exactly the
    // damaged lines and keeps the rest analyzable.
    let trace = export_trace(&result.repository);
    assert!(
        trace.lines().count() >= 200,
        "campaign too quiet to corrupt meaningfully: {} lines",
        trace.lines().count()
    );
    let chaos = ChaosConfig {
        corrupt_line_rate: 0.05,
        seed: 13,
        ..ChaosConfig::default()
    };
    let (noisy, stats) = inject(&trace, &chaos);
    assert!(
        stats.corrupted > 0,
        "5 % of {} lines hit nothing",
        stats.lines_in
    );
    assert!(import_trace(&noisy).is_err());
    let (records, report) = import_trace_lenient(&noisy);
    assert!(!report.is_clean());
    assert_eq!(report.quarantined.len(), stats.corrupted);
    assert_eq!(records.len(), stats.lines_in - stats.corrupted);
    assert!(report.yield_fraction() > 0.8);
}
