//! Bounded-memory acceptance: the merge retains O(shards ×
//! watermark-lag) records, not O(stream length). The stream here is
//! ~60× larger than the residency bound the watermark allows.

use btpan_collect::entry::{LogRecord, SystemLogEntry};
use btpan_faults::SystemFault;
use btpan_sim::time::{SimDuration, SimTime};
use btpan_stream::{stream_records, StreamConfig};

const TOTAL: u64 = 5_000;

fn config() -> StreamConfig {
    StreamConfig {
        shards: 2,
        channel_capacity: 64,
        window: SimDuration::from_secs(30),
        watermark_lag: SimDuration::from_secs(60),
        idle_timeout_ms: None,
        nap_node: 0,
        keep_tuples: false,
        group_of: None,
    }
}

/// One record per second, nodes rotating so every shard advances.
fn records() -> Vec<LogRecord> {
    (0..TOTAL)
        .map(|i| {
            LogRecord::from_system(
                i,
                SystemLogEntry::new(
                    SimTime::from_secs(i),
                    1 + (i % 4),
                    SystemFault::HciCommandTimeout,
                ),
            )
        })
        .collect()
}

#[test]
fn resident_records_track_the_watermark_lag_not_the_stream() {
    let outcome = stream_records(records(), &config());
    assert_eq!(outcome.snapshot.records_emitted, TOTAL);
    let peak = outcome.snapshot.peak_resident_records;
    // At 1 record/s a 60 s lag keeps ~60 records in flight (plus
    // cross-shard skew). Anything near the stream length means the
    // merge is buffering instead of emitting.
    assert!(
        peak <= 256,
        "peak residency {peak} is not bounded by the watermark lag"
    );
    assert!(peak >= 1, "merge never buffered anything?");
    assert!(
        peak <= TOTAL / 10,
        "peak residency {peak} is within 10x of the stream length"
    );
    assert_eq!(outcome.snapshot.resident_records, 0, "finalize must drain");
}
