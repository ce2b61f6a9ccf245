//! Bench (`btpan-stream`): ingest throughput of the streaming pipeline
//! (routing, merge, coalescence, estimators) in records/s — the perf
//! baseline for later PRs.

use btpan_collect::entry::{LogRecord, SystemLogEntry, TestLogEntry, WorkloadTag};
use btpan_faults::{SystemFault, UserFailure};
use btpan_sim::time::{SimDuration, SimTime};
use btpan_stream::{stream_records, StreamConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const RECORDS: u64 = 20_000;

fn records() -> Vec<LogRecord> {
    (0..RECORDS)
        .map(|i| {
            let at = SimTime::from_secs(i / 2);
            let node = 1 + (i % 5);
            if i % 31 == 0 {
                LogRecord::from_test(
                    i,
                    TestLogEntry {
                        at,
                        node,
                        failure: UserFailure::PacketLoss,
                        workload: WorkloadTag::Random,
                        packet_type: Some("DM1".to_string()),
                        packets_sent_before: Some(i),
                        app: None,
                        distance_m: 5.0,
                        idle_before_s: None,
                    },
                )
            } else if i % 7 == 0 {
                LogRecord::from_system(
                    i,
                    SystemLogEntry::new(at, 0, SystemFault::L2capUnexpectedFrame),
                )
            } else {
                LogRecord::from_system(
                    i,
                    SystemLogEntry::new(at, node, SystemFault::HciCommandTimeout),
                )
            }
        })
        .collect()
}

fn config() -> StreamConfig {
    StreamConfig {
        shards: 4,
        channel_capacity: 1024,
        window: SimDuration::from_secs(330),
        watermark_lag: SimDuration::from_secs(660),
        idle_timeout_ms: None,
        nap_node: 0,
        keep_tuples: false,
        group_of: None,
    }
}

fn bench(c: &mut Criterion) {
    let input = records();
    // Divide the reported per-iteration time by RECORDS (20k) for
    // records/s.
    let mut group = c.benchmark_group("stream");
    group.sample_size(10);
    group.bench_function("core/20k_records", |b| {
        b.iter(|| {
            let outcome = stream_records(black_box(input.clone()), &config());
            black_box(outcome.snapshot.records_emitted)
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
