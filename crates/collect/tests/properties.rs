//! Property-based tests over merge, coalescence and the shipment
//! pipeline (duplicate idempotency, out-of-order repair).

use btpan_collect::coalesce::coalesce;
use btpan_collect::entry::{LogRecord, SystemLogEntry, TestLogEntry, WorkloadTag};
use btpan_collect::merge::merge_records;
use btpan_collect::trace::{
    export_trace, import_trace, import_trace_lenient, repository_from_records,
};
use btpan_collect::Repository;
use btpan_faults::{SystemFault, UserFailure};
use btpan_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn records_from(times: &[u64]) -> Vec<LogRecord> {
    let mut sorted: Vec<u64> = times.to_vec();
    sorted.sort_unstable();
    sorted
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            LogRecord::from_system(
                i as u64,
                SystemLogEntry::new(SimTime::from_secs(t), 1, SystemFault::HciCommandTimeout),
            )
        })
        .collect()
}

/// A string of arbitrary code points. The top two bits of each draw
/// pick the range (ASCII with its control bytes, two-byte, BMP, any
/// plane) so that escapes and every UTF-8 width turn up often;
/// surrogates, which are not chars, become U+FFFD.
fn string_from(draws: &[u32]) -> String {
    const RANGES: [u32; 4] = [0x80, 0x800, 0x1_0000, 0x11_0000];
    draws
        .iter()
        .map(|&d| {
            char::from_u32((d & 0x3fff_ffff) % RANGES[(d >> 30) as usize]).unwrap_or('\u{fffd}')
        })
        .collect()
}

proptest! {
    #[test]
    fn coalesce_partitions_input(times in prop::collection::vec(0u64..100_000, 0..300), w in 0u64..5_000) {
        let records = records_from(&times);
        let tuples = coalesce(&records, SimDuration::from_secs(w));
        let total: usize = tuples.iter().map(|t| t.len()).sum();
        prop_assert_eq!(total, records.len());
        // Tuples are in time order and non-overlapping beyond the window.
        for pair in tuples.windows(2) {
            let last = pair[0].records.last().unwrap().at;
            let first = pair[1].records.first().unwrap().at;
            prop_assert!(first.saturating_since(last) > SimDuration::from_secs(w));
        }
    }

    #[test]
    fn coalesce_monotone(times in prop::collection::vec(0u64..100_000, 0..300), w1 in 0u64..5_000, w2 in 0u64..5_000) {
        let (lo, hi) = (w1.min(w2), w1.max(w2));
        let records = records_from(&times);
        let a = coalesce(&records, SimDuration::from_secs(lo)).len();
        let b = coalesce(&records, SimDuration::from_secs(hi)).len();
        prop_assert!(b <= a);
    }

    #[test]
    fn intra_tuple_gaps_bounded(times in prop::collection::vec(0u64..50_000, 0..200), w in 1u64..2_000) {
        let records = records_from(&times);
        for tuple in coalesce(&records, SimDuration::from_secs(w)) {
            for pair in tuple.records.windows(2) {
                prop_assert!(pair[1].at.saturating_since(pair[0].at) <= SimDuration::from_secs(w));
            }
        }
    }

    #[test]
    fn merge_sorted_and_complete(a in prop::collection::vec(0u64..10_000, 0..100),
                                 b in prop::collection::vec(0u64..10_000, 0..100)) {
        let ra = records_from(&a);
        let rb = records_from(&b);
        let merged = merge_records([ra.clone(), rb.clone()]);
        prop_assert_eq!(merged.len(), ra.len() + rb.len());
        for w in merged.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
    }

    /// Shipping every record 1 + k times leaves the repository exactly
    /// as if each had arrived once: re-delivery is idempotent.
    #[test]
    fn duplicate_shipment_is_idempotent(times in prop::collection::vec(0u64..10_000, 1..120),
                                        extra in 1usize..4) {
        let records = records_from(&times);
        let once = repository_from_records(&records);
        let noisy = Repository::new();
        for r in &records {
            for _ in 0..=extra {
                noisy.store_record(r.clone());
            }
        }
        prop_assert_eq!(noisy.total_count(), records.len());
        prop_assert_eq!(export_trace(&noisy), export_trace(&once));
    }

    /// Lenient import of an arbitrarily permuted trace restores the
    /// canonical `(timestamp, seq)` order with nothing lost.
    #[test]
    fn out_of_order_delivery_is_resorted(times in prop::collection::vec(0u64..10_000, 1..120),
                                         perm_seed in 0u64..1_000) {
        let records = records_from(&times);
        let trace = export_trace(&repository_from_records(&records));
        let mut lines: Vec<&str> = trace.lines().collect();
        // Deterministic permutation from perm_seed (Fisher–Yates with a
        // multiplicative hash — no RNG dependency in this test crate).
        let mut state = perm_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for i in (1..lines.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            lines.swap(i, j);
        }
        let shuffled = lines.join("\n");
        let (imported, report) = import_trace_lenient(&shuffled);
        prop_assert!(report.is_clean());
        prop_assert_eq!(imported.len(), records.len());
        for w in imported.windows(2) {
            prop_assert!((w[0].at, w[0].seq) < (w[1].at, w[1].seq));
        }
        prop_assert_eq!(export_trace(&repository_from_records(&imported)), trace);
    }

    /// Free-text fields of any content survive the trace codec:
    /// `import(export(r)) == r`, and `export → import → export` is byte
    /// for byte the first export.
    #[test]
    fn free_text_round_trips_through_the_trace(message in prop::collection::vec(any::<u32>(), 0..48),
                                               app in prop::collection::vec(any::<u32>(), 0..24),
                                               packet_type in prop::collection::vec(any::<u32>(), 0..8),
                                               t in 0u64..10_000,
                                               distance_m in 0.0f64..1e6) {
        let test = TestLogEntry {
            at: SimTime::from_secs(t),
            node: 2,
            failure: UserFailure::PacketLoss,
            workload: WorkloadTag::Realistic,
            packet_type: Some(string_from(&packet_type)),
            packets_sent_before: Some(t),
            app: Some(string_from(&app)),
            distance_m,
            idle_before_s: None,
        };
        let system = SystemLogEntry {
            message: string_from(&message),
            ..SystemLogEntry::new(SimTime::from_secs(t + 1), 2, SystemFault::HciCommandTimeout)
        };
        let records = vec![LogRecord::from_test(0, test), LogRecord::from_system(1, system)];
        let trace = export_trace(&repository_from_records(&records));
        let imported = import_trace(&trace).expect("an exported trace imports");
        prop_assert_eq!(&imported, &records);
        prop_assert_eq!(export_trace(&repository_from_records(&imported)), trace);
    }
}
