//! Acceptance for the `btpan-obs` registry: during a campaign the
//! `btpan_recovery_*` counter families carry a live, exact copy of the
//! paper's Table 3 bookkeeping, and counters stay exact when hammered
//! from the seed pool's worker threads.
//!
//! These tests assert *exact* global-registry values, so they live in
//! their own integration-test binary (own OS process) and serialize on
//! [`btpan_obs::testing::exclusive`].

use btpan::prelude::*;
use btpan::run_seeds;
use btpan_faults::Sira;
use btpan_obs::testing;
use std::collections::BTreeMap;

/// One campaign's `result.recoveries` (the batch Table 3 input) must
/// match the live `btpan_recovery_recovered_total{failure=…,sira=…}`
/// counter family cell for cell.
#[test]
fn campaign_recovery_counters_are_a_live_table3() {
    let guard = testing::exclusive();
    let result = Campaign::new(
        CampaignConfig::paper(29, WorkloadKind::Random, RecoveryPolicy::Siras)
            .duration(SimDuration::from_secs(12 * 3600)),
    )
    .run();
    let snap = guard.registry().snapshot();

    // Batch ground truth, aggregated exactly as `experiment::table3`
    // does: severity s means SIRA s succeeded, `None` is unrecoverable.
    let mut recovered: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    let mut unrecoverable: BTreeMap<&str, u64> = BTreeMap::new();
    for (failure, severity) in &result.recoveries {
        match severity {
            Some(s) => {
                let sira = Sira::ALL[*s as usize - 1].label();
                *recovered.entry((failure.label(), sira)).or_insert(0) += 1;
            }
            None => *unrecoverable.entry(failure.label()).or_insert(0) += 1,
        }
    }
    assert!(!recovered.is_empty(), "campaign recovered nothing");

    for (&(failure, sira), &count) in &recovered {
        let key =
            format!("btpan_recovery_recovered_total{{failure=\"{failure}\",sira=\"{sira}\"}}");
        assert_eq!(snap.counter(&key), Some(count), "{key}");
    }
    for (&failure, &count) in &unrecoverable {
        let key = format!("btpan_recovery_unrecoverable_total{{failure=\"{failure}\"}}");
        assert_eq!(snap.counter(&key), Some(count), "{key}");
    }
    // No counts from nowhere: the family totals equal the batch totals,
    // and one outcome was recorded per recovery.
    assert_eq!(
        snap.counter_family_sum("btpan_recovery_recovered_total"),
        recovered.values().sum::<u64>()
    );
    assert_eq!(
        snap.counter("btpan_recovery_outcomes_total"),
        Some(result.recoveries.len() as u64)
    );
}

/// Loom-free concurrency stress: the seed pool's worker threads bump
/// the shared campaign counters concurrently; every increment must land
/// (relaxed atomics are still atomic), and the pool's own
/// instrumentation must account for every seed.
#[test]
fn supervisor_worker_counters_sum_exactly() {
    const SEEDS: u64 = 6;
    let guard = testing::exclusive();
    let seeds: Vec<u64> = (1..=SEEDS).collect();
    let results = run_seeds(&seeds, |seed| {
        CampaignConfig::paper(seed, WorkloadKind::Random, RecoveryPolicy::Siras)
            .duration(SimDuration::from_secs(600))
    });
    assert_eq!(results.len(), seeds.len());

    let snap = guard.registry().snapshot();
    let cycles: u64 = results.iter().map(|r| r.cycles_run).sum();
    assert!(cycles > 0);
    assert_eq!(snap.counter("btpan_campaign_cycles_total"), Some(cycles));
    // One attempt per seed, every seed timed, and nobody left marked
    // busy.
    assert_eq!(snap.counter("btpan_supervisor_attempts_total"), Some(SEEDS));
    assert_eq!(snap.gauge("btpan_supervisor_workers_busy"), Some(0));
    let timings = snap
        .histogram("btpan_supervisor_seed_duration_us")
        .expect("seed durations observed");
    assert_eq!(timings.count, SEEDS);
}
