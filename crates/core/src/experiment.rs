//! One entry point per paper artifact.
//!
//! Every function runs the campaigns it needs (both testbeds where the
//! paper pooled them), feeds the logs through the collection/analysis
//! pipeline, and returns measured structures that the `repro_*` binaries
//! print next to the paper references.

use crate::campaign::{Campaign, CampaignConfig, CampaignResult};
use crate::machine::NAP_NODE_ID;
use crate::runner::run_seeds;
use crate::topology::Topology;
use btpan_analysis::dependability::{DependabilityReport, ScenarioMeasurement};
use btpan_analysis::distributions::{self, AgeHistogram, ShareTable};
use btpan_analysis::ttf::TtfTtrSeries;
use btpan_collect::relate::RelationshipMatrix;
use btpan_collect::sensitivity::SensitivityCurve;
use btpan_faults::UserFailure;
use btpan_recovery::RecoveryPolicy;
use btpan_sim::time::SimDuration;
use btpan_workload::WorkloadKind;
use std::collections::BTreeMap;

/// Shared experiment scale: seeds and per-campaign simulated duration.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Campaign seeds (averaged over).
    pub seeds: Vec<u64>,
    /// Simulated duration per campaign.
    pub duration: SimDuration,
}

impl Scale {
    /// A quick scale for tests and examples (one seed, 6 simulated
    /// hours).
    pub fn quick() -> Self {
        Scale {
            seeds: vec![42],
            duration: SimDuration::from_secs(6 * 3600),
        }
    }

    /// The full experiment scale used by the repro binaries: 4 seeds ×
    /// 4 simulated days per testbed.
    pub fn full() -> Self {
        Scale {
            seeds: vec![11, 22, 33, 44],
            duration: SimDuration::from_secs(4 * 24 * 3600),
        }
    }
}

/// The display name of a testbed node (delegates to the machine table,
/// the single source of truth for node-id → host-name).
pub fn node_name(node: u64) -> String {
    crate::machine::node_name(node)
}

/// One campaign per seed over the paper's real deployment: **both**
/// testbeds (Random + Realistic WL) running concurrently in a single
/// [`Topology::paper_both`] campaign.
fn run_both_workloads(scale: &Scale, policy: RecoveryPolicy) -> Vec<CampaignResult> {
    let duration = scale.duration;
    run_seeds(&scale.seeds, move |seed| {
        CampaignConfig::paper_both(seed, policy).duration(duration)
    })
}

/// The error–failure [`RelationshipMatrix`] of one campaign under its
/// topology: every reporting node's merged logs, coalesced with the
/// System Logs of **all** masters that can propagate to it (its home
/// NAP plus, for bridges, every bridged piconet's master).
pub fn relationship_matrix(
    result: &CampaignResult,
    topology: &Topology,
    window: SimDuration,
) -> RelationshipMatrix {
    let master_systems: Vec<(u64, Vec<btpan_collect::entry::LogRecord>)> = result
        .piconets
        .iter()
        .map(|p| (p.master, result.repository.system_records_of(p.master)))
        .collect();
    let node_streams: Vec<(u64, Vec<u64>, Vec<btpan_collect::entry::LogRecord>)> = result
        .repository
        .reporting_nodes()
        .into_iter()
        .map(|n| (n, topology.masters_of(n), result.repository.records_of(n)))
        .collect();
    RelationshipMatrix::from_node_logs_multi(&node_streams, &master_systems, window)
}

/// **Table 2** — error–failure relationship via merge-and-coalesce at
/// the given window (the paper's 330 s by default).
pub fn table2(scale: &Scale, window: SimDuration) -> RelationshipMatrix {
    let topo = Topology::paper_both();
    let mut matrix = RelationshipMatrix::new();
    for result in run_both_workloads(scale, RecoveryPolicy::Siras) {
        matrix.absorb(&relationship_matrix(&result, &topo, window));
    }
    matrix
}

/// **Figure 2** — the tuples-vs-window sensitivity curve (summed over
/// nodes and testbeds) and its knee.
pub fn fig2(scale: &Scale) -> SensitivityCurve {
    let mut windows: Vec<f64> = Vec::new();
    let mut tuples: Vec<usize> = Vec::new();
    let mut records_total = 0usize;
    for result in run_both_workloads(scale, RecoveryPolicy::Siras) {
        for node in result.repository.reporting_nodes() {
            // Fig. 2 tunes the window on each node's merged Test +
            // System log (the NAP merge enters later, in Table 2).
            let mut records = result.repository.records_of(node);
            records.sort();
            if records.len() < 3 {
                continue;
            }
            let curve = SensitivityCurve::sweep(&records, 1.0, 20_000.0, 48);
            if windows.is_empty() {
                windows = curve.windows_s.clone();
                tuples = vec![0; windows.len()];
            }
            for (i, t) in curve.tuples.iter().enumerate() {
                tuples[i] += t;
            }
            records_total += curve.record_count;
        }
    }
    SensitivityCurve {
        windows_s: windows,
        tuples,
        record_count: records_total,
    }
}

/// **Table 3** — measured SIRA-effectiveness: per failure, the share of
/// occurrences recovered at each severity.
pub fn table3(scale: &Scale) -> BTreeMap<UserFailure, [f64; 7]> {
    let mut counts: BTreeMap<UserFailure, [u64; 7]> = BTreeMap::new();
    for result in run_both_workloads(scale, RecoveryPolicy::Siras) {
        for (failure, severity) in result.recoveries {
            if let Some(s) = severity {
                counts.entry(failure).or_insert([0; 7])[s as usize - 1] += 1;
            } else {
                counts.entry(failure).or_insert([0; 7]);
            }
        }
    }
    counts
        .into_iter()
        .map(|(f, c)| {
            let total: u64 = c.iter().sum();
            let mut row = [0.0; 7];
            if total > 0 {
                for i in 0..7 {
                    row[i] = 100.0 * c[i] as f64 / total as f64;
                }
            }
            (f, row)
        })
        .collect()
}

/// Extends `series` with every piconet's own piconet-level series (the
/// paper pooled the two testbeds' series, not their merged timeline).
fn extend_per_piconet(series: &mut TtfTtrSeries, r: &CampaignResult) {
    for i in 0..r.piconets.len() {
        series.extend(&r.piconet_series_of(i));
    }
}

/// **Table 4** — the four-policy dependability comparison, both
/// testbeds pooled.
pub fn table4(scale: &Scale) -> DependabilityReport {
    let mut scenarios = Vec::new();
    for policy in RecoveryPolicy::ALL {
        let results = run_both_workloads(scale, policy);
        let mut series = TtfTtrSeries::default();
        let mut covered = 0;
        let mut masked = 0;
        let mut manifested = 0;
        for r in &results {
            extend_per_piconet(&mut series, r);
            covered += r.covered_count;
            masked += r.masked_count;
            manifested += r.failure_count;
        }
        scenarios.push((
            policy.label().to_string(),
            ScenarioMeasurement::from_series(&series, covered, masked, manifested),
        ));
    }
    DependabilityReport::new(scenarios)
}

/// The streaming/batch cross-check of [`table4_streaming`].
#[derive(Debug, Clone)]
pub struct StreamingCrossCheck {
    /// End-of-stream snapshot from the sharded streaming engine.
    pub streaming: btpan_stream::StreamSnapshot,
    /// The batch reference pipeline on the same records.
    pub batch: btpan_stream::StreamSnapshot,
}

impl StreamingCrossCheck {
    /// True when the streaming analysis is bit-identical to batch
    /// (MTTF/MTTR/availability compared by f64 bit pattern).
    pub fn matches(&self) -> bool {
        self.streaming.analysis_eq(&self.batch)
    }
}

/// **Table 4, streaming** — runs one SIRA campaign per seed, pushes the
/// collected repository through the `btpan-stream` engine in canonical
/// order, and cross-checks the end-of-stream snapshot against the batch
/// reference pipeline on the same records.
pub fn table4_streaming(scale: &Scale) -> StreamingCrossCheck {
    use btpan_stream::{batch_reference, stream_records, StreamConfig, DEFAULT_WINDOW};
    let config = StreamConfig {
        shards: 4,
        channel_capacity: 1024,
        window: DEFAULT_WINDOW,
        watermark_lag: DEFAULT_WINDOW * 2,
        idle_timeout_ms: None,
        nap_node: NAP_NODE_ID,
        keep_tuples: false,
        // Route each testbed's nodes through one shard so a piconet's
        // records stay mutually ordered end to end.
        group_of: Some(Topology::paper_both().group_table()),
    };
    let mut records = Vec::new();
    for result in run_both_workloads(scale, RecoveryPolicy::Siras) {
        records.extend(result.repository.records());
    }
    // Re-sequence the pooled campaigns into one canonical stream.
    records.sort();
    for (seq, rec) in records.iter_mut().enumerate() {
        rec.seq = seq as u64;
    }
    StreamingCrossCheck {
        streaming: stream_records(records.clone(), &config).snapshot,
        batch: batch_reference(&records, &config),
    }
}

/// **Figure 3a** — packet-loss share per packet type (Random WL).
pub fn fig3a(scale: &Scale) -> ShareTable {
    let duration = scale.duration;
    let results = run_seeds(&scale.seeds, move |seed| {
        CampaignConfig::paper(seed, WorkloadKind::Random, RecoveryPolicy::Siras).duration(duration)
    });
    let mut table = ShareTable::new();
    for r in results {
        let partial = distributions::packet_loss_by_packet_type(&r.repository.tests());
        for (cat, count, _) in partial.rows() {
            for _ in 0..count {
                table.add(&cat);
            }
        }
    }
    table
}

/// **Figure 3b** — packets-sent-before-loss histogram from the special
/// fixed-size workload on Verde and Win.
pub fn fig3b(scale: &Scale) -> AgeHistogram {
    let duration = scale.duration;
    let results = run_seeds(&scale.seeds, move |seed| {
        let mut cfg = CampaignConfig::paper(seed, WorkloadKind::Random, RecoveryPolicy::Siras)
            .duration(duration);
        cfg.fig3b_variant = true;
        cfg
    });
    let mut tests = Vec::new();
    for r in results {
        tests.extend(r.repository.tests());
    }
    AgeHistogram::from_tests(&tests, 1_000, 10_000)
}

/// **Figure 3c** — packet-loss share per application (Realistic WL).
pub fn fig3c(scale: &Scale) -> ShareTable {
    let duration = scale.duration;
    let results = run_seeds(&scale.seeds, move |seed| {
        CampaignConfig::paper(seed, WorkloadKind::Realistic, RecoveryPolicy::Siras)
            .duration(duration)
    });
    let mut table = ShareTable::new();
    for r in results {
        let partial = distributions::packet_loss_by_app(&r.repository.tests());
        for (cat, count, _) in partial.rows() {
            for _ in 0..count {
                table.add(&cat);
            }
        }
    }
    table
}

/// **Figure 4** — per-host shares of each user failure (Realistic WL,
/// no masking), keyed by failure then host name.
pub fn fig4(scale: &Scale) -> BTreeMap<UserFailure, ShareTable> {
    let duration = scale.duration;
    let results = run_seeds(&scale.seeds, move |seed| {
        CampaignConfig::paper(seed, WorkloadKind::Realistic, RecoveryPolicy::Siras)
            .duration(duration)
    });
    let mut merged: BTreeMap<UserFailure, ShareTable> = BTreeMap::new();
    for r in results {
        for t in r.repository.tests() {
            merged.entry(t.failure).or_default().add(&node_name(t.node));
        }
    }
    merged
}

/// **Extension: Markov availability validation** — fits the analytic
/// CTMC availability model from measured per-type rates and compares
/// its closed-form availability with the direct measurement.
pub fn markov_validation(scale: &Scale) -> (btpan_analysis::MarkovAvailability, f64) {
    let results = run_both_workloads(scale, RecoveryPolicy::Siras);
    let mut per_type: BTreeMap<UserFailure, (u64, f64)> = BTreeMap::new();
    let mut uptime_s = 0.0;
    let mut series = TtfTtrSeries::default();
    for r in &results {
        for tl in &r.timelines {
            uptime_s += tl.uptime().as_secs_f64();
            for e in &tl.episodes {
                let entry = per_type.entry(e.failure).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += e.ttr().as_secs_f64();
            }
        }
        series.extend(&r.pooled_series());
    }
    let mut model = btpan_analysis::MarkovAvailability::new();
    for (f, (count, ttr_sum)) in &per_type {
        if *count > 0 {
            model.fit_type(*f, *count, uptime_s, ttr_sum / *count as f64);
        }
    }
    // Direct per-node measurement for comparison.
    let mttf = series.ttf_stats().mean().unwrap_or(f64::INFINITY);
    let mttr = series.ttr_stats().mean().unwrap_or(0.0);
    let measured_availability = mttf / (mttf + mttr);
    (model, measured_availability)
}

/// **Extension: redundant overlapped piconets** — replays the measured
/// timelines with a standby NAP and reports
/// `(base availability, redundant availability, absorbed, total)`.
pub fn redundancy(scale: &Scale) -> (f64, f64, u64, u64) {
    let results = run_both_workloads(scale, RecoveryPolicy::Siras);
    let mut timelines = Vec::new();
    for r in results {
        timelines.extend(r.timelines);
    }
    let mut base = TtfTtrSeries::default();
    for tl in &timelines {
        base.extend(&tl.series());
    }
    let avail = |s: &TtfTtrSeries| {
        let f = s.ttf_stats().mean().unwrap_or(f64::INFINITY);
        let r = s.ttr_stats().mean().unwrap_or(0.0);
        f / (f + r)
    };
    let (red, absorbed, not_absorbed) = btpan_analysis::redundancy::pooled_series_with_redundancy(
        &timelines,
        btpan_analysis::RedundancyConfig::default(),
    );
    (avail(&base), avail(&red), absorbed, absorbed + not_absorbed)
}

/// The section-6 findings: workload split, idle comparison, distance
/// shares.
#[derive(Debug, Clone)]
pub struct Findings {
    /// Percentage of failures from the Random WL (paper: 84 %).
    pub random_share_percent: f64,
    /// Mean idle before failed cycles, seconds (paper: 27.3 s).
    pub idle_before_failed_s: f64,
    /// Mean idle before clean cycles, seconds (paper: 26.9 s).
    pub idle_before_clean_s: f64,
    /// Failure shares at each antenna distance (bind excluded).
    pub distance_shares: Vec<(f64, f64)>,
}

/// **Section 6 extras** — the X1/X2/X3 findings.
pub fn findings(scale: &Scale) -> Findings {
    let results = run_both_workloads(scale, RecoveryPolicy::Siras);
    let mut tests = Vec::new();
    let mut clean_idles = Vec::new();
    for r in &results {
        tests.extend(r.repository.tests());
        clean_idles.extend(r.clean_idles_s.iter().copied());
    }
    let split = distributions::failures_by_workload(&tests);
    // Idle analysis is about reused connections: realistic WL only.
    let realistic_tests: Vec<_> = tests
        .iter()
        .filter(|t| t.workload == btpan_collect::entry::WorkloadTag::Realistic)
        .cloned()
        .collect();
    let (idle_failed, idle_clean) =
        distributions::idle_time_comparison(&realistic_tests, &clean_idles);
    let by_distance = distributions::failures_by_distance(&tests);
    let distance_shares = [0.5, 5.0, 7.0]
        .iter()
        .map(|&d| (d, by_distance.percent(&format!("{d:.1}m"))))
        .collect();
    Findings {
        random_share_percent: split.percent("random"),
        idle_before_failed_s: idle_failed,
        idle_before_clean_s: idle_clean,
        distance_shares,
    }
}

/// **Extension: scatternet campaign** — runs the 3-piconet
/// [`Topology::scatternet`] (one bridge PANU time-sharing all three
/// piconets) end to end and coalesces the relationship matrix with
/// every master the bridge can propagate to.
pub fn scatternet_demo(seed: u64, duration: SimDuration) -> (CampaignResult, RelationshipMatrix) {
    let topo = Topology::scatternet();
    let result = Campaign::new(
        CampaignConfig::with_topology(seed, topo.clone(), RecoveryPolicy::Siras).duration(duration),
    )
    .run();
    let matrix = relationship_matrix(&result, &topo, SimDuration::from_secs(330));
    (result, matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btpan_faults::SystemComponent;

    fn tiny() -> Scale {
        Scale {
            seeds: vec![5],
            duration: SimDuration::from_secs(10 * 3600),
        }
    }

    #[test]
    fn table2_recovers_strong_relationships() {
        let m = table2(&tiny(), SimDuration::from_secs(330));
        assert!(m.grand_total() > 20, "too few observations");
        // The strongest prose constraint: connect-failed is HCI-dominated.
        if m.total(UserFailure::ConnectFailed) >= 10 {
            let hci = m.percent(
                UserFailure::ConnectFailed,
                SystemComponent::Hci,
                btpan_faults::CauseSite::Local,
            ) + m.percent(
                UserFailure::ConnectFailed,
                SystemComponent::Hci,
                btpan_faults::CauseSite::Nap,
            );
            assert!(hci > 50.0, "HCI share {hci}");
        }
    }

    #[test]
    fn fig2_curve_has_knee_near_paper_window() {
        let curve = fig2(&tiny());
        assert!(curve.record_count > 50);
        let knee = curve.knee();
        assert!((30.0..3_000.0).contains(&knee), "knee {knee} implausible");
    }

    #[test]
    fn table3_rows_sum_to_100() {
        let rows = table3(&tiny());
        for (f, row) in rows {
            let sum: f64 = row.iter().sum();
            if sum > 0.0 {
                assert!((sum - 100.0).abs() < 0.5, "{f}: {sum}");
            }
        }
    }

    #[test]
    fn fig4_bind_only_on_prone_hosts() {
        let map = fig4(&tiny());
        if let Some(bind) = map.get(&UserFailure::BindFailed) {
            assert_eq!(bind.count("Verde"), 0);
            assert_eq!(bind.count("Miseno"), 0);
            assert_eq!(bind.count("Ipaq"), 0);
            assert!(bind.count("Azzurro") + bind.count("Win") > 0);
        }
    }

    #[test]
    fn node_names_resolve() {
        assert_eq!(node_name(0), "Giallo");
        assert_eq!(node_name(4), "Win");
        assert_eq!(node_name(77), "node77");
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            seeds: vec![8],
            duration: SimDuration::from_secs(8 * 3600),
        }
    }

    #[test]
    fn markov_model_tracks_measurement() {
        let (model, measured) = markov_validation(&tiny());
        assert!(!model.is_empty(), "no failure types fitted");
        let analytic = model.availability();
        assert!(
            (analytic - measured).abs() < 0.05,
            "analytic {analytic} vs measured {measured}"
        );
        // The ranking covers exactly the fitted types.
        assert_eq!(model.downtime_ranking().len(), model.len());
    }

    #[test]
    fn redundancy_never_hurts_and_absorbs_something() {
        let (base, redundant, absorbed, total) = redundancy(&tiny());
        assert!(total > 0);
        assert!(absorbed > 0, "nothing absorbed out of {total}");
        assert!(absorbed <= total);
        assert!(redundant >= base, "redundancy hurt: {base} -> {redundant}");
    }

    #[test]
    fn fig3b_variant_runs_only_on_verde_and_win() {
        let duration = SimDuration::from_secs(12 * 3600);
        let results = crate::runner::run_seeds(&[4], move |seed| {
            let mut cfg = CampaignConfig::paper(seed, WorkloadKind::Random, RecoveryPolicy::Siras)
                .duration(duration);
            cfg.fig3b_variant = true;
            cfg
        });
        let mut nodes: Vec<u64> = results[0]
            .repository
            .tests()
            .iter()
            .map(|t| t.node)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        for n in nodes {
            let name = node_name(n);
            assert!(
                name == "Verde" || name == "Win",
                "fig3b failure on unexpected host {name}"
            );
        }
    }
}
