//! Checkpoint/resume: serialize the whole pipeline state, restart a
//! killed stream exactly where it left off.
//!
//! The engine hands each record to the core as it is ingested, so the
//! captured [`StreamCore`] state (see `StreamEngine::checkpoint`)
//! reflects exactly the first `source_index` records of the source.
//! Resuming means restoring the core and replaying the source from
//! `source_index`; every estimator then continues the same fold it
//! would have performed uninterrupted.

use crate::core::{ShardState, StreamConfig, StreamCore};
use crate::estimators::{EpisodeEstimator, MatrixCell, StreamSnapshot};
use btpan_collect::coalesce::{OnlineCoalescer, Tuple};
use btpan_collect::entry::{LogRecord, NodeId};
use btpan_collect::trace::QuarantineReport;
use btpan_faults::UserFailure;
use btpan_sim::stats::RunningStats;
use btpan_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Serializable Welford accumulator state. An empty accumulator is
/// stored as all zeros (not the infinity sentinels, which JSON cannot
/// carry) and restored via [`RunningStats::from_raw`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WelfordState {
    /// Observation count.
    pub n: u64,
    /// Running mean.
    pub mean: f64,
    /// Welford M2 (sum of squared deviations).
    pub m2: f64,
    /// Minimum observation (0 when empty).
    pub min: f64,
    /// Maximum observation (0 when empty).
    pub max: f64,
}

impl WelfordState {
    /// Captures an accumulator.
    pub fn capture(stats: &RunningStats) -> Self {
        WelfordState {
            n: stats.count(),
            mean: stats.mean().unwrap_or(0.0),
            m2: stats.raw_m2(),
            min: stats.min().unwrap_or(0.0),
            max: stats.max().unwrap_or(0.0),
        }
    }

    /// Rebuilds the accumulator.
    pub fn restore(&self) -> RunningStats {
        RunningStats::from_raw(self.n, self.mean, self.m2, self.min, self.max)
    }
}

/// Serializable [`OnlineCoalescer`] state (window comes from the
/// checkpoint's config).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoalescerState {
    /// The open tuple's records.
    pub current: Vec<LogRecord>,
    /// Timestamp of the last pushed record.
    pub last_at: Option<SimTime>,
}

impl CoalescerState {
    fn capture(c: &OnlineCoalescer) -> Self {
        CoalescerState {
            current: c.buffered_records().to_vec(),
            last_at: c.last_at(),
        }
    }

    fn restore(&self, window: btpan_sim::time::SimDuration) -> OnlineCoalescer {
        OnlineCoalescer::from_parts(window, self.current.clone(), self.last_at)
    }
}

/// Emission/refusal counters at checkpoint time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointCounters {
    /// Records emitted in canonical order.
    pub emitted: u64,
    /// Late records quarantined.
    pub late: u64,
    /// Duplicates dropped.
    pub duplicates: u64,
    /// High-water mark of buffered records.
    pub peak_resident: u64,
}

/// Serializable per-shard merge state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// Buffered, not-yet-emitted records.
    pub buffer: Vec<LogRecord>,
    /// Max timestamp seen.
    pub watermark: Option<SimTime>,
    /// Lateness cutoff.
    pub frontier: Option<SimTime>,
    /// Input ended.
    pub closed: bool,
}

/// A complete, serializable pipeline checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Records of the source consumed before this checkpoint; resume
    /// replays the source from here.
    pub source_index: u64,
    /// The configuration the stream ran under.
    pub config: StreamConfig,
    /// Per-shard merge state.
    pub shards: Vec<ShardCheckpoint>,
    /// The last emitted watermark.
    pub emitted_watermark: Option<SimTime>,
    /// Global tupling coalescer.
    pub global: CoalescerState,
    /// Per-node relationship coalescers.
    pub nodes: Vec<(NodeId, CoalescerState)>,
    /// The NAP active chain.
    pub nap_chain: Vec<LogRecord>,
    /// TTF accumulator.
    pub ttf: WelfordState,
    /// TTR accumulator.
    pub ttr: WelfordState,
    /// End of the previous failure episode.
    pub prev_episode_end: Option<SimTime>,
    /// Failure episodes observed.
    pub episodes: u64,
    /// Failure census.
    pub failures: BTreeMap<UserFailure, u64>,
    /// Packet-loss census.
    pub loss_by_packet_type: BTreeMap<String, u64>,
    /// Relationship-matrix cells.
    pub matrix_cells: Vec<MatrixCell>,
    /// Emission/refusal counters.
    pub counters: CheckpointCounters,
    /// The merge quarantine report.
    pub quarantine: QuarantineReport,
    /// Closed global tuples, when `keep_tuples` was set.
    pub kept_tuples: Vec<Vec<LogRecord>>,
}

impl Checkpoint {
    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serializes")
    }

    /// Parses a checkpoint back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying decode error on malformed input.
    pub fn from_json(json: &str) -> Result<Checkpoint, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// The snapshot this checkpoint would report (for display without
    /// restoring the whole pipeline).
    pub fn snapshot(&self) -> StreamSnapshot {
        self.clone().restore().snapshot()
    }

    /// Rebuilds the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint is internally inconsistent (shard count
    /// vs config).
    pub fn restore(self) -> StreamCore {
        let window = self.config.window;
        let shards = self
            .shards
            .into_iter()
            .map(|s| {
                let mut state = ShardState {
                    buffer: BTreeMap::new(),
                    watermark: s.watermark,
                    frontier: s.frontier,
                    closed: s.closed,
                };
                for rec in s.buffer {
                    state.buffer.insert((rec.at.as_micros(), rec.seq), rec);
                }
                state
            })
            .collect();
        let nodes: BTreeMap<NodeId, OnlineCoalescer> = self
            .nodes
            .into_iter()
            .map(|(node, c)| (node, c.restore(window)))
            .collect();
        let episode = EpisodeEstimator::from_parts(
            self.ttf.restore(),
            self.ttr.restore(),
            self.prev_episode_end,
            self.episodes,
        );
        let mut matrix = btpan_collect::relate::RelationshipMatrix::new();
        for cell in &self.matrix_cells {
            matrix.add_count(cell.failure, cell.cause, cell.count);
        }
        let tuples: Vec<Tuple> = self
            .kept_tuples
            .into_iter()
            .map(|records| Tuple { records })
            .collect();
        StreamCore::from_parts(
            self.config,
            shards,
            self.emitted_watermark,
            self.global.restore(window),
            nodes,
            self.nap_chain,
            episode,
            self.failures,
            self.loss_by_packet_type,
            matrix,
            tuples,
            self.quarantine,
            (
                self.counters.emitted,
                self.counters.late,
                self.counters.duplicates,
                self.counters.peak_resident,
            ),
        )
    }
}

/// Captures the full pipeline state. `source_index` is how many source
/// records were consumed before the barrier.
pub fn capture(core: &StreamCore, source_index: u64) -> Checkpoint {
    let (failures, loss) = core.census();
    let (emitted, late, duplicates, peak_resident) = core.counters();
    Checkpoint {
        source_index,
        config: core.config().clone(),
        shards: core
            .shards_state()
            .iter()
            .map(|s| ShardCheckpoint {
                buffer: s.buffer.values().cloned().collect(),
                watermark: s.watermark,
                frontier: s.frontier,
                closed: s.closed,
            })
            .collect(),
        emitted_watermark: core.emitted_watermark(),
        global: CoalescerState::capture(core.global_coalescer()),
        nodes: core
            .node_coalescers()
            .iter()
            .map(|(&node, c)| (node, CoalescerState::capture(c)))
            .collect(),
        nap_chain: core.nap_chain().to_vec(),
        ttf: WelfordState::capture(core.episode().ttf()),
        ttr: WelfordState::capture(core.episode().ttr()),
        prev_episode_end: core.episode().prev_end(),
        episodes: core.episode().episodes(),
        failures: failures.clone(),
        loss_by_packet_type: loss.clone(),
        matrix_cells: core
            .matrix_ref()
            .cells()
            .into_iter()
            .map(|(failure, cause, count)| MatrixCell {
                failure,
                cause,
                count,
            })
            .collect(),
        counters: CheckpointCounters {
            emitted,
            late,
            duplicates,
            peak_resident,
        },
        quarantine: core.quarantine().clone(),
        kept_tuples: core
            .kept_tuples()
            .iter()
            .map(|t| t.records.clone())
            .collect(),
    }
}
