//! The deterministic streaming pipeline shared by every transport.
//!
//! [`StreamCore`] is the heart of the engine: shard merge buffers,
//! watermark bookkeeping, online coalescence and the streaming
//! estimators. [`crate::engine::StreamEngine`] owns one and drives it
//! on the caller's thread. Keeping all state transitions in one place
//! is what makes the equivalence and checkpoint arguments tractable.
//!
//! # Ordering and lateness
//!
//! Each shard tracks a *watermark* (max timestamp seen) and a
//! *frontier* (`watermark - lag`, the point up to which its input is
//! assumed complete). The global emit watermark `W` is the minimum
//! frontier over all shards; whenever `W` advances, every buffered
//! record with `at ≤ W` is emitted in `(timestamp, seq)` order.
//! A record is *late* — quarantined, never emitted — iff it arrives at
//! or behind its own shard's frontier. Because the frontier is a
//! function of the shard's own input prefix only, lateness (and hence
//! every downstream number) is independent of how the shards' inputs
//! interleave.
//!
//! Emitted records always satisfy `at > W`-at-emission-time, so
//! closing tuples via `OnlineCoalescer::advance(W)` can never split a
//! tuple the batch algorithm would have kept together (see
//! [`mod@btpan_collect::coalesce`]).
//!
//! # Memory bound
//!
//! Shard buffers only hold records in `(frontier, watermark]`, i.e.
//! O(shards × watermark-lag × arrival-rate) records — independent of
//! stream length. The NAP chain and open tuples are pruned as the
//! watermark passes them.

use crate::estimators::{EpisodeEstimator, MatrixCell, StreamSnapshot};
use crate::router::ShardRouter;
use btpan_collect::coalesce::{OnlineCoalescer, Tuple};
use btpan_collect::entry::{LogRecord, NodeId};
use btpan_collect::relate::{observations_in, RelationshipMatrix};
use btpan_collect::trace::QuarantineReport;
use btpan_faults::UserFailure;
use btpan_sim::config::ConfigError;
use btpan_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The paper's Table 1 coalescence window (330 s).
pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_secs(330);

pub(crate) mod metrics {
    use btpan_obs::{Counter, Gauge, Registry};
    use std::sync::OnceLock;

    pub(crate) struct StreamMetrics {
        /// `btpan_stream_records_emitted_total` — records released by the
        /// merge in canonical order.
        pub emitted: Counter,
        /// `btpan_stream_late_quarantined_total` — records refused for
        /// arriving at or behind their shard's frontier.
        pub late: Counter,
        /// `btpan_stream_duplicates_dropped_total` — exact and
        /// conflicting duplicates dropped by the merge.
        pub duplicates: Counter,
        /// `btpan_stream_resident_records` — records currently buffered
        /// across all shard merge buffers (the memory bound, live).
        pub resident: Gauge,
        /// `btpan_stream_watermark_lag_us` — max shard watermark minus
        /// the emitted watermark: how far emission trails ingestion.
        pub watermark_lag_us: Gauge,
    }

    pub(crate) fn handles() -> &'static StreamMetrics {
        static HANDLES: OnceLock<StreamMetrics> = OnceLock::new();
        HANDLES.get_or_init(|| {
            let registry = Registry::global();
            StreamMetrics {
                emitted: registry.counter("btpan_stream_records_emitted_total"),
                late: registry.counter("btpan_stream_late_quarantined_total"),
                duplicates: registry.counter("btpan_stream_duplicates_dropped_total"),
                resident: registry.gauge("btpan_stream_resident_records"),
                watermark_lag_us: registry.gauge("btpan_stream_watermark_lag_us"),
            }
        })
    }
}

/// Tuning knobs of the streaming engine. Serializable so a checkpoint
/// carries the exact configuration it was taken under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Number of ingestion shards (must be ≥ 1).
    pub shards: usize,
    /// Has no effect: the engine has no channels. Kept so existing
    /// struct literals and saved checkpoints still load.
    pub channel_capacity: usize,
    /// Tupling coalescence window.
    pub window: SimDuration,
    /// How far the emit frontier trails each shard's watermark. Larger
    /// lag tolerates more cross-shard skew; smaller lag emits sooner
    /// and buffers less.
    pub watermark_lag: SimDuration,
    /// Wall-clock silence after which a shard's frontier catches up to
    /// the global max watermark, so one quiet node cannot stall the
    /// merge (`None` disables the idle kick). Checked at each
    /// [`crate::engine::StreamEngine::ingest`].
    pub idle_timeout_ms: Option<u64>,
    /// The NAP's node id (its System Log feeds every relationship).
    pub nap_node: NodeId,
    /// Retain closed global tuples in the outcome (tests; costs memory
    /// proportional to stream length).
    pub keep_tuples: bool,
    /// Optional `(node, group)` routing table: nodes sharing a group
    /// (e.g. a piconet id) share a shard. `None` — and any node absent
    /// from the table — routes by hashed node id, which keeps old
    /// checkpoints and single-piconet streams unchanged.
    pub group_of: Option<Vec<(NodeId, u64)>>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            shards: 4,
            channel_capacity: 1024,
            window: DEFAULT_WINDOW,
            watermark_lag: SimDuration::from_secs(660),
            idle_timeout_ms: Some(100),
            nap_node: 0,
            keep_tuples: false,
            group_of: None,
        }
    }
}

impl StreamConfig {
    /// The configured idle timeout as a `Duration`, if enabled.
    pub fn idle_timeout(&self) -> Option<std::time::Duration> {
        self.idle_timeout_ms.map(std::time::Duration::from_millis)
    }

    /// The shard router this configuration implies: group-based when a
    /// routing table is present, plain node-id hashing otherwise.
    pub fn router(&self) -> ShardRouter {
        match &self.group_of {
            Some(table) => ShardRouter::with_groups(self.shards, table),
            None => ShardRouter::new(self.shards),
        }
    }

    /// Starts a validating builder. Struct literals remain supported;
    /// the builder rejects at construction time what `StreamCore::new`
    /// would otherwise panic on (zero shards) or silently misbehave
    /// under (zero window collapses every tuple, zero lag quarantines
    /// all reordering).
    pub fn builder() -> StreamConfigBuilder {
        StreamConfigBuilder {
            config: StreamConfig::default(),
        }
    }
}

/// Validating builder for [`StreamConfig`].
///
/// ```
/// use btpan_stream::StreamConfig;
///
/// let config = StreamConfig::builder().shards(8).build().unwrap();
/// assert_eq!(config.shards, 8);
///
/// let err = StreamConfig::builder().shards(0).build().unwrap_err();
/// assert_eq!(err.field, "shards");
/// ```
#[derive(Debug, Clone)]
pub struct StreamConfigBuilder {
    config: StreamConfig,
}

impl StreamConfigBuilder {
    /// Number of ingestion shards.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Tupling coalescence window.
    pub fn window(mut self, window: SimDuration) -> Self {
        self.config.window = window;
        self
    }

    /// How far the emit frontier trails each shard's watermark.
    pub fn watermark_lag(mut self, lag: SimDuration) -> Self {
        self.config.watermark_lag = lag;
        self
    }

    /// Idle-shard kick timeout (`None` disables it).
    pub fn idle_timeout_ms(mut self, timeout_ms: Option<u64>) -> Self {
        self.config.idle_timeout_ms = timeout_ms;
        self
    }

    /// The NAP's node id.
    pub fn nap_node(mut self, node: NodeId) -> Self {
        self.config.nap_node = node;
        self
    }

    /// `(node, group)` shard-routing table (e.g. node → piconet id).
    pub fn group_of(mut self, table: Option<Vec<(NodeId, u64)>>) -> Self {
        self.config.group_of = table;
        self
    }

    /// Retain closed global tuples in the outcome.
    pub fn keep_tuples(mut self, keep: bool) -> Self {
        self.config.keep_tuples = keep;
        self
    }

    /// Validates and returns the config, failing at construction time.
    pub fn build(self) -> Result<StreamConfig, ConfigError> {
        if self.config.shards == 0 {
            return Err(ConfigError::new("shards", "must be at least 1"));
        }
        if self.config.window.as_micros() == 0 {
            return Err(ConfigError::new(
                "window",
                "must be positive; a zero window collapses every tuple",
            ));
        }
        if self.config.watermark_lag.as_micros() == 0 {
            return Err(ConfigError::new(
                "watermark_lag",
                "must be positive; a zero lag quarantines any reordering",
            ));
        }
        Ok(self.config)
    }
}

/// Detailed quarantine entries are capped; the counters keep counting.
const MAX_QUARANTINE_DETAIL: usize = 1024;

/// Per-shard merge state.
#[derive(Debug, Clone)]
pub(crate) struct ShardState {
    /// Records awaiting emission, keyed by `(at µs, seq)`.
    pub(crate) buffer: BTreeMap<(u64, u64), LogRecord>,
    /// Max timestamp this shard has seen.
    pub(crate) watermark: Option<SimTime>,
    /// Lateness cutoff: records with `at ≤ frontier` are refused.
    /// Monotone; `None` until the watermark first exceeds the lag.
    pub(crate) frontier: Option<SimTime>,
    /// Set when the shard's input ended (frontier jumps to +∞).
    pub(crate) closed: bool,
}

impl ShardState {
    fn new() -> Self {
        ShardState {
            buffer: BTreeMap::new(),
            watermark: None,
            frontier: None,
            closed: false,
        }
    }
}

/// Everything a finished stream hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// The end-of-stream snapshot.
    pub snapshot: StreamSnapshot,
    /// Closed global tuples, when `keep_tuples` was set.
    pub tuples: Option<Vec<Tuple>>,
    /// Late/duplicate records refused by the merge.
    pub quarantine: QuarantineReport,
}

/// Streaming pipeline state machine.
#[derive(Debug, Clone)]
pub struct StreamCore {
    config: StreamConfig,
    shards: Vec<ShardState>,
    emitted_watermark: Option<SimTime>,
    global: OnlineCoalescer,
    nodes: BTreeMap<NodeId, OnlineCoalescer>,
    /// Maximal suffix of emitted NAP system records whose consecutive
    /// gaps are all ≤ window: the chain a late-joining node's tuple
    /// would have started with in the batch merge.
    nap_chain: Vec<LogRecord>,
    episode: EpisodeEstimator,
    failures: BTreeMap<UserFailure, u64>,
    loss_by_packet_type: BTreeMap<String, u64>,
    matrix: RelationshipMatrix,
    tuples: Vec<Tuple>,
    quarantine: QuarantineReport,
    late_quarantined: u64,
    duplicates_dropped: u64,
    records_emitted: u64,
    resident: usize,
    peak_resident: usize,
    finalized: bool,
}

impl StreamCore {
    /// A fresh pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0`.
    pub fn new(config: StreamConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        let shards = (0..config.shards).map(|_| ShardState::new()).collect();
        let global = OnlineCoalescer::new(config.window);
        StreamCore {
            shards,
            global,
            config,
            emitted_watermark: None,
            nodes: BTreeMap::new(),
            nap_chain: Vec::new(),
            episode: EpisodeEstimator::new(),
            failures: BTreeMap::new(),
            loss_by_packet_type: BTreeMap::new(),
            matrix: RelationshipMatrix::new(),
            tuples: Vec::new(),
            quarantine: QuarantineReport::default(),
            late_quarantined: 0,
            duplicates_dropped: 0,
            records_emitted: 0,
            resident: 0,
            peak_resident: 0,
            finalized: false,
        }
    }

    /// The configuration this pipeline runs under.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Offers one record to `shard`'s merge buffer. Late records and
    /// duplicates are quarantined/dropped, everything else is buffered
    /// and the merge pumped.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn accept(&mut self, shard: usize, rec: LogRecord) {
        self.quarantine.total_lines += 1;
        let at = rec.at;
        let seq = rec.seq;
        let state = &self.shards[shard];
        if let Some(frontier) = state.frontier {
            if at <= frontier {
                self.late_quarantined += 1;
                metrics::handles().late.inc();
                self.quarantine_detail(
                    seq,
                    format!("late record: at {at} ≤ shard frontier {frontier}"),
                );
                return;
            }
        }
        let key = (at.as_micros(), seq);
        if let Some(existing) = state.buffer.get(&key) {
            metrics::handles().duplicates.inc();
            if *existing == rec {
                self.duplicates_dropped += 1;
                self.quarantine_detail(seq, "duplicate record".to_string());
            } else {
                self.duplicates_dropped += 1;
                self.quarantine_detail(
                    seq,
                    "conflicting duplicate: same (timestamp, seq), different content".to_string(),
                );
            }
            return;
        }
        let state = &mut self.shards[shard];
        state.buffer.insert(key, rec);
        if state.watermark.is_none_or(|wm| at > wm) {
            state.watermark = Some(at);
        }
        let lag = self.config.watermark_lag.as_micros();
        if let Some(wm) = state.watermark {
            if wm.as_micros() > lag {
                let f = SimTime::from_micros(wm.as_micros() - lag);
                if state.frontier.is_none_or(|old| f > old) {
                    state.frontier = Some(f);
                }
            }
        }
        self.quarantine.imported += 1;
        self.resident += 1;
        self.peak_resident = self.peak_resident.max(self.resident);
        self.pump();
    }

    /// Idle-shard kick: advances `shard`'s frontier to the max
    /// watermark over all shards, so a node that stopped logging does
    /// not stall the merge forever. Records the shard receives later
    /// with timestamps at or behind that point will be quarantined as
    /// late — the price of progress without input.
    pub fn mark_idle(&mut self, shard: usize) {
        let max_wm = self.shards.iter().filter_map(|s| s.watermark).max();
        let Some(max_wm) = max_wm else { return };
        let state = &mut self.shards[shard];
        if state.closed {
            return;
        }
        if state.frontier.is_none_or(|f| max_wm > f) {
            state.frontier = Some(max_wm);
            self.pump();
        }
    }

    /// Marks `shard`'s input as ended: its frontier jumps to +∞. When
    /// the last shard closes, the pipeline finalizes (all open tuples
    /// close).
    pub fn close_shard(&mut self, shard: usize) {
        {
            let state = &mut self.shards[shard];
            if state.closed {
                return;
            }
            state.closed = true;
            state.frontier = Some(SimTime::from_micros(u64::MAX));
        }
        self.pump();
        if self.shards.iter().all(|s| s.closed) {
            self.finalize();
        }
    }

    /// Closes every open tuple. Idempotent; called automatically when
    /// the last shard closes.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        // Draining a closed shard pumps with the +∞ frontier sentinel,
        // which must not leak into the reported watermark: the stream
        // is fully consumed, so the true watermark is the newest
        // timestamp any shard has seen.
        if self
            .emitted_watermark
            .is_some_and(|w| w.as_micros() == u64::MAX)
        {
            self.emitted_watermark = self.shards.iter().filter_map(|s| s.watermark).max();
        }
        if let Some(t) = self.global.finish() {
            self.close_global_tuple(t);
        }
        let nodes: Vec<NodeId> = self.nodes.keys().copied().collect();
        for node in nodes {
            let closed = self.nodes.get_mut(&node).expect("listed").finish();
            if let Some(t) = closed {
                self.close_node_tuple(node, t);
            }
        }
        self.nodes.clear();
        self.nap_chain.clear();
    }

    /// Emits everything allowed by the current minimum frontier.
    fn pump(&mut self) {
        let mut w = SimTime::from_micros(u64::MAX);
        for state in &self.shards {
            match state.frontier {
                None => return, // some shard has not established a frontier yet
                Some(f) => w = w.min(f),
            }
        }
        if self.emitted_watermark.is_some_and(|e| e >= w) {
            return;
        }
        let mut batch: Vec<LogRecord> = Vec::new();
        for state in &mut self.shards {
            if w.as_micros() == u64::MAX {
                batch.extend(std::mem::take(&mut state.buffer).into_values());
            } else {
                let keep = state.buffer.split_off(&(w.as_micros() + 1, 0));
                let take = std::mem::replace(&mut state.buffer, keep);
                batch.extend(take.into_values());
            }
        }
        self.resident -= batch.len();
        let emitted_now = batch.len() as u64;
        batch.sort_by_key(|r| (r.at, r.seq));
        for rec in batch {
            self.emit(rec);
        }
        self.advance_all(w);
        self.emitted_watermark = Some(w);
        let obs = metrics::handles();
        obs.emitted.add(emitted_now);
        obs.resident.set(self.resident as i64);
        // How far emission trails the fastest shard; the +∞ sentinel of
        // a closing pump means lag zero, not u64::MAX.
        let max_wm = self.shards.iter().filter_map(|s| s.watermark).max();
        let lag = match (max_wm, w.as_micros()) {
            (_, u64::MAX) => 0,
            (Some(wm), emitted) => wm.as_micros().saturating_sub(emitted),
            (None, _) => 0,
        };
        obs.watermark_lag_us
            .set(i64::try_from(lag).unwrap_or(i64::MAX));
    }

    /// Feeds one canonical-order record to every estimator.
    fn emit(&mut self, rec: LogRecord) {
        self.records_emitted += 1;
        if let Some(report) = rec.as_failure() {
            *self.failures.entry(report.failure).or_insert(0) += 1;
            if report.failure == UserFailure::PacketLoss {
                let key = report
                    .packet_type
                    .clone()
                    .unwrap_or_else(|| "unknown".to_string());
                *self.loss_by_packet_type.entry(key).or_insert(0) += 1;
            }
        }
        if let Some(t) = self.global.push(rec.clone()) {
            self.close_global_tuple(t);
        }
        if rec.node == self.config.nap_node {
            if rec.as_system().is_none() {
                // The NAP never produces Test reports; if one appears
                // the batch matrix would ignore it too.
                return;
            }
            // Extend the NAP active chain and fan the record out to
            // every live per-node pipeline (batch merges the NAP's
            // System Log into each node's stream).
            if let Some(last) = self.nap_chain.last().map(|r| r.at) {
                if rec.at.saturating_since(last) > self.config.window {
                    self.nap_chain.clear();
                }
            }
            self.nap_chain.push(rec.clone());
            let nodes: Vec<NodeId> = self.nodes.keys().copied().collect();
            for node in nodes {
                let closed = self.nodes.get_mut(&node).expect("listed").push(rec.clone());
                if let Some(t) = closed {
                    self.close_node_tuple(node, t);
                }
            }
        } else {
            let node = rec.node;
            if !self.nodes.contains_key(&node) {
                // First sight of this node: seed its pipeline with the
                // NAP chain its batch tuple would have started with.
                self.nodes.insert(
                    node,
                    OnlineCoalescer::seeded(self.config.window, self.nap_chain.clone()),
                );
            }
            let closed = self.nodes.get_mut(&node).expect("inserted").push(rec);
            if let Some(t) = closed {
                self.close_node_tuple(node, t);
            }
        }
    }

    /// Watermark-driven cleanup: close dead tuples, drop idle node
    /// pipelines, prune the NAP chain.
    fn advance_all(&mut self, w: SimTime) {
        if let Some(t) = self.global.advance(w) {
            self.close_global_tuple(t);
        }
        let nodes: Vec<NodeId> = self.nodes.keys().copied().collect();
        for node in nodes {
            let closed = self.nodes.get_mut(&node).expect("listed").advance(w);
            if let Some(t) = closed {
                self.close_node_tuple(node, t);
            }
        }
        self.nodes.retain(|_, c| !c.is_idle());
        if let Some(last) = self.nap_chain.last().map(|r| r.at) {
            if w.saturating_since(last) > self.config.window {
                self.nap_chain.clear();
            }
        }
    }

    fn close_global_tuple(&mut self, tuple: Tuple) {
        self.episode.observe(&tuple);
        if self.config.keep_tuples {
            self.tuples.push(tuple);
        }
    }

    fn close_node_tuple(&mut self, node: NodeId, tuple: Tuple) {
        for obs in observations_in(&tuple, node, self.config.nap_node) {
            self.matrix.record(obs);
        }
    }

    fn quarantine_detail(&mut self, seq: u64, reason: String) {
        if self.quarantine.quarantined.len() < MAX_QUARANTINE_DETAIL {
            self.quarantine.quarantined.push((seq as usize, reason));
        }
    }

    /// Point-in-time view of every estimator; callable mid-stream.
    pub fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot {
            records_emitted: self.records_emitted,
            late_quarantined: self.late_quarantined,
            duplicates_dropped: self.duplicates_dropped,
            watermark_us: self.emitted_watermark.map(SimTime::as_micros),
            resident_records: self.resident as u64,
            peak_resident_records: self.peak_resident as u64,
            episodes: self.episode.episodes(),
            mttf_s: self.episode.mttf_s(),
            mttr_s: self.episode.mttr_s(),
            availability: self.episode.availability(),
            failures: self.failures.clone(),
            loss_by_packet_type: self.loss_by_packet_type.clone(),
            matrix_cells: self
                .matrix
                .cells()
                .into_iter()
                .map(|(failure, cause, count)| MatrixCell {
                    failure,
                    cause,
                    count,
                })
                .collect(),
        }
    }

    /// The merge-refusal report (late + duplicate records).
    pub fn quarantine(&self) -> &QuarantineReport {
        &self.quarantine
    }

    /// Consumes the pipeline into its outcome (finalizes first).
    pub fn into_outcome(mut self) -> StreamOutcome {
        for shard in 0..self.shards.len() {
            self.close_shard(shard);
        }
        StreamOutcome {
            snapshot: self.snapshot(),
            tuples: self.config.keep_tuples.then_some(self.tuples),
            quarantine: self.quarantine,
        }
    }

    // ---- checkpoint plumbing (state capture/restore lives in
    // `crate::checkpoint`; these accessors expose the private fields
    // it needs without making them public API) ----

    pub(crate) fn shards_state(&self) -> &[ShardState] {
        &self.shards
    }

    pub(crate) fn emitted_watermark(&self) -> Option<SimTime> {
        self.emitted_watermark
    }

    pub(crate) fn global_coalescer(&self) -> &OnlineCoalescer {
        &self.global
    }

    pub(crate) fn node_coalescers(&self) -> &BTreeMap<NodeId, OnlineCoalescer> {
        &self.nodes
    }

    pub(crate) fn nap_chain(&self) -> &[LogRecord] {
        &self.nap_chain
    }

    pub(crate) fn episode(&self) -> &EpisodeEstimator {
        &self.episode
    }

    pub(crate) fn kept_tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    pub(crate) fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.records_emitted,
            self.late_quarantined,
            self.duplicates_dropped,
            self.peak_resident as u64,
        )
    }

    pub(crate) fn census(&self) -> (&BTreeMap<UserFailure, u64>, &BTreeMap<String, u64>) {
        (&self.failures, &self.loss_by_packet_type)
    }

    pub(crate) fn matrix_ref(&self) -> &RelationshipMatrix {
        &self.matrix
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        config: StreamConfig,
        shards: Vec<ShardState>,
        emitted_watermark: Option<SimTime>,
        global: OnlineCoalescer,
        nodes: BTreeMap<NodeId, OnlineCoalescer>,
        nap_chain: Vec<LogRecord>,
        episode: EpisodeEstimator,
        failures: BTreeMap<UserFailure, u64>,
        loss_by_packet_type: BTreeMap<String, u64>,
        matrix: RelationshipMatrix,
        tuples: Vec<Tuple>,
        quarantine: QuarantineReport,
        counters: (u64, u64, u64, u64),
    ) -> Self {
        assert_eq!(config.shards, shards.len(), "checkpoint shard count");
        let resident = shards.iter().map(|s| s.buffer.len()).sum();
        let (records_emitted, late_quarantined, duplicates_dropped, peak_resident) = counters;
        StreamCore {
            config,
            shards,
            emitted_watermark,
            global,
            nodes,
            nap_chain,
            episode,
            failures,
            loss_by_packet_type,
            matrix,
            tuples,
            quarantine,
            late_quarantined,
            duplicates_dropped,
            records_emitted,
            resident,
            peak_resident: (peak_resident as usize).max(resident),
            finalized: false,
        }
    }
}
