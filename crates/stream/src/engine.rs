//! The ingestion engine: routes records to shards, snapshots out.
//!
//! [`StreamEngine`] owns its [`StreamCore`] and drives it on the
//! caller's thread: each [`StreamEngine::ingest`] routes the record to
//! its shard and hands it straight to the merge. Shards are logical
//! merge partitions (per-shard watermarks, frontiers and lateness; see
//! [`crate::core`]), not threads, so a run is a pure function of its
//! input order and configuration.

use crate::checkpoint::{capture, Checkpoint};
use crate::core::{StreamConfig, StreamCore, StreamOutcome};
use crate::estimators::StreamSnapshot;
use crate::router::ShardRouter;
use btpan_collect::entry::LogRecord;
use std::convert::Infallible;
use std::time::{Duration, Instant};

/// Sharded streaming ingestion engine.
pub struct StreamEngine {
    router: ShardRouter,
    core: StreamCore,
    ingested: u64,
    /// Idle timeout and each shard's last wall-clock arrival; `None`
    /// when the idle kick is disabled.
    idle: Option<(Duration, Vec<Instant>)>,
}

impl StreamEngine {
    /// Starts a fresh engine.
    pub fn start(config: StreamConfig) -> Self {
        Self::with_core(StreamCore::new(config), 0)
    }

    /// Resumes from a checkpoint. The caller must replay the record
    /// source from [`Checkpoint::source_index`] (see
    /// [`StreamEngine::ingested`]).
    pub fn resume(checkpoint: Checkpoint) -> Self {
        let source_index = checkpoint.source_index;
        Self::with_core(checkpoint.restore(), source_index)
    }

    fn with_core(core: StreamCore, ingested: u64) -> Self {
        let config = core.config();
        let now = Instant::now();
        StreamEngine {
            router: config.router(),
            idle: config
                .idle_timeout()
                .map(|timeout| (timeout, vec![now; config.shards])),
            core,
            ingested,
        }
    }

    /// Routes one record to its shard's merge buffer. With an idle
    /// timeout set, every other shard silent for at least that long
    /// (wall clock) then has its frontier advanced to the max watermark.
    /// Never fails; the `Result` keeps `?` and `map_err` callers compiling.
    pub fn ingest(&mut self, rec: LogRecord) -> Result<(), Infallible> {
        let shard = self.router.route(rec.node);
        self.core.accept(shard, rec);
        self.ingested += 1;
        if let Some((timeout, last_arrival)) = &mut self.idle {
            let now = Instant::now();
            last_arrival[shard] = now;
            for (silent, last) in last_arrival.iter().enumerate() {
                if silent != shard && now.duration_since(*last) >= *timeout {
                    self.core.mark_idle(silent);
                }
            }
        }
        Ok(())
    }

    /// Records handed to [`StreamEngine::ingest`] so far (counts the
    /// checkpointed prefix after a resume).
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// A live snapshot of the estimators.
    pub fn snapshot(&self) -> StreamSnapshot {
        self.core.snapshot()
    }

    /// Takes a checkpoint covering exactly the records ingested so far.
    pub fn checkpoint(&self) -> Checkpoint {
        capture(&self.core, self.ingested)
    }

    /// Ends the stream: closes every shard, finalizes the pipeline and
    /// returns the outcome.
    pub fn finish(self) -> StreamOutcome {
        self.core.into_outcome()
    }
}

/// Runs a record iterator through a fresh [`StreamEngine`]: start,
/// ingest each record, finish.
pub fn stream_records<I>(records: I, config: &StreamConfig) -> StreamOutcome
where
    I: IntoIterator<Item = LogRecord>,
{
    let mut engine = StreamEngine::start(config.clone());
    for rec in records {
        let Ok(()) = engine.ingest(rec);
    }
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use btpan_collect::entry::{SystemLogEntry, TestLogEntry, WorkloadTag};
    use btpan_faults::{SystemFault, UserFailure};
    use btpan_sim::time::{SimDuration, SimTime};

    fn sys_rec(seq: u64, node: u64, at_s: u64) -> LogRecord {
        LogRecord::from_system(
            seq,
            SystemLogEntry::new(
                SimTime::from_secs(at_s),
                node,
                SystemFault::HciCommandTimeout,
            ),
        )
    }

    fn fail_rec(seq: u64, node: u64, at_s: u64) -> LogRecord {
        LogRecord::from_test(
            seq,
            TestLogEntry {
                at: SimTime::from_secs(at_s),
                node,
                failure: UserFailure::ConnectFailed,
                workload: WorkloadTag::Random,
                packet_type: None,
                packets_sent_before: None,
                app: None,
                distance_m: 5.0,
                idle_before_s: None,
            },
        )
    }

    fn config() -> StreamConfig {
        StreamConfig {
            shards: 2,
            channel_capacity: 8,
            window: SimDuration::from_secs(30),
            watermark_lag: SimDuration::from_secs(60),
            idle_timeout_ms: None,
            nap_node: 0,
            keep_tuples: true,
            group_of: None,
        }
    }

    #[test]
    fn engine_matches_single_threaded_core() {
        let records: Vec<LogRecord> = (0..200)
            .map(|i| {
                let node = 1 + (i % 3);
                if i % 7 == 0 {
                    fail_rec(i, node, 10 + i * 9)
                } else {
                    sys_rec(i, node, 10 + i * 9)
                }
            })
            .collect();
        let mut engine = StreamEngine::start(config());
        for rec in records.clone() {
            engine.ingest(rec).unwrap();
        }
        let outcome = engine.finish();
        // The reference drives the core by hand, without the engine.
        let router = config().router();
        let mut core = StreamCore::new(config());
        for rec in records {
            core.accept(router.route(rec.node), rec);
        }
        let reference = core.into_outcome();
        // Peak residency included: no output depends on timing.
        assert_eq!(outcome.snapshot, reference.snapshot);
        assert_eq!(outcome.tuples, reference.tuples);
        assert_eq!(outcome.snapshot.late_quarantined, 0);
        assert_eq!(outcome.snapshot.duplicates_dropped, 0);
    }

    #[test]
    fn idle_timeout_unblocks_a_silent_shard() {
        // Without the idle kick, a shard that never receives records
        // keeps the global watermark at None and nothing is emitted.
        let mut cfg = config();
        cfg.idle_timeout_ms = Some(10_000);
        let router = ShardRouter::new(cfg.shards);
        // Pick node ids that all land on one shard, leaving the other idle.
        let target = router.route(1);
        let nodes: Vec<u64> = (1..100)
            .filter(|&n| router.route(n) == target)
            .take(2)
            .collect();
        let mut engine = StreamEngine::start(cfg);
        for (i, at) in (0u64..50).enumerate() {
            engine
                .ingest(sys_rec(i as u64, nodes[i % nodes.len()], 100 + at * 10))
                .unwrap();
        }
        assert_eq!(engine.snapshot().records_emitted, 0);
        // Backdate every arrival past the timeout: the next ingest
        // kicks the silent shard, whose frontier catches up and lets
        // the merge emit.
        for last in &mut engine.idle.as_mut().expect("idle kick on").1 {
            *last = last
                .checked_sub(Duration::from_millis(10_000))
                .expect("monotonic clock older than the timeout");
        }
        engine.ingest(sys_rec(50, nodes[0], 600)).unwrap();
        let snap = engine.snapshot();
        assert!(
            snap.records_emitted > 0,
            "idle shard stalled the merge: {snap:?}"
        );
        assert_eq!(snap.late_quarantined, 0);
        let outcome = engine.finish();
        assert_eq!(outcome.snapshot.records_emitted, 51);
    }

    #[test]
    fn checkpoint_covers_all_ingested_records() {
        let mut engine = StreamEngine::start(config());
        for i in 0..40u64 {
            engine.ingest(sys_rec(i, 1 + (i % 3), 10 + i * 5)).unwrap();
        }
        let cp = engine.checkpoint();
        assert_eq!(cp.source_index, 40);
        let processed = cp.counters.emitted
            + cp.shards.iter().map(|s| s.buffer.len() as u64).sum::<u64>()
            + cp.counters.late
            + cp.counters.duplicates;
        assert_eq!(processed, 40, "checkpoint must cover every ingested record");
        let outcome = engine.finish();
        assert_eq!(outcome.snapshot.records_emitted, 40);
    }
}
