//! `btpan-stream`: sharded streaming ingestion + incremental online
//! analysis for Bluetooth PAN failure data.
//!
//! The batch pipeline (`btpan-collect` → `btpan-analysis`) answers the
//! paper's questions post-hoc: run a campaign, export, re-import,
//! merge, coalesce, analyze. This crate answers them *live*: log
//! records arrive as unbounded streams, and the Table 2 relationship
//! matrix and Table 4 dependability statistics are maintained
//! incrementally with bounded memory, snapshot-able at any instant.
//!
//! Architecture (producer → analysis), all on the caller's thread:
//!
//! ```text
//!  StreamEngine::ingest ─► ShardRouter ─► StreamCore
//!                          (by node id)   ├ shard merge buffers + watermarks
//!                                         ├ OnlineCoalescer (global + per node)
//!                                         ├ EpisodeEstimator (Welford MTTF/MTTR)
//!                                         ├ RelationshipMatrix accumulator
//!                                         └ QuarantineReport (late/duplicates)
//! ```
//!
//! Shards are logical merge partitions, each with its own watermark,
//! frontier and lateness cutoff; they are not threads.
//!
//! Guarantees, each backed by a test or property test:
//!
//! * **Canonical emission** — records leave the merge in `(timestamp,
//!   seq)` order regardless of arrival interleaving.
//! * **Batch equivalence** — end-of-stream snapshots are bit-identical
//!   to [`batch::batch_reference`] on the same records, including under
//!   chaos-injected duplication and reordering (when the watermark lag
//!   covers the displacement).
//! * **Bounded memory** — resident records are O(shards ×
//!   watermark-lag), not O(stream length).
//! * **Checkpoint/resume** — a killed stream restarted from its last
//!   [`checkpoint::Checkpoint`] converges to the uninterrupted result.

pub mod batch;
pub mod checkpoint;
pub mod core;
pub mod engine;
pub mod estimators;
pub mod router;
pub mod tail;

pub use crate::batch::batch_reference;
pub use crate::checkpoint::Checkpoint;
pub use crate::core::{
    StreamConfig, StreamConfigBuilder, StreamCore, StreamOutcome, DEFAULT_WINDOW,
};
pub use crate::engine::{stream_records, StreamEngine};
pub use crate::estimators::{EpisodeEstimator, MatrixCell, StreamSnapshot};
pub use crate::router::ShardRouter;
pub use crate::tail::LineFramer;
pub use btpan_collect::coalesce::OnlineCoalescer;
