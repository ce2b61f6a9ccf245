//! Acceptance: on the same exported trace, the streaming engine's
//! end-of-stream snapshot is numerically identical to the batch
//! pipeline's Table 2 / Table 4 outputs.

use btpan::cli::{run_cli, EXIT_QUARANTINE};
use btpan::experiment::{table4_streaming, Scale};
use btpan::machine::NAP_NODE_ID;
use btpan::prelude::*;
use btpan::stream::{batch_reference, StreamConfig, StreamEngine, DEFAULT_WINDOW};
use btpan_collect::entry::LogRecord;
use btpan_collect::relate::RelationshipMatrix;
use btpan_collect::trace::{export_trace, import_trace};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        shards: 4,
        channel_capacity: 256,
        window: DEFAULT_WINDOW,
        watermark_lag: DEFAULT_WINDOW * 2,
        idle_timeout_ms: None,
        nap_node: NAP_NODE_ID,
        keep_tuples: false,
        group_of: None,
    }
}

/// The cross-check experiment: streaming == batch on pooled campaigns.
#[test]
fn table4_streaming_cross_check_matches() {
    let check = table4_streaming(&Scale::quick());
    assert!(
        check.matches(),
        "streaming {:?} != batch {:?}",
        check.streaming,
        check.batch
    );
    assert!(check.streaming.records_emitted > 0);
    assert!(check.streaming.episodes > 0, "no failure episodes observed");
}

/// Export a real campaign trace, re-import it, and drive both paths on
/// the identical records: every Table 4 statistic (bit-for-bit f64) and
/// every Table 2 matrix cell must agree.
#[test]
fn exported_trace_streams_to_batch_numbers() {
    let result = Campaign::new(
        CampaignConfig::paper(17, WorkloadKind::Random, RecoveryPolicy::Siras)
            .duration(SimDuration::from_secs(12 * 3600)),
    )
    .run();
    let trace = export_trace(&result.repository);
    let records: Vec<LogRecord> = import_trace(&trace).expect("trace round-trips");

    let config = stream_config();
    let mut engine = StreamEngine::start(config.clone());
    for rec in records.clone() {
        engine.ingest(rec).expect("engine alive");
    }
    let streaming = engine.finish().snapshot;
    let batch = batch_reference(&records, &config);

    // Table 4: identical dependability statistics, bit for bit.
    assert_eq!(streaming.episodes, batch.episodes);
    assert_eq!(streaming.mttf_s.to_bits(), batch.mttf_s.to_bits());
    assert_eq!(streaming.mttr_s.to_bits(), batch.mttr_s.to_bits());
    assert_eq!(
        streaming.availability.to_bits(),
        batch.availability.to_bits()
    );
    // Table 2: identical relationship-matrix cells.
    assert_eq!(streaming.matrix_cells, batch.matrix_cells);
    assert_eq!(streaming.failures, batch.failures);
    assert_eq!(streaming.loss_by_packet_type, batch.loss_by_packet_type);
    assert!(streaming.analysis_eq(&batch));

    // The streamed matrix also equals the matrix the batch pipeline
    // builds directly from the repository (the Table 2 entry point).
    let nap = result.repository.system_records_of(NAP_NODE_ID);
    let streams: Vec<_> = result
        .repository
        .reporting_nodes()
        .into_iter()
        .filter(|&n| n != NAP_NODE_ID)
        .map(|n| (n, result.repository.records_of(n)))
        .collect();
    let direct = RelationshipMatrix::from_node_logs(&streams, &nap, NAP_NODE_ID, config.window);
    assert_eq!(streaming.matrix().grand_total(), direct.grand_total());
}

/// The `btpan stream` CLI on an exported trace: healthy exit, and the
/// JSON snapshot carries the batch numbers.
#[test]
fn stream_cli_reports_batch_identical_snapshot() {
    let path = std::env::temp_dir().join("btpan_root_stream_cli.jsonl");
    let path_s = path.to_str().expect("utf8 temp path");
    run_cli(&args(&[
        "campaign", "--hours", "8", "--seed", "23", "--export", path_s,
    ]))
    .expect("campaign runs");
    let outcome = run_cli(&args(&["stream", path_s, "--json"])).expect("stream runs");
    assert_eq!(outcome.status, 0, "{}", outcome.output);
    // The snapshot rides inside the uniform JSON envelope.
    let envelope = serde_json::from_str::<serde_json::Value>(outcome.output.trim())
        .expect("envelope JSON parses");
    assert_eq!(
        envelope
            .get("schema_version")
            .and_then(serde::Value::as_u64),
        Some(btpan::cli::JSON_SCHEMA_VERSION)
    );
    assert_eq!(
        envelope.get("command").and_then(serde::Value::as_str),
        Some("stream")
    );
    assert_eq!(
        envelope
            .get("health")
            .and_then(|h| h.get("status"))
            .and_then(serde::Value::as_str),
        Some("ok")
    );
    let snap: btpan::stream::StreamSnapshot =
        serde::Deserialize::from_value(envelope.get("data").expect("envelope data"))
            .expect("snapshot decodes");

    let text = std::fs::read_to_string(&path).expect("trace readable");
    let records = import_trace(&text).expect("trace parses");
    let batch = batch_reference(&records, &stream_config());
    assert!(
        snap.analysis_eq(&batch),
        "CLI snapshot {snap:?} != batch {batch:?}"
    );

    // An unhealthy trace gates with the quarantine exit code.
    let mut text = std::fs::read_to_string(&path).expect("trace readable");
    text.push_str("not json\n");
    std::fs::write(&path, &text).expect("trace writable");
    let outcome = run_cli(&args(&["stream", path_s])).expect("stream runs");
    assert_eq!(outcome.status, EXIT_QUARANTINE, "{}", outcome.output);
    std::fs::remove_file(&path).ok();
}
