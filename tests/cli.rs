//! End-to-end checks of the `btpan` binary: what a run writes to disk
//! and how it rejects degenerate input. Each case runs the real binary
//! in its own process, so exit statuses are the ones scripts see.

use btpan::cli::run_cli;
use btpan::prelude::*;
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn btpan(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_btpan"))
        .args(args)
        .output()
        .expect("btpan binary runs")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("btpan_cli_{}_{name}", std::process::id()))
}

#[test]
fn campaign_json_writes_export_and_metrics() {
    let trace = temp_path("trace.jsonl");
    let metrics = temp_path("metrics.json");
    let out = btpan(&[
        "campaign",
        "--hours",
        "6",
        "--seed",
        "9",
        "--json",
        "--export",
        trace.to_str().expect("utf8 temp path"),
        "--metrics-out",
        metrics.to_str().expect("utf8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let envelope = serde_json::from_str::<Value>(stdout.trim()).expect("envelope parses");
    assert_eq!(
        envelope.get("command").and_then(Value::as_str),
        Some("campaign")
    );

    let expected = Campaign::new(
        CampaignConfig::paper(9, WorkloadKind::Random, RecoveryPolicy::Siras)
            .duration(SimDuration::from_secs(6 * 3600)),
    )
    .run()
    .repository
    .total_count();
    let exported = std::fs::read_to_string(&trace).expect("--export wrote the trace");
    assert_eq!(exported.lines().count(), expected);

    let snapshot = std::fs::read_to_string(&metrics).expect("--metrics-out wrote the file");
    assert!(
        snapshot.contains("btpan_campaign_cycles_total"),
        "{snapshot}"
    );
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn degenerate_input_is_rejected_with_typed_errors() {
    let overflowing_hours = (u64::MAX / 3600 + 1).to_string();
    let cases: [(&[&str], &str); 10] = [
        (&["campaign", "--hours", "0"], "config"),
        (&["campaign", "--hour", "24"], "usage"),
        (&["campaign", "--hours", &overflowing_hours], "usage"),
        (&["table4", "--seeds", "0"], "config"),
        (&["table4", "--hours", "0"], "config"),
        (&["table4", "--hours", &overflowing_hours], "usage"),
        (&["table4", "--max-retries", "1"], "usage"),
        (&["table4", "--seed-timeout", "60"], "usage"),
        (&["markov", "--seeds", "0"], "config"),
        (&["markov", "--hours", &overflowing_hours], "usage"),
    ];
    for (args, code) in cases {
        let owned: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
        let err = run_cli(&owned).expect_err("degenerate input must fail");
        assert_eq!(err.code(), code, "{args:?}: {err}");
        assert_eq!(err.exit_code(), 2, "{args:?}");

        let out = btpan(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
        assert!(
            stderr.starts_with(&format!("{code} error:")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn stream_json_is_byte_identical_across_runs() {
    let trace = temp_path("stream_trace.jsonl");
    let trace_arg = trace.to_str().expect("utf8 temp path");
    let exported = btpan(&[
        "campaign", "--hours", "48", "--seed", "7", "--export", trace_arg,
    ]);
    assert_eq!(exported.status.code(), Some(0), "{exported:?}");
    let run = || btpan(&["stream", trace_arg, "--shards", "2", "--json"]);
    let (first, second) = (run(), run());
    assert_eq!(first.status.code(), Some(0), "{first:?}");
    let stdout = String::from_utf8(first.stdout).expect("utf8 stdout");
    assert!(stdout.contains("peak_resident_records"), "{stdout}");
    assert_eq!(
        stdout.as_bytes(),
        second.stdout.as_slice(),
        "peak residency included"
    );
    std::fs::remove_file(&trace).ok();
}

/// Runs `btpan` like [`btpan`], but kills it and fails once `limit` has
/// passed, so a super-linear regression fails instead of hanging.
fn btpan_within(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_btpan"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("btpan binary runs");
    let start = Instant::now();
    while child.try_wait().expect("btpan waits").is_none() {
        if start.elapsed() > limit {
            child.kill().ok();
            child.wait().ok();
            panic!("`btpan {}` took longer than {limit:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("btpan output")
}

#[test]
fn a_multi_megabyte_message_decodes_in_linear_time() {
    // One record whose message is 4 MB of text with a two-byte char
    // and an escape in every 16 bytes. Decoding used to re-scan the
    // rest of the line per character: minutes for this one line.
    let message = "SDP é failure\\t".repeat((4 << 20) / 16);
    let line = format!(
        r#"{{"at":180917576,"node":1,"seq":24,"payload":{{"System":{{"at":180917576,"node":1,"fault":"SdpServiceUnavailable","message":"{message}"}}}}}}"#
    );
    let trace = temp_path("long_message.jsonl");
    std::fs::write(&trace, format!("{line}\n")).expect("trace written");
    let trace_arg = trace.to_str().expect("utf8 temp path");
    for (args, records_key) in [
        (["analyze", trace_arg, "--json"], "records"),
        (["stream", trace_arg, "--json"], "records_emitted"),
    ] {
        let out = btpan_within(&args, Duration::from_secs(60));
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
        let envelope: Value = serde_json::from_str(stdout.trim()).expect("envelope parses");
        let records = envelope.get("data").and_then(|d| d.get(records_key));
        assert_eq!(
            records.and_then(Value::as_u64),
            Some(1),
            "{args:?}: {stdout}"
        );
    }
    std::fs::remove_file(&trace).ok();
}

/// Nesting far past the JSON parser's depth limit (128, as in
/// serde_json) is a bad line or a bad file, never a stack overflow:
/// every command exits with its typed status, not SIGABRT (134).
#[test]
fn deeply_nested_json_is_rejected_not_a_stack_overflow() {
    let good = temp_path("nest_good.jsonl");
    let good_arg = good.to_str().expect("utf8 temp path");
    let exported = btpan(&[
        "campaign", "--hours", "6", "--seed", "9", "--export", good_arg,
    ]);
    assert_eq!(exported.status.code(), Some(0), "{exported:?}");
    let good_lines: Vec<String> = std::fs::read_to_string(&good)
        .expect("trace written")
        .lines()
        .map(str::to_string)
        .collect();
    let deep_line = "[".repeat(200_000);

    let deep = temp_path("nest_deep.jsonl");
    std::fs::write(&deep, format!("{deep_line}\n")).expect("trace written");
    let deep_arg = deep.to_str().expect("utf8 temp path");
    let out = btpan(&["analyze", deep_arg]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(
        stderr.starts_with("trace error: malformed trace line 1: recursion limit exceeded"),
        "{stderr}"
    );
    let out = btpan(&["stream", deep_arg, "--json"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let envelope: Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).expect("envelope");
    let status = envelope.get("health").and_then(|h| h.get("status"));
    assert_eq!(status.and_then(Value::as_str), Some("quarantine"));

    // Lenient import quarantines the deep line and keeps every good one.
    let mixed = temp_path("nest_mixed.jsonl");
    let mut lines = good_lines.clone();
    lines.insert(3, deep_line);
    std::fs::write(&mixed, lines.join("\n") + "\n").expect("trace written");
    let mixed_arg = mixed.to_str().expect("utf8 temp path");
    let out = btpan(&["analyze", mixed_arg, "--lenient-import", "--json"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let envelope: Value =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).expect("envelope");
    let quarantine = envelope.get("data").and_then(|d| d.get("quarantine"));
    let count = |key: &str| quarantine.and_then(|q| q.get(key)).and_then(Value::as_u64);
    assert_eq!(count("quarantined"), Some(1), "{envelope:?}");
    assert_eq!(count("imported"), Some(good_lines.len() as u64));

    // A topology file nested 100 000 objects deep is a ConfigError.
    let nested = "{\"piconets\":".repeat(100_000);
    let err = Topology::from_json(&nested).expect_err("deep topology rejected");
    assert_eq!(err.field, "topology", "{err}");
    assert!(err.reason.contains("recursion limit exceeded"), "{err}");
    let topo = temp_path("nest_topology.json");
    std::fs::write(&topo, &nested).expect("topology written");
    let topo_arg = topo.to_str().expect("utf8 temp path");
    let out = btpan(&["campaign", "--hours", "1", "--topology", topo_arg]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(
        stderr.contains("invalid config field `topology`: malformed JSON: recursion limit"),
        "{stderr}"
    );

    for path in [good, deep, mixed, topo] {
        std::fs::remove_file(path).ok();
    }
}
