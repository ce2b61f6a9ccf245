//! End-to-end checks of the `btpan` binary: what a run writes to disk
//! and how it rejects degenerate input. Each case runs the real binary
//! in its own process, so exit statuses are the ones scripts see.

use btpan::cli::run_cli;
use btpan::prelude::*;
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

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
    let envelope = serde_json::value_from_str(stdout.trim()).expect("envelope parses");
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
