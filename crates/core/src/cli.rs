//! Command-line interface logic (the `btpan` binary).
//!
//! Subcommands:
//!
//! * `campaign` — run one campaign and print its headline numbers;
//!   `--export PATH` writes the collected logs as a JSONL failure trace;
//! * `analyze PATH` — import a trace and run merge-and-coalesce on it,
//!   printing the error–failure relationship summary; `--lenient-import`
//!   quarantines undecodable lines instead of aborting;
//! * `table4` — the four-policy dependability comparison, pooled over
//!   `--seeds` campaigns run on [`crate::runner::run_seeds`]'s pool;
//! * `stream` — tail a JSONL trace through the `btpan-stream` engine
//!   and print live Table-2/Table-4 snapshots, with optional
//!   checkpoint/resume;
//! * `metrics` — render the observability registry ([`btpan_obs`]) as a
//!   JSON envelope or Prometheus text, live or from a `--metrics-out`
//!   file;
//! * `markov` — fit and print the analytic availability model.
//!
//! All parsing and execution lives here (returning the output as a
//! string) so it is unit-testable; the binary is a thin wrapper. Each
//! command accepts exactly the flags it reads (the [`USAGE`] text lists
//! them); any other `--flag` is a usage error rather than being
//! silently ignored.
//!
//! Every `--json` output is wrapped in one envelope (schema documented
//! in the README): `{"schema_version":…,"command":…,"data":…,
//! "health":{"status":…,"exit_code":…}}`, so scripts can dispatch on
//! `command` and gate on `health` without per-command parsers.
//!
//! Exit codes: `0` success, `2` usage/I-O/parse error,
//! [`EXIT_QUARANTINE`] (`3`) when the run succeeded but the trace was
//! unhealthy (lenient-import or streaming quarantine non-empty) — so CI
//! scripts can gate on trace health.

use crate::campaign::{Campaign, CampaignConfig};
use crate::experiment::{self, Scale};
use crate::machine::NAP_NODE_ID;
use crate::topology::Topology;
use btpan_collect::entry::LogRecord;
use btpan_collect::relate::RelationshipMatrix;
use btpan_collect::trace::{
    export_trace, import_trace, import_trace_lenient, repository_from_records, QuarantineReport,
};
use btpan_faults::{CauseSite, SystemComponent, UserFailure};
use btpan_obs::{BucketSnapshot, EventRecord, HistogramSnapshot, Registry, Snapshot};
use btpan_recovery::RecoveryPolicy;
use btpan_sim::config::ConfigError;
use btpan_sim::time::SimDuration;
use btpan_stream::{Checkpoint, LineFramer, StreamConfig, StreamEngine, StreamSnapshot};
use btpan_workload::WorkloadKind;
use serde::{Number, Serialize, Value};
use std::io::{Read as _, Seek as _, SeekFrom};

/// Exit code for "the command succeeded, but records were quarantined"
/// (`analyze --lenient-import` or `stream` on an unhealthy trace).
pub const EXIT_QUARANTINE: i32 = 3;

/// Version of the `--json` output envelope; bump on breaking changes to
/// the envelope itself (each command's `data` payload evolves with its
/// own compatibility rules).
pub const JSON_SCHEMA_VERSION: u64 = 1;

/// Wraps one command's JSON payload in the uniform envelope. `status`
/// is the process exit status the run will report; it doubles as the
/// machine-readable health verdict (`0` → `"ok"`, [`EXIT_QUARANTINE`] →
/// `"quarantine"`).
fn json_envelope(command: &str, data: Value, status: i32) -> String {
    let health_status = if status == EXIT_QUARANTINE {
        "quarantine"
    } else {
        "ok"
    };
    let envelope = Value::Object(vec![
        (
            "schema_version".into(),
            Value::Number(Number::U64(JSON_SCHEMA_VERSION)),
        ),
        ("command".into(), Value::String(command.into())),
        ("data".into(), data),
        (
            "health".into(),
            Value::Object(vec![
                ("status".into(), Value::String(health_status.into())),
                (
                    "exit_code".into(),
                    Value::Number(Number::I64(status.into())),
                ),
            ]),
        ),
    ]);
    format!("{envelope}\n")
}

/// CLI errors: an alias of the workspace-level [`crate::error::Error`].
/// Historical `CliError::Usage(..)` constructors and patterns keep
/// working; the binary derives its exit status from
/// [`Error::exit_code`](crate::error::Error::exit_code).
pub type CliError = crate::error::Error;

/// The usage text.
pub const USAGE: &str = "btpan — Bluetooth PAN failure-data toolbench

USAGE:
  btpan campaign [--workload random|realistic] [--policy reboot|app-reboot|siras|siras-masking]
                 [--topology paper-a|paper-b|paper-both|scatternet|FILE.json]
                 [--hours H] [--seed S] [--export PATH] [--metrics-out PATH] [--json]
  btpan analyze PATH [--window SECS] [--lenient-import] [--json]
  btpan stream PATH [--window SECS] [--lag SECS] [--shards N] [--snapshot-every N]
               [--follow] [--poll-ms MS] [--idle-exit POLLS] [--idle-timeout-ms MS]
               [--checkpoint PATH] [--resume PATH] [--json]
               [--metrics-out PATH] [--metrics-every SECS]
  btpan table4 [--seeds N] [--hours H] [--json]
  btpan metrics [--from PATH] [--prometheus | --json]
  btpan markov [--seeds N] [--hours H]
  btpan model
  btpan help";

/// The flags each command reads, as `(command, valued, switches)`:
/// a valued flag takes the next argument as its value, a switch stands
/// alone. [`USAGE`] documents exactly these.
const COMMAND_FLAGS: &[(&str, &[&str], &[&str])] = &[
    (
        "campaign",
        &[
            "--workload",
            "--policy",
            "--topology",
            "--hours",
            "--seed",
            "--export",
            "--metrics-out",
        ],
        &["--json"],
    ),
    ("analyze", &["--window"], &["--lenient-import", "--json"]),
    (
        "stream",
        &[
            "--window",
            "--lag",
            "--shards",
            "--snapshot-every",
            "--poll-ms",
            "--idle-exit",
            "--idle-timeout-ms",
            "--checkpoint",
            "--resume",
            "--metrics-out",
            "--metrics-every",
        ],
        &["--follow", "--json"],
    ),
    ("table4", &["--seeds", "--hours"], &["--json"]),
    ("metrics", &["--from"], &["--prometheus", "--json"]),
    ("markov", &["--seeds", "--hours"], &[]),
    ("model", &[], &[]),
];

/// Rejects any `--flag` in `args` (a command's arguments, positional
/// `PATH` included) that `command` does not read. The argument after a
/// valued flag is its value, never a flag of its own.
fn reject_unread_flags(command: &str, args: &[String]) -> Result<(), CliError> {
    let Some(&(_, valued, switches)) = COMMAND_FLAGS.iter().find(|(c, _, _)| *c == command) else {
        return Ok(());
    };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            rest.next();
        } else if arg.starts_with("--") && !switches.contains(&arg.as_str()) {
            return Err(CliError::Usage(format!(
                "`{command}` does not take `{arg}`"
            )));
        }
    }
    Ok(())
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_u64(args: &[String], flag: &str, default: u64) -> Result<u64, CliError> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("{flag} expects an integer, got `{v}`"))),
    }
}

fn parse_workload(args: &[String]) -> Result<WorkloadKind, CliError> {
    match flag_value(args, "--workload") {
        None | Some("random") => Ok(WorkloadKind::Random),
        Some("realistic") => Ok(WorkloadKind::Realistic),
        Some(other) => Err(CliError::Usage(format!("unknown workload `{other}`"))),
    }
}

fn parse_policy(args: &[String]) -> Result<RecoveryPolicy, CliError> {
    match flag_value(args, "--policy") {
        None | Some("siras") => Ok(RecoveryPolicy::Siras),
        Some("reboot") => Ok(RecoveryPolicy::RebootOnly),
        Some("app-reboot") => Ok(RecoveryPolicy::AppRestartThenReboot),
        Some("siras-masking") => Ok(RecoveryPolicy::SirasAndMasking),
        Some(other) => Err(CliError::Usage(format!("unknown policy `{other}`"))),
    }
}

/// Parses `--hours` into a simulated duration. A value whose seconds
/// overflow `u64` is a usage error rather than a silent wrap.
fn parse_hours(args: &[String], default: u64) -> Result<(u64, SimDuration), CliError> {
    let hours = parse_u64(args, "--hours", default)?;
    let secs = hours
        .checked_mul(3600)
        .ok_or_else(|| CliError::Usage(format!("--hours {hours} overflows the simulated clock")))?;
    Ok((hours, SimDuration::from_secs(secs)))
}

fn scale_from(args: &[String]) -> Result<Scale, CliError> {
    let seeds = parse_u64(args, "--seeds", 2)?;
    let (_, duration) = parse_hours(args, 24)?;
    if seeds == 0 {
        return Err(ConfigError::new("seeds", "must be at least 1").into());
    }
    if duration.as_micros() == 0 {
        return Err(ConfigError::new("duration", "must be positive").into());
    }
    Ok(Scale {
        seeds: (1..=seeds).map(|k| k * 7).collect(),
        duration,
    })
}

/// A CLI result: the text to print plus the process exit status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOutcome {
    /// Text for stdout.
    pub output: String,
    /// Process exit status (`0` ok, [`EXIT_QUARANTINE`] on an unhealthy
    /// trace).
    pub status: i32,
}

impl CliOutcome {
    fn ok(output: String) -> Self {
        CliOutcome { output, status: 0 }
    }
}

/// Runs the CLI and returns its output text and exit status.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands, bad flags, or I/O
/// problems.
pub fn run_cli(args: &[String]) -> Result<CliOutcome, CliError> {
    if let Some((command, rest)) = args.split_first() {
        reject_unread_flags(command, rest)?;
    }
    match args.first().map(String::as_str) {
        Some("campaign") => cmd_campaign(&args[1..]).map(CliOutcome::ok),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("table4") => cmd_table4(&args[1..]).map(CliOutcome::ok),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("markov") => cmd_markov(&args[1..]).map(CliOutcome::ok),
        Some("model") => Ok(CliOutcome::ok(render_failure_model())),
        Some("help") | None => Ok(CliOutcome::ok(USAGE.to_string())),
        Some(other) => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Runs the CLI and returns only its output text (exit status
/// discarded); see [`run_cli`].
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands, bad flags, or I/O
/// problems.
pub fn run(args: &[String]) -> Result<String, CliError> {
    run_cli(args).map(|outcome| outcome.output)
}

/// Turns the global registry on (resetting it so the snapshot is scoped
/// to this run) and returns the prior enabled state for [`restore`].
///
/// [`restore`]: restore_metrics
fn activate_metrics() -> bool {
    let prior = Registry::global().set_enabled(true);
    Registry::global().reset();
    prior
}

fn restore_metrics(prior: bool) {
    Registry::global().set_enabled(prior);
}

/// Resolves `--topology`: a preset name or a JSON file path.
fn parse_topology(args: &[String]) -> Result<Option<Topology>, CliError> {
    let Some(spec) = flag_value(args, "--topology") else {
        return Ok(None);
    };
    if let Some(preset) = Topology::preset(spec) {
        return Ok(Some(preset));
    }
    let text = std::fs::read_to_string(spec)?;
    Topology::from_json(&text)
        .map(Some)
        .map_err(|e| CliError::Usage(format!("--topology {spec}: {e}")))
}

fn cmd_campaign(args: &[String]) -> Result<String, CliError> {
    let workload = parse_workload(args)?;
    let policy = parse_policy(args)?;
    let (hours, duration) = parse_hours(args, 12)?;
    let seed = parse_u64(args, "--seed", 42)?;
    // --topology overrides --workload (the topology names each
    // piconet's workload itself).
    let mut builder = CampaignConfig::builder(seed, workload, policy).duration(duration);
    if let Some(topo) = parse_topology(args)? {
        builder = builder.topology(topo);
    }
    let config = builder.build()?;
    let metrics_out = flag_value(args, "--metrics-out");
    let prior_metrics = metrics_out.is_some().then(activate_metrics);
    let topology = std::sync::Arc::clone(&config.topology);
    let result = Campaign::new(config).run();
    let series = result.piconet_series();
    let mttf = series.ttf_stats().mean().unwrap_or(f64::INFINITY);
    let mttr = series.ttr_stats().mean().unwrap_or(0.0);
    let mut exported = None;
    if let Some(path) = flag_value(args, "--export") {
        let trace = export_trace(&result.repository);
        std::fs::write(path, &trace)?;
        exported = Some((path, trace.lines().count()));
    }
    if let Some(path) = metrics_out {
        let write_result = std::fs::write(path, Registry::global().snapshot().to_json());
        restore_metrics(prior_metrics.unwrap_or(false));
        write_result?;
    }
    if has_flag(args, "--json") {
        let piconets = result
            .piconets
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("id".into(), Value::Number(Number::U64(p.piconet_id))),
                    ("label".into(), Value::String(p.label.clone())),
                    (
                        "workload".into(),
                        Value::String(format!("{:?}", p.workload)),
                    ),
                    ("master".into(), Value::Number(Number::U64(p.master))),
                    (
                        "panus".into(),
                        Value::Array(
                            p.panus
                                .iter()
                                .map(|&n| Value::Number(Number::U64(n)))
                                .collect(),
                        ),
                    ),
                    (
                        "failures".into(),
                        Value::Number(Number::U64(p.failure_count)),
                    ),
                    ("masked".into(), Value::Number(Number::U64(p.masked_count))),
                    ("cycles".into(), Value::Number(Number::U64(p.cycles_run))),
                ])
            })
            .collect();
        let data = Value::Object(vec![
            ("topology".into(), topology.to_value()),
            ("seed".into(), Value::Number(Number::U64(seed))),
            ("hours".into(), Value::Number(Number::U64(hours))),
            (
                "cycles".into(),
                Value::Number(Number::U64(result.cycles_run)),
            ),
            (
                "failures".into(),
                Value::Number(Number::U64(result.failure_count)),
            ),
            (
                "masked".into(),
                Value::Number(Number::U64(result.masked_count)),
            ),
            ("mttf_s".into(), Value::Number(Number::F64(mttf))),
            ("mttr_s".into(), Value::Number(Number::F64(mttr))),
            (
                "availability".into(),
                Value::Number(Number::F64(mttf / (mttf + mttr))),
            ),
            ("piconets".into(), Value::Array(piconets)),
        ]);
        return Ok(json_envelope("campaign", data, 0));
    }
    let mut out = String::new();
    out.push_str(&format!(
        "campaign: topology {}, {policy:?} policy, seed {seed}, {hours} h\n",
        topology.name
    ));
    out.push_str(&format!("cycles:      {}\n", result.cycles_run));
    out.push_str(&format!("failures:    {}\n", result.failure_count));
    out.push_str(&format!("masked:      {}\n", result.masked_count));
    out.push_str(&format!(
        "log items:   {}\n",
        result.repository.total_count()
    ));
    if result.piconets.len() > 1 {
        for p in &result.piconets {
            out.push_str(&format!(
                "  piconet {} ({}, {:?} WL): {} failures, {} cycles\n",
                p.piconet_id, p.label, p.workload, p.failure_count, p.cycles_run
            ));
        }
    }
    out.push_str(&format!("piconet MTTF: {mttf:.1} s, MTTR: {mttr:.1} s\n"));
    out.push_str(&format!("availability: {:.4}\n", mttf / (mttf + mttr)));
    if let Some((path, records)) = exported {
        out.push_str(&format!("exported {records} records to {path}\n"));
    }
    if let Some(path) = metrics_out {
        out.push_str(&format!("metrics written to {path}\n"));
    }
    Ok(out)
}

/// One row of the analyze report: a failure class with its dominant
/// related system error.
#[derive(Debug, Clone, Serialize)]
struct AnalyzeRow {
    failure: String,
    n: u64,
    dominant: String,
    percent: f64,
}

/// Quarantine counts as they appear in the `--json` report.
#[derive(Debug, Clone, Serialize)]
struct QuarantineCounts {
    total_lines: usize,
    imported: usize,
    quarantined: usize,
}

impl QuarantineCounts {
    fn from_report(report: &QuarantineReport) -> Self {
        QuarantineCounts {
            total_lines: report.total_lines,
            imported: report.imported,
            quarantined: report.quarantined.len(),
        }
    }
}

/// The `analyze --json` report.
#[derive(Debug, Clone, Serialize)]
struct AnalyzeReport {
    records: usize,
    related_failures: u64,
    window_s: u64,
    quarantine: Option<QuarantineCounts>,
    rows: Vec<AnalyzeRow>,
}

fn matrix_rows(m: &RelationshipMatrix) -> Vec<AnalyzeRow> {
    let mut rows = Vec::new();
    for f in UserFailure::ALL {
        if m.total(f) == 0 {
            continue;
        }
        let mut best = ("none".to_string(), m.percent_none(f));
        for c in SystemComponent::ALL {
            for site in [CauseSite::Local, CauseSite::Nap] {
                let p = m.percent(f, c, site);
                if p > best.1 {
                    best = (format!("{c} ({site})"), p);
                }
            }
        }
        rows.push(AnalyzeRow {
            failure: f.label().to_string(),
            n: m.total(f),
            dominant: best.0,
            percent: best.1,
        });
    }
    rows
}

fn render_matrix_rows(m: &RelationshipMatrix, out: &mut String) {
    for row in matrix_rows(m) {
        out.push_str(&format!(
            "{:<24} n={:<5} dominant: {} {:.1}%\n",
            row.failure, row.n, row.dominant, row.percent
        ));
    }
}

fn cmd_analyze(args: &[String]) -> Result<CliOutcome, CliError> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage("analyze needs a trace path".into()))?;
    let window = parse_u64(&args[1..], "--window", 330)?;
    let text = std::fs::read_to_string(path)?;
    let mut quarantine = None;
    let records = if has_flag(args, "--lenient-import") {
        let (records, report) = import_trace_lenient(&text);
        quarantine = Some(report);
        records
    } else {
        import_trace(&text).map_err(CliError::Trace)?
    };
    let repo = repository_from_records(&records);
    let nap_records = repo.system_records_of(NAP_NODE_ID);
    let streams: Vec<_> = repo
        .reporting_nodes()
        .into_iter()
        .map(|n| (n, repo.records_of(n)))
        .collect();
    let m = RelationshipMatrix::from_node_logs(
        &streams,
        &nap_records,
        NAP_NODE_ID,
        SimDuration::from_secs(window),
    );
    let unhealthy = quarantine.as_ref().is_some_and(|r| !r.is_clean());
    let status = if unhealthy { EXIT_QUARANTINE } else { 0 };
    if has_flag(args, "--json") {
        let report = AnalyzeReport {
            records: records.len(),
            related_failures: m.grand_total(),
            window_s: window,
            quarantine: quarantine.as_ref().map(QuarantineCounts::from_report),
            rows: matrix_rows(&m),
        };
        return Ok(CliOutcome {
            output: json_envelope("analyze", report.to_value(), status),
            status,
        });
    }
    let mut out = format!(
        "{} records, {} related failures (window {window} s)\n",
        records.len(),
        m.grand_total()
    );
    if let Some(report) = quarantine.as_ref().filter(|r| !r.is_clean()) {
        out.push_str(&format!("quarantine: {report}\n"));
        for (line, reason) in &report.quarantined {
            out.push_str(&format!("  line {line}: {reason}\n"));
        }
    }
    render_matrix_rows(&m, &mut out);
    Ok(CliOutcome {
        output: out,
        status,
    })
}

/// Renders a live Table-2/Table-4 view of a streaming snapshot.
fn render_stream_snapshot(snap: &StreamSnapshot, label: &str) -> String {
    let mut out = format!(
        "stream snapshot [{label}]: {} records emitted, watermark {}\n",
        snap.records_emitted,
        snap.watermark_us
            .map_or_else(|| "-".to_string(), |us| format!("{:.1} s", us as f64 / 1e6)),
    );
    out.push_str(&format!(
        "  table4: episodes {}  MTTF {:.1} s  MTTR {:.1} s  availability {:.4}\n",
        snap.episodes, snap.mttf_s, snap.mttr_s, snap.availability
    ));
    out.push_str(&format!(
        "  transport: late quarantined {}, duplicates dropped {}, resident {} (peak {})\n",
        snap.late_quarantined,
        snap.duplicates_dropped,
        snap.resident_records,
        snap.peak_resident_records
    ));
    if !snap.loss_by_packet_type.is_empty() {
        out.push_str("  packet loss:");
        for (packet_type, n) in &snap.loss_by_packet_type {
            out.push_str(&format!(" {packet_type}={n}"));
        }
        out.push('\n');
    }
    let matrix = snap.matrix();
    if matrix.grand_total() > 0 {
        out.push_str("  table2:\n");
        let mut rows = String::new();
        render_matrix_rows(&matrix, &mut rows);
        for line in rows.lines() {
            out.push_str(&format!("    {line}\n"));
        }
    }
    out
}

#[allow(clippy::too_many_lines)]
fn cmd_stream(args: &[String]) -> Result<CliOutcome, CliError> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage("stream needs a trace path".into()))?;
    let flags = &args[1..];
    let window = parse_u64(flags, "--window", 330)?;
    let lag = parse_u64(flags, "--lag", 2 * window)?;
    let shards = parse_u64(flags, "--shards", 4)?.max(1) as usize;
    let snapshot_every = parse_u64(flags, "--snapshot-every", 0)?;
    let idle_timeout_ms = parse_u64(flags, "--idle-timeout-ms", 0)?;
    let follow = has_flag(args, "--follow");
    let poll_ms = parse_u64(flags, "--poll-ms", 200)?;
    let idle_exit = parse_u64(flags, "--idle-exit", 10)?.max(1);
    let json = has_flag(args, "--json");
    let checkpoint_path = flag_value(flags, "--checkpoint");
    let metrics_out = flag_value(flags, "--metrics-out");
    let metrics_every = parse_u64(flags, "--metrics-every", 0)?;
    let prior_metrics = (metrics_out.is_some() || metrics_every > 0).then(activate_metrics);

    let mut engine = match flag_value(flags, "--resume") {
        Some(cp_path) => {
            let text = std::fs::read_to_string(cp_path)?;
            let cp = Checkpoint::from_json(&text)
                .map_err(|e| CliError::Checkpoint(format!("{cp_path}: {e}")))?;
            StreamEngine::resume(cp)
        }
        None => StreamEngine::start(StreamConfig {
            shards,
            channel_capacity: 1024,
            window: SimDuration::from_secs(window),
            watermark_lag: SimDuration::from_secs(lag),
            idle_timeout_ms: (idle_timeout_ms > 0).then_some(idle_timeout_ms),
            nap_node: NAP_NODE_ID,
            keep_tuples: false,
            group_of: None,
        }),
    };
    let skip = engine.ingested();

    let mut out = String::new();
    let mut parse_errors = 0u64;
    let mut seen = 0u64;
    let mut framer = LineFramer::new();
    let mut file = std::fs::File::open(path)?;
    let mut pos = 0u64;
    let mut idle_polls = 0u64;
    let write_checkpoint = |engine: &StreamEngine| -> Result<(), CliError> {
        if let Some(cp_path) = checkpoint_path {
            std::fs::write(cp_path, engine.checkpoint().to_json())?;
        }
        Ok(())
    };
    let mut process =
        |engine: &mut StreamEngine, out: &mut String, line: &str| -> Result<(), CliError> {
            if line.trim().is_empty() {
                return Ok(());
            }
            let Ok(rec) = serde_json::from_str::<LogRecord>(line) else {
                parse_errors += 1;
                return Ok(());
            };
            seen += 1;
            if seen <= skip {
                return Ok(()); // already covered by the resumed checkpoint
            }
            let Ok(()) = engine.ingest(rec);
            if snapshot_every > 0 && engine.ingested().is_multiple_of(snapshot_every) {
                if !json {
                    out.push_str(&render_stream_snapshot(
                        &engine.snapshot(),
                        &format!("{} ingested", engine.ingested()),
                    ));
                }
                if let Some(cp_path) = checkpoint_path {
                    std::fs::write(cp_path, engine.checkpoint().to_json())?;
                }
            }
            Ok(())
        };
    let mut last_metrics = std::time::Instant::now();
    loop {
        if metrics_every > 0 && last_metrics.elapsed().as_secs() >= metrics_every {
            out.push_str(&Registry::global().snapshot().to_json());
            out.push('\n');
            last_metrics = std::time::Instant::now();
        }
        file.seek(SeekFrom::Start(pos))?;
        let mut chunk = String::new();
        file.read_to_string(&mut chunk)?;
        pos += chunk.len() as u64;
        if chunk.is_empty() {
            if !follow {
                break;
            }
            idle_polls += 1;
            if idle_polls >= idle_exit {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(poll_ms));
            continue;
        }
        idle_polls = 0;
        // Borrow completed lines straight out of the chunk; only a line
        // split across reads touches the framer's internal buffer.
        let mut line_err: Result<(), CliError> = Ok(());
        framer.push_lines(&chunk, |line| {
            if line_err.is_ok() {
                line_err = process(&mut engine, &mut out, line);
            }
        });
        line_err?;
    }
    if let Some(last) = framer.finish() {
        process(&mut engine, &mut out, &last)?;
    }
    write_checkpoint(&engine)?;
    let outcome = engine.finish();
    let snap = &outcome.snapshot;
    if let Some(mp) = metrics_out {
        // Snapshot after finish() so the final flush is included.
        std::fs::write(mp, Registry::global().snapshot().to_json())?;
    }
    if let Some(prior) = prior_metrics {
        restore_metrics(prior);
    }
    let unhealthy = parse_errors > 0 || snap.late_quarantined > 0;
    let status = if unhealthy { EXIT_QUARANTINE } else { 0 };
    if json {
        out.push_str(&json_envelope("stream", snap.to_value(), status));
    } else {
        out.push_str(&render_stream_snapshot(snap, "end of stream"));
        if parse_errors > 0 || !outcome.quarantine.is_clean() {
            out.push_str(&format!(
                "trace health: {parse_errors} undecodable lines, {} late records quarantined\n",
                snap.late_quarantined
            ));
        }
    }
    Ok(CliOutcome {
        output: out,
        status,
    })
}

fn cmd_table4(args: &[String]) -> Result<String, CliError> {
    let scale = scale_from(args)?;
    let report = experiment::table4(&scale);
    if has_flag(args, "--json") {
        let scenarios = report
            .scenarios
            .iter()
            .map(|(label, m)| {
                Value::Object(vec![
                    ("label".into(), Value::String(label.clone())),
                    ("mttf_s".into(), Value::Number(Number::F64(m.mttf_s))),
                    ("mttr_s".into(), Value::Number(Number::F64(m.mttr_s))),
                    (
                        "availability".into(),
                        Value::Number(Number::F64(m.availability)),
                    ),
                    (
                        "coverage_percent".into(),
                        Value::Number(Number::F64(m.coverage_percent)),
                    ),
                    (
                        "masking_percent".into(),
                        Value::Number(Number::F64(m.masking_percent)),
                    ),
                ])
            })
            .collect();
        // `mode` has a single value; it stays so the envelope's `data`
        // keeps the shape scripts already parse.
        let data = Value::Object(vec![
            ("mode".into(), Value::String("plain".into())),
            ("scenarios".into(), Value::Array(scenarios)),
        ]);
        return Ok(json_envelope("table4", data, 0));
    }
    let mut out = format!(
        "{:<26} {:>9} {:>9} {:>7} {:>7} {:>7}\n",
        "scenario", "MTTF", "MTTR", "avail", "cov%", "mask%"
    );
    for (label, m) in &report.scenarios {
        out.push_str(&format!(
            "{label:<26} {:>9.1} {:>9.1} {:>7.3} {:>7.1} {:>7.1}\n",
            m.mttf_s, m.mttr_s, m.availability, m.coverage_percent, m.masking_percent
        ));
    }
    Ok(out)
}

/// Rebuilds a [`Snapshot`] from the canonical JSON that
/// [`Snapshot::to_json`] (and `--metrics-out`) writes, via the
/// snapshot's public fields.
fn snapshot_from_json(text: &str) -> Result<Snapshot, String> {
    fn entries<'a>(v: &'a Value, key: &str) -> Result<&'a [(String, Value)], String> {
        match v.get(key) {
            Some(Value::Object(entries)) => Ok(entries),
            _ => Err(format!("missing object field `{key}`")),
        }
    }
    fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing u64 field `{key}`"))
    }
    fn opt_u64_field(v: &Value, key: &str) -> Result<Option<u64>, String> {
        match v.get(key) {
            Some(Value::Null) => Ok(None),
            Some(n) => n
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("field `{key}` is not a u64")),
            None => Err(format!("missing field `{key}`")),
        }
    }
    let v = serde_json::from_str::<Value>(text.trim()).map_err(|e| e.to_string())?;
    let schema_version = u64_field(&v, "schema_version")?;
    if schema_version != u64::from(btpan_obs::SNAPSHOT_SCHEMA_VERSION) {
        return Err(format!("unsupported snapshot schema {schema_version}"));
    }
    let counters = entries(&v, "counters")?
        .iter()
        .map(|(k, n)| {
            n.as_u64()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("counter `{k}` is not a u64"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let gauges = entries(&v, "gauges")?
        .iter()
        .map(|(k, n)| {
            n.as_i64()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("gauge `{k}` is not an i64"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let histograms = entries(&v, "histograms")?
        .iter()
        .map(|(k, h)| {
            let buckets = match h.get("buckets") {
                Some(Value::Array(buckets)) => buckets
                    .iter()
                    .map(|b| {
                        Ok(BucketSnapshot {
                            le: u64_field(b, "le")?,
                            count: u64_field(b, "count")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                _ => return Err(format!("histogram `{k}` has no bucket array")),
            };
            Ok((
                k.clone(),
                HistogramSnapshot {
                    count: u64_field(h, "count")?,
                    sum: u64_field(h, "sum")?,
                    min: opt_u64_field(h, "min")?,
                    max: opt_u64_field(h, "max")?,
                    buckets,
                },
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let events = match v.get("events") {
        Some(Value::Array(events)) => events
            .iter()
            .map(|e| {
                let field = |key: &str| {
                    e.get(key)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("event without string `{key}`"))
                };
                Ok(EventRecord {
                    seq: u64_field(e, "seq")?,
                    name: field("name")?,
                    detail: field("detail")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("missing event array".into()),
    };
    Ok(Snapshot {
        schema_version: btpan_obs::SNAPSHOT_SCHEMA_VERSION,
        counters,
        gauges,
        histograms,
        events,
        events_dropped: u64_field(&v, "events_dropped")?,
    })
}

/// `btpan metrics` — renders the process-global registry (or a snapshot
/// file written by `--metrics-out`) as the JSON envelope (default) or
/// Prometheus text exposition (`--prometheus`).
fn cmd_metrics(args: &[String]) -> Result<CliOutcome, CliError> {
    let snapshot = match flag_value(args, "--from") {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            snapshot_from_json(&text)
                .map_err(|reason| CliError::Usage(format!("--from {path}: {reason}")))?
        }
        None => Registry::global().snapshot(),
    };
    if has_flag(args, "--prometheus") {
        return Ok(CliOutcome::ok(snapshot.to_prometheus()));
    }
    let data = serde_json::from_str::<Value>(&snapshot.to_json()).expect("snapshot JSON parses");
    Ok(CliOutcome::ok(json_envelope("metrics", data, 0)))
}

fn cmd_markov(args: &[String]) -> Result<String, CliError> {
    let scale = scale_from(args)?;
    let (model, measured) = experiment::markov_validation(&scale);
    let mut out = format!(
        "analytic availability {:.4} vs measured {measured:.4}\n",
        model.availability()
    );
    for (f, share) in model.downtime_ranking() {
        out.push_str(&format!("{:<24} downtime share {share:.5}\n", f.label()));
    }
    Ok(out)
}

/// Renders the full Bluetooth PAN failure model (paper Table 1 plus the
/// reconstructed Table 2/3 profiles) as Markdown — the reference a
/// downstream dependability engineer would pin to the wall.
pub fn render_failure_model() -> String {
    use btpan_faults::profiles::{cause_profile, SiraProfiles, FAILURE_MIX};
    use btpan_faults::{FailureGroup, Sira, SystemFault};
    let mut out = String::from("# Bluetooth PAN failure model\n");
    for group in [
        FailureGroup::Search,
        FailureGroup::Connect,
        FailureGroup::DataTransfer,
    ] {
        out.push_str(&format!("\n## {group:?} phase\n\n"));
        for f in UserFailure::ALL.iter().filter(|f| f.group() == group) {
            out.push_str(&format!(
                "### {} ({:.1} % of failures)\n\n",
                f.label(),
                FAILURE_MIX[f.index()]
            ));
            let profile = cause_profile(*f);
            if profile.causes().is_empty() {
                out.push_str("- no related system-level evidence (paper: none found)\n");
            } else {
                for c in profile.causes() {
                    out.push_str(&format!(
                        "- {:.1} % related to {} errors ({})\n",
                        c.percent, c.component, c.site
                    ));
                }
                if profile.none_percent() > 0.0 {
                    out.push_str(&format!(
                        "- {:.1} % with no system evidence\n",
                        profile.none_percent()
                    ));
                }
            }
            match SiraProfiles::row(*f) {
                None => out.push_str("- recovery: none defined (unrecoverable)\n"),
                Some(row) => {
                    let (best_i, best) = row
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                        .expect("7 actions");
                    out.push_str(&format!(
                        "- most effective recovery: {} ({best:.1} % of cases); coverage by SIRAs 1-3: {:.1} %\n",
                        Sira::ALL[best_i].label(),
                        SiraProfiles::coverage_1_to_3(*f)
                    ));
                }
            }
        }
    }
    out.push_str("\n## System-level error types\n\n");
    for s in SystemFault::ALL {
        out.push_str(&format!("- `{}` — {}\n", s.component(), s.log_message()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_empty() {
        assert!(run(&args(&["help"])).unwrap().contains("USAGE"));
        assert!(run(&[]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_rejected() {
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn campaign_runs_and_reports() {
        let out = run(&args(&["campaign", "--hours", "2", "--seed", "3"])).unwrap();
        assert!(out.contains("piconet MTTF"));
        assert!(out.contains("cycles:"));
    }

    #[test]
    fn campaign_topology_presets() {
        let out = run(&args(&[
            "campaign",
            "--topology",
            "scatternet",
            "--hours",
            "1",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("topology scatternet"), "{out}");
        assert!(out.contains("piconet 0 (alpha"), "{out}");
        assert!(out.contains("piconet 2 (gamma"), "{out}");
        let out = run(&args(&[
            "campaign",
            "--topology",
            "paper-both",
            "--hours",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("testbed-a"), "{out}");
        assert!(out.contains("testbed-b"), "{out}");
    }

    #[test]
    fn campaign_json_envelope_echoes_topology() {
        let out = run(&args(&[
            "campaign",
            "--topology",
            "paper-a",
            "--hours",
            "1",
            "--seed",
            "5",
            "--json",
        ]))
        .unwrap();
        let v = serde_json::from_str::<Value>(&out).expect("valid JSON envelope");
        assert_eq!(
            v.get("command").and_then(Value::as_str),
            Some("campaign"),
            "{out}"
        );
        let data = v.get("data").expect("data");
        let topo = data.get("topology").expect("topology echoed");
        assert_eq!(
            topo.get("name").and_then(Value::as_str),
            Some("paper-testbed-a")
        );
        let Some(Value::Array(piconets)) = data.get("piconets") else {
            panic!("piconets array missing: {out}");
        };
        assert_eq!(piconets.len(), 1);
        assert!(data.get("availability").is_some());
    }

    #[test]
    fn campaign_topology_file_and_errors() {
        let path = std::env::temp_dir().join("btpan_cli_topology_test.json");
        let path_s = path.to_str().expect("utf8 temp path");
        std::fs::write(&path, Topology::paper_a().to_json()).unwrap();
        let out = run(&args(&["campaign", "--topology", path_s, "--hours", "1"])).unwrap();
        assert!(out.contains("topology paper-testbed-a"), "{out}");
        // Malformed file is a usage error naming the flag.
        std::fs::write(&path, "{\"piconets\": []}").unwrap();
        let err = run(&args(&["campaign", "--topology", path_s])).unwrap_err();
        assert!(err.to_string().contains("--topology"), "{err}");
        // Unknown preset that is not a file surfaces the IO error.
        let err = run(&args(&["campaign", "--topology", "no-such-preset"])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_flag_values_error() {
        let err = run(&args(&["campaign", "--hours", "soon"])).unwrap_err();
        assert!(err.to_string().contains("--hours"));
        let err = run(&args(&["campaign", "--policy", "prayer"])).unwrap_err();
        assert!(err.to_string().contains("unknown policy"));
        let err = run(&args(&["campaign", "--workload", "cats"])).unwrap_err();
        assert!(err.to_string().contains("unknown workload"));
    }

    #[test]
    fn export_then_analyze_round_trip() {
        let path = std::env::temp_dir().join("btpan_cli_trace_test.jsonl");
        let path_s = path.to_str().expect("utf8 temp path");
        let out = run(&args(&[
            "campaign", "--hours", "6", "--seed", "9", "--export", path_s,
        ]))
        .unwrap();
        assert!(out.contains("exported"));
        let out = run(&args(&["analyze", path_s])).unwrap();
        assert!(out.contains("related failures"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lenient_import_quarantines_corrupt_trace() {
        let path = std::env::temp_dir().join("btpan_cli_lenient_test.jsonl");
        let path_s = path.to_str().expect("utf8 temp path");
        run(&args(&[
            "campaign", "--hours", "6", "--seed", "9", "--export", path_s,
        ]))
        .unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.insert_str(0, "!!not a record!!\n");
        std::fs::write(&path, &text).unwrap();
        // Strict import aborts...
        let err = run(&args(&["analyze", path_s])).unwrap_err();
        assert!(matches!(err, CliError::Trace(_)));
        // ...lenient import quarantines and proceeds.
        let out = run(&args(&["analyze", path_s, "--lenient-import"])).unwrap();
        assert!(out.contains("quarantine:"), "{out}");
        assert!(out.contains("line 1:"), "{out}");
        assert!(out.contains("related failures"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lenient_import_json_report_and_exit_code() {
        let path = std::env::temp_dir().join("btpan_cli_lenient_json_test.jsonl");
        let path_s = path.to_str().expect("utf8 temp path");
        run(&args(&[
            "campaign", "--hours", "6", "--seed", "9", "--export", path_s,
        ]))
        .unwrap();
        // Healthy trace: zero quarantine, exit 0.
        let outcome = run_cli(&args(&["analyze", path_s, "--lenient-import", "--json"])).unwrap();
        assert_eq!(outcome.status, 0);
        assert!(
            outcome.output.contains("\"quarantined\":0"),
            "{}",
            outcome.output
        );
        // Corrupt one line: quarantine counts in the JSON report and the
        // distinct trace-health exit code.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.insert_str(0, "!!not a record!!\n");
        std::fs::write(&path, &text).unwrap();
        let outcome = run_cli(&args(&["analyze", path_s, "--lenient-import", "--json"])).unwrap();
        assert_eq!(outcome.status, EXIT_QUARANTINE);
        assert!(
            outcome.output.contains("\"quarantined\":1"),
            "{}",
            outcome.output
        );
        assert!(
            outcome.output.contains("\"imported\":"),
            "{}",
            outcome.output
        );
        // Prose mode gates the same way.
        let outcome = run_cli(&args(&["analyze", path_s, "--lenient-import"])).unwrap();
        assert_eq!(outcome.status, EXIT_QUARANTINE);
        // Strict import on a clean trace still exits 0.
        std::fs::write(&path, text.lines().skip(1).collect::<Vec<_>>().join("\n")).unwrap();
        let outcome = run_cli(&args(&["analyze", path_s])).unwrap();
        assert_eq!(outcome.status, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_matches_analyze_on_exported_trace() {
        let path = std::env::temp_dir().join("btpan_cli_stream_test.jsonl");
        let path_s = path.to_str().expect("utf8 temp path");
        run(&args(&[
            "campaign", "--hours", "6", "--seed", "11", "--export", path_s,
        ]))
        .unwrap();
        let outcome = run_cli(&args(&["stream", path_s])).unwrap();
        assert_eq!(outcome.status, 0, "{}", outcome.output);
        assert!(
            outcome.output.contains("end of stream"),
            "{}",
            outcome.output
        );
        assert!(outcome.output.contains("table4:"), "{}", outcome.output);
        // The streamed Table 2 rows must equal the batch analyze rows.
        let analyze = run(&args(&["analyze", path_s])).unwrap();
        for line in analyze.lines().skip(1) {
            assert!(
                outcome.output.contains(line.trim()),
                "missing batch row `{line}` in streaming output:\n{}",
                outcome.output
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_checkpoint_then_resume_skips_covered_prefix() {
        let trace = std::env::temp_dir().join("btpan_cli_stream_cp_trace.jsonl");
        let cp = std::env::temp_dir().join("btpan_cli_stream_cp.json");
        let trace_s = trace.to_str().expect("utf8 temp path");
        let cp_s = cp.to_str().expect("utf8 temp path");
        run(&args(&[
            "campaign", "--hours", "4", "--seed", "5", "--export", trace_s,
        ]))
        .unwrap();
        let first = run_cli(&args(&["stream", trace_s, "--json", "--checkpoint", cp_s])).unwrap();
        assert_eq!(first.status, 0);
        // Resume from the final checkpoint over the same trace: every
        // record is already covered, and the snapshot is unchanged.
        let resumed = run_cli(&args(&["stream", trace_s, "--json", "--resume", cp_s])).unwrap();
        assert_eq!(first.output, resumed.output);
        let err = run_cli(&args(&["stream", trace_s, "--resume", trace_s])).unwrap_err();
        assert!(matches!(err, CliError::Checkpoint(_)));
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&cp).ok();
    }

    #[test]
    fn stream_follow_quiesces_and_flags_bad_lines() {
        let path = std::env::temp_dir().join("btpan_cli_stream_follow_test.jsonl");
        let path_s = path.to_str().expect("utf8 temp path");
        run(&args(&[
            "campaign", "--hours", "4", "--seed", "7", "--export", path_s,
        ]))
        .unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("%%garbage%%\n");
        std::fs::write(&path, &text).unwrap();
        let outcome = run_cli(&args(&[
            "stream",
            path_s,
            "--follow",
            "--poll-ms",
            "10",
            "--idle-exit",
            "2",
        ]))
        .unwrap();
        assert_eq!(outcome.status, EXIT_QUARANTINE, "{}", outcome.output);
        assert!(
            outcome.output.contains("1 undecodable lines"),
            "{}",
            outcome.output
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_requires_path_and_valid_flags() {
        let err = run_cli(&args(&["stream"])).unwrap_err();
        assert!(err.to_string().contains("needs a trace path"));
        let err = run_cli(&args(&["stream", "/nonexistent/trace.jsonl"])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_command_reads() {
        let mut documented: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in USAGE.lines().skip_while(|l| *l != "USAGE:").skip(1) {
            let mut words = line.split_whitespace().peekable();
            if words.peek() == Some(&"btpan") {
                let command = words.nth(1).expect("command after `btpan`");
                documented.push((command, Vec::new()));
            }
            let (_, flags) = documented.last_mut().expect("usage starts with a command");
            flags.extend(
                words
                    .map(|w| w.trim_matches(|c: char| c == '[' || c == ']'))
                    .filter(|w| w.starts_with("--")),
            );
        }
        for &(command, valued, switches) in COMMAND_FLAGS {
            let mut read: Vec<&str> = valued.iter().chain(switches).copied().collect();
            let (_, usage) = documented
                .iter_mut()
                .find(|(c, _)| *c == command)
                .unwrap_or_else(|| panic!("`{command}` missing from USAGE"));
            read.sort_unstable();
            usage.sort_unstable();
            assert_eq!(read, *usage, "{command}");
        }
        // A valued flag's argument is its value even when it looks like
        // a flag; a positional PATH is never taken for one.
        reject_unread_flags("campaign", &args(&["--export", "--out.jsonl"])).unwrap();
        reject_unread_flags("analyze", &args(&["t.jsonl", "--lenient-import"])).unwrap();
        let err = reject_unread_flags("stream", &args(&["t.jsonl", "--shard", "2"])).unwrap_err();
        assert!(err.to_string().contains("`--shard`"), "{err}");
    }

    #[test]
    fn analyze_missing_file_is_io_error() {
        let err = run(&args(&["analyze", "/nonexistent/trace.jsonl"])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn model_renders_all_failure_types() {
        let md = run(&args(&["model"])).unwrap();
        for f in UserFailure::ALL {
            assert!(md.contains(f.label()), "missing {f}");
        }
        assert!(md.contains("most effective recovery"));
        assert!(md.contains("unrecoverable"));
        assert!(md.contains("HOTPLUG"));
    }

    #[test]
    fn analyze_requires_path() {
        let err = run(&args(&["analyze"])).unwrap_err();
        assert!(err.to_string().contains("needs a trace path"));
    }

    /// Parses one `--json` output line and checks the envelope frame.
    fn envelope(output: &str, command: &str, status: i32) -> Value {
        let v = serde_json::from_str::<Value>(output.trim()).expect("envelope parses");
        assert_eq!(
            v.get("schema_version").and_then(Value::as_u64),
            Some(JSON_SCHEMA_VERSION),
            "{output}"
        );
        assert_eq!(
            v.get("command").and_then(Value::as_str),
            Some(command),
            "{output}"
        );
        let health = v.get("health").expect("health block").clone();
        assert_eq!(
            health.get("exit_code").and_then(Value::as_i64),
            Some(i64::from(status))
        );
        let expected = if status == EXIT_QUARANTINE {
            "quarantine"
        } else {
            "ok"
        };
        assert_eq!(health.get("status").and_then(Value::as_str), Some(expected));
        v.get("data").expect("data block").clone()
    }

    #[test]
    fn analyze_json_wraps_report_in_envelope() {
        let path = std::env::temp_dir().join("btpan_cli_envelope_test.jsonl");
        let path_s = path.to_str().expect("utf8 temp path");
        run(&args(&[
            "campaign", "--hours", "6", "--seed", "9", "--export", path_s,
        ]))
        .unwrap();
        let outcome = run_cli(&args(&["analyze", path_s, "--json"])).unwrap();
        let data = envelope(&outcome.output, "analyze", outcome.status);
        assert!(data.get("records").and_then(Value::as_u64).unwrap() > 0);
        assert!(data.get("rows").is_some());
        // Corrupt a line: the envelope health mirrors the exit status.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.insert_str(0, "!!not a record!!\n");
        std::fs::write(&path, &text).unwrap();
        let outcome = run_cli(&args(&["analyze", path_s, "--lenient-import", "--json"])).unwrap();
        assert_eq!(outcome.status, EXIT_QUARANTINE);
        let data = envelope(&outcome.output, "analyze", EXIT_QUARANTINE);
        let quarantined = data
            .get("quarantine")
            .and_then(|q| q.get("quarantined"))
            .and_then(Value::as_u64);
        assert_eq!(quarantined, Some(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn table4_json_envelope_is_plain() {
        let plain = run(&args(&["table4", "--seeds", "1", "--hours", "2", "--json"])).unwrap();
        let data = envelope(&plain, "table4", 0);
        assert_eq!(data.get("mode").and_then(Value::as_str), Some("plain"));
        let scenarios = match data.get("scenarios") {
            Some(Value::Array(s)) => s.clone(),
            other => panic!("scenarios missing: {other:?}"),
        };
        assert_eq!(scenarios.len(), 4, "one per recovery policy");
        assert!(scenarios[0].get("mttf_s").and_then(Value::as_f64).is_some());
    }

    #[test]
    fn campaign_metrics_out_round_trips_through_metrics_cmd() {
        let _guard = btpan_obs::testing::exclusive();
        // The guard enables the registry; start from the user-facing
        // default (disabled) so the restore assertion below is real.
        Registry::global().disable();
        let path = std::env::temp_dir().join("btpan_cli_metrics_test.json");
        let path_s = path.to_str().expect("utf8 temp path");
        let out = run(&args(&[
            "campaign",
            "--hours",
            "4",
            "--seed",
            "13",
            "--metrics-out",
            path_s,
        ]))
        .unwrap();
        assert!(out.contains("metrics written"), "{out}");
        assert!(
            !Registry::global().is_enabled(),
            "campaign must restore the prior (disabled) registry state"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        // The file re-renders identically through `metrics --from`.
        let snapshot = snapshot_from_json(&text).expect("snapshot file parses");
        assert_eq!(snapshot.to_json(), text, "reconstruction is lossless");
        assert!(
            snapshot.counter_family_sum("btpan_campaign_cycles_total") > 0,
            "{text}"
        );
        let json = run_cli(&args(&["metrics", "--from", path_s])).unwrap();
        let data = envelope(&json.output, "metrics", 0);
        assert!(data.get("counters").is_some());
        let prom = run_cli(&args(&["metrics", "--from", path_s, "--prometheus"])).unwrap();
        assert!(
            prom.output
                .contains("# TYPE btpan_campaign_cycles_total counter"),
            "{}",
            prom.output
        );
        // A live registry (no --from) renders too, even when disabled.
        let live = run_cli(&args(&["metrics"])).unwrap();
        envelope(&live.output, "metrics", 0);
        // Garbage input is a usage error naming the file.
        std::fs::write(&path, "{\"schema_version\":99}").unwrap();
        let err = run_cli(&args(&["metrics", "--from", path_s])).unwrap_err();
        assert!(err.to_string().contains("unsupported snapshot schema"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_metrics_every_emits_live_snapshots() {
        let _guard = btpan_obs::testing::exclusive();
        let path = std::env::temp_dir().join("btpan_cli_stream_metrics_test.jsonl");
        let path_s = path.to_str().expect("utf8 temp path");
        run(&args(&[
            "campaign", "--hours", "4", "--seed", "19", "--export", path_s,
        ]))
        .unwrap();
        let metrics = std::env::temp_dir().join("btpan_cli_stream_metrics_out.json");
        let metrics_s = metrics.to_str().expect("utf8 temp path");
        let outcome = run_cli(&args(&[
            "stream",
            path_s,
            "--follow",
            "--poll-ms",
            "1200",
            "--idle-exit",
            "2",
            "--metrics-every",
            "1",
            "--metrics-out",
            metrics_s,
        ]))
        .unwrap();
        assert_eq!(outcome.status, 0, "{}", outcome.output);
        // The single idle poll sleeps 1.2 s > the 1 s cadence, so at
        // least one periodic snapshot line precedes the final render.
        let live_lines = outcome
            .output
            .lines()
            .filter(|l| l.starts_with("{\"schema_version\""))
            .count();
        assert!(live_lines >= 1, "{}", outcome.output);
        let snapshot =
            snapshot_from_json(&std::fs::read_to_string(&metrics).unwrap()).expect("parses");
        assert!(
            snapshot.counter_family_sum("btpan_stream_records_emitted_total") > 0,
            "stream counters flushed to --metrics-out"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&metrics).ok();
    }
}
