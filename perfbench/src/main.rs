//! Helper binary of the btpan benchmark (driven by `perfbench/run.py`).
//!
//! * `table4 --seeds A,B,.. --hours H` is one `table4-day` op: exactly
//!   what `btpan table4` runs, but with the benchmark's seeds. It prints
//!   every Table 4 value at full precision.
//! * `table4-records --seeds .. --hours H` counts what the same
//!   campaigns produce (records, cycles, failures, masked). The harness
//!   runs it during set-up, because `experiment::table4` does not return
//!   these counts.
//! * `import-check PATH` imports a trace with the strict importer and
//!   prints its record count, to check an exported trace.
//! * `reference` runs a fixed job that uses no btpan code and prints its
//!   checksum. The harness times it next to every op, so that a change in
//!   the shared host's speed shows in both and cancels in their ratio.
//! * `trace <workload> .. --out PATH` reproduces one op in-process with
//!   wall-clock spans around each layer's public calls, reads the
//!   `btpan-obs` counters, and writes spans, counters and the op's
//!   output fingerprint as one JSON object to `PATH`.

use btpan_analysis::DependabilityReport;
use btpan_collect::entry::LogRecord;
use btpan_collect::{
    import_trace, repository_from_records, LogAnalyzer, RelationshipMatrix, Repository, TestLog,
};
use btpan_core::campaign::LossModel;
use btpan_core::experiment::{self, Scale};
use btpan_core::machine::NAP_NODE_ID;
use btpan_core::{run_seeds, Campaign, CampaignConfig, CampaignResult};
use btpan_obs::{Registry, Snapshot};
use btpan_recovery::RecoveryPolicy;
use btpan_sim::rng::SimRng;
use btpan_sim::time::SimDuration;
use btpan_stream::{LineFramer, StreamConfig, StreamEngine};
use btpan_workload::WorkloadKind;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// The coalescence window `btpan analyze` and `btpan stream` default to.
const WINDOW_S: u64 = 330;

/// Records the reference job formats and parses, and events its small
/// simulation runs: about 0.8 s and 45 MB together.
const REFERENCE_RECORDS: u64 = 450_000;
const REFERENCE_EVENTS: u64 = 4_000_000;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("btpan-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or("usage: btpan-perfbench <table4|table4-records|import-check|reference|trace> ..")?;
    match cmd.as_str() {
        "table4" => {
            print!("{}", render_table4(&experiment::table4(&scale(rest)?)));
            Ok(())
        }
        "table4-records" => {
            let scale = scale(rest)?;
            let (mut records, mut cycles, mut failures, mut masked) = (0, 0, 0, 0);
            for policy in RecoveryPolicy::ALL {
                let duration = scale.duration;
                for r in run_seeds(&scale.seeds, |seed| {
                    CampaignConfig::paper_both(seed, policy).duration(duration)
                }) {
                    records += r.repository.total_count() as u64;
                    cycles += r.cycles_run;
                    failures += r.failure_count;
                    masked += r.masked_count;
                }
            }
            println!("records {records} cycles {cycles} failures {failures} masked {masked}");
            Ok(())
        }
        "reference" => {
            let sum = reference_records(REFERENCE_RECORDS) ^ reference_events(REFERENCE_EVENTS);
            println!("{sum:016x}");
            Ok(())
        }
        "import-check" => {
            let path = rest.first().ok_or("import-check needs a trace path")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let records = import_trace(&text).map_err(|e| format!("{path}: {e}"))?;
            println!("records {}", records.len());
            Ok(())
        }
        "trace" => {
            let (workload, flags) = rest.split_first().ok_or("trace needs a workload")?;
            let out = flag(flags, "--out")?;
            Registry::global().enable();
            let mut t = Tracer::new();
            let mut fp = BTreeMap::new();
            match workload.as_str() {
                "campaign-half" => trace_campaign(&mut t, flags, &mut fp)?,
                "table4-day" => trace_table4_day(&mut t, flags, &mut fp)?,
                "trace-quarter" => trace_read_path(&mut t, flags, &mut fp)?,
                other => return Err(format!("unknown workload `{other}`")),
            }
            std::fs::write(out, t.to_json(&fp)).map_err(|e| format!("{out}: {e}"))
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn flag_u64(args: &[String], name: &str) -> Result<u64, String> {
    let v = flag(args, name)?;
    v.parse()
        .map_err(|_| format!("{name} expects an integer, got `{v}`"))
}

fn scale(args: &[String]) -> Result<Scale, String> {
    let seeds = flag(args, "--seeds")?
        .split(',')
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .collect::<Result<Vec<u64>, _>>()?;
    Ok(Scale {
        seeds,
        duration: SimDuration::from_secs(flag_u64(args, "--hours")? * 3600),
    })
}

fn render_table4(report: &DependabilityReport) -> String {
    let mut out = String::new();
    for (label, m) in &report.scenarios {
        let _ = writeln!(
            out,
            "scenario {label:?} mttf_s={:?} mttr_s={:?} availability={:?} coverage_percent={:?} masking_percent={:?} ttf_n={} ttr_n={}",
            m.mttf_s, m.mttr_s, m.availability, m.coverage_percent, m.masking_percent, m.ttf.count, m.ttr.count
        );
    }
    out
}

/// One wall-clock span: a call into one layer.
struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

/// Spans kept in memory and written out once the op is over.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span called `name`, child of the innermost
    /// open span.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        value
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counters.insert(name, value);
    }

    fn to_json(&self, fingerprint: &BTreeMap<&'static str, String>) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_s,
                s.end_s
            );
        }
        out.push_str("],\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\":{v}", if i == 0 { "" } else { "," });
        }
        out.push_str("},\"fingerprint\":{");
        for (i, (k, v)) in fingerprint.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\":{v:?}", if i == 0 { "" } else { "," });
        }
        out.push_str("}}\n");
        out
    }
}

/// `LossModel::calibrate` exactly as `Campaign::run` calls it: forked
/// off the unsalted campaign seed, so it fills the process-wide memo
/// that the campaign then hits.
fn calibrate(t: &mut Tracer, config: &CampaignConfig) {
    t.span("campaign.calibrate", |_| {
        let mut rng = SimRng::seed_from(config.seed).fork("loss-model");
        std::hint::black_box(LossModel::calibrate(config.base_drop, &mut rng));
    });
}

/// Reads the baseband counters the calibration left behind.
fn count_baseband(t: &mut Tracer, snap: &Snapshot) {
    let payloads = snap.counter_family_sum("btpan_baseband_payloads_delivered_total")
        + snap.counter_family_sum("btpan_baseband_payloads_dropped_total");
    t.count("baseband.payloads", payloads as f64);
    t.count(
        "baseband.retransmits",
        snap.counter_family_sum("btpan_baseband_retransmits_total") as f64,
    );
}

/// Reads the campaign and recovery counters of everything simulated.
fn count_campaign(t: &mut Tracer, snap: &Snapshot) {
    let get = |k: &str| snap.counter(k).unwrap_or(0) as f64;
    t.count("campaign.cycles", get("btpan_campaign_cycles_total"));
    t.count("campaign.failures", get("btpan_campaign_failures_total"));
    t.count("campaign.masked", get("btpan_campaign_masked_total"));
    t.count(
        "recovery.attempts",
        snap.counter_family_sum("btpan_recovery_attempts_total") as f64,
    );
}

/// `btpan campaign --hours H --seed S --export PATH` on the default
/// topology, one layer call at a time.
fn trace_campaign(
    t: &mut Tracer,
    flags: &[String],
    fp: &mut BTreeMap<&'static str, String>,
) -> Result<(), String> {
    let seed = flag_u64(flags, "--seed")?;
    let hours = flag_u64(flags, "--hours")?;
    let export = flag(flags, "--export")?;
    let config = CampaignConfig::paper(seed, WorkloadKind::Random, RecoveryPolicy::Siras)
        .duration(SimDuration::from_secs(hours * 3600));
    let result = t.span("op", |t| -> Result<CampaignResult, String> {
        calibrate(t, &config);
        count_baseband(t, &Registry::global().snapshot());
        let result = t.span("campaign.simulate", |_| Campaign::new(config).run());
        let (mttf, mttr) = t.span("analysis", |_| {
            let series = result.piconet_series();
            (
                series.ttf_stats().mean().unwrap_or(f64::INFINITY),
                series.ttr_stats().mean().unwrap_or(0.0),
            )
        });
        // `export_trace` is `records()` plus one JSON line per record;
        // the two calls are split so the repository read is its own span.
        let bytes = t.span("collect.trace.export", |t| -> Result<usize, String> {
            let records = t.span("collect.repository.records", |_| {
                result.repository.records()
            });
            let mut trace = String::new();
            for r in &records {
                trace.push_str(&serde_json::to_string(r).map_err(|e| e.to_string())?);
                trace.push('\n');
            }
            std::fs::write(export, &trace).map_err(|e| format!("{export}: {e}"))?;
            Ok(trace.len())
        })?;
        t.count("export.bytes", bytes as f64);
        fp.insert("cycles", result.cycles_run.to_string());
        fp.insert("failures", result.failure_count.to_string());
        fp.insert("masked", result.masked_count.to_string());
        fp.insert("records", result.repository.total_count().to_string());
        fp.insert("mttf", format!("{mttf:.1}"));
        fp.insert("mttr", format!("{mttr:.1}"));
        fp.insert("availability", format!("{:.4}", mttf / (mttf + mttr)));
        Ok(result)
    })?;
    t.count("repository.records", result.repository.total_count() as f64);
    count_campaign(t, &Registry::global().snapshot());
    replay_ship(t, &result, fp);
    Ok(())
}

/// Replays the `LogAnalyzer` shipping that `Campaign::run` does inline:
/// every node's System Log and Test Log entries into a fresh repository.
/// The span covers only the `run_once` calls; it sits outside the op so
/// the harness can subtract it from the simulate span.
fn replay_ship(t: &mut Tracer, result: &CampaignResult, fp: &mut BTreeMap<&'static str, String>) {
    let mut test_logs: BTreeMap<u64, TestLog> = BTreeMap::new();
    for entry in result.repository.tests() {
        test_logs
            .entry(entry.node)
            .or_insert_with(|| TestLog::new(entry.node))
            .append(entry);
    }
    let repo = Repository::new();
    let (shipped, filtered) = t.span("collect.ship", |_| {
        let (mut shipped, mut filtered) = (0, 0);
        for log in &result.system_logs {
            let node = log.node();
            let empty = TestLog::new(node);
            let mut analyzer = LogAnalyzer::new(node);
            let (tests, systems) =
                analyzer.run_once(test_logs.get(&node).unwrap_or(&empty), log, &repo);
            shipped += tests + systems;
            filtered += analyzer.filtered_out();
        }
        (shipped, filtered)
    });
    t.count("ship.shipped", shipped as f64);
    t.count("ship.filtered", filtered as f64);
    fp.insert("ship_records", repo.total_count().to_string());
}

/// One `table4-day` op with the calibration memo warmed first, one span
/// per seed lineage, so the table itself runs with calibration hits only.
fn trace_table4_day(
    t: &mut Tracer,
    flags: &[String],
    fp: &mut BTreeMap<&'static str, String>,
) -> Result<(), String> {
    let scale = scale(flags)?;
    let report = t.span("op", |t| {
        let mut lineages = std::collections::BTreeSet::new();
        for policy in RecoveryPolicy::ALL {
            for &seed in &scale.seeds {
                let config = CampaignConfig::paper_both(seed, policy);
                if lineages.insert((seed, config.base_drop.to_bits())) {
                    calibrate(t, &config);
                }
            }
        }
        count_baseband(t, &Registry::global().snapshot());
        t.span("core.supervisor", |_| experiment::table4(&scale))
    });
    let snap = Registry::global().snapshot();
    count_campaign(t, &snap);
    t.count(
        "pool.attempts",
        snap.counter("btpan_supervisor_attempts_total").unwrap_or(0) as f64,
    );
    t.count(
        "pool.retries",
        snap.counter("btpan_supervisor_retries_total").unwrap_or(0) as f64,
    );
    let busy_us = snap
        .histogram("btpan_supervisor_seed_duration_us")
        .map_or(0, |h| h.sum);
    t.count("pool.busy_s", busy_us as f64 / 1e6);
    // The supervisor's default pool: available parallelism, capped at
    // the seed count.
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(scale.seeds.len())
        .max(1);
    t.count("pool.workers", workers as f64);
    fp.insert("table4", render_table4(&report));
    Ok(())
}

/// `btpan analyze PATH` then `btpan stream PATH --shards N`, one layer
/// call at a time.
fn trace_read_path(
    t: &mut Tracer,
    flags: &[String],
    fp: &mut BTreeMap<&'static str, String>,
) -> Result<(), String> {
    let path = flag(flags, "--trace")?;
    let shards = flag_u64(flags, "--shards")?.max(1) as usize;
    let read = |p: &str| std::fs::read_to_string(Path::new(p)).map_err(|e| format!("{p}: {e}"));
    t.span("op", |t| -> Result<(), String> {
        // analyze
        let records = t.span(
            "collect.trace.import",
            |_| -> Result<Vec<LogRecord>, String> {
                import_trace(&read(path)?).map_err(|e| e.to_string())
            },
        )?;
        let repo = t.span("collect.rebuild", |_| repository_from_records(&records));
        let (nap, streams) = t.span("collect.repository.views", |_| {
            let nap = repo.system_records_of(NAP_NODE_ID);
            let streams: Vec<_> = repo
                .reporting_nodes()
                .into_iter()
                .map(|n| (n, repo.records_of(n)))
                .collect();
            (nap, streams)
        });
        let matrix = t.span("collect.relate", |_| {
            RelationshipMatrix::from_node_logs(
                &streams,
                &nap,
                NAP_NODE_ID,
                SimDuration::from_secs(WINDOW_S),
            )
        });
        t.count("import.records", records.len() as f64);
        t.count(
            "rebuild.duplicates",
            (records.len() - repo.total_count()) as f64,
        );
        t.count("repository.records", repo.total_count() as f64);
        t.count("relate.related", matrix.grand_total() as f64);
        let with_cause: u64 = matrix
            .cells()
            .iter()
            .filter(|(_, cause, _)| cause.is_some())
            .map(|&(_, _, n)| n)
            .sum();
        t.count("relate.with_cause", with_cause as f64);
        t.count("relate.user_records", repo.test_count() as f64);
        fp.insert("records", records.len().to_string());
        fp.insert("related", matrix.grand_total().to_string());
        drop((records, repo, nap, streams));

        // stream: framing and decoding, then the sharded engine.
        let (parsed, lines) = t.span(
            "stream.parse",
            |_| -> Result<(Vec<LogRecord>, u64), String> {
                let text = read(path)?;
                let mut framer = LineFramer::new();
                let (mut parsed, mut lines, mut bad) = (Vec::new(), 0u64, 0u64);
                let mut decode = |line: &str| {
                    if line.trim().is_empty() {
                        return;
                    }
                    lines += 1;
                    match serde_json::from_str::<LogRecord>(line) {
                        Ok(rec) => parsed.push(rec),
                        Err(_) => bad += 1,
                    }
                };
                framer.push_lines(&text, &mut decode);
                if let Some(last) = framer.finish() {
                    decode(&last);
                }
                if bad > 0 {
                    return Err(format!("{bad} undecodable lines"));
                }
                Ok((parsed, lines))
            },
        )?;
        t.count("stream_parse.lines", lines as f64);
        let outcome = t.span("stream.engine", |t| -> Result<_, String> {
            let mut engine = StreamEngine::start(StreamConfig {
                shards,
                channel_capacity: 1024,
                window: SimDuration::from_secs(WINDOW_S),
                watermark_lag: SimDuration::from_secs(2 * WINDOW_S),
                idle_timeout_ms: None,
                nap_node: NAP_NODE_ID,
                keep_tuples: false,
                group_of: None,
            });
            t.span("stream.ingest", |_| -> Result<(), String> {
                for rec in parsed {
                    engine
                        .ingest(rec)
                        .map_err(|_| "streaming engine shut down".to_string())?;
                }
                Ok(())
            })?;
            Ok(t.span("stream.finish", |_| engine.finish()))
        })?;
        let snap = &outcome.snapshot;
        t.count("stream.emitted", snap.records_emitted as f64);
        t.count("stream.late", snap.late_quarantined as f64);
        t.count("stream.duplicates", snap.duplicates_dropped as f64);
        t.count("stream.peak_resident", snap.peak_resident_records as f64);
        fp.insert("emitted", snap.records_emitted.to_string());
        fp.insert("episodes", snap.episodes.to_string());
        fp.insert("stream_related", snap.matrix().grand_total().to_string());
        Ok(())
    })
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reference job's data half: the kinds of work btpan's collection
/// and analysis do (formatting and parsing JSON-like lines, hashing,
/// ordered maps, a bounded heap, a sort) on data from a fixed splitmix64
/// stream, with std alone. Returns a checksum of the results.
fn reference_records(records: u64) -> u64 {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = || splitmix64(&mut state);
    let mut text = String::new();
    for seq in 0..records {
        let (t, node, v) = (next() % 1_000_000_000, next() % 16, next());
        let _ = writeln!(
            text,
            "{{\"seq\":{seq},\"t\":{t},\"node\":{node},\"v\":{v}}}"
        );
    }
    let mut by_node: HashMap<u64, u64> = HashMap::new();
    let mut times = Vec::with_capacity(records as usize);
    let mut ordered = BTreeMap::new();
    let mut latest = BinaryHeap::new();
    for line in text.lines() {
        let nums: Vec<u64> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter(|p| !p.is_empty())
            .map(|p| p.parse().unwrap_or(0))
            .collect();
        let (seq, t, node, v) = (nums[0], nums[1], nums[2], nums[3]);
        *by_node.entry(node).or_insert(0) ^= v;
        times.push(t);
        ordered.insert(t ^ v, seq);
        latest.push(Reverse(t));
        if latest.len() > 4096 {
            latest.pop();
        }
    }
    times.sort_unstable();
    let mut sum = times
        .iter()
        .step_by(97)
        .fold(0u64, |a, t| a.wrapping_add(*t));
    for (node, v) in by_node {
        sum = sum.wrapping_add(node.wrapping_mul(v));
    }
    for (k, seq) in ordered.iter().step_by(101) {
        sum ^= k.wrapping_add(*seq);
    }
    latest
        .into_sorted_vec()
        .into_iter()
        .fold(sum, |a, t| a.rotate_left(1) ^ t.0)
}

/// The reference job's simulation half: what btpan's campaigns do in
/// miniature, a discrete-event loop over 64 nodes with a timer heap,
/// random state-machine steps and per-node logs. Returns a checksum.
fn reference_events(events: u64) -> u64 {
    const NODES: usize = 64;
    let mut rng = 0x0123_4567_89AB_CDEF_u64;
    let mut state = [0u8; NODES];
    let mut logs: Vec<Vec<(u64, u8)>> = vec![Vec::new(); NODES];
    let mut timers = BinaryHeap::new();
    for node in 0..NODES {
        timers.push(Reverse((splitmix64(&mut rng) % 1000, node)));
    }
    let mut steps: HashMap<(u8, u8), u64> = HashMap::new();
    for _ in 0..events {
        let Some(Reverse((t, node))) = timers.pop() else {
            break;
        };
        let r = splitmix64(&mut rng);
        let old = state[node];
        let new = match old {
            0 if r % 100 < 3 => 1,
            1 if r.is_multiple_of(4) => 2,
            2 if r % 10 < 7 => 0,
            2 => 3,
            3 => 0,
            s => s,
        };
        state[node] = new;
        *steps.entry((old, new)).or_insert(0) += 1;
        if new != old {
            logs[node].push((t, new));
        }
        timers.push(Reverse((t + 1 + r % 2000, node)));
    }
    let mut sum = 0u64;
    for ((old, new), n) in steps {
        sum = sum.wrapping_add((u64::from(old) * 7 + u64::from(new)).wrapping_mul(n));
    }
    for log in &logs {
        sum ^= log.len() as u64;
        if let Some((t, _)) = log.last() {
            sum = sum.wrapping_add(*t);
        }
    }
    sum
}
