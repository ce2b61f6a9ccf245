//! Throughput measurements for the campaign pipeline.
//!
//! Covers the stages a long campaign spends its time in:
//!
//! 1. **campaign seeds/s** — full `Campaign::run` columns as Table 4
//!    drives them (several policies over the same seeds), where the
//!    memoized loss calibration removes the dominant per-seed cost;
//! 2. **multi-piconet piconet-seeds/s** — the 3-piconet scatternet;
//! 3. **collect/stream records/s** — JSONL trace import/export and the
//!    chunked tail-framing path.
//!
//! The re-export equivalence check (import then export reproduces the
//! trace byte for byte) fails the run when it does not hold. `--quick`
//! shrinks the workloads.
//!
//! Prints the report as JSON on stdout; progress goes to stderr.

use btpan_collect::trace::{export_trace, import_trace, repository_from_records};
use btpan_core::campaign::{Campaign, CampaignConfig, LossModel};
use btpan_recovery::RecoveryPolicy;
use btpan_sim::prelude::*;
use btpan_sim::time::SimDuration;
use btpan_stream::LineFramer;
use btpan_workload::WorkloadKind;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

#[derive(Serialize)]
struct CampaignBench {
    seeds_per_policy: usize,
    policies: usize,
    simulated_hours: f64,
    cold_calibration_s: f64,
    seeds_per_s: f64,
}

#[derive(Serialize)]
struct TopologyBench {
    piconets: usize,
    seeds: usize,
    simulated_hours: f64,
    piconet_seeds_per_s: f64,
}

#[derive(Serialize)]
struct CollectBench {
    records: usize,
    export_records_per_s: f64,
    import_records_per_s: f64,
    tail_records_per_s: f64,
}

#[derive(Serialize)]
struct Equivalence {
    reexport_byte_identical: bool,
}

#[derive(Serialize)]
struct Report {
    mode: &'static str,
    campaign: CampaignBench,
    topology: TopologyBench,
    collect: CollectBench,
    equivalence: Equivalence,
}

fn bench_campaign(seeds: &[u64], hours: u64) -> CampaignBench {
    // Cold cost the memo removes: the process's first calibration is a
    // memo miss, so this times one slot-fidelity calibration.
    let start = Instant::now();
    let mut rng = SimRng::seed_from(seeds[0]).fork("loss-model");
    black_box(LossModel::calibrate(1.68e-6, &mut rng));
    let cold_calibration_s = start.elapsed().as_secs_f64();

    let policies = [
        RecoveryPolicy::RebootOnly,
        RecoveryPolicy::Siras,
        RecoveryPolicy::SirasAndMasking,
    ];
    let duration = SimDuration::from_secs(hours * 3600);
    let start = Instant::now();
    for policy in policies {
        for &seed in seeds {
            let cfg = CampaignConfig::paper(seed, WorkloadKind::Random, policy).duration(duration);
            black_box(Campaign::new(cfg).run());
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let total = (seeds.len() * policies.len()) as f64;
    CampaignBench {
        seeds_per_policy: seeds.len(),
        policies: policies.len(),
        simulated_hours: hours as f64,
        cold_calibration_s,
        seeds_per_s: total / elapsed,
    }
}

/// Multi-piconet campaign throughput: the 3-piconet scatternet with a
/// bridge, rated in piconet-seeds/s (piconets x seeds over wall time)
/// so the row is comparable to the single-piconet seeds/s above.
fn bench_topology(seeds: &[u64], hours: u64) -> TopologyBench {
    let topo = btpan_core::topology::Topology::scatternet();
    let piconets = topo.piconets.len();
    let duration = SimDuration::from_secs(hours * 3600);
    let start = Instant::now();
    for &seed in seeds {
        let cfg = CampaignConfig::with_topology(seed, topo.clone(), RecoveryPolicy::Siras)
            .duration(duration);
        let result = Campaign::new(cfg).run();
        assert_eq!(result.piconets.len(), piconets, "scatternet ran short");
        black_box(result.failure_count);
    }
    let elapsed = start.elapsed().as_secs_f64();
    TopologyBench {
        piconets,
        seeds: seeds.len(),
        simulated_hours: hours as f64,
        piconet_seeds_per_s: (piconets * seeds.len()) as f64 / elapsed,
    }
}

fn bench_collect(seeds: &[u64], hours: u64) -> (CollectBench, bool) {
    // A real campaign trace, so the record mix matches production.
    let cfg = CampaignConfig::paper(seeds[0], WorkloadKind::Random, RecoveryPolicy::Siras)
        .duration(SimDuration::from_secs(hours * 3600));
    let result = Campaign::new(cfg).run();
    let mut trace = export_trace(&result.repository);
    // Replicate to a meaningful volume.
    while trace.len() < 4 << 20 {
        let copy = trace.clone();
        trace.push_str(&copy);
    }
    let records = trace.lines().filter(|l| !l.trim().is_empty()).count();

    let start = Instant::now();
    let imported = import_trace(&trace).expect("trace is valid");
    let import_s = start.elapsed().as_secs_f64();
    assert_eq!(imported.len(), records);

    let base = import_trace(&export_trace(&result.repository)).expect("valid");
    let rebuilt = repository_from_records(&base);
    let reexport_ok = export_trace(&rebuilt) == export_trace(&result.repository);

    let start = Instant::now();
    let reexported = export_trace(&repository_from_records(&imported));
    let export_s = start.elapsed().as_secs_f64();
    black_box(reexported.len());

    // Tail path: chunked framing + per-line parse, as `btpan stream`
    // consumes a growing trace.
    let start = Instant::now();
    let mut framer = LineFramer::new();
    let mut parsed = 0usize;
    for chunk in trace.as_bytes().chunks(64 << 10) {
        let chunk = std::str::from_utf8(chunk).expect("ascii trace");
        framer.push_lines(chunk, |line| {
            if !line.trim().is_empty() {
                let rec: btpan_collect::entry::LogRecord =
                    serde_json::from_str(line).expect("valid line");
                black_box(rec.seq);
                parsed += 1;
            }
        });
    }
    if let Some(last) = framer.finish() {
        let _: btpan_collect::entry::LogRecord = serde_json::from_str(&last).expect("valid tail");
        parsed += 1;
    }
    let tail_s = start.elapsed().as_secs_f64();
    assert_eq!(parsed, records);

    (
        CollectBench {
            records,
            export_records_per_s: records as f64 / export_s,
            import_records_per_s: records as f64 / import_s,
            tail_records_per_s: records as f64 / tail_s,
        },
        reexport_ok,
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    btpan_obs::Registry::global().disable();

    let (seeds, camp_hours, collect_hours): (Vec<u64>, u64, u64) = if quick {
        (vec![11, 22], 1, 1)
    } else {
        (vec![11, 22, 33, 44], 4, 4)
    };

    eprintln!(
        "repro_bench: campaign columns ({} seeds x 3 policies, {camp_hours} h)...",
        seeds.len()
    );
    let campaign = bench_campaign(&seeds, camp_hours);
    eprintln!(
        "  cold calibration {:.2} s (memoized away per column), {:.2} seeds/s",
        campaign.cold_calibration_s, campaign.seeds_per_s
    );

    eprintln!(
        "repro_bench: multi-piconet campaign ({} scatternet seeds, {camp_hours} h)...",
        seeds.len()
    );
    let topology = bench_topology(&seeds, camp_hours);
    eprintln!(
        "  {} piconets x {} seeds: {:.2} piconet-seeds/s",
        topology.piconets, topology.seeds, topology.piconet_seeds_per_s
    );

    eprintln!("repro_bench: collect/stream record paths...");
    let (collect, reexport_ok) = bench_collect(&seeds, collect_hours);
    eprintln!(
        "  export {:.2e} rec/s, import {:.2e} rec/s, tail {:.2e} rec/s over {} records",
        collect.export_records_per_s,
        collect.import_records_per_s,
        collect.tail_records_per_s,
        collect.records
    );

    let report = Report {
        mode: if quick { "quick" } else { "full" },
        campaign,
        topology,
        collect,
        equivalence: Equivalence {
            reexport_byte_identical: reexport_ok,
        },
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("report serializes")
    );

    if !reexport_ok {
        eprintln!("FAIL: equivalence check reexport_byte_identical");
        std::process::exit(1);
    }
    eprintln!("repro_bench: ok");
}
