//! Deploying the findings: a bind that waits for hotplug plus a standby
//! piconet, and what each buys — the paper's future-work agenda made
//! runnable.
//!
//! ```sh
//! cargo run --release --example robust_deployment
//! ```

use btpan::prelude::*;
use btpan_analysis::redundancy::{pooled_series_with_redundancy, RedundancyConfig};
use btpan_analysis::MarkovAvailability;
use stack::hotplug::HotplugDaemon;

fn main() {
    let mut rng = SimRng::seed_from(7);

    // 1. Binding at the hotplug interface-up instant survives the worst
    //    host in the testbed.
    println!("1. bind at interface-up on the HAL-bug host (10k connect+bind rounds):");
    let hotplug = HotplugDaemon::hal_bug();
    let mut worst_wait = SimDuration::ZERO;
    for i in 0..10_000u64 {
        let now = btpan_sim::time::SimTime::from_secs(30 * i);
        let timing = hotplug.sample(now, &mut rng);
        worst_wait = worst_wait.max(timing.iface_up_at.since(now));
    }
    println!("   bind failures: 0 (by construction); worst wait for interface-up {worst_wait}");

    // 2. Measure a baseline campaign, then replay it with a standby NAP.
    println!("\n2. standby piconet replay over a measured campaign:");
    let result = Campaign::new(
        CampaignConfig::paper(3, WorkloadKind::Random, RecoveryPolicy::Siras)
            .duration(SimDuration::from_secs(48 * 3600)),
    )
    .run();
    let base = result.pooled_series();
    let avail = |s: &analysis::ttf::TtfTtrSeries| {
        let f = s.ttf_stats().mean().unwrap_or(f64::INFINITY);
        let r = s.ttr_stats().mean().unwrap_or(0.0);
        f / (f + r)
    };
    let (red, absorbed, not_absorbed) =
        pooled_series_with_redundancy(&result.timelines, RedundancyConfig::default());
    println!(
        "   {absorbed}/{} failures absorbed by failover; availability {:.4} -> {:.4}",
        absorbed + not_absorbed,
        avail(&base),
        avail(&red)
    );

    // 3. Fit the analytic model and ask it where to spend effort next.
    println!("\n3. analytic what-if (fitted Markov model):");
    let mut model = MarkovAvailability::new();
    let mut uptime = 0.0;
    let mut per_type: std::collections::BTreeMap<_, (u64, f64)> = Default::default();
    for tl in &result.timelines {
        uptime += tl.uptime().as_secs_f64();
        for e in &tl.episodes {
            let entry = per_type.entry(e.failure).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += e.ttr().as_secs_f64();
        }
    }
    for (f, (n, ttr)) in &per_type {
        model.fit_type(*f, *n, uptime, ttr / *n as f64);
    }
    println!(
        "   baseline availability (analytic): {:.4}",
        model.availability()
    );
    for (f, _) in model.downtime_ranking().into_iter().take(3) {
        println!(
            "   masking {f:<24} would lift it to {:.4}",
            model.availability_without(f)
        );
    }
}
