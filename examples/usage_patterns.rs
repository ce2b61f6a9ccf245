//! The paper's "lessons learned" as executable checks: usage patterns a
//! robust Bluetooth PAN application should adopt.
//!
//! 1. avoid caching — run the SDP search before every PAN connect;
//! 2. prefer multi-slot, DHx packets;
//! 3. keep connections long-lived instead of churning them;
//! 4. wait for T_C/T_H before binding (the bind race).
//!
//! ```sh
//! cargo run --release --example usage_patterns
//! ```

use btpan::prelude::*;
use btpan_sim::time::SimTime;
use stack::hotplug::{HotplugDaemon, SetupTiming};

fn main() {
    let mut rng = SimRng::seed_from(2026);

    // Lesson 1: SDP-first masks 96.5% of PAN-connect failures.
    let inj = faults::FaultInjector::new(faults::InjectionConfig::paper_calibrated());
    let quirks = faults::HostQuirks::linux_pc();
    let trials = 2_000_000;
    let fail = |sdp_done: bool, rng: &mut SimRng| {
        (0..trials)
            .filter(|_| {
                inj.check_phase(
                    faults::injector::Phase::PanConnect { sdp_done },
                    quirks,
                    rng,
                )
                .is_some()
            })
            .count()
    };
    let without = fail(false, &mut rng);
    let with = fail(true, &mut rng);
    println!("lesson 1 — SDP before PAN connect:");
    println!(
        "  PAN connect failures per {trials} attempts: {without} without SDP, {with} with SDP"
    );

    // Lesson 2: packet type choice (per-byte drop exposure).
    println!("\nlesson 2 — prefer multi-slot DHx packets:");
    let mut calib = SimRng::seed_from(7);
    let loss = btpan_core::campaign::LossModel::calibrate(1.5e-6, &mut calib);
    for pt in baseband::PacketType::ALL {
        let per_mb = loss.p_drop(pt) * f64::from(1_000_000u32 / pt.max_payload_bytes());
        println!("  {pt}: P(drop) per transferred MB = {per_mb:.5}");
    }

    // Lesson 3: connection churn — latent setup faults hit young links.
    let latent = faults::LatentFaultModel::typical();
    let churny = 20; // connections for 20 cycles
    let reused = 1;
    let defects = |connections: u32, rng: &mut SimRng| {
        (0..connections * 20_000)
            .filter(|_| latent.sample_connection(rng).is_some())
            .count()
    };
    println!("\nlesson 3 — keep connections alive:");
    println!(
        "  latent setup defects per 20k workload rounds: churny (1 conn/cycle) {} vs reused (1 conn/20 cycles) {}",
        defects(churny, &mut rng),
        defects(reused, &mut rng)
    );

    // Lesson 4: the bind race, mechanically. An immediate bind fails
    // whenever hotplug has not finished T_C + T_H; waiting for the
    // interface-up notification never does.
    println!("\nlesson 4 — wait for T_C and T_H before binding:");
    let hotplug = HotplugDaemon::hal_bug();
    let bind_after = SimDuration::from_millis(200);
    let bind_fails = |at: SimTime, timing: &SetupTiming| at < timing.iface_up_at;
    let mut naive_failures = 0;
    let mut masked_failures = 0;
    let attempts = 200_000;
    for i in 0..attempts {
        let now = SimTime::from_secs(10 * i);
        let timing = hotplug.sample(now, &mut rng);
        if bind_fails(now + bind_after, &timing) {
            naive_failures += 1;
        }
        if bind_fails((now + bind_after).max(timing.iface_up_at), &timing) {
            masked_failures += 1;
        }
    }
    println!(
        "  immediate bind failures: {naive_failures}/{attempts} (expected rate {:.4}); masked bind failures: {masked_failures}/{attempts}",
        hotplug.p_immediate_bind_failure(bind_after)
    );
}
