//! The 24/7 campaign simulator.
//!
//! A campaign runs a [`Topology`] — one or more piconets, each with its
//! own NAP, PANUs and workload, optionally stitched into a scatternet
//! by bridge nodes — for a simulated duration under a recovery policy.
//! Each PANU executes `BlueTest` connection plans; every phase consults
//! the mechanistic stack models (the bind race, baseband loss, latent
//! setup faults, channel stress) and the calibrated fault injector.
//! Failures write Test-Log reports and cause-correlated System-Log
//! entries (locally and, for propagated causes, on a master — bridges
//! spread propagated evidence across every piconet they serve), which
//! LogAnalyzers ship to the repository. Recovery runs under the
//! configured policy, and the resulting failure/recovery episodes feed
//! the TTF/TTR analysis.
//!
//! Determinism is per piconet: piconet `P` draws from the RNG root
//! `seed ⊕ P.seed_salt` and each node forks the stream named by its
//! `stream_key`, so adding a piconet (or running one alone) never
//! perturbs another's streams. The single-testbed
//! [`Topology::paper`] campaign replays the legacy byte streams
//! exactly.
//!
//! ## Packet-loss model
//!
//! A full 18-month campaign cannot run at slot fidelity (≈ 10¹⁰ slots),
//! so transfer outcomes use a two-tier model ([`LossModel`]):
//!
//! * the **relative** per-payload drop factors across the six packet
//!   types come from the slot-fidelity [`btpan_baseband`] simulation
//!   (`DropProfile::calibrate`) under a burst-boosted channel — relative
//!   factors are insensitive to the burst *frequency*, which scales all
//!   types alike;
//! * the **absolute** base rate is calibrated to the field failure mix
//!   (packet loss ≈ 33 % of failures at MTTF ≈ 630–845 s), exactly the
//!   quantity the paper measured rather than derived.

use crate::topology::Topology;
use btpan_analysis::ttf::{FailureEpisode, NodeTimeline};
use btpan_baseband::channel::GilbertElliott;
use btpan_baseband::hop::HopSequence;
use btpan_baseband::link::{DropProfile, LinkConfig};
use btpan_baseband::packet::PacketType;
use btpan_collect::analyzer::LogAnalyzer;
use btpan_collect::entry::{SystemLogEntry, TestLogEntry, WorkloadTag};
use btpan_collect::logs::{SystemLog, TestLog};
use btpan_collect::repository::Repository;
use btpan_faults::injector::{FaultInjector, InjectionConfig, Phase};
use btpan_faults::latent::{ConnectionLatency, LatentFaultModel};
use btpan_faults::stress::StressModel;
use btpan_faults::types::{CauseSite, SystemComponent, UserFailure};
use btpan_recovery::policy::RecoveryPolicy;
use btpan_recovery::sira::SiraCosts;
use btpan_sim::config::ConfigError;
use btpan_sim::prelude::*;
use btpan_sim::time::{SimDuration, SimTime};
use btpan_stack::socket::BindError;
use btpan_workload::{CycleParams, RandomWorkload, RealisticWorkload, WorkloadKind, WorkloadModel};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

mod metrics {
    use btpan_obs::{Counter, Registry};
    use std::sync::OnceLock;

    pub(super) struct CampaignMetrics {
        /// `btpan_campaign_failures_total` — manifested user failures.
        pub failures: Counter,
        /// `btpan_campaign_masked_total` — failures prevented by masking.
        pub masked: Counter,
        /// `btpan_campaign_cycles_total` — workload cycles completed or
        /// aborted.
        pub cycles: Counter,
    }

    pub(super) fn handles() -> &'static CampaignMetrics {
        static HANDLES: OnceLock<CampaignMetrics> = OnceLock::new();
        HANDLES.get_or_init(|| {
            let registry = Registry::global();
            CampaignMetrics {
                failures: registry.counter("btpan_campaign_failures_total"),
                masked: registry.counter("btpan_campaign_masked_total"),
                cycles: registry.counter("btpan_campaign_cycles_total"),
            }
        })
    }
}

/// Per-payload loss/mismatch rates by packet type.
#[derive(Debug, Clone, PartialEq)]
pub struct LossModel {
    /// Base per-payload drop probability (binomial-weighted mean over
    /// packet types = this value).
    pub base_drop: f64,
    /// Relative drop factor per packet type (indexed like
    /// [`PacketType::ALL`]).
    pub type_factor: [f64; 6],
    /// Per-payload probability of CRC-escaping corruption relative to a
    /// drop (bursts long enough to escape are a fixed fraction of bursts
    /// long enough to flush).
    pub undetected_ratio: f64,
}

impl LossModel {
    /// Calibrates the relative type factors by slot-fidelity simulation
    /// under a burst-boosted Gilbert–Elliott channel, then normalizes to
    /// the field-calibrated `base_drop`.
    ///
    /// Memoized process-wide: calibration only *forks* from `rng` (it
    /// never draws, so `rng`'s own stream is untouched either way),
    /// which makes the result a pure function of the fork-lineage seed
    /// and `base_drop`. Every Table-4 policy column re-calibrates with
    /// the same key, and each uncached run simulates 720 000 payloads at
    /// slot fidelity.
    pub fn calibrate(base_drop: f64, rng: &mut SimRng) -> Self {
        static CACHE: OnceLock<Mutex<HashMap<(u64, u64), LossModel>>> = OnceLock::new();
        let key = (rng.seed(), base_drop.to_bits());
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(hit) = cache.lock().expect("calibration cache").get(&key) {
            return hit.clone();
        }
        let model = Self::calibrate_uncached(base_drop, rng);
        cache
            .lock()
            .expect("calibration cache")
            .insert(key, model.clone());
        model
    }

    /// The calibration itself, behind [`Self::calibrate`]'s memo.
    fn calibrate_uncached(base_drop: f64, rng: &mut SimRng) -> Self {
        let mut raw = [0.0f64; 6];
        for (i, pt) in PacketType::ALL.iter().enumerate() {
            // Deep-fade bursts (BER ~0.12): severe enough that FEC
            // cannot save a codeword stream, which is the regime the
            // paper's Fig. 3a ordering (every packet type suffers; the
            // per-byte exposure of small-payload types dominates) and
            // its CRC-weakness discussion describe.
            let channel = GilbertElliott::new(1e-2, 0.08, 5e-6, 0.12);
            let mut r = rng.fork_indexed("loss-calibration", i as u64);
            let prof = DropProfile::calibrate(
                LinkConfig::new(*pt).retry_limit(4),
                channel,
                HopSequence::new(0xCA11B),
                120_000,
                &mut r,
            );
            raw[i] = prof.p_drop.max(1e-9);
        }
        // Binomial(5, 1/2) weights of the Random WL packet-type pick.
        let weights = [1.0, 5.0, 10.0, 10.0, 5.0, 1.0];
        let wsum: f64 = weights.iter().sum();
        let mean: f64 = raw.iter().zip(&weights).map(|(r, w)| r * w).sum::<f64>() / wsum;
        let mut type_factor = [0.0; 6];
        for i in 0..6 {
            type_factor[i] = raw[i] / mean;
        }
        LossModel {
            base_drop,
            type_factor,
            undetected_ratio: 0.02,
        }
    }

    /// Per-payload drop probability for `pt`.
    pub fn p_drop(&self, pt: PacketType) -> f64 {
        let idx = PacketType::ALL
            .iter()
            .position(|&p| p == pt)
            .expect("known type");
        (self.base_drop * self.type_factor[idx]).clamp(0.0, 1.0)
    }

    /// Per-payload undetected-corruption probability for `pt`.
    pub fn p_undetected(&self, pt: PacketType) -> f64 {
        self.p_drop(pt) * self.undetected_ratio
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Deterministic seed: same seed, same campaign.
    pub seed: u64,
    /// Simulated wall-clock duration.
    pub duration: SimDuration,
    /// The testbed topology this campaign runs: piconets, machines and
    /// scatternet bridges. Shared by `Arc` so multi-seed drivers clone
    /// configs cheaply.
    pub topology: Arc<Topology>,
    /// Convenience mirror of the **first** piconet's workload (legacy
    /// single-testbed callers; per-piconet workloads live in
    /// [`CampaignConfig::topology`]).
    pub workload: WorkloadKind,
    /// The recovery policy (Table 4 column).
    pub policy: RecoveryPolicy,
    /// Control-plane fault rates.
    pub injection: InjectionConfig,
    /// Latent connection-setup fault model.
    pub latent: LatentFaultModel,
    /// Channel-stress model.
    pub stress: StressModel,
    /// SIRA cost model.
    pub costs: SiraCosts,
    /// Field-calibrated base per-payload drop rate.
    pub base_drop: f64,
    /// Mean gap of unrelated background System-Log entries per node,
    /// seconds (they exercise the coalescence trade-off).
    pub noise_gap_s: f64,
    /// Replace the workload with the paper's special Fig. 3b variant
    /// (`N` = 10 000, `LS = LR` = 1691 B, hosts Verde and Win only).
    pub fig3b_variant: bool,
}

impl CampaignConfig {
    /// The paper-calibrated defaults for the single-testbed `workload`
    /// campaign under `policy`.
    pub fn paper(seed: u64, workload: WorkloadKind, policy: RecoveryPolicy) -> Self {
        Self::with_topology(seed, Topology::paper(workload), policy)
    }

    /// The paper's actual deployment: both testbeds in one campaign.
    pub fn paper_both(seed: u64, policy: RecoveryPolicy) -> Self {
        Self::with_topology(seed, Topology::paper_both(), policy)
    }

    /// Paper-calibrated defaults over an arbitrary `topology`.
    pub fn with_topology(
        seed: u64,
        topology: impl Into<Arc<Topology>>,
        policy: RecoveryPolicy,
    ) -> Self {
        let topology = topology.into();
        let workload = topology
            .piconets
            .first()
            .map_or(WorkloadKind::Random, |p| p.workload);
        CampaignConfig {
            seed,
            duration: SimDuration::from_secs(24 * 3600),
            topology,
            workload,
            policy,
            injection: InjectionConfig::paper_calibrated(),
            latent: LatentFaultModel::typical(),
            stress: StressModel::typical(),
            costs: SiraCosts::default(),
            base_drop: 1.68e-6,
            noise_gap_s: 11_000.0,
            fig3b_variant: false,
        }
    }

    /// Sets the duration.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Starts a validating builder from the paper-calibrated defaults.
    /// Struct literals remain supported; the builder front-loads checks
    /// on the fields whose bad values otherwise surface as panics deep
    /// in the run (a zero noise gap hangs `emit_noise`, a drop rate of
    /// 1 fails every payload).
    pub fn builder(
        seed: u64,
        workload: WorkloadKind,
        policy: RecoveryPolicy,
    ) -> CampaignConfigBuilder {
        CampaignConfigBuilder {
            config: CampaignConfig::paper(seed, workload, policy),
        }
    }
}

/// Validating builder for [`CampaignConfig`].
///
/// ```
/// use btpan_core::campaign::CampaignConfig;
/// use btpan_recovery::RecoveryPolicy;
/// use btpan_sim::time::SimDuration;
/// use btpan_workload::WorkloadKind;
///
/// let config = CampaignConfig::builder(7, WorkloadKind::Random, RecoveryPolicy::Siras)
///     .duration(SimDuration::from_secs(3600))
///     .build()
///     .unwrap();
/// assert_eq!(config.seed, 7);
///
/// let err = CampaignConfig::builder(7, WorkloadKind::Random, RecoveryPolicy::Siras)
///     .base_drop(1.5)
///     .build()
///     .unwrap_err();
/// assert_eq!(err.field, "base_drop");
/// ```
#[derive(Debug, Clone)]
pub struct CampaignConfigBuilder {
    config: CampaignConfig,
}

impl CampaignConfigBuilder {
    /// Simulated wall-clock duration.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.config.duration = duration;
        self
    }

    /// Field-calibrated base per-payload drop rate.
    pub fn base_drop(mut self, rate: f64) -> Self {
        self.config.base_drop = rate;
        self
    }

    /// Mean gap of background System-Log noise entries, seconds.
    pub fn noise_gap_s(mut self, gap_s: f64) -> Self {
        self.config.noise_gap_s = gap_s;
        self
    }

    /// Switch to the paper's special Fig. 3b workload variant.
    pub fn fig3b_variant(mut self, on: bool) -> Self {
        self.config.fig3b_variant = on;
        self
    }

    /// The testbed topology to run (validated at [`build`]). Also
    /// refreshes the legacy `workload` mirror from its first piconet.
    ///
    /// [`build`]: CampaignConfigBuilder::build
    pub fn topology(mut self, topology: impl Into<Arc<Topology>>) -> Self {
        let topology = topology.into();
        if let Some(first) = topology.piconets.first() {
            self.config.workload = first.workload;
        }
        self.config.topology = topology;
        self
    }

    /// Control-plane fault rates.
    pub fn injection(mut self, injection: InjectionConfig) -> Self {
        self.config.injection = injection;
        self
    }

    /// SIRA cost model.
    pub fn costs(mut self, costs: SiraCosts) -> Self {
        self.config.costs = costs;
        self
    }

    /// Validates and returns the config, failing at construction time.
    pub fn build(self) -> Result<CampaignConfig, ConfigError> {
        if self.config.duration.as_micros() == 0 {
            return Err(ConfigError::new("duration", "must be positive"));
        }
        if !(0.0..1.0).contains(&self.config.base_drop) {
            return Err(ConfigError::new(
                "base_drop",
                format!(
                    "must be in [0, 1), got {}; a rate of 1 drops every payload",
                    self.config.base_drop
                ),
            ));
        }
        if self.config.noise_gap_s <= 0.0 || self.config.noise_gap_s.is_nan() {
            return Err(ConfigError::new(
                "noise_gap_s",
                "must be positive; the noise process needs a finite mean gap",
            ));
        }
        self.config.topology.validate()?;
        Ok(self.config)
    }
}

/// Per-piconet slice of a campaign: membership plus the counters that
/// [`CampaignResult`] pools across the whole topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiconetOutcome {
    /// The spec's piconet id.
    pub piconet_id: u64,
    /// The spec's display label.
    pub label: String,
    /// The workload this piconet ran.
    pub workload: WorkloadKind,
    /// The master's node id.
    pub master: u64,
    /// PANU node ids, in declaration order (bridges listed in their
    /// home piconet).
    pub panus: Vec<u64>,
    /// Manifested failures in this piconet.
    pub failure_count: u64,
    /// Failures prevented by masking.
    pub masked_count: u64,
    /// Manifested failures recovered by SIRAs 1–3.
    pub covered_count: u64,
    /// Workload cycles completed or aborted.
    pub cycles_run: u64,
}

/// Everything a campaign produces.
#[derive(Debug)]
pub struct CampaignResult {
    /// The central repository with all shipped failure data.
    pub repository: Repository,
    /// Per-PANU failure timelines.
    pub timelines: Vec<NodeTimeline>,
    /// Failures prevented by masking.
    pub masked_count: u64,
    /// Manifested failures recovered by SIRAs 1–3.
    pub covered_count: u64,
    /// Manifested failures.
    pub failure_count: u64,
    /// Idle times (`T_W`, seconds) preceding *clean* reused-connection
    /// cycles (for the idle-time finding).
    pub clean_idles_s: Vec<f64>,
    /// Total workload cycles completed or aborted.
    pub cycles_run: u64,
    /// The simulated duration.
    pub simulated: SimDuration,
    /// The first piconet's workload (see [`CampaignResult::piconets`]
    /// for per-piconet workloads).
    pub workload: WorkloadKind,
    /// Per-piconet membership and counters, in topology order.
    pub piconets: Vec<PiconetOutcome>,
    /// Per-node system logs (master logs first, in topology order) for
    /// coalescence studies.
    pub system_logs: Vec<SystemLog>,
    /// Per-failure recovery record: `(failure, severity)` with `None`
    /// for unrecoverable failures (Table 3 machinery).
    pub recoveries: Vec<(UserFailure, Option<u8>)>,
}

impl CampaignResult {
    /// Pools every node's TTF/TTR series (per-node semantics).
    pub fn pooled_series(&self) -> btpan_analysis::ttf::TtfTtrSeries {
        let mut s = btpan_analysis::ttf::TtfTtrSeries::default();
        for tl in &self.timelines {
            s.extend(&tl.series());
        }
        s
    }

    /// The **piconet-level** TTF/TTR series the paper's Table 4 uses:
    /// failures of all PANUs merged onto one timeline ("each 30 minutes
    /// on average *a node in the piconet* fails"). TTF_i is the gap
    /// between the piconet returning to full service and the next
    /// failure anywhere in it (clamped at zero for overlapping
    /// downtimes); TTR stays per-failure.
    ///
    /// With a multi-piconet topology this merges **every** piconet onto
    /// one timeline; for the per-testbed view use
    /// [`CampaignResult::piconet_series_of`].
    pub fn piconet_series(&self) -> btpan_analysis::ttf::TtfTtrSeries {
        Self::merged_series(self.timelines.iter())
    }

    /// The piconet-level series of topology piconet `index` alone.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn piconet_series_of(&self, index: usize) -> btpan_analysis::ttf::TtfTtrSeries {
        let members = &self.piconets[index].panus;
        Self::merged_series(
            self.timelines
                .iter()
                .filter(|tl| members.contains(&tl.node)),
        )
    }

    fn merged_series<'a>(
        timelines: impl Iterator<Item = &'a NodeTimeline>,
    ) -> btpan_analysis::ttf::TtfTtrSeries {
        let mut episodes: Vec<&FailureEpisode> =
            timelines.flat_map(|tl| tl.episodes.iter()).collect();
        episodes.sort_by_key(|e| e.failed_at);
        let mut s = btpan_analysis::ttf::TtfTtrSeries::default();
        let mut prev_end = SimTime::ZERO;
        for e in episodes {
            s.ttf.push(e.failed_at.saturating_since(prev_end));
            s.ttr.push(e.ttr());
            prev_end = prev_end.max(e.recovered_at);
        }
        s
    }
}

/// The campaign driver.
///
/// The config is held behind an [`Arc`], so multi-seed drivers that
/// hand the same configuration to a worker pool (or retry a seed)
/// share one allocation instead of deep-cloning the config per run.
#[derive(Debug)]
pub struct Campaign {
    config: Arc<CampaignConfig>,
}

/// Mutable per-node simulation state.
struct NodeRun<'a> {
    node: u64,
    name: String,
    quirks: btpan_faults::HostQuirks,
    distance_m: f64,
    rng: SimRng,
    test_log: TestLog,
    system_log: SystemLog,
    /// One System Log per topology piconet, indexed like
    /// `topology.piconets`; propagated causes land on a master here.
    master_logs: &'a mut [SystemLog],
    /// Index of this node's home piconet in `master_logs`.
    home: usize,
    /// Indices of the piconets this node bridges into (empty for a
    /// plain PANU). A bridge's propagated causes spread over its home
    /// and every bridged piconet's master.
    remote_piconets: Vec<usize>,
    /// The workload of this node's piconet.
    workload: WorkloadKind,
    /// Per-link drop-probability multiplier (topology override).
    link_scale: f64,
    /// Fraction of slots this node's piconets grant it (1.0 for a
    /// plain PANU, 1/k for a bridge time-sharing k piconets).
    time_share: f64,
    injector: &'a FaultInjector,
    loss: &'a LossModel,
    cfg: &'a CampaignConfig,
    masking: btpan_recovery::masking::Masking,
    episodes: Vec<FailureEpisode>,
    masked: u64,
    covered: u64,
    clean_idles_s: Vec<f64>,
    cycles: u64,
    recoveries: Vec<(UserFailure, Option<u8>)>,
    /// Post-recovery hazard multiplier and remaining cycles.
    post: (f64, u32),
}

/// What a phase produced.
enum PhaseOutcome {
    /// Phase done, time advanced by the duration.
    Ok(SimDuration),
    /// A user failure manifested after the duration; the sampled cause.
    Failed {
        after: SimDuration,
        failure: UserFailure,
        cause: Option<(SystemComponent, CauseSite)>,
        packets_before: Option<u64>,
    },
}

impl Campaign {
    /// Creates a campaign. Accepts a plain config or an already-shared
    /// `Arc<CampaignConfig>`.
    pub fn new(config: impl Into<Arc<CampaignConfig>>) -> Self {
        Campaign {
            config: config.into(),
        }
    }

    /// The configuration this campaign runs.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs the campaign to completion: every piconet of the topology
    /// in declaration order, each from its own salted RNG root.
    pub fn run(&self) -> CampaignResult {
        let cfg: &CampaignConfig = &self.config;
        let topo: &Topology = &cfg.topology;
        let injector = FaultInjector::new(cfg.injection);
        // Loss calibration forks off the unsalted campaign seed so every
        // piconet (and the process-wide memo) shares one model.
        let mut calib_rng = SimRng::seed_from(cfg.seed).fork("loss-model");
        let loss = LossModel::calibrate(cfg.base_drop, &mut calib_rng);
        let scatternet = topo.to_scatternet();
        let repository = Repository::new();

        let mut master_logs: Vec<SystemLog> = topo
            .piconets
            .iter()
            .map(|p| SystemLog::new(p.master_id()))
            .collect();

        let mut timelines = Vec::with_capacity(topo.machine_count());
        let mut masked_count = 0;
        let mut covered_count = 0;
        let mut failure_count = 0;
        let mut clean_idles_s = Vec::new();
        let mut cycles_run = 0;
        let mut system_logs = Vec::with_capacity(topo.machine_count());
        let mut recoveries = Vec::new();
        let mut piconets = Vec::with_capacity(topo.piconets.len());

        for (pi, pico) in topo.piconets.iter().enumerate() {
            let root = SimRng::seed_from(cfg.seed ^ pico.seed_salt);
            let mut outcome = PiconetOutcome {
                piconet_id: pico.id,
                label: pico.label.clone(),
                workload: pico.workload,
                master: pico.master_id(),
                panus: Vec::new(),
                failure_count: 0,
                masked_count: 0,
                covered_count: 0,
                cycles_run: 0,
            };
            for spec in pico.panus() {
                outcome.panus.push(spec.node_id);
                // The Fig. 3b experiment ran on its target hosts only.
                if cfg.fig3b_variant && !spec.is_fig3b_target() {
                    continue;
                }
                let mut run = NodeRun {
                    node: spec.node_id,
                    name: spec.name.clone(),
                    quirks: spec.quirks,
                    distance_m: spec.distance_m,
                    rng: root.fork_indexed("node", spec.stream_key()),
                    test_log: TestLog::new(spec.node_id),
                    system_log: SystemLog::new(spec.node_id),
                    master_logs: &mut master_logs,
                    home: pi,
                    remote_piconets: topo.bridge_joins_of(spec.node_id),
                    workload: pico.workload,
                    link_scale: spec.drop_scale(),
                    time_share: scatternet.time_share(spec.node_id),
                    injector: &injector,
                    loss: &loss,
                    cfg,
                    masking: cfg.policy.masking(),
                    episodes: Vec::new(),
                    masked: 0,
                    covered: 0,
                    clean_idles_s: Vec::new(),
                    cycles: 0,
                    recoveries: Vec::new(),
                    post: (1.0, 0),
                };
                run.simulate();
                // Background noise entries exercise the coalescence window.
                run.emit_noise();
                // Ship through the LogAnalyzer daemon.
                let mut analyzer = LogAnalyzer::new(run.node);
                analyzer.run_once(&run.test_log, &run.system_log, &repository);
                timelines.push(NodeTimeline::new(
                    run.node,
                    run.episodes,
                    SimTime::ZERO,
                    SimTime::ZERO + cfg.duration,
                ));
                outcome.masked_count += run.masked;
                outcome.covered_count += run.covered;
                outcome.failure_count += run.test_log.len() as u64;
                outcome.cycles_run += run.cycles;
                clean_idles_s.extend(run.clean_idles_s);
                recoveries.append(&mut run.recoveries);
                system_logs.push(run.system_log);
            }
            masked_count += outcome.masked_count;
            covered_count += outcome.covered_count;
            failure_count += outcome.failure_count;
            cycles_run += outcome.cycles_run;
            piconets.push(outcome);
        }

        // Ship every master's System Log too (masters have no Test
        // Log), then front-load them so `system_logs` reads
        // `[masters.., panus..]` in topology order.
        for (i, log) in master_logs.into_iter().enumerate() {
            let mut analyzer = LogAnalyzer::new(log.node());
            let empty_test = TestLog::new(log.node());
            analyzer.run_once(&empty_test, &log, &repository);
            system_logs.insert(i, log);
        }

        let obs = metrics::handles();
        obs.failures.add(failure_count);
        obs.masked.add(masked_count);
        obs.cycles.add(cycles_run);

        CampaignResult {
            repository,
            timelines,
            masked_count,
            covered_count,
            failure_count,
            clean_idles_s,
            cycles_run,
            simulated: cfg.duration,
            workload: cfg.workload,
            piconets,
            system_logs,
            recoveries,
        }
    }
}

impl NodeRun<'_> {
    fn hazard(&self) -> f64 {
        if self.post.1 > 0 {
            self.post.0
        } else {
            1.0
        }
    }

    fn tick_post_recovery(&mut self) {
        if self.post.1 > 0 {
            self.post.1 -= 1;
        }
    }

    fn check(&mut self, phase: Phase) -> Option<btpan_faults::InjectedFailure> {
        // Post-recovery hazard: an extra activation chance of
        // (m - 1) x p on top of the base check.
        let base = self.injector.check_phase(phase, self.quirks, &mut self.rng);
        if base.is_some() {
            return base;
        }
        let m = self.hazard();
        if m > 1.0 {
            // Re-roll the phase with the residual probability mass.
            let extra = self.injector.check_phase(phase, self.quirks, &mut self.rng);
            if extra.is_some() && self.rng.chance(m - 1.0) {
                return extra;
            }
        }
        None
    }

    fn simulate(&mut self) {
        let end = SimTime::ZERO + self.cfg.duration;
        let mut now = SimTime::ZERO;
        let random_wl = if self.cfg.fig3b_variant {
            RandomWorkload::fig3b_fixed()
        } else {
            RandomWorkload::paper()
        };
        let realistic_wl = RealisticWorkload::paper();

        'campaign: while now < end {
            let plan = match self.workload {
                WorkloadKind::Random => random_wl.next_connection(&mut self.rng),
                WorkloadKind::Realistic => realistic_wl.next_connection(&mut self.rng),
            };
            let mut latent = ConnectionLatency::healthy();
            let mut prev_off: Option<f64> = None;

            for (i, cycle) in plan.cycles.iter().enumerate() {
                if now >= end {
                    break 'campaign;
                }
                self.cycles += 1;
                self.tick_post_recovery();
                let first = i == 0;
                match self.run_cycle(now, cycle, first, &mut latent) {
                    PhaseOutcome::Ok(dur) => {
                        if !first {
                            if let Some(idle) = prev_off {
                                self.clean_idles_s.push(idle);
                            }
                        }
                        now = now + dur + cycle.off_time;
                        if now > end {
                            now = end;
                        }
                        prev_off = Some(cycle.off_time.as_secs_f64());
                    }
                    PhaseOutcome::Failed {
                        after,
                        failure,
                        cause,
                        packets_before,
                    } => {
                        let failed_at = now + after;
                        if failed_at >= end {
                            break 'campaign;
                        }
                        let idle_before = if first { None } else { prev_off };
                        now = self.handle_failure(
                            failed_at,
                            failure,
                            cause,
                            packets_before,
                            cycle,
                            idle_before,
                            end,
                        );
                        // The connection is gone; start a new plan.
                        continue 'campaign;
                    }
                }
            }
        }
    }

    /// Runs one cycle; returns its outcome.
    fn run_cycle(
        &mut self,
        now: SimTime,
        cycle: &CycleParams,
        establishing: bool,
        latent: &mut ConnectionLatency,
    ) -> PhaseOutcome {
        let mut elapsed = SimDuration::ZERO;

        // --- inquiry/scan -------------------------------------------------
        if cycle.scan {
            elapsed += SimDuration::from_millis(1_280) * self.rng.uniform_u64(1, 3);
            if let Some(f) = self.check(Phase::Inquiry) {
                return PhaseOutcome::Failed {
                    after: elapsed,
                    failure: f.failure,
                    cause: f.cause,
                    packets_before: None,
                };
            }
        }

        // --- SDP search ----------------------------------------------------
        let sdp_requested = cycle.sdp || (self.masking.sdp_first && establishing);
        let mut sdp_done = false;
        if sdp_requested {
            elapsed += SimDuration::from_millis(700);
            if let Some(f) = self.check(Phase::SdpSearch) {
                // NAP-not-found is retry-maskable. Only searches the
                // workload itself requested count as masked failures —
                // extra SDP-first searches would not have run unmasked.
                match self.masking.try_mask(f.failure, &mut self.rng) {
                    btpan_recovery::masking::MaskOutcome::Masked { delay, .. } => {
                        if cycle.sdp {
                            self.masked += 1;
                        }
                        elapsed += delay;
                        sdp_done = true;
                    }
                    btpan_recovery::masking::MaskOutcome::NotMasked => {
                        return PhaseOutcome::Failed {
                            after: elapsed,
                            failure: f.failure,
                            cause: f.cause,
                            packets_before: None,
                        };
                    }
                }
            } else {
                sdp_done = true;
            }
        }

        // --- connection establishment ---------------------------------------
        if establishing {
            // L2CAP connect (paging + handshake).
            elapsed += SimDuration::from_millis(self.rng.uniform_u64(640, 2_560));
            if let Some(f) = self.check(Phase::L2capConnect) {
                return PhaseOutcome::Failed {
                    after: elapsed,
                    failure: f.failure,
                    cause: f.cause,
                    packets_before: None,
                };
            }

            // PAN connect. SDP-first masking shifts no-SDP attempts into
            // the with-SDP regime; count the avoided mass as masked.
            if self.masking.sdp_first && !cycle.sdp {
                let avoided = (self.cfg.injection.pan_fail_no_sdp
                    - self.cfg.injection.pan_fail_with_sdp)
                    .max(0.0)
                    * self.cfg.injection.hazard_scale;
                if self.rng.chance(avoided) {
                    self.masked += 1;
                }
            }
            if let Some(f) = self.check(Phase::PanConnect { sdp_done }) {
                return PhaseOutcome::Failed {
                    after: elapsed,
                    failure: f.failure,
                    cause: f.cause,
                    packets_before: None,
                };
            }

            // Bind: mechanistic T_C/T_H race via the hotplug model.
            let hotplug = if self.quirks.bind_prone {
                btpan_stack::hotplug::HotplugDaemon::hal_bug()
            } else {
                btpan_stack::hotplug::HotplugDaemon::healthy()
            };
            let timing = hotplug.sample(now + elapsed, &mut self.rng);
            let immediate_bind_at = now + elapsed + SimDuration::from_millis(200);
            let mut would_fail = immediate_bind_at < timing.iface_up_at;
            // Post-recovery hazard also covers the hotplug path: a
            // freshly rebooted HAL takes its slow paths more often.
            let m_now = self.hazard();
            if !would_fail && m_now > 1.0 && self.quirks.bind_prone {
                let p_bind = btpan_stack::hotplug::HotplugDaemon::hal_bug()
                    .p_immediate_bind_failure(SimDuration::from_millis(200));
                would_fail = self.rng.chance((m_now - 1.0) * p_bind);
            }
            if self.masking.bind_wait {
                // Masked bind: wait for readiness; never fails.
                if would_fail {
                    self.masked += 1;
                }
                elapsed = timing.iface_up_at.since(now).max(elapsed);
            } else {
                elapsed += SimDuration::from_millis(200);
                if would_fail {
                    let err = if immediate_bind_at < timing.l2cap_usable_at {
                        BindError::HciInvalidHandle
                    } else if immediate_bind_at < timing.iface_created_at {
                        BindError::InterfaceMissing
                    } else {
                        BindError::InterfaceNotConfigured
                    };
                    let cause = match err {
                        BindError::HciInvalidHandle => (SystemComponent::Hci, CauseSite::Local),
                        BindError::InterfaceMissing => (SystemComponent::Bnep, CauseSite::Local),
                        BindError::InterfaceNotConfigured => {
                            // BNEP created but unconfigured: hotplug and
                            // BNEP evidence in the 18.5/21.9 ratio.
                            if self.rng.chance(18.5 / (18.5 + 21.9)) {
                                (SystemComponent::Hotplug, CauseSite::Local)
                            } else {
                                (SystemComponent::Bnep, CauseSite::Local)
                            }
                        }
                    };
                    return PhaseOutcome::Failed {
                        after: elapsed,
                        failure: UserFailure::BindFailed,
                        cause: Some(cause),
                        packets_before: None,
                    };
                }
            }

            // Role switch: request then command, command retry-maskable.
            elapsed += SimDuration::from_millis(self.rng.uniform_u64(20, 80));
            if let Some(f) = self.check(Phase::SwitchRoleRequest) {
                return PhaseOutcome::Failed {
                    after: elapsed,
                    failure: f.failure,
                    cause: f.cause,
                    packets_before: None,
                };
            }
            if let Some(f) = self.check(Phase::SwitchRoleCommand) {
                match self.masking.try_mask(f.failure, &mut self.rng) {
                    btpan_recovery::masking::MaskOutcome::Masked { delay, .. } => {
                        self.masked += 1;
                        elapsed += delay;
                    }
                    btpan_recovery::masking::MaskOutcome::NotMasked => {
                        return PhaseOutcome::Failed {
                            after: elapsed,
                            failure: f.failure,
                            cause: f.cause,
                            packets_before: None,
                        };
                    }
                }
            }

            // Fresh connection: roll its latent state (post-recovery
            // hazard raises the defect probability of fresh setups).
            let mut latent_model = self.cfg.latent;
            latent_model.p_latent = (latent_model.p_latent * self.hazard()).min(1.0);
            *latent = ConnectionLatency::roll(&latent_model, &mut self.rng);
        }

        // --- data transfer ---------------------------------------------------
        let pt = cycle.effective_packet_type();
        let payloads = cycle.baseband_payloads();
        let m = self.hazard();
        let stress_mult = self.cfg.stress.multiplier(cycle.duty_factor());
        let p_drop = (self.loss.p_drop(pt) * stress_mult * m * self.link_scale).clamp(0.0, 1.0);

        // Air time per payload, inflated by the application duty factor
        // (intermittent applications spread their payloads out).
        let mut per_payload =
            SimDuration::from_slots(pt.slots() + 1).mul_f64(1.0 / cycle.duty_factor().max(0.05));
        // A bridge only holds each piconet's channel for its share of
        // the scatternet epoch, stretching its transfers accordingly.
        if self.time_share < 1.0 {
            per_payload = per_payload.mul_f64(1.0 / self.time_share);
        }

        // Candidate failure points in *workload packets* (SDUs) —
        // Fig. 3b's "number of sent packets" axis — earliest wins.
        let sdus = cycle.n_packets.max(1);
        let payloads_per_sdu = (payloads as f64 / sdus as f64).max(1e-9);
        let packets_before_cycle = latent.packets_sent();
        let mut first_event: Option<(u64, UserFailure)> = None;
        if let Some(age) = latent.advance(sdus) {
            // Latent defect manifests as a broken link -> packet loss.
            let offset = age.saturating_sub(packets_before_cycle);
            first_event = Some((offset.min(sdus), UserFailure::PacketLoss));
        }
        if p_drop > 0.0 {
            let g = Geometric::new(p_drop).expect("p_drop in (0,1]");
            let at_payload = g.sample(&mut self.rng);
            if at_payload < payloads {
                let at = (at_payload as f64 / payloads_per_sdu) as u64;
                if first_event.is_none_or(|(e, _)| at < e) {
                    first_event = Some((at, UserFailure::PacketLoss));
                }
            }
        }
        // Residual injected link breaks.
        if self
            .rng
            .chance((self.injector.link_break_probability(payloads) * m).min(1.0))
        {
            let at = self.rng.uniform_u64(0, sdus - 1);
            if first_event.is_none_or(|(e, _)| at < e) {
                first_event = Some((at, UserFailure::PacketLoss));
            }
        }

        if let Some((at, failure)) = first_event {
            let cause = self
                .injector
                .materialize(failure, self.quirks, &mut self.rng)
                .cause;
            let packets_before = packets_before_cycle + at;
            let air = per_payload.mul_f64(at as f64 * payloads_per_sdu);
            return PhaseOutcome::Failed {
                after: elapsed + air,
                failure,
                cause,
                packets_before: Some(packets_before),
            };
        }

        // Data mismatch: CRC-escaping corruption plus stack corruption.
        let p_mismatch = (self.loss.p_undetected(pt) * payloads as f64
            + self.injector.mismatch_probability())
            * m;
        if self.rng.chance(p_mismatch.min(1.0)) {
            let cause = self
                .injector
                .materialize(UserFailure::DataMismatch, self.quirks, &mut self.rng)
                .cause;
            return PhaseOutcome::Failed {
                after: elapsed + per_payload * payloads,
                failure: UserFailure::DataMismatch,
                cause,
                packets_before: Some(latent.packets_sent()),
            };
        }

        elapsed += per_payload * payloads;
        PhaseOutcome::Ok(elapsed)
    }

    /// Records a failure, emits its log entries, runs recovery, and
    /// returns the instant the node is back in service.
    #[allow(clippy::too_many_arguments)]
    fn handle_failure(
        &mut self,
        failed_at: SimTime,
        failure: UserFailure,
        cause: Option<(SystemComponent, CauseSite)>,
        packets_before: Option<u64>,
        cycle: &CycleParams,
        idle_before: Option<f64>,
        end: SimTime,
    ) -> SimTime {
        // Test-Log report with node status.
        self.test_log.append(TestLogEntry {
            at: failed_at,
            node: self.node,
            failure,
            workload: match self.workload {
                WorkloadKind::Random => WorkloadTag::Random,
                WorkloadKind::Realistic => WorkloadTag::Realistic,
            },
            packet_type: Some(cycle.effective_packet_type().to_string()),
            packets_sent_before: packets_before,
            app: cycle.app.map(|a| a.label().to_string()),
            distance_m: self.distance_m,
            idle_before_s: idle_before,
        });

        // System-Log evidence. Real system logs chatter: the paper
        // collected ~16 system entries per user report (including
        // background noise). Error entries trickle in over the minutes
        // leading up to the manifestation (driver retries, daemon
        // respawns); their spread sets where the Fig. 2 coalescence
        // knee lands (the paper chose 330 s).
        if let Some((component, site)) = cause {
            let n_entries = 9 + self.rng.uniform_u64(0, 6);
            for _ in 0..n_entries {
                let back_s = self.rng.uniform_f64(0.0, 420.0);
                let back = SimDuration::from_secs_f64(back_s);
                let at = if SimTime::ZERO + back < failed_at {
                    failed_at - back
                } else {
                    failed_at
                };
                let fault = self
                    .injector
                    .system_fault_for(component, failure, &mut self.rng);
                match site {
                    CauseSite::Local => {
                        self.system_log
                            .append(SystemLogEntry::new(at, self.node, fault));
                    }
                    CauseSite::Nap => {
                        // A plain PANU propagates to its home master; a
                        // bridge spreads propagated evidence uniformly
                        // over every piconet it serves (the fault lives
                        // in the shared baseband/BNEP path). The extra
                        // draw happens only on bridge nodes, so plain
                        // campaigns replay legacy streams exactly.
                        let target = if self.remote_piconets.is_empty() {
                            self.home
                        } else {
                            let k = 1 + self.remote_piconets.len() as u64;
                            match self.rng.uniform_u64(0, k - 1) {
                                0 => self.home,
                                i => self.remote_piconets[(i - 1) as usize],
                            }
                        };
                        let master = self.master_logs[target].node();
                        self.master_logs[target].append(SystemLogEntry::new(at, master, fault));
                    }
                }
            }
        }

        // Recovery under the active policy.
        let outcome =
            self.cfg
                .policy
                .recover(failure, &self.cfg.costs, self.quirks.is_pda, &mut self.rng);
        if outcome.counts_for_coverage() {
            self.covered += 1;
        }
        self.recoveries.push((failure, outcome.severity));
        if let Some(severity) = outcome.severity.or(Some(1)) {
            self.post = (
                self.cfg.latent.post_recovery_multiplier(severity),
                self.cfg.latent.post_recovery_window(),
            );
        }
        let mut recovered_at = failed_at + outcome.duration;
        if recovered_at > end {
            recovered_at = end;
        }
        self.episodes.push(FailureEpisode {
            failed_at,
            recovered_at,
            failure,
        });
        recovered_at
    }

    /// Emits unrelated background System-Log entries over the campaign.
    fn emit_noise(&mut self) {
        let gap = Exponential::from_mean(self.cfg.noise_gap_s).expect("positive noise gap");
        let benign = [
            btpan_faults::SystemFault::HciCommandTimeout,
            btpan_faults::SystemFault::SdpConnectionRefused,
            btpan_faults::SystemFault::L2capUnexpectedFrame,
            btpan_faults::SystemFault::UsbAddressRejected,
        ];
        let mut t = SimTime::ZERO + SimDuration::from_secs_f64(gap.sample(&mut self.rng));
        let end = SimTime::ZERO + self.cfg.duration;
        while t < end {
            let fault = *self.rng.pick(&benign);
            self.system_log
                .append(SystemLogEntry::new(t, self.node, fault));
            t += SimDuration::from_secs_f64(gap.sample(&mut self.rng).max(1.0));
        }
        let _ = &self.name;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64, workload: WorkloadKind, policy: RecoveryPolicy) -> CampaignResult {
        Campaign::new(
            CampaignConfig::paper(seed, workload, policy)
                .duration(SimDuration::from_secs(4 * 3600)),
        )
        .run()
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = quick(42, WorkloadKind::Random, RecoveryPolicy::Siras);
        let b = quick(42, WorkloadKind::Random, RecoveryPolicy::Siras);
        assert_eq!(a.failure_count, b.failure_count);
        assert_eq!(a.cycles_run, b.cycles_run);
        assert_eq!(a.repository.total_count(), b.repository.total_count());
        assert_eq!(a.masked_count, b.masked_count);
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick(1, WorkloadKind::Random, RecoveryPolicy::Siras);
        let b = quick(2, WorkloadKind::Random, RecoveryPolicy::Siras);
        assert_ne!(
            (a.failure_count, a.cycles_run),
            (b.failure_count, b.cycles_run)
        );
    }

    #[test]
    fn campaign_produces_failures_and_logs() {
        let r = quick(7, WorkloadKind::Random, RecoveryPolicy::Siras);
        assert!(r.failure_count > 20, "failures {}", r.failure_count);
        assert!(r.repository.test_count() as u64 == r.failure_count);
        assert!(r.repository.system_count() > 0);
        assert_eq!(r.timelines.len(), 6);
        assert!(r.cycles_run > 500);
    }

    #[test]
    fn masking_eliminates_bind_failures() {
        let masked = quick(11, WorkloadKind::Random, RecoveryPolicy::SirasAndMasking);
        let binds = masked
            .repository
            .tests()
            .iter()
            .filter(|t| t.failure == UserFailure::BindFailed)
            .count();
        assert_eq!(binds, 0, "masked run still shows bind failures");
        assert!(masked.masked_count > 0);
        let unmasked = quick(11, WorkloadKind::Random, RecoveryPolicy::Siras);
        let binds = unmasked
            .repository
            .tests()
            .iter()
            .filter(|t| t.failure == UserFailure::BindFailed)
            .count();
        assert!(binds > 0, "unmasked run shows no bind failures");
    }

    #[test]
    fn masking_raises_mttf() {
        let long = |policy| {
            Campaign::new(
                CampaignConfig::paper(13, WorkloadKind::Random, policy)
                    .duration(SimDuration::from_secs(30 * 3600)),
            )
            .run()
        };
        let base = long(RecoveryPolicy::Siras);
        let masked = long(RecoveryPolicy::SirasAndMasking);
        let mttf = |r: &CampaignResult| r.piconet_series().ttf_stats().mean().unwrap_or(f64::MAX);
        assert!(
            mttf(&masked) > mttf(&base) * 1.4,
            "masked {} base {}",
            mttf(&masked),
            mttf(&base)
        );
    }

    #[test]
    fn realistic_fails_less_than_random() {
        let random = quick(17, WorkloadKind::Random, RecoveryPolicy::Siras);
        let realistic = quick(17, WorkloadKind::Realistic, RecoveryPolicy::Siras);
        assert!(
            random.failure_count > realistic.failure_count * 2,
            "random {} realistic {}",
            random.failure_count,
            realistic.failure_count
        );
        assert!(!realistic.clean_idles_s.is_empty());
    }

    #[test]
    fn timelines_are_consistent() {
        let r = quick(23, WorkloadKind::Random, RecoveryPolicy::RebootOnly);
        for tl in &r.timelines {
            // NodeTimeline::new validated ordering; check uptime split.
            assert_eq!(tl.uptime() + tl.downtime(), tl.span());
        }
    }

    #[test]
    fn calibration_memo_matches_uncached() {
        let mut a = SimRng::seed_from(1234).fork("loss-model");
        let mut b = SimRng::seed_from(1234).fork("loss-model");
        let uncached = LossModel::calibrate_uncached(2e-6, &mut a);
        let first = LossModel::calibrate(2e-6, &mut b);
        let second = LossModel::calibrate(2e-6, &mut b); // memo hit
        assert_eq!(first, uncached);
        assert_eq!(second, uncached);
        // A different base_drop is a different key, not a stale hit.
        let other = LossModel::calibrate(3e-6, &mut b);
        assert_eq!(other.base_drop, 3e-6);
        assert_eq!(other.type_factor, uncached.type_factor);
    }

    /// Golden calibration bits: `type_factor` as `f64::to_bits`, per
    /// campaign seed and `base_drop`, forked as `Campaign::run` forks.
    /// Any change to the slot-level link that is not bit-identical
    /// (RNG draw order, factor arithmetic, payload count) shows here.
    #[test]
    fn calibration_type_factors_are_pinned() {
        const GOLDEN: [(u64, [u64; 6]); 3] = [
            (
                7,
                [
                    0x3ff196fa6f044890,
                    0x3ff05973594ba869,
                    0x3ff03be07e2ca88e,
                    0x3ff062ca253a7ff2,
                    0x3fecac7e2351c198,
                    0x3fed8fbe305ae8ea,
                ],
            ),
            (
                29,
                [
                    0x3ff06d0cd0dcfcfc,
                    0x3ff221a60f0027d7,
                    0x3fef356f8ef7644c,
                    0x3ff02bb8389dcc87,
                    0x3fecd7ef1ea13f4a,
                    0x3fee1cfe2d2055da,
                ],
            ),
            (
                1234,
                [
                    0x3ff1c6a05f9092eb,
                    0x3ff178e7df955512,
                    0x3fefa2d080ace38f,
                    0x3ff03ed9c5893696,
                    0x3fec93434c9e2ae7,
                    0x3fed9437907989a8,
                ],
            ),
        ];
        let mut failures = Vec::new();
        for (seed, bits) in GOLDEN {
            for base_drop in [1.68e-6, 2e-6] {
                let mut rng = SimRng::seed_from(seed).fork("loss-model");
                let model = LossModel::calibrate_uncached(base_drop, &mut rng);
                assert_eq!(model.base_drop, base_drop);
                let got = model.type_factor.map(f64::to_bits);
                if got != bits {
                    failures.push(format!("seed {seed} base_drop {base_drop}: {got:#018x?}"));
                }
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn loss_model_shape_matches_fig3a() {
        let mut rng = SimRng::seed_from(99);
        let lm = LossModel::calibrate(1.55e-5, &mut rng);
        // Per-byte loss must order DM1 worst ... DH5 best once payload
        // counts are included; per-payload factors must make 1-slot
        // types at least as bad as their 5-slot siblings.
        let per_byte = |pt: PacketType| lm.p_drop(pt) / f64::from(pt.max_payload_bytes());
        assert!(per_byte(PacketType::Dm1) > per_byte(PacketType::Dh5));
        assert!(per_byte(PacketType::Dh1) > per_byte(PacketType::Dh3));
        assert!(per_byte(PacketType::Dm3) > per_byte(PacketType::Dm5) * 0.8);
        assert!(lm.p_undetected(PacketType::Dh5) < lm.p_drop(PacketType::Dh5));
    }
}

#[cfg(test)]
mod hazard_tests {
    use super::*;

    /// The post-recovery hazard must be visible: a reboot-heavy policy
    /// shortens inter-failure gaps relative to shallow SIRAs.
    #[test]
    fn rejuvenation_penalty_shortens_reboot_policy_mttf() {
        let run = |policy| {
            Campaign::new(
                CampaignConfig::paper(21, WorkloadKind::Random, policy)
                    .duration(SimDuration::from_secs(40 * 3600)),
            )
            .run()
        };
        let reboot = run(RecoveryPolicy::RebootOnly);
        let siras = run(RecoveryPolicy::Siras);
        let mttf = |r: &CampaignResult| r.piconet_series().ttf_stats().mean().unwrap_or(f64::MAX);
        assert!(
            mttf(&reboot) < mttf(&siras),
            "reboot {} !< siras {}",
            mttf(&reboot),
            mttf(&siras)
        );
    }

    /// Disabling the rejuvenation model closes most of that gap.
    #[test]
    fn disabling_post_penalty_closes_the_gap() {
        let run = |policy, post_scale: f64| {
            let mut cfg = CampaignConfig::paper(22, WorkloadKind::Random, policy)
                .duration(SimDuration::from_secs(40 * 3600));
            cfg.latent.post_scale = post_scale;
            Campaign::new(cfg).run()
        };
        let mttf = |r: &CampaignResult| r.piconet_series().ttf_stats().mean().unwrap_or(f64::MAX);
        let with = mttf(&run(RecoveryPolicy::RebootOnly, 1.0));
        let without = mttf(&run(RecoveryPolicy::RebootOnly, 0.0));
        assert!(without > with * 1.15, "penalty off {without} vs on {with}");
    }

    /// The piconet-level series interleaves all six PANUs: it must hold
    /// every episode and its MTTF must sit well below any single node's.
    #[test]
    fn piconet_series_merges_all_nodes() {
        let r = Campaign::new(
            CampaignConfig::paper(23, WorkloadKind::Random, RecoveryPolicy::Siras)
                .duration(SimDuration::from_secs(30 * 3600)),
        )
        .run();
        let piconet = r.piconet_series();
        let per_node: usize = r.timelines.iter().map(|tl| tl.episodes.len()).sum();
        assert_eq!(piconet.len(), per_node);
        let pooled = r.pooled_series();
        let pico_mttf = piconet.ttf_stats().mean().unwrap();
        let node_mttf = pooled.ttf_stats().mean().unwrap();
        assert!(
            pico_mttf < node_mttf / 2.0,
            "piconet {pico_mttf} vs per-node {node_mttf}"
        );
    }
}
