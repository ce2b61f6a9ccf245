//! Composable radio-channel models.
//!
//! The paper attributes data-transfer failures to *correlated* channel
//! errors: "the weakness of integrity checks is the assumption of having
//! memoryless channels with uncorrelated errors from bit to bit. In our
//! case, correlated errors (e.g. bursts) can occur due to the nature of
//! the wireless media, affected by multi-path fading and electromagnetic
//! interferences." We model exactly those three ingredients:
//!
//! * [`GilbertElliott`] — a two-state Markov burst process (multi-path
//!   fading): a *good* state with low bit-error rate and a *bad* state
//!   with a high one, with per-slot transition probabilities that give
//!   burst lengths of tens of slots (tens of ms);
//! * [`PathLoss`] — a distance-dependent BER floor. Class 2 devices at
//!   ≤ 10 m show little distance sensitivity (the paper measured
//!   33.3/37.1/29.6 % of failures at 0.5/5/7 m), so the slope is mild;
//! * [`Interferer`] — an on/off renewal source (e.g. 802.11 traffic or a
//!   microwave oven) occupying a contiguous sub-band of the 79 channels;
//!   it raises BER only on slots whose hop lands inside the band;
//! * [`CompositeChannel`] — combines the above into the per-slot BER the
//!   link simulation consumes.

use btpan_sim::prelude::*;

/// Whether the burst process is currently in its good or bad state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// Low-BER state.
    Good,
    /// High-BER (burst) state.
    Bad,
}

/// A per-slot channel model producing bit-error rates.
///
/// Implementations are advanced exactly once per slot in slot order; the
/// returned value is the bit-error probability for bits on air in that
/// slot on hop channel `ch`.
pub trait ChannelModel {
    /// BER for the slot with absolute index `slot` on RF channel `ch`,
    /// advancing internal state.
    fn slot_ber(&mut self, slot: u64, ch: u8, rng: &mut SimRng) -> f64;

    /// The current burst state, if the model has one.
    fn state(&self) -> ChannelState {
        ChannelState::Good
    }
}

/// Two-state Gilbert–Elliott burst-error process.
#[derive(Debug, Clone)]
pub struct GilbertElliott {
    state: ChannelState,
    /// P(good → bad) per slot.
    p_gb: f64,
    /// P(bad → good) per slot.
    p_bg: f64,
    ber_good: f64,
    ber_bad: f64,
}

impl GilbertElliott {
    /// Creates a burst process.
    ///
    /// `p_gb`/`p_bg` are per-slot transition probabilities; `ber_good`
    /// and `ber_bad` the BER in each state.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn new(p_gb: f64, p_bg: f64, ber_good: f64, ber_bad: f64) -> Self {
        for (name, p) in [
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("ber_good", ber_good),
            ("ber_bad", ber_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} outside [0,1]");
        }
        GilbertElliott {
            state: ChannelState::Good,
            p_gb,
            p_bg,
            ber_good,
            ber_bad,
        }
    }

    /// Default calibration: mean burst every ~45 s of slot time, mean
    /// burst length ≈ 40 slots (25 ms), BER 5·10⁻⁶ good / 3·10⁻² bad.
    ///
    /// These figures put the per-payload drop probability in the range
    /// that reproduces the paper's packet-loss share (≈ 34 % of user
    /// failures) under the Random WL.
    pub fn typical() -> Self {
        GilbertElliott::new(1.4e-5, 0.025, 5e-6, 3e-2)
    }

    /// Stationary probability of being in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        if self.p_gb + self.p_bg == 0.0 {
            0.0
        } else {
            self.p_gb / (self.p_gb + self.p_bg)
        }
    }

    /// Mean burst (bad-state dwell) length in slots.
    pub fn mean_burst_slots(&self) -> f64 {
        if self.p_bg == 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.p_bg
        }
    }
}

impl ChannelModel for GilbertElliott {
    fn slot_ber(&mut self, _slot: u64, _ch: u8, rng: &mut SimRng) -> f64 {
        let ber = match self.state {
            ChannelState::Good => self.ber_good,
            ChannelState::Bad => self.ber_bad,
        };
        self.state = match self.state {
            ChannelState::Good if rng.chance(self.p_gb) => ChannelState::Bad,
            ChannelState::Bad if rng.chance(self.p_bg) => ChannelState::Good,
            s => s,
        };
        ber
    }

    fn state(&self) -> ChannelState {
        self.state
    }
}

/// Distance-dependent BER floor for Class 2 radios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLoss {
    distance_m: f64,
}

impl PathLoss {
    /// Maximum operating distance of a Class 2 device.
    pub const CLASS2_RANGE_M: f64 = 10.0;

    /// Creates a path-loss model for a link of the given distance.
    ///
    /// # Panics
    ///
    /// Panics if the distance is negative or not finite.
    pub fn new(distance_m: f64) -> Self {
        assert!(
            distance_m.is_finite() && distance_m >= 0.0,
            "invalid distance"
        );
        PathLoss { distance_m }
    }

    /// The configured distance in metres.
    pub fn distance_m(&self) -> f64 {
        self.distance_m
    }

    /// The BER floor contributed by free-space loss at this distance.
    ///
    /// Within Class 2 range the effect is mild and saturating — chosen so
    /// that 0.5 m vs 7 m changes failure shares by only a few percent,
    /// matching the paper's distance-insensitivity finding.
    pub fn ber_floor(&self) -> f64 {
        let norm = (self.distance_m / Self::CLASS2_RANGE_M).min(2.0);
        2e-6 * norm * norm
    }
}

impl ChannelModel for PathLoss {
    fn slot_ber(&mut self, _slot: u64, _ch: u8, _rng: &mut SimRng) -> f64 {
        self.ber_floor()
    }
}

/// An on/off interference source occupying a contiguous sub-band.
///
/// While *on*, slots whose hop channel falls inside
/// `[center − width/2, center + width/2]` suffer `ber_hit`; other slots
/// are unaffected. On/off dwell times are exponential.
#[derive(Debug, Clone)]
pub struct Interferer {
    center: u8,
    half_width: u8,
    ber_hit: f64,
    on: bool,
    /// Slots remaining in the current on/off period.
    remaining: u64,
    on_mean_slots: f64,
    off_mean_slots: f64,
}

impl Interferer {
    /// Creates an interferer.
    ///
    /// * `center`, `width` — occupied sub-band in hop-channel units
    ///   (an 802.11b station occupies ≈ 22 MHz ⇒ width 22);
    /// * `ber_hit` — BER inflicted on hit slots while on;
    /// * `on_mean_s` / `off_mean_s` — mean on and off dwell in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `center >= 79`, `ber_hit` outside `[0,1]`, or dwell means
    /// are not positive.
    pub fn new(center: u8, width: u8, ber_hit: f64, on_mean_s: f64, off_mean_s: f64) -> Self {
        assert!(center < crate::hop::CHANNELS, "center channel out of range");
        assert!((0.0..=1.0).contains(&ber_hit), "ber_hit outside [0,1]");
        assert!(on_mean_s > 0.0 && off_mean_s > 0.0, "dwell means");
        Interferer {
            center,
            half_width: width / 2,
            ber_hit,
            on: false,
            remaining: 0,
            on_mean_slots: on_mean_s / 625e-6,
            off_mean_slots: off_mean_s / 625e-6,
        }
    }

    /// A co-located 802.11b cell: 22-channel band, on 20 % of the time.
    pub fn wifi(center: u8) -> Self {
        Interferer::new(center, 22, 2e-2, 2.0, 8.0)
    }

    fn hits(&self, ch: u8) -> bool {
        let lo = self.center.saturating_sub(self.half_width);
        let hi = (self.center + self.half_width).min(crate::hop::CHANNELS - 1);
        (lo..=hi).contains(&ch)
    }

    /// Whether the interferer is currently transmitting.
    pub fn is_on(&self) -> bool {
        self.on
    }
}

impl ChannelModel for Interferer {
    fn slot_ber(&mut self, _slot: u64, ch: u8, rng: &mut SimRng) -> f64 {
        if self.remaining == 0 {
            self.on = !self.on;
            let mean = if self.on {
                self.on_mean_slots
            } else {
                self.off_mean_slots
            };
            let draw = Exponential::from_mean(mean)
                .expect("positive mean")
                .sample(rng);
            self.remaining = draw.ceil().max(1.0) as u64;
        }
        self.remaining -= 1;
        if self.on && self.hits(ch) {
            self.ber_hit
        } else {
            0.0
        }
    }
}

/// Combines a burst process, path loss and any number of interferers.
///
/// Per-slot BER is the complement-product combination
/// `1 − Π(1 − berᵢ)` — independent error sources.
#[derive(Debug, Clone)]
pub struct CompositeChannel {
    burst: GilbertElliott,
    path: PathLoss,
    interferers: Vec<Interferer>,
}

impl CompositeChannel {
    /// Creates a composite channel.
    pub fn new(burst: GilbertElliott, path: PathLoss) -> Self {
        CompositeChannel {
            burst,
            path,
            interferers: Vec::new(),
        }
    }

    /// The paper-calibrated default for a link at `distance_m`.
    pub fn typical(distance_m: f64) -> Self {
        let mut c = CompositeChannel::new(GilbertElliott::typical(), PathLoss::new(distance_m));
        c.add_interferer(Interferer::wifi(39));
        c
    }

    /// Adds an interference source.
    pub fn add_interferer(&mut self, i: Interferer) -> &mut Self {
        self.interferers.push(i);
        self
    }

    /// The underlying burst process state.
    pub fn burst_state(&self) -> ChannelState {
        self.burst.state()
    }
}

impl ChannelModel for CompositeChannel {
    fn slot_ber(&mut self, slot: u64, ch: u8, rng: &mut SimRng) -> f64 {
        let mut ok = 1.0 - self.burst.slot_ber(slot, ch, rng);
        ok *= 1.0 - self.path.slot_ber(slot, ch, rng);
        for i in self.interferers.iter_mut() {
            ok *= 1.0 - i.slot_ber(slot, ch, rng);
        }
        1.0 - ok
    }

    fn state(&self) -> ChannelState {
        self.burst.state()
    }
}

/// A channel with a constant BER — the *memoryless* baseline used by the
/// ablation bench to show Fig. 3a's shape depends on burstiness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorylessChannel {
    ber: f64,
}

impl MemorylessChannel {
    /// Creates a memoryless channel with constant `ber`.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is outside `[0, 1]`.
    pub fn new(ber: f64) -> Self {
        assert!((0.0..=1.0).contains(&ber), "ber outside [0,1]");
        MemorylessChannel { ber }
    }

    /// A memoryless channel with the same *average* BER as a given
    /// Gilbert–Elliott process (matched first moment).
    pub fn matching(ge: &GilbertElliott) -> Self {
        let pi_bad = ge.stationary_bad();
        MemorylessChannel::new(ge.ber_bad * pi_bad + ge.ber_good * (1.0 - pi_bad))
    }
}

impl ChannelModel for MemorylessChannel {
    fn slot_ber(&mut self, _slot: u64, _ch: u8, _rng: &mut SimRng) -> f64 {
        self.ber
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(99)
    }

    #[test]
    fn gilbert_elliott_visits_both_states() {
        let mut ge = GilbertElliott::new(0.05, 0.2, 1e-6, 1e-2);
        let mut r = rng();
        let mut good = 0;
        let mut bad = 0;
        for slot in 0..100_000 {
            match ge.state() {
                ChannelState::Good => good += 1,
                ChannelState::Bad => bad += 1,
            }
            let _ = ge.slot_ber(slot, 0, &mut r);
        }
        let frac_bad = bad as f64 / (good + bad) as f64;
        let expect = ge.stationary_bad(); // 0.05/0.25 = 0.2
        assert!((frac_bad - expect).abs() < 0.02, "frac {frac_bad}");
    }

    #[test]
    fn gilbert_elliott_bursts_are_contiguous() {
        let mut ge = GilbertElliott::new(0.01, 0.1, 0.0, 1.0);
        let mut r = rng();
        let bers: Vec<f64> = (0..50_000).map(|s| ge.slot_ber(s, 0, &mut r)).collect();
        // Count runs of bad slots; mean run length should be ~ 1/p_bg = 10.
        let mut runs = Vec::new();
        let mut cur = 0u32;
        for &b in &bers {
            if b == 1.0 {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        assert!(!runs.is_empty());
        let mean = runs.iter().copied().sum::<u32>() as f64 / runs.len() as f64;
        assert!((mean - 10.0).abs() < 2.0, "mean burst {mean}");
    }

    #[test]
    fn stationary_and_burst_stats() {
        let ge = GilbertElliott::new(0.02, 0.08, 0.0, 0.1);
        assert!((ge.stationary_bad() - 0.2).abs() < 1e-12);
        assert!((ge.mean_burst_slots() - 12.5).abs() < 1e-12);
        let z = GilbertElliott::new(0.0, 0.0, 0.0, 0.1);
        assert_eq!(z.stationary_bad(), 0.0);
        assert!(z.mean_burst_slots().is_infinite());
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn ge_rejects_bad_probability() {
        let _ = GilbertElliott::new(1.5, 0.1, 0.0, 0.0);
    }

    #[test]
    fn path_loss_mild_within_class2() {
        let near = PathLoss::new(0.5).ber_floor();
        let far = PathLoss::new(7.0).ber_floor();
        assert!(far > near);
        // Still tiny compared to the burst-state BER.
        assert!(far < 1e-5);
        assert_eq!(PathLoss::new(0.0).ber_floor(), 0.0);
    }

    #[test]
    fn interferer_only_hits_its_band_when_on() {
        let mut i = Interferer::new(40, 22, 0.5, 1.0, 1.0);
        let mut r = rng();
        let mut hit_in_band = false;
        let mut hit_out_band = false;
        for slot in 0..20_000 {
            let in_band = i.slot_ber(slot, 40, &mut r);
            let out_band = i.slot_ber(slot, 5, &mut r);
            if in_band > 0.0 {
                hit_in_band = true;
            }
            if out_band > 0.0 {
                hit_out_band = true;
            }
        }
        assert!(hit_in_band);
        assert!(!hit_out_band);
    }

    #[test]
    fn interferer_duty_cycle() {
        let mut i = Interferer::new(40, 79, 1.0, 2.0, 8.0);
        let mut r = rng();
        // Mean cycle is 16 000 slots (2 s on + 8 s off), so sample a few
        // hundred cycles to keep the duty estimator's σ well under the
        // assertion margin regardless of the RNG stream.
        let n = 4_000_000;
        let on = (0..n).filter(|&s| i.slot_ber(s, 40, &mut r) > 0.0).count();
        let duty = on as f64 / n as f64;
        assert!((duty - 0.2).abs() < 0.05, "duty {duty}");
    }

    #[test]
    fn composite_combines_sources() {
        let mut c = CompositeChannel::new(
            GilbertElliott::new(0.0, 1.0, 1e-3, 1e-3),
            PathLoss::new(5.0),
        );
        let mut r = rng();
        let ber = c.slot_ber(0, 0, &mut r);
        assert!(ber > 1e-3); // burst floor + path floor
        assert!(ber < 2e-3);
    }

    #[test]
    fn memoryless_matches_average() {
        let ge = GilbertElliott::new(0.01, 0.04, 0.0, 0.05);
        let m = MemorylessChannel::matching(&ge);
        // pi_bad = 0.2, avg = 0.01
        let mut r = rng();
        let mut mm = m;
        assert!((mm.slot_ber(0, 0, &mut r) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn typical_channel_sane() {
        let mut c = CompositeChannel::typical(5.0);
        let mut r = rng();
        for slot in 0..1000 {
            let ber = c.slot_ber(slot, (slot % 79) as u8, &mut r);
            assert!((0.0..=1.0).contains(&ber));
        }
    }
}
