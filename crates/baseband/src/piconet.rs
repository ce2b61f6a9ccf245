//! Piconet membership and scatternet bridges.
//!
//! A piconet has one master and up to seven *active* slaves, each holding
//! a 3-bit active member address (`AM_ADDR`). The master polls slaves in
//! a round-robin TDD schedule over the 1600 slots/s (the NAP `Giallo` is
//! the master; the six PANUs are slaves).
//!
//! The PAN profile's *role switch* matters here: a PANU initiating a
//! connection is initially master and must hand the master role to the
//! NAP so the NAP can keep serving up to seven PANUs; this module
//! enforces the invariant that membership and addressing stay
//! consistent through that switch.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum number of active slaves (3-bit AM_ADDR, 0 reserved for
/// broadcast).
pub const MAX_ACTIVE_SLAVES: usize = 7;

/// A slave's 3-bit active member address (1–7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlaveSlot(u8);

impl SlaveSlot {
    /// The raw AM_ADDR value (1–7).
    pub fn am_addr(self) -> u8 {
        self.0
    }
}

impl fmt::Display for SlaveSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AM_ADDR {}", self.0)
    }
}

/// Errors from piconet membership operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PiconetError {
    /// All seven active member addresses are taken.
    Full,
    /// The device is already an active member.
    AlreadyJoined,
    /// The referenced device is not a member.
    NotAMember,
}

impl fmt::Display for PiconetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PiconetError::Full => write!(f, "piconet already has 7 active slaves"),
            PiconetError::AlreadyJoined => write!(f, "device is already an active member"),
            PiconetError::NotAMember => write!(f, "device is not a piconet member"),
        }
    }
}

impl std::error::Error for PiconetError {}

/// A piconet: one master plus up to seven addressed active slaves.
///
/// Devices are identified by a caller-chosen `u64` (e.g. the node id of
/// the testbed).
#[derive(Debug, Clone)]
pub struct Piconet {
    master: u64,
    /// AM_ADDR → device id.
    slaves: BTreeMap<u8, u64>,
}

impl Piconet {
    /// Creates a piconet mastered by `master`.
    pub fn new(master: u64) -> Self {
        Piconet {
            master,
            slaves: BTreeMap::new(),
        }
    }

    /// The current master's device id.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Number of active slaves.
    pub fn slave_count(&self) -> usize {
        self.slaves.len()
    }

    /// True if `device` is an active slave.
    pub fn is_slave(&self, device: u64) -> bool {
        self.slaves.values().any(|&d| d == device)
    }

    /// Admits a slave, assigning the lowest free AM_ADDR.
    ///
    /// # Errors
    ///
    /// Fails when the piconet is full or the device already joined.
    pub fn join(&mut self, device: u64) -> Result<SlaveSlot, PiconetError> {
        if self.is_slave(device) || device == self.master {
            return Err(PiconetError::AlreadyJoined);
        }
        let free = (1..=MAX_ACTIVE_SLAVES as u8).find(|a| !self.slaves.contains_key(a));
        match free {
            Some(addr) => {
                self.slaves.insert(addr, device);
                Ok(SlaveSlot(addr))
            }
            None => Err(PiconetError::Full),
        }
    }

    /// Removes a slave (disconnect or supervision timeout).
    ///
    /// # Errors
    ///
    /// Fails when the device is not a member.
    pub fn leave(&mut self, device: u64) -> Result<(), PiconetError> {
        let addr = self
            .slaves
            .iter()
            .find_map(|(&a, &d)| (d == device).then_some(a))
            .ok_or(PiconetError::NotAMember)?;
        self.slaves.remove(&addr);
        Ok(())
    }

    /// Performs the PAN-profile master/slave switch: `new_master` (a
    /// current slave) becomes the master and the old master becomes a
    /// slave keeping the vacated AM_ADDR.
    ///
    /// # Errors
    ///
    /// Fails when `new_master` is not an active slave.
    pub fn switch_role(&mut self, new_master: u64) -> Result<(), PiconetError> {
        let addr = self
            .slaves
            .iter()
            .find_map(|(&a, &d)| (d == new_master).then_some(a))
            .ok_or(PiconetError::NotAMember)?;
        let old_master = self.master;
        self.slaves.remove(&addr);
        self.slaves.insert(addr, old_master);
        self.master = new_master;
        Ok(())
    }
}

/// A scatternet: several piconets sharing **bridge** devices.
///
/// A bridge is a slave in more than one piconet (or a master in one and
/// a slave elsewhere). It cannot listen to two hop sequences at once, so
/// it time-shares: it spends `1/k` of its slots in each of its `k`
/// piconets, resynchronizing its clock and hop phase on every switch.
/// That time-share is exactly what a campaign needs to inflate a bridge
/// node's air time, and the per-piconet
/// [`HopSequence`](crate::hop::HopSequence)s expose which channel the
/// bridge is tuned to in any slot.
#[derive(Debug, Clone, Default)]
pub struct Scatternet {
    piconets: Vec<Piconet>,
    hops: Vec<crate::hop::HopSequence>,
    /// Device id → indices of the piconets it belongs to (master or
    /// slave), in join order.
    membership: BTreeMap<u64, Vec<usize>>,
    /// Slots a bridge dwells in one piconet before switching (the
    /// inter-piconet scheduling epoch).
    epoch_slots: u64,
}

impl Scatternet {
    /// Default bridge dwell time: 800 slots (0.5 s) per piconet visit.
    pub const DEFAULT_EPOCH_SLOTS: u64 = 800;

    /// Creates an empty scatternet with the default dwell epoch.
    pub fn new() -> Self {
        Scatternet {
            piconets: Vec::new(),
            hops: Vec::new(),
            membership: BTreeMap::new(),
            epoch_slots: Self::DEFAULT_EPOCH_SLOTS,
        }
    }

    /// Adds a piconet mastered by `master`, hopping on `master`'s clock
    /// (the master address seeds the hop sequence). Returns its index.
    pub fn add_piconet(&mut self, master: u64) -> usize {
        let idx = self.piconets.len();
        self.piconets.push(Piconet::new(master));
        self.hops.push(crate::hop::HopSequence::new(master));
        self.membership.entry(master).or_default().push(idx);
        idx
    }

    /// Joins `device` to piconet `pic` as an active slave. A device
    /// already in another piconet becomes a bridge.
    ///
    /// # Errors
    ///
    /// Fails like [`Piconet::join`]: full piconet or double join.
    ///
    /// # Panics
    ///
    /// Panics if `pic` is out of range.
    pub fn join(&mut self, pic: usize, device: u64) -> Result<SlaveSlot, PiconetError> {
        let slot = self.piconets[pic].join(device)?;
        self.membership.entry(device).or_default().push(pic);
        Ok(slot)
    }

    /// Number of piconets.
    pub fn piconet_count(&self) -> usize {
        self.piconets.len()
    }

    /// The piconet at `index`.
    pub fn piconet(&self, index: usize) -> &Piconet {
        &self.piconets[index]
    }

    /// The hop sequence of piconet `index`.
    pub fn hop(&self, index: usize) -> &crate::hop::HopSequence {
        &self.hops[index]
    }

    /// Indices of the piconets `device` belongs to (empty if unknown).
    pub fn piconets_of(&self, device: u64) -> &[usize] {
        self.membership
            .get(&device)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// True when `device` is a member of more than one piconet.
    pub fn is_bridge(&self, device: u64) -> bool {
        self.piconets_of(device).len() > 1
    }

    /// Number of bridge devices.
    pub fn bridge_count(&self) -> usize {
        self.membership.values().filter(|p| p.len() > 1).count()
    }

    /// The fraction of slots `device` can spend in any one of its
    /// piconets: `1/k` for a member of `k` piconets, `1.0` for plain
    /// members and unknown devices (they have nowhere else to be).
    pub fn time_share(&self, device: u64) -> f64 {
        let k = self.piconets_of(device).len();
        if k <= 1 {
            1.0
        } else {
            1.0 / k as f64
        }
    }

    /// Which of `device`'s piconets it serves during `slot`, by dwell
    /// epoch round-robin (`None` for devices in no piconet).
    pub fn serving_piconet(&self, device: u64, slot: u64) -> Option<usize> {
        let pics = self.piconets_of(device);
        match pics.len() {
            0 => None,
            1 => Some(pics[0]),
            k => Some(pics[(slot / self.epoch_slots) as usize % k]),
        }
    }

    /// The hop channel `device` is tuned to in `slot`: the serving
    /// piconet's hop sequence evaluated at that slot.
    pub fn channel_for(&self, device: u64, slot: u64) -> Option<u8> {
        self.serving_piconet(device, slot)
            .map(|p| self.hops[p].channel(slot))
    }
}

#[cfg(test)]
mod scatternet_tests {
    use super::*;

    fn three_piconet_bridge() -> Scatternet {
        let mut s = Scatternet::new();
        let p0 = s.add_piconet(100);
        let p1 = s.add_piconet(200);
        let p2 = s.add_piconet(300);
        s.join(p0, 1).unwrap();
        s.join(p0, 2).unwrap();
        s.join(p1, 11).unwrap();
        s.join(p2, 21).unwrap();
        // Device 1 bridges into the other two piconets.
        s.join(p1, 1).unwrap();
        s.join(p2, 1).unwrap();
        s
    }

    #[test]
    fn bridge_membership_and_time_share() {
        let s = three_piconet_bridge();
        assert_eq!(s.piconet_count(), 3);
        assert!(s.is_bridge(1));
        assert!(!s.is_bridge(2));
        assert_eq!(s.bridge_count(), 1);
        assert_eq!(s.piconets_of(1), &[0, 1, 2]);
        assert!((s.time_share(1) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.time_share(2), 1.0);
        assert_eq!(s.time_share(9999), 1.0);
    }

    #[test]
    fn bridge_time_shares_hop_sequences() {
        let s = three_piconet_bridge();
        // Over consecutive dwell epochs the bridge cycles its piconets.
        let e = Scatternet::DEFAULT_EPOCH_SLOTS;
        assert_eq!(s.serving_piconet(1, 0), Some(0));
        assert_eq!(s.serving_piconet(1, e), Some(1));
        assert_eq!(s.serving_piconet(1, 2 * e), Some(2));
        assert_eq!(s.serving_piconet(1, 3 * e), Some(0));
        // A plain member never leaves its piconet.
        assert_eq!(s.serving_piconet(2, 5 * e), Some(0));
        assert_eq!(s.serving_piconet(9999, 0), None);
        // The channel comes from the serving piconet's own sequence.
        let slot = e; // bridge serving piconet 1
        assert_eq!(s.channel_for(1, slot), Some(s.hop(1).channel(slot)));
        // Distinct masters seed distinct hop sequences: the bridge must
        // retune somewhere over an epoch of slots.
        let retunes = (0..e).any(|k| s.hop(0).channel(k) != s.hop(1).channel(k));
        assert!(retunes, "hop sequences indistinguishable");
    }

    #[test]
    fn scatternet_enforces_per_piconet_capacity() {
        let mut s = Scatternet::new();
        let p0 = s.add_piconet(100);
        for d in 1..=7 {
            s.join(p0, d).unwrap();
        }
        assert_eq!(s.join(p0, 8), Err(PiconetError::Full));
        // The same device cannot join the same piconet twice, but can
        // join a second piconet.
        let p1 = s.add_piconet(200);
        assert_eq!(s.join(p1, 7), Ok(SlaveSlot(1)));
        assert_eq!(s.join(p1, 7), Err(PiconetError::AlreadyJoined));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_assigns_sequential_addresses() {
        let mut p = Piconet::new(100);
        let s1 = p.join(1).unwrap();
        let s2 = p.join(2).unwrap();
        assert_eq!(s1.am_addr(), 1);
        assert_eq!(s2.am_addr(), 2);
        assert_eq!(p.slave_count(), 2);
    }

    #[test]
    fn eighth_slave_rejected() {
        let mut p = Piconet::new(100);
        for d in 1..=7 {
            p.join(d).unwrap();
        }
        assert_eq!(p.join(8), Err(PiconetError::Full));
        assert_eq!(p.slave_count(), 7);
    }

    #[test]
    fn rejoin_rejected() {
        let mut p = Piconet::new(100);
        p.join(1).unwrap();
        assert_eq!(p.join(1), Err(PiconetError::AlreadyJoined));
        assert_eq!(p.join(100), Err(PiconetError::AlreadyJoined));
    }

    #[test]
    fn leave_frees_address_for_reuse() {
        let mut p = Piconet::new(100);
        p.join(1).unwrap();
        p.join(2).unwrap();
        p.leave(1).unwrap();
        assert!(!p.is_slave(1));
        let s = p.join(3).unwrap();
        assert_eq!(s.am_addr(), 1, "freed AM_ADDR reused");
        assert_eq!(p.leave(42), Err(PiconetError::NotAMember));
    }

    #[test]
    fn role_switch_swaps_master_and_slave() {
        // PAN profile: PANU connects as master, then switches so the NAP
        // masters the piconet.
        let mut p = Piconet::new(7); // PANU currently master
        p.join(100).unwrap(); // NAP joined as slave
        p.switch_role(100).unwrap();
        assert_eq!(p.master(), 100);
        assert!(p.is_slave(7));
        assert_eq!(p.slave_count(), 1);
        assert_eq!(p.switch_role(999), Err(PiconetError::NotAMember));
    }

    #[test]
    fn error_display() {
        assert!(PiconetError::Full.to_string().contains("7 active"));
        assert!(PiconetError::NotAMember.to_string().contains("not a"));
    }
}
