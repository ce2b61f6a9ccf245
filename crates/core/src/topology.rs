//! Data-driven testbed topologies: piconets, machines, and bridges.
//!
//! The paper deployed **two** concurrent 7-machine testbeds; fleet-scale
//! campaigns need arbitrarily many. A [`Topology`] describes N piconets
//! — each with one NAP, its PANUs, per-machine profiles (stack,
//! transport, quirks, antenna distance) and optional per-link channel
//! overrides — plus **bridge** nodes that time-share several piconets
//! (a scatternet). The struct is serde-loadable (`--topology file.json`)
//! and validated with the workspace's [`ConfigError`] convention, so a
//! bad spec fails at construction instead of panicking mid-campaign.
//!
//! Determinism contract: every piconet draws from its own RNG root
//! (`campaign seed ⊕ seed_salt`) and every machine names its RNG stream
//! via `stream_key` (defaulting to its node id). The paper presets pick
//! salts and keys so that the two-testbed [`Topology::paper_both`]
//! campaign reproduces the single-testbed runs bit for bit, per testbed.

use crate::machine::{paper_machines, Machine, MachineRole};
use btpan_baseband::piconet::{Scatternet, MAX_ACTIVE_SLAVES};
use btpan_faults::HostQuirks;
use btpan_sim::config::ConfigError;
use btpan_stack::host::{HostConfig, StackVariant};
use btpan_stack::transport::TransportKind;
use btpan_workload::WorkloadKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-link channel-model override for one machine's ACL link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Multiplier on the calibrated per-payload drop probability
    /// (attenuation, interference, a flaky antenna). Must be finite and
    /// positive; `1.0` is the calibrated baseline.
    pub drop_scale: f64,
}

/// One machine of a piconet: its identity, role and fault profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Host name (display only; names may repeat across piconets, the
    /// paper's two testbeds reused the same seven hosts).
    pub name: String,
    /// Globally unique node id across the whole topology.
    pub node_id: u64,
    /// NAP (master) or PANU (slave).
    pub role: MachineRole,
    /// Protocol stack implementation.
    pub stack: StackVariant,
    /// Host ↔ controller transport.
    pub transport: TransportKind,
    /// Fault-profile quirks (profile-driven, replacing name matching).
    pub quirks: HostQuirks,
    /// Antenna distance from the NAP, metres.
    pub distance_m: f64,
    /// RNG stream key within the piconet's root (defaults to the node
    /// id). The paper-B preset reuses testbed-A keys so both testbeds
    /// replay identical per-node streams.
    pub stream_key: Option<u64>,
    /// Capability flag: this host takes part in the paper's special
    /// Fig. 3b fixed-size workload run (Verde and Win in the paper).
    pub fig3b_target: Option<bool>,
    /// Per-link channel override (`None` = calibrated baseline).
    pub link: Option<LinkSpec>,
}

impl MachineSpec {
    /// The RNG stream key (explicit, or the node id).
    pub fn stream_key(&self) -> u64 {
        self.stream_key.unwrap_or(self.node_id)
    }

    /// The link drop-probability multiplier (default `1.0`).
    pub fn drop_scale(&self) -> f64 {
        self.link.map_or(1.0, |l| l.drop_scale)
    }

    /// Whether this host runs the Fig. 3b variant workload.
    pub fn is_fig3b_target(&self) -> bool {
        self.fig3b_target.unwrap_or(false)
    }

    /// Lowers the spec into the stack-level [`Machine`].
    pub fn to_machine(&self) -> Machine {
        Machine {
            config: HostConfig {
                name: self.name.clone(),
                node_id: self.node_id,
                stack: self.stack,
                transport: self.transport,
                quirks: self.quirks,
                distance_m: self.distance_m,
            },
            role: self.role,
            fig3b_target: self.is_fig3b_target(),
        }
    }

    /// Lifts a stack-level [`Machine`] into a spec.
    pub fn from_machine(m: &Machine) -> Self {
        MachineSpec {
            name: m.config.name.clone(),
            node_id: m.config.node_id,
            role: m.role,
            stack: m.config.stack,
            transport: m.config.transport,
            quirks: m.config.quirks,
            distance_m: m.config.distance_m,
            stream_key: None,
            fig3b_target: m.fig3b_target.then_some(true),
            link: None,
        }
    }
}

/// One piconet: a NAP, its PANUs, the workload they run, and the salt
/// of its RNG root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PiconetSpec {
    /// Topology-unique piconet id (also the shard-routing group).
    pub id: u64,
    /// Display label (`testbed-a`, `alpha`, ...).
    pub label: String,
    /// The workload every PANU of this piconet runs.
    pub workload: WorkloadKind,
    /// XORed into the campaign seed to derive this piconet's RNG root.
    /// Salt 0 replays the legacy single-testbed streams.
    pub seed_salt: u64,
    /// The machines, exactly one of them with the NAP role.
    pub machines: Vec<MachineSpec>,
}

impl PiconetSpec {
    /// The NAP machine.
    ///
    /// # Panics
    ///
    /// Panics when the spec has no NAP (ruled out by
    /// [`Topology::validate`]).
    pub fn master(&self) -> &MachineSpec {
        self.machines
            .iter()
            .find(|m| m.role == MachineRole::Nap)
            .expect("validated piconet has a NAP")
    }

    /// The NAP's node id.
    pub fn master_id(&self) -> u64 {
        self.master().node_id
    }

    /// The PANU machines, in declaration order.
    pub fn panus(&self) -> impl Iterator<Item = &MachineSpec> {
        self.machines.iter().filter(|m| m.role == MachineRole::Panu)
    }

    /// All member node ids (NAP included).
    pub fn member_ids(&self) -> Vec<u64> {
        self.machines.iter().map(|m| m.node_id).collect()
    }
}

/// A bridge: a PANU that additionally joins other piconets, time-sharing
/// their hop sequences.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BridgeSpec {
    /// The bridging PANU's node id (must exist in some piconet).
    pub node_id: u64,
    /// Piconet **ids** the bridge additionally joins (not its home).
    pub joins: Vec<u64>,
}

/// A complete campaign topology: piconets plus scatternet bridges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Display name (echoed in CLI JSON envelopes).
    pub name: String,
    /// The piconets, in campaign execution order.
    pub piconets: Vec<PiconetSpec>,
    /// Bridge nodes (`[]` for independent piconets).
    pub bridges: Vec<BridgeSpec>,
}

impl Topology {
    /// The paper's single 7-machine testbed for `workload` — the legacy
    /// default every existing campaign ran on (node ids 0–6, salt 0).
    pub fn paper(workload: WorkloadKind) -> Self {
        let label = match workload {
            WorkloadKind::Random => "testbed-a",
            WorkloadKind::Realistic => "testbed-b",
        };
        Topology {
            name: format!("paper-{label}"),
            piconets: vec![PiconetSpec {
                id: 0,
                label: label.to_string(),
                workload,
                seed_salt: 0,
                machines: paper_machines()
                    .iter()
                    .map(MachineSpec::from_machine)
                    .collect(),
            }],
            bridges: Vec::new(),
        }
    }

    /// The Random-WL paper piconet (testbed A) alone.
    pub fn paper_a() -> Self {
        Self::paper(WorkloadKind::Random)
    }

    /// The Realistic-WL paper piconet (testbed B) alone, renumbered into
    /// the 100+ node-id namespace (so it can coexist with testbed A)
    /// but replaying testbed A's RNG stream keys — exactly the streams
    /// the legacy single-testbed Realistic campaign drew.
    pub fn paper_b() -> Self {
        let mut base = Self::paper(WorkloadKind::Realistic);
        let pico = &mut base.piconets[0];
        pico.id = 1;
        for m in &mut pico.machines {
            m.stream_key = Some(m.node_id);
            m.node_id += 100;
        }
        Topology {
            name: "paper-testbed-b".to_string(),
            piconets: base.piconets,
            bridges: Vec::new(),
        }
    }

    /// The paper's actual deployment: both testbeds running
    /// concurrently in one campaign. Per testbed, this reproduces the
    /// single-testbed results bit for bit at equal seed.
    pub fn paper_both() -> Self {
        let a = Self::paper(WorkloadKind::Random);
        let b = Self::paper_b();
        Topology {
            name: "paper-both".to_string(),
            piconets: a.piconets.into_iter().chain(b.piconets).collect(),
            bridges: Vec::new(),
        }
    }

    /// A 3-piconet scatternet: three small PANs, one bridge PANU from
    /// the first piconet time-sharing all three, and one deliberately
    /// degraded link (drop-scale override).
    pub fn scatternet() -> Self {
        let mk = |name: &str,
                  node_id: u64,
                  role: MachineRole,
                  quirks: HostQuirks,
                  transport: TransportKind,
                  distance_m: f64| MachineSpec {
            name: name.to_string(),
            node_id,
            role,
            stack: StackVariant::BlueZ,
            transport,
            quirks,
            distance_m,
            stream_key: None,
            fig3b_target: None,
            link: None,
        };
        let mut degraded = mk(
            "Edge-A2",
            202,
            MachineRole::Panu,
            HostQuirks::fedora_hal_bug(),
            TransportKind::Usb,
            7.0,
        );
        degraded.link = Some(LinkSpec { drop_scale: 2.0 });
        Topology {
            name: "scatternet-3".to_string(),
            piconets: vec![
                PiconetSpec {
                    id: 0,
                    label: "alpha".to_string(),
                    workload: WorkloadKind::Random,
                    seed_salt: 1,
                    machines: vec![
                        mk(
                            "Hub-A",
                            200,
                            MachineRole::Nap,
                            HostQuirks::linux_pc(),
                            TransportKind::Usb,
                            0.0,
                        ),
                        mk(
                            "Relay",
                            201,
                            MachineRole::Panu,
                            HostQuirks::linux_pc(),
                            TransportKind::Usb,
                            5.0,
                        ),
                        degraded,
                    ],
                },
                PiconetSpec {
                    id: 1,
                    label: "beta".to_string(),
                    workload: WorkloadKind::Realistic,
                    seed_salt: 2,
                    machines: vec![
                        mk(
                            "Hub-B",
                            210,
                            MachineRole::Nap,
                            HostQuirks::linux_pc(),
                            TransportKind::Usb,
                            0.0,
                        ),
                        mk(
                            "Edge-B1",
                            211,
                            MachineRole::Panu,
                            HostQuirks::windows_broadcom(),
                            TransportKind::Usb,
                            0.5,
                        ),
                        mk(
                            "Edge-B2",
                            212,
                            MachineRole::Panu,
                            HostQuirks::pda(),
                            TransportKind::Bcsp,
                            5.0,
                        ),
                    ],
                },
                PiconetSpec {
                    id: 2,
                    label: "gamma".to_string(),
                    workload: WorkloadKind::Random,
                    seed_salt: 3,
                    machines: vec![
                        mk(
                            "Hub-C",
                            220,
                            MachineRole::Nap,
                            HostQuirks::linux_pc(),
                            TransportKind::Usb,
                            0.0,
                        ),
                        mk(
                            "Edge-C1",
                            221,
                            MachineRole::Panu,
                            HostQuirks::pda(),
                            TransportKind::Bcsp,
                            5.0,
                        ),
                    ],
                },
            ],
            bridges: vec![BridgeSpec {
                node_id: 201,
                joins: vec![1, 2],
            }],
        }
    }

    /// Resolves a CLI preset name.
    pub fn preset(name: &str) -> Option<Topology> {
        match name {
            "paper" | "paper-a" => Some(Self::paper_a()),
            "paper-b" => Some(Self::paper_b()),
            "paper-both" => Some(Self::paper_both()),
            "scatternet" => Some(Self::scatternet()),
            _ => None,
        }
    }

    /// Parses and validates a topology from JSON.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] on malformed JSON or an invalid topology.
    pub fn from_json(json: &str) -> Result<Topology, ConfigError> {
        let topo: Topology = serde_json::from_str(json)
            .map_err(|e| ConfigError::new("topology", format!("malformed JSON: {e}")))?;
        topo.validate()?;
        Ok(topo)
    }

    /// Serializes the topology to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("topology serializes")
    }

    /// Validates the whole spec: piconet structure, the 7-active-member
    /// park-state limit (bridge joins included), global node-id
    /// uniqueness, and bridge references.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.piconets.is_empty() {
            return Err(ConfigError::new(
                "topology.piconets",
                "a topology needs at least one piconet",
            ));
        }
        let mut pic_ids: BTreeMap<u64, ()> = BTreeMap::new();
        let mut node_ids: BTreeMap<u64, ()> = BTreeMap::new();
        for p in &self.piconets {
            if pic_ids.insert(p.id, ()).is_some() {
                return Err(ConfigError::new(
                    "topology.piconets",
                    format!("duplicate piconet id {}", p.id),
                ));
            }
            let naps = p
                .machines
                .iter()
                .filter(|m| m.role == MachineRole::Nap)
                .count();
            if naps != 1 {
                return Err(ConfigError::new(
                    "topology.piconets",
                    format!("piconet {} needs exactly one NAP, found {naps}", p.id),
                ));
            }
            let panus = p.machines.len() - 1;
            if panus == 0 {
                return Err(ConfigError::new(
                    "topology.piconets",
                    format!("piconet {} has zero PANUs", p.id),
                ));
            }
            for m in &p.machines {
                if node_ids.insert(m.node_id, ()).is_some() {
                    return Err(ConfigError::new(
                        "topology.machines",
                        format!("duplicate node id {} (ids are global)", m.node_id),
                    ));
                }
                if !m.distance_m.is_finite() || m.distance_m < 0.0 {
                    return Err(ConfigError::new(
                        "topology.machines",
                        format!("machine {} distance_m must be finite and >= 0", m.node_id),
                    ));
                }
                let scale = m.drop_scale();
                if !scale.is_finite() || scale <= 0.0 {
                    return Err(ConfigError::new(
                        "topology.machines",
                        format!(
                            "machine {} link.drop_scale must be finite and > 0",
                            m.node_id
                        ),
                    ));
                }
            }
        }
        let mut bridged: BTreeMap<u64, ()> = BTreeMap::new();
        for b in &self.bridges {
            if bridged.insert(b.node_id, ()).is_some() {
                return Err(ConfigError::new(
                    "topology.bridges",
                    format!("node {} listed as a bridge twice", b.node_id),
                ));
            }
            let home = self
                .piconets
                .iter()
                .find(|p| p.panus().any(|m| m.node_id == b.node_id));
            let Some(home) = home else {
                return Err(ConfigError::new(
                    "topology.bridges",
                    format!("bridge node {} is not a PANU of any piconet", b.node_id),
                ));
            };
            if b.joins.is_empty() {
                return Err(ConfigError::new(
                    "topology.bridges",
                    format!("bridge node {} joins no piconet", b.node_id),
                ));
            }
            let mut seen: BTreeMap<u64, ()> = BTreeMap::new();
            for j in &b.joins {
                if seen.insert(*j, ()).is_some() {
                    return Err(ConfigError::new(
                        "topology.bridges",
                        format!("bridge node {} joins piconet {j} twice", b.node_id),
                    ));
                }
                if *j == home.id {
                    return Err(ConfigError::new(
                        "topology.bridges",
                        format!("bridge node {} joins its home piconet {j}", b.node_id),
                    ));
                }
                if !self.piconets.iter().any(|p| p.id == *j) {
                    return Err(ConfigError::new(
                        "topology.bridges",
                        format!("bridge node {} references missing piconet {j}", b.node_id),
                    ));
                }
            }
        }
        // Park-state limit: PANUs plus incoming bridges per piconet.
        for p in &self.piconets {
            let members = p.panus().count()
                + self
                    .bridges
                    .iter()
                    .filter(|b| b.joins.contains(&p.id))
                    .count();
            if members > MAX_ACTIVE_SLAVES {
                return Err(ConfigError::new(
                    "topology.piconets",
                    format!(
                        "piconet {} has {members} active members; a piconet holds at most {MAX_ACTIVE_SLAVES}",
                        p.id
                    ),
                ));
            }
        }
        Ok(())
    }

    /// The piconet with the given id.
    pub fn piconet_by_id(&self, id: u64) -> Option<&PiconetSpec> {
        self.piconets.iter().find(|p| p.id == id)
    }

    /// The display name of `node`, if it exists in this topology.
    pub fn node_name(&self, node: u64) -> Option<&str> {
        self.piconets
            .iter()
            .flat_map(|p| p.machines.iter())
            .find(|m| m.node_id == node)
            .map(|m| m.name.as_str())
    }

    /// Index of `node`'s **home** piconet (bridges count where they are
    /// a declared machine, not where they join).
    pub fn home_piconet_of(&self, node: u64) -> Option<usize> {
        self.piconets
            .iter()
            .position(|p| p.machines.iter().any(|m| m.node_id == node))
    }

    /// Indices of the non-home piconets `node` bridges into.
    pub fn bridge_joins_of(&self, node: u64) -> Vec<usize> {
        self.bridges
            .iter()
            .filter(|b| b.node_id == node)
            .flat_map(|b| b.joins.iter())
            .filter_map(|id| self.piconets.iter().position(|p| p.id == *id))
            .collect()
    }

    /// The master node ids whose System Logs can propagate errors to
    /// `node`: its home NAP plus the masters of every bridged piconet.
    pub fn masters_of(&self, node: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if let Some(home) = self.home_piconet_of(node) {
            out.push(self.piconets[home].master_id());
        }
        for j in self.bridge_joins_of(node) {
            out.push(self.piconets[j].master_id());
        }
        out
    }

    /// The `(node, piconet id)` shard-routing table: all members of a
    /// piconet stream through the same shard (bridges route with their
    /// home piconet, preserving their single-log order).
    pub fn group_table(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for p in &self.piconets {
            for m in &p.machines {
                out.push((m.node_id, p.id));
            }
        }
        out
    }

    /// Total machines across all piconets.
    pub fn machine_count(&self) -> usize {
        self.piconets.iter().map(|p| p.machines.len()).sum()
    }

    /// Lowers the topology into a baseband [`Scatternet`]: one piconet
    /// (and hop sequence) per spec, bridges joined into their targets.
    ///
    /// # Panics
    ///
    /// Panics when the topology is invalid; call
    /// [`Topology::validate`] first.
    pub fn to_scatternet(&self) -> Scatternet {
        let mut s = Scatternet::new();
        let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
        for p in &self.piconets {
            let idx = s.add_piconet(p.master_id());
            index_of.insert(p.id, idx);
            for m in p.panus() {
                s.join(idx, m.node_id).expect("validated piconet fits");
            }
        }
        for b in &self.bridges {
            for j in &b.joins {
                s.join(index_of[j], b.node_id)
                    .expect("validated bridge join fits");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_validate() {
        for name in ["paper", "paper-a", "paper-b", "paper-both", "scatternet"] {
            let t = Topology::preset(name).expect(name);
            t.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(Topology::preset("nope").is_none());
    }

    #[test]
    fn paper_both_replays_single_testbed_streams() {
        let both = Topology::paper_both();
        assert_eq!(both.piconets.len(), 2);
        // The first piconet (testbed A) keeps the legacy ids; B is renumbered but replays
        // A's stream keys, and both roots are unsalted.
        let a = &both.piconets[0];
        let b = &both.piconets[1];
        assert_eq!(a.seed_salt, 0);
        assert_eq!(b.seed_salt, 0);
        assert_eq!(a.master_id(), 0);
        assert_eq!(b.master_id(), 100);
        for (ma, mb) in a.machines.iter().zip(&b.machines) {
            assert_eq!(ma.name, mb.name);
            assert_eq!(mb.node_id, ma.node_id + 100);
            assert_eq!(mb.stream_key(), ma.stream_key());
        }
        // Fig. 3b capability flags carried over from the machine table.
        let targets: Vec<&str> = a
            .panus()
            .filter(|m| m.is_fig3b_target())
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(targets, ["Verde", "Win"]);
    }

    #[test]
    fn json_round_trip() {
        let t = Topology::scatternet();
        let json = t.to_json();
        let back = Topology::from_json(&json).expect("round trip");
        assert_eq!(back, t);
    }

    #[test]
    fn duplicate_node_ids_rejected() {
        let mut t = Topology::paper_both();
        t.piconets[1].machines[2].node_id = 2; // collides with testbed A
        let err = t.validate().unwrap_err();
        assert_eq!(err.field, "topology.machines");
        assert!(err.reason.contains("duplicate node id 2"), "{}", err.reason);
    }

    #[test]
    fn zero_panu_piconet_rejected() {
        let mut t = Topology::paper_a();
        t.piconets[0].machines.truncate(1); // NAP only
        let err = t.validate().unwrap_err();
        assert!(err.reason.contains("zero PANUs"), "{}", err.reason);
    }

    #[test]
    fn bridge_to_missing_piconet_rejected() {
        let mut t = Topology::scatternet();
        t.bridges[0].joins.push(99);
        let err = t.validate().unwrap_err();
        assert_eq!(err.field, "topology.bridges");
        assert!(err.reason.contains("missing piconet 99"), "{}", err.reason);
    }

    #[test]
    fn eighth_active_member_rejected() {
        // Seven PANUs fill the piconet; an incoming bridge is the 8th
        // active member and must be rejected (park-state limit).
        let mut t = Topology::scatternet();
        let beta = &mut t.piconets[1];
        for i in 0..5 {
            let mut extra = beta.machines[1].clone();
            extra.name = format!("Extra-{i}");
            extra.node_id = 300 + i;
            beta.machines.push(extra);
        }
        assert_eq!(beta.panus().count(), 7);
        let err = t.validate().unwrap_err();
        assert!(err.reason.contains("at most 7"), "{}", err.reason);
        // Without the bridge join the seven PANUs are fine.
        t.bridges[0].joins.retain(|&j| j != 1);
        t.validate().expect("seven PANUs without bridge fit");
    }

    #[test]
    fn more_validation_edges() {
        // Two NAPs.
        let mut t = Topology::paper_a();
        t.piconets[0].machines[1].role = MachineRole::Nap;
        assert!(t.validate().unwrap_err().reason.contains("exactly one NAP"));
        // Empty topology.
        let empty = Topology {
            name: "empty".into(),
            piconets: vec![],
            bridges: vec![],
        };
        assert_eq!(empty.validate().unwrap_err().field, "topology.piconets");
        // Bridge joining its own home piconet.
        let mut t = Topology::scatternet();
        t.bridges[0].joins = vec![0];
        assert!(t.validate().unwrap_err().reason.contains("home piconet"));
        // Bridge node that is nobody's PANU.
        let mut t = Topology::scatternet();
        t.bridges[0].node_id = 999;
        assert!(t.validate().unwrap_err().reason.contains("not a PANU"));
        // Non-finite link override.
        let mut t = Topology::scatternet();
        t.piconets[0].machines[2].link = Some(LinkSpec { drop_scale: 0.0 });
        assert!(t.validate().unwrap_err().reason.contains("drop_scale"));
        // Duplicate piconet id.
        let mut t = Topology::paper_both();
        t.piconets[1].id = 0;
        assert!(t
            .validate()
            .unwrap_err()
            .reason
            .contains("duplicate piconet id"));
        // Malformed JSON surfaces as a ConfigError, not a panic.
        assert_eq!(
            Topology::from_json("{not json").unwrap_err().field,
            "topology"
        );
    }

    #[test]
    fn lookup_helpers_cover_bridges() {
        let t = Topology::scatternet();
        assert_eq!(t.node_name(201), Some("Relay"));
        assert_eq!(t.node_name(999), None);
        assert_eq!(t.home_piconet_of(201), Some(0));
        assert_eq!(t.bridge_joins_of(201), vec![1, 2]);
        assert_eq!(t.bridge_joins_of(202), Vec::<usize>::new());
        // The bridge sees all three masters; a plain PANU only its own.
        assert_eq!(t.masters_of(201), vec![200, 210, 220]);
        assert_eq!(t.masters_of(211), vec![210]);
        // Group table routes every node with its home piconet.
        let table = t.group_table();
        assert_eq!(table.len(), t.machine_count());
        assert!(table.contains(&(201, 0)));
        assert!(table.contains(&(212, 1)));
    }

    #[test]
    fn scatternet_lowering_matches_spec() {
        let t = Topology::scatternet();
        let s = t.to_scatternet();
        assert_eq!(s.piconet_count(), 3);
        assert_eq!(s.bridge_count(), 1);
        assert!(s.is_bridge(201));
        assert!((s.time_share(201) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.time_share(202), 1.0);
        assert_eq!(s.piconet(0).master(), 200);
        assert!(s.piconet(1).is_slave(201), "bridge joined beta");
        assert!(s.piconet(2).is_slave(201), "bridge joined gamma");
    }
}
