//! Flow-level network-on-chip model with QoS, isolation and encryption.
//!
//! The model tracks per-link, per-virtual-channel reservations: a packet
//! walking its route reserves each link for its serialization time, so
//! contention, head-of-line blocking within a class, and QoS separation
//! across classes all emerge without a cycle-level router simulation.
//! This is the "provision enough interconnect" machinery of §IV.B and the
//! packet-based security boundary of §IV.A.
//!
//! Both simulation tiers run one transfer walk: the boundary check, the
//! route, a hop loop that reserves each link, charges flit energy and
//! writes link telemetry, and the totals. The tier sets only each hop's
//! wait (the virtual channel's busy slot, or a fitted M/D/1 term) and
//! whether the payload is actually ciphered.

use crate::crypto::{self, LinkKey};
use crate::error::{NocError, Result};
use crate::packet::{flit_count_for, NodeId, Packet, TrafficClass};
use crate::topology::{Link, Mesh};
use cim_sim::analytic::{ContentionModel, SimMode};
use cim_sim::calib::noc as cal;
use cim_sim::energy::Energy;
use cim_sim::telemetry::{ComponentId, Telemetry};
use cim_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Histogram name per virtual channel (index = `virtual_channel()`).
const VC_LATENCY_METRIC: [&str; cal::VIRTUAL_CHANNELS] =
    ["latency_ns_vc0", "latency_ns_vc1", "latency_ns_vc2"];

/// Assigns nodes to isolation domains and controls cross-domain traffic
/// (§IV.B "dynamic hardware isolation").
///
/// Nodes default to domain 0; traffic within a domain is always allowed,
/// cross-domain traffic only if explicitly permitted.
#[derive(Debug, Clone, Default)]
pub struct IsolationPolicy {
    domains: HashMap<NodeId, u32>,
    allowed: Vec<(u32, u32)>,
}

impl IsolationPolicy {
    /// Creates the default policy (everything in domain 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns a node to a domain.
    pub fn assign(&mut self, node: NodeId, domain: u32) {
        self.domains.insert(node, domain);
    }

    /// The domain a node belongs to.
    pub fn domain_of(&self, node: NodeId) -> u32 {
        self.domains.get(&node).copied().unwrap_or(0)
    }

    /// Permits traffic from domain `from` to domain `to` (directed).
    pub fn allow(&mut self, from: u32, to: u32) {
        if !self.allowed.contains(&(from, to)) {
            self.allowed.push((from, to));
        }
    }

    /// Revokes a previously granted cross-domain permission.
    pub fn revoke(&mut self, from: u32, to: u32) {
        self.allowed.retain(|&p| p != (from, to));
    }

    /// Whether traffic between two nodes is permitted.
    pub fn allows(&self, src: NodeId, dst: NodeId) -> bool {
        self.permits(self.domain_of(src), self.domain_of(dst))
    }

    fn permits(&self, from: u32, to: u32) -> bool {
        from == to || self.allowed.contains(&(from, to))
    }
}

/// A man-in-the-middle hook used by the security experiments: receives
/// the wire payload on the route's links and may mutate it.
pub type TamperFn<'a> = &'a dyn Fn(&mut Vec<u8>);

/// Outcome of one packet transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// When the tail flit arrived at the destination.
    pub arrival: SimTime,
    /// Total energy spent on the transfer (hops + crypto).
    pub energy: Energy,
    /// Hop count of the path taken.
    pub hops: u32,
    /// The payload as seen *on the wire* (ciphertext when encryption is
    /// on) — what a link tap would observe.
    pub wire_payload: Vec<u8>,
    /// The payload delivered to the destination (decrypted, verified).
    pub payload: Vec<u8>,
}

/// Outcome of one analytic-tier transfer estimate: the delivery record
/// without any payload movement (see [`NocNetwork::estimate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    /// Predicted tail-flit arrival at the destination.
    pub arrival: SimTime,
    /// Predicted transfer energy (hops + crypto).
    pub energy: Energy,
    /// Hop count of the route.
    pub hops: u32,
}

/// Everything the network keeps per link. [`NocNetwork::reset`] zeroes
/// the reservations but keeps the entry, so a link's telemetry component
/// is interned once per attached sink.
#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    /// When each virtual channel's last reservation ends (detailed tier).
    busy: [SimTime; cal::VIRTUAL_CHANNELS],
    /// Cumulative serialization time reserved on the link (all VCs) —
    /// the §IV.C "load information" the resource manager reads.
    reserved: SimDuration,
    /// The link's telemetry component; [`ComponentId::NONE`] until the
    /// link's first transfer under an enabled sink, so the steady-state
    /// path never formats a path string.
    tel: ComponentId,
}

/// The mesh network with per-link virtual-channel reservations.
///
/// # Examples
///
/// ```
/// use cim_noc::network::NocNetwork;
/// use cim_noc::packet::{NodeId, Packet};
/// use cim_sim::time::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut noc = NocNetwork::new(4, 4, 42)?;
/// let p = Packet::new(1, NodeId::new(0, 0), NodeId::new(3, 3), vec![7u8; 64]);
/// let d = noc.transmit(&p, SimTime::ZERO)?;
/// assert_eq!(d.hops, 6);
/// assert_eq!(&d.payload[..], &[7u8; 64]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NocNetwork {
    mesh: Mesh,
    links: HashMap<Link, LinkState>,
    policy: IsolationPolicy,
    encryption: bool,
    /// Fault injection: when set, the domain boundary check is skipped
    /// on every transfer (see
    /// [`set_leak_cross_partition`](Self::set_leak_cross_partition)).
    leak_cross_partition: bool,
    mode: SimMode,
    /// Contention term for the analytic tier: M/D/1 wait scaled by a
    /// coefficient fit from detailed-mode telemetry.
    contention: ContentionModel,
    master_seed: u64,
    tel: Telemetry,
    tel_root: ComponentId,
    tel_prefix: String,
}

impl NocNetwork {
    /// Creates a `width × height` mesh network.
    ///
    /// Encryption is off by default; enable with
    /// [`set_encryption`](Self::set_encryption).
    ///
    /// # Errors
    ///
    /// Returns [`NocError::UnknownNode`] if dimensions are degenerate.
    pub fn new(width: usize, height: usize, master_seed: u64) -> Result<Self> {
        let mesh = Mesh::new(width, height).ok_or(NocError::UnknownNode {
            node: NodeId::new(0, 0),
            width,
            height,
        })?;
        Ok(NocNetwork {
            mesh,
            links: HashMap::new(),
            policy: IsolationPolicy::new(),
            encryption: false,
            leak_cross_partition: false,
            mode: SimMode::Detailed,
            contention: ContentionModel::default(),
            master_seed,
            tel: Telemetry::disabled(),
            tel_root: ComponentId::NONE,
            tel_prefix: String::new(),
        })
    }

    /// Attaches a telemetry sink under `prefix` (e.g. `"noc"`). Per-link
    /// utilization counters and queue gauges appear as
    /// `{prefix}/link(x0,y0)->(x1,y1)` components; packet/energy totals
    /// and per-class latency histograms live on `{prefix}` itself. Clones
    /// of this network share the sink.
    pub fn attach_telemetry(&mut self, t: &Telemetry, prefix: &str) {
        self.tel = t.clone();
        self.tel_root = t.component(prefix);
        self.tel_prefix = prefix.to_owned();
        for st in self.links.values_mut() {
            st.tel = ComponentId::NONE;
        }
    }

    /// The underlying mesh (for fault injection on links).
    pub fn mesh_mut(&mut self) -> &mut Mesh {
        &mut self.mesh
    }

    /// The underlying mesh, read-only.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The isolation policy, mutable.
    pub fn policy_mut(&mut self) -> &mut IsolationPolicy {
        &mut self.policy
    }

    /// Enables or disables link encryption + authentication.
    pub fn set_encryption(&mut self, on: bool) {
        self.encryption = on;
    }

    /// Whether encryption is enabled.
    pub fn encryption(&self) -> bool {
        self.encryption
    }

    /// Fault injection for the chaos weakened self-check
    /// (`leak_cross_partition`): skips the isolation-policy boundary
    /// check on every subsequent transfer, so cross-domain packets —
    /// which a healthy boundary rejects before reserving a single link —
    /// are routed and delivered. The containment invariants observe the
    /// leak through the attack ledger's `cross_deliveries`
    /// (`cim_fabric::security::AttackLog`), which counts every probe
    /// packet the network delivers.
    pub fn set_leak_cross_partition(&mut self, on: bool) {
        self.leak_cross_partition = on;
    }

    /// Whether the boundary check is being skipped.
    pub fn leak_cross_partition(&self) -> bool {
        self.leak_cross_partition
    }

    /// Selects the simulation tier for subsequent transfers.
    ///
    /// In [`SimMode::Analytic`] every transmit routes and charges costs
    /// in closed form (zero-load floor plus a fitted M/D/1 contention
    /// term per link) without per-VC slot bookkeeping or payload cipher
    /// work; see [`estimate`](Self::estimate).
    pub fn set_mode(&mut self, mode: SimMode) {
        self.mode = mode;
    }

    /// The active simulation tier.
    pub fn mode(&self) -> SimMode {
        self.mode
    }

    /// Replaces the analytic contention model (e.g. with one fit from
    /// detailed-mode telemetry via
    /// [`ContentionModel::fit`](cim_sim::analytic::ContentionModel::fit)).
    pub fn set_contention(&mut self, model: ContentionModel) {
        self.contention = model;
    }

    /// The analytic contention model in use.
    pub fn contention(&self) -> ContentionModel {
        self.contention
    }

    /// Clears per-link reservations (fresh experiment).
    ///
    /// Runtime telemetry gauges (`backlog_ps` on every link this network
    /// ever touched) are zeroed too: a gauge is instantaneous state, and
    /// letting the last experiment's queue depth bleed into the next
    /// run's snapshot misreports a freshly reset network as loaded.
    pub fn reset(&mut self) {
        for st in self.links.values_mut() {
            st.busy = Default::default();
            st.reserved = SimDuration::ZERO;
            // A link not yet seen by this sink has no gauge: events
            // against `ComponentId::NONE` are dropped.
            self.tel.gauge_set(st.tel, "backlog_ps", 0.0);
        }
    }

    /// Cumulative reserved (serialization) time per link, hottest first —
    /// the load telemetry §IV.C's "load information management" needs
    /// before balancing or re-provisioning. Empty after
    /// [`reset`](Self::reset).
    pub fn link_load(&self) -> Vec<(Link, SimDuration)> {
        let mut loads: Vec<(Link, SimDuration)> = self
            .links
            .iter()
            .filter(|(_, st)| !st.reserved.is_zero())
            .map(|(l, st)| (*l, st.reserved))
            .collect();
        loads.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        loads
    }

    /// The most heavily reserved link, if any traffic has flowed.
    pub fn hottest_link(&self) -> Option<(Link, SimDuration)> {
        self.link_load().into_iter().next()
    }

    fn cycle() -> SimDuration {
        SimDuration::from_ps((1e12 / cal::CLOCK_HZ) as u64)
    }

    /// One uncontended hop for `flits`: the router pipeline, the link
    /// crypto pass (when encryption is on) and serialization.
    fn hop_time(&self, flits: u64) -> SimDuration {
        let crypto_cycles = if self.encryption {
            cal::CRYPTO_CYCLES
        } else {
            0
        };
        Self::cycle() * (cal::ROUTER_CYCLES + crypto_cycles + flits * cal::LINK_CYCLES)
    }

    /// Sends one packet, reserving links along the way. Returns the
    /// delivery record; the network's clock state is the set of link
    /// reservations, so calls must be made in non-decreasing `depart`
    /// order per stream for meaningful contention results.
    ///
    /// # Errors
    ///
    /// * [`NocError::IsolationViolation`] if the policy forbids the pair;
    /// * [`NocError::NoRoute`] if link failures disconnect the pair;
    /// * [`NocError::AuthenticationFailed`] if the payload was tampered
    ///   with in flight (only detectable when encryption is on).
    pub fn transmit(&mut self, packet: &Packet, depart: SimTime) -> Result<Delivery> {
        self.transmit_with(packet, depart, None)
    }

    /// Like [`transmit`](Self::transmit), but optionally passes the
    /// payload through a man-in-the-middle closure on the route's links —
    /// the hook the security experiments use to model tampering. A
    /// 0-hop transfer crosses no link, so its payload is never tampered.
    ///
    /// # Errors
    ///
    /// See [`transmit`](Self::transmit).
    pub fn transmit_with(
        &mut self,
        packet: &Packet,
        depart: SimTime,
        tamper: Option<TamperFn<'_>>,
    ) -> Result<Delivery> {
        // Only the detailed tier runs the cipher and the tamper hook,
        // which needs a wire to tamper with; the analytic tier charges
        // the crypto costs without ciphering.
        let detailed = self.mode == SimMode::Detailed;
        // Source boundary: encrypt and tag under the source domain's key.
        let header = packet.id ^ u64::from(packet.dst.x) << 16 ^ u64::from(packet.dst.y);
        let (mut wire, seal) = if detailed && self.encryption {
            let key = LinkKey::derive(self.master_seed, self.policy.domain_of(packet.src));
            let (cipher, _) = crypto::encrypt(&packet.payload, key, packet.id);
            let tag = crypto::auth_tag(&cipher, key, header);
            (cipher, Some((key, tag)))
        } else {
            (packet.payload.clone(), None)
        };
        let (src, dst, bytes) = (packet.src, packet.dst, packet.len());
        let est = self.walk(src, dst, bytes, packet.class, depart, self.mode, |hops| {
            if let Some(t) = tamper.filter(|_| detailed && hops > 0) {
                t(&mut wire);
            }
            // Destination boundary: authenticate.
            match seal {
                Some((key, tag)) if crypto::auth_tag(&wire, key, header) != tag => {
                    Err(NocError::AuthenticationFailed {
                        packet_id: packet.id,
                    })
                }
                _ => Ok(()),
            }
        })?;
        // Decrypt. `wire` moves into the delivery record, so the
        // plaintext path clones the payload only once more.
        let payload = match seal {
            Some((key, _)) => crypto::decrypt(&wire, key, packet.id).0,
            None => wire.clone(),
        };
        Ok(Delivery {
            arrival: est.arrival,
            energy: est.energy,
            hops: est.hops,
            wire_payload: wire,
            payload,
        })
    }

    /// The zero-load latency of a packet over `hops` hops — the floor the
    /// QoS experiments compare against.
    ///
    /// With encryption on this includes everything an uncontended
    /// [`transmit`](Self::transmit) charges: the per-hop link crypto
    /// *and* the source-side encrypt plus destination-side decrypt at the
    /// boundaries (each a fixed [`cal::CRYPTO_CYCLES`], pipelined per
    /// byte), so floor == measured latency on an idle network.
    pub fn zero_load_latency(&self, packet: &Packet, hops: u32) -> SimDuration {
        let boundaries = if self.encryption {
            crypto::crypto_cost(packet.len()).latency * 2
        } else {
            SimDuration::ZERO
        };
        self.hop_time(packet.flit_count()) * u64::from(hops) + boundaries
    }

    /// Analytic-tier transfer: predicts delivery time and energy for a
    /// `bytes`-long payload from `src` to `dst` in closed form, without
    /// moving any payload.
    ///
    /// Latency is the [`zero_load_latency`](Self::zero_load_latency)
    /// floor plus, per link on the route, an M/D/1-style contention wait
    /// at that link's observed utilisation (cumulative reserved
    /// serialization time over elapsed simulated time, the same signal
    /// [`link_load`](Self::link_load) reports). It runs the same walk as
    /// [`transmit`](Self::transmit), so link reservations, telemetry and
    /// totals are updated alike; only the per-VC busy slots stay
    /// untouched.
    ///
    /// Energy charges the full detailed-tier composition: per-hop flit
    /// energy plus (with encryption on) one encrypt and one decrypt pass
    /// over the payload — without running the cipher.
    ///
    /// # Errors
    ///
    /// * [`NocError::IsolationViolation`] if the policy forbids the pair;
    /// * [`NocError::NoRoute`] if link failures disconnect the pair.
    pub fn estimate(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        class: TrafficClass,
        depart: SimTime,
    ) -> Result<Estimate> {
        let tier = SimMode::Analytic;
        self.walk(src, dst, bytes, class, depart, tier, |_| Ok(()))
    }

    /// The transfer walk both tiers run (see the module docs). With
    /// encryption on it charges the source encrypt and destination
    /// decrypt passes; running the cipher is the caller's.
    ///
    /// `tier` sets each hop's wait: the detailed tier waits for the
    /// virtual channel's busy slot and moves it past this packet; the
    /// analytic tier waits the fitted M/D/1 term at the link's
    /// utilisation. `deliver` runs after the hop loop with the hop count
    /// (the detailed tier's tamper and authenticate steps); its error
    /// counts as an authentication failure and skips the totals.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        class: TrafficClass,
        depart: SimTime,
        tier: SimMode,
        deliver: impl FnOnce(u32) -> Result<()>,
    ) -> Result<Estimate> {
        let (src_domain, dst_domain) = (self.policy.domain_of(src), self.policy.domain_of(dst));
        if !self.leak_cross_partition && !self.policy.permits(src_domain, dst_domain) {
            self.tel.counter_add(self.tel_root, "isolation_rejects", 1);
            return Err(NocError::IsolationViolation { src, dst });
        }
        let path = self.mesh.route(src, dst)?;
        let hops = path.len().saturating_sub(1) as u32;
        let vc = class.virtual_channel();
        let flits = flit_count_for(bytes);
        let serialization = Self::cycle() * (flits * cal::LINK_CYCLES);
        let hop_time = self.hop_time(flits);
        let crypto = self.encryption.then(|| crypto::crypto_cost(bytes));
        let mut cursor = depart;
        let mut energy = Energy::ZERO;
        if let Some(c) = crypto {
            cursor += c.latency;
            energy += c.energy;
        }
        for w in path.windows(2) {
            let link = Link::new(w[0], w[1]);
            let st = self.links.entry(link).or_default();
            // `backlog` is how far the link's queue extends past the
            // packet's own arrival there.
            let (wait, backlog) = match tier {
                SimMode::Detailed => {
                    let wait = st.busy[vc].saturating_since(cursor);
                    st.busy[vc] = cursor + wait + hop_time;
                    (wait, wait + hop_time)
                }
                SimMode::Analytic => {
                    // Utilisation: fraction of elapsed simulated time
                    // this link was reserved for serialization. Traffic
                    // before t=0 (or an all-at-once burst at the origin)
                    // reads as fully loaded.
                    let rho = if depart > SimTime::ZERO {
                        st.reserved.as_ps() as f64 / depart.as_ps() as f64
                    } else if st.reserved.is_zero() {
                        0.0
                    } else {
                        1.0
                    };
                    let wait = self.contention.wait(rho, serialization);
                    (wait, wait)
                }
            };
            st.reserved += serialization;
            cursor += wait + hop_time;
            energy += Energy::from_fj(cal::FLIT_HOP_FJ * flits);
            if self.tel.is_enabled() {
                if st.tel == ComponentId::NONE {
                    st.tel = self.tel.component(&format!(
                        "{}/link({},{})->({},{})",
                        self.tel_prefix, link.from.x, link.from.y, link.to.x, link.to.y
                    ));
                }
                self.tel
                    .counter_add(st.tel, "reserved_ps", serialization.as_ps());
                self.tel.counter_add(st.tel, "flits", flits);
                self.tel
                    .gauge_set(st.tel, "backlog_ps", backlog.as_ps() as f64);
                self.tel
                    .record(self.tel_root, "queue_wait_ps", wait.as_ps());
            }
        }
        if let Err(e) = deliver(hops) {
            self.tel.counter_add(self.tel_root, "auth_failures", 1);
            self.tel.counter_add(self.tel_root, "drops", 1);
            return Err(e);
        }
        if let Some(c) = crypto {
            cursor += c.latency;
            energy += c.energy;
        }
        if src_domain != dst_domain {
            self.tel
                .counter_add(self.tel_root, "cross_domain_deliveries", 1);
        }
        if self.tel.is_enabled() {
            let latency = cursor - depart;
            self.tel.counter_add(self.tel_root, "packets", 1);
            self.tel
                .counter_add(self.tel_root, "flit_hops", flits * u64::from(hops));
            self.tel
                .counter_add(self.tel_root, "energy_fj", energy.as_fj());
            self.tel
                .counter_add(self.tel_root, "busy_ps", latency.as_ps());
            self.tel
                .record(self.tel_root, VC_LATENCY_METRIC[vc], latency.as_ps() / 1000);
        }
        Ok(Estimate {
            arrival: cursor,
            energy,
            hops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TrafficClass;
    use cim_sim::telemetry::{MetricValue, TelemetryLevel};

    fn n(x: u16, y: u16) -> NodeId {
        NodeId::new(x, y)
    }

    fn net() -> NocNetwork {
        NocNetwork::new(8, 8, 1234).unwrap()
    }

    fn us(x: u64) -> SimTime {
        SimTime::from_ns(x * 1_000)
    }

    /// A network with a metrics sink attached under `noc`.
    fn observed(mode: SimMode) -> (NocNetwork, Telemetry) {
        let t = Telemetry::new(TelemetryLevel::Metrics);
        let mut noc = net();
        noc.set_mode(mode);
        noc.attach_telemetry(&t, "noc");
        (noc, t)
    }

    /// A counter on the network's root telemetry component.
    fn total(t: &Telemetry, metric: &'static str) -> u64 {
        let root = t.component("noc");
        t.with_registry(|r| r.counter(root, metric)).unwrap()
    }

    #[test]
    fn delivers_payload_intact_plaintext() {
        let mut noc = net();
        let p = Packet::new(1, n(0, 0), n(4, 4), vec![1, 2, 3, 4]);
        let d = noc.transmit(&p, SimTime::ZERO).unwrap();
        assert_eq!(&d.payload[..], &[1, 2, 3, 4]);
        assert_eq!(
            &d.wire_payload[..],
            &[1, 2, 3, 4],
            "no encryption: wire is plain"
        );
        assert_eq!(d.hops, 8);
        assert!(d.arrival > SimTime::ZERO);
    }

    #[test]
    fn latency_grows_with_distance_and_size() {
        let mut noc = net();
        let near = Packet::new(1, n(0, 0), n(1, 0), vec![0u8; 16]);
        let far = Packet::new(2, n(0, 0), n(7, 7), vec![0u8; 16]);
        let big = Packet::new(3, n(0, 0), n(1, 0), vec![0u8; 1024]);
        let t_near = noc.transmit(&near, SimTime::ZERO).unwrap().arrival;
        noc.reset();
        let t_far = noc.transmit(&far, SimTime::ZERO).unwrap().arrival;
        noc.reset();
        let t_big = noc.transmit(&big, SimTime::ZERO).unwrap().arrival;
        assert!(t_far > t_near);
        assert!(t_big > t_near);
    }

    #[test]
    fn contention_delays_same_class_packets() {
        let mut noc = net();
        let a = Packet::new(1, n(0, 0), n(3, 0), vec![0u8; 256]);
        let b = Packet::new(2, n(0, 0), n(3, 0), vec![0u8; 256]);
        let d1 = noc.transmit(&a, SimTime::ZERO).unwrap();
        let d2 = noc.transmit(&b, SimTime::ZERO).unwrap();
        assert!(
            d2.arrival > d1.arrival,
            "second packet on the same links must queue"
        );
    }

    #[test]
    fn virtual_channels_isolate_classes() {
        let mut congested = net();
        // Saturate the best-effort VC along row 0.
        for i in 0..20 {
            let p = Packet::new(i, n(0, 0), n(7, 0), vec![0u8; 1024]);
            congested.transmit(&p, SimTime::ZERO).unwrap();
        }
        let ctrl =
            Packet::new(100, n(0, 0), n(7, 0), vec![0u8; 16]).with_class(TrafficClass::Control);
        let d = congested.transmit(&ctrl, SimTime::ZERO).unwrap();
        let floor = congested.zero_load_latency(&ctrl, 7);
        assert_eq!(
            (d.arrival - SimTime::ZERO).as_ps(),
            floor.as_ps(),
            "control traffic rides its own VC at zero-load latency"
        );
    }

    #[test]
    fn isolation_policy_blocks_cross_domain() {
        let (mut noc, t) = observed(SimMode::Detailed);
        noc.policy_mut().assign(n(0, 0), 1);
        noc.policy_mut().assign(n(1, 0), 2);
        let p = Packet::new(1, n(0, 0), n(1, 0), vec![1]);
        assert!(matches!(
            noc.transmit(&p, SimTime::ZERO),
            Err(NocError::IsolationViolation { .. })
        ));
        assert_eq!(total(&t, "isolation_rejects"), 1);
        noc.policy_mut().allow(1, 2);
        assert!(noc.transmit(&p, SimTime::ZERO).is_ok());
        assert_eq!(total(&t, "cross_domain_deliveries"), 1);
        noc.policy_mut().revoke(1, 2);
        assert!(noc.transmit(&p, SimTime::ZERO).is_err());
        assert_eq!(total(&t, "isolation_rejects"), 2);
    }

    #[test]
    fn encryption_hides_wire_payload_and_roundtrips() {
        let mut noc = net();
        noc.set_encryption(true);
        let secret = b"model weights".to_vec();
        let p = Packet::new(1, n(0, 0), n(3, 3), secret.clone());
        let d = noc.transmit(&p, SimTime::ZERO).unwrap();
        assert_eq!(&d.payload[..], &secret[..]);
        assert_ne!(&d.wire_payload[..], &secret[..], "tap sees ciphertext");
    }

    #[test]
    fn tampering_is_detected_with_encryption() {
        let (mut noc, t) = observed(SimMode::Detailed);
        noc.set_encryption(true);
        let p = Packet::new(1, n(0, 0), n(3, 3), vec![9u8; 32]);
        let flip = |buf: &mut Vec<u8>| buf[0] ^= 0xFF;
        let res = noc.transmit_with(&p, SimTime::ZERO, Some(&flip));
        assert_eq!(res, Err(NocError::AuthenticationFailed { packet_id: 1 }));
        assert_eq!(total(&t, "auth_failures"), 1);
        assert_eq!(
            total(&t, "packets"),
            0,
            "a rejected packet is not delivered"
        );
    }

    #[test]
    fn tampering_goes_undetected_without_encryption() {
        let mut noc = net();
        let p = Packet::new(1, n(0, 0), n(3, 3), vec![9u8; 32]);
        let flip = |buf: &mut Vec<u8>| buf[0] ^= 0xFF;
        let d = noc.transmit_with(&p, SimTime::ZERO, Some(&flip)).unwrap();
        assert_ne!(&d.payload[..], &[9u8; 32][..], "corruption reaches the app");
    }

    #[test]
    fn encryption_costs_latency_and_energy() {
        let p = Packet::new(1, n(0, 0), n(5, 5), vec![0u8; 512]);
        let mut plain = net();
        let d_plain = plain.transmit(&p, SimTime::ZERO).unwrap();
        let mut enc = net();
        enc.set_encryption(true);
        let d_enc = enc.transmit(&p, SimTime::ZERO).unwrap();
        assert!(d_enc.arrival > d_plain.arrival);
        assert!(d_enc.energy > d_plain.energy);
    }

    #[test]
    fn link_failure_reroutes() {
        let mut noc = net();
        noc.mesh_mut().fail_link(n(0, 0), n(1, 0));
        let p = Packet::new(1, n(0, 0), n(2, 0), vec![0u8; 8]);
        let d = noc.transmit(&p, SimTime::ZERO).unwrap();
        assert!(d.hops > 2, "detour is longer than the direct 2-hop path");
    }

    #[test]
    fn link_load_telemetry_finds_the_hot_path() {
        let mut noc = net();
        // Ten packets down row 0, one packet down row 7.
        for i in 0..10 {
            let p = Packet::new(i, n(0, 0), n(7, 0), vec![0u8; 256]);
            noc.transmit(&p, SimTime::ZERO).unwrap();
        }
        let lone = Packet::new(99, n(0, 7), n(7, 7), vec![0u8; 256]);
        noc.transmit(&lone, SimTime::ZERO).unwrap();

        let loads = noc.link_load();
        assert!(!loads.is_empty());
        let (hot, hot_load) = noc.hottest_link().unwrap();
        assert_eq!(hot.from.y, 0, "the hot path is row 0: {hot:?}");
        // Every row-0 link carries 10x the lone row-7 link's traffic.
        let cold = loads
            .iter()
            .find(|(l, _)| l.from.y == 7)
            .expect("row 7 link present");
        assert!(hot_load.as_ps() >= 10 * cold.1.as_ps() / 2);
        // Reset clears telemetry.
        noc.reset();
        assert!(noc.hottest_link().is_none());
    }

    #[test]
    fn telemetry_tracks_links_and_totals() {
        let (mut noc, t) = observed(SimMode::Detailed);
        let mut energy = Energy::ZERO;
        for i in 0..4 {
            let p = Packet::new(i, n(0, 0), n(3, 0), vec![0u8; 256]);
            energy += noc.transmit(&p, SimTime::ZERO).unwrap().energy;
        }
        noc.policy_mut().assign(n(7, 7), 2);
        let blocked = Packet::new(9, n(0, 0), n(7, 7), vec![1]);
        assert!(noc.transmit(&blocked, SimTime::ZERO).is_err());

        let root = t.component("noc");
        t.with_registry(|r| {
            assert_eq!(r.counter(root, "packets"), 4);
            assert_eq!(r.counter(root, "isolation_rejects"), 1);
            assert_eq!(
                r.counter(root, "energy_fj"),
                energy.as_fj(),
                "telemetry energy sums the deliveries"
            );
            assert_eq!(r.counter(root, "flit_hops"), 4 * 17 * 3);
            // Queued packets show up in the wait histogram.
            let waits = r.histogram(root, "queue_wait_ps").expect("recorded");
            assert_eq!(waits.count(), 4 * 3, "3 hops per packet");
            assert!(waits.sum() > 0, "later packets queued behind the first");
        });
        // Per-link components carry utilization; link (0,0)->(1,0) saw
        // all four packets.
        let snap = t.snapshot();
        let hot = snap
            .iter()
            .find(|s| s.component == "noc/link(0,0)->(1,0)" && s.metric == "reserved_ps")
            .expect("hot link present");
        let load = noc
            .link_load()
            .into_iter()
            .find(|(l, _)| l.from == n(0, 0) && l.to == n(1, 0))
            .unwrap();
        assert_eq!(hot.as_counter(), Some(load.1.as_ps()));
        assert!(snap.iter().any(|s| s.component == "noc/link(0,0)->(1,0)"
            && s.metric == "backlog_ps"
            && matches!(s.value, MetricValue::Gauge(g) if g > 0.0)));
    }

    #[test]
    fn zero_load_latency_matches_uncontended_encrypted_transmit() {
        // Regression: the floor used to omit the source-side encrypt and
        // dest-side decrypt that transmit charges, underestimating true
        // uncontended latency whenever encryption was on.
        let mut noc = net();
        noc.set_encryption(true);
        for (dst, payload) in [(n(3, 3), 64usize), (n(7, 0), 16), (n(1, 0), 1024)] {
            let p = Packet::new(1, n(0, 0), dst, vec![0u8; payload]);
            let d = noc.transmit(&p, SimTime::ZERO).unwrap();
            let floor = noc.zero_load_latency(&p, d.hops);
            assert_eq!(
                (d.arrival - SimTime::ZERO).as_ps(),
                floor.as_ps(),
                "floor must equal measured uncontended latency (dst {dst:?})"
            );
            noc.reset();
        }
    }

    #[test]
    fn reset_zeroes_runtime_gauges() {
        let (mut noc, t) = observed(SimMode::Detailed);
        let p = Packet::new(1, n(0, 0), n(3, 0), vec![0u8; 512]);
        noc.transmit(&p, SimTime::ZERO).unwrap();
        let loaded = t.snapshot();
        assert!(
            loaded
                .iter()
                .any(|s| s.metric == "backlog_ps"
                    && matches!(s.value, MetricValue::Gauge(g) if g > 0.0)),
            "traffic must raise a backlog gauge"
        );
        // Regression: reset used to leave the last packet's backlog in
        // the gauges, so a fresh experiment's snapshot showed load.
        noc.reset();
        for s in t.snapshot() {
            if s.metric == "backlog_ps" {
                assert!(
                    matches!(s.value, MetricValue::Gauge(g) if g == 0.0),
                    "gauge {}/{} must be zero after reset",
                    s.component,
                    s.metric
                );
            }
        }
    }

    #[test]
    fn analytic_uncontended_matches_zero_load_floor() {
        // On an idle network the analytic estimate must equal the
        // detailed tier exactly — the contention term is zero and both
        // tiers share the zero-load formula.
        for encrypted in [false, true] {
            let mut det = net();
            det.set_encryption(encrypted);
            let mut ana = net();
            ana.set_encryption(encrypted);
            ana.set_mode(SimMode::Analytic);
            assert_eq!(ana.mode(), SimMode::Analytic);
            let p = Packet::new(1, n(0, 0), n(4, 2), vec![7u8; 200]);
            let d = det.transmit(&p, SimTime::ZERO).unwrap();
            let a = ana.transmit(&p, SimTime::ZERO).unwrap();
            assert_eq!(a.arrival, d.arrival, "encrypted={encrypted}");
            assert_eq!(a.energy, d.energy, "encrypted={encrypted}");
            assert_eq!(a.hops, d.hops);
            assert_eq!(&a.payload[..], &p.payload[..]);
        }
    }

    #[test]
    fn analytic_contention_grows_with_observed_load() {
        let mut noc = net();
        noc.set_mode(SimMode::Analytic);
        let p = Packet::new(1, n(0, 0), n(3, 0), vec![0u8; 512]);
        // Load the route over a window, then probe at a later departure
        // so utilisation is meaningful (reserved / elapsed).
        let idle = noc.transmit(&p, us(100)).unwrap();
        let idle_latency = idle.arrival - us(100);
        for i in 0..200 {
            noc.transmit(&p, us(101 + i)).unwrap();
        }
        let loaded = noc.transmit(&p, us(400)).unwrap();
        let loaded_latency = loaded.arrival - us(400);
        assert!(
            loaded_latency > idle_latency,
            "contention term must grow with link load: idle {idle_latency:?}, \
             loaded {loaded_latency:?}"
        );
        // Reservations feed link_load exactly as in detailed mode.
        assert!(noc.hottest_link().is_some());
        noc.reset();
        assert!(noc.hottest_link().is_none());
    }

    #[test]
    fn analytic_respects_isolation_and_routing() {
        let (mut noc, t) = observed(SimMode::Analytic);
        noc.policy_mut().assign(n(0, 0), 1);
        noc.policy_mut().assign(n(1, 0), 2);
        let p = Packet::new(1, n(0, 0), n(1, 0), vec![1]);
        assert!(matches!(
            noc.transmit(&p, SimTime::ZERO),
            Err(NocError::IsolationViolation { .. })
        ));
        assert_eq!(total(&t, "isolation_rejects"), 1);
        noc.policy_mut().allow(1, 2);
        // Failed links still reroute (the analytic tier runs the real
        // router, only the queueing is closed-form).
        noc.mesh_mut().fail_link(n(0, 0), n(1, 0));
        let d = noc.transmit(&p, SimTime::ZERO).unwrap();
        assert!(d.hops > 1, "detour is longer than the direct hop");
        assert_eq!(total(&t, "cross_domain_deliveries"), 1);
    }

    #[test]
    fn analytic_stats_and_telemetry_mirror_detailed_shape() {
        let (mut noc, t) = observed(SimMode::Analytic);
        let mut energy = Energy::ZERO;
        for i in 0..4 {
            let p = Packet::new(i, n(0, 0), n(3, 0), vec![0u8; 256]);
            energy += noc.transmit(&p, SimTime::ZERO).unwrap().energy;
        }
        assert!(energy.as_fj() > 0);
        let root = t.component("noc");
        t.with_registry(|r| {
            assert_eq!(r.counter(root, "packets"), 4);
            assert_eq!(r.counter(root, "energy_fj"), energy.as_fj());
            assert_eq!(r.counter(root, "flit_hops"), 4 * 17 * 3);
            let vc0 = r.histogram(root, "latency_ns_vc0").expect("recorded");
            assert_eq!(vc0.count(), 4);
        });
        // Per-link reservation counters exist like in detailed mode.
        assert!(t
            .snapshot()
            .iter()
            .any(|s| s.component == "noc/link(0,0)->(1,0)" && s.metric == "reserved_ps"));
    }

    #[test]
    fn fitted_contention_scales_the_wait() {
        let mut calm = net();
        calm.set_mode(SimMode::Analytic);
        calm.set_contention(ContentionModel::with_alpha(0.0));
        let mut hot = net();
        hot.set_mode(SimMode::Analytic);
        hot.set_contention(ContentionModel::with_alpha(4.0));
        assert!((hot.contention().alpha() - 4.0).abs() < 1e-12);
        let p = Packet::new(1, n(0, 0), n(3, 0), vec![0u8; 512]);
        // Pre-load both networks identically, then probe.
        for i in 0..100 {
            calm.transmit(&p, us(10 + i)).unwrap();
            hot.transmit(&p, us(10 + i)).unwrap();
        }
        let probe_at = us(200);
        let c = calm.transmit(&p, probe_at).unwrap();
        let h = hot.transmit(&p, probe_at).unwrap();
        assert!(
            h.arrival > c.arrival,
            "larger alpha must predict more queueing"
        );
        // Alpha 0 disables contention entirely: floor latency.
        let floor = calm.zero_load_latency(&p, c.hops);
        assert_eq!((c.arrival - probe_at).as_ps(), floor.as_ps());
    }

    #[test]
    fn stats_accumulate_per_class() {
        let (mut noc, t) = observed(SimMode::Detailed);
        noc.transmit(
            &Packet::new(1, n(0, 0), n(1, 1), vec![0u8; 64]),
            SimTime::ZERO,
        )
        .unwrap();
        noc.transmit(
            &Packet::new(2, n(0, 0), n(1, 1), vec![0u8; 64]).with_class(TrafficClass::Control),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(total(&t, "packets"), 2);
        assert!(total(&t, "energy_fj") > 0);
        assert_eq!(total(&t, "flit_hops"), 2 * 5 * 2);
        let root = t.component("noc");
        t.with_registry(|r| {
            for (metric, count) in VC_LATENCY_METRIC.into_iter().zip([1, 0, 1]) {
                let recorded = r.histogram(root, metric).map_or(0, |h| h.count());
                assert_eq!(recorded, count, "{metric}");
            }
        });
    }

    /// Runs one fixed sequence through a fresh 4×4 mesh on `mode`'s tier
    /// and renders, one line each: every transfer's arrival (ps), energy
    /// (fJ), hop count and wire digest (or its error), the link loads
    /// before and after `reset()`, and FNV-1a digests of the telemetry
    /// export before and after the reset.
    fn golden_log(mode: SimMode) -> String {
        use cim_sim::rng::Fnv1a;
        use cim_sim::telemetry::{Telemetry, TelemetryLevel};
        use std::fmt::Write;
        let fnv = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.write(bytes);
            h.finish()
        };
        let t = Telemetry::new(TelemetryLevel::Metrics);
        let mut noc = NocNetwork::new(4, 4, 99).unwrap();
        noc.set_mode(mode);
        noc.attach_telemetry(&t, "noc");
        let mut log = String::new();
        let flip = |buf: &mut Vec<u8>| buf[0] ^= 0xFF;
        let mut send = |noc: &mut NocNetwork,
                        (id, src, dst, bytes): (u64, NodeId, NodeId, usize),
                        class: TrafficClass,
                        at_ns: u64,
                        tamper: Option<TamperFn<'_>>| {
            let p = Packet::new(id, src, dst, vec![id as u8; bytes]).with_class(class);
            let line = match noc.transmit_with(&p, SimTime::from_ns(at_ns), tamper) {
                Ok(d) => {
                    assert_eq!(d.payload, p.payload, "packet {id} arrives intact");
                    format!(
                        "{id}: {} ps {} fJ {} hops wire {:016x}",
                        d.arrival.as_ps(),
                        d.energy.as_fj(),
                        d.hops,
                        fnv(&d.wire_payload)
                    )
                }
                Err(e) => format!("{id}: {e}"),
            };
            writeln!(log, "{line}").unwrap();
        };
        use TrafficClass::{BestEffort as Be, Control, Guaranteed as Gt};
        // Same-VC contention, then a control packet on its own VC.
        send(&mut noc, (1, n(0, 0), n(3, 0), 256), Be, 0, None);
        send(&mut noc, (2, n(0, 0), n(3, 0), 256), Be, 0, None);
        send(&mut noc, (3, n(0, 0), n(3, 0), 16), Control, 0, None);
        send(&mut noc, (4, n(3, 0), n(0, 3), 64), Gt, 100, None);
        noc.set_encryption(true);
        send(&mut noc, (5, n(0, 0), n(2, 3), 64), Gt, 1_000, None);
        // A tamper on a 6-hop route, then on a 0-hop one.
        send(&mut noc, (6, n(0, 0), n(3, 3), 32), Be, 2_000, Some(&flip));
        send(&mut noc, (7, n(1, 1), n(1, 1), 32), Be, 2_000, Some(&flip));
        // One failed link forces YX, a second forces BFS.
        noc.mesh_mut().fail_link(n(0, 0), n(1, 0));
        send(&mut noc, (8, n(0, 0), n(2, 1), 128), Be, 3_000, None);
        noc.mesh_mut().fail_link(n(0, 1), n(1, 1));
        send(&mut noc, (9, n(0, 0), n(2, 1), 128), Be, 3_000, None);
        // A denied cross-domain pair, then the same pair allowed.
        noc.policy_mut().assign(n(3, 3), 1);
        send(&mut noc, (10, n(0, 0), n(3, 3), 48), Gt, 4_000, None);
        noc.policy_mut().allow(0, 1);
        send(&mut noc, (11, n(0, 0), n(3, 3), 48), Gt, 4_000, None);

        let loads = |noc: &NocNetwork| {
            noc.link_load()
                .iter()
                .map(|(l, d)| format!("{}->{} {}", l.from, l.to, d.as_ps()))
                .collect::<Vec<_>>()
                .join(" ")
        };
        writeln!(log, "load: {}", loads(&noc)).unwrap();
        writeln!(log, "tel: {:016x}", fnv(t.export_jsonl().as_bytes())).unwrap();
        noc.reset();
        writeln!(log, "load after reset: {}", loads(&noc)).unwrap();
        writeln!(
            log,
            "tel after reset: {:016x}",
            fnv(t.export_jsonl().as_bytes())
        )
        .unwrap();
        log
    }

    #[test]
    fn golden_sequence_is_pinned_on_both_tiers() {
        // Both tiers reserve the same links in the same amounts.
        macro_rules! loads {
            () => {
                "(0,0)->(1,0) 44000 (1,0)->(2,0) 44000 (2,0)->(3,0) 39000 (0,0)->(0,1) 27000 (0,1)->(0,2) 18000 (0,1)->(1,1) 9000 (0,2)->(0,3) 9000 (0,2)->(1,2) 9000 (1,1)->(2,1) 9000 (1,2)->(2,2) 9000 (2,2)->(2,1) 9000 (1,0)->(0,0) 5000 (2,0)->(1,0) 5000 (2,0)->(2,1) 5000 (2,1)->(2,2) 5000 (2,2)->(2,3) 5000 (3,0)->(2,0) 5000 (0,3)->(1,3) 4000 (1,3)->(2,3) 4000 (2,3)->(3,3) 4000 (3,0)->(3,1) 3000 (3,1)->(3,2) 3000 (3,2)->(3,3) 3000"
            };
        }
        let detailed = [
            "1: 60000 ps 81600 fJ 3 hops wire f579dcf3347b5825",
            "2: 80000 ps 81600 fJ 3 hops wire 9c0e1f6aa8bc6325",
            "3: 15000 ps 9600 fJ 3 hops wire 16cb1177c590d7f5",
            "4: 148000 ps 48000 fJ 6 hops wire 7cc9572f22bb2925",
            "5: 1054000 ps 72000 fJ 5 hops wire b685421d16bb1e42",
            "6: packet 6 failed authentication",
            "7: 2004000 ps 16000 fJ 0 hops wire 0efe7f6cc9631d91",
            "8: 3046000 ps 107200 fJ 3 hops wire 26bbd91aa07e502b",
            "9: 3088000 ps 136000 fJ 5 hops wire 94e716e6549dc497",
            "10: isolation policy forbids traffic (0,0) -> (3,3)",
            "11: 4058000 ps 62400 fJ 6 hops wire e5a033c8f9f087a2",
            concat!("load: ", loads!()),
            "tel: 3a11724bdb1f75fa",
            "load after reset: ",
            "tel after reset: e5b6017c0e9b87b0",
        ];
        let analytic = [
            "1: 60000 ps 81600 fJ 3 hops wire f579dcf3347b5825",
            "2: 1309500 ps 81600 fJ 3 hops wire 9c0e1f6aa8bc6325",
            "3: 162000 ps 9600 fJ 3 hops wire 16cb1177c590d7f5",
            "4: 148000 ps 48000 fJ 6 hops wire 7cc9572f22bb2925",
            "5: 1054186 ps 72000 fJ 5 hops wire 3bd96ede3ec82c65",
            "6: 2052089 ps 44800 fJ 6 hops wire b1aebd2a0c0a5ba5",
            "7: 2004000 ps 16000 fJ 0 hops wire f160fd08b6d9aac5",
            "8: 3046008 ps 107200 fJ 3 hops wire 443cd42905c84d25",
            "9: 3074029 ps 136000 fJ 5 hops wire ac38f5367280eda5",
            "10: isolation policy forbids traffic (0,0) -> (3,3)",
            "11: 4058022 ps 62400 fJ 6 hops wire 1a12b441439df395",
            concat!("load: ", loads!()),
            "tel: d0e9757915feb116",
            "load after reset: ",
            "tel after reset: 5835786d3750f9fe",
        ];
        for (mode, want) in [(SimMode::Detailed, detailed), (SimMode::Analytic, analytic)] {
            let got = golden_log(mode);
            assert_eq!(got.lines().collect::<Vec<_>>(), want, "{mode:?}");
        }
    }
}
