//! Stream capabilities and containment (paper §IV.A).
//!
//! The paper proposes fine-grained, capability-based protection (citing
//! CHERI \[73\]) as the complement to packet encryption: a stream may only
//! touch micro-units it holds a capability for. The table is
//! *default-closed* — a stream with no grants can run nowhere — and the
//! execution engine enforces it on every operator dispatch.
//!
//! Containment (§V.A) is the other half: [`fence_tile`] administratively
//! disables every unit on a tile so a detected fault (or compromise)
//! cannot spread.
//!
//! The adversarial half of this module models the attacks those
//! mechanisms exist to stop. A device can be *armed* with a compromised
//! tile ([`CimDevice::arm_adversary`]); the `attack_*` probes then fire
//! the Galeed-style intra-device adversary actions the chaos campaigns
//! schedule — forged and replayed capability tokens against the
//! [`TokenAuthority`], cross-partition packet injection and
//! exfiltration on the NoC, and hostile self-programming patches and
//! dataflow scanner programs launched from the compromised tile. Every
//! probe records its verdict in the device's [`AttackLog`]; the chaos
//! runner turns that ledger into the `iso_*` containment invariants.

use crate::device::CimDevice;
use cim_dataflow::graph::GraphBuilder;
use cim_dataflow::interpreter;
use cim_dataflow::ops::{Elementwise, Operation};
use cim_dataflow::program::Patch;
use cim_noc::packet::{NodeId, Packet};
use cim_sim::rng::splitmix64;
use cim_sim::time::{SimDuration, SimTime};
use std::collections::{HashMap, HashSet};

/// Default-closed stream → unit capability table.
///
/// # Examples
///
/// ```
/// use cim_fabric::security::CapabilityTable;
///
/// let mut caps = CapabilityTable::new();
/// caps.grant(7, 3);
/// assert!(caps.allows(7, 3));
/// assert!(!caps.allows(7, 4), "no grant, no access");
/// assert!(!caps.allows(8, 3), "unknown stream denied");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapabilityTable {
    grants: HashMap<u64, HashSet<usize>>,
}

impl CapabilityTable {
    /// Creates an empty (deny-everything) table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants `stream` the right to execute on `unit`.
    pub fn grant(&mut self, stream: u64, unit: usize) {
        self.grants.entry(stream).or_default().insert(unit);
    }

    /// Grants a stream access to many units at once.
    pub fn grant_all<I: IntoIterator<Item = usize>>(&mut self, stream: u64, units: I) {
        let set = self.grants.entry(stream).or_default();
        set.extend(units);
    }

    /// Revokes a single grant.
    pub fn revoke(&mut self, stream: u64, unit: usize) {
        if let Some(set) = self.grants.get_mut(&stream) {
            set.remove(&unit);
        }
    }

    /// Revokes everything a stream holds.
    pub fn revoke_stream(&mut self, stream: u64) {
        self.grants.remove(&stream);
    }

    /// Whether `stream` may execute on `unit`.
    pub fn allows(&self, stream: u64, unit: usize) -> bool {
        self.grants
            .get(&stream)
            .is_some_and(|set| set.contains(&unit))
    }

    /// Number of units a stream can reach (its blast radius in units).
    pub fn reach(&self, stream: u64) -> usize {
        self.grants.get(&stream).map_or(0, HashSet::len)
    }

    /// Grants a stream exactly the units of an existing placement — the
    /// least privilege a loaded program needs.
    pub fn grant_placement(&mut self, stream: u64, placement: &crate::mapper::Placement) {
        self.grant_all(stream, placement.node_to_unit.iter().copied());
    }
}

/// Administratively disables every unit on `tile` (containment barrier).
/// Returns the fenced unit indices.
pub fn fence_tile(device: &mut CimDevice, tile: NodeId) -> Vec<usize> {
    let units = device.units_on_tile(tile);
    for &u in &units {
        device.disable_unit(u);
    }
    units
}

/// NoC isolation domain reserved for a compromised (armed) tile.
pub const ADVERSARY_DOMAIN: u32 = 0xAD;

/// Lifetime of an issued capability token, in picoseconds (50 µs — a
/// few service deadlines, so schedules straddle both fresh and expired
/// tokens).
pub const TOKEN_TTL_PS: u64 = 50_000_000;

/// Byte value marking victim-partition payloads in exfiltration probes;
/// any such byte observed at the attacker is a cross-tenant read.
pub const VICTIM_MARKER: u8 = 0x56;

/// Byte value marking attacker-crafted payloads in injection probes.
pub const ATTACK_MARKER: u8 = 0xA7;

/// A time-limited, domain-bound, MAC-sealed capability (§IV.A's
/// fine-grained protection with CHERI-style unforgeability): the right
/// for `stream` to touch `unit`, valid until `expires_at_ps`, redeemable
/// once, only from `domain`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapabilityToken {
    /// Stream the capability was issued to.
    pub stream: u64,
    /// Device-wide unit index the capability covers.
    pub unit: usize,
    /// Isolation domain the token may be presented from.
    pub domain: u32,
    /// Absolute expiry, picoseconds of sim time.
    pub expires_at_ps: u64,
    /// Single-use redemption nonce.
    pub nonce: u64,
    /// Keyed MAC over every other field.
    pub mac: u64,
}

/// Why a token presentation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenViolation {
    /// The MAC does not match the fields: fabricated or tampered.
    Forged,
    /// The nonce was already redeemed.
    Replayed,
    /// Presented after `expires_at_ps`.
    Expired,
    /// Presented from a different isolation domain than it was bound to.
    WrongDomain,
}

impl TokenViolation {
    /// Stable name for logs and replay files.
    pub fn name(self) -> &'static str {
        match self {
            TokenViolation::Forged => "forged",
            TokenViolation::Replayed => "replayed",
            TokenViolation::Expired => "expired",
            TokenViolation::WrongDomain => "wrong_domain",
        }
    }
}

/// The device's token issuer/verifier (the security coprocessor §IV.A
/// implies): issues MAC-sealed single-use capabilities and checks every
/// presentation for forgery, expiry, domain binding and replay — in
/// that order, so an attacker learns nothing about nonce state from a
/// forged token.
#[derive(Debug, Clone)]
pub struct TokenAuthority {
    secret: u64,
    next_nonce: u64,
    redeemed: HashSet<u64>,
}

impl TokenAuthority {
    /// Creates an authority keyed by `secret`.
    pub fn new(secret: u64) -> Self {
        TokenAuthority {
            secret,
            next_nonce: 1,
            redeemed: HashSet::new(),
        }
    }

    fn seal(&self, stream: u64, unit: usize, domain: u32, expires_at_ps: u64, nonce: u64) -> u64 {
        let mut m = splitmix64(self.secret ^ stream);
        m = splitmix64(m ^ unit as u64);
        m = splitmix64(m ^ u64::from(domain));
        m = splitmix64(m ^ expires_at_ps);
        splitmix64(m ^ nonce)
    }

    /// Issues a fresh token for `stream` on `unit`, bound to `domain`,
    /// expiring `ttl_ps` after `now`.
    pub fn issue(
        &mut self,
        stream: u64,
        unit: usize,
        domain: u32,
        now: SimTime,
        ttl_ps: u64,
    ) -> CapabilityToken {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let expires_at_ps = now.as_ps().saturating_add(ttl_ps);
        CapabilityToken {
            stream,
            unit,
            domain,
            expires_at_ps,
            nonce,
            mac: self.seal(stream, unit, domain, expires_at_ps, nonce),
        }
    }

    /// Verifies and consumes a token presented from `presented_from` at
    /// `now`. Success burns the nonce: a second presentation of the same
    /// token is [`TokenViolation::Replayed`].
    ///
    /// # Errors
    ///
    /// Returns the first [`TokenViolation`] in check order
    /// (forgery → expiry → domain → replay).
    pub fn redeem(
        &mut self,
        token: &CapabilityToken,
        presented_from: u32,
        now: SimTime,
    ) -> Result<(), TokenViolation> {
        let expect = self.seal(
            token.stream,
            token.unit,
            token.domain,
            token.expires_at_ps,
            token.nonce,
        );
        if expect != token.mac {
            return Err(TokenViolation::Forged);
        }
        if now.as_ps() > token.expires_at_ps {
            return Err(TokenViolation::Expired);
        }
        if presented_from != token.domain {
            return Err(TokenViolation::WrongDomain);
        }
        if !self.redeemed.insert(token.nonce) {
            return Err(TokenViolation::Replayed);
        }
        Ok(())
    }
}

/// Verdict ledger for every adversarial probe fired on a device. The
/// chaos runner's containment invariants read this after a run:
/// `iso_no_cross_tenant_read` fails on any `leaked_bytes`,
/// `cross_deliveries` or `tokens_accepted`; `iso_bounded_blast_radius`
/// fails if `touched_units` reaches outside the compromised tile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttackLog {
    /// Probe actions fired (packets sent, tokens presented).
    pub attempts: u64,
    /// Probes stopped by a boundary check (policy reject, token refusal).
    pub blocked: u64,
    /// Attacker packets delivered across a partition boundary.
    pub cross_deliveries: u64,
    /// Victim-marker bytes observed at the attacker (cross-tenant read).
    pub leaked_bytes: u64,
    /// Attack tokens the authority accepted (should stay zero).
    pub tokens_accepted: u64,
    /// Attack tokens refused.
    pub tokens_rejected: u64,
    /// Hostile dataflow programs assembled and run on the armed tile.
    pub hostile_programs: u64,
    /// Hostile self-programming patches built and launched.
    pub hostile_patches: u64,
    /// Units the attack reached (delivered packet or accepted token),
    /// sorted, deduplicated.
    pub touched_units: Vec<usize>,
}

impl AttackLog {
    fn touch(&mut self, unit: usize) {
        if let Err(pos) = self.touched_units.binary_search(&unit) {
            self.touched_units.insert(pos, unit);
        }
    }

    fn touch_all<I: IntoIterator<Item = usize>>(&mut self, units: I) {
        for u in units {
            self.touch(u);
        }
    }

    /// Units the attack reached outside the `allowed` (compromised) set
    /// — the blast radius beyond the attacker's own domain.
    pub fn touched_outside(&self, allowed: &[usize]) -> usize {
        self.touched_units
            .iter()
            .filter(|u| !allowed.contains(u))
            .count()
    }

    /// Whether the attack was fully contained: nothing read across the
    /// tenant boundary and no attack token honoured.
    pub fn contained(&self) -> bool {
        self.cross_deliveries == 0 && self.leaked_bytes == 0 && self.tokens_accepted == 0
    }

    /// Folds another device's ledger into this one (fleet aggregation).
    /// `touched_units` are kept per-call meaningful by offsetting with
    /// `unit_base` so fleet blast radii stay per-device-distinct.
    pub fn absorb(&mut self, other: &AttackLog, unit_base: usize) {
        self.attempts += other.attempts;
        self.blocked += other.blocked;
        self.cross_deliveries += other.cross_deliveries;
        self.leaked_bytes += other.leaked_bytes;
        self.tokens_accepted += other.tokens_accepted;
        self.tokens_rejected += other.tokens_rejected;
        self.hostile_programs += other.hostile_programs;
        self.hostile_patches += other.hostile_patches;
        self.touch_all(other.touched_units.iter().map(|&u| u + unit_base));
    }
}

/// The armed-adversary state a device carries when a chaos campaign
/// reserves a compromised tile: which tile, the token authority probes
/// attack, and the verdict ledger. Lives outside the volatile/nonvolatile
/// split — like telemetry it is the *host-side observer* of the attack,
/// so a power cycle neither erases the ledger nor disarms the tile.
#[derive(Debug, Clone)]
pub struct AdversaryState {
    /// The compromised tile (fenced at boot; mapper never places there).
    pub tile: NodeId,
    /// Token issuer/verifier the token probes attack.
    pub authority: TokenAuthority,
    /// Verdict ledger.
    pub log: AttackLog,
}

impl AdversaryState {
    /// Creates the state for a compromised `tile`, authority keyed by
    /// `secret`.
    pub fn new(tile: NodeId, secret: u64) -> Self {
        AdversaryState {
            tile,
            authority: TokenAuthority::new(secret),
            log: AttackLog::default(),
        }
    }
}

/// Forged-token probe: the attacker fabricates a token for `unit` with a
/// guessed MAC, then steals a legitimately issued victim token and
/// presents it from the adversary domain. Both must be refused. No-op on
/// an unarmed device.
pub fn attack_forge_token(device: &mut CimDevice, unit: usize, now: SimTime) {
    let Some(mut adv) = device.take_adversary() else {
        return;
    };
    // Fabrication: right shape, attacker-chosen seal.
    let forged = CapabilityToken {
        stream: 0xBAD0_0000 | unit as u64,
        unit,
        domain: 0,
        expires_at_ps: now.as_ps().saturating_add(TOKEN_TTL_PS),
        nonce: splitmix64(unit as u64 ^ 0xF0F0),
        mac: splitmix64(0xDEAD_FACE ^ unit as u64),
    };
    adv.log.attempts += 1;
    record_token_verdict(
        &mut adv.log,
        adv.authority.redeem(&forged, ADVERSARY_DOMAIN, now),
        unit,
    );
    // Theft: a real token, bound to the victim domain, presented from
    // the adversary domain.
    let stolen = adv
        .authority
        .issue(0x51C7_0000 | unit as u64, unit, 0, now, TOKEN_TTL_PS);
    adv.log.attempts += 1;
    record_token_verdict(
        &mut adv.log,
        adv.authority.redeem(&stolen, ADVERSARY_DOMAIN, now),
        unit,
    );
    device.put_adversary(adv);
}

/// Replayed/expired-token probe: a token is issued at `now` and the
/// attacker presents it — from inside the victim domain, modelling a
/// compromised co-tenant process — `age_ps` later, twice. Depending on
/// `age_ps` vs [`TOKEN_TTL_PS`] the second presentation must fail as a
/// replay or both must fail as expired. No-op on an unarmed device.
pub fn attack_replay_token(device: &mut CimDevice, unit: usize, age_ps: u64, now: SimTime) {
    let Some(mut adv) = device.take_adversary() else {
        return;
    };
    let token = adv
        .authority
        .issue(0x3EB1_0000 | unit as u64, unit, 0, now, TOKEN_TTL_PS);
    let later = now + SimDuration::from_ps(age_ps);
    // The victim's own (legitimate) redemption; only its *expiry* verdict
    // matters for the ledger — a fresh first use is not an attack.
    if adv.authority.redeem(&token, 0, later).is_err() {
        adv.log.attempts += 1;
        adv.log.tokens_rejected += 1;
        adv.log.blocked += 1;
    }
    // The captured copy, replayed.
    adv.log.attempts += 1;
    record_token_verdict(&mut adv.log, adv.authority.redeem(&token, 0, later), unit);
    device.put_adversary(adv);
}

fn record_token_verdict(log: &mut AttackLog, verdict: Result<(), TokenViolation>, unit: usize) {
    match verdict {
        Ok(()) => {
            log.tokens_accepted += 1;
            log.touch(unit);
        }
        Err(_) => {
            log.tokens_rejected += 1;
            log.blocked += 1;
        }
    }
}

/// Cross-partition packet probe: `packets` rounds of an attacker-crafted
/// injection into the `victim` tile plus an exfiltration pull of
/// victim-marker bytes back to the attacker's observation point. The NoC
/// boundary check must refuse both directions. No-op on an unarmed
/// device.
pub fn attack_cross_partition(
    device: &mut CimDevice,
    victim: NodeId,
    packets: u16,
    bytes: u16,
    now: SimTime,
) {
    let Some(mut adv) = device.take_adversary() else {
        return;
    };
    let tile = adv.tile;
    // Scanning the adversary's own tile is not a cross-partition attack
    // — same domain, trivially allowed — so fold such a victim onto the
    // opposite mesh corner. On a degenerate one-tile mesh there is no
    // victim partition at all: nothing to probe.
    let victim = if victim == tile {
        NodeId::new(0, 0)
    } else {
        victim
    };
    if victim == tile {
        device.put_adversary(adv);
        return;
    }
    let len = bytes.max(1) as usize;
    for _ in 0..packets.max(1) {
        let id = device.next_packet_id();
        let pkt = Packet::new(id, tile, victim, vec![ATTACK_MARKER; len]);
        inject_probe(device, &mut adv.log, &pkt, now);
        exfiltrate_probe(device, &mut adv.log, victim, tile, len, now);
    }
    device.put_adversary(adv);
}

/// Sends one attacker-built probe across a partition boundary and
/// records the verdict: a delivered probe puts every unit on its
/// destination tile inside the blast radius.
fn inject_probe(device: &mut CimDevice, log: &mut AttackLog, pkt: &Packet, now: SimTime) {
    log.attempts += 1;
    if device.units_and_noc_mut().1.transmit(pkt, now).is_ok() {
        log.cross_deliveries += 1;
        log.touch_all(device.units_on_tile(pkt.dst));
    } else {
        log.blocked += 1;
    }
}

/// Pulls `len` victim-marker bytes from partition `from` back to the
/// attacker's tile `to` and records how many leaked.
fn exfiltrate_probe(
    device: &mut CimDevice,
    log: &mut AttackLog,
    from: NodeId,
    to: NodeId,
    len: usize,
    now: SimTime,
) {
    let pkt = Packet::new(device.next_packet_id(), from, to, vec![VICTIM_MARKER; len]);
    log.attempts += 1;
    match device.units_and_noc_mut().1.transmit(&pkt, now) {
        Ok(d) => {
            log.cross_deliveries += 1;
            log.leaked_bytes += d.payload.iter().filter(|&&b| b == VICTIM_MARKER).count() as u64;
        }
        Err(_) => log.blocked += 1,
    }
}

/// Hostile-dataflow probe: the compromised tile assembles a scanner
/// program, runs it through the dataflow interpreter (the compromised
/// domain's own compute is not restricted), and uses its output as probe
/// payloads to scan — and attempt to exfiltrate from — every mesh
/// neighbour. No-op on an unarmed device.
pub fn attack_hostile_dataflow(device: &mut CimDevice, seed: u64, now: SimTime) {
    let Some(mut adv) = device.take_adversary() else {
        return;
    };
    // Scanner program: source → scale → sink, parameters from the seed.
    let k = 1.0 + (seed % 7) as f64;
    let mut b = GraphBuilder::new();
    let s = b.add("scan-src", Operation::Source { width: 4 });
    let m = b.add(
        "scan-map",
        Operation::Map {
            func: Elementwise::Scale(k),
            width: 4,
        },
    );
    let t = b.add("scan-sink", Operation::Sink { width: 4 });
    b.chain(&[s, m, t]).expect("scanner chain is well-formed");
    let graph = b.build().expect("scanner graph is well-formed");
    let x = (seed % 97) as f64;
    let inputs = HashMap::from([(s, vec![x, x + 1.0, x + 2.0, x + 3.0])]);
    let out = interpreter::execute(&graph, &inputs).expect("scanner graph executes");
    adv.log.hostile_programs += 1;
    let probe: Vec<u8> = out[&t]
        .iter()
        .map(|v| (v.abs() as u64 % 251) as u8)
        .collect();

    let (w, h) = {
        let c = device.config();
        (c.mesh_width as u16, c.mesh_height as u16)
    };
    let tile = adv.tile;
    let mut neighbours = Vec::new();
    if tile.x > 0 {
        neighbours.push(NodeId::new(tile.x - 1, tile.y));
    }
    if tile.x + 1 < w {
        neighbours.push(NodeId::new(tile.x + 1, tile.y));
    }
    if tile.y > 0 {
        neighbours.push(NodeId::new(tile.x, tile.y - 1));
    }
    if tile.y + 1 < h {
        neighbours.push(NodeId::new(tile.x, tile.y + 1));
    }
    for nb in neighbours {
        // Scan with the computed payload, then pull neighbour bytes back.
        let pkt = Packet::new(device.next_packet_id(), tile, nb, probe.clone());
        inject_probe(device, &mut adv.log, &pkt, now);
        exfiltrate_probe(device, &mut adv.log, nb, tile, 32, now);
    }
    device.put_adversary(adv);
}

/// Hostile self-programming probe: the compromised tile builds a code
/// patch, verifies it works by self-programming its own scratch graph
/// (legal inside the compromised domain), then launches the encoded
/// patch as a control packet at a victim tile — which the NoC boundary
/// check must refuse. No-op on an unarmed device.
pub fn attack_hostile_self_prog(device: &mut CimDevice, seed: u64, now: SimTime) {
    let Some(mut adv) = device.take_adversary() else {
        return;
    };
    let func = if seed.is_multiple_of(2) {
        Elementwise::Scale(2.0 + (seed % 13) as f64)
    } else {
        Elementwise::Offset(1.0 + (seed % 11) as f64)
    };
    let patch = Patch::SetMapFunc { node: 1, func };
    adv.log.hostile_patches += 1;

    // Local dry-run: self-programming the attacker's own graph succeeds
    // (containment restricts reach, not the compromised tile's compute).
    let mut b = GraphBuilder::new();
    let s = b.add("own-src", Operation::Source { width: 2 });
    let m = b.add(
        "own-map",
        Operation::Map {
            func: Elementwise::Identity,
            width: 2,
        },
    );
    let t = b.add("own-sink", Operation::Sink { width: 2 });
    b.chain(&[s, m, t])
        .expect("patch target chain is well-formed");
    let mut own = b.build().expect("patch target graph is well-formed");
    own.replace_op(m, Operation::Map { func, width: 2 })
        .expect("a shape-preserving patch applies locally");

    // Launch: the encoded patch, addressed across the boundary.
    let (w, h) = {
        let c = device.config();
        (c.mesh_width as u16, c.mesh_height as u16)
    };
    let mut victim = NodeId::new(
        (seed % u64::from(w.max(1))) as u16,
        ((seed >> 8) % u64::from(h.max(1))) as u16,
    );
    if victim == adv.tile {
        victim = NodeId::new(0, 0);
    }
    // A delivered code packet reprograms whatever the patch decodes to
    // on the victim tile: the whole tile is inside the blast radius.
    let pkt = crate::self_prog::rogue_patch_packet(device, &patch, adv.tile, victim, 0xBAD_5EED);
    inject_probe(device, &mut adv.log, &pkt, now);
    device.put_adversary(adv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FabricConfig;
    use crate::engine::StreamOptions;
    use crate::error::FabricError;
    use crate::mapper::MappingPolicy;
    use cim_crossbar::dpe::DpeConfig;
    use cim_dataflow::graph::GraphBuilder;
    use cim_dataflow::ops::{Elementwise, Operation};
    use std::collections::HashMap;

    #[test]
    fn default_closed_and_revocable() {
        let mut caps = CapabilityTable::new();
        assert!(!caps.allows(1, 0));
        caps.grant_all(1, [0, 1, 2]);
        assert_eq!(caps.reach(1), 3);
        caps.revoke(1, 1);
        assert!(caps.allows(1, 0));
        assert!(!caps.allows(1, 1));
        caps.revoke_stream(1);
        assert_eq!(caps.reach(1), 0);
    }

    fn tiny_program() -> (
        CimDevice,
        crate::engine::MappedProgram,
        cim_dataflow::NodeRef,
    ) {
        let mut d = CimDevice::new(FabricConfig {
            dpe: DpeConfig::ideal(),
            ..FabricConfig::default()
        })
        .unwrap();
        let mut b = GraphBuilder::new();
        let s = b.add("s", Operation::Source { width: 2 });
        let m = b.add(
            "m",
            Operation::Map {
                func: Elementwise::Relu,
                width: 2,
            },
        );
        let k = b.add("k", Operation::Sink { width: 2 });
        b.chain(&[s, m, k]).unwrap();
        let g = b.build().unwrap();
        let prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        (d, prog, s)
    }

    #[test]
    fn engine_enforces_capabilities() {
        let (mut d, mut prog, s) = tiny_program();
        let inputs = vec![HashMap::from([(s, vec![1.0, -1.0])])];

        // Deny-all: execution refused.
        let opts = StreamOptions {
            capabilities: Some(CapabilityTable::new()),
            ..StreamOptions::default()
        };
        let res = d.execute_stream(&mut prog, &inputs, &opts);
        assert!(matches!(res, Err(FabricError::CapabilityDenied { .. })));

        // Least privilege: grant exactly the placement, execution runs.
        let mut caps = CapabilityTable::new();
        caps.grant_placement(prog.stream_id, prog.placement());
        let opts = StreamOptions {
            capabilities: Some(caps),
            ..StreamOptions::default()
        };
        assert!(d.execute_stream(&mut prog, &inputs, &opts).is_ok());
    }

    #[test]
    fn fence_tile_disables_all_its_units() {
        let mut d = CimDevice::new(FabricConfig::default()).unwrap();
        let tile = NodeId::new(1, 1);
        let fenced = fence_tile(&mut d, tile);
        assert_eq!(fenced.len(), 4);
        assert_eq!(d.healthy_unit_count(), 60);
        for &u in &fenced {
            assert_eq!(d.unit(u).health(), crate::unit::UnitHealth::Disabled);
        }
    }

    // --- token lifecycle, independent of the chaos harness ---

    fn authority() -> TokenAuthority {
        TokenAuthority::new(0x5EC2_E7A1)
    }

    #[test]
    fn token_happy_path_accepted() {
        let mut auth = authority();
        let now = SimTime::ZERO;
        let t = auth.issue(7, 3, 0, now, TOKEN_TTL_PS);
        assert_eq!(auth.redeem(&t, 0, now + SimDuration::from_us(1)), Ok(()));
    }

    #[test]
    fn forged_token_rejected() {
        let mut auth = authority();
        let now = SimTime::ZERO;
        // Fabricated from whole cloth.
        let fake = CapabilityToken {
            stream: 7,
            unit: 3,
            domain: 0,
            expires_at_ps: TOKEN_TTL_PS,
            nonce: 99,
            mac: 0x1234_5678,
        };
        assert_eq!(auth.redeem(&fake, 0, now), Err(TokenViolation::Forged));
        // A real token with one tampered field is just as forged.
        let mut t = auth.issue(7, 3, 0, now, TOKEN_TTL_PS);
        t.unit = 4;
        assert_eq!(auth.redeem(&t, 0, now), Err(TokenViolation::Forged));
    }

    #[test]
    fn replayed_token_rejected() {
        let mut auth = authority();
        let now = SimTime::ZERO;
        let t = auth.issue(7, 3, 0, now, TOKEN_TTL_PS);
        assert_eq!(auth.redeem(&t, 0, now), Ok(()));
        assert_eq!(auth.redeem(&t, 0, now), Err(TokenViolation::Replayed));
    }

    #[test]
    fn expired_token_rejected() {
        let mut auth = authority();
        let t = auth.issue(7, 3, 0, SimTime::ZERO, TOKEN_TTL_PS);
        let late = SimTime::ZERO + SimDuration::from_ps(TOKEN_TTL_PS + 1);
        assert_eq!(auth.redeem(&t, 0, late), Err(TokenViolation::Expired));
        // Expiry is checked before replay: the nonce was never burned,
        // so the verdict stays Expired on re-presentation.
        assert_eq!(auth.redeem(&t, 0, late), Err(TokenViolation::Expired));
    }

    #[test]
    fn cross_domain_use_rejected() {
        let mut auth = authority();
        let now = SimTime::ZERO;
        let t = auth.issue(7, 3, 0, now, TOKEN_TTL_PS);
        assert_eq!(
            auth.redeem(&t, ADVERSARY_DOMAIN, now),
            Err(TokenViolation::WrongDomain)
        );
        // Refusal does not burn the nonce; the rightful domain still can.
        assert_eq!(auth.redeem(&t, 0, now), Ok(()));
    }

    // --- armed-adversary probes ---

    fn armed_device() -> CimDevice {
        let mut d = CimDevice::new(FabricConfig {
            dpe: DpeConfig::ideal(),
            encryption: true,
            ..FabricConfig::default()
        })
        .unwrap();
        let fenced = d.arm_adversary(NodeId::new(3, 3));
        assert_eq!(fenced.len(), 4, "the compromised tile is fenced");
        d
    }

    #[test]
    fn probes_are_contained_on_a_healthy_device() {
        let mut d = armed_device();
        attack_forge_token(&mut d, 5, SimTime::ZERO);
        attack_replay_token(&mut d, 5, 1_000, SimTime::ZERO);
        attack_cross_partition(&mut d, NodeId::new(0, 0), 3, 64, SimTime::ZERO);
        attack_hostile_dataflow(&mut d, 42, SimTime::ZERO);
        attack_hostile_self_prog(&mut d, 42, SimTime::ZERO);
        let log = d.attack_log().expect("armed");
        assert!(log.attempts > 0);
        assert!(log.contained(), "healthy boundaries block everything");
        assert_eq!(log.blocked, log.attempts, "every probe was refused");
        assert!(log.hostile_programs >= 1);
        assert!(log.hostile_patches >= 1);
        assert!(log.touched_units.is_empty());
    }

    #[test]
    fn leaky_boundary_is_observable() {
        let mut d = armed_device();
        d.noc_mut().set_leak_cross_partition(true);
        attack_cross_partition(&mut d, NodeId::new(0, 0), 2, 64, SimTime::ZERO);
        let log = d.attack_log().expect("armed");
        assert!(!log.contained());
        assert!(log.leaked_bytes >= 64, "victim bytes reached the attacker");
        assert!(log.cross_deliveries >= 1);
        let allowed = d.units_on_tile(NodeId::new(3, 3));
        assert!(log.touched_outside(&allowed) > 0, "blast radius escaped");
    }

    #[test]
    fn probes_are_noops_on_unarmed_devices() {
        let mut d = CimDevice::new(FabricConfig::default()).unwrap();
        attack_forge_token(&mut d, 0, SimTime::ZERO);
        attack_cross_partition(&mut d, NodeId::new(0, 0), 1, 16, SimTime::ZERO);
        attack_hostile_dataflow(&mut d, 1, SimTime::ZERO);
        assert!(d.attack_log().is_none());
        assert_eq!(d.noc().stats().packets, 0);
    }
}
