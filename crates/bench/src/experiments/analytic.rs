//! Two-tier cross-validation: the analytic fast path against the DES.
//!
//! The analytic tier ([`cim_sim::SimMode::Analytic`]) computes per-op
//! latency and energy in closed form instead of stepping the
//! flow-level detailed simulation. That speed is only trustworthy
//! while the two tiers agree, so this module replays a sample of
//! serving scenarios — single devices and multi-device fleets alike,
//! each a [`FleetScenario`] — through *both* modes and holds them to
//! declared bounds:
//!
//! - mean request latency within [`LATENCY_TOLERANCE`] (±10%),
//! - total device energy within [`ENERGY_TOLERANCE`] (±5%),
//! - throughput *ordering* across offered-load points preserved — the
//!   fast tier may smooth magnitudes, but it must never rank two
//!   operating points differently from the DES.
//!
//! Disagreements are serialized in the repo's telemetry JSON-lines
//! schema (`component`/`metric`/`value`), so the same `telemetry_check`
//! tooling that validates device exports validates the failure
//! artifact CI uploads.
//!
//! The sample stays inside the tiers' shared domain of validity:
//! offered loads up to the saturation knee, where queueing is light
//! enough for the M/D/1-style contention term to track the busy-slot
//! DES. Past saturation the admission queue — not the network model —
//! dominates, and only the detailed tier is authoritative (see
//! EXPERIMENTS.md).

use super::fleet::{run_fleet, FleetScenario};
use crate::harness::parallel_points;
use cim_fabric::FabricConfig;
use cim_sim::SimMode;
use std::time::Instant;

/// Declared agreement bound on mean request latency (fractional).
pub const LATENCY_TOLERANCE: f64 = 0.10;

/// Declared agreement bound on total modeled energy (fractional).
pub const ENERGY_TOLERANCE: f64 = 0.05;

/// The small per-push sample, single device and fleet, fast enough for
/// the quick gate: two single-device operating points (plaintext and
/// encrypted, one seed) on the default fabric seed, then a 4-device
/// fleet at a light-load point and at a mid-load point under the outage
/// campaign, its fabric seeded with the root seed.
pub fn small_sample() -> Vec<FleetScenario> {
    let single = FleetScenario::single(20_000.0, 60, 0xA11C);
    let fleet = FleetScenario {
        devices: 4,
        replicas: 2,
        rate_hz: 50_000.0,
        requests: 120,
        ..single.seeded(0xF1A7)
    };
    vec![
        single.clone(),
        FleetScenario {
            rate_hz: 100_000.0,
            fabric: FabricConfig {
                encryption: true,
                ..single.fabric
            },
            ..single
        },
        fleet.clone(),
        FleetScenario {
            rate_hz: 150_000.0,
            outage: true,
            ..fleet
        },
    ]
}

/// The wide sample for the full gate, over `seeds` independent seeds:
/// single-device rate sweeps up to the saturation knee × both
/// encryption settings, then the small sample's fleet rate pair.
pub fn wide_sample(seeds: u64) -> Vec<FleetScenario> {
    let small = small_sample();
    let (single, fleet) = small.split_at(2);
    let mut points = Vec::new();
    for s in 0..seeds.max(1) {
        for &rate_hz in &[20_000.0, 100_000.0, 250_000.0] {
            for enc in single {
                points.push(FleetScenario {
                    rate_hz,
                    seed: 0xA11C ^ (s * 0x9E37),
                    ..enc.clone()
                });
            }
        }
    }
    for s in 0..seeds.max(1) {
        for f in fleet {
            points.push(f.seeded(f.seed ^ (s * 0x9E37)));
        }
    }
    points
}

/// What one tier produced for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeResult {
    /// Requests completed within deadline.
    pub completed: usize,
    /// Mean latency over requests that ran to completion, µs.
    pub mean_latency_us: f64,
    /// Total modeled energy across every device meter, femtojoules.
    pub energy_fj: u64,
    /// Host wall-clock spent inside the run (boot included),
    /// nanoseconds. Informational only — never part of the agreement
    /// check.
    pub wall_ns: u64,
}

/// Both tiers' results for one sampled scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The scenario replayed (the tier of its fabric template is
    /// ignored; both tiers run).
    pub scenario: FleetScenario,
    /// The detailed (DES) reference.
    pub detailed: ModeResult,
    /// The analytic fast path.
    pub analytic: ModeResult,
}

impl Comparison {
    /// Fractional latency disagreement, relative to the DES.
    pub fn latency_rel_err(&self) -> f64 {
        rel_err(self.analytic.mean_latency_us, self.detailed.mean_latency_us)
    }

    /// Fractional energy disagreement, relative to the DES.
    pub fn energy_rel_err(&self) -> f64 {
        rel_err(
            self.analytic.energy_fj as f64,
            self.detailed.energy_fj as f64,
        )
    }

    /// Host-side speedup of the analytic tier on this scenario.
    pub fn speedup(&self) -> f64 {
        self.detailed.wall_ns as f64 / (self.analytic.wall_ns.max(1)) as f64
    }
}

fn rel_err(got: f64, want: f64) -> f64 {
    if want.abs() < f64::MIN_POSITIVE {
        if got.abs() < f64::MIN_POSITIVE {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (got - want).abs() / want.abs()
    }
}

/// Replays one scenario (outage campaign included) in one tier.
pub fn run_point(s: &FleetScenario, mode: SimMode) -> ModeResult {
    let started = Instant::now();
    let r = run_fleet(&s.in_mode(mode));
    ModeResult {
        completed: r.completed,
        mean_latency_us: r.latency.mean_us,
        energy_fj: r.energy.as_fj(),
        wall_ns: started.elapsed().as_nanos() as u64,
    }
}

/// Replays every sampled scenario through both tiers, points in
/// parallel on up to `CIM_THREADS` host threads. Modeled numbers are
/// bit-identical at any thread count; only `wall_ns` varies.
pub fn compare(scenarios: &[FleetScenario]) -> Vec<Comparison> {
    parallel_points(scenarios, |_, s| Comparison {
        scenario: s.clone(),
        detailed: run_point(s, SimMode::Detailed),
        analytic: run_point(s, SimMode::Analytic),
    })
}

/// The rate sweep a scenario belongs to for the throughput-ordering
/// check: every input except the offered rate and the outage flag.
fn sweep(s: &FleetScenario) -> FleetScenario {
    FleetScenario {
        rate_hz: 0.0,
        outage: false,
        ..s.clone()
    }
}

/// Checks a comparison set against the declared bounds. Returns the
/// disagreement lines (telemetry JSON-lines schema, one per violated
/// bound — empty means the tiers agree).
pub fn check(cmps: &[Comparison]) -> Vec<String> {
    let mut lines = Vec::new();
    let mut fail = |label: &str, metric: &str, value: f64, bound: f64| {
        lines.push(format!(
            "{{\"component\":\"analytic_check/{label}\",\"metric\":\"{metric}\",\
             \"kind\":\"gauge\",\"value\":{value:.6},\"bound\":{bound}}}"
        ));
    };
    for c in cmps {
        let label = c.scenario.label();
        let lat = c.latency_rel_err();
        if lat > LATENCY_TOLERANCE {
            fail(&label, "latency_rel_err", lat, LATENCY_TOLERANCE);
        }
        let en = c.energy_rel_err();
        if en > ENERGY_TOLERANCE {
            fail(&label, "energy_rel_err", en, ENERGY_TOLERANCE);
        }
    }
    // Throughput ordering: within every rate sweep, any strict
    // inversion between the tiers is a disagreement.
    for (i, a) in cmps.iter().enumerate() {
        for b in &cmps[i + 1..] {
            if sweep(&a.scenario) != sweep(&b.scenario) {
                continue;
            }
            let det = a.detailed.completed.cmp(&b.detailed.completed);
            let ana = a.analytic.completed.cmp(&b.analytic.completed);
            if det != std::cmp::Ordering::Equal && ana == det.reverse() {
                fail(
                    &format!("{}_vs_{}", a.scenario.label(), b.scenario.label()),
                    "throughput_order_inversion",
                    (a.analytic.completed as f64) - (b.analytic.completed as f64),
                    0.0,
                );
            }
        }
    }
    lines
}

/// Median analytic-over-detailed host speedup across a comparison set;
/// zero for an empty set. Informational (wall-clock, host-dependent).
pub fn median_speedup(cmps: &[Comparison]) -> f64 {
    if cmps.is_empty() {
        return 0.0;
    }
    let mut s: Vec<f64> = cmps.iter().map(Comparison::speedup).collect();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Replays `points` through both tiers and holds each to every
    /// declared bound. The small sample's single-device rows are checked
    /// here, its fleet rows by `experiments::fleet`'s tests.
    pub(crate) fn assert_points_agree(points: &[FleetScenario]) {
        let cmps = compare(points);
        assert_eq!(cmps.len(), points.len());
        let lines = check(&cmps);
        assert!(lines.is_empty(), "disagreements: {lines:?}");
        for c in &cmps {
            assert!(c.detailed.completed > 0, "sample must exercise requests");
        }
    }

    /// Corrupts the analytic tier of the first of `points` far past
    /// every bound; `check` must report one telemetry-schema line per
    /// violated bound, each under `component`.
    pub(crate) fn assert_violations_flagged(points: &[FleetScenario], component: &str) {
        let mut cmps = compare(points);
        let c = &mut cmps[0];
        c.analytic.mean_latency_us = c.detailed.mean_latency_us * 2.0 + 1.0;
        c.analytic.energy_fj = c.detailed.energy_fj * 3 + 1;
        let lines = check(&cmps);
        assert_eq!(lines.len(), 2, "one line per violated bound: {lines:?}");
        for line in &lines {
            cim_sim::telemetry::validate_jsonl_line(line).expect("telemetry schema");
            assert!(line.contains(component), "{line}");
        }
    }

    #[test]
    fn small_sample_agrees_within_bounds() {
        let sample = small_sample();
        assert_eq!(sample.len(), 4);
        assert_points_agree(&sample[..2]);
    }

    #[test]
    fn check_flags_violations_in_telemetry_schema() {
        assert_violations_flagged(&small_sample()[..2], "analytic_check/fleet1x1_rate20000");
    }

    #[test]
    fn ordering_inversions_are_caught() {
        // The two single-device points, with the same encryption so they
        // form one sweep group.
        let mut cmps = compare(&small_sample()[..2]);
        for c in &mut cmps {
            c.scenario.fabric.encryption = false;
        }
        cmps[0].detailed.completed = 10;
        cmps[1].detailed.completed = 50;
        cmps[0].analytic.completed = 50;
        cmps[1].analytic.completed = 10;
        // Silence the magnitude bounds; only ordering should fire.
        for c in &mut cmps {
            c.analytic.mean_latency_us = c.detailed.mean_latency_us;
            c.analytic.energy_fj = c.detailed.energy_fj;
        }
        let lines = check(&cmps);
        assert!(
            lines
                .iter()
                .any(|l| l.contains("throughput_order_inversion")),
            "{lines:?}"
        );
    }

    /// `(completed, mean latency bits, energy fJ)` of one tier.
    type Pin = (usize, u64, u64);

    /// The small sample of both halves of the gate, pinned per point as
    /// `[DES, analytic]`: single-device points first, then fleet points,
    /// in sample order.
    const SMALL_SAMPLE_GOLDENS: [[Pin; 2]; 4] = [
        // rate20000_seed0xa11c
        [
            (60, 4612424554948261119, 25713385784),
            (60, 4612424554948261119, 25714263112),
        ],
        // rate100000_seed0xa11c_enc
        [
            (60, 4612505400003421970, 25716393784),
            (60, 4612505401129321876, 25717271112),
        ],
        // fleet4x2_rate50000_seed0xf1a7
        [
            (120, 4612381262820823126, 51337071824),
            (120, 4612381262877118122, 51335507952),
        ],
        // fleet4x2_rate150000_seed0xf1a7_outage
        [
            (120, 4612520386031422021, 51336842672),
            (120, 4612520386350426997, 51335469552),
        ],
    ];

    #[test]
    fn small_sample_numbers_are_pinned() {
        let pin = |completed: usize, mean_us: f64, energy_fj: u64| -> Pin {
            (completed, mean_us.to_bits(), energy_fj)
        };
        let got: Vec<[Pin; 2]> = compare(&small_sample())
            .into_iter()
            .map(|c| {
                [
                    pin(
                        c.detailed.completed,
                        c.detailed.mean_latency_us,
                        c.detailed.energy_fj,
                    ),
                    pin(
                        c.analytic.completed,
                        c.analytic.mean_latency_us,
                        c.analytic.energy_fj,
                    ),
                ]
            })
            .collect();
        assert_eq!(got, SMALL_SAMPLE_GOLDENS, "two-tier numbers moved");
    }

    #[test]
    fn wide_sample_scales_with_seeds() {
        assert_eq!(wide_sample(1).len(), 8);
        assert_eq!(wide_sample(3).len(), 24);
    }
}
