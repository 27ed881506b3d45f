//! Analytical (closed-form) cost modelling — the fast tier of the
//! two-tier simulation.
//!
//! The detailed flow-level simulator resolves every read phase, flit hop
//! and queue slot; that fidelity is what the paper's §VI claims are
//! calibrated against, but it is far more than most sweeps need. This
//! module holds the shared vocabulary of the *analytic* tier:
//!
//! - [`SimMode`] — the switch threaded through `crossbar::dpe`,
//!   `cim_noc`, and `cim_fabric`, selecting detailed or analytic costing
//!   per device.
//! - [`mdl_wait`] — the M/D/1 mean-wait formula used for NoC link
//!   contention: deterministic service (fixed-size packets at a fixed
//!   link rate) fed by approximately-Poisson arrivals.
//! - [`ContentionModel`] — an M/D/1 wait with a single scale
//!   coefficient, fit from detailed-mode telemetry so the closed form
//!   tracks the DES on the workloads that matter.
//! - [`QueueModel`] — open-loop service-level queueing from arrival and
//!   served rates (utilisation, stability, predicted sojourn).
//!
//! The contract between the tiers is enforced by the `analytic_check`
//! harness (see `cim-bench`): sampled configurations replay through both
//! modes and must agree within declared bounds (latency ±10%, energy
//! ±5%, throughput ordering preserved). On contention-free single-op
//! cases the analytic tier is *exactly* the detailed tier's integer
//! cost — it replays the same integer cost arithmetic without the
//! per-cell analog work — so the bounds only absorb contention effects.

use crate::num::round_to_u64;
use crate::time::SimDuration;
use core::fmt;
use core::str::FromStr;

/// Which simulation tier a device models costs with.
///
/// # Examples
///
/// ```
/// use cim_sim::analytic::SimMode;
///
/// assert_eq!(SimMode::default(), SimMode::Detailed);
/// assert_eq!("analytic".parse(), Ok(SimMode::Analytic));
/// assert_eq!(SimMode::Analytic.to_string(), "analytic");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimMode {
    /// Full flow-level simulation: per-cell analog reads, per-flit link
    /// occupancy, event-accurate queueing. The calibration reference.
    #[default]
    Detailed,
    /// Closed-form costs: crossbar latency/energy from the quantized
    /// digit pattern, NoC latency from the zero-load floor plus an
    /// M/D/1 contention term, service queueing from rates. No analog
    /// noise, no per-flit bookkeeping.
    Analytic,
}

impl SimMode {
    /// Canonical lower-case name (`"detailed"` / `"analytic"`).
    pub const fn as_str(self) -> &'static str {
        match self {
            SimMode::Detailed => "detailed",
            SimMode::Analytic => "analytic",
        }
    }
}

impl fmt::Display for SimMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for SimMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "detailed" | "des" => Ok(SimMode::Detailed),
            "analytic" | "analytical" | "fast" => Ok(SimMode::Analytic),
            other => Err(format!(
                "unknown sim mode {other:?} (expected \"detailed\" or \"analytic\")"
            )),
        }
    }
}

/// Utilisation cap for the contention formulas: past this the M/D/1 wait
/// diverges, so predictions are clamped to stay finite (the detailed
/// tier is the trustworthy one near saturation — see EXPERIMENTS.md).
pub const MAX_RHO: f64 = 0.98;

/// M/D/1 mean queueing wait: `ρ·S / (2·(1−ρ))` for utilisation `rho`
/// and deterministic service time `service`.
///
/// `rho` is clamped to `[0, MAX_RHO]`; returns [`SimDuration::ZERO`]
/// for non-positive or non-finite utilisation.
///
/// # Examples
///
/// ```
/// use cim_sim::analytic::mdl_wait;
/// use cim_sim::time::SimDuration;
///
/// let s = SimDuration::from_ns(100);
/// assert_eq!(mdl_wait(0.0, s), SimDuration::ZERO);
/// // ρ = 0.5 → wait = 0.5·S / (2·0.5) = S/2.
/// assert_eq!(mdl_wait(0.5, s), SimDuration::from_ns(50));
/// assert!(mdl_wait(0.9, s) > mdl_wait(0.5, s));
/// ```
pub fn mdl_wait(rho: f64, service: SimDuration) -> SimDuration {
    if !rho.is_finite() || rho <= 0.0 {
        return SimDuration::ZERO;
    }
    let rho = rho.min(MAX_RHO);
    let wait_ps = service.as_ps() as f64 * rho / (2.0 * (1.0 - rho));
    SimDuration::from_ps(round_to_u64(wait_ps))
}

/// An M/D/1 contention term with one fitted scale coefficient.
///
/// The pure M/D/1 formula assumes Poisson arrivals and a single queue;
/// real NoC traffic is burstier (stream batches) and multi-queue
/// (virtual channels share a link), so the closed form is scaled by
/// `alpha`, fit from detailed-mode telemetry: for each observed
/// `(utilisation, measured wait)` pair the least-squares-through-origin
/// estimate of `measured / mdl_wait` is taken.
///
/// # Examples
///
/// ```
/// use cim_sim::analytic::{mdl_wait, ContentionModel};
/// use cim_sim::time::SimDuration;
///
/// let s = SimDuration::from_ns(100);
/// // Synthetic telemetry where the DES waits exactly 2× M/D/1.
/// let samples: Vec<(f64, SimDuration)> = [0.2, 0.5, 0.8]
///     .iter()
///     .map(|&rho| (rho, mdl_wait(rho, s) * 2))
///     .collect();
/// let m = ContentionModel::fit(&samples, s);
/// assert!((m.alpha() - 2.0).abs() < 0.05);
/// assert_eq!(m.wait(0.5, s), SimDuration::from_ns(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionModel {
    alpha: f64,
}

impl Default for ContentionModel {
    /// The un-fit model: pure M/D/1 (`alpha = 1`).
    fn default() -> Self {
        ContentionModel { alpha: 1.0 }
    }
}

impl ContentionModel {
    /// Creates a model with an explicit coefficient (clamped to
    /// non-negative finite).
    pub fn with_alpha(alpha: f64) -> Self {
        let alpha = if alpha.is_finite() {
            alpha.max(0.0)
        } else {
            1.0
        };
        ContentionModel { alpha }
    }

    /// The fitted scale coefficient.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Fits `alpha` by least squares through the origin against
    /// `(utilisation, measured wait)` pairs observed from the detailed
    /// tier, for links with deterministic service time `service`.
    ///
    /// Pairs with zero predicted wait are ignored (they carry no signal
    /// about the contention slope). With no usable samples the pure
    /// M/D/1 model is returned.
    pub fn fit(samples: &[(f64, SimDuration)], service: SimDuration) -> Self {
        // Minimise Σ (measuredᵢ − α·predᵢ)² ⇒ α = Σ predᵢ·measuredᵢ / Σ predᵢ².
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for &(rho, measured) in samples {
            let pred = mdl_wait(rho, service).as_ps() as f64;
            if pred <= 0.0 {
                continue;
            }
            num += pred * measured.as_ps() as f64;
            den += pred * pred;
        }
        if den > 0.0 {
            ContentionModel::with_alpha(num / den)
        } else {
            ContentionModel::default()
        }
    }

    /// Predicted mean queueing wait at utilisation `rho` for a link
    /// with deterministic service time `service`.
    pub fn wait(&self, rho: f64, service: SimDuration) -> SimDuration {
        let base = mdl_wait(rho, service).as_ps() as f64;
        SimDuration::from_ps(round_to_u64(base * self.alpha))
    }
}

/// Open-loop service queueing from arrival and served rates.
///
/// Captures the service-level closed form the analytic tier uses in
/// place of stepping admission/dispatch: offered load against measured
/// (or modeled) service capacity gives utilisation, stability, and an
/// M/D/1-style sojourn prediction.
///
/// # Examples
///
/// ```
/// use cim_sim::analytic::QueueModel;
/// use cim_sim::time::SimDuration;
///
/// let q = QueueModel::new(500.0, SimDuration::from_us(1));
/// // 500 req/s against a 1 µs service time: essentially idle.
/// assert!(q.is_stable());
/// assert!(q.utilization() < 0.001);
/// assert!(q.predicted_latency() >= SimDuration::from_us(1));
///
/// let hot = QueueModel::new(2_000_000.0, SimDuration::from_us(1));
/// assert!(!hot.is_stable());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueModel {
    arrival_per_sec: f64,
    service: SimDuration,
}

impl QueueModel {
    /// Builds a queue model from an arrival rate (per second of
    /// simulated time) and a deterministic per-item service time.
    /// Non-finite or negative arrival rates clamp to zero.
    pub fn new(arrival_per_sec: f64, service: SimDuration) -> Self {
        let arrival_per_sec = if arrival_per_sec.is_finite() {
            arrival_per_sec.max(0.0)
        } else {
            0.0
        };
        QueueModel {
            arrival_per_sec,
            service,
        }
    }

    /// The per-item service time the model was built from.
    pub fn service(&self) -> SimDuration {
        self.service
    }

    /// Offered utilisation `ρ = λ·S` (uncapped — may exceed 1 for an
    /// unstable queue).
    pub fn utilization(&self) -> f64 {
        self.arrival_per_sec * self.service.as_secs_f64()
    }

    /// Whether the queue is stable (`ρ < 1`).
    pub fn is_stable(&self) -> bool {
        self.utilization() < 1.0
    }

    /// Service rate `μ` in items per second of simulated time; zero for
    /// a zero service time is reported as `f64::INFINITY`.
    pub fn service_rate(&self) -> f64 {
        let s = self.service.as_secs_f64();
        if s > 0.0 {
            1.0 / s
        } else {
            f64::INFINITY
        }
    }

    /// Predicted mean queueing wait (M/D/1, utilisation clamped to
    /// [`MAX_RHO`] so saturated queues report a large finite wait).
    pub fn predicted_wait(&self) -> SimDuration {
        mdl_wait(self.utilization(), self.service)
    }

    /// Predicted mean sojourn latency: queueing wait plus service.
    pub fn predicted_latency(&self) -> SimDuration {
        self.predicted_wait() + self.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_mode_parses_and_prints() {
        for (s, want) in [
            ("detailed", SimMode::Detailed),
            ("DES", SimMode::Detailed),
            ("analytic", SimMode::Analytic),
            (" Analytical ", SimMode::Analytic),
            ("fast", SimMode::Analytic),
        ] {
            assert_eq!(s.parse::<SimMode>(), Ok(want), "{s:?}");
        }
        assert!("quantum".parse::<SimMode>().is_err());
        assert_eq!(SimMode::Detailed.as_str(), "detailed");
        assert_eq!(format!("{}", SimMode::Analytic), "analytic");
        assert_eq!(SimMode::default(), SimMode::Detailed);
    }

    #[test]
    fn mdl_wait_shape() {
        let s = SimDuration::from_ns(64);
        assert_eq!(mdl_wait(-1.0, s), SimDuration::ZERO);
        assert_eq!(mdl_wait(f64::NAN, s), SimDuration::ZERO);
        assert_eq!(mdl_wait(0.0, s), SimDuration::ZERO);
        // Monotone in ρ.
        let mut prev = SimDuration::ZERO;
        for rho in [0.1, 0.3, 0.5, 0.7, 0.9, 0.97] {
            let w = mdl_wait(rho, s);
            assert!(w >= prev, "wait must grow with utilisation");
            prev = w;
        }
        // Clamped past MAX_RHO: finite and equal at 2.0 and 100.0.
        assert_eq!(mdl_wait(2.0, s), mdl_wait(100.0, s));
        assert!(mdl_wait(2.0, s) > mdl_wait(0.9, s));
    }

    #[test]
    fn contention_fit_recovers_scale() {
        let s = SimDuration::from_ns(256);
        let truth = 1.7f64;
        let samples: Vec<(f64, SimDuration)> = [0.1, 0.25, 0.4, 0.6, 0.85]
            .iter()
            .map(|&rho| {
                let w = mdl_wait(rho, s).as_ps() as f64 * truth;
                (rho, SimDuration::from_ps(w.round() as u64))
            })
            .collect();
        let m = ContentionModel::fit(&samples, s);
        assert!(
            (m.alpha() - truth).abs() < 0.02,
            "fit alpha {} vs truth {truth}",
            m.alpha()
        );
    }

    #[test]
    fn contention_fit_degenerate_falls_back() {
        let s = SimDuration::from_ns(100);
        let m = ContentionModel::fit(&[], s);
        assert_eq!(m.alpha(), 1.0);
        // All-zero-utilisation samples carry no slope information.
        let m = ContentionModel::fit(&[(0.0, SimDuration::from_ns(5))], s);
        assert_eq!(m.alpha(), 1.0);
        let m = ContentionModel::with_alpha(f64::NAN);
        assert_eq!(m.alpha(), 1.0);
        let m = ContentionModel::with_alpha(-3.0);
        assert_eq!(m.alpha(), 0.0);
    }

    #[test]
    fn queue_model_rates_and_stability() {
        let q = QueueModel::new(1000.0, SimDuration::from_us(100));
        assert!((q.utilization() - 0.1).abs() < 1e-12);
        assert!(q.is_stable());
        assert!((q.service_rate() - 10_000.0).abs() < 1e-6);
        assert!(q.predicted_latency() > q.service);

        let saturated = QueueModel::new(20_000.0, SimDuration::from_us(100));
        assert!(saturated.utilization() > 1.0);
        assert!(!saturated.is_stable());
        // Saturated wait is clamped-finite and larger than any stable wait.
        assert!(saturated.predicted_wait() > q.predicted_wait());

        let degenerate = QueueModel::new(f64::NAN, SimDuration::ZERO);
        assert_eq!(degenerate.utilization(), 0.0);
        assert!(degenerate.service_rate().is_infinite());
    }
}
