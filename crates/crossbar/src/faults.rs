//! Fault-injection campaigns for crossbar arrays.
//!
//! The paper's §V.A argues CIM fault tolerance must be revisited because
//! "application code is built into the silicon": a stuck cell corrupts a
//! *weight*, not a transient value. This module injects device faults at a
//! configurable rate and measures the accuracy impact, feeding both the
//! reliability experiments and the redundancy ablation.

use crate::device::CellFault;
use crate::dpe::DotProductEngine;
use cim_sim::rng::Rng;
use cim_sim::SeedTree;

/// Parameters of a random stuck-at fault campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultCampaign {
    /// Probability that any given cell is faulty.
    pub cell_fault_rate: f64,
    /// Of faulty cells, the fraction stuck at maximum conductance
    /// (the rest are stuck at minimum).
    pub stuck_on_fraction: f64,
}

impl FaultCampaign {
    /// Creates a campaign.
    ///
    /// # Panics
    ///
    /// Panics if either argument is outside `[0, 1]`.
    pub fn new(cell_fault_rate: f64, stuck_on_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&cell_fault_rate),
            "fault rate must be in [0,1], got {cell_fault_rate}"
        );
        assert!(
            (0.0..=1.0).contains(&stuck_on_fraction),
            "stuck-on fraction must be in [0,1], got {stuck_on_fraction}"
        );
        FaultCampaign {
            cell_fault_rate,
            stuck_on_fraction,
        }
    }

    /// Injects faults into every array of a programmed engine; returns the
    /// number of cells faulted. Each array's cells are drawn in row-major
    /// order and its faults merged into it as one batch.
    pub fn inject(&self, dpe: &mut DotProductEngine, seeds: SeedTree) -> usize {
        let mut rng = seeds.rng("fault-campaign");
        let mut injected = 0;
        let rate = self.cell_fault_rate;
        let on_frac = self.stuck_on_fraction;
        let mut batch = Vec::new();
        dpe.for_each_array(|_, _, _, _, xbar| {
            batch.clear();
            for idx in 0..(xbar.rows() * xbar.cols()) as u32 {
                if rng.gen::<f64>() < rate {
                    let fault = if rng.gen::<f64>() < on_frac {
                        CellFault::StuckOn
                    } else {
                        CellFault::StuckOff
                    };
                    batch.push((idx, fault));
                }
            }
            injected += batch.len();
            xbar.merge_faults(&batch);
        });
        injected
    }
}

/// Root-mean-square error between a faulty engine's output and a
/// reference, normalized by the reference RMS. Used as the accuracy
/// metric in fault and aging experiments.
///
/// # Panics
///
/// Panics if the slices differ in length or the reference is all zeros.
pub fn normalized_rmse(got: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(got.len(), reference.len(), "length mismatch");
    let ref_ms: f64 = reference.iter().map(|x| x * x).sum::<f64>() / reference.len().max(1) as f64;
    assert!(ref_ms > 0.0, "reference must be non-zero");
    let err_ms: f64 = got
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        / got.len() as f64;
    (err_ms / ref_ms).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpe::DpeConfig;
    use crate::matrix::DenseMatrix;

    fn programmed_engine() -> (DotProductEngine, DenseMatrix, Vec<f64>) {
        let w = DenseMatrix::from_fn(64, 32, |r, c| (((r + c) % 13) as f64 / 13.0) - 0.4);
        let mut dpe = DotProductEngine::new(DpeConfig::ideal(), SeedTree::new(11));
        dpe.program(&w).unwrap();
        let x: Vec<f64> = (0..64).map(|i| ((i % 7) as f64 / 7.0) + 0.1).collect();
        (dpe, w, x)
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let (mut dpe, w, x) = programmed_engine();
        let n = FaultCampaign::new(0.0, 0.5).inject(&mut dpe, SeedTree::new(1));
        assert_eq!(n, 0);
        let out = dpe.matvec(&x).unwrap();
        let exact = w.matvec(&x).unwrap();
        assert!(normalized_rmse(&out.values, &exact) < 0.02);
    }

    #[test]
    fn fault_rate_controls_injection_count() {
        let (mut dpe, _, _) = programmed_engine();
        let total_cells = dpe.footprint().unwrap().cells as f64;
        let n = FaultCampaign::new(0.01, 0.5).inject(&mut dpe, SeedTree::new(2));
        let expected = total_cells * 0.01;
        assert!(
            (n as f64) > expected * 0.6 && (n as f64) < expected * 1.4,
            "injected {n}, expected about {expected}"
        );
    }

    #[test]
    fn faults_degrade_accuracy_monotonically_in_expectation() {
        let mut errs = Vec::new();
        for rate in [0.0, 0.02, 0.2] {
            let (mut dpe, w, x) = programmed_engine();
            FaultCampaign::new(rate, 0.5).inject(&mut dpe, SeedTree::new(3));
            let out = dpe.matvec(&x).unwrap();
            let exact = w.matvec(&x).unwrap();
            errs.push(normalized_rmse(&out.values, &exact));
        }
        assert!(errs[0] < errs[1], "errors {errs:?}");
        assert!(errs[1] < errs[2], "errors {errs:?}");
    }

    #[test]
    fn stuck_on_fraction_biases_outputs() {
        // All faults stuck-on should bias positive-sign arrays upward.
        let (mut dpe, w, x) = programmed_engine();
        FaultCampaign::new(0.05, 1.0).inject(&mut dpe, SeedTree::new(4));
        let out = dpe.matvec(&x).unwrap();
        let exact = w.matvec(&x).unwrap();
        assert!(normalized_rmse(&out.values, &exact) > 0.0);
    }

    #[test]
    fn batched_injection_equals_per_cell_injection() {
        // A noisy engine, so reads see every fault through the live table.
        let w = DenseMatrix::from_fn(64, 32, |r, c| (((r + c) % 13) as f64 / 13.0) - 0.4);
        let mut batched = DotProductEngine::new(DpeConfig::default(), SeedTree::new(11));
        batched.program(&w).unwrap();
        let mut per_cell = batched.clone();
        // Same seed, higher rate: the second campaign also lands on cells
        // the first already faulted.
        for rate in [0.01, 0.05] {
            let seed = 5;
            let campaign = FaultCampaign::new(rate, 0.5);
            let n = campaign.inject(&mut batched, SeedTree::new(seed));
            let mut rng = SeedTree::new(seed).rng("fault-campaign");
            let mut m = 0;
            per_cell.for_each_array(|_, _, _, _, xbar| {
                for r in 0..xbar.rows() {
                    for c in 0..xbar.cols() {
                        if rng.gen::<f64>() < rate {
                            let fault = if rng.gen::<f64>() < 0.5 {
                                CellFault::StuckOn
                            } else {
                                CellFault::StuckOff
                            };
                            xbar.inject_fault(r, c, fault).unwrap();
                            m += 1;
                        }
                    }
                }
            });
            assert_eq!(n, m);
        }
        let mut counts = [Vec::new(), Vec::new()];
        for (dpe, counts) in [&mut batched, &mut per_cell].into_iter().zip(&mut counts) {
            dpe.for_each_array(|_, _, _, _, xbar| counts.push(xbar.fault_count()));
        }
        assert_eq!(counts[0], counts[1]);
        let x: Vec<f64> = (0..64).map(|i| ((i % 7) as f64 / 7.0) - 0.3).collect();
        assert_eq!(batched.matvec(&x).unwrap(), per_cell.matvec(&x).unwrap());
    }

    #[test]
    #[should_panic(expected = "fault rate")]
    fn invalid_rate_panics() {
        let _ = FaultCampaign::new(1.5, 0.0);
    }

    #[test]
    fn rmse_basics() {
        assert_eq!(normalized_rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let e = normalized_rmse(&[2.0], &[1.0]);
        assert!((e - 1.0).abs() < 1e-12);
    }
}
