//! Single-memristor device model.
//!
//! A memristor cell stores one of `2^bits` discrete conductance levels.
//! The model captures the behaviours the paper leans on:
//!
//! * **read/write asymmetry** — reads are fast and cheap, SET/RESET
//!   programming pulses are ~10⁴× slower (§VI calls this the main scaling
//!   challenge);
//! * **programming variation** — the achieved conductance deviates from the
//!   target by a relative Gaussian error;
//! * **endurance wear** — each programming cycle consumes device lifetime;
//! * **stuck-at faults** — worn-out or defective cells pin at their lowest
//!   or highest conductance (fed by [`crate::faults`]).

use cim_sim::calib::dpe;
use cim_sim::rng::normal;
use cim_sim::rng::Rng;

/// Fault condition of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellFault {
    /// Operating normally.
    #[default]
    None,
    /// Stuck at minimum conductance (open device): reads as level 0.
    StuckOff,
    /// Stuck at maximum conductance (shorted device): reads as max level.
    StuckOn,
}

/// Static device parameters shared by all cells of an array.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceParams {
    /// Bits per cell; the cell stores `2^bits` levels.
    pub bits: u32,
    /// Relative std-dev of programmed conductance (write variation).
    pub program_sigma: f64,
    /// Relative std-dev of read current noise.
    pub read_sigma: f64,
    /// Programming cycles before the cell is considered worn out.
    pub endurance: u64,
}

impl Default for DeviceParams {
    fn default() -> Self {
        DeviceParams {
            bits: dpe::CELL_BITS,
            program_sigma: dpe::CONDUCTANCE_SIGMA,
            read_sigma: dpe::READ_NOISE_SIGMA,
            endurance: 1_000_000_000,
        }
    }
}

impl DeviceParams {
    /// An ideal device: no variation, no noise, infinite endurance.
    pub fn ideal(bits: u32) -> Self {
        DeviceParams {
            bits,
            program_sigma: 0.0,
            read_sigma: 0.0,
            endurance: u64::MAX,
        }
    }

    /// Number of distinct programmable levels.
    pub fn levels(&self) -> u16 {
        1u16 << self.bits
    }

    /// Highest programmable level value.
    pub fn max_level(&self) -> u16 {
        self.levels() - 1
    }
}

/// One memristor cell.
///
/// The stored state is an *analog* conductance in units of level-steps:
/// a perfectly programmed level-3 cell holds conductance 3.0; programming
/// variation leaves it at e.g. 2.94.
///
/// # Examples
///
/// ```
/// use cim_crossbar::device::{DeviceParams, MemristorCell};
/// use cim_sim::SeedTree;
///
/// let params = DeviceParams::ideal(2);
/// let mut rng = SeedTree::new(1).rng("cell");
/// let mut cell = MemristorCell::new();
/// cell.program(3, &params, &mut rng);
/// assert_eq!(cell.read(&params, &mut rng), 3.0);
/// assert_eq!(cell.write_count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemristorCell {
    conductance: f64,
    target_level: u16,
    writes: u64,
    fault: CellFault,
}

impl MemristorCell {
    /// Creates a fresh cell at minimum conductance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Programs the cell to `level`, applying write variation and wear.
    ///
    /// Programming a faulty cell has no effect (the pulse is absorbed but
    /// the conductance stays pinned); wear still accumulates because the
    /// pulse still stresses the device.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the parameter set's maximum level.
    pub fn program<R: Rng + ?Sized>(&mut self, level: u16, params: &DeviceParams, rng: &mut R) {
        assert!(
            level <= params.max_level(),
            "level {level} exceeds max {}",
            params.max_level()
        );
        self.writes += 1;
        if self.writes >= params.endurance && self.fault == CellFault::None {
            // Worn-out devices fail toward the low-conductance state.
            self.fault = CellFault::StuckOff;
        }
        if self.fault != CellFault::None {
            return;
        }
        self.target_level = level;
        self.conductance = programmed_conductance(level, params, rng);
    }

    /// Reads the effective conductance, applying read noise and faults.
    pub fn read<R: Rng + ?Sized>(&self, params: &DeviceParams, rng: &mut R) -> f64 {
        read_with_noise(
            effective_conductance(self.conductance, self.fault, params),
            params,
            rng,
        )
    }

    /// The level the cell was last asked to store.
    pub fn target_level(&self) -> u16 {
        self.target_level
    }

    /// Number of programming pulses the cell has absorbed.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Current fault state.
    pub fn fault(&self) -> CellFault {
        self.fault
    }

    /// Injects (or clears) a fault, e.g. from a fault-injection campaign.
    pub fn set_fault(&mut self, fault: CellFault) {
        self.fault = fault;
    }

    /// Applies conductance drift: after `relative_age` of retention time
    /// (1.0 = nominal retention life), conductance decays toward zero by
    /// `drift_fraction` of its value per unit age.
    ///
    /// # Panics
    ///
    /// Panics if arguments are negative.
    pub fn drift(&mut self, relative_age: f64, drift_fraction: f64) {
        self.conductance *= drift_factor(relative_age, drift_fraction);
    }
}

/// The conductance a fault-free cell holds after a program to `level`:
/// the level plus relative write variation, clamped to the device range.
/// Noise is drawn only when both `program_sigma` and `level` are positive,
/// so a program to level 0 leaves exactly +0.0 and `rng` untouched.
pub(crate) fn programmed_conductance<R: Rng + ?Sized>(
    level: u16,
    params: &DeviceParams,
    rng: &mut R,
) -> f64 {
    let noise = if params.program_sigma > 0.0 && level > 0 {
        normal(rng, 0.0, params.program_sigma * f64::from(level))
    } else {
        0.0
    };
    (f64::from(level) + noise).clamp(0.0, f64::from(params.max_level()))
}

/// The conductance a read sees before noise: the stored value, or the
/// rail a stuck fault pins the cell to.
#[inline]
pub(crate) fn effective_conductance(
    conductance: f64,
    fault: CellFault,
    params: &DeviceParams,
) -> f64 {
    match fault {
        CellFault::None => conductance,
        CellFault::StuckOff => 0.0,
        CellFault::StuckOn => f64::from(params.max_level()),
    }
}

/// The factor [`MemristorCell::drift`] scales a conductance by.
///
/// # Panics
///
/// Panics if arguments are negative.
pub(crate) fn drift_factor(relative_age: f64, drift_fraction: f64) -> f64 {
    assert!(relative_age >= 0.0 && drift_fraction >= 0.0);
    (1.0 - drift_fraction * relative_age).max(0.0)
}

/// One read of a cell whose effective conductance is `g`. Noise is drawn
/// only when both `read_sigma` and `g` are positive, so a cell that does
/// not conduct reads exactly `g` and leaves `rng` untouched.
#[inline]
pub(crate) fn read_with_noise<R: Rng + ?Sized>(g: f64, params: &DeviceParams, rng: &mut R) -> f64 {
    if params.read_sigma > 0.0 && g > 0.0 {
        (g + normal(rng, 0.0, params.read_sigma * g)).max(0.0)
    } else {
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_sim::SeedTree;

    fn rng() -> cim_sim::rng::Xoshiro256pp {
        SeedTree::new(99).rng("device-tests")
    }

    #[test]
    fn ideal_program_read_roundtrip() {
        let params = DeviceParams::ideal(2);
        let mut r = rng();
        let mut cell = MemristorCell::new();
        for level in 0..=3u16 {
            cell.program(level, &params, &mut r);
            assert_eq!(cell.read(&params, &mut r), f64::from(level));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn overrange_level_panics() {
        let params = DeviceParams::ideal(2);
        let mut r = rng();
        MemristorCell::new().program(4, &params, &mut r);
    }

    #[test]
    fn write_variation_is_bounded_and_nonzero() {
        let params = DeviceParams {
            program_sigma: 0.05,
            read_sigma: 0.0,
            ..DeviceParams::default()
        };
        let mut r = rng();
        let mut deviations = 0;
        for _ in 0..200 {
            let mut cell = MemristorCell::new();
            // Mid-range level so the clamp at max_level doesn't mask noise.
            cell.program(2, &params, &mut r);
            let v = cell.read(&params, &mut r);
            assert!((0.0..=3.0).contains(&v));
            if (v - 2.0).abs() > 1e-12 {
                deviations += 1;
            }
        }
        assert!(deviations > 150, "variation should almost always deviate");
    }

    #[test]
    fn read_noise_varies_per_read() {
        let params = DeviceParams {
            program_sigma: 0.0,
            read_sigma: 0.05,
            ..DeviceParams::default()
        };
        let mut r = rng();
        let mut cell = MemristorCell::new();
        cell.program(2, &params, &mut r);
        let a = cell.read(&params, &mut r);
        let b = cell.read(&params, &mut r);
        assert_ne!(a, b, "independent read noise expected");
        assert!(a > 0.0 && b > 0.0);
    }

    #[test]
    fn stuck_faults_pin_reads() {
        let params = DeviceParams::ideal(2);
        let mut r = rng();
        let mut cell = MemristorCell::new();
        cell.program(2, &params, &mut r);
        cell.set_fault(CellFault::StuckOff);
        assert_eq!(cell.read(&params, &mut r), 0.0);
        cell.set_fault(CellFault::StuckOn);
        assert_eq!(cell.read(&params, &mut r), 3.0);
        // Programming while faulty does not unpin.
        cell.program(1, &params, &mut r);
        assert_eq!(cell.read(&params, &mut r), 3.0);
    }

    #[test]
    fn endurance_wear_causes_stuck_off() {
        let params = DeviceParams {
            endurance: 5,
            ..DeviceParams::ideal(2)
        };
        let mut r = rng();
        let mut cell = MemristorCell::new();
        for _ in 0..4 {
            cell.program(3, &params, &mut r);
            assert_eq!(cell.fault(), CellFault::None);
        }
        cell.program(3, &params, &mut r);
        assert_eq!(cell.fault(), CellFault::StuckOff);
        assert_eq!(cell.read(&params, &mut r), 0.0);
    }

    #[test]
    fn drift_decays_toward_zero() {
        let params = DeviceParams::ideal(2);
        let mut r = rng();
        let mut cell = MemristorCell::new();
        cell.program(3, &params, &mut r);
        cell.drift(0.5, 0.2);
        let v = cell.read(&params, &mut r);
        assert!((v - 2.7).abs() < 1e-12, "10% decay expected, got {v}");
        cell.drift(100.0, 1.0);
        assert_eq!(cell.read(&params, &mut r), 0.0, "drift clamps at zero");
    }

    #[test]
    fn levels_depend_on_bits() {
        assert_eq!(DeviceParams::ideal(1).levels(), 2);
        assert_eq!(DeviceParams::ideal(2).levels(), 4);
        assert_eq!(DeviceParams::ideal(4).max_level(), 15);
    }
}
