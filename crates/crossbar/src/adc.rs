//! Analog-to-digital converter model.
//!
//! The ADC is the precision and throughput bottleneck of an analog
//! dot-product engine: a column sum over 128 rows of 2-bit cells can take
//! 128 × 3 = 384 distinct values, but an 8-bit ADC resolves only 256 codes.
//! The engine therefore trades accuracy against ADC cost — the ABL-ADC
//! ablation sweeps this knob. ADC energy grows roughly 4× per extra bit
//! (Murmann's ADC survey), which the energy model reflects.

use crate::quant::round_half_away;
use cim_sim::calib::dpe;
use cim_sim::energy::Energy;
use cim_sim::time::SimDuration;

/// A successive-approximation ADC digitizing column currents.
///
/// # Examples
///
/// ```
/// use cim_crossbar::adc::Adc;
///
/// let adc = Adc::new(8, 384.0).unwrap();
/// assert_eq!(adc.convert(0.0), 0);
/// assert_eq!(adc.convert(384.0), 255);
/// // Mid-scale value maps near mid-code.
/// let mid = adc.convert(192.0);
/// assert!((127..=128).contains(&mid));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    bits: u32,
    full_scale: f64,
    /// `full_scale / (codes − 1)`, computed once: every conversion and
    /// reconstruction divides or multiplies by it.
    lsb: f64,
}

impl Adc {
    /// Creates an ADC with the given resolution over `[0, full_scale]`.
    ///
    /// Returns `None` if `bits` is not in `1..=16` or `full_scale` is not
    /// strictly positive and finite.
    pub fn new(bits: u32, full_scale: f64) -> Option<Self> {
        if !(1..=16).contains(&bits) || !full_scale.is_finite() || full_scale <= 0.0 {
            return None;
        }
        let lsb = full_scale / ((1u32 << bits) - 1) as f64;
        Some(Adc {
            bits,
            full_scale,
            lsb,
        })
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of output codes.
    pub fn codes(&self) -> u32 {
        1u32 << self.bits
    }

    /// Full-scale input value.
    pub fn full_scale(&self) -> f64 {
        self.full_scale
    }

    /// The analog value of one code step.
    pub fn lsb(&self) -> f64 {
        self.lsb
    }

    /// Digitizes an analog value, clamping to the input range.
    pub fn convert(&self, analog: f64) -> u32 {
        let clamped = analog.clamp(0.0, self.full_scale);
        // The quotient lies in [0, codes − 1] up to one rounding, so the
        // rounded code fits a u32.
        round_half_away(clamped / self.lsb) as u32
    }

    /// Maps a code back to its analog reconstruction value.
    pub fn reconstruct(&self, code: u32) -> f64 {
        f64::from(code.min(self.codes() - 1)) * self.lsb
    }

    /// Time for one conversion at the calibrated sample rate. The rate is
    /// taken for an 8-bit SAR design; each extra bit costs one extra
    /// compare cycle (rate scales as 8/bits relative to the baseline).
    pub fn conversion_time(&self) -> SimDuration {
        let base_ps = 1e12 / dpe::ADC_SAMPLE_HZ;
        SimDuration::from_ps((base_ps * self.bits as f64 / 8.0).round() as u64)
    }

    /// Energy of one conversion; scales ~4× per bit past the calibrated
    /// 8-bit design point (and down likewise).
    pub fn conversion_energy(&self) -> Energy {
        let scale = 4.0f64.powi(self.bits as i32 - 8);
        Energy::from_fj((dpe::ADC_CONVERT_FJ as f64 * scale).round().max(1.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_params() {
        assert!(Adc::new(0, 1.0).is_none());
        assert!(Adc::new(17, 1.0).is_none());
        assert!(Adc::new(8, 0.0).is_none());
        assert!(Adc::new(8, f64::INFINITY).is_none());
    }

    #[test]
    fn convert_clamps_out_of_range() {
        let adc = Adc::new(4, 15.0).unwrap();
        assert_eq!(adc.convert(-5.0), 0);
        assert_eq!(adc.convert(100.0), 15);
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let adc = Adc::new(8, 384.0).unwrap();
        for i in 0..=384 {
            let x = i as f64;
            let err = (adc.reconstruct(adc.convert(x)) - x).abs();
            assert!(err <= adc.lsb() / 2.0 + 1e-9, "x={x} err={err}");
        }
    }

    #[test]
    fn lossless_when_codes_cover_integer_range() {
        // 9-bit ADC over 0..=384 has 512 codes for 385 integers — but codes
        // are evenly spaced over the range, so exact representability needs
        // full_scale == codes-1 scale alignment. Use full_scale = 511.
        let adc = Adc::new(9, 511.0).unwrap();
        for i in 0..=511u32 {
            assert_eq!(adc.convert(f64::from(i)), i);
            assert_eq!(adc.reconstruct(i), f64::from(i));
        }
    }

    #[test]
    fn energy_scales_4x_per_bit() {
        let e8 = Adc::new(8, 1.0).unwrap().conversion_energy().as_fj();
        let e9 = Adc::new(9, 1.0).unwrap().conversion_energy().as_fj();
        let e7 = Adc::new(7, 1.0).unwrap().conversion_energy().as_fj();
        assert_eq!(e9, e8 * 4);
        assert_eq!(e7, e8 / 4);
    }

    #[test]
    fn conversion_time_grows_with_bits() {
        let t8 = Adc::new(8, 1.0).unwrap().conversion_time();
        let t12 = Adc::new(12, 1.0).unwrap().conversion_time();
        assert!(t12 > t8);
        // 8-bit baseline matches the calibrated 1.28 GSa/s.
        assert_eq!(t8.as_ps(), 781);
    }

    #[test]
    fn reconstruct_clamps_code() {
        let adc = Adc::new(4, 15.0).unwrap();
        assert_eq!(adc.reconstruct(10_000), 15.0);
    }
}
