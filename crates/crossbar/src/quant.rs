//! Fixed-point quantization for weights and activations.
//!
//! The dot-product engine computes on integers: weights are quantized to
//! `weight_bits` signed fixed point and split into cell-sized slices;
//! inputs are quantized to `input_bits` signed fixed point and streamed
//! bit-serially. These helpers define that mapping and its inverse.

use cim_sim::num::round_half_away;

/// A symmetric linear quantizer mapping `[-max_abs, max_abs]` onto signed
/// integers `[-(2^(bits-1)-1), 2^(bits-1)-1]`.
///
/// Symmetric (no zero-point) quantization keeps the crossbar math linear:
/// `dequant(q(a) · q(b)) ≈ a · b` up to scale factors.
///
/// # Examples
///
/// ```
/// use cim_crossbar::quant::Quantizer;
///
/// let q = Quantizer::new(8, 1.0).unwrap();
/// assert_eq!(q.quantize(1.0), 127);
/// assert_eq!(q.quantize(-1.0), -127);
/// assert_eq!(q.quantize(0.0), 0);
/// let x = 0.337;
/// assert!((q.dequantize(q.quantize(x)) - x).abs() <= q.step() / 2.0 + 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    bits: u32,
    max_abs: f64,
    qmax: i64,
    /// `max_abs / qmax`, computed once: every quantization divides by it.
    step: f64,
}

impl Quantizer {
    /// Creates a quantizer for the given bit width and dynamic range.
    ///
    /// Returns `None` if `bits` is not in `2..=31` or `max_abs` is not a
    /// strictly positive finite number.
    pub fn new(bits: u32, max_abs: f64) -> Option<Self> {
        if !(2..=31).contains(&bits) || !max_abs.is_finite() || max_abs <= 0.0 {
            return None;
        }
        let qmax = (1i64 << (bits - 1)) - 1;
        Some(Quantizer {
            bits,
            max_abs,
            qmax,
            step: max_abs / qmax as f64,
        })
    }

    /// Creates a quantizer whose range covers the data slice.
    ///
    /// Falls back to a range of 1.0 for all-zero (or empty) data so the
    /// quantizer stays usable.
    ///
    /// Returns `None` under the same conditions as [`Quantizer::new`].
    pub fn fit(bits: u32, data: &[f64]) -> Option<Self> {
        let max_abs = data
            .iter()
            .fold(0.0f64, |m, &x| m.max(x.abs()))
            .max(f64::MIN_POSITIVE);
        let max_abs = if max_abs <= f64::MIN_POSITIVE {
            1.0
        } else {
            max_abs
        };
        Quantizer::new(bits, max_abs)
    }

    /// Bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest representable integer magnitude.
    pub fn qmax(&self) -> i64 {
        self.qmax
    }

    /// The real value of one integer step.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// The dynamic range bound this quantizer was built for.
    pub fn max_abs(&self) -> f64 {
        self.max_abs
    }

    /// Quantizes a real value: rounds half away from zero, saturating at
    /// the range bounds. NaN quantizes to 0.
    #[inline]
    pub fn quantize(&self, x: f64) -> i64 {
        // Clamping before rounding saturates alike, as ±qmax are
        // integers, and keeps NaN, which rounds to 0.
        let qmax = self.qmax as f64;
        round_half_away((x / self.step).clamp(-qmax, qmax))
    }

    /// Maps an integer back to its real value.
    pub fn dequantize(&self, q: i64) -> f64 {
        q as f64 * self.step()
    }
}

/// Splits a non-negative integer into little-endian slices of
/// `slice_bits` each, `n_slices` long.
///
/// # Panics
///
/// Panics if the value does not fit in `n_slices * slice_bits` bits.
///
/// # Examples
///
/// ```
/// use cim_crossbar::quant::split_slices;
///
/// // 0b110110 in 2-bit slices, little-endian: [0b10, 0b01, 0b11]
/// assert_eq!(split_slices(0b11_01_10, 2, 3), vec![0b10, 0b01, 0b11]);
/// ```
pub fn split_slices(value: u64, slice_bits: u32, n_slices: usize) -> Vec<u16> {
    let capacity_bits = slice_bits as usize * n_slices;
    assert!(
        capacity_bits >= 64 || value < (1u64 << capacity_bits),
        "value {value} does not fit in {n_slices} slices of {slice_bits} bits"
    );
    let mask = (1u64 << slice_bits) - 1;
    (0..n_slices)
        .map(|s| ((value >> (s as u32 * slice_bits)) & mask) as u16)
        .collect()
}

/// Reassembles little-endian slices produced by [`split_slices`].
pub fn join_slices(slices: &[u16], slice_bits: u32) -> u64 {
    slices.iter().enumerate().fold(0u64, |acc, (s, &v)| {
        acc | (u64::from(v) << (s as u32 * slice_bits))
    })
}

/// Extracts bit `b` (little-endian) of the two's-complement representation
/// of `q` over `bits` total bits.
///
/// Used by the bit-serial input streamer: phase `b` drives rows whose input
/// has bit `b` set; the MSB phase carries weight `-2^(bits-1)`.
pub fn twos_complement_bit(q: i64, bits: u32, b: u32) -> bool {
    debug_assert!(b < bits);
    let masked = (q as u64) & ((1u64 << bits) - 1);
    (masked >> b) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_bad_params() {
        assert!(Quantizer::new(1, 1.0).is_none());
        assert!(Quantizer::new(32, 1.0).is_none());
        assert!(Quantizer::new(8, 0.0).is_none());
        assert!(Quantizer::new(8, f64::NAN).is_none());
        assert!(Quantizer::new(8, 1.0).is_some());
    }

    #[test]
    fn quantize_saturates() {
        let q = Quantizer::new(4, 1.0).unwrap();
        assert_eq!(q.qmax(), 7);
        assert_eq!(q.quantize(10.0), 7);
        assert_eq!(q.quantize(-10.0), -7);
    }

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let q = Quantizer::new(8, 2.0).unwrap();
        for i in -100..=100 {
            let x = i as f64 * 0.02;
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(err <= q.step() / 2.0 + 1e-12, "x={x} err={err}");
        }
    }

    #[test]
    fn fit_covers_data() {
        let data = [0.1, -3.5, 2.0];
        let q = Quantizer::fit(8, &data).unwrap();
        assert_eq!(q.max_abs(), 3.5);
        assert_eq!(q.quantize(-3.5), -q.qmax());
        let q0 = Quantizer::fit(8, &[0.0, 0.0]).unwrap();
        assert_eq!(q0.max_abs(), 1.0, "all-zero data falls back to 1.0");
        assert!(Quantizer::fit(8, &[]).is_some());
    }

    #[test]
    fn slices_roundtrip() {
        for v in [0u64, 1, 7, 0b10_11_01_10, 65_535] {
            let s = split_slices(v, 2, 8);
            assert_eq!(join_slices(&s, 2), v);
        }
        let s = split_slices(0xABCD, 4, 4);
        assert_eq!(s, vec![0xD, 0xC, 0xB, 0xA]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn split_overflow_panics() {
        let _ = split_slices(16, 2, 2);
    }

    #[test]
    fn twos_complement_bits_of_negative() {
        // -3 over 4 bits = 0b1101
        assert!(twos_complement_bit(-3, 4, 0));
        assert!(!twos_complement_bit(-3, 4, 1));
        assert!(twos_complement_bit(-3, 4, 2));
        assert!(twos_complement_bit(-3, 4, 3));
        // Reconstruct: 1 + 4 + 8(with weight -8) => 1+4-8 = -3
        let v: i64 = [0u32, 2].iter().map(|&b| 1i64 << b).sum::<i64>() - (1 << 3);
        assert_eq!(v, -3);
    }

    #[test]
    fn quantize_matches_the_rounding_reference() {
        use cim_sim::prop::{check, PropConfig};
        use cim_sim::rng::Rng;
        // The definition `quantize` keeps: round half away from zero,
        // then saturate. NaN gives 0.
        fn reference(q: &Quantizer, x: f64) -> i64 {
            ((x / q.step()).round() as i64).clamp(-q.qmax(), q.qmax())
        }
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            -f64::MAX,
            f64::NAN,
        ];
        check(
            "quantize equals the rounding reference",
            &PropConfig::cases(64),
            |rng| {
                let bits = [2u32, 8, 16, 31][rng.gen_range(0usize..4)];
                // Any positive finite range, subnormal ones included.
                let max_abs = f64::from_bits(rng.gen_range(1u64..f64::INFINITY.to_bits()));
                let scale = if rng.gen_bool(0.5) { 1.0 } else { max_abs };
                let mut xs: Vec<f64> = (0..128).map(|_| f64::from_bits(rng.gen::<u64>())).collect();
                xs.extend((0..128).map(|_| (rng.gen::<f64>() * 2.2 - 1.1) * scale));
                // Tie indices for the 31-bit sample.
                let qmax = 1i64 << 30;
                let ties: Vec<i64> = (0..512).map(|_| rng.gen_range(-qmax..qmax)).collect();
                (bits, max_abs, xs, ties)
            },
            |(bits, max_abs, xs, ties)| {
                let Some(q) = Quantizer::new(*bits, *max_abs) else {
                    // A shrink step left the valid range.
                    return Ok(());
                };
                let agree = |x: f64| {
                    let (got, want) = (q.quantize(x), reference(&q, x));
                    if got == want {
                        Ok(())
                    } else {
                        Err(format!("{q:?}: quantize({x:e}) = {got}, reference {want}"))
                    }
                };
                for &x in xs.iter().chain(&specials) {
                    agree(x)?;
                }
                if q.quantize(f64::NAN) != 0 {
                    return Err(format!("{q:?}: NaN does not quantize to 0"));
                }
                // Every tie (k + 0.5)·step, and one ULP either side, up to
                // 16 bits; a sample of them at 31.
                let every = -q.qmax() - 1..q.qmax() + 1;
                let ks: Vec<i64> = if *bits <= 16 {
                    every.collect()
                } else {
                    ties.clone()
                };
                for k in ks {
                    let tie = (k as f64 + 0.5) * q.step();
                    for x in [tie.next_down(), tie, tie.next_up()] {
                        agree(x)?;
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn quantizer_is_monotone() {
        let q = Quantizer::new(6, 1.0).unwrap();
        let mut prev = i64::MIN;
        for i in -50..=50 {
            let cur = q.quantize(i as f64 / 50.0);
            assert!(cur >= prev);
            prev = cur;
        }
    }
}
