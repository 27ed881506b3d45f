//! Float rounding for the integer units.
//!
//! Picoseconds, femtojoules and fixed-point codes are integers derived
//! from `f64` arithmetic by rounding half away from zero. On the baseline
//! x86-64 target `f64::round` compiles to an out-of-line call, which the
//! request path would pay on every converted duration and energy, so the
//! rounding is written out here once, in [`round_half_away`], and
//! [`round_to_u64`] adds the unsigned units' range.

/// `y.round() as i64` for `|y| < 2^63` or NaN: rounds half away from
/// zero, with NaN giving 0.
///
/// The cast truncates toward zero and leaves an exact remainder, which
/// decides the rounding step without a branch. Its callers keep `y` in
/// range (the quantizer and the ADC clamp first, [`round_to_u64`] tests
/// the bounds), so the step carries no overflow check, which would add
/// about eight instructions to every conversion of the ADC's
/// per-column loop.
///
/// # Examples
///
/// ```
/// use cim_sim::num::round_half_away;
///
/// assert_eq!(round_half_away(2.5), 3);
/// assert_eq!(round_half_away(-2.5), -3);
/// assert_eq!(round_half_away(0.49999999999999994), 0);
/// assert_eq!(round_half_away(f64::NAN), 0);
/// ```
#[inline]
pub fn round_half_away(y: f64) -> i64 {
    let t = y as i64;
    let r = y - t as f64;
    t + i64::from(r >= 0.5) - i64::from(r <= -0.5)
}

/// `x.round().max(0.0) as u64` for every `f64`: how the time and energy
/// units turn a float count into integer picoseconds or femtojoules.
/// Negatives and NaN give 0; values past `u64::MAX` and +inf saturate.
///
/// Between −0.5 and 2^52 it rounds with [`round_half_away`]; from 2^52
/// on (and for NaN) the value is already an integer and the cast alone
/// is exact.
///
/// # Examples
///
/// ```
/// use cim_sim::num::round_to_u64;
///
/// assert_eq!(round_to_u64(2.5), 3);
/// assert_eq!(round_to_u64(-2.5), 0);
/// assert_eq!(round_to_u64(1e30), u64::MAX);
/// ```
#[inline]
pub fn round_to_u64(x: f64) -> u64 {
    // 2^52: the first binade whose values are all integers.
    if x <= -0.5 {
        0
    } else if x < 4_503_599_627_370_496.0 {
        round_half_away(x) as u64
    } else {
        x as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{check, PropConfig};
    use crate::rng::Rng;

    #[test]
    fn rounding_matches_the_libm_reference() {
        // The definitions the helpers keep: the rounded value cast to
        // i64 where |x| < 2^63 or x is NaN (round_half_away's domain),
        // and for every x clamped at zero and cast to u64, NaN and
        // negatives giving 0 and values past u64::MAX saturating.
        fn reference(x: f64) -> (Option<i64>, u64) {
            (
                in_domain(x).then(|| x.round() as i64),
                x.round().max(0.0) as u64,
            )
        }
        fn in_domain(x: f64) -> bool {
            x.is_nan() || x.abs() < 9_223_372_036_854_775_808.0
        }
        let two52 = 4_503_599_627_370_496.0f64;
        let two63 = 9_223_372_036_854_775_808.0f64;
        let two64 = 18_446_744_073_709_551_616.0f64;
        let specials = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            0.49999999999999994,
            -0.49999999999999994,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            two52 - 0.5,
            two52 - 1.5,
            two52,
            two52 + 1.0,
            -(two52 - 0.5),
            -two52,
            -two52 - 1.0,
            two63.next_down(),
            two63,
            two63.next_up(),
            -two63,
            -two63.next_up(),
            two64.next_down(),
            two64,
            two64 * 3.0,
            -two64,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        check(
            "round_half_away and round_to_u64 equal f64::round and a cast",
            &PropConfig::cases(64),
            |rng| {
                let mut xs: Vec<f64> = (0..256).map(|_| f64::from_bits(rng.gen::<u64>())).collect();
                // Every binade from 2^-4 to 2^70, both signs.
                xs.extend((0..256).map(|_| {
                    let x = (1.0 + rng.gen::<f64>()) * 2f64.powi(rng.gen_range(-4i32..71));
                    if rng.gen_bool(0.5) {
                        -x
                    } else {
                        x
                    }
                }));
                // Ties k + 0.5 of every size a tie can have (k < 2^52).
                let ties: Vec<f64> = (0..256)
                    .map(|_| {
                        let bits = rng.gen_range(1u32..53);
                        let k = rng.gen_range(0u64..1 << bits) as f64;
                        if rng.gen_bool(0.5) {
                            -(k + 0.5)
                        } else {
                            k + 0.5
                        }
                    })
                    .collect();
                (xs, ties)
            },
            |(xs, ties)| {
                let agree = |x: f64| {
                    let got = (in_domain(x).then(|| round_half_away(x)), round_to_u64(x));
                    if got == reference(x) {
                        Ok(())
                    } else {
                        Err(format!("{x:e}: got {got:?}, want {:?}", reference(x)))
                    }
                };
                // Every tie up to 2^16 and the sampled ones, each with
                // its neighbour one ULP either side.
                let every = (-(1i64 << 16)..1 << 16).map(|k| k as f64 + 0.5);
                for tie in every.chain(ties.iter().copied()) {
                    for x in [tie.next_down(), tie, tie.next_up()] {
                        agree(x)?;
                    }
                }
                for &x in xs.iter().chain(&specials) {
                    agree(x)?;
                }
                Ok(())
            },
        );
    }
}
