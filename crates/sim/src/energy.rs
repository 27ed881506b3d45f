//! Simulated energy and power accounting.
//!
//! Energy is tracked in integer **femtojoules** for the same reason time is
//! tracked in picoseconds: exact, reproducible accumulation. A femtojoule
//! base unit resolves single memristor read events (~fJ–pJ) while `u64`
//! femtojoules still spans ~18 kJ, far beyond any experiment here.

use crate::num::round_to_u64;
use crate::time::SimDuration;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// An amount of consumed energy, in femtojoules.
///
/// # Examples
///
/// ```
/// use cim_sim::energy::Energy;
///
/// let per_op = Energy::from_pj(1.2);
/// let total = per_op * 1_000;
/// assert!((total.as_nj() - 1.2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Energy(u64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0);

    /// Creates an energy from femtojoules.
    #[inline]
    pub const fn from_fj(fj: u64) -> Self {
        Energy(fj)
    }

    /// Creates an energy from picojoules, rounding to the nearest
    /// femtojoule. Negative inputs clamp to zero.
    #[inline]
    pub fn from_pj(pj: f64) -> Self {
        Energy(round_to_u64(pj * 1e3))
    }

    /// Creates an energy from nanojoules. Negative inputs clamp to zero.
    #[inline]
    pub fn from_nj(nj: f64) -> Self {
        Energy(round_to_u64(nj * 1e6))
    }

    /// Creates an energy from joules. Negative inputs clamp to zero.
    #[inline]
    pub fn from_joules(j: f64) -> Self {
        Energy(round_to_u64(j * 1e15))
    }

    /// Energy in femtojoules.
    #[inline]
    pub const fn as_fj(self) -> u64 {
        self.0
    }

    /// Energy in picojoules.
    #[inline]
    pub fn as_pj(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Energy in nanojoules.
    #[inline]
    pub fn as_nj(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Energy in joules.
    #[inline]
    pub fn as_joules(self) -> f64 {
        self.0 as f64 / 1e15
    }

    /// Whether this is exactly zero energy.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: clamps at zero.
    #[inline]
    pub const fn saturating_sub(self, rhs: Energy) -> Energy {
        Energy(self.0.saturating_sub(rhs.0))
    }

    /// Scales by a float factor, rounding; negative factors clamp to zero.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Energy {
        Energy(round_to_u64(self.0 as f64 * factor))
    }
}

impl Add for Energy {
    type Output = Energy;
    #[inline]
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    #[inline]
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    #[inline]
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<u64> for Energy {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: u64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Div<u64> for Energy {
    type Output = Energy;
    /// # Panics
    ///
    /// Panics on division by zero.
    #[inline]
    fn div(self, rhs: u64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fj = self.0 as f64;
        if fj >= 1e15 {
            write!(f, "{:.3}J", self.as_joules())
        } else if fj >= 1e12 {
            write!(f, "{:.3}mJ", fj / 1e12)
        } else if fj >= 1e9 {
            write!(f, "{:.3}uJ", fj / 1e9)
        } else if fj >= 1e6 {
            write!(f, "{:.3}nJ", self.as_nj())
        } else if fj >= 1e3 {
            write!(f, "{:.3}pJ", self.as_pj())
        } else {
            write!(f, "{}fJ", self.0)
        }
    }
}

/// Average power over an interval, in watts.
///
/// Constructed from an [`Energy`] and a [`SimDuration`]; see
/// [`Power::from_energy`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero watts.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from watts.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or not finite.
    #[inline]
    pub fn from_watts(watts: f64) -> Self {
        assert!(
            watts.is_finite() && watts >= 0.0,
            "power must be finite and non-negative, got {watts}"
        );
        Power(watts)
    }

    /// Creates a power from milliwatts.
    ///
    /// # Panics
    ///
    /// Panics if `mw` is negative or not finite.
    #[inline]
    pub fn from_mw(mw: f64) -> Self {
        Power::from_watts(mw / 1e3)
    }

    /// Average power of spending `energy` over `interval`.
    ///
    /// Returns `None` when the interval is zero (power is undefined).
    pub fn from_energy(energy: Energy, interval: SimDuration) -> Option<Power> {
        if interval.is_zero() {
            None
        } else {
            Some(Power(energy.as_joules() / interval.as_secs_f64()))
        }
    }

    /// Power in watts.
    #[inline]
    pub fn as_watts(self) -> f64 {
        self.0
    }

    /// Energy consumed by sustaining this power for `interval`.
    pub fn energy_over(self, interval: SimDuration) -> Energy {
        Energy::from_joules(self.0 * interval.as_secs_f64())
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.0;
        if w >= 1.0 {
            write!(f, "{w:.3}W")
        } else if w >= 1e-3 {
            write!(f, "{:.3}mW", w * 1e3)
        } else if w >= 1e-6 {
            write!(f, "{:.3}uW", w * 1e6)
        } else {
            write!(f, "{:.3}nW", w * 1e9)
        }
    }
}

/// A running energy meter with named sub-accounts.
///
/// Components charge energy to a meter; experiments read back the split to
/// report compute vs. data-movement vs. static energy, as the paper's §VI
/// power comparison requires.
///
/// # Examples
///
/// ```
/// use cim_sim::energy::{Energy, EnergyMeter};
///
/// let mut meter = EnergyMeter::new();
/// meter.charge("adc", Energy::from_pj(2.0));
/// meter.charge("adc", Energy::from_pj(1.0));
/// meter.charge("link", Energy::from_pj(0.5));
/// assert_eq!(meter.total(), Energy::from_pj(3.5));
/// assert_eq!(meter.account("adc"), Energy::from_pj(3.0));
/// assert_eq!(meter.account("missing"), Energy::ZERO);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnergyMeter {
    accounts: Vec<(String, Energy)>,
    total: Energy,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `amount` to the named account (creating it on first use).
    pub fn charge(&mut self, account: &str, amount: Energy) {
        self.total += amount;
        if let Some((_, e)) = self.accounts.iter_mut().find(|(n, _)| n == account) {
            *e += amount;
        } else {
            self.accounts.push((account.to_owned(), amount));
        }
    }

    /// Total energy across all accounts.
    pub fn total(&self) -> Energy {
        self.total
    }

    /// Energy charged to one account; zero if the account was never used.
    pub fn account(&self, name: &str) -> Energy {
        self.accounts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, e)| *e)
            .unwrap_or(Energy::ZERO)
    }

    /// Iterates over `(account, energy)` pairs in first-charge order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Energy)> {
        self.accounts.iter().map(|(n, e)| (n.as_str(), *e))
    }

    /// Merges another meter's accounts into this one.
    pub fn absorb(&mut self, other: &EnergyMeter) {
        for (name, e) in other.iter() {
            self.charge(name, e);
        }
    }

    /// Resets all accounts to zero, keeping no account names.
    pub fn reset(&mut self) {
        self.accounts.clear();
        self.total = Energy::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_unit_constructors_agree() {
        assert_eq!(Energy::from_pj(1.0).as_fj(), 1_000);
        assert_eq!(Energy::from_nj(1.0), Energy::from_pj(1_000.0));
        assert_eq!(Energy::from_joules(1e-15).as_fj(), 1);
        assert_eq!(Energy::from_pj(-1.0), Energy::ZERO);
    }

    #[test]
    fn energy_arithmetic() {
        let a = Energy::from_fj(30);
        let b = Energy::from_fj(12);
        assert_eq!((a + b).as_fj(), 42);
        assert_eq!((a - b).as_fj(), 18);
        assert_eq!((a * 2).as_fj(), 60);
        assert_eq!((a / 3).as_fj(), 10);
        assert_eq!(b.saturating_sub(a), Energy::ZERO);
        assert_eq!(a.mul_f64(0.5).as_fj(), 15);
    }

    #[test]
    fn power_from_energy_over_interval() {
        let e = Energy::from_joules(1.0);
        let p = Power::from_energy(e, SimDuration::from_secs(2)).expect("nonzero interval");
        assert!((p.as_watts() - 0.5).abs() < 1e-12);
        assert!(Power::from_energy(e, SimDuration::ZERO).is_none());
    }

    #[test]
    fn power_energy_roundtrip() {
        let p = Power::from_watts(3.0);
        let e = p.energy_over(SimDuration::from_ms(500));
        assert!((e.as_joules() - 1.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power must be finite")]
    fn negative_power_panics() {
        let _ = Power::from_watts(-1.0);
    }

    #[test]
    fn meter_accounts_and_absorb() {
        let mut a = EnergyMeter::new();
        a.charge("x", Energy::from_fj(5));
        let mut b = EnergyMeter::new();
        b.charge("x", Energy::from_fj(2));
        b.charge("y", Energy::from_fj(3));
        a.absorb(&b);
        assert_eq!(a.account("x").as_fj(), 7);
        assert_eq!(a.account("y").as_fj(), 3);
        assert_eq!(a.total().as_fj(), 10);
        assert_eq!(a.iter().count(), 2);
        a.reset();
        assert!(a.total().is_zero());
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Energy::from_fj(5).to_string(), "5fJ");
        assert_eq!(Energy::from_pj(2.0).to_string(), "2.000pJ");
        assert_eq!(Power::from_watts(2.0).to_string(), "2.000W");
        assert_eq!(Power::from_mw(1.5).to_string(), "1.500mW");
    }

    #[test]
    fn energy_sum() {
        let total: Energy = (1..=3).map(Energy::from_fj).sum();
        assert_eq!(total.as_fj(), 6);
    }
}
