//! Stateful in-memory logic.
//!
//! The paper (§III.A) cites two families of core operations for CIM logic:
//!
//! * **Material implication** — Borghetti et al. \[20\] showed memristive
//!   switches natively compute `q ← p IMP q` and `FALSE`, which together
//!   are functionally complete;
//! * **Bulk bitwise** — Chen et al. \[18\] (and Ambit \[22\] on DRAM) compute
//!   AND/OR/XOR across whole rows at once.
//!
//! This module implements both on a word-level simulator with per-pulse
//! latency/energy accounting, and derives the composite gates (NAND, NOT,
//! OR, XOR) from the IMP primitive exactly as the literature does, so the
//! functional-completeness claim is executable.

use crate::array::OpCost;
use cim_sim::calib::dpe;
use cim_sim::energy::Energy;
use cim_sim::time::SimDuration;

/// Width of the logic engine's working rows, in bits.
pub const WORD_BITS: usize = 64;

/// A row-parallel stateful logic engine over 64-bit rows.
///
/// Each primitive applies one programming pulse to a whole row (all bits
/// in parallel), so latency is per-*operation* while energy is per-*bit*
/// switched — matching how imply-logic hardware behaves.
///
/// # Examples
///
/// ```
/// use cim_crossbar::logic::StatefulLogicEngine;
///
/// let mut eng = StatefulLogicEngine::new(4);
/// eng.write(0, 0b1100);
/// eng.write(1, 0b1010);
/// eng.nand(0, 1, 2); // row2 = !(row0 & row1)
/// assert_eq!(eng.read(2) & 0b1111, 0b0111);
/// assert!(eng.cost().latency.as_ps() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct StatefulLogicEngine {
    rows: Vec<u64>,
    cost: OpCost,
    pulses: u64,
}

impl StatefulLogicEngine {
    /// Creates an engine with `rows` zeroed 64-bit rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero.
    pub fn new(rows: usize) -> Self {
        assert!(rows > 0, "logic engine needs at least one row");
        StatefulLogicEngine {
            rows: vec![0; rows],
            cost: OpCost::default(),
            pulses: 0,
        }
    }

    /// Accumulated cost of all pulses so far.
    pub fn cost(&self) -> OpCost {
        self.cost
    }

    /// Number of programming pulses applied.
    pub fn pulse_count(&self) -> u64 {
        self.pulses
    }

    fn pulse(&mut self, switched_bits: u32) {
        self.pulses += 1;
        self.cost = self.cost.then(OpCost {
            latency: SimDuration::from_ps(dpe::CELL_WRITE_PS),
            energy: Energy::from_fj(dpe::CELL_WRITE_FJ * u64::from(switched_bits)),
        });
    }

    /// Reads a row (non-destructive, cheap; cost not accounted as logic).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn read(&self, row: usize) -> u64 {
        self.rows[row]
    }

    /// Externally writes a row (loading operands).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn write(&mut self, row: usize, value: u64) {
        let switched = (self.rows[row] ^ value).count_ones();
        self.rows[row] = value;
        self.pulse(switched);
    }

    /// `FALSE` primitive: unconditionally resets a row to all zeros.
    pub fn false_op(&mut self, row: usize) {
        let switched = self.rows[row].count_ones();
        self.rows[row] = 0;
        self.pulse(switched);
    }

    /// Material implication: `target ← source IMP target`
    /// (bitwise `!source | target`), the native memristive primitive.
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of range or `source == target` (the
    /// physical operation requires two distinct devices).
    pub fn imp(&mut self, source: usize, target: usize) {
        assert!(
            source != target,
            "IMP requires distinct source and target rows"
        );
        let old = self.rows[target];
        let new = !self.rows[source] | old;
        let switched = (old ^ new).count_ones();
        self.rows[target] = new;
        self.pulse(switched);
    }

    /// `NOT` derived from IMP: `target ← !source`, using `target` as the
    /// work row (`FALSE target; target ← source IMP target`).
    pub fn not(&mut self, source: usize, target: usize) {
        self.false_op(target);
        self.imp(source, target);
    }

    /// `NAND` derived from IMP (Borghetti et al.'s 3-pulse sequence):
    /// `out ← !(a & b)`.
    ///
    /// # Panics
    ///
    /// Panics if the three rows are not distinct.
    pub fn nand(&mut self, a: usize, b: usize, out: usize) {
        assert!(a != out && b != out && a != b, "NAND rows must be distinct");
        self.false_op(out); // out = 0
        self.imp(a, out); // out = !a
        self.imp(b, out); // out = !b | !a = !(a & b)
    }

    /// `AND` derived from NAND + NOT; requires a scratch row.
    ///
    /// # Panics
    ///
    /// Panics if rows are not all distinct.
    pub fn and(&mut self, a: usize, b: usize, out: usize, scratch: usize) {
        assert!(
            scratch != a && scratch != b && scratch != out,
            "scratch row must be distinct"
        );
        self.nand(a, b, scratch);
        self.not(scratch, out);
    }

    /// `OR` derived from IMP via De Morgan: `a | b = NAND(!a, !b)`.
    /// Uses two scratch rows for the negated operands.
    ///
    /// # Panics
    ///
    /// Panics if the five rows are not all distinct.
    pub fn or(&mut self, a: usize, b: usize, out: usize, scratch: [usize; 2]) {
        let all = [a, b, out, scratch[0], scratch[1]];
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert!(x != y, "OR rows must be distinct");
            }
        }
        self.not(a, scratch[0]); // !a
        self.not(b, scratch[1]); // !b
        self.nand(scratch[0], scratch[1], out); // !(!a & !b) = a | b
    }

    /// Bulk bitwise AND (triple-row-activation style \[18\]\[22\]):
    /// single-pulse whole-row operation.
    pub fn bulk_and(&mut self, a: usize, b: usize, out: usize) {
        let new = self.rows[a] & self.rows[b];
        let switched = (self.rows[out] ^ new).count_ones();
        self.rows[out] = new;
        self.pulse(switched);
    }

    /// Bulk bitwise OR.
    pub fn bulk_or(&mut self, a: usize, b: usize, out: usize) {
        let new = self.rows[a] | self.rows[b];
        let switched = (self.rows[out] ^ new).count_ones();
        self.rows[out] = new;
        self.pulse(switched);
    }

    /// Bulk bitwise XOR (dual-contact cell style \[18\]).
    pub fn bulk_xor(&mut self, a: usize, b: usize, out: usize) {
        let new = self.rows[a] ^ self.rows[b];
        let switched = (self.rows[out] ^ new).count_ones();
        self.rows[out] = new;
        self.pulse(switched);
    }

    /// Ripple-carry addition of two rows built *entirely* from bulk
    /// XOR/AND pulses — demonstrates composing arithmetic from in-memory
    /// logic. Uses three scratch rows. Returns the number of pulses spent.
    ///
    /// # Panics
    ///
    /// Panics if rows are not all distinct.
    pub fn add(&mut self, a: usize, b: usize, out: usize, scratch: [usize; 3]) -> u64 {
        let all = [a, b, out, scratch[0], scratch[1], scratch[2]];
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert!(x != y, "add rows must be distinct");
            }
        }
        let start = self.pulses;
        let [sum, carry, tmp] = scratch;
        // sum = a ^ b; carry = a & b
        self.bulk_xor(a, b, sum);
        self.bulk_and(a, b, carry);
        // Propagate carries bit-serially: out = sum ^ (carry<<1), repeated.
        loop {
            let c = self.rows[carry];
            if c == 0 {
                break;
            }
            let shifted = c << 1;
            // tmp = sum & shifted (new carry), sum = sum ^ shifted
            self.write(tmp, shifted);
            self.bulk_and(sum, tmp, carry);
            self.bulk_xor(sum, tmp, sum);
        }
        let switched = (self.rows[out] ^ self.rows[sum]).count_ones();
        self.rows[out] = self.rows[sum];
        self.pulse(switched);
        self.pulses - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eng() -> StatefulLogicEngine {
        StatefulLogicEngine::new(8)
    }

    #[test]
    fn imp_truth_table() {
        // p IMP q per bit: 0,0->1; 0,1->1; 1,0->0; 1,1->1
        let mut e = eng();
        e.write(0, 0b0011); // p
        e.write(1, 0b0101); // q
        e.imp(0, 1);
        assert_eq!(e.read(1) & 0b1111, 0b1101);
    }

    #[test]
    fn not_and_nand_derive_correctly() {
        let mut e = eng();
        e.write(0, 0xF0F0_F0F0_F0F0_F0F0);
        e.not(0, 1);
        assert_eq!(e.read(1), 0x0F0F_0F0F_0F0F_0F0F);
        e.write(2, 0xFF00_FF00_FF00_FF00);
        e.nand(0, 2, 3);
        assert_eq!(
            e.read(3),
            !(0xF0F0_F0F0_F0F0_F0F0u64 & 0xFF00_FF00_FF00_FF00)
        );
    }

    #[test]
    fn and_or_via_scratch() {
        let mut e = eng();
        e.write(0, 0b1100);
        e.write(1, 0b1010);
        e.and(0, 1, 2, 3);
        assert_eq!(e.read(2) & 0b1111, 0b1000);
        e.or(0, 1, 4, [5, 6]);
        assert_eq!(e.read(4) & 0b1111, 0b1110);
    }

    #[test]
    fn bulk_ops_single_pulse() {
        let mut e = eng();
        e.write(0, 0b1100);
        e.write(1, 0b1010);
        let before = e.pulse_count();
        e.bulk_xor(0, 1, 2);
        assert_eq!(e.pulse_count(), before + 1);
        assert_eq!(e.read(2) & 0b1111, 0b0110);
        e.bulk_and(0, 1, 3);
        assert_eq!(e.read(3) & 0b1111, 0b1000);
        e.bulk_or(0, 1, 4);
        assert_eq!(e.read(4) & 0b1111, 0b1110);
    }

    #[test]
    fn in_memory_addition() {
        let cases = [
            (0u64, 0u64),
            (1, 1),
            (123, 456),
            (u32::MAX as u64, 1),
            (0xDEAD, 0xBEEF),
        ];
        for (a, b) in cases {
            let mut e = eng();
            e.write(0, a);
            e.write(1, b);
            let pulses = e.add(0, 1, 2, [3, 4, 5]);
            assert_eq!(e.read(2), a.wrapping_add(b), "{a} + {b}");
            assert!(pulses >= 3, "addition needs at least xor+and+copy");
        }
    }

    #[test]
    fn energy_scales_with_switched_bits() {
        let mut e = eng();
        e.write(0, 0); // zero bits switch
        let e0 = e.cost().energy;
        e.write(1, u64::MAX); // 64 bits switch
        let e1 = e.cost().energy - e0;
        assert_eq!(e1.as_fj(), dpe::CELL_WRITE_FJ * 64);
    }

    #[test]
    fn latency_counts_pulses_not_bits() {
        let mut e = eng();
        e.write(0, u64::MAX);
        e.write(1, 1);
        let lat = e.cost().latency;
        assert_eq!(lat, SimDuration::from_ps(dpe::CELL_WRITE_PS) * 2);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn imp_same_row_panics() {
        let mut e = eng();
        e.imp(0, 0);
    }

    #[test]
    fn functional_completeness_xor_from_nand_only() {
        // XOR(a,b) = NAND(NAND(a, NAND(a,b)), NAND(b, NAND(a,b)))
        let mut e = StatefulLogicEngine::new(8);
        let (a, b) = (0b1100u64, 0b1010u64);
        e.write(0, a);
        e.write(1, b);
        e.nand(0, 1, 2);
        e.nand(0, 2, 3);
        e.nand(1, 2, 4);
        e.nand(3, 4, 5);
        assert_eq!(e.read(5) & 0b1111, (a ^ b) & 0b1111);
    }
}
