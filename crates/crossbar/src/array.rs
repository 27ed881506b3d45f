//! A 2-D array of memristor cells with an analog read path.
//!
//! The array is the physical resource: it stores one conductance matrix and
//! performs one *read phase* at a time — all driven rows discharge into all
//! column sense lines simultaneously, which is where the O(rows×cols) MACs
//! per ~100 ns come from (paper §VI, ISAAC \[49\]).

use crate::device::{
    drift_factor, effective_conductance, programmed_conductance, read_with_noise, CellFault,
    DeviceParams,
};
use crate::error::{CrossbarError, Result};
use cim_sim::calib::dpe;
use cim_sim::energy::Energy;
use cim_sim::rng::Xoshiro256pp;
use cim_sim::time::SimDuration;

/// Cost of an operation on the array: how long it occupied the array and
/// how much energy it consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCost {
    /// Array occupancy time.
    pub latency: SimDuration,
    /// Energy consumed.
    pub energy: Energy,
}

impl OpCost {
    /// Adds another cost (sequential composition).
    pub fn then(self, other: OpCost) -> OpCost {
        OpCost {
            latency: self.latency + other.latency,
            energy: self.energy + other.energy,
        }
    }

    /// Combines costs of operations running in parallel: latencies take
    /// the max, energies add. The dual of [`then`](Self::then) — use it
    /// whenever two operations occupy *different* physical resources over
    /// the same interval (batch items on engine shards, arrays behind
    /// independent ADCs).
    pub fn par(self, other: OpCost) -> OpCost {
        OpCost {
            latency: self.latency.max(other.latency),
            energy: self.energy + other.energy,
        }
    }
}

/// Energy in fJ of one read phase of
/// [`CrossbarArray::read_phase_cost`], on an array of `rows` rows with
/// `active` of them driven.
pub(crate) fn read_phase_fj(rows: usize, active: u64) -> u64 {
    dpe::READ_PHASE_FJ * active / rows.max(1) as u64 + dpe::DAC_DRIVE_FJ * active
}

/// [`read_phase_fj`] for one array height, with its division by `rows`
/// done once: `⌊READ_PHASE_FJ · active / rows⌋` is the high word of
/// `active · ⌈2^64 · READ_PHASE_FJ / rows⌉`. The rounding error of that
/// reciprocal is below one, so the product overshoots the true quotient
/// by less than `active / 2^64 < 1 / rows` — the least a fractional
/// quotient falls short of the next integer — for every `active ≤ rows`
/// of a valid array (fewer than 2^32 rows).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadPhaseEnergy {
    per_row: u128,
}

impl ReadPhaseEnergy {
    pub(crate) fn new(rows: usize) -> Self {
        let rows = rows.max(1) as u128;
        ReadPhaseEnergy {
            per_row: (u128::from(dpe::READ_PHASE_FJ) << 64).div_ceil(rows),
        }
    }

    /// `read_phase_fj(rows, active)`, for `active ≤ rows`.
    #[inline]
    pub(crate) fn fj(self, active: u64) -> u64 {
        ((u128::from(active) * self.per_row) >> 64) as u64 + dpe::DAC_DRIVE_FJ * active
    }
}

/// Lists a read phase's driven rows: row `r` is driven at DAC level
/// `levels[r]`, and 0 leaves it idle. Writes `(r, level)` for each driven
/// row, rows ascending, to the front of `driven`, which must be at least as
/// long as `levels`, and returns how many. The list is compacted without a
/// branch on the levels.
pub(crate) fn driven_rows(levels: impl Iterator<Item = u32>, driven: &mut [(usize, f64)]) -> usize {
    let mut n = 0;
    for (r, level) in levels.enumerate() {
        driven[n] = (r, f64::from(level));
        n += usize::from(level != 0);
    }
    n
}

/// A crossbar array of memristor cells.
///
/// # Examples
///
/// ```
/// use cim_crossbar::array::CrossbarArray;
/// use cim_crossbar::device::DeviceParams;
/// use cim_sim::SeedTree;
///
/// let mut xbar = CrossbarArray::new(4, 4, DeviceParams::ideal(2), SeedTree::new(7));
/// // Identity-ish pattern: level 3 on the diagonal.
/// let levels: Vec<u16> = (0..16).map(|i| if i % 5 == 0 { 3 } else { 0 }).collect();
/// xbar.program_levels(&levels).unwrap();
/// let sums = xbar.read_phase(&[true, false, true, false]).unwrap();
/// assert_eq!(sums, vec![3.0, 0.0, 3.0, 0.0]);
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarArray {
    rows: usize,
    cols: usize,
    /// The cells that are not pristine, in row-major order. A pristine
    /// cell (level 0, conductance +0.0, no fault) is what [`new`](Self::new)
    /// makes and what a fault-free program to level 0 leaves, so a small
    /// matrix on a large array stores only its own cells.
    cells: Vec<Cell>,
    /// Programming pulses every cell has absorbed. Each program writes
    /// every cell once, so wear is the same across the array.
    writes: u64,
    params: DeviceParams,
    rng: Xoshiro256pp,
    programmed: bool,
    /// What a read needs of the cells; cleared whenever they change
    /// (program, fault, drift) and rebuilt by the next read.
    table: Option<ReadTable>,
}

/// One stored cell: its row-major index and the state a
/// [`MemristorCell`](crate::device::MemristorCell) holds, less the wear
/// the array keeps.
#[derive(Debug, Clone, Copy)]
struct Cell {
    idx: u32,
    target_level: u16,
    fault: CellFault,
    conductance: f64,
}

impl Cell {
    fn pristine(idx: u32) -> Cell {
        Cell {
            idx,
            target_level: 0,
            fault: CellFault::None,
            conductance: 0.0,
        }
    }

    fn is_pristine(&self) -> bool {
        self.target_level == 0 && self.fault == CellFault::None && self.conductance.to_bits() == 0
    }

    fn effective_conductance(&self, params: &DeviceParams) -> f64 {
        effective_conductance(self.conductance, self.fault, params)
    }
}

/// The cells' effective conductances in the form a read phase consumes.
#[derive(Debug, Clone)]
enum ReadTable {
    /// Noise-free arrays (`read_sigma == 0`): every cell, row-major. A
    /// read is a plain sweep of the driven rows, with no per-cell index
    /// or branch, which beats the live table when most cells conduct.
    Dense(Vec<f64>),
    /// Noisy arrays: the conducting cells only. A cell that does not
    /// conduct draws no read noise and adds exactly +0.0 to a column sum
    /// that is never −0.0, so reading only these cells, in the same
    /// row-then-column order, gives the per-cell sweep's sums and RNG
    /// stream bit for bit.
    Live(LiveCells),
}

/// Compressed rows of an array's conducting cells: row `r` owns entries
/// `row_start[r]..row_start[r + 1]` of `col` (column index) and `g`
/// (effective conductance), in column order.
#[derive(Debug, Clone)]
struct LiveCells {
    row_start: Vec<u32>,
    col: Vec<u32>,
    g: Vec<f64>,
}

impl ReadTable {
    /// Builds the table from the stored cells; a pristine cell's effective
    /// conductance is +0.0.
    fn build(cells: &[Cell], rows: usize, cols: usize, params: &DeviceParams) -> ReadTable {
        if params.read_sigma == 0.0 {
            let mut g = vec![0.0; rows * cols];
            for cell in cells {
                g[cell.idx as usize] = cell.effective_conductance(params);
            }
            return ReadTable::Dense(g);
        }
        let mut live = LiveCells {
            row_start: Vec::with_capacity(rows + 1),
            col: Vec::new(),
            g: Vec::new(),
        };
        live.row_start.push(0);
        let mut cells = cells.iter().peekable();
        for r in 0..rows {
            let (first, end) = ((r * cols) as u32, ((r + 1) * cols) as u32);
            while let Some(cell) = cells.next_if(|c| c.idx < end) {
                let g = cell.effective_conductance(params);
                if g > 0.0 {
                    live.col.push(cell.idx - first);
                    live.g.push(g);
                }
            }
            live.row_start.push(live.col.len() as u32);
        }
        live.col.shrink_to_fit();
        live.g.shrink_to_fit();
        ReadTable::Live(live)
    }
}

impl CrossbarArray {
    /// Creates an array of fresh (minimum-conductance) cells.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero, or if the array has more than
    /// `u32::MAX` cells.
    pub fn new(rows: usize, cols: usize, params: DeviceParams, seeds: cim_sim::SeedTree) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        assert!(
            rows.checked_mul(cols)
                .is_some_and(|n| n <= u32::MAX as usize),
            "array of {rows}x{cols} cells is too large"
        );
        CrossbarArray {
            rows,
            cols,
            cells: Vec::new(),
            writes: 0,
            params,
            rng: seeds.rng("crossbar-array"),
            programmed: false,
            table: None,
        }
    }

    /// Re-derives the read-noise RNG from `seeds`, exactly as
    /// [`new`](Self::new) does. This is the seed-split determinism hook:
    /// giving each batch item a per-item seed tree makes the noise stream
    /// a function of the item index alone, independent of which engine
    /// shard (or host thread) executes it.
    pub fn reseed(&mut self, seeds: cim_sim::SeedTree) {
        self.rng = seeds.rng("crossbar-array");
    }

    /// Array rows (input lines).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array columns (output lines).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Device parameters.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Whether a matrix has been programmed.
    pub fn is_programmed(&self) -> bool {
        self.programmed
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> Result<usize> {
        if row < self.rows && col < self.cols {
            Ok(row * self.cols + col)
        } else {
            Err(CrossbarError::OutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            })
        }
    }

    /// Programs every cell from a row-major level matrix.
    ///
    /// Each cell absorbs one pulse and, unless faulty, takes its level
    /// with write variation (see [`MemristorCell::program`]); write noise
    /// is drawn for the non-zero levels in row-major order. Only stored
    /// cells and non-zero levels are visited, except on a program at or
    /// past the device's endurance, which turns every fault-free cell
    /// stuck-off.
    ///
    /// [`MemristorCell::program`]: crate::device::MemristorCell::program
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::DimensionMismatch`] if `levels` is not
    /// exactly `rows × cols` long, or [`CrossbarError::InvalidConfig`] if
    /// any level exceeds the device's maximum.
    pub fn program_levels(&mut self, levels: &[u16]) -> Result<OpCost> {
        if levels.len() != self.rows * self.cols {
            return Err(CrossbarError::DimensionMismatch {
                expected: self.rows * self.cols,
                actual: levels.len(),
                what: "level matrix size",
            });
        }
        let max = self.params.max_level();
        if levels.iter().fold(0, |m, &l| m.max(l)) > max {
            let bad = levels
                .iter()
                .find(|&&l| l > max)
                .expect("a level exceeds max");
            return Err(CrossbarError::InvalidConfig {
                reason: format!("level {bad} exceeds device max {max}"),
            });
        }
        self.writes += 1;
        let old = std::mem::take(&mut self.cells);
        let mut old = old.into_iter().peekable();
        if self.writes >= self.params.endurance {
            // Worn-out devices fail toward the low-conductance state; a
            // faulty cell absorbs the pulse unchanged.
            self.cells.reserve_exact(levels.len());
            for idx in 0..levels.len() as u32 {
                let mut cell = old.next_if(|c| c.idx == idx).unwrap_or(Cell::pristine(idx));
                if cell.fault == CellFault::None {
                    cell.fault = CellFault::StuckOff;
                }
                self.cells.push(cell);
            }
        } else {
            let (params, rng) = (&self.params, &mut self.rng);
            let mut next = Vec::with_capacity(old.len());
            let mut program = |mut cell: Cell, level: u16| {
                if cell.fault == CellFault::None {
                    cell.target_level = level;
                    cell.conductance = programmed_conductance(level, params, rng);
                }
                if !cell.is_pristine() {
                    next.push(cell);
                }
            };
            for (r, row) in levels.chunks_exact(self.cols).enumerate() {
                // All-zero rows hold no cell this program writes to a
                // non-zero level; their stored cells go to level 0 below.
                if row.iter().fold(0, |acc, &l| acc | l) == 0 {
                    continue;
                }
                for (c, &level) in row.iter().enumerate() {
                    if level == 0 {
                        continue;
                    }
                    let idx = (r * self.cols + c) as u32;
                    while let Some(cell) = old.next_if(|c| c.idx < idx) {
                        program(cell, 0);
                    }
                    let cell = old.next_if(|c| c.idx == idx).unwrap_or(Cell::pristine(idx));
                    program(cell, level);
                }
            }
            for cell in old {
                program(cell, 0);
            }
            self.cells = next;
        }
        self.programmed = true;
        self.table = None;
        Ok(self.program_cost())
    }

    /// Cost of a full-array reprogram: rows are written one at a time with
    /// all columns in parallel (column drivers are shared per row).
    pub fn program_cost(&self) -> OpCost {
        OpCost {
            latency: SimDuration::from_ps(dpe::CELL_WRITE_PS * self.rows as u64),
            energy: Energy::from_fj(dpe::CELL_WRITE_FJ * (self.rows * self.cols) as u64),
        }
    }

    /// Performs one analog read phase: every active row is driven and every
    /// column returns the sum of its active cells' conductances
    /// (in level units, with read noise applied per cell).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::NotProgrammed`] before the first program,
    /// or [`CrossbarError::DimensionMismatch`] if `active_rows` has the
    /// wrong length.
    pub fn read_phase(&mut self, active_rows: &[bool]) -> Result<Vec<f64>> {
        let levels: Vec<u16> = active_rows.iter().map(|&a| u16::from(a)).collect();
        self.read_phase_levels(&levels)
    }

    /// Performs one analog read phase with *multi-level* row drives:
    /// row `r` is driven at DAC level `levels[r]` (0 = idle), and every
    /// column returns `Σ levels[r] · g[r][c]`. The 1-bit
    /// [`read_phase`](Self::read_phase) is the `levels ∈ {0,1}` special
    /// case of this operation.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::NotProgrammed`] before the first program,
    /// or [`CrossbarError::DimensionMismatch`] if `levels` has the wrong
    /// length.
    pub fn read_phase_levels(&mut self, levels: &[u16]) -> Result<Vec<f64>> {
        if !self.programmed {
            return Err(CrossbarError::NotProgrammed);
        }
        if levels.len() != self.rows {
            return Err(CrossbarError::DimensionMismatch {
                expected: self.rows,
                actual: levels.len(),
                what: "drive level vector length",
            });
        }
        let mut driven = vec![(0, 0.0); levels.len()];
        let n = driven_rows(levels.iter().map(|&l| u32::from(l)), &mut driven);
        let mut sums = Vec::new();
        self.read_driven(&driven[..n], &mut sums);
        Ok(sums)
    }

    /// One read phase of a programmed array that visits only the driven
    /// rows: `driven` holds each one's `(row, DAC level)`, rows ascending,
    /// and every other row is idle. `sums` is overwritten with the `cols`
    /// column sums. Cells are read in row-then-column order, as
    /// [`read_phase_levels`](Self::read_phase_levels) promises.
    pub(crate) fn read_driven(&mut self, driven: &[(usize, f64)], sums: &mut Vec<f64>) {
        debug_assert!(self.programmed);
        debug_assert!(
            driven.windows(2).all(|w| w[0].0 < w[1].0)
                && driven.last().is_none_or(|&(r, _)| r < self.rows)
        );
        sums.clear();
        sums.resize(self.cols, 0.0);
        let (rows, cols) = (self.rows, self.cols);
        let table = self
            .table
            .get_or_insert_with(|| ReadTable::build(&self.cells, rows, cols, &self.params));
        match table {
            ReadTable::Dense(g) => {
                for &(r, drive) in driven {
                    for (sum, &g) in sums.iter_mut().zip(&g[r * cols..(r + 1) * cols]) {
                        *sum += drive * g;
                    }
                }
            }
            ReadTable::Live(live) => {
                for &(r, drive) in driven {
                    let span = live.row_start[r] as usize..live.row_start[r + 1] as usize;
                    for (&c, &g) in live.col[span.clone()].iter().zip(&live.g[span]) {
                        sums[c as usize] += drive * read_with_noise(g, &self.params, &mut self.rng);
                    }
                }
            }
        }
    }

    /// Cost of one read phase: analog settle plus DAC drive on the active
    /// rows. (ADC cost is accounted by the engine, which owns the ADCs.)
    pub fn read_phase_cost(&self, active_row_count: usize) -> OpCost {
        OpCost {
            latency: SimDuration::from_ps(dpe::READ_PHASE_PS),
            energy: Energy::from_fj(read_phase_fj(self.rows, active_row_count as u64)),
        }
    }

    /// Injects a fault into one cell.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates.
    pub fn inject_fault(&mut self, row: usize, col: usize, fault: CellFault) -> Result<()> {
        let i = self.idx(row, col)?;
        self.merge_faults(&[(i as u32, fault)]);
        Ok(())
    }

    /// Sets the fault of each `(row-major index, fault)` in `faults`,
    /// which must be in-bounds and strictly increasing, in one pass over
    /// the stored cells. [`CellFault::None`] clears a fault.
    pub(crate) fn merge_faults(&mut self, faults: &[(u32, CellFault)]) {
        debug_assert!(
            faults.windows(2).all(|w| w[0].0 < w[1].0)
                && faults
                    .last()
                    .is_none_or(|&(i, _)| (i as usize) < self.rows * self.cols)
        );
        if faults.is_empty() {
            return;
        }
        let mut old = std::mem::take(&mut self.cells).into_iter().peekable();
        let mut next = Vec::with_capacity(old.len() + faults.len());
        for &(idx, fault) in faults {
            while let Some(cell) = old.next_if(|c| c.idx < idx) {
                next.push(cell);
            }
            let mut cell = old.next_if(|c| c.idx == idx).unwrap_or(Cell::pristine(idx));
            cell.fault = fault;
            if !cell.is_pristine() {
                next.push(cell);
            }
        }
        next.extend(old);
        self.cells = next;
        self.table = None;
    }

    /// Number of faulty cells.
    pub fn fault_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.fault != CellFault::None)
            .count()
    }

    /// Applies retention drift to every cell (see
    /// [`MemristorCell::drift`](crate::device::MemristorCell::drift)). A
    /// pristine cell's +0.0 does not move.
    pub fn drift_all(&mut self, relative_age: f64, drift_fraction: f64) {
        let factor = drift_factor(relative_age, drift_fraction);
        for cell in &mut self.cells {
            cell.conductance *= factor;
        }
        self.table = None;
    }

    /// Total programming pulses absorbed across all cells (wear telemetry
    /// for the serviceability model, paper §V.D).
    pub fn total_writes(&self) -> u64 {
        self.writes * (self.rows * self.cols) as u64
    }

    /// The level a cell was last programmed to.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid coordinates.
    pub fn target_level(&self, row: usize, col: usize) -> Result<u16> {
        let i = self.idx(row, col)? as u32;
        Ok(self
            .cells
            .binary_search_by_key(&i, |c| c.idx)
            .map_or(0, |k| self.cells[k].target_level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemristorCell;
    use cim_sim::SeedTree;

    fn ideal_array(rows: usize, cols: usize) -> CrossbarArray {
        CrossbarArray::new(rows, cols, DeviceParams::ideal(2), SeedTree::new(5))
    }

    #[test]
    fn read_before_program_is_an_error() {
        let mut a = ideal_array(2, 2);
        assert_eq!(
            a.read_phase(&[true, true]),
            Err(CrossbarError::NotProgrammed)
        );
    }

    #[test]
    fn program_validates_dimensions_and_levels() {
        let mut a = ideal_array(2, 2);
        assert!(matches!(
            a.program_levels(&[1, 2, 3]),
            Err(CrossbarError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            a.program_levels(&[1, 2, 3, 9]),
            Err(CrossbarError::InvalidConfig { .. })
        ));
        assert!(a.program_levels(&[1, 2, 3, 0]).is_ok());
    }

    #[test]
    fn read_phase_sums_active_rows_only() {
        let mut a = ideal_array(3, 2);
        // rows: [1,2], [3,0], [2,2]
        a.program_levels(&[1, 2, 3, 0, 2, 2]).unwrap();
        assert_eq!(a.read_phase(&[true, true, true]).unwrap(), vec![6.0, 4.0]);
        assert_eq!(a.read_phase(&[false, true, false]).unwrap(), vec![3.0, 0.0]);
        assert_eq!(
            a.read_phase(&[false, false, false]).unwrap(),
            vec![0.0, 0.0]
        );
    }

    #[test]
    fn wrong_mask_length_is_an_error() {
        let mut a = ideal_array(2, 2);
        a.program_levels(&[0, 0, 0, 0]).unwrap();
        assert!(matches!(
            a.read_phase(&[true]),
            Err(CrossbarError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn write_is_much_slower_than_read() {
        let a = ideal_array(128, 128);
        let w = a.program_cost();
        let r = a.read_phase_cost(128);
        assert!(w.latency.as_ps() > 100 * r.latency.as_ps());
    }

    #[test]
    fn faults_change_sums() {
        let mut a = ideal_array(2, 2);
        a.program_levels(&[3, 3, 3, 3]).unwrap();
        a.inject_fault(0, 0, CellFault::StuckOff).unwrap();
        let sums = a.read_phase(&[true, true]).unwrap();
        assert_eq!(sums, vec![3.0, 6.0]);
        assert_eq!(a.fault_count(), 1);
        assert!(a.inject_fault(5, 0, CellFault::StuckOn).is_err());
    }

    #[test]
    fn drift_reduces_sums() {
        let mut a = ideal_array(2, 1);
        a.program_levels(&[2, 2]).unwrap();
        a.drift_all(1.0, 0.25);
        let sums = a.read_phase(&[true, true]).unwrap();
        assert!((sums[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn wear_telemetry_counts_program_pulses() {
        let mut a = ideal_array(2, 2);
        a.program_levels(&[0, 0, 0, 0]).unwrap();
        a.program_levels(&[1, 1, 1, 1]).unwrap();
        assert_eq!(a.total_writes(), 8);
        assert_eq!(a.target_level(1, 1).unwrap(), 1);
    }

    #[test]
    fn noisy_reads_are_reproducible_per_seed() {
        let params = DeviceParams::default();
        let mk = || {
            let mut a = CrossbarArray::new(8, 8, params.clone(), SeedTree::new(77));
            a.program_levels(&[2; 64]).unwrap();
            a.read_phase(&[true; 8]).unwrap()
        };
        assert_eq!(mk(), mk(), "same seed, same noise");
    }

    impl CrossbarArray {
        /// The cell at row-major index `i`, pristine if not stored.
        fn cell(&self, i: usize) -> Cell {
            let i = i as u32;
            self.cells
                .binary_search_by_key(&i, |c| c.idx)
                .map_or(Cell::pristine(i), |k| self.cells[k])
        }
    }

    impl Cell {
        fn read(&self, params: &DeviceParams, rng: &mut Xoshiro256pp) -> f64 {
            read_with_noise(self.effective_conductance(params), params, rng)
        }
    }

    /// The per-cell sweep the read tables replace: every driven row reads
    /// every cell, in row-then-column order. Kept as the reference they
    /// must reproduce bit for bit.
    fn per_cell_reference(a: &mut CrossbarArray, levels: &[u16]) -> Vec<f64> {
        let mut sums = vec![0.0f64; a.cols];
        for (r, &level) in levels.iter().enumerate() {
            if level == 0 {
                continue;
            }
            let drive = f64::from(level);
            for (c, sum) in sums.iter_mut().enumerate() {
                *sum += drive * a.cell(r * a.cols + c).read(&a.params, &mut a.rng);
            }
        }
        sums
    }

    #[test]
    fn table_reads_match_the_per_cell_sweep() {
        use cim_sim::prop::{check, PropConfig};
        use cim_sim::prop_assert_eq;
        use cim_sim::rng::Rng;
        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        check(
            "dense and live-cell reads equal the per-cell sweep",
            &PropConfig::cases(300),
            |rng| {
                let (rows, cols) = (rng.gen_range(1usize..41), rng.gen_range(1usize..41));
                // Mostly non-conducting cells, as when a small matrix
                // sits on a large array.
                let levels: Vec<u16> = (0..rows * cols)
                    .map(|_| {
                        if rng.gen_bool(0.6) {
                            0
                        } else {
                            rng.gen_range(1u16..4)
                        }
                    })
                    .collect();
                let faults: Vec<(usize, usize, u8)> = (0..rng.gen_range(0usize..8))
                    .map(|_| {
                        let at = (rng.gen_range(0..rows), rng.gen_range(0..cols));
                        (at.0, at.1, rng.gen_range(0u8..3))
                    })
                    .collect();
                // Age × fraction reaches past 1, which drains cells to 0.
                let drift = rng
                    .gen_bool(0.5)
                    .then(|| (rng.gen::<f64>() * 2.0, rng.gen::<f64>()));
                let drives: Vec<u16> = (0..rows)
                    .map(|_| {
                        if rng.gen_bool(0.3) {
                            0
                        } else {
                            rng.gen_range(1u16..16)
                        }
                    })
                    .collect();
                let noise = rng.gen_range(0u8..3);
                (
                    (rows, cols, noise),
                    levels,
                    faults,
                    drift,
                    drives,
                    rng.gen::<u64>(),
                )
            },
            |((rows, cols, noise), levels, faults, drift, drives, seed)| {
                let (rows, cols) = (*rows, *cols);
                if rows == 0 || cols == 0 || levels.len() != rows * cols || drives.len() != rows {
                    // A shrink step that broke the shape: nothing to check.
                    return Ok(());
                }
                let params = match noise % 3 {
                    0 => DeviceParams::ideal(2),
                    1 => DeviceParams::default(),
                    // Noise wide enough that reads clamp to exactly 0.
                    _ => DeviceParams {
                        read_sigma: 2.0,
                        ..DeviceParams::default()
                    },
                };
                let mut a = CrossbarArray::new(rows, cols, params, SeedTree::new(*seed));
                a.program_levels(levels).map_err(|e| e.to_string())?;
                // A read before the faults and drift builds a table the
                // changes must invalidate.
                a.read_phase_levels(drives).map_err(|e| e.to_string())?;
                for &(r, c, kind) in faults {
                    let fault = match kind % 3 {
                        0 => CellFault::None,
                        1 => CellFault::StuckOff,
                        _ => CellFault::StuckOn,
                    };
                    if r < rows && c < cols {
                        a.inject_fault(r, c, fault).map_err(|e| e.to_string())?;
                    }
                }
                if let Some((age, fraction)) = drift {
                    a.drift_all(*age, *fraction);
                }

                let mut reference = a.clone();
                let want = per_cell_reference(&mut reference, drives);
                let got = a.read_phase_levels(drives).map_err(|e| e.to_string())?;
                prop_assert_eq!(bits(&got), bits(&want));
                prop_assert_eq!(a.rng.next_u64(), reference.rng.next_u64());

                let mask: Vec<bool> = drives.iter().map(|&d| d != 0).collect();
                let ones: Vec<u16> = mask.iter().map(|&m| u16::from(m)).collect();
                let mut b = a.clone();
                let via_mask = a.read_phase(&mask).map_err(|e| e.to_string())?;
                let via_levels = b.read_phase_levels(&ones).map_err(|e| e.to_string())?;
                prop_assert_eq!(bits(&via_mask), bits(&via_levels));
                prop_assert_eq!(a.rng.next_u64(), b.rng.next_u64());
                Ok(())
            },
        );
    }

    /// The dense per-cell model an array must behave like: every cell a
    /// [`MemristorCell`], programmed, faulted, drifted and read one by one
    /// in row-major order.
    struct DenseModel {
        rows: usize,
        cols: usize,
        cells: Vec<MemristorCell>,
        params: DeviceParams,
        rng: Xoshiro256pp,
        programmed: bool,
    }

    impl DenseModel {
        fn new(rows: usize, cols: usize, params: DeviceParams, seeds: SeedTree) -> Self {
            DenseModel {
                rows,
                cols,
                cells: vec![MemristorCell::new(); rows * cols],
                params,
                rng: seeds.rng("crossbar-array"),
                programmed: false,
            }
        }

        fn program_levels(&mut self, levels: &[u16]) -> OpCost {
            for (cell, &level) in self.cells.iter_mut().zip(levels) {
                cell.program(level, &self.params, &mut self.rng);
            }
            self.programmed = true;
            OpCost {
                latency: SimDuration::from_ps(dpe::CELL_WRITE_PS * self.rows as u64),
                energy: Energy::from_fj(dpe::CELL_WRITE_FJ * (self.rows * self.cols) as u64),
            }
        }

        fn read_phase_levels(&mut self, levels: &[u16]) -> Result<Vec<f64>> {
            if !self.programmed {
                return Err(CrossbarError::NotProgrammed);
            }
            let mut sums = vec![0.0f64; self.cols];
            for (r, &level) in levels.iter().enumerate() {
                if level == 0 {
                    continue;
                }
                let drive = f64::from(level);
                for (c, sum) in sums.iter_mut().enumerate() {
                    *sum += drive * self.cells[r * self.cols + c].read(&self.params, &mut self.rng);
                }
            }
            Ok(sums)
        }

        fn inject_fault(&mut self, row: usize, col: usize, fault: CellFault) -> Result<()> {
            if row >= self.rows || col >= self.cols {
                return Err(CrossbarError::OutOfBounds {
                    row,
                    col,
                    rows: self.rows,
                    cols: self.cols,
                });
            }
            self.cells[row * self.cols + col].set_fault(fault);
            Ok(())
        }
    }

    /// One step of an array's life in [`array_matches_the_dense_cell_model`].
    #[derive(Debug, Clone)]
    enum Op {
        /// Program levels drawn from `seed` into the `h × w` top-left
        /// corner, `zero_pct` % of them zero; every other cell gets level
        /// 0, so `h == 0` or `w == 0` is an all-zero program.
        Program {
            h: usize,
            w: usize,
            zero_pct: u8,
            seed: u64,
        },
        /// Set (kind 1 stuck-off, 2 stuck-on) or clear (kind 0) a fault.
        Fault { row: usize, col: usize, kind: u8 },
        /// Retention drift; age × fraction past 1 drains cells to zero.
        Drift { age: f64, fraction: f64 },
    }

    impl cim_sim::prop::Shrink for Op {}

    #[test]
    fn array_matches_the_dense_cell_model() {
        use cim_sim::prop::{check, PropConfig};
        use cim_sim::prop_assert_eq;
        use cim_sim::rng::Rng;
        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        check(
            "an array programs, faults, drifts and reads like its dense cell model",
            &PropConfig::cases(200),
            |rng| {
                // Small arrays of any shape, or a full-size array holding a
                // small matrix in one corner, as a layer's tile does.
                let big = rng.gen_bool(0.25);
                let (rows, cols) = if big {
                    (128, 128)
                } else {
                    (rng.gen_range(1usize..41), rng.gen_range(1usize..41))
                };
                let corner = if big { 17 } else { rows.max(cols) + 1 };
                let ops: Vec<Op> = (0..rng.gen_range(1usize..10))
                    .map(|_| match rng.gen_range(0u8..5) {
                        0 | 1 => Op::Program {
                            h: rng.gen_range(0..corner),
                            w: rng.gen_range(0..corner),
                            zero_pct: rng.gen_range(0u8..101),
                            seed: rng.gen::<u64>(),
                        },
                        2 | 3 => {
                            // Half inside the corner, half anywhere
                            // (padding included).
                            let (r, c) = if rng.gen_bool(0.5) {
                                (rng.gen_range(0..corner), rng.gen_range(0..corner))
                            } else {
                                (rng.gen_range(0..rows), rng.gen_range(0..cols))
                            };
                            Op::Fault {
                                row: r,
                                col: c,
                                kind: rng.gen_range(0u8..3),
                            }
                        }
                        _ => Op::Drift {
                            age: rng.gen::<f64>() * 2.0,
                            fraction: rng.gen::<f64>(),
                        },
                    })
                    .collect();
                let params = rng.gen_range(0u8..3);
                // 1–3 wears the array out within a few programs; 0 keeps
                // the parameter set's own endurance.
                let endurance = rng.gen_range(0u64..4);
                ((rows, cols, params, endurance), rng.gen::<u64>(), ops)
            },
            |((rows, cols, params, endurance), seed, ops)| {
                let (rows, cols) = (*rows, *cols);
                if rows == 0 || cols == 0 {
                    // A shrink step that broke the shape: nothing to check.
                    return Ok(());
                }
                let mut params = match params % 3 {
                    0 => DeviceParams::ideal(2),
                    1 => DeviceParams::default(),
                    // Program noise without read noise: the dense table.
                    _ => DeviceParams {
                        read_sigma: 0.0,
                        ..DeviceParams::default()
                    },
                };
                if *endurance > 0 {
                    params.endurance = *endurance;
                }
                let max = params.max_level();
                let mut a = CrossbarArray::new(rows, cols, params.clone(), SeedTree::new(*seed));
                let mut m = DenseModel::new(rows, cols, params, SeedTree::new(*seed));
                for (step, op) in ops.iter().enumerate() {
                    match *op {
                        Op::Program {
                            h,
                            w,
                            zero_pct,
                            seed,
                        } => {
                            let mut lv = Xoshiro256pp::seed_from_u64(seed);
                            let levels: Vec<u16> = (0..rows * cols)
                                .map(|i| {
                                    let (r, c) = (i / cols, i % cols);
                                    if r < h && c < w && !lv.gen_bool(f64::from(zero_pct) / 100.0) {
                                        lv.gen_range(1..max + 1)
                                    } else {
                                        0
                                    }
                                })
                                .collect();
                            let cost = a.program_levels(&levels).map_err(|e| e.to_string())?;
                            prop_assert_eq!(cost, m.program_levels(&levels), "step {step}");
                            prop_assert_eq!(cost, a.program_cost(), "step {step}");
                        }
                        Op::Fault { row, col, kind } => {
                            let fault = match kind % 3 {
                                0 => CellFault::None,
                                1 => CellFault::StuckOff,
                                _ => CellFault::StuckOn,
                            };
                            prop_assert_eq!(
                                a.inject_fault(row, col, fault),
                                m.inject_fault(row, col, fault),
                                "step {step}"
                            );
                        }
                        Op::Drift { age, fraction } => {
                            let (age, fraction) = (age.abs(), fraction.abs());
                            a.drift_all(age, fraction);
                            for cell in &mut m.cells {
                                cell.drift(age, fraction);
                            }
                        }
                    }
                    let mut dr = Xoshiro256pp::seed_from_u64(seed ^ step as u64);
                    let drives: Vec<u16> = (0..rows)
                        .map(|_| {
                            if dr.gen_bool(0.3) {
                                0
                            } else {
                                dr.gen_range(1u16..16)
                            }
                        })
                        .collect();
                    let got = a.read_phase_levels(&drives).map(|s| bits(&s));
                    let want = m.read_phase_levels(&drives).map(|s| bits(&s));
                    prop_assert_eq!(got, want, "read after step {step}");
                    prop_assert_eq!(a.rng.next_u64(), m.rng.next_u64(), "step {step}");
                    prop_assert_eq!(a.is_programmed(), m.programmed, "step {step}");
                    let faults = m.cells.iter().filter(|c| c.fault() != CellFault::None);
                    prop_assert_eq!(a.fault_count(), faults.count(), "step {step}");
                    let writes: u64 = m.cells.iter().map(MemristorCell::write_count).sum();
                    prop_assert_eq!(a.total_writes(), writes, "step {step}");
                    for (i, cell) in m.cells.iter().enumerate() {
                        prop_assert_eq!(
                            a.target_level(i / cols, i % cols),
                            Ok(cell.target_level()),
                            "cell {i} after step {step}"
                        );
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn read_phase_energy_equals_the_division() {
        use cim_sim::prop::{check, PropConfig};
        use cim_sim::rng::Rng;
        check(
            "ReadPhaseEnergy::fj equals read_phase_fj",
            &PropConfig::cases(256),
            |rng| {
                // Heights from 1 row to the u32::MAX-cell limit.
                let bits = rng.gen_range(0u32..33);
                let rows = rng.gen_range(1u64..(1u64 << bits).min(u64::from(u32::MAX)) + 1);
                let active: Vec<u64> = (0..64).map(|_| rng.gen_range(0..rows + 1)).collect();
                (rows, active)
            },
            |(rows, active)| {
                let rows = *rows as usize;
                let e = ReadPhaseEnergy::new(rows);
                // Every count on short arrays, both ends and the sample
                // on tall ones.
                let every = if rows <= 4096 {
                    0..rows as u64 + 1
                } else {
                    0..0
                };
                let ends = [0, 1, rows as u64 - 1, rows as u64];
                for a in every.chain(ends).chain(active.iter().copied()) {
                    let a = a.min(rows as u64);
                    if e.fj(a) != read_phase_fj(rows, a) {
                        return Err(format!(
                            "rows {rows}, active {a}: {} vs {}",
                            e.fj(a),
                            read_phase_fj(rows, a)
                        ));
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn op_cost_composition() {
        let a = OpCost {
            latency: SimDuration::from_ns(10),
            energy: Energy::from_fj(100),
        };
        let b = OpCost {
            latency: SimDuration::from_ns(4),
            energy: Energy::from_fj(50),
        };
        let seq = a.then(b);
        assert_eq!(seq.latency, SimDuration::from_ns(14));
        assert_eq!(seq.energy, Energy::from_fj(150));
        let par = a.par(b);
        assert_eq!(par.latency, SimDuration::from_ns(10));
        assert_eq!(par.energy, Energy::from_fj(150));
    }
}
