//! The Dot Product Engine: an ISAAC-style analog matrix–vector unit.
//!
//! This is the reproduction of the hardware behind the paper's §VI. A
//! weight matrix is quantized to `weight_bits` signed fixed point, split
//! into a differential (positive/negative) pair of conductance matrices,
//! bit-sliced across `weight_bits/cell_bits`-deep stacks of crossbar
//! arrays, and tiled over the physical 128×128 array size. Inputs are
//! quantized to `input_bits` signed fixed point and streamed
//! **digit-serially** (1–8 bits per DAC digit, positive and negative
//! polarities in separate phases): each phase drives the rows with one
//! digit of the input, the ADC digitizes every column, and a digital
//! shift-and-add merges phases, slices and signs.
//!
//! One analog read phase performs `rows × cols` MACs in ~100 ns regardless
//! of operand locality — computation happens *in* the memory that stores
//! the weights, which is the whole point of the CIM model.

use crate::adc::Adc;
use crate::array::{driven_rows, CrossbarArray, OpCost, ReadPhaseEnergy};
use crate::device::DeviceParams;
use crate::error::{CrossbarError, Result};
use crate::matrix::DenseMatrix;
use crate::quant::Quantizer;
use cim_sim::analytic::SimMode;
use cim_sim::calib::dpe as cal;
use cim_sim::energy::Energy;
use cim_sim::telemetry::{ComponentId, Telemetry};
use cim_sim::time::SimDuration;
use cim_sim::SeedTree;

/// Configuration of a dot-product engine.
#[derive(Debug, Clone, PartialEq)]
pub struct DpeConfig {
    /// Physical rows of one crossbar array.
    pub array_rows: usize,
    /// Physical columns of one crossbar array.
    pub array_cols: usize,
    /// Weight precision in bits (signed).
    pub weight_bits: u32,
    /// Input precision in bits (signed, streamed digit-serially).
    pub input_bits: u32,
    /// Bits per input DAC digit: 1 = classic bit-serial streaming (ISAAC);
    /// larger digits cut the phase count at the cost of multi-level row
    /// drivers and a wider ADC input range.
    pub dac_bits: u32,
    /// ADC resolution in bits. Each array has one ADC, as in ISAAC, so
    /// its columns are converted serially.
    pub adc_bits: u32,
    /// Device (cell) parameters: bits per cell, noise, endurance.
    pub device: DeviceParams,
}

impl Default for DpeConfig {
    /// The ISAAC design point from [`cim_sim::calib::dpe`].
    fn default() -> Self {
        DpeConfig {
            array_rows: cal::XBAR_DIM,
            array_cols: cal::XBAR_DIM,
            weight_bits: cal::WEIGHT_BITS,
            input_bits: 8,
            dac_bits: cal::DAC_BITS,
            adc_bits: cal::ADC_BITS,
            device: DeviceParams::default(),
        }
    }
}

impl DpeConfig {
    /// An idealized engine: noise-free devices and a lossless ADC, for
    /// validating functional correctness separately from analog effects.
    ///
    /// Note the 16-bit ADC is an *accuracy* idealization: its modeled
    /// energy (4× per bit past the 8-bit design point) makes this
    /// configuration unrealistically expensive. Use
    /// [`noise_free`](Self::noise_free) when reporting energy.
    pub fn ideal() -> Self {
        DpeConfig {
            adc_bits: 16,
            device: DeviceParams::ideal(cal::CELL_BITS),
            ..Self::default()
        }
    }

    /// Noise-free devices at the *calibrated* ADC design point: exact
    /// enough for functional work, honest about energy.
    pub fn noise_free() -> Self {
        DpeConfig {
            device: DeviceParams::ideal(cal::CELL_BITS),
            ..Self::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] when any parameter is out
    /// of range.
    pub fn validate(&self) -> Result<()> {
        let bad = |reason: String| Err(CrossbarError::InvalidConfig { reason });
        if self.array_rows == 0 || self.array_cols == 0 {
            return bad(format!(
                "array dimensions must be positive, got {}x{}",
                self.array_rows, self.array_cols
            ));
        }
        // A crossbar array indexes its cells with a u32.
        if self
            .array_rows
            .checked_mul(self.array_cols)
            .is_none_or(|cells| cells > u32::MAX as usize)
        {
            return bad(format!(
                "an array of {}x{} cells exceeds u32::MAX cells",
                self.array_rows, self.array_cols
            ));
        }
        if !(2..=24).contains(&self.weight_bits) {
            return bad(format!(
                "weight_bits must be in 2..=24, got {}",
                self.weight_bits
            ));
        }
        if !(2..=16).contains(&self.input_bits) {
            return bad(format!(
                "input_bits must be in 2..=16, got {}",
                self.input_bits
            ));
        }
        if !(1..=8).contains(&self.dac_bits) {
            return bad(format!("dac_bits must be in 1..=8, got {}", self.dac_bits));
        }
        if self.dac_bits >= self.input_bits {
            return bad(format!(
                "dac_bits ({}) must be below input_bits ({})",
                self.dac_bits, self.input_bits
            ));
        }
        if !(1..=16).contains(&self.adc_bits) {
            return bad(format!("adc_bits must be in 1..=16, got {}", self.adc_bits));
        }
        if self.device.bits == 0 || self.device.bits > 8 {
            return bad(format!(
                "cell bits must be in 1..=8, got {}",
                self.device.bits
            ));
        }
        Ok(())
    }

    /// Slices needed to hold one signed weight's magnitude.
    pub fn slices(&self) -> usize {
        (self.weight_bits - 1).div_ceil(self.device.bits) as usize
    }
}

/// Result of a matrix–vector product on the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct DpeOutput {
    /// The computed product, dequantized to real values.
    pub values: Vec<f64>,
    /// Latency and energy of the operation.
    pub cost: OpCost,
}

/// Occupancy statistics of a programmed engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpeFootprint {
    /// Physical crossbar arrays allocated.
    pub arrays: usize,
    /// Total memristor cells allocated.
    pub cells: usize,
    /// Row tiles (input-dimension partitions).
    pub row_tiles: usize,
    /// Column tiles (output-dimension partitions).
    pub col_tiles: usize,
}

/// An analog dot-product engine programmed with one weight matrix.
///
/// # Examples
///
/// ```
/// use cim_crossbar::dpe::{DotProductEngine, DpeConfig};
/// use cim_crossbar::matrix::DenseMatrix;
/// use cim_sim::SeedTree;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let w = DenseMatrix::from_fn(8, 4, |r, c| ((r + c) as f64 - 5.0) / 6.0);
/// let mut dpe = DotProductEngine::new(DpeConfig::ideal(), SeedTree::new(1));
/// dpe.program(&w)?;
/// let x = vec![0.5; 8];
/// let out = dpe.matvec(&x)?;
/// let exact = w.matvec(&x)?;
/// for (a, b) in out.values.iter().zip(&exact) {
///     assert!((a - b).abs() < 0.05);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DotProductEngine {
    config: DpeConfig,
    adc: Adc,
    seeds: SeedTree,
    /// arrays[row_tile][col_tile][sign][slice]
    arrays: Vec<Vec<[Vec<CrossbarArray>; 2]>>,
    weight_quant: Option<Quantizer>,
    /// Quantized signed weight values (as f64), row-major `rows × cols`;
    /// the analytic tier computes products from these instead of reading
    /// the analog arrays. Kept in sync by [`program`](Self::program).
    q_weights: Vec<f64>,
    mode: SimMode,
    matrix_rows: usize,
    matrix_cols: usize,
    total_energy: Energy,
    total_busy: SimDuration,
    mvm_count: u64,
    tel: Telemetry,
    tel_path: String,
    tel_array: ComponentId,
    tel_dac: ComponentId,
    tel_adc: ComponentId,
    tel_digital: ComponentId,
    costs: MatvecCosts,
    scratch: MatvecScratch,
}

/// The most read phases a matvec can run: two polarities of at most 15
/// one-bit digits (16-bit inputs).
const MAX_PHASES: usize = 30;

/// The analog settle of one read phase.
const SETTLE: SimDuration = SimDuration::from_ps(cal::READ_PHASE_PS);

/// Everything a matvec charges that depends only on the configuration
/// and the tiling, computed once in [`DotProductEngine::new`] and
/// [`DotProductEngine::program`], so each call pays only for its counts.
#[derive(Debug, Clone)]
struct MatvecCosts {
    /// DAC digits per input magnitude.
    n_digits: usize,
    /// One array's read-phase energy by driven-row count.
    read_phase: ReadPhaseEnergy,
    /// One ADC conversion, in fJ.
    conversion_fj: u64,
    /// One array read: every column converted and shift-added.
    per_read_fj: u64,
    /// A driven row's extra DAC energy: multi-level drivers cost roughly
    /// linear in digit width.
    per_drive_fj: u64,
    /// One ADC sweep over an array's columns.
    adc_sweep: SimDuration,
    /// One pipelined phase: the analog settle overlaps the previous
    /// phase's sweep, so it takes the longer of the two.
    phase: SimDuration,
    /// Arrays per row tile: every column tile's signs and slices.
    row_tile_arrays: u64,
    /// Entry `k`: the occupied arrays' static energy, in fJ, over a
    /// matvec of `k` executed phases.
    static_fj: [u64; MAX_PHASES + 1],
}

impl MatvecCosts {
    fn new(config: &DpeConfig, adc: &Adc) -> Self {
        let adc_sweep = adc.conversion_time() * config.array_cols as u64;
        let conversion_fj = adc.conversion_energy().as_fj();
        MatvecCosts {
            // Magnitudes fit in input_bits-1 bits.
            n_digits: (config.input_bits - 1).div_ceil(config.dac_bits) as usize,
            read_phase: ReadPhaseEnergy::new(config.array_rows),
            conversion_fj,
            per_read_fj: (conversion_fj + cal::SHIFT_ADD_FJ) * config.array_cols as u64,
            per_drive_fj: cal::DAC_DRIVE_FJ * u64::from(config.dac_bits - 1),
            adc_sweep,
            phase: SETTLE.max(adc_sweep),
            row_tile_arrays: 0,
            static_fj: [0; MAX_PHASES + 1],
        }
    }

    /// Sets the tiling's counts: static power of the occupied arrays over
    /// the occupied interval, for every count of executed phases.
    fn set_tiling(&mut self, row_tiles: usize, col_tiles: usize, slices: usize) {
        self.row_tile_arrays = (col_tiles * 2 * slices) as u64;
        let arrays = (row_tiles * col_tiles * 2 * slices) as f64;
        for (k, fj) in (0u64..).zip(&mut self.static_fj[..=2 * self.n_digits]) {
            let latency = self.phase * k + self.adc_sweep;
            *fj = Energy::from_joules(cal::TILE_STATIC_W * arrays * latency.as_secs_f64()).as_fj();
        }
    }
}

/// Working buffers of [`DotProductEngine::matvec`], kept between calls so
/// neither tier allocates per phase or per call.
#[derive(Debug, Clone, Default)]
struct MatvecScratch {
    /// The quantized input, one signed entry per matrix row.
    q: Vec<i32>,
    /// Active rows of every (polarity, digit, row tile): entry
    /// `(row_tile · 2 + polarity) · digits + digit`.
    active: Vec<u32>,
    /// One (phase, row tile)'s driven rows as (tile row, DAC level),
    /// ascending; its first `active` entries are live (detailed tier
    /// only).
    driven: Vec<(usize, f64)>,
    /// One array's column sums (detailed tier only).
    sums: Vec<f64>,
    /// The shift-and-add accumulator, one entry per matrix column
    /// (detailed tier only).
    acc: Vec<f64>,
}

/// Adds one row tile's active rows to `counts`, which holds `n` positive
/// then `n` negative digit entries: `counts[d]` gains the rows whose
/// positive magnitude has a nonzero digit `d` of `dac_bits` bits, and
/// `counts[n + d]` those whose negative magnitude does. Magnitudes are
/// below 2^15, so there are at most 15 digits.
///
/// One pass and no data-dependent branch: each row's nonzero digits
/// become one bit each, which are spread into byte lanes and summed,
/// eight digits to a `u64`. A lane holds 255 rows, so the rows are taken
/// 255 at a time. At most 8 digits (8-bit inputs have 7) fill one `u64`
/// per polarity, so only more digits pay for a second.
fn count_active_rows(q: &[i32], dac_bits: u32, counts: &mut [u32]) {
    if counts.len() / 2 <= 8 {
        count_active_rows_in::<1>(q, dac_bits, counts);
    } else {
        count_active_rows_in::<2>(q, dac_bits, counts);
    }
}

/// [`count_active_rows`] with `HALVES` byte-lane words per polarity,
/// digits `0..8` in the first and `8..16` in the second.
fn count_active_rows_in<const HALVES: usize>(q: &[i32], dac_bits: u32, counts: &mut [u32]) {
    const ONES: u64 = 0x0101_0101_0101_0101;
    // Byte k of the result is bit k of `bits`, for k in 0..8.
    let spread = |bits: u64| {
        ((((bits & 0xFF) * ONES) & 0x8040_2010_0804_0201) + 0x7F7F_7F7F_7F7F_7F7F) >> 7 & ONES
    };
    let (pos, neg) = counts.split_at_mut(counts.len() / 2);
    let n_digits = pos.len() as u32;
    let digit_mask = (1u32 << dac_bits) - 1;
    for rows in q.chunks(255) {
        // Per polarity: digits 0..8, then digits 8..16.
        let mut lanes = [[0u64; HALVES]; 2];
        for &v in rows {
            let m = v.unsigned_abs();
            // Bit d is set when digit d of the magnitude is nonzero.
            let nonzero = if dac_bits == 1 {
                m
            } else {
                (0..n_digits).fold(0, |nz, d| {
                    nz | u32::from((m >> (d * dac_bits)) & digit_mask != 0) << d
                })
            };
            // All ones for a negative value, whose digits drive the
            // negative phases; a zero sets no bit in either.
            let negative = u64::from(v < 0).wrapping_neg();
            let [pos_lanes, neg_lanes] = &mut lanes;
            for ((p, n), half) in pos_lanes.iter_mut().zip(neg_lanes).zip(0..) {
                let bytes = spread(u64::from(nonzero >> (8 * half)));
                *p += bytes & !negative;
                *n += bytes & negative;
            }
        }
        for (lanes, counts) in lanes.iter().zip([&mut *pos, &mut *neg]) {
            for (d, count) in counts.iter_mut().enumerate() {
                *count += ((lanes[d / 8] >> (8 * (d % 8))) & 0xFF) as u32;
            }
        }
    }
}

/// The analytic tier's values: `scale · Σ_r q[r] · w[r][c]` for every
/// column `c` of the row-major `q.len() × cols` matrix `w`, the columns
/// taken in blocks whose sums stay in registers. Each column adds its
/// rows in ascending order, as a row-major pass would, so every value is
/// the same float. A zero input row adds ±0.0 to a sum that starts at
/// +0.0 and so is never −0.0: an exact no-op.
fn quantized_product(q: &[i32], w: &[f64], cols: usize, scale: f64) -> Vec<f64> {
    let mut values = Vec::with_capacity(cols);
    let mut c0 = 0;
    while cols - c0 >= 8 {
        column_block::<8>(q, w, cols, c0, scale, &mut values);
        c0 += 8;
    }
    if cols - c0 >= 4 {
        column_block::<4>(q, w, cols, c0, scale, &mut values);
        c0 += 4;
    }
    while c0 < cols {
        column_block::<1>(q, w, cols, c0, scale, &mut values);
        c0 += 1;
    }
    values
}

/// Appends columns `c0..c0 + B` of [`quantized_product`] to `values`.
fn column_block<const B: usize>(
    q: &[i32],
    w: &[f64],
    cols: usize,
    c0: usize,
    scale: f64,
    values: &mut Vec<f64>,
) {
    let mut acc = [0.0f64; B];
    for (&qr, row) in q.iter().zip(w.chunks_exact(cols)) {
        let qf = f64::from(qr);
        let block: &[f64; B] = row[c0..c0 + B].try_into().expect("B columns");
        for (a, &wv) in acc.iter_mut().zip(block) {
            *a += qf * wv;
        }
    }
    values.extend(acc.iter().map(|&a| a * scale));
}

impl DotProductEngine {
    /// Creates an unprogrammed engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`DpeConfig::validate`] to check fallibly first.
    pub fn new(config: DpeConfig, seeds: SeedTree) -> Self {
        config.validate().expect("invalid DPE configuration");
        // Full-scale column current: every row driven at the maximum DAC
        // digit into a maximum-conductance cell.
        let max_drive = ((1u32 << config.dac_bits) - 1) as f64;
        let full_scale =
            (config.array_rows as f64) * f64::from(config.device.max_level().max(1)) * max_drive;
        let adc = Adc::new(config.adc_bits, full_scale).expect("validated adc bits");
        let costs = MatvecCosts::new(&config, &adc);
        DotProductEngine {
            config,
            adc,
            seeds,
            arrays: Vec::new(),
            weight_quant: None,
            q_weights: Vec::new(),
            mode: SimMode::Detailed,
            matrix_rows: 0,
            matrix_cols: 0,
            total_energy: Energy::ZERO,
            total_busy: SimDuration::ZERO,
            mvm_count: 0,
            tel: Telemetry::disabled(),
            tel_path: String::new(),
            tel_array: ComponentId::NONE,
            tel_dac: ComponentId::NONE,
            tel_adc: ComponentId::NONE,
            tel_digital: ComponentId::NONE,
            costs,
            scratch: MatvecScratch::default(),
        }
    }

    /// Attaches a telemetry sink; subsequent operations attribute energy,
    /// latency and event counts to `{path}/array`, `{path}/dac`,
    /// `{path}/adc` and `{path}/digital`. Component ids are interned here
    /// once, so the hot matvec loop never formats a path. Attaching a
    /// disabled handle (the default state) keeps every event a no-op.
    pub fn attach_telemetry(&mut self, t: &Telemetry, path: &str) {
        self.tel = t.clone();
        self.tel_path = path.to_owned();
        self.tel_array = t.component(&format!("{path}/array"));
        self.tel_dac = t.component(&format!("{path}/dac"));
        self.tel_adc = t.component(&format!("{path}/adc"));
        self.tel_digital = t.component(&format!("{path}/digital"));
    }

    /// The engine configuration.
    pub fn config(&self) -> &DpeConfig {
        &self.config
    }

    /// Selects the simulation tier for subsequent matvecs.
    ///
    /// In [`SimMode::Analytic`] the per-op cost is replayed in closed
    /// form from the quantized digit pattern — integer-identical to the
    /// detailed cost on every configuration — while values are the exact
    /// quantized product (no analog noise, no ADC reconstruction error,
    /// and cell faults injected via
    /// [`for_each_array`](Self::for_each_array) are not observed).
    pub fn set_mode(&mut self, mode: SimMode) {
        self.mode = mode;
    }

    /// The active simulation tier.
    pub fn mode(&self) -> SimMode {
        self.mode
    }

    /// Programs (or reprograms) the engine with a weight matrix of shape
    /// `inputs × outputs`. Returns the programming cost — dominated by the
    /// slow memristor writes, the asymmetry §VI highlights.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is degenerate (see
    /// [`DenseMatrix::new`]).
    pub fn program(&mut self, weights: &DenseMatrix) -> Result<OpCost> {
        let wq = Quantizer::new(
            self.config.weight_bits,
            weights.max_abs().max(f64::MIN_POSITIVE),
        )
        .or_else(|| Quantizer::new(self.config.weight_bits, 1.0))
        .expect("validated weight bits");
        let (ar, ac) = (self.config.array_rows, self.config.array_cols);
        let row_tiles = weights.rows().div_ceil(ar);
        let col_tiles = weights.cols().div_ceil(ac);
        let slices = self.config.slices();
        let cell_bits = self.config.device.bits;
        let slice_mask = (1u64 << cell_bits) - 1;
        let mut cost = OpCost::default();

        // One array's level matrix, reused: only the tile's real rows and
        // columns are written. Padding quantizes to level 0, which leaves
        // a cell pristine, so it is cleared once per tile.
        let mut levels = vec![0u16; ar * ac];
        let mut q = Vec::new();
        // The quantized signed weights for the analytic tier, row-major,
        // filled tile by tile from the same quantization the arrays take,
        // so analytic values see the identical grid.
        let mut q_weights = vec![0.0; weights.rows() * weights.cols()];
        let mut all = Vec::with_capacity(row_tiles);
        for rt in 0..row_tiles {
            let mut row = Vec::with_capacity(col_tiles);
            for ct in 0..col_tiles {
                let (r0, c0) = (rt * ar, ct * ac);
                let (h, w) = ((weights.rows() - r0).min(ar), (weights.cols() - c0).min(ac));
                // Quantize the tile once; each array takes one sign and
                // one slice of the magnitudes (little-endian slices).
                q.clear();
                for r in 0..h {
                    q.extend((0..w).map(|c| wq.quantize(weights.get(r0 + r, c0 + c))));
                    let at = (r0 + r) * weights.cols() + c0;
                    for (qw, &v) in q_weights[at..at + w].iter_mut().zip(&q[r * w..]) {
                        *qw = v as f64;
                    }
                }
                levels.fill(0);
                let mut pair: [Vec<CrossbarArray>; 2] = [Vec::new(), Vec::new()];
                for (sign, stack) in pair.iter_mut().enumerate() {
                    for s in 0..slices {
                        let shift = s as u32 * cell_bits;
                        for (r, qs) in q.chunks_exact(w).enumerate() {
                            for (lv, &v) in levels[r * ac..r * ac + w].iter_mut().zip(qs) {
                                *lv = if (v < 0) == (sign == 1) {
                                    ((v.unsigned_abs() >> shift) & slice_mask) as u16
                                } else {
                                    0
                                };
                            }
                        }
                        let seeds = self
                            .seeds
                            .child("dpe-array")
                            .child_idx((rt * col_tiles + ct) as u64)
                            .child_idx((sign * slices + s) as u64);
                        let mut xbar =
                            CrossbarArray::new(ar, ac, self.config.device.clone(), seeds);
                        // All arrays program in parallel (independent write
                        // drivers): latency joins, energy adds.
                        let c = xbar.program_levels(&levels)?;
                        cost = cost.par(c);
                        stack.push(xbar);
                    }
                }
                row.push(pair);
            }
            all.push(row);
        }

        self.arrays = all;
        self.costs.set_tiling(row_tiles, col_tiles, slices);
        self.weight_quant = Some(wq);
        self.q_weights = q_weights;
        self.matrix_rows = weights.rows();
        self.matrix_cols = weights.cols();
        self.total_energy += cost.energy;
        self.total_busy += cost.latency;
        if self.tel.is_enabled() {
            // Programming cost is kept out of the matvec breakdown
            // categories; §VI treats the write asymmetry separately.
            self.tel
                .counter_add(self.tel_array, "program_energy_fj", cost.energy.as_fj());
            self.tel
                .counter_add(self.tel_array, "program_ps", cost.latency.as_ps());
            self.tel.counter_add(self.tel_array, "programs", 1);
        }
        Ok(cost)
    }

    /// Physical footprint of the programmed matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::NotProgrammed`] before the first program.
    pub fn footprint(&self) -> Result<DpeFootprint> {
        if self.arrays.is_empty() {
            return Err(CrossbarError::NotProgrammed);
        }
        let row_tiles = self.arrays.len();
        let col_tiles = self.arrays[0].len();
        let arrays = row_tiles * col_tiles * 2 * self.config.slices();
        Ok(DpeFootprint {
            arrays,
            cells: arrays * self.config.array_rows * self.config.array_cols,
            row_tiles,
            col_tiles,
        })
    }

    /// Computes `y = xᵀ·W` on the analog fabric.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::NotProgrammed`] before programming,
    /// [`CrossbarError::DimensionMismatch`] for a wrong-length input, or
    /// [`CrossbarError::InvalidConfig`] if an input entry is not finite.
    pub fn matvec(&mut self, x: &[f64]) -> Result<DpeOutput> {
        if self.arrays.is_empty() {
            return Err(CrossbarError::NotProgrammed);
        }
        if x.len() != self.matrix_rows {
            return Err(CrossbarError::DimensionMismatch {
                expected: self.matrix_rows,
                actual: x.len(),
                what: "input vector length",
            });
        }
        // One pass takes the input range and checks every entry finite.
        let (max_abs, finite) = x.iter().fold((0.0f64, true), |(m, finite), &v| {
            let a = v.abs();
            (if a > m { a } else { m }, finite & (a <= f64::MAX))
        });
        if !finite {
            let i = x
                .iter()
                .position(|v| !v.is_finite())
                .expect("a non-finite entry failed the check");
            return Err(CrossbarError::InvalidConfig {
                reason: format!("input entry {i} is {}, inputs must be finite", x[i]),
            });
        }
        let wq = self
            .weight_quant
            .expect("programmed engine has a quantizer");
        let xq = Quantizer::new(self.config.input_bits, max_abs.max(f64::MIN_POSITIVE))
            .or_else(|| Quantizer::new(self.config.input_bits, 1.0))
            .expect("validated input bits");
        let costs = &self.costs;
        let (ar, ac) = (self.config.array_rows, self.config.array_cols);
        let dac_bits = self.config.dac_bits;
        // Digits are streamed little-endian, positive and negative
        // polarities separately (an analog sum cannot mix signs on the
        // same wire).
        let n_digits = costs.n_digits;
        let n_phases = 2 * n_digits;
        let row_tiles = self.arrays.len();

        // input_bits ≤ 16, so a quantized value fits an i32.
        let scratch = &mut self.scratch;
        scratch.q.clear();
        scratch.q.extend(x.iter().map(|&v| xq.quantize(v) as i32));
        // Every phase's active rows, counted once for both tiers.
        scratch.active.clear();
        scratch.active.resize(row_tiles * n_phases, 0);
        for (tile, counts) in scratch
            .q
            .chunks(ar)
            .zip(scratch.active.chunks_exact_mut(n_phases))
        {
            count_active_rows(tile, dac_bits, counts);
        }

        // The read phases' integer charges follow from the counts alone:
        // every array of a row tile sees the same driven rows, so each
        // (phase, row tile) charges one array's integers times the array
        // count, on both tiers. Phases run positive polarity first, digit
        // 0 upward.
        let n_arr = costs.row_tile_arrays;
        let tel_on = self.tel.is_enabled();
        let (mut reads, mut drives, mut read_phase_sum_fj) = (0u64, 0u64, 0u64);
        let mut executed_phases = 0usize;
        for phase in 0..n_phases {
            let (mut phase_reads, mut phase_drives, mut phase_array_fj) = (0u64, 0u64, 0u64);
            for counts in scratch.active.chunks_exact(n_phases) {
                let active = u64::from(counts[phase]);
                phase_reads += u64::from(active != 0);
                phase_drives += active;
                phase_array_fj += costs.read_phase.fj(active);
            }
            executed_phases += usize::from(phase_reads > 0);
            if tel_on && phase_reads > 0 {
                let phase_fj = (phase_array_fj
                    + costs.per_drive_fj * phase_drives
                    + costs.per_read_fj * phase_reads)
                    * n_arr;
                self.tel.record(self.tel_array, "phase_energy_fj", phase_fj);
            }
            reads += phase_reads;
            drives += phase_drives;
            read_phase_sum_fj += phase_array_fj;
        }
        let slice_reads = reads * n_arr;
        let dac_drives = drives * n_arr;
        let conversions = slice_reads * ac as u64;
        // Per-category energy in fJ, for telemetry to attribute to DAC /
        // ADC / array / digital.
        let array_fj = read_phase_sum_fj * n_arr;
        let dac_fj = costs.per_drive_fj * dac_drives;
        let adc_fj = costs.conversion_fj * conversions;
        let digital_fj = cal::SHIFT_ADD_FJ * conversions;

        // Latency: executed phases run back to back; within a phase the
        // analog settle overlaps the previous phase's ADC sweep
        // (pipelined), so the phase time is the max of the two. All
        // arrays operate in parallel (each has its own ADC). One trailing
        // ADC sweep drains the pipeline. Static power of the occupied
        // tiles is charged over that interval.
        let pipelined = costs.phase * executed_phases as u64;
        let latency = pipelined + costs.adc_sweep;
        let static_fj = costs.static_fj[executed_phases];
        let energy = Energy::from_fj(array_fj + dac_fj + adc_fj + digital_fj + static_fj);

        if tel_on {
            // Latency attribution is disjoint so per-stage busy times sum
            // exactly to the matvec latency: each pipelined phase goes to
            // the dominant stage, the trailing drain sweep to the ADC.
            let (array_ps, adc_ps) = if SETTLE >= costs.adc_sweep {
                (pipelined.as_ps(), costs.adc_sweep.as_ps())
            } else {
                (0, latency.as_ps())
            };
            self.tel
                .counter_add(self.tel_array, "energy_fj", array_fj + static_fj);
            self.tel
                .counter_add(self.tel_array, "static_energy_fj", static_fj);
            self.tel.counter_add(self.tel_array, "busy_ps", array_ps);
            self.tel
                .counter_add(self.tel_array, "read_phases", slice_reads);
            self.tel
                .counter_add(self.tel_array, "mac_ops", self.macs_per_matvec());
            self.tel.counter_add(self.tel_dac, "energy_fj", dac_fj);
            self.tel.counter_add(self.tel_dac, "drives", dac_drives);
            self.tel.counter_add(self.tel_adc, "energy_fj", adc_fj);
            self.tel.counter_add(self.tel_adc, "busy_ps", adc_ps);
            self.tel
                .counter_add(self.tel_adc, "conversions", conversions);
            self.tel
                .counter_add(self.tel_digital, "energy_fj", digital_fj);
            self.tel.counter_add(self.tel_digital, "mvms", 1);
        }

        let scale = wq.step() * xq.step();
        let values = match self.mode {
            SimMode::Detailed => {
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.acc.clear();
                scratch.acc.resize(self.matrix_cols, 0.0);
                self.read_phases(&mut scratch, n_digits);
                let values = scratch.acc.iter().map(|&a| a * scale).collect();
                self.scratch = scratch;
                values
            }
            // Exact quantized product: no analog noise, no ADC.
            SimMode::Analytic => {
                quantized_product(&self.scratch.q, &self.q_weights, self.matrix_cols, scale)
            }
        };
        let cost = OpCost { latency, energy };
        self.total_energy += cost.energy;
        self.total_busy += cost.latency;
        self.mvm_count += 1;
        Ok(DpeOutput { values, cost })
    }

    /// The detailed tier's analog reads: for every (phase, row tile) with
    /// active rows, in phase order, lists the driven rows once and reads
    /// every array of the tile over them, adding each returned column's
    /// ADC reconstruction into `scratch.acc`. Rows are listed ascending,
    /// so each array draws its read noise in row-then-column order.
    fn read_phases(&mut self, scratch: &mut MatvecScratch, n_digits: usize) {
        let (ar, ac) = (self.config.array_rows, self.config.array_cols);
        let dac_bits = self.config.dac_bits;
        let digit_base = 1u64 << dac_bits;
        let digit_mask = (digit_base - 1) as u32;
        scratch.driven.resize(ar.min(self.matrix_rows), (0, 0.0));
        for (polarity, (polarity_i, polarity_f)) in
            [(1, 1.0f64), (-1, -1.0)].into_iter().enumerate()
        {
            for d in 0..n_digits {
                let digit_weight = polarity_f * digit_base.pow(d as u32) as f64;
                let shift = d as u32 * dac_bits;
                for (rt, tile_arrays) in self.arrays.iter_mut().enumerate() {
                    let active = scratch.active[(rt * 2 + polarity) * n_digits + d] as usize;
                    if active == 0 {
                        continue;
                    }
                    // Padding rows past the matrix are never driven. A
                    // row's magnitude in this polarity is its quantized
                    // value's, or 0 for the other sign.
                    let rows = &scratch.q[rt * ar..((rt + 1) * ar).min(self.matrix_rows)];
                    let levels = rows
                        .iter()
                        .map(|&v| ((polarity_i * v).max(0) as u32 >> shift) & digit_mask);
                    let n = driven_rows(levels, &mut scratch.driven);
                    debug_assert_eq!(n, active);
                    let driven = &scratch.driven[..n];
                    for (ct, pair) in tile_arrays.iter_mut().enumerate() {
                        // Only the columns the engine returns are
                        // converted; a padding column's code never
                        // reaches the output. All `ac` conversions are
                        // still charged.
                        let kept = (self.matrix_cols - ct * ac).min(ac);
                        let acc = &mut scratch.acc[ct * ac..ct * ac + kept];
                        for (sign, stack) in pair.iter_mut().enumerate() {
                            let sign_f = if sign == 0 { 1.0 } else { -1.0 };
                            for (s, xbar) in stack.iter_mut().enumerate() {
                                xbar.read_driven(driven, &mut scratch.sums);
                                let slice_weight =
                                    (1u64 << (s as u32 * self.config.device.bits)) as f64;
                                let weight = sign_f * digit_weight * slice_weight;
                                for (a, &sum) in acc.iter_mut().zip(&scratch.sums) {
                                    // A zero sum converts to code 0 and
                                    // would add ±0.0 to an accumulator
                                    // that starts at +0.0 and so is
                                    // never −0.0: an exact no-op.
                                    if sum != 0.0 {
                                        let code = self.adc.convert(sum);
                                        *a += weight * self.adc.reconstruct(code);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Re-derives every array's read-noise stream from `seeds`, using the
    /// same per-array derivation as [`program`](Self::program). The
    /// engine's own seed tree is replaced, so subsequent operations are a
    /// pure function of `seeds` regardless of prior history.
    pub fn reseed(&mut self, seeds: SeedTree) {
        self.seeds = seeds;
        let slices = self.config.slices();
        for (rt, row) in self.arrays.iter_mut().enumerate() {
            let col_tiles = row.len();
            for (ct, pair) in row.iter_mut().enumerate() {
                for (sign, stack) in pair.iter_mut().enumerate() {
                    for (s, xbar) in stack.iter_mut().enumerate() {
                        xbar.reseed(
                            seeds
                                .child("dpe-array")
                                .child_idx((rt * col_tiles + ct) as u64)
                                .child_idx((sign * slices + s) as u64),
                        );
                    }
                }
            }
        }
    }

    /// Runs a batch of inputs through the engine: each item executes on
    /// its own engine shard (the batched deployment of §VI — replicated
    /// weights behind independent ADCs), so the combined cost is
    /// [`OpCost::par`] across items (max latency, summed energy).
    ///
    /// Host threads come from `CIM_THREADS` (see [`cim_sim::pool`]).
    /// Results are bit-identical at every thread count: item `i` computes
    /// with the seed stream `seeds/batch/{mvm_count}/{i}` regardless of
    /// which shard runs it, and shard-local telemetry registries are
    /// merged into the attached sink in shard order.
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest-index) [`matvec`](Self::matvec) error.
    pub fn matvec_batch(&mut self, xs: &[Vec<f64>]) -> Result<(Vec<Vec<f64>>, OpCost)> {
        self.matvec_batch_threads(xs, cim_sim::pool::thread_count())
    }

    /// [`matvec_batch`](Self::matvec_batch) with an explicit host thread
    /// count (`1` forces the serial in-line path; results are identical).
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest-index) [`matvec`](Self::matvec) error.
    pub fn matvec_batch_threads(
        &mut self,
        xs: &[Vec<f64>],
        threads: usize,
    ) -> Result<(Vec<Vec<f64>>, OpCost)> {
        if self.arrays.is_empty() {
            return Err(CrossbarError::NotProgrammed);
        }
        if xs.is_empty() {
            return Ok((Vec::new(), OpCost::default()));
        }
        let base = self.seeds.child("batch").child_idx(self.mvm_count);
        let shard_level = self.tel.level();
        let shard_enabled = self.tel.is_enabled();
        let this = &*self;
        let (results, shards) = cim_sim::pool::parallel_map_reduce(
            threads,
            xs,
            |_| {
                let mut eng = this.clone();
                // Shards record into private sinks so the merged export
                // is independent of the item→thread partition; a shared
                // sink would interleave nondeterministically.
                let tel = if shard_enabled {
                    let t = Telemetry::new(shard_level);
                    eng.attach_telemetry(&t, &this.tel_path);
                    Some(t)
                } else {
                    None
                };
                (eng, tel)
            },
            |(eng, _), i, x| {
                eng.reseed(base.child_idx(i as u64));
                eng.matvec(x)
            },
        );

        let mut outs = Vec::with_capacity(xs.len());
        let mut cost = OpCost::default();
        for r in results {
            let out = r?;
            cost = cost.par(out.cost);
            outs.push(out.values);
        }
        for (_, tel) in &shards {
            if let Some(reg) = tel.as_ref().and_then(Telemetry::registry_clone) {
                self.tel.merge_registry(&reg);
            }
        }
        self.total_energy += cost.energy;
        self.total_busy += cost.latency;
        self.mvm_count += xs.len() as u64;
        // Leave the engine's RNG state a pure function of (seed, item
        // count) so post-batch operations are partition-independent too.
        self.reseed(base.child_idx(xs.len() as u64));
        Ok((outs, cost))
    }

    /// Effective MAC operations performed per [`matvec`](Self::matvec):
    /// every occupied cell pair contributes, as the analog read is
    /// all-rows × all-columns.
    pub fn macs_per_matvec(&self) -> u64 {
        (self.matrix_rows * self.matrix_cols) as u64
    }

    /// Total energy consumed since construction.
    pub fn total_energy(&self) -> Energy {
        self.total_energy
    }

    /// Total busy time accumulated since construction.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Number of matrix–vector products performed.
    pub fn mvm_count(&self) -> u64 {
        self.mvm_count
    }

    /// Total programming pulses absorbed across all arrays — the wear
    /// telemetry the serviceability layer (§V.D) reads.
    pub fn programmed_pulses(&self) -> u64 {
        self.arrays
            .iter()
            .flatten()
            .flat_map(|pair| pair.iter())
            .flatten()
            .map(CrossbarArray::total_writes)
            .sum()
    }

    /// Direct access to the underlying arrays for fault-injection
    /// campaigns: `f` receives `(row_tile, col_tile, sign, slice, array)`.
    pub fn for_each_array(
        &mut self,
        mut f: impl FnMut(usize, usize, usize, usize, &mut CrossbarArray),
    ) {
        for (rt, row) in self.arrays.iter_mut().enumerate() {
            for (ct, pair) in row.iter_mut().enumerate() {
                for (sign, stack) in pair.iter_mut().enumerate() {
                    for (s, xbar) in stack.iter_mut().enumerate() {
                        f(rt, ct, sign, s, xbar);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(config: DpeConfig) -> DotProductEngine {
        DotProductEngine::new(config, SeedTree::new(42))
    }

    fn max_rel_err(got: &[f64], want: &[f64]) -> f64 {
        let scale = want.iter().fold(1e-9f64, |m, &x| m.max(x.abs()));
        got.iter()
            .zip(want)
            .map(|(a, b)| (a - b).abs() / scale)
            .fold(0.0, f64::max)
    }

    #[test]
    fn ideal_engine_matches_exact_matvec() {
        let w = DenseMatrix::from_fn(16, 8, |r, c| ((r * 8 + c) as f64 / 64.0) - 1.0);
        let mut dpe = engine(DpeConfig::ideal());
        dpe.program(&w).unwrap();
        let x: Vec<f64> = (0..16).map(|i| (i as f64 / 8.0) - 1.0).collect();
        let out = dpe.matvec(&x).unwrap();
        let exact = w.matvec(&x).unwrap();
        assert!(
            max_rel_err(&out.values, &exact) < 0.02,
            "got {:?} want {:?}",
            out.values,
            exact
        );
    }

    #[test]
    fn tiled_matrix_matches_exact() {
        // Matrix larger than one 128x128 array in both dimensions.
        let w = DenseMatrix::from_fn(200, 150, |r, c| ((r as f64).sin() * (c as f64).cos()) / 2.0);
        let mut dpe = engine(DpeConfig::ideal());
        dpe.program(&w).unwrap();
        let fp = dpe.footprint().unwrap();
        assert_eq!(fp.row_tiles, 2);
        assert_eq!(fp.col_tiles, 2);
        let x: Vec<f64> = (0..200)
            .map(|i| ((i * 7 % 13) as f64 / 13.0) - 0.5)
            .collect();
        let out = dpe.matvec(&x).unwrap();
        let exact = w.matvec(&x).unwrap();
        assert!(max_rel_err(&out.values, &exact) < 0.03);
    }

    #[test]
    fn noisy_engine_is_approximately_correct() {
        let w = DenseMatrix::from_fn(64, 32, |r, c| (((r + 3 * c) % 17) as f64 / 17.0) - 0.5);
        let mut dpe = engine(DpeConfig::default());
        dpe.program(&w).unwrap();
        let x: Vec<f64> = (0..64).map(|i| ((i % 9) as f64 / 9.0) - 0.4).collect();
        let out = dpe.matvec(&x).unwrap();
        let exact = w.matvec(&x).unwrap();
        let err = max_rel_err(&out.values, &exact);
        assert!(err < 0.15, "noisy relative error too large: {err}");
        assert!(err > 0.0, "noise should perturb the result");
    }

    #[test]
    fn errors_on_misuse() {
        let mut dpe = engine(DpeConfig::ideal());
        assert_eq!(
            dpe.matvec(&[1.0]).unwrap_err(),
            CrossbarError::NotProgrammed
        );
        assert!(dpe.footprint().is_err());
        let w = DenseMatrix::from_fn(4, 4, |_, _| 0.5);
        dpe.program(&w).unwrap();
        assert!(matches!(
            dpe.matvec(&[1.0, 2.0]),
            Err(CrossbarError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_inputs_are_rejected() {
        let w = DenseMatrix::from_fn(4, 2, |r, c| (r + c) as f64 / 5.0);
        for mode in [SimMode::Detailed, SimMode::Analytic] {
            let mut dpe = engine(DpeConfig::ideal());
            dpe.set_mode(mode);
            dpe.program(&w).unwrap();
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(
                    matches!(
                        dpe.matvec(&[0.5, bad, 0.25, 0.0]),
                        Err(CrossbarError::InvalidConfig { .. })
                    ),
                    "{mode:?} accepted {bad}"
                );
            }
            assert_eq!(dpe.mvm_count(), 0, "a rejected input costs nothing");
        }
    }

    #[test]
    fn programming_dominates_first_use_latency() {
        let w = DenseMatrix::from_fn(128, 128, |_, _| 0.25);
        let mut dpe = engine(DpeConfig::ideal());
        let prog = dpe.program(&w).unwrap();
        let run = dpe.matvec(&vec![0.5; 128]).unwrap();
        assert!(
            prog.latency.as_ps() > 3 * run.cost.latency.as_ps(),
            "write asymmetry: program {} vs matvec {}",
            prog.latency,
            run.cost.latency
        );
    }

    #[test]
    fn matvec_latency_scales_with_input_bits() {
        let w = DenseMatrix::from_fn(32, 32, |_, _| 0.5);
        let mut lat = Vec::new();
        for bits in [4u32, 8, 16] {
            let mut dpe = engine(DpeConfig {
                input_bits: bits,
                ..DpeConfig::ideal()
            });
            dpe.program(&w).unwrap();
            lat.push(dpe.matvec(&vec![0.5; 32]).unwrap().cost.latency);
        }
        assert!(lat[0] < lat[1] && lat[1] < lat[2]);
    }

    #[test]
    fn low_adc_bits_degrade_accuracy() {
        let w = DenseMatrix::from_fn(128, 16, |r, c| (((r + c) % 29) as f64 / 29.0) - 0.5);
        let x: Vec<f64> = (0..128).map(|i| (i % 11) as f64 / 11.0).collect();
        let exact = w.matvec(&x).unwrap();
        let mut errs = Vec::new();
        for adc_bits in [4u32, 8, 14] {
            let mut dpe = engine(DpeConfig {
                adc_bits,
                device: DeviceParams::ideal(cal::CELL_BITS),
                ..DpeConfig::default()
            });
            dpe.program(&w).unwrap();
            let out = dpe.matvec(&x).unwrap();
            errs.push(max_rel_err(&out.values, &exact));
        }
        assert!(
            errs[0] > errs[2],
            "4-bit ADC must be worse than 14-bit: {errs:?}"
        );
        assert!(errs[2] < 0.02, "14-bit ADC should be near-exact: {errs:?}");
    }

    #[test]
    fn batch_combines_cost_in_parallel() {
        let w = DenseMatrix::from_fn(8, 8, |_, _| 0.5);
        let mut dpe = engine(DpeConfig::ideal());
        dpe.program(&w).unwrap();
        let single = dpe.matvec(&[0.1; 8]).unwrap().cost;
        let (outs, cost) = dpe.matvec_batch(&vec![vec![0.1; 8]; 4]).unwrap();
        assert_eq!(outs.len(), 4);
        // Items run on parallel engine shards: latency is the max across
        // identical items, energy the sum.
        assert_eq!(cost.latency, single.latency);
        assert_eq!(cost.energy.as_fj(), single.energy.as_fj() * 4);
        assert_eq!(dpe.mvm_count(), 5);
    }

    #[test]
    fn batch_is_bit_identical_across_thread_counts() {
        // Noisy config so the per-item RNG reseeding actually matters.
        let w = DenseMatrix::from_fn(32, 16, |r, c| (((r + 5 * c) % 13) as f64 / 13.0) - 0.5);
        let xs: Vec<Vec<f64>> = (0..9)
            .map(|i| {
                (0..32)
                    .map(|j| (((i + j) % 7) as f64 / 7.0) - 0.5)
                    .collect()
            })
            .collect();
        let run = |threads: usize| {
            let mut dpe = engine(DpeConfig::default());
            dpe.program(&w).unwrap();
            dpe.matvec_batch_threads(&xs, threads).unwrap()
        };
        let (outs1, cost1) = run(1);
        for threads in [2, 3, 8] {
            let (outs, cost) = run(threads);
            assert_eq!(outs, outs1, "threads={threads}");
            assert_eq!(cost, cost1, "threads={threads}");
        }
    }

    #[test]
    fn batch_telemetry_is_byte_identical_across_thread_counts() {
        use cim_sim::telemetry::{Telemetry, TelemetryLevel};
        let w = DenseMatrix::from_fn(32, 16, |r, c| (((r * 2 + c) % 11) as f64 / 11.0) - 0.5);
        let xs: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                (0..32)
                    .map(|j| (((i * 3 + j) % 5) as f64 / 5.0) - 0.3)
                    .collect()
            })
            .collect();
        let run = |threads: usize| {
            let mut dpe = engine(DpeConfig::default());
            let t = Telemetry::new(TelemetryLevel::Metrics);
            dpe.attach_telemetry(&t, "mu0");
            dpe.program(&w).unwrap();
            dpe.matvec_batch_threads(&xs, threads).unwrap();
            t.export_jsonl()
        };
        let serial = run(1);
        assert!(!serial.is_empty());
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn batch_state_after_run_is_partition_independent() {
        // A batch followed by more work must not depend on how the batch
        // was sharded: the engine reseeds to a defined post-batch state.
        let w = DenseMatrix::from_fn(16, 8, |r, c| (((r + c) % 9) as f64 / 9.0) - 0.4);
        let x: Vec<f64> = (0..16).map(|i| ((i % 4) as f64 / 4.0) - 0.3).collect();
        let run = |threads: usize| {
            let mut dpe = engine(DpeConfig::default());
            dpe.program(&w).unwrap();
            dpe.matvec_batch_threads(&vec![x.clone(); 5], threads)
                .unwrap();
            dpe.matvec(&x).unwrap().values
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn footprint_counts_arrays() {
        let w = DenseMatrix::from_fn(128, 128, |_, _| 0.5);
        let mut dpe = engine(DpeConfig::ideal());
        dpe.program(&w).unwrap();
        let fp = dpe.footprint().unwrap();
        // 1 row tile × 1 col tile × 2 signs × ceil(15/2)=8 slices
        assert_eq!(fp.arrays, 16);
        assert_eq!(fp.cells, 16 * 128 * 128);
    }

    #[test]
    fn wider_dac_digits_cut_latency_not_accuracy() {
        let w = DenseMatrix::from_fn(64, 32, |r, c| (((r * 3 + c) % 23) as f64 / 23.0) - 0.5);
        let x: Vec<f64> = (0..64).map(|i| ((i % 9) as f64 / 9.0) - 0.45).collect();
        let exact = w.matvec(&x).unwrap();
        let mut lats = Vec::new();
        for dac_bits in [1u32, 2, 4] {
            let mut dpe = engine(DpeConfig {
                dac_bits,
                input_bits: 8,
                ..DpeConfig::ideal()
            });
            dpe.program(&w).unwrap();
            let out = dpe.matvec(&x).unwrap();
            assert!(
                max_rel_err(&out.values, &exact) < 0.02,
                "dac_bits={dac_bits} must stay accurate"
            );
            lats.push(out.cost.latency);
        }
        assert!(lats[1] < lats[0], "2-bit digits halve the phase count");
        assert!(lats[2] < lats[1], "4-bit digits cut it again");
    }

    #[test]
    fn multi_level_read_phase_matches_scaled_sum() {
        let mut a = CrossbarArray::new(3, 2, DeviceParams::ideal(2), SeedTree::new(9));
        a.program_levels(&[1, 2, 3, 0, 2, 2]).unwrap();
        // levels [2, 0, 3] -> col sums: 2*[1,2] + 3*[2,2] = [8, 10]
        let sums = a.read_phase_levels(&[2, 0, 3]).unwrap();
        assert_eq!(sums, vec![8.0, 10.0]);
        assert!(a.read_phase_levels(&[1, 1]).is_err(), "wrong length");
    }

    #[test]
    fn all_negative_inputs_skip_positive_phases() {
        let w = DenseMatrix::from_fn(16, 8, |_, _| 0.25);
        let mut dpe = engine(DpeConfig::ideal());
        dpe.program(&w).unwrap();
        let neg = dpe.matvec(&[-0.5; 16]).unwrap();
        let mixed_x: Vec<f64> = (0..16)
            .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let mixed = dpe.matvec(&mixed_x).unwrap();
        assert!(
            neg.cost.latency < mixed.cost.latency,
            "single-polarity inputs need half the phases: {} vs {}",
            neg.cost.latency,
            mixed.cost.latency
        );
        // And the math still works.
        let exact = w.matvec(&[-0.5; 16]).unwrap();
        assert!(max_rel_err(&neg.values, &exact) < 0.02);
    }

    #[test]
    fn active_rows_match_a_per_digit_count() {
        use cim_sim::prop::{check, PropConfig};
        use cim_sim::prop_assert_eq;
        use cim_sim::rng::Rng;
        check(
            "byte-lane active-row counts equal a per-digit count",
            &PropConfig::cases(300),
            |rng| {
                let input_bits = rng.gen_range(2u32..17);
                let dac_bits = rng.gen_range(1u32..input_bits.min(9));
                let qmax = (1i32 << (input_bits - 1)) - 1;
                // Up to three lanes' worth of rows. A constant tile sets
                // the same digits in every row, which fills a lane.
                let rows = rng.gen_range(0usize..700);
                let constant = rng.gen_range(-qmax..qmax + 1);
                let same = rng.gen_bool(0.3);
                let zeros = if rng.gen_bool(0.5) {
                    0
                } else {
                    rng.gen_range(0u32..101)
                };
                let q: Vec<i32> = (0..rows)
                    .map(|_| {
                        if rng.gen_range(0u32..100) < zeros {
                            0
                        } else if same {
                            constant
                        } else {
                            rng.gen_range(-qmax..qmax + 1)
                        }
                    })
                    .collect();
                (input_bits, dac_bits, q)
            },
            |&(input_bits, dac_bits, ref q)| {
                let qmax = (1i32 << (input_bits.clamp(2, 16) - 1)) - 1;
                if !(1..input_bits.min(9)).contains(&dac_bits) || q.iter().any(|v| v.abs() > qmax) {
                    // A shrink step left the engine's valid range.
                    return Ok(());
                }
                let n_digits = (input_bits - 1).div_ceil(dac_bits) as usize;
                let mut got = vec![0u32; 2 * n_digits];
                count_active_rows(q, dac_bits, &mut got);
                let digit_mask = (1i32 << dac_bits) - 1;
                let want: Vec<u32> = (0..2 * n_digits)
                    .map(|i| {
                        let sign = if i < n_digits { 1 } else { -1 };
                        let shift = (i % n_digits) as u32 * dac_bits;
                        q.iter()
                            .filter(|&&v| ((sign * v).max(0) >> shift) & digit_mask != 0)
                            .count() as u32
                    })
                    .collect();
                prop_assert_eq!(got, want);
                Ok(())
            },
        );
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let c = DpeConfig {
            weight_bits: 1,
            ..DpeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = DpeConfig {
            array_rows: 0,
            ..DpeConfig::default()
        };
        assert!(c.validate().is_err());
        // Arrays past u32::MAX cells are refused before program() could
        // allocate their level matrix; the product may overflow usize.
        for (rows, cols) in [(65_536, 65_537), (usize::MAX / 2, 3), (65_536, 65_536)] {
            let c = DpeConfig {
                array_rows: rows,
                array_cols: cols,
                ..DpeConfig::default()
            };
            assert!(
                matches!(c.validate(), Err(CrossbarError::InvalidConfig { .. })),
                "{rows}x{cols}"
            );
        }
        let largest = DpeConfig {
            array_rows: 65_537,
            array_cols: 65_535,
            ..DpeConfig::default()
        };
        assert_eq!(largest.array_rows * largest.array_cols, u32::MAX as usize);
        assert!(largest.validate().is_ok());
        assert!(DpeConfig::default().validate().is_ok());
    }

    #[test]
    fn telemetry_decomposition_matches_reported_cost() {
        use cim_sim::telemetry::{Telemetry, TelemetryLevel};
        let w = DenseMatrix::from_fn(200, 150, |r, c| (((r + 2 * c) % 19) as f64 / 19.0) - 0.5);
        let mut dpe = engine(DpeConfig::noise_free());
        let t = Telemetry::new(TelemetryLevel::Metrics);
        dpe.attach_telemetry(&t, "mu0");
        dpe.program(&w).unwrap();
        let x: Vec<f64> = (0..200).map(|i| ((i % 13) as f64 / 13.0) - 0.4).collect();
        let out = dpe.matvec(&x).unwrap();

        let sum_over = |metric: &'static str| {
            t.snapshot()
                .iter()
                .filter(|s| s.metric == metric && s.component.starts_with("mu0/"))
                .filter_map(|s| s.as_counter())
                .sum::<u64>()
        };
        // Energy decomposes exactly: array (incl. static) + dac + adc +
        // digital equals the reported matvec energy.
        assert_eq!(sum_over("energy_fj"), out.cost.energy.as_fj());
        // Latency attribution is disjoint: array + adc busy == latency.
        assert_eq!(sum_over("busy_ps"), out.cost.latency.as_ps());
        // Event counts line up with the analog model.
        let t_adc = t.component("mu0/adc");
        let t_array = t.component("mu0/array");
        assert_eq!(
            t.snapshot()
                .iter()
                .find(|s| s.component == "mu0/array" && s.metric == "mac_ops")
                .and_then(|s| s.as_counter()),
            Some(dpe.macs_per_matvec())
        );
        t.with_registry(|r| {
            assert!(r.counter(t_adc, "conversions") > 0);
            assert!(r.histogram(t_array, "phase_energy_fj").is_some());
            assert_eq!(r.counter(t_array, "programs"), 1);
        });
        // A second run accumulates deterministically: same input, same adds.
        let before = sum_over("energy_fj");
        let out2 = dpe.matvec(&x).unwrap();
        assert_eq!(sum_over("energy_fj") - before, out2.cost.energy.as_fj());
    }

    #[test]
    fn disabled_telemetry_changes_nothing() {
        let w = DenseMatrix::from_fn(16, 8, |r, c| ((r + c) as f64 - 5.0) / 6.0);
        let x = vec![0.5; 16];
        let run = |attach: bool| {
            let mut dpe = engine(DpeConfig::noise_free());
            if attach {
                dpe.attach_telemetry(&cim_sim::Telemetry::disabled(), "mu0");
            }
            dpe.program(&w).unwrap();
            dpe.matvec(&x).unwrap()
        };
        let (a, b) = (run(false), run(true));
        assert_eq!(a.values, b.values);
        assert_eq!(a.cost.latency, b.cost.latency);
        assert_eq!(a.cost.energy, b.cost.energy);
    }

    #[test]
    fn analytic_cost_is_integer_identical_to_detailed() {
        use cim_sim::analytic::SimMode;
        use cim_sim::telemetry::{Telemetry, TelemetryLevel};
        // Tiled, noisy config with mixed-sign inputs: the hardest case
        // for the closed form — phase skipping, partial row tiles,
        // multi-bit DACs all in play. The all-zero input skips every
        // phase, the all-negative one every positive phase, and the
        // constant one drives every row of a tile in the same phases.
        let wide = DenseMatrix::from_fn(200, 150, |r, c| (((r + 2 * c) % 19) as f64 / 19.0) - 0.5);
        // One row tile of 300 rows: more active rows than a byte counts.
        let tall = DenseMatrix::from_fn(300, 24, |r, c| (((r * 3 + c) % 23) as f64 / 23.0) - 0.45);
        let inputs = |rows: usize| {
            [
                (0..rows).map(|i| ((i % 13) as f64 / 13.0) - 0.4).collect(),
                vec![0.0; rows],
                (0..rows)
                    .map(|i| -(((i % 11) as f64 + 1.0) / 11.0))
                    .collect(),
                vec![0.75; rows],
            ]
        };
        let digits = |input_bits: u32, dac_bits: u32| DpeConfig {
            input_bits,
            dac_bits,
            ..DpeConfig::noise_free()
        };
        let mut cases = vec![
            (DpeConfig::default(), &wide),
            (DpeConfig::noise_free(), &wide),
            (
                DpeConfig {
                    dac_bits: 2,
                    ..DpeConfig::default()
                },
                &wide,
            ),
            // 16-bit inputs: magnitudes reach 32 767.
            (digits(16, 1), &wide),
        ];
        // Digit widths that divide the 7 or 15 magnitude bits and ones
        // that leave a short top digit.
        for input_bits in [8, 16] {
            for dac_bits in [3, 7] {
                cases.push((digits(input_bits, dac_bits), &wide));
            }
        }
        // Four row tiles and three column tiles on 64×64 arrays.
        cases.push((
            DpeConfig {
                array_rows: 64,
                array_cols: 64,
                ..DpeConfig::default()
            },
            &wide,
        ));
        cases.push((
            DpeConfig {
                array_rows: 512,
                array_cols: 32,
                ..DpeConfig::default()
            },
            &tall,
        ));
        for (config, w) in cases {
            let xs = inputs(w.rows());
            let run = |mode: SimMode| {
                let mut dpe = engine(config.clone());
                dpe.set_mode(mode);
                assert_eq!(dpe.mode(), mode);
                let t = Telemetry::new(TelemetryLevel::Metrics);
                dpe.attach_telemetry(&t, "mu0");
                dpe.program(w).unwrap();
                let costs = xs.each_ref().map(|x| dpe.matvec(x).unwrap().cost);
                (costs, t.export_jsonl())
            };
            let (d, d_tel) = run(SimMode::Detailed);
            let (a, a_tel) = run(SimMode::Analytic);
            for (a, d) in a.iter().zip(&d) {
                assert_eq!(
                    a.latency, d.latency,
                    "latency must match exactly: {config:?}"
                );
                assert_eq!(
                    a.energy.as_fj(),
                    d.energy.as_fj(),
                    "energy must match exactly: {config:?}"
                );
            }
            // Read phases, conversions, drives and the per-phase energy
            // histogram, byte for byte.
            assert!(a_tel.contains("\"metric\":\"phase_energy_fj\""), "{a_tel}");
            assert_eq!(
                a_tel, d_tel,
                "telemetry exports must match exactly: {config:?}"
            );
        }
    }

    #[test]
    fn analytic_values_match_exact_quantized_product() {
        use cim_sim::analytic::SimMode;
        let w = DenseMatrix::from_fn(64, 32, |r, c| (((r + 3 * c) % 17) as f64 / 17.0) - 0.5);
        let x: Vec<f64> = (0..64).map(|i| ((i % 9) as f64 / 9.0) - 0.4).collect();
        let exact = w.matvec(&x).unwrap();
        // Even under the *noisy* device config, analytic values carry
        // only quantization error — no analog noise, no ADC clipping.
        let mut dpe = engine(DpeConfig::default());
        dpe.set_mode(SimMode::Analytic);
        dpe.program(&w).unwrap();
        let out = dpe.matvec(&x).unwrap();
        let err = max_rel_err(&out.values, &exact);
        assert!(err < 0.01, "analytic values should be near-exact: {err}");
    }

    #[test]
    fn analytic_telemetry_decomposition_still_exact() {
        use cim_sim::analytic::SimMode;
        use cim_sim::telemetry::{Telemetry, TelemetryLevel};
        let w = DenseMatrix::from_fn(200, 150, |r, c| (((r + 2 * c) % 19) as f64 / 19.0) - 0.5);
        let mut dpe = engine(DpeConfig::noise_free());
        dpe.set_mode(SimMode::Analytic);
        let t = Telemetry::new(TelemetryLevel::Metrics);
        dpe.attach_telemetry(&t, "mu0");
        dpe.program(&w).unwrap();
        let x: Vec<f64> = (0..200).map(|i| ((i % 13) as f64 / 13.0) - 0.4).collect();
        let out = dpe.matvec(&x).unwrap();
        let sum_over = |metric: &'static str| {
            t.snapshot()
                .iter()
                .filter(|s| s.metric == metric && s.component.starts_with("mu0/"))
                .filter_map(|s| s.as_counter())
                .sum::<u64>()
        };
        assert_eq!(sum_over("energy_fj"), out.cost.energy.as_fj());
        assert_eq!(sum_over("busy_ps"), out.cost.latency.as_ps());
    }

    #[test]
    fn analytic_batch_is_bit_identical_across_thread_counts() {
        use cim_sim::analytic::SimMode;
        let w = DenseMatrix::from_fn(32, 16, |r, c| (((r + 5 * c) % 13) as f64 / 13.0) - 0.5);
        let xs: Vec<Vec<f64>> = (0..9)
            .map(|i| {
                (0..32)
                    .map(|j| (((i + j) % 7) as f64 / 7.0) - 0.5)
                    .collect()
            })
            .collect();
        let run = |threads: usize| {
            let mut dpe = engine(DpeConfig::default());
            dpe.set_mode(SimMode::Analytic);
            dpe.program(&w).unwrap();
            dpe.matvec_batch_threads(&xs, threads).unwrap()
        };
        let (outs1, cost1) = run(1);
        for threads in [2, 4] {
            let (outs, cost) = run(threads);
            assert_eq!(outs, outs1, "threads={threads}");
            assert_eq!(cost, cost1, "threads={threads}");
        }
    }

    #[test]
    fn analytic_cost_is_monotone_in_matrix_dims() {
        use cim_sim::analytic::SimMode;
        // Growing either dimension can only add slice reads, conversions
        // and DAC drives — the closed-form cost must not shrink.
        let cost_of = |rows: usize, cols: usize| {
            let w = DenseMatrix::from_fn(rows, cols, |r, c| (((r + c) % 9) as f64 / 9.0) - 0.4);
            let mut dpe = engine(DpeConfig::default());
            dpe.set_mode(SimMode::Analytic);
            dpe.program(&w).unwrap();
            dpe.matvec(&vec![0.5; rows]).unwrap().cost
        };
        let mut prev = cost_of(8, 8);
        for (rows, cols) in [(16, 8), (16, 16), (32, 16), (64, 32), (128, 64)] {
            let cost = cost_of(rows, cols);
            assert!(
                cost.energy >= prev.energy,
                "energy must not shrink growing to {rows}x{cols}"
            );
            assert!(
                cost.latency >= prev.latency,
                "latency must not shrink growing to {rows}x{cols}"
            );
            prev = cost;
        }
    }

    #[test]
    fn analytic_batch_cost_is_monotone_in_batch_size() {
        use cim_sim::analytic::SimMode;
        let w = DenseMatrix::from_fn(32, 16, |r, c| (((r * 3 + c) % 11) as f64 / 11.0) - 0.5);
        let items: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                (0..32)
                    .map(|j| (((i * j) % 5) as f64 / 5.0) - 0.3)
                    .collect()
            })
            .collect();
        let mut prev = OpCost::default();
        for n in 1..=items.len() {
            let mut dpe = engine(DpeConfig::default());
            dpe.set_mode(SimMode::Analytic);
            dpe.program(&w).unwrap();
            let (_, cost) = dpe.matvec_batch(&items[..n]).unwrap();
            assert!(cost.energy >= prev.energy, "energy must grow with batch");
            assert!(
                cost.latency >= prev.latency,
                "batch makespan must not shrink"
            );
            prev = cost;
        }
    }

    /// One noisy, faulted, drifted engine run twice on a mixed-sign input:
    /// digests of both outputs' bits (the second pins the arrays' RNG
    /// state after the first), the first run's cost, and the telemetry
    /// export.
    fn noisy_faulted_run((input_bits, dac_bits): (u32, u32)) -> (u64, u64, u64, u64, u64) {
        use crate::device::CellFault;
        use cim_sim::rng::Fnv1a;
        use cim_sim::telemetry::{Telemetry, TelemetryLevel};
        // 200×150 spans two row tiles and two column tiles; row tile 1
        // holds matrix rows 128..200 (array rows 72.. are padding) and
        // column tile 1 holds columns 128..150 (array columns 22.. are
        // padding).
        let w = DenseMatrix::from_fn(200, 150, |r, c| {
            (((r * 7 + c * 3) % 23) as f64 / 23.0) - 0.45
        });
        let x: Vec<f64> = (0..200)
            .map(|i| (((i * 5) % 17) as f64 / 17.0) - 0.55)
            .collect();
        let mut dpe = engine(DpeConfig {
            input_bits,
            dac_bits,
            ..DpeConfig::default()
        });
        let t = Telemetry::new(TelemetryLevel::Metrics);
        dpe.attach_telemetry(&t, "mu0");
        dpe.program(&w).unwrap();
        dpe.for_each_array(|rt, ct, sign, s, xbar| {
            // Stuck-on cells in a padding row and a padding column.
            if rt == 1 && s == 0 {
                xbar.inject_fault(100, 5, CellFault::StuckOn).unwrap();
            }
            if ct == 1 && sign == 1 {
                xbar.inject_fault(3, 40, CellFault::StuckOn).unwrap();
                xbar.inject_fault(90, 127, CellFault::StuckOn).unwrap();
            }
            // Stuck-off cells inside the matrix.
            if rt == 0 && ct == 0 && s == 1 {
                xbar.inject_fault(2, 3, CellFault::StuckOff).unwrap();
                xbar.inject_fault(64, 100, CellFault::StuckOff).unwrap();
            }
            if rt == 0 && ct == 1 && sign == 0 && s == 0 {
                xbar.drift_all(0.5, 0.2);
            }
        });
        let bits = |values: &[f64]| {
            let mut h = Fnv1a::new();
            for v in values {
                h.write_u64(v.to_bits());
            }
            h.finish()
        };
        let first = dpe.matvec(&x).unwrap();
        let mut export = Fnv1a::new();
        export.write(t.export_jsonl().as_bytes());
        let second = dpe.matvec(&x).unwrap();
        (
            bits(&first.values),
            first.cost.latency.as_ps(),
            first.cost.energy.as_fj(),
            export.finish(),
            bits(&second.values),
        )
    }

    #[test]
    fn noisy_faulted_matvec_is_pinned() {
        // Goldens of the detailed noisy path: read noise, stuck cells in
        // and outside the matrix, drift, partial tiles and multi-bit DAC
        // digits, the last 3 bits wide over 16-bit inputs. Any change to
        // values, cost, telemetry or RNG order shows here.
        let got = [(8, 1), (8, 2), (16, 3)].map(noisy_faulted_run);
        let want = [
            (
                0x9599_1747_06f1_071d,
                1_499_520,
                480_139_456,
                0x5414_6c4a_5c61_3af0,
                0x8708_2337_1f79_eaf3,
            ),
            (
                0xce27_98e2_39f0_ce6c,
                899_712,
                292_557_504,
                0xcce1_ec96_6981_38ce,
                0x0760_aa4d_d077_ae02,
            ),
            (
                0xb760_c156_8276_9c69,
                1_099_648,
                380_277_376,
                0x0673_f55c_a909_cf8e,
                0x48ee_7218_8743_f3d9,
            ),
        ];
        assert_eq!(
            got, want,
            "(input_bits, dac_bits) 8/1, 8/2, 16/3: {got:#x?}"
        );
    }

    /// The analytic-tier cases [`analytic_matvec_is_pinned`] and
    /// [`analytic_values_equal_the_quantized_reference`] run: the
    /// standard serving mix's six layer shapes on the default engine,
    /// column counts that leave every remainder of a column block,
    /// multi-tile layouts, digit widths from the narrowest to the widest
    /// inputs, and 24-bit weights.
    fn analytic_cases() -> Vec<(DpeConfig, DenseMatrix)> {
        let w = |rows: usize, cols: usize| {
            DenseMatrix::from_fn(rows, cols, |r, c| {
                (((r * 7 + c * 3) % 23) as f64 / 23.0) - 0.45
            })
        };
        let mut cases: Vec<(DpeConfig, DenseMatrix)> =
            [(16, 8), (8, 4), (32, 16), (16, 8), (64, 32), (32, 8)]
                .into_iter()
                .chain([1, 3, 5, 9, 33].map(|cols| (24, cols)))
                .chain([(200, 150)])
                .map(|(rows, cols)| (DpeConfig::default(), w(rows, cols)))
                .collect();
        cases.push((
            DpeConfig {
                array_rows: 512,
                array_cols: 32,
                ..DpeConfig::default()
            },
            w(300, 24),
        ));
        for (input_bits, dac_bits) in [(2, 1), (8, 3), (16, 1), (16, 7)] {
            let config = DpeConfig {
                input_bits,
                dac_bits,
                ..DpeConfig::default()
            };
            cases.push((config, w(40, 12)));
        }
        let config = DpeConfig {
            weight_bits: 24,
            ..DpeConfig::default()
        };
        cases.push((config, w(40, 12)));
        cases
    }

    /// Mixed-sign, all-zero, all-negative and constant inputs, and one
    /// whose entries sit exactly on quantization ties: its largest
    /// magnitude is `qmax`, so the input step is exactly 1 and every
    /// other entry is some `±(k + 0.5)`.
    fn analytic_inputs(rows: usize, input_bits: u32) -> [Vec<f64>; 5] {
        let qmax = (1u32 << (input_bits - 1)) - 1;
        [
            (0..rows)
                .map(|i| ((i * 7 % 19) as f64 / 19.0) - 0.45)
                .collect(),
            vec![0.0; rows],
            (0..rows)
                .map(|i| -(((i % 11) as f64 + 1.0) / 11.0))
                .collect(),
            vec![0.75; rows],
            (0..rows)
                .map(|i| match i {
                    0 => f64::from(qmax),
                    _ => {
                        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                        sign * (f64::from(i as u32 * 5 % qmax) + 0.5)
                    }
                })
                .collect(),
        ]
    }

    #[test]
    fn analytic_matvec_is_pinned() {
        use cim_sim::rng::Fnv1a;
        use cim_sim::telemetry::{Telemetry, TelemetryLevel};
        // Per case: a digest of every output value's bits, each input's
        // latency (ps) and energy (fJ), and a digest of the telemetry
        // export. Engines with telemetry off and on must agree on
        // values and cost. Any change to the analytic tier's values,
        // cost or telemetry shows here.
        let got: Vec<(u64, [u64; 5], [u64; 5], u64)> = analytic_cases()
            .iter()
            .map(|(config, w)| {
                let xs = analytic_inputs(w.rows(), config.input_bits);
                let run = |tel: Option<&Telemetry>| {
                    let mut dpe = engine(config.clone());
                    dpe.set_mode(SimMode::Analytic);
                    if let Some(t) = tel {
                        dpe.attach_telemetry(t, "mu0");
                    }
                    dpe.program(w).unwrap();
                    let mut values = Fnv1a::new();
                    let (mut ps, mut fj) = ([0; 5], [0; 5]);
                    for (i, x) in xs.iter().enumerate() {
                        let out = dpe.matvec(x).unwrap();
                        for v in &out.values {
                            values.write_u64(v.to_bits());
                        }
                        ps[i] = out.cost.latency.as_ps();
                        fj[i] = out.cost.energy.as_fj();
                    }
                    (values.finish(), ps, fj)
                };
                let t = Telemetry::new(TelemetryLevel::Metrics);
                let off = run(None);
                let on = run(Some(&t));
                assert_eq!(off, on, "telemetry changed the result: {config:?}");
                let mut export = Fnv1a::new();
                export.write(t.export_jsonl().as_bytes());
                (on.0, on.1, on.2, export.finish())
            })
            .collect();
        let want: Vec<(u64, [u64; 5], [u64; 5], u64)> = vec![
            (
                0xe20d_adc0_e092_9666,
                [1_499_520, 99_968, 799_744, 799_744, 1_399_552],
                [108_974_320, 3_198_976, 57_230_816, 59_252_288, 101_424_352],
                0x256e_747e_d98e_0cf6,
            ),
            (
                0x88ad_6f4b_3adf_4049,
                [1_499_520, 99_968, 799_744, 799_744, 1_299_584],
                [107_906_336, 3_198_976, 56_086_656, 57_116_448, 92_959_040],
                0x5075_49d0_1de8_a508,
            ),
            (
                0x7af4_8ed0_1243_305c,
                [1_499_520, 99_968, 799_744, 799_744, 1_499_520],
                [111_110_128, 3_198_976, 59_519_184, 63_523_968, 111_033_856],
                0x7b92_7a68_5a7b_0c23,
            ),
            (
                0xe20d_adc0_e092_9666,
                [1_499_520, 99_968, 799_744, 799_744, 1_399_552],
                [108_974_320, 3_198_976, 57_230_816, 59_252_288, 101_424_352],
                0x256e_747e_d98e_0cf6,
            ),
            (
                0x3167_353a_fdc5_55e9,
                [1_499_520, 99_968, 799_744, 799_744, 1_499_520],
                [115_458_064, 3_198_976, 64_134_160, 72_067_328, 115_267_360],
                0xa0bd_15ea_daaf_8ef0,
            ),
            (
                0xb298_9b3b_cc5e_f128,
                [1_499_520, 99_968, 799_744, 799_744, 1_499_520],
                [111_110_128, 3_198_976, 59_519_184, 63_523_968, 111_033_856],
                0x1fdb_1b33_2194_c7ef,
            ),
            (
                0x3505_6291_9eff_42ee,
                [1_499_520, 99_968, 799_744, 799_744, 1_399_552],
                [109_965_904, 3_198_976, 58_413_152, 61_388_128, 102_644_816],
                0x2861_8a67_9e24_a14a,
            ),
            (
                0x7a68_02b4_a478_62fe,
                [1_499_520, 99_968, 799_744, 799_744, 1_399_552],
                [109_965_904, 3_198_976, 58_413_152, 61_388_128, 102_644_816],
                0xe090_d78e_46cc_49dc,
            ),
            (
                0x3764_779f_8e0a_9658,
                [1_499_520, 99_968, 799_744, 799_744, 1_399_552],
                [109_965_904, 3_198_976, 58_413_152, 61_388_128, 102_644_816],
                0xb3bc_bf66_d2c8_86ff,
            ),
            (
                0xd947_dcc2_c8be_7513,
                [1_499_520, 99_968, 799_744, 799_744, 1_399_552],
                [109_965_904, 3_198_976, 58_413_152, 61_388_128, 102_644_816],
                0x3c91_23b7_a880_3aca,
            ),
            (
                0xb501_7494_2d5c_8ca2,
                [1_499_520, 99_968, 799_744, 799_744, 1_399_552],
                [109_965_904, 3_198_976, 58_413_152, 61_388_128, 102_644_816],
                0xa781_5f77_c931_a4c3,
            ),
            (
                0x4fcc_5b33_29d6_a4ef,
                [1_499_520, 99_968, 799_744, 799_744, 1_499_520],
                [
                    481_588_864,
                    12_795_904,
                    278_047_648,
                    326_714_432,
                    480_749_696,
                ],
                0x5171_63ca_5624_c238,
            ),
            (
                0x93d9_8606_c59d_af57,
                [374_880, 24_992, 199_936, 199_936, 374_880],
                [37_456_672, 799_744, 25_192_208, 34_776_624, 37_276_352],
                0x74ff_20c9_0245_dcee,
            ),
            (
                0x2a7d_f960_84c7_842a,
                [299_904, 99_968, 199_936, 199_936, 299_904],
                [18_718_368, 3_198_976, 11_359_152, 12_121_952, 19_519_328],
                0xd411_f968_a062_ced2,
            ),
            (
                0xae89_276c_81f4_052d,
                [699_776, 99_968, 399_872, 399_872, 699_776],
                [51_170_416, 3_198_976, 29_057_152, 30_121_504, 50_933_888],
                0xba24_4f4b_d887_46b1,
            ),
            (
                0xb7ce_b283_b339_a0ec,
                [3_099_008, 99_968, 1_599_488, 1_599_488, 2_299_264],
                [
                    237_057_952,
                    3_198_976,
                    126_364_288,
                    137_043_616,
                    172_081_632,
                ],
                0x05cd_70ee_744f_d7e2,
            ),
            (
                0xb7ce_b283_b339_a0ec,
                [699_776, 99_968, 399_872, 399_872, 599_808],
                [51_739_232, 3_198_976, 29_589_104, 30_428_704, 42_536_720],
                0x25f9_9a3a_26d3_1b73,
            ),
            (
                0x3c24_3363_070b_a6ce,
                [1_499_520, 99_968, 799_744, 799_744, 1_499_520],
                [168_381_480, 4_798_464, 90_995_112, 98_489_712, 167_980_992],
                0x4371_0a47_b497_31d5,
            ),
        ];
        assert_eq!(got, want, "{got:#x?}");
    }

    #[test]
    fn analytic_values_equal_the_quantized_reference() {
        // Independent of the engine's arithmetic: quantize inputs and
        // weights with `Quantizer`, form the row-major f64 product, and
        // scale it. Analytic values must equal it bit for bit.
        for (config, w) in analytic_cases() {
            let wq = Quantizer::new(config.weight_bits, w.max_abs()).unwrap();
            let mut dpe = engine(config.clone());
            dpe.set_mode(SimMode::Analytic);
            dpe.program(&w).unwrap();
            for x in analytic_inputs(w.rows(), config.input_bits) {
                let max_abs = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let xq = Quantizer::new(config.input_bits, max_abs)
                    .unwrap_or_else(|| Quantizer::new(config.input_bits, 1.0).unwrap());
                let mut acc = vec![0.0f64; w.cols()];
                for (r, &v) in x.iter().enumerate() {
                    let qx = xq.quantize(v) as f64;
                    for (c, a) in acc.iter_mut().enumerate() {
                        *a += qx * wq.quantize(w.get(r, c)) as f64;
                    }
                }
                let scale = wq.step() * xq.step();
                let want: Vec<u64> = acc.iter().map(|a| (a * scale).to_bits()).collect();
                let got: Vec<u64> = dpe
                    .matvec(&x)
                    .unwrap()
                    .values
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, want, "{config:?} {}x{}", w.rows(), w.cols());
            }
        }
    }

    #[test]
    fn energy_per_mac_is_orders_below_digital_cpu() {
        let w = DenseMatrix::from_fn(128, 128, |r, c| (((r ^ c) % 31) as f64 / 31.0) - 0.5);
        let mut dpe = engine(DpeConfig::default());
        dpe.program(&w).unwrap();
        let out = dpe.matvec(&vec![0.3; 128]).unwrap();
        let per_mac_fj = out.cost.energy.as_fj() as f64 / dpe.macs_per_matvec() as f64;
        // CPU cost per MAC = 2 FLOPs of core energy + the DRAM traffic of
        // streaming the 2-byte weight (the CIM advantage the paper argues:
        // weights never move).
        let cpu_per_mac_fj = 2.0 * cim_sim::calib::cpu::ENERGY_PER_FLOP_FJ as f64
            + 2.0 * cim_sim::calib::cpu::ENERGY_PER_DRAM_BYTE_FJ as f64;
        assert!(
            per_mac_fj * 5.0 < cpu_per_mac_fj,
            "analog MAC {per_mac_fj} fJ vs cpu {cpu_per_mac_fj} fJ"
        );
    }
}
