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
use crate::array::{CrossbarArray, OpCost};
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
    /// ADC resolution in bits.
    pub adc_bits: u32,
    /// ADCs shared per array (1 in ISAAC: columns are converted serially).
    pub adcs_per_array: usize,
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
            adcs_per_array: 1,
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
        if self.adcs_per_array == 0 {
            return bad("adcs_per_array must be positive".to_owned());
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
    scratch: MatvecScratch,
}

/// Working buffers of [`DotProductEngine::matvec`], kept between calls so
/// the detailed loop allocates neither per phase nor per call.
#[derive(Debug, Clone, Default)]
struct MatvecScratch {
    /// The quantized input's positive and negative magnitudes, one
    /// entry per matrix row each.
    mags: [Vec<u64>; 2],
    /// One row tile's DAC drive levels for the current digit (detailed
    /// tier only: the analytic tier counts active rows from `mags`).
    levels: Vec<u16>,
    /// One array's column sums.
    sums: Vec<f64>,
    /// The shift-and-add accumulator, one entry per matrix column.
    acc: Vec<f64>,
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
        self.weight_quant = Some(wq);
        // Cache the quantized signed weights for the analytic tier; the
        // same quantizer the tiles were programmed from, so analytic
        // values see the identical quantization grid.
        self.q_weights = Vec::with_capacity(weights.rows() * weights.cols());
        for r in 0..weights.rows() {
            for c in 0..weights.cols() {
                self.q_weights.push(wq.quantize(weights.get(r, c)) as f64);
            }
        }
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
        if let Some(i) = x.iter().position(|v| !v.is_finite()) {
            return Err(CrossbarError::InvalidConfig {
                reason: format!("input entry {i} is {}, inputs must be finite", x[i]),
            });
        }
        let wq = self
            .weight_quant
            .expect("programmed engine has a quantizer");
        let xq = Quantizer::new(
            self.config.input_bits,
            x.iter()
                .fold(0.0f64, |m, &v| m.max(v.abs()))
                .max(f64::MIN_POSITIVE),
        )
        .or_else(|| Quantizer::new(self.config.input_bits, 1.0))
        .expect("validated input bits");
        // Taken for the call and put back at the end (a read error, which
        // a programmed engine cannot raise, would just drop them).
        let mut scratch = std::mem::take(&mut self.scratch);
        let [pos_mag, neg_mag] = &mut scratch.mags;
        pos_mag.clear();
        neg_mag.clear();
        for &v in x {
            let q = xq.quantize(v);
            pos_mag.push(q.max(0) as u64);
            neg_mag.push((-q).max(0) as u64);
        }
        scratch.acc.clear();
        scratch.acc.resize(self.matrix_cols, 0.0);

        let (ar, ac) = (self.config.array_rows, self.config.array_cols);
        let slices = self.config.slices();
        let in_bits = self.config.input_bits;
        let dac_bits = self.config.dac_bits;
        let digit_base = 1u64 << dac_bits;
        // Magnitudes fit in input_bits-1 bits; digits are streamed
        // little-endian, positive and negative polarities separately
        // (an analog sum cannot mix signs on the same wire).
        let n_digits = (in_bits - 1).div_ceil(dac_bits);
        let row_tiles = self.arrays.len();
        let col_tiles = self.arrays[0].len();

        let mut executed_phases = 0u64;
        // Per-category energy in fJ: bucketing the same integer adds the
        // combined accumulator used to make, so the total is unchanged and
        // telemetry can attribute it to DAC / ADC / array / digital.
        let (mut array_fj, mut dac_fj, mut adc_fj, mut digital_fj) = (0u64, 0u64, 0u64, 0u64);
        let (mut slice_reads, mut conversions, mut dac_drives) = (0u64, 0u64, 0u64);

        for (polarity, mags) in [(1.0f64, &scratch.mags[0]), (-1.0f64, &scratch.mags[1])] {
            for d in 0..n_digits {
                let digit_weight = polarity * digit_base.pow(d) as f64;
                let shift = d * dac_bits;
                let mut phase_active = false;
                let phase_start_fj = array_fj + dac_fj + adc_fj + digital_fj;
                for rt in 0..row_tiles {
                    // The tile's real rows; padding rows past the matrix
                    // are always driven at level 0.
                    let rows = &mags[rt * ar..((rt + 1) * ar).min(self.matrix_rows)];
                    let digit = |m: u64| ((m >> shift) & (digit_base - 1)) as u16;
                    let active = rows.iter().filter(|&&m| digit(m) != 0).count();
                    if active == 0 {
                        continue;
                    }
                    phase_active = true;
                    if self.mode == SimMode::Analytic {
                        // Closed-form replay: every array in this row
                        // tile sees the same row-activity pattern, so
                        // the detailed loop's per-array integer charges
                        // collapse to one charge × the array count. The
                        // resulting fJ totals and event counts are
                        // integer-identical to the detailed tier; only
                        // the per-cell analog reads and per-column ADC
                        // conversions are skipped (values come from the
                        // cached quantized product below).
                        let n_arr = (col_tiles * 2 * slices) as u64;
                        let per_array_fj = self.arrays[rt][0][0][0]
                            .read_phase_cost(active)
                            .energy
                            .as_fj();
                        array_fj += per_array_fj * n_arr;
                        dac_fj +=
                            cal::DAC_DRIVE_FJ * active as u64 * u64::from(dac_bits - 1) * n_arr;
                        adc_fj += self.adc.conversion_energy().as_fj() * ac as u64 * n_arr;
                        digital_fj += cal::SHIFT_ADD_FJ * ac as u64 * n_arr;
                        slice_reads += n_arr;
                        conversions += ac as u64 * n_arr;
                        dac_drives += active as u64 * n_arr;
                        continue;
                    }
                    scratch.levels.clear();
                    scratch.levels.extend(rows.iter().map(|&m| digit(m)));
                    scratch.levels.resize(ar, 0);
                    for ct in 0..col_tiles {
                        // Only the columns the engine returns are
                        // converted; a padding column's code never
                        // reaches the output. All `ac` conversions are
                        // still charged below.
                        let kept = (self.matrix_cols - ct * ac).min(ac);
                        let acc = &mut scratch.acc[ct * ac..ct * ac + kept];
                        for sign in 0..2 {
                            let sign_f = if sign == 0 { 1.0 } else { -1.0 };
                            for s in 0..slices {
                                let xbar = &mut self.arrays[rt][ct][sign][s];
                                xbar.read_phase_levels_into(&scratch.levels, &mut scratch.sums)?;
                                array_fj += xbar.read_phase_cost(active).energy.as_fj();
                                // Multi-level drivers cost extra DAC
                                // energy, roughly linear in digit width.
                                dac_fj +=
                                    cal::DAC_DRIVE_FJ * active as u64 * u64::from(dac_bits - 1);
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
                                adc_fj += self.adc.conversion_energy().as_fj() * ac as u64;
                                digital_fj += cal::SHIFT_ADD_FJ * ac as u64;
                                slice_reads += 1;
                                conversions += ac as u64;
                                dac_drives += active as u64;
                            }
                        }
                    }
                }
                if phase_active {
                    executed_phases += 1;
                    let phase_fj = array_fj + dac_fj + adc_fj + digital_fj - phase_start_fj;
                    self.tel.record(self.tel_array, "phase_energy_fj", phase_fj);
                }
            }
        }

        // Latency: executed phases run back to back; within a phase the
        // analog settle overlaps the previous phase's ADC sweep
        // (pipelined), so the phase time is the max of the two. All
        // arrays operate in parallel (each has its own ADC). One trailing
        // ADC sweep drains the pipeline.
        let settle = SimDuration::from_ps(cal::READ_PHASE_PS);
        let adc_sweep =
            self.adc.conversion_time() * (ac / self.config.adcs_per_array).max(1) as u64;
        let phase = settle.max(adc_sweep);
        let latency = phase * executed_phases + adc_sweep;

        // Static power of the occupied tiles over the occupied interval.
        let arrays = (row_tiles * col_tiles * 2 * slices) as f64;
        let static_fj =
            Energy::from_joules(cal::TILE_STATIC_W * arrays * latency.as_secs_f64()).as_fj();
        let energy = Energy::from_fj(array_fj + dac_fj + adc_fj + digital_fj + static_fj);

        if self.tel.is_enabled() {
            // Latency attribution is disjoint so per-stage busy times sum
            // exactly to the matvec latency: each pipelined phase goes to
            // the dominant stage, the trailing drain sweep to the ADC.
            let (array_ps, adc_ps) = if settle >= adc_sweep {
                ((phase * executed_phases).as_ps(), adc_sweep.as_ps())
            } else {
                (0, (phase * executed_phases + adc_sweep).as_ps())
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

        if self.mode == SimMode::Analytic {
            // Exact quantized product: the analog loop above only
            // replayed costs, so `acc` is still zero. Accumulation order
            // is fixed (row-major), independent of host threading.
            let [pos_mag, neg_mag] = &scratch.mags;
            for (r, (&p, &n)) in pos_mag.iter().zip(neg_mag).enumerate() {
                let q = p as i64 - n as i64;
                if q == 0 {
                    continue;
                }
                let qf = q as f64;
                let row = &self.q_weights[r * self.matrix_cols..(r + 1) * self.matrix_cols];
                for (a, &w) in scratch.acc.iter_mut().zip(row) {
                    *a += qf * w;
                }
            }
        }

        let scale = wq.step() * xq.step();
        let values: Vec<f64> = scratch.acc.iter().map(|&a| a * scale).collect();
        self.scratch = scratch;
        let cost = OpCost { latency, energy };
        self.total_energy += cost.energy;
        self.total_busy += cost.latency;
        self.mvm_count += 1;
        Ok(DpeOutput { values, cost })
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
    fn config_validation_rejects_nonsense() {
        let c = DpeConfig {
            weight_bits: 1,
            ..DpeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = DpeConfig {
            adcs_per_array: 0,
            ..DpeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = DpeConfig {
            array_rows: 0,
            ..DpeConfig::default()
        };
        assert!(c.validate().is_err());
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
        // phase.
        let w = DenseMatrix::from_fn(200, 150, |r, c| (((r + 2 * c) % 19) as f64 / 19.0) - 0.5);
        let x: Vec<f64> = (0..200).map(|i| ((i % 13) as f64 / 13.0) - 0.4).collect();
        let zero = vec![0.0; 200];
        let two_bit_dac = DpeConfig {
            dac_bits: 2,
            ..DpeConfig::default()
        };
        for config in [DpeConfig::default(), DpeConfig::noise_free(), two_bit_dac] {
            let run = |mode: SimMode| {
                let mut dpe = engine(config.clone());
                dpe.set_mode(mode);
                assert_eq!(dpe.mode(), mode);
                let t = Telemetry::new(TelemetryLevel::Metrics);
                dpe.attach_telemetry(&t, "mu0");
                dpe.program(&w).unwrap();
                let costs = [&x, &zero].map(|x| dpe.matvec(x).unwrap().cost);
                (costs, t.export_jsonl())
            };
            let (d, d_tel) = run(SimMode::Detailed);
            let (a, a_tel) = run(SimMode::Analytic);
            for (a, d) in a.iter().zip(&d) {
                assert_eq!(a.latency, d.latency, "latency must match exactly");
                assert_eq!(
                    a.energy.as_fj(),
                    d.energy.as_fj(),
                    "energy must match exactly"
                );
            }
            // Read phases, conversions, drives and the per-phase energy
            // histogram, byte for byte.
            assert!(a_tel.contains("\"metric\":\"phase_energy_fj\""), "{a_tel}");
            assert_eq!(a_tel, d_tel, "telemetry exports must match exactly");
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
    fn noisy_faulted_run(dac_bits: u32) -> (u64, u64, u64, u64, u64) {
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
        // digits. Any change to values, cost, telemetry or RNG order
        // shows here.
        let got = [1, 2].map(noisy_faulted_run);
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
        ];
        assert_eq!(got, want, "dac_bits 1 and 2: {got:#x?}");
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
