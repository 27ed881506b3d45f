//! Calibration constants shared by the platform models.
//!
//! Every absolute number produced by this repository traces back to a
//! constant in this module. The constants are taken from public sources —
//! the ISAAC paper (Shafiee et al., ISCA'16) that the paper's Dot Product
//! Engine extends, and vendor datasheet figures for Skylake-era CPUs and
//! V100-era GPUs — so the *ratios* the paper claims in §VI can be
//! regenerated without HPE's unpublished silicon measurements.
//!
//! Units follow the crate conventions: picoseconds, femtojoules, watts.

/// ISAAC-derived constants for the analog crossbar dot-product engine.
///
/// Source: Shafiee et al., "ISAAC: A Convolutional Neural Network
/// Accelerator with In-Situ Analog Arithmetic in Crossbars", ISCA 2016,
/// Table 6 (22 nm node), plus the memristor write characteristics from
/// Borghetti et al. (Nature 2010) referenced as \[20\] in the paper.
pub mod dpe {
    /// Rows (= columns) of one crossbar array.
    pub const XBAR_DIM: usize = 128;
    /// Bits stored per memristor cell (ISAAC uses 2-bit cells).
    pub const CELL_BITS: u32 = 2;
    /// Weight precision after bit-slicing across cells (bits).
    pub const WEIGHT_BITS: u32 = 16;
    /// Input DAC resolution (bits); inputs are streamed bit-serially.
    pub const DAC_BITS: u32 = 1;
    /// ADC resolution (bits).
    pub const ADC_BITS: u32 = 8;
    /// Latency of one analog read phase (all 128 columns settle), ps.
    /// ISAAC: 100 ns per 16-bit input-bit-serial read *sequence*; a single
    /// 1-bit phase is 100ns/16.
    pub const READ_PHASE_PS: u64 = 6_250;
    /// ADC conversion rate, samples per second (1.28 GSa/s in ISAAC).
    pub const ADC_SAMPLE_HZ: f64 = 1.28e9;
    /// Energy of one analog read phase of a full 128x128 array, fJ.
    /// Derived from ISAAC's 40.3 mW per-IMA read power share.
    pub const READ_PHASE_FJ: u64 = 300_000;
    /// Energy of one 8-bit ADC conversion, fJ (~2 pJ at 8 bits, 32 nm).
    pub const ADC_CONVERT_FJ: u64 = 2_000;
    /// Energy of one 1-bit DAC drive, fJ.
    pub const DAC_DRIVE_FJ: u64 = 40;
    /// Energy of shift-and-add digital merge per column sample, fJ.
    pub const SHIFT_ADD_FJ: u64 = 50;
    /// Latency to program (write) one memristor cell, ps.
    /// Memristor SET/RESET pulses are ~100 ns — three to four orders
    /// slower than reads; this is the "asymmetric write latency" §VI
    /// flags as the scaling challenge.
    pub const CELL_WRITE_PS: u64 = 100_000;
    /// Energy to program one cell, fJ (~10 pJ per SET pulse).
    pub const CELL_WRITE_FJ: u64 = 10_000;
    /// Multiply–accumulate operations performed by one full-array analog
    /// read: every cell contributes one MAC.
    pub const MACS_PER_READ: u64 = (XBAR_DIM * XBAR_DIM) as u64;
    /// Static (leakage + peripheral idle) power of one crossbar tile, W.
    pub const TILE_STATIC_W: f64 = 0.002;
    /// Relative std-dev of programmed conductance (device variation).
    pub const CONDUCTANCE_SIGMA: f64 = 0.02;
    /// Relative std-dev of read current noise per phase.
    pub const READ_NOISE_SIGMA: f64 = 0.01;
}

/// Skylake-era server CPU constants (the paper's "modern CPUs").
///
/// Sources: Intel Xeon Gold 6148 datasheet (2.4 GHz, 20 cores, AVX-512),
/// STREAM-measured ~64 GB/s per socket, ~150 W TDP.
pub mod cpu {
    /// Core clock, Hz.
    pub const CLOCK_HZ: f64 = 2.4e9;
    /// Cores per socket.
    pub const CORES: usize = 20;
    /// Peak double-precision FLOP/s per core (2×FMA×8 lanes × clock).
    pub const FLOPS_PER_CORE: f64 = 32.0 * 2.4e9;
    /// Sustained memory bandwidth per socket, bytes/s.
    pub const MEM_BW_BYTES: f64 = 64e9;
    /// DRAM random-access latency, ps.
    pub const DRAM_LATENCY_PS: u64 = 80_000;
    /// L1 data cache: size, bytes.
    pub const L1_BYTES: usize = 32 * 1024;
    /// L1 hit latency, ps (4 cycles @ 2.4 GHz).
    pub const L1_LATENCY_PS: u64 = 1_667;
    /// L2 cache size, bytes.
    pub const L2_BYTES: usize = 1024 * 1024;
    /// L2 hit latency, ps (14 cycles).
    pub const L2_LATENCY_PS: u64 = 5_833;
    /// L3 slice size per core, bytes.
    pub const L3_BYTES: usize = 1408 * 1024;
    /// L3 hit latency, ps (~50 cycles).
    pub const L3_LATENCY_PS: u64 = 20_833;
    /// Cache line size, bytes.
    pub const LINE_BYTES: usize = 64;
    /// Energy per double-precision FLOP including core overheads, fJ
    /// (~20 pJ/FLOP system-level on Skylake-class parts).
    pub const ENERGY_PER_FLOP_FJ: u64 = 20_000;
    /// Energy per byte moved from DRAM, fJ (~15 pJ/byte incl. PHY).
    pub const ENERGY_PER_DRAM_BYTE_FJ: u64 = 15_000;
    /// Energy per byte served from L1, fJ.
    pub const ENERGY_PER_L1_BYTE_FJ: u64 = 300;
    /// Energy per byte served from L2, fJ.
    pub const ENERGY_PER_L2_BYTE_FJ: u64 = 1_200;
    /// Energy per byte served from L3, fJ.
    pub const ENERGY_PER_L3_BYTE_FJ: u64 = 4_000;
    /// Socket idle/static power, W.
    pub const STATIC_W: f64 = 40.0;
    /// Socket TDP, W.
    pub const TDP_W: f64 = 150.0;
}

/// V100-era GPU constants (the paper's "modern GPUs").
///
/// Sources: NVIDIA Tesla V100 whitepaper — 15.7 TFLOP/s fp32,
/// 125 TFLOP/s tensor fp16, 900 GB/s HBM2, 300 W TDP.
pub mod gpu {
    /// Streaming multiprocessors.
    pub const SMS: usize = 80;
    /// Peak fp16 tensor FLOP/s (dense MVM path used for NN inference).
    pub const TENSOR_FLOPS: f64 = 112e12;
    /// Peak fp32 FLOP/s.
    pub const FP32_FLOPS: f64 = 15.7e12;
    /// HBM bandwidth, bytes/s.
    pub const MEM_BW_BYTES: f64 = 900e9;
    /// Kernel-launch + host-synchronization overhead, ps (~5 us).
    pub const LAUNCH_OVERHEAD_PS: u64 = 5_000_000;
    /// HBM access latency, ps.
    pub const HBM_LATENCY_PS: u64 = 400_000;
    /// Energy per fp16 FLOP on the tensor path, fJ (~1.5 pJ system).
    pub const ENERGY_PER_FLOP_FJ: u64 = 1_500;
    /// Energy per HBM byte, fJ (~7 pJ/byte).
    pub const ENERGY_PER_HBM_BYTE_FJ: u64 = 7_000;
    /// Board static power, W.
    pub const STATIC_W: f64 = 50.0;
    /// Board TDP, W.
    pub const TDP_W: f64 = 300.0;
}

/// The digital ALU beside each micro-unit's dot-product engine, which
/// runs every operator other than matvec.
pub mod alu {
    /// Throughput per micro-unit, ops/s: a 1 GHz, 4-lane vector ALU.
    pub const OPS_PER_SEC: f64 = 4.0e9;
    /// Energy per op, fJ: local-SRAM operand energy, ~1 pJ/op.
    pub const ENERGY_PER_OP_FJ: u64 = 1_000;
}

/// Network-on-chip constants for the CIM device's packet interconnect.
///
/// Modeled after published mesh-NoC figures at a 28–22 nm node
/// (~1 GHz routers, ~100 fJ/byte/hop including link traversal).
pub mod noc {
    /// Router clock, Hz.
    pub const CLOCK_HZ: f64 = 1.0e9;
    /// Flit payload width, bytes.
    pub const FLIT_BYTES: usize = 16;
    /// Per-hop router pipeline latency, cycles.
    pub const ROUTER_CYCLES: u64 = 3;
    /// Link traversal latency, cycles.
    pub const LINK_CYCLES: u64 = 1;
    /// Energy per flit per hop (router + link), fJ.
    pub const FLIT_HOP_FJ: u64 = 1_600;
    /// Energy to encrypt/decrypt one byte at a domain boundary, fJ
    /// (AES-class lightweight block cipher in-silicon).
    pub const CRYPTO_BYTE_FJ: u64 = 250;
    /// Extra latency per flit for link encryption, cycles.
    pub const CRYPTO_CYCLES: u64 = 2;
    /// Virtual channels per physical link: one per traffic class.
    pub const VIRTUAL_CHANNELS: usize = 3;
}

/// Distributed-cluster constants for the Table 1 comparison.
pub mod cluster {
    /// Network round-trip latency between nodes, ps (≈2 us RDMA-class).
    pub const RTT_PS: u64 = 2_000_000;
    /// Per-node injection bandwidth, bytes/s (100 Gb/s).
    pub const NODE_BW_BYTES: f64 = 12.5e9;
    /// Failover detection + reroute time, ps (≈50 ms heartbeat-based).
    pub const FAILOVER_PS: u64 = 50_000_000_000;
    /// Energy per byte crossing the network, fJ (~0.5 nJ/byte end-to-end).
    pub const ENERGY_PER_NET_BYTE_FJ: u64 = 500_000;
}

/// Shared-memory multiprocessor constants for the Table 1 comparison.
pub mod smp {
    /// Cache-coherence miss penalty (remote socket), ps.
    pub const COHERENCE_MISS_PS: u64 = 120_000;
    /// Fraction of accesses that contend per added core (serial fraction
    /// seed for the coherence-limited scaling model).
    pub const CONTENTION_PER_CORE: f64 = 0.002;
    /// Maximum practical core count per partition (e.g. HPE Superdome).
    pub const MAX_CORES: usize = 1024;
}

#[cfg(test)]
mod tests {
    //! Sanity relations between constants — these encode the *shape*
    //! the paper's §VI depends on, so a miscalibration fails loudly.
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // the relation IS the test
    fn dpe_read_is_orders_faster_than_write() {
        assert!(dpe::CELL_WRITE_PS >= 10 * dpe::READ_PHASE_PS);
    }

    #[test]
    fn cpu_is_bandwidth_starved_relative_to_compute() {
        let bytes_per_flop = cpu::MEM_BW_BYTES / (cpu::FLOPS_PER_CORE * cpu::CORES as f64);
        assert!(bytes_per_flop < 0.1, "modern CPUs are << 1 byte/flop");
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the relation IS the test
    fn gpu_outpaces_cpu_in_both_axes() {
        assert!(gpu::TENSOR_FLOPS > cpu::FLOPS_PER_CORE * cpu::CORES as f64);
        assert!(gpu::MEM_BW_BYTES > cpu::MEM_BW_BYTES);
    }

    #[test]
    fn dpe_energy_per_mac_beats_digital() {
        let phase_fj = dpe::READ_PHASE_FJ
            + dpe::ADC_CONVERT_FJ * dpe::XBAR_DIM as u64
            + dpe::DAC_DRIVE_FJ * dpe::XBAR_DIM as u64;
        let per_mac = phase_fj as f64 / dpe::MACS_PER_READ as f64;
        let cpu_per_mac = cpu::ENERGY_PER_FLOP_FJ as f64 * 2.0;
        assert!(
            per_mac * 100.0 < cpu_per_mac,
            "analog MAC ({per_mac} fJ) must be >=100x cheaper than CPU ({cpu_per_mac} fJ)"
        );
    }
}
