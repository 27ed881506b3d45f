//! Frozen host-speed probe.
//!
//! A fixed amount of work shaped like the simulator's hot paths: small
//! vector allocations with f64 multiply-add loops over them (engine
//! values, DPE accumulators), default-hasher map inserts and lookups on
//! a reused table (per-attempt input maps, telemetry registries),
//! dependent reads over an L2-sized buffer (device state), and an
//! integer/f64 ALU chain. It is timed next to every benchmark sample so
//! a sample's cost can be read relative to how fast the host ran at
//! that moment.
//!
//! Two shapes were measured and left out because they made the
//! normalised figures spread more between runs, not less (see
//! `perfbench/README.md`): dependent reads over 4 MiB, and a map grown
//! from empty to 15k entries (its large reallocations page-fault).
//!
//! Changing this code changes what every normalised figure means:
//! leave it frozen.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Words in the read buffer (256 KiB of `u64`).
const BUF_WORDS: usize = 1 << 15;
/// Dependent reads per probe.
const CHASES: usize = 150_000;
/// Vectors allocated per probe.
const VECS: usize = 1_500;
/// Map refills per probe, and keys per refill.
const MAP_ROUNDS: u64 = 12;
const MAP_KEYS: u64 = 1_000;
/// ALU chain steps per probe.
const ALU_STEPS: u64 = 120_000;
/// Probe repetitions per measurement; the fastest is kept, so a
/// measurement is not inflated by one interrupt.
const REPEATS: usize = 3;

/// The probe and its buffer, allocated once per process.
pub struct Probe {
    buf: Vec<u64>,
}

impl Probe {
    /// Allocates and fills the read buffer with a fixed xorshift walk.
    pub fn new() -> Self {
        let mut buf = vec![0u64; BUF_WORDS];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for w in &mut buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        Probe { buf }
    }

    /// Runs the fixed work once; returns a checksum.
    fn work(&self) -> u64 {
        // Allocation + f64 loops.
        let mut total = 0.0f64;
        for i in 0..VECS {
            let len = 16 + (i * 37) % 112;
            let v: Vec<f64> = (0..len).map(|k| (k as f64) * 0.5 - 3.0).collect();
            let mut s = 1.0f64;
            for &x in &v {
                s = s.mul_add(0.999_9, x * 1e-3);
            }
            total += black_box(v).len() as f64 + s;
        }
        let mut acc = total.to_bits();
        // Hashing on a table that stays allocated.
        let mut map: HashMap<u64, u64> = HashMap::with_capacity(MAP_KEYS as usize);
        for r in 0..MAP_ROUNDS {
            map.clear();
            for k in 0..MAP_KEYS {
                map.insert(k.wrapping_mul(0x9E37_79B9) ^ r, k);
            }
            for k in 0..MAP_KEYS {
                acc = acc.wrapping_add(
                    map.get(&(k.wrapping_mul(0x9E37_79B9) ^ r))
                        .copied()
                        .unwrap_or(0),
                );
            }
        }
        // Dependent reads.
        let mut idx = acc as usize % BUF_WORDS;
        for _ in 0..CHASES {
            let w = self.buf[idx];
            acc = acc.rotate_left(5) ^ w;
            idx = (w as usize ^ idx.wrapping_mul(31)) % BUF_WORDS;
        }
        // ALU chain.
        let mut x = 1.000_001f64;
        for i in 0..ALU_STEPS {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            x = x.mul_add(1.000_000_1, (acc >> 40) as f64 * 1e-18);
        }
        black_box(acc ^ x.to_bits())
    }

    /// Host seconds the fixed work takes right now (fastest of
    /// [`REPEATS`]).
    pub fn time_s(&self) -> f64 {
        (0..REPEATS)
            .map(|_| {
                let t = Instant::now();
                black_box(self.work());
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}
