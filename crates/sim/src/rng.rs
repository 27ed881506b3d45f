//! Deterministic random-number utilities — self-contained, zero-dependency.
//!
//! Every stochastic model (device noise, workload generators, fault
//! injection) draws from an RNG derived from a single experiment seed, so
//! whole experiments replay bit-identically. Component streams are derived
//! with SplitMix64 so adding a new component never perturbs existing ones.
//!
//! The generator core is **xoshiro256++** (Blackman & Vigna), seeded from a
//! 64-bit seed through a **SplitMix64** expansion. Both algorithms are
//! public domain and implemented here directly so the workspace builds with
//! no crates-registry access; the [`Rng`] trait provides the `gen` /
//! `gen_range` / `gen_bool` surface the models use, and the distribution
//! helpers ([`normal`], [`Zipf`], [`exponential`]) cover everything the
//! simulator needs from `rand_distr`.

use core::ops::Range;

/// Derives independent, reproducible RNG streams from one root seed.
///
/// Each `(root_seed, label)` pair yields a fixed stream; distinct labels
/// yield decorrelated streams.
///
/// # Examples
///
/// ```
/// use cim_sim::rng::{Rng, SeedTree};
///
/// let tree = SeedTree::new(42);
/// let mut a1 = tree.rng("crossbar-noise");
/// let mut a2 = tree.rng("crossbar-noise");
/// let mut b = tree.rng("fault-injection");
/// let x1: u64 = a1.gen();
/// let x2: u64 = a2.gen();
/// let y: u64 = b.gen();
/// assert_eq!(x1, x2, "same label replays the same stream");
/// assert_ne!(x1, y, "different labels are decorrelated");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedTree {
    root: u64,
}

impl SeedTree {
    /// Creates a seed tree from a root experiment seed.
    pub fn new(root: u64) -> Self {
        SeedTree { root }
    }

    /// The root seed.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derives the 64-bit seed for a labelled stream.
    pub fn seed_for(&self, label: &str) -> u64 {
        // FNV-1a over the label, mixed with the root through SplitMix64.
        let mut h = Fnv1a::new();
        h.write(label.as_bytes());
        splitmix64(self.root ^ h.finish())
    }

    /// Creates the RNG for a labelled stream.
    pub fn rng(&self, label: &str) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(self.seed_for(label))
    }

    /// Derives a child tree, for hierarchies like
    /// `experiment → tile[i] → micro-unit[j]`.
    pub fn child(&self, label: &str) -> SeedTree {
        SeedTree {
            root: self.seed_for(label),
        }
    }

    /// Derives a child tree from an index (e.g. a replica number).
    pub fn child_idx(&self, index: u64) -> SeedTree {
        SeedTree {
            root: splitmix64(self.root ^ splitmix64(index.wrapping_add(0x9e37_79b9_7f4a_7c15))),
        }
    }
}

/// Streaming 64-bit FNV-1a, the workspace's one non-cryptographic
/// digest: stream seeds ([`SeedTree::seed_for`]), the serving
/// fingerprint and the chaos run digest all hash through it. Words are
/// hashed as their little-endian bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty digest (the FNV-1a 64-bit offset basis).
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in `bytes`, in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in a word as its little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// One step of the SplitMix64 mixing function.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The workspace's pseudo-random generator: xoshiro256++.
///
/// 256 bits of state, period `2^256 − 1`, passes BigCrush; the `++`
/// scrambler makes all 64 output bits usable. Seeded from a single `u64`
/// through four SplitMix64 steps, as the algorithm's authors recommend, so
/// nearby seeds still yield decorrelated streams.
///
/// The all-zero state is unreachable from `seed_from_u64`: SplitMix64's
/// output function is a bijection of its (distinct, incrementing) internal
/// states, so at most one of the four expansion outputs can be zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator whose state is expanded from `seed` with
    /// SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Xoshiro256pp {
            s: [next(), next(), next(), next()],
        }
    }

    /// Advances the generator one step and returns 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl Rng for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        Xoshiro256pp::next_u64(self)
    }
}

/// The random-number interface the simulator's models draw from.
///
/// A drop-in replacement for the slice of `rand::Rng` the codebase used:
/// `gen::<T>()`, `gen_range(a..b)` and `gen_bool(p)`. Any type producing
/// 64 random bits per step gets the whole surface for free.
pub trait Rng {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Generates a uniformly distributed value of `T` (for floats:
    /// uniform in `[0, 1)`).
    #[inline]
    fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Generates a value uniformly distributed over `range`.
    ///
    /// For floats the range is half-open `[start, end)`; for integers it
    /// is also half-open, matching `rand::Rng::gen_range` on `Range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T: UniformSample>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0,1], got {p}"
        );
        f64::from_rng(self) < p
    }
}

/// Types that can be sampled uniformly from raw random bits.
pub trait FromRng: Sized {
    /// Draws one value from `rng`.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl FromRng for u64 {
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl FromRng for u32 {
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl FromRng for u16 {
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl FromRng for u8 {
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl FromRng for usize {
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl FromRng for i64 {
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl FromRng for i32 {
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as i32
    }
}

impl FromRng for bool {
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl FromRng for f64 {
    /// Uniform in `[0, 1)` with the full 53 bits of mantissa precision.
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    /// Uniform in `[0, 1)` with the full 24 bits of mantissa precision.
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types that can be sampled uniformly from a half-open `Range`.
pub trait UniformSample: Sized {
    /// Draws one value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

impl UniformSample for f64 {
    #[inline]
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(
            range.start < range.end,
            "gen_range needs a non-empty range, got {:?}",
            range
        );
        let u = f64::from_rng(rng);
        range.start + (range.end - range.start) * u
    }
}

impl UniformSample for f32 {
    #[inline]
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(
            range.start < range.end,
            "gen_range needs a non-empty range, got {:?}",
            range
        );
        let u = f32::from_rng(rng);
        range.start + (range.end - range.start) * u
    }
}

/// Maps 64 random bits onto `0..span` by fixed-point multiplication
/// (Lemire's method without the rejection step: the residual bias is
/// `span / 2^64`, irrelevant at simulation sample counts).
#[inline]
fn bounded_u64<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            #[inline]
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(
                    range.start < range.end,
                    "gen_range needs a non-empty range, got {:?}",
                    range
                );
                let span = u64::from(range.end as u64 - range.start as u64);
                range.start + bounded_u64(rng, span) as $t
            }
        }
    )*};
}

uniform_unsigned!(u8, u16, u32, u64);

impl UniformSample for usize {
    #[inline]
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(
            range.start < range.end,
            "gen_range needs a non-empty range, got {:?}",
            range
        );
        let span = (range.end - range.start) as u64;
        range.start + bounded_u64(rng, span) as usize
    }
}

macro_rules! uniform_signed {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            #[inline]
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(
                    range.start < range.end,
                    "gen_range needs a non-empty range, got {:?}",
                    range
                );
                let span = (i128::from(range.end) - i128::from(range.start)) as u64;
                (i128::from(range.start) + i128::from(bounded_u64(rng, span))) as $t
            }
        }
    )*};
}

uniform_signed!(i8, i16, i32, i64);

/// Samples a standard-normal variate via the Box–Muller transform.
///
/// The zero-dependency policy excludes `rand_distr`, so the few
/// distributions the models need are provided here.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Draw u1 in (0,1] to keep ln() finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// Samples a normal variate with the given mean and standard deviation.
///
/// # Panics
///
/// Panics if `std_dev` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(
        std_dev >= 0.0,
        "std_dev must be non-negative, got {std_dev}"
    );
    mean + std_dev * standard_normal(rng)
}

/// Samples from a Zipf distribution over `{0, 1, .., n-1}` with exponent
/// `s`, by inverse-CDF over precomputed weights.
///
/// Zipf-distributed keys drive the key-value-store and search workloads
/// (Table 2), whose skew determines cache behaviour.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(
            s.is_finite() && s >= 0.0,
            "Zipf exponent must be >= 0, got {s}"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of distinct values.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws one value in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf has no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Samples an exponential variate with the given rate (events per unit).
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive, got {rate}");
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_tree_is_reproducible_and_label_sensitive() {
        let t = SeedTree::new(7);
        assert_eq!(t.seed_for("a"), t.seed_for("a"));
        assert_ne!(t.seed_for("a"), t.seed_for("b"));
        assert_ne!(SeedTree::new(8).seed_for("a"), t.seed_for("a"));
    }

    #[test]
    fn child_trees_are_decorrelated() {
        let t = SeedTree::new(123);
        let c1 = t.child("tile");
        let c2 = t.child("unit");
        assert_ne!(c1.root(), c2.root());
        assert_ne!(t.child_idx(0).root(), t.child_idx(1).root());
    }

    /// Golden values: the exact first outputs of fixed seeds, committed so
    /// any accidental change to the generator, the seeding expansion, or
    /// the label-hashing shows up as a bit-exact diff. Regenerate only on a
    /// deliberate algorithm change (print `next_u64()` and update).
    #[test]
    fn golden_replay_is_bit_exact() {
        let mut r = Xoshiro256pp::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        // First value agrees with the published rand_xoshiro test vector
        // for `Xoshiro256PlusPlus::seed_from_u64(0)`, which uses the same
        // SplitMix64 expansion.
        assert_eq!(
            first,
            vec![
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc,
                0x02ee_bf8c_3bbe_5e1a,
            ],
            "xoshiro256++ stream from seed 0 changed"
        );

        let tree = SeedTree::new(42);
        assert_eq!(
            tree.seed_for("crossbar-noise"),
            0xd739_ba77_2905_f1b1,
            "label seed derivation changed"
        );
        let mut s = tree.rng("crossbar-noise");
        assert_eq!(
            [s.next_u64(), s.next_u64()],
            [0x452f_f68b_83ce_d030, 0x51b4_4176_0e01_f429],
            "labelled stream changed"
        );
    }

    #[test]
    fn same_seed_replays_bit_identically() {
        let mut a = Xoshiro256pp::seed_from_u64(0xDEAD_BEEF);
        let mut b = Xoshiro256pp::seed_from_u64(0xDEAD_BEEF);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seed_tree_labels_decorrelate_streams() {
        // Correlation between two labelled streams should be ~0: with
        // 10_000 paired uniform draws, |r| stays well under 0.05.
        let t = SeedTree::new(2024);
        let mut a = t.rng("stream-a");
        let mut b = t.rng("stream-b");
        let n = 10_000;
        let (xs, ys): (Vec<f64>, Vec<f64>) =
            (0..n).map(|_| (a.gen::<f64>(), b.gen::<f64>())).unzip();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mx, my) = (mean(&xs), mean(&ys));
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
        let r = cov / (vx * vy).sqrt();
        assert!(r.abs() < 0.05, "label streams correlate: r = {r}");
    }

    #[test]
    fn uniform_f64_moments() {
        let mut rng = SeedTree::new(11).rng("uniform");
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "uniform mean {mean}");
        // Var of U(0,1) is 1/12 ≈ 0.0833.
        assert!((var - 1.0 / 12.0).abs() < 0.005, "uniform variance {var}");
        assert!(samples.iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn gen_range_covers_and_respects_bounds() {
        let mut rng = SeedTree::new(12).rng("range");
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            let v = rng.gen_range(0usize..10);
            counts[v] += 1;
        }
        assert!(counts.iter().all(|&c| c > 700), "coverage {counts:?}");
        for _ in 0..1000 {
            let f = rng.gen_range(-2.5f64..3.5);
            assert!((-2.5..3.5).contains(&f));
            let i = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SeedTree::new(13).rng("bool");
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((hits as f64 / 20_000.0 - 0.3).abs() < 0.01, "hits {hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    #[should_panic(expected = "non-empty range")]
    fn empty_range_panics() {
        let mut rng = SeedTree::new(14).rng("empty");
        let _ = rng.gen_range(3usize..3);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SeedTree::new(1).rng("normal");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "variance {var}");
    }

    #[test]
    fn normal_shifts_and_scales() {
        let mut rng = SeedTree::new(2).rng("normal");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 10.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.15, "mean {mean}");
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((var - 9.0).abs() < 0.7, "variance {var}");
    }

    #[test]
    fn zipf_is_skewed_toward_small_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SeedTree::new(3).rng("zipf");
        let mut counts = vec![0u32; 1000];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 should beat rank 10");
        assert!(counts[0] > counts[999] * 10, "heavy skew expected");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform_ish() {
        let z = Zipf::new(4, 0.0);
        let mut rng = SeedTree::new(4).rng("zipf0");
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SeedTree::new(5).rng("exp");
        let n = 30_000;
        let mean = (0..n).map(|_| exponential(&mut rng, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "Zipf support")]
    fn zipf_empty_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
