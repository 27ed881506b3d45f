//! Instant-based micro-benchmark harness (replaces `criterion`).
//!
//! Each benchmark is warmed up, auto-batched so one timed sample lasts long
//! enough for `Instant` resolution not to matter, then sampled N times.
//! Per-iteration statistics (min / median / mean / p95, in nanoseconds) are
//! emitted as **one JSON object per line on stdout**, so bench trajectories
//! can be captured with nothing but a shell redirect:
//!
//! ```text
//! cargo bench --bench hotpaths > BENCH_hotpaths.json
//! ```
//!
//! Environment overrides: `BENCH_SAMPLES` (default 30), `BENCH_WARMUP_MS`
//! (default 50), `BENCH_TARGET_SAMPLE_US` (default 500 — the auto-batcher
//! sizes each timed sample to roughly this long).

use cim_sim::stats::Samples;
use std::time::Instant;

/// Maps `f` over the points of a sweep on up to `CIM_THREADS` host
/// threads, preserving point order — the parallel-map entry every
/// multi-device experiment sweep (sec6 batch curve, fig6 evolution
/// modes, crossover grid) funnels through. Each point must build its own
/// device/model state inside `f`; see [`cim_sim::pool`] for the
/// determinism contract.
pub fn parallel_points<T, R, F>(points: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    cim_sim::pool::parallel_map(points, f)
}

/// [`parallel_points`] with an explicit thread count (used by the
/// determinism tests; results are identical at every count).
pub fn parallel_points_threads<T, R, F>(threads: usize, points: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    cim_sim::pool::parallel_map_threads(threads, points, f)
}

/// Name of the host-calibration record every bench binary emits.
///
/// The leading underscore keeps it visually apart from real benches;
/// `bench_compare` uses the baseline-vs-fresh ratio of this record's
/// median to scale its wall-clock drift window by host speed, and
/// excludes the record itself from the drift check.
pub const CALIBRATION_BENCH: &str = "_calibration/host";

/// The fixed CPU-bound reference workload behind [`CALIBRATION_BENCH`]:
/// a deterministic mix of integer and scalar-f64 arithmetic shaped like
/// the simulator's hot loops, so its wall-clock tracks how fast this
/// host runs the real benches. Returns a checksum so the optimizer
/// cannot delete the work.
pub fn calibration_workload() -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    let mut x = 1.000_001f64;
    for i in 0..16_384u64 {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        x = x.mul_add(1.000_000_1, (acc >> 40) as f64 * 1e-18);
    }
    acc ^ x.to_bits()
}

/// Measures [`calibration_workload`] with the standard harness and
/// prints its record — call it first in every bench `main` so each
/// `BENCH_*.json` carries its producing host's speed reference.
pub fn emit_calibration() {
    let mut g = Group::new("_calibration");
    g.bench("host", calibration_workload);
    g.finish();
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Sampling parameters, shared by every benchmark in a [`Group`].
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Timed samples per benchmark.
    pub samples: usize,
    /// Warmup duration before calibration, in milliseconds.
    pub warmup_ms: u64,
    /// Target duration of one timed sample, in microseconds; the batch
    /// size is chosen so `iters_per_sample × time_per_iter ≈` this.
    pub target_sample_us: u64,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            samples: env_u64("BENCH_SAMPLES", 30) as usize,
            warmup_ms: env_u64("BENCH_WARMUP_MS", 50),
            target_sample_us: env_u64("BENCH_TARGET_SAMPLE_US", 500),
        }
    }
}

/// The measured result of one benchmark.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Full benchmark name (`group/name`).
    pub name: String,
    /// Number of timed samples taken.
    pub samples: usize,
    /// Iterations per timed sample (auto-calibrated).
    pub iters_per_sample: u64,
    /// Fastest observed per-iteration time, nanoseconds.
    pub min_ns: f64,
    /// Median per-iteration time, nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration time, nanoseconds.
    pub mean_ns: f64,
    /// 95th-percentile per-iteration time, nanoseconds.
    pub p95_ns: f64,
    /// Elements processed per iteration, if declared with
    /// [`Group::throughput`]; lets consumers derive elements/second.
    pub throughput_elems: Option<u64>,
}

impl BenchReport {
    fn from_samples(
        name: String,
        iters_per_sample: u64,
        per_iter_ns: Vec<f64>,
        throughput_elems: Option<u64>,
    ) -> Self {
        let mut timings = Samples::new();
        for &v in &per_iter_ns {
            timings.record(v);
        }
        // One sort serves every rank (`Samples::percentiles`), instead of
        // paying the O(n log n) `percentile` cost per statistic.
        let q = timings
            .percentiles(&[0.0, 50.0, 95.0])
            .expect("at least one timed sample");
        BenchReport {
            name,
            samples: timings.len(),
            iters_per_sample,
            min_ns: q[0],
            median_ns: q[1],
            mean_ns: timings.mean(),
            p95_ns: q[2],
            throughput_elems,
        }
    }

    /// The report as one JSON object (no trailing newline).
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"bench\":\"{}\",\"samples\":{},\"iters_per_sample\":{},\
             \"min_ns\":{:.1},\"median_ns\":{:.1},\"mean_ns\":{:.1},\"p95_ns\":{:.1}",
            self.name,
            self.samples,
            self.iters_per_sample,
            self.min_ns,
            self.median_ns,
            self.mean_ns,
            self.p95_ns
        );
        if let Some(elems) = self.throughput_elems {
            let eps = elems as f64 * 1e9 / self.median_ns.max(f64::MIN_POSITIVE);
            s.push_str(&format!(
                ",\"throughput_elems\":{elems},\"elems_per_sec\":{eps:.0}"
            ));
        }
        s.push('}');
        s
    }
}

/// A named group of benchmarks, mirroring criterion's `benchmark_group`.
///
/// # Examples
///
/// ```
/// use cim_bench::harness::Group;
///
/// let mut g = Group::new("demo");
/// g.bench("sum_1k", || (0u64..1000).sum::<u64>());
/// let reports = g.finish();
/// assert_eq!(reports[0].name, "demo/sum_1k");
/// assert!(reports[0].median_ns > 0.0);
/// ```
#[derive(Debug)]
pub struct Group {
    prefix: String,
    opts: BenchOptions,
    throughput_elems: Option<u64>,
    reports: Vec<BenchReport>,
}

impl Group {
    /// Creates a group with default (env-overridable) options.
    pub fn new(prefix: impl Into<String>) -> Self {
        Group::with_options(prefix, BenchOptions::default())
    }

    /// Creates a group with explicit options.
    pub fn with_options(prefix: impl Into<String>, opts: BenchOptions) -> Self {
        Group {
            prefix: prefix.into(),
            opts,
            throughput_elems: None,
            reports: Vec::new(),
        }
    }

    /// Declares the per-iteration element count for subsequent benches, so
    /// reports carry an elements/second figure.
    pub fn throughput(&mut self, elems: u64) {
        self.throughput_elems = Some(elems);
    }

    /// Overrides the sample count for subsequent benches.
    pub fn sample_size(&mut self, samples: usize) {
        self.opts.samples = samples.max(2);
    }

    /// Runs one benchmark: warmup, batch calibration, timed samples; prints
    /// the JSON line to stdout and retains the report.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        // Warmup + calibration: run until the warmup budget elapses,
        // tracking the observed per-iteration cost.
        let warmup_budget_ns = self.opts.warmup_ms.saturating_mul(1_000_000).max(1);
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while (Instant::now() - warmup_start).as_nanos() < u128::from(warmup_budget_ns)
            || warmup_iters < 3
        {
            std::hint::black_box(f());
            warmup_iters += 1;
        }
        let per_iter_ns =
            ((Instant::now() - warmup_start).as_nanos() as f64 / warmup_iters as f64).max(1.0);
        let target_ns = (self.opts.target_sample_us as f64) * 1_000.0;
        let batch = ((target_ns / per_iter_ns).round() as u64).clamp(1, 1 << 24);

        let mut per_iter = Vec::with_capacity(self.opts.samples);
        for _ in 0..self.opts.samples {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            per_iter.push((Instant::now() - t).as_nanos() as f64 / batch as f64);
        }
        self.push_report(name, batch, per_iter);
    }

    /// Runs one benchmark whose routine needs fresh state per iteration
    /// (criterion's `iter_batched_ref`): `setup` runs untimed, `routine`
    /// is timed over a pre-built batch of inputs, and both the inputs and
    /// the routine's outputs are dropped after the timer stops, so a
    /// large state's teardown is not charged to the routine.
    pub fn bench_with_setup<S, T, G, F>(&mut self, name: &str, mut setup: G, mut routine: F)
    where
        G: FnMut() -> S,
        F: FnMut(&mut S) -> T,
    {
        // Warmup and calibrate on (setup + routine), then cap the batch so
        // pre-built inputs stay modest.
        let warmup_budget_ns = self.opts.warmup_ms.saturating_mul(1_000_000).max(1);
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        let mut routine_ns_est = f64::MAX;
        while (Instant::now() - warmup_start).as_nanos() < u128::from(warmup_budget_ns)
            || warmup_iters < 3
        {
            let mut input = setup();
            let t = Instant::now();
            let output = std::hint::black_box(routine(&mut input));
            routine_ns_est = routine_ns_est.min((Instant::now() - t).as_nanos() as f64);
            drop((output, input));
            warmup_iters += 1;
        }
        let target_ns = (self.opts.target_sample_us as f64) * 1_000.0;
        let batch = ((target_ns / routine_ns_est.max(1.0)).round() as u64).clamp(1, 256);

        let mut per_iter = Vec::with_capacity(self.opts.samples);
        for _ in 0..self.opts.samples {
            let mut inputs: Vec<S> = (0..batch).map(|_| setup()).collect();
            let mut outputs = Vec::with_capacity(inputs.len());
            let t = Instant::now();
            for input in &mut inputs {
                outputs.push(std::hint::black_box(routine(input)));
            }
            per_iter.push((Instant::now() - t).as_nanos() as f64 / batch as f64);
            drop((outputs, inputs));
        }
        self.push_report(name, batch, per_iter);
    }

    fn push_report(&mut self, name: &str, batch: u64, per_iter: Vec<f64>) {
        let report = BenchReport::from_samples(
            format!("{}/{}", self.prefix, name),
            batch,
            per_iter,
            self.throughput_elems,
        );
        println!("{}", report.json_line());
        self.reports.push(report);
    }

    /// Ends the group, returning the collected reports.
    pub fn finish(self) -> Vec<BenchReport> {
        self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BenchOptions {
        BenchOptions {
            samples: 5,
            warmup_ms: 1,
            target_sample_us: 50,
        }
    }

    #[test]
    fn reports_ordered_stats_and_json() {
        let mut g = Group::with_options("t", quick());
        g.throughput(64);
        g.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        let r = &g.finish()[0];
        assert_eq!(r.name, "t/spin");
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.p95_ns);
        assert!(r.min_ns > 0.0);
        let j = r.json_line();
        assert!(j.starts_with("{\"bench\":\"t/spin\""), "{j}");
        assert!(j.contains("\"median_ns\":"), "{j}");
        assert!(j.contains("\"elems_per_sec\":"), "{j}");
        assert!(j.ends_with('}'), "{j}");
    }

    #[test]
    fn with_setup_gives_routine_fresh_state() {
        let mut g = Group::with_options("t", quick());
        g.bench_with_setup(
            "drain",
            || vec![1u64; 256],
            |v| {
                // Draining twice would panic on reused state.
                assert_eq!(v.len(), 256);
                v.clear();
            },
        );
        let r = &g.finish()[0];
        assert!(r.median_ns > 0.0);
    }

    #[test]
    fn with_setup_drops_state_after_the_timer_stops() {
        use std::time::Duration;
        struct SlowDrop;
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        let mut g = Group::with_options("t", quick());
        // A 1 ms routine keeps the batch at one input per sample; the
        // input's and the output's 20 ms drops must stay off the clock.
        g.bench_with_setup(
            "teardown",
            || SlowDrop,
            |_| {
                std::thread::sleep(Duration::from_millis(1));
                SlowDrop
            },
        );
        let r = &g.finish()[0];
        assert_eq!(r.iters_per_sample, 1);
        assert!(r.median_ns < 10e6, "teardown was timed: {r:?}");
    }

    #[test]
    fn calibration_workload_is_deterministic_and_nontrivial() {
        let a = calibration_workload();
        assert_eq!(a, calibration_workload(), "fixed instruction stream");
        assert_ne!(a, 0);
        let mut g = Group::with_options("_calibration", quick());
        g.bench("host", calibration_workload);
        let r = &g.finish()[0];
        assert_eq!(r.name, CALIBRATION_BENCH);
        assert!(r.median_ns > 0.0);
        assert_eq!(r.throughput_elems, None, "never part of throughput checks");
    }

    #[test]
    fn sample_size_and_throughput_are_per_group() {
        let mut g = Group::with_options("t", quick());
        g.sample_size(3);
        g.bench("noop", || 1u8);
        let r = &g.finish()[0];
        assert_eq!(r.samples, 3);
        assert_eq!(r.throughput_elems, None);
    }
}
