//! The untraced run, and the result line every run prints.

use crate::probe::Probe;
use crate::workload::{
    class_graphs, latencies_us, reference_seed, request_inputs, run_sample, stream_seed,
    ClassGraph, Outcome, Sample, Workload,
};
use crate::Args;
use cim_dataflow::interpreter;
use cim_fabric::service::Disposition;
use cim_sim::stats::Samples;
use cim_sim::SimMode;
use std::collections::HashMap;
use std::time::Instant;

/// The probe's typical time on the reference host, a shared 2-core
/// x86-64 VM. The gated host figures are normalised: raw figure ×
/// `PROBE_REF_S` ÷ the probe time measured next to the sample, i.e. "at
/// the reference host's speed". Frozen with the probe.
pub const PROBE_REF_S: f64 = 0.0018;

/// One named metric with its unit.
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Default)]
pub struct Report {
    /// No check breached.
    pub correct: bool,
    /// Requests the benchmark sent through the program.
    pub attempted: u64,
    /// Requests in breached streams, plus requests that failed outright.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    /// Prints the human-readable lines, then the one-line JSON result.
    pub fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        for m in &self.metrics {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Stream accounting shared by both run kinds: requests attempted and
/// failed, breach descriptions, and the workload-character counters.
#[derive(Default)]
pub struct Ledger {
    /// Requests sent.
    pub attempted: u64,
    /// Requests failed (breached streams, retry budgets exhausted).
    pub failed: u64,
    /// Breach descriptions.
    pub breaches: Vec<String>,
    /// Shed requests in timed streams.
    pub shed: u64,
    /// Timed-out requests in timed streams.
    pub timed_out: u64,
    /// Failover re-routes in timed streams.
    pub failovers: u64,
    /// Spare recoveries in timed streams.
    pub recoveries: u64,
    /// Retries in timed streams.
    pub retries: u64,
    /// Power-loss crashes in timed streams.
    pub crashes: u64,
}

impl Ledger {
    /// Books one stream: its requests count as attempted, and as failed
    /// when any accounting identity breaks.
    pub fn book(&mut self, label: &str, o: &Outcome) {
        self.attempted += o.offered as u64;
        let b = crate::workload::breaches(o);
        if b.is_empty() {
            self.failed += o.failed as u64;
        } else {
            self.failed += o.offered as u64;
            self.breaches
                .extend(b.into_iter().map(|m| format!("{label}: {m}")));
        }
    }

    /// Books a breach found outside the accounting identities.
    pub fn breach(&mut self, label: &str, requests: usize, what: String) {
        self.failed += requests as u64;
        self.breaches.push(format!("{label}: {what}"));
    }

    /// Adds a timed stream's workload-character counters.
    pub fn character(&mut self, o: &Outcome) {
        self.shed += o.shed as u64;
        self.timed_out += o.timed_out as u64;
        self.failovers += o.failovers as u64;
        self.recoveries += o.recoveries as u64;
        self.retries += o.retries as u64;
        self.crashes += o.crashes as u64;
    }

    /// Whether the timed streams kept the workload's character.
    pub fn character_check(&self, w: Workload) -> String {
        let missing: Vec<&str> = w
            .character()
            .iter()
            .filter(|c| {
                let count = match &c[1..] {
                    "shed" => self.shed,
                    "timed_out" => self.timed_out,
                    "failovers" => self.failovers,
                    "recoveries" => self.recoveries,
                    _ => self.crashes,
                };
                (count > 0) != c.starts_with('+')
            })
            .copied()
            .collect();
        if missing.is_empty() {
            format!("character check: ok ({})", w.character().join(" "))
        } else {
            format!("character check: MISSING {}", missing.join(" "))
        }
    }

    /// Human-readable summary lines.
    pub fn lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "character: shed={} timed_out={} failovers={} recoveries={} retries={} crashes={}",
            self.shed, self.timed_out, self.failovers, self.recoveries, self.retries, self.crashes
        )];
        out.extend(self.breaches.iter().map(|b| format!("BREACH {b}")));
        out
    }
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; NaN when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// "median M unit (n=N, pP V)": the median next to the sample count and
/// the highest whole percentile with at least ten samples beyond it.
pub fn describe(v: &[f64], unit: &str) -> String {
    let n = v.len();
    let mut s = format!("median {:.4} {unit} (n={n}", median(v));
    if n >= 20 {
        let p = (100.0 * (1.0 - 10.0 / n as f64)).floor();
        s.push_str(&format!(", p{p} {:.4} {unit}", quantile(v, p / 100.0)));
    }
    s.push(')');
    s
}

/// Peak resident set of this process, MB (1e6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Relative L2 error of every completed request's output against the
/// floating-point dataflow interpreter, pooled over the stream
/// (`‖out − ref‖ / ‖ref‖`). Also checks that the regenerated request
/// classes match the served ones.
fn output_error(o: &Outcome, seed: u64, graphs: &[ClassGraph]) -> Result<f64, String> {
    let inputs = request_inputs(seed, o.offered, graphs);
    let (mut err2, mut ref2) = (0.0f64, 0.0f64);
    for (r, (class, x)) in o.outcomes.iter().zip(&inputs) {
        if r.class != *class {
            return Err(format!(
                "request {} class {} != regenerated {class}",
                r.id, r.class
            ));
        }
        if let Disposition::Completed { output, .. } = &r.disposition {
            let g = &graphs[*class];
            let reference = interpreter::execute(&g.graph, &HashMap::from([(g.src, x.clone())]))
                .map_err(|e| e.to_string())?;
            let want = &reference[&g.sink];
            if want.len() != output.len() {
                return Err(format!("request {} output width {}", r.id, output.len()));
            }
            for (a, b) in output.iter().zip(want) {
                err2 += (a - b) * (a - b);
                ref2 += b * b;
            }
        }
    }
    Ok((err2 / ref2.max(f64::MIN_POSITIVE)).sqrt())
}

/// Largest tolerated [`output_error`] per tier. The analytic tier is the
/// exact quantised product; the detailed tier adds analog read noise and
/// ADC error, so its bound only catches outputs that are wrong, not
/// noisy (an all-zero output scores 1).
fn output_tolerance(tier: SimMode) -> f64 {
    match tier {
        SimMode::Detailed => 0.6,
        SimMode::Analytic => 0.05,
    }
}

/// Simulated outcomes pooled over several streams.
#[derive(Default)]
struct Pool {
    latencies: Samples,
    offered: u64,
    completed: u64,
    energy_fj: u64,
}

impl Pool {
    fn add(&mut self, s: &Sample) {
        for l in latencies_us(&s.outcome) {
            self.latencies.record(l);
        }
        self.offered += s.outcome.offered as u64;
        self.completed += s.outcome.completed as u64;
        self.energy_fj += s.energy_fj;
    }

    fn p99(&mut self) -> f64 {
        self.latencies.percentile(99.0).unwrap_or(f64::NAN)
    }
}

fn rel(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs()
}

/// The analytic tier's largest relative error against the detailed tier
/// on identical arrivals, over pooled p99 latency and energy, in %.
/// Detailed workloads reuse their reference streams as the detailed
/// side; analytic workloads replay shorter fixed-seed streams in both.
fn analytic_err_pct(
    w: Workload,
    brief: bool,
    graphs: &[ClassGraph],
    reference: &mut Pool,
    ledger: &mut Ledger,
) -> f64 {
    let n = w.requests(brief);
    let (mut detailed, mut analytic) = (Pool::default(), Pool::default());
    let mut replay = |tier: SimMode, seed: u64, len: usize, pool: &mut Pool| {
        let s = run_sample(w, tier, seed, len, graphs);
        ledger.book("xcheck", &s.outcome);
        pool.add(&s);
    };
    let detailed = if w.tier() == SimMode::Detailed {
        for j in 0..w.reference_streams(brief) {
            replay(SimMode::Analytic, reference_seed(j), n, &mut analytic);
        }
        reference
    } else {
        let len = w.xcheck_requests(brief).min(n);
        for j in 0..(w.xcheck_requests(brief) / len).max(1) {
            replay(
                SimMode::Detailed,
                reference_seed(100 + j),
                len,
                &mut detailed,
            );
            replay(
                SimMode::Analytic,
                reference_seed(100 + j),
                len,
                &mut analytic,
            );
        }
        &mut detailed
    };
    let lat = rel(analytic.p99(), detailed.p99());
    let energy = rel(analytic.energy_fj as f64, detailed.energy_fj as f64);
    100.0 * lat.max(energy)
}

/// The untraced run: every end-to-end metric.
pub fn untraced(a: &Args) -> Report {
    let w = a.workload;
    let tier = w.tier();
    let n = w.requests(a.brief);
    let graphs = class_graphs();
    let probe = Probe::new();
    let mut ledger = Ledger::default();
    let mut pool = Pool::default();
    // (setup s, run µs per request, probe s next to the sample)
    let mut timed: Vec<(f64, f64, f64)> = Vec::new();
    let mut worst_output = 0.0f64;

    let start = Instant::now();
    let mut probe_prev = probe.time_s();
    let mut record = |s: &Sample, probe_prev: &mut f64, keep: bool| {
        let probe_next = probe.time_s();
        if keep {
            let per_req_us = s.run_s * 1e6 / s.outcome.offered as f64;
            timed.push((s.setup_s, per_req_us, 0.5 * (*probe_prev + probe_next)));
        }
        *probe_prev = probe_next;
    };
    // Reference streams: fixed seeds, so the simulated outcomes repeat
    // exactly in every run; the first also warms caches and is untimed.
    for j in 0..w.reference_streams(a.brief) {
        let seed = reference_seed(j);
        let s = run_sample(w, tier, seed, n, &graphs);
        record(&s, &mut probe_prev, j > 0);
        ledger.book("reference", &s.outcome);
        match output_error(&s.outcome, seed, &graphs) {
            Ok(e) if e <= output_tolerance(tier) => worst_output = worst_output.max(e),
            Ok(e) => ledger.breach("reference", s.outcome.offered, format!("output error {e}")),
            Err(e) => ledger.breach("reference", s.outcome.offered, e),
        }
        pool.add(&s);
    }
    // Timed streams from the command-line seed until the time is up.
    let mut last = None;
    let mut i = 0;
    while if a.brief {
        i < 2
    } else {
        start.elapsed().as_secs_f64() < a.seconds
    } {
        let seed = stream_seed(a.seed, i);
        let s = run_sample(w, tier, seed, n, &graphs);
        record(&s, &mut probe_prev, true);
        ledger.book("timed", &s.outcome);
        ledger.character(&s.outcome);
        last = Some((seed, s.digest));
        i += 1;
    }
    // Replaying the last timed stream's seed must reproduce its digest.
    if let Some((seed, want)) = last {
        let s = run_sample(w, tier, seed, n, &graphs);
        ledger.book("replay", &s.outcome);
        if s.digest != want {
            ledger.breach("replay", n, format!("digest {:#x} != {want:#x}", s.digest));
        }
    }
    let err_pct = analytic_err_pct(w, a.brief, &graphs, &mut pool, &mut ledger);

    let setup: Vec<f64> = timed.iter().map(|t| t.0).collect();
    let raw: Vec<f64> = timed.iter().map(|t| t.1).collect();
    let probes: Vec<f64> = timed.iter().map(|t| t.2).collect();
    let norm: Vec<f64> = timed.iter().map(|t| t.1 * PROBE_REF_S / t.2).collect();
    let setup_norm: Vec<f64> = timed.iter().map(|t| t.0 * PROBE_REF_S / t.2).collect();
    let mut lines = vec![
        format!(
            "workload {} seed {} tier {:?} requests/stream {n}",
            w.name(),
            a.seed,
            tier
        ),
        format!("host_us_per_req raw: {}", describe(&raw, "us")),
        format!("host_us_per_req normalised: {}", describe(&norm, "us")),
        format!(
            "probe: {}",
            describe(&probes.iter().map(|p| p * 1e3).collect::<Vec<_>>(), "ms")
        ),
        format!("setup_s raw: {}", describe(&setup, "s")),
        format!("setup_s normalised: {}", describe(&setup_norm, "s")),
        format!(
            "output error vs float reference: max {worst_output:.4} (tolerance {})",
            output_tolerance(tier)
        ),
    ];
    lines.extend(ledger.lines());
    lines.push(ledger.character_check(w));
    let offered = pool.offered.max(1) as f64;
    Report {
        correct: ledger.breaches.is_empty(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: vec![
            Metric {
                name: "host_us_per_req",
                value: median(&norm),
                unit: "us",
            },
            Metric {
                name: "setup_s",
                value: median(&setup_norm),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MB",
            },
            Metric {
                name: "sim_p99_us",
                value: pool.p99(),
                unit: "sim_us",
            },
            Metric {
                name: "sim_goodput",
                value: pool.completed as f64 / offered,
                unit: "fraction",
            },
            Metric {
                name: "sim_nj_per_req",
                value: pool.energy_fj as f64 / 1e6 / offered,
                unit: "nJ",
            },
            Metric {
                name: "analytic_err_pct",
                value: err_pct,
                unit: "%",
            },
        ],
        lines,
    }
}
