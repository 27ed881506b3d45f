//! The input boundary: the four parsers of external bytes —
//! `json::parse`, `validate_jsonl_line`, `AlertEvent::parse_jsonl_line`
//! and `parse_replay` — return an error on malformed input instead of
//! panicking or exhausting the stack, and the two writers whose output
//! is read back (chaos replay files and SLO alert lines) round-trip
//! exactly: `parse(render(x)) == x`.
//!
//! Each property draws its inputs from a seeded generator; failures
//! report a case seed replayable with `PROP_CASE_SEED=<seed>`.

use cim::obs::{AlertEvent, AlertSeverity, ObsConfig, Observability, Observed};
use cim::sim::json::{self, MAX_DEPTH};
use cim::sim::prop::{check, PropConfig};
use cim::sim::rng::Rng;
use cim::sim::telemetry::{validate_jsonl_line, Telemetry, TelemetryLevel};
use cim::sim::time::{SimDuration, SimTime};
use cim::sim::SeedTree;
use cim::sim::{prop_assert, prop_assert_eq};
use cim_chaos::replay::{parse_replay, render_replay, ReplayFile};
use cim_chaos::runner::{ChaosConfig, Weaken};
use cim_chaos::schedule::{ChaosAction, ChaosEvent, ChaosSchedule, Pressure};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The writers emit integers below 2^53 as exact JSON numbers.
const EXACT: u64 = 1 << 53;

/// A string over characters every JSON writer must escape or pass
/// through: quotes, backslashes, control bytes, non-ASCII.
fn text(rng: &mut impl Rng) -> String {
    const CHARS: [char; 14] = [
        'a', 'Z', '0', '/', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{7f}', 'é', '😀',
    ];
    let n = rng.gen_range(0usize..12);
    (0..n)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

/// A finite `f64`: an ordinary magnitude or one of the extremes.
fn finite(rng: &mut impl Rng) -> f64 {
    match rng.gen_range(0u32..6) {
        0 => f64::MAX,
        1 => f64::MIN_POSITIVE,
        2 => 5e-324,
        3 => -0.0,
        _ => rng.gen_range(-1e9..1e9),
    }
}

fn alert(
    at_ps: u64,
    window_ps: u64,
    burn_rate: f64,
    tenant: &str,
    rule: &str,
    page: bool,
) -> AlertEvent {
    AlertEvent {
        at: SimTime::from_ps(at_ps),
        tenant: tenant.to_owned(),
        rule: rule.to_owned(),
        severity: if page {
            AlertSeverity::Page
        } else {
            AlertSeverity::Ticket
        },
        burn_rate,
        window: SimDuration::from_ps(window_ps),
    }
}

fn random_alert(rng: &mut impl Rng) -> AlertEvent {
    let (at, window, burn) = (
        rng.gen_range(0..EXACT),
        rng.gen_range(0..EXACT),
        finite(rng),
    );
    let (tenant, rule) = (text(rng), text(rng));
    alert(at, window, burn, &tenant, &rule, rng.gen_bool(0.5))
}

/// One action of any kind, every field over its full range.
fn random_action(rng: &mut impl Rng) -> ChaosAction {
    match rng.gen_range(0u32..16) {
        0 => ChaosAction::FailUnit { unit: rng.gen() },
        1 => ChaosAction::RepairUnit { unit: rng.gen() },
        2 => ChaosAction::FailLink {
            ax: rng.gen(),
            ay: rng.gen(),
            bx: rng.gen(),
            by: rng.gen(),
        },
        3 => ChaosAction::RepairLink {
            ax: rng.gen(),
            ay: rng.gen(),
            bx: rng.gen(),
            by: rng.gen(),
        },
        4 => ChaosAction::CellFaults {
            unit: rng.gen(),
            rate_ppm: rng.gen(),
            stuck_on_ppm: rng.gen(),
            seed: rng.gen(),
        },
        5 => ChaosAction::DriftSpike {
            unit: rng.gen(),
            drift_ppm: rng.gen(),
        },
        6 => ChaosAction::Congestion {
            ax: rng.gen(),
            ay: rng.gen(),
            bx: rng.gen(),
            by: rng.gen(),
            packets: rng.gen(),
            bytes: rng.gen(),
        },
        7 => ChaosAction::ArrivalBurst { extra: rng.gen() },
        8 => ChaosAction::DeviceDown { device: rng.gen() },
        9 => ChaosAction::DeviceUp { device: rng.gen() },
        10 => ChaosAction::PowerLoss {
            device: rng.gen(),
            restart_after_ps: rng.gen(),
        },
        11 => ChaosAction::ForgeToken { unit: rng.gen() },
        12 => ChaosAction::ReplayToken {
            unit: rng.gen(),
            age_ps: rng.gen(),
        },
        13 => ChaosAction::CrossPartitionScan {
            vx: rng.gen(),
            vy: rng.gen(),
            packets: rng.gen(),
            bytes: rng.gen(),
        },
        14 => ChaosAction::HostileSelfProg { seed: rng.gen() },
        _ => ChaosAction::HostileDataflow { seed: rng.gen() },
    }
}

fn random_schedule(rng: &mut impl Rng) -> ChaosSchedule {
    let n = rng.gen_range(0usize..12);
    ChaosSchedule {
        pressure: Pressure {
            rate_x1000: rng.gen(),
            deadline_div: rng.gen(),
        },
        events: (0..n)
            .map(|_| ChaosEvent {
                at_ps: rng.gen_range(0..EXACT),
                action: random_action(rng),
            })
            .collect(),
    }
}

/// A replay file around `schedule`, every other field drawn from `seed`.
fn replay_file(schedule: ChaosSchedule, seed: u64) -> ReplayFile {
    let mut rng = SeedTree::new(seed).rng("replay");
    let rng = &mut rng;
    let mut size = || rng.gen_range(0..EXACT) as usize;
    let config = ChaosConfig {
        mesh_width: size(),
        mesh_height: size(),
        units_per_tile: size(),
        requests: size(),
        queue_capacity: size(),
        max_events: size(),
        fleet_devices: size(),
        fleet_replicas: size(),
        base_rate_hz: finite(rng),
        max_attempts: rng.gen(),
        base_deadline: SimDuration::from_ps(rng.gen_range(0..EXACT)),
        recovery_bound: SimDuration::from_ps(rng.gen_range(0..EXACT)),
        horizon_ps: rng.gen_range(0..EXACT),
        power_loss: rng.gen(),
        adversarial: rng.gen(),
        weaken: [
            Weaken::None,
            Weaken::RecoveryBoundZero,
            Weaken::NoFailuresEver,
            Weaken::SkipVolatileClear,
            Weaken::LeakCrossPartition,
        ][rng.gen_range(0usize..5)],
    };
    let triage = (0..rng.gen_range(0usize..4))
        .map(|_| random_alert(rng))
        .collect();
    ReplayFile {
        seed: rng.gen(),
        config,
        schedule,
        invariant: text(rng),
        detail: text(rng),
        fingerprint: rng.gen::<bool>().then(|| rng.gen()),
        triage,
    }
}

#[test]
fn replay_files_round_trip() {
    check(
        "replay files round-trip",
        &PropConfig::cases(300),
        |rng| (random_schedule(rng), rng.gen::<u64>()),
        |(schedule, seed)| {
            let file = replay_file(schedule.clone(), *seed);
            let text = render_replay(&file);
            let parsed = parse_replay(&text).map_err(|e| format!("{e}\n{text}"))?;
            prop_assert_eq!(&parsed, &file);
            prop_assert_eq!(render_replay(&parsed), text);
            Ok(())
        },
    );
}

#[test]
fn alert_lines_round_trip() {
    check(
        "alert lines round-trip",
        &PropConfig::cases(500),
        |rng| {
            (
                rng.gen_range(0..EXACT),
                rng.gen_range(0..EXACT),
                finite(rng),
                text(rng),
                text(rng),
                rng.gen::<bool>(),
            )
        },
        |(at, window, burn, tenant, rule, page)| {
            if *at >= EXACT || *window >= EXACT || !burn.is_finite() {
                return Ok(());
            }
            let a = alert(*at, *window, *burn, tenant, rule, *page);
            let line = a.to_jsonl_line();
            prop_assert!(validate_jsonl_line(&line).is_ok(), "{line}");
            let parsed = AlertEvent::parse_jsonl_line(&line)?;
            prop_assert_eq!(&parsed, &a);
            prop_assert_eq!(parsed.to_jsonl_line(), line);
            Ok(())
        },
    );
}

/// Well-formed documents of every kind the parsers read: a replay file
/// with triage lines, a telemetry export, a series export, alert lines,
/// a profile line and a bench record.
fn corpus() -> Vec<String> {
    let mut rng = SeedTree::new(0x1B0).rng("corpus");
    let mut schedule = random_schedule(&mut rng);
    while schedule.events.len() < 4 {
        schedule = random_schedule(&mut rng);
    }
    let mut file = replay_file(schedule, 7);
    file.triage = (0..3).map(|_| random_alert(&mut rng)).collect();

    let tel = Telemetry::new(TelemetryLevel::Metrics);
    let svc = tel.component("service");
    let tenants = vec![("t0".to_owned(), SimDuration::from_us(20))];
    let mut obs = Observability::new(&ObsConfig::default(), &tenants, &tel);
    for i in 0..20u64 {
        let now = SimTime::from_ns(i * 7_000);
        tel.counter_add(svc, "offered", 1);
        tel.gauge_set(svc, "queue_depth", (i % 3) as f64);
        tel.record(svc, "latency_ns", 4_000 + i * 900);
        let latency = SimDuration::from_ns(4_000 + i * 900);
        obs.observe_request(0, now, Observed::Done { latency });
        tel.with_registry(|r| obs.sample_to(now, r));
    }
    let series = obs.finish(None).series_jsonl;

    vec![
        render_replay(&file),
        tel.export_jsonl(),
        series,
        random_alert(&mut rng).to_jsonl_line(),
        alert(5, 0, 1.0, "chaos", "invariant/recovery_bound", true).to_jsonl_line(),
        "{\"component\":\"obs/profile\",\"metric\":\"profile/time\",\"kind\":\"profile\",\
         \"value\":12,\"stack\":\"engine;dpe\",\"unit\":\"ps\"}"
            .to_owned(),
        "{\"bench\":\"fleet/failover_analytic_4dev\",\"median_ns\":1250,\"samples\":[1,2.5e3]}"
            .to_owned(),
    ]
}

/// Bytes a mutation writes: JSON structure, escapes, control bytes and
/// the start of a multi-byte character.
const BYTES: &[u8] = b"{}[]\":,\\-+.eE0123456789ntfu \t\r\n\x00\x1f\x7f\xc3\xf0";

/// Number literals at or past the edges the readers check.
const NUMBERS: [&str; 10] = [
    "-1",
    "-0",
    "0.5",
    "1e308",
    "1e999",
    "-1e999",
    "4503599627370496",
    "9007199254740993",
    "18446744073709551616",
    "00",
];

/// Applies one random mutation to `doc`.
fn mutate(rng: &mut impl Rng, doc: &mut Vec<u8>) {
    let at = rng.gen_range(0..doc.len() + 1);
    let end = (at + rng.gen_range(1usize..17)).min(doc.len());
    match rng.gen_range(0u32..6) {
        0 if at < doc.len() => doc[at] = BYTES[rng.gen_range(0..BYTES.len())],
        1 => {
            doc.drain(at..end);
        }
        2 => {
            let copy = doc[at..end].to_vec();
            doc.splice(end..end, copy);
        }
        3 => {
            // Deep nesting, closed or not, up to far past any stack an
            // uncapped recursive parser could survive.
            let depth = [2, MAX_DEPTH, MAX_DEPTH + 1, 100_000][rng.gen_range(0usize..4)];
            let (open, close) = if rng.gen_bool(0.5) {
                ("[", "]")
            } else {
                ("{\"k\":", "}")
            };
            let mut nest = open.repeat(depth);
            if rng.gen_bool(0.5) {
                nest.push('0');
                nest.push_str(&close.repeat(depth));
            }
            doc.splice(at..at, nest.into_bytes());
        }
        4 => {
            let number = NUMBERS[rng.gen_range(0..NUMBERS.len())];
            doc.splice(at..end, number.bytes());
        }
        _ => doc.truncate(at),
    }
}

/// Runs all four parsers over `doc`: the replay parser over the whole
/// text, the line parsers over each line.
fn parse_all(doc: &str) {
    let _ = parse_replay(doc);
    for line in doc.lines() {
        let _ = json::parse(line);
        let _ = validate_jsonl_line(line);
        let _ = AlertEvent::parse_jsonl_line(line);
    }
}

#[test]
fn parsers_survive_mutated_input() {
    let corpus = corpus();
    parse_replay(&corpus[0]).expect("the corpus replay file parses");
    for line in corpus.iter().flat_map(|doc| doc.lines()) {
        json::parse(line).expect("every corpus line is JSON");
    }
    check(
        "parsers survive mutated input",
        &PropConfig::cases(2_000),
        |rng| {
            let mut doc = corpus[rng.gen_range(0..corpus.len())].clone().into_bytes();
            for _ in 0..rng.gen_range(1u32..7) {
                mutate(rng, &mut doc);
            }
            String::from_utf8_lossy(&doc).into_owned()
        },
        |doc| {
            let survived = catch_unwind(AssertUnwindSafe(|| parse_all(doc)));
            prop_assert!(survived.is_ok(), "a parser panicked");
            Ok(())
        },
    );
}
