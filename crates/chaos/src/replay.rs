//! Self-contained replay files.
//!
//! A replay file is JSON lines in the telemetry export convention —
//! every line is an object with `component`, `metric` and `value` keys
//! and passes [`cim_sim::telemetry::validate_jsonl_line`] — so the same
//! tooling that consumes telemetry can consume reproducers. Line one is
//! the header (`metric: "repro"`): campaign seed, the full
//! [`ChaosConfig`], the schedule's pressure, the violated invariant and
//! the violating run's fingerprint. Each following line is one schedule
//! event (`metric: "event/<kind>"`, `value` = fire time in
//! picoseconds), then the triage timeline: the violating run's SLO
//! alerts (`metric: "alert/<rule>"`, rendered by
//! [`cim_obs::AlertEvent::to_jsonl_line`]) so a reproducer records
//! *when* the run went bad, not just that it did. The header's `value`
//! counts schedule events only — triage lines ride behind them and are
//! routed by metric prefix on parse.
//!
//! Two `u64` fields can exceed 2^53 — the campaign seed and the run
//! fingerprint — so they are serialized as `"0x…"` hex *strings*;
//! everything else is an exact JSON number. Rendering goes through
//! [`cim_sim::json::Json`], whose `Display` is canonical, so
//! `parse(render(x)) == x` byte-for-byte on re-render.

use crate::runner::{ChaosConfig, Weaken};
use crate::schedule::{ChaosAction, ChaosEvent, ChaosSchedule, Pressure};
use cim_obs::AlertEvent;
use cim_sim::json::{self, Json};
use cim_sim::time::SimDuration;

/// Everything needed to reproduce one violating run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayFile {
    /// Campaign seed the schedule was generated from (0 for hand-built
    /// schedules).
    pub seed: u64,
    /// The exact harness configuration of the violating run.
    pub config: ChaosConfig,
    /// The (possibly shrunk) schedule that violates the invariant.
    pub schedule: ChaosSchedule,
    /// Which invariant tripped.
    pub invariant: String,
    /// Human-readable violation description.
    pub detail: String,
    /// Fingerprint of the violating run, when the run completed.
    pub fingerprint: Option<u64>,
    /// Triage timeline: the violating run's SLO alerts in firing order,
    /// ending with the synthetic `invariant/<name>` page (see
    /// [`crate::runner::Violation::alerts`]). Empty for pre-triage
    /// replay files — parsing tolerates their absence.
    pub triage: Vec<AlertEvent>,
}

fn num(v: u64) -> Json {
    // Everything serialized as a plain number stays an exact integer.
    debug_assert!(v < (1u64 << 53));
    Json::Number(v as f64)
}

fn hex(v: u64) -> Json {
    Json::String(format!("{v:#018x}"))
}

/// Renders a replay file to its JSON-lines text.
pub fn render_replay(file: &ReplayFile) -> String {
    let cfg = &file.config;
    let mut header: Vec<(String, Json)> = vec![
        ("component".to_owned(), Json::String("chaos".to_owned())),
        ("metric".to_owned(), Json::String("repro".to_owned())),
        ("value".to_owned(), num(file.schedule.events.len() as u64)),
        ("seed".to_owned(), hex(file.seed)),
        ("mesh_width".to_owned(), num(cfg.mesh_width as u64)),
        ("mesh_height".to_owned(), num(cfg.mesh_height as u64)),
        ("units_per_tile".to_owned(), num(cfg.units_per_tile as u64)),
        ("requests".to_owned(), num(cfg.requests as u64)),
        ("base_rate_hz".to_owned(), Json::Number(cfg.base_rate_hz)),
        ("queue_capacity".to_owned(), num(cfg.queue_capacity as u64)),
        ("max_attempts".to_owned(), num(u64::from(cfg.max_attempts))),
        (
            "base_deadline_ps".to_owned(),
            num(cfg.base_deadline.as_ps()),
        ),
        (
            "recovery_bound_ps".to_owned(),
            num(cfg.recovery_bound.as_ps()),
        ),
        ("horizon_ps".to_owned(), num(cfg.horizon_ps)),
        ("max_events".to_owned(), num(cfg.max_events as u64)),
        ("fleet_devices".to_owned(), num(cfg.fleet_devices as u64)),
        ("fleet_replicas".to_owned(), num(cfg.fleet_replicas as u64)),
        ("power_loss".to_owned(), num(u64::from(cfg.power_loss))),
        ("adversarial".to_owned(), num(u64::from(cfg.adversarial))),
        (
            "weaken".to_owned(),
            Json::String(cfg.weaken.name().to_owned()),
        ),
        (
            "rate_x1000".to_owned(),
            num(u64::from(file.schedule.pressure.rate_x1000)),
        ),
        (
            "deadline_div".to_owned(),
            num(u64::from(file.schedule.pressure.deadline_div)),
        ),
        ("invariant".to_owned(), Json::String(file.invariant.clone())),
        ("detail".to_owned(), Json::String(file.detail.clone())),
    ];
    header.push((
        "fingerprint".to_owned(),
        match file.fingerprint {
            Some(fp) => hex(fp),
            None => Json::Null,
        },
    ));

    let mut out = Json::Object(header).to_string();
    out.push('\n');
    for ev in &file.schedule.events {
        let mut pairs: Vec<(String, Json)> = vec![
            ("component".to_owned(), Json::String("chaos".to_owned())),
            (
                "metric".to_owned(),
                Json::String(format!("event/{}", ev.action.kind_name())),
            ),
            ("value".to_owned(), num(ev.at_ps)),
        ];
        pairs.extend(
            ev.action
                .fields()
                .into_iter()
                .map(|(key, v)| (key.to_owned(), num(v))),
        );
        out.push_str(&Json::Object(pairs).to_string());
        out.push('\n');
    }
    for alert in &file.triage {
        out.push_str(&alert.to_jsonl_line());
        out.push('\n');
    }
    out
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field \"{key}\""))
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field \"{key}\""))
}

fn get_hex(obj: &Json, key: &str) -> Result<u64, String> {
    let s = get_str(obj, key)?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("field \"{key}\" is not a 0x-hex string: {s:?}"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("field \"{key}\" is not hex: {e}"))
}

fn get_u32(obj: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(get_u64(obj, key)?).map_err(|_| format!("field \"{key}\" exceeds u32"))
}

fn parse_event(obj: &Json) -> Result<ChaosEvent, String> {
    let metric = get_str(obj, "metric")?;
    let kind = metric
        .strip_prefix("event/")
        .ok_or_else(|| format!("event line metric {metric:?} lacks the event/ prefix"))?;
    let at_ps = get_u64(obj, "value")?;
    let action = ChaosAction::from_fields(kind, |key| get_u64(obj, key))?;
    Ok(ChaosEvent { at_ps, action })
}

/// Parses a replay file from its JSON-lines text.
///
/// # Errors
///
/// Returns a description of the first malformed line or field.
pub fn parse_replay(text: &str) -> Result<ReplayFile, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines
        .next()
        .ok_or_else(|| "replay file is empty".to_owned())?;
    let header = json::parse(header_line).map_err(|e| format!("header: {e}"))?;
    if get_str(&header, "metric")? != "repro" {
        return Err("first line is not a repro header (metric != \"repro\")".to_owned());
    }

    let weaken_name = get_str(&header, "weaken")?;
    let config = ChaosConfig {
        mesh_width: get_u64(&header, "mesh_width")? as usize,
        mesh_height: get_u64(&header, "mesh_height")? as usize,
        units_per_tile: get_u64(&header, "units_per_tile")? as usize,
        requests: get_u64(&header, "requests")? as usize,
        base_rate_hz: header
            .get("base_rate_hz")
            .and_then(Json::as_f64)
            .ok_or_else(|| "missing or non-numeric field \"base_rate_hz\"".to_owned())?,
        queue_capacity: get_u64(&header, "queue_capacity")? as usize,
        max_attempts: get_u32(&header, "max_attempts")?,
        base_deadline: SimDuration::from_ps(get_u64(&header, "base_deadline_ps")?),
        recovery_bound: SimDuration::from_ps(get_u64(&header, "recovery_bound_ps")?),
        horizon_ps: get_u64(&header, "horizon_ps")?,
        max_events: get_u64(&header, "max_events")? as usize,
        // Pre-fleet replay files lack these fields; default to the
        // single-device harness they were recorded against.
        fleet_devices: header
            .get("fleet_devices")
            .and_then(Json::as_u64)
            .unwrap_or(0) as usize,
        fleet_replicas: header
            .get("fleet_replicas")
            .and_then(Json::as_u64)
            .unwrap_or(2) as usize,
        // Pre-crash replay files lack this field; those campaigns never
        // generated PowerLoss events.
        power_loss: header.get("power_loss").and_then(Json::as_u64).unwrap_or(0) != 0,
        // Pre-adversarial replay files lack this field; those campaigns
        // never generated attack events.
        adversarial: header
            .get("adversarial")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            != 0,
        weaken: Weaken::from_name(weaken_name)
            .ok_or_else(|| format!("unknown weaken mode {weaken_name:?}"))?,
    };
    let pressure = Pressure {
        rate_x1000: get_u32(&header, "rate_x1000")?,
        deadline_div: get_u32(&header, "deadline_div")?,
    };
    let declared_events = get_u64(&header, "value")? as usize;
    let fingerprint = match header.get("fingerprint") {
        Some(Json::Null) | None => None,
        Some(_) => Some(get_hex(&header, "fingerprint")?),
    };

    // Not sized from the header: its count is unchecked input until the
    // lines below confirm it.
    let mut events = Vec::new();
    let mut triage = Vec::new();
    for (i, line) in lines.enumerate() {
        let obj = json::parse(line).map_err(|e| format!("body line {}: {e}", i + 1))?;
        let metric = get_str(&obj, "metric")?;
        if metric.starts_with("alert/") {
            triage.push(
                AlertEvent::parse_jsonl_line(line)
                    .map_err(|e| format!("triage line {}: {e}", i + 1 - events.len()))?,
            );
        } else {
            events.push(parse_event(&obj).map_err(|e| format!("event line {}: {e}", i + 1))?);
        }
    }
    if events.len() != declared_events {
        return Err(format!(
            "header declares {declared_events} events, file has {}",
            events.len()
        ));
    }

    Ok(ReplayFile {
        seed: get_hex(&header, "seed")?,
        config,
        schedule: ChaosSchedule { pressure, events },
        invariant: get_str(&header, "invariant")?.to_owned(),
        detail: get_str(&header, "detail")?.to_owned(),
        fingerprint,
        triage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_sim::telemetry::validate_jsonl_line;

    fn sample() -> ReplayFile {
        ReplayFile {
            seed: 0xFFFF_FFFF_FFFF_FFFF, // deliberately above 2^53
            config: ChaosConfig {
                weaken: Weaken::RecoveryBoundZero,
                adversarial: true,
                ..ChaosConfig::default()
            },
            schedule: ChaosSchedule {
                pressure: Pressure {
                    rate_x1000: 4000,
                    deadline_div: 2,
                },
                events: vec![
                    ChaosEvent {
                        at_ps: 1_000_000,
                        action: ChaosAction::FailUnit { unit: 3 },
                    },
                    ChaosEvent {
                        at_ps: 2_000_000,
                        action: ChaosAction::CellFaults {
                            unit: 1,
                            rate_ppm: 500,
                            stuck_on_ppm: 250_000,
                            seed: u32::MAX,
                        },
                    },
                    ChaosEvent {
                        at_ps: 3_000_000,
                        action: ChaosAction::Congestion {
                            ax: 0,
                            ay: 1,
                            bx: 3,
                            by: 0,
                            packets: 16,
                            bytes: 128,
                        },
                    },
                    ChaosEvent {
                        at_ps: 4_000_000,
                        action: ChaosAction::ArrivalBurst { extra: 9 },
                    },
                    ChaosEvent {
                        at_ps: 5_000_000,
                        action: ChaosAction::PowerLoss {
                            device: 1,
                            restart_after_ps: 25_000_000,
                        },
                    },
                    ChaosEvent {
                        at_ps: 6_000_000,
                        action: ChaosAction::ForgeToken { unit: 5 },
                    },
                    ChaosEvent {
                        at_ps: 7_000_000,
                        action: ChaosAction::ReplayToken {
                            unit: 2,
                            age_ps: 60_000_000,
                        },
                    },
                    ChaosEvent {
                        at_ps: 8_000_000,
                        action: ChaosAction::CrossPartitionScan {
                            vx: 1,
                            vy: 0,
                            packets: 4,
                            bytes: 96,
                        },
                    },
                    ChaosEvent {
                        at_ps: 9_000_000,
                        action: ChaosAction::HostileSelfProg { seed: 1234 },
                    },
                    ChaosEvent {
                        at_ps: 10_000_000,
                        action: ChaosAction::HostileDataflow { seed: 4321 },
                    },
                    ChaosEvent {
                        at_ps: 11_000_000,
                        action: ChaosAction::RepairUnit { unit: u16::MAX },
                    },
                    ChaosEvent {
                        at_ps: 12_000_000,
                        action: ChaosAction::FailLink {
                            ax: 1,
                            ay: 2,
                            bx: 3,
                            by: 4,
                        },
                    },
                    ChaosEvent {
                        at_ps: 13_000_000,
                        action: ChaosAction::RepairLink {
                            ax: 5,
                            ay: 6,
                            bx: 7,
                            by: u16::MAX,
                        },
                    },
                    ChaosEvent {
                        at_ps: 14_000_000,
                        action: ChaosAction::DriftSpike {
                            unit: 7,
                            drift_ppm: u32::MAX,
                        },
                    },
                    ChaosEvent {
                        at_ps: 15_000_000,
                        action: ChaosAction::DeviceDown { device: 2 },
                    },
                    ChaosEvent {
                        at_ps: 16_000_000,
                        action: ChaosAction::DeviceUp { device: 3 },
                    },
                ],
            },
            invariant: "recovery_bound".to_owned(),
            detail: "recovery took 12.5 µs, bound is 0.0 µs".to_owned(),
            fingerprint: Some(0xDEAD_BEEF_DEAD_BEEF),
            triage: vec![
                AlertEvent {
                    at: cim_sim::time::SimTime::from_ps(2_500_000),
                    tenant: "mlp".to_owned(),
                    rule: "zero_loss".to_owned(),
                    severity: cim_obs::AlertSeverity::Page,
                    burn_rate: 1.0,
                    window: SimDuration::ZERO,
                },
                AlertEvent {
                    at: cim_sim::time::SimTime::from_ps(4_000_000),
                    tenant: "chaos".to_owned(),
                    rule: "invariant/recovery_bound".to_owned(),
                    severity: cim_obs::AlertSeverity::Page,
                    burn_rate: 1.0,
                    window: SimDuration::ZERO,
                },
            ],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let file = sample();
        let mut kinds: Vec<&str> = file
            .schedule
            .events
            .iter()
            .map(|e| e.action.kind_name())
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 16, "one event per action kind");
        let text = render_replay(&file);
        let parsed = parse_replay(&text).expect("parses");
        assert_eq!(parsed, file);
        assert_eq!(render_replay(&parsed), text, "canonical re-render");
    }

    #[test]
    fn every_line_is_telemetry_schema_valid() {
        let text = render_replay(&sample());
        for line in text.lines() {
            validate_jsonl_line(line).expect("replay lines reuse the telemetry schema");
        }
    }

    #[test]
    fn truncated_and_malformed_files_are_rejected() {
        let text = render_replay(&sample());
        let mut lines: Vec<&str> = text.lines().collect();
        // Drop the two triage lines plus the last schedule event so the
        // header's event count no longer matches.
        lines.truncate(lines.len() - 3);
        let truncated = lines.join("\n");
        assert!(parse_replay(&truncated)
            .expect_err("event count mismatch")
            .contains("declares"));
        // A huge declared count is a mismatch, not an allocation.
        let huge = text.replacen("\"value\":16,", "\"value\":4503599627370496,", 1);
        assert_ne!(huge, text);
        assert!(parse_replay(&huge)
            .expect_err("event count mismatch")
            .contains("declares 4503599627370496 events"));
        assert!(parse_replay("").is_err());
        assert!(parse_replay("{\"component\":\"chaos\",\"metric\":\"other\"}").is_err());
    }
}
