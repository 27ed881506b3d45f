//! Per-tenant SLOs with multi-window burn-rate alerting.
//!
//! The engine follows the SRE playbook, scaled to simulated-time serving
//! runs: each tenant declares a latency target, an availability budget
//! and (optionally) zero-loss; every finished request is classified
//! good/bad, and each alert rule compares the *burn rate* — bad fraction
//! divided by the error budget — over a long and a short sliding window.
//! Both windows must exceed the threshold for the rule to fire, which
//! keeps alerts fast during real incidents (short window reacts) but
//! quiet on old noise (long window forgets). Alerts fire on the rising
//! edge only and carry the sim time of the observation that crossed the
//! line, so a given seed pages at the same deterministic instant on any
//! host.
//!
//! [`AlertEvent`] is also the vocabulary for *synthetic* timeline
//! entries: chaos triage injects an `invariant/<name>` page at a
//! violating run's end and one `power_loss` ticket per scheduled crash
//! (spanning the restart window), so a replay file's alert timeline
//! shows when the run went bad and when each device was dark. Synthetic
//! events use the same JSONL round-trip as burn-rate alerts.

use cim_sim::telemetry::{json_f64, json_string};
use cim_sim::time::{SimDuration, SimTime};

/// Alert urgency tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertSeverity {
    /// Wake a human: the budget is burning fast enough to exhaust within
    /// the incident window.
    Page,
    /// File a ticket: slow burn that needs attention, not adrenaline.
    Ticket,
}

impl AlertSeverity {
    /// Stable lowercase name used in exports and replay files.
    pub fn name(&self) -> &'static str {
        match self {
            AlertSeverity::Page => "page",
            AlertSeverity::Ticket => "ticket",
        }
    }

    /// Parses the stable name back; `None` for anything else.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "page" => Some(AlertSeverity::Page),
            "ticket" => Some(AlertSeverity::Ticket),
            _ => None,
        }
    }
}

/// One tenant's service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Tenant (service-class) name alerts are attributed to.
    pub tenant: String,
    /// A request is *good* only if it completes within this latency.
    pub latency_target: SimDuration,
    /// Availability objective in `(0, 1)`; the error budget is
    /// `1 - availability`.
    pub availability: f64,
    /// When set, any outright-lost request fires an immediate
    /// page-severity `zero_loss` alert, bypassing the windows.
    pub zero_loss: bool,
}

impl SloSpec {
    /// The default serving SLO for a tenant: its deadline as the latency
    /// target, 99% availability, zero-loss.
    pub fn for_tenant(tenant: &str, deadline: SimDuration) -> Self {
        SloSpec {
            tenant: tenant.to_owned(),
            latency_target: deadline,
            availability: 0.99,
            zero_loss: true,
        }
    }
}

/// One multi-window burn-rate alert rule, applied to every tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRateRule {
    /// Rule name (appears as `metric:"alert/<name>"` in exports).
    pub name: String,
    /// Severity of the alerts this rule emits.
    pub severity: AlertSeverity,
    /// Minimum burn rate (bad fraction ÷ error budget) over *both*
    /// windows for the rule to fire.
    pub burn_threshold: f64,
    /// The long window: forgets slowly, keeps the alert honest.
    pub long_window: SimDuration,
    /// The short window: reacts quickly once trouble starts.
    pub short_window: SimDuration,
    /// Minimum finished requests inside the long window before the rule
    /// may fire — suppresses single-request noise at run start.
    pub min_count: usize,
}

impl BurnRateRule {
    /// The default rule pair, scaled from the SRE 1h/5m + 6h/30m ladder
    /// down to serving-sim horizons (a few ms of sim time): a fast page
    /// at 14.4× burn over 1 ms/250 µs and a slow ticket at 6× over
    /// 3 ms/750 µs.
    pub fn default_rules() -> Vec<BurnRateRule> {
        vec![
            BurnRateRule {
                name: "page_burn".to_owned(),
                severity: AlertSeverity::Page,
                burn_threshold: 14.4,
                long_window: SimDuration::from_us(1000),
                short_window: SimDuration::from_us(250),
                min_count: 24,
            },
            BurnRateRule {
                name: "ticket_burn".to_owned(),
                severity: AlertSeverity::Ticket,
                burn_threshold: 6.0,
                long_window: SimDuration::from_us(3000),
                short_window: SimDuration::from_us(750),
                min_count: 48,
            },
        ]
    }
}

/// A fired alert, stamped with the sim time of the observation that
/// crossed the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Sim time the rule started firing.
    pub at: SimTime,
    /// Tenant the burn is attributed to.
    pub tenant: String,
    /// Rule name (`"zero_loss"` for the loss bypass, or an
    /// `invariant/<name>` synthetic for chaos triage).
    pub rule: String,
    /// Urgency tier.
    pub severity: AlertSeverity,
    /// Long-window burn rate at firing time (`1.0` for bypass alerts).
    pub burn_rate: f64,
    /// The long window the burn was measured over (zero for bypasses).
    pub window: SimDuration,
}

impl AlertEvent {
    /// Parses one `kind:"alert"` JSON line back into the event — the
    /// exact inverse of [`AlertEvent::to_jsonl_line`], used by chaos
    /// replay files so triage timelines round-trip byte-for-byte.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn parse_jsonl_line(line: &str) -> Result<AlertEvent, String> {
        use cim_sim::json::Json;
        let v = cim_sim::json::parse(line)?;
        let metric = v
            .get("metric")
            .and_then(Json::as_str)
            .ok_or("alert line missing metric")?;
        let rule = metric
            .strip_prefix("alert/")
            .ok_or("alert metric must start with \"alert/\"")?
            .to_owned();
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("alert line missing numeric \"{key}\""))
        };
        // Picosecond stamps must be exact non-negative integers: a cast
        // would read -5 as 0 and 1.5 as 1, which no line renders.
        let ps = |key: &str| {
            v.get(key).and_then(Json::as_u64).ok_or_else(|| {
                format!("alert line needs \"{key}\" as a non-negative integer below 2^53")
            })
        };
        let severity = v
            .get("severity")
            .and_then(Json::as_str)
            .and_then(AlertSeverity::from_name)
            .ok_or("alert line missing page/ticket severity")?;
        let tenant = v
            .get("tenant")
            .and_then(Json::as_str)
            .ok_or("alert line missing tenant")?
            .to_owned();
        Ok(AlertEvent {
            at: SimTime::from_ps(ps("t_ps")?),
            tenant,
            rule,
            severity,
            burn_rate: num("value")?,
            window: SimDuration::from_ps(ps("window_ps")?),
        })
    }

    /// Renders the alert as one `kind:"alert"` JSON line (no trailing
    /// newline), matching the schema
    /// [`cim_sim::telemetry::validate_jsonl_line`] enforces.
    pub fn to_jsonl_line(&self) -> String {
        format!(
            "{{\"component\":\"obs/slo\",\"metric\":{},\"kind\":\"alert\",\"value\":{},\
             \"t_ps\":{},\"tenant\":{},\"severity\":{},\"window_ps\":{}}}",
            json_string(&format!("alert/{}", self.rule)),
            json_f64(self.burn_rate),
            self.at.as_ps(),
            json_string(&self.tenant),
            json_string(self.severity.name()),
            self.window.as_ps(),
        )
    }
}

/// One tenant's observation history: finish times, each list kept
/// sorted, so counting a window is two binary searches per list.
#[derive(Debug, Clone, Default)]
struct History {
    /// Finish times of every observation.
    all: Vec<SimTime>,
    /// Finish times of the bad observations.
    bad: Vec<SimTime>,
}

/// Inserts `at` into the sorted `times`. Finish times arrive nearly in
/// order (a later arrival can finish a little earlier), so the insert
/// point is at or near the end and shifts few elements.
fn insert_sorted(times: &mut Vec<SimTime>, at: SimTime) {
    let i = times.partition_point(|&t| t <= at);
    times.insert(i, at);
}

/// How many of the sorted `times` fall in `(lo, hi]`.
fn count_in(times: &[SimTime], lo: SimTime, hi: SimTime) -> usize {
    times.partition_point(|&t| t <= hi) - times.partition_point(|&t| t <= lo)
}

/// Evaluates SLO specs over sliding windows and accumulates alerts.
#[derive(Debug)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    rules: Vec<BurnRateRule>,
    /// Per-tenant observation history (the full run: a window may reach
    /// back to any finish time, since finish times arrive out of order).
    history: Vec<History>,
    /// Per-tenant, per-rule firing state for edge-triggered alerts.
    firing: Vec<Vec<bool>>,
    /// Per-tenant zero-loss tripwire.
    lost_seen: Vec<bool>,
    alerts: Vec<AlertEvent>,
}

impl SloEngine {
    /// An engine for the given tenant specs and rules.
    pub fn new(specs: Vec<SloSpec>, rules: Vec<BurnRateRule>) -> Self {
        let n = specs.len();
        let r = rules.len();
        SloEngine {
            specs,
            rules,
            history: vec![History::default(); n],
            firing: vec![vec![false; r]; n],
            lost_seen: vec![false; n],
            alerts: Vec::new(),
        }
    }

    /// Whether `latency` meets tenant `i`'s latency target.
    pub fn within_target(&self, tenant: usize, latency: SimDuration) -> bool {
        latency <= self.specs[tenant].latency_target
    }

    /// Feeds one finished request: `good` per the spec's latency/
    /// availability terms, `lost` when the request failed outright.
    /// Evaluates every rule for the tenant and records rising-edge
    /// alerts.
    pub fn observe(&mut self, tenant: usize, at: SimTime, good: bool, lost: bool) {
        let spec = &self.specs[tenant];
        if lost && spec.zero_loss && !self.lost_seen[tenant] {
            self.lost_seen[tenant] = true;
            self.alerts.push(AlertEvent {
                at,
                tenant: spec.tenant.clone(),
                rule: "zero_loss".to_owned(),
                severity: AlertSeverity::Page,
                burn_rate: 1.0,
                window: SimDuration::ZERO,
            });
        }
        let history = &mut self.history[tenant];
        insert_sorted(&mut history.all, at);
        if !good {
            insert_sorted(&mut history.bad, at);
        }
        let budget = (1.0 - spec.availability).max(1e-9);
        for r in 0..self.rules.len() {
            let rule = &self.rules[r];
            let (long_n, long_bad) = self.window_counts(tenant, at, rule.long_window);
            let (short_n, short_bad) = self.window_counts(tenant, at, rule.short_window);
            let burn = |bad: usize, n: usize| {
                if n == 0 {
                    0.0
                } else {
                    (bad as f64 / n as f64) / budget
                }
            };
            let long_burn = burn(long_bad, long_n);
            let now_firing = long_n >= rule.min_count
                && short_n > 0
                && long_burn >= rule.burn_threshold
                && burn(short_bad, short_n) >= rule.burn_threshold;
            if now_firing && !self.firing[tenant][r] {
                self.alerts.push(AlertEvent {
                    at,
                    tenant: self.specs[tenant].tenant.clone(),
                    rule: self.rules[r].name.clone(),
                    severity: self.rules[r].severity,
                    burn_rate: long_burn,
                    window: self.rules[r].long_window,
                });
            }
            self.firing[tenant][r] = now_firing;
        }
    }

    /// (total, bad) observations for `tenant` with time in
    /// `(at - window, at]`: two binary searches in each of the tenant's
    /// sorted time lists, so the cost grows with the log of the history
    /// rather than its length. Observations already fed with a later
    /// finish time fall outside the window.
    fn window_counts(&self, tenant: usize, at: SimTime, window: SimDuration) -> (usize, usize) {
        let cutoff = SimTime::from_ps(at.as_ps().saturating_sub(window.as_ps()));
        let history = &self.history[tenant];
        (
            count_in(&history.all, cutoff, at),
            count_in(&history.bad, cutoff, at),
        )
    }

    /// Alerts fired so far, in firing order.
    pub fn alerts(&self) -> &[AlertEvent] {
        &self.alerts
    }

    /// Consumes the engine, yielding its alert timeline sorted by sim
    /// time. Observations are fed in arrival order but stamped with
    /// completion times, so raw firing order is not time order; the
    /// stable sort (ties keep firing order) makes the result a true
    /// timeline while staying deterministic.
    pub fn into_alerts(mut self) -> Vec<AlertEvent> {
        self.alerts.sort_by_key(|a| a.at);
        self.alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_sim::telemetry::validate_jsonl_line;

    fn engine_one_tenant() -> SloEngine {
        SloEngine::new(
            vec![SloSpec::for_tenant("t", SimDuration::from_us(20))],
            BurnRateRule::default_rules(),
        )
    }

    #[test]
    fn healthy_stream_never_alerts() {
        let mut e = engine_one_tenant();
        for i in 0..200u64 {
            e.observe(0, SimTime::from_ns(i * 10_000), true, false);
        }
        assert!(e.alerts().is_empty());
    }

    #[test]
    fn sustained_burn_pages_once_at_a_deterministic_time() {
        let run = || {
            let mut e = engine_one_tenant();
            // 10 µs inter-arrivals, everything bad: burn = 1/0.01 = 100×.
            for i in 0..100u64 {
                e.observe(0, SimTime::from_ns(i * 10_000), false, false);
            }
            e.into_alerts()
        };
        let alerts = run();
        let page: Vec<_> = alerts
            .iter()
            .filter(|a| a.severity == AlertSeverity::Page)
            .collect();
        assert_eq!(page.len(), 1, "edge-triggered: one page, not one per obs");
        // min_count=24 with the half-open window `(at-W, at]` (t=0 falls
        // outside once the cutoff saturates) → index 24 crosses the line.
        assert_eq!(page[0].at, SimTime::from_ns(24 * 10_000));
        assert!(page[0].burn_rate > 14.4);
        assert_eq!(run(), alerts, "double runs agree exactly");
    }

    #[test]
    fn short_window_recovery_resets_the_edge() {
        let mut e = engine_one_tenant();
        let mut t = 0u64;
        let mut step = |e: &mut SloEngine, good: bool| {
            e.observe(0, SimTime::from_ns(t), good, false);
            t += 10_000;
        };
        for _ in 0..30 {
            step(&mut e, false);
        }
        // Recover: the short window (250 µs / 25 obs) drains of badness.
        for _ in 0..60 {
            step(&mut e, true);
        }
        // Burn again: a second rising edge must emit a second page.
        for _ in 0..40 {
            step(&mut e, false);
        }
        let pages = e
            .alerts()
            .iter()
            .filter(|a| a.severity == AlertSeverity::Page && a.rule == "page_burn")
            .count();
        assert_eq!(pages, 2);
    }

    #[test]
    fn zero_loss_fires_immediately_and_once() {
        let mut e = engine_one_tenant();
        e.observe(0, SimTime::from_ns(5), false, true);
        e.observe(0, SimTime::from_ns(6), false, true);
        let zl: Vec<_> = e
            .alerts()
            .iter()
            .filter(|a| a.rule == "zero_loss")
            .collect();
        assert_eq!(zl.len(), 1);
        assert_eq!(zl[0].at, SimTime::from_ns(5));
        assert_eq!(zl[0].severity, AlertSeverity::Page);
    }

    #[test]
    fn alert_lines_validate_and_severity_round_trips() {
        let a = AlertEvent {
            at: SimTime::from_ns(42),
            tenant: "interactive".to_owned(),
            rule: "page_burn".to_owned(),
            severity: AlertSeverity::Page,
            burn_rate: 33.25,
            window: SimDuration::from_us(1000),
        };
        validate_jsonl_line(&a.to_jsonl_line()).expect("alert schema");
        for s in [AlertSeverity::Page, AlertSeverity::Ticket] {
            assert_eq!(AlertSeverity::from_name(s.name()), Some(s));
        }
        assert_eq!(AlertSeverity::from_name("sev1"), None);
        // Exact round-trip: parse(render(a)) == a and re-render is
        // byte-identical (the chaos replay contract).
        let line = a.to_jsonl_line();
        let back = AlertEvent::parse_jsonl_line(&line).expect("parses");
        assert_eq!(back, a);
        assert_eq!(back.to_jsonl_line(), line);
        assert!(AlertEvent::parse_jsonl_line("{\"metric\":\"event/x\"}").is_err());
    }

    #[test]
    fn alert_lines_with_inexact_stamps_are_rejected() {
        let line = AlertEvent {
            at: SimTime::from_ps(7),
            tenant: "t".to_owned(),
            rule: "page_burn".to_owned(),
            severity: AlertSeverity::Page,
            burn_rate: 2.5,
            window: SimDuration::from_ps(1000),
        }
        .to_jsonl_line();
        assert!(AlertEvent::parse_jsonl_line(&line).is_ok());
        for (field, bad) in [
            ("\"t_ps\":7", "\"t_ps\":-5"),
            ("\"t_ps\":7", "\"t_ps\":1.5"),
            ("\"t_ps\":7", "\"t_ps\":1e30"),
            ("\"window_ps\":1000", "\"window_ps\":-1"),
            ("\"window_ps\":1000", "\"window_ps\":\"1000\""),
        ] {
            let mutated = line.replace(field, bad);
            assert_ne!(mutated, line);
            let err = AlertEvent::parse_jsonl_line(&mutated);
            assert!(err.is_err(), "{mutated} parsed as {err:?}");
        }
    }

    /// The reference engine: the same rules, with every window counted
    /// by a full scan of the tenant's history.
    struct ScanEngine {
        specs: Vec<SloSpec>,
        rules: Vec<BurnRateRule>,
        history: Vec<Vec<(SimTime, bool)>>,
        firing: Vec<Vec<bool>>,
        lost_seen: Vec<bool>,
        alerts: Vec<AlertEvent>,
    }

    impl ScanEngine {
        fn new(specs: Vec<SloSpec>, rules: Vec<BurnRateRule>) -> Self {
            let (n, r) = (specs.len(), rules.len());
            ScanEngine {
                specs,
                rules,
                history: vec![Vec::new(); n],
                firing: vec![vec![false; r]; n],
                lost_seen: vec![false; n],
                alerts: Vec::new(),
            }
        }

        fn window_counts(&self, tenant: usize, at: SimTime, window: SimDuration) -> (usize, usize) {
            let cutoff = SimTime::from_ps(at.as_ps().saturating_sub(window.as_ps()));
            let inside = self.history[tenant]
                .iter()
                .filter(|(t, _)| *t > cutoff && *t <= at);
            inside.fold((0, 0), |(n, bad), (_, good)| {
                (n + 1, bad + usize::from(!good))
            })
        }

        fn observe(&mut self, tenant: usize, at: SimTime, good: bool, lost: bool) {
            let spec = &self.specs[tenant];
            if lost && spec.zero_loss && !self.lost_seen[tenant] {
                self.lost_seen[tenant] = true;
                self.alerts.push(AlertEvent {
                    at,
                    tenant: spec.tenant.clone(),
                    rule: "zero_loss".to_owned(),
                    severity: AlertSeverity::Page,
                    burn_rate: 1.0,
                    window: SimDuration::ZERO,
                });
            }
            self.history[tenant].push((at, good));
            let budget = (1.0 - spec.availability).max(1e-9);
            let burn = |bad: usize, n: usize| {
                if n == 0 {
                    0.0
                } else {
                    (bad as f64 / n as f64) / budget
                }
            };
            for r in 0..self.rules.len() {
                let rule = &self.rules[r];
                let (long_n, long_bad) = self.window_counts(tenant, at, rule.long_window);
                let (short_n, short_bad) = self.window_counts(tenant, at, rule.short_window);
                let long_burn = burn(long_bad, long_n);
                let now_firing = long_n >= rule.min_count
                    && short_n > 0
                    && long_burn >= rule.burn_threshold
                    && burn(short_bad, short_n) >= rule.burn_threshold;
                if now_firing && !self.firing[tenant][r] {
                    self.alerts.push(AlertEvent {
                        at,
                        tenant: self.specs[tenant].tenant.clone(),
                        rule: rule.name.clone(),
                        severity: rule.severity,
                        burn_rate: long_burn,
                        window: rule.long_window,
                    });
                }
                self.firing[tenant][r] = now_firing;
            }
        }

        fn into_alerts(mut self) -> Vec<AlertEvent> {
            self.alerts.sort_by_key(|a| a.at);
            self.alerts
        }
    }

    #[test]
    fn alert_timeline_matches_the_full_scan_reference() {
        use cim_sim::prop::{check, PropConfig};
        use cim_sim::prop_assert_eq;
        use cim_sim::rng::Rng;
        const AVAILABILITY: [f64; 4] = [0.99, 0.9, 0.999, 0.5];
        const THRESHOLD: [f64; 4] = [14.4, 6.0, 1.0, 0.0];
        let fired = std::cell::Cell::new(0usize);
        check(
            "sorted-window SLO alerts equal the full-scan reference",
            &PropConfig::cases(300),
            |rng| {
                // (zero_loss, availability index) per tenant.
                let specs: Vec<(bool, u8)> = (0..rng.gen_range(1usize..4))
                    .map(|_| (rng.gen_bool(0.5), rng.gen_range(0u8..4)))
                    .collect();
                fn window(rng: &mut impl Rng) -> u64 {
                    match rng.gen_range(0u8..4) {
                        0 => 0,
                        1 => rng.gen_range(1u64..2_000_000),
                        _ => rng.gen_range(1u64..20_000_000),
                    }
                }
                // (long ps, short ps, min_count, threshold index) per rule.
                let rules: Vec<(u64, u64, usize, u8)> = (0..rng.gen_range(1usize..4))
                    .map(|_| {
                        let (long, short) = (window(rng), window(rng));
                        (
                            long,
                            short,
                            rng.gen_range(0usize..30),
                            rng.gen_range(0u8..4),
                        )
                    })
                    .collect();
                let max_window = rules.iter().map(|r| r.0.max(r.1)).max().unwrap_or(0);
                let p_bad = rng.gen::<f64>();
                let mut clock = 0u64;
                // (tenant, finish ps, 0 good / 1 bad / 2 lost): finish
                // times repeat, jump back by up to a window, or sit at 0.
                let stream: Vec<(usize, u64, u8)> = (0..rng.gen_range(0usize..400))
                    .map(|_| {
                        if !rng.gen_bool(0.2) {
                            clock += rng.gen_range(1u64..200_000);
                        }
                        let at = if rng.gen_bool(0.05) {
                            0
                        } else if rng.gen_bool(0.3) {
                            clock.saturating_sub(rng.gen_range(0..max_window + 1))
                        } else {
                            clock
                        };
                        let kind = match (rng.gen_bool(p_bad), rng.gen_bool(0.2)) {
                            (false, _) => 0,
                            (true, false) => 1,
                            (true, true) => 2,
                        };
                        (rng.gen_range(0..specs.len()), at, kind)
                    })
                    .collect();
                (specs, rules, stream)
            },
            |(specs, rules, stream)| {
                if specs.is_empty() {
                    return Ok(());
                }
                let specs: Vec<SloSpec> = specs
                    .iter()
                    .enumerate()
                    .map(|(i, &(zero_loss, a))| SloSpec {
                        tenant: format!("t{i}"),
                        latency_target: SimDuration::from_us(20),
                        availability: AVAILABILITY[usize::from(a) % 4],
                        zero_loss,
                    })
                    .collect();
                let rules: Vec<BurnRateRule> = rules
                    .iter()
                    .enumerate()
                    .map(|(i, &(long, short, min_count, th))| BurnRateRule {
                        name: format!("r{i}"),
                        severity: if i % 2 == 0 {
                            AlertSeverity::Page
                        } else {
                            AlertSeverity::Ticket
                        },
                        burn_threshold: THRESHOLD[usize::from(th) % 4],
                        long_window: SimDuration::from_ps(long),
                        short_window: SimDuration::from_ps(short),
                        min_count,
                    })
                    .collect();
                let tenants = specs.len();
                let mut engine = SloEngine::new(specs.clone(), rules.clone());
                let mut scan = ScanEngine::new(specs, rules);
                for &(tenant, at, kind) in stream {
                    let (tenant, at) = (tenant % tenants, SimTime::from_ps(at));
                    engine.observe(tenant, at, kind == 0, kind == 2);
                    scan.observe(tenant, at, kind == 0, kind == 2);
                }
                let alerts = engine.into_alerts();
                fired.set(fired.get() + alerts.len());
                prop_assert_eq!(alerts, scan.into_alerts());
                Ok(())
            },
        );
        assert!(fired.get() > 0, "the sweep never fired an alert");
    }
}
