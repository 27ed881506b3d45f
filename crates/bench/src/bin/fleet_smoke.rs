//! CI gate: fleet soaks under the zero-loss, crash-recovery and
//! containment contracts.
//!
//! ```text
//! fleet_smoke [failover|powerloss|adversarial] [--requests N] [--devices N]
//!             [--replicas N] [--rate HZ]
//! ```
//!
//! Serves an open-loop stream (analytic tier) across a multi-device CIM
//! fleet under one engineered scenario and enforces its gates. Every
//! scenario gates exact accounting: zero loss (`failed == 0`, admission
//! balances), no double execution (final executions across devices
//! equal completed + timed-out requests), and every whole-device
//! failover voided exactly one attempt. On top of that:
//!
//! - `failover` (default; one million requests): the standard
//!   two-outage campaign mid-soak exercised failover, and the fleet
//!   out-serves the conventional-cluster baseline replaying the
//!   identical arrival record under the same machine outages;
//! - `powerloss` (200k requests): each outage window becomes a
//!   [`cim_fabric::fleet::FleetEvent::PowerLoss`], so the device loses
//!   its volatile state and rejoins through the nonvolatile restore.
//!   Devices actually crashed mid-flight, every restore was pristine
//!   (`dirty_restores == 0`), and a second fresh soak yields a
//!   bit-identical fingerprint;
//! - `adversarial` (100k requests): link encryption on and the
//!   far-corner tile of every device fenced into its own NoC isolation
//!   domain, firing one of every attack archetype per device (forged
//!   token, stale replayed token, cross-partition scan, hostile
//!   self-programming patch, hostile dataflow scanner). Every probe is
//!   blocked, nothing leaks, the blast radius stays inside the
//!   adversary tile, no innocent request fails, a second soak is
//!   bit-identical, and a negative-control run with the NoC boundary
//!   check disabled must observe the leak.
//!
//! Any violation exits 1. Runs are deterministic: the printed
//! fingerprint is bit-identical on every host and thread count.

use cim_bench::experiments::fleet::{
    compare_with, default_scenario, engineered_adversarial, engineered_outage,
    engineered_powerloss, render, run_fleet_armed, run_fleet_with, FleetScenario,
};
use cim_fabric::fleet::FleetReport;
use std::process::ExitCode;

/// Gate failures collected over one scenario.
#[derive(Default)]
struct Gates(Vec<String>);

impl Gates {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// The accounting every scenario shares.
    fn accounting(&mut self, r: &FleetReport) {
        self.check(r.zero_lost(), || {
            format!(
                "requests lost: admitted {} completed {} timed_out {} failed {}",
                r.admitted, r.completed, r.timed_out, r.failed
            )
        });
        self.check(
            r.served_total() as usize == r.completed + r.timed_out,
            || {
                format!(
                    "double execution: served_total {} != completed+timed_out {}",
                    r.served_total(),
                    r.completed + r.timed_out
                )
            },
        );
        self.check(r.voided_total() as usize == r.failovers, || {
            format!(
                "failover accounting: voided_total {} != failovers {}",
                r.voided_total(),
                r.failovers
            )
        });
    }

    /// A second fresh soak must reproduce the fingerprint.
    fn deterministic(&mut self, first: &FleetReport, again: &FleetReport) {
        self.check(again.fingerprint == first.fingerprint, || {
            format!(
                "nondeterministic soak: {:#018x} != {:#018x}",
                again.fingerprint, first.fingerprint
            )
        });
    }
}

/// One soak: its CLI name, default size, whether the engineered outage
/// windows are placed, and the gated run (returns the pass summary).
struct Scenario {
    name: &'static str,
    requests: usize,
    outage: bool,
    run: fn(&FleetScenario, &mut Gates) -> String,
}

const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "failover",
        requests: 1_000_000,
        outage: true,
        run: failover,
    },
    Scenario {
        name: "powerloss",
        requests: 200_000,
        outage: true,
        run: powerloss,
    },
    Scenario {
        name: "adversarial",
        requests: 100_000,
        outage: false,
        run: adversarial,
    },
];

fn failover(s: &FleetScenario, gates: &mut Gates) -> String {
    let c = compare_with(s, &engineered_outage(s));
    print!("{}", render(std::slice::from_ref(&c)));
    println!(
        "fleet fingerprint {:#018x}, {} failovers voided {} attempts, wall {:.2}s fleet / {:.2}s cluster",
        c.fleet.fingerprint,
        c.fleet.failovers,
        c.fleet.voided_total(),
        c.fleet_wall_ns as f64 / 1e9,
        c.cluster_wall_ns as f64 / 1e9
    );
    gates.accounting(&c.fleet);
    gates.check(c.fleet.failovers > 0, || {
        "outage campaign exercised no failovers".into()
    });
    gates.check(c.cluster.zero_lost(), || {
        "cluster baseline lost requests it admitted".into()
    });
    gates.check(c.fleet.goodput() > c.cluster.goodput(), || {
        format!(
            "fleet goodput {:.4} does not beat cluster {:.4} on the same workload",
            c.fleet.goodput(),
            c.cluster.goodput()
        )
    });
    format!(
        "zero-loss soak passed, fleet goodput {:.4} vs cluster {:.4}",
        c.fleet.goodput(),
        c.cluster.goodput()
    )
}

fn powerloss(s: &FleetScenario, gates: &mut Gates) -> String {
    let events = engineered_powerloss(s);
    let r = run_fleet_with(s, &events);
    println!(
        "fleet fingerprint {:#018x}: {} crashes ({} dirty), {} failovers voided {} attempts",
        r.fingerprint,
        r.crashes,
        r.dirty_restores,
        r.failovers,
        r.voided_total()
    );
    gates.accounting(&r);
    gates.check(r.dirty_restores == 0, || {
        format!("{} of {} restores were dirty", r.dirty_restores, r.crashes)
    });
    gates.check(r.crashes >= 1, || {
        "crash campaign crashed no devices".into()
    });
    gates.check(r.failovers > 0, || {
        "crash campaign caught nothing in flight".into()
    });
    gates.deterministic(&r, &run_fleet_with(s, &events));
    format!(
        "crash-recovery soak passed, goodput {:.4}, {} recoveries pristine",
        r.goodput(),
        r.crashes
    )
}

fn adversarial(s: &FleetScenario, gates: &mut Gates) -> String {
    let events = engineered_adversarial(s);
    let (r, log) = run_fleet_armed(s, &events, false);
    println!(
        "fleet fingerprint {:#018x}: {} probe attempts, {} blocked, {} cross deliveries, \
         {} leaked bytes, {} tokens accepted",
        r.fingerprint,
        log.attempts,
        log.blocked,
        log.cross_deliveries,
        log.leaked_bytes,
        log.tokens_accepted
    );
    gates.accounting(&r);
    gates.check(log.attempts > 0, || {
        "attack campaign fired no probes".into()
    });
    gates.check(log.blocked == log.attempts, || {
        format!(
            "isolation boundary let probes through: {} of {} blocked",
            log.blocked, log.attempts
        )
    });
    gates.check(log.contained(), || {
        format!(
            "cross-tenant read: {} leaked bytes, {} cross deliveries, {} tokens accepted",
            log.leaked_bytes, log.cross_deliveries, log.tokens_accepted
        )
    });
    gates.check(log.touched_units.is_empty(), || {
        format!(
            "blast radius beyond the adversary tile: touched {:?}",
            log.touched_units
        )
    });
    gates.check(r.failed == 0, || {
        format!(
            "{} innocent request(s) failed under blocked attacks",
            r.failed
        )
    });
    gates.deterministic(&r, &run_fleet_armed(s, &events, false).0);
    // Negative control: with the NoC boundary check disabled the same
    // campaign MUST leak — otherwise the zero counts above prove
    // nothing.
    let (_, leaky) = run_fleet_armed(s, &events, true);
    gates.check(leaky.leaked_bytes > 0 && leaky.cross_deliveries > 0, || {
        format!(
            "leak control observed no leak ({} bytes, {} deliveries): detector is vacuous",
            leaky.leaked_bytes, leaky.cross_deliveries
        )
    });
    format!(
        "containment soak passed, goodput {:.4}, {} probes all blocked",
        r.goodput(),
        log.attempts
    )
}

fn usage(err: &str) -> ExitCode {
    eprintln!("fleet_smoke: {err}");
    eprintln!(
        "usage: fleet_smoke [failover|powerloss|adversarial] [--requests N] [--devices N] \
         [--replicas N] [--rate HZ]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let name = match args.first() {
        Some(a) if !a.starts_with("--") => args.remove(0),
        _ => "failover".to_owned(),
    };
    let Some(sc) = SCENARIOS.iter().find(|sc| sc.name == name) else {
        return usage(&format!("unknown scenario {name:?}"));
    };
    let mut scenario = FleetScenario {
        requests: sc.requests,
        outage: sc.outage,
        ..default_scenario()
    };

    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match args[i].as_str() {
            "--requests" => match value.and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => scenario.requests = n,
                _ => return usage("--requests needs a positive count"),
            },
            "--devices" => match value.and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 2 => scenario.devices = n,
                _ => return usage("--devices needs a count >= 2"),
            },
            "--replicas" => match value.and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => scenario.replicas = n,
                _ => return usage("--replicas needs a positive count"),
            },
            "--rate" => match value.and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if r > 0.0 => scenario.rate_hz = r,
                _ => return usage("--rate needs a positive req/s rate"),
            },
            other => return usage(&format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    if scenario.replicas > scenario.devices {
        return usage("--replicas cannot exceed --devices");
    }

    println!(
        "fleet_smoke {}: {} requests at {:.0} req/s across {} devices (replicas {})",
        sc.name, scenario.requests, scenario.rate_hz, scenario.devices, scenario.replicas
    );
    let mut gates = Gates::default();
    let summary = (sc.run)(&scenario, &mut gates);
    if !gates.0.is_empty() {
        for failure in &gates.0 {
            eprintln!("FAIL: {failure}");
        }
        return ExitCode::FAILURE;
    }
    println!("fleet_smoke {}: {summary}", sc.name);
    ExitCode::SUCCESS
}
