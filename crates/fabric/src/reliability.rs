//! Reliability campaigns: detection, containment, prevention, recovery
//! (paper §V.A).
//!
//! The execution engine already performs inline recovery (detect → fence →
//! remap → reprogram → replay). This module adds the experiment harness on
//! top: scheduled fault campaigns against a running stream, and duplexed
//! (redundant) execution for silent-data-corruption detection — the
//! "fault prevention through redundancy of components" row of §V.A.

use crate::device::CimDevice;
use crate::engine::{MappedProgram, StreamOptions, StreamReport};
use crate::error::{FabricError, Result};
use crate::mapper::MappingPolicy;
use cim_dataflow::graph::{DataflowGraph, NodeRef};
use cim_sim::time::SimDuration;
use std::collections::HashMap;

/// A scheduled fault: before processing item `before_item`, the unit
/// currently hosting graph node `node` hard-fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Item index the fault precedes.
    pub before_item: usize,
    /// Graph node whose hosting unit fails.
    pub node: usize,
}

/// Outcome of a fault campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The merged stream report.
    pub stream: StreamReport,
    /// Overhead added by each recovery, in injection order.
    pub recovery_overheads: Vec<SimDuration>,
    /// Number of items whose results were produced after at least one
    /// recovery (delayed but not lost — §V.A upstream buffering).
    pub items_delayed: usize,
}

/// Runs `inputs` through a loaded program while injecting the scheduled
/// faults. No item is lost: faults only add recovery latency.
///
/// The stream is cut into one chunk per fault, and each chunk runs as a
/// fresh stream. Sim-time injections in `opts.injections` would land
/// again in every chunk whose clock has passed them, so they are
/// refused: schedule those through [`crate::fleet::CimFleet`], whose
/// event cursor applies each one exactly once.
///
/// # Errors
///
/// [`FabricError::InvalidConfig`] when `opts.injections` is non-empty;
/// propagates execution errors (including spare exhaustion).
pub fn run_fault_campaign(
    device: &mut CimDevice,
    prog: &mut MappedProgram,
    inputs: &[HashMap<NodeRef, Vec<f64>>],
    opts: &StreamOptions,
    faults: &[ScheduledFault],
) -> Result<CampaignReport> {
    if !opts.injections.is_empty() {
        return Err(FabricError::InvalidConfig {
            reason: "a fault campaign runs one stream per chunk and would apply \
                     each stream injection once per chunk"
                .to_owned(),
        });
    }
    let mut sorted = faults.to_vec();
    sorted.sort_by_key(|f| f.before_item);

    let mut merged: Option<StreamReport> = None;
    let mut cursor = 0usize;
    let mut fault_iter = sorted.iter().peekable();

    while cursor < inputs.len() {
        // Inject every fault scheduled at this cursor.
        while let Some(f) = fault_iter.peek() {
            if f.before_item == cursor {
                let unit = prog.placement().unit_of(f.node);
                device.fail_unit(unit);
                fault_iter.next();
            } else {
                break;
            }
        }
        let next_stop = fault_iter
            .peek()
            .map(|f| f.before_item.min(inputs.len()))
            .unwrap_or(inputs.len())
            .max(cursor + 1);
        let chunk = &inputs[cursor..next_stop];
        let chunk_opts = StreamOptions {
            inter_arrival: opts.inter_arrival,
            start: opts.start + opts.inter_arrival * cursor as u64,
            capabilities: opts.capabilities.clone(),
            injections: Vec::new(),
        };
        let report = device.execute_stream(prog, chunk, &chunk_opts)?;
        merged = Some(match merged {
            None => report,
            Some(mut acc) => {
                let item_offset = acc.outputs.len();
                acc.outputs.extend(report.outputs);
                acc.injected.extend(report.injected);
                acc.completed.extend(report.completed);
                acc.energy += report.energy;
                acc.recoveries
                    .extend(report.recoveries.into_iter().map(|mut r| {
                        r.item += item_offset;
                        r
                    }));
                acc
            }
        });
        cursor = next_stop;
    }

    let stream = merged.unwrap_or(StreamReport {
        outputs: Vec::new(),
        injected: Vec::new(),
        completed: Vec::new(),
        energy: cim_sim::Energy::ZERO,
        recoveries: Vec::new(),
    });
    let recovery_overheads: Vec<SimDuration> =
        stream.recoveries.iter().map(|r| r.overhead).collect();
    let delayed: std::collections::HashSet<usize> =
        stream.recoveries.iter().map(|r| r.item).collect();
    Ok(CampaignReport {
        items_delayed: delayed.len(),
        recovery_overheads,
        stream,
    })
}

/// Result of duplexed (dual-redundant) execution.
#[derive(Debug, Clone)]
pub struct DuplexReport {
    /// Items whose two replicas disagreed beyond `tolerance` — detected
    /// (would-be-silent) corruptions.
    pub mismatched_items: Vec<usize>,
    /// Primary replica's report.
    pub primary: StreamReport,
    /// Shadow replica's report.
    pub shadow: StreamReport,
}

/// Runs the same graph on two disjoint placements and compares sink
/// outputs element-wise; a disagreement beyond `tolerance` marks the item
/// as corrupted. This is §V.A's "any component can be replicated, just
/// like information can be protected using ECC".
///
/// # Errors
///
/// Propagates load/execution errors (the device needs 2× capacity).
pub fn run_duplex(
    device: &mut CimDevice,
    graph: &DataflowGraph,
    inputs: &[HashMap<NodeRef, Vec<f64>>],
    tolerance: f64,
) -> Result<DuplexReport> {
    let mut primary_prog = device.load_program(graph, MappingPolicy::LocalityAware)?;
    let mut shadow_prog = device.load_program(graph, MappingPolicy::LocalityAware)?;
    let opts = StreamOptions::default();
    let primary = device.execute_stream(&mut primary_prog, inputs, &opts)?;
    let shadow = device.execute_stream(&mut shadow_prog, inputs, &opts)?;
    let mut mismatched_items = Vec::new();
    for (i, (a, b)) in primary.outputs.iter().zip(&shadow.outputs).enumerate() {
        let mut bad = false;
        for (sink, va) in a {
            let vb = &b[sink];
            if va.iter().zip(vb).any(|(x, y)| (x - y).abs() > tolerance) {
                bad = true;
            }
        }
        if bad {
            mismatched_items.push(i);
        }
    }
    Ok(DuplexReport {
        mismatched_items,
        primary,
        shadow,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FabricConfig;
    use crate::engine::{Injection, InjectionKind};
    use cim_crossbar::device::CellFault;
    use cim_crossbar::dpe::DpeConfig;
    use cim_dataflow::graph::GraphBuilder;
    use cim_dataflow::ops::{Elementwise, Operation};
    use cim_noc::packet::NodeId;
    use cim_sim::time::SimTime;

    fn device() -> CimDevice {
        CimDevice::new(FabricConfig {
            mesh_width: 4,
            mesh_height: 4,
            units_per_tile: 4,
            dpe: DpeConfig::ideal(),
            ..FabricConfig::default()
        })
        .unwrap()
    }

    fn pipeline_graph() -> (DataflowGraph, NodeRef, NodeRef) {
        let mut b = GraphBuilder::new();
        let s = b.add("s", Operation::Source { width: 8 });
        let mv = b.add(
            "mv",
            Operation::MatVec {
                rows: 8,
                cols: 8,
                weights: (0..64).map(|i| ((i % 9) as f64 - 4.0) / 10.0).collect(),
            },
        );
        let m = b.add(
            "m",
            Operation::Map {
                func: Elementwise::Relu,
                width: 8,
            },
        );
        let k = b.add("k", Operation::Sink { width: 8 });
        b.chain(&[s, mv, m, k]).unwrap();
        let g = b.build().unwrap();
        (g, s, k)
    }

    fn inputs(src: NodeRef, n: usize) -> Vec<HashMap<NodeRef, Vec<f64>>> {
        (0..n)
            .map(|i| HashMap::from([(src, vec![(i % 5) as f64 / 5.0; 8])]))
            .collect()
    }

    #[test]
    fn stream_injections_are_refused_before_anything_runs() {
        // Each chunk is a fresh stream: handed the injections, every
        // chunk would send this t = 0 congestion burst again.
        let mut d = device();
        let (g, s, _) = pipeline_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let opts = StreamOptions {
            injections: vec![Injection {
                at: SimTime::ZERO,
                kind: InjectionKind::Congestion {
                    from: NodeId::new(0, 0),
                    to: NodeId::new(3, 0),
                    packets: 4,
                    bytes: 256,
                },
            }],
            ..StreamOptions::default()
        };
        let faults = [ScheduledFault {
            before_item: 3,
            node: 1,
        }];
        let healthy = d.healthy_unit_count();
        let r = run_fault_campaign(&mut d, &mut prog, &inputs(s, 6), &opts, &faults);
        assert!(
            matches!(r, Err(FabricError::InvalidConfig { .. })),
            "stream injections must be refused: {r:?}"
        );
        assert_eq!(d.healthy_unit_count(), healthy, "no fault was applied");
    }

    #[test]
    fn campaign_loses_no_items() {
        let mut d = device();
        let (g, s, k) = pipeline_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let ins = inputs(s, 10);
        let faults = [
            ScheduledFault {
                before_item: 3,
                node: 1,
            },
            ScheduledFault {
                before_item: 7,
                node: 2,
            },
        ];
        let report =
            run_fault_campaign(&mut d, &mut prog, &ins, &StreamOptions::default(), &faults)
                .unwrap();
        assert_eq!(report.stream.outputs.len(), 10, "no item lost");
        assert_eq!(report.recovery_overheads.len(), 2);
        assert_eq!(report.items_delayed, 2);
        // Every item still has a sink value.
        for out in &report.stream.outputs {
            assert_eq!(out[&k].len(), 8);
        }
    }

    #[test]
    fn campaign_without_faults_is_plain_stream() {
        let mut d = device();
        let (g, s, _) = pipeline_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let ins = inputs(s, 5);
        let report =
            run_fault_campaign(&mut d, &mut prog, &ins, &StreamOptions::default(), &[]).unwrap();
        assert_eq!(report.stream.outputs.len(), 5);
        assert!(report.recovery_overheads.is_empty());
        assert_eq!(report.items_delayed, 0);
    }

    #[test]
    fn fault_before_the_first_item_recovers_item_zero() {
        let mut d = device();
        let (g, s, k) = pipeline_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let ins = inputs(s, 4);
        let faults = [ScheduledFault {
            before_item: 0,
            node: 1,
        }];
        let report =
            run_fault_campaign(&mut d, &mut prog, &ins, &StreamOptions::default(), &faults)
                .unwrap();
        assert_eq!(report.stream.outputs.len(), 4, "no item lost");
        assert_eq!(report.recovery_overheads.len(), 1);
        assert_eq!(report.stream.recoveries[0].item, 0, "item 0 recovers");
        for out in &report.stream.outputs {
            assert_eq!(out[&k].len(), 8);
        }
    }

    #[test]
    fn two_faults_before_the_same_item_both_recover() {
        let mut d = device();
        let (g, s, k) = pipeline_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let ins = inputs(s, 6);
        // Two different nodes lose their units at the same instant; the
        // stream must fence and replace both while item 2 is in flight.
        let faults = [
            ScheduledFault {
                before_item: 2,
                node: 1,
            },
            ScheduledFault {
                before_item: 2,
                node: 2,
            },
        ];
        let report =
            run_fault_campaign(&mut d, &mut prog, &ins, &StreamOptions::default(), &faults)
                .unwrap();
        assert_eq!(report.stream.outputs.len(), 6, "no item lost");
        assert_eq!(
            report.recovery_overheads.len(),
            2,
            "one overhead per injection"
        );
        assert_eq!(report.items_delayed, 1, "both faults hit the same item");
        for out in &report.stream.outputs {
            assert_eq!(out[&k].len(), 8);
        }
    }

    #[test]
    fn fault_before_the_final_item_still_completes_the_stream() {
        let mut d = device();
        let (g, s, k) = pipeline_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let ins = inputs(s, 5);
        let faults = [ScheduledFault {
            before_item: 4,
            node: 1,
        }];
        let report =
            run_fault_campaign(&mut d, &mut prog, &ins, &StreamOptions::default(), &faults)
                .unwrap();
        assert_eq!(report.stream.outputs.len(), 5, "no item lost");
        assert_eq!(report.recovery_overheads.len(), 1);
        assert_eq!(
            report.stream.recoveries[0].item, 4,
            "the final item is the one delayed"
        );
        assert_eq!(out_width(&report, k), 8);
    }

    fn out_width(report: &CampaignReport, k: NodeRef) -> usize {
        report.stream.outputs.last().unwrap()[&k].len()
    }

    #[test]
    fn recovery_overhead_is_dominated_by_reprogramming() {
        let mut d = device();
        let (g, s, _) = pipeline_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let ins = inputs(s, 4);
        let faults = [ScheduledFault {
            before_item: 2,
            node: 1,
        }];
        let report =
            run_fault_campaign(&mut d, &mut prog, &ins, &StreamOptions::default(), &faults)
                .unwrap();
        // Reprogramming a matvec node costs >> detection (1 us).
        assert!(report.recovery_overheads[0] > SimDuration::from_us(2));
    }

    #[test]
    fn power_cycle_mid_stream_preserves_programmed_state() {
        // §V.A meets persistence: a power loss between items wipes the
        // volatile machinery but the programmed conductances are
        // memristive and survive, so the stream resumes bit-identically
        // without reprogramming.
        let (g, s, k) = pipeline_graph();
        let ins = inputs(s, 8);

        let mut base = device();
        let mut base_prog = base.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let uninterrupted = base
            .execute_stream(&mut base_prog, &ins, &StreamOptions::default())
            .unwrap();

        let mut d = device();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let first = d
            .execute_stream(&mut prog, &ins[..4], &StreamOptions::default())
            .unwrap();
        // The crash: snapshot the nonvolatile slice of every unit
        // (health, assignment, programmed engine — what the memristors
        // keep), wipe everything volatile, restore. This is the same
        // pass `CimRuntime::power_cycle` runs, exercised at device
        // level against an in-flight §V.A stream.
        let nv: Vec<_> = d
            .units()
            .iter()
            .map(|u| (u.health(), u.assigned_node(), u.dpe().cloned()))
            .collect();
        d.wipe_volatile();
        assert!(d.volatile_pristine(), "a wiped device looks freshly booted");
        for (i, (health, node, dpe)) in nv.into_iter().enumerate() {
            d.unit_mut(i).restore_nv(health, node, dpe);
        }
        let second = d
            .execute_stream(&mut prog, &ins[4..], &StreamOptions::default())
            .unwrap();

        for (i, out) in first.outputs.iter().chain(&second.outputs).enumerate() {
            assert_eq!(
                out[&k], uninterrupted.outputs[i][&k],
                "item {i} survives the crash bit-identically"
            );
        }
    }

    #[test]
    fn duplex_detects_injected_corruption() {
        let mut d = device();
        let (g, s, _) = pipeline_graph();
        let ins = inputs(s, 3);
        // Clean duplex first: ideal devices agree.
        let clean = run_duplex(&mut d, &g, &ins, 1e-6).unwrap();
        assert!(clean.mismatched_items.is_empty(), "ideal replicas agree");

        // Corrupt the primary's crossbar silently and re-run.
        let mut d = device();
        let mut primary_prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let mut shadow_prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let victim = primary_prog.placement().unit_of(1);
        if let Some(dpe) = d.unit_mut(victim).dpe_mut() {
            dpe.for_each_array(|_, _, _, _, xbar| {
                for r in 0..4 {
                    xbar.inject_fault(r, 0, CellFault::StuckOn).unwrap();
                }
            });
        }
        let opts = StreamOptions::default();
        let p = d.execute_stream(&mut primary_prog, &ins, &opts).unwrap();
        let sh = d.execute_stream(&mut shadow_prog, &ins, &opts).unwrap();
        let disagree = p.outputs.iter().zip(&sh.outputs).any(|(a, b)| {
            a.iter()
                .any(|(sink, va)| va.iter().zip(&b[sink]).any(|(x, y)| (x - y).abs() > 1e-6))
        });
        assert!(disagree, "stuck-on cells must perturb the primary only");
    }
}
