//! # cim-fabric — the Computing-In-Memory device
//!
//! The paper's primary contribution made executable: micro-units
//! (control, data and processing, Fig 5) grouped into tiles on a
//! packet-switched mesh, programmed with static, dynamic and
//! self-programmable dataflow (§III.B), secured with packet crypto and
//! capabilities (§IV.A), partitioned and QoS-isolated (§IV.B),
//! load-managed (§IV.C), and made fault-tolerant through
//! detection, containment, redundancy and recovery (§V.A).
//!
//! ## Layer map
//!
//! | Module | Paper section |
//! |---|---|
//! | [`config`], [`unit`](mod@unit), [`device`] | §III, Figs 3–5 |
//! | [`mapper`] | §III.D compilers |
//! | [`engine`] | §III.B static dataflow + §V.A recovery |
//! | [`security`] | §IV.A |
//! | [`virt`] | §IV.B |
//! | [`resman`] | §IV.C + §III.B dynamic dataflow |
//! | [`runtime`] | §III.E run-times and operating systems |
//! | [`persist`] | nonvolatility exploited — crash persistence + power-loss recovery |
//! | [`service`](mod@service) | §III.E serving front-end + §V.A retry |
//! | [`fleet`](mod@fleet) | §IV.B/C at fleet scale — router, device failover (Table 1); §VI scale-out across devices |
//! | [`reliability`] | §V.A |
//! | [`self_prog`] | §III.B self-programmable dataflow |
//! | [`serviceability`] | §V.D graceful aging and self-healing |
//! | [`integration`] | §III.E–F, Fig 6 |
//!
//! ## Example: load and run a model
//!
//! ```
//! use cim_fabric::config::FabricConfig;
//! use cim_fabric::device::CimDevice;
//! use cim_fabric::engine::StreamOptions;
//! use cim_fabric::mapper::MappingPolicy;
//! use cim_dataflow::graph::GraphBuilder;
//! use cim_dataflow::ops::{Elementwise, Operation};
//! use std::collections::HashMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut device = CimDevice::new(FabricConfig::default())?;
//! let mut b = GraphBuilder::new();
//! let src = b.add("in", Operation::Source { width: 8 });
//! let fc = b.add("fc", Operation::MatVec {
//!     rows: 8, cols: 4, weights: vec![0.1; 32],
//! });
//! let relu = b.add("relu", Operation::Map { func: Elementwise::Relu, width: 4 });
//! let out = b.add("out", Operation::Sink { width: 4 });
//! b.chain(&[src, fc, relu, out])?;
//! let graph = b.build()?;
//!
//! let mut prog = device.load_program(&graph, MappingPolicy::LocalityAware)?;
//! let report = device.execute_stream(
//!     &mut prog,
//!     &[HashMap::from([(src, vec![0.5; 8])])],
//!     &StreamOptions::default(),
//! )?;
//! assert_eq!(report.outputs[0][&out].len(), 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod device;
pub mod engine;
pub mod error;
pub mod fleet;
pub mod integration;
pub mod mapper;
pub mod persist;
pub mod reliability;
pub mod resman;
pub mod runtime;
pub mod security;
pub mod self_prog;
pub mod service;
pub mod serviceability;
pub mod unit;
pub mod virt;

pub use config::FabricConfig;
pub use device::CimDevice;
pub use engine::{MappedProgram, RecoveryEvent, StreamOptions, StreamReport};
pub use error::{FabricError, Result};
pub use fleet::{CimFleet, DeviceLoad, FleetConfig, FleetEvent, FleetReport};
pub use integration::{run_integrated, IntegrationMode, IntegrationReport};
pub use mapper::{map_graph, map_graph_subset, MappingPolicy, Placement};
pub use persist::PersistentImage;
pub use reliability::{run_duplex, run_fault_campaign, CampaignReport, ScheduledFault};
pub use resman::{run_farm, FarmReport, LoadReport, SlaController};
pub use runtime::{CimRuntime, JobId, JobStatus};
pub use security::{fence_tile, CapabilityTable};
pub use self_prog::{apply_patch, deliver_and_apply, encode_patch_packet, PatchOutcome};
pub use service::{
    CimService, Disposition, LatencyStats, RequestOutcome, ServiceConfig, ServiceEvent,
};
pub use serviceability::{ServiceAction, ServiceabilityMonitor, UnitServiceReport};
pub use unit::{MicroUnit, UnitHealth};
pub use virt::{Partition, PartitionManager};
