//! # cim — Computing In-Memory, Revisited (ICDCS 2018), reproduced in Rust
//!
//! An executable reproduction of Milojicic et al.'s Computing-In-Memory
//! vision paper: the memristor-crossbar Dot Product Engine, the
//! micro-unit/tile/device fabric with its packet interconnect, the three
//! dataflow programming models, the security/virtualization/reliability
//! machinery, the Von Neumann comparators (CPU, GPU, SMP, cluster), and
//! the 14-class Table 2 application suite — everything needed to
//! regenerate the paper's figures and tables (see `EXPERIMENTS.md`).
//!
//! This crate is a facade: it re-exports the workspace's sub-crates under
//! one namespace so examples and integration tests have a single import
//! surface.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `cim-sim` | time/energy, RNG, stats, telemetry, calibration |
//! | [`crossbar`] | `cim-crossbar` | memristor arrays, DPE, logic, TCAM |
//! | [`noc`] | `cim-noc` | packet mesh, QoS, isolation, crypto |
//! | [`dataflow`] | `cim-dataflow` | graph IR, interpreter, program models |
//! | [`fabric`] | `cim-fabric` | the CIM device and execution engine |
//! | [`baseline`] | `cim-baseline` | CPU/GPU/SMP/cluster comparators |
//! | [`workloads`] | `cim-workloads` | the Table 2 application suite |
//! | [`obs`] | `cim-obs` | time-series, SLO burn-rate alerts, flamegraphs |
//!
//! ## Quickstart
//!
//! ```
//! use cim::fabric::{CimDevice, FabricConfig, MappingPolicy, StreamOptions};
//! use cim::workloads::nn::mlp_graph;
//! use cim::sim::SeedTree;
//! use std::collections::HashMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut device = CimDevice::new(FabricConfig::default())?;
//! let (graph, src, sink) = mlp_graph(&[64, 32, 8], SeedTree::new(1));
//! let mut prog = device.load_program(&graph, MappingPolicy::LocalityAware)?;
//! let report = device.execute_stream(
//!     &mut prog,
//!     &[HashMap::from([(src, vec![0.25; 64])])],
//!     &StreamOptions::default(),
//! )?;
//! assert_eq!(report.outputs[0][&sink].len(), 8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use cim_baseline as baseline;
pub use cim_crossbar as crossbar;
pub use cim_dataflow as dataflow;
pub use cim_fabric as fabric;
pub use cim_noc as noc;
pub use cim_obs as obs;
pub use cim_sim as sim;
pub use cim_workloads as workloads;
