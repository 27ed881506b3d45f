//! # cim-noc — packet-switched interconnect for the CIM device
//!
//! The paper makes interconnects "an integral part of the CIM model"
//! (§III, Fig 4): micro-units exchange *packets*, and reconfiguration,
//! security (§IV.A), virtualization/QoS (§IV.B) and failover (§V.A) all
//! operate at packet granularity. This crate provides:
//!
//! * [`packet`] — packets, flits, traffic classes, node coordinates;
//! * [`topology`] — the 2-D mesh with XY/YX/BFS fault-aware routing;
//! * [`network`] — a flow-level link-reservation network with virtual
//!   channels (QoS), isolation domains and link encryption;
//! * [`crypto`] — the simulation-grade cipher and authentication tag.
//!
//! ## Example
//!
//! ```
//! use cim_noc::network::NocNetwork;
//! use cim_noc::packet::{NodeId, Packet, TrafficClass};
//! use cim_sim::time::SimTime;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut noc = NocNetwork::new(4, 4, 7)?;
//! noc.set_encryption(true);
//! let p = Packet::new(0, NodeId::new(0, 0), NodeId::new(3, 1), b"tensor".to_vec())
//!     .with_class(TrafficClass::Guaranteed);
//! let d = noc.transmit(&p, SimTime::ZERO)?;
//! assert_eq!(&d.payload[..], b"tensor");
//! assert_ne!(&d.wire_payload[..], b"tensor"); // encrypted in flight
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crypto;
pub mod error;
pub mod network;
pub mod packet;
pub mod topology;

pub use error::{NocError, Result};
pub use network::{Delivery, IsolationPolicy, NocNetwork};
pub use packet::{NodeId, Packet, TrafficClass};
pub use topology::{Link, Mesh};
