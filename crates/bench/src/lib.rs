//! # cim-bench — experiment harness
//!
//! Regenerates every table and figure of *Computing In-Memory, Revisited*
//! (see `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for the
//! recorded results). Each experiment lives in [`experiments`] as a
//! `run()` returning a typed report plus a `render()` producing the
//! table text; thin binaries under `src/bin/` print them, and the
//! benches under `benches/` (on the in-tree [`harness`]) time the
//! underlying hot paths.

pub mod experiments;
pub mod harness;
pub mod table;
