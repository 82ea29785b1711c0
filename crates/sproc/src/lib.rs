//! # chiller-sproc
//!
//! Stored procedures as analyzable, executable operation DAGs — the paper's
//! §3.2/§3.3 machinery:
//!
//! * [`op`] — the operation IR: reads, updates, inserts, deletes whose keys
//!   are either transaction parameters or computed from earlier reads
//!   (primary-key dependencies), and whose new values may reference any
//!   earlier output (value dependencies).
//! * [`graph`] — static analysis run once when a procedure is registered:
//!   builds the dependency graph distinguishing **pk-deps** (which constrain
//!   lock-acquisition reordering) from **v-deps** (which do not), and
//!   validates the procedure.
//! * [`exec`] — the runtime execution state: parameters, per-op outputs,
//!   guard evaluation. Used by every concurrency-control engine.
//! * [`decision`] — the run-time region decision: given the hot-record
//!   lookup and the partition of every operation, determine which records
//!   form the inner region and which partition hosts it.
//! * [`builder`] — ergonomic construction of procedures.
//!
//! The flight-booking procedure of the paper's Figure 4 is reproduced in
//! this crate's tests and in the `flight_booking` example.

pub mod builder;
pub mod decision;
pub mod exec;
pub mod graph;
pub mod op;

pub use builder::ProcedureBuilder;
pub use decision::{decide_regions, decide_regions_into, DecisionScratch, RegionSplit};
pub use exec::ExecState;
pub use graph::DepGraph;
pub use op::{Guard, KeyExpr, Op, OpKind, Procedure};
