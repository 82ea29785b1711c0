//! # chiller-common
//!
//! Shared foundation types for the Chiller reproduction: identifiers, cell
//! values and rows, virtual time, error types, seeded random utilities
//! (including a Zipf sampler used by the workload generators), metric
//! primitives (histograms, counters) and configuration structs shared by the
//! simulator and the transaction engines.
//!
//! Everything in this crate is deliberately dependency-light so that every
//! other crate in the workspace can build on it.

pub mod config;
pub mod error;
pub mod hash;
pub mod ids;
pub mod metrics;
pub mod rng;
pub mod time;
pub mod value;

pub use config::{EngineConfig, NetworkConfig, ReplicationConfig, SimConfig};
pub use error::{ChillerError, Result};
pub use ids::{NodeId, OpId, PartitionId, RecordId, TableId, TxnId};
pub use metrics::{AbortReason, AbortReasons, Histogram, MetricSet};
pub use time::SimTime;
pub use value::{Row, Value};
