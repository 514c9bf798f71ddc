//! The discrete-event simulation core.
//!
//! [`queue`] holds the future-event set — a calendar of virtual-time
//! buckets — with its ordering key; [`engine`] holds the
//! conservative-lookahead window engine ([`Simulation`]) that may run
//! node phases in parallel while keeping every result byte-identical to a
//! single-worker run.

pub mod engine;
pub mod queue;

pub use engine::{DesConfig, ParallelSim, Simulation};
pub use queue::{CalendarQueue, OrderKey, CLASS_DELIVER, CLASS_WAKE};
