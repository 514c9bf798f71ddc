//! The gossip substrate (§4, §8.4).
//!
//! Algorand disseminates every protocol message over a peer-to-peer gossip
//! network: each user dials a few random, money-weighted peers, validates
//! messages before relaying, never forwards a message twice, and forwards
//! at most one message per key per ⟨round, step⟩. This crate provides the
//! transport-independent pieces — topology construction/analysis and the
//! relay policy — which the discrete-event simulator (and, in a real
//! deployment, a TCP runtime) drives.

#![forbid(unsafe_code)]

pub mod relay;
pub mod topology;

pub use relay::{RelayDecision, RelayMetrics, RelayState};
pub use topology::{NodeId, Topology};
