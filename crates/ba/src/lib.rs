//! BA⋆: the Byzantine agreement protocol at the heart of Algorand (§7).
//!
//! BA⋆ reaches consensus among an open population of money-weighted users
//! on a 32-byte block hash, in repeated committee-voted steps:
//!
//! 1. **Reduction** (Algorithm 7) converts agreement on an arbitrary hash
//!    into agreement on one of two values — a specific block hash or the
//!    empty block's hash.
//! 2. **BinaryBA⋆** (Algorithm 8) decides between those two, using a
//!    VRF-derived common coin (Algorithm 9) to defeat network-scheduling
//!    adversaries.
//! 3. A special **final** step upgrades the result to *final* consensus
//!    when safety is assured even under network asynchrony; otherwise the
//!    result is *tentative*.
//!
//! Committees are re-drawn by cryptographic sortition at every step, and
//! members speak exactly once, so targeting a revealed member gains the
//! adversary nothing (participant replacement). The engine here is
//! deliberately sans-io: it consumes votes and clock ticks and emits votes
//! and decisions, making it drivable by the discrete-event simulator, by
//! integration tests, or by a real network runtime.
//!
//! This crate is ledger-independent: it agrees on opaque 32-byte values,
//! with user weights supplied as a [`RoundWeights`] snapshot.

#![forbid(unsafe_code)]

pub mod certificate;
pub mod engine;
pub mod msg;
pub mod params;
pub mod tally;
pub mod verify;
pub mod weights;

pub use certificate::{Certificate, CertificateError};
pub use engine::{AblationFlags, BaStar, ConsensusKind, Decision, Output};
pub use msg::{StepKind, Value, VoteMessage};
pub use params::{BaParams, Micros, SECOND, T_FINAL, T_STEP};
pub use verify::{
    verify_sortition, verify_vote_message, CachedVerifier, RealVerifier, VerdictCache,
    VerifiedVote, VoteContext, VoteVerifier,
};
pub use weights::RoundWeights;
