//! The Algorand node: the paper's primary contribution assembled.
//!
//! This crate wires the substrates together into a complete user
//! implementation. Message handling is a staged pipeline:
//!
//! * [`ingest`] — stage 1: wire decode (see [`wire`]) and per-round
//!   classification of incoming messages;
//! * [`verify`] — stage 2: stateless signature/VRF verification behind a
//!   process-wide cache, producing type-state `Verified*` wrappers that
//!   are the *only* inputs the consensus stage accepts;
//! * [`round`] — stage 3: the per-round state machine ([`round::RoundContext`])
//!   plus the cross-round buffers (block bodies, future votes).
//!
//! Around the pipeline:
//!
//! * [`params`] — the Figure 4 parameter set, laptop-scale variants, and
//!   the key / genesis / monitor-bound derivations of a deployment;
//! * [`proposal`] — block proposal with VRF-derived priorities (§6);
//! * [`node`] — the sans-io round loop: propose → wait → BA⋆ → append (§4,
//!   §8);
//! * [`process`] — what a process does around its node, as effects: relay
//!   forwarding, point-to-point catch-up, blocksync, STATUS and which
//!   rounds to make durable — one decision for the OS runtime and the
//!   simulator alike;
//! * [`recovery`] — the fork-recovery protocol (§8.2);
//! * [`metrics`] — per-round records and per-stage pipeline counters.
//!
//! A [`Node`] talks to the world exclusively through [`WireMessage`]s and
//! clock ticks, and a [`Process`] through effects, so the same code runs
//! under the discrete-event simulator, the integration tests, and the
//! real node's TCP transport.

#![forbid(unsafe_code)]

pub mod catchup;
pub mod ingest;
pub mod metrics;
pub mod node;
pub mod params;
pub mod process;
pub mod proposal;
pub mod recovery;
pub mod round;
pub mod verify;
pub mod wire;

pub use metrics::{PipelineStats, RecoveryStats, RoundRecord};
pub use node::{Delivery, Node};
pub use params::{derive_keypairs, AlgorandParams, GENESIS_SEED, HONEST_FRACTION};
pub use process::{Blocksync, Effect, PeerId, Process};
pub use proposal::{BlockMessage, PriorityMessage};
pub use recovery::ForkProposalMessage;
pub use verify::{PipelineVerifier, VerifiedBlock, VerifiedForkProposal, VerifiedPriority};
pub use wire::{CatchupBatch, WireDecodeError, WireKind, WireMessage};
