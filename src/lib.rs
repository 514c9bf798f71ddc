//! # algorand — a reproduction of *Algorand: Scaling Byzantine Agreements
//! # for Cryptocurrencies* (SOSP 2017)
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`crypto`] — from-scratch SHA-256, Curve25519, Schnorr signatures,
//!   and the ECVRF behind cryptographic sortition;
//! * [`sortition`] — Algorithms 1–2 and the Figure 3 committee-size
//!   analysis;
//! * [`ba`] — the BA⋆ Byzantine agreement engine (Algorithms 3–9);
//! * [`ledger`] — transactions, accounts, blocks, seeds, chains, and
//!   certificates;
//! * [`gossip`] — topology and relay policy;
//! * [`txpool`] — the mempool: nonce-ordered, size-bounded pending
//!   transactions between gossip and block assembly;
//! * [`core`] — the full Algorand node (block proposal, round loop, fork
//!   recovery);
//! * [`sim`] — the discrete-event deployment simulator standing in for the
//!   paper's 1,000-VM testbed.
//!
//! # Quick start
//!
//! ```
//! use algorand::sim::{SimConfig, Simulation};
//!
//! // Simulate 12 equal-stake users for one round of consensus.
//! let mut sim = Simulation::new(SimConfig::new(12));
//! sim.run_rounds(1, 10 * 60 * 1_000_000);
//! let stats = sim.round_stats(1).expect("round completed");
//! assert!(stats.completion.max < 60.0, "sub-minute confirmation");
//! ```

#![forbid(unsafe_code)]

pub use algorand_ba as ba;
pub use algorand_core as core;
pub use algorand_crypto as crypto;
pub use algorand_gossip as gossip;
pub use algorand_ledger as ledger;
pub use algorand_sim as sim;
pub use algorand_sortition as sortition;
pub use algorand_txpool as txpool;
