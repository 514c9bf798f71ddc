//! The Algorand ledger: transactions, accounts, blocks, seeds, and chains.
//!
//! This crate implements the data layer of the paper: signed payments (§3),
//! balance-derived sortition weights (§8.1), block format and validation
//! (§8.1), the seed chain with its refresh and fallback rules (§5.2–§5.3),
//! certificate-backed bootstrapping (§8.3), fork tracking and the
//! canonical-chain switch used by recovery (§8.2), and sharded storage
//! accounting (§8.3).
//!
//! # Examples
//!
//! ```
//! use algorand_crypto::Keypair;
//! use algorand_ledger::{Blockchain, ChainParams};
//!
//! let alice = Keypair::from_seed([1u8; 32]);
//! let bob = Keypair::from_seed([2u8; 32]);
//! let chain = Blockchain::new(
//!     ChainParams::paper(),
//!     [(alice.pk, 100), (bob.pk, 50)],
//!     [0u8; 32],
//! );
//! assert_eq!(chain.accounts().balance(&alice.pk), 100);
//! assert_eq!(chain.next_round(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod account;
pub mod block;
pub mod chain;
pub mod seed;
pub mod transaction;

/// Canonical byte encoding (re-exported from `algorand-crypto`, the bottom
/// of the crate stack, so consensus messages can share it).
pub use algorand_crypto::codec;

pub use account::{Accounts, TxError};
pub use block::{Block, BlockError};
pub use chain::{shard_of, Blockchain, ChainError, ChainParams};
pub use transaction::Transaction;
