//! Per-round weight snapshots.
//!
//! BA⋆ verifies sortition proofs against the user weights of the round's
//! context (§7.1). Weights come from account balances in the look-back
//! block (§5.3); this crate only needs the resulting map, keeping BA⋆
//! independent of the ledger.

use algorand_crypto::PublicKey;
use std::collections::HashMap;

/// A snapshot of user weights for one round: `ctx.weight` and `ctx.W`.
#[derive(Clone, Debug, Default)]
pub struct RoundWeights {
    map: HashMap<[u8; 32], u64>,
    total: u64,
}

impl RoundWeights {
    /// Builds a snapshot from (public key, weight) pairs.
    ///
    /// Zero-weight entries are dropped; duplicate keys keep the last value.
    pub fn from_pairs<I: IntoIterator<Item = (PublicKey, u64)>>(pairs: I) -> RoundWeights {
        let mut map = HashMap::new();
        for (pk, w) in pairs {
            if w > 0 {
                map.insert(pk.to_bytes(), w);
            } else {
                map.remove(pk.as_bytes());
            }
        }
        let total = map.values().sum();
        RoundWeights { map, total }
    }

    /// Builds a snapshot from raw 32-byte key encodings.
    ///
    /// The ledger stores accounts by key bytes; this avoids decompressing
    /// every key just to build a weight table.
    pub fn from_raw<I: IntoIterator<Item = ([u8; 32], u64)>>(pairs: I) -> RoundWeights {
        let mut map = HashMap::new();
        for (pk, w) in pairs {
            if w > 0 {
                map.insert(pk, w);
            } else {
                map.remove(&pk);
            }
        }
        let total = map.values().sum();
        RoundWeights { map, total }
    }

    /// The weight of a public key (0 if unknown).
    pub fn weight_of(&self, pk: &PublicKey) -> u64 {
        self.map.get(pk.as_bytes()).copied().unwrap_or(0)
    }

    /// The total weight W of all users.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of users with nonzero weight.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no user has weight.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_crypto::Keypair;

    #[test]
    fn from_pairs_totals_and_lookup() {
        let a = Keypair::from_seed([1; 32]).pk;
        let b = Keypair::from_seed([2; 32]).pk;
        let c = Keypair::from_seed([3; 32]).pk;
        let w = RoundWeights::from_pairs([(a, 10), (b, 20), (c, 0)]);
        assert_eq!(w.total(), 30);
        assert_eq!(w.weight_of(&a), 10);
        assert_eq!(w.weight_of(&b), 20);
        assert_eq!(w.weight_of(&c), 0);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
    }

    #[test]
    fn duplicate_keys_keep_last() {
        let a = Keypair::from_seed([4; 32]).pk;
        let w = RoundWeights::from_pairs([(a, 10), (a, 25)]);
        assert_eq!(w.weight_of(&a), 25);
        assert_eq!(w.total(), 25);
    }

    #[test]
    fn empty_snapshot() {
        let w = RoundWeights::from_pairs([]);
        assert!(w.is_empty());
        assert_eq!(w.total(), 0);
    }
}
