//! Account state: balances, nonces, and the weight view used by sortition.
//!
//! "The list of transactions in a block logically translates to a set of
//! weights for each user's public key (based on the balance of currency for
//! that key), along with the total weight of all outstanding currency"
//! (§8.1).

use crate::transaction::Transaction;
use algorand_ba::RoundWeights;
use algorand_crypto::PublicKey;
use std::collections::BTreeMap;

/// Why a transaction was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxError {
    /// The signature does not verify under the sender's key.
    BadSignature,
    /// The sender's balance is below the transferred amount.
    InsufficientBalance,
    /// The nonce is not exactly the sender's next sequence number.
    BadNonce,
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TxError::BadSignature => "bad signature",
            TxError::InsufficientBalance => "insufficient balance",
            TxError::BadNonce => "bad nonce",
        };
        f.write_str(s)
    }
}

impl std::error::Error for TxError {}

/// The full account state at some point in the chain.
///
/// `BTreeMap` keeps iteration deterministic, which matters for weight
/// snapshots and tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Accounts {
    balances: BTreeMap<[u8; 32], u64>,
    nonces: BTreeMap<[u8; 32], u64>,
}

impl Accounts {
    /// Creates the genesis state from initial allocations.
    pub fn genesis<I: IntoIterator<Item = (PublicKey, u64)>>(alloc: I) -> Accounts {
        let mut balances = BTreeMap::new();
        for (pk, amount) in alloc {
            if amount > 0 {
                *balances.entry(pk.to_bytes()).or_insert(0) += amount;
            }
        }
        Accounts {
            balances,
            nonces: BTreeMap::new(),
        }
    }

    /// The balance of an account (0 if absent).
    pub fn balance(&self, pk: &PublicKey) -> u64 {
        self.balances.get(pk.as_bytes()).copied().unwrap_or(0)
    }

    /// The last used nonce of an account (0 if it never sent).
    pub fn nonce(&self, pk: &PublicKey) -> u64 {
        self.nonces.get(pk.as_bytes()).copied().unwrap_or(0)
    }

    /// Total currency in circulation (the sortition denominator W).
    pub fn total(&self) -> u64 {
        self.balances.values().sum()
    }

    /// Number of accounts with a nonzero balance.
    pub fn len(&self) -> usize {
        self.balances.len()
    }

    /// True when no account holds currency.
    pub fn is_empty(&self) -> bool {
        self.balances.is_empty()
    }

    /// Checks a transaction against this state without applying it.
    ///
    /// # Errors
    ///
    /// Returns the specific [`TxError`]; used both by block validation
    /// (§8.1) and by proposers filtering their pending pool.
    pub fn check(&self, tx: &Transaction) -> Result<(), TxError> {
        if !tx.signature_valid() {
            return Err(TxError::BadSignature);
        }
        if tx.nonce != self.nonce(&tx.from) + 1 {
            return Err(TxError::BadNonce);
        }
        if self.balance(&tx.from) < tx.amount {
            return Err(TxError::InsufficientBalance);
        }
        Ok(())
    }

    /// Applies a transaction, mutating balances and the sender nonce.
    ///
    /// # Errors
    ///
    /// Returns the [`TxError`] and leaves the state untouched on failure.
    pub fn apply(&mut self, tx: &Transaction) -> Result<(), TxError> {
        self.check(tx)?;
        let from_bytes = tx.from.to_bytes();
        let to_bytes = tx.to.to_bytes();
        let from_balance = self.balances.get_mut(&from_bytes).expect("checked");
        *from_balance -= tx.amount;
        if *from_balance == 0 {
            self.balances.remove(&from_bytes);
        }
        if tx.amount > 0 {
            *self.balances.entry(to_bytes).or_insert(0) += tx.amount;
        }
        *self.nonces.entry(from_bytes).or_insert(0) += 1;
        Ok(())
    }

    /// Snapshots the balances as sortition weights.
    pub fn weights(&self) -> RoundWeights {
        RoundWeights::from_raw(self.balances.iter().map(|(pk, w)| (*pk, *w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_crypto::Keypair;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed([seed; 32])
    }

    #[test]
    fn genesis_allocates() {
        let a = kp(1);
        let b = kp(2);
        let acc = Accounts::genesis([(a.pk, 100), (b.pk, 50)]);
        assert_eq!(acc.balance(&a.pk), 100);
        assert_eq!(acc.balance(&b.pk), 50);
        assert_eq!(acc.total(), 150);
        assert_eq!(acc.len(), 2);
    }

    #[test]
    fn payment_moves_money_and_conserves_total() {
        let a = kp(1);
        let b = kp(2);
        let mut acc = Accounts::genesis([(a.pk, 100), (b.pk, 50)]);
        let tx = Transaction::payment(&a, b.pk, 30, 1);
        acc.apply(&tx).unwrap();
        assert_eq!(acc.balance(&a.pk), 70);
        assert_eq!(acc.balance(&b.pk), 80);
        assert_eq!(acc.total(), 150);
        assert_eq!(acc.nonce(&a.pk), 1);
    }

    #[test]
    fn overdraft_rejected() {
        let a = kp(1);
        let b = kp(2);
        let mut acc = Accounts::genesis([(a.pk, 10)]);
        let tx = Transaction::payment(&a, b.pk, 11, 1);
        assert_eq!(acc.apply(&tx), Err(TxError::InsufficientBalance));
        assert_eq!(acc.balance(&a.pk), 10);
    }

    #[test]
    fn replay_rejected_by_nonce() {
        let a = kp(1);
        let b = kp(2);
        let mut acc = Accounts::genesis([(a.pk, 100)]);
        let tx = Transaction::payment(&a, b.pk, 30, 1);
        acc.apply(&tx).unwrap();
        // Double-spend attempt: replaying the identical signed transaction.
        assert_eq!(acc.apply(&tx), Err(TxError::BadNonce));
        assert_eq!(acc.balance(&b.pk), 30);
    }

    #[test]
    fn out_of_order_nonce_rejected() {
        let a = kp(1);
        let b = kp(2);
        let mut acc = Accounts::genesis([(a.pk, 100)]);
        let tx2 = Transaction::payment(&a, b.pk, 10, 2);
        assert_eq!(acc.apply(&tx2), Err(TxError::BadNonce));
    }

    #[test]
    fn forged_sender_rejected() {
        let a = kp(1);
        let b = kp(2);
        let thief = kp(3);
        let mut acc = Accounts::genesis([(a.pk, 100)]);
        // Thief signs a payment, then claims it is from a.
        let signed = Transaction::payment(&thief, b.pk, 100, 1);
        let tx = Transaction::from_parts(a.pk, signed.to, signed.amount, signed.nonce, signed.sig);
        assert_eq!(acc.apply(&tx), Err(TxError::BadSignature));
        assert_eq!(tx.verdict(), Some(false));
        // The remembered refusal still outranks the nonce and balance
        // checks: a stale, overdrawn forgery is a forgery first.
        let mut later = acc.clone();
        later
            .apply(&Transaction::payment(&a, b.pk, 100, 1))
            .unwrap();
        assert_eq!(later.check(&tx), Err(TxError::BadSignature));
    }

    #[test]
    fn emptied_account_drops_from_weights() {
        let a = kp(1);
        let b = kp(2);
        let mut acc = Accounts::genesis([(a.pk, 100)]);
        let tx = Transaction::payment(&a, b.pk, 100, 1);
        acc.apply(&tx).unwrap();
        assert_eq!(acc.balance(&a.pk), 0);
        let w = acc.weights();
        assert_eq!(w.total(), 100);
        assert_eq!(w.weight_of(&a.pk), 0);
        assert_eq!(w.weight_of(&b.pk), 100);
    }

    #[test]
    fn zero_amount_payment_allowed_and_bumps_nonce() {
        let a = kp(1);
        let b = kp(2);
        let mut acc = Accounts::genesis([(a.pk, 10)]);
        let tx = Transaction::payment(&a, b.pk, 0, 1);
        acc.apply(&tx).unwrap();
        assert_eq!(acc.nonce(&a.pk), 1);
        assert_eq!(acc.total(), 10);
    }
}
