//! The transaction pool: the mempool every Algorand user keeps between
//! gossip and block assembly.
//!
//! "Each user collects a block of pending transactions that they hear
//! about" (§5); this crate is that collection. It admits transactions
//! arriving out of order from gossip, buffers per-sender nonce chains,
//! rejects duplicates and replays, screens signatures (the payment
//! remembers its own verdict, so one gossiped along many paths, taken
//! into a proposal and handed back is checked once), evicts the
//! lowest-priority traffic under byte/count caps, and hands a proposer a
//! balance- and nonce-consistent prefix via [`TxPool::take_block`].
//! Transactions from proposals that lose BA⋆ are fed back with
//! [`TxPool::reinsert`] so they are not lost, and [`TxPool::prune`] drops
//! whatever a newly finalized block made stale.
//!
//! Priority is the transferred amount — a stand-in for a fee market the
//! paper leaves out ("we expect that \[incentives\] can be provided using
//! the cryptocurrency itself", §2). Ties break on the transaction hash so
//! every node evicts identically.

#![forbid(unsafe_code)]

use algorand_ledger::{Accounts, Transaction};
use algorand_obs::{Counter, Registry};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Size and shape limits for a [`TxPool`].
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Total wire bytes of queued transactions before eviction kicks in.
    pub max_bytes: usize,
    /// Total queued transaction count before eviction kicks in.
    pub max_txs: usize,
    /// Longest nonce run buffered per sender (also bounds how far ahead
    /// of the committed nonce a transaction may be).
    pub max_per_sender: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            max_bytes: 4 << 20,
            max_txs: 16_384,
            max_per_sender: 256,
        }
    }
}

/// Why [`TxPool::admit`] refused a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdmitError {
    /// Same transaction hash already queued.
    Duplicate,
    /// Signature does not verify under the claimed sender.
    BadSignature,
    /// Nonce at or below the sender's committed nonce: a replay (the
    /// ledger already consumed this sequence number).
    Replay,
    /// Nonce further ahead of the committed nonce than the pool will
    /// buffer.
    NonceTooFar,
    /// A different transaction already occupies this sender/nonce slot at
    /// equal or higher priority.
    Underpriced,
    /// Sender's amount exceeds its current balance.
    InsufficientBalance,
    /// The pool is full and this transaction lost the eviction contest.
    Evicted,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AdmitError::Duplicate => "duplicate transaction",
            AdmitError::BadSignature => "bad signature",
            AdmitError::Replay => "nonce already committed",
            AdmitError::NonceTooFar => "nonce too far ahead",
            AdmitError::Underpriced => "slot held by higher priority",
            AdmitError::InsufficientBalance => "amount exceeds balance",
            AdmitError::Evicted => "pool full",
        };
        f.write_str(s)
    }
}

impl std::error::Error for AdmitError {}

/// Fleet-wide mempool counters, shared across nodes via a [`Registry`].
/// The default (unregistered) metrics are inert no-ops on plain atomics.
#[derive(Clone, Debug, Default)]
pub struct PoolMetrics {
    /// Transactions accepted into a pool.
    pub admitted: Counter,
    /// Transactions refused by [`TxPool::admit`] (any [`AdmitError`]).
    pub rejected: Counter,
    /// Transactions taken into proposed blocks.
    pub taken: Counter,
}

impl PoolMetrics {
    /// Metrics registered under the standard `txpool.*` names.
    pub fn registered(reg: &Registry) -> PoolMetrics {
        PoolMetrics {
            admitted: reg.counter("txpool.admitted"),
            rejected: reg.counter("txpool.rejected"),
            taken: reg.counter("txpool.taken"),
        }
    }
}

/// A size-bounded mempool of signed payments, ordered per sender by nonce.
#[derive(Clone, Debug, Default)]
pub struct TxPool {
    cfg: PoolConfig,
    /// Per-sender nonce chain. The `BTreeMap` may have gaps; only the
    /// contiguous run starting at the committed nonce is proposable.
    by_sender: HashMap<[u8; 32], BTreeMap<u64, Transaction>>,
    /// Hashes of every queued transaction, for duplicate rejection.
    ids: HashSet<[u8; 32]>,
    /// Shared admit/take counters (inert unless registered).
    metrics: PoolMetrics,
}

impl TxPool {
    /// An empty pool with the given limits.
    pub fn new(cfg: PoolConfig) -> TxPool {
        TxPool {
            cfg,
            by_sender: HashMap::new(),
            ids: HashSet::new(),
            metrics: PoolMetrics::default(),
        }
    }

    /// Attaches shared counters; subsequent admits and takes tick them.
    pub fn set_metrics(&mut self, metrics: PoolMetrics) {
        self.metrics = metrics;
    }

    /// Number of queued transactions (each has exactly one entry in the
    /// duplicate index).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.by_sender.is_empty()
    }

    /// Total wire bytes queued.
    pub fn bytes(&self) -> usize {
        self.len() * Transaction::WIRE_SIZE
    }

    /// True if a transaction with this hash is queued.
    pub fn contains(&self, id: &[u8; 32]) -> bool {
        self.ids.contains(id)
    }

    /// Admits a transaction heard from gossip (or submitted locally).
    ///
    /// `accounts` is the node's current committed state; it anchors the
    /// replay check (nonces at or below the committed nonce are dead) and
    /// the balance screen. Out-of-order nonces within
    /// [`PoolConfig::max_per_sender`] of the committed nonce are buffered
    /// so gossip reordering does not drop traffic.
    ///
    /// # Errors
    ///
    /// Returns the [`AdmitError`] describing the rejection; the pool is
    /// unchanged except possibly for evictions of *other* transactions
    /// when the pool was over capacity.
    pub fn admit(&mut self, tx: Transaction, accounts: &Accounts) -> Result<(), AdmitError> {
        let res = self.admit_inner(tx, accounts);
        match res {
            Ok(()) => self.metrics.admitted.inc(),
            Err(_) => self.metrics.rejected.inc(),
        }
        res
    }

    fn admit_inner(&mut self, tx: Transaction, accounts: &Accounts) -> Result<(), AdmitError> {
        let id = tx.id();
        if self.ids.contains(&id) {
            return Err(AdmitError::Duplicate);
        }
        let committed = accounts.nonce(&tx.from);
        if tx.nonce <= committed {
            return Err(AdmitError::Replay);
        }
        if tx.nonce > committed + self.cfg.max_per_sender as u64 {
            return Err(AdmitError::NonceTooFar);
        }
        if tx.amount > accounts.balance(&tx.from) {
            return Err(AdmitError::InsufficientBalance);
        }
        if !tx.signature_valid() {
            return Err(AdmitError::BadSignature);
        }
        let sender = tx.from.to_bytes();
        let chain = self.by_sender.entry(sender).or_default();
        if let Some(held) = chain.get(&tx.nonce) {
            // Same sender/nonce slot: replace-by-priority, strict.
            if priority_key(held) >= priority_key(&tx) {
                return Err(AdmitError::Underpriced);
            }
            let old = chain.insert(tx.nonce, tx).expect("slot occupied");
            self.ids.remove(&old.id());
            self.ids.insert(id);
            return Ok(());
        }
        chain.insert(tx.nonce, tx);
        self.ids.insert(id);
        self.evict_overflow();
        if self.ids.contains(&id) {
            Ok(())
        } else {
            Err(AdmitError::Evicted)
        }
    }

    /// Evicts chain-tail transactions, lowest priority first, until the
    /// pool fits its byte and count caps.
    ///
    /// Only each sender's highest nonce is a candidate, so surviving
    /// chains stay contiguous and proposable.
    fn evict_overflow(&mut self) {
        while self.bytes() > self.cfg.max_bytes || self.len() > self.cfg.max_txs {
            let victim = self
                .by_sender
                .values()
                .filter_map(|chain| chain.values().next_back())
                .min_by_key(|tx| priority_key(tx))
                .map(|tx| (tx.from.to_bytes(), tx.nonce));
            let Some((sender, nonce)) = victim else { break };
            self.remove(&sender, nonce);
        }
    }

    /// Removes one queued transaction, updating all indexes.
    fn remove(&mut self, sender: &[u8; 32], nonce: u64) -> Option<Transaction> {
        let chain = self.by_sender.get_mut(sender)?;
        let tx = chain.remove(&nonce)?;
        if chain.is_empty() {
            self.by_sender.remove(sender);
        }
        self.ids.remove(&tx.id());
        Some(tx)
    }

    /// Assembles the transaction list for a block proposal.
    ///
    /// Repeatedly takes the highest-priority *ready* transaction — one
    /// whose nonce is exactly the next for its sender under `accounts`
    /// plus whatever this call already took — applies it to a scratch
    /// ledger so balances (including transfers received earlier in the
    /// same block) stay consistent, and stops at `max_bytes` of
    /// transaction wire data. Taken transactions leave the pool; if the
    /// proposal loses, hand them back via [`TxPool::reinsert`].
    pub fn take_block(&mut self, accounts: &Accounts, max_bytes: usize) -> Vec<Transaction> {
        let mut scratch = accounts.clone();
        let mut taken = Vec::new();
        let budget = max_bytes / Transaction::WIRE_SIZE;
        while taken.len() < budget {
            // Best ready head across all senders: one map lookup and one
            // key comparison per sender (ids are remembered, not hashed
            // per candidate). The sender count is modest in our
            // deployments; a linear scan keeps the pool index-free. (A
            // heap of heads would drop this to log n.)
            let best = self
                .by_sender
                .iter()
                .filter_map(|(sender, chain)| {
                    let next = scratch.nonce(&chain.values().next().expect("non-empty").from) + 1;
                    chain.get(&next).map(|tx| (*sender, next, priority_key(tx)))
                })
                .max_by_key(|(_, _, key)| *key);
            let Some((sender, nonce, _)) = best else {
                break;
            };
            let tx = self.remove(&sender, nonce).expect("head exists");
            if scratch.apply(&tx).is_ok() {
                taken.push(tx);
            }
            // On failure (balance ran dry) the transaction is dropped from
            // the pool: with its chain head unspendable the whole chain is
            // stuck, and the sender must re-issue.
        }
        self.metrics.taken.add(taken.len() as u64);
        taken
    }

    /// Returns transactions from a losing or forked proposal to the pool.
    ///
    /// Transactions the chain meanwhile committed (or that conflict with
    /// better-priced queued ones) are silently dropped.
    pub fn reinsert<I: IntoIterator<Item = Transaction>>(&mut self, txs: I, accounts: &Accounts) {
        for tx in txs {
            // Bypasses the admit counters: a reinserted transaction was
            // already counted when first admitted.
            let _ = self.admit_inner(tx, accounts);
        }
    }

    /// Drops every transaction made stale by newly committed state: any
    /// nonce at or below the sender's committed nonce.
    ///
    /// Call after appending a block, finishing catch-up, or switching
    /// forks.
    pub fn prune(&mut self, accounts: &Accounts) {
        let stale: Vec<([u8; 32], u64)> = self
            .by_sender
            .values()
            .flat_map(|chain| {
                let committed = accounts.nonce(&chain.values().next().expect("non-empty").from);
                chain
                    .range(..=committed)
                    .map(|(n, tx)| (tx.from.to_bytes(), *n))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (sender, nonce) in stale {
            self.remove(&sender, nonce);
        }
    }
}

/// Eviction/selection order: higher amount wins, transaction hash breaks
/// ties so all nodes order identically.
fn priority_key(tx: &Transaction) -> (u64, [u8; 32]) {
    (tx.amount, tx.id())
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_crypto::Keypair;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed([seed.max(1); 32])
    }

    fn small_pool() -> TxPool {
        TxPool::new(PoolConfig {
            max_bytes: 4 * Transaction::WIRE_SIZE,
            max_txs: 4,
            max_per_sender: 8,
        })
    }

    #[test]
    fn nonce_gap_buffers_until_filled_out_of_order() {
        let a = kp(1);
        let b = kp(2);
        let accounts = Accounts::genesis([(a.pk, 100)]);
        let mut pool = TxPool::new(PoolConfig::default());
        // Nonces arrive 3, 1, 2 — gossip reordering.
        pool.admit(Transaction::payment(&a, b.pk, 1, 3), &accounts)
            .unwrap();
        assert!(
            pool.take_block(&accounts, 1 << 20).is_empty(),
            "gap blocks proposal"
        );
        pool.admit(Transaction::payment(&a, b.pk, 1, 1), &accounts)
            .unwrap();
        pool.admit(Transaction::payment(&a, b.pk, 1, 2), &accounts)
            .unwrap();
        let block = pool.take_block(&accounts, 1 << 20);
        assert_eq!(
            block.iter().map(|t| t.nonce).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "contiguous run proposed in order"
        );
        assert!(pool.is_empty());
    }

    #[test]
    fn duplicate_hash_rejected() {
        let a = kp(1);
        let accounts = Accounts::genesis([(a.pk, 100)]);
        let mut pool = TxPool::new(PoolConfig::default());
        let tx = Transaction::payment(&a, kp(2).pk, 5, 1);
        pool.admit(tx.clone(), &accounts).unwrap();
        assert_eq!(pool.admit(tx, &accounts), Err(AdmitError::Duplicate));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn committed_nonce_is_replay() {
        let a = kp(1);
        let b = kp(2);
        let mut accounts = Accounts::genesis([(a.pk, 100)]);
        let tx = Transaction::payment(&a, b.pk, 5, 1);
        accounts.apply(&tx).unwrap();
        let mut pool = TxPool::new(PoolConfig::default());
        assert_eq!(pool.admit(tx, &accounts), Err(AdmitError::Replay));
    }

    #[test]
    fn bad_signature_rejected_and_remembered_as_bad() {
        let a = kp(1);
        let accounts = Accounts::genesis([(a.pk, 100)]);
        let mut pool = TxPool::new(PoolConfig::default());
        let signed = Transaction::payment(&kp(3), kp(2).pk, 5, 1);
        // Forged sender: kp(3)'s signature under a's name.
        let tx = Transaction::from_parts(a.pk, signed.to, signed.amount, signed.nonce, signed.sig);
        assert_eq!(
            pool.admit(tx.clone(), &accounts),
            Err(AdmitError::BadSignature)
        );
        assert_eq!(tx.verdict(), Some(false), "never remembered as good");
        assert_eq!(
            pool.admit(tx.clone(), &accounts),
            Err(AdmitError::BadSignature),
            "the remembered refusal refuses again"
        );
        assert!(pool.is_empty());
        // The cheaper screens still come first, as before the memo.
        let mut spent = accounts.clone();
        spent
            .apply(&Transaction::payment(&a, kp(2).pk, 5, 1))
            .unwrap();
        assert_eq!(pool.admit(tx, &spent), Err(AdmitError::Replay));
    }

    #[test]
    fn eviction_at_cap_keeps_highest_priority() {
        let accounts = Accounts::genesis((1..=6u8).map(|i| (kp(i).pk, 100)));
        let mut pool = small_pool();
        // Five senders, amounts 10..50; cap is 4 txs.
        for (i, amount) in (1..=5u8).zip([10u64, 20, 30, 40, 50]) {
            let tx = Transaction::payment(&kp(i), kp(6).pk, amount, 1);
            let res = pool.admit(tx, &accounts);
            if i == 1 || pool.len() < 4 {
                // First four fit; the fifth triggers eviction of amount 10.
                assert!(res.is_ok() || i == 5);
            }
        }
        assert_eq!(pool.len(), 4);
        let block = pool.take_block(&accounts, 1 << 20);
        let mut amounts: Vec<u64> = block.iter().map(|t| t.amount).collect();
        amounts.sort_unstable();
        assert_eq!(amounts, vec![20, 30, 40, 50], "lowest priority evicted");
    }

    #[test]
    fn incoming_lowest_priority_is_the_eviction_victim() {
        let accounts = Accounts::genesis((1..=6u8).map(|i| (kp(i).pk, 100)));
        let mut pool = small_pool();
        for (i, amount) in (1..=4u8).zip([20u64, 30, 40, 50]) {
            pool.admit(Transaction::payment(&kp(i), kp(6).pk, amount, 1), &accounts)
                .unwrap();
        }
        let cheap = Transaction::payment(&kp(5), kp(6).pk, 5, 1);
        assert_eq!(pool.admit(cheap, &accounts), Err(AdmitError::Evicted));
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn eviction_takes_chain_tails_first() {
        let a = kp(1);
        let b = kp(2);
        let accounts = Accounts::genesis([(a.pk, 100), (b.pk, 100)]);
        let mut pool = small_pool();
        // Sender a queues a 4-long cheap chain, then b adds a pricey tx.
        for n in 1..=4u64 {
            pool.admit(Transaction::payment(&a, b.pk, 1, n), &accounts)
                .unwrap();
        }
        pool.admit(Transaction::payment(&b, a.pk, 99, 1), &accounts)
            .unwrap();
        // a's tail (nonce 4) was evicted; the head of the chain survives,
        // so the remaining run is still contiguous and proposable.
        let block = pool.take_block(&accounts, 1 << 20);
        assert_eq!(block.len(), 4);
        let a_nonces: Vec<u64> = block
            .iter()
            .filter(|t| t.from == a.pk)
            .map(|t| t.nonce)
            .collect();
        assert_eq!(a_nonces, vec![1, 2, 3]);
    }

    #[test]
    fn take_block_respects_byte_budget_and_priority() {
        let accounts = Accounts::genesis((1..=5u8).map(|i| (kp(i).pk, 100)));
        let mut pool = TxPool::new(PoolConfig::default());
        for (i, amount) in (1..=4u8).zip([10u64, 40, 20, 30]) {
            pool.admit(Transaction::payment(&kp(i), kp(5).pk, amount, 1), &accounts)
                .unwrap();
        }
        let block = pool.take_block(&accounts, 2 * Transaction::WIRE_SIZE);
        let amounts: Vec<u64> = block.iter().map(|t| t.amount).collect();
        assert_eq!(amounts, vec![40, 30], "two best fit the budget");
        assert_eq!(pool.len(), 2, "rest stays queued");
    }

    #[test]
    fn take_block_respects_balances_within_the_block() {
        let a = kp(1);
        let b = kp(2);
        // b starts broke; a's payment inside the block funds b's payment.
        let accounts = Accounts::genesis([(a.pk, 50)]);
        let mut pool = TxPool::new(PoolConfig::default());
        pool.admit(Transaction::payment(&a, b.pk, 50, 1), &accounts)
            .unwrap();
        // b's spend of the incoming 50 is admitted only once funded, so
        // craft it directly into the pool path via reinsert after funding:
        let spend = Transaction::payment(&b, a.pk, 30, 1);
        assert_eq!(
            pool.admit(spend.clone(), &accounts),
            Err(AdmitError::InsufficientBalance)
        );
        let mut funded = accounts.clone();
        funded
            .apply(&Transaction::payment(&a, b.pk, 50, 1))
            .unwrap();
        // Once the ledger shows the funding, the spend is admissible.
        let mut pool2 = TxPool::new(PoolConfig::default());
        pool2.admit(spend, &funded).unwrap();
        assert_eq!(pool2.take_block(&funded, 1 << 20).len(), 1);
        // And the original pool proposes just the funding payment.
        assert_eq!(pool.take_block(&accounts, 1 << 20).len(), 1);
    }

    #[test]
    fn overdraft_chain_head_is_dropped_not_looped() {
        let a = kp(1);
        let b = kp(2);
        let accounts = Accounts::genesis([(a.pk, 10)]);
        let mut pool = TxPool::new(PoolConfig::default());
        pool.admit(Transaction::payment(&a, b.pk, 7, 1), &accounts)
            .unwrap();
        pool.admit(Transaction::payment(&a, b.pk, 7, 2), &accounts)
            .unwrap();
        let block = pool.take_block(&accounts, 1 << 20);
        assert_eq!(block.len(), 1, "second 7 overdraws after the first");
        assert!(pool.is_empty(), "unspendable head dropped");
    }

    #[test]
    fn reinsert_after_losing_proposal_restores_pool() {
        let a = kp(1);
        let b = kp(2);
        let accounts = Accounts::genesis([(a.pk, 100)]);
        let mut pool = TxPool::new(PoolConfig::default());
        for n in 1..=3u64 {
            pool.admit(Transaction::payment(&a, b.pk, 1, n), &accounts)
                .unwrap();
        }
        let proposed = pool.take_block(&accounts, 1 << 20);
        assert_eq!(proposed.len(), 3);
        assert!(pool.is_empty());
        // The proposal loses; everything comes back and re-proposes.
        pool.reinsert(proposed.clone(), &accounts);
        assert_eq!(pool.len(), 3);
        let again = pool.take_block(&accounts, 1 << 20);
        assert_eq!(
            again.iter().map(Transaction::id).collect::<Vec<_>>(),
            proposed.iter().map(Transaction::id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reinsert_after_partial_commit_keeps_only_live_txs() {
        let a = kp(1);
        let b = kp(2);
        let accounts = Accounts::genesis([(a.pk, 100)]);
        let mut pool = TxPool::new(PoolConfig::default());
        for n in 1..=3u64 {
            pool.admit(Transaction::payment(&a, b.pk, 1, n), &accounts)
                .unwrap();
        }
        let proposed = pool.take_block(&accounts, 1 << 20);
        // A competing winning block committed nonce 1 meanwhile.
        let mut after = accounts.clone();
        after.apply(&proposed[0]).unwrap();
        pool.reinsert(proposed, &after);
        assert_eq!(pool.len(), 2, "committed nonce 1 dropped as replay");
        let nonces: Vec<u64> = pool
            .take_block(&after, 1 << 20)
            .iter()
            .map(|t| t.nonce)
            .collect();
        assert_eq!(nonces, vec![2, 3]);
    }

    #[test]
    fn prune_drops_committed_prefix() {
        let a = kp(1);
        let b = kp(2);
        let accounts = Accounts::genesis([(a.pk, 100)]);
        let mut pool = TxPool::new(PoolConfig::default());
        let txs: Vec<Transaction> = (1..=3u64)
            .map(|n| Transaction::payment(&a, b.pk, 1, n))
            .collect();
        for tx in &txs {
            pool.admit(tx.clone(), &accounts).unwrap();
        }
        let mut after = accounts.clone();
        after.apply(&txs[0]).unwrap();
        after.apply(&txs[1]).unwrap();
        pool.prune(&after);
        assert_eq!(pool.len(), 1);
        assert!(pool.contains(&txs[2].id()));
        assert_eq!(pool.bytes(), Transaction::WIRE_SIZE);
    }

    #[test]
    fn replace_by_priority_is_strict() {
        let a = kp(1);
        let b = kp(2);
        let accounts = Accounts::genesis([(a.pk, 100)]);
        let mut pool = TxPool::new(PoolConfig::default());
        let cheap = Transaction::payment(&a, b.pk, 5, 1);
        let rich = Transaction::payment(&a, b.pk, 9, 1);
        pool.admit(cheap.clone(), &accounts).unwrap();
        assert_eq!(
            pool.admit(cheap.clone(), &accounts),
            Err(AdmitError::Duplicate)
        );
        pool.admit(rich.clone(), &accounts).unwrap();
        assert!(!pool.contains(&cheap.id()), "replaced");
        assert!(pool.contains(&rich.id()));
        assert_eq!(pool.len(), 1);
        assert_eq!(
            pool.admit(cheap, &accounts),
            Err(AdmitError::Underpriced),
            "cannot replace downward"
        );
    }

    #[test]
    fn nonce_too_far_ahead_rejected() {
        let a = kp(1);
        let accounts = Accounts::genesis([(a.pk, 100)]);
        let mut pool = small_pool(); // max_per_sender: 8
        assert_eq!(
            pool.admit(Transaction::payment(&a, kp(2).pk, 1, 9), &accounts),
            Err(AdmitError::NonceTooFar)
        );
        pool.admit(Transaction::payment(&a, kp(2).pk, 1, 8), &accounts)
            .unwrap();
    }

    #[test]
    fn verdict_outlives_removal_from_the_pool() {
        let a = kp(1);
        let b = kp(2);
        let accounts = Accounts::genesis([(a.pk, 100)]);
        let mut pool = TxPool::new(PoolConfig::default());
        let tx = Transaction::payment(&a, b.pk, 1, 1);
        assert_eq!(tx.verdict(), None);
        pool.admit(tx.clone(), &accounts).unwrap();
        let taken = pool.take_block(&accounts, 1 << 20);
        assert!(taken[0].same_body(&tx), "the pool hands back what it took");
        assert_eq!(
            taken[0].verdict(),
            Some(true),
            "verification outlives removal"
        );
        pool.reinsert(taken, &accounts);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn byte_accounting_is_exact() {
        let accounts = Accounts::genesis((1..=4u8).map(|i| (kp(i).pk, 100)));
        let mut pool = TxPool::new(PoolConfig::default());
        for i in 1..=3u8 {
            pool.admit(Transaction::payment(&kp(i), kp(4).pk, 1, 1), &accounts)
                .unwrap();
        }
        assert_eq!(pool.bytes(), 3 * Transaction::WIRE_SIZE);
        pool.take_block(&accounts, Transaction::WIRE_SIZE);
        assert_eq!(pool.bytes(), 2 * Transaction::WIRE_SIZE);
        pool.prune(&accounts);
        assert_eq!(
            pool.bytes(),
            2 * Transaction::WIRE_SIZE,
            "nothing committed yet"
        );
    }
}
