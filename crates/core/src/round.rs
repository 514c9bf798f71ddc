//! Stage 3 of the staged message pipeline: per-round consensus state.
//!
//! [`RoundContext`] is the working state of the round being agreed on —
//! selection seed, weight snapshot, best proposal, equivocation
//! bookkeeping, and the pre-BA⋆ vote buffer. Its observation methods
//! accept only the `Verified*` wrappers from [`crate::verify`], so the
//! type system guarantees nothing unverified influences a round
//! transition.
//!
//! [`BlockStore`] (block bodies by hash) and [`FutureVotes`] (votes for
//! rounds we have not reached) are the cross-round buffers that used to
//! live loose inside the node.

use crate::proposal::Priority;
use crate::verify::{VerifiedBlock, VerifiedPriority};
use algorand_ba::{Micros, RoundWeights, VoteMessage};
use algorand_ledger::{Block, Blockchain, Transaction};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Per-round working state. Mutation of proposal bookkeeping goes
/// through [`RoundContext::observe_priority`] /
/// [`RoundContext::observe_block`], which require verified inputs.
pub struct RoundContext {
    round: u64,
    seed: [u8; 32],
    weights: Arc<RoundWeights>,
    prev_hash: [u8; 32],
    empty_block: Block,
    empty_hash: [u8; 32],
    /// Best (priority, proposer, block hash) seen so far.
    best: Option<(Priority, [u8; 32], [u8; 32])>,
    /// Proposers caught sending conflicting blocks this round (§10.4's
    /// client-side optimization: discard both versions).
    equivocators: HashSet<[u8; 32]>,
    /// First block hash seen from each proposer.
    proposer_blocks: HashMap<[u8; 32], [u8; 32]>,
    /// Votes received before BA⋆ started.
    vote_buffer: Vec<VoteMessage>,
    started: Micros,
    ba_started: Option<Micros>,
}

/// What [`RoundContext::note_block`] concluded about a block sighting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockSighting {
    /// First block from this proposer: verification is warranted.
    New,
    /// Same block seen again from this proposer: nothing to do.
    Known,
    /// Conflicts with this proposer's earlier block: both discarded.
    Equivocation,
}

impl RoundContext {
    /// Captures the chain-derived context for the next round.
    pub fn new(chain: &Blockchain, now: Micros) -> RoundContext {
        let round = chain.next_round();
        let prev_hash = chain.tip_hash();
        let empty_block = Block::empty(round, prev_hash, &chain.tip().seed);
        let empty_hash = empty_block.hash();
        RoundContext {
            round,
            seed: chain.selection_seed(round),
            weights: Arc::new(chain.weights_for_round(round)),
            prev_hash,
            empty_block,
            empty_hash,
            best: None,
            equivocators: HashSet::new(),
            proposer_blocks: HashMap::new(),
            vote_buffer: Vec::new(),
            started: now,
            ba_started: None,
        }
    }

    /// The round being agreed on.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The sortition seed for this round.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// The weight snapshot for this round.
    pub fn weights(&self) -> &Arc<RoundWeights> {
        &self.weights
    }

    /// Hash of the previous block.
    pub fn prev_hash(&self) -> [u8; 32] {
        self.prev_hash
    }

    /// This round's fallback empty block.
    pub fn empty_block(&self) -> &Block {
        &self.empty_block
    }

    /// Hash of the fallback empty block.
    pub fn empty_hash(&self) -> [u8; 32] {
        self.empty_hash
    }

    /// When the round started.
    pub fn started(&self) -> Micros {
        self.started
    }

    /// When BA⋆ started, if it has.
    pub fn ba_started(&self) -> Option<Micros> {
        self.ba_started
    }

    /// Records the BA⋆ start time.
    pub fn set_ba_started(&mut self, now: Micros) {
        self.ba_started = Some(now);
    }

    /// Folds a verified priority message into the proposal race:
    /// equivocation bookkeeping, then an unconditional best-priority
    /// update (§6). Callers gate on the proposal-collection phase.
    pub fn observe_priority(&mut self, vp: &VerifiedPriority) {
        debug_assert_eq!(vp.round(), self.round);
        if self.note_block(vp.sender(), vp.block_hash()) == BlockSighting::New {
            self.proposer_blocks.insert(vp.sender(), vp.block_hash());
        }
        self.offer(vp.priority(), vp.sender(), vp.block_hash());
    }

    /// Classifies a sighting of `hash` as `proposer`'s block *before*
    /// verification: two different hashes from one proposer are an
    /// equivocation (recorded), and repeats are settled on hashes alone,
    /// so only a proposer's first block ever reaches the verify stage.
    pub fn note_block(&mut self, proposer: [u8; 32], hash: [u8; 32]) -> BlockSighting {
        match self.proposer_blocks.get(&proposer) {
            Some(prev) if *prev != hash => {
                self.equivocators.insert(proposer);
                BlockSighting::Equivocation
            }
            Some(_) => BlockSighting::Known,
            None => BlockSighting::New,
        }
    }

    /// Folds a verified block into the proposal race. The block also
    /// carries its proposer's priority, covering the case where the
    /// separate priority message was lost; `update_best` is true only
    /// during the proposal-collection phase.
    pub fn observe_block(&mut self, vb: &VerifiedBlock, update_best: bool) {
        debug_assert_eq!(vb.round(), self.round);
        self.proposer_blocks.insert(vb.proposer(), vb.hash());
        if update_best {
            self.offer(vb.priority(), vb.proposer(), vb.hash());
        }
    }

    /// §6: the highest priority seen so far wins.
    fn offer(&mut self, priority: Priority, proposer: [u8; 32], hash: [u8; 32]) {
        if self
            .best
            .as_ref()
            .is_none_or(|(best, _, _)| priority > *best)
        {
            self.best = Some((priority, proposer, hash));
        }
    }

    /// The best proposal's block hash, unless its proposer equivocated
    /// (then the round falls back to the empty block).
    pub fn best_candidate(&self) -> Option<[u8; 32]> {
        match &self.best {
            Some((_, proposer, block_hash)) if !self.equivocators.contains(proposer) => {
                Some(*block_hash)
            }
            _ => None,
        }
    }

    /// Whether a block with this hash is worth relaying (§6): only the
    /// highest-priority proposal propagates.
    pub fn relay_worthy(&self, hash: [u8; 32]) -> bool {
        match &self.best {
            Some((_, _, best_hash)) => *best_hash == hash,
            None => true,
        }
    }

    /// Holds a current-round vote until BA⋆ starts.
    pub fn buffer_vote(&mut self, v: &VoteMessage) {
        self.vote_buffer.push(v.clone());
    }

    /// Pre-loads the buffer (votes that arrived while this round was
    /// still in the future).
    pub fn seed_vote_buffer(&mut self, votes: Vec<VoteMessage>) {
        self.vote_buffer = votes;
    }

    /// Drains the pre-BA⋆ vote buffer for replay.
    pub fn take_vote_buffer(&mut self) -> Vec<VoteMessage> {
        std::mem::take(&mut self.vote_buffer)
    }
}

/// All block bodies seen, by hash — proposal pre-images that a BA⋆
/// decision (or a late-deciding peer's pull) may still need.
#[derive(Default)]
pub struct BlockStore {
    blocks: HashMap<[u8; 32], Block>,
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> BlockStore {
        BlockStore::default()
    }

    /// Stores a block body under its (precomputed) hash.
    pub fn insert(&mut self, hash: [u8; 32], block: Block) {
        self.blocks.insert(hash, block);
    }

    /// Whether the pre-image of `hash` is available.
    pub fn contains(&self, hash: &[u8; 32]) -> bool {
        self.blocks.contains_key(hash)
    }

    /// The block body for `hash`, if stored.
    pub fn get(&self, hash: &[u8; 32]) -> Option<&Block> {
        self.blocks.get(hash)
    }

    /// Transactions of round `completed`'s *losing* proposals, for
    /// reinsertion into the mempool (the replay check against updated
    /// accounts later drops whatever the winner committed).
    pub fn salvage_losing_txs(&self, completed: u64, decided: [u8; 32]) -> Vec<Transaction> {
        self.blocks
            .iter()
            .filter(|(hash, b)| b.round == completed && **hash != decided)
            .flat_map(|(_, b)| b.txs.iter().cloned())
            .collect()
    }

    /// Drops bodies from rounds at or before `completed`; they can no
    /// longer be decided on.
    pub fn prune_through(&mut self, completed: u64) {
        self.blocks.retain(|_, b| b.round > completed);
    }
}

/// Votes for rounds this node has not reached yet, replayed into the
/// round's vote buffer when the round starts.
///
/// Bounded: a malicious flood of far-future votes must not grow memory
/// without limit, so each round holds at most
/// [`FutureVotes::MAX_PER_ROUND`] votes and the whole buffer at most
/// [`FutureVotes::MAX_TOTAL`]. When the total cap is hit, the
/// oldest-buffered (lowest-numbered) round is evicted wholesale — those
/// votes have waited longest and, if their round is real, the committee
/// will still be re-heard live once the node gets there.
#[derive(Default)]
pub struct FutureVotes {
    by_round: HashMap<u64, Vec<VoteMessage>>,
    total: usize,
}

impl FutureVotes {
    /// Cap on buffered votes for any single future round (a scaled
    /// committee is ≤ ~300 sub-users; 512 leaves slack for per-step
    /// committees across the round).
    pub const MAX_PER_ROUND: usize = 512;
    /// Cap on buffered votes across all future rounds.
    pub const MAX_TOTAL: usize = 1536;

    /// Creates an empty buffer.
    pub fn new() -> FutureVotes {
        FutureVotes::default()
    }

    /// Buffers a vote for a future round. Returns `false` when the vote
    /// was dropped by the per-round cap (the total cap instead evicts
    /// the oldest buffered round to make room).
    pub fn push(&mut self, v: &VoteMessage) -> bool {
        let bucket = self.by_round.entry(v.round).or_default();
        if bucket.len() >= Self::MAX_PER_ROUND {
            return false;
        }
        bucket.push(v.clone());
        self.total += 1;
        while self.total > Self::MAX_TOTAL {
            let oldest = *self
                .by_round
                .keys()
                .min()
                .expect("total > 0 implies a round exists");
            let evicted = self.by_round.remove(&oldest).expect("key just found");
            self.total -= evicted.len();
        }
        true
    }

    /// Removes and returns the votes buffered for `round`.
    pub fn take(&mut self, round: u64) -> Option<Vec<VoteMessage>> {
        let votes = self.by_round.remove(&round)?;
        self.total -= votes.len();
        Some(votes)
    }

    /// Total buffered votes across all rounds.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_ba::StepKind;
    use algorand_crypto::{vrf, Keypair};

    fn vote(round: u64) -> VoteMessage {
        let kp = Keypair::from_seed([7u8; 32]);
        let (sorthash, proof) = vrf::prove(&kp, b"future-votes-test");
        VoteMessage::sign(
            &kp,
            round,
            StepKind::Main(1),
            sorthash,
            proof,
            [0u8; 32],
            [0u8; 32],
        )
    }

    #[test]
    fn per_round_cap_drops_overflow() {
        let mut fv = FutureVotes::new();
        let v = vote(5);
        for _ in 0..FutureVotes::MAX_PER_ROUND {
            assert!(fv.push(&v));
        }
        assert_eq!(fv.len(), FutureVotes::MAX_PER_ROUND);
        assert!(!fv.push(&v), "vote beyond the per-round cap must drop");
        assert_eq!(fv.len(), FutureVotes::MAX_PER_ROUND);
        assert_eq!(
            fv.take(5).map(|v| v.len()),
            Some(FutureVotes::MAX_PER_ROUND)
        );
        assert!(fv.is_empty());
    }

    #[test]
    fn total_cap_evicts_oldest_round() {
        let mut fv = FutureVotes::new();
        for round in [10u64, 11, 12] {
            let v = vote(round);
            for _ in 0..FutureVotes::MAX_PER_ROUND {
                assert!(fv.push(&v));
            }
        }
        assert_eq!(fv.len(), FutureVotes::MAX_TOTAL);
        // One more vote overflows the total cap: the oldest round goes.
        assert!(fv.push(&vote(13)));
        assert!(fv.take(10).is_none(), "oldest round should be evicted");
        assert_eq!(
            fv.len(),
            FutureVotes::MAX_TOTAL - FutureVotes::MAX_PER_ROUND + 1
        );
        assert_eq!(fv.take(13).map(|v| v.len()), Some(1));
    }

    #[test]
    fn take_accounts_for_removed_votes() {
        let mut fv = FutureVotes::new();
        for _ in 0..3 {
            fv.push(&vote(2));
        }
        fv.push(&vote(4));
        assert_eq!(fv.len(), 4);
        assert_eq!(fv.take(2).map(|v| v.len()), Some(3));
        assert_eq!(fv.len(), 1);
        assert!(fv.take(2).is_none());
    }
}
