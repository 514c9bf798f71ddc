//! Stage 2 of the staged message pipeline: stateless verification.
//!
//! Everything consensus consumes passes through here exactly once. The
//! stage produces type-state wrappers — [`VerifiedPriority`],
//! [`VerifiedBlock`], [`VerifiedForkProposal`] (and, via the `ba` crate,
//! `VerifiedVote`) — whose constructors are private to this module, so
//! round transitions and the BA⋆ tallies cannot be fed unverified data
//! by construction.
//!
//! The [`PipelineVerifier`] additionally memoizes results process-wide,
//! keyed by `(message id, selection seed)`:
//!
//! * the id commits to every serialized byte of the message (including
//!   signatures and proofs), so a hit is exactly as strong as
//!   re-verifying;
//! * the seed pins the verification context. Sortition verification
//!   depends only on `(message, seed, weights, τ)`; the weight snapshot
//!   and τ are deterministic functions of the same chain prefix the
//!   seed commits to, so binding the seed binds the whole context. A
//!   lookup under any other seed (a diverged fork, a recovery epoch)
//!   simply misses and re-verifies — a wrong-context warm can waste
//!   work but never change a result.
//!
//! In the simulator, where N nodes observe the same gossiped message,
//! this turns N identical signature + VRF verifications into one.

use crate::proposal::{BlockMessage, Priority, PriorityMessage};
use crate::recovery::ForkProposalMessage;
use algorand_ba::{
    verify_vote_message, CachedVerifier, RoundWeights, VerdictCache, VerifiedVote, VoteContext,
    VoteMessage, VoteVerifier,
};
use algorand_ledger::Block;

/// A priority message that passed signature + proposer-sortition
/// verification. The only constructor is
/// [`PipelineVerifier::verify_priority`].
#[derive(Clone, Debug)]
pub struct VerifiedPriority {
    round: u64,
    sender: [u8; 32],
    block_hash: [u8; 32],
    priority: Priority,
}

impl VerifiedPriority {
    /// The proposal round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The proposer's key bytes.
    pub fn sender(&self) -> [u8; 32] {
        self.sender
    }

    /// The advertised block hash.
    pub fn block_hash(&self) -> [u8; 32] {
        self.block_hash
    }

    /// The verified proposal priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }
}

/// A block message whose proposer-sortition attachment verified. Block
/// *content* validation (transactions, seed, timestamps) is a separate,
/// stateful concern handled at BA⋆ entry. The only constructor is
/// [`PipelineVerifier::verify_block`].
#[derive(Clone, Debug)]
pub struct VerifiedBlock {
    round: u64,
    proposer: [u8; 32],
    hash: [u8; 32],
    priority: Priority,
}

impl VerifiedBlock {
    /// The proposal round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The proposer's key bytes.
    pub fn proposer(&self) -> [u8; 32] {
        self.proposer
    }

    /// The block hash.
    pub fn hash(&self) -> [u8; 32] {
        self.hash
    }

    /// The verified proposal priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }
}

/// A fork proposal (§8.2) that passed signature + fork-proposer
/// sortition verification. The only constructor is
/// [`PipelineVerifier::verify_fork_proposal`].
#[derive(Clone, Debug)]
pub struct VerifiedForkProposal {
    epoch: u64,
    attempt: u32,
    priority: Priority,
    block: Block,
}

impl VerifiedForkProposal {
    /// The recovery epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The retry attempt within the epoch.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The verified fork-proposer priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The proposed empty block.
    pub fn block(&self) -> &Block {
        &self.block
    }
}

/// The process-wide verification stage shared by every node, from
/// whichever of the simulator's worker threads is running it.
///
/// Votes are cached in the wrapped [`CachedVerifier`]; proposal-shaped
/// messages (priorities, blocks, fork proposals) share a second
/// [`VerdictCache`] — their ids are domain-separated at construction, so
/// kinds cannot collide.
#[derive(Default)]
pub struct PipelineVerifier {
    votes: CachedVerifier,
    proposals: VerdictCache<Priority>,
}

impl PipelineVerifier {
    /// Creates an empty verifier/cache.
    pub fn new() -> PipelineVerifier {
        PipelineVerifier::default()
    }

    /// Verifies a vote against `ctx`, producing the type-state wrapper
    /// the BA⋆ engine accepts. Cached.
    pub fn verify_vote(
        &self,
        msg: &VoteMessage,
        ctx: &VoteContext,
        weights: &RoundWeights,
    ) -> Option<VerifiedVote> {
        verify_vote_message(&self.votes, msg, ctx, weights)
    }

    /// Verifies a priority message (§6). Cached.
    pub fn verify_priority(
        &self,
        msg: &PriorityMessage,
        seed: &[u8; 32],
        weights: &RoundWeights,
        tau_proposer: f64,
    ) -> Option<VerifiedPriority> {
        let priority = self.proposals.get_or_verify(msg.message_id(), seed, || {
            msg.verify(seed, weights, tau_proposer)
        })?;
        Some(VerifiedPriority {
            round: msg.round,
            sender: msg.sender.to_bytes(),
            block_hash: msg.block_hash,
            priority,
        })
    }

    /// Verifies a block message's proposer-sortition attachment (§6).
    /// Cached.
    pub fn verify_block(
        &self,
        msg: &BlockMessage,
        seed: &[u8; 32],
        weights: &RoundWeights,
        tau_proposer: f64,
    ) -> Option<VerifiedBlock> {
        self.verify_block_hashed(msg, msg.block.hash(), seed, weights, tau_proposer)
    }

    /// [`PipelineVerifier::verify_block`] for the ingest path, which has
    /// already hashed the block it is handing over.
    pub(crate) fn verify_block_hashed(
        &self,
        msg: &BlockMessage,
        hash: [u8; 32],
        seed: &[u8; 32],
        weights: &RoundWeights,
        tau_proposer: f64,
    ) -> Option<VerifiedBlock> {
        let proposer = msg.block.proposer.as_ref()?.to_bytes();
        let id = msg.message_id_for(&hash);
        let priority = self
            .proposals
            .get_or_verify(id, seed, || msg.verify(seed, weights, tau_proposer))?;
        Some(VerifiedBlock {
            round: msg.block.round,
            proposer,
            hash,
            priority,
        })
    }

    /// Verifies a fork proposal against a recovery context (§8.2).
    /// Cached — recovery seeds are epoch/attempt-specific, so entries
    /// never alias across attempts.
    pub fn verify_fork_proposal(
        &self,
        msg: &ForkProposalMessage,
        seed: &[u8; 32],
        weights: &RoundWeights,
        tau_proposer: f64,
    ) -> Option<VerifiedForkProposal> {
        let priority = self.proposals.get_or_verify(msg.message_id(), seed, || {
            msg.verify(seed, weights, tau_proposer)
        })?;
        Some(VerifiedForkProposal {
            epoch: msg.epoch,
            attempt: msg.attempt,
            priority,
            block: msg.block.clone(),
        })
    }

    /// Vote verdicts held: distinct vote verifications performed (a
    /// CPU-cost proxy) until the bounded cache first rotates.
    pub fn unique_vote_verifications(&self) -> usize {
        self.votes.cache().entries()
    }

    /// Proposal/block/fork-proposal verdicts held, likewise.
    pub fn unique_proposal_verifications(&self) -> usize {
        self.proposals.entries()
    }

    /// Cache hits across both caches.
    pub fn cache_hits(&self) -> u64 {
        self.votes.cache().hits() + self.proposals.hits()
    }

    /// Cache misses (full verifications) across both caches.
    pub fn cache_misses(&self) -> u64 {
        self.votes.cache().misses() + self.proposals.misses()
    }
}

impl VoteVerifier for PipelineVerifier {
    fn verify_vote(
        &self,
        msg: &VoteMessage,
        ctx: &VoteContext,
        weights: &RoundWeights,
    ) -> Option<u64> {
        self.votes.verify_vote(msg, ctx, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proposal::proposer_sortition;
    use algorand_crypto::Keypair;

    fn setup() -> (Keypair, RoundWeights, [u8; 32]) {
        let kp = Keypair::from_seed([3u8; 32]);
        let weights = RoundWeights::from_pairs([(kp.pk, 100u64)]);
        (kp, weights, [6u8; 32])
    }

    #[test]
    fn priority_verification_is_cached_and_seed_scoped() {
        let (kp, weights, seed) = setup();
        let (out, proof, priority) =
            proposer_sortition(&kp, &seed, 1, &weights, 100.0).expect("τ = W selects");
        let msg = PriorityMessage::sign(&kp, 1, out, proof, [7u8; 32]);
        let v = PipelineVerifier::new();
        let vp = v
            .verify_priority(&msg, &seed, &weights, 100.0)
            .expect("valid");
        assert_eq!(vp.priority(), priority);
        assert_eq!(vp.block_hash(), [7u8; 32]);
        assert_eq!((v.cache_hits(), v.cache_misses()), (0, 1));
        // Second verification hits the cache.
        v.verify_priority(&msg, &seed, &weights, 100.0)
            .expect("still valid");
        assert_eq!((v.cache_hits(), v.cache_misses()), (1, 1));
        // A different seed is a different context: miss, and the message
        // fails to verify there (cached as invalid independently).
        for _ in 0..2 {
            assert!(v
                .verify_priority(&msg, &[9u8; 32], &weights, 100.0)
                .is_none());
        }
        assert_eq!((v.cache_hits(), v.cache_misses()), (2, 2));
        assert_eq!(v.unique_proposal_verifications(), 2);
        let again = v.verify_priority(&msg, &seed, &weights, 100.0);
        assert_eq!(again.map(|vp| vp.priority()), Some(priority));
    }
}
