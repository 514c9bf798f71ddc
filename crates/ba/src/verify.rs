//! Vote verification (ProcessMsg, Algorithm 6) and the shared cache.
//!
//! Verifying a vote costs one signature check plus one VRF verification
//! (four scalar multiplications). Real nodes verify each distinct message
//! once and relay it (§8.4); the simulator mirrors that with a process-wide
//! cache keyed by `(message id, selection seed)`, so simulating N observers
//! of the same vote costs one verification, not N.
//!
//! This module is the vote half of the staged pipeline's verification
//! stage: the only way to obtain a [`VerifiedVote`] — the sole input type
//! the tally and engine accept — is [`verify_vote_message`].

#[cfg(test)]
use crate::msg::StepKind;
use crate::msg::VoteMessage;
use crate::weights::RoundWeights;
use algorand_sortition::{Role, SortitionParams};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A vote that has passed the stateless verification stage: signature,
/// VRF sortition proof, and committee selection, all checked against a
/// [`VoteContext`].
///
/// This is the *only* input [`crate::tally::StepTally`] and the
/// tally-feeding paths of [`crate::engine::BaStar`] accept. The fields
/// and the constructor are private to this module, so no code outside
/// the verification stage can manufacture one — unverified votes cannot
/// reach consensus by construction.
#[derive(Clone, Debug)]
pub struct VerifiedVote {
    msg: VoteMessage,
    votes: u64,
}

impl VerifiedVote {
    /// The underlying wire message.
    pub fn message(&self) -> &VoteMessage {
        &self.msg
    }

    /// The number of selected sub-users this vote carries.
    pub fn votes(&self) -> u64 {
        self.votes
    }

    /// Test-only escape hatch for unit tests of downstream stages; does
    /// not exist in production builds.
    #[cfg(test)]
    pub(crate) fn for_test(msg: VoteMessage, votes: u64) -> VerifiedVote {
        VerifiedVote { msg, votes }
    }
}

/// Runs `msg` through the verification stage. This free function is the
/// single constructor of [`VerifiedVote`].
pub fn verify_vote_message(
    verifier: &dyn VoteVerifier,
    msg: &VoteMessage,
    ctx: &VoteContext,
    weights: &RoundWeights,
) -> Option<VerifiedVote> {
    let votes = verifier.verify_vote(msg, ctx, weights)?;
    Some(VerifiedVote {
        msg: msg.clone(),
        votes,
    })
}

/// The context a vote is verified against.
#[derive(Clone, Debug)]
pub struct VoteContext {
    /// The round being agreed on.
    pub round: u64,
    /// The sortition selection seed for this round.
    pub seed: [u8; 32],
    /// Expected committee size for the vote's step.
    pub tau: f64,
}

/// Verifies votes' cryptographic validity: signature plus sortition.
///
/// Implementations return `Some(votes)` — the number of selected sub-users
/// — when the message is a valid committee vote, and `None` when the
/// signature or sortition proof is invalid *or* the user simply was not
/// selected. Chain-context checks (`prev_hash` matching, Algorithm 6's
/// `hprev` comparison) are cheap and fork-dependent, so the BA⋆ engine
/// performs them separately.
pub trait VoteVerifier: Send + Sync {
    /// Verifies `msg` in `ctx` against `weights`.
    fn verify_vote(
        &self,
        msg: &VoteMessage,
        ctx: &VoteContext,
        weights: &RoundWeights,
    ) -> Option<u64>;
}

/// Performs full cryptographic verification on every call.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealVerifier;

impl VoteVerifier for RealVerifier {
    fn verify_vote(
        &self,
        msg: &VoteMessage,
        ctx: &VoteContext,
        weights: &RoundWeights,
    ) -> Option<u64> {
        if msg.round != ctx.round || !msg.signature_valid() {
            return None;
        }
        let role = Role::Committee {
            round: msg.round,
            step: msg.step.code(),
        };
        let params = SortitionParams {
            tau: ctx.tau,
            total_weight: weights.total(),
        };
        let weight = weights.weight_of(&msg.sender);
        if weight == 0 {
            return None;
        }
        // One VRF verification recovers the certified output; the sorthash
        // in the message must equal it, otherwise the common coin could be
        // biased by lying about the hash.
        let certified =
            algorand_sortition::verified_output(&msg.sender, &msg.sort_proof, &ctx.seed, role)
                .ok()?;
        if certified != msg.sorthash {
            return None;
        }
        let votes = algorand_sortition::sub_users_selected(&certified, weight, params.p());
        (votes > 0).then_some(votes)
    }
}

/// A process-wide verification cache wrapping [`RealVerifier`].
///
/// Keyed by `(message_id, seed)`. The id commits to every field
/// including the signature, so a cache hit is exactly as strong as
/// re-verifying, and the vote's body remembers it, so a lookup hashes
/// nothing; folding the selection seed into the key makes the
/// entry self-describing about its verification context, so a lookup
/// under a different seed (a diverged fork, a recovery sub-protocol
/// epoch, or an over-eager prefetch) misses instead of returning a
/// result computed for the wrong context.
#[derive(Default)]
pub struct CachedVerifier {
    inner: RealVerifier,
    cache: Mutex<HashMap<VerdictKey, Option<u64>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A cache key: `(message_id, selection_seed)`.
type VerdictKey = ([u8; 32], [u8; 32]);

impl CachedVerifier {
    /// Creates an empty cache.
    pub fn new() -> CachedVerifier {
        CachedVerifier::default()
    }

    /// Number of distinct messages verified so far (for cost accounting).
    pub fn unique_verifications(&self) -> usize {
        self.cache.lock().expect("cache poisoned").len()
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run full verification.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The cached verdict for `(id, seed)`, if the message has already
    /// been through verification under that seed. `Some(None)` means
    /// "known invalid" — the relay layer uses this to stop forwarding
    /// junk without ever re-verifying.
    pub fn status(&self, id: [u8; 32], seed: [u8; 32]) -> Option<Option<u64>> {
        self.cache
            .lock()
            .expect("cache poisoned")
            .get(&(id, seed))
            .copied()
    }

    /// Drops cached entries (e.g., between rounds, to bound memory).
    pub fn clear(&self) {
        self.cache.lock().expect("cache poisoned").clear();
    }
}

impl VoteVerifier for CachedVerifier {
    fn verify_vote(
        &self,
        msg: &VoteMessage,
        ctx: &VoteContext,
        weights: &RoundWeights,
    ) -> Option<u64> {
        let key = (msg.message_id(), ctx.seed);
        if let Some(hit) = self.cache.lock().expect("cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let result = self.inner.verify_vote(msg, ctx, weights);
        self.cache
            .lock()
            .expect("cache poisoned")
            .insert(key, result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_crypto::Keypair;
    use algorand_sortition::select;

    fn setup() -> (Vec<Keypair>, RoundWeights, VoteContext) {
        let keypairs: Vec<Keypair> = (0..8u8).map(|i| Keypair::from_seed([i + 1; 32])).collect();
        let weights = RoundWeights::from_pairs(keypairs.iter().map(|k| (k.pk, 100u64)));
        let ctx = VoteContext {
            round: 1,
            seed: [5u8; 32],
            // τ = W selects every sub-user deterministically.
            tau: 800.0,
        };
        (keypairs, weights, ctx)
    }

    fn make_vote(kp: &Keypair, ctx: &VoteContext, weights: &RoundWeights) -> VoteMessage {
        let step = StepKind::Main(1);
        let sel = select(
            kp,
            &ctx.seed,
            Role::Committee {
                round: ctx.round,
                step: step.code(),
            },
            &SortitionParams {
                tau: ctx.tau,
                total_weight: weights.total(),
            },
            weights.weight_of(&kp.pk),
        )
        .expect("τ = W selects everyone");
        VoteMessage::sign(
            kp,
            ctx.round,
            step,
            sel.vrf_output,
            sel.proof,
            [7u8; 32],
            [9u8; 32],
        )
    }

    #[test]
    fn valid_vote_counts_weight() {
        let (kps, weights, ctx) = setup();
        let vote = make_vote(&kps[0], &ctx, &weights);
        let votes = RealVerifier.verify_vote(&vote, &ctx, &weights);
        assert_eq!(votes, Some(100));
    }

    #[test]
    fn unknown_sender_rejected() {
        let (kps, weights, ctx) = setup();
        let stranger = Keypair::from_seed([99; 32]);
        let mut vote = make_vote(&kps[0], &ctx, &weights);
        // Re-sign the same content under a key with zero weight.
        vote = VoteMessage::sign(
            &stranger,
            vote.round,
            vote.step,
            vote.sorthash,
            vote.sort_proof,
            vote.prev_hash,
            vote.value,
        );
        assert_eq!(RealVerifier.verify_vote(&vote, &ctx, &weights), None);
    }

    #[test]
    fn wrong_round_rejected() {
        let (kps, weights, ctx) = setup();
        let vote = make_vote(&kps[1], &ctx, &weights);
        let wrong_ctx = VoteContext { round: 2, ..ctx };
        assert_eq!(RealVerifier.verify_vote(&vote, &wrong_ctx, &weights), None);
    }

    #[test]
    fn forged_sorthash_rejected() {
        let (kps, weights, ctx) = setup();
        let mut vote = make_vote(&kps[2], &ctx, &weights);
        // Claim a different sortition hash than the proof certifies (this
        // would let an attacker bias the common coin); must re-sign so the
        // signature itself is valid.
        let kp = &kps[2];
        let mut forged = vote.sorthash;
        forged.0[0] ^= 0xff;
        vote = VoteMessage::sign(
            kp,
            vote.round,
            vote.step,
            forged,
            vote.sort_proof,
            vote.prev_hash,
            vote.value,
        );
        assert_eq!(RealVerifier.verify_vote(&vote, &ctx, &weights), None);
    }

    #[test]
    fn verified_vote_only_constructible_through_verification() {
        let (kps, weights, ctx) = setup();
        let vote = make_vote(&kps[5], &ctx, &weights);
        let vv =
            verify_vote_message(&RealVerifier, &vote, &ctx, &weights).expect("valid vote verifies");
        assert_eq!(vv.votes(), 100);
        assert_eq!(vv.message().message_id(), vote.message_id());
        // An invalid vote never yields a VerifiedVote.
        let stranger = Keypair::from_seed([98; 32]);
        let forged = VoteMessage::sign(
            &stranger,
            vote.round,
            vote.step,
            vote.sorthash,
            vote.sort_proof,
            vote.prev_hash,
            vote.value,
        );
        assert!(verify_vote_message(&RealVerifier, &forged, &ctx, &weights).is_none());
    }

    #[test]
    fn cache_status_reports_verdicts_and_is_seed_scoped() {
        let (kps, weights, ctx) = setup();
        let cache = CachedVerifier::new();
        let vote = make_vote(&kps[6], &ctx, &weights);
        let id = vote.message_id();
        assert_eq!(cache.status(id, ctx.seed), None);
        cache.verify_vote(&vote, &ctx, &weights);
        assert_eq!(cache.status(id, ctx.seed), Some(Some(100)));
        // A different seed is a different verification context: miss.
        assert_eq!(cache.status(id, [0u8; 32]), None);
        let wrong_ctx = VoteContext {
            seed: [0u8; 32],
            ..ctx.clone()
        };
        // Verifying under the wrong seed fails and caches independently.
        assert_eq!(cache.verify_vote(&vote, &wrong_ctx, &weights), None);
        assert_eq!(cache.status(id, [0u8; 32]), Some(None));
        assert_eq!(cache.status(id, ctx.seed), Some(Some(100)));
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        cache.verify_vote(&vote, &ctx, &weights);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn cache_returns_same_result_and_counts_uniques() {
        let (kps, weights, ctx) = setup();
        let cache = CachedVerifier::new();
        let vote = make_vote(&kps[3], &ctx, &weights);
        let first = cache.verify_vote(&vote, &ctx, &weights);
        let second = cache.verify_vote(&vote, &ctx, &weights);
        assert_eq!(first, Some(100));
        assert_eq!(first, second);
        assert_eq!(cache.unique_verifications(), 1);
        let other = make_vote(&kps[4], &ctx, &weights);
        cache.verify_vote(&other, &ctx, &weights);
        assert_eq!(cache.unique_verifications(), 2);
        cache.clear();
        assert_eq!(cache.unique_verifications(), 0);
    }
}
