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
//! the tally and engine accept — is [`verify_vote_message`]. It also holds
//! the two pieces every other verified message kind shares with votes:
//! [`verify_sortition`] (Algorithm 2) and [`VerdictCache`].

use crate::msg::VoteMessage;
use crate::weights::RoundWeights;
use algorand_crypto::vrf::{VrfOutput, VrfProof};
use algorand_crypto::PublicKey;
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
        verify_sortition(
            &msg.sender,
            &msg.sort_proof,
            &msg.sorthash,
            &ctx.seed,
            role,
            ctx.tau,
            weights,
        )
    }
}

/// VerifySort (Algorithm 2) for a message that states its own sortition
/// hash — the one place a vote, a priority, a block message and a fork
/// proposal are checked for selection. The sender must hold weight, the
/// proof must verify for `(seed, role)`, `claimed` must be the output the
/// proof certifies (otherwise the common coin or a proposal's priority
/// could be biased by lying about the hash), and at least one sub-user
/// must be selected under `tau`. Returns the selected sub-user count.
pub fn verify_sortition(
    pk: &PublicKey,
    proof: &VrfProof,
    claimed: &VrfOutput,
    seed: &[u8; 32],
    role: Role,
    tau: f64,
    weights: &RoundWeights,
) -> Option<u64> {
    let weight = weights.weight_of(pk);
    if weight == 0 {
        return None;
    }
    let params = SortitionParams {
        tau,
        total_weight: weights.total(),
    };
    let (certified, j) =
        algorand_sortition::verify_output(pk, proof, seed, role, &params, weight).ok()?;
    (certified == *claimed && j > 0).then_some(j)
}

/// Verdicts by `(message id, selection seed)`: the one memo behind every
/// cached verification, for votes (`V` = sub-user count) and for
/// proposal-shaped messages (`V` = priority) alike.
///
/// The id commits to every field including the signature, so a hit is
/// exactly as strong as re-verifying; folding the selection seed into
/// the key makes the entry self-describing about its verification
/// context, so a lookup under a different seed (a diverged fork, a
/// recovery sub-protocol epoch) misses instead of returning a result
/// computed for the wrong context.
///
/// Rejections are remembered too, so the table is bounded the way
/// `gossip::relay` and the key table are: verdicts are recorded in the
/// current generation; when that holds [`VerdictCache::CAPACITY`] it
/// becomes the old one and the previous old one is dropped. A flood of
/// garbage can push honest verdicts out — they are then computed again,
/// to the same result — but cannot grow the table. Nothing reads a
/// verdict back except to skip recomputing it, so eviction never changes
/// behaviour.
#[derive(Default)]
pub struct VerdictCache<V> {
    generations: Mutex<[HashMap<VerdictKey, Option<V>>; 2]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A cache key: `(message_id, selection_seed)`.
type VerdictKey = ([u8; 32], [u8; 32]);

impl<V: Copy> VerdictCache<V> {
    /// Verdicts per generation; the table never holds more than twice
    /// this (~80 B each for votes, so ≈ 5 MB a generation).
    pub const CAPACITY: usize = 65_536;

    /// The verdict for `(id, seed)`: remembered, or computed by `verify`
    /// and remembered. The lock is not held while verifying.
    pub fn get_or_verify(
        &self,
        id: [u8; 32],
        seed: &[u8; 32],
        verify: impl FnOnce() -> Option<V>,
    ) -> Option<V> {
        let key = (id, *seed);
        {
            let [current, old] = &*self.generations.lock().expect("cache poisoned");
            if let Some(hit) = current.get(&key).or_else(|| old.get(&key)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return *hit;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let verdict = verify();
        let [current, old] = &mut *self.generations.lock().expect("cache poisoned");
        if current.len() >= Self::CAPACITY {
            *old = std::mem::take(current);
        }
        current.insert(key, verdict);
        verdict
    }

    /// Verdicts held now, at most twice [`VerdictCache::CAPACITY`]: the
    /// number of distinct verifications until the first rotation.
    pub fn entries(&self) -> usize {
        let [current, old] = &*self.generations.lock().expect("cache poisoned");
        current.len() + old.len()
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run full verification.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// [`RealVerifier`] behind a process-wide [`VerdictCache`]. The vote's
/// body remembers its id, so a lookup hashes nothing.
#[derive(Default)]
pub struct CachedVerifier {
    inner: RealVerifier,
    cache: VerdictCache<u64>,
}

impl CachedVerifier {
    /// Creates an empty cache.
    pub fn new() -> CachedVerifier {
        CachedVerifier::default()
    }

    /// The verdicts and their hit/miss counts.
    pub fn cache(&self) -> &VerdictCache<u64> {
        &self.cache
    }
}

impl VoteVerifier for CachedVerifier {
    fn verify_vote(
        &self,
        msg: &VoteMessage,
        ctx: &VoteContext,
        weights: &RoundWeights,
    ) -> Option<u64> {
        self.cache.get_or_verify(msg.message_id(), &ctx.seed, || {
            self.inner.verify_vote(msg, ctx, weights)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::StepKind;
    use algorand_crypto::Keypair;
    use algorand_sortition::select;

    impl VerifiedVote {
        /// Escape hatch for unit tests of downstream stages; does not
        /// exist in production builds.
        pub(crate) fn for_test(msg: VoteMessage, votes: u64) -> VerifiedVote {
            VerifiedVote { msg, votes }
        }
    }

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
    fn cache_is_seed_scoped() {
        let (kps, weights, ctx) = setup();
        let cache = CachedVerifier::new();
        let vote = make_vote(&kps[6], &ctx, &weights);
        assert_eq!(cache.verify_vote(&vote, &ctx, &weights), Some(100));
        // A different seed is a different verification context: the
        // lookup misses, fails, and is remembered independently.
        let wrong_ctx = VoteContext {
            seed: [0u8; 32],
            ..ctx.clone()
        };
        assert_eq!(cache.verify_vote(&vote, &wrong_ctx, &weights), None);
        assert_eq!((cache.cache().hits(), cache.cache().misses()), (0, 2));
        assert_eq!(cache.verify_vote(&vote, &wrong_ctx, &weights), None);
        assert_eq!(cache.verify_vote(&vote, &ctx, &weights), Some(100));
        assert_eq!((cache.cache().hits(), cache.cache().misses()), (2, 2));
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
        assert_eq!(cache.cache().entries(), 1);
        let other = make_vote(&kps[4], &ctx, &weights);
        cache.verify_vote(&other, &ctx, &weights);
        assert_eq!(cache.cache().entries(), 2);
    }

    #[test]
    fn verdict_cache_is_bounded_and_eviction_only_costs_a_recompute() {
        const CAPACITY: usize = VerdictCache::<u64>::CAPACITY;
        let cache = VerdictCache::<u64>::default();
        let key = |i: usize| {
            let mut id = [0u8; 32];
            id[..8].copy_from_slice(&(i as u64).to_le_bytes());
            id
        };
        // Odd keys are rejections: those are remembered (and bounded) too.
        let verdict = |i: usize| i.is_multiple_of(2).then_some(i as u64);
        let seed = [7u8; 32];
        for i in 0..=CAPACITY {
            assert_eq!(
                cache.get_or_verify(key(i), &seed, || verdict(i)),
                verdict(i)
            );
        }
        assert_eq!(cache.entries(), CAPACITY + 1, "one rotation drops nothing");
        assert_eq!(cache.get_or_verify(key(0), &seed, || None), verdict(0));
        assert_eq!(cache.hits(), 1, "the old generation still answers");
        for i in CAPACITY + 1..=2 * CAPACITY {
            cache.get_or_verify(key(i), &seed, || verdict(i));
            assert!(cache.entries() <= 2 * CAPACITY);
        }
        // The second rotation dropped key 0: it is verified again, to
        // the same verdict, and remembered again.
        let misses = cache.misses();
        assert_eq!(
            cache.get_or_verify(key(0), &seed, || verdict(0)),
            verdict(0)
        );
        assert_eq!(cache.misses(), misses + 1);
        assert_eq!(cache.get_or_verify(key(0), &seed, || None), verdict(0));
        assert!(cache.entries() <= 2 * CAPACITY);
    }
}
