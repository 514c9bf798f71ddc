//! Randomized property tests on BA⋆'s vote accounting and message
//! invariants, driven by the in-repo deterministic RNG so failures replay.

use algorand_ba::tally::StepTally;
use algorand_ba::{
    verify_vote_message, RealVerifier, RoundWeights, StepKind, VerifiedVote, VoteContext,
    VoteMessage,
};
use algorand_crypto::rng::Rng;
use algorand_crypto::{vrf, Keypair};
use algorand_sortition::{select, Role, SortitionParams};

const CASES: usize = 16;

const SEED: [u8; 32] = [0x5e; 32];

fn rng(test_tag: u64) -> Rng {
    Rng::seed_from_u64(0xBA5E ^ test_tag)
}

fn keypair(seed: u8) -> Keypair {
    Keypair::from_seed([seed.max(1); 32])
}

/// A deterministic vote from user `seed` for `value`, any fixed context.
fn vote(seed: u8, round: u64, step: u32, value: u8) -> VoteMessage {
    let kp = keypair(seed);
    let (sorthash, proof) = vrf::prove(&kp, b"prop-test");
    VoteMessage::sign(
        &kp,
        round,
        StepKind::Main(step.max(1)),
        sorthash,
        proof,
        [0u8; 32],
        [value; 32],
    )
}

/// A tally only accepts votes that went through the verification stage,
/// so property tests build real committee votes: with τ = W every
/// sub-user is selected deterministically and a sender of weight `w`
/// carries exactly `w` votes.
fn verified_vote(seed: u8, value: u8, weights: &RoundWeights) -> VerifiedVote {
    let kp = keypair(seed);
    let step = StepKind::Main(1);
    let tau = weights.total() as f64;
    let sel = select(
        &kp,
        &SEED,
        Role::Committee {
            round: 1,
            step: step.code(),
        },
        &SortitionParams {
            tau,
            total_weight: weights.total(),
        },
        weights.weight_of(&kp.pk),
    )
    .expect("τ = W selects everyone");
    let msg = VoteMessage::sign(
        &kp,
        1,
        step,
        sel.vrf_output,
        sel.proof,
        [0u8; 32],
        [value; 32],
    );
    verify_vote_message(
        &RealVerifier,
        &msg,
        &VoteContext {
            round: 1,
            seed: SEED,
            tau,
        },
        weights,
    )
    .expect("honestly built vote verifies")
}

/// Tally totals are permutation-invariant and replay-proof: any order and
/// any number of repetitions of the same vote set yields the same counts.
#[test]
fn tally_is_order_and_replay_invariant() {
    let mut rng = rng(1);
    for _ in 0..CASES {
        // One vote per sender: with equivocation, "first vote wins" makes
        // outcomes inherently order-dependent (tested separately below).
        let n = 1 + rng.gen_range_usize(15);
        let mut seen = std::collections::HashSet::new();
        let picks: Vec<(u8, u8, u64)> = (0..n)
            .map(|_| {
                (
                    1 + rng.gen_range_u64(9) as u8,
                    rng.gen_range_u64(3) as u8,
                    1 + rng.gen_range_u64(4),
                )
            })
            .filter(|(who, _, _)| seen.insert(*who))
            .collect();
        let weights =
            RoundWeights::from_pairs(picks.iter().map(|(who, _, w)| (keypair(*who).pk, *w)));
        let msgs: Vec<VerifiedVote> = picks
            .iter()
            .map(|(who, val, _)| verified_vote(*who, *val, &weights))
            .collect();
        // Reference tally: in order, each once.
        let mut reference = StepTally::new();
        for m in &msgs {
            reference.add(m);
        }
        // Shuffled + replayed tally.
        let mut order: Vec<usize> = (0..msgs.len()).collect();
        rng.shuffle(&mut order);
        let mut shuffled = StepTally::new();
        for &i in &order {
            shuffled.add(&msgs[i]);
            shuffled.add(&msgs[i]); // Replay: must not double count.
        }
        for val in 0u8..3 {
            assert_eq!(
                reference.count_for(&[val; 32]),
                shuffled.count_for(&[val; 32]),
                "value {val}"
            );
        }
        assert_eq!(reference.common_coin(), shuffled.common_coin());
    }
}

/// A sender contributes to exactly one value per step, no matter how many
/// conflicting votes it sends (equivocation cannot double-count).
#[test]
fn equivocating_sender_counts_once() {
    let mut rng = rng(2);
    for _ in 0..CASES {
        let who = 1 + rng.gen_range_u64(19) as u8;
        let weight = 1 + rng.gen_range_u64(9);
        let n_values = 2 + rng.gen_range_usize(4);
        let weights = RoundWeights::from_pairs([(keypair(who).pk, weight)]);
        let mut tally = StepTally::new();
        for _ in 0..n_values {
            let v = rng.gen_range_u64(5) as u8;
            tally.add(&verified_vote(who, v, &weights));
        }
        assert_eq!(tally.total_votes(), weight);
        assert_eq!(tally.num_voters(), 1);
    }
}

/// Over-threshold detection is exact: just below never fires, just above
/// always does.
#[test]
fn threshold_boundary_is_strict() {
    let mut rng = rng(3);
    for _ in 0..CASES {
        let n = 1 + rng.gen_range_usize(7);
        let weights: Vec<u64> = (0..n).map(|_| 1 + rng.gen_range_u64(49)).collect();
        let snapshot = RoundWeights::from_pairs(
            weights
                .iter()
                .enumerate()
                .map(|(i, w)| (keypair(i as u8 + 1).pk, *w)),
        );
        let mut tally = StepTally::new();
        for i in 0..n {
            tally.add(&verified_vote(i as u8 + 1, 7, &snapshot));
        }
        let total: u64 = weights.iter().sum();
        assert_eq!(tally.over_threshold(total as f64), None);
        assert_eq!(tally.over_threshold(total as f64 - 0.5), Some([7u8; 32]));
    }
}

/// Vote signatures bind every field: any single-field change breaks
/// verification.
#[test]
fn vote_signature_binds_fields() {
    let mut rng = rng(4);
    for _ in 0..CASES {
        let who = 1 + rng.gen_range_u64(19) as u8;
        let round = 1 + rng.gen_range_u64(999);
        let step = 1 + rng.gen_range_u64(49) as u32;
        let value = rng.gen_range_u64(256) as u8;
        let v = vote(who, round, step, value);
        assert!(v.signature_valid());
        // A vote's fields cannot be assigned to; a forgery is a new body.
        let forged = |round, step, prev_hash, value| {
            VoteMessage::from_parts(
                v.sender,
                round,
                step,
                v.sorthash,
                v.sort_proof,
                prev_hash,
                value,
                v.sig,
            )
        };
        let flipped = |mut h: [u8; 32]| {
            h[0] ^= 0xff;
            h
        };
        let same = forged(v.round, v.step, v.prev_hash, v.value);
        assert!(same.signature_valid() && same.message_id() == v.message_id());
        for wrong in [
            forged(v.round + 1, v.step, v.prev_hash, v.value),
            forged(v.round, StepKind::Main(step + 1), v.prev_hash, v.value),
            forged(v.round, v.step, v.prev_hash, flipped(v.value)),
            forged(v.round, v.step, flipped(v.prev_hash), v.value),
        ] {
            assert!(!wrong.signature_valid());
            assert_ne!(wrong.message_id(), v.message_id());
        }
    }
}

/// Message ids are injective over the varied fields (no accidental dedup
/// collisions between distinct votes).
#[test]
fn message_ids_unique() {
    let mut rng = rng(5);
    for _ in 0..4 * CASES {
        let pick = |rng: &mut Rng| {
            (
                1 + rng.gen_range_u64(9) as u8,
                1 + rng.gen_range_u64(4),
                1 + rng.gen_range_u64(4) as u32,
                rng.gen_range_u64(3) as u8,
            )
        };
        let a = pick(&mut rng);
        let b = pick(&mut rng);
        let va = vote(a.0, a.1, a.2, a.3);
        let vb = vote(b.0, b.1, b.2, b.3);
        if a == b {
            assert_eq!(va.message_id(), vb.message_id());
        } else {
            assert_ne!(va.message_id(), vb.message_id());
        }
    }
}
