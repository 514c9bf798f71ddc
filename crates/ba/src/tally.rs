//! Per-step vote tallies (the stateful half of CountVotes, Algorithm 5).
//!
//! The engine keeps one tally per step it has seen votes for. Votes for
//! future steps accumulate here until the engine reaches that step — the
//! `incomingMsgs` buffer of the paper's pseudocode.

use crate::msg::{Value, VoteMessage};
use crate::verify::VerifiedVote;
use algorand_crypto::sha256_concat;
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};

/// Accumulated votes for one (round, step).
#[derive(Default)]
pub struct StepTally {
    counts: HashMap<Value, u64>,
    /// Retained messages — handles on the gossiped bodies, not copies —
    /// for certificate assembly (§8.3) and the common coin (Algorithm 9).
    /// One per sender; the tally keeps no other copy of a sender's key.
    messages: Vec<(VoteMessage, u64)>,
    /// Who already voted, as an open-addressed table over `messages`:
    /// a slot holds 1 + the position of a message whose sender hashes
    /// there, 0 if empty. Its length is 0 or a power of two at least
    /// twice `messages.len()`, so a probe always reaches an empty slot.
    senders: Vec<u32>,
    /// Keyed per tally, as a `HashSet`'s would be: senders are chosen by
    /// whoever holds stake, so their keys must not decide collisions.
    hasher: RandomState,
}

impl StepTally {
    /// Creates an empty tally.
    pub fn new() -> StepTally {
        StepTally::default()
    }

    /// Records a vote that passed the verification stage.
    ///
    /// Accepting only [`VerifiedVote`] — whose constructor is private to
    /// `crate::verify` — makes it impossible for an unverified message to
    /// enter a tally. Returns false (and records nothing) if this sender
    /// already voted in this step — the one-message-per-⟨round,step⟩ rule
    /// of §8.4.
    pub fn add(&mut self, vote: &VerifiedVote) -> bool {
        let (msg, votes) = (vote.message(), vote.votes());
        debug_assert!(votes > 0);
        if 2 * (self.messages.len() + 1) > self.senders.len() {
            self.grow();
        }
        let sender = msg.sender.as_bytes();
        let mask = self.senders.len() - 1;
        let mut slot = self.hasher.hash_one(sender) as usize & mask;
        loop {
            match self.senders[slot] {
                0 => break,
                n if self.messages[n as usize - 1].0.sender.as_bytes() == sender => return false,
                _ => slot = (slot + 1) & mask,
            }
        }
        let position = u32::try_from(self.messages.len() + 1).expect("under 2^32 voters per step");
        self.senders[slot] = position;
        *self.counts.entry(msg.value).or_insert(0) += votes;
        self.messages.push((msg.clone(), votes));
        true
    }

    /// Doubles the sender table (from 16 slots) and re-inserts every
    /// sender. They are distinct, so each takes the first empty slot of
    /// its probe sequence.
    fn grow(&mut self) {
        self.senders = vec![0; (2 * self.senders.len()).max(16)];
        let mask = self.senders.len() - 1;
        for (position, (m, _)) in self.messages.iter().enumerate() {
            let mut slot = self.hasher.hash_one(m.sender.as_bytes()) as usize & mask;
            while self.senders[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.senders[slot] = position as u32 + 1;
        }
    }

    /// The vote count for a specific value.
    pub fn count_for(&self, value: &Value) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Total votes across all values.
    pub fn total_votes(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of distinct voters recorded.
    pub fn num_voters(&self) -> usize {
        self.messages.len()
    }

    /// The first value whose count strictly exceeds `threshold`, preferring
    /// the highest count (ties broken by value bytes for determinism).
    pub fn over_threshold(&self, threshold: f64) -> Option<Value> {
        self.counts
            .iter()
            .filter(|(_, &c)| (c as f64) > threshold)
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| a.0.cmp(b.0)))
            .map(|(v, _)| *v)
    }

    /// The common coin for this step (Algorithm 9): the least-significant
    /// bit of the lowest `H(sorthash ‖ j)` over all sub-user indices of all
    /// counted votes. Folded on demand — only a timed-out coin step asks.
    ///
    /// With no votes at all the initial `minhash = 2^hashlen` of the paper
    /// is even, giving coin 0.
    pub fn common_coin(&self) -> u8 {
        self.messages
            .iter()
            .flat_map(|(m, votes)| {
                (0..*votes).map(|j| sha256_concat(&[&m.sorthash.0, &j.to_le_bytes()]))
            })
            .min()
            .map_or(0, |h| h[31] & 1)
    }

    /// The most recently counted message voting for `value` — when a step
    /// concludes on votes, this is (an upper bound on) the gating vote
    /// that pushed the value over its threshold, used for causal trace
    /// links. Batch ingestion (catch-up replay) may overshoot the exact
    /// threshold-crosser, but the returned vote was in the tally at
    /// conclusion time, so the causal chain stays valid.
    pub fn last_message_for(&self, value: &Value) -> Option<&VoteMessage> {
        self.messages
            .iter()
            .rev()
            .find(|(m, _)| m.value == *value)
            .map(|(m, _)| m)
    }

    /// Messages voting for `value`, with their vote counts — certificate
    /// raw material.
    pub fn messages_for(&self, value: Value) -> impl Iterator<Item = (&VoteMessage, u64)> + '_ {
        self.messages
            .iter()
            .filter(move |(m, _)| m.value == value)
            .map(|(m, v)| (m, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::StepKind;
    use algorand_crypto::rng::Rng;
    use algorand_crypto::{vrf, Keypair};
    use std::collections::HashSet;

    fn vote(seed: u8, value: u8, votes: u64) -> VerifiedVote {
        voter_vote([seed; 32], value, votes)
    }

    fn voter_vote(key_seed: [u8; 32], value: u8, votes: u64) -> VerifiedVote {
        let kp = Keypair::from_seed(key_seed);
        let (sorthash, proof) = vrf::prove(&kp, b"t");
        let msg = VoteMessage::sign(
            &kp,
            1,
            StepKind::Main(1),
            sorthash,
            proof,
            [0u8; 32],
            [value; 32],
        );
        VerifiedVote::for_test(msg, votes)
    }

    #[test]
    fn counts_accumulate_by_value() {
        let mut t = StepTally::new();
        assert!(t.add(&vote(1, 7, 3)));
        assert!(t.add(&vote(2, 7, 2)));
        assert!(t.add(&vote(3, 8, 4)));
        assert_eq!(t.count_for(&[7u8; 32]), 5);
        assert_eq!(t.count_for(&[8u8; 32]), 4);
        assert_eq!(t.total_votes(), 9);
        assert_eq!(t.num_voters(), 3);
    }

    #[test]
    fn duplicate_sender_rejected() {
        let mut t = StepTally::new();
        assert!(t.add(&vote(1, 7, 3)));
        // Same sender, even voting a different value, is dropped.
        assert!(!t.add(&vote(1, 9, 5)));
        assert_eq!(t.total_votes(), 3);
    }

    #[test]
    fn over_threshold_picks_heaviest() {
        let mut t = StepTally::new();
        t.add(&vote(1, 7, 10));
        t.add(&vote(2, 8, 12));
        assert_eq!(t.over_threshold(9.0), Some([8u8; 32]));
        assert_eq!(t.over_threshold(11.5), Some([8u8; 32]));
        assert_eq!(t.over_threshold(12.0), None);
        // Strict inequality: count must exceed, not equal, the threshold.
        assert_eq!(t.over_threshold(12.0 - 1e-9), Some([8u8; 32]));
    }

    #[test]
    fn coin_is_deterministic_in_messages() {
        // Enough members that both coin values occur across prefixes.
        let votes: Vec<VerifiedVote> = (1..=8u8)
            .map(|s| vote(s, 7 + s % 2, 1 + s as u64 % 3))
            .collect();
        let mut coins = HashSet::new();
        for n in 1..=votes.len() {
            // Algorithm 9, written naively from the inserted votes.
            let mut minhash = [0xffu8; 32];
            for v in &votes[..n] {
                for j in 0..v.votes() {
                    let h = sha256_concat(&[&v.message().sorthash.0, &j.to_le_bytes()]);
                    minhash = minhash.min(h);
                }
            }
            let mut forward = StepTally::new();
            let mut backward = StepTally::new();
            for (f, b) in votes[..n].iter().zip(votes[..n].iter().rev()) {
                assert!(forward.add(f) && backward.add(b));
            }
            assert_eq!(forward.common_coin(), minhash[31] & 1);
            assert_eq!(backward.common_coin(), minhash[31] & 1);
            coins.insert(minhash[31] & 1);
        }
        assert_eq!(coins.len(), 2, "fixture never exercises both coin values");
        // Empty tally defaults to 0.
        assert_eq!(StepTally::new().common_coin(), 0);
    }

    #[test]
    fn messages_for_filters_by_value() {
        let mut t = StepTally::new();
        t.add(&vote(1, 7, 2));
        t.add(&vote(2, 8, 1));
        t.add(&vote(3, 7, 4));
        let sevens: Vec<u64> = t.messages_for([7u8; 32]).map(|(_, v)| v).collect();
        assert_eq!(sevens.iter().sum::<u64>(), 6);
        assert_eq!(sevens.len(), 2);
    }

    /// The tally as it was before the sender table: a set of sender keys
    /// beside the messages.
    #[derive(Default)]
    struct Reference {
        voters: HashSet<[u8; 32]>,
        counts: HashMap<Value, u64>,
        messages: Vec<(VoteMessage, u64)>,
    }

    impl Reference {
        fn add(&mut self, vote: &VerifiedVote) -> bool {
            let msg = vote.message();
            if !self.voters.insert(msg.sender.to_bytes()) {
                return false;
            }
            *self.counts.entry(msg.value).or_insert(0) += vote.votes();
            self.messages.push((msg.clone(), vote.votes()));
            true
        }

        fn common_coin(&self) -> u8 {
            let mut minhash = [0xffu8; 32];
            for (m, votes) in &self.messages {
                for j in 0..*votes {
                    minhash = minhash.min(sha256_concat(&[&m.sorthash.0, &j.to_le_bytes()]));
                }
            }
            if self.messages.is_empty() {
                0
            } else {
                minhash[31] & 1
            }
        }
    }

    fn assert_same(tally: &StepTally, reference: &Reference, values: &[Value]) {
        assert_eq!(tally.num_voters(), reference.voters.len());
        for value in values {
            assert_eq!(
                tally.count_for(value),
                reference.counts.get(value).copied().unwrap_or(0)
            );
            let ours: Vec<([u8; 32], u64)> = tally
                .messages_for(*value)
                .map(|(m, v)| (m.sender.to_bytes(), v))
                .collect();
            let theirs: Vec<([u8; 32], u64)> = reference
                .messages
                .iter()
                .filter(|(m, _)| m.value == *value)
                .map(|(m, v)| (m.sender.to_bytes(), *v))
                .collect();
            assert_eq!(ours, theirs);
        }
        assert_eq!(tally.common_coin(), reference.common_coin());
    }

    #[test]
    fn sender_table_decides_as_a_set_of_keys_does() {
        // 300 senders, each with a vote for each of three values: a
        // repeat sender often equivocates, and the largest pool outgrows
        // the first 16-slot table five times.
        const SENDERS: usize = 300;
        let pool: Vec<[VerifiedVote; 3]> = (0..SENDERS)
            .map(|i| {
                let mut key_seed = [0u8; 32];
                key_seed[..8].copy_from_slice(&(i as u64).to_le_bytes());
                let votes = 1 + i as u64 % 4;
                [0, 1, 2].map(|v| voter_vote(key_seed, v, votes + v as u64))
            })
            .collect();
        let values: Vec<Value> = (0..3u8).map(|v| [v; 32]).collect();
        for (seed, senders) in [(1u64, 5), (2, 40), (3, SENDERS), (4, SENDERS)] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut tally = StepTally::new();
            let mut reference = Reference::default();
            for n in 0..3 * senders {
                let vote = &pool[rng.gen_range_usize(senders)][rng.gen_range_usize(3)];
                assert_eq!(
                    tally.add(vote),
                    reference.add(vote),
                    "seed {seed}, vote {n}"
                );
                assert_eq!(tally.num_voters(), reference.voters.len());
                if n % 64 == 0 {
                    assert_same(&tally, &reference, &values);
                }
            }
            assert_same(&tally, &reference, &values);
            assert!(
                tally.num_voters() > senders / 2,
                "seed {seed}: the stream repeated too much"
            );
        }
    }
}
