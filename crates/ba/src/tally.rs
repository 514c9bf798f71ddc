//! Per-step vote tallies (the stateful half of CountVotes, Algorithm 5).
//!
//! The engine keeps one tally per step it has seen votes for. Votes for
//! future steps accumulate here until the engine reaches that step — the
//! `incomingMsgs` buffer of the paper's pseudocode.

use crate::msg::{Value, VoteMessage};
use crate::verify::VerifiedVote;
use algorand_crypto::sha256_concat;
use std::collections::{HashMap, HashSet};

/// Accumulated votes for one (round, step).
#[derive(Default)]
pub struct StepTally {
    counts: HashMap<Value, u64>,
    voters: HashSet<[u8; 32]>,
    /// Retained messages — handles on the gossiped bodies, not copies —
    /// for certificate assembly (§8.3) and the common coin (Algorithm 9).
    messages: Vec<(VoteMessage, u64)>,
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
        if !self.voters.insert(msg.sender.to_bytes()) {
            return false;
        }
        *self.counts.entry(msg.value).or_insert(0) += votes;
        self.messages.push((msg.clone(), votes));
        true
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
        self.voters.len()
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
    use algorand_crypto::{vrf, Keypair};

    fn vote(seed: u8, value: u8, votes: u64) -> VerifiedVote {
        let kp = Keypair::from_seed([seed; 32]);
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
}
