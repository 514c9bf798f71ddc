//! Differential property test: [`RelayState`]'s fingerprint tables
//! against the exact two-generation hash sets they replaced.
//!
//! `Oracle` below is the deleted implementation, verbatim but for its
//! metrics. The two are driven with the same seeded random sequences of
//! `classify` (with and without slots; fresh, repeated and equivocating),
//! `has_seen`, round-advance `prune` and stall-horizon `prune`, and must
//! agree at every step. They could only differ through a 63-bit
//! fingerprint collision, which these few hundred thousand operations
//! meet with probability below 1e-9.

use algorand_crypto::rng::Rng;
use algorand_gossip::{RelayDecision, RelayState};
use std::collections::HashSet;

type Slot = ([u8; 32], u64, u32);

#[derive(Default)]
struct Oracle {
    seen_cur: HashSet<[u8; 32]>,
    seen_old: HashSet<[u8; 32]>,
    slots_cur: HashSet<Slot>,
    slots_old: HashSet<Slot>,
    pruned_round: u64,
    last_rotation_at: u64,
}

impl Oracle {
    fn classify(&mut self, message_id: [u8; 32], slot: Option<Slot>) -> RelayDecision {
        if self.seen_old.contains(&message_id) || !self.seen_cur.insert(message_id) {
            return RelayDecision::Duplicate;
        }
        if let Some(slot) = slot {
            if self.slots_old.contains(&slot) || !self.slots_cur.insert(slot) {
                return RelayDecision::Equivocation;
            }
        }
        RelayDecision::Relay
    }

    fn has_seen(&self, message_id: &[u8; 32]) -> bool {
        self.seen_cur.contains(message_id) || self.seen_old.contains(message_id)
    }

    fn prune(&mut self, round: u64, now: u64, stall_horizon: u64) {
        let stalled = now.saturating_sub(self.last_rotation_at) > stall_horizon;
        if round <= self.pruned_round && !stalled {
            return;
        }
        self.pruned_round = self.pruned_round.max(round);
        self.last_rotation_at = now;
        self.seen_old = std::mem::take(&mut self.seen_cur);
        self.slots_old = std::mem::take(&mut self.slots_cur);
    }
}

/// One seeded sequence. `per_round` sets how many operations pass
/// between round advances, so the sequences cover tables that stay at
/// their floor, grow once, and grow many times within a generation.
fn run(seed: u64, ops: usize, per_round: usize) {
    const HORIZON: u64 = 16_000_000;
    let mut rng = Rng::seed_from_u64(0x5E1A ^ seed);
    let mut relay = RelayState::new();
    let mut oracle = Oracle::default();
    // Everything ever classified, so repeats and `has_seen` can reach
    // back past two rotations to ids both sides must have forgotten.
    let mut history: Vec<([u8; 32], Option<Slot>)> = Vec::new();
    let (mut round, mut now) = (1u64, 0u64);
    for step in 0..ops {
        now += rng.gen_range_u64(2_000);
        let pick = |rng: &mut Rng, history: &[([u8; 32], Option<Slot>)]| {
            // Mostly recent traffic, sometimes an antique.
            let span = if rng.gen_range_u64(8) == 0 {
                history.len()
            } else {
                history.len().min(64)
            };
            history[history.len() - 1 - rng.gen_range_usize(span)]
        };
        match rng.gen_range_u64(1_000) {
            // A fresh message, with or without a slot.
            0..=399 => {
                let id = rng.gen_bytes32();
                let slot = (rng.gen_range_u64(4) > 0).then(|| {
                    let mut pk = [0u8; 32];
                    pk[0] = rng.gen_range_u64(16) as u8;
                    (pk, round, rng.gen_range_u64(12) as u32)
                });
                assert_eq!(relay.classify(id, slot), oracle.classify(id, slot));
                history.push((id, slot));
            }
            // A repeat: the same id again.
            400..=699 if !history.is_empty() => {
                let (id, slot) = pick(&mut rng, &history);
                assert_eq!(relay.classify(id, slot), oracle.classify(id, slot));
            }
            // An equivocation: a new id in a slot used before.
            700..=799 if !history.is_empty() => {
                let (_, slot) = pick(&mut rng, &history);
                let id = rng.gen_bytes32();
                assert_eq!(relay.classify(id, slot), oracle.classify(id, slot));
                history.push((id, slot));
            }
            800..=949 if !history.is_empty() => {
                let (id, _) = pick(&mut rng, &history);
                assert_eq!(relay.has_seen(&id), oracle.has_seen(&id));
                let unseen = rng.gen_bytes32();
                assert_eq!(relay.has_seen(&unseen), oracle.has_seen(&unseen));
            }
            // A stall: the clock jumps past the horizon, the round stays.
            // Even seeds only, so odd ones grow a generation undisturbed.
            950 if seed.is_multiple_of(2) => now += HORIZON + 1,
            _ => {}
        }
        if step % per_round == per_round - 1 {
            round += 1 + rng.gen_range_u64(2);
        }
        // Drivers prune after every event, with the same arguments.
        relay.prune(round, now, HORIZON);
        oracle.prune(round, now, HORIZON);
    }
}

#[test]
fn decisions_match_the_exact_sets_at_every_step() {
    for seed in 0..8 {
        run(seed, 20_000, 50);
        run(seed, 20_000, 700);
        run(seed, 20_000, 9_000);
    }
}
