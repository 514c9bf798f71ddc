//! Per-node relay policy (§4, §8.4).
//!
//! Before relaying, a node (1) never forwards the same message twice, and
//! (2) forwards at most one message per public key per ⟨round, step⟩ — the
//! anti-equivocation and anti-spam rules that keep the gossip network from
//! being overwhelmed by an adversary. Both drivers (`sim::des::engine`,
//! `node::runtime`) consult this policy *first*, on every gossip delivery
//! and before the node has validated anything: a duplicate is dropped unread,
//! anything else goes to `core::Process::on_message` with `may_forward`
//! set for a [`RelayDecision::Relay`], and the process's validation
//! (`Delivery::relay`) gates only the *forwarding*. It stays with the
//! loops rather than in the process because `core` does not depend on
//! this crate.
//! An invalid message therefore occupies an id — and, if vote-like, its
//! claimed sender's slot — at the nodes it reached, and spreads no
//! further.
//!
//! §8.3 catch-up is not gossip: a request or response goes to one peer
//! and no further, so the drivers hand it to the process without asking
//! this policy, and a retried request is answered again.
//!
//! Five of six deliveries are duplicates, so "seen it?" is the hottest
//! question in the system. The answer lives in two flat tables (one of
//! message ids, one of sender slots) of 64-bit entries: a 63-bit
//! fingerprint of the key under a per-state random SipHash key, plus one
//! generation bit. A lookup hashes the key once and walks a short run of
//! adjacent words — one cache line, rarely two — where the exact sets
//! this replaced touched two or three lines in each of two generations.
//! What is traded is exactness: a fresh key whose fingerprint equals a
//! live entry's reads as seen, with probability ≤ (live entries) / 2⁶³
//! per lookup. A peer cannot aim for that without the state's key, and
//! the cost is one message lost at one node — the other nodes, under
//! their own keys, still flood it — which the protocol absorbs as it
//! absorbs a lost packet (DESIGN.md §12).
//!
//! Memory is bounded by generational pruning: entries are recorded in
//! the current generation, and [`RelayState::prune`] rotates when the
//! node's round advances — the current generation becomes the old one,
//! the old one is dropped, and the tables are rebuilt at the size of
//! what they keep. An entry therefore survives at least one full round
//! after it was recorded — far longer than any in-flight duplicate —
//! while a long-running node's relay state stays O(messages per round)
//! and follows its traffic down as well as up.
//!
//! Rotation also fires on wall-clock time when the round stops advancing
//! (the `stall_horizon` argument). Without this, a liveness stall froze
//! the one-message-per-key slots forever: recovery-vote retries for the
//! same ⟨round, step⟩ classified as equivocations and were never
//! forwarded, so §8.2 recovery could strangle itself. Re-admitting a
//! sender's slot after a quiet horizon cannot break safety — BA⋆ vote
//! tallies deduplicate by sender key — it only restores gossip flooding
//! for retried messages.

use algorand_obs::{Counter, Registry};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};

/// What to do with an incoming message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RelayDecision {
    /// First sighting: process and forward to peers.
    Relay,
    /// Seen before (by content): ignore.
    Duplicate,
    /// A *different* message from the same key for the same ⟨round, step⟩:
    /// process locally if desired, but do not forward (§8.4's
    /// one-message-per-key rule; blunts equivocation).
    Equivocation,
}

/// Fleet-wide relay counters, shared across nodes via a [`Registry`].
/// A [`RelayState`] counts privately and adds to these only in
/// [`RelayState::flush_metrics`]. The default (unregistered) metrics are
/// inert no-ops on plain atomics.
#[derive(Clone, Default)]
pub struct RelayMetrics {
    /// First sightings forwarded to peers.
    pub relayed: Counter,
    /// Messages dropped as exact duplicates.
    pub duplicates: Counter,
    /// Messages dropped by the one-message-per-key rule.
    pub equivocations: Counter,
}

impl RelayMetrics {
    /// Metrics registered under the standard `gossip.*` names.
    pub fn registered(reg: &Registry) -> RelayMetrics {
        RelayMetrics {
            relayed: reg.counter("gossip.relayed"),
            duplicates: reg.counter("gossip.duplicates"),
            equivocations: reg.counter("gossip.equivocations"),
        }
    }
}

/// Slots of an empty table, and the floor a quiet one shrinks back to
/// (512 bytes).
const MIN_CAPACITY: usize = 64;

/// The power-of-two capacity that holds `n` entries at a load of at most
/// one half: a missed probe then reads 2.5 words on average, a hit 1.5.
fn capacity_for(n: usize) -> usize {
    (2 * n).next_power_of_two().max(MIN_CAPACITY)
}

/// An open-addressed set of fingerprints in two generations.
///
/// An entry is `fingerprint << 1 | generation` with generation 1 the
/// current one, and 0 marks an empty slot; [`fingerprint`] never
/// returns a value whose old-generation form would be 0. Probing is
/// linear from the fingerprint's low bits, so a table can be rebuilt at
/// any size from its entries alone.
struct Fingerprints {
    /// Power-of-two length, never more than half full.
    entries: Vec<u64>,
    /// Occupied slots, both generations.
    len: usize,
    /// Occupied slots of the current generation.
    current: usize,
}

impl Default for Fingerprints {
    fn default() -> Fingerprints {
        Fingerprints {
            entries: vec![0; MIN_CAPACITY],
            len: 0,
            current: 0,
        }
    }
}

/// A key's current-generation entry under `hasher`. Clearing bit 0 gives
/// its old-generation entry, which the floor of 3 keeps distinct from an
/// empty slot.
fn fingerprint(hasher: &RandomState, key: &impl Hash) -> u64 {
    (hasher.hash_one(key) | 1).max(3)
}

impl Fingerprints {
    /// The slot holding current-generation `entry` in either generation,
    /// or else the free slot that ends its probe run.
    fn probe(&self, entry: u64) -> (usize, bool) {
        let mask = self.entries.len() - 1;
        let mut i = (entry >> 1) as usize & mask;
        loop {
            let found = self.entries[i];
            if found | 1 == entry {
                return (i, true);
            }
            if found == 0 {
                return (i, false);
            }
            i = (i + 1) & mask;
        }
    }

    fn contains(&self, entry: u64) -> bool {
        self.probe(entry).1
    }

    /// Records `entry` in the current generation unless either generation
    /// already holds it; `true` if it was new.
    fn insert(&mut self, entry: u64) -> bool {
        let (mut i, found) = self.probe(entry);
        if found {
            return false;
        }
        if 2 * (self.len + 1) > self.entries.len() {
            self.rebuild(2 * self.entries.len(), Some);
            i = self.probe(entry).0;
        }
        self.entries[i] = entry;
        self.len += 1;
        self.current += 1;
        true
    }

    /// Drops the old generation, ages the current one, and sizes the
    /// table to what is left.
    fn rotate(&mut self) {
        self.len = self.current;
        self.current = 0;
        self.rebuild(capacity_for(self.len), |e| (e & 1 == 1).then_some(e & !1));
    }

    /// Moves every entry `keep` maps to `Some` into a fresh table.
    /// Entries are distinct, so each lands on the free slot of its run.
    fn rebuild(&mut self, capacity: usize, keep: impl Fn(u64) -> Option<u64>) {
        let old = std::mem::replace(&mut self.entries, vec![0; capacity]);
        for entry in old.into_iter().filter(|&e| e != 0).filter_map(keep) {
            let free = self.probe(entry | 1).0;
            self.entries[free] = entry;
        }
    }

    /// The longest run of occupied slots: no probe, hit or miss, reads
    /// more words than this plus one.
    #[cfg(test)]
    fn longest_run(&self) -> usize {
        let n = self.entries.len();
        let (mut longest, mut run) = (0, 0);
        // Twice around, so a run across the wrap is counted whole.
        for i in 0..2 * n {
            run = if self.entries[i % n] == 0 { 0 } else { run + 1 };
            longest = longest.max(run.min(n));
        }
        longest
    }
}

/// Relay bookkeeping for one node.
#[derive(Default)]
pub struct RelayState {
    /// Keys every fingerprint; drawn once, never exposed, so a peer can
    /// neither collide two keys nor crowd one probe run.
    hasher: RandomState,
    /// Message ids seen.
    ids: Fingerprints,
    /// ⟨sender key, round, step⟩ slots taken.
    slots: Fingerprints,
    /// The round [`RelayState::prune`] last rotated at.
    pruned_round: u64,
    /// The timestamp of the last rotation (whatever clock the caller
    /// passes to [`RelayState::prune`]; µs in the simulator).
    last_rotation_at: u64,
    /// Decisions since the last [`RelayState::flush_metrics`].
    relayed: u64,
    duplicates: u64,
    equivocations: u64,
    metrics: RelayMetrics,
}

impl RelayState {
    /// Creates empty relay state.
    pub fn new() -> RelayState {
        RelayState::default()
    }

    /// Creates empty relay state reporting to the given shared counters
    /// (see [`RelayState::flush_metrics`]).
    pub fn with_metrics(metrics: RelayMetrics) -> RelayState {
        RelayState {
            metrics,
            ..RelayState::default()
        }
    }

    /// Classifies a message by content id and optional per-sender slot.
    ///
    /// `slot` is `(sender_pk, round, step)` for vote-like messages; pass
    /// `None` for messages without per-step semantics (e.g. block bodies,
    /// which are deduplicated by content only).
    pub fn classify(
        &mut self,
        message_id: [u8; 32],
        slot: Option<([u8; 32], u64, u32)>,
    ) -> RelayDecision {
        if !self.ids.insert(fingerprint(&self.hasher, &message_id)) {
            self.duplicates += 1;
            return RelayDecision::Duplicate;
        }
        if let Some(slot) = slot {
            if !self.slots.insert(fingerprint(&self.hasher, &slot)) {
                self.equivocations += 1;
                return RelayDecision::Equivocation;
            }
        }
        self.relayed += 1;
        RelayDecision::Relay
    }

    /// Whether a message id has been seen (without recording it).
    ///
    /// The simulator uses this to model pull-based body transfer: a relay
    /// that knows its peer already holds a block sends only the
    /// announcement, not the body.
    pub fn has_seen(&self, message_id: &[u8; 32]) -> bool {
        self.ids.contains(fingerprint(&self.hasher, message_id))
    }

    /// Adds the decisions counted since the last call to the shared
    /// [`RelayMetrics`]. Counting is private to the state so that a
    /// delivery touches no cache line other nodes' threads write; a
    /// driver that publishes metrics calls this wherever it is
    /// sequential (the simulator: once per touched node per window).
    pub fn flush_metrics(&mut self) {
        for (pending, counter) in [
            (&mut self.relayed, &self.metrics.relayed),
            (&mut self.duplicates, &self.metrics.duplicates),
            (&mut self.equivocations, &self.metrics.equivocations),
        ] {
            if *pending > 0 {
                counter.add(std::mem::take(pending));
            }
        }
    }

    /// Rotates the generations when `round` has advanced past the last
    /// rotation, or when more than `stall_horizon` has passed since the
    /// last rotation with no round progress.
    /// Entries recorded two rotations ago are dropped.
    ///
    /// Call with the node's current round and clock whenever convenient
    /// (every message is fine — rotation only happens on a round change
    /// or a stall-horizon expiry). Vote and priority traffic is only
    /// valid near the current round, and in-flight duplicates are
    /// milliseconds old, so anything older than a full round is safe to
    /// forget: a re-delivered antique is simply re-classified, and the
    /// node's own validation still rejects it.
    ///
    /// The stall horizon exists for §8.2: during a stall the round never
    /// advances, so without it the per-⟨key, round, step⟩ slots pin the
    /// *first* message forever and recovery-vote retries are dropped as
    /// equivocations network-wide. Pick a horizon of several λ_step so
    /// rotation never fires during healthy rounds.
    pub fn prune(&mut self, round: u64, now: u64, stall_horizon: u64) {
        let stalled = now.saturating_sub(self.last_rotation_at) > stall_horizon;
        if round <= self.pruned_round && !stalled {
            return;
        }
        self.pruned_round = self.pruned_round.max(round);
        self.last_rotation_at = now;
        self.ids.rotate();
        self.slots.rotate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sighting_relays() {
        let mut r = RelayState::new();
        assert_eq!(
            r.classify([1u8; 32], Some(([9u8; 32], 1, 1))),
            RelayDecision::Relay
        );
    }

    #[test]
    fn same_content_is_duplicate() {
        let mut r = RelayState::new();
        r.classify([1u8; 32], Some(([9u8; 32], 1, 1)));
        assert_eq!(
            r.classify([1u8; 32], Some(([9u8; 32], 1, 1))),
            RelayDecision::Duplicate
        );
    }

    #[test]
    fn different_content_same_slot_is_equivocation() {
        let mut r = RelayState::new();
        r.classify([1u8; 32], Some(([9u8; 32], 1, 1)));
        assert_eq!(
            r.classify([2u8; 32], Some(([9u8; 32], 1, 1))),
            RelayDecision::Equivocation
        );
    }

    #[test]
    fn same_key_different_step_relays() {
        let mut r = RelayState::new();
        r.classify([1u8; 32], Some(([9u8; 32], 1, 1)));
        assert_eq!(
            r.classify([2u8; 32], Some(([9u8; 32], 1, 2))),
            RelayDecision::Relay
        );
        assert_eq!(
            r.classify([3u8; 32], Some(([9u8; 32], 2, 1))),
            RelayDecision::Relay
        );
    }

    #[test]
    fn slotless_messages_dedup_by_content_only() {
        let mut r = RelayState::new();
        assert_eq!(r.classify([1u8; 32], None), RelayDecision::Relay);
        assert_eq!(r.classify([1u8; 32], None), RelayDecision::Duplicate);
        assert_eq!(r.classify([2u8; 32], None), RelayDecision::Relay);
    }

    #[test]
    fn pruning_bounds_memory_but_keeps_recent_rounds() {
        let mut r = RelayState::new();
        r.prune(1, 0, 0); // node enters round 1
                          // Round 1 traffic.
        r.classify([1u8; 32], Some(([9u8; 32], 1, 1)));
        r.prune(1, 0, 0); // still round 1: no rotation
        assert_eq!(r.classify([1u8; 32], None), RelayDecision::Duplicate);
        r.prune(2, 0, 0); // rotate: round-1 entries now old
                          // Still deduplicated one round later (in-flight stragglers).
        assert_eq!(r.classify([1u8; 32], None), RelayDecision::Duplicate);
        assert!(r.has_seen(&[1u8; 32]));
        r.classify([2u8; 32], Some(([9u8; 32], 2, 1)));
        r.prune(3, 0, 0); // second rotation: round-1 entries dropped
        assert!(!r.has_seen(&[1u8; 32]), "two rounds old: forgotten");
        assert!(r.has_seen(&[2u8; 32]), "one round old: kept");
        // The forgotten id re-classifies as fresh; bounded memory trades
        // this (harmless for round-scoped traffic) for O(rounds) growth.
        assert_eq!(r.classify([1u8; 32], None), RelayDecision::Relay);
    }

    #[test]
    fn prune_is_monotonic_and_idempotent_within_a_round() {
        let mut r = RelayState::new();
        r.classify([1u8; 32], None);
        r.prune(5, 0, 0);
        r.prune(5, 0, 0); // same round: must not rotate again
        r.prune(4, 0, 0); // going backwards: ignored
        assert!(r.has_seen(&[1u8; 32]));
        assert_eq!(r.classify([1u8; 32], None), RelayDecision::Duplicate);
    }

    #[test]
    fn stall_horizon_reopens_slots_without_round_progress() {
        let mut r = RelayState::new();
        const H: u64 = 16_000_000; // 16 s horizon, µs clock
        r.prune(3, 0, H);
        r.classify([1u8; 32], Some(([9u8; 32], 3, 1)));
        // Within the horizon, a retry in the same slot is still an
        // equivocation and rotation never fires.
        r.prune(3, H, H);
        assert_eq!(
            r.classify([2u8; 32], Some(([9u8; 32], 3, 1))),
            RelayDecision::Equivocation
        );
        // One horizon past the last rotation the slot moves to the old
        // generation (still guarded)…
        r.prune(3, H + 1, H);
        assert_eq!(
            r.classify([3u8; 32], Some(([9u8; 32], 3, 1))),
            RelayDecision::Equivocation
        );
        // …and after a second expiry it is forgotten: the stalled node
        // relays the retried message again.
        r.prune(3, 2 * H + 2, H);
        assert_eq!(
            r.classify([4u8; 32], Some(([9u8; 32], 3, 1))),
            RelayDecision::Relay,
            "stall rotation must re-admit retried slots"
        );
        // Round-based rotation still works afterwards.
        r.prune(4, 2 * H + 3, H);
        assert!(r.has_seen(&[4u8; 32]));
    }

    #[test]
    fn equivocation_detection_survives_one_rotation() {
        let mut r = RelayState::new();
        r.classify([1u8; 32], Some(([9u8; 32], 7, 1)));
        r.prune(8, 0, 0);
        assert_eq!(
            r.classify([2u8; 32], Some(([9u8; 32], 7, 1))),
            RelayDecision::Equivocation,
            "slot guard still active one round later"
        );
    }

    #[test]
    fn shared_counters_move_only_at_flush() {
        let metrics = RelayMetrics::default();
        let mut r = RelayState::with_metrics(metrics.clone());
        r.classify([1u8; 32], Some(([9u8; 32], 1, 1)));
        r.classify([1u8; 32], Some(([9u8; 32], 1, 1)));
        r.classify([2u8; 32], Some(([9u8; 32], 1, 1)));
        let read = || {
            (
                metrics.relayed.get(),
                metrics.duplicates.get(),
                metrics.equivocations.get(),
            )
        };
        assert_eq!(read(), (0, 0, 0));
        r.flush_metrics();
        assert_eq!(read(), (1, 1, 1));
        r.flush_metrics(); // nothing pending: nothing counted twice
        r.classify([3u8; 32], None);
        r.flush_metrics();
        assert_eq!(read(), (2, 1, 1));
    }

    /// Keys a peer would craft against an unkeyed table: ids equal in all
    /// but two bytes, slots under one public key. Under the state's
    /// SipHash key they spread like random ones, so no probe run grows
    /// past what a half-full table of random entries has (about 40 here;
    /// a run of 128 at this load has probability below 1e-13).
    #[test]
    fn crafted_keys_do_not_lengthen_probe_runs() {
        const N: u32 = 50_000;
        let mut r = RelayState::new();
        for i in 0..N {
            let mut id = [0xABu8; 32];
            id[7] = i as u8;
            id[23] = (i >> 8) as u8;
            let slot = ([9u8; 32], u64::from(i >> 8), i & 0xFF);
            assert_eq!(r.classify(id, Some(slot)), RelayDecision::Relay);
            assert!(r.has_seen(&id));
        }
        for table in [&r.ids, &r.slots] {
            assert_eq!(table.len, N as usize);
            assert!(2 * table.len <= table.entries.len());
            let run = table.longest_run();
            assert!(run <= 128, "longest probe run {run}");
        }
    }

    #[test]
    fn capacity_follows_traffic_down_after_a_burst() {
        let mut r = RelayState::new();
        let mut next = 0u32;
        let mut traffic = |r: &mut RelayState, n: u32, round: u64| {
            for _ in 0..n {
                let mut id = [0u8; 32];
                id[..4].copy_from_slice(&next.to_le_bytes());
                r.classify(id, Some(([9u8; 32], round, next)));
                next += 1;
            }
        };
        let capacity = |r: &RelayState| (r.ids.entries.len(), r.slots.entries.len());
        r.prune(1, 0, 0);
        traffic(&mut r, 20, 1);
        r.prune(2, 0, 0);
        traffic(&mut r, 20, 2);
        let baseline = capacity(&r); // two quiet generations
        assert_eq!(baseline, (capacity_for(40), capacity_for(40)));
        r.prune(3, 0, 0);
        traffic(&mut r, 20_000, 3); // the burst
        assert!(capacity(&r).0 >= 2 * 20_000);
        r.prune(4, 0, 0); // the burst is the old generation: still held
        traffic(&mut r, 20, 4);
        assert!(capacity(&r).0 >= 2 * 20_000);
        r.prune(5, 0, 0); // the burst is forgotten, and its memory with it
        traffic(&mut r, 20, 5);
        assert_eq!(capacity(&r), baseline);
        assert_eq!((r.ids.len, r.ids.current), (40, 20));
    }
}
