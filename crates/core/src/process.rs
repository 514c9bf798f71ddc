//! One node process, sans I/O: every protocol decision made
//! around a [`Node`].
//!
//! A [`Process`] owns the node, [`Blocksync`], the STATUS cadence and
//! the WAL cursor. Its inputs are what reaches a process from outside —
//! a delivered message, a peer's STATUS tip, the passage of time — and
//! its outputs are [`Effect`]s, which say *what* to send, to whom, and
//! what to make durable; how is the adapter's business. Two adapters run
//! it unmodified: `node::runtime` over TCP sockets, a WAL file and the
//! wall clock, and `sim::des` over a simulated network and virtual time.
//!
//! What stays with each adapter is relay classification, the first step
//! on every gossip delivery: the adapter asks its `RelayState` whether a
//! message is a duplicate before handing it here, and passes whether the
//! relay rules allow forwarding it as `may_forward` (`algorand-gossip`'s
//! module doc says why it comes first). Catch-up
//! ([`WireMessage::is_point_to_point`]) skips that step: it is never
//! forwarded, so there is nothing to dedup, and every request is answered.
//!
//! Blocksync is the one catch-up trigger: the node itself never asks for
//! history, and [`Process`] asks only a peer whose STATUS tip is ahead.
//!
//! Routing, in one place:
//!
//! * what the node emits on its own (proposals, votes, fork proposals)
//!   goes to every peer: [`Effect::Broadcast`];
//! * a delivered message the node judged worth relaying goes on to every
//!   peer but its sender: [`Effect::Forward`] — never a catch-up request
//!   or response, which are point to point;
//! * a catch-up response goes back to the requester alone, and
//!   blocksync's request to the one peer it chose: [`Effect::SendTo`];
//! * every newly final round, once, in order: [`Effect::AppendFinal`];
//! * the tip, every [`STATUS_TICK`]: [`Effect::AnnounceTip`].

use crate::catchup::encode_entry;
use crate::node::Node;
use crate::wire::WireMessage;
use algorand_ba::{Certificate, Micros};
use algorand_ledger::Block;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// A peer as the adapter names it: a transport connection id, or a
/// simulated node's index.
pub type PeerId = u64;

/// How often a process announces its tip to its peers.
pub const STATUS_TICK: Micros = 500_000;

/// Minimum spacing between blocksync requests. Generous against a
/// localhost round-trip, small against the multi-second λ timeouts the
/// node is otherwise waiting on.
pub const REQUEST_COOLDOWN: Micros = 300_000;

/// What a [`Process`] asks its adapter to do.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // Moved once from process to adapter.
pub enum Effect {
    /// Send a message the node emitted to every peer, marking it seen.
    Broadcast(WireMessage),
    /// Send the message just delivered on to every peer but `exclude`,
    /// its sender.
    Forward {
        /// The peer the message came from.
        exclude: PeerId,
    },
    /// Send a message to one peer only.
    SendTo(PeerId, WireMessage),
    /// Round `r` is final: make it durable ([`Process::final_entry`]).
    AppendFinal(u64),
    /// Tell every peer our tip round (a STATUS frame).
    AnnounceTip(u64),
}

/// One node process: the protocol node plus what runs around it.
pub struct Process {
    node: Node,
    sync: Blocksync,
    next_status: Micros,
    /// Highest round handed out as [`Effect::AppendFinal`]: the end of
    /// the finalized prefix the durable log holds.
    walled_through: u64,
}

impl Process {
    /// Wraps `node`, whose durable log already holds rounds
    /// `1..=walled_through` (0 for a fresh node; a restored node's tip).
    pub fn new(node: Node, walled_through: u64) -> Process {
        Process {
            node,
            sync: Blocksync::default(),
            next_status: 0,
            walled_through,
        }
    }

    /// The protocol node.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// The protocol node, mutably (preloading a pool, submitting a
    /// transaction).
    pub fn node_mut(&mut self) -> &mut Node {
        &mut self.node
    }

    /// Blocksync's state and counters.
    pub fn blocksync(&self) -> &Blocksync {
        &self.sync
    }

    /// The last round handed out as [`Effect::AppendFinal`].
    pub fn walled_through(&self) -> u64 {
        self.walled_through
    }

    /// The block and certificate of final round `r`, to make durable.
    ///
    /// # Panics
    ///
    /// If `r` is not final on this node's chain.
    pub fn final_entry(&self, r: u64) -> (&Block, &Certificate) {
        let chain = self.node.chain();
        assert!(chain.is_finalized(r), "round {r} is not final");
        let block = chain.block_at(r).expect("a final round has its block");
        (block, chain.certificate_at(r).expect("and its certificate"))
    }

    /// The bytes a log fed every [`Effect::AppendFinal`] so far holds:
    /// [`encode_entry`] of rounds `1..=walled_through`, what
    /// [`Node::restore`] reads back.
    pub fn durable(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for r in 1..=self.walled_through {
            let (block, cert) = self.final_entry(r);
            encode_entry(block, cert, &mut out);
        }
        out
    }

    /// Starts the node's first round and announces the tip.
    pub fn start(&mut self, now: Micros) -> Vec<Effect> {
        let mut effects = broadcast(self.node.start(now));
        self.timers(now, &mut effects);
        effects
    }

    /// Delivers `msg` from `from`. `may_forward` is the adapter's relay
    /// classification: false when the one-message-per-key rule holds the
    /// message back (a duplicate never gets here). A point-to-point
    /// message arrives unclassified and is never forwarded.
    pub fn on_message(
        &mut self,
        from: PeerId,
        msg: &WireMessage,
        may_forward: bool,
        now: Micros,
    ) -> Vec<Effect> {
        let delivery = self.node.on_message(msg, now);
        let mut effects = Vec::with_capacity(delivery.outputs.len() + 1);
        if may_forward && delivery.relay && !msg.is_point_to_point() {
            effects.push(Effect::Forward { exclude: from });
        }
        for out in delivery.outputs {
            effects.push(match out {
                WireMessage::CatchupResponse(_) => Effect::SendTo(from, out),
                out => Effect::Broadcast(out),
            });
        }
        self.append_final(&mut effects);
        effects
    }

    /// Records a peer's STATUS announcement. Blocksync acts on it at the
    /// next [`Process::on_tick`], which [`Process::next_deadline`] brings
    /// forward when the tip is ahead of ours.
    pub fn on_status(&mut self, from: PeerId, tip: u64) {
        self.sync.tips.insert(from, tip);
    }

    /// Runs whatever is due at `now`: the node's own timers, the STATUS
    /// announcement, blocksync's request.
    pub fn on_tick(&mut self, now: Micros) -> Vec<Effect> {
        let mut effects = Vec::new();
        if self.node.next_deadline() <= now {
            effects = broadcast(self.node.on_tick(now));
        }
        self.timers(now, &mut effects);
        effects
    }

    /// The next instant [`Process::on_tick`] has work: the earliest of
    /// the node's deadline, the next STATUS, and blocksync's next request
    /// (possibly already past) while a peer is ahead.
    pub fn next_deadline(&self) -> Micros {
        let tip = self.node.chain().tip_round();
        let sync = self.sync.next_request(tip, self.stalled_at());
        let own = self.node.next_deadline().min(self.next_status);
        sync.map_or(own, |d| d.min(own))
    }

    /// The WAL cursor, then STATUS and blocksync.
    fn timers(&mut self, now: Micros, effects: &mut Vec<Effect>) {
        self.append_final(effects);
        let tip = self.node.chain().tip_round();
        if now >= self.next_status {
            self.next_status = now + STATUS_TICK;
            effects.push(Effect::AnnounceTip(tip));
        }
        if let Some(peer) = self.sync.poll(tip, self.stalled_at(), now) {
            let request = WireMessage::CatchupRequest {
                have: tip,
                tip_hash: self.node.chain().tip_hash(),
            };
            effects.push(Effect::SendTo(peer, request));
        }
    }

    /// When the node's round counts as stuck: the relay stall horizon
    /// (4 λ_step) after its last progress.
    fn stalled_at(&self) -> Micros {
        self.node.last_progress + self.node.params().relay_stall_horizon()
    }

    /// Hands out every round that became final since the last call, in
    /// order: the node's durable state grows by them. A final block, or a
    /// predecessor of one, is never replaced (§8.2); a tentative one may
    /// be, so it waits until it, or a successor, is final. Volatile state
    /// — mempool, proposal race, buffered votes, BA⋆ progress, the
    /// tentative suffix — is never durable: a restarted node rebuilds it
    /// by rejoining.
    fn append_final(&mut self, effects: &mut Vec<Effect>) {
        let chain = self.node.chain();
        while self.walled_through < chain.tip_round() && chain.is_finalized(self.walled_through + 1)
        {
            self.walled_through += 1;
            effects.push(Effect::AppendFinal(self.walled_through));
        }
    }
}

/// What the node emitted on its own, for every peer.
fn broadcast(outputs: Vec<WireMessage>) -> Vec<Effect> {
    outputs.into_iter().map(Effect::Broadcast).collect()
}

/// Blocksync: fetching deep history in bounded catch-up batches.
///
/// Peers announce their tip in STATUS. When the best announced tip is
/// past ours, the process sends a §8.3 catch-up request to the most
/// advanced peer — the lowest id among equals, so a run is a function of
/// its inputs — and the [`crate::CatchupBatch`] machinery, bounded to a
/// few rounds per response with every certificate re-validated on
/// receipt, walks it forward. A cooldown keeps a deeply behind node from
/// asking faster than responses can land; each response advances the
/// tip, so the next request asks from further along.
///
/// An announced tip is good for one request: asking a peer spends its
/// tip until its next STATUS. A peer that announces a tip it never
/// serves — or whose connection died — is asked at most once per
/// announcement, and every other peer ahead is asked in between.
#[derive(Default)]
pub struct Blocksync {
    tips: BTreeMap<PeerId, u64>,
    last_request: Option<Micros>,
    requests_sent: u64,
}

impl Blocksync {
    /// The most advanced peer, lowest id first among equals, and its tip.
    fn best(&self) -> Option<(&PeerId, &u64)> {
        self.tips.iter().max_by_key(|&(&p, &t)| (t, Reverse(p)))
    }

    /// When the next request may go out, while some peer is past
    /// `local_tip` (0 if none has gone out yet and nothing holds it).
    ///
    /// One round ahead is where every node stands for a moment at each
    /// round's end, while its own BA⋆ is still concluding: fetching that
    /// round would adopt a block its own committee may yet reject — a
    /// tentative one, spread into the camp that was about to outvote it
    /// (`fork_minority_rejoin.repro`). So a one-round gap waits until
    /// `stalled_at`, when the node's own round counts as stuck, as a
    /// restarted node's is once the others have moved on without it. Two
    /// rounds ahead is a gap at once: the network certified our round.
    pub fn next_request(&self, local_tip: u64, stalled_at: Micros) -> Option<Micros> {
        let (_, &tip) = self.best()?;
        let ready = self.last_request.map_or(0, |t| t + REQUEST_COOLDOWN);
        match tip.checked_sub(local_tip)? {
            0 => None,
            1 => Some(ready.max(stalled_at)),
            _ => Some(ready),
        }
    }

    /// If we are behind and off cooldown, the peer to ask, whose tip the
    /// request spends; the caller sends it `CatchupRequest { have:
    /// local_tip, tip_hash }`.
    pub fn poll(&mut self, local_tip: u64, stalled_at: Micros, now: Micros) -> Option<PeerId> {
        if self.next_request(local_tip, stalled_at)? > now {
            return None;
        }
        let (&peer, _) = self.best()?;
        self.tips.remove(&peer);
        self.last_request = Some(now);
        self.requests_sent += 1;
        Some(peer)
    }

    /// Catch-up requests issued so far.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asks_most_advanced_peer_with_cooldown() {
        let mut bs = Blocksync::default();
        let t0 = 1_000_000;
        assert_eq!(bs.poll(0, 0, t0), None); // No peers known.
        assert_eq!(bs.next_request(0, 0), None);

        bs.tips.insert(1, 3);
        bs.tips.insert(2, 9);
        assert_eq!(bs.next_request(5, 0), Some(0), "ahead, never asked: now");
        assert_eq!(bs.poll(5, 0, t0), Some(2));
        // The request spent peer 2's tip, and peer 1 is behind us.
        assert_eq!(bs.next_request(5, 0), None);
        // Once peer 2 re-announces, cooldown suppresses an immediate repeat…
        bs.tips.insert(2, 9);
        assert_eq!(bs.next_request(5, 0), Some(t0 + REQUEST_COOLDOWN));
        assert_eq!(bs.poll(5, 0, t0 + 10_000), None);
        // …but not a request after it elapses.
        assert_eq!(bs.poll(5, 0, t0 + REQUEST_COOLDOWN), Some(2));
        // Caught up: nothing to ask.
        bs.tips.insert(2, 9);
        assert_eq!(bs.poll(9, 0, t0 + 2 * REQUEST_COOLDOWN), None);
        assert_eq!(bs.next_request(9, 0), None);
        assert_eq!(bs.requests_sent(), 2);
    }

    #[test]
    fn one_round_behind_waits_until_the_round_is_stuck() {
        let mut bs = Blocksync::default();
        bs.tips.insert(4, 6);
        let stalled_at = 16_000_000;
        assert_eq!(bs.next_request(5, stalled_at), Some(stalled_at));
        assert_eq!(bs.poll(5, stalled_at, stalled_at - 1), None);
        assert_eq!(bs.poll(5, stalled_at, stalled_at), Some(4));
        bs.tips.insert(4, 6);
        assert_eq!(
            bs.next_request(4, stalled_at),
            Some(stalled_at + REQUEST_COOLDOWN)
        );
    }

    #[test]
    fn ties_go_to_the_lowest_peer_id() {
        let mut bs = Blocksync::default();
        for peer in [40, 7, 19, 3, 88] {
            bs.tips.insert(peer, if peer == 88 { 2 } else { 5 });
        }
        assert_eq!(bs.poll(0, 0, 0), Some(3));
        assert_eq!(bs.poll(0, 0, REQUEST_COOLDOWN), Some(7));
    }
}
