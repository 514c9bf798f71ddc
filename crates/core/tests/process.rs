//! The one loop both adapters run, with no sockets and no simulator: a
//! handful of [`Process`]es on an in-memory network that delivers every
//! send at once, deduplicating gossip by message id as a relay view
//! would.
//!
//! * catch-up is point to point: a response goes to its requester alone,
//!   and neither a request nor a response is ever forwarded;
//! * the WAL cursor hands out each final round once, in order, and never
//!   a tentative one;
//! * blocksync is the one catch-up trigger: it asks the most advanced
//!   peer once per cooldown, spends each announced tip on one request,
//!   and a stalled node with no peer ahead asks no one;
//! * a recovery that abandons a fork puts the fork's payments back in the
//!   pool;
//! * the timeout-escalation counter never goes down, whichever route a
//!   round's BA⋆ engine leaves by;
//! * canonical timestamps are judged by chain position, not by a clock:
//!   processes up for more than `max_timestamp_skew` still commit
//!   proposed blocks.

use algorand_ba::SECOND;
use algorand_core::process::{REQUEST_COOLDOWN, STATUS_TICK};
use algorand_core::wire::CatchupBatch;
use algorand_core::{Effect, Node, PeerId, PipelineVerifier, Process, WireMessage};
use algorand_crypto::Keypair;
use algorand_ledger::{Blockchain, Transaction};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

mod common;
use common::{certify, next_block, params, users, History, NOW, STAKE};

/// `rounds` rounds of certified history over `kps`' genesis.
fn history(kps: &[Keypair], rounds: u64) -> History {
    let p = params(kps);
    let mut chain = p.genesis(kps, STAKE);
    let mut out = Vec::new();
    for r in 1..=rounds {
        let block = next_block(&chain, &kps[(r % kps.len() as u64) as usize], NOW + r);
        let cert = certify(&chain, kps, &block);
        chain
            .append(block.clone(), Some(cert.clone()), false, NOW)
            .unwrap();
        out.push((block, cert));
    }
    out
}

/// A fresh-logged process for `kp` over genesis plus `entries`, of which
/// rounds up to `final_through` are final.
fn process(kps: &[Keypair], kp: &Keypair, entries: &History, final_through: u64) -> Process {
    let p = params(kps);
    let mut chain: Blockchain = p.genesis(kps, STAKE);
    for (block, cert) in entries {
        chain
            .append(block.clone(), Some(cert.clone()), false, NOW)
            .unwrap();
    }
    chain.finalize(final_through);
    let verifier = Arc::new(PipelineVerifier::new());
    Process::new(Node::new(kp.clone(), chain, p, verifier), 0)
}

fn sends_to(effects: &[Effect]) -> Vec<(PeerId, &WireMessage)> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::SendTo(peer, msg) => Some((*peer, msg)),
            _ => None,
        })
        .collect()
}

fn forwards(effects: &[Effect]) -> bool {
    effects.iter().any(|e| matches!(e, Effect::Forward { .. }))
}

#[test]
fn a_catchup_response_goes_only_to_its_requester_and_nothing_of_catchup_is_forwarded() {
    let kps = users(4);
    let observer = Keypair::from_seed([77u8; 32]);
    let entries = history(&kps, 3);
    let mut server = process(&kps, &observer, &entries, 3);
    let mut lagging = process(&kps, &observer, &[].to_vec(), 0);

    // Peer 7 asks for what follows genesis, and only peer 7 hears back.
    let request = WireMessage::CatchupRequest {
        have: 0,
        tip_hash: lagging.node().chain().tip_hash(),
    };
    let effects = server.on_message(7, &request, true, NOW);
    assert!(!forwards(&effects), "a catch-up request is never forwarded");
    assert!(!effects.iter().any(|e| matches!(e, Effect::Broadcast(_))));
    let sends = sends_to(&effects);
    assert_eq!(sends.len(), 1, "{effects:?}");
    let (peer, response) = sends[0];
    assert_eq!(peer, 7);
    assert!(matches!(response, WireMessage::CatchupResponse(_)));

    // The requester applies it and does not pass it on either.
    let effects = lagging.on_message(3, response, true, NOW);
    assert!(
        !forwards(&effects),
        "a catch-up response is never forwarded"
    );
    assert_eq!(lagging.node().chain().tip().round, 3);

    // Gossip, by contrast, goes on to everyone but its sender — when the
    // relay rules allow it.
    let pay = WireMessage::Transaction(Transaction::payment(&kps[0], kps[1].pk, 5, 1));
    let effects = server.on_message(2, &pay, true, NOW);
    assert!(matches!(effects[..], [Effect::Forward { exclude: 2 }, ..]));
    let pay = WireMessage::Transaction(Transaction::payment(&kps[0], kps[1].pk, 6, 2));
    assert!(!forwards(&server.on_message(2, &pay, false, NOW)));
}

/// Whether `effect` sends a catch-up request, to anyone.
fn is_request(effect: &Effect) -> bool {
    matches!(
        effect,
        Effect::Broadcast(WireMessage::CatchupRequest { .. })
            | Effect::SendTo(_, WireMessage::CatchupRequest { .. })
    )
}

/// An in-memory network of processes: every send arrives at once, each
/// process drops gossip it has seen by id, and time jumps to the next
/// deadline whenever nothing is in flight.
struct Cluster {
    procs: Vec<Process>,
    seen: Vec<HashSet<[u8; 32]>>,
    /// `(from, to, message)` in flight.
    wire: VecDeque<(usize, usize, WireMessage)>,
    now: u64,
    /// Per process, every `AppendFinal` it emitted and whether the round
    /// was final when it did.
    appended: Vec<Vec<(u64, bool)>>,
    /// Per process, the last tip it announced.
    announced: Vec<Option<u64>>,
    /// Every catch-up request sent point to point: `(from, to, have, the
    /// tip `to` had last announced)`.
    requests: Vec<(usize, usize, u64, Option<u64>)>,
    /// Catch-up requests sent to every peer.
    broadcast_requests: usize,
}

impl Cluster {
    fn new(procs: Vec<Process>) -> Cluster {
        let n = procs.len();
        Cluster {
            procs,
            seen: vec![HashSet::new(); n],
            wire: VecDeque::new(),
            now: NOW,
            appended: vec![Vec::new(); n],
            announced: vec![None; n],
            requests: Vec::new(),
            broadcast_requests: 0,
        }
    }

    fn apply(&mut self, from: usize, effects: Vec<Effect>, delivered: Option<&WireMessage>) {
        let n = self.procs.len();
        for effect in effects {
            match effect {
                Effect::Broadcast(msg) => {
                    if matches!(msg, WireMessage::CatchupRequest { .. }) {
                        self.broadcast_requests += 1;
                    }
                    self.seen[from].insert(msg.message_id());
                    for to in (0..n).filter(|&to| to != from) {
                        self.wire.push_back((from, to, msg.clone()));
                    }
                }
                Effect::Forward { exclude } => {
                    let msg = delivered.expect("a forward follows a delivery");
                    for to in (0..n).filter(|&to| to != from && to as PeerId != exclude) {
                        self.wire.push_back((from, to, msg.clone()));
                    }
                }
                Effect::SendTo(to, msg) => {
                    let to = to as usize;
                    if let WireMessage::CatchupRequest { have, .. } = msg {
                        self.requests.push((from, to, have, self.announced[to]));
                    }
                    self.wire.push_back((from, to, msg));
                }
                Effect::AppendFinal(r) => {
                    let final_now = self.procs[from].node().chain().is_finalized(r);
                    self.appended[from].push((r, final_now));
                }
                Effect::AnnounceTip(tip) => {
                    self.announced[from] = Some(tip);
                    for to in (0..n).filter(|&to| to != from) {
                        self.procs[to].on_status(from as PeerId, tip);
                    }
                }
            }
        }
    }

    fn start(&mut self) {
        for i in 0..self.procs.len() {
            let effects = self.procs[i].start(self.now);
            self.apply(i, effects, None);
        }
    }

    /// Runs until every process's tip reaches `round`, or a virtual
    /// minute passes.
    fn run_to(&mut self, round: u64) {
        let cap = self.now + 60_000_000;
        while self
            .procs
            .iter()
            .any(|p| p.node().chain().tip().round < round)
        {
            assert!(self.now < cap, "the cluster stalled");
            if let Some((from, to, msg)) = self.wire.pop_front() {
                if msg.is_point_to_point() || self.seen[to].insert(msg.message_id()) {
                    let effects = self.procs[to].on_message(from as PeerId, &msg, true, self.now);
                    self.apply(to, effects, Some(&msg));
                }
                continue;
            }
            let next = self.procs.iter().map(Process::next_deadline).min();
            self.now = next.expect("a process").max(self.now);
            for i in 0..self.procs.len() {
                if self.procs[i].next_deadline() <= self.now {
                    let effects = self.procs[i].on_tick(self.now);
                    self.apply(i, effects, None);
                }
            }
        }
    }
}

#[test]
fn append_final_names_each_final_round_once_in_order_and_no_tentative_one() {
    // Round 1 is final; rounds 2 and 3 are tentative, as on a node that
    // has not seen a final round since.
    let kps = users(4);
    let entries = history(&kps, 3);
    let procs = kps
        .iter()
        .map(|kp| process(&kps, kp, &entries, 1))
        .collect();
    let mut cluster = Cluster::new(procs);
    cluster.start();
    for (i, log) in cluster.appended.iter().enumerate() {
        assert_eq!(log, &[(1, true)], "process {i} at start");
    }

    // Agreeing on round 4 finalizes it, and with it rounds 2 and 3.
    cluster.run_to(4);
    for (i, log) in cluster.appended.iter().enumerate() {
        let chain = cluster.procs[i].node().chain();
        let want: Vec<(u64, bool)> = (1..=chain.tip().round)
            .take_while(|&r| chain.is_finalized(r))
            .map(|r| (r, true))
            .collect();
        assert!(chain.is_finalized(4), "process {i}: round 4 was final");
        assert_eq!(log, &want, "process {i}");
        assert_eq!(cluster.procs[i].walled_through(), want.len() as u64);
    }

    // What a log fed those effects holds is what a restart reads back.
    let p = &cluster.procs[0];
    let restored = Node::restore(
        kps[0].clone(),
        params(&kps).genesis(&kps, STAKE),
        params(&kps),
        Arc::new(PipelineVerifier::new()),
        &p.durable(),
        0,
    );
    assert_eq!(restored.chain().tip().round, p.walled_through());
    assert_eq!(
        restored.chain().tip_hash(),
        p.node()
            .chain()
            .block_at(p.walled_through())
            .unwrap()
            .hash()
    );
}

#[test]
fn blocksync_asks_the_most_advanced_peer_once_per_cooldown_and_each_tip_once() {
    let kps = users(4);
    let observer = Keypair::from_seed([77u8; 32]);
    let mut lagging = process(&kps, &observer, &[].to_vec(), 0);
    let effects = lagging.start(NOW);
    assert!(sends_to(&effects).is_empty(), "no peer is ahead yet");

    // Two peers tie at the highest tip: the lower id is asked, at once.
    lagging.on_status(9, 2);
    lagging.on_status(5, 3);
    lagging.on_status(4, 3);
    let ask = |effects: &[Effect]| -> Vec<PeerId> {
        sends_to(effects)
            .into_iter()
            .map(|(peer, msg)| {
                assert!(matches!(msg, WireMessage::CatchupRequest { have: 0, .. }));
                peer
            })
            .collect()
    };
    let t = NOW + 1;
    assert!(lagging.next_deadline() <= t, "ready to ask");
    assert_eq!(ask(&lagging.on_tick(t)), [4]);
    // Within the cooldown nothing more goes out, and the next deadline
    // says when it may.
    assert_eq!(ask(&lagging.on_tick(t + 1)), Vec::<PeerId>::new());
    assert!(lagging.next_deadline() <= t + REQUEST_COOLDOWN);
    // Asking spent peer 4's tip: the next requests go down the others.
    assert_eq!(ask(&lagging.on_tick(t + REQUEST_COOLDOWN)), [5]);
    assert_eq!(ask(&lagging.on_tick(t + 2 * REQUEST_COOLDOWN)), [9]);
    // Every tip spent: nothing more until a peer announces again.
    assert_eq!(
        ask(&lagging.on_tick(t + 3 * REQUEST_COOLDOWN)),
        Vec::<PeerId>::new()
    );
    lagging.on_status(4, 3);
    assert_eq!(ask(&lagging.on_tick(t + 4 * REQUEST_COOLDOWN)), [4]);
    assert_eq!(lagging.blocksync().requests_sent(), 4);

    // Caught up: the response lands and the asking stops.
    let batch = WireMessage::CatchupResponse(CatchupBatch {
        entries: history(&kps, 3),
    });
    lagging.on_message(4, &batch, true, t + 4 * REQUEST_COOLDOWN);
    lagging.on_status(4, 3);
    lagging.on_status(5, 3);
    assert_eq!(
        ask(&lagging.on_tick(t + 6 * REQUEST_COOLDOWN)),
        Vec::<PeerId>::new()
    );
}

#[test]
fn a_node_rounds_behind_asks_only_a_peer_that_announced_a_tip_ahead() {
    // Four users agreed on rounds 1-3; an observer starts at genesis.
    let kps = users(4);
    let entries = history(&kps, 3);
    let mut procs: Vec<Process> = kps
        .iter()
        .map(|kp| process(&kps, kp, &entries, 3))
        .collect();
    let observer = Keypair::from_seed([77u8; 32]);
    procs.push(process(&kps, &observer, &[].to_vec(), 0));
    let mut cluster = Cluster::new(procs);
    cluster.start();
    cluster.run_to(5);

    let lagging = &cluster.procs[4];
    assert!(lagging.node().recovery_stats().catchups_applied >= 3);
    assert_eq!(cluster.broadcast_requests, 0, "a request went to everyone");
    assert!(cluster.requests.iter().any(|&(from, ..)| from == 4));
    for &(from, to, have, announced) in &cluster.requests {
        assert!(
            announced.is_some_and(|tip| tip > have),
            "process {from} asked {to} from round {have}, which announced {announced:?}"
        );
    }
}

#[test]
fn a_stalled_node_with_no_peer_ahead_asks_for_nothing() {
    // One user of four cannot reach any threshold alone: its round never
    // ends. Past half a recovery interval without progress — where a
    // liveness watchdog would fire — it still asks no one, since every
    // peer announces the tip it has.
    let kps = users(4);
    let mut p = params(&kps);
    p.recovery_interval = 20_000_000;
    let chain = p.genesis(&kps, STAKE);
    let node = Node::new(kps[0].clone(), chain, p, Arc::new(PipelineVerifier::new()));
    let mut lone = Process::new(node, 0);
    let mut effects = lone.start(NOW);
    let mut now = NOW;
    while now <= NOW + p.recovery_interval {
        for peer in 1..4 {
            lone.on_status(peer, 0);
        }
        now = lone.next_deadline().max(now + 1);
        effects.extend(lone.on_tick(now));
    }
    assert_eq!(lone.node().chain().tip_round(), 0, "the round never ended");
    let asks: Vec<&Effect> = effects.iter().filter(|e| is_request(e)).collect();
    assert!(asks.is_empty(), "{asks:?}");
}

#[test]
fn a_catchup_that_restarts_the_round_keeps_its_timeout_escalations() {
    // One user of four times out every BA⋆ step of round 1; a catch-up
    // batch then lands and restarts the node at round 4, dropping the
    // round's engine without completing it.
    let kps = users(4);
    let mut lone = process(&kps, &kps[0], &[].to_vec(), 0);
    lone.start(NOW);
    let mut now = NOW;
    let escalations = |p: &Process| p.node().recovery_stats().timeout_escalations;
    while escalations(&lone) < 2 {
        assert!(now < NOW + 600_000_000, "no step timed out");
        now = lone.next_deadline().max(now + 1);
        lone.on_tick(now);
    }
    let before = escalations(&lone);
    let batch = WireMessage::CatchupResponse(CatchupBatch {
        entries: history(&kps, 3),
    });
    lone.on_message(1, &batch, true, now);
    assert_eq!(lone.node().chain().tip_round(), 3, "the batch applied");
    assert_eq!(escalations(&lone), before, "the counter went down");
}

#[test]
fn a_peer_announcing_a_tip_it_never_serves_does_not_starve_an_honest_one() {
    const LIAR: PeerId = 1;
    const HONEST: PeerId = 2;
    const LAGGING: PeerId = 3;
    let kps = users(4);
    let observer = Keypair::from_seed([77u8; 32]);
    let mut server = process(&kps, &observer, &history(&kps, 3), 3);
    let mut lagging = process(&kps, &observer, &[].to_vec(), 0);
    lagging.start(NOW);

    // Both peers announce at the STATUS cadence; the liar never answers.
    let mut asked = Vec::new();
    let mut now = NOW;
    while lagging.node().chain().tip_round() < 3 {
        assert!(now < NOW + 10 * STATUS_TICK, "starved: asked {asked:?}");
        if (now - NOW).is_multiple_of(STATUS_TICK) {
            lagging.on_status(LIAR, u64::MAX);
            lagging.on_status(HONEST, 3);
        }
        for (peer, request) in sends_to(&lagging.on_tick(now)) {
            asked.push(peer);
            if peer == HONEST {
                for (to, response) in sends_to(&server.on_message(LAGGING, request, true, now)) {
                    assert_eq!(to, LAGGING);
                    lagging.on_message(HONEST, response, true, now);
                }
            }
        }
        now += STATUS_TICK / 5;
    }
    assert_eq!(asked[0], LIAR, "the higher tip is asked first");
    assert!(asked.contains(&HONEST));
}

#[test]
fn a_recovery_onto_the_other_fork_puts_the_abandoned_payment_back() {
    // Two users adopted one certified round-1 block, two a rival one, and
    // all four hold both: each half has half the stake, so no round-2 vote
    // reaches a threshold and only recovery (§8.2) can pick a fork. Both
    // blocks are newer than the recovery cutoff, so every node draws the
    // same recovery seed from genesis.
    let kps = users(4);
    let mut p = params(&kps);
    p.recovery_interval = 5_000_000;
    let genesis = p.genesis(&kps, STAKE);
    let pays = [
        Transaction::payment(&kps[0], kps[2].pk, 10, 1),
        Transaction::payment(&kps[1], kps[3].pk, 10, 1),
    ];
    let rivals: Vec<_> = pays
        .iter()
        .enumerate()
        .map(|(i, pay)| {
            let mut block = next_block(&genesis, &kps[i], NOW + p.recovery_interval);
            block.txs = vec![pay.clone()];
            let cert = certify(&genesis, &kps, &block);
            (block, cert)
        })
        .collect();
    let procs = kps
        .iter()
        .enumerate()
        .map(|(i, kp)| {
            let (ours, theirs) = (&rivals[i % 2], &rivals[1 - i % 2]);
            // Theirs is known, certified, and rolled back; ours is the tip.
            let mut chain = p.genesis(&kps, STAKE);
            chain
                .append(theirs.0.clone(), Some(theirs.1.clone()), false, NOW)
                .unwrap();
            chain.rollback_to(0).unwrap();
            chain
                .append(ours.0.clone(), Some(ours.1.clone()), false, NOW)
                .unwrap();
            let verifier = Arc::new(PipelineVerifier::new());
            Process::new(Node::new(kp.clone(), chain, p, verifier), 0)
        })
        .collect();
    let mut cluster = Cluster::new(procs);
    cluster.start();
    cluster.run_to(2);

    let adopted = cluster.procs[0].node().chain().block_at(1).unwrap().hash();
    let lost = if adopted == rivals[0].0.hash() {
        &pays[1]
    } else {
        &pays[0]
    };
    for (i, proc) in cluster.procs.iter().enumerate() {
        let node = proc.node();
        let stats = node.recovery_stats();
        assert_eq!(stats.recoveries_completed, 1, "process {i}");
        assert_eq!(stats.catchup_reorgs, 0, "process {i}");
        assert_eq!(node.chain().block_at(1).unwrap().hash(), adopted);
    }
    // The losing half put its abandoned payment back in the pool, so it
    // is proposed again until some round commits it.
    let confirmed = |cluster: &Cluster| {
        cluster
            .procs
            .iter()
            .all(|proc| proc.node().chain().confirmed_round(&lost.id()).is_some())
    };
    assert!(
        (3..=12).any(|round| {
            cluster.run_to(round);
            confirmed(&cluster)
        }),
        "the abandoned payment was never committed"
    );
}

#[test]
fn canonical_stamps_commit_after_an_hour_of_uptime() {
    // A real node's clock counts from its start, and its proposers stamp
    // `prev + 1` µs. Past `max_timestamp_skew` (an hour) of uptime no
    // clock window holds such a stamp; the chain position still does.
    let kps = users(4);
    let mut p = params(&kps);
    p.chain.canonical_timestamps = true;
    let procs = kps
        .iter()
        .map(|kp| {
            let verifier = Arc::new(PipelineVerifier::new());
            Process::new(
                Node::new(kp.clone(), p.genesis(&kps, STAKE), p, verifier),
                0,
            )
        })
        .collect();
    let mut cluster = Cluster::new(procs);
    cluster.now = 3_601 * SECOND;
    assert!(cluster.now > p.chain.max_timestamp_skew);
    cluster.start();
    cluster.run_to(2);
    for (i, proc) in cluster.procs.iter().enumerate() {
        let chain = proc.node().chain();
        for r in 1..=2 {
            let block = chain.block_at(r).expect("an agreed round");
            assert!(
                !block.is_empty_block(),
                "process {i}: round {r} fell back to the empty block"
            );
            assert_eq!(block.timestamp, r, "process {i}: round {r}'s stamp");
        }
    }
}
