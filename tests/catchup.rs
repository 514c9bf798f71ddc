//! Regression tests for the catch-up protocol (§8.3).
//!
//! A lagging user requests `(block, certificate)` pairs from peers and
//! validates each certificate against its own chain context before
//! appending. These tests cover the adversarial and lossy cases: batches
//! mixing valid, stale, and non-consecutive entries; a forged
//! certificate in the middle of a batch; and partial application across
//! successive request/response exchanges when the server caps rounds per
//! response.

use algorand::ba::Certificate;
use algorand::core::wire::{CatchupBatch, WireMessage};
use algorand::core::{Node, PipelineVerifier};
use algorand::ledger::{Block, Blockchain};
use algorand::sim::{SimConfig, Simulation};
use std::sync::Arc;

const T_CAP: u64 = 30 * 60 * 1_000_000;

/// Runs a small network for `rounds` rounds and returns the simulation
/// plus the canonical `(block, certificate)` history from node 0.
fn history(rounds: u64) -> (Simulation, Vec<(Block, Certificate)>) {
    let mut cfg = SimConfig::new(16);
    cfg.seed = 33;
    let mut sim = Simulation::new(cfg);
    sim.run_rounds(rounds, T_CAP);
    let chain = sim.honest_node(0).chain();
    let entries: Vec<_> = (1..=chain.tip().round)
        .map(|r| {
            (
                chain.block_at(r).expect("canonical block").clone(),
                chain.certificate_at(r).expect("canonical cert").clone(),
            )
        })
        .collect();
    (sim, entries)
}

/// A fresh node at genesis sharing the simulation's allocation, so the
/// simulated history validates against its chain context.
fn fresh_node(sim: &Simulation) -> Node {
    let cfg = SimConfig::new(16);
    let alloc: Vec<_> = (0..16)
        .map(|i| (sim.keypair(i).pk, cfg.stake_per_user))
        .collect();
    let chain = Blockchain::new(cfg.params.chain, alloc.iter().copied(), [0x47u8; 32]);
    let mut node = Node::new(
        sim.keypair(0).clone(),
        chain,
        cfg.params,
        Arc::new(PipelineVerifier::new()),
    );
    node.start(0);
    node
}

fn respond(entries: &[(Block, Certificate)]) -> WireMessage {
    WireMessage::CatchupResponse(CatchupBatch {
        entries: entries.to_vec(),
    })
}

#[test]
fn mixed_valid_and_stale_entries_apply_the_valid_ones() {
    let (sim, entries) = history(5);
    assert!(entries.len() >= 5, "need a round beyond the applied prefix");
    let mut node = fresh_node(&sim);

    // First exchange brings the node to round 1.
    node.on_message(&respond(&entries[..1]), 1);
    assert_eq!(node.chain().tip().round, 1);

    // Second batch interleaves a stale round 1, the valid rounds 2 and 3,
    // and a non-consecutive future round: only 2 and 3 may apply.
    let mixed = vec![
        entries[0].clone(),                 // stale: already on chain
        entries[1].clone(),                 // valid: round 2
        entries[0].clone(),                 // stale again, mid-batch
        entries[2].clone(),                 // valid: round 3
        entries[entries.len() - 1].clone(), // gap: skips a round
    ];
    node.on_message(
        &WireMessage::CatchupResponse(CatchupBatch { entries: mixed }),
        2,
    );

    assert_eq!(node.chain().tip().round, 3, "valid prefix applied");
    assert_eq!(node.recovery_stats().catchups_applied, 3);
    let donor = sim.honest_node(0).chain();
    for r in 1..=3 {
        assert_eq!(
            node.chain().block_at(r).unwrap().hash(),
            donor.block_at(r).unwrap().hash(),
            "round {r} matches the donor chain"
        );
    }
}

#[test]
fn forged_certificate_mid_batch_stops_application() {
    let (sim, entries) = history(4);
    assert!(entries.len() >= 3);
    let mut node = fresh_node(&sim);

    // Forge round 2's certificate: strip its votes below the threshold.
    // The round/value fields still match the block, so the batch passes
    // the cheap consistency checks and fails only inside
    // `Certificate::validate`.
    let mut forged = entries[1].clone();
    forged.1.votes.truncate(1);

    let batch = vec![entries[0].clone(), forged, entries[2].clone()];
    node.on_message(
        &WireMessage::CatchupResponse(CatchupBatch { entries: batch }),
        1,
    );

    // The valid prefix lands; the forged entry aborts the rest — round 3
    // must NOT be appended even though its own certificate is genuine
    // (appending it would leave a hole in the chain).
    assert_eq!(node.chain().tip().round, 1, "application stops at forgery");
    assert_eq!(node.recovery_stats().catchups_applied, 1);

    // The same rounds re-served honestly still apply: the forgery did not
    // poison any state.
    node.on_message(&respond(&entries[1..3]), 2);
    assert_eq!(node.chain().tip().round, 3);
    assert_eq!(node.recovery_stats().catchups_applied, 3);
}

#[test]
fn partial_application_resumes_on_next_request() {
    // Enough history that one capped response cannot cover it.
    let (sim, entries) = history(7);
    let tip = entries.len() as u64;
    assert!(tip >= 6, "need more rounds than one response carries");

    // A server brought up to the full history via one (uncapped) apply.
    let mut server = fresh_node(&sim);
    server.on_message(&respond(&entries), 1);
    assert_eq!(server.chain().tip().round, tip);

    let mut behind = fresh_node(&sim);
    let mut exchanges = 0;
    while behind.chain().tip().round < tip {
        let have = behind.chain().tip().round;
        let tip_hash = behind.chain().tip_hash();
        let out = server.on_message(&WireMessage::CatchupRequest { have, tip_hash }, 2);
        let response = out
            .outputs
            .iter()
            .find(|m| matches!(m, WireMessage::CatchupResponse(_)))
            .expect("server behind a request must respond");
        if let WireMessage::CatchupResponse(b) = response {
            assert!(b.entries.len() <= 4, "responses are capped to a few rounds");
            assert_eq!(
                b.entries[0].0.round,
                have + 1,
                "each response resumes at the requester's next round"
            );
        }
        behind.on_message(response, 3);
        assert!(
            behind.chain().tip().round > have,
            "every exchange makes progress"
        );
        exchanges += 1;
    }
    assert!(exchanges >= 2, "catch-up took multiple request cycles");
    assert_eq!(behind.recovery_stats().catchups_applied, tip);
    assert_eq!(
        behind.chain().tip_hash(),
        sim.honest_node(0).chain().tip_hash(),
        "caught-up chain converges with the network"
    );
}

#[test]
fn tentative_fork_reorgs_onto_longer_certified_chain() {
    // §8.2: a partition can leave a minority tentatively holding a round-2
    // block the rest of the network never adopted. The minority's catch-up
    // request advertises its tip hash; the server spots the mismatch,
    // serves from the disputed round, and the minority rolls its tentative
    // suffix back to adopt the longer certified chain.
    let (sim, entries) = history(4);
    assert!(entries.len() >= 4);

    // Victim chain: the canonical round 1, then a *divergent* tentative
    // round 2 (a competing proposal the majority never certified).
    let cfg = SimConfig::new(16);
    let alloc: Vec<_> = (0..16)
        .map(|i| (sim.keypair(i).pk, cfg.stake_per_user))
        .collect();
    let mut chain = Blockchain::new(cfg.params.chain, alloc.iter().copied(), [0x47u8; 32]);
    let canon_ts = entries[0].0.timestamp;
    chain
        .append(
            entries[0].0.clone(),
            Some(entries[0].1.clone()),
            false,
            canon_ts,
        )
        .unwrap();
    let proposer = sim.keypair(3);
    let prev = chain.tip().clone();
    let (seed, proof) = algorand::ledger::seed::propose_seed(proposer, &prev.seed, 2);
    let divergent = Block {
        round: 2,
        prev_hash: prev.hash(),
        seed,
        seed_proof: Some(proof),
        proposer: Some(proposer.pk),
        timestamp: entries[1].0.timestamp,
        txs: Vec::new(),
        payload: Vec::new(),
    };
    assert_ne!(divergent.hash(), entries[1].0.hash());
    chain
        .append(divergent, None, false, entries[1].0.timestamp)
        .unwrap();
    let mut victim = Node::new(
        sim.keypair(0).clone(),
        chain,
        cfg.params,
        Arc::new(PipelineVerifier::new()),
    );
    victim.start(0);
    assert_eq!(victim.chain().tip().round, 2);

    // A server on the canonical chain sees the hash mismatch and serves
    // from the disputed round instead of round 3.
    let mut server = fresh_node(&sim);
    server.on_message(&respond(&entries), 1);
    let out = server.on_message(
        &WireMessage::CatchupRequest {
            have: 2,
            tip_hash: victim.chain().tip_hash(),
        },
        2,
    );
    let response = out
        .outputs
        .iter()
        .find(|m| matches!(m, WireMessage::CatchupResponse(_)))
        .expect("a forked requester must get a repair batch");
    if let WireMessage::CatchupResponse(b) = response {
        assert_eq!(
            b.entries[0].0.round, 2,
            "repair batches start at the disputed round"
        );
    }

    victim.on_message(response, 3);
    assert_eq!(
        victim.recovery_stats().catchup_reorgs,
        1,
        "the tentative fork was rolled back"
    );
    assert_eq!(victim.chain().tip().round, entries.len() as u64);
    assert_eq!(
        victim.chain().tip_hash(),
        sim.honest_node(0).chain().tip_hash(),
        "the victim converges onto the certified majority chain"
    );

    // An equal-length chain must never displace ours: re-serving only the
    // already-held rounds cannot reorg again (no ping-pong between forks).
    victim.on_message(&respond(&entries), 4);
    assert_eq!(victim.recovery_stats().catchup_reorgs, 1);
}
