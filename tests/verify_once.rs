//! A payment's signature is checked once per body that holds it.
//!
//! The verdict lives in the payment's immutable shared body and a body is
//! checked at most once, so the signature checks a process spends on a
//! payment are the distinct bodies of it that carry a verdict. In the
//! simulator one body travels from the injector through every pool, the
//! proposal and all N chains: one check. A real node decodes the gossiped
//! copy and, later, the block's copy: two.
//!
//! A vote's body is shared the same way — it remembers its id, though not
//! a verdict (that depends on the context it is checked in) — so the
//! simulator holds one body per vote however many tallies, certificates
//! and chains keep it.

use algorand::crypto::codec::Reader;
use algorand::crypto::Keypair;
use algorand::ledger::seed::propose_seed;
use algorand::ledger::{Block, Blockchain, ChainParams, Transaction};
use algorand::sim::{SimConfig, Simulation};
use algorand::txpool::TxPool;
use std::collections::hash_map::{Entry, HashMap};

const T_CAP: u64 = 30 * 60 * 1_000_000;

#[test]
fn a_simulated_payment_is_checked_once_for_the_whole_process() {
    let n = 8;
    let mut cfg = SimConfig::new(n);
    cfg.stake_per_user = 50;
    cfg.tx_rate = 10.0;
    cfg.tx_total = 12;
    cfg.seed = 19;
    let mut sim = Simulation::new(cfg);
    sim.run_rounds(6, T_CAP);
    let stats = sim.tx_stats().expect("workload ran");
    assert_eq!(stats.committed, 12, "every payment committed");

    let reference = sim.honest_node(0).chain();
    let mut committed = 0;
    for round in 1..=reference.tip().round {
        let block = reference.block_at(round).expect("canonical");
        for (i, tx) in block.txs.iter().enumerate() {
            committed += 1;
            assert_eq!(tx.verdict(), Some(true), "round {round} payment {i}");
            for node in 1..n {
                let theirs = &sim.honest_node(node).chain().block_at(round).unwrap().txs[i];
                assert!(
                    theirs.same_body(tx),
                    "node {node} holds its own copy of round {round} payment {i}: \
                     a second body is a second signature check"
                );
            }
        }
    }
    assert_eq!(committed, 12);
}

#[test]
fn a_simulated_vote_is_one_body_in_every_chain() {
    let n = 10;
    let mut cfg = SimConfig::new(n);
    cfg.stake_per_user = 50;
    cfg.seed = 19;
    let mut sim = Simulation::new(cfg);
    sim.run_rounds(1, T_CAP);

    // Each node assembled its round-1 certificate from its own tally, fed
    // by its own deliveries; a vote two of them both picked must still be
    // the body the voter signed, not per-node copies of it.
    let mut first_holder = HashMap::new();
    let mut shared = 0;
    for node in 0..n {
        let chain = sim.honest_node(node).chain();
        let cert = chain.certificate_at(1).expect("round 1 certified");
        for v in &cert.votes {
            match first_holder.entry(v.message_id()) {
                Entry::Vacant(e) => {
                    e.insert(v);
                }
                Entry::Occupied(e) => {
                    assert!(
                        e.get().same_body(v),
                        "node {node} holds its own copy of a vote: a second body \
                         is a second hash of it, and 464 bytes per holder"
                    );
                    shared += 1;
                }
            }
        }
    }
    assert!(shared > 0, "no two certificates share a vote");
}

#[test]
fn a_real_node_checks_a_payment_twice() {
    let alice = Keypair::from_seed([1u8; 32]);
    let bob = Keypair::from_seed([2u8; 32]);
    let params = ChainParams::paper();
    let mut chain = Blockchain::new(params, [(alice.pk, 100), (bob.pk, 100)], [7u8; 32]);
    let mut pool = TxPool::default();
    let now = 1_000_000;

    // Gossip delivers bytes: the decoded copy knows nothing of the
    // sender's own check.
    let sent = Transaction::payment(&alice, bob.pk, 30, 1);
    assert!(sent.signature_valid());
    let gossiped = Transaction::decode(&mut Reader::new(&sent.encoded())).unwrap();
    assert_eq!(gossiped.verdict(), None);
    pool.admit(gossiped.clone(), chain.accounts()).unwrap();
    assert_eq!(gossiped.verdict(), Some(true), "first check: admission");

    // The proposal arrives as bytes too, so its payment is a fresh body.
    let (seed, proof) = propose_seed(&bob, &chain.tip().seed, 1);
    let proposed = Block {
        round: 1,
        prev_hash: chain.tip_hash(),
        seed,
        seed_proof: Some(proof),
        proposer: Some(bob.pk),
        timestamp: now,
        txs: vec![sent],
        payload: Vec::new(),
    };
    let received = Block::decode(&mut Reader::new(&proposed.encoded())).unwrap();
    let in_block = received.txs[0].clone();
    assert!(!in_block.same_body(&gossiped));
    assert_eq!(in_block.verdict(), None);
    received
        .validate(
            chain.tip(),
            chain.accounts(),
            now,
            params.max_timestamp_skew,
        )
        .unwrap();
    assert_eq!(in_block.verdict(), Some(true), "second check: validation");

    // Appending validates again and finds the verdict already there: the
    // chain keeps the body validation checked, and no third one exists.
    chain.append(received, None, false, now).unwrap();
    let appended = &chain.block_at(1).unwrap().txs[0];
    assert!(appended.same_body(&in_block));
    pool.prune(chain.accounts());
    assert!(pool.is_empty());
}
