//! Pollution resistance (§8.4): garbage and Sybil traffic must not break
//! consensus or trick vote counting.

use algorand_ba::{StepKind, VoteMessage};
use algorand_core::WireMessage;
use algorand_crypto::{vrf, Keypair};
use algorand_ledger::Transaction;
use algorand_sim::{SimConfig, Simulation};

const MINUTE: u64 = 60 * 1_000_000;

#[test]
fn zero_stake_sybil_votes_do_not_count() {
    // A Sybil with no currency signs protocol-valid-looking votes; every
    // honest node must ignore them (weight 0 ⇒ never selected), and
    // consensus must proceed exactly as without them.
    let n = 16;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 41;
    let mut sim = Simulation::new(cfg);

    // Craft Sybil votes for round 1 steps.
    let sybil = Keypair::from_seed([0xE1u8; 32]);
    let (sorthash, proof) = vrf::prove(&sybil, b"fake-selection");
    let mut fakes = Vec::new();
    for step in [
        StepKind::ReductionOne,
        StepKind::ReductionTwo,
        StepKind::Main(1),
        StepKind::Final,
    ] {
        fakes.push(VoteMessage::sign(
            &sybil,
            1,
            step,
            sorthash,
            proof,
            [0u8; 32], // Wrong prev hash too — but even a correct one has weight 0.
            [0x66u8; 32],
        ));
    }
    for (i, f) in fakes.into_iter().enumerate() {
        sim.inject_message(i % n, WireMessage::Vote(f));
    }

    sim.run_rounds(2, 20 * MINUTE);
    for i in 0..n {
        let chain = sim.honest_node(i).chain();
        assert!(chain.tip().round >= 2, "node {i} stalled");
        assert_ne!(
            chain.block_at(1).unwrap().hash(),
            [0x66u8; 32],
            "a Sybil-voted value must never win"
        );
        assert!(chain.is_finalized(1), "node {i} did not finalize");
    }
}

#[test]
fn forged_transactions_never_enter_blocks() {
    // A transaction whose `from` does not match the signer must never be
    // confirmed — even when submitted through every node.
    let n = 14;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 42;
    let mut sim = Simulation::new(cfg);
    let victim = sim.keypair(0).pk;
    let thief = Keypair::from_seed([0xE2u8; 32]);
    let signed = Transaction::payment(&thief, thief.pk, 10, 1);
    let forged =
        Transaction::from_parts(victim, signed.to, signed.amount, signed.nonce, signed.sig);
    let forged_id = forged.id();
    for i in 0..n {
        sim.submit_transaction(i, forged.clone());
    }
    sim.run_rounds(2, 20 * MINUTE);
    for i in 0..n {
        let chain = sim.honest_node(i).chain();
        assert_eq!(chain.confirmed_round(&forged_id), None, "node {i}");
        assert_eq!(chain.accounts().balance(&victim), 10, "victim balance");
    }
}

#[test]
fn duplicate_floods_do_not_amplify_traffic() {
    // Submitting the same transaction through every node must not multiply
    // gossip traffic: content-based dedup caps it at one propagation.
    let n = 12;
    let mut cfg = SimConfig::new(n);
    cfg.seed = 43;
    let mut sim = Simulation::new(cfg);
    let tx = Transaction::payment(sim.keypair(1), sim.keypair(2).pk, 1, 1);
    for _ in 0..50 {
        for i in 0..n {
            sim.submit_transaction(i, tx.clone());
        }
    }
    // Three rounds: with this seed, round 1 happens to draw zero block
    // proposers (an expected, paper-sanctioned occurrence — the round
    // agrees on the empty block) and the payment lands in a later round.
    sim.run_rounds(3, 10 * MINUTE);
    // Transaction traffic: at most ~n·degree copies of 144 bytes; far
    // below even one block's gossip. Check total traffic stayed sane.
    let total = sim.network().total_bytes_sent();
    assert!(
        total < 20_000_000,
        "flooding amplified traffic: {total} bytes"
    );
    let chain = sim.honest_node(3).chain();
    let round = chain.confirmed_round(&tx.id()).expect("confirmed");
    assert!(round <= 3);
}
