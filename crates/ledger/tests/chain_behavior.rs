//! Chain-store behaviour: appends, finality, forks, bootstrap, sharding.

use algorand_ba::{BaParams, Certificate, RealVerifier, StepKind, VoteMessage, SECOND};
use algorand_crypto::Keypair;
use algorand_ledger::seed::propose_seed;
use algorand_ledger::{Block, BlockError, Blockchain, ChainError, ChainParams, Transaction};
use algorand_sortition::{select, Role, SortitionParams};

const GENESIS_SEED: [u8; 32] = [3u8; 32];
const NOW: u64 = 1_000_000;
const HOUR: u64 = 3_600_000_000;

fn kp(seed: u8) -> Keypair {
    Keypair::from_seed([seed; 32])
}

fn users(n: usize) -> Vec<Keypair> {
    (0..n).map(|i| kp(i as u8 + 1)).collect()
}

fn params() -> ChainParams {
    ChainParams {
        seed_refresh_interval: 5,
        weight_lookback: 2,
        max_timestamp_skew: HOUR,
    }
}

fn new_chain(keypairs: &[Keypair]) -> Blockchain {
    Blockchain::new(
        params(),
        keypairs.iter().map(|k| (k.pk, 100u64)),
        GENESIS_SEED,
    )
}

/// Builds a valid proposed block extending the chain tip.
fn make_block(chain: &Blockchain, proposer: &Keypair, txs: Vec<Transaction>) -> Block {
    let round = chain.next_round();
    let prev = chain.tip();
    let (seed, proof) = propose_seed(proposer, &prev.seed, round);
    Block {
        round,
        prev_hash: prev.hash(),
        seed,
        seed_proof: Some(proof),
        proposer: Some(proposer.pk),
        timestamp: NOW + round,
        txs,
        payload: Vec::new(),
    }
}

/// Builds a real, valid certificate for `block` by casting step-1 votes
/// from every user (τ = W makes selection deterministic).
fn make_certificate(
    chain: &Blockchain,
    keypairs: &[Keypair],
    block: &Block,
    ba: &BaParams,
) -> Certificate {
    let round = block.round;
    let seed = chain.selection_seed(round);
    let weights = chain.weights_for_round(round);
    let step = StepKind::Main(1);
    let mut votes = Vec::new();
    for kp in keypairs {
        let sel = select(
            kp,
            &seed,
            Role::Committee {
                round,
                step: step.code(),
            },
            &SortitionParams {
                tau: ba.tau_step,
                total_weight: weights.total(),
            },
            weights.weight_of(&kp.pk),
        )
        .expect("τ = W selects everyone");
        votes.push(VoteMessage::sign(
            kp,
            round,
            step,
            sel.vrf_output,
            sel.proof,
            block.prev_hash,
            block.hash(),
        ));
    }
    Certificate {
        round,
        step,
        value: block.hash(),
        votes,
    }
}

fn ba_params(total_weight: u64) -> BaParams {
    BaParams {
        tau_step: total_weight as f64,
        tau_final: total_weight as f64,
        max_steps: 30,
        lambda_step: SECOND,
        lambda_block: SECOND,
        disable_backoff: false,
    }
}

#[test]
fn append_advances_tip_and_applies_txs() {
    let keypairs = users(3);
    let mut chain = new_chain(&keypairs);
    let tx = Transaction::payment(&keypairs[0], keypairs[1].pk, 25, 1);
    let tx_id = tx.id();
    let block = make_block(&chain, &keypairs[2], vec![tx]);
    chain.append(block, None, false, NOW + 1).unwrap();
    assert_eq!(chain.next_round(), 2);
    assert_eq!(chain.accounts().balance(&keypairs[0].pk), 75);
    assert_eq!(chain.accounts().balance(&keypairs[1].pk), 125);
    assert_eq!(chain.confirmed_round(&tx_id), Some(1));
    // Not yet safely confirmed: nothing final past round 0.
    assert!(!chain.is_safely_confirmed(&tx_id));
}

#[test]
fn a_remembered_refusal_is_refused_by_validate_and_append() {
    let keypairs = users(3);
    let mut chain = new_chain(&keypairs);
    // keypairs[2] signs, then the payment is rebuilt under keypairs[0]'s
    // name. The pool (say) has already checked and refused it.
    let signed = Transaction::payment(&keypairs[2], keypairs[1].pk, 25, 1);
    let forged = Transaction::from_parts(
        keypairs[0].pk,
        signed.to,
        signed.amount,
        signed.nonce,
        signed.sig,
    );
    assert!(!forged.signature_valid());
    let block = make_block(&chain, &keypairs[2], vec![forged.clone()]);
    assert_eq!(
        block.validate(chain.tip(), chain.accounts(), NOW + 1, HOUR),
        Err(BlockError::BadTransaction)
    );
    let hash = chain.observe_block(block.clone());
    assert_eq!(
        chain.validate_next(&hash, NOW + 1),
        Err(ChainError::Block(BlockError::BadTransaction))
    );
    assert_eq!(
        chain.append(block, None, false, NOW + 1),
        Err(ChainError::Block(BlockError::BadTransaction))
    );
    assert_eq!(forged.verdict(), Some(false));
    assert_eq!(chain.next_round(), 1, "nothing was appended");
    assert_eq!(chain.accounts().balance(&keypairs[0].pk), 100);
}

#[test]
fn a_validated_proposal_is_appended_under_the_appends_clock() {
    let keypairs = users(3);
    let mut chain = new_chain(&keypairs);
    let pay = |amount| Transaction::payment(&keypairs[0], keypairs[1].pk, amount, 1);
    let block = make_block(&chain, &keypairs[2], vec![pay(25)]);
    let rival = make_block(&chain, &keypairs[1], vec![pay(40)]);
    let hash = chain.observe_block(block.clone());
    // Valid before BA⋆ starts, stale by the time it ends.
    chain.validate_next(&hash, NOW + 1).unwrap();
    assert_eq!(
        chain.append(block.clone(), None, false, NOW + 2 * HOUR),
        Err(ChainError::Block(BlockError::BadTimestamp))
    );
    // Any other block than the one validated has its seed checked.
    chain.validate_next(&hash, NOW + 1).unwrap();
    let mut forged = rival.clone();
    forged.seed = [9u8; 32];
    assert_eq!(
        chain.append(forged, None, false, NOW + 1),
        Err(ChainError::Block(BlockError::BadSeed))
    );
    assert_eq!(chain.next_round(), 1, "nothing was appended");
    chain.validate_next(&hash, NOW + 1).unwrap();
    chain.append(rival, None, false, NOW + 1).unwrap();
    assert_eq!(chain.accounts().balance(&keypairs[1].pk), 140);
    // The validated block itself appends, its payment applied once.
    let mut chain = new_chain(&keypairs);
    chain.observe_block(block.clone());
    chain.validate_next(&hash, NOW + 1).unwrap();
    chain.append(block, None, false, NOW + 1).unwrap();
    assert_eq!(chain.accounts().balance(&keypairs[0].pk), 75);
    assert_eq!(chain.accounts().balance(&keypairs[1].pk), 125);
}

#[test]
fn finalize_marks_predecessors() {
    let keypairs = users(3);
    let mut chain = new_chain(&keypairs);
    let tx = Transaction::payment(&keypairs[0], keypairs[1].pk, 10, 1);
    let tx_id = tx.id();
    let b1 = make_block(&chain, &keypairs[0], vec![tx]);
    chain.append(b1, None, false, NOW + 1).unwrap();
    let b2 = make_block(&chain, &keypairs[1], vec![]);
    chain.append(b2, None, false, NOW + 2).unwrap();
    assert!(!chain.is_finalized(1));
    // Finalizing round 2 confirms round 1's transaction transitively.
    chain.finalize(2);
    assert!(chain.is_finalized(1) && chain.is_finalized(2));
    assert!(chain.is_safely_confirmed(&tx_id));
}

#[test]
fn append_rejects_non_tip_parent() {
    let keypairs = users(2);
    let mut chain = new_chain(&keypairs);
    let b1 = make_block(&chain, &keypairs[0], vec![]);
    let stale = b1.clone();
    chain.append(b1, None, false, NOW + 1).unwrap();
    // Appending a block whose parent is no longer the tip fails.
    assert_eq!(
        chain.append(stale, None, false, NOW + 2),
        Err(ChainError::UnknownParent)
    );
}

#[test]
fn empty_blocks_append_and_chain_seeds() {
    let keypairs = users(2);
    let mut chain = new_chain(&keypairs);
    for r in 1..=4u64 {
        let prev_seed = chain.tip().seed;
        let block = Block::empty(r, chain.tip_hash(), &prev_seed);
        chain.append(block, None, false, NOW + r).unwrap();
    }
    assert_eq!(chain.next_round(), 5);
    // Seeds keep changing even through empty blocks (fallback chain).
    let seeds: Vec<[u8; 32]> = (0..=4).map(|r| chain.block_at(r).unwrap().seed).collect();
    for pair in seeds.windows(2) {
        assert_ne!(pair[0], pair[1]);
    }
}

#[test]
fn selection_seed_respects_refresh_interval() {
    let keypairs = users(2);
    let mut chain = new_chain(&keypairs);
    for r in 1..=12u64 {
        let block = make_block(&chain, &keypairs[0], vec![]);
        chain.append(block, None, false, NOW + r).unwrap();
    }
    // R = 5: r − 1 − (r mod 5) maps rounds 6..=9 to the round-4 seed and
    // round 10 to the round-9 seed.
    let seed4 = chain.block_at(4).unwrap().seed;
    let seed9 = chain.block_at(9).unwrap().seed;
    assert_eq!(chain.selection_seed(6), seed4);
    assert_eq!(chain.selection_seed(9), seed4);
    assert_eq!(chain.selection_seed(10), seed9);
}

#[test]
fn longest_fork_and_switch() {
    let keypairs = users(3);
    let mut chain = new_chain(&keypairs);
    let b1 = make_block(&chain, &keypairs[0], vec![]);
    chain.append(b1.clone(), None, false, NOW + 1).unwrap();

    // Build a competing, longer fork off round 0 out-of-band.
    let mut other = new_chain(&keypairs);
    let c1 = make_block(&other, &keypairs[1], vec![]);
    other.append(c1.clone(), None, false, NOW + 1).unwrap();
    let c2 = make_block(&other, &keypairs[1], vec![]);
    other.append(c2.clone(), None, false, NOW + 2).unwrap();

    // Our node observes the foreign fork blocks passively. Observed
    // blocks were never agreed by anyone (no certificate, not canonical
    // here), so they must NOT win `longest_fork` — recovery only ever
    // extends agreed chains.
    chain.observe_block(c1.clone());
    chain.observe_block(c2.clone());
    let (tip, len) = chain.longest_fork();
    assert_eq!(len, 1);
    assert_eq!(tip, b1.hash());
    assert_eq!(chain.fork_length(&c2.hash()), None);

    // A recovery certificate can still justify switching onto an
    // observed fork: `switch_to_fork` adopts it by hash.
    chain.switch_to_fork(c2.hash(), NOW + 3).unwrap();
    assert_eq!(chain.tip_hash(), c2.hash());
    assert_eq!(chain.next_round(), 3);
    assert_eq!(chain.block_at(1).unwrap().hash(), c1.hash());
}

#[test]
fn switch_to_unknown_fork_fails() {
    let keypairs = users(2);
    let mut chain = new_chain(&keypairs);
    assert_eq!(
        chain.switch_to_fork([9u8; 32], NOW),
        Err(ChainError::UnknownFork)
    );
}

#[test]
fn fork_switch_replays_transactions() {
    let keypairs = users(3);
    let mut chain = new_chain(&keypairs);
    let tx_ours = Transaction::payment(&keypairs[0], keypairs[1].pk, 10, 1);
    let b1 = make_block(&chain, &keypairs[0], vec![tx_ours.clone()]);
    chain.append(b1, None, false, NOW + 1).unwrap();
    assert_eq!(chain.accounts().balance(&keypairs[1].pk), 110);

    // The other fork carries a different payment.
    let mut other = new_chain(&keypairs);
    let tx_theirs = Transaction::payment(&keypairs[0], keypairs[2].pk, 40, 1);
    let c1 = make_block(&other, &keypairs[1], vec![tx_theirs.clone()]);
    other.append(c1.clone(), None, false, NOW + 1).unwrap();
    let c2 = make_block(&other, &keypairs[1], vec![]);
    other.append(c2.clone(), None, false, NOW + 2).unwrap();

    chain.observe_block(c1);
    chain.observe_block(c2.clone());
    chain.switch_to_fork(c2.hash(), NOW + 3).unwrap();
    // Balances reflect the adopted fork, not the abandoned one.
    assert_eq!(chain.accounts().balance(&keypairs[1].pk), 100);
    assert_eq!(chain.accounts().balance(&keypairs[2].pk), 140);
    assert_eq!(chain.confirmed_round(&tx_ours.id()), None);
    assert_eq!(chain.confirmed_round(&tx_theirs.id()), Some(1));
}

/// A chain holding `ours` at rounds 1 and 2 (round 2 pays user 1),
/// final through `final_through`, which has observed `theirs`: a fork off
/// round 1 that pays user 2 at round 2 and is one block longer.
fn forked_at_round_two(keypairs: &[Keypair], final_through: u64) -> (Blockchain, Blockchain) {
    let mut chain = new_chain(keypairs);
    let mut theirs = new_chain(keypairs);
    let b1 = make_block(&chain, &keypairs[0], vec![]);
    chain.append(b1.clone(), None, false, NOW + 1).unwrap();
    theirs.append(b1, None, false, NOW + 1).unwrap();
    let ours = Transaction::payment(&keypairs[0], keypairs[1].pk, 10, 1);
    let b2 = make_block(&chain, &keypairs[0], vec![ours]);
    chain.append(b2, None, false, NOW + 2).unwrap();
    chain.finalize(final_through);
    let other = Transaction::payment(&keypairs[0], keypairs[2].pk, 40, 1);
    for (r, txs) in [(2, vec![other]), (3, vec![])] {
        let block = make_block(&theirs, &keypairs[1], txs);
        chain.observe_block(block.clone());
        theirs.append(block, None, false, NOW + r).unwrap();
    }
    (chain, theirs)
}

#[test]
fn switch_to_fork_refuses_to_displace_a_final_round() {
    let keypairs = users(3);
    let (mut chain, theirs) = forked_at_round_two(&keypairs, 2);
    let (tip, accounts) = (chain.tip_hash(), chain.accounts().clone());
    assert_eq!(
        chain.switch_to_fork(theirs.tip_hash(), NOW + 4),
        Err(ChainError::Finalized)
    );
    assert_eq!(chain.tip_hash(), tip);
    assert_eq!(chain.accounts(), &accounts);
    assert!(chain.is_finalized(2));

    // Final only through the fork's parent, the same switch goes through,
    // and round 2 is no longer one this node holds as final.
    let (mut chain, theirs) = forked_at_round_two(&keypairs, 1);
    chain.switch_to_fork(theirs.tip_hash(), NOW + 4).unwrap();
    assert_eq!(chain.tip_hash(), theirs.tip_hash());
    assert!(chain.is_finalized(1));
    assert!(!chain.is_finalized(2));
}

#[test]
fn switch_to_fork_returns_the_abandoned_payments_and_adopts_the_forks_state() {
    let keypairs = users(3);
    let (mut chain, theirs) = forked_at_round_two(&keypairs, 1);
    let ours = chain.tip().txs[0].clone();
    let abandoned = chain.switch_to_fork(theirs.tip_hash(), NOW + 4).unwrap();
    assert_eq!(abandoned.len(), 1);
    assert!(abandoned[0].same_body(&ours));
    assert_eq!(chain.accounts(), theirs.accounts());
    assert_eq!(chain.accounts().balance(&keypairs[2].pk), 140);
    // Back on our own suffix: nothing to adopt, nothing abandoned.
    assert_eq!(chain.switch_to_fork(chain.tip_hash(), NOW + 4), Ok(vec![]));
}

#[test]
fn bootstrap_validates_full_history() {
    let keypairs = users(4);
    let ba = ba_params(400);
    let mut chain = new_chain(&keypairs);
    let mut history = Vec::new();
    for r in 1..=3u64 {
        let tx = Transaction::payment(&keypairs[0], keypairs[1].pk, 5, r);
        let block = make_block(&chain, &keypairs[(r % 4) as usize], vec![tx]);
        let cert = make_certificate(&chain, &keypairs, &block, &ba);
        chain
            .append(block.clone(), Some(cert.clone()), false, NOW + r)
            .unwrap();
        history.push((block, cert));
    }
    // A brand-new user validates the whole chain from genesis.
    let bootstrapped = Blockchain::bootstrap(
        params(),
        keypairs.iter().map(|k| (k.pk, 100u64)),
        GENESIS_SEED,
        &history,
        &ba,
        &RealVerifier,
        NOW + 10,
    )
    .expect("history must validate");
    assert_eq!(bootstrapped.tip_hash(), chain.tip_hash());
    assert_eq!(
        bootstrapped.accounts().balance(&keypairs[1].pk),
        chain.accounts().balance(&keypairs[1].pk)
    );
}

#[test]
fn bootstrap_rejects_forged_certificate() {
    let keypairs = users(4);
    let ba = ba_params(400);
    let chain = new_chain(&keypairs);
    let block = make_block(&chain, &keypairs[0], vec![]);
    let good = make_certificate(&chain, &keypairs, &block, &ba);

    // A certificate claiming a different block.
    let mut forged_block = block.clone();
    forged_block.timestamp += 1;
    let history = vec![(forged_block, good.clone())];
    assert_eq!(
        Blockchain::bootstrap(
            params(),
            keypairs.iter().map(|k| (k.pk, 100u64)),
            GENESIS_SEED,
            &history,
            &ba,
            &RealVerifier,
            NOW + 10,
        )
        .unwrap_err(),
        ChainError::BadCertificate
    );

    // A certificate with too few votes.
    let mut thin = good.clone();
    thin.votes.truncate(1);
    let history = vec![(block, thin)];
    assert_eq!(
        Blockchain::bootstrap(
            params(),
            keypairs.iter().map(|k| (k.pk, 100u64)),
            GENESIS_SEED,
            &history,
            &ba,
            &RealVerifier,
            NOW + 10,
        )
        .unwrap_err(),
        ChainError::BadCertificate
    );
}

#[test]
fn weights_use_lookback_state() {
    let keypairs = users(3);
    let mut chain = new_chain(&keypairs);
    // Round 1 moves all of user 0's money to user 1.
    let tx = Transaction::payment(&keypairs[0], keypairs[1].pk, 100, 1);
    let b1 = make_block(&chain, &keypairs[2], vec![tx]);
    chain.append(b1, None, false, NOW + 1).unwrap();
    for r in 2..=9u64 {
        let b = make_block(&chain, &keypairs[2], vec![]);
        chain.append(b, None, false, NOW + r).unwrap();
    }
    // With R = 5 and lookback = 2, round 9's seed round is 9-1-(9%5) = 4 and
    // its weight round is 4-2 = 2, after the transfer: user 0 has weight 0.
    let w = chain.weights_for_round(9);
    assert_eq!(w.weight_of(&keypairs[0].pk), 0);
    assert_eq!(w.weight_of(&keypairs[1].pk), 200);
    // But for an early round the weights come from genesis state.
    let w_early = chain.weights_for_round(1);
    assert_eq!(w_early.weight_of(&keypairs[0].pk), 100);
}

#[test]
fn sharded_storage_is_a_fraction_of_full() {
    let keypairs = users(4);
    let ba = ba_params(400);
    let mut chain = new_chain(&keypairs);
    for r in 1..=10u64 {
        let block = make_block(&chain, &keypairs[0], vec![]);
        let cert = make_certificate(&chain, &keypairs, &block, &ba);
        chain.append(block, Some(cert), false, NOW + r).unwrap();
    }
    let full = chain.sharded_storage_bytes(&keypairs[0].pk, 1);
    let sharded = chain.sharded_storage_bytes(&keypairs[0].pk, 5);
    assert!(full > 0);
    assert!(
        sharded * 3 < full,
        "5-way sharding should cut storage to ~1/5: {sharded} vs {full}"
    );
}

#[test]
fn lookback_weights_keep_stake_sold_after_the_lookback_point() {
    // §5.3's look-back rule: a round's weights come from the snapshot
    // before its seed round, so a user who sells after that point still
    // votes with the stake the snapshot lists.
    let keypairs = users(3);
    let mut chain = new_chain(&keypairs);
    for r in 1..=6u64 {
        let txs = if r == 5 {
            // User 0 divests everything at round 5 — *after* the look-back
            // point for round 7 (R=5, lookback=2).
            vec![Transaction::payment(&keypairs[0], keypairs[1].pk, 100, 1)]
        } else {
            vec![]
        };
        let block = make_block(&chain, &keypairs[2], txs);
        chain.append(block, None, false, NOW + r).unwrap();
    }
    assert_eq!(chain.accounts().balance(&keypairs[0].pk), 0);
    let w = chain.weights_for_round(7);
    assert_eq!(w.weight_of(&keypairs[0].pk), 100, "sold stake still listed");
    assert_eq!(
        w.weight_of(&keypairs[2].pk),
        100,
        "unmoved stake unaffected"
    );
}

#[test]
fn rollback_discards_tentative_suffix_and_salvages_txs() {
    let keypairs = users(3);
    let mut chain = new_chain(&keypairs);
    let b1 = make_block(&chain, &keypairs[0], vec![]);
    chain.append(b1, None, false, NOW + 1).unwrap();
    chain.finalize(1);
    let tx = Transaction::payment(&keypairs[0], keypairs[1].pk, 10, 1);
    let tx_id = tx.id();
    let b2 = make_block(&chain, &keypairs[1], vec![tx]);
    let b2_hash = b2.hash();
    chain.append(b2, None, false, NOW + 2).unwrap();
    assert_eq!(chain.confirmed_round(&tx_id), Some(2));

    let salvaged = chain.rollback_to(1).unwrap();
    assert_eq!(chain.tip().round, 1);
    assert_eq!(salvaged.len(), 1, "dropped block's txs come back");
    assert_eq!(salvaged[0].id(), tx_id);
    assert_eq!(chain.confirmed_round(&tx_id), None);
    assert_eq!(
        chain.accounts().balance(&keypairs[0].pk),
        100,
        "account state reverts to the rollback point"
    );
    // The displaced block stays in the fork store (§8.2 bookkeeping).
    assert!(chain.block_by_hash(&b2_hash).is_some());
    // A competing round-2 block can now take the canonical slot.
    let b2b = make_block(&chain, &keypairs[2], vec![]);
    assert_ne!(b2b.hash(), b2_hash);
    chain.append(b2b, None, false, NOW + 3).unwrap();
    assert_eq!(chain.tip().round, 2);
}

#[test]
fn rollback_refuses_to_drop_finalized_rounds() {
    let keypairs = users(3);
    let mut chain = new_chain(&keypairs);
    let b1 = make_block(&chain, &keypairs[0], vec![]);
    chain.append(b1, None, false, NOW + 1).unwrap();
    chain.finalize(1);
    let tip = chain.tip_hash();
    assert_eq!(chain.rollback_to(0), Err(ChainError::Finalized));
    assert_eq!(chain.tip_hash(), tip, "the chain is unchanged");
    assert!(chain.is_finalized(1));
}
