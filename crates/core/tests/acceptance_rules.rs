//! One table per acceptance rule, run through every caller of the rule:
//!
//! * Algorithm 2 (VerifySort) — a vote, a priority, a block message and a
//!   fork proposal each reject the same five bad sortition claims;
//! * §8.3's certified-append step — bootstrap, a catch-up response and a
//!   restart from durable entries stop at the same round of the same
//!   corrupt history;
//! * the relay verdict a delivery returns.

use algorand_ba::{
    BaParams, Certificate, RoundWeights, StepKind, VoteContext, VoteMessage, SECOND,
};
use algorand_core::catchup::encode_entry;
use algorand_core::wire::CatchupBatch;
use algorand_core::{
    AlgorandParams, BlockMessage, ForkProposalMessage, Node, PipelineVerifier, PriorityMessage,
    WireMessage, GENESIS_SEED,
};
use algorand_crypto::sig::Signature;
use algorand_crypto::vrf::{VrfOutput, VrfProof};
use algorand_crypto::Keypair;
use algorand_ledger::block::BlockError;
use algorand_ledger::seed::propose_seed;
use algorand_ledger::{Block, Blockchain, ChainError, Transaction};
use algorand_sortition::{select, Role, SortitionParams};
use std::sync::Arc;

const STAKE: u64 = 100;
const NOW: u64 = 1_000_000;

fn users(n: u8) -> Vec<Keypair> {
    (1..=n).map(|i| Keypair::from_seed([i; 32])).collect()
}

/// τ = W everywhere: every staked user is selected for every role with
/// all of its sub-users, so fixtures need no luck.
fn params(users: &[Keypair]) -> AlgorandParams {
    let total = (users.len() as u64 * STAKE) as f64;
    let mut p = AlgorandParams::scaled_with_stake(users.len(), STAKE);
    p.tau_proposer = total;
    p.ba = BaParams {
        tau_step: total,
        tau_final: total,
        ..p.ba
    };
    p.recovery_interval = 0;
    p
}

type History = Vec<(Block, Certificate)>;

/// Sortition material for `role`, as a holder of `weight` would draw it.
fn draw(
    kp: &Keypair,
    seed: &[u8; 32],
    role: Role,
    weight: u64,
    total: u64,
) -> (VrfOutput, VrfProof) {
    let params = SortitionParams {
        tau: total as f64,
        total_weight: total,
    };
    let sel = select(kp, seed, role, &params, weight).expect("τ = W selects everyone");
    (sel.vrf_output, sel.proof)
}

// --- (a) Algorithm 2 --------------------------------------------------------

/// One kind of message carrying a sortition claim: the role it declares,
/// another role of the same shape, and a closure that builds the message
/// around the given claim and runs it through the verify stage.
struct Kind {
    name: &'static str,
    role: Role,
    other_role: Role,
    #[allow(clippy::type_complexity)]
    accepts: Box<dyn Fn(&Keypair, VrfOutput, VrfProof, &[u8; 32], &RoundWeights, f64) -> bool>,
}

fn kinds() -> Vec<Kind> {
    vec![
        Kind {
            name: "vote",
            role: Role::Committee { round: 4, step: 2 },
            other_role: Role::Committee { round: 4, step: 3 },
            accepts: Box::new(|kp, out, proof, seed, weights, tau| {
                let v =
                    VoteMessage::sign(kp, 4, StepKind::Main(2), out, proof, [7u8; 32], [9u8; 32]);
                let ctx = VoteContext {
                    round: 4,
                    seed: *seed,
                    tau,
                };
                PipelineVerifier::new()
                    .verify_vote(&v, &ctx, weights)
                    .is_some()
            }),
        },
        Kind {
            name: "priority",
            role: Role::BlockProposer { round: 4 },
            other_role: Role::BlockProposer { round: 5 },
            accepts: Box::new(|kp, out, proof, seed, weights, tau| {
                let p = PriorityMessage::sign(kp, 4, out, proof, [7u8; 32]);
                PipelineVerifier::new()
                    .verify_priority(&p, seed, weights, tau)
                    .is_some()
            }),
        },
        Kind {
            name: "block",
            role: Role::BlockProposer { round: 4 },
            other_role: Role::BlockProposer { round: 5 },
            accepts: Box::new(|kp, sorthash, sort_proof, seed, weights, tau| {
                let mut block = Block::empty(4, [7u8; 32], &[8u8; 32]);
                block.proposer = Some(kp.pk);
                let b = BlockMessage {
                    block,
                    sorthash,
                    sort_proof,
                };
                PipelineVerifier::new()
                    .verify_block(&b, seed, weights, tau)
                    .is_some()
            }),
        },
        Kind {
            name: "fork proposal",
            role: Role::ForkProposer {
                epoch: 3,
                attempt: 1,
            },
            other_role: Role::ForkProposer {
                epoch: 3,
                attempt: 2,
            },
            accepts: Box::new(|kp, out, proof, seed, weights, tau| {
                let block = Block::empty(4, [7u8; 32], &[8u8; 32]);
                let f = ForkProposalMessage::sign(kp, 3, 1, out, proof, block);
                PipelineVerifier::new()
                    .verify_fork_proposal(&f, seed, weights, tau)
                    .is_some()
            }),
        },
    ]
}

#[test]
fn every_message_kind_rejects_the_same_five_bad_sortition_claims() {
    let kps = users(4);
    let stranger = Keypair::from_seed([99u8; 32]);
    let weights = RoundWeights::from_pairs(kps.iter().map(|k| (k.pk, STAKE)));
    let total = weights.total();
    let tau = total as f64;
    let seed = [5u8; 32];
    let kp = &kps[0];
    for kind in kinds() {
        let (out, proof) = draw(kp, &seed, kind.role, STAKE, total);
        let accepts =
            |kp, out, proof, seed, tau| (kind.accepts)(kp, out, proof, seed, &weights, tau);
        assert!(accepts(kp, out, proof, &seed, tau), "{}: honest", kind.name);

        assert!(
            !accepts(kp, out, proof, &[6u8; 32], tau),
            "{}: wrong seed",
            kind.name
        );
        let (o, p) = draw(kp, &seed, kind.other_role, STAKE, total);
        assert!(!accepts(kp, o, p, &seed, tau), "{}: wrong role", kind.name);
        // A valid proof from a key that holds nothing.
        let (o, p) = draw(&stranger, &seed, kind.role, STAKE, total);
        assert!(
            !accepts(&stranger, o, p, &seed, tau),
            "{}: zero-weight sender",
            kind.name
        );
        let mut forged = out;
        forged.0[0] ^= 0xff;
        assert!(
            !accepts(kp, forged, proof, &seed, tau),
            "{}: forged sorthash",
            kind.name
        );
        // Everything checks out, but at this τ no sub-user is selected.
        assert!(
            !accepts(kp, out, proof, &seed, 1e-9),
            "{}: valid but not selected",
            kind.name
        );
    }
}

// --- (b) §8.3: one certified-append step ------------------------------------

/// A valid proposed block extending `chain`'s tip.
fn next_block(chain: &Blockchain, proposer: &Keypair, timestamp: u64) -> Block {
    let round = chain.next_round();
    let (seed, proof) = propose_seed(proposer, &chain.tip().seed, round);
    Block {
        round,
        prev_hash: chain.tip_hash(),
        seed,
        seed_proof: Some(proof),
        proposer: Some(proposer.pk),
        timestamp,
        txs: Vec::new(),
        payload: Vec::new(),
    }
}

/// A genuine certificate for `block` as the successor of `chain`'s tip:
/// every user's step-1 vote.
fn certify(chain: &Blockchain, kps: &[Keypair], block: &Block) -> Certificate {
    let round = chain.next_round();
    let seed = chain.selection_seed(round);
    let weights = chain.weights_for_round(round);
    let step = StepKind::Main(1);
    let role = Role::Committee {
        round,
        step: step.code(),
    };
    let votes = kps
        .iter()
        .map(|kp| {
            let (out, proof) = draw(kp, &seed, role, weights.weight_of(&kp.pk), weights.total());
            VoteMessage::sign(kp, round, step, out, proof, chain.tip_hash(), block.hash())
        })
        .collect();
    Certificate {
        round,
        step,
        value: block.hash(),
        votes,
    }
}

fn durable_of(history: &History) -> Vec<u8> {
    let mut out = Vec::new();
    for (b, c) in history {
        encode_entry(b, c, &mut out);
    }
    out
}

#[test]
fn bootstrap_catchup_and_restore_stop_at_the_same_round_of_a_corrupt_history() {
    let kps = users(4);
    let observer = Keypair::from_seed([77u8; 32]);
    let p = params(&kps);
    let genesis = || p.genesis(&kps, STAKE);

    // Four honest rounds, and the chain as it stood after two of them.
    let mut chain = genesis();
    let mut honest = Vec::new();
    for r in 1..=4u64 {
        let block = next_block(&chain, &kps[(r % 4) as usize], NOW + r);
        let cert = certify(&chain, &kps, &block);
        chain
            .append(block.clone(), Some(cert.clone()), false, NOW)
            .unwrap();
        honest.push((block, cert));
    }
    let mut at_two = genesis();
    for (b, c) in &honest[..2] {
        at_two
            .append(b.clone(), Some(c.clone()), false, NOW)
            .unwrap();
    }
    let want = chain.digest_through(2).unwrap();

    let with_third = |third: Option<(Block, Certificate)>| -> History {
        let mut h = honest[..2].to_vec();
        h.extend(third);
        h.push(honest[3].clone());
        h
    };
    let mut tampered = honest[2].0.clone();
    tampered.payload.push(0xff);
    let mut thin = honest[2].1.clone();
    let round3 = |c: &Certificate| {
        let (seed, weights) = (at_two.selection_seed(3), at_two.weights_for_round(3));
        c.validate(
            &p.ba,
            &seed,
            &at_two.tip_hash(),
            &weights,
            &PipelineVerifier::new(),
        )
    };
    while round3(&thin).is_ok() {
        thin.votes.pop();
    }
    // A block no validator accepts (its clock runs backwards), certified
    // by a committee that voted for it anyway.
    let stale = next_block(&at_two, &kps[3], at_two.tip().timestamp);
    let stale_cert = certify(&at_two, &kps, &stale);

    let cases = [
        (
            "entry out of order",
            with_third(None),
            ChainError::NotNextRound,
        ),
        (
            "certificate names another block",
            with_third(Some((tampered, honest[2].1.clone()))),
            ChainError::BadCertificate,
        ),
        (
            "certificate one vote short",
            with_third(Some((honest[2].0.clone(), thin))),
            ChainError::BadCertificate,
        ),
        (
            "block fails validation",
            with_third(Some((stale, stale_cert))),
            ChainError::Block(BlockError::BadTimestamp),
        ),
    ];
    for (name, history, error) in cases {
        let alloc = kps.iter().map(|k| (k.pk, STAKE));
        let verifier = Arc::new(PipelineVerifier::new());
        let err = Blockchain::bootstrap(
            p.chain,
            alloc,
            GENESIS_SEED,
            &history,
            &p.ba,
            verifier.as_ref(),
            NOW,
        )
        .unwrap_err();
        assert_eq!(err, error, "{name}: bootstrap");

        let mut live = Node::new(observer.clone(), genesis(), p, verifier.clone());
        live.start(NOW);
        live.on_message(
            &WireMessage::CatchupResponse(CatchupBatch {
                entries: history.clone(),
            }),
            NOW,
        );
        let restored = Node::restore(
            observer.clone(),
            genesis(),
            p,
            verifier,
            &durable_of(&history),
            NOW,
        );
        for (how, node) in [("catch-up", &live), ("restore", &restored)] {
            assert_eq!(node.chain().tip().round, 2, "{name}: {how}");
            assert_eq!(node.chain().digest_through(2), Some(want), "{name}: {how}");
        }
        assert_eq!(live.current_round(), 3, "{name}: the applied prefix counts");
    }
}

// --- (c) the relay verdict --------------------------------------------------

#[test]
fn a_delivery_says_whether_it_is_worth_forwarding() {
    let kps = users(3);
    let observer = Keypair::from_seed([77u8; 32]);
    let p = params(&kps);
    let chain = p.genesis(&kps, STAKE);
    let seed = chain.selection_seed(1);
    let weights = chain.weights_for_round(1);
    let tip = chain.tip_hash();
    let mut node = Node::new(
        observer.clone(),
        chain,
        p,
        Arc::new(PipelineVerifier::new()),
    );
    assert!(node.start(NOW).is_empty(), "an observer proposes nothing");

    // Payments: only what the pool holds spreads.
    let paid = Transaction::payment(&kps[0], kps[1].pk, 5, 1);
    let unsigned = Transaction::from_parts(
        kps[0].pk,
        kps[1].pk,
        6,
        1,
        Signature::from_bytes(&[0u8; 64]).unwrap(),
    );
    assert!(node.on_message(&WireMessage::Transaction(paid), NOW).relay);
    assert!(
        !node
            .on_message(&WireMessage::Transaction(unsigned), NOW)
            .relay
    );

    // Blocks (§6): the best proposal spreads, a lesser one stops here.
    let mut proposals: Vec<_> = kps
        .iter()
        .map(|kp| {
            let (sorthash, sort_proof, priority) =
                algorand_core::proposal::proposer_sortition(kp, &seed, 1, &weights, p.tau_proposer)
                    .expect("τ = W selects everyone");
            let block = next_block(node.chain(), kp, NOW + 1);
            let msg = WireMessage::Block(BlockMessage {
                block,
                sorthash,
                sort_proof,
            });
            (priority, msg)
        })
        .collect();
    proposals.sort_by_key(|(priority, _)| *priority);
    let (_, best) = proposals.pop().unwrap();
    let (_, lesser) = proposals.pop().unwrap();
    assert!(node.on_message(&best, NOW).relay);
    assert!(!node.on_message(&lesser, NOW).relay);
    assert!(node.on_message(&best, NOW).relay, "still the best");
    let WireMessage::Block(next_round) = &lesser else {
        unreachable!()
    };
    let mut next_round = next_round.clone();
    next_round.block.round = 2;
    assert!(
        node.on_message(&WireMessage::Block(next_round), NOW).relay,
        "another round's block is not this node's to judge"
    );

    // Votes (§8.4): into BA⋆ on the best block, then a vote whose
    // sortition claim is somebody else's.
    node.on_tick(NOW + p.lambda_priority + p.lambda_stepvar + 1);
    let vote = |round| {
        let (out, proof) = draw(
            &kps[1],
            &seed,
            Role::Committee { round: 1, step: 1 },
            STAKE,
            weights.total(),
        );
        let step = StepKind::ReductionOne;
        WireMessage::Vote(VoteMessage::sign(
            &kps[0], round, step, out, proof, tip, [9u8; 32],
        ))
    };
    let later = NOW + 3 * SECOND;
    assert!(!node.on_message(&vote(1), later).relay, "verified, invalid");
    assert!(node.on_message(&vote(2), later).relay, "not verified here");
    assert_eq!(node.pipeline_stats().rejected_verify, 1, "that vote");
}
