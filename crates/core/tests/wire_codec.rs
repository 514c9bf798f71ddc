//! Wire-codec roundtrips and robustness: every gossip message type encodes
//! and decodes losslessly, and the decoder never panics on arbitrary
//! bytes (what a real transport would feed it).

use algorand_ba::{Certificate, StepKind, VoteMessage};
use algorand_core::wire::CatchupBatch;
use algorand_core::{
    AlgorandParams, BlockMessage, ForkProposalMessage, PriorityMessage, WireMessage,
};
use algorand_crypto::codec::Reader;
use algorand_crypto::rng::Rng;
use algorand_crypto::{vrf, Keypair};
use algorand_ledger::seed::propose_seed;
use algorand_ledger::{Block, Transaction};

fn kp(seed: u8) -> Keypair {
    Keypair::from_seed([seed.max(1); 32])
}

fn sample_block(proposer: &Keypair, payload: usize) -> Block {
    let (seed, proof) = propose_seed(proposer, &[7u8; 32], 3);
    Block {
        round: 3,
        prev_hash: [2u8; 32],
        seed,
        seed_proof: Some(proof),
        proposer: Some(proposer.pk),
        timestamp: 99,
        txs: vec![Transaction::payment(proposer, proposer.pk, 1, 1)],
        payload: vec![0x5a; payload],
    }
}

fn sample_vote(seed: u8) -> VoteMessage {
    let keypair = kp(seed);
    let (sorthash, proof) = vrf::prove(&keypair, b"wire");
    VoteMessage::sign(
        &keypair,
        3,
        StepKind::Main(2),
        sorthash,
        proof,
        [2u8; 32],
        [4u8; 32],
    )
}

fn all_message_kinds() -> Vec<WireMessage> {
    let proposer = kp(1);
    let (sorthash, sort_proof) = vrf::prove(&proposer, b"proposer");
    let block = sample_block(&proposer, 64);
    let fork_block = Block::empty(4, [9u8; 32], &[8u8; 32]);
    let cert = Certificate {
        round: 3,
        step: StepKind::Main(1),
        value: block.hash(),
        votes: vec![sample_vote(2), sample_vote(3)],
    };
    vec![
        WireMessage::Priority(PriorityMessage::sign(
            &proposer,
            3,
            sorthash,
            sort_proof,
            block.hash(),
        )),
        WireMessage::Block(BlockMessage {
            block: block.clone(),
            sorthash,
            sort_proof,
        }),
        WireMessage::Vote(sample_vote(4)),
        WireMessage::ForkProposal(ForkProposalMessage::sign(
            &proposer, 2, 1, sorthash, sort_proof, fork_block,
        )),
        WireMessage::Transaction(Transaction::payment(&proposer, kp(5).pk, 9, 1)),
        WireMessage::CatchupRequest {
            have: 17,
            tip_hash: [0x6Bu8; 32],
        },
        WireMessage::CatchupResponse(CatchupBatch {
            entries: vec![(block, cert)],
        }),
    ]
}

#[test]
fn every_message_kind_roundtrips() {
    for msg in all_message_kinds() {
        let bytes = msg.encoded();
        let mut r = Reader::new(&bytes);
        let back = WireMessage::decode(&mut r).unwrap_or_else(|e| {
            panic!("decode failed for {:?}: {e}", msg.message_id());
        });
        r.finish().expect("no trailing bytes");
        assert_eq!(
            back.message_id(),
            msg.message_id(),
            "roundtrip changed content"
        );
        assert_eq!(back.wire_size(), msg.wire_size());
        assert_eq!(back.relay_slot(), msg.relay_slot());
    }
}

#[test]
fn truncated_messages_are_rejected_not_panicking() {
    for msg in all_message_kinds() {
        let bytes = msg.encoded();
        for cut in [0, 1, bytes.len() / 2, bytes.len().saturating_sub(1)] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                WireMessage::decode(&mut r).is_err(),
                "truncation at {cut} must fail cleanly"
            );
        }
    }
}

#[test]
fn unknown_tag_rejected() {
    let bytes = [0xffu8, 1, 2, 3];
    let mut r = Reader::new(&bytes);
    assert!(WireMessage::decode(&mut r).is_err());
}

/// The decoder must never panic, whatever bytes arrive.
#[test]
fn decoder_never_panics_on_arbitrary_bytes() {
    let mut rng = Rng::seed_from_u64(0xC0DEC);
    for _ in 0..64 {
        let len = rng.gen_range_usize(2048);
        let mut bytes = vec![0u8; len];
        rng.fill_bytes(&mut bytes);
        let mut r = Reader::new(&bytes);
        let _ = WireMessage::decode(&mut r);
    }
}

/// Corrupting any single byte of a valid encoding either fails to decode
/// or decodes to a message that re-encodes to the corrupted bytes — the
/// decoder never normalizes corruption back into the original message.
/// (Message ids may legitimately collide: fields like sortition proofs
/// are excluded from a block's id on purpose, since the id names the
/// block content, not its carrier.)
#[test]
fn single_byte_corruption_never_aliases() {
    let mut rng = Rng::seed_from_u64(0xB17F11);
    let msgs = all_message_kinds();
    for msg in &msgs {
        let reference = msg.encoded();
        // Every byte of the first 256, then a random sample of the rest.
        let mut positions: Vec<usize> = (0..reference.len().min(256)).collect();
        for _ in 0..64 {
            positions.push(rng.gen_range_usize(reference.len()));
        }
        for i in positions {
            let mut bytes = reference.clone();
            bytes[i] ^= 0x01;
            let mut r = Reader::new(&bytes);
            if let Ok(back) = WireMessage::decode(&mut r) {
                assert_ne!(
                    back.encoded(),
                    reference,
                    "byte {i} flip silently accepted as the original"
                );
            }
        }
    }
}

#[test]
fn scaled_params_accept_decoded_traffic() {
    // Smoke check that decoded messages flow into a node untouched: feed a
    // re-decoded vote to a fresh node; it must not crash or mis-route.
    let params = AlgorandParams::scaled(4);
    let keypair = kp(9);
    let chain = algorand_ledger::Blockchain::new(params.chain, [(keypair.pk, 10u64)], [0x47u8; 32]);
    let mut node = algorand_core::Node::new(
        keypair,
        chain,
        params,
        std::sync::Arc::new(algorand_core::PipelineVerifier::new()),
    );
    node.start(0);
    let vote = WireMessage::Vote(sample_vote(6));
    let bytes = vote.encoded();
    let mut r = Reader::new(&bytes);
    let decoded = WireMessage::decode(&mut r).unwrap();
    let out = node.on_message(&decoded, 1).outputs;
    // A round-3 vote reaching a round-1 node is two rounds ahead: the node
    // buffers it and says nothing — asking for history is blocksync's.
    assert!(out.is_empty(), "a future vote elicited {out:?}");
}
