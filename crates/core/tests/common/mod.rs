//! Fixtures shared by the core integration tests: users whose every
//! sortition draw selects them, and certified history built by hand.

#![allow(dead_code)] // Each test crate uses its own share.

use algorand_ba::{BaParams, Certificate, StepKind, VoteMessage, SECOND};
use algorand_core::AlgorandParams;
use algorand_crypto::vrf::{VrfOutput, VrfProof};
use algorand_crypto::Keypair;
use algorand_ledger::seed::propose_seed;
use algorand_ledger::{Block, Blockchain};
use algorand_sortition::{select, Role, SortitionParams};

pub const STAKE: u64 = 100;
pub const NOW: u64 = 1_000_000;

pub fn users(n: u8) -> Vec<Keypair> {
    (1..=n).map(|i| Keypair::from_seed([i; 32])).collect()
}

/// τ = W everywhere: every staked user is selected for every role with
/// all of its sub-users, so fixtures need no luck.
pub fn params(users: &[Keypair]) -> AlgorandParams {
    let total = (users.len() as u64 * STAKE) as f64;
    let mut p = AlgorandParams::scaled_with_stake(users.len(), STAKE);
    p.tau_proposer = total;
    p.ba = BaParams {
        tau_step: total,
        tau_final: total,
        ..p.ba
    };
    // No §8.2 epoch boundary falls inside any fixture's run.
    p.recovery_interval = 1_000_000 * SECOND;
    p
}

pub type History = Vec<(Block, Certificate)>;

/// Sortition material for `role`, as a holder of `weight` would draw it.
pub fn draw(
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

/// A valid proposed block extending `chain`'s tip.
pub fn next_block(chain: &Blockchain, proposer: &Keypair, timestamp: u64) -> Block {
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
pub fn certify(chain: &Blockchain, kps: &[Keypair], block: &Block) -> Certificate {
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
