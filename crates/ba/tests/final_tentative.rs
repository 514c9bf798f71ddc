//! The final/tentative consensus boundary (§7.1, §7.4).
//!
//! BA⋆ declares *final* consensus only when BinaryBA⋆ concluded in its
//! very first step AND enough final-committee votes confirm it. These
//! tests drive engines with selective delivery to hit each side of the
//! boundary.

use algorand_ba::{
    BaParams, BaStar, CachedVerifier, ConsensusKind, Output, RoundWeights, StepKind, VoteMessage,
    SECOND,
};
use algorand_crypto::Keypair;
use std::sync::Arc;

const EMPTY: [u8; 32] = [0xee; 32];
const BLOCK: [u8; 32] = [0xbb; 32];
const PREV: [u8; 32] = [0x11; 32];
const SEED: [u8; 32] = [0x22; 32];

fn setup(n: usize) -> (Vec<BaStar>, Vec<VoteMessage>, BaParams) {
    let keypairs: Vec<Keypair> = (0..n)
        .map(|i| {
            let mut s = [0u8; 32];
            s[..8].copy_from_slice(&(i as u64 + 1).to_le_bytes());
            Keypair::from_seed(s)
        })
        .collect();
    let weights = Arc::new(RoundWeights::from_pairs(
        keypairs.iter().map(|k| (k.pk, 10u64)),
    ));
    let params = BaParams {
        tau_step: n as f64 * 10.0,
        tau_final: n as f64 * 10.0,
        max_steps: 15,
        lambda_step: SECOND,
        lambda_block: SECOND,
        disable_backoff: false,
    };
    let verifier = Arc::new(CachedVerifier::new());
    let mut engines = Vec::new();
    let mut pending = Vec::new();
    for kp in &keypairs {
        let (e, out) = BaStar::start(
            params,
            kp.clone(),
            1,
            SEED,
            PREV,
            BLOCK,
            EMPTY,
            weights.clone(),
            verifier.clone(),
            0,
        );
        for o in out {
            if let Output::Gossip(v) = o {
                pending.push(v);
            }
        }
        engines.push(e);
    }
    (engines, pending, params)
}

/// Delivers votes (filtered) until quiescent; returns decisions observed.
fn drive(
    engines: &mut [BaStar],
    pending: &mut Vec<VoteMessage>,
    now: u64,
    mut allow: impl FnMut(&VoteMessage) -> bool,
) -> Vec<(usize, ConsensusKind, [u8; 32])> {
    let mut decisions = Vec::new();
    while !pending.is_empty() {
        let batch: Vec<VoteMessage> = std::mem::take(pending);
        for (i, e) in engines.iter_mut().enumerate() {
            for v in &batch {
                if !allow(v) {
                    continue;
                }
                for o in e.on_vote(v, now) {
                    match o {
                        Output::Gossip(nv) => pending.push(nv),
                        Output::Decided(d) => decisions.push((i, d.kind, d.value)),
                        _ => {}
                    }
                }
            }
        }
    }
    decisions
}

fn tick_all(
    engines: &mut [BaStar],
    pending: &mut Vec<VoteMessage>,
    now: u64,
) -> Vec<(usize, ConsensusKind, [u8; 32])> {
    let mut decisions = Vec::new();
    for (i, e) in engines.iter_mut().enumerate() {
        for o in e.on_tick(now) {
            match o {
                Output::Gossip(nv) => pending.push(nv),
                Output::Decided(d) => decisions.push((i, d.kind, d.value)),
                _ => {}
            }
        }
    }
    decisions
}

#[test]
fn full_delivery_gives_final_consensus() {
    let (mut engines, mut pending, _) = setup(12);
    let mut decisions = drive(&mut engines, &mut pending, 0, |_| true);
    // The final count may need its timeout even on full delivery only if
    // votes fall short; with unanimity it concludes on votes.
    if decisions.is_empty() {
        decisions = tick_all(&mut engines, &mut pending, 2_000_000);
        decisions.extend(drive(&mut engines, &mut pending, 2_000_000, |_| true));
    }
    assert_eq!(decisions.len(), 12);
    for (i, kind, value) in decisions {
        assert_eq!(kind, ConsensusKind::Final, "engine {i}");
        assert_eq!(value, BLOCK, "engine {i}");
    }
}

#[test]
fn withholding_final_votes_downgrades_to_tentative() {
    // Deliver everything except the special final-step votes: BinaryBA⋆
    // still concludes at step 1, but the final count times out and the
    // decision must be Tentative (§7.4: "BA⋆ was unable to guarantee
    // safety").
    let (mut engines, mut pending, params) = setup(12);
    let mut decisions = drive(&mut engines, &mut pending, 0, |v| v.step != StepKind::Final);
    assert!(decisions.is_empty(), "no decision before the final timeout");
    // Fire the final-count timeout.
    let after = params.lambda_step + 1;
    decisions.extend(tick_all(&mut engines, &mut pending, after));
    decisions.extend(drive(&mut engines, &mut pending, after, |v| {
        v.step != StepKind::Final
    }));
    assert_eq!(decisions.len(), 12);
    for (i, kind, value) in decisions {
        assert_eq!(kind, ConsensusKind::Tentative, "engine {i}");
        assert_eq!(value, BLOCK, "engine {i}");
    }
}

#[test]
fn late_final_votes_still_upgrade_if_within_timeout() {
    // Hold the final votes back briefly (within λ_step), then release:
    // consensus must still be Final.
    let (mut engines, mut pending, params) = setup(12);
    let mut held: Vec<VoteMessage> = Vec::new();
    let decisions = {
        let held_ref = &mut held;
        drive(&mut engines, &mut pending, 0, |v| {
            if v.step == StepKind::Final {
                held_ref.push(v.clone());
                false
            } else {
                true
            }
        })
    };
    assert!(decisions.is_empty());
    assert!(!held.is_empty(), "final votes were cast");
    // Release the held votes before the timeout.
    let t = params.lambda_step / 2;
    let mut decisions = Vec::new();
    for (i, e) in engines.iter_mut().enumerate() {
        for v in &held {
            for o in e.on_vote(v, t) {
                if let Output::Decided(d) = o {
                    decisions.push((i, d.kind, d.value));
                }
            }
        }
    }
    assert_eq!(decisions.len(), 12);
    for (_, kind, value) in decisions {
        assert_eq!(kind, ConsensusKind::Final);
        assert_eq!(value, BLOCK);
    }
}
