//! Behavioural tests for the BA⋆ engine: multi-user clusters driven over an
//! instantaneous in-memory network.
//!
//! These exercise the protocol logic end to end — reduction, BinaryBA⋆,
//! final/tentative classification, certificates, hangs — without the
//! discrete-event simulator. Committee parameters are chosen with τ = W so
//! that every sub-user is selected deterministically, making outcomes exact
//! rather than probabilistic.

use algorand_ba::{
    BaParams, BaStar, CachedVerifier, ConsensusKind, Decision, Output, RoundWeights, VoteMessage,
    SECOND,
};
use algorand_crypto::Keypair;
use std::sync::Arc;

const EMPTY_HASH: [u8; 32] = [0xee; 32];
const PREV_HASH: [u8; 32] = [0x11; 32];
const SEED: [u8; 32] = [0x22; 32];

fn test_params(total_weight: u64) -> BaParams {
    BaParams {
        // τ = W: every sub-user selected, fully deterministic committees.
        tau_step: total_weight as f64,
        tau_final: total_weight as f64,
        max_steps: 30,
        lambda_step: 20 * SECOND,
        lambda_block: 60 * SECOND,
        disable_backoff: false,
    }
}

/// A cluster of BA⋆ engines joined by an instantaneous reliable network.
struct Cluster {
    engines: Vec<BaStar>,
    decisions: Vec<Option<Decision>>,
    hung: Vec<bool>,
    now: u64,
}

impl Cluster {
    /// Starts `n` equal-weight users; user `i` starts BA⋆ with
    /// `initial_hashes[i]`.
    fn start(n: usize, initial_hashes: impl Fn(usize) -> [u8; 32]) -> Cluster {
        Self::start_with_params(n, initial_hashes, test_params(n as u64 * 10))
    }

    fn start_with_params(
        n: usize,
        initial_hashes: impl Fn(usize) -> [u8; 32],
        params: BaParams,
    ) -> Cluster {
        let keypairs: Vec<Keypair> = (0..n).map(|i| Keypair::from_seed(seed32(i))).collect();
        let weights = Arc::new(RoundWeights::from_pairs(
            keypairs.iter().map(|k| (k.pk, 10u64)),
        ));
        let verifier = Arc::new(CachedVerifier::new());
        let mut engines = Vec::new();
        let mut pending: Vec<VoteMessage> = Vec::new();
        let now = 0u64;
        let mut decisions = vec![None; n];
        let mut hung = vec![false; n];
        for (i, kp) in keypairs.iter().enumerate() {
            let (engine, outputs) = BaStar::start(
                params,
                kp.clone(),
                1,
                SEED,
                PREV_HASH,
                initial_hashes(i),
                EMPTY_HASH,
                weights.clone(),
                verifier.clone(),
                now,
            );
            engines.push(engine);
            collect(i, outputs, &mut pending, &mut decisions, &mut hung);
        }
        let mut cluster = Cluster {
            engines,
            decisions,
            hung,
            now,
        };
        cluster.deliver_all(pending);
        cluster
    }

    /// Delivers queued messages to every engine until quiescent.
    fn deliver_all(&mut self, mut queue: Vec<VoteMessage>) {
        while let Some(msg) = queue.pop() {
            for (i, engine) in self.engines.iter_mut().enumerate() {
                let outputs = engine.on_vote(&msg, self.now);
                collect(i, outputs, &mut queue, &mut self.decisions, &mut self.hung);
            }
        }
    }

    /// Advances virtual time to the earliest engine deadline and fires it.
    fn advance_time(&mut self) -> bool {
        let Some(next) = self.engines.iter().filter_map(|e| e.next_deadline()).min() else {
            return false;
        };
        self.now = next;
        let mut queue = Vec::new();
        for (i, engine) in self.engines.iter_mut().enumerate() {
            let outputs = engine.on_tick(self.now);
            collect(i, outputs, &mut queue, &mut self.decisions, &mut self.hung);
        }
        self.deliver_all(queue);
        true
    }

    /// Runs until every engine decided or hung (or time stops moving).
    fn run_to_completion(&mut self) {
        for _ in 0..1000 {
            if self
                .engines
                .iter()
                .enumerate()
                .all(|(i, e)| e.is_finished() || self.decisions[i].is_some() || self.hung[i])
            {
                return;
            }
            if !self.advance_time() {
                return;
            }
        }
        panic!("cluster did not complete within the step budget");
    }
}

fn collect(
    from: usize,
    outputs: Vec<Output>,
    queue: &mut Vec<VoteMessage>,
    decisions: &mut [Option<Decision>],
    hung: &mut [bool],
) {
    for out in outputs {
        match out {
            Output::Gossip(msg) => queue.push(msg),
            Output::Decided(d) => {
                assert!(decisions[from].is_none(), "double decision from {from}");
                decisions[from] = Some(d);
            }
            Output::BinaryDecided { .. } => {}
            Output::Hung => hung[from] = true,
        }
    }
}

fn seed32(i: usize) -> [u8; 32] {
    let mut s = [0u8; 32];
    s[..8].copy_from_slice(&(i as u64 + 1).to_le_bytes());
    s
}

// --- Tests -------------------------------------------------------------------

#[test]
fn unanimous_start_reaches_final_consensus_in_first_step() {
    let block = [0xabu8; 32];
    let mut cluster = Cluster::start(12, |_| block);
    cluster.run_to_completion();
    for d in cluster.decisions.iter().map(|d| d.as_ref().unwrap()) {
        assert_eq!(d.kind, ConsensusKind::Final);
        assert_eq!(d.value, block);
        assert_eq!(d.binary_step, 1, "common case concludes in step 1");
    }
    // The whole round concluded without any timeout firing: with an
    // instantaneous network every phase concludes on votes, so virtual time
    // never needed to advance past the first deadline set.
    assert!(cluster.now <= 80 * SECOND);
}

#[test]
fn split_start_converges_on_empty_block_tentatively() {
    // Half the users start with block A, half with block B — the malicious
    // highest-priority proposer scenario of §6. Reduction cannot certify
    // either, so all users converge on the empty block; since consensus is
    // not reached in BinaryBA⋆ step 1, it stays tentative.
    let a = [0xaau8; 32];
    let b = [0xbbu8; 32];
    let mut cluster = Cluster::start(12, |i| if i % 2 == 0 { a } else { b });
    cluster.run_to_completion();
    for d in cluster.decisions.iter().map(|d| d.as_ref().unwrap()) {
        assert_eq!(d.value, EMPTY_HASH);
        assert_eq!(d.kind, ConsensusKind::Tentative);
        assert_eq!(d.binary_step, 2, "empty consensus lands in step 2");
        assert!(d.final_certificate.is_none(), "tentative has no final cert");
    }
}

#[test]
fn near_unanimous_majority_still_wins_reduction() {
    // 10 of 12 users start with block A: A has 100 of 120 votes > 0.685·120
    // = 82.2, so reduction certifies A and consensus is final.
    let a = [0xaau8; 32];
    let b = [0xbbu8; 32];
    let mut cluster = Cluster::start(12, |i| if i < 10 { a } else { b });
    cluster.run_to_completion();
    for d in cluster.decisions.iter().map(|d| d.as_ref().unwrap()) {
        assert_eq!(d.value, a);
        assert_eq!(d.kind, ConsensusKind::Final);
    }
}

#[test]
fn decisions_are_identical_across_users_and_runs() {
    let block = [0x77u8; 32];
    let run = || {
        let mut cluster = Cluster::start(8, |_| block);
        cluster.run_to_completion();
        cluster
            .decisions
            .iter()
            .map(|d| {
                let d = d.as_ref().unwrap();
                (d.kind, d.value, d.binary_step)
            })
            .collect::<Vec<_>>()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);
    assert!(first.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn certificates_from_decisions_validate() {
    let block = [0xcdu8; 32];
    let n = 10;
    let mut cluster = Cluster::start(n, |_| block);
    cluster.run_to_completion();
    let params = test_params(n as u64 * 10);
    let weights =
        RoundWeights::from_pairs((0..n).map(|i| (Keypair::from_seed(seed32(i)).pk, 10u64)));
    let verifier = algorand_ba::RealVerifier;
    for d in cluster.decisions.iter().map(|d| d.as_ref().unwrap()) {
        d.certificate
            .validate(&params, &SEED, &PREV_HASH, &weights, &verifier)
            .expect("certificate must validate");
        assert_eq!(d.certificate.value, block);
        assert_eq!(d.certificate.round, 1);
        assert!(d.certificate.wire_size() > 0);
        // Final consensus carries the §8.3 safety certificate too, and it
        // validates against the larger final-step threshold.
        let final_cert = d
            .final_certificate
            .as_ref()
            .expect("final consensus has a final certificate");
        assert_eq!(final_cert.step, algorand_ba::StepKind::Final);
        final_cert
            .validate(&params, &SEED, &PREV_HASH, &weights, &verifier)
            .expect("final certificate must validate");
    }
}

#[test]
fn tampered_certificate_rejected() {
    let block = [0xcdu8; 32];
    let n = 10;
    let mut cluster = Cluster::start(n, |_| block);
    cluster.run_to_completion();
    let params = test_params(n as u64 * 10);
    let weights =
        RoundWeights::from_pairs((0..n).map(|i| (Keypair::from_seed(seed32(i)).pk, 10u64)));
    let d = cluster.decisions[0].as_ref().unwrap();

    // Claiming a different value: every vote disagrees.
    let mut cert = d.certificate.clone();
    cert.value = [0x99; 32];
    assert!(cert
        .validate(
            &params,
            &SEED,
            &PREV_HASH,
            &weights,
            &algorand_ba::RealVerifier
        )
        .is_err());

    // Dropping votes below the threshold.
    let mut cert = d.certificate.clone();
    cert.votes.truncate(1);
    assert!(cert
        .validate(
            &params,
            &SEED,
            &PREV_HASH,
            &weights,
            &algorand_ba::RealVerifier
        )
        .is_err());

    // Duplicating a vote to inflate the count.
    let mut cert = d.certificate.clone();
    let dup = cert.votes[0].clone();
    cert.votes.push(dup);
    assert!(cert
        .validate(
            &params,
            &SEED,
            &PREV_HASH,
            &weights,
            &algorand_ba::RealVerifier
        )
        .is_err());
}

#[test]
fn isolated_users_hang_at_max_steps() {
    // Two users whose committee threshold can never be crossed (threshold
    // computed against a much larger τ than their joint weight): every step
    // times out, and after MaxSteps the engine hangs for recovery (§8.2).
    let params = BaParams {
        tau_step: 1000.0,
        tau_final: 1000.0,
        max_steps: 7,
        lambda_step: SECOND,
        lambda_block: SECOND,
        disable_backoff: false,
    };
    let mut cluster = Cluster::start_with_params(2, |_| [0xabu8; 32], params);
    cluster.run_to_completion();
    assert!(cluster.hung.iter().all(|&h| h), "both users must hang");
    assert!(cluster.decisions.iter().all(|d| d.is_none()));
}

#[test]
fn late_votes_buffered_for_future_steps_are_counted() {
    // Start one engine, feed it the other users' reduction-step votes
    // *before* it reaches those steps: they must be tallied when it gets
    // there (the incomingMsgs buffer of Algorithm 5).
    let n = 8usize;
    let block = [0x55u8; 32];
    let keypairs: Vec<Keypair> = (0..n).map(|i| Keypair::from_seed(seed32(i))).collect();
    let weights = Arc::new(RoundWeights::from_pairs(
        keypairs.iter().map(|k| (k.pk, 10u64)),
    ));
    let verifier = Arc::new(CachedVerifier::new());
    let params = test_params(n as u64 * 10);

    // Run a full cluster to harvest all its votes.
    let mut cluster = Cluster::start(n, |_| block);
    let mut all_votes: Vec<VoteMessage> = Vec::new();
    {
        // Re-run message collection: replay a fresh cluster, capturing votes.
        let mut queue: Vec<VoteMessage> = Vec::new();
        let mut engines = Vec::new();
        let mut decisions = vec![None; n];
        let mut hung = vec![false; n];
        for (i, kp) in keypairs.iter().enumerate() {
            let (engine, outputs) = BaStar::start(
                params,
                kp.clone(),
                1,
                SEED,
                PREV_HASH,
                block,
                EMPTY_HASH,
                weights.clone(),
                verifier.clone(),
                0,
            );
            engines.push(engine);
            collect(i, outputs, &mut queue, &mut decisions, &mut hung);
        }
        while let Some(msg) = queue.pop() {
            all_votes.push(msg.clone());
            for (i, engine) in engines.iter_mut().enumerate() {
                let outputs = engine.on_vote(&msg, 0);
                collect(i, outputs, &mut queue, &mut decisions, &mut hung);
            }
        }
    }
    cluster.run_to_completion();
    assert!(!all_votes.is_empty());

    // A ninth observer (weight 0 ⇒ never on a committee) replays the votes
    // in arbitrary order and reaches the same decision purely passively —
    // the "passive participation" property of §7.
    let observer_kp = Keypair::from_seed([0xfe; 32]);
    let (mut observer, outputs) = BaStar::start(
        params,
        observer_kp,
        1,
        SEED,
        PREV_HASH,
        block,
        EMPTY_HASH,
        weights.clone(),
        verifier.clone(),
        0,
    );
    assert!(outputs.is_empty(), "weight-0 user is never selected");
    all_votes.reverse();
    let mut decided = None;
    for msg in &all_votes {
        for out in observer.on_vote(msg, 0) {
            if let Output::Decided(d) = out {
                decided = Some(d);
            }
        }
    }
    let d = decided.expect("observer decides from replayed votes alone");
    assert_eq!(d.value, block);
    assert_eq!(d.kind, ConsensusKind::Final);
}
