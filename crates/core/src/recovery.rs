//! Fork recovery (§8.2).
//!
//! When the network was only weakly synchronous, BA⋆ may have produced
//! tentative consensus on different blocks for different users, splitting
//! them onto forks where neither side can cross vote thresholds again. To
//! restore liveness, users rely on loosely synchronized clocks to stop
//! regular processing at every recovery interval and jointly agree on one
//! fork:
//!
//! 1. a *fork proposer* is drawn by sortition from a seed that predates any
//!    possible fork, and proposes an empty block extending the longest fork
//!    it has seen;
//! 2. everyone adopts the highest-priority proposal whose parent chain is
//!    at least as long as their own longest fork;
//! 3. BA⋆ runs on that proposal; on success everyone switches to the fork.
//!
//! If an attempt fails (BA⋆ hangs or times out), the seed is re-hashed and
//! the protocol retries until consensus is achieved.

use crate::node::{Node, Phase, RecoveryPhase, RecoveryState};
use crate::proposal::{compute_priority, proposal_sortition, Priority};
use crate::wire::WireMessage;
use algorand_ba::{verify_sortition, BaStar, Decision, Micros, RoundWeights};
use algorand_crypto::codec::{DecodeError, Reader, WriteExt};
use algorand_crypto::sig::{self, Signature};
use algorand_crypto::vrf::{VrfOutput, VrfProof};
use algorand_crypto::{sha256_concat, Keypair, PublicKey};
use algorand_ledger::Block;
use algorand_obs::{stable_id, SpanKind};
use algorand_sortition::Role;
use std::sync::Arc;

/// Derives the sortition seed for a recovery attempt.
///
/// `base` is the seed of the newest block that predates the fork window
/// (the paper takes it from the next-to-last complete b-long period); each
/// retry re-hashes so that failed attempts draw fresh proposers and
/// committees.
pub fn recovery_seed(base: &[u8; 32], epoch: u64, attempt: u32) -> [u8; 32] {
    sha256_concat(&[
        b"algorand-repro/recovery/v1",
        base,
        &epoch.to_le_bytes(),
        &attempt.to_le_bytes(),
    ])
}

/// A fork proposal: an empty block extending the proposer's longest fork.
#[derive(Clone, Debug)]
pub struct ForkProposalMessage {
    /// The fork proposer.
    pub sender: PublicKey,
    /// The recovery epoch (derived from wall clocks).
    pub epoch: u64,
    /// The retry attempt within the epoch.
    pub attempt: u32,
    /// Fork-proposer sortition output.
    pub sorthash: VrfOutput,
    /// Sortition proof.
    pub sort_proof: VrfProof,
    /// The proposed empty block; its `prev_hash` names the fork tip.
    pub block: Block,
    /// Signature over all fields above.
    pub sig: Signature,
}

impl ForkProposalMessage {
    fn digest(
        epoch: u64,
        attempt: u32,
        sorthash: &VrfOutput,
        proof: &VrfProof,
        block_hash: &[u8; 32],
    ) -> [u8; 32] {
        sha256_concat(&[
            b"algorand-repro/fork-proposal/v1",
            &epoch.to_le_bytes(),
            &attempt.to_le_bytes(),
            &sorthash.0,
            &proof.to_bytes(),
            block_hash,
        ])
    }

    /// Signs a fork proposal.
    pub fn sign(
        keypair: &Keypair,
        epoch: u64,
        attempt: u32,
        sorthash: VrfOutput,
        sort_proof: VrfProof,
        block: Block,
    ) -> ForkProposalMessage {
        let digest = Self::digest(epoch, attempt, &sorthash, &sort_proof, &block.hash());
        ForkProposalMessage {
            sender: keypair.pk,
            epoch,
            attempt,
            sorthash,
            sort_proof,
            block,
            sig: sig::sign(keypair, &digest),
        }
    }

    /// Serialized size in bytes.
    pub fn wire_size(&self) -> usize {
        32 + 8 + 4 + 32 + 96 + self.block.wire_size() + 64
    }

    /// A content id for gossip dedup, covering every serialized byte so a
    /// corrupted copy can never alias the valid message.
    pub fn message_id(&self) -> [u8; 32] {
        let mut bytes = Vec::with_capacity(self.wire_size());
        self.encode(&mut bytes);
        sha256_concat(&[b"fork-proposal-id", &bytes])
    }

    /// Appends the canonical wire encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_bytes(self.sender.as_bytes());
        out.put_u64(self.epoch);
        out.put_u32(self.attempt);
        out.put_bytes(&self.sorthash.0);
        out.put_bytes(&self.sort_proof.to_bytes());
        self.block.encode(out);
        out.put_bytes(&self.sig.to_bytes());
    }

    /// Decodes a fork proposal from the wire.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated or malformed input.
    pub fn decode(r: &mut Reader<'_>) -> Result<ForkProposalMessage, DecodeError> {
        let sender = r.public_key()?;
        let epoch = r.u64()?;
        let attempt = r.u32()?;
        let sorthash = VrfOutput(r.bytes32()?);
        let sort_proof = r.vrf_proof()?;
        let block = Block::decode(r)?;
        let sig = r.signature()?;
        Ok(ForkProposalMessage {
            sender,
            epoch,
            attempt,
            sorthash,
            sort_proof,
            block,
            sig,
        })
    }

    /// Verifies the proposal against the recovery context; returns the
    /// proposer's priority.
    pub fn verify(
        &self,
        seed: &[u8; 32],
        weights: &RoundWeights,
        tau_proposer: f64,
    ) -> Option<Priority> {
        let digest = Self::digest(
            self.epoch,
            self.attempt,
            &self.sorthash,
            &self.sort_proof,
            &self.block.hash(),
        );
        sig::verify(&self.sender, &digest, &self.sig).ok()?;
        if !self.block.is_empty_block() {
            return None; // Fork proposals must be empty blocks (§8.2).
        }
        let role = Role::ForkProposer {
            epoch: self.epoch,
            attempt: self.attempt,
        };
        verify_sortition(
            &self.sender,
            &self.sort_proof,
            &self.sorthash,
            seed,
            role,
            tau_proposer,
            weights,
        )
        .map(|j| compute_priority(&self.sorthash, j))
    }
}

/// Runs fork-proposer sortition for a recovery attempt.
pub fn fork_proposer_sortition(
    keypair: &Keypair,
    seed: &[u8; 32],
    epoch: u64,
    attempt: u32,
    weights: &RoundWeights,
    tau_proposer: f64,
) -> Option<(VrfOutput, VrfProof, Priority)> {
    let role = Role::ForkProposer { epoch, attempt };
    proposal_sortition(keypair, seed, role, weights, tau_proposer)
}

// --- The node's side of recovery ---------------------------------------------

impl Node {
    pub(crate) fn maybe_enter_recovery(&mut self, now: Micros, out: &mut Vec<WireMessage>) {
        if self.params.recovery_interval == 0 || now < self.next_epoch_check {
            return;
        }
        // Advance the check cursor first so a node that stays healthy (or
        // is already recovering) does not spin on a past boundary.
        self.next_epoch_check =
            (now / self.params.recovery_interval + 1) * self.params.recovery_interval;
        if matches!(self.phase, Phase::Recovery(_)) {
            return;
        }
        let epoch = now / self.params.recovery_interval;
        let stalled =
            self.hung || now.saturating_sub(self.last_progress) > self.params.recovery_interval;
        if epoch > self.last_recovery_epoch && stalled {
            self.last_recovery_epoch = epoch;
            self.enter_recovery(epoch, 0, now, out);
        }
    }

    fn recovery_context(&self, epoch: u64, attempt: u32) -> ([u8; 32], Arc<RoundWeights>) {
        // The shared reference point: the newest proposed block at least
        // one full interval old (next-to-last period, §8.2).
        let cutoff = (epoch.saturating_sub(1)) * self.params.recovery_interval;
        let (base_round, base_seed) = self.chain.recovery_base(cutoff);
        let seed = recovery_seed(&base_seed, epoch, attempt);
        let weight_round = base_round.saturating_sub(self.params.chain.weight_lookback);
        let weights = Arc::new(self.chain.weights_at_round(weight_round));
        (seed, weights)
    }

    fn enter_recovery(
        &mut self,
        epoch: u64,
        attempt: u32,
        now: Micros,
        out: &mut Vec<WireMessage>,
    ) {
        self.tracer
            .span(
                SpanKind::Fault,
                self.trace_node,
                self.chain.tip().round,
                now,
            )
            .step(attempt)
            .label("recovery_enter")
            .value(epoch)
            .instant();
        let (seed, weights) = self.recovery_context(epoch, attempt);
        let mut best: Option<(Priority, Block)> = None;
        // Fork-proposer sortition: propose an empty block extending the
        // longest fork we have seen.
        if let Some((sorthash, sort_proof, priority)) = fork_proposer_sortition(
            &self.keypair,
            &seed,
            epoch,
            attempt,
            &weights,
            self.params.tau_proposer,
        ) {
            let (tip_hash, _) = self.chain.longest_fork();
            let tip = self
                .chain
                .block_by_hash(&tip_hash)
                .expect("longest fork tip is stored")
                .clone();
            let block = Block::empty(tip.round + 1, tip_hash, &tip.seed);
            self.chain.observe_block(block.clone());
            let msg = ForkProposalMessage::sign(
                &self.keypair,
                epoch,
                attempt,
                sorthash,
                sort_proof,
                block,
            );
            // Same rule as round proposals: our own fork proposal goes
            // through the verify stage (warming the shared cache) before
            // it can become the best candidate.
            match self.verifier.verify_fork_proposal(
                &msg,
                &seed,
                &weights,
                self.params.tau_proposer,
            ) {
                Some(vf) => {
                    debug_assert_eq!(vf.priority(), priority);
                    self.pipeline.verified += 1;
                    best = Some((vf.priority(), vf.block().clone()));
                    out.push(WireMessage::ForkProposal(msg));
                }
                None => debug_assert!(false, "own freshly signed fork proposal must verify"),
            }
        }
        self.phase = Phase::Recovery(RecoveryState {
            epoch,
            attempt,
            seed,
            weights,
            phase: RecoveryPhase::WaitProposals {
                until: now + self.params.proposal_wait(),
                best,
            },
            window_until: now + self.params.proposal_wait(),
            attempt_deadline: now
                + self.params.proposal_wait()
                + self.params.ba.lambda_block
                + 6 * self.params.ba.lambda_step,
        });
    }

    pub(crate) fn on_fork_proposal(
        &mut self,
        f: &ForkProposalMessage,
        now: Micros,
        out: &mut Vec<WireMessage>,
    ) {
        // Store the proposed block regardless of phase, so a decision can
        // complete even if the proposal arrives late.
        self.chain.observe_block(f.block.clone());
        let Phase::Recovery(r) = &mut self.phase else {
            self.pipeline.rejected_ingest += 1;
            return;
        };
        if f.epoch != r.epoch || f.attempt != r.attempt {
            self.pipeline.rejected_ingest += 1;
            return;
        }
        let RecoveryPhase::WaitProposals { best, .. } = &mut r.phase else {
            self.pipeline.rejected_ingest += 1;
            return;
        };
        let verdict =
            self.verifier
                .verify_fork_proposal(f, &r.seed, &r.weights, self.params.tau_proposer);
        if self.tracer.is_enabled() {
            self.tracer
                .span(SpanKind::Verify, self.trace_node, f.block.round, now)
                .label("fork")
                .id(stable_id(&f.message_id()))
                .ok(verdict.is_some())
                .instant();
        }
        let Some(vf) = verdict else {
            self.pipeline.rejected_verify += 1;
            return;
        };
        self.pipeline.verified += 1;
        // The proposed fork must be at least as long as our longest (§8.2).
        let our_len = self.chain.longest_fork().1;
        match self.chain.fork_length(&f.block.prev_hash) {
            Some(len) if len + 1 >= our_len => {}
            _ => return,
        }
        let had_best = best.is_some();
        if best
            .as_ref()
            .map(|(b, _)| vf.priority() > *b)
            .unwrap_or(true)
        {
            *best = Some((vf.priority(), vf.block().clone()));
        }
        // If the collection window already closed while we had no proposal,
        // this late arrival should start BA promptly rather than waiting
        // for the attempt deadline.
        if !had_best && now >= r.window_until {
            if let RecoveryPhase::WaitProposals { until, .. } = &mut r.phase {
                *until = now;
            }
            self.recovery_tick(now, out);
        }
    }

    pub(crate) fn recovery_tick(&mut self, now: Micros, out: &mut Vec<WireMessage>) {
        let Phase::Recovery(r) = &mut self.phase else {
            return;
        };
        // Attempt expired without a decision: retry with a re-hashed seed.
        if now >= r.attempt_deadline {
            self.retry_recovery(now, out);
            return;
        }
        match &mut r.phase {
            RecoveryPhase::WaitProposals { until, best } => {
                if now < *until {
                    return;
                }
                let Some((_, block)) = best.clone() else {
                    // No proposal heard; sleep until the attempt deadline
                    // (a late proposal can still move us to BA before it).
                    *until = r.attempt_deadline;
                    return;
                };
                let prev_seed_block = self
                    .chain
                    .block_by_hash(&block.prev_hash)
                    .expect("fork ancestry was validated");
                let empty = Block::empty(block.round, block.prev_hash, &prev_seed_block.seed);
                debug_assert_eq!(empty.hash(), block.hash());
                let (mut engine, mut outputs) = BaStar::start(
                    self.params.ba,
                    self.keypair.clone(),
                    block.round,
                    r.seed,
                    block.prev_hash,
                    block.hash(),
                    block.hash(),
                    r.weights.clone(),
                    self.verifier.clone(),
                    now,
                );
                // Recovery re-runs fork rounds whose (node, round, step)
                // keys collide with the normal rounds' causal namespace;
                // suppress before the tracer attach so the parked
                // reduction-one emission is not flushed with ids either.
                engine.suppress_causal_ids();
                engine.set_tracer(self.tracer.clone(), self.trace_node);
                outputs.extend(engine.on_tick(now));
                r.phase = RecoveryPhase::Ba {
                    engine: Box::new(engine),
                };
                self.handle_engine_outputs(outputs, now, out);
            }
            RecoveryPhase::Ba { engine, .. } => {
                let outputs = engine.on_tick(now);
                self.handle_engine_outputs(outputs, now, out);
            }
        }
    }

    /// Gives up on the current recovery attempt and starts the next one
    /// at once, with a re-hashed seed.
    pub(crate) fn retry_recovery(&mut self, now: Micros, out: &mut Vec<WireMessage>) {
        if let Phase::Recovery(r) = &self.phase {
            let (epoch, attempt) = (r.epoch, r.attempt + 1);
            self.enter_recovery(epoch, attempt, now, out);
        }
    }

    pub(crate) fn complete_recovery(
        &mut self,
        decision: Decision,
        now: Micros,
        out: &mut Vec<WireMessage>,
    ) {
        let Some(block) = self.chain.block_by_hash(&decision.value).cloned() else {
            // We decided on a fork block we never saw.
            return self.retry_recovery(now, out);
        };
        // Adopt the agreed fork (a no-op on our own tip), salvaging the
        // abandoned blocks' payments, then append the agreed empty block.
        let Ok(abandoned) = self.chain.switch_to_fork(block.prev_hash, now) else {
            return self.retry_recovery(now, out);
        };
        self.pool.reinsert(abandoned, self.chain.accounts());
        if self
            .chain
            .append(block, Some(decision.certificate), false, now)
            .is_err()
        {
            return self.retry_recovery(now, out);
        }
        self.hung = false;
        self.last_progress = now;
        self.recovery.recoveries_completed += 1;
        self.stepvar_backoff = 0;
        self.tracer
            .span(
                SpanKind::Fault,
                self.trace_node,
                self.chain.tip().round,
                now,
            )
            .label("recovery_done")
            .instant();
        // A fork switch rewinds state; re-anchor the mempool on the
        // adopted fork's accounts.
        self.pool.prune(self.chain.accounts());
        self.start_round(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed([seed; 32])
    }

    #[test]
    fn recovery_seeds_differ_per_attempt_and_epoch() {
        let base = [1u8; 32];
        let s00 = recovery_seed(&base, 0, 0);
        let s01 = recovery_seed(&base, 0, 1);
        let s10 = recovery_seed(&base, 1, 0);
        assert_ne!(s00, s01);
        assert_ne!(s00, s10);
        assert_eq!(recovery_seed(&base, 0, 0), s00);
    }

    #[test]
    fn fork_proposal_roundtrip() {
        let proposer = kp(1);
        let weights = RoundWeights::from_pairs([(proposer.pk, 100u64)]);
        let seed = recovery_seed(&[2u8; 32], 3, 0);
        let (out, proof, priority) =
            fork_proposer_sortition(&proposer, &seed, 3, 0, &weights, 100.0).expect("selected");
        let block = Block::empty(5, [9u8; 32], &[8u8; 32]);
        let msg = ForkProposalMessage::sign(&proposer, 3, 0, out, proof, block);
        assert_eq!(msg.verify(&seed, &weights, 100.0), Some(priority));
    }

    #[test]
    fn non_empty_fork_proposal_rejected() {
        let proposer = kp(1);
        let weights = RoundWeights::from_pairs([(proposer.pk, 100u64)]);
        let seed = recovery_seed(&[2u8; 32], 3, 0);
        let (out, proof, _) =
            fork_proposer_sortition(&proposer, &seed, 3, 0, &weights, 100.0).expect("selected");
        let mut block = Block::empty(5, [9u8; 32], &[8u8; 32]);
        block.proposer = Some(proposer.pk); // No longer an empty block.
        let msg = ForkProposalMessage::sign(&proposer, 3, 0, out, proof, block);
        assert!(msg.verify(&seed, &weights, 100.0).is_none());
    }

    #[test]
    fn fork_proposal_bound_to_attempt() {
        let proposer = kp(1);
        let weights = RoundWeights::from_pairs([(proposer.pk, 100u64)]);
        let seed0 = recovery_seed(&[2u8; 32], 3, 0);
        let (out, proof, _) =
            fork_proposer_sortition(&proposer, &seed0, 3, 0, &weights, 100.0).expect("selected");
        let block = Block::empty(5, [9u8; 32], &[8u8; 32]);
        // Claim the proof was for attempt 1.
        let msg = ForkProposalMessage::sign(&proposer, 3, 1, out, proof, block);
        let seed1 = recovery_seed(&[2u8; 32], 3, 1);
        assert!(msg.verify(&seed1, &weights, 100.0).is_none());
    }
}
