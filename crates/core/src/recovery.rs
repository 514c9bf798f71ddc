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

use crate::proposal::{compute_priority, proposal_sortition, Priority};
use algorand_ba::{verify_sortition, RoundWeights};
use algorand_crypto::codec::{DecodeError, Reader, WriteExt};
use algorand_crypto::sig::{self, Signature};
use algorand_crypto::vrf::{VrfOutput, VrfProof};
use algorand_crypto::{sha256_concat, Keypair, PublicKey};
use algorand_ledger::Block;
use algorand_sortition::Role;

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
