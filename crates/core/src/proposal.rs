//! Block proposal: priorities, proposer messages, and their verification
//! (§6).
//!
//! Sortition typically selects several proposers per round
//! (τ_proposer = 26). To converge on one block cheaply, each selected
//! sub-user has a *priority* — the hash of the proposer's VRF output
//! concatenated with the sub-user index — and everyone adopts the
//! highest-priority proposal. Proposers gossip two messages: a small
//! priority message (so users quickly learn who wins and discard other
//! blocks) and the full block.

use algorand_ba::{verify_sortition, RoundWeights};
use algorand_crypto::codec::{DecodeError, Reader, WriteExt};
use algorand_crypto::sig::{self, Signature};
use algorand_crypto::vrf::{VrfOutput, VrfProof};
use algorand_crypto::{sha256_concat, Keypair, PublicKey};
use algorand_ledger::Block;
use algorand_sortition::{Role, SortitionParams};

/// A block-proposal priority, ordered bytewise (higher wins).
pub type Priority = [u8; 32];

/// Computes the priority of a proposer selected as `j` sub-users:
/// `max_{1 ≤ i ≤ j} H(vrf_output ‖ i)` (§6).
pub fn compute_priority(output: &VrfOutput, j: u64) -> Priority {
    debug_assert!(j >= 1);
    let mut best = [0u8; 32];
    for i in 1..=j {
        let h = sha256_concat(&[&output.0, &i.to_le_bytes()]);
        if h > best {
            best = h;
        }
    }
    best
}

/// The small "priority and proof" gossip message (§6; ~200 bytes).
#[derive(Clone, Debug)]
pub struct PriorityMessage {
    /// The proposer.
    pub sender: PublicKey,
    /// The proposal round.
    pub round: u64,
    /// The proposer-role sortition output.
    pub sorthash: VrfOutput,
    /// The sortition proof.
    pub sort_proof: VrfProof,
    /// Hash of the proposed block, so receivers can match the block
    /// message that follows.
    pub block_hash: [u8; 32],
    /// Signature over all fields above.
    pub sig: Signature,
}

impl PriorityMessage {
    /// Serialized size in bytes: 32+8+32+96+32+64.
    pub const WIRE_SIZE: usize = 264;

    fn digest(
        round: u64,
        sorthash: &VrfOutput,
        proof: &VrfProof,
        block_hash: &[u8; 32],
    ) -> [u8; 32] {
        sha256_concat(&[
            b"algorand-repro/priority/v1",
            &round.to_le_bytes(),
            &sorthash.0,
            &proof.to_bytes(),
            block_hash,
        ])
    }

    /// Signs a priority message.
    pub fn sign(
        keypair: &Keypair,
        round: u64,
        sorthash: VrfOutput,
        sort_proof: VrfProof,
        block_hash: [u8; 32],
    ) -> PriorityMessage {
        let digest = Self::digest(round, &sorthash, &sort_proof, &block_hash);
        PriorityMessage {
            sender: keypair.pk,
            round,
            sorthash,
            sort_proof,
            block_hash,
            sig: sig::sign(keypair, &digest),
        }
    }

    /// A content id for gossip dedup.
    ///
    /// Covers every serialized byte: if two encodings differ anywhere,
    /// their ids differ, so a corrupted copy can never alias (and thereby
    /// suppress the relay of) the valid message.
    pub fn message_id(&self) -> [u8; 32] {
        let mut bytes = Vec::with_capacity(Self::WIRE_SIZE);
        self.encode(&mut bytes);
        sha256_concat(&[b"priority-id", &bytes])
    }

    /// Appends the canonical wire encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_bytes(self.sender.as_bytes());
        out.put_u64(self.round);
        out.put_bytes(&self.sorthash.0);
        out.put_bytes(&self.sort_proof.to_bytes());
        out.put_bytes(&self.block_hash);
        out.put_bytes(&self.sig.to_bytes());
    }

    /// Decodes a priority message from the wire.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated or malformed input.
    pub fn decode(r: &mut Reader<'_>) -> Result<PriorityMessage, DecodeError> {
        let sender = r.public_key()?;
        let round = r.u64()?;
        let sorthash = VrfOutput(r.bytes32()?);
        let sort_proof = r.vrf_proof()?;
        let block_hash = r.bytes32()?;
        let sig = r.signature()?;
        Ok(PriorityMessage {
            sender,
            round,
            sorthash,
            sort_proof,
            block_hash,
            sig,
        })
    }

    /// Verifies the message and returns the sender's priority.
    ///
    /// Checks the signature, the proposer-role sortition proof against
    /// `(seed, weights, τ_proposer)`, and recomputes the priority from the
    /// certified VRF output. Returns `None` for any failure or if the
    /// sender was not selected.
    pub fn verify(
        &self,
        seed: &[u8; 32],
        weights: &RoundWeights,
        tau_proposer: f64,
    ) -> Option<Priority> {
        let digest = Self::digest(
            self.round,
            &self.sorthash,
            &self.sort_proof,
            &self.block_hash,
        );
        sig::verify(&self.sender, &digest, &self.sig).ok()?;
        let role = Role::BlockProposer { round: self.round };
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

/// The full-block gossip message (§6's second message kind).
#[derive(Clone, Debug)]
pub struct BlockMessage {
    /// The proposed block (its `proposer` field names the sender).
    pub block: Block,
    /// The proposer-role sortition output.
    pub sorthash: VrfOutput,
    /// The sortition proof.
    pub sort_proof: VrfProof,
}

impl BlockMessage {
    /// Serialized size: the block plus the sortition fields.
    pub fn wire_size(&self) -> usize {
        self.block.wire_size() + 32 + 96
    }

    /// A content id for gossip dedup, covering the block *and* the
    /// sortition attachment (so a corrupted proof cannot alias the valid
    /// message in relay dedup).
    pub fn message_id(&self) -> [u8; 32] {
        self.message_id_for(&self.block.hash())
    }

    /// [`BlockMessage::message_id`] for a caller that already holds the
    /// block's hash.
    pub(crate) fn message_id_for(&self, block_hash: &[u8; 32]) -> [u8; 32] {
        sha256_concat(&[
            b"block-id",
            block_hash,
            &self.sorthash.0,
            &self.sort_proof.to_bytes(),
        ])
    }

    /// Appends the canonical wire encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.block.encode(out);
        out.put_bytes(&self.sorthash.0);
        out.put_bytes(&self.sort_proof.to_bytes());
    }

    /// Decodes a block message from the wire.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated or malformed input.
    pub fn decode(r: &mut Reader<'_>) -> Result<BlockMessage, DecodeError> {
        let block = Block::decode(r)?;
        let sorthash = VrfOutput(r.bytes32()?);
        let sort_proof = r.vrf_proof()?;
        Ok(BlockMessage {
            block,
            sorthash,
            sort_proof,
        })
    }

    /// Verifies proposer membership and returns the proposal's priority.
    ///
    /// Block *content* validation (transactions, seed, timestamp) happens
    /// separately via [`Block::validate`]; this checks only that the block
    /// was proposed by a sortition-selected proposer.
    pub fn verify(
        &self,
        seed: &[u8; 32],
        weights: &RoundWeights,
        tau_proposer: f64,
    ) -> Option<Priority> {
        let proposer = self.block.proposer.as_ref()?;
        let role = Role::BlockProposer {
            round: self.block.round,
        };
        verify_sortition(
            proposer,
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

/// Runs sortition for a proposer `role`; if selected, returns the VRF
/// material and the priority this proposer will advertise.
pub(crate) fn proposal_sortition(
    keypair: &Keypair,
    seed: &[u8; 32],
    role: Role,
    weights: &RoundWeights,
    tau_proposer: f64,
) -> Option<(VrfOutput, VrfProof, Priority)> {
    let params = SortitionParams {
        tau: tau_proposer,
        total_weight: weights.total(),
    };
    let weight = weights.weight_of(&keypair.pk);
    let sel = algorand_sortition::select(keypair, seed, role, &params, weight)?;
    let priority = compute_priority(&sel.vrf_output, sel.j);
    Some((sel.vrf_output, sel.proof, priority))
}

/// Proposer sortition for `round` (§6).
pub fn proposer_sortition(
    keypair: &Keypair,
    seed: &[u8; 32],
    round: u64,
    weights: &RoundWeights,
    tau_proposer: f64,
) -> Option<(VrfOutput, VrfProof, Priority)> {
    let role = Role::BlockProposer { round };
    proposal_sortition(keypair, seed, role, weights, tau_proposer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed([seed; 32])
    }

    fn setup() -> (Vec<Keypair>, RoundWeights) {
        let kps: Vec<Keypair> = (0..6u8).map(|i| kp(i + 1)).collect();
        let weights = RoundWeights::from_pairs(kps.iter().map(|k| (k.pk, 50u64)));
        (kps, weights)
    }

    #[test]
    fn priority_is_max_over_subusers() {
        let out = VrfOutput([9u8; 32]);
        let p1 = compute_priority(&out, 1);
        let p3 = compute_priority(&out, 3);
        assert!(p3 >= p1);
        // j = 3 priority is the max of the three candidate hashes.
        let candidates: Vec<[u8; 32]> = (1..=3u64)
            .map(|i| sha256_concat(&[&out.0, &i.to_le_bytes()]))
            .collect();
        assert_eq!(p3, *candidates.iter().max().unwrap());
    }

    #[test]
    fn priority_message_roundtrip() {
        let (kps, weights) = setup();
        let seed = [4u8; 32];
        // τ = W so everyone is a proposer.
        let (out, proof, priority) =
            proposer_sortition(&kps[0], &seed, 1, &weights, 300.0).expect("selected");
        let msg = PriorityMessage::sign(&kps[0], 1, out, proof, [7u8; 32]);
        let verified = msg.verify(&seed, &weights, 300.0).expect("valid");
        assert_eq!(verified, priority);
    }

    #[test]
    fn priority_message_rejects_wrong_seed() {
        let (kps, weights) = setup();
        let seed = [4u8; 32];
        let (out, proof, _) =
            proposer_sortition(&kps[0], &seed, 1, &weights, 300.0).expect("selected");
        let msg = PriorityMessage::sign(&kps[0], 1, out, proof, [7u8; 32]);
        assert!(msg.verify(&[5u8; 32], &weights, 300.0).is_none());
    }

    #[test]
    fn priority_message_rejects_unknown_sender() {
        let (kps, weights) = setup();
        let seed = [4u8; 32];
        let stranger = kp(99);
        let (out, proof, _) =
            proposer_sortition(&kps[0], &seed, 1, &weights, 300.0).expect("selected");
        // Stranger re-signs someone else's proof.
        let msg = PriorityMessage::sign(&stranger, 1, out, proof, [7u8; 32]);
        assert!(msg.verify(&seed, &weights, 300.0).is_none());
    }

    #[test]
    fn tampered_block_hash_breaks_signature() {
        let (kps, weights) = setup();
        let seed = [4u8; 32];
        let (out, proof, _) =
            proposer_sortition(&kps[0], &seed, 1, &weights, 300.0).expect("selected");
        let mut msg = PriorityMessage::sign(&kps[0], 1, out, proof, [7u8; 32]);
        msg.block_hash = [8u8; 32];
        assert!(msg.verify(&seed, &weights, 300.0).is_none());
    }

    #[test]
    fn higher_weight_wins_priority_more_often() {
        // A proposer selected for more sub-users takes the max over more
        // hashes, so its priority stochastically dominates. Check across
        // rounds that the whale wins more often than the minnow.
        let whale = kp(50);
        let minnow = kp(51);
        let weights = RoundWeights::from_pairs([(whale.pk, 90u64), (minnow.pk, 10u64)]);
        let mut whale_wins = 0;
        let mut contests = 0;
        for round in 0..60u64 {
            let seed = [round as u8; 32];
            let w = proposer_sortition(&whale, &seed, round, &weights, 100.0);
            let m = proposer_sortition(&minnow, &seed, round, &weights, 100.0);
            if let (Some((_, _, wp)), Some((_, _, mp))) = (w, m) {
                contests += 1;
                if wp > mp {
                    whale_wins += 1;
                }
            }
        }
        assert!(contests > 10, "contests = {contests}");
        assert!(
            whale_wins * 3 > contests * 2,
            "whale won {whale_wins}/{contests}"
        );
    }
}
