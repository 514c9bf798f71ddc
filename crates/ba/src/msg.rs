//! Vote messages and step identifiers for BA⋆ (§7.2, Algorithm 4).
//!
//! A committee member's vote carries: the sender's public key, the round
//! and step, the sortition hash and proof (establishing committee
//! membership and vote multiplicity), the hash of the previous block
//! (binding the vote to a chain context), the value voted for, and a
//! signature over all of it.
//!
//! A [`VoteMessage`] is a handle on one immutable, shared [`VoteBody`]: a
//! clone is a reference-count bump, and the body remembers its content id
//! once asked, so a vote is hashed at most once per body however many
//! nodes, caches and tallies look at it. The memo is sound because the
//! body cannot change under it: there is no `DerefMut` and no setter, and
//! a vote with any field altered is a *new* body
//! ([`VoteMessage::from_parts`]). The body does **not** remember a
//! verification verdict: unlike a payment's signature, whether a vote
//! counts depends on the `(seed, weights, τ)` it is checked against
//! ([`crate::verify::VoteContext`]), which is not the vote's to know.

use algorand_crypto::codec::{DecodeError, Reader, WriteExt};
use algorand_crypto::sig::{self, Signature};
use algorand_crypto::vrf::{VrfOutput, VrfProof};
use algorand_crypto::{sha256_concat, Keypair, PublicKey};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A 32-byte block-hash value voted on by BA⋆.
pub type Value = [u8; 32];

/// Identifies a step within one round of BA⋆.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub enum StepKind {
    /// First reduction step: vote for the hash of the proposed block.
    ReductionOne,
    /// Second reduction step: re-vote for the popular hash.
    ReductionTwo,
    /// A step of BinaryBA⋆, numbered from 1.
    Main(u32),
    /// The special final step that upgrades tentative to final consensus.
    Final,
}

impl StepKind {
    /// Reserved code for the final step.
    const CODE_FINAL: u32 = 0;
    /// Reserved code for the first reduction step.
    const CODE_REDUCTION_ONE: u32 = 0xffff_fffe;
    /// Reserved code for the second reduction step.
    const CODE_REDUCTION_TWO: u32 = 0xffff_ffff;

    /// Encodes the step as the `u32` used in sortition roles and on the
    /// wire. Main steps map to their own number (1-based); the reduction
    /// and final steps use reserved codes outside the main range.
    pub fn code(self) -> u32 {
        match self {
            StepKind::Final => Self::CODE_FINAL,
            StepKind::ReductionOne => Self::CODE_REDUCTION_ONE,
            StepKind::ReductionTwo => Self::CODE_REDUCTION_TWO,
            StepKind::Main(s) => {
                debug_assert!((1..Self::CODE_REDUCTION_ONE).contains(&s));
                s
            }
        }
    }

    /// Decodes a wire code back into a step.
    pub fn from_code(code: u32) -> StepKind {
        match code {
            Self::CODE_FINAL => StepKind::Final,
            Self::CODE_REDUCTION_ONE => StepKind::ReductionOne,
            Self::CODE_REDUCTION_TWO => StepKind::ReductionTwo,
            s => StepKind::Main(s),
        }
    }
}

/// The fields of a signed committee vote, read through [`VoteMessage`]'s
/// `Deref`.
#[derive(Debug)]
pub struct VoteBody {
    /// The voter's public key.
    pub sender: PublicKey,
    /// The Algorand round this vote belongs to.
    pub round: u64,
    /// The BA⋆ step this vote belongs to.
    pub step: StepKind,
    /// The voter's sortition VRF output (committee-membership hash).
    pub sorthash: VrfOutput,
    /// The sortition proof π.
    pub sort_proof: VrfProof,
    /// Hash of the previous block: votes only count on matching chains.
    pub prev_hash: [u8; 32],
    /// The value (block hash) voted for.
    pub value: Value,
    /// Signature over the digest of all fields above.
    pub sig: Signature,
    /// `sha256` of the canonical encoding, once asked for.
    id: OnceLock<[u8; 32]>,
}

/// A signed committee vote (the message gossiped by Algorithm 4): a
/// cheaply clonable handle on an immutable [`VoteBody`].
#[derive(Clone, Debug)]
pub struct VoteMessage(Arc<VoteBody>);

impl Deref for VoteMessage {
    type Target = VoteBody;

    fn deref(&self) -> &VoteBody {
        &self.0
    }
}

/// A body is read by several simulator workers at once; losing `Sync`
/// (e.g. by memoizing in a `Cell`) fails right here.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VoteMessage>();
};

impl VoteMessage {
    /// The digest that the sender signs.
    fn signing_digest(
        round: u64,
        step: StepKind,
        sorthash: &VrfOutput,
        sort_proof: &VrfProof,
        prev_hash: &[u8; 32],
        value: &Value,
    ) -> [u8; 32] {
        sha256_concat(&[
            b"algorand-repro/vote/v1",
            &round.to_le_bytes(),
            &step.code().to_le_bytes(),
            &sorthash.0,
            &sort_proof.to_bytes(),
            prev_hash,
            value,
        ])
    }

    /// Constructs and signs a vote.
    #[allow(clippy::too_many_arguments)]
    pub fn sign(
        keypair: &Keypair,
        round: u64,
        step: StepKind,
        sorthash: VrfOutput,
        sort_proof: VrfProof,
        prev_hash: [u8; 32],
        value: Value,
    ) -> VoteMessage {
        let digest = Self::signing_digest(round, step, &sorthash, &sort_proof, &prev_hash, &value);
        let sig = sig::sign(keypair, &digest);
        Self::from_parts(
            keypair.pk, round, step, sorthash, sort_proof, prev_hash, value, sig,
        )
    }

    /// A vote with exactly these fields and nothing remembered about it.
    /// This is the only way to obtain a vote that differs from an existing
    /// one in any field, which is why a remembered id can never describe
    /// other bytes than the ones it was hashed from.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        sender: PublicKey,
        round: u64,
        step: StepKind,
        sorthash: VrfOutput,
        sort_proof: VrfProof,
        prev_hash: [u8; 32],
        value: Value,
        sig: Signature,
    ) -> VoteMessage {
        VoteMessage(Arc::new(VoteBody {
            sender,
            round,
            step,
            sorthash,
            sort_proof,
            prev_hash,
            value,
            sig,
            id: OnceLock::new(),
        }))
    }

    /// True if both handles share one body (and therefore one id memo).
    pub fn same_body(&self, other: &VoteMessage) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Verifies only the signature (not sortition membership).
    pub fn signature_valid(&self) -> bool {
        let digest = Self::signing_digest(
            self.round,
            self.step,
            &self.sorthash,
            &self.sort_proof,
            &self.prev_hash,
            &self.value,
        );
        sig::verify(&self.sender, &digest, &self.sig).is_ok()
    }

    /// A content hash identifying this message (used for dedup and for the
    /// shared verification cache): `sha256` of the canonical encoding,
    /// hashed on first call and remembered by the body afterwards.
    pub fn message_id(&self) -> [u8; 32] {
        *self.0.id.get_or_init(|| {
            sha256_concat(&[
                self.sender.as_bytes(),
                &self.round.to_le_bytes(),
                &self.step.code().to_le_bytes(),
                &self.sorthash.0,
                &self.sort_proof.to_bytes(),
                &self.prev_hash,
                &self.value,
                &self.sig.to_bytes(),
            ])
        })
    }

    /// Serialized size in bytes, for bandwidth accounting in the simulator.
    ///
    /// pk(32) + round(8) + step(4) + sorthash(32) + proof(96) +
    /// prev_hash(32) + value(32) + sig(64) = 300 bytes, close to the ~200
    /// bytes the paper cites for priority/vote messages.
    pub const WIRE_SIZE: usize = 300;

    /// Appends the canonical wire encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_bytes(self.sender.as_bytes());
        out.put_u64(self.round);
        out.put_u32(self.step.code());
        out.put_bytes(&self.sorthash.0);
        out.put_bytes(&self.sort_proof.to_bytes());
        out.put_bytes(&self.prev_hash);
        out.put_bytes(&self.value);
        out.put_bytes(&self.sig.to_bytes());
    }

    /// The canonical wire encoding as a fresh buffer.
    pub fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_SIZE);
        self.encode(&mut out);
        out
    }

    /// Decodes a vote from the wire.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated input or malformed keys,
    /// proofs, or signatures. The result is structurally valid but not yet
    /// *verified* — callers still run ProcessMsg (Algorithm 6).
    pub fn decode(r: &mut Reader<'_>) -> Result<VoteMessage, DecodeError> {
        let sender = r.public_key()?;
        let round = r.u64()?;
        let step = StepKind::from_code(r.u32()?);
        if let StepKind::Main(s) = step {
            if s == 0 {
                return Err(DecodeError::Invalid);
            }
        }
        let sorthash = VrfOutput(r.bytes32()?);
        let sort_proof = r.vrf_proof()?;
        let prev_hash = r.bytes32()?;
        let value = r.bytes32()?;
        let sig = r.signature()?;
        Ok(Self::from_parts(
            sender, round, step, sorthash, sort_proof, prev_hash, value, sig,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_crypto::vrf;

    fn sample_vote(seed: u8, round: u64, step: StepKind) -> VoteMessage {
        let keypair = Keypair::from_seed([seed; 32]);
        let (sorthash, proof) = vrf::prove(&keypair, b"sortition-input");
        VoteMessage::sign(&keypair, round, step, sorthash, proof, [7u8; 32], [9u8; 32])
    }

    #[test]
    fn step_codes_roundtrip() {
        let steps = [
            StepKind::Final,
            StepKind::ReductionOne,
            StepKind::ReductionTwo,
            StepKind::Main(1),
            StepKind::Main(150),
        ];
        for s in steps {
            assert_eq!(StepKind::from_code(s.code()), s);
        }
    }

    #[test]
    fn step_codes_distinct() {
        let codes = [
            StepKind::Final.code(),
            StepKind::ReductionOne.code(),
            StepKind::ReductionTwo.code(),
            StepKind::Main(1).code(),
            StepKind::Main(2).code(),
        ];
        for (i, a) in codes.iter().enumerate() {
            for (j, b) in codes.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b);
                }
            }
        }
    }

    #[test]
    fn signed_vote_verifies() {
        let vote = sample_vote(1, 5, StepKind::Main(2));
        assert!(vote.signature_valid());
    }

    /// The arguments of [`VoteMessage::from_parts`], in order.
    type Parts = (
        PublicKey,
        u64,
        StepKind,
        VrfOutput,
        VrfProof,
        [u8; 32],
        Value,
        Signature,
    );

    /// A fresh body from `v`'s fields after `edit` has been at them.
    fn forged(v: &VoteMessage, edit: impl FnOnce(&mut Parts)) -> VoteMessage {
        let mut p = (
            v.sender,
            v.round,
            v.step,
            v.sorthash,
            v.sort_proof,
            v.prev_hash,
            v.value,
            v.sig,
        );
        edit(&mut p);
        VoteMessage::from_parts(p.0, p.1, p.2, p.3, p.4, p.5, p.6, p.7)
    }

    #[test]
    fn any_changed_field_is_a_new_id_and_a_broken_signature() {
        let vote = sample_vote(2, 5, StepKind::Main(2));
        let other = sample_vote(3, 6, StepKind::Main(2));
        let id = vote.message_id();
        let rebuilt = forged(&vote, |_| {});
        assert!(!rebuilt.same_body(&vote));
        assert_eq!(rebuilt.message_id(), id, "same fields, same id");
        assert!(rebuilt.signature_valid());
        let forgeries = [
            forged(&vote, |p| p.0 = other.sender),
            forged(&vote, |p| p.1 += 1),
            forged(&vote, |p| p.2 = StepKind::Main(3)),
            forged(&vote, |p| p.3 .0[0] ^= 1),
            forged(&vote, |p| p.4 = other.sort_proof),
            forged(&vote, |p| p.5[0] ^= 1),
            forged(&vote, |p| p.6[0] ^= 1),
            forged(&vote, |p| p.7 = other.sig),
        ];
        for (field, f) in forgeries.iter().enumerate() {
            assert_ne!(f.message_id(), id, "part {field}");
            assert!(!f.signature_valid(), "part {field}");
        }
        assert_eq!(vote.message_id(), id, "the original is untouched");
        assert!(vote.signature_valid());
    }

    #[test]
    fn the_id_is_the_hash_of_the_encoding_and_clones_share_it() {
        let vote = sample_vote(4, 9, StepKind::Final);
        let copy = vote.clone();
        assert!(copy.same_body(&vote));
        assert_eq!(copy.0.id.get(), None, "signing is not hashing");
        let id = vote.message_id();
        assert_eq!(id, algorand_crypto::sha256(&vote.encoded()));
        assert_eq!(copy.0.id.get(), Some(&id), "the clone sees the hash");
        assert_eq!(copy.message_id(), id);
    }

    #[test]
    fn wire_roundtrip() {
        use algorand_crypto::codec::Reader;
        for step in [StepKind::Final, StepKind::ReductionOne, StepKind::Main(7)] {
            let vote = sample_vote(5, 42, step);
            let bytes = vote.encoded();
            assert_eq!(bytes.len(), VoteMessage::WIRE_SIZE);
            // Twice: the sender's key is parsed cold at most once per
            // process, and a decode that finds it proven must agree.
            for pass in ["cold", "warm"] {
                let mut r = Reader::new(&bytes);
                let back = VoteMessage::decode(&mut r).unwrap();
                r.finish().unwrap();
                assert_eq!(back.message_id(), vote.message_id(), "{pass}");
                assert_eq!(back.encoded(), bytes, "{pass}");
                assert!(back.signature_valid(), "{pass}");
            }
        }
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        use algorand_crypto::codec::Reader;
        let vote = sample_vote(6, 1, StepKind::Main(1));
        let bytes = vote.encoded();
        for cut in [0usize, 10, 100, 299] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(VoteMessage::decode(&mut r).is_err(), "cut at {cut}");
        }
        let mut corrupt = bytes.clone();
        corrupt[0] ^= 0xff; // Sender key no longer decompresses (usually).
        let mut r = Reader::new(&corrupt);
        // Either the key fails to parse or the signature is now invalid,
        // and a second decode says the same.
        let first = VoteMessage::decode(&mut r).map(|v| v.signature_valid());
        assert_ne!(first, Ok(true));
        let again = VoteMessage::decode(&mut Reader::new(&corrupt)).map(|v| v.signature_valid());
        assert_eq!(again, first);
    }

    #[test]
    fn message_ids_differ_by_content() {
        let a = sample_vote(3, 1, StepKind::Main(1));
        let b = sample_vote(3, 2, StepKind::Main(1));
        let c = sample_vote(4, 1, StepKind::Main(1));
        assert_ne!(a.message_id(), b.message_id());
        assert_ne!(a.message_id(), c.message_id());
        assert_eq!(a.message_id(), a.clone().message_id());
    }
}
