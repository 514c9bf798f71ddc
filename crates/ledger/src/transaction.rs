//! Signed payment transactions (§3, §8.1).
//!
//! Each transaction is "a payment signed by one user's public key
//! transferring money to another user's public key". A per-sender sequence
//! number prevents replay.
//!
//! A [`Transaction`] is a handle on one immutable, shared [`TxBody`]: a
//! clone is a reference-count bump, and the body memoizes the two things
//! every layer keeps asking of a payment — its content id and whether its
//! signature verifies — so each is computed at most once per body. The
//! pool, a proposal, the gossiped block and the appended block all hold
//! the same body, hence the same verdict. The memo is sound because the
//! body cannot change under it: there is no `DerefMut` and no setter, and
//! a payment with any field altered is a *new* body
//! ([`Transaction::from_parts`]) that starts unverified. It is never
//! serialized, so bytes from outside ([`Transaction::decode`]) always
//! start unverified too.

use crate::codec::{DecodeError, Reader, WriteExt};
use algorand_crypto::sig::{self, Signature};
use algorand_crypto::{sha256, Keypair, PublicKey};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// The fields of a signed payment, read through [`Transaction`]'s `Deref`.
#[derive(Debug)]
pub struct TxBody {
    /// The paying account.
    pub from: PublicKey,
    /// The receiving account.
    pub to: PublicKey,
    /// Currency units transferred.
    pub amount: u64,
    /// Sender sequence number; must be exactly the sender's current nonce
    /// plus one, preventing replay and enforcing per-sender ordering.
    pub nonce: u64,
    /// Signature by `from` over all fields above.
    pub sig: Signature,
    /// `sha256` of the canonical encoding, once asked for.
    id: OnceLock<[u8; 32]>,
    /// Whether `sig` verifies under `from`, once checked. A `false` is
    /// remembered as firmly as a `true`.
    verdict: OnceLock<bool>,
}

/// A signed payment: a cheaply clonable handle on an immutable [`TxBody`].
#[derive(Clone, Debug)]
pub struct Transaction(Arc<TxBody>);

impl Deref for Transaction {
    type Target = TxBody;

    fn deref(&self) -> &TxBody {
        &self.0
    }
}

/// Equality of the signed fields, i.e. of the canonical encodings; two
/// handles on one body are equal without looking.
impl PartialEq for Transaction {
    fn eq(&self, other: &Transaction) -> bool {
        self.same_body(other)
            || (self.from == other.from
                && self.to == other.to
                && self.amount == other.amount
                && self.nonce == other.nonce
                && self.sig == other.sig)
    }
}

impl Transaction {
    /// The serialized size in bytes: 32 + 32 + 8 + 8 + 64.
    pub const WIRE_SIZE: usize = 144;

    fn signing_digest(from: &PublicKey, to: &PublicKey, amount: u64, nonce: u64) -> [u8; 32] {
        let mut buf = Vec::with_capacity(90);
        buf.put_bytes(b"algorand-repro/tx/v1");
        buf.put_bytes(from.as_bytes());
        buf.put_bytes(to.as_bytes());
        buf.put_u64(amount);
        buf.put_u64(nonce);
        sha256(&buf)
    }

    /// Creates and signs a payment of `amount` from `keypair` to `to`.
    pub fn payment(keypair: &Keypair, to: PublicKey, amount: u64, nonce: u64) -> Transaction {
        let digest = Self::signing_digest(&keypair.pk, &to, amount, nonce);
        Self::from_parts(keypair.pk, to, amount, nonce, sig::sign(keypair, &digest))
    }

    /// A payment with exactly these fields and nothing known about it: a
    /// fresh body whose signature has not been checked. This is the only
    /// way to obtain a payment that differs from an existing one in any
    /// field, which is why a verdict can never describe other bytes than
    /// the ones it was computed from.
    pub fn from_parts(
        from: PublicKey,
        to: PublicKey,
        amount: u64,
        nonce: u64,
        sig: Signature,
    ) -> Transaction {
        Transaction(Arc::new(TxBody {
            from,
            to,
            amount,
            nonce,
            sig,
            id: OnceLock::new(),
            verdict: OnceLock::new(),
        }))
    }

    /// Whether the sender's signature verifies; checked on first call,
    /// remembered by the body (and so by every clone) afterwards.
    pub fn signature_valid(&self) -> bool {
        *self.0.verdict.get_or_init(|| {
            let digest = Self::signing_digest(&self.from, &self.to, self.amount, self.nonce);
            sig::verify(&self.from, &digest, &self.sig).is_ok()
        })
    }

    /// The remembered verdict: `None` until [`Transaction::signature_valid`]
    /// has run on this body. Each body is checked at most once, so the
    /// signature checks a process spent on a payment are the distinct
    /// bodies ([`Transaction::same_body`]) of it that answer `Some`.
    pub fn verdict(&self) -> Option<bool> {
        self.0.verdict.get().copied()
    }

    /// True if both handles share one body (and therefore one memo).
    pub fn same_body(&self, other: &Transaction) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// A content hash identifying this transaction; hashed on first call.
    pub fn id(&self) -> [u8; 32] {
        *self.0.id.get_or_init(|| sha256(&self.encoded()))
    }

    /// Appends the canonical encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_bytes(self.from.as_bytes());
        out.put_bytes(self.to.as_bytes());
        out.put_u64(self.amount);
        out.put_u64(self.nonce);
        out.put_bytes(&self.sig.to_bytes());
    }

    /// The canonical encoding as a fresh buffer.
    pub fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_SIZE);
        self.encode(&mut out);
        out
    }

    /// Decodes a transaction, validating key and signature encodings. The
    /// result is unverified whatever the sender knew about its own copy.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Invalid`] for malformed keys or signatures.
    pub fn decode(r: &mut Reader<'_>) -> Result<Transaction, DecodeError> {
        let from = r.public_key()?;
        let to = r.public_key()?;
        let amount = r.u64()?;
        let nonce = r.u64()?;
        let sig = r.signature()?;
        Ok(Self::from_parts(from, to, amount, nonce, sig))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed([seed; 32])
    }

    #[test]
    fn payment_signature_verifies() {
        let a = kp(1);
        let b = kp(2);
        let tx = Transaction::payment(&a, b.pk, 50, 1);
        assert!(tx.signature_valid());
    }

    #[test]
    fn tampered_amount_breaks_signature() {
        let a = kp(1);
        let b = kp(2);
        let tx = Transaction::payment(&a, b.pk, 50, 1);
        let tampered = Transaction::from_parts(tx.from, tx.to, 500, tx.nonce, tx.sig);
        assert!(!tampered.signature_valid());
    }

    #[test]
    fn clones_share_one_verdict_and_one_id() {
        let tx = Transaction::payment(&kp(1), kp(2).pk, 50, 1);
        let copy = tx.clone();
        assert!(copy.same_body(&tx));
        assert_eq!(copy.verdict(), None, "signing is not verifying");
        assert!(tx.signature_valid());
        assert_eq!(copy.verdict(), Some(true), "the clone sees the check");
        assert_eq!(copy.id(), tx.id());
    }

    #[test]
    fn a_verdict_never_follows_the_fields_into_a_new_body() {
        let tx = Transaction::payment(&kp(1), kp(2).pk, 50, 1);
        assert!(tx.signature_valid());
        let rebuilt = Transaction::from_parts(tx.from, tx.to, tx.amount, tx.nonce, tx.sig);
        assert!(!rebuilt.same_body(&tx));
        assert_eq!(rebuilt.verdict(), None);
        assert!(rebuilt.signature_valid(), "same fields, checked afresh");
        let other_sig = Transaction::payment(&kp(1), kp(2).pk, 51, 1).sig;
        let forgeries = [
            Transaction::from_parts(kp(3).pk, tx.to, tx.amount, tx.nonce, tx.sig),
            Transaction::from_parts(tx.from, kp(3).pk, tx.amount, tx.nonce, tx.sig),
            Transaction::from_parts(tx.from, tx.to, tx.amount + 1, tx.nonce, tx.sig),
            Transaction::from_parts(tx.from, tx.to, tx.amount, tx.nonce + 1, tx.sig),
            Transaction::from_parts(tx.from, tx.to, tx.amount, tx.nonce, other_sig),
        ];
        for forged in forgeries {
            assert_eq!(forged.verdict(), None, "starts unverified");
            assert_ne!(forged.id(), tx.id());
            assert!(!forged.signature_valid());
            assert_eq!(forged.verdict(), Some(false), "a refusal is remembered");
        }
        assert_eq!(tx.verdict(), Some(true), "the original is untouched");
    }

    #[test]
    fn encoding_roundtrip() {
        let a = kp(3);
        let b = kp(4);
        let tx = Transaction::payment(&a, b.pk, 123, 7);
        let bytes = tx.encoded();
        assert_eq!(bytes.len(), Transaction::WIRE_SIZE);
        assert!(tx.signature_valid());
        // Twice: both keys are parsed cold at most once per process, and
        // a decode that finds them proven must agree.
        for pass in ["cold", "warm"] {
            let mut r = Reader::new(&bytes);
            let back = Transaction::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back.id(), tx.id(), "{pass}");
            assert_eq!(back.encoded(), bytes, "{pass}");
            assert_eq!(back.verdict(), None, "the memo is not on the wire");
            assert!(back.signature_valid(), "{pass}");
            assert_eq!(back.amount, 123);
            assert_eq!(back.nonce, 7);
        }
    }

    #[test]
    fn ids_differ_by_content() {
        let a = kp(5);
        let b = kp(6);
        let t1 = Transaction::payment(&a, b.pk, 1, 1);
        let t2 = Transaction::payment(&a, b.pk, 2, 1);
        let t3 = Transaction::payment(&a, b.pk, 1, 2);
        assert_ne!(t1.id(), t2.id());
        assert_ne!(t1.id(), t3.id());
    }

    #[test]
    fn decode_rejects_garbage_key() {
        let a = kp(7);
        let b = kp(8);
        let mut bytes = Transaction::payment(&a, b.pk, 1, 1).encoded();
        // Corrupt the `to` key so it no longer decompresses.
        for byte in bytes[32..64].iter_mut() {
            *byte = 0xff;
        }
        // Refused however often it is offered, and with `from` proven.
        for _ in 0..3 {
            let mut r = Reader::new(&bytes);
            assert!(Transaction::decode(&mut r).is_err());
        }
    }
}
