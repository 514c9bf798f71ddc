//! Keys and Schnorr signatures over edwards25519.
//!
//! The paper's prototype signs every gossip message with an Ed25519-style
//! signature over Curve 25519 (§9). This module provides an equivalent
//! scheme built on the in-tree curve: deterministic Schnorr with a SHA-256
//! Fiat–Shamir challenge. Key sizes (32-byte public keys), signature sizes
//! (64 bytes), and verification cost (one double-scalar multiplication) all
//! match Ed25519; see DESIGN.md §4 for the substitution rationale.

use crate::edwards::{Comb, EdwardsPoint};
use crate::error::CryptoError;
use crate::scalar::Scalar;
use crate::sha256::{sha256_concat, Sha256};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, OnceLock, PoisonError, RwLock};

/// Domain-separation tags. Distinct tags guarantee hashes used as secret
/// scalars, nonces, and challenges can never collide across contexts.
const DOM_SK: &[u8] = b"algorand-repro/sk/v1";
const DOM_NONCE: &[u8] = b"algorand-repro/nonce/v1";
const DOM_CHAL: &[u8] = b"algorand-repro/chal/v1";

/// Expands `parts` into 64 uniform bytes using two domain-separated SHA-256
/// invocations, then reduces mod ℓ.
pub(crate) fn hash_to_scalar(domain: &[u8], parts: &[&[u8]]) -> Scalar {
    let mut wide = [0u8; 64];
    for (i, half) in wide.chunks_exact_mut(32).enumerate() {
        let mut h = Sha256::new();
        h.update(domain);
        h.update(&[i as u8]);
        for p in parts {
            h.update(&(p.len() as u64).to_le_bytes());
            h.update(p);
        }
        half.copy_from_slice(&h.finalize());
    }
    Scalar::from_bytes_mod_order_wide(&wide)
}

/// A secret signing key: a 32-byte seed and the scalar derived from it.
#[derive(Clone)]
pub struct SecretKey {
    seed: [u8; 32],
    scalar: Scalar,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(..)")
    }
}

impl SecretKey {
    /// Derives a secret key deterministically from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> SecretKey {
        let scalar = hash_to_scalar(DOM_SK, &[&seed]);
        SecretKey { seed, scalar }
    }

    /// The secret scalar (used by the VRF, which shares the keypair).
    pub(crate) fn scalar(&self) -> &Scalar {
        &self.scalar
    }

    /// Computes the corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        let point = EdwardsPoint::basepoint_mul(&self.scalar);
        PublicKey {
            bytes: point.compress(),
            point,
        }
    }

    /// Derives the deterministic per-message nonce scalar.
    pub(crate) fn nonce(&self, domain: &[u8], msg_parts: &[&[u8]]) -> Scalar {
        let mut parts: Vec<&[u8]> = vec![&self.seed[..], domain];
        parts.extend_from_slice(msg_parts);
        hash_to_scalar(DOM_NONCE, &parts)
    }
}

/// Most keys the process remembers as proven valid (see [`KeyTable`]).
pub const KEY_TABLE_CAPACITY: usize = 8192;

/// The most memory [`KeyTable`] holds, in bytes: every key with a comb
/// (an `Arc`'s two counts, the entry, the boxed comb), and each
/// generation's map at its largest (4,096 entries in 8,192 slots of
/// encoding, pointer and control byte).
pub const KEY_TABLE_MAX_BYTES: usize = KEY_TABLE_CAPACITY
    * (2 * size_of::<usize>() + size_of::<ProvenKey>() + size_of::<Comb>())
    + 2 * KEY_TABLE_CAPACITY * (size_of::<([u8; 32], Arc<ProvenKey>)>() + 1);

/// The keys this process knows to be valid: every encoding
/// [`PublicKey::from_bytes`] has proven, and every key a verification
/// has been handed (a [`PublicKey`] is valid by construction).
///
/// Whether 32 bytes name a key is a pure function of those bytes, and a
/// node parses the same few keys out of every vote, proposal and payment
/// it is sent, so the square root and the ℓ·P subgroup check are paid
/// once per key, not once per frame. Only successes are kept: a rejected
/// encoding is checked in full every time it is offered, exactly as if
/// the table were not there.
///
/// Two generations bound it, as in `gossip::relay`: a key is recorded in
/// `current`; when that holds half of [`KEY_TABLE_CAPACITY`] it becomes
/// `old` and the previous `old` is dropped. A flood of fresh valid keys
/// therefore costs what it cost before the table existed (plus a comb
/// per key that is verified under, not only parsed) and can push
/// honest keys out — they are then checked again — but cannot grow it
/// past [`KEY_TABLE_MAX_BYTES`]. A hit does not refresh an entry, so hits
/// never take the write lock; a key in constant use is re-proven, and
/// its comb rebuilt, once per two rotations.
///
/// Every entry is a proven fact on its own, so a panic elsewhere cannot
/// leave the table wrong, only smaller: a poisoned lock is still used.
#[derive(Default)]
struct KeyTable {
    current: HashMap<[u8; 32], Arc<ProvenKey>>,
    old: HashMap<[u8; 32], Arc<ProvenKey>>,
}

/// One valid key, and its comb once a verification has needed it.
struct ProvenKey {
    point: EdwardsPoint,
    /// Built by the key's first verification, once; a key that is only
    /// parsed never has one.
    comb: OnceLock<Box<Comb>>,
}

static KEY_TABLE: LazyLock<RwLock<KeyTable>> = LazyLock::new(RwLock::default);
static KEY_CHECKS: AtomicU64 = AtomicU64::new(0);
static KEY_HITS: AtomicU64 = AtomicU64::new(0);
static COMBS_BUILT: AtomicU64 = AtomicU64::new(0);
static COMB_HITS: AtomicU64 = AtomicU64::new(0);

fn proven_key(bytes: &[u8; 32]) -> Option<Arc<ProvenKey>> {
    let table = KEY_TABLE.read().unwrap_or_else(PoisonError::into_inner);
    table
        .current
        .get(bytes)
        .or_else(|| table.old.get(bytes))
        .cloned()
}

/// Records a valid key, unless a racing caller already has.
fn record_proven(bytes: &[u8; 32], point: EdwardsPoint) -> Arc<ProvenKey> {
    let mut table = KEY_TABLE.write().unwrap_or_else(PoisonError::into_inner);
    if let Some(key) = table.current.get(bytes).or_else(|| table.old.get(bytes)) {
        return Arc::clone(key);
    }
    if table.current.len() >= KEY_TABLE_CAPACITY / 2 {
        table.old = std::mem::take(&mut table.current);
    }
    let key = Arc::new(ProvenKey {
        point,
        comb: OnceLock::new(),
    });
    table.current.insert(*bytes, Arc::clone(&key));
    key
}

/// What the table of proven keys has done for this process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KeyTableStats {
    /// Encodings checked in full: every parse that was not a hit,
    /// whatever its verdict.
    pub checks: u64,
    /// Parses answered from the table.
    pub hits: u64,
    /// Keys held now, at most [`KEY_TABLE_CAPACITY`].
    pub keys: usize,
    /// Combs built: one per key verified under, again if a rotation
    /// dropped the key.
    pub combs_built: u64,
    /// Verifications multiplied off a comb already built.
    pub comb_hits: u64,
}

/// Process-wide counts of [`PublicKey::from_bytes`] and keyed
/// verification outcomes.
pub fn key_table_stats() -> KeyTableStats {
    let table = KEY_TABLE.read().unwrap_or_else(PoisonError::into_inner);
    KeyTableStats {
        checks: KEY_CHECKS.load(Ordering::Relaxed),
        hits: KEY_HITS.load(Ordering::Relaxed),
        keys: table.current.len() + table.old.len(),
        combs_built: COMBS_BUILT.load(Ordering::Relaxed),
        comb_hits: COMB_HITS.load(Ordering::Relaxed),
    }
}

/// A public verification key: a compressed point plus its decompression.
///
/// The decompressed point rides with the key because vote verification
/// (ProcessMsg, Algorithm 6) performs many verifications against it, and
/// the process remembers the keys it has met ([`key_table_stats`]):
/// parsing a key seen before costs a table lookup, and verifying under a
/// key multiplies off the comb its first verification built.
#[derive(Clone, Copy)]
pub struct PublicKey {
    bytes: [u8; 32],
    point: EdwardsPoint,
}

impl PublicKey {
    /// Parses a compressed public key, validating the point — the only
    /// way to build a key from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] if the bytes do not name a
    /// point in the prime-order subgroup.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<PublicKey, CryptoError> {
        if let Some(key) = proven_key(bytes) {
            KEY_HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(PublicKey {
                bytes: *bytes,
                point: key.point,
            });
        }
        KEY_CHECKS.fetch_add(1, Ordering::Relaxed);
        let point = EdwardsPoint::decompress(bytes).ok_or(CryptoError::InvalidPoint)?;
        if !point.is_torsion_free() || point.is_identity() {
            return Err(CryptoError::InvalidPoint);
        }
        record_proven(bytes, point);
        Ok(PublicKey {
            bytes: *bytes,
            point,
        })
    }

    /// `a·PK + b·B` where B is the basepoint: the value
    /// [`EdwardsPoint::double_scalar_mul_basepoint`] computes, and the
    /// curve work of checking a signature, or a VRF proof's `U`, under
    /// this key.
    ///
    /// The process remembers the key (see [`key_table_stats`]): its first
    /// verification builds the key's [`Comb`], and every verification
    /// takes `a·PK` off the comb (63 doublings, where the interleaved
    /// pass runs ~253) and adds `b·B` from [`EdwardsPoint::basepoint_mul`].
    /// The comb costs about what one such product saves, and a vote
    /// verifies two under its sender's key (signature and VRF `U`), so a
    /// vote under a key met for the first time is already cheaper than
    /// the pass; only a lone signature under a key never seen again costs
    /// more (EXPERIMENTS.md "Combs").
    pub fn double_scalar_mul_basepoint(&self, a: &Scalar, b: &Scalar) -> EdwardsPoint {
        let key = proven_key(&self.bytes).unwrap_or_else(|| record_proven(&self.bytes, self.point));
        let comb = match key.comb.get() {
            Some(comb) => {
                COMB_HITS.fetch_add(1, Ordering::Relaxed);
                comb
            }
            None => key.comb.get_or_init(|| {
                COMBS_BUILT.fetch_add(1, Ordering::Relaxed);
                Box::new(Comb::new(&key.point))
            }),
        };
        comb.mul(a).add(&EdwardsPoint::basepoint_mul(b))
    }

    /// The 32-byte compressed encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.bytes
    }

    /// Borrow the compressed encoding.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// The decompressed point.
    pub fn point(&self) -> &EdwardsPoint {
        &self.point
    }
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for PublicKey {}

impl std::hash::Hash for PublicKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl PartialOrd for PublicKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PublicKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bytes.cmp(&other.bytes)
    }
}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PublicKey({:02x}{:02x}{:02x}{:02x}..)",
            self.bytes[0], self.bytes[1], self.bytes[2], self.bytes[3]
        )
    }
}

/// A secret/public key pair.
#[derive(Clone, Debug)]
pub struct Keypair {
    /// The secret half.
    pub sk: SecretKey,
    /// The public half.
    pub pk: PublicKey,
}

impl Keypair {
    /// Generates a fresh keypair from the given randomness source.
    pub fn generate(rng: &mut crate::rng::Rng) -> Keypair {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Keypair::from_seed(seed)
    }

    /// Derives a keypair deterministically from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Keypair {
        let sk = SecretKey::from_seed(seed);
        let pk = sk.public_key();
        Keypair { sk, pk }
    }
}

/// A 64-byte Schnorr signature (R, s).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    r_bytes: [u8; 32],
    s: Scalar,
}

/// Length of a serialized signature in bytes.
pub const SIGNATURE_LEN: usize = 64;

impl Signature {
    /// Serializes to 64 bytes: compressed R then s.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r_bytes);
        out[32..].copy_from_slice(&self.s.to_bytes());
        out
    }

    /// Parses a 64-byte signature.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] when `s` is non-canonical
    /// (which would otherwise make signatures malleable).
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<Signature, CryptoError> {
        let mut r_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&bytes[..32]);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&bytes[32..]);
        let s = Scalar::from_canonical_bytes(&s_bytes).ok_or(CryptoError::InvalidSignature)?;
        Ok(Signature { r_bytes, s })
    }
}

fn challenge(r_bytes: &[u8; 32], pk: &PublicKey, msg: &[u8]) -> Scalar {
    hash_to_scalar(DOM_CHAL, &[r_bytes, pk.as_bytes(), msg])
}

/// Signs `msg` with the secret key, deterministically.
pub fn sign(keypair: &Keypair, msg: &[u8]) -> Signature {
    let k = keypair.sk.nonce(b"sig", &[msg]);
    let r_point = EdwardsPoint::basepoint_mul(&k);
    let r_bytes = r_point.compress();
    let c = challenge(&r_bytes, &keypair.pk, msg);
    let s = k.add(&c.mul(keypair.sk.scalar()));
    Signature { r_bytes, s }
}

/// Verifies a signature on `msg` under `pk`.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidSignature`] if the equation
/// `s·B = R + c·PK` does not hold.
pub fn verify(pk: &PublicKey, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
    let c = challenge(&sig.r_bytes, pk, msg);
    // R' = s·B − c·PK must equal R.
    let r_prime = pk.double_scalar_mul_basepoint(&c.neg(), &sig.s);
    if r_prime.compress() == sig.r_bytes {
        Ok(())
    } else {
        Err(CryptoError::InvalidSignature)
    }
}

/// Convenience: hash used to bind structured messages before signing.
pub fn message_digest(parts: &[&[u8]]) -> [u8; 32] {
    sha256_concat(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed([seed; 32])
    }

    #[test]
    fn sign_verify_roundtrip() {
        let keypair = kp(1);
        let sig = sign(&keypair, b"hello algorand");
        assert!(verify(&keypair.pk, b"hello algorand", &sig).is_ok());
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let keypair = kp(2);
        let sig = sign(&keypair, b"msg A");
        assert!(verify(&keypair.pk, b"msg B", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let a = kp(3);
        let b = kp(4);
        let sig = sign(&a, b"msg");
        assert!(verify(&b.pk, b"msg", &sig).is_err());
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let keypair = kp(5);
        let sig = sign(&keypair, b"msg");
        let mut bytes = sig.to_bytes();
        bytes[0] ^= 1;
        if let Ok(tampered) = Signature::from_bytes(&bytes) {
            assert!(verify(&keypair.pk, b"msg", &tampered).is_err());
        } // An unparseable R is equally a rejection.
    }

    #[test]
    fn signature_is_deterministic() {
        let keypair = kp(6);
        assert_eq!(
            sign(&keypair, b"m").to_bytes(),
            sign(&keypair, b"m").to_bytes()
        );
        assert_ne!(
            sign(&keypair, b"m").to_bytes(),
            sign(&keypair, b"n").to_bytes()
        );
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let keypair = kp(7);
        let sig = sign(&keypair, b"roundtrip");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
    }

    #[test]
    fn noncanonical_s_rejected() {
        let keypair = kp(8);
        let sig = sign(&keypair, b"msg");
        let mut bytes = sig.to_bytes();
        // Force s into non-canonical territory by setting high bits ≥ ℓ.
        for b in bytes[32..].iter_mut() {
            *b = 0xff;
        }
        bytes[63] = 0x1f;
        assert!(Signature::from_bytes(&bytes).is_err());
    }

    #[test]
    fn public_key_parse_roundtrip() {
        let keypair = kp(9);
        let parsed = PublicKey::from_bytes(keypair.pk.as_bytes()).unwrap();
        assert_eq!(parsed, keypair.pk);
    }

    #[test]
    fn public_key_rejects_garbage() {
        // y = 2 is not the y-coordinate of any curve point.
        let mut not_on_curve = [0u8; 32];
        not_on_curve[0] = 2;
        assert!(PublicKey::from_bytes(&not_on_curve).is_err());
        // The identity point must be rejected.
        let id = crate::edwards::EdwardsPoint::identity().compress();
        assert!(PublicKey::from_bytes(&id).is_err());
    }

    #[test]
    fn generated_keys_differ() {
        let mut rng = Rng::seed_from_u64(42);
        let a = Keypair::generate(&mut rng);
        let b = Keypair::generate(&mut rng);
        assert_ne!(a.pk, b.pk);
    }

    #[test]
    fn keys_are_deterministic_from_seed() {
        assert_eq!(kp(10).pk, kp(10).pk);
        assert_ne!(kp(10).pk, kp(11).pk);
    }
}
