//! Verifiable random function (ECVRF) over edwards25519.
//!
//! Algorand's cryptographic sortition (§5) is built on a VRF \[39\]; the
//! paper's prototype uses the elliptic-curve VRF of Goldberg et al. \[28\].
//! This module implements the same ECVRF construction shape over the
//! in-tree curve:
//!
//! * `H = hash_to_curve(pk, α)` by try-and-increment, cofactor-cleared;
//! * `Γ = sk · H`;
//! * a Fiat–Shamir DLEQ proof `(c, s)` that `log_B(PK) = log_H(Γ)`;
//! * output `β = SHA-256(domain ‖ compress(8·Γ))`.
//!
//! The three properties sortition relies on hold by construction:
//! **uniqueness** (β is determined by (pk, α); the DLEQ proof pins Γ),
//! **pseudorandomness** (β is a hash of a Diffie–Hellman-style group
//! element, unpredictable without sk), and **verifiability** (anyone with
//! pk checks the proof). Security holds even for adversarially chosen keys
//! because `hash_to_curve` binds pk into H.

use crate::edwards::{Comb, EdwardsPoint};
use crate::error::CryptoError;
use crate::scalar::Scalar;
use crate::sha256::Sha256;
use crate::sig::{hash_to_scalar, Keypair, PublicKey};

const DOM_H2C: &[u8] = b"algorand-repro/vrf-h2c/v1";
const DOM_DLEQ: &[u8] = b"algorand-repro/vrf-dleq/v1";
const DOM_OUT: &[u8] = b"algorand-repro/vrf-out/v1";

/// Number of bytes in a VRF output.
pub const VRF_OUTPUT_LEN: usize = 32;

/// Number of bytes in a serialized VRF proof: Γ (32) ‖ c (32) ‖ s (32).
pub const VRF_PROOF_LEN: usize = 96;

/// The pseudorandom 32-byte output of a VRF evaluation.
///
/// This is the `hash` of Algorithms 1–2: uniformly distributed to anyone
/// who does not hold the secret key, and uniquely determined by
/// `(pk, input)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct VrfOutput(pub [u8; VRF_OUTPUT_LEN]);

impl VrfOutput {
    /// Interprets the output as a fraction in [0, 1): `hash / 2^hashlen`.
    ///
    /// Sortition (Algorithm 1) compares this value against binomial CDF
    /// intervals. An `f64` retains 53 bits of the 256-bit output, far more
    /// precision than the CDF arithmetic it is compared against.
    pub fn as_unit_fraction(&self) -> f64 {
        // Use the *big-endian* prefix so that the comparison respects the
        // natural ordering of the hash as a 256-bit integer. Keeping 53 bits
        // guarantees the result is strictly below 1.0 (an all-ones prefix
        // would otherwise round up to exactly 1.0).
        let mut prefix = [0u8; 8];
        prefix.copy_from_slice(&self.0[..8]);
        let x = u64::from_be_bytes(prefix) >> 11;
        (x as f64) / (1u64 << 53) as f64
    }
}

/// A VRF proof π = (Γ, c, s) showing that an output is correct.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VrfProof {
    gamma: [u8; 32],
    c: Scalar,
    s: Scalar,
}

impl VrfProof {
    /// Serializes the proof to 96 bytes.
    pub fn to_bytes(&self) -> [u8; VRF_PROOF_LEN] {
        let mut out = [0u8; VRF_PROOF_LEN];
        out[..32].copy_from_slice(&self.gamma);
        out[32..64].copy_from_slice(&self.c.to_bytes());
        out[64..].copy_from_slice(&self.s.to_bytes());
        out
    }

    /// Parses a 96-byte proof.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidProof`] for non-canonical scalars; the
    /// Γ point is validated during [`verify`].
    pub fn from_bytes(bytes: &[u8; VRF_PROOF_LEN]) -> Result<VrfProof, CryptoError> {
        let mut gamma = [0u8; 32];
        gamma.copy_from_slice(&bytes[..32]);
        let mut cb = [0u8; 32];
        cb.copy_from_slice(&bytes[32..64]);
        let mut sb = [0u8; 32];
        sb.copy_from_slice(&bytes[64..]);
        let c = Scalar::from_canonical_bytes(&cb).ok_or(CryptoError::InvalidProof)?;
        let s = Scalar::from_canonical_bytes(&sb).ok_or(CryptoError::InvalidProof)?;
        Ok(VrfProof { gamma, c, s })
    }
}

/// Hashes `(pk, alpha)` to a point in the prime-order subgroup.
fn hash_to_curve(pk: &PublicKey, alpha: &[u8]) -> EdwardsPoint {
    let mut ctr: u32 = 0;
    loop {
        let mut h = Sha256::new();
        h.update(DOM_H2C);
        h.update(pk.as_bytes());
        h.update(&(alpha.len() as u64).to_le_bytes());
        h.update(alpha);
        h.update(&ctr.to_le_bytes());
        let candidate = h.finalize();
        if let Some(p) = EdwardsPoint::decompress(&candidate) {
            let cleared = p.mul_by_cofactor();
            if !cleared.is_identity() {
                return cleared;
            }
        }
        ctr += 1;
    }
}

/// Derives the output β from the encoding of the cofactor-cleared 8·Γ.
fn output_from_cleared_gamma(cleared_gamma: &[u8; 32]) -> VrfOutput {
    let mut h = Sha256::new();
    h.update(DOM_OUT);
    h.update(cleared_gamma);
    VrfOutput(h.finalize())
}

fn dleq_challenge(
    pk: &PublicKey,
    h_point: &[u8; 32],
    gamma: &[u8; 32],
    u: &[u8; 32],
    v: &[u8; 32],
) -> Scalar {
    hash_to_scalar(DOM_DLEQ, &[pk.as_bytes(), h_point, gamma, u, v])
}

/// A VRF evaluated on one input: the output is known, the proof is not
/// built until [`Evaluation::prove`] asks for it.
///
/// Sortition (Algorithm 1) needs the output to learn whether the user is
/// selected at all, and only a selected user publishes a proof, so an
/// unselected one stops here.
pub struct Evaluation<'a> {
    keypair: &'a Keypair,
    alpha: &'a [u8],
    /// H's comb: Γ = sk·H was read off it, and the proof's V = k·H is.
    h: Comb,
    h_bytes: [u8; 32],
    gamma_bytes: [u8; 32],
    output: VrfOutput,
}

/// Evaluates the VRF on `alpha`: `VRF_sk(x)` of §5, pseudorandom to
/// anyone who does not know the secret key.
pub fn evaluate<'a>(keypair: &'a Keypair, alpha: &'a [u8]) -> Evaluation<'a> {
    let h_point = hash_to_curve(&keypair.pk, alpha);
    let h = Comb::new(&h_point);
    let gamma = h.mul(keypair.sk.scalar());
    // Five points are encoded, in two groups (the nonce needs H's bytes
    // before U and V exist); each group shares one field inversion.
    let [h_bytes, gamma_bytes, cleared_gamma] =
        EdwardsPoint::compress_batch([&h_point, &gamma, &gamma.mul_by_cofactor()]);
    Evaluation {
        keypair,
        alpha,
        h,
        h_bytes,
        gamma_bytes,
        output: output_from_cleared_gamma(&cleared_gamma),
    }
}

impl Evaluation<'_> {
    /// The output β.
    pub fn output(&self) -> VrfOutput {
        self.output
    }

    /// The proof that lets anyone with the public key verify the output.
    pub fn prove(self) -> VrfProof {
        // Deterministic nonce bound to the H point.
        let k = self.keypair.sk.nonce(b"vrf", &[&self.h_bytes, self.alpha]);
        let [u, v] =
            EdwardsPoint::compress_batch([&EdwardsPoint::basepoint_mul(&k), &self.h.mul(&k)]);
        let c = dleq_challenge(&self.keypair.pk, &self.h_bytes, &self.gamma_bytes, &u, &v);
        VrfProof {
            gamma: self.gamma_bytes,
            c,
            s: k.add(&c.mul(self.keypair.sk.scalar())),
        }
    }
}

/// Evaluates the VRF on `alpha`, returning the output and a proof.
///
/// This is `VRF_sk(x)` of §5: the output is pseudorandom to anyone who
/// does not know the secret key, and the proof lets anyone with the public
/// key verify it.
pub fn prove(keypair: &Keypair, alpha: &[u8]) -> (VrfOutput, VrfProof) {
    let evaluation = evaluate(keypair, alpha);
    (evaluation.output(), evaluation.prove())
}

/// Verifies a VRF proof and returns the output it certifies.
///
/// This is `VerifyVRF_pk(hash, π, x)` of Algorithm 2; on success the caller
/// compares or consumes the returned [`VrfOutput`].
///
/// # Errors
///
/// Returns [`CryptoError::InvalidProof`] when Γ is not a valid point or
/// the DLEQ equations do not hold.
pub fn verify(pk: &PublicKey, alpha: &[u8], proof: &VrfProof) -> Result<VrfOutput, CryptoError> {
    let gamma = EdwardsPoint::decompress(&proof.gamma).ok_or(CryptoError::InvalidProof)?;
    let h_point = hash_to_curve(pk, alpha);
    // U = s·B − c·PK (off PK's comb, see `PublicKey`) and
    // V = s·H − c·Γ, one pass each; for an honest proof these equal k·B
    // and k·H respectively.
    let u = pk.double_scalar_mul_basepoint(&proof.c.neg(), &proof.s);
    let v = EdwardsPoint::vartime_double_scalar_mul_sub(&proof.s, &h_point, &proof.c, &gamma);
    // 8·Γ is only wanted if the proof holds, but encoding it with the
    // other three costs three multiplications, not an inversion.
    let [h_bytes, u_bytes, v_bytes, cleared_gamma] =
        EdwardsPoint::compress_batch([&h_point, &u, &v, &gamma.mul_by_cofactor()]);
    let c_prime = dleq_challenge(pk, &h_bytes, &proof.gamma, &u_bytes, &v_bytes);
    if c_prime == proof.c {
        Ok(output_from_cleared_gamma(&cleared_gamma))
    } else {
        Err(CryptoError::InvalidProof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed([seed; 32])
    }

    #[test]
    fn prove_verify_roundtrip() {
        let keypair = kp(1);
        let (out, proof) = prove(&keypair, b"seed||role");
        let verified = verify(&keypair.pk, b"seed||role", &proof).unwrap();
        assert_eq!(out, verified);
    }

    #[test]
    fn output_is_deterministic_and_input_sensitive() {
        let keypair = kp(2);
        let (o1, _) = prove(&keypair, b"alpha");
        let (o2, _) = prove(&keypair, b"alpha");
        let (o3, _) = prove(&keypair, b"beta");
        assert_eq!(o1, o2);
        assert_ne!(o1, o3);
    }

    #[test]
    fn different_keys_different_outputs() {
        let (o1, _) = prove(&kp(3), b"alpha");
        let (o2, _) = prove(&kp(4), b"alpha");
        assert_ne!(o1, o2);
    }

    #[test]
    fn verify_rejects_wrong_input() {
        let keypair = kp(5);
        let (_, proof) = prove(&keypair, b"alpha");
        assert!(verify(&keypair.pk, b"beta", &proof).is_err());
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let a = kp(6);
        let b = kp(7);
        let (_, proof) = prove(&a, b"alpha");
        assert!(verify(&b.pk, b"alpha", &proof).is_err());
    }

    #[test]
    fn verify_rejects_tampered_proof() {
        let keypair = kp(8);
        let (_, proof) = prove(&keypair, b"alpha");
        let mut bytes = proof.to_bytes();
        bytes[40] ^= 0x01; // Perturb c.
        if let Ok(tampered) = VrfProof::from_bytes(&bytes) {
            assert!(verify(&keypair.pk, b"alpha", &tampered).is_err())
        }
    }

    #[test]
    fn proof_serialization_roundtrip() {
        let keypair = kp(9);
        let (_, proof) = prove(&keypair, b"alpha");
        let parsed = VrfProof::from_bytes(&proof.to_bytes()).unwrap();
        assert_eq!(parsed, proof);
        // And the parsed proof still verifies.
        assert!(verify(&keypair.pk, b"alpha", &parsed).is_ok());
    }

    #[test]
    fn unit_fraction_in_range_and_ordered() {
        let zero = VrfOutput([0u8; 32]);
        let max = VrfOutput([0xff; 32]);
        assert_eq!(zero.as_unit_fraction(), 0.0);
        assert!(max.as_unit_fraction() < 1.0);
        assert!(max.as_unit_fraction() > 0.999);
        let mid = VrfOutput({
            let mut b = [0u8; 32];
            b[0] = 0x80;
            b
        });
        assert!((mid.as_unit_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hash_to_curve_lands_in_subgroup() {
        let keypair = kp(10);
        for alpha in [b"a".as_slice(), b"bb", b"ccc", b""] {
            let p = hash_to_curve(&keypair.pk, alpha);
            assert!(p.is_on_curve());
            assert!(p.is_torsion_free());
            assert!(!p.is_identity());
        }
    }

    #[test]
    fn outputs_look_uniform_in_top_bit() {
        // With 64 samples the top bit should not be constant; this is a
        // smoke test for gross bias, not a statistical suite.
        let keypair = kp(11);
        let mut ones = 0;
        for i in 0u32..64 {
            let (out, _) = prove(&keypair, &i.to_le_bytes());
            ones += (out.0[0] >> 7) as u32;
        }
        assert!(ones > 10 && ones < 54, "top-bit count {ones}");
    }
}
