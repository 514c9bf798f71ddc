//! Pinned behaviour of the signature and VRF schemes.
//!
//! Two tables, both produced by the implementation as it stood *before*
//! the verification path was rewritten (fixed-window multiplications,
//! square-and-multiply inversions, long-division scalar reduction):
//!
//! * [`KNOWN_ANSWERS`] — public key, signature, VRF proof, VRF output and
//!   two compressed points for fixed seeds and messages. Every encoding
//!   the rest of the system hashes into a chain digest goes through one
//!   of these.
//! * [`hostile_verdicts`] — what parsing and verification say about
//!   inputs no honest party produces: the eight small-order points,
//!   non-canonical field and scalar encodings, a key with a torsion
//!   component, and a forged proof whose Γ carries a torsion component
//!   yet satisfies the DLEQ equations (the old code accepted it, so the
//!   new code must too — it is what separates `s·H − [c]Γ` from
//!   `s·H + [ℓ−c]Γ`).
//!
//! `cargo test -p algorand-crypto --test known_answers -- --ignored
//! --nocapture` reprints both tables from whatever implementation is
//! checked out; the committed rows are that output at the parent commit.

use algorand_crypto::edwards::EdwardsPoint;
use algorand_crypto::scalar::Scalar;
use algorand_crypto::sha256::{sha256, Sha256};
use algorand_crypto::{sig, vrf, CryptoError, Keypair, PublicKey, Signature, VrfProof};
use std::sync::{Mutex, MutexGuard, PoisonError};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex<const N: usize>(s: &str) -> [u8; N] {
    assert_eq!(s.len(), 2 * N, "hex length of {s:?}");
    let mut out = [0u8; N];
    for (i, byte) in out.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex digit");
    }
    out
}

// --- Known answers -----------------------------------------------------------

/// Message lengths of the six rows: empty, one byte, around one SHA-256
/// block boundary, and longer than a vote.
const MSG_LENS: [usize; 6] = [0, 1, 31, 32, 100, 300];

fn row_inputs(i: usize) -> (Keypair, Vec<u8>) {
    let keypair = Keypair::from_seed([(i * 37 + 1) as u8; 32]);
    let msg = (0..MSG_LENS[i]).map(|j| (j * 7 + i) as u8).collect();
    (keypair, msg)
}

struct KnownAnswer {
    pk: &'static str,
    sig: &'static str,
    proof: &'static str,
    output: &'static str,
    /// `compress(k·B)` with `k = SHA-256(msg) mod ℓ`.
    base_mul: &'static str,
    /// `compress(k'·(k·B))` with `k' = SHA-256(SHA-256(msg)) mod ℓ`.
    var_mul: &'static str,
}

struct Computed {
    pk: [u8; 32],
    sig: [u8; 64],
    proof: [u8; 96],
    output: [u8; 32],
    base_mul: [u8; 32],
    var_mul: [u8; 32],
}

fn compute_row(i: usize) -> Computed {
    let (keypair, msg) = row_inputs(i);
    let (output, proof) = vrf::prove(&keypair, &msg);
    let k = Scalar::from_bytes_mod_order(&sha256(&msg));
    let k2 = Scalar::from_bytes_mod_order(&sha256(&sha256(&msg)));
    let p = EdwardsPoint::basepoint().scalar_mul(&k);
    Computed {
        pk: keypair.pk.to_bytes(),
        sig: sig::sign(&keypair, &msg).to_bytes(),
        proof: proof.to_bytes(),
        output: output.0,
        base_mul: p.compress(),
        var_mul: p.scalar_mul(&k2).compress(),
    }
}

#[rustfmt::skip]
const KNOWN_ANSWERS: [KnownAnswer; 6] = [
    KnownAnswer {
        pk: "b1a75aa942532df832fe3039985bfef6acc7628f68f23e9c7bc7451655ce45f8",
        sig: "a6f0c4630597bb7d18ace254d3b9e80ae3b871e132094571796e8c4840ea8066a8432869855c1ef5beb8cc6e64a5779bb0d21971190d3afb038ad9f7570e5c0b",
        proof: "de8ed0dffb31fcbcb7adb7ebfb17152802f4d7bfafbdcb11151b41e69c415f8b646650b4f0dc60cf015b4d3c7cd1e897cf0c151ca4e9d5f67b280931f0a3230ef122a7a58172b00d6b0dc70a9c958552fd2850711d9756ca1af1da11b614b30f",
        output: "7a65f165a1895db1d70a733839df9b6f6f880643ff08fe1e7e8fad6f5eba8d05",
        base_mul: "baf58cc7182895aa632252fa81e726eb5bfd6c754b3d133f63745a6f68b4ddca",
        var_mul: "1c510a70cb59ffb6d8016372a3a2643f4f8c3fca3db7f209f6de2c82f523a597",
    },
    KnownAnswer {
        pk: "5a1eb374676c3b82884e4b6fcb5b87bc8e305d4b91b311b88398d4282b37b9d3",
        sig: "768a2195e5c9580233df9cb998e4489ffcc200353299ea52565a9ceb575044b1beff3eee690dad27aafbc60e635ebdcfa1f07ec0abd44d605bb0891857a42c0a",
        proof: "30c43e2fa09868b79c61e1eb7095b11297335f996d280471f3dd10095ba6df7b82b56af2de29d9200e6eee0b7982d8a0415cb52b38ac8db7ca4ce4413847a507d1f220dcf1cba6aba14adaae10da9a62527f39a23f4462f108ebc20f77b17406",
        output: "3b6daf9ca35068456bb1855f7241204e044762547303480e84ce3d15672565a9",
        base_mul: "f4d8ae04f59239c638f094a979b67222edbea96028f628454d340c04acdddcbd",
        var_mul: "ebf722bc7cdb3c945b920faaa926ddad2e68b5ac2073aef0eb5afbba1db525c7",
    },
    KnownAnswer {
        pk: "0a9cbd19160929f391cffe3d5e32e71394368928ab2d75031f8e8fbb2671bc52",
        sig: "dd72b23a1990fd4a17dbda98c6ffac5ca46c5ad3d72e695c4eec0fdf2e99a0815d08f5ed07e075fb95b3a4d55de77b075475d9cc7169b0d6b4f5203767956208",
        proof: "4087fd50cb2d57bef2e30923ac58d1ccf471064f70c1b11b2ff8b7b343ea5a02c61c1f2256dae224a8a4b347d568d6f46e5e044109cc38388f8c791bd114000ee0bfeb5d83799893edee3e307b34f370335e669fa26023942f970fc8f771830b",
        output: "025cdc6371db1d469dd9eb7c9ceec85114e5957a6793faadab60c5ce80fe157e",
        base_mul: "1dc9f364c87f20def32286b1b9d6c62b014f1329d04b9101d829ed821e4dfa93",
        var_mul: "c2db42b75baf7d28b419a889dbe3f36ad148c06b34b901de4057c4a1ae9b77ea",
    },
    KnownAnswer {
        pk: "612e81c2beed06fb3fe11d31806709bb25242ec6a1339e245e3265338ae690cc",
        sig: "d543a6057f29508ce76c35efda4b15e5bd129d5dfdb2f1adbd3d6690f282d2761c05572448e36f7bb43c1043b1cb901ee024b5198734b272cc7b210d4cad910f",
        proof: "39c36342c1c06b85ace6d86aaf8ffe798b51f2272e982b87483a2c4e400588c920e72fbbf80d45a9fce1a0bccbecd1654c5e67c5f32ccc9d145371d1f5aa8e0b07d6d46750c7161448930226f8f7f6284827997a1db69b5ef3a7ff2de4a5de0d",
        output: "0866b632b97e81161ce8cdb19e475dcbf35f9ca89498da2ea4fb64880865dbd9",
        base_mul: "14b8939a5746e08f270d58921978c2c0e822b9ea57e07a0ea18b78bdc214ab80",
        var_mul: "76b3d425f1e8d7c752fc5559f8c1e3916f22b733c02d0fbd89143af555205e46",
    },
    KnownAnswer {
        pk: "fc7303c386c2fccfda0650ea6ea3eacd66a3499a6d090d99c0af0962c63f8366",
        sig: "2661244763eeed995013e60e1ad16a04596bb3fc94aaf697803daad1733495090d9ae609f732b64973e6d9a57492fdd1fbe46495b1654b754c9496c611e98c08",
        proof: "e1204c85ba66fcc89aa4e8e604e58ba535d741f5eab93e69e246fbea792cd1f76e777fb0772c5bec0f9e66a2de0dc8143a3fef7bb92e3a60766dcd9913019b09dd7b45c5bc8e5e6a52429473e8ffcf5f8ad3486716bf9fc519d564f012dc980f",
        output: "b492e17042951455d939a3b14d48172d21027ebfadce56e07a08144b8d8a75e5",
        base_mul: "46a1bec55021486a976f61a1014d95e4d2a6bfa4bd460e08e44cd09a252e2559",
        var_mul: "264e9517968ec90b6b0920dcc8fce7973b1d3c4e8c9b536ec457149e5fdbeb4b",
    },
    KnownAnswer {
        pk: "a98755570c1996f5f5f6c9212e8d41cf4257e79314f5f861031058e339a14a62",
        sig: "a2d46f57937855cd8914131fc8c4590661f330f29d69847646ed546150e4bdf096a64176b8a951451103d543a5b2854df18397893c52e50ca744326f8ed32108",
        proof: "2452bf9a0f2d36b806c441895e5514530636fa3696648fd1d511c5a1d34fcd4525e1d81ee5f3984c6f42239daacace3ea7160a28ddb8bd59ea960a09fa2dd50ec1683032aac9ecd28f3a96dab1c4da874c7fc1b8a423d67371b4846842e10e0f",
        output: "7a544e4534078e40cd285571accdeec918e118a59c749a31e9eee6ad0d1818dd",
        base_mul: "89cfd493b523c6faf9ec30d6be13ba9b304f09a67cb56e60de83f6e422edea20",
        var_mul: "85f2506958966b5d85092f79c83cfcebc5e52f85be37c603f386d3de9ba26471",
    },
];

#[test]
fn known_answers_match_parent() {
    for (i, want) in KNOWN_ANSWERS.iter().enumerate() {
        let got = compute_row(i);
        assert_eq!(hex(&got.pk), want.pk, "row {i}: public key");
        assert_eq!(hex(&got.sig), want.sig, "row {i}: signature");
        assert_eq!(hex(&got.proof), want.proof, "row {i}: VRF proof");
        assert_eq!(hex(&got.output), want.output, "row {i}: VRF output");
        assert_eq!(hex(&got.base_mul), want.base_mul, "row {i}: k·B");
        assert_eq!(hex(&got.var_mul), want.var_mul, "row {i}: k'·(k·B)");

        // The pinned artifacts verify, and parse back to themselves.
        let (keypair, msg) = row_inputs(i);
        let signature = Signature::from_bytes(&got.sig).expect("canonical s");
        assert_eq!(sig::verify(&keypair.pk, &msg, &signature), Ok(()));
        let proof = VrfProof::from_bytes(&got.proof).expect("canonical c, s");
        assert_eq!(
            vrf::verify(&keypair.pk, &msg, &proof).map(|o| o.0),
            Ok(got.output)
        );
        assert_eq!(PublicKey::from_bytes(&got.pk), Ok(keypair.pk));
    }
}

// --- Hostile inputs ----------------------------------------------------------

/// The eight points of order dividing 8, canonically encoded: the
/// identity, the point of order 2, two of order 4, four of order 8.
const SMALL_ORDER: [&str; 8] = [
    "0100000000000000000000000000000000000000000000000000000000000000",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000080",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
];

/// Field encodings with `y ≥ p`: `p` (= 0), `p + 1` (= 1, the identity)
/// and `2^255 − 1` (= 18), each with the sign bit clear and set.
const NON_CANONICAL_Y: [&str; 6] = [
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
];

/// `x = 0` (y = ±1) with the sign bit set: no such point.
const ZERO_X_NEGATIVE: [&str; 2] = [
    "0100000000000000000000000000000000000000000000000000000000000080",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
];

/// The group order ℓ and ℓ − 1, little-endian.
const ORDER: &str = "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";
const ORDER_MINUS_ONE: &str = "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";

const ALPHA: &[u8] = b"hostile-input table";

fn honest() -> (Keypair, [u8; 64], [u8; 96]) {
    let keypair = Keypair::from_seed([0x42; 32]);
    let signature = sig::sign(&keypair, ALPHA).to_bytes();
    let (_, proof) = vrf::prove(&keypair, ALPHA);
    (keypair, signature, proof.to_bytes())
}

/// Replaces `bytes[at..at + 32]` with the encoding `hex32`.
fn splice<const N: usize>(mut bytes: [u8; N], at: usize, hex32: &str) -> [u8; N] {
    bytes[at..at + 32].copy_from_slice(&unhex::<32>(hex32));
    bytes
}

fn verify_sig_bytes(pk: &PublicKey, bytes: &[u8; 64]) -> Result<(), CryptoError> {
    sig::verify(pk, ALPHA, &Signature::from_bytes(bytes)?)
}

fn verify_proof_bytes(pk: &PublicKey, bytes: &[u8; 96]) -> Result<[u8; 32], CryptoError> {
    vrf::verify(pk, ALPHA, &VrfProof::from_bytes(bytes)?).map(|o| o.0)
}

// A from-outside restatement of the VRF's hashing, so the forged proof
// below can be built without the secret internals of the crate.

fn hash_to_scalar(domain: &[u8], parts: &[&[u8]]) -> Scalar {
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

fn hash_to_curve(pk: &PublicKey, alpha: &[u8]) -> EdwardsPoint {
    for ctr in 0u32.. {
        let mut h = Sha256::new();
        h.update(b"algorand-repro/vrf-h2c/v1");
        h.update(pk.as_bytes());
        h.update(&(alpha.len() as u64).to_le_bytes());
        h.update(alpha);
        h.update(&ctr.to_le_bytes());
        if let Some(p) = EdwardsPoint::decompress(&h.finalize()) {
            let cleared = p.mul_by_cofactor();
            if !cleared.is_identity() {
                return cleared;
            }
        }
    }
    unreachable!("half of all hashes decompress")
}

/// A proof for `(seed, ALPHA)` whose Γ is the honest `sk·H` plus the
/// order-8 point `SMALL_ORDER[4]`, ground (over the nonce) until the
/// challenge makes the torsion terms cancel in `V = s·H − c·Γ`.
/// Returns the proof bytes and the honest output it certifies.
fn forge_torsion_gamma(seed: [u8; 32]) -> ([u8; 96], [u8; 32]) {
    let keypair = Keypair::from_seed(seed);
    let sk = hash_to_scalar(b"algorand-repro/sk/v1", &[&seed]);
    assert_eq!(
        EdwardsPoint::basepoint_mul(&sk).compress(),
        keypair.pk.to_bytes()
    );
    let torsion = EdwardsPoint::decompress(&unhex::<32>(SMALL_ORDER[4])).expect("on curve");
    let h_point = hash_to_curve(&keypair.pk, ALPHA);
    let h_bytes = h_point.compress();
    let gamma = h_point.scalar_mul(&sk).add(&torsion);
    let gamma_bytes = gamma.compress();
    for attempt in 0u64.. {
        let k = hash_to_scalar(b"forge-nonce", &[&seed, &attempt.to_le_bytes()]);
        let u = EdwardsPoint::basepoint_mul(&k).compress();
        // Claim V = k·H + j·T for each j; the verifier computes
        // k·H − c·T, so the claim holds when j ≡ −c (mod 8).
        for j in 0u64..8 {
            let v = h_point
                .scalar_mul(&k)
                .add(&torsion.scalar_mul(&Scalar::from_u64(j)))
                .compress();
            let c = hash_to_scalar(
                b"algorand-repro/vrf-dleq/v1",
                &[keypair.pk.as_bytes(), &h_bytes, &gamma_bytes, &u, &v],
            );
            if (c.to_bytes()[0] as u64 + j).is_multiple_of(8) {
                let s = k.add(&c.mul(&sk));
                let mut proof = [0u8; 96];
                proof[..32].copy_from_slice(&gamma_bytes);
                proof[32..64].copy_from_slice(&c.to_bytes());
                proof[64..].copy_from_slice(&s.to_bytes());
                let (honest_output, _) = vrf::prove(&keypair, ALPHA);
                return (proof, honest_output.0);
            }
        }
    }
    unreachable!("one challenge in eight has the right residue")
}

const FORGE_SEED: [u8; 32] = [0x66; 32];
#[rustfmt::skip]
const FORGED_PROOF: &str = "6064aa2abf345c3d6c744cd7b7930484882a20bc8fdce2f5aa3e12940d0b75df48668a21b0fd544da5d3fdaf22e8cad85ceb68fc775481aee359372d49034e08567cc4d11109001fb30f2a9014a5e8575faf422e8d570fca725cfe9dfa4c0d0f";

/// Every hostile row as `(label, verdict)`, in a fixed order. Verdicts
/// are rendered with `Debug`, so a row pins accept/reject, the error
/// variant, and — for an accepted proof — the output bytes.
fn hostile_verdicts() -> Vec<(String, String)> {
    let (keypair, signature, proof) = honest();
    let pk = &keypair.pk;
    let mut rows = Vec::new();
    let mut row = |label: String, verdict: String| rows.push((label, verdict));

    let point_encodings = SMALL_ORDER
        .iter()
        .map(|e| ("small-order", e))
        .chain(NON_CANONICAL_Y.iter().map(|e| ("y>=p", e)))
        .chain(ZERO_X_NEGATIVE.iter().map(|e| ("x=0,sign=1", e)));
    for (class, enc) in point_encodings {
        let tag = format!("{}..{}", &enc[..8], &enc[62..]);
        row(
            format!("{class} {tag} as public key"),
            format!("{:?}", PublicKey::from_bytes(&unhex(enc)).map(|_| ())),
        );
        row(
            format!("{class} {tag} as gamma"),
            format!("{:?}", verify_proof_bytes(pk, &splice(proof, 0, enc))),
        );
        row(
            format!("{class} {tag} as gamma, c = s = 0"),
            format!("{:?}", verify_proof_bytes(pk, &splice([0u8; 96], 0, enc))),
        );
        row(
            format!("{class} {tag} as R"),
            format!("{:?}", verify_sig_bytes(pk, &splice(signature, 0, enc))),
        );
    }

    for (name, scalar) in [("l", ORDER), ("l-1", ORDER_MINUS_ONE)] {
        row(
            format!("signature with s = {name}"),
            format!("{:?}", verify_sig_bytes(pk, &splice(signature, 32, scalar))),
        );
        row(
            format!("proof with c = {name}"),
            format!("{:?}", verify_proof_bytes(pk, &splice(proof, 32, scalar))),
        );
        row(
            format!("proof with s = {name}"),
            format!("{:?}", verify_proof_bytes(pk, &splice(proof, 64, scalar))),
        );
    }

    // A key off the prime-order subgroup: the honest key plus each
    // non-trivial small-order point.
    let key_point = EdwardsPoint::decompress(pk.as_bytes()).expect("honest key");
    for enc in &SMALL_ORDER[1..] {
        let torsion = EdwardsPoint::decompress(&unhex(enc)).expect("on curve");
        let mixed = key_point.add(&torsion).compress();
        row(
            format!("honest key + {}..{} as public key", &enc[..8], &enc[62..]),
            format!(
                "{} {:?}",
                hex(&mixed),
                PublicKey::from_bytes(&mixed).map(|_| ())
            ),
        );
    }

    let forger = Keypair::from_seed(FORGE_SEED);
    let forged = unhex::<96>(FORGED_PROOF);
    row(
        "forged proof, gamma = sk*H + T8".into(),
        format!(
            "{:?}",
            verify_proof_bytes(&forger.pk, &forged).map(|o| hex(&o))
        ),
    );
    // The same Γ with the torsion point negated no longer cancels.
    let gamma = EdwardsPoint::decompress(&unhex::<32>(&FORGED_PROOF[..64])).expect("on curve");
    let t2 = EdwardsPoint::decompress(&unhex::<32>(SMALL_ORDER[4]))
        .expect("on curve")
        .double();
    let mut other = forged;
    other[..32].copy_from_slice(&gamma.sub(&t2).compress());
    row(
        "forged proof, gamma = sk*H - T8".into(),
        format!(
            "{:?}",
            verify_proof_bytes(&forger.pk, &other).map(|o| hex(&o))
        ),
    );
    rows
}

#[rustfmt::skip]
const HOSTILE_VERDICTS: &[(&str, &str)] = &[
    ("small-order 01000000..00 as public key", "Err(InvalidPoint)"),
    ("small-order 01000000..00 as gamma", "Err(InvalidProof)"),
    ("small-order 01000000..00 as gamma, c = s = 0", "Err(InvalidProof)"),
    ("small-order 01000000..00 as R", "Err(InvalidSignature)"),
    ("small-order ecffffff..7f as public key", "Err(InvalidPoint)"),
    ("small-order ecffffff..7f as gamma", "Err(InvalidProof)"),
    ("small-order ecffffff..7f as gamma, c = s = 0", "Err(InvalidProof)"),
    ("small-order ecffffff..7f as R", "Err(InvalidSignature)"),
    ("small-order 00000000..00 as public key", "Err(InvalidPoint)"),
    ("small-order 00000000..00 as gamma", "Err(InvalidProof)"),
    ("small-order 00000000..00 as gamma, c = s = 0", "Err(InvalidProof)"),
    ("small-order 00000000..00 as R", "Err(InvalidSignature)"),
    ("small-order 00000000..80 as public key", "Err(InvalidPoint)"),
    ("small-order 00000000..80 as gamma", "Err(InvalidProof)"),
    ("small-order 00000000..80 as gamma, c = s = 0", "Err(InvalidProof)"),
    ("small-order 00000000..80 as R", "Err(InvalidSignature)"),
    ("small-order 26e8958f..05 as public key", "Err(InvalidPoint)"),
    ("small-order 26e8958f..05 as gamma", "Err(InvalidProof)"),
    ("small-order 26e8958f..05 as gamma, c = s = 0", "Err(InvalidProof)"),
    ("small-order 26e8958f..05 as R", "Err(InvalidSignature)"),
    ("small-order 26e8958f..85 as public key", "Err(InvalidPoint)"),
    ("small-order 26e8958f..85 as gamma", "Err(InvalidProof)"),
    ("small-order 26e8958f..85 as gamma, c = s = 0", "Err(InvalidProof)"),
    ("small-order 26e8958f..85 as R", "Err(InvalidSignature)"),
    ("small-order c7176a70..7a as public key", "Err(InvalidPoint)"),
    ("small-order c7176a70..7a as gamma", "Err(InvalidProof)"),
    ("small-order c7176a70..7a as gamma, c = s = 0", "Err(InvalidProof)"),
    ("small-order c7176a70..7a as R", "Err(InvalidSignature)"),
    ("small-order c7176a70..fa as public key", "Err(InvalidPoint)"),
    ("small-order c7176a70..fa as gamma", "Err(InvalidProof)"),
    ("small-order c7176a70..fa as gamma, c = s = 0", "Err(InvalidProof)"),
    ("small-order c7176a70..fa as R", "Err(InvalidSignature)"),
    ("y>=p edffffff..7f as public key", "Err(InvalidPoint)"),
    ("y>=p edffffff..7f as gamma", "Err(InvalidProof)"),
    ("y>=p edffffff..7f as gamma, c = s = 0", "Err(InvalidProof)"),
    ("y>=p edffffff..7f as R", "Err(InvalidSignature)"),
    ("y>=p edffffff..ff as public key", "Err(InvalidPoint)"),
    ("y>=p edffffff..ff as gamma", "Err(InvalidProof)"),
    ("y>=p edffffff..ff as gamma, c = s = 0", "Err(InvalidProof)"),
    ("y>=p edffffff..ff as R", "Err(InvalidSignature)"),
    ("y>=p eeffffff..7f as public key", "Err(InvalidPoint)"),
    ("y>=p eeffffff..7f as gamma", "Err(InvalidProof)"),
    ("y>=p eeffffff..7f as gamma, c = s = 0", "Err(InvalidProof)"),
    ("y>=p eeffffff..7f as R", "Err(InvalidSignature)"),
    ("y>=p eeffffff..ff as public key", "Err(InvalidPoint)"),
    ("y>=p eeffffff..ff as gamma", "Err(InvalidProof)"),
    ("y>=p eeffffff..ff as gamma, c = s = 0", "Err(InvalidProof)"),
    ("y>=p eeffffff..ff as R", "Err(InvalidSignature)"),
    ("y>=p ffffffff..7f as public key", "Err(InvalidPoint)"),
    ("y>=p ffffffff..7f as gamma", "Err(InvalidProof)"),
    ("y>=p ffffffff..7f as gamma, c = s = 0", "Err(InvalidProof)"),
    ("y>=p ffffffff..7f as R", "Err(InvalidSignature)"),
    ("y>=p ffffffff..ff as public key", "Err(InvalidPoint)"),
    ("y>=p ffffffff..ff as gamma", "Err(InvalidProof)"),
    ("y>=p ffffffff..ff as gamma, c = s = 0", "Err(InvalidProof)"),
    ("y>=p ffffffff..ff as R", "Err(InvalidSignature)"),
    ("x=0,sign=1 01000000..80 as public key", "Err(InvalidPoint)"),
    ("x=0,sign=1 01000000..80 as gamma", "Err(InvalidProof)"),
    ("x=0,sign=1 01000000..80 as gamma, c = s = 0", "Err(InvalidProof)"),
    ("x=0,sign=1 01000000..80 as R", "Err(InvalidSignature)"),
    ("x=0,sign=1 ecffffff..ff as public key", "Err(InvalidPoint)"),
    ("x=0,sign=1 ecffffff..ff as gamma", "Err(InvalidProof)"),
    ("x=0,sign=1 ecffffff..ff as gamma, c = s = 0", "Err(InvalidProof)"),
    ("x=0,sign=1 ecffffff..ff as R", "Err(InvalidSignature)"),
    ("signature with s = l", "Err(InvalidSignature)"),
    ("proof with c = l", "Err(InvalidProof)"),
    ("proof with s = l", "Err(InvalidProof)"),
    ("signature with s = l-1", "Err(InvalidSignature)"),
    ("proof with c = l-1", "Err(InvalidProof)"),
    ("proof with s = l-1", "Err(InvalidProof)"),
    ("honest key + ecffffff..7f as public key", "5e879021fe0c41f8acce7113d5be292eff1a2c66bca4a093aff08295b56cd695 Err(InvalidPoint)"),
    ("honest key + 00000000..00 as public key", "18104991e59349943396d81a2f1ced7d966d5d6cd9e9cb1448c29e74aece2c12 Err(InvalidPoint)"),
    ("honest key + 00000000..80 as public key", "d5efb66e1a6cb66bcc6927e5d0e312826992a293261634ebb73d618b5131d3ed Err(InvalidPoint)"),
    ("honest key + 26e8958f..05 as public key", "1356d2726b3dd7204080d42a7e859492d098dbaf9ff26887ef2641f95df85c51 Err(InvalidPoint)"),
    ("honest key + 26e8958f..85 as public key", "48907194cd5b4f4126ed3c4705b0caeb50a998200dc8afbcc0bf925db63bef7b Err(InvalidPoint)"),
    ("honest key + c7176a70..7a as public key", "a56f8e6b32a4b0bed912c3b8fa4f3514af5667dff23750433f406da249c41084 Err(InvalidPoint)"),
    ("honest key + c7176a70..fa as public key", "daa92d8d94c228dfbf7f2bd5817a6b6d2f672450600d977810d9be06a207a3ae Err(InvalidPoint)"),
    ("forged proof, gamma = sk*H + T8", "Ok(\"7f383dc582f8a9bbb29620d95374e43284fc9505db21610f2dd87df2b3e00a5a\")"),
    ("forged proof, gamma = sk*H - T8", "Err(InvalidProof)"),
];

#[test]
fn hostile_verdicts_match_parent() {
    let _table = table_lock();
    let got = hostile_verdicts();
    assert_eq!(got.len(), HOSTILE_VERDICTS.len(), "row count");
    for ((label, verdict), (want_label, want_verdict)) in got.iter().zip(HOSTILE_VERDICTS) {
        assert_eq!(label, want_label);
        assert_eq!(verdict, want_verdict, "{label}");
    }
}

// --- The table of proven keys ------------------------------------------------
//
// `PublicKey::from_bytes` remembers the encodings it has proven valid,
// and verification the keys it is handed (building a key's comb at its
// first use), process-wide, and these tests share a process: every
// verdict below must hold whatever the table holds, and the counts are
// compared with `>=` because the other tests only ever add to them. The
// tests that need to know what the table holds for a key take
// `table_lock`, and so do the tests that use those keys.

fn table_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `KEY_TABLE_CAPACITY + 1` valid keys no other call yields — `first·B`,
/// `(first + 1)·B`, …, distinct and valid because B generates the
/// prime-order subgroup. Recording that many rotates both generations
/// out: afterwards the table holds none of the keys it held before.
fn fresh_keys(first: u64) -> impl Iterator<Item = [u8; 32]> {
    let b = EdwardsPoint::basepoint();
    std::iter::successors(Some(b.scalar_mul(&Scalar::from_u64(first))), move |p| {
        Some(p.add(&b))
    })
    .take(sig::KEY_TABLE_CAPACITY + 1)
    .map(|p| p.compress())
}

#[test]
fn hostile_verdicts_do_not_depend_on_what_was_parsed_before() {
    // The second pass meets the honest and forger keys proven, whatever
    // the first met; `hostile_verdicts_match_parent` pins the rows.
    let _table = table_lock();
    let cold = hostile_verdicts();
    let warm = hostile_verdicts();
    assert_eq!(cold, warm);
}

#[test]
fn hostile_verdicts_do_not_depend_on_which_keys_have_combs() {
    let _table = table_lock();
    for key in fresh_keys(1 << 40) {
        PublicKey::from_bytes(&key).expect("a multiple of B");
    }
    // Cold: the honest and forger keys are not in the table, so the first
    // row to verify under each builds the comb the later rows read.
    let cold = hostile_verdicts();
    for pk in [honest().0.pk, Keypair::from_seed(FORGE_SEED).pk] {
        pk.double_scalar_mul_basepoint(&Scalar::ONE, &Scalar::ONE);
    }
    let warm = hostile_verdicts();
    assert_eq!(cold, warm);
    let pinned: Vec<(String, String)> = HOSTILE_VERDICTS
        .iter()
        .map(|(label, verdict)| (label.to_string(), verdict.to_string()))
        .collect();
    assert_eq!(warm, pinned);
}

#[test]
fn a_rejected_key_is_rejected_every_time() {
    let honest_key = EdwardsPoint::decompress(honest().0.pk.as_bytes()).expect("honest key");
    let mixed = SMALL_ORDER[1..].iter().map(|enc| {
        let torsion = EdwardsPoint::decompress(&unhex(enc)).expect("on curve");
        honest_key.add(&torsion).compress()
    });
    let mut off_curve = [0u8; 32];
    off_curve[0] = 2; // y = 2 is on no curve point.
    let hostile: Vec<[u8; 32]> = SMALL_ORDER
        .iter()
        .chain(&NON_CANONICAL_Y)
        .chain(&ZERO_X_NEGATIVE)
        .map(|enc| unhex(enc))
        .chain(mixed)
        .chain([off_curve])
        .collect();
    let before = sig::key_table_stats();
    for enc in &hostile {
        for parse in 0..3 {
            assert_eq!(
                PublicKey::from_bytes(enc).map(|_| ()),
                Err(CryptoError::InvalidPoint),
                "{} on parse {parse}",
                hex(enc)
            );
        }
    }
    // Each of those parses ran the full check; none was answered from the table.
    let after = sig::key_table_stats();
    assert!(after.checks - before.checks >= 3 * hostile.len() as u64);
}

#[test]
fn a_proven_key_parses_to_the_same_key() {
    let _table = table_lock();
    for (i, row) in KNOWN_ANSWERS.iter().enumerate() {
        let (keypair, msg) = row_inputs(i);
        let first = PublicKey::from_bytes(keypair.pk.as_bytes()).expect("valid");
        // Proven one line up, so this parse is a hit (no flood can push
        // it out in between: the floods hold `table_lock` too).
        let before = sig::key_table_stats();
        let second = PublicKey::from_bytes(keypair.pk.as_bytes()).expect("valid");
        assert!(sig::key_table_stats().hits > before.hits, "row {i}");
        for parsed in [first, second] {
            assert_eq!(parsed.to_bytes(), keypair.pk.to_bytes(), "row {i}");
            assert_eq!(parsed.point(), keypair.pk.point(), "row {i}");
            let signature = Signature::from_bytes(&unhex(row.sig)).expect("s");
            assert_eq!(sig::verify(&parsed, &msg, &signature), Ok(()));
        }
    }
}

#[test]
fn the_table_of_proven_keys_is_bounded() {
    let _table = table_lock();
    // Every key holds a comb by the time the next is recorded, and still
    // the table keeps at most `KEY_TABLE_CAPACITY` keys — a comb lives in
    // its key's entry, so at most that many combs.
    let before = sig::key_table_stats();
    for key in fresh_keys(1) {
        let key = PublicKey::from_bytes(&key).expect("a multiple of B");
        key.double_scalar_mul_basepoint(&Scalar::ONE, &Scalar::ONE);
        assert!(sig::key_table_stats().keys <= sig::KEY_TABLE_CAPACITY);
    }
    let built = sig::key_table_stats().combs_built - before.combs_built;
    assert!(built > sig::KEY_TABLE_CAPACITY as u64);
    // Whether or not the flood pushed it out, the first key is the same key.
    let b = EdwardsPoint::basepoint();
    let first = b.compress();
    let again = PublicKey::from_bytes(&first).expect("B");
    assert_eq!(again.to_bytes(), first);
    assert_eq!(again.point(), &b);
    // What that bound costs at worst, as DESIGN.md §8 "Keys" states it.
    const { assert!(sig::KEY_TABLE_MAX_BYTES <= 24 << 20) };
}

#[test]
fn small_order_table_is_what_it_says() {
    // Guards the transcription: each row decompresses, eight distinct
    // points, each killed by the cofactor.
    let mut seen = Vec::new();
    for enc in SMALL_ORDER {
        let p = EdwardsPoint::decompress(&unhex(enc)).expect("on curve");
        assert!(p.mul_by_cofactor().is_identity(), "{enc}");
        assert_eq!(hex(&p.compress()), enc, "canonical");
        assert!(!seen.contains(&p));
        seen.push(p);
    }
}

#[test]
fn forged_proof_is_reproducible_and_certifies_the_honest_output() {
    let _table = table_lock();
    let (proof, honest_output) = forge_torsion_gamma(FORGE_SEED);
    assert_eq!(hex(&proof), FORGED_PROOF);
    let gamma = EdwardsPoint::decompress(&unhex::<32>(&FORGED_PROOF[..64])).expect("on curve");
    assert!(!gamma.is_torsion_free());
    let forger = Keypair::from_seed(FORGE_SEED);
    assert_eq!(verify_proof_bytes(&forger.pk, &proof), Ok(honest_output));
}

/// Prints the tables in source form. Run at the parent commit to produce
/// the committed rows.
#[test]
#[ignore = "generator, not a check"]
fn print_tables() {
    println!("// KNOWN_ANSWERS");
    for i in 0..MSG_LENS.len() {
        let r = compute_row(i);
        println!("    KnownAnswer {{");
        println!("        pk: \"{}\",", hex(&r.pk));
        println!("        sig: \"{}\",", hex(&r.sig));
        println!("        proof: \"{}\",", hex(&r.proof));
        println!("        output: \"{}\",", hex(&r.output));
        println!("        base_mul: \"{}\",", hex(&r.base_mul));
        println!("        var_mul: \"{}\",", hex(&r.var_mul));
        println!("    }},");
    }
    println!("// FORGED");
    let (proof, _) = forge_torsion_gamma(FORGE_SEED);
    println!("const FORGED_PROOF: &str = \"{}\";", hex(&proof));
    println!("// HOSTILE_VERDICTS");
    for (label, verdict) in hostile_verdicts() {
        println!("    ({label:?}, {verdict:?}),");
    }
}
