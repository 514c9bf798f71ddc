//! Randomized property tests for the cryptographic substrate.
//!
//! These check algebraic laws (field and scalar rings, group structure) and
//! end-to-end roundtrips (sign/verify, VRF prove/verify) over many random
//! inputs, complementing the fixed-vector unit tests in each module. The
//! inputs come from the in-repo deterministic RNG, so failures replay
//! exactly.
//!
//! The second half is differential: every fast path under signature and
//! VRF verification and proving — the addition chains, the interleaved
//! variable-time multiplications, the comb products and the keyed
//! verification that reads them, the subgroup check, the folding scalar
//! reduction, the shared-inversion encodings — against the slow path it
//! replaced (`pow`, `scalar_mul`, Horner's rule over single-limb
//! products), on random inputs and on the edges of each representation.
//! The checks that need a limb array or a digit string rather than a
//! value live beside the code, in `field.rs` and `scalar.rs`.

use algorand_crypto::edwards::{Comb, EdwardsPoint};
use algorand_crypto::field::FieldElement;
use algorand_crypto::rng::Rng;
use algorand_crypto::scalar::Scalar;
use algorand_crypto::sha256::sha256;
use algorand_crypto::{sig, vrf, Keypair};

const CASES: usize = 24;

fn rng(test_tag: u64) -> Rng {
    Rng::seed_from_u64(0xC0FFEE ^ test_tag)
}

fn rand_field(rng: &mut Rng) -> FieldElement {
    let mut b = rng.gen_bytes32();
    b[31] &= 0x7f;
    FieldElement::from_bytes(&b)
}

fn rand_scalar(rng: &mut Rng) -> Scalar {
    Scalar::from_bytes_mod_order(&rng.gen_bytes32())
}

fn rand_keypair(rng: &mut Rng) -> Keypair {
    Keypair::from_seed(rng.gen_bytes32())
}

fn rand_msg(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range_usize(max_len + 1);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

// --- Field ring laws -------------------------------------------------------

#[test]
fn field_ring_laws() {
    let mut rng = rng(1);
    for _ in 0..CASES {
        let (a, b, c) = (
            rand_field(&mut rng),
            rand_field(&mut rng),
            rand_field(&mut rng),
        );
        assert_eq!(a.add(&b), b.add(&a), "addition commutes");
        assert_eq!(a.mul(&b), b.mul(&a), "multiplication commutes");
        assert_eq!(
            a.mul(&b).mul(&c),
            a.mul(&b.mul(&c)),
            "multiplication associates"
        );
        assert_eq!(
            a.mul(&b.add(&c)),
            a.mul(&b).add(&a.mul(&c)),
            "distributivity"
        );
        assert!(a.add(&a.neg()).is_zero(), "additive inverse");
        if !a.is_zero() {
            assert_eq!(
                a.mul(&a.invert()),
                FieldElement::ONE,
                "multiplicative inverse"
            );
        }
        assert_eq!(a.square(), a.mul(&a), "square matches mul");
    }
}

#[test]
fn field_bytes_roundtrip() {
    let mut rng = rng(2);
    for _ in 0..CASES {
        let a = rand_field(&mut rng);
        let bytes = a.to_bytes();
        assert_eq!(FieldElement::from_bytes(&bytes), a);
        // Canonical encodings keep bit 255 clear.
        assert_eq!(bytes[31] & 0x80, 0);
    }
}

#[test]
fn field_sqrt_of_square_recovers() {
    let mut rng = rng(3);
    for _ in 0..CASES {
        let a = rand_field(&mut rng);
        if a.is_zero() {
            continue;
        }
        let sq = a.square();
        let r = FieldElement::sqrt_ratio(&sq, &FieldElement::ONE).expect("is a square");
        assert!(r == a || r == a.neg());
    }
}

// --- Scalar ring laws -------------------------------------------------------

#[test]
fn scalar_ring_laws() {
    let mut rng = rng(4);
    for _ in 0..CASES {
        let (a, b, c) = (
            rand_scalar(&mut rng),
            rand_scalar(&mut rng),
            rand_scalar(&mut rng),
        );
        assert_eq!(a.add(&b), b.add(&a), "addition commutes");
        assert_eq!(
            a.mul(&b).mul(&c),
            a.mul(&b.mul(&c)),
            "multiplication associates"
        );
        assert_eq!(
            a.mul(&b.add(&c)),
            a.mul(&b).add(&a.mul(&c)),
            "distributivity"
        );
        assert_eq!(a.sub(&b), a.add(&b.neg()), "sub is add-neg");
    }
}

#[test]
fn scalar_bytes_roundtrip() {
    let mut rng = rng(5);
    for _ in 0..CASES {
        let a = rand_scalar(&mut rng);
        let parsed = Scalar::from_canonical_bytes(&a.to_bytes()).expect("canonical");
        assert_eq!(parsed, a);
    }
}

#[test]
fn scalar_wide_reduction_consistent() {
    let mut rng = rng(6);
    for _ in 0..CASES {
        let mut bytes = [0u8; 64];
        rng.fill_bytes(&mut bytes);
        // Reducing twice must be a fixed point.
        let once = Scalar::from_bytes_mod_order_wide(&bytes);
        let twice = Scalar::from_bytes_mod_order(&once.to_bytes());
        assert_eq!(once, twice);
    }
}

// --- Group laws --------------------------------------------------------------

#[test]
fn group_scalar_mul_distributes_over_scalar_add() {
    let mut rng = rng(7);
    let base = EdwardsPoint::basepoint();
    for _ in 0..CASES {
        let (a, b) = (rand_scalar(&mut rng), rand_scalar(&mut rng));
        assert_eq!(
            base.scalar_mul(&a.add(&b)),
            base.scalar_mul(&a).add(&base.scalar_mul(&b))
        );
    }
}

#[test]
fn group_point_compression_roundtrip_and_curve_membership() {
    let mut rng = rng(8);
    for _ in 0..CASES {
        let k = rand_scalar(&mut rng);
        let p = EdwardsPoint::basepoint().scalar_mul(&k);
        let c = p.compress();
        let q = EdwardsPoint::decompress(&c).expect("valid");
        assert_eq!(p, q);
        if !k.is_zero() {
            assert!(p.is_on_curve());
            assert!(p.is_torsion_free());
        }
    }
}

// --- Signatures ---------------------------------------------------------------

#[test]
fn signatures_verify_and_bind_message() {
    let mut rng = rng(9);
    for _ in 0..CASES {
        let keypair = rand_keypair(&mut rng);
        let msg = rand_msg(&mut rng, 255);
        let s = sig::sign(&keypair, &msg);
        assert!(sig::verify(&keypair.pk, &msg, &s).is_ok());
        // Roundtrip through bytes.
        let parsed = sig::Signature::from_bytes(&s.to_bytes()).unwrap();
        assert!(sig::verify(&keypair.pk, &msg, &parsed).is_ok());
        // Any single-byte flip breaks verification.
        if !msg.is_empty() {
            let mut other = msg.clone();
            other[0] ^= 1;
            assert!(sig::verify(&keypair.pk, &other, &s).is_err());
        }
    }
}

// --- VRF ------------------------------------------------------------------------

#[test]
fn vrf_prove_verify() {
    let mut rng = rng(10);
    for _ in 0..CASES {
        let keypair = rand_keypair(&mut rng);
        let alpha = rand_msg(&mut rng, 127);
        let (out, proof) = vrf::prove(&keypair, &alpha);
        let verified = vrf::verify(&keypair.pk, &alpha, &proof).unwrap();
        assert_eq!(out, verified);
        let frac = out.as_unit_fraction();
        assert!((0.0..1.0).contains(&frac));
    }
}

#[test]
fn vrf_proof_does_not_transfer() {
    let mut rng = rng(11);
    for _ in 0..CASES {
        let a = rand_keypair(&mut rng);
        let b = rand_keypair(&mut rng);
        assert_ne!(a.pk, b.pk, "distinct random keys");
        let alpha = rand_msg(&mut rng, 63);
        let (_, proof) = vrf::prove(&a, &alpha);
        assert!(vrf::verify(&b.pk, &alpha, &proof).is_err());
    }
}

// --- Fast paths against their references -------------------------------------

/// p = 2^255 − 19, little-endian.
const P_BYTES: [u8; 32] = {
    let mut b = [0xff; 32];
    b[0] = 0xed;
    b[31] = 0x7f;
    b
};

/// ℓ, little-endian.
const L_BYTES: [u8; 32] = [
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10,
];

/// `bytes + delta` as a 256-bit little-endian integer (wrapping).
fn offset(bytes: &[u8; 32], delta: i8) -> [u8; 32] {
    let mut out = *bytes;
    let mut carry = delta as i16;
    for b in out.iter_mut() {
        let v = *b as i16 + carry;
        *b = v.rem_euclid(256) as u8;
        carry = v.div_euclid(256);
    }
    out
}

/// Field values on the edges of the encoding: around 0, around p (which
/// `from_bytes` accepts and reduces), and the largest 255-bit value.
fn edge_fields() -> Vec<FieldElement> {
    let mut top = [0xff; 32];
    top[31] = 0x7f;
    [
        [0u8; 32],
        offset(&[0u8; 32], 1),
        offset(&P_BYTES, -1),
        P_BYTES,
        offset(&P_BYTES, 1),
        top,
    ]
    .iter()
    .map(FieldElement::from_bytes)
    .collect()
}

/// Scalars on the edges of the recoding: 0, 1, ℓ − 1, 2^252 (the fold
/// point of the reduction and the top digit of a width-5 NAF), 2^252 − 1
/// (all-ones nibbles: every window full, a carry out of each), and byte
/// patterns that put every residue in a window.
fn edge_scalars() -> Vec<Scalar> {
    let mut two_252 = [0u8; 32];
    two_252[31] = 0x10;
    let mut v = vec![
        Scalar::ZERO,
        Scalar::ONE,
        Scalar::from_canonical_bytes(&offset(&L_BYTES, -1)).expect("l - 1 is canonical"),
        Scalar::from_canonical_bytes(&two_252).expect("2^252 < l"),
        Scalar::from_canonical_bytes(&offset(&two_252, -1)).expect("2^252 - 1 < l"),
    ];
    for pattern in [0x55u8, 0xaa, 0x0f, 0xf0, 0x7f, 0x80, 0x11, 0xee, 0xff] {
        v.push(Scalar::from_bytes_mod_order(&[pattern; 32]));
    }
    v
}

/// Points a verifier can be handed: the basepoint and its negative, the
/// identity, a small-order point, a prime-order point, and a point with
/// both components (a hash that decompresses, cofactor not cleared).
fn edge_points(rng: &mut Rng) -> Vec<EdwardsPoint> {
    let base = EdwardsPoint::basepoint();
    let mixed = loop {
        if let Some(p) = EdwardsPoint::decompress(&rng.gen_bytes32()) {
            if !p.is_torsion_free() {
                break p;
            }
        }
    };
    // ℓ·mixed: what is left is the component of order 2, 4 or 8.
    let torsion = mixed
        .scalar_mul(&Scalar::from_bytes_mod_order(&offset(&L_BYTES, -1)))
        .add(&mixed);
    vec![
        base,
        base.neg(),
        EdwardsPoint::identity(),
        torsion,
        base.scalar_mul(&rand_scalar(rng)),
        mixed,
    ]
}

#[test]
fn addition_chains_match_square_and_multiply() {
    let mut rng = rng(20);
    let mut inputs = edge_fields();
    inputs.extend((0..CASES).map(|_| rand_field(&mut rng)));
    let p_minus_2 = offset(&P_BYTES, -2);
    // (p − 5)/8 = 2^252 − 3.
    let mut p58 = [0xff; 32];
    p58[0] = 0xfd;
    p58[31] = 0x0f;
    for x in &inputs {
        assert_eq!(x.invert(), x.pow(&p_minus_2), "invert");
        assert_eq!(x.pow2k(7), x.pow(&offset(&[0u8; 32], 127)).mul(x), "pow2k");
        for v in &inputs {
            // The reference square root of x/v, by the generic power.
            let v3 = v.square().mul(v);
            let v7 = v3.square().mul(v);
            let mut r = x.mul(&v3).mul(&x.mul(&v7).pow(&p58));
            let check = v.mul(&r.square());
            let want = if check == *x {
                Some(r)
            } else if check == x.neg() {
                r = r.mul(&FieldElement::sqrt_m1());
                Some(r)
            } else {
                None
            };
            let want = want.map(|r| if r.is_negative() { r.neg() } else { r });
            assert_eq!(FieldElement::sqrt_ratio(x, v), want, "sqrt_ratio");
        }
    }
}

#[test]
fn field_edges_obey_the_ring_laws() {
    let mut rng = rng(21);
    let edges = edge_fields();
    let minus_one = FieldElement::ZERO.sub(&FieldElement::ONE);
    for a in &edges {
        let r = rand_field(&mut rng);
        assert_eq!(a.square(), a.mul(a));
        assert_eq!(a.add(&r).sub(&r), *a);
        assert_eq!(a.sub(&r).add(&r), *a);
        assert_eq!(a.neg(), a.mul(&minus_one));
        assert_eq!(a.mul(&r).mul(&r.invert()), *a);
        for b in &edges {
            assert_eq!(a.add(b).mul(&r), a.mul(&r).add(&b.mul(&r)));
            assert_eq!(a.sub(b).square(), b.sub(a).square());
        }
    }
    // p − 1, p, p + 1 are −1, 0, 1.
    assert_eq!(edges[2], minus_one);
    assert!(edges[3].is_zero());
    assert_eq!(edges[4], FieldElement::ONE);
    assert_eq!(edges[5], FieldElement::from_u64(18));
}

#[test]
fn batch_inversion_and_batch_encoding_match_one_at_a_time() {
    let mut rng = rng(22);
    for _ in 0..CASES {
        let mut xs = [(); 5].map(|_| rand_field(&mut rng));
        let want = xs.map(|x| x.invert());
        FieldElement::batch_invert(&mut xs);
        assert_eq!(xs, want);
    }
    let points = edge_points(&mut rng);
    let all: [&EdwardsPoint; 6] = std::array::from_fn(|i| &points[i]);
    assert_eq!(
        EdwardsPoint::compress_batch(all),
        all.map(EdwardsPoint::compress)
    );
    assert_eq!(
        EdwardsPoint::compress_batch([&points[5]]),
        [points[5].compress()]
    );
}

#[test]
fn interleaved_multiplications_match_separate_ones() {
    let mut rng = rng(23);
    let base = EdwardsPoint::basepoint();
    let points = edge_points(&mut rng);
    let mut scalars = edge_scalars();
    scalars.extend((0..4).map(|_| rand_scalar(&mut rng)));
    for a in &scalars {
        // Pair every scalar with an edge one and a random one.
        for b in [&scalars[rng.gen_range_usize(14)], &rand_scalar(&mut rng)] {
            for pa in &points {
                let got = EdwardsPoint::double_scalar_mul_basepoint(a, pa, b);
                let want = pa.scalar_mul(a).add(&base.scalar_mul(b));
                assert_eq!(got, want);
                assert_eq!(got.compress(), want.compress());
                let pc = &points[rng.gen_range_usize(points.len())];
                let got = EdwardsPoint::vartime_double_scalar_mul_sub(a, pa, b, pc);
                let want = pa.scalar_mul(a).sub(&pc.scalar_mul(b));
                assert_eq!(got, want);
                assert_eq!(got.compress(), want.compress());
            }
        }
    }
}

/// Scalars on the edges of a comb's columns (four teeth 64 apart): the
/// one-tooth scalars 2^64, 2^128, 2^192, and scalars with every column
/// set — to entry 1 (2^64 − 1), to entry 7 (2^192 − 1), and as full as a
/// scalar below ℓ gets (2^252 − 1, in `edge_scalars`).
fn comb_edge_scalars() -> Vec<Scalar> {
    let mut v = edge_scalars();
    for tooth in [1, 2, 3] {
        let mut one_tooth = [0u8; 32];
        one_tooth[8 * tooth] = 1;
        v.push(Scalar::from_canonical_bytes(&one_tooth).expect("below 2^253"));
    }
    for full_bytes in [8, 24] {
        let mut every_column = [0u8; 32];
        every_column[..full_bytes].fill(0xff);
        v.push(Scalar::from_canonical_bytes(&every_column).expect("below 2^253"));
    }
    v
}

#[test]
fn comb_products_match_scalar_mul() {
    let mut rng = rng(26);
    let base = EdwardsPoint::basepoint();
    let mut points = edge_points(&mut rng);
    points.extend((0..4).map(|_| base.scalar_mul(&rand_scalar(&mut rng))));
    let mut scalars = comb_edge_scalars();
    scalars.extend((0..CASES).map(|_| rand_scalar(&mut rng)));
    for p in &points {
        let comb = Comb::new(p);
        for k in &scalars {
            assert_eq!(comb.mul(k), p.scalar_mul(k));
            assert_eq!(comb.mul(k).compress(), p.scalar_mul(k).compress());
        }
    }
}

#[test]
fn keyed_verification_matches_the_interleaved_pass() {
    // A key no other test has met: its first product builds the comb,
    // every later one reads it.
    let mut rng = rng(27);
    let pk = rand_keypair(&mut rng).pk;
    let scalars = comb_edge_scalars();
    let before = sig::key_table_stats();
    for call in 1..=10 {
        let (a, b) = if call <= 2 {
            (rand_scalar(&mut rng), rand_scalar(&mut rng))
        } else {
            (
                scalars[rng.gen_range_usize(scalars.len())],
                rand_scalar(&mut rng),
            )
        };
        let got = pk.double_scalar_mul_basepoint(&a, &b);
        let want = EdwardsPoint::double_scalar_mul_basepoint(&a, pk.point(), &b);
        assert_eq!(got, want, "verification {call}");
        assert_eq!(got.compress(), want.compress(), "verification {call}");
    }
    for (a, b) in scalars.iter().zip(scalars.iter().rev()) {
        let want = EdwardsPoint::double_scalar_mul_basepoint(a, pk.point(), b);
        assert_eq!(pk.double_scalar_mul_basepoint(a, b), want);
    }
    // Counted process-wide, and other tests only add to the counts.
    let after = sig::key_table_stats();
    assert!(after.combs_built > before.combs_built);
    assert!(after.comb_hits >= before.comb_hits + 9 + scalars.len() as u64);
}

#[test]
fn subgroup_check_matches_multiplying_by_the_order() {
    let mut rng = rng(24);
    let l_minus_1 = Scalar::from_bytes_mod_order(&offset(&L_BYTES, -1));
    let mut points = edge_points(&mut rng);
    let torsion = points[3];
    for _ in 0..CASES {
        let p = EdwardsPoint::basepoint().scalar_mul(&rand_scalar(&mut rng));
        points.push(p);
        // A random coset of the prime-order subgroup.
        let k = Scalar::from_u64(rng.gen_range_u64(8));
        points.push(p.add(&torsion.scalar_mul(&k)));
    }
    let mut outside = 0;
    for p in &points {
        let want = p.scalar_mul(&l_minus_1).add(p).is_identity();
        assert_eq!(p.is_torsion_free(), want);
        outside += !want as usize;
    }
    assert!(outside > CASES / 4, "the check was exercised both ways");
}

#[test]
fn wide_reduction_matches_horners_rule() {
    // Σ bᵢ·256^i by Horner's rule reduces only products of a scalar and
    // one byte, so it leans on none of the wide reduction's folds.
    fn horner(bytes: &[u8; 64]) -> Scalar {
        let radix = Scalar::from_u64(256);
        bytes.iter().rev().fold(Scalar::ZERO, |acc, &b| {
            acc.mul(&radix).add(&Scalar::from_u64(b as u64))
        })
    }
    let mut rng = rng(25);
    let mut two_252 = [0u8; 32];
    two_252[31] = 0x10;
    let halves = [
        [0u8; 32],
        [0xff; 32],
        offset(&L_BYTES, -1),
        L_BYTES,
        offset(&L_BYTES, 1),
        two_252,
        offset(&two_252, -1),
        rng.gen_bytes32(),
    ];
    let mut inputs = Vec::new();
    for lo in &halves {
        for hi in &halves {
            let mut wide = [0u8; 64];
            wide[..32].copy_from_slice(lo);
            wide[32..].copy_from_slice(hi);
            inputs.push(wide);
        }
    }
    for _ in 0..CASES {
        let mut wide = [0u8; 64];
        rng.fill_bytes(&mut wide);
        inputs.push(wide);
    }
    for wide in &inputs {
        let got = Scalar::from_bytes_mod_order_wide(wide);
        assert_eq!(got, horner(wide));
        assert_eq!(
            Scalar::from_canonical_bytes(&got.to_bytes()),
            Some(got),
            "fully reduced"
        );
    }
    assert!(Scalar::from_bytes_mod_order(&L_BYTES).is_zero());
}

// --- SHA-256 -----------------------------------------------------------------

#[test]
fn sha256_streaming_equivalence() {
    let mut rng = rng(12);
    for _ in 0..CASES {
        let data = rand_msg(&mut rng, 511);
        let split = rng.gen_range_usize(data.len() + 1);
        let mut h = algorand_crypto::sha256::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), sha256(&data));
    }
}
