//! The one micro-bench: primitives the system benchmark's per-layer
//! ledger (`BENCHMARK.json`, `benchmark/src/probes.rs`) has no name for.
//!
//! Field, point and scalar operations sit under the `crypto.*` rows the
//! ledger does time (`scalar_mul`, signature and VRF sign/verify, SHA-256)
//! and explain them; a signature check, and a vote's signature and VRF
//! checks, under a key met for the first time, beside a signature check
//! under a key whose comb is built (the ledger's `crypto.sig_verify_us`
//! only sees the last); an unselected user's
//! `sortition/select`, which stops at the VRF output; whale
//! `sortition/verify` (stake = W at τ = 2,000) is the paper-scale cost of
//! the binomial CDF walk, which the ledger's `sortition.verify_us` at
//! benchmark stakes cannot show; and a 20-vote
//! certificate is what a bootstrapping user pays per round (§8.3). A call
//! the ledger times at workload sizes is not repeated here.

use algorand_ba::{
    BaParams, Certificate, RealVerifier, RoundWeights, StepKind, VoteMessage, SECOND,
};
use algorand_bench::timing::bench;
use algorand_crypto::edwards::EdwardsPoint;
use algorand_crypto::field::FieldElement;
use algorand_crypto::scalar::Scalar;
use algorand_crypto::{sha256, sig, vrf, Keypair, PublicKey, Signature, VrfProof};
use algorand_sortition::{select, Role, SortitionParams};
use std::hint::black_box;

fn bench_field() {
    let a = FieldElement::from_bytes(&sha256(b"a"));
    let b = FieldElement::from_bytes(&sha256(b"b"));
    bench("field/mul", || {
        black_box(black_box(&a).mul(black_box(&b)));
    });
    bench("field/square", || {
        black_box(black_box(&a).square());
    });
    bench("field/invert", || {
        black_box(black_box(&a).invert());
    });
}

fn bench_curve() {
    let k = Scalar::from_bytes_mod_order(&sha256(b"k"));
    let k2 = Scalar::from_bytes_mod_order(&sha256(b"k2"));
    let p = EdwardsPoint::basepoint().scalar_mul(&k);
    let q = p.double();
    bench("point/double", || {
        black_box(black_box(&p).double());
    });
    bench("point/add", || {
        black_box(black_box(&p).add(black_box(&q)));
    });
    bench("point/compress", || {
        black_box(black_box(&p).compress());
    });
    bench("point/basepoint_mul", || {
        black_box(EdwardsPoint::basepoint_mul(black_box(&k2)));
    });
    bench("point/double_scalar_mul_basepoint", || {
        black_box(EdwardsPoint::double_scalar_mul_basepoint(
            black_box(&k),
            black_box(&p),
            black_box(&k2),
        ));
    });
    bench("point/is_torsion_free", || {
        black_box(black_box(&p).is_torsion_free());
    });
    // `from_bytes` remembers the keys it has proven, so the cold row walks
    // a ring of distinct valid keys twice the table's capacity: by the
    // time one comes round again, two rotations have dropped it.
    let b = EdwardsPoint::basepoint();
    let mut next = p;
    let ring: Vec<[u8; 32]> = (0..2 * sig::KEY_TABLE_CAPACITY)
        .map(|_| {
            next = next.add(&b);
            next.compress()
        })
        .collect();
    let mut calls = 0usize;
    let before = sig::key_table_stats();
    bench("point/public_key_from_bytes", || {
        let _ = black_box(PublicKey::from_bytes(black_box(&ring[calls % ring.len()])));
        calls += 1;
    });
    let after = sig::key_table_stats();
    assert_eq!(
        (after.checks - before.checks, after.hits),
        (calls as u64, before.hits),
        "every parse of the cold row must be a full check"
    );
    let encoded = p.compress();
    bench("point/public_key_from_bytes_warm", || {
        let _ = black_box(PublicKey::from_bytes(black_box(&encoded)));
    });
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&sha256(b"lo"));
    wide[32..].copy_from_slice(&sha256(b"hi"));
    bench("scalar/from_bytes_mod_order_wide", || {
        black_box(Scalar::from_bytes_mod_order_wide(black_box(&wide)));
    });
}

fn bench_signatures() {
    // Verification remembers the keys it is handed: the first check under
    // a key builds the key's comb, the rest read it. The ledger's
    // `crypto.sig_verify_us` only ever sees its one key warm, so each cold
    // row walks its own ring of keys twice the table's capacity: by the
    // time one comes round again, two rotations have dropped it.
    let msg = sha256(b"a vote's digest");
    let alpha = sha256(b"a sortition seed and role");
    let keys = |ring: u8| {
        (0..2 * sig::KEY_TABLE_CAPACITY as u32).map(move |i| {
            let mut seed = [ring; 32];
            seed[..4].copy_from_slice(&i.to_le_bytes());
            Keypair::from_seed(seed)
        })
    };
    let ring: Vec<(PublicKey, Signature)> = keys(0)
        .map(|keypair| (keypair.pk, sig::sign(&keypair, &msg)))
        .collect();
    let mut calls = 0usize;
    let before = sig::key_table_stats();
    bench("sig/verify_cold_key", || {
        let (pk, signature) = &ring[calls % ring.len()];
        let _ = black_box(sig::verify(pk, &msg, black_box(signature)));
        calls += 1;
    });
    let after = sig::key_table_stats();
    assert_eq!(
        (after.combs_built - before.combs_built, after.comb_hits),
        (calls as u64, before.comb_hits),
        "every check of the cold row must be a key's first"
    );
    // A vote is two checks under its sender's key, the signature and the
    // VRF proof's `U` (`RealVerifier::verify_vote`): under a key met for
    // the first time, the first builds the comb and the second reads it.
    let votes: Vec<(PublicKey, Signature, VrfProof)> = keys(1)
        .map(|keypair| {
            let proof = vrf::prove(&keypair, &alpha).1;
            (keypair.pk, sig::sign(&keypair, &msg), proof)
        })
        .collect();
    let mut calls = 0usize;
    let before = sig::key_table_stats();
    bench("vote/verify_cold_key", || {
        let (pk, signature, proof) = &votes[calls % votes.len()];
        let _ = black_box(sig::verify(pk, &msg, black_box(signature)));
        let _ = black_box(vrf::verify(pk, &alpha, black_box(proof)));
        calls += 1;
    });
    let after = sig::key_table_stats();
    assert_eq!(
        (
            after.combs_built - before.combs_built,
            after.comb_hits - before.comb_hits
        ),
        (calls as u64, calls as u64),
        "every vote of the cold row must be its key's first"
    );
    let (pk, signature) = &ring[0];
    bench("sig/verify_warm_key", || {
        let _ = black_box(sig::verify(pk, &msg, black_box(signature)));
    });
}

fn bench_sortition() {
    let keypair = Keypair::from_seed([3; 32]);
    let seed = [7u8; 32];
    let params = SortitionParams {
        tau: 2000.0,
        total_weight: 1_000_000,
    };
    // A user of stake 50 in 10⁶ is on a τ = 2,000 committee about one
    // step in ten; an unselected user computes the VRF output and no proof.
    let unselected = (1..)
        .map(|round| Role::Committee { round, step: 1 })
        .find(|&role| select(&keypair, &seed, role, &params, 50).is_none())
        .expect("a light user is usually not selected");
    bench("sortition/select_unselected", || {
        black_box(select(&keypair, &seed, unselected, &params, black_box(50)));
    });
    let role = Role::Committee { round: 1, step: 1 };
    let sel = select(&keypair, &seed, role, &params, 1_000_000).expect("whale is selected");
    bench("sortition/verify", || {
        let _ = black_box(algorand_sortition::verify(
            &keypair.pk,
            black_box(&sel.proof),
            &seed,
            role,
            &params,
            1_000_000,
        ));
    });
}

fn bench_certificate_validation() {
    // A scaled certificate: 20 committee votes. Paper scale (~1400 votes)
    // costs proportionally more; the per-vote cost is what matters.
    let keypairs: Vec<Keypair> = (1..=20u8).map(|i| Keypair::from_seed([i; 32])).collect();
    let weights = RoundWeights::from_pairs(keypairs.iter().map(|k| (k.pk, 1000u64)));
    let params = BaParams {
        tau_step: 20_000.0, // τ = W: everyone selected.
        tau_final: 20_000.0,
        max_steps: 10,
        lambda_step: SECOND,
        lambda_block: SECOND,
        disable_backoff: false,
    };
    let seed = [9u8; 32];
    let prev = [7u8; 32];
    let value = [3u8; 32];
    let step = StepKind::Main(1);
    let votes: Vec<VoteMessage> = keypairs
        .iter()
        .map(|kp| {
            let sel = select(
                kp,
                &seed,
                Role::Committee {
                    round: 1,
                    step: step.code(),
                },
                &SortitionParams {
                    tau: params.tau_step,
                    total_weight: weights.total(),
                },
                1000,
            )
            .expect("selected");
            VoteMessage::sign(kp, 1, step, sel.vrf_output, sel.proof, prev, value)
        })
        .collect();
    let cert = Certificate {
        round: 1,
        step,
        value,
        votes,
    };
    bench("ledger/validate_certificate/20_votes", || {
        let _ =
            black_box(black_box(&cert).validate(&params, &seed, &prev, &weights, &RealVerifier));
    });
}

fn main() {
    bench_field();
    bench_curve();
    bench_signatures();
    bench_sortition();
    bench_certificate_validation();
}
