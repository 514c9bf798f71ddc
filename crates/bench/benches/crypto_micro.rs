//! Micro-benchmarks for the §10.3 CPU cost drivers, bottom up: field and
//! curve operations, scalar reduction, signatures, VRFs, sortition, vote
//! processing, and hashing. The paper attributes most per-user CPU (~6.5%
//! of a core) to verifying signatures and VRFs.
//!
//! Every row also lands in `results/BENCH_crypto_micro.json` (nanoseconds
//! per operation, keyed by the row name with `/` as `_`), the crypto
//! layer's row of the per-layer perf ledger.

use algorand_ba::{RealVerifier, RoundWeights, StepKind, VoteContext, VoteMessage, VoteVerifier};
use algorand_bench::baseline::{Baseline, WALL_CLOCK_S};
use algorand_bench::timing::{bench, bench_throughput};
use algorand_crypto::edwards::EdwardsPoint;
use algorand_crypto::field::FieldElement;
use algorand_crypto::scalar::Scalar;
use algorand_crypto::{sha256, sig, vrf, Keypair, PublicKey};
use algorand_sortition::{select, Role, SortitionParams};
use std::hint::black_box;

/// `(row name, ns/op)` in the order run.
type Rows = Vec<(String, f64)>;

fn row(out: &mut Rows, name: &str, f: impl FnMut()) {
    out.push((name.to_string(), bench(name, f)));
}

fn bench_sha256(out: &mut Rows) {
    for size in [64usize, 1024, 1 << 20] {
        let data = vec![0xabu8; size];
        let name = format!("sha256/{size}B");
        let ns = bench_throughput(&name, size as u64, || {
            black_box(sha256(black_box(&data)));
        });
        out.push((name, ns));
    }
}

fn bench_field(out: &mut Rows) {
    let a = FieldElement::from_bytes(&sha256(b"a"));
    let b = FieldElement::from_bytes(&sha256(b"b"));
    row(out, "field/mul", || {
        black_box(black_box(&a).mul(black_box(&b)));
    });
    row(out, "field/square", || {
        black_box(black_box(&a).square());
    });
    row(out, "field/invert", || {
        black_box(black_box(&a).invert());
    });
}

fn bench_curve(out: &mut Rows) {
    let k = Scalar::from_bytes_mod_order(&sha256(b"k"));
    let k2 = Scalar::from_bytes_mod_order(&sha256(b"k2"));
    let p = EdwardsPoint::basepoint().scalar_mul(&k);
    let q = p.double();
    row(out, "point/double", || {
        black_box(black_box(&p).double());
    });
    row(out, "point/add", || {
        black_box(black_box(&p).add(black_box(&q)));
    });
    row(out, "point/compress", || {
        black_box(black_box(&p).compress());
    });
    row(out, "point/scalar_mul", || {
        black_box(black_box(&p).scalar_mul(black_box(&k2)));
    });
    row(out, "point/basepoint_mul", || {
        black_box(EdwardsPoint::basepoint_mul(black_box(&k2)));
    });
    row(out, "point/double_scalar_mul_basepoint", || {
        black_box(EdwardsPoint::double_scalar_mul_basepoint(
            black_box(&k),
            black_box(&p),
            black_box(&k2),
        ));
    });
    row(out, "point/is_torsion_free", || {
        black_box(black_box(&p).is_torsion_free());
    });
    let encoded = p.compress();
    row(out, "point/public_key_from_bytes", || {
        let _ = black_box(PublicKey::from_bytes(black_box(&encoded)));
    });
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&sha256(b"lo"));
    wide[32..].copy_from_slice(&sha256(b"hi"));
    row(out, "scalar/from_bytes_mod_order_wide", || {
        black_box(Scalar::from_bytes_mod_order_wide(black_box(&wide)));
    });
}

fn bench_signatures(out: &mut Rows) {
    let keypair = Keypair::from_seed([1; 32]);
    let msg = [0x5au8; 300];
    let signature = sig::sign(&keypair, &msg);
    row(out, "sig/sign", || {
        black_box(sig::sign(&keypair, black_box(&msg)));
    });
    row(out, "sig/verify", || {
        let _ = black_box(sig::verify(&keypair.pk, &msg, black_box(&signature)));
    });
}

fn bench_vrf(out: &mut Rows) {
    let keypair = Keypair::from_seed([2; 32]);
    let alpha = b"seed||role";
    let (_, proof) = vrf::prove(&keypair, alpha);
    row(out, "vrf/prove", || {
        black_box(vrf::prove(&keypair, black_box(alpha)));
    });
    row(out, "vrf/verify", || {
        let _ = black_box(vrf::verify(&keypair.pk, alpha, black_box(&proof)));
    });
}

fn bench_sortition(out: &mut Rows) {
    let keypair = Keypair::from_seed([3; 32]);
    let seed = [7u8; 32];
    let params = SortitionParams {
        tau: 2000.0,
        total_weight: 1_000_000,
    };
    let role = Role::Committee { round: 1, step: 1 };
    row(out, "sortition/select", || {
        black_box(select(&keypair, &seed, role, &params, black_box(5000)));
    });
    let sel = select(&keypair, &seed, role, &params, 1_000_000).expect("whale is selected");
    row(out, "sortition/verify", || {
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

fn bench_vote_processing(out: &mut Rows) {
    // ProcessMsg (Algorithm 6): the dominant cost of observing BA⋆.
    let keypairs: Vec<Keypair> = (0..4u8).map(|i| Keypair::from_seed([i + 1; 32])).collect();
    let weights = RoundWeights::from_pairs(keypairs.iter().map(|k| (k.pk, 1000u64)));
    let ctx = VoteContext {
        round: 1,
        seed: [9u8; 32],
        tau: 4000.0,
    };
    let step = StepKind::Main(1);
    let sel = select(
        &keypairs[0],
        &ctx.seed,
        Role::Committee {
            round: 1,
            step: step.code(),
        },
        &SortitionParams {
            tau: ctx.tau,
            total_weight: weights.total(),
        },
        1000,
    )
    .expect("selected");
    let vote = VoteMessage::sign(
        &keypairs[0],
        1,
        step,
        sel.vrf_output,
        sel.proof,
        [4u8; 32],
        [5u8; 32],
    );
    row(out, "ba/process_vote", || {
        black_box(RealVerifier.verify_vote(black_box(&vote), &ctx, &weights));
    });
}

fn main() {
    let wall = std::time::Instant::now();
    let mut rows = Rows::new();
    bench_sha256(&mut rows);
    bench_field(&mut rows);
    bench_curve(&mut rows);
    bench_signatures(&mut rows);
    bench_vrf(&mut rows);
    bench_sortition(&mut rows);
    bench_vote_processing(&mut rows);

    // `cargo bench` runs in the package directory; the ledger lives in
    // the workspace's `results/`.
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .expect("workspace root");
    rows.into_iter()
        .fold(Baseline::new("crypto_micro"), |b, (name, ns)| {
            b.metric(&format!("{}_ns", name.replace('/', "_")), ns)
        })
        .metric(WALL_CLOCK_S, wall.elapsed().as_secs_f64())
        .write()
        .expect("write results/BENCH_crypto_micro.json");
}
