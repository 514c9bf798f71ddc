//! Unit costs of each layer: timed calls into the crates' public
//! functions, on inputs built from the workload's seed at the workload's
//! own sizes (population, stake, committee τ, block length, pool depth).
//!
//! Every number is the fastest of [`BATCHES`] batches — the same
//! noise rule as the end-to-end host times — and every batch is a span.

use crate::spans::{SpanId, SpanLog};
use algorand_ba::tally::StepTally;
use algorand_ba::{
    verify_vote_message, BaStar, Certificate, RoundWeights, StepKind, VerifiedVote, VoteContext,
    VoteMessage,
};
use algorand_core::{AlgorandParams, BlockMessage, PipelineVerifier, WireMessage};
use algorand_crypto::codec::Reader;
use algorand_crypto::edwards::EdwardsPoint;
use algorand_crypto::rng::Rng;
use algorand_crypto::scalar::Scalar;
use algorand_crypto::{sha256, sig, vrf, Keypair};
use algorand_gossip::RelayState;
use algorand_ledger::seed::propose_seed;
use algorand_ledger::{Accounts, Block, Blockchain, Transaction};
use algorand_node::config::{derive_keypairs, workload_transactions};
use algorand_node::wal::WalMetrics;
use algorand_node::{frame, Wal};
use algorand_obs::{MetricSnapshot, Registry};
use algorand_sim::GENESIS_SEED;
use algorand_sortition::{select, Role, SortitionParams};
use algorand_txpool::TxPool;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Batches per probe; the fastest one is reported.
const BATCHES: usize = 7;

/// The sizes a workload runs at, which the probes reproduce.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub users: usize,
    pub stake_per_user: u64,
    pub params: AlgorandParams,
    /// Payments in one payment-carrying block of this workload.
    pub block_txs: usize,
    /// Payments a mempool holds at its deepest.
    pub pool_depth: usize,
    /// WAL entries a node writes in one run.
    pub rounds: u64,
}

/// Unit costs by per-layer metric name (`crypto.sig_verify_us`, …).
pub type UnitCosts = BTreeMap<&'static str, f64>;

struct Bench<'a> {
    spans: &'a mut SpanLog,
    layer: SpanId,
    out: UnitCosts,
}

impl Bench<'_> {
    /// Times `run` over fresh state from `prepare`, [`BATCHES`] times;
    /// `run` returns how many operations it did. Returns the fastest
    /// batch's seconds per operation. Only `run` is inside the span.
    fn measure<S>(
        &mut self,
        name: &'static str,
        mut prepare: impl FnMut() -> S,
        mut run: impl FnMut(S) -> u64,
    ) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..BATCHES {
            let state = prepare();
            let span = self.spans.open(name, Some(self.layer));
            let t = Instant::now();
            let ops = run(state);
            let secs = t.elapsed().as_secs_f64();
            self.spans.close(span);
            best = best.min(secs / ops.max(1) as f64);
        }
        best
    }

    fn us<S>(&mut self, name: &'static str, prepare: impl FnMut() -> S, run: impl FnMut(S) -> u64) {
        let secs = self.measure(name, prepare, run);
        self.out.insert(name, secs * 1e6);
    }

    fn ns<S>(&mut self, name: &'static str, prepare: impl FnMut() -> S, run: impl FnMut(S) -> u64) {
        let secs = self.measure(name, prepare, run);
        self.out.insert(name, secs * 1e9);
    }
}

/// Inputs shared by the probes, all derived from `(seed, shape)`.
struct Fixture {
    keypairs: Vec<Keypair>,
    weights: Arc<RoundWeights>,
    /// Sortition seed (also the vote context's).
    seed: [u8; 32],
    prev_hash: [u8; 32],
    /// Genuine committee votes for step `Main(3)` of round 1, one per
    /// selected user, at the workload's τ_step and stake.
    votes: Vec<VoteMessage>,
    ctx: VoteContext,
    /// `pool_depth` valid payments, nonces consecutive per sender.
    payments: Vec<Transaction>,
    accounts: Accounts,
    genesis: Blockchain,
    /// A proposed round-1 block carrying the first `block_txs` payments.
    block: Block,
    block_msg: BlockMessage,
}

/// The step the fixture's votes belong to. An engine still in its first
/// reduction step tallies them without concluding anything, so
/// `ba.on_vote_us` times vote handling, not the sortition and signing
/// of a step transition (those are `sortition.*` and `crypto.*` rows).
const VOTE_STEP: StepKind = StepKind::Main(3);

impl Fixture {
    fn build(seed: u64, shape: &Shape) -> Fixture {
        let keypairs = derive_keypairs(seed, shape.users);
        let alloc: Vec<_> = keypairs
            .iter()
            .map(|k| (k.pk, shape.stake_per_user))
            .collect();
        let weights = Arc::new(RoundWeights::from_pairs(alloc.iter().copied()));
        let genesis = Blockchain::new(shape.params.chain, alloc.iter().copied(), GENESIS_SEED);
        let accounts = genesis.accounts().clone();
        let prev = genesis.tip().clone();
        let prev_hash = prev.hash();
        let sort_seed = genesis.selection_seed(1);

        let ctx = VoteContext {
            round: 1,
            seed: sort_seed,
            tau: shape.params.ba.tau_step,
        };
        let sortition = SortitionParams {
            tau: ctx.tau,
            total_weight: weights.total(),
        };
        let role = Role::Committee {
            round: 1,
            step: VOTE_STEP.code(),
        };
        let votes: Vec<VoteMessage> = keypairs
            .iter()
            .filter_map(|kp| {
                let sel = select(kp, &sort_seed, role, &sortition, shape.stake_per_user)?;
                Some(VoteMessage::sign(
                    kp,
                    1,
                    VOTE_STEP,
                    sel.vrf_output,
                    sel.proof,
                    prev_hash,
                    [0xB1; 32],
                ))
            })
            // Enough for a stable per-vote time; a cold verification is
            // ~3 ms, so this also bounds the probe.
            .take(24)
            .collect();
        assert!(!votes.is_empty(), "sortition selected nobody");

        let payments =
            workload_transactions(seed, &keypairs, shape.stake_per_user, shape.pool_depth);
        // The proposer: the first user proposer-sortition selects.
        let (proposer, sorthash, sort_proof) = keypairs
            .iter()
            .find_map(|kp| {
                algorand_core::proposal::proposer_sortition(
                    kp,
                    &sort_seed,
                    1,
                    &weights,
                    shape.params.tau_proposer,
                )
                .map(|(out, proof, _)| (kp, out, proof))
            })
            .expect("proposer sortition selected nobody");
        let (block_seed, seed_proof) = propose_seed(proposer, &prev.seed, 1);
        let block = Block {
            round: 1,
            prev_hash,
            seed: block_seed,
            seed_proof: Some(seed_proof),
            proposer: Some(proposer.pk),
            timestamp: 1,
            txs: payments[..shape.block_txs.min(payments.len())].to_vec(),
            payload: Vec::new(),
        };
        let block_msg = BlockMessage {
            block: block.clone(),
            sorthash,
            sort_proof,
        };
        Fixture {
            keypairs,
            weights,
            seed: sort_seed,
            prev_hash,
            votes,
            ctx,
            payments,
            accounts,
            genesis,
            block,
            block_msg,
        }
    }

    fn verified_votes(&self) -> Vec<VerifiedVote> {
        let verifier = PipelineVerifier::new();
        self.votes
            .iter()
            .map(|v| {
                verify_vote_message(&verifier, v, &self.ctx, &self.weights)
                    .expect("fixture votes are genuine")
            })
            .collect()
    }

    fn full_pool(&self) -> TxPool {
        let mut pool = TxPool::default();
        for tx in &self.payments {
            pool.admit(tx.clone(), &self.accounts)
                .expect("fixture payments are admissible");
        }
        pool
    }
}

/// Runs every probe for one workload shape. `scratch` is a directory the
/// WAL probe may create and delete files in.
pub fn run(shape: &Shape, seed: u64, scratch: &Path, spans: &mut SpanLog) -> UnitCosts {
    let root = spans.open("probes", None);
    let fx = spans.scoped("probes.fixture", Some(root), || Fixture::build(seed, shape));
    let mut out = UnitCosts::new();
    type Probe = fn(&mut Bench<'_>, &Fixture, &Shape, &Path);
    let layers: [(&str, Probe); 8] = [
        ("probes.crypto", crypto),
        ("probes.sortition", sortition),
        ("probes.core", core),
        ("probes.ba", ba),
        ("probes.gossip", gossip),
        ("probes.txpool", txpool),
        ("probes.ledger", ledger),
        ("probes.node", node),
    ];
    for (name, probe) in layers {
        let layer = spans.open(name, Some(root));
        let mut bench = Bench {
            spans,
            layer,
            out: UnitCosts::new(),
        };
        probe(&mut bench, &fx, shape, scratch);
        out.append(&mut bench.out);
        spans.close(layer);
    }
    spans.close(root);
    out
}

fn crypto(b: &mut Bench<'_>, fx: &Fixture, _: &Shape, _: &Path) {
    let mut rng = Rng::from_seed(fx.seed);
    let mut buf = vec![0u8; 1 << 20];
    rng.fill_bytes(&mut buf);
    let secs_per_mib = b.measure(
        "crypto.sha256_mb_per_s",
        || (),
        |()| {
            for _ in 0..8 {
                black_box(sha256(black_box(&buf)));
            }
            8
        },
    );
    b.out.insert(
        "crypto.sha256_mb_per_s",
        buf.len() as f64 / 1e6 / secs_per_mib,
    );

    let scalars: Vec<Scalar> = (0..32)
        .map(|_| Scalar::from_bytes_mod_order(&rng.gen_bytes32()))
        .collect();
    let point = EdwardsPoint::basepoint().scalar_mul(&scalars[0]);
    b.us(
        "crypto.scalar_mul_us",
        || (),
        |()| {
            for k in &scalars {
                black_box(point.scalar_mul(black_box(k)));
            }
            scalars.len() as u64
        },
    );

    // A vote signs a 32-byte digest; so does a payment.
    let kp = &fx.keypairs[0];
    let digest = rng.gen_bytes32();
    let signature = sig::sign(kp, &digest);
    b.us(
        "crypto.sig_sign_us",
        || (),
        |()| {
            for _ in 0..64 {
                black_box(sig::sign(kp, black_box(&digest)));
            }
            64
        },
    );
    b.us(
        "crypto.sig_verify_us",
        || (),
        |()| {
            for _ in 0..64 {
                black_box(sig::verify(&kp.pk, &digest, black_box(&signature)).is_ok());
            }
            64
        },
    );

    // Sortition's VRF input is seed ‖ role: 48 bytes. Hashing it to the
    // curve is try-and-increment, so its cost depends on the input: these
    // two probes use exactly the key and input of the `sortition.*` probes
    // below, which makes sortition's own time their difference.
    let mut alpha = fx.seed.to_vec();
    alpha.extend_from_slice(
        &Role::Committee {
            round: 1,
            step: VOTE_STEP.code(),
        }
        .to_bytes(),
    );
    b.us(
        "crypto.vrf_prove_us",
        || (),
        |()| {
            for _ in 0..32 {
                black_box(vrf::prove(kp, black_box(&alpha)));
            }
            32
        },
    );
    let vote = &fx.votes[0];
    assert!(
        vrf::verify(&vote.sender, &alpha, &vote.sort_proof).is_ok(),
        "the probe must time the accepting path"
    );
    b.us(
        "crypto.vrf_verify_us",
        || (),
        |()| {
            for _ in 0..32 {
                black_box(vrf::verify(&vote.sender, &alpha, black_box(&vote.sort_proof)).is_ok());
            }
            32
        },
    );
}

fn sortition(b: &mut Bench<'_>, fx: &Fixture, shape: &Shape, _: &Path) {
    let params = SortitionParams {
        tau: shape.params.ba.tau_step,
        total_weight: fx.weights.total(),
    };
    let role = Role::Committee {
        round: 1,
        step: VOTE_STEP.code(),
    };
    let kp = &fx.keypairs[0];
    b.us(
        "sortition.select_us",
        || (),
        |()| {
            for _ in 0..32 {
                black_box(select(
                    kp,
                    &fx.seed,
                    role,
                    &params,
                    black_box(shape.stake_per_user),
                ));
            }
            32
        },
    );
    let vote = &fx.votes[0];
    b.us(
        "sortition.verify_us",
        || (),
        |()| {
            for _ in 0..16 {
                black_box(
                    algorand_sortition::verify(
                        &vote.sender,
                        black_box(&vote.sort_proof),
                        &fx.seed,
                        role,
                        &params,
                        shape.stake_per_user,
                    )
                    .is_ok(),
                );
            }
            16
        },
    );
}

fn core(b: &mut Bench<'_>, fx: &Fixture, shape: &Shape, _: &Path) {
    let verify_all = |v: &PipelineVerifier| {
        for vote in &fx.votes {
            black_box(
                v.verify_vote(black_box(vote), &fx.ctx, &fx.weights)
                    .is_some(),
            );
        }
        fx.votes.len() as u64
    };
    b.us("core.verify_vote_cold_us", PipelineVerifier::new, |v| {
        verify_all(&v)
    });
    let warm = PipelineVerifier::new();
    verify_all(&warm);
    b.us(
        "core.verify_vote_warm_us",
        || (),
        |()| (0..64).map(|_| verify_all(&warm)).sum(),
    );
    assert_eq!(warm.cache_misses(), fx.votes.len() as u64);

    let tau_proposer = shape.params.tau_proposer;
    b.us("core.verify_block_cold_us", PipelineVerifier::new, |v| {
        let ok = v
            .verify_block(
                black_box(&fx.block_msg),
                &fx.seed,
                &fx.weights,
                tau_proposer,
            )
            .is_some();
        assert!(ok, "fixture block must verify");
        1
    });

    let wire = WireMessage::Vote(fx.votes[0].clone());
    let bytes = wire.encoded();
    b.ns(
        "core.wire_encode_ns",
        || (),
        |()| {
            for _ in 0..2048 {
                black_box(black_box(&wire).encoded());
            }
            2048
        },
    );
    b.ns(
        "core.wire_decode_ns",
        || (),
        |()| {
            for _ in 0..2048 {
                black_box(WireMessage::decode_frame(black_box(&bytes)).is_ok());
            }
            2048
        },
    );
}

fn ba(b: &mut Bench<'_>, fx: &Fixture, shape: &Shape, _: &Path) {
    let verified = fx.verified_votes();
    b.ns(
        "ba.tally_add_ns",
        || (0..64).map(|_| StepTally::new()).collect::<Vec<_>>(),
        |mut tallies| {
            for tally in &mut tallies {
                for v in &verified {
                    black_box(tally.add(black_box(v)));
                }
            }
            (tallies.len() * verified.len()) as u64
        },
    );

    let engine = || {
        let empty = Block::empty(1, fx.prev_hash, &fx.genesis.tip().seed).hash();
        let verifier: Arc<dyn algorand_ba::VoteVerifier> = Arc::new(PipelineVerifier::new());
        let (engine, _) = BaStar::start(
            shape.params.ba,
            fx.keypairs[0].clone(),
            1,
            fx.seed,
            fx.prev_hash,
            fx.block.hash(),
            empty,
            fx.weights.clone(),
            verifier,
            0,
        );
        engine
    };
    b.us(
        "ba.on_vote_us",
        || (0..16).map(|_| engine()).collect::<Vec<BaStar>>(),
        |mut engines| {
            for e in &mut engines {
                for v in &verified {
                    black_box(e.on_verified_vote(black_box(v), 1));
                }
            }
            (engines.len() * verified.len()) as u64
        },
    );
}

fn gossip(b: &mut Bench<'_>, fx: &Fixture, _: &Shape, _: &Path) {
    let mut rng = Rng::from_seed(fx.seed);
    // One slot per ⟨key, round, step⟩: vary the step so every id is a
    // first sighting, not an equivocation.
    let msgs: Vec<_> = (0..8192u32)
        .map(|i| (rng.gen_bytes32(), (fx.keypairs[0].pk.to_bytes(), 1, i)))
        .collect();
    let classify_all = |relay: &mut RelayState| {
        for (id, slot) in &msgs {
            black_box(relay.classify(*id, Some(*slot)));
        }
        msgs.len() as u64
    };
    b.ns("gossip.classify_new_ns", RelayState::new, |mut relay| {
        classify_all(&mut relay)
    });
    b.ns(
        "gossip.classify_dup_ns",
        || {
            let mut relay = RelayState::new();
            classify_all(&mut relay);
            relay
        },
        |mut relay| classify_all(&mut relay),
    );
}

fn txpool(b: &mut Bench<'_>, fx: &Fixture, _: &Shape, _: &Path) {
    let admit_all = |pool: &mut TxPool, expect_ok: bool| {
        for tx in &fx.payments {
            let ok = pool.admit(black_box(tx.clone()), &fx.accounts).is_ok();
            assert_eq!(ok, expect_ok);
        }
        fx.payments.len() as u64
    };
    b.us("txpool.admit_us", TxPool::default, |mut pool| {
        admit_all(&mut pool, true)
    });
    b.us(
        "txpool.admit_dup_us",
        || fx.full_pool(),
        |mut pool| admit_all(&mut pool, false),
    );
    b.us(
        "txpool.take_block_us",
        || fx.full_pool(),
        |mut pool| {
            // A byte budget of exactly one workload block.
            let budget = fx.block.txs.len() * Transaction::WIRE_SIZE;
            let taken = pool.take_block(&fx.accounts, budget);
            assert_eq!(taken.len(), fx.block.txs.len());
            1
        },
    );
    // State after the fixture block commits: its payments are now stale.
    let mut after = fx.accounts.clone();
    for tx in &fx.block.txs {
        after.apply(tx).expect("fixture block applies");
    }
    b.us(
        "txpool.prune_us",
        || fx.full_pool(),
        |mut pool| {
            pool.prune(black_box(&after));
            assert_eq!(pool.len(), fx.payments.len() - fx.block.txs.len());
            1
        },
    );
}

fn ledger(b: &mut Bench<'_>, fx: &Fixture, shape: &Shape, _: &Path) {
    let prev = fx.genesis.tip().clone();
    let skew = shape.params.chain.max_timestamp_skew;
    b.us(
        "ledger.validate_block_us",
        || (),
        |()| {
            for _ in 0..2 {
                fx.block
                    .validate(&prev, black_box(&fx.accounts), 1, skew)
                    .expect("fixture block is valid");
            }
            2
        },
    );
    let alloc: Vec<_> = fx
        .keypairs
        .iter()
        .map(|k| (k.pk, shape.stake_per_user))
        .collect();
    b.us(
        "ledger.append_us",
        || {
            let chain = Blockchain::new(shape.params.chain, alloc.iter().copied(), GENESIS_SEED);
            (chain, fx.block.clone())
        },
        |(mut chain, block)| {
            chain
                .append(block, None, false, 1)
                .expect("fixture block appends");
            1
        },
    );
    b.ns(
        "ledger.tx_apply_ns",
        || fx.accounts.clone(),
        |mut accounts| {
            for tx in &fx.block.txs {
                accounts
                    .apply(black_box(tx))
                    .expect("fixture payment applies");
            }
            fx.block.txs.len() as u64
        },
    );
    let bytes = fx.block.encoded();
    b.us(
        "ledger.block_decode_us",
        || (),
        |()| {
            for _ in 0..8 {
                black_box(Block::decode(&mut Reader::new(black_box(&bytes))).is_ok());
            }
            8
        },
    );
}

fn node(b: &mut Bench<'_>, fx: &Fixture, shape: &Shape, scratch: &Path) {
    let payload = WireMessage::Vote(fx.votes[0].clone()).encoded();
    let framed = frame::encode_frame(frame::GOSSIP, &payload).expect("a vote fits a frame");
    b.ns(
        "node.frame_encode_ns",
        || (),
        |()| {
            for _ in 0..4096 {
                black_box(frame::encode_frame(frame::GOSSIP, black_box(&payload)).is_ok());
            }
            4096
        },
    );
    b.ns(
        "node.frame_decode_ns",
        || (),
        |()| {
            for _ in 0..4096 {
                black_box(frame::read_frame(&mut black_box(&framed[..])).is_ok());
            }
            4096
        },
    );

    // One WAL life at the workload's size: `rounds` entries, each the
    // fixture block with a certificate of the fixture's votes, every
    // append synced; then replays of the whole log. The fsync part of an
    // append is the WAL's own measurement (`WalMetrics`), read back from
    // the registry it was given.
    let cert = Certificate {
        round: 1,
        step: StepKind::Final,
        value: fx.block.hash(),
        votes: fx.votes.clone(),
    };
    let path = scratch.join("probe.wal");
    std::fs::create_dir_all(scratch).expect("create the scratch directory");
    let mut fsync_us = f64::INFINITY;
    b.us(
        "node.wal_append_us",
        || {
            let _ = std::fs::remove_file(&path);
            let registry = Registry::new();
            let (mut wal, _) = Wal::open(&path).expect("open a fresh WAL");
            wal.set_metrics(WalMetrics::new(&registry));
            (wal, registry)
        },
        |(mut wal, registry)| {
            for r in 1..=shape.rounds {
                wal.append_entry(r, &fx.block, &cert).expect("append");
            }
            let fsync = registry
                .snapshot_all()
                .into_iter()
                .find_map(|(name, m)| match m {
                    MetricSnapshot::Histogram(h) if name == "wal.fsync_us" => h.mean(),
                    _ => None,
                })
                .expect("the WAL publishes its fsync timings");
            fsync_us = fsync_us.min(fsync);
            shape.rounds
        },
    );
    b.out.insert("node.wal_fsync_us", fsync_us);
    b.us(
        "node.wal_replay_us",
        || (),
        |()| {
            let (_, replay) = Wal::open(black_box(&path)).expect("reopen the WAL");
            assert_eq!(replay.entries as u64, shape.rounds);
            1
        },
    );
    let _ = std::fs::remove_file(&path);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_yields_a_positive_finite_cost() {
        let shape = Shape {
            users: 6,
            stake_per_user: 500,
            params: AlgorandParams::scaled(6),
            block_txs: 4,
            pool_depth: 8,
            rounds: 2,
        };
        let scratch = crate::out_dir().join(format!("probe-test-{}", std::process::id()));
        let mut spans = SpanLog::new("test");
        let costs = run(&shape, 7, &scratch, &mut spans);
        let _ = std::fs::remove_dir_all(&scratch);
        assert_eq!(costs.len(), 30, "{:?}", costs.keys().collect::<Vec<_>>());
        for (name, v) in &costs {
            assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
        }
        // One span per batch (the fsync split rides the append batches),
        // one per layer, the fixture and the root.
        assert_eq!(spans.count(), 29 * BATCHES + 8 + 2);
    }
}
