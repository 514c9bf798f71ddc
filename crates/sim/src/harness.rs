//! The simulation harness under the engine: configuration, the node
//! population, in-flight messages, the open-loop workload, carried counters, and the
//! aggregate reports.
//!
//! [`crate::des::Simulation`] owns the schedule (calendar queue,
//! lookahead windows); everything here is what it schedules and how a
//! finished run is summarized.

use crate::adversary::{Adversary, AdversaryKind, AdversaryShared};
use crate::event::Micros;
use crate::metrics::Percentiles;
use crate::network::Network;
use algorand_core::{
    AlgorandParams, Node, PipelineStats, PipelineVerifier, Process, RecoveryStats, RoundRecord,
    WireMessage,
};
use algorand_crypto::rng::Rng;
use algorand_crypto::Keypair;
use algorand_ledger::{Blockchain, Transaction};
use algorand_obs::Tracer;
use algorand_txpool::PoolMetrics;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Bound on buffered trace events per run (~100 bytes each); past it
/// events are counted as dropped rather than growing memory unbounded.
pub(crate) const TRACE_CAP: usize = 1 << 21;

/// Bytes for a block announcement (hash + round + priority material).
pub(crate) const ANNOUNCE_SIZE: usize = 300;

/// Bytes for a STATUS announcement: the tip round, as the real
/// transport's STATUS payload carries it.
pub(crate) const STATUS_SIZE: usize = 8;

/// Node `local` clock reading at global instant `now` under a signed
/// skew (positive runs fast, negative slow). Saturates at zero so a
/// slow clock near simulation start never underflows.
pub(crate) fn skewed_local(now: Micros, skew: i64) -> Micros {
    now.saturating_add_signed(skew)
}

/// Global instant at which a node's *local* deadline fires under a
/// signed skew: the inverse of [`skewed_local`].
pub(crate) fn unskewed_global(local_deadline: Micros, skew: i64) -> Micros {
    if skew >= 0 {
        local_deadline.saturating_sub(skew as u64)
    } else {
        local_deadline.saturating_add(skew.unsigned_abs())
    }
}

/// Configuration for one simulation.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of users.
    pub n_users: usize,
    /// Number of *malicious* users (taken from the end of the index
    /// space); their stake is the same as everyone else's.
    pub n_malicious: usize,
    /// The attack the malicious users mount.
    pub adversary_kind: AdversaryKind,
    /// Protocol parameters (typically [`AlgorandParams::scaled`]).
    pub params: AlgorandParams,
    /// Synthetic payload bytes per proposed block.
    pub payload_bytes: usize,
    /// Open-loop workload: transactions injected per second across the
    /// network (0 disables the traffic source).
    pub tx_rate: f64,
    /// Total transactions the workload injects before going quiet.
    pub tx_total: usize,
    /// Byte budget for the transaction list of each proposed block.
    pub block_tx_bytes: usize,
    /// Currency units per user (equal split, as in §10).
    pub stake_per_user: u64,
    /// Relay every block regardless of priority (ablation of §6's
    /// highest-priority discard rule; the paper behaviour is `false`).
    pub relay_all_blocks: bool,
    /// Seed for topology and deterministic keys.
    pub seed: u64,
    /// Record structured trace spans into the bounded in-memory buffer
    /// (exported with `export_trace`). Tracing is write-only and consumes
    /// no randomness, so it cannot change the simulation's behavior:
    /// same seed ⇒ same chain digest either way.
    pub trace: bool,
    /// Attach the online protocol-invariant monitor to the trace stream
    /// (requires `trace`). The monitor observes events before the buffer
    /// cap, so a truncated trace still gets checked end to end.
    pub monitor: bool,
    /// Test-only planted defect, used to prove the fuzzing oracle can
    /// actually catch and shrink real failures (`None` in every
    /// production configuration).
    pub injected_bug: Option<InjectedBug>,
}

/// A deliberately planted implementation defect, switchable per run.
///
/// The schedule-space fuzzer's acceptance story needs a known-bad build:
/// flip one of these on, fuzz, and the oracle must find and shrink a
/// failing schedule. Each variant disables one recovery mechanism the
/// paper's liveness argument relies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedBug {
    /// Nodes drop every §8.3 catch-up response at ingest: a node that
    /// falls behind (crash, long partition) can never resynchronize, so
    /// network-wide finality stalls at its pre-fault tip.
    IgnoreCatchupResponses,
    /// Step-timeout escalation is disabled: nodes never stretch their
    /// BA⋆ deadlines after repeated failed steps (§8.2's adaptive
    /// backoff), so desynchronized step clocks after a long disruption
    /// can keep missing each other's vote windows.
    NoTimeoutBackoff,
}

impl InjectedBug {
    /// Stable machine name, used by the reproducer serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            InjectedBug::IgnoreCatchupResponses => "ignore_catchup_responses",
            InjectedBug::NoTimeoutBackoff => "no_timeout_backoff",
        }
    }

    /// Parses [`InjectedBug::as_str`] output.
    pub fn parse(s: &str) -> Option<InjectedBug> {
        match s {
            "ignore_catchup_responses" => Some(InjectedBug::IgnoreCatchupResponses),
            "no_timeout_backoff" => Some(InjectedBug::NoTimeoutBackoff),
            _ => None,
        }
    }
}

impl SimConfig {
    /// A sensible default configuration for `n` users.
    pub fn new(n: usize) -> SimConfig {
        SimConfig {
            n_users: n,
            n_malicious: 0,
            adversary_kind: AdversaryKind::default(),
            params: AlgorandParams::scaled(n),
            payload_bytes: 0,
            tx_rate: 0.0,
            tx_total: 0,
            block_tx_bytes: 1 << 20,
            stake_per_user: 10,
            relay_all_blocks: false,
            seed: 1,
            trace: false,
            monitor: false,
            injected_bug: None,
        }
    }

    /// Folds declarative knobs that live in other layers into the
    /// config, at construction.
    pub(crate) fn apply_injected_bug(&mut self) {
        if self.injected_bug == Some(InjectedBug::NoTimeoutBackoff) {
            self.params.ba.disable_backoff = true;
        }
    }

    /// Fits node `i` out as this simulation runs it: block sizes, its
    /// tracer, the shared pool metrics.
    pub(crate) fn fit(&self, node: &mut Node, tracer: Tracer, i: usize, pool: PoolMetrics) {
        node.payload_bytes = self.payload_bytes;
        node.block_tx_bytes = self.block_tx_bytes;
        node.set_tracer(tracer, i as u32);
        node.pool.set_metrics(pool);
    }

    /// Whether the planted [`InjectedBug::IgnoreCatchupResponses`]
    /// defect swallows this inbound message before ingest.
    pub(crate) fn bug_swallows(&self, wire: &WireMessage) -> bool {
        self.injected_bug == Some(InjectedBug::IgnoreCatchupResponses)
            && matches!(wire, WireMessage::CatchupResponse(_))
    }
}

/// Builds the node population: equal genesis stake, deterministic keys,
/// one process per user, and an adversary for each malicious user at the
/// end of the index space. `tracer_for` supplies each node's recording
/// handle: one private buffer per node, merged canonically at barriers.
pub(crate) fn build_processes(
    cfg: &SimConfig,
    keypairs: &[Keypair],
    verifier: &Arc<PipelineVerifier>,
    adversary: &Arc<Mutex<AdversaryShared>>,
    pool_metrics: &PoolMetrics,
    mut tracer_for: impl FnMut(usize) -> Tracer,
) -> Vec<(Box<Process>, Option<Adversary>)> {
    let n_honest = cfg.n_users - cfg.n_malicious;
    (0..cfg.n_users)
        .map(|i| {
            let chain = cfg.params.genesis(keypairs, cfg.stake_per_user);
            let mut node = Node::new(keypairs[i].clone(), chain, cfg.params, verifier.clone());
            cfg.fit(&mut node, tracer_for(i), i, pool_metrics.clone());
            let malice = (i >= n_honest).then(|| Adversary {
                keypair: keypairs[i].clone(),
                kind: cfg.adversary_kind,
                shared: adversary.clone(),
            });
            (Box::new(Process::new(node, 0)), malice)
        })
        .collect()
}

/// Bytes sent per wire-message kind across every transmission of a run
/// (announcement-sized block exchanges count under their kind).
#[derive(Clone, Copy, Default)]
pub(crate) struct KindBytes {
    pub vote: u64,
    pub priority: u64,
    pub block: u64,
    pub fork: u64,
    pub tx: u64,
    pub catchup: u64,
}

impl KindBytes {
    /// `(label, bytes)` pairs in the fixed export order that keeps the
    /// trace byte-stable.
    pub(crate) fn summary(&self) -> [(&'static str, u64); 6] {
        [
            ("bytes_vote", self.vote),
            ("bytes_priority", self.priority),
            ("bytes_block", self.block),
            ("bytes_fork", self.fork),
            ("bytes_tx", self.tx),
            ("bytes_catchup", self.catchup),
        ]
    }
}

/// A message in flight, with precomputed id/slot/size so relaying costs
/// O(1) per hop.
pub struct SimMsg {
    pub(crate) wire: WireMessage,
    pub(crate) id: [u8; 32],
    pub(crate) relay_slot: Option<([u8; 32], u64, u32)>,
    pub(crate) size: usize,
    /// Large bodies (blocks) are transferred pull-style: if the receiver
    /// already announced holding the content, only an announcement-sized
    /// exchange crosses the wire. Mirrors TCP gossip implementations
    /// (and Bitcoin's inv/getdata), whose measured cost the paper cites:
    /// ~2 body copies per node rather than one per edge.
    pub(crate) pull_based: bool,
}

impl SimMsg {
    pub(crate) fn new(wire: WireMessage) -> Arc<SimMsg> {
        let pull_based = matches!(wire, WireMessage::Block(_) | WireMessage::ForkProposal(_));
        Arc::new(SimMsg {
            id: wire.message_id(),
            relay_slot: wire.relay_slot(),
            size: wire.wire_size(),
            wire,
            pull_based,
        })
    }
}

/// One injected workload transaction, for latency accounting.
#[derive(Clone, Copy, Debug)]
pub struct TxRecord {
    /// The transaction hash.
    pub id: [u8; 32],
    /// Index of the (honest) sending user.
    pub sender: usize,
    /// Virtual time the transaction entered the sender's node.
    pub submitted: Micros,
}

/// End-to-end transaction metrics from one workload run.
#[derive(Clone, Copy, Debug)]
pub struct TxStats {
    /// Transactions the workload injected.
    pub injected: usize,
    /// Injected transactions that appear in the finalized/agreed chain.
    pub committed: usize,
    /// Chain slots holding a transaction hash more than once (must be 0).
    pub duplicate_commits: usize,
    /// Committed transactions per virtual second, submission of the first
    /// to commit of the last.
    pub tx_per_sec: f64,
    /// Per-transaction finalization latency in seconds (submission at the
    /// sender to round completion at the sender), if any committed.
    pub latency: Option<Percentiles>,
}

/// What the workload decided to do at one injection tick.
pub(crate) enum InjectStep {
    /// Spendable stake exhausted: the source goes quiet early.
    Quiet,
    /// Eligible stake exists but its holders are down: skip this tick
    /// and try again after the crash window.
    Retry,
    /// Inject one payment.
    Pay {
        sender: usize,
        to: usize,
        amount: u64,
    },
}

/// The open-loop traffic source: random honest-to-honest payments at a
/// fixed rate.
///
/// It tracks a conservative `spendable` balance per user — genesis stake
/// minus everything already injected, never counting in-flight income —
/// so every transaction it emits is guaranteed to stay applicable
/// whenever it commits, as long as each sender's nonces commit in order
/// (which per-sender nonce chains enforce).
pub(crate) struct Workload {
    rng: Rng,
    spendable: Vec<u64>,
    nonces: Vec<u64>,
    pub(crate) injected: Vec<TxRecord>,
    pub(crate) remaining: usize,
    pub(crate) interval: Micros,
}

impl Workload {
    /// Builds the traffic source if the config enables one.
    pub(crate) fn from_config(cfg: &SimConfig) -> Option<Workload> {
        let n_honest = cfg.n_users - cfg.n_malicious;
        (cfg.tx_rate > 0.0 && cfg.tx_total > 0).then(|| Workload {
            rng: Rng::seed_from_u64(cfg.seed ^ 0x7AF0AD),
            spendable: vec![cfg.stake_per_user; n_honest],
            nonces: vec![0; n_honest],
            injected: Vec::with_capacity(cfg.tx_total),
            remaining: cfg.tx_total,
            interval: ((1_000_000.0 / cfg.tx_rate) as Micros).max(1),
        })
    }

    /// Picks the next payment (sender, recipient, amount) or reports why
    /// none can be injected right now. Draws from the workload RNG in a
    /// fixed order, so the plan — and therefore the whole run — is a
    /// deterministic function of the config seed and crash state
    /// (`crashed(i)`: is user `i` down).
    pub(crate) fn plan(&mut self, crashed: impl Fn(usize) -> bool) -> InjectStep {
        let n_honest = self.spendable.len();
        let richest = self.spendable.iter().copied().max().unwrap_or(0);
        if richest == 0 {
            self.remaining = 0;
            return InjectStep::Quiet;
        }
        // Clamp so a large draw cannot end the workload while smaller
        // payments are still affordable somewhere.
        let amount = (1 + self.rng.gen_range_u64(3)).min(richest);
        let mut sender = None;
        for _ in 0..8 {
            let c = self.rng.gen_range_usize(n_honest);
            if !crashed(c) && self.spendable[c] >= amount {
                sender = Some(c);
                break;
            }
        }
        let sender =
            sender.or_else(|| (0..n_honest).find(|&i| !crashed(i) && self.spendable[i] >= amount));
        let Some(s) = sender else {
            if (0..n_honest).any(|i| self.spendable[i] >= amount) {
                return InjectStep::Retry;
            }
            self.remaining = 0;
            return InjectStep::Quiet;
        };
        let mut to = self.rng.gen_range_usize(n_honest);
        if to == s {
            to = (to + 1) % n_honest;
        }
        InjectStep::Pay {
            sender: s,
            to,
            amount,
        }
    }

    /// The payment message for one planned injection (nonce chained per
    /// sender).
    pub(crate) fn payment(
        &self,
        keypairs: &[Keypair],
        sender: usize,
        to: usize,
        amount: u64,
    ) -> Transaction {
        Transaction::payment(
            &keypairs[sender],
            keypairs[to].pk,
            amount,
            self.nonces[sender] + 1,
        )
    }

    /// Commits a planned payment the sender's node accepted.
    pub(crate) fn commit(&mut self, sender: usize, amount: u64, record: TxRecord) {
        self.spendable[sender] -= amount;
        self.nonces[sender] += 1;
        self.remaining -= 1;
        self.injected.push(record);
    }
}

/// Counters a node accumulated before a crash/restart cycle replaced
/// it. Aggregating reports add these exactly once per node id, so a
/// crashed-then-restarted node's history is neither lost (the old bug:
/// the replacement node restarts every counter at zero) nor
/// double-counted (stats are folded in only when the old node object is
/// dropped at restart, never while it still sits in its slot).
#[derive(Default)]
pub(crate) struct NodeCarry {
    pub pipeline: PipelineStats,
    pub records: Vec<RoundRecord>,
    pub recovery: RecoveryStats,
    pub blocksync_requests: u64,
}

impl NodeCarry {
    /// Folds a dying process's counters in before it is replaced.
    pub(crate) fn fold_from(&mut self, process: &Process) {
        let node = process.node();
        self.pipeline.merge(&node.pipeline_stats());
        self.records.extend_from_slice(node.records());
        self.recovery.merge(&node.recovery_stats());
        self.blocksync_requests += process.blocksync().requests_sent();
    }
}

/// Aggregated staged-pipeline counters for one simulation run.
#[derive(Clone, Copy, Debug)]
pub struct PipelineReport {
    /// Per-stage counters summed over all honest nodes.
    pub stages: PipelineStats,
    /// Hits on the process-wide verification cache.
    pub cache_hits: u64,
    /// Misses (full verifications) on the process-wide cache.
    pub cache_misses: u64,
    /// Distinct vote verifications performed.
    pub unique_votes: usize,
    /// Distinct priority/block/fork-proposal verifications performed.
    pub unique_proposals: usize,
}

impl std::fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "pipeline: ingested={} rejected_ingest={} buffered_early={} buffered_future={}",
            self.stages.ingested,
            self.stages.rejected_ingest,
            self.stages.buffered_early,
            self.stages.buffered_future,
        )?;
        writeln!(
            f,
            "verify:   verified={} rejected={} cache_hits={} cache_misses={} unique_votes={} unique_proposals={}",
            self.stages.verified,
            self.stages.rejected_verify,
            self.cache_hits,
            self.cache_misses,
            self.unique_votes,
            self.unique_proposals,
        )?;
        write!(f, "emit:     emitted={}", self.stages.emitted)
    }
}

/// Fault-injection and recovery counters for one simulation run, the
/// observability half of the chaos harness.
#[derive(Clone, Copy, Debug)]
pub struct FaultReport {
    /// Partitions installed by the fault schedule.
    pub partitions_activated: usize,
    /// Node restarts completed.
    pub restarts: usize,
    /// Sends dropped by scripted partitions.
    pub dropped_by_partition: u64,
    /// Sends dropped by random packet loss.
    pub dropped_by_loss: u64,
    /// Timeout, catch-up and fork-recovery counters summed over honest
    /// nodes.
    pub recovery: RecoveryStats,
    /// Catch-up requests blocksync sent, summed over honest nodes.
    pub blocksync_requests: u64,
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "faults:   partitions={} restarts={} dropped(partition/loss)={}/{}",
            self.partitions_activated,
            self.restarts,
            self.dropped_by_partition,
            self.dropped_by_loss,
        )?;
        write!(
            f,
            "recovery: timeout_escalations={} fork_recoveries={} catchups={} reorgs={} blocksync_requests={}",
            self.recovery.timeout_escalations,
            self.recovery.recoveries_completed,
            self.recovery.catchups_applied,
            self.recovery.catchup_reorgs,
            self.blocksync_requests,
        )
    }
}

// --- Aggregation helpers -------------------------------------------------

/// A digest of every honest node's canonical chain, for the determinism
/// check: identical `(seed, schedule)` runs must produce identical
/// digests.
pub(crate) fn chain_digest(honest: &[&Process]) -> [u8; 32] {
    let mut acc: Vec<u8> = Vec::new();
    for p in honest {
        let chain = p.node().chain();
        for r in 1..=chain.tip().round {
            if let Some(b) = chain.block_at(r) {
                acc.extend_from_slice(&b.hash());
            }
        }
        acc.push(0xFF); // Node separator.
    }
    algorand_crypto::sha256_concat(&[b"chain-digest", &acc])
}

/// Per-honest-node round records *including* those a node measured
/// before a crash/restart cycle replaced it, deduplicated by round per
/// node (a record carried from before the crash wins over a hypothetical
/// re-measurement after it).
pub(crate) fn combined_records(
    honest: &[&Process],
    carry: &HashMap<usize, NodeCarry>,
) -> Vec<Vec<RoundRecord>> {
    let mut out = Vec::new();
    for (i, p) in honest.iter().enumerate() {
        let mut seen = HashSet::new();
        let mut recs = Vec::new();
        if let Some(c) = carry.get(&i) {
            for r in &c.records {
                if seen.insert(r.round) {
                    recs.push(*r);
                }
            }
        }
        for r in p.node().records() {
            if seen.insert(r.round) {
                recs.push(*r);
            }
        }
        out.push(recs);
    }
    out
}

/// Aggregated staged-pipeline counters across every node plus the
/// process-wide cache, for the metrics report.
pub(crate) fn pipeline_report(
    all: &[&Process],
    carry: &HashMap<usize, NodeCarry>,
    verifier: &PipelineVerifier,
) -> PipelineReport {
    let mut stages = PipelineStats::default();
    for p in all {
        stages.merge(&p.node().pipeline_stats());
    }
    // Counters from nodes replaced by crash/restart, once per node id.
    for c in carry.values() {
        stages.merge(&c.pipeline);
    }
    PipelineReport {
        stages,
        cache_hits: verifier.cache_hits(),
        cache_misses: verifier.cache_misses(),
        unique_votes: verifier.unique_vote_verifications(),
        unique_proposals: verifier.unique_proposal_verifications(),
    }
}

/// Fault-injection and recovery counters for one run.
pub(crate) fn fault_report(
    honest: &[&Process],
    carry: &HashMap<usize, NodeCarry>,
    net: &Network,
    partitions_activated: usize,
    restarts: usize,
) -> FaultReport {
    let mut recovery = RecoveryStats::default();
    let mut blocksync_requests = 0;
    for p in honest {
        recovery.merge(&p.node().recovery_stats());
        blocksync_requests += p.blocksync().requests_sent();
    }
    // Counters from nodes replaced by crash/restart, once per node id.
    for c in carry.values() {
        recovery.merge(&c.recovery);
        blocksync_requests += c.blocksync_requests;
    }
    FaultReport {
        partitions_activated,
        restarts,
        dropped_by_partition: net.dropped_by_partition(),
        dropped_by_loss: net.dropped_by_loss(),
        recovery,
        blocksync_requests,
    }
}

/// End-to-end transaction metrics for the workload (if one ran).
///
/// Commitment is judged against honest node 0's chain (all honest chains
/// agree on the common prefix — asserted elsewhere); latency is
/// submission at the sender to the *sender's* completion of the
/// committing round, falling back to any honest node's record when the
/// sender adopted that round via catch-up.
pub(crate) fn tx_stats(
    injected: &[TxRecord],
    chain: &Blockchain,
    combined: &[Vec<RoundRecord>],
) -> TxStats {
    let mut commit_round = HashMap::new();
    let mut duplicate_commits = 0usize;
    for r in 1..=chain.tip().round {
        let Some(block) = chain.block_at(r) else {
            continue;
        };
        for tx in &block.txs {
            if commit_round.insert(tx.id(), r).is_some() {
                duplicate_commits += 1;
            }
        }
    }
    let mut latencies = Vec::new();
    let mut committed = 0usize;
    let mut first_submit = Micros::MAX;
    let mut last_commit: Micros = 0;
    for rec in injected {
        let Some(&round) = commit_round.get(&rec.id) else {
            continue;
        };
        committed += 1;
        let finished = combined
            .get(rec.sender)
            .and_then(|rs| rs.iter().find(|x| x.round == round))
            .map(|x| x.finished)
            .or_else(|| {
                combined
                    .iter()
                    .flat_map(|rs| rs.iter())
                    .find(|x| x.round == round)
                    .map(|x| x.finished)
            });
        if let Some(f) = finished {
            latencies.push(f.saturating_sub(rec.submitted) as f64 / 1e6);
            first_submit = first_submit.min(rec.submitted);
            last_commit = last_commit.max(f);
        }
    }
    let tx_per_sec = if last_commit > first_submit {
        committed as f64 / ((last_commit - first_submit) as f64 / 1e6)
    } else {
        0.0
    };
    TxStats {
        injected: injected.len(),
        committed,
        duplicate_commits,
        tx_per_sec,
        latency: (!latencies.is_empty()).then(|| Percentiles::of(&latencies)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_plan_is_deterministic() {
        let mut cfg = SimConfig::new(8);
        cfg.tx_rate = 10.0;
        cfg.tx_total = 5;
        let mut a = Workload::from_config(&cfg).unwrap();
        let mut b = Workload::from_config(&cfg).unwrap();
        for _ in 0..5 {
            match (a.plan(|_| false), b.plan(|_| false)) {
                (
                    InjectStep::Pay {
                        sender: s1,
                        to: t1,
                        amount: a1,
                    },
                    InjectStep::Pay {
                        sender: s2,
                        to: t2,
                        amount: a2,
                    },
                ) => {
                    assert_eq!((s1, t1, a1), (s2, t2, a2));
                    let kp = algorand_core::derive_keypairs(cfg.seed, cfg.n_users);
                    let tx = a.payment(&kp, s1, t1, a1);
                    a.commit(
                        s1,
                        a1,
                        TxRecord {
                            id: tx.id(),
                            sender: s1,
                            submitted: 0,
                        },
                    );
                    b.commit(
                        s2,
                        a2,
                        TxRecord {
                            id: tx.id(),
                            sender: s2,
                            submitted: 0,
                        },
                    );
                }
                _ => panic!("plans diverged"),
            }
        }
        assert_eq!(a.remaining, 0);
    }
}
