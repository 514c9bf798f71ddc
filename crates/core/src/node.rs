//! The full Algorand node: round loop, block proposal, BA⋆, recovery.
//!
//! A [`Node`] is sans-io, like the BA⋆ engine underneath it: the driver (a
//! simulator or a real network runtime) delivers messages and clock ticks
//! and transmits whatever the node returns. One node corresponds to one
//! "user" of the paper.
//!
//! Internally every delivery flows through the staged message pipeline:
//!
//! ```text
//! ingest (decode/classify, crate::ingest) ──► verify (type-state
//! wrappers from crate::verify) ──► consume (crate::round +
//! ba::engine) ──► emit (crate::emit)
//! ```
//!
//! The consume stage only has constructors for its inputs inside the
//! verify stage, so unverified messages cannot reach consensus state by
//! construction. Round structure per §4–§8 (all waits from Figure 4):
//!
//! ```text
//! start round r ──► propose (if selected) ──► wait λpriority+λstepvar for
//! priorities ──► wait ≤ λblock for the best block ──► BA⋆ ──► append block,
//! start round r+1
//! ```

use crate::emit::Outbox;
use crate::ingest::{self, RoundClass};
use crate::metrics::{PipelineStats, RecoveryStats, RoundRecord};
use crate::params::AlgorandParams;
use crate::proposal::{proposer_sortition, BlockMessage, Priority, PriorityMessage};
use crate::recovery::{fork_proposer_sortition, recovery_seed, ForkProposalMessage};
use crate::round::{BlockSighting, BlockStore, FutureVotes, RoundContext};
use crate::verify::PipelineVerifier;
use crate::wire::{CatchupBatch, WireMessage};
use algorand_ba::{
    BaStar, Certificate, ConsensusKind, Decision, Micros, Output, RoundWeights, VerifiedVote,
    VoteMessage,
};
use algorand_crypto::codec::{Reader, WriteExt};
use algorand_crypto::Keypair;
use algorand_ledger::seed::{fallback_seed, propose_seed, verify_seed_proposal};
use algorand_ledger::{Block, Blockchain, ChainError, Transaction};
use algorand_obs::{causal, stable_id, SpanKind, Tracer};
use algorand_txpool::TxPool;
use std::collections::HashMap;
use std::sync::Arc;

#[allow(clippy::large_enum_variant)] // One Phase per node; size is irrelevant.
enum Phase {
    /// Collecting priority messages (§6's λpriority + λstepvar wait).
    WaitProposals { until: Micros },
    /// Waiting (≤ λblock) for the body of the highest-priority block.
    WaitBlock { until: Micros, expected: [u8; 32] },
    /// Running BA⋆.
    Ba { engine: Box<BaStar> },
    /// Decided, but the agreed block's pre-image has not arrived yet
    /// (BlockOfHash in Algorithm 3).
    AwaitBlockContent { decision: Decision },
    /// Fork recovery (§8.2).
    Recovery(RecoveryState),
}

struct RecoveryState {
    epoch: u64,
    attempt: u32,
    seed: [u8; 32],
    weights: Arc<RoundWeights>,
    /// Attempt sub-phase.
    phase: RecoveryPhase,
    /// End of the fork-proposal collection window.
    window_until: Micros,
    /// When this attempt gives up and retries with a re-hashed seed.
    attempt_deadline: Micros,
}

#[allow(clippy::large_enum_variant)] // One per node during recovery only.
enum RecoveryPhase {
    WaitProposals {
        until: Micros,
        best: Option<(Priority, Block)>,
    },
    Ba {
        engine: Box<BaStar>,
    },
}

/// What [`Node::on_message`] made of one delivery.
#[derive(Debug)]
pub struct Delivery {
    /// Gossip the node emits in response.
    pub outputs: Vec<WireMessage>,
    /// Whether the delivered message itself is worth forwarding — the
    /// relay filter every driver applies (§8.4: "only relay messages
    /// after validating them"), answered from what processing the
    /// message just established, as of the state it left behind:
    ///
    /// * **Block** (§6): "Algorand users discard messages about blocks
    ///   that do not have the highest priority seen by that user so far."
    ///   Blocks for other rounds are relayed (peers may be ahead or
    ///   behind).
    /// * **Transaction**: only while the pool holds it, so a payment
    ///   traverses each node once (rejects and evictions die out here).
    /// * **Vote**: dropped only when this delivery verified it for the
    ///   round this node is still running BA⋆ on and found it invalid.
    ///   Anything the node did not verify itself (other rounds, other
    ///   phases, another fork's `prev_hash`) is relayed, so what some
    ///   other holder of the shared verify cache knows never changes
    ///   relay behavior.
    ///
    /// Every other kind is relayed; whether catch-up traffic is gossiped
    /// at all is the transport's routing decision, not a filter.
    pub relay: bool,
}

/// A full Algorand user.
pub struct Node {
    keypair: Keypair,
    params: AlgorandParams,
    chain: Blockchain,
    /// The shared verification stage (and its process-wide cache).
    verifier: Arc<PipelineVerifier>,
    /// The mempool: payments submitted locally or heard from gossip,
    /// pending inclusion (§5: "each user collects a block of pending
    /// transactions that they hear about").
    pub pool: TxPool,
    /// Byte budget for the transaction list of an assembled proposal.
    pub block_tx_bytes: usize,
    /// Synthetic payload bytes added to proposed blocks (block-size
    /// experiments; 0 for a real deployment).
    pub payload_bytes: usize,
    /// All block bodies seen, by hash.
    blocks: BlockStore,
    /// Votes for rounds we have not reached yet.
    future_votes: FutureVotes,
    ctx: RoundContext,
    phase: Phase,
    pipeline: PipelineStats,
    records: Vec<RoundRecord>,
    hung: bool,
    last_progress: Micros,
    last_recovery_epoch: u64,
    /// Next wall-clock instant at which the recovery-epoch check runs.
    next_epoch_check: Micros,
    /// Earliest time another catch-up request may be sent (rate limit).
    next_catchup_request: Micros,
    /// Timeout, catch-up and fork-recovery counters; the escalations of
    /// the round in flight still sit in its engine.
    recovery: RecoveryStats,
    /// Consecutive struggling rounds: each round that needed engine
    /// timeout escalations doubles the next proposal wait (§8.2's retry
    /// doubling applied at the round level), reset on a clean round.
    stepvar_backoff: u32,
    /// Trace sink ([`Tracer::disabled`] until the driver attaches one)
    /// and the node id stamped on emitted spans.
    tracer: Tracer,
    trace_node: u32,
    /// Gossip message ids of block bodies seen this round, by block hash —
    /// the proposal span's causal link to the adopted block. Only
    /// populated while tracing; cleared each round.
    block_msg_ids: HashMap<[u8; 32], u64>,
    /// The block hash BA⋆ started with (the adopted proposal or the empty
    /// block), for proposal-span causal attribution.
    ba_input: [u8; 32],
}

/// [`Node`] is the unit of parallelism for the discrete-event engine:
/// a node owns its chain, mempool, and round state outright, and every
/// shared handle it holds ([`PipelineVerifier`]'s cache, the tracer
/// buffer, pool metrics) is `Send`. Worker threads may therefore process
/// disjoint nodes concurrently. This assertion is the compile-time
/// contract; losing `Send` (e.g. by adding an `Rc` field) breaks the
/// parallel simulator and fails right here.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Node>();
};

impl Node {
    /// Creates a node over an existing chain view. Call
    /// [`Node::start`] to begin participating.
    pub fn new(
        keypair: Keypair,
        chain: Blockchain,
        params: AlgorandParams,
        verifier: Arc<PipelineVerifier>,
    ) -> Node {
        let ctx = RoundContext::new(&chain, 0);
        Node {
            keypair,
            params,
            chain,
            verifier,
            pool: TxPool::default(),
            block_tx_bytes: 1 << 20,
            payload_bytes: 0,
            blocks: BlockStore::new(),
            future_votes: FutureVotes::new(),
            ctx,
            phase: Phase::WaitProposals { until: 0 },
            pipeline: PipelineStats::default(),
            records: Vec::new(),
            hung: false,
            last_progress: 0,
            last_recovery_epoch: 0,
            next_epoch_check: params.recovery_interval.max(1),
            next_catchup_request: 0,
            recovery: RecoveryStats::default(),
            stepvar_backoff: 0,
            tracer: Tracer::disabled(),
            trace_node: 0,
            block_msg_ids: HashMap::new(),
            ba_input: [0u8; 32],
        }
    }

    /// Attaches a trace sink; subsequent spans are stamped with `node`.
    /// Propagated to each BA⋆ engine as rounds start.
    pub fn set_tracer(&mut self, tracer: Tracer, node: u32) {
        self.tracer = tracer;
        self.trace_node = node;
    }

    /// Cap on λ_stepvar doublings (2⁵ = 32× the base wait).
    pub const MAX_STEPVAR_DOUBLINGS: u32 = 5;

    /// The current proposal-collection wait: λ_priority plus λ_stepvar
    /// doubled once per consecutive struggling round (§8.2).
    fn proposal_wait(&self) -> Micros {
        if self.params.ba.disable_backoff {
            return self.params.lambda_priority + self.params.lambda_stepvar;
        }
        self.params.lambda_priority
            + (self.params.lambda_stepvar << self.stepvar_backoff.min(Self::MAX_STEPVAR_DOUBLINGS))
    }

    // --- Public accessors ---------------------------------------------------

    /// The node's public key.
    pub fn public_key(&self) -> algorand_crypto::PublicKey {
        self.keypair.pk
    }

    /// The node's view of the ledger.
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// The protocol parameters this node runs with.
    pub fn params(&self) -> &AlgorandParams {
        &self.params
    }

    /// The round currently being agreed on.
    pub fn current_round(&self) -> u64 {
        self.ctx.round()
    }

    /// Completed-round records (the raw data behind the figures).
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Per-stage message counters for this node.
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.pipeline
    }

    /// The shared verification stage this node checks messages against.
    pub fn verifier(&self) -> &Arc<PipelineVerifier> {
        &self.verifier
    }

    /// True if BA⋆ hung (MaxSteps) and the node awaits recovery.
    pub fn is_hung(&self) -> bool {
        self.hung
    }

    /// Timeout, catch-up and fork-recovery counters, including the
    /// timeout escalations of the round in flight.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let live = match &self.phase {
            Phase::Ba { engine }
            | Phase::Recovery(RecoveryState {
                phase: RecoveryPhase::Ba { engine },
                ..
            }) => engine.timeout_escalations(),
            _ => 0,
        };
        RecoveryStats {
            timeout_escalations: self.recovery.timeout_escalations + live,
            ..self.recovery
        }
    }

    /// Current λ_stepvar doubling level (0 = clean rounds).
    pub fn stepvar_backoff(&self) -> u32 {
        self.stepvar_backoff
    }

    /// Queues a transaction for inclusion in a future proposal and returns
    /// the gossip message that submits it to the network (§4).
    pub fn submit_transaction(&mut self, tx: Transaction) -> Option<WireMessage> {
        self.pool
            .admit(tx.clone(), self.chain.accounts())
            .ok()
            .map(|()| WireMessage::Transaction(tx))
    }

    /// A one-line description of the node's phase (diagnostics only).
    #[doc(hidden)]
    pub fn debug_state(&self) -> String {
        let phase = match &self.phase {
            Phase::WaitProposals { until } => format!("WaitProposals(until={until})"),
            Phase::WaitBlock { until, expected } => {
                format!(
                    "WaitBlock(until={until}, expected={:02x}{:02x})",
                    expected[0], expected[1]
                )
            }
            Phase::Ba { engine } => format!(
                "Ba(deadline={:?}, finished={})",
                engine.next_deadline(),
                engine.is_finished()
            ),
            Phase::AwaitBlockContent { decision } => format!(
                "AwaitBlockContent({:02x}{:02x})",
                decision.value[0], decision.value[1]
            ),
            Phase::Recovery(_) => "Recovery".to_string(),
        };
        let best = self
            .ctx
            .best()
            .map(|(p, _, bh)| {
                format!(
                    "best p={:02x}{:02x} bh={:02x}{:02x}",
                    p[0], p[1], bh[0], bh[1]
                )
            })
            .unwrap_or_else(|| "best none".into());
        let empty_hash = self.ctx.empty_hash();
        format!(
            "round={} {phase} {best} empty={:02x}{:02x} equivocators={}",
            self.ctx.round(),
            empty_hash[0],
            empty_hash[1],
            self.ctx.equivocator_count()
        )
    }

    // --- Driving ------------------------------------------------------------

    /// Begins participation: starts the next round.
    pub fn start(&mut self, now: Micros) -> Vec<WireMessage> {
        let mut out = Outbox::new();
        self.start_round(now, &mut out);
        self.emit(out)
    }

    /// Delivers a gossip message: the pipeline's ingest entry point.
    pub fn on_message(&mut self, msg: &WireMessage, now: Micros) -> Delivery {
        self.pipeline.ingested += 1;
        let mut out = Outbox::new();
        let mut relay = true;
        match msg {
            WireMessage::Priority(p) => self.on_priority(p, now, &mut out),
            WireMessage::Block(b) => {
                let hash = self.on_block(b, now, &mut out);
                relay = b.block.round != self.ctx.round() || self.ctx.relay_worthy(hash);
            }
            WireMessage::Vote(v) => {
                let rejected = self.on_vote(v, now, &mut out);
                relay = !(rejected
                    && v.round == self.ctx.round()
                    && matches!(self.phase, Phase::Ba { .. }));
            }
            WireMessage::ForkProposal(f) => self.on_fork_proposal(f, now, &mut out),
            WireMessage::Transaction(tx) => {
                self.on_transaction(tx);
                relay = self.pool.contains(&tx.id());
            }
            WireMessage::CatchupRequest { have, tip_hash } => {
                self.on_catchup_request(*have, tip_hash, &mut out)
            }
            WireMessage::CatchupResponse(batch) => self.on_catchup_response(batch, now, &mut out),
        }
        Delivery {
            outputs: self.emit(out),
            relay,
        }
    }

    /// The pipeline's emit stage: hands the accumulated gossip back to
    /// the driver and ticks the emit counter.
    fn emit(&mut self, out: Outbox) -> Vec<WireMessage> {
        self.pipeline.emitted += out.len() as u64;
        out.into_vec()
    }

    /// Serves a catch-up request from canonical history (§8.3).
    ///
    /// Responses are bounded to a few rounds per message; a node far behind
    /// iterates. Identical responses from different peers deduplicate by
    /// content in the gossip layer.
    ///
    /// A requester whose tip hash differs from our canonical block at the
    /// same round sits on the losing side of a §8.2 tentative fork; merely
    /// serving `have + 1..` would strand it forever, because every served
    /// certificate binds the majority's previous-block hash. Serving from
    /// the disputed round itself gives the requester the competing
    /// certificate it needs to reorg onto the majority chain.
    fn on_catchup_request(&mut self, have: u64, tip_hash: &[u8; 32], out: &mut Outbox) {
        const MAX_ROUNDS_PER_RESPONSE: u64 = 4;
        let tip = self.chain.tip().round;
        if have >= tip {
            return;
        }
        let on_canon = self
            .chain
            .block_at(have)
            .is_some_and(|b| b.hash() == *tip_hash);
        let start = if on_canon { have + 1 } else { have.max(1) };
        let upto = (start + MAX_ROUNDS_PER_RESPONSE - 1).min(tip);
        let mut entries = Vec::new();
        for r in start..=upto {
            let (Some(block), Some(cert)) = (self.chain.block_at(r), self.chain.certificate_at(r))
            else {
                break; // History incomplete (should not happen on canon).
            };
            entries.push((block.clone(), cert.clone()));
        }
        if !entries.is_empty() {
            out.push(WireMessage::CatchupResponse(CatchupBatch { entries }));
        }
    }

    /// Applies a catch-up batch: validate each certificate against our own
    /// chain context, append, and restart the round loop at the new tip.
    ///
    /// A batch starting at or below our tip is a fork repair (see
    /// [`Node::maybe_reorg_onto`]); when it justifies a reorg, the
    /// tentative suffix is rolled back first and the batch then applies
    /// through the ordinary sequential path.
    fn on_catchup_response(&mut self, batch: &CatchupBatch, now: Micros, out: &mut Outbox) {
        self.maybe_reorg_onto(batch, now);
        let mut applied = 0u64;
        for (block, cert) in &batch.entries {
            match self.chain.append_certified(
                block.clone(),
                cert.clone(),
                &self.params.ba,
                self.verifier.as_ref(),
                now,
            ) {
                Ok(()) => applied += 1,
                Err(ChainError::NotNextRound) => {} // Stale, or ahead of a gap.
                Err(_) => break,                    // Forged batch; ignore the rest.
            }
        }
        self.recovery.catchups_applied += applied;
        if applied > 0 {
            self.tracer
                .span(
                    SpanKind::Catchup,
                    self.trace_node,
                    self.chain.tip().round,
                    now,
                )
                .label("apply")
                .value(applied)
                .instant();
            self.hung = false;
            self.last_progress = now;
            // The network demonstrably made progress without us; our local
            // timeout history says nothing about its health now.
            self.stepvar_backoff = 0;
            // Blocks adopted via catch-up commit nonces just like agreed
            // ones: drop what they made stale.
            self.pool.prune(self.chain.accounts());
            self.start_round(now, out);
        }
    }

    /// Rolls back a tentatively-certified suffix when a catch-up batch
    /// proves the network adopted a different, strictly longer chain.
    ///
    /// An asymmetric partition can split a round's vote flow so that both
    /// sides tentatively certify *different* blocks (§8.2's fork). The
    /// minority side then stalls forever on plain catch-up: every served
    /// certificate binds the majority's previous-block hash, which never
    /// matches the minority's tip. Repair requires displacing the
    /// tentative suffix, under strict conditions:
    ///
    /// - the batch reaches strictly beyond our tip (a longer certified
    ///   chain; equal length never flips, so two sides cannot ping-pong);
    /// - no displaced round is finalized (final blocks never fork —
    ///   §8.2's safety guarantee stays intact);
    /// - the batch is contiguous, each certificate naming its block;
    /// - the first block connects to our canonical chain at the round
    ///   before the divergence; and
    /// - the first certificate validates against that shared prefix
    ///   (committee context only references rounds below the fork point).
    ///
    /// Transactions in the displaced blocks salvage back into the pool;
    /// the remaining batch entries then apply via the ordinary sequential
    /// catch-up path.
    fn maybe_reorg_onto(&mut self, batch: &CatchupBatch, now: Micros) {
        let (Some((first_block, first_cert)), Some((last_block, _))) =
            (batch.entries.first(), batch.entries.last())
        else {
            return;
        };
        let fork = first_block.round;
        let tip = self.chain.tip().round;
        if fork == 0 || fork > tip || last_block.round <= tip {
            return;
        }
        if (fork..=tip).any(|r| self.chain.is_finalized(r)) {
            return;
        }
        let contiguous = batch.entries.iter().enumerate().all(|(i, (b, c))| {
            b.round == fork + i as u64 && c.round == b.round && c.value == b.hash()
        });
        if !contiguous {
            return;
        }
        let ours = self.chain.block_at(fork).expect("fork <= tip").hash();
        if ours == first_block.hash() {
            return; // Same chain; nothing to repair.
        }
        let prev_hash = self.chain.block_at(fork - 1).expect("below tip").hash();
        if first_block.prev_hash != prev_hash {
            return; // Does not connect to our prefix; fork is deeper.
        }
        let seed = self.chain.selection_seed(fork);
        let weights = self.chain.weights_for_round(fork);
        if first_cert
            .validate(
                &self.params.ba,
                &seed,
                &prev_hash,
                &weights,
                self.verifier.as_ref(),
            )
            .is_err()
        {
            return; // Unproven competing chain; keep ours.
        }
        let rolled_back = tip - fork + 1;
        let salvaged = self.chain.rollback_to(fork - 1);
        self.pool.reinsert(salvaged, self.chain.accounts());
        self.recovery.catchup_reorgs += 1;
        self.tracer
            .span(SpanKind::Catchup, self.trace_node, fork, now)
            .label("reorg")
            .value(rolled_back)
            .instant();
    }

    /// Emits a rate-limited catch-up request when the network's votes show
    /// we are behind.
    fn maybe_request_catchup(&mut self, now: Micros, out: &mut Outbox) {
        if now < self.next_catchup_request {
            return;
        }
        self.next_catchup_request = now + self.params.ba.lambda_step;
        let have = self.chain.tip().round;
        self.tracer
            .span(SpanKind::Catchup, self.trace_node, have, now)
            .label("request")
            .instant();
        out.push(WireMessage::CatchupRequest {
            have,
            tip_hash: self.chain.tip_hash(),
        });
    }

    /// Liveness watchdog: a node stalled for half a recovery interval
    /// starts probing peers for agreed rounds it may have missed — the
    /// cheap first escalation rung, well before the §8.2 fork-recovery
    /// machinery arms at the epoch boundary. Stalls this long never occur
    /// in a healthy network (rounds conclude in seconds), so the watchdog
    /// is silent outside fault windows.
    fn watchdog_tick(&mut self, now: Micros, out: &mut Outbox) {
        if self.params.recovery_interval == 0 || matches!(self.phase, Phase::Recovery(_)) {
            return;
        }
        if now.saturating_sub(self.last_progress) <= self.params.recovery_interval / 2 {
            return;
        }
        if now >= self.next_catchup_request {
            self.recovery.watchdog_catchups += 1;
            self.tracer
                .span(
                    SpanKind::Catchup,
                    self.trace_node,
                    self.chain.tip().round,
                    now,
                )
                .label("watchdog")
                .instant();
            self.maybe_request_catchup(now, out);
        }
    }

    // --- Crash/restart snapshots ---------------------------------------------

    /// Serializes the node's durable state: the agreed chain with its
    /// certificates, in the same `(block, certificate)` wire encoding the
    /// §8.3 catch-up protocol uses. Volatile state — mempool, proposal
    /// race, buffered votes, BA⋆ progress — is deliberately absent: a
    /// real crash loses it, and a restarted node rebuilds by rejoining.
    pub fn snapshot(&self) -> Vec<u8> {
        let tip = self.chain.tip().round;
        let mut entries: Vec<(&Block, &Certificate)> = Vec::new();
        for r in 1..=tip {
            match (self.chain.block_at(r), self.chain.certificate_at(r)) {
                (Some(b), Some(c)) => entries.push((b, c)),
                _ => break, // History incomplete (should not happen on canon).
            }
        }
        let finalized_through = (1..=tip)
            .take_while(|&r| self.chain.is_finalized(r))
            .last()
            .unwrap_or(0);
        let mut out = Vec::new();
        out.put_u64(finalized_through);
        out.put_u32(entries.len() as u32);
        for (b, c) in entries {
            b.encode(&mut out);
            c.encode(&mut out);
        }
        out
    }

    /// Rebuilds a node from genesis state plus a [`Node::snapshot`].
    ///
    /// Nothing in the snapshot is trusted: every entry goes through
    /// [`Blockchain::append_certified`], as a live catch-up batch does,
    /// and restoration stops at the first entry that fails — a corrupt
    /// snapshot yields a shorter chain, never a wrong one. The returned
    /// node has not started a round; drive it with [`Node::start`] and it
    /// rejoins, fetching anything it missed while down via catch-up.
    pub fn restore(
        keypair: Keypair,
        genesis: Blockchain,
        params: AlgorandParams,
        verifier: Arc<PipelineVerifier>,
        snapshot: &[u8],
        now: Micros,
    ) -> Node {
        let mut chain = genesis;
        let mut r = Reader::new(snapshot);
        if let (Ok(finalized_through), Ok(n)) = (r.u64(), r.u32()) {
            for _ in 0..n {
                let (Ok(block), Ok(cert)) = (Block::decode(&mut r), Certificate::decode(&mut r))
                else {
                    break;
                };
                if chain
                    .append_certified(block, cert, &params.ba, verifier.as_ref(), now)
                    .is_err()
                {
                    break;
                }
            }
            let restored_tip = chain.tip().round;
            if finalized_through > 0 && restored_tip > 0 {
                chain.finalize(finalized_through.min(restored_tip));
            }
        }
        let mut node = Node::new(keypair, chain, params, verifier);
        node.last_progress = now;
        node
    }

    /// Admits a gossiped payment into the mempool (§4: each user collects
    /// a block of pending transactions in case they are chosen to
    /// propose). The pool screens signatures, replays, and duplicates;
    /// out-of-order nonces are buffered. The clone shares the gossiped
    /// payment's body, so whichever holder checks the signature first
    /// has checked it for the pool, the proposal and the chain.
    fn on_transaction(&mut self, tx: &Transaction) {
        let _ = self.pool.admit(tx.clone(), self.chain.accounts());
    }

    /// Advances clocks; fires any due timeouts.
    pub fn on_tick(&mut self, now: Micros) -> Vec<WireMessage> {
        let mut out = Outbox::new();
        self.maybe_enter_recovery(now, &mut out);
        self.watchdog_tick(now, &mut out);
        match &mut self.phase {
            Phase::WaitProposals { until } => {
                if now >= *until {
                    self.adopt_best_proposal(now, &mut out);
                }
            }
            Phase::WaitBlock { until, .. } => {
                if now >= *until {
                    // λblock expired: fall back to the empty block.
                    self.begin_ba(None, now, &mut out);
                }
            }
            Phase::Ba { engine } => {
                let outputs = engine.on_tick(now);
                self.handle_engine_outputs(outputs, now, &mut out);
            }
            Phase::AwaitBlockContent { .. } => {}
            Phase::Recovery(_) => self.recovery_tick(now, &mut out),
        }
        self.emit(out)
    }

    /// The next instant at which [`Node::on_tick`] must run, if any.
    pub fn next_deadline(&self) -> Option<Micros> {
        let phase_deadline = match &self.phase {
            Phase::WaitProposals { until } => Some(*until),
            Phase::WaitBlock { until, .. } => Some(*until),
            Phase::Ba { engine } => engine.next_deadline(),
            Phase::AwaitBlockContent { .. } => None,
            Phase::Recovery(r) => {
                let sub = match &r.phase {
                    RecoveryPhase::WaitProposals { until, .. } => Some(*until),
                    RecoveryPhase::Ba { engine, .. } => engine.next_deadline(),
                };
                Some(sub.unwrap_or(r.attempt_deadline).min(r.attempt_deadline))
            }
        };
        // Also wake at the next recovery-epoch boundary check.
        let epoch_deadline = if self.params.recovery_interval > 0 {
            Some(self.next_epoch_check)
        } else {
            None
        };
        match (phase_deadline, epoch_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    // --- Round lifecycle ------------------------------------------------------

    fn start_round(&mut self, now: Micros, out: &mut Outbox) {
        self.ctx = RoundContext::new(&self.chain, now);
        self.block_msg_ids.clear();
        self.ba_input = [0u8; 32];
        self.blocks
            .insert(self.ctx.empty_hash(), self.ctx.empty_block().clone());
        self.phase = Phase::WaitProposals {
            until: now + self.proposal_wait(),
        };
        // Proposer sortition (§6).
        if let Some((sorthash, sort_proof, priority)) = proposer_sortition(
            &self.keypair,
            self.ctx.seed(),
            self.ctx.round(),
            self.ctx.weights(),
            self.params.tau_proposer,
        ) {
            self.tracer
                .span(SpanKind::Sortition, self.trace_node, self.ctx.round(), now)
                .label("proposer")
                .value(1)
                .instant();
            let block = self.assemble_block(now);
            let block_hash = self.chain.observe_block(block.clone());
            self.blocks.insert(block_hash, block.clone());
            let msg = PriorityMessage::sign(
                &self.keypair,
                self.ctx.round(),
                sorthash,
                sort_proof,
                block_hash,
            );
            // Our own proposal enters the round through the same verify
            // stage as everyone else's — there is no unverified side door,
            // and the shared cache is pre-warmed for the rest of the
            // network.
            match self.verifier.verify_priority(
                &msg,
                self.ctx.seed(),
                self.ctx.weights(),
                self.params.tau_proposer,
            ) {
                Some(vp) => {
                    debug_assert_eq!(vp.priority(), priority);
                    self.pipeline.verified += 1;
                    self.ctx.observe_priority(&vp);
                    out.push(WireMessage::Priority(msg));
                    let bm = BlockMessage {
                        block,
                        sorthash,
                        sort_proof,
                    };
                    if self.tracer.is_enabled() {
                        self.block_msg_ids
                            .insert(block_hash, stable_id(&bm.message_id_for(&block_hash)));
                    }
                    out.push(WireMessage::Block(bm));
                }
                None => debug_assert!(false, "own freshly signed proposal must verify"),
            }
        }
        // Replay any early-arrived votes for this round once BA⋆ starts.
        if let Some(votes) = self.future_votes.take(self.ctx.round()) {
            self.ctx.seed_vote_buffer(votes);
        }
    }

    /// Builds this proposer's block from the mempool: the highest-priority
    /// nonce- and balance-consistent run, up to the byte budget. The taken
    /// transactions leave the pool; [`Node::complete_round`] reinserts
    /// them if this proposal loses.
    fn assemble_block(&mut self, now: Micros) -> Block {
        let round = self.ctx.round();
        let prev = self.chain.tip();
        let (seed, seed_proof) = propose_seed(&self.keypair, &prev.seed, round);
        let txs = self
            .pool
            .take_block(self.chain.accounts(), self.block_tx_bytes);
        Block {
            round,
            prev_hash: self.ctx.prev_hash(),
            seed,
            seed_proof: Some(seed_proof),
            proposer: Some(self.keypair.pk),
            timestamp: if self.params.canonical_timestamps {
                prev.timestamp + 1
            } else {
                now.max(prev.timestamp + 1)
            },
            txs,
            payload: vec![0u8; self.payload_bytes],
        }
    }

    fn on_priority(&mut self, p: &PriorityMessage, _now: Micros, _out: &mut Outbox) {
        if p.round != self.ctx.round() || !matches!(self.phase, Phase::WaitProposals { .. }) {
            self.pipeline.rejected_ingest += 1;
            return;
        }
        let verdict = self.verifier.verify_priority(
            p,
            self.ctx.seed(),
            self.ctx.weights(),
            self.params.tau_proposer,
        );
        if self.tracer.is_enabled() {
            self.tracer
                .span(SpanKind::Verify, self.trace_node, p.round, _now)
                .label("priority")
                .id(stable_id(&p.message_id()))
                .ok(verdict.is_some())
                .instant();
        }
        let Some(vp) = verdict else {
            self.pipeline.rejected_verify += 1;
            return;
        };
        self.pipeline.verified += 1;
        self.ctx.observe_priority(&vp);
    }

    /// Returns the block's hash: the one this node takes of the body;
    /// everything below, and the relay verdict afterwards, works from it.
    fn on_block(&mut self, b: &BlockMessage, now: Micros, out: &mut Outbox) -> [u8; 32] {
        let hash = self.chain.observe_block(b.block.clone());
        self.blocks.insert(hash, b.block.clone());
        if b.block.round != self.ctx.round() {
            return hash;
        }
        let msg_id = stable_id(&b.message_id_for(&hash));
        if self.tracer.is_enabled() {
            self.block_msg_ids.entry(hash).or_insert(msg_id);
        }
        // Equivocation is settled on hashes alone; only a proposer's first
        // block of the round is worth verifying.
        if let Some(proposer) = &b.block.proposer {
            let sender = proposer.to_bytes();
            if self.ctx.note_block(sender, hash) == BlockSighting::New {
                let verdict = self.verifier.verify_block_hashed(
                    b,
                    hash,
                    self.ctx.seed(),
                    self.ctx.weights(),
                    self.params.tau_proposer,
                );
                self.tracer
                    .span(SpanKind::Verify, self.trace_node, b.block.round, now)
                    .label("block")
                    .id(msg_id)
                    .value(b.block.wire_size() as u64)
                    .ok(verdict.is_some())
                    .instant();
                match verdict {
                    Some(vb) => {
                        self.pipeline.verified += 1;
                        // The block's priority also covers for a lost
                        // priority message, but only while still collecting.
                        let update_best = matches!(self.phase, Phase::WaitProposals { .. });
                        self.ctx.observe_block(&vb, update_best);
                    }
                    None => self.pipeline.rejected_verify += 1,
                }
            }
        }
        // If we were waiting for exactly this block, move on to BA⋆.
        if let Phase::WaitBlock { expected, .. } = &self.phase {
            if *expected == hash {
                self.begin_ba(Some(hash), now, out);
                return hash;
            }
        }
        // If a decision was blocked on this block body, complete now.
        if let Phase::AwaitBlockContent { decision } = &self.phase {
            if decision.value == hash {
                let decision = decision.clone();
                self.complete_round(decision, now, out);
            }
        }
        hash
    }

    /// Returns whether this delivery verified the vote and rejected it.
    fn on_vote(&mut self, v: &VoteMessage, now: Micros, out: &mut Outbox) -> bool {
        let engine = match &mut self.phase {
            Phase::Recovery(r) => match &mut r.phase {
                RecoveryPhase::Ba { engine } => Some(engine),
                RecoveryPhase::WaitProposals { .. } => return false,
            },
            Phase::Ba { engine } if v.round == engine.round() => Some(engine),
            Phase::Ba { .. } => None,
            _ if v.round == self.ctx.round() => {
                self.ctx.buffer_vote(v);
                self.pipeline.buffered_early += 1;
                return false;
            }
            _ => None,
        };
        if let Some(engine) = engine {
            let verdict = admit_vote(
                &self.verifier,
                &self.tracer,
                self.trace_node,
                &mut self.pipeline,
                engine,
                v,
                now,
            );
            // A vote that is not counted still advances the clock.
            let outputs = match &verdict {
                Some(Some(vv)) => engine.on_verified_vote(vv, now),
                _ => engine.on_tick(now),
            };
            self.handle_engine_outputs(outputs, now, out);
            return matches!(verdict, Some(None));
        }
        // Buffer near-future rounds; request catch-up when the network is
        // clearly far ahead of us.
        match ingest::classify_round(v.round, self.ctx.round()) {
            RoundClass::NearFuture => {
                let parked = self.future_votes.push(v);
                if parked {
                    self.pipeline.buffered_future += 1;
                } else {
                    self.pipeline.rejected_ingest += 1;
                }
                if self.tracer.is_enabled() {
                    // Staleness accounting for the invariant monitor:
                    // step = round gap, value = buffer occupancy after
                    // the push, ok = whether the vote was parked.
                    self.tracer
                        .span(SpanKind::Tally, self.trace_node, v.round, now)
                        .step((v.round - self.ctx.round()) as u32)
                        .label("future")
                        .id(stable_id(&v.message_id()))
                        .cause(stable_id(&v.sender.to_bytes()))
                        .value(self.future_votes.len() as u64)
                        .ok(parked)
                        .instant();
                }
                // A committee vote two rounds ahead proves the network has
                // certified both our current round and the next: probe for
                // the missing certificates now instead of drifting until
                // the far-future window trips. Healthy nodes are never two
                // rounds behind, so this only fires on a genuine lag (the
                // request is rate-limited like every other catch-up).
                if v.round >= self.ctx.round() + 2 {
                    self.maybe_request_catchup(now, out);
                }
            }
            RoundClass::FarFuture => self.maybe_request_catchup(now, out),
            RoundClass::Past => self.pipeline.rejected_ingest += 1,
            RoundClass::Current => {} // Handled by the phase match above.
        }
        false
    }

    /// End of the proposal wait: pick the highest-priority proposal.
    fn adopt_best_proposal(&mut self, now: Micros, out: &mut Outbox) {
        match self.ctx.best_candidate() {
            Some(block_hash) => {
                if self.blocks.contains(&block_hash) {
                    self.begin_ba(Some(block_hash), now, out);
                } else {
                    self.phase = Phase::WaitBlock {
                        until: now + self.params.ba.lambda_block,
                        expected: block_hash,
                    };
                }
            }
            None => self.begin_ba(None, now, out),
        }
    }

    /// Starts BA⋆ with the candidate block (validated) or the empty block.
    fn begin_ba(&mut self, candidate: Option<[u8; 32]>, now: Micros, out: &mut Outbox) {
        let initial = match candidate {
            Some(hash) => {
                let valid = self
                    .blocks
                    .get(&hash)
                    .is_some_and(|b| self.chain.validate_next(b, now).is_ok());
                if valid {
                    hash
                } else {
                    self.ctx.empty_hash()
                }
            }
            None => self.ctx.empty_hash(),
        };
        self.ctx.set_ba_started(now);
        self.ba_input = initial;
        let (mut engine, mut outputs) = BaStar::start(
            self.params.ba,
            self.keypair.clone(),
            self.ctx.round(),
            *self.ctx.seed(),
            self.ctx.prev_hash(),
            initial,
            self.ctx.empty_hash(),
            self.ctx.weights().clone(),
            self.verifier.clone(),
            now,
        );
        engine.set_tracer(self.tracer.clone(), self.trace_node);
        // Replay votes that arrived before BA⋆ existed, through the same
        // door live deliveries take.
        for v in self.ctx.take_vote_buffer() {
            if let Some(Some(vv)) = admit_vote(
                &self.verifier,
                &self.tracer,
                self.trace_node,
                &mut self.pipeline,
                &engine,
                &v,
                now,
            ) {
                engine.ingest_verified(&vv, now);
            }
        }
        outputs.extend(engine.on_tick(now));
        self.phase = Phase::Ba {
            engine: Box::new(engine),
        };
        self.handle_engine_outputs(outputs, now, out);
    }

    /// Acts on what an engine step produced, for the round's engine and
    /// a recovery attempt's alike: votes go out; a decision completes the
    /// round (once the block body is here) or the recovery; a hang
    /// freezes the round until recovery, or retries the recovery attempt.
    fn handle_engine_outputs(&mut self, outputs: Vec<Output>, now: Micros, out: &mut Outbox) {
        // Flush all gossip first so the decision-time votes (the
        // three-extra-steps rule and the final vote) are not lost.
        let mut decided = None;
        let mut hung = false;
        for o in outputs {
            match o {
                Output::Gossip(v) => out.vote(v),
                Output::BinaryDecided { .. } => {}
                Output::Decided(d) => decided = Some(d),
                Output::Hung => hung = true,
            }
        }
        let recovering = matches!(self.phase, Phase::Recovery(_));
        match decided {
            Some(d) if recovering => self.complete_recovery(d, now, out),
            Some(d) if self.blocks.contains(&d.value) => self.complete_round(d, now, out),
            Some(d) => self.phase = Phase::AwaitBlockContent { decision: d },
            None if hung && recovering => self.retry_recovery(now, out),
            None if hung => self.hung = true,
            None => {}
        }
    }

    fn complete_round(&mut self, decision: Decision, now: Micros, out: &mut Outbox) {
        let block = self
            .blocks
            .get(&decision.value)
            .expect("caller checked the store")
            .clone();
        let finalized = decision.kind == ConsensusKind::Final;
        let ba_started = self.ctx.ba_started().unwrap_or(self.ctx.started());
        let (binary_done, escalations, concluded_span) = match &self.phase {
            Phase::Ba { engine } => (
                engine.binary_done_at().unwrap_or(now),
                engine.timeout_escalations(),
                engine.last_concluded_span(),
            ),
            _ => (now, 0, 0),
        };
        // Adaptive λ_stepvar: a round whose BA⋆ burned timeouts doubles
        // the next proposal wait; a clean round resets the backoff.
        self.recovery.timeout_escalations += escalations;
        if escalations > 0 {
            self.stepvar_backoff = (self.stepvar_backoff + 1).min(Self::MAX_STEPVAR_DOUBLINGS);
        } else {
            self.stepvar_backoff = 0;
        }
        match self.chain.append(
            block.clone(),
            Some(decision.certificate.clone()),
            finalized,
            now,
        ) {
            Ok(()) => {}
            Err(_) => {
                // Consensus picked a block we cannot validate: freeze and
                // wait for recovery rather than diverge.
                self.hung = true;
                return;
            }
        }
        if finalized {
            self.chain.finalize(block.round);
            self.chain.prune_side_blocks(block.round);
        }
        // Proposal bodies from completed rounds can no longer be decided
        // on; keep only blocks that future rounds might still reference.
        // First salvage the transactions of this round's *losing*
        // proposals back into the mempool (our own taken ones, and any
        // that reached us only inside a proposal body); the replay check
        // against the just-updated accounts drops whatever the winning
        // block committed.
        let completed = block.round;
        let losing_txs: Vec<Transaction> =
            self.blocks.salvage_losing_txs(completed, decision.value);
        self.pool.reinsert(losing_txs, self.chain.accounts());
        self.pool.prune(self.chain.accounts());
        self.blocks.prune_through(completed);
        self.records.push(RoundRecord {
            round: self.ctx.round(),
            started: self.ctx.started(),
            ba_started,
            binary_done,
            finished: now,
            kind: decision.kind,
            binary_step: decision.binary_step,
            empty: decision.value == self.ctx.empty_hash(),
            block_bytes: block.wire_size(),
        });
        if self.tracer.is_enabled() {
            let round = self.ctx.round();
            let started = self.ctx.started();
            // The proposal phase's causal link: the gossip message id of
            // the block BA⋆ actually started with (0 for the empty block,
            // which no message carried).
            let adopted = if self.ba_input == self.ctx.empty_hash() {
                0
            } else {
                self.block_msg_ids.get(&self.ba_input).copied().unwrap_or(0)
            };
            self.tracer
                .span(SpanKind::Proposal, self.trace_node, round, started)
                .label("proposal")
                .id(causal::proposal_span_id(self.trace_node, round))
                .cause(adopted)
                .ok(decision.value != self.ctx.empty_hash())
                .end_at(ba_started);
            // Seed-chain validity (§5.2): the appended block's seed must
            // be the proposer's VRF output over the previous seed, or the
            // hash-chain fallback for empty blocks.
            let seed_ok = match self.chain.block_by_hash(&block.prev_hash) {
                Some(prev) => match (&block.proposer, &block.seed_proof) {
                    (Some(pk), Some(proof)) => {
                        verify_seed_proposal(pk, proof, &prev.seed, block.round) == Some(block.seed)
                    }
                    _ => block.seed == fallback_seed(&prev.seed, block.round),
                },
                None => false,
            };
            self.tracer
                .span(SpanKind::Verify, self.trace_node, round, now)
                .label("seed")
                .id(stable_id(&decision.value))
                .value(stable_id(&block.seed))
                .ok(seed_ok)
                .instant();
            self.tracer
                .span(SpanKind::Round, self.trace_node, round, started)
                .step(decision.binary_step)
                .label(if finalized { "final" } else { "tentative" })
                .id(stable_id(&decision.value))
                .cause(concluded_span)
                .value(block.wire_size() as u64)
                .ok(finalized)
                .end_at(now);
        }
        self.last_progress = now;
        self.hung = false;
        self.start_round(now, out);
    }

    // --- Recovery (§8.2) -----------------------------------------------------

    fn maybe_enter_recovery(&mut self, now: Micros, out: &mut Outbox) {
        if self.params.recovery_interval == 0 || now < self.next_epoch_check {
            return;
        }
        // Advance the check cursor first so a node that stays healthy (or
        // is already recovering) does not spin on a past boundary.
        self.next_epoch_check =
            (now / self.params.recovery_interval + 1) * self.params.recovery_interval;
        if matches!(self.phase, Phase::Recovery(_)) {
            return;
        }
        let epoch = now / self.params.recovery_interval;
        let stalled =
            self.hung || now.saturating_sub(self.last_progress) > self.params.recovery_interval;
        if epoch > self.last_recovery_epoch && stalled {
            self.last_recovery_epoch = epoch;
            self.enter_recovery(epoch, 0, now, out);
        }
    }

    fn recovery_context(&self, epoch: u64, attempt: u32) -> ([u8; 32], Arc<RoundWeights>) {
        // The shared reference point: the newest proposed block at least
        // one full interval old (next-to-last period, §8.2).
        let cutoff = (epoch.saturating_sub(1)) * self.params.recovery_interval;
        let (base_round, base_seed) = self.chain.recovery_base(cutoff);
        let seed = recovery_seed(&base_seed, epoch, attempt);
        let weight_round = base_round.saturating_sub(self.params.chain.weight_lookback);
        let weights = Arc::new(self.chain.weights_at_round(weight_round));
        (seed, weights)
    }

    fn enter_recovery(&mut self, epoch: u64, attempt: u32, now: Micros, out: &mut Outbox) {
        self.tracer
            .span(
                SpanKind::Fault,
                self.trace_node,
                self.chain.tip().round,
                now,
            )
            .step(attempt)
            .label("recovery_enter")
            .value(epoch)
            .instant();
        let (seed, weights) = self.recovery_context(epoch, attempt);
        let mut best: Option<(Priority, Block)> = None;
        // Fork-proposer sortition: propose an empty block extending the
        // longest fork we have seen.
        if let Some((sorthash, sort_proof, priority)) = fork_proposer_sortition(
            &self.keypair,
            &seed,
            epoch,
            attempt,
            &weights,
            self.params.tau_proposer,
        ) {
            let (tip_hash, _) = self.chain.longest_fork();
            let tip = self
                .chain
                .block_by_hash(&tip_hash)
                .expect("longest fork tip is stored")
                .clone();
            let block = Block::empty(tip.round + 1, tip_hash, &tip.seed);
            self.blocks.insert(block.hash(), block.clone());
            let msg = ForkProposalMessage::sign(
                &self.keypair,
                epoch,
                attempt,
                sorthash,
                sort_proof,
                block,
            );
            // Same rule as round proposals: our own fork proposal goes
            // through the verify stage (warming the shared cache) before
            // it can become the best candidate.
            match self.verifier.verify_fork_proposal(
                &msg,
                &seed,
                &weights,
                self.params.tau_proposer,
            ) {
                Some(vf) => {
                    debug_assert_eq!(vf.priority(), priority);
                    self.pipeline.verified += 1;
                    best = Some((vf.priority(), vf.block().clone()));
                    out.push(WireMessage::ForkProposal(msg));
                }
                None => debug_assert!(false, "own freshly signed fork proposal must verify"),
            }
        }
        self.phase = Phase::Recovery(RecoveryState {
            epoch,
            attempt,
            seed,
            weights,
            phase: RecoveryPhase::WaitProposals {
                until: now + self.params.proposal_wait(),
                best,
            },
            window_until: now + self.params.proposal_wait(),
            attempt_deadline: now
                + self.params.proposal_wait()
                + self.params.ba.lambda_block
                + 6 * self.params.ba.lambda_step,
        });
    }

    fn on_fork_proposal(&mut self, f: &ForkProposalMessage, now: Micros, out: &mut Outbox) {
        // Cache the proposed block regardless of phase, so a decision can
        // complete even if the proposal arrives late.
        self.blocks.insert(f.block.hash(), f.block.clone());
        let Phase::Recovery(r) = &mut self.phase else {
            self.pipeline.rejected_ingest += 1;
            return;
        };
        if f.epoch != r.epoch || f.attempt != r.attempt {
            self.pipeline.rejected_ingest += 1;
            return;
        }
        let RecoveryPhase::WaitProposals { best, .. } = &mut r.phase else {
            self.pipeline.rejected_ingest += 1;
            return;
        };
        let verdict =
            self.verifier
                .verify_fork_proposal(f, &r.seed, &r.weights, self.params.tau_proposer);
        if self.tracer.is_enabled() {
            self.tracer
                .span(SpanKind::Verify, self.trace_node, f.block.round, now)
                .label("fork")
                .id(stable_id(&f.message_id()))
                .ok(verdict.is_some())
                .instant();
        }
        let Some(vf) = verdict else {
            self.pipeline.rejected_verify += 1;
            return;
        };
        self.pipeline.verified += 1;
        // The proposed fork must be at least as long as our longest (§8.2).
        let our_len = self.chain.longest_fork().1;
        match self.chain.fork_length(&f.block.prev_hash) {
            Some(len) if len + 1 >= our_len => {}
            _ => return,
        }
        let had_best = best.is_some();
        if best
            .as_ref()
            .map(|(b, _)| vf.priority() > *b)
            .unwrap_or(true)
        {
            *best = Some((vf.priority(), vf.block().clone()));
        }
        // If the collection window already closed while we had no proposal,
        // this late arrival should start BA promptly rather than waiting
        // for the attempt deadline.
        if !had_best && now >= r.window_until {
            if let RecoveryPhase::WaitProposals { until, .. } = &mut r.phase {
                *until = now;
            }
            self.recovery_tick(now, out);
        }
    }

    fn recovery_tick(&mut self, now: Micros, out: &mut Outbox) {
        let Phase::Recovery(r) = &mut self.phase else {
            return;
        };
        // Attempt expired without a decision: retry with a re-hashed seed.
        if now >= r.attempt_deadline {
            self.retry_recovery(now, out);
            return;
        }
        match &mut r.phase {
            RecoveryPhase::WaitProposals { until, best } => {
                if now < *until {
                    return;
                }
                let Some((_, block)) = best.clone() else {
                    // No proposal heard; sleep until the attempt deadline
                    // (a late proposal can still move us to BA before it).
                    *until = r.attempt_deadline;
                    return;
                };
                let prev_seed_block = self
                    .chain
                    .block_by_hash(&block.prev_hash)
                    .expect("fork ancestry was validated");
                let empty = Block::empty(block.round, block.prev_hash, &prev_seed_block.seed);
                debug_assert_eq!(empty.hash(), block.hash());
                let (mut engine, mut outputs) = BaStar::start(
                    self.params.ba,
                    self.keypair.clone(),
                    block.round,
                    r.seed,
                    block.prev_hash,
                    block.hash(),
                    block.hash(),
                    r.weights.clone(),
                    self.verifier.clone(),
                    now,
                );
                // Recovery re-runs fork rounds whose (node, round, step)
                // keys collide with the normal rounds' causal namespace;
                // suppress before the tracer attach so the parked
                // reduction-one emission is not flushed with ids either.
                engine.suppress_causal_ids();
                engine.set_tracer(self.tracer.clone(), self.trace_node);
                outputs.extend(engine.on_tick(now));
                r.phase = RecoveryPhase::Ba {
                    engine: Box::new(engine),
                };
                self.handle_engine_outputs(outputs, now, out);
            }
            RecoveryPhase::Ba { engine, .. } => {
                let outputs = engine.on_tick(now);
                self.handle_engine_outputs(outputs, now, out);
            }
        }
    }

    /// Gives up on the current recovery attempt and starts the next one
    /// at once, with a re-hashed seed.
    fn retry_recovery(&mut self, now: Micros, out: &mut Outbox) {
        if let Phase::Recovery(r) = &self.phase {
            let (epoch, attempt) = (r.epoch, r.attempt + 1);
            self.enter_recovery(epoch, attempt, now, out);
        }
    }

    fn complete_recovery(&mut self, decision: Decision, now: Micros, out: &mut Outbox) {
        let Some(block) = self.blocks.get(&decision.value).cloned() else {
            // We decided on a fork block we never saw.
            return self.retry_recovery(now, out);
        };
        // Adopt the agreed fork, then append the agreed empty block.
        let adopted = block.prev_hash == self.chain.tip_hash()
            || self.chain.switch_to_fork(block.prev_hash, now).is_ok();
        if !adopted
            || self
                .chain
                .append(block, Some(decision.certificate), false, now)
                .is_err()
        {
            return self.retry_recovery(now, out);
        }
        self.hung = false;
        self.last_progress = now;
        self.recovery.recoveries_completed += 1;
        self.stepvar_backoff = 0;
        self.tracer
            .span(
                SpanKind::Fault,
                self.trace_node,
                self.chain.tip().round,
                now,
            )
            .label("recovery_done")
            .instant();
        // Fork switches rewind and replay state; re-anchor the mempool on
        // the adopted fork's accounts.
        self.pool.prune(self.chain.accounts());
        self.start_round(now, out);
    }
}

/// The node side of ProcessMsg (Algorithm 6) — the one door a vote takes
/// towards an engine's tally, live or replayed, in a round or a recovery
/// attempt: the cheap chain-context checks, then the verify stage, its
/// span and its counters. `None` means the vote is outside the engine's
/// context and was not verified; `Some(None)` that it was, and failed.
///
/// A free function over the fields it needs because its callers hold
/// `&mut` loans of the phase; the span id is only asked for while tracing.
fn admit_vote(
    verifier: &PipelineVerifier,
    tracer: &Tracer,
    trace_node: u32,
    pipeline: &mut PipelineStats,
    engine: &BaStar,
    v: &VoteMessage,
    now: Micros,
) -> Option<Option<VerifiedVote>> {
    if !engine.in_context(v) {
        pipeline.rejected_ingest += 1;
        return None;
    }
    let verdict = verifier.verify_vote(v, &engine.vote_context(v.step), engine.weights());
    if tracer.is_enabled() {
        tracer
            .span(SpanKind::Verify, trace_node, v.round, now)
            .step(v.step.code())
            .label("vote")
            .id(stable_id(&v.message_id()))
            .ok(verdict.is_some())
            .instant();
    }
    match verdict {
        Some(_) => pipeline.verified += 1,
        None => pipeline.rejected_verify += 1,
    }
    Some(verdict)
}
