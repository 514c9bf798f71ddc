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
//! ba::engine) ──► emit (Node::emit)
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

use crate::ingest::{self, RoundClass};
use crate::metrics::{PipelineStats, RecoveryStats, RoundRecord};
use crate::params::AlgorandParams;
use crate::proposal::{proposer_sortition, BlockMessage, Priority, PriorityMessage};
use crate::round::{BlockSighting, FutureVotes, RoundContext};
use crate::verify::PipelineVerifier;
use crate::wire::WireMessage;
use algorand_ba::{
    BaStar, ConsensusKind, Decision, Micros, Output, RoundWeights, VerifiedVote, VoteMessage,
};
use algorand_crypto::Keypair;
use algorand_ledger::seed::propose_seed;
use algorand_ledger::{Block, Blockchain, Transaction};
use algorand_obs::{causal, stable_id, SpanKind, Tracer};
use algorand_txpool::TxPool;
use std::collections::HashMap;
use std::sync::Arc;

#[allow(clippy::large_enum_variant)] // One Phase per node; size is irrelevant.
pub(crate) enum Phase {
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

pub(crate) struct RecoveryState {
    pub(crate) epoch: u64,
    pub(crate) attempt: u32,
    pub(crate) seed: [u8; 32],
    pub(crate) weights: Arc<RoundWeights>,
    /// Attempt sub-phase.
    pub(crate) phase: RecoveryPhase,
    /// End of the fork-proposal collection window.
    pub(crate) window_until: Micros,
    /// When this attempt gives up and retries with a re-hashed seed.
    pub(crate) attempt_deadline: Micros,
}

impl Phase {
    /// The timeout escalations of this phase's BA⋆ engine, if it runs one.
    fn timeout_escalations(&self) -> u64 {
        match self {
            Phase::Ba { engine }
            | Phase::Recovery(RecoveryState {
                phase: RecoveryPhase::Ba { engine },
                ..
            }) => engine.timeout_escalations(),
            _ => 0,
        }
    }
}

#[allow(clippy::large_enum_variant)] // One per node during recovery only.
pub(crate) enum RecoveryPhase {
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
    /// Every other kind is relayed. Catch-up traffic is never gossiped:
    /// [`crate::Process`] sends requests and responses point to point,
    /// whatever this says.
    pub relay: bool,
}

/// A full Algorand user.
pub struct Node {
    pub(crate) keypair: Keypair,
    pub(crate) params: AlgorandParams,
    pub(crate) chain: Blockchain,
    /// The shared verification stage (and its process-wide cache).
    pub(crate) verifier: Arc<PipelineVerifier>,
    /// The mempool: payments submitted locally or heard from gossip,
    /// pending inclusion (§5: "each user collects a block of pending
    /// transactions that they hear about").
    pub pool: TxPool,
    /// Byte budget for the transaction list of an assembled proposal.
    pub block_tx_bytes: usize,
    /// Synthetic payload bytes added to proposed blocks (block-size
    /// experiments; 0 for a real deployment).
    pub payload_bytes: usize,
    /// Votes for rounds we have not reached yet.
    pub(crate) future_votes: FutureVotes,
    pub(crate) ctx: RoundContext,
    pub(crate) phase: Phase,
    pub(crate) pipeline: PipelineStats,
    pub(crate) records: Vec<RoundRecord>,
    pub(crate) hung: bool,
    pub(crate) last_progress: Micros,
    pub(crate) last_recovery_epoch: u64,
    /// Next wall-clock instant at which the recovery-epoch check runs.
    pub(crate) next_epoch_check: Micros,
    /// Timeout, catch-up and fork-recovery counters; the escalations of
    /// the round in flight still sit in its engine.
    pub(crate) recovery: RecoveryStats,
    /// Consecutive struggling rounds: each round that needed engine
    /// timeout escalations doubles the next proposal wait (§8.2's retry
    /// doubling applied at the round level), reset on a clean round.
    pub(crate) stepvar_backoff: u32,
    /// Trace sink ([`Tracer::disabled`] until the driver attaches one)
    /// and the node id stamped on emitted spans.
    pub(crate) tracer: Tracer,
    pub(crate) trace_node: u32,
    /// Gossip message ids of block bodies seen this round, by block hash —
    /// the proposal span's causal link to the adopted block. Only
    /// populated while tracing; cleared each round.
    pub(crate) block_msg_ids: HashMap<[u8; 32], u64>,
    /// The block hash BA⋆ started with (the adopted proposal or the empty
    /// block), for proposal-span causal attribution.
    pub(crate) ba_input: [u8; 32],
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
        mut chain: Blockchain,
        params: AlgorandParams,
        verifier: Arc<PipelineVerifier>,
    ) -> Node {
        let ctx = RoundContext::new(&mut chain, 0);
        Node {
            keypair,
            params,
            chain,
            verifier,
            pool: TxPool::default(),
            block_tx_bytes: 1 << 20,
            payload_bytes: 0,
            future_votes: FutureVotes::new(),
            ctx,
            phase: Phase::WaitProposals { until: 0 },
            pipeline: PipelineStats::default(),
            records: Vec::new(),
            hung: false,
            last_progress: 0,
            last_recovery_epoch: 0,
            next_epoch_check: params.recovery_interval,
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

    /// Timeout, catch-up and fork-recovery counters, including the
    /// timeout escalations of the round in flight.
    pub fn recovery_stats(&self) -> RecoveryStats {
        RecoveryStats {
            timeout_escalations: self.recovery.timeout_escalations
                + self.phase.timeout_escalations(),
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

    // --- Driving ------------------------------------------------------------

    /// Begins participation: starts the next round.
    pub fn start(&mut self, now: Micros) -> Vec<WireMessage> {
        let mut out = Vec::new();
        self.start_round(now, &mut out);
        self.emit(out)
    }

    /// Delivers a gossip message: the pipeline's ingest entry point.
    pub fn on_message(&mut self, msg: &WireMessage, now: Micros) -> Delivery {
        self.pipeline.ingested += 1;
        let mut out = Vec::new();
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
    fn emit(&mut self, out: Vec<WireMessage>) -> Vec<WireMessage> {
        self.pipeline.emitted += out.len() as u64;
        out
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
        let mut out = Vec::new();
        self.maybe_enter_recovery(now, &mut out);
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

    /// The next instant at which [`Node::on_tick`] must run.
    pub fn next_deadline(&self) -> Micros {
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
        phase_deadline.map_or(self.next_epoch_check, |d| d.min(self.next_epoch_check))
    }

    // --- Round lifecycle ------------------------------------------------------

    /// Moves to `phase`. Every phase change goes through here, so the
    /// timeout escalations of a BA⋆ engine that leaves are counted once,
    /// whichever route it leaves by.
    pub(crate) fn set_phase(&mut self, phase: Phase) {
        let left = std::mem::replace(&mut self.phase, phase);
        self.recovery.timeout_escalations += left.timeout_escalations();
    }

    pub(crate) fn start_round(&mut self, now: Micros, out: &mut Vec<WireMessage>) {
        self.ctx = RoundContext::new(&mut self.chain, now);
        self.block_msg_ids.clear();
        self.ba_input = [0u8; 32];
        self.set_phase(Phase::WaitProposals {
            until: now + self.proposal_wait(),
        });
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
            timestamp: if self.params.chain.canonical_timestamps {
                prev.timestamp + 1
            } else {
                now.max(prev.timestamp + 1)
            },
            txs,
            payload: vec![0u8; self.payload_bytes],
        }
    }

    fn on_priority(&mut self, p: &PriorityMessage, _now: Micros, _out: &mut Vec<WireMessage>) {
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
    fn on_block(&mut self, b: &BlockMessage, now: Micros, out: &mut Vec<WireMessage>) -> [u8; 32] {
        let hash = self.chain.observe_block(b.block.clone());
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
    fn on_vote(&mut self, v: &VoteMessage, now: Micros, out: &mut Vec<WireMessage>) -> bool {
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
        // Buffer near-future rounds. A node further behind hears of the
        // gap from its peers' STATUS tips: catching up is blocksync's.
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
            }
            RoundClass::FarFuture => {}
            RoundClass::Past => self.pipeline.rejected_ingest += 1,
            RoundClass::Current => {} // Handled by the phase match above.
        }
        false
    }

    /// End of the proposal wait: pick the highest-priority proposal.
    fn adopt_best_proposal(&mut self, now: Micros, out: &mut Vec<WireMessage>) {
        match self.ctx.best_candidate() {
            Some(block_hash) => {
                if self.chain.block_by_hash(&block_hash).is_some() {
                    self.begin_ba(Some(block_hash), now, out);
                } else {
                    self.set_phase(Phase::WaitBlock {
                        until: now + self.params.ba.lambda_block,
                        expected: block_hash,
                    });
                }
            }
            None => self.begin_ba(None, now, out),
        }
    }

    /// Starts BA⋆ with the candidate block (validated) or the empty block.
    fn begin_ba(&mut self, candidate: Option<[u8; 32]>, now: Micros, out: &mut Vec<WireMessage>) {
        let initial = match candidate {
            Some(hash) if self.chain.validate_next(&hash, now).is_ok() => hash,
            _ => self.ctx.empty_hash(),
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
        self.set_phase(Phase::Ba {
            engine: Box::new(engine),
        });
        self.handle_engine_outputs(outputs, now, out);
    }

    /// Acts on what an engine step produced, for the round's engine and
    /// a recovery attempt's alike: votes go out; a decision completes the
    /// round (once the block body is here) or the recovery; a hang
    /// freezes the round until recovery, or retries the recovery attempt.
    pub(crate) fn handle_engine_outputs(
        &mut self,
        outputs: Vec<Output>,
        now: Micros,
        out: &mut Vec<WireMessage>,
    ) {
        // Flush all gossip first so the decision-time votes (the
        // three-extra-steps rule and the final vote) are not lost.
        let mut decided = None;
        let mut hung = false;
        for o in outputs {
            match o {
                Output::Gossip(v) => out.push(WireMessage::Vote(v)),
                Output::BinaryDecided { .. } => {}
                Output::Decided(d) => decided = Some(d),
                Output::Hung => hung = true,
            }
        }
        let recovering = matches!(self.phase, Phase::Recovery(_));
        match decided {
            Some(d) if recovering => self.complete_recovery(d, now, out),
            Some(d) if self.chain.block_by_hash(&d.value).is_some() => {
                self.complete_round(d, now, out)
            }
            Some(d) => self.set_phase(Phase::AwaitBlockContent { decision: d }),
            None if hung && recovering => self.retry_recovery(now, out),
            None if hung => self.hung = true,
            None => {}
        }
    }

    fn complete_round(&mut self, decision: Decision, now: Micros, out: &mut Vec<WireMessage>) {
        let block = self
            .chain
            .block_by_hash(&decision.value)
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
        // the next proposal wait; a clean round resets the backoff. The
        // escalations themselves are counted when the engine leaves.
        if escalations > 0 {
            self.stepvar_backoff = (self.stepvar_backoff + 1).min(Self::MAX_STEPVAR_DOUBLINGS);
        } else {
            self.stepvar_backoff = 0;
        }
        let (completed, block_bytes, seed) = (block.round, block.wire_size(), block.seed);
        if self
            .chain
            .append(block, Some(decision.certificate.clone()), finalized, now)
            .is_err()
        {
            // Consensus picked a block we cannot validate: freeze and
            // wait for recovery rather than diverge.
            self.hung = true;
            return;
        }
        // Salvage the transactions of this round's *losing* proposals back
        // into the mempool (our own taken ones, and any that reached us
        // only inside a proposal body) before finality prunes the round's
        // side blocks; the replay check against the just-updated accounts
        // drops whatever the winning block committed.
        let losing_txs = self.chain.losing_txs(completed, decision.value);
        self.pool.reinsert(losing_txs, self.chain.accounts());
        self.pool.prune(self.chain.accounts());
        if finalized {
            self.chain.finalize(completed);
            self.chain.prune_side_blocks(completed);
        }
        self.records.push(RoundRecord {
            round: self.ctx.round(),
            started: self.ctx.started(),
            ba_started,
            binary_done,
            finished: now,
            kind: decision.kind,
            binary_step: decision.binary_step,
            empty: decision.value == self.ctx.empty_hash(),
            block_bytes,
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
            // Seed-chain validity (§5.2): the append above checked that
            // the block's seed is the proposer's VRF output over the
            // previous seed, or the hash-chain fallback for empty blocks,
            // and the round froze if it was not.
            self.tracer
                .span(SpanKind::Verify, self.trace_node, round, now)
                .label("seed")
                .id(stable_id(&decision.value))
                .value(stable_id(&seed))
                .ok(true)
                .instant();
            self.tracer
                .span(SpanKind::Round, self.trace_node, round, started)
                .step(decision.binary_step)
                .label(if finalized { "final" } else { "tentative" })
                .id(stable_id(&decision.value))
                .cause(concluded_span)
                .value(block_bytes as u64)
                .ok(finalized)
                .end_at(now);
        }
        self.last_progress = now;
        self.hung = false;
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
