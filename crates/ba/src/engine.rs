//! The BA⋆ engine: Algorithms 3, 7 and 8 as a sans-io state machine.
//!
//! One [`BaStar`] instance runs one round of Byzantine agreement for one
//! user. It is driven by a caller (a full node or the simulator) that
//! delivers incoming votes ([`BaStar::on_vote`]) and clock ticks
//! ([`BaStar::on_tick`]); it emits [`Output`]s: votes to gossip and,
//! eventually, a decision. It keeps no secrets besides the user's private
//! key (§7's participant-replacement property): all tallying state can be
//! reconstructed by any passive observer of the message stream.
//!
//! Phase structure (Algorithm 3):
//!
//! ```text
//! Reduction step 1 ─► Reduction step 2 ─► BinaryBA⋆ steps 1.. ─► final count
//!       (λblock+λstep)      (λstep)           (λstep each)         (λstep)
//! ```

use crate::msg::{StepKind, Value, VoteMessage};
use crate::params::{BaParams, Micros};
use crate::tally::StepTally;
use crate::verify::{verify_vote_message, VerifiedVote, VoteContext, VoteVerifier};
use crate::weights::RoundWeights;
use crate::Certificate;
use algorand_crypto::Keypair;
use algorand_obs::{causal, stable_id, SpanKind, Tracer};
use algorand_sortition::{select, Role, SortitionParams};
use std::collections::HashMap;
use std::sync::Arc;

/// Whether BA⋆ reached final or tentative consensus (§4, §7.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConsensusKind {
    /// No other block can have reached consensus this round.
    Final,
    /// Safety could not be confirmed; another tentative block may exist.
    Tentative,
}

/// The completed result of one BA⋆ round for this user.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Final or tentative.
    pub kind: ConsensusKind,
    /// The agreed block hash (possibly the empty block's hash).
    pub value: Value,
    /// The BinaryBA⋆ step at which agreement was reached (1 in the common
    /// case of an honest highest-priority proposer).
    pub binary_step: u32,
    /// The certificate assembled from the concluding step's votes (§8.3).
    pub certificate: Certificate,
    /// For final consensus: the final-step vote aggregate — the
    /// "certificate proving the safety of a block" of §8.3. Since final
    /// blocks are totally ordered, a user need only check the most recent
    /// one. `None` for tentative consensus.
    pub final_certificate: Option<Certificate>,
}

/// An event emitted by the engine for its driver to act on.
///
/// Variant sizes differ widely (a vote is ~500 bytes); outputs are moved
/// once and never stored in bulk, so boxing would only add indirection.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Output {
    /// Gossip this vote to the network.
    Gossip(VoteMessage),
    /// BinaryBA⋆ concluded on a value; the final count is still running.
    /// (Figure 7 separates "BA⋆ w/o final step" from the final step using
    /// this event.)
    BinaryDecided {
        /// The agreed hash.
        value: Value,
        /// The concluding BinaryBA⋆ step.
        step: u32,
    },
    /// BA⋆ completed; this is the last output the engine produces.
    Decided(Decision),
    /// MaxSteps was exceeded: the engine hangs and relies on the recovery
    /// protocol (§8.2) for liveness.
    Hung,
}

enum Phase {
    Reduction1,
    Reduction2,
    Binary { step: u32 },
    FinalCount { value: Value, binary_step: u32 },
    Done,
    Hung,
}

/// Switches that disable individual protocol mechanisms, for ablation
/// studies only (`bench/ablation_*`). Production paths never set these.
#[derive(Clone, Copy, Debug, Default)]
pub struct AblationFlags {
    /// Replace the common coin (Algorithm 9) with the deterministic rule
    /// "timeout → vote block_hash": re-enables the network-scheduler split
    /// attack of §7.4.
    pub disable_common_coin: bool,
    /// Skip the three extra votes cast after reaching consensus: stragglers
    /// may then starve below the threshold.
    pub disable_extra_votes: bool,
}

/// The BA⋆ state machine for one user in one round.
pub struct BaStar {
    params: BaParams,
    round: u64,
    seed: [u8; 32],
    prev_hash: [u8; 32],
    empty_hash: Value,
    /// The hash BinaryBA⋆ was invoked with (reduction output).
    binary_input: Value,
    keypair: Keypair,
    weights: Arc<RoundWeights>,
    verifier: Arc<dyn VoteVerifier>,
    tallies: HashMap<u32, StepTally>,
    ablation: AblationFlags,
    phase: Phase,
    /// When the current phase's CountVotes window opened.
    phase_started: Micros,
    /// Consecutive steps that concluded by timeout rather than votes.
    /// Each one doubles the effective λ_step (§8.2's retry doubling),
    /// capped at [`BaStar::MAX_TIMEOUT_DOUBLINGS`]; a step that
    /// concludes on votes resets the streak.
    timeout_streak: u32,
    /// Total timeout-fired steps over this engine's lifetime.
    timeout_escalations: u64,
    /// Timestamps for metrics: when reduction / binary / final concluded.
    reduction_done: Option<Micros>,
    binary_done: Option<Micros>,
    finished: Option<Micros>,
    started: Micros,
    /// Trace sink ([`Tracer::disabled`] until the driver attaches one) and
    /// the node id stamped on emitted spans.
    tracer: Tracer,
    trace_node: u32,
    /// Span id of the most recently concluded phase (0 = still in the
    /// proposal phase) — the causal predecessor of emitted votes.
    last_concluded: u64,
    /// Whether to stamp causal ids and emit tally events. Recovery-
    /// protocol engines re-run fork rounds and would collide with the
    /// normal round's id namespace, so the driver suppresses them.
    causal_ids: bool,
    /// The reduction-one emission of [`BaStar::start`] predates the
    /// tracer attach; it is parked here and flushed by
    /// [`BaStar::set_tracer`].
    pending_emission: Option<PendingEmission>,
}

/// A vote emission recorded before a tracer was attached.
struct PendingEmission {
    step_code: u32,
    msg_id: u64,
    voter: u64,
    j: u64,
    at: Micros,
}

impl BaStar {
    /// Creates the engine and casts the first reduction vote.
    ///
    /// `block_hash` is the hash of the highest-priority proposed block the
    /// user received (or the empty block's hash); `empty_hash` is
    /// `H(Empty(round, prev_hash))`. Returned outputs must be acted on.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        params: BaParams,
        keypair: Keypair,
        round: u64,
        seed: [u8; 32],
        prev_hash: [u8; 32],
        block_hash: Value,
        empty_hash: Value,
        weights: Arc<RoundWeights>,
        verifier: Arc<dyn VoteVerifier>,
        now: Micros,
    ) -> (BaStar, Vec<Output>) {
        let mut engine = BaStar {
            params,
            round,
            seed,
            prev_hash,
            empty_hash,
            binary_input: empty_hash,
            keypair,
            weights,
            verifier,
            tallies: HashMap::new(),
            ablation: AblationFlags::default(),
            phase: Phase::Reduction1,
            phase_started: now,
            timeout_streak: 0,
            timeout_escalations: 0,
            reduction_done: None,
            binary_done: None,
            finished: None,
            started: now,
            tracer: Tracer::disabled(),
            trace_node: 0,
            last_concluded: 0,
            causal_ids: true,
            pending_emission: None,
        };
        let mut out = Vec::new();
        engine.committee_vote(StepKind::ReductionOne, block_hash, now, &mut out);
        (engine, out)
    }

    /// Attaches a trace sink; subsequent spans are stamped with `node`.
    /// The reduction-one sortition of [`BaStar::start`] predates the
    /// attach; it was parked and is flushed here so the causal chain
    /// reaches back to the proposal that seeded the vote.
    pub fn set_tracer(&mut self, tracer: Tracer, node: u32) {
        self.tracer = tracer;
        self.trace_node = node;
        let Some(p) = self.pending_emission.take() else {
            return;
        };
        if !self.tracer.is_enabled() || !self.causal_ids {
            return;
        }
        self.tracer
            .span(SpanKind::Sortition, node, self.round, p.at)
            .step(p.step_code)
            .label("committee")
            .value(p.j)
            .id(p.msg_id)
            .cause(causal::proposal_span_id(node, self.round))
            .instant();
        self.tracer
            .span(SpanKind::Tally, node, self.round, p.at)
            .step(p.step_code)
            .label("add")
            .id(p.msg_id)
            .cause(p.voter)
            .value(p.j)
            .instant();
    }

    /// Disables causal id stamping and tally events for this engine.
    /// Recovery-protocol engines re-run fork rounds and would collide
    /// with the normal round's causal id namespace, so the driver
    /// suppresses them. Plain spans still record.
    pub fn suppress_causal_ids(&mut self) {
        self.causal_ids = false;
    }

    /// The span id of the most recently concluded BA⋆ phase (0 before the
    /// first conclusion) — the round span's causal link to the final
    /// count that produced its certificate.
    pub fn last_concluded_span(&self) -> u64 {
        self.last_concluded
    }

    /// Starts the engine directly at BinaryBA⋆ step 1, skipping reduction —
    /// the `ablation_reduction` experiment. With multi-valued inputs and no
    /// reduction, honest votes split and BA⋆ cannot make progress.
    #[allow(clippy::too_many_arguments)]
    pub fn start_without_reduction(
        params: BaParams,
        keypair: Keypair,
        round: u64,
        seed: [u8; 32],
        prev_hash: [u8; 32],
        block_hash: Value,
        empty_hash: Value,
        weights: Arc<RoundWeights>,
        verifier: Arc<dyn VoteVerifier>,
        now: Micros,
    ) -> (BaStar, Vec<Output>) {
        let (mut engine, mut out) = BaStar::start(
            params, keypair, round, seed, prev_hash, block_hash, empty_hash, weights, verifier, now,
        );
        // Discard the reduction-one vote and jump straight to binary.
        out.clear();
        engine.binary_input = block_hash;
        engine.reduction_done = Some(now);
        engine.enter_binary_step(1, block_hash, now, &mut out);
        (engine, out)
    }

    /// Sets ablation switches (see [`AblationFlags`]); benches only.
    pub fn set_ablation(&mut self, flags: AblationFlags) {
        self.ablation = flags;
    }

    /// Delivers an incoming raw vote: runs it through the verification
    /// stage, then the tallies. Returns any resulting outputs.
    pub fn on_vote(&mut self, msg: &VoteMessage, now: Micros) -> Vec<Output> {
        if self.in_context(msg) {
            let ctx = self.vote_context(msg.step);
            if let Some(vote) =
                verify_vote_message(self.verifier.as_ref(), msg, &ctx, &self.weights)
            {
                self.ingest_verified(&vote, now);
            }
        }
        self.on_tick(now)
    }

    /// Algorithm 6's cheap chain-context checks, made before a vote is
    /// worth verifying: the engine is still running, and the vote is for
    /// its round on its fork.
    pub fn in_context(&self, msg: &VoteMessage) -> bool {
        !self.is_finished() && msg.round == self.round && msg.prev_hash == self.prev_hash
    }

    /// Delivers a vote that already passed the verification stage (the
    /// staged pipeline's path: the node verifies against
    /// [`BaStar::vote_context`] and feeds the wrapper straight in).
    pub fn on_verified_vote(&mut self, vote: &VerifiedVote, now: Micros) -> Vec<Output> {
        let mut out = Vec::new();
        self.ingest_verified(vote, now);
        self.advance(now, &mut out);
        out
    }

    /// Records an already-verified vote without advancing clock-dependent
    /// state (used when replaying buffered messages). The chain-context
    /// checks still run here: a [`VerifiedVote`] is cryptographically
    /// sound but may belong to a different fork or round than this
    /// engine. `now` only stamps the trace.
    pub fn ingest_verified(&mut self, vote: &VerifiedVote, now: Micros) {
        if self.in_context(vote.message())
            && self
                .tallies
                .entry(vote.message().step.code())
                .or_default()
                .add(vote)
        {
            self.record_tally_add(vote, now);
        }
    }

    /// Emits the vote-accounting trace event for a successful tally add
    /// — the stream the invariant monitor checks §8.4's one-vote rule
    /// and the §7.5 committee bounds against.
    fn record_tally_add(&self, vote: &VerifiedVote, now: Micros) {
        if !self.tracer.is_enabled() || !self.causal_ids {
            return;
        }
        let msg = vote.message();
        self.tracer
            .span(SpanKind::Tally, self.trace_node, self.round, now)
            .step(msg.step.code())
            .label("add")
            .id(stable_id(&msg.message_id()))
            .cause(stable_id(&msg.sender.to_bytes()))
            .value(vote.votes())
            .instant();
    }

    /// The verification context votes for `step` must be checked against.
    pub fn vote_context(&self, step: StepKind) -> VoteContext {
        VoteContext {
            round: self.round,
            seed: self.seed,
            tau: self.params.tau_for(step == StepKind::Final),
        }
    }

    /// The round this engine is agreeing on.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The previous block hash this engine extends.
    pub fn prev_hash(&self) -> [u8; 32] {
        self.prev_hash
    }

    /// The weight snapshot this engine verifies against.
    pub fn weights(&self) -> &Arc<RoundWeights> {
        &self.weights
    }

    /// Notifies the engine that time has passed; fires timeouts if due.
    pub fn on_tick(&mut self, now: Micros) -> Vec<Output> {
        let mut out = Vec::new();
        self.advance(now, &mut out);
        out
    }

    /// Upper bound on consecutive-timeout doublings of λ_step, so the
    /// backoff tops out at 16× rather than growing without limit.
    pub const MAX_TIMEOUT_DOUBLINGS: u32 = 4;

    /// The effective step timeout: λ_step doubled once per consecutive
    /// timeout-fired step (§8.2's retry doubling), capped. During a
    /// partition this stops nodes from spinning through committee-less
    /// steps; the first vote-concluded step resets it.
    pub fn effective_lambda_step(&self) -> Micros {
        if self.params.disable_backoff {
            return self.params.lambda_step;
        }
        self.params.lambda_step << self.timeout_streak.min(Self::MAX_TIMEOUT_DOUBLINGS)
    }

    /// Total steps this engine concluded by timeout (backoff escalations).
    pub fn timeout_escalations(&self) -> u64 {
        self.timeout_escalations
    }

    /// The current consecutive-timeout streak.
    pub fn timeout_streak(&self) -> u32 {
        self.timeout_streak
    }

    /// The next instant at which [`BaStar::on_tick`] must be called, if any.
    pub fn next_deadline(&self) -> Option<Micros> {
        let lambda = match self.phase {
            Phase::Reduction1 => self.params.lambda_block + self.effective_lambda_step(),
            Phase::Reduction2 | Phase::Binary { .. } | Phase::FinalCount { .. } => {
                self.effective_lambda_step()
            }
            Phase::Done | Phase::Hung => return None,
        };
        Some(self.phase_started + lambda)
    }

    /// True once a decision (or hang) has been emitted.
    pub fn is_finished(&self) -> bool {
        matches!(self.phase, Phase::Done | Phase::Hung)
    }

    /// The BinaryBA⋆ step currently being voted, if in the binary phase
    /// (used by adversarial test harnesses to target deliveries).
    pub fn current_binary_step(&self) -> Option<u32> {
        match &self.phase {
            Phase::Binary { step } => Some(*step),
            _ => None,
        }
    }

    /// When reduction concluded (for step-breakdown metrics).
    pub fn reduction_done_at(&self) -> Option<Micros> {
        self.reduction_done
    }

    /// When BinaryBA⋆ concluded.
    pub fn binary_done_at(&self) -> Option<Micros> {
        self.binary_done
    }

    /// When the whole of BA⋆ (including the final count) concluded.
    pub fn finished_at(&self) -> Option<Micros> {
        self.finished
    }

    /// When this engine started.
    pub fn started_at(&self) -> Micros {
        self.started
    }

    // --- Internals ---------------------------------------------------------

    /// Runs sortition for `step`; if selected, signs, self-tallies, and
    /// emits a vote (CommitteeVote, Algorithm 4).
    fn committee_vote(&mut self, step: StepKind, value: Value, now: Micros, out: &mut Vec<Output>) {
        let is_final = step == StepKind::Final;
        let role = Role::Committee {
            round: self.round,
            step: step.code(),
        };
        let params = SortitionParams {
            tau: self.params.tau_for(is_final),
            total_weight: self.weights.total(),
        };
        let my_weight = self.weights.weight_of(&self.keypair.pk);
        let Some(sel) = select(&self.keypair, &self.seed, role, &params, my_weight) else {
            return; // Not on this step's committee.
        };
        let msg = VoteMessage::sign(
            &self.keypair,
            self.round,
            step,
            sel.vrf_output,
            sel.proof,
            self.prev_hash,
            value,
        );
        // The emission span carries the vote's message id and links back
        // to the phase whose conclusion triggered the vote (the proposal
        // phase for reduction one) — the backward edge the critical-path
        // walker follows from a tally to the voter's own history.
        let msg_id = stable_id(&msg.message_id());
        if self.tracer.is_enabled() {
            let mut span = self
                .tracer
                .span(SpanKind::Sortition, self.trace_node, self.round, now)
                .step(step.code())
                .label("committee")
                .value(sel.j);
            if self.causal_ids {
                let cause = if self.last_concluded != 0 {
                    self.last_concluded
                } else {
                    causal::proposal_span_id(self.trace_node, self.round)
                };
                span = span.id(msg_id).cause(cause);
            }
            span.instant();
        } else if self.causal_ids {
            self.pending_emission = Some(PendingEmission {
                step_code: step.code(),
                msg_id,
                voter: stable_id(&self.keypair.pk.to_bytes()),
                j: sel.j,
                at: now,
            });
        }
        // Count our own vote immediately; the gossip layer will not echo
        // our own message back to us. Even our own vote goes through the
        // verification stage — the only path into a tally — which also
        // pre-warms the shared cache for every other simulated observer.
        let ctx = self.vote_context(step);
        if let Some(vote) = verify_vote_message(self.verifier.as_ref(), &msg, &ctx, &self.weights) {
            debug_assert_eq!(vote.votes(), sel.j);
            if self.tallies.entry(step.code()).or_default().add(&vote) {
                self.record_tally_add(&vote, now);
            }
        } else {
            debug_assert!(false, "own freshly signed vote must verify");
        }
        out.push(Output::Gossip(msg));
    }

    /// The CountVotes outcome for the current phase, if it can conclude.
    fn current_outcome(&self, now: Micros) -> Option<Result<Value, ()>> {
        let (step_code, lambda, threshold) = match &self.phase {
            Phase::Reduction1 => (
                StepKind::ReductionOne.code(),
                self.params.lambda_block + self.effective_lambda_step(),
                self.params.step_vote_threshold(),
            ),
            Phase::Reduction2 => (
                StepKind::ReductionTwo.code(),
                self.effective_lambda_step(),
                self.params.step_vote_threshold(),
            ),
            Phase::Binary { step } => (
                StepKind::Main(*step).code(),
                self.effective_lambda_step(),
                self.params.step_vote_threshold(),
            ),
            Phase::FinalCount { .. } => (
                StepKind::Final.code(),
                self.effective_lambda_step(),
                self.params.final_vote_threshold(),
            ),
            Phase::Done | Phase::Hung => return None,
        };
        if let Some(tally) = self.tallies.get(&step_code) {
            if let Some(v) = tally.over_threshold(threshold) {
                return Some(Ok(v));
            }
        }
        if now >= self.phase_started + lambda {
            return Some(Err(())); // Timeout.
        }
        None
    }

    /// Advances phases as long as outcomes are available.
    fn advance(&mut self, now: Micros, out: &mut Vec<Output>) {
        while let Some(outcome) = self.current_outcome(now) {
            if self.tracer.is_enabled() {
                let (label, step_code) = match &self.phase {
                    Phase::Reduction1 => ("reduction1", StepKind::ReductionOne.code()),
                    Phase::Reduction2 => ("reduction2", StepKind::ReductionTwo.code()),
                    Phase::Binary { step } => ("binary", StepKind::Main(*step).code()),
                    Phase::FinalCount { .. } => ("final", StepKind::Final.code()),
                    Phase::Done | Phase::Hung => unreachable!("no outcomes when finished"),
                };
                let mut span = self
                    .tracer
                    .span(
                        SpanKind::BaStep,
                        self.trace_node,
                        self.round,
                        self.phase_started,
                    )
                    .step(step_code)
                    .label(label)
                    .ok(outcome.is_ok());
                if self.causal_ids {
                    // A vote-concluded step is caused by its gating vote;
                    // a timeout conclusion has no gate (cause 0).
                    let gate = match &outcome {
                        Ok(v) => self
                            .tallies
                            .get(&step_code)
                            .and_then(|t| t.last_message_for(v))
                            .map(|m| stable_id(&m.message_id()))
                            .unwrap_or(0),
                        Err(()) => 0,
                    };
                    let sid = causal::step_span_id(self.trace_node, self.round, step_code);
                    span = span.id(sid).cause(gate);
                    self.last_concluded = sid;
                }
                span.end_at(now);
            }
            // §8.2 retry doubling: a timeout-fired step grows the next
            // step's window; a vote-concluded step resets it.
            match &outcome {
                Ok(_) => self.timeout_streak = 0,
                Err(()) => {
                    self.timeout_streak += 1;
                    self.timeout_escalations += 1;
                }
            }
            match &self.phase {
                Phase::Reduction1 => {
                    // Algorithm 7 step 2: re-gossip the popular hash, or
                    // the empty hash on timeout.
                    let vote_value = outcome.unwrap_or(self.empty_hash);
                    self.phase = Phase::Reduction2;
                    self.phase_started = now;
                    self.committee_vote(StepKind::ReductionTwo, vote_value, now, out);
                }
                Phase::Reduction2 => {
                    let hblock2 = outcome.unwrap_or(self.empty_hash);
                    self.reduction_done = Some(now);
                    self.binary_input = hblock2;
                    self.enter_binary_step(1, hblock2, now, out);
                }
                Phase::Binary { step } => {
                    let step = *step;
                    match step % 3 {
                        1 => match outcome {
                            Err(()) => {
                                self.enter_binary_step(step + 1, self.binary_input, now, out)
                            }
                            Ok(v) if v != self.empty_hash => self.decide(v, step, now, out),
                            Ok(v) => self.enter_binary_step(step + 1, v, now, out),
                        },
                        2 => match outcome {
                            Err(()) => self.enter_binary_step(step + 1, self.empty_hash, now, out),
                            Ok(v) if v == self.empty_hash => self.decide(v, step, now, out),
                            Ok(v) => self.enter_binary_step(step + 1, v, now, out),
                        },
                        _ => {
                            // The common-coin step (Algorithm 8's third
                            // block): never decides; a timeout consults
                            // the coin.
                            let next = match outcome {
                                Ok(v) => v,
                                Err(()) if self.ablation.disable_common_coin => {
                                    // Ablation: a predictable fallback the
                                    // adversary can exploit indefinitely.
                                    self.binary_input
                                }
                                Err(()) => {
                                    let coin = self
                                        .tallies
                                        .get(&StepKind::Main(step).code())
                                        .map(|t| t.common_coin())
                                        .unwrap_or(0);
                                    if coin == 0 {
                                        self.binary_input
                                    } else {
                                        self.empty_hash
                                    }
                                }
                            };
                            self.enter_binary_step(step + 1, next, now, out);
                        }
                    }
                }
                Phase::FinalCount { value, binary_step } => {
                    let (value, binary_step) = (*value, *binary_step);
                    let kind = match outcome {
                        Ok(v) if v == value => ConsensusKind::Final,
                        _ => ConsensusKind::Tentative,
                    };
                    let certificate = self.build_certificate(binary_step, value);
                    let final_certificate =
                        (kind == ConsensusKind::Final).then(|| self.build_final_certificate(value));
                    self.phase = Phase::Done;
                    self.finished = Some(now);
                    out.push(Output::Decided(Decision {
                        kind,
                        value,
                        binary_step,
                        certificate,
                        final_certificate,
                    }));
                }
                Phase::Done | Phase::Hung => unreachable!("no outcomes when finished"),
            }
        }
    }

    /// Starts BinaryBA⋆ step `step`, voting `r` (the loop head of
    /// Algorithm 8). Hangs if MaxSteps is exceeded.
    fn enter_binary_step(&mut self, step: u32, r: Value, now: Micros, out: &mut Vec<Output>) {
        if step > self.params.max_steps {
            self.phase = Phase::Hung;
            out.push(Output::Hung);
            return;
        }
        self.phase = Phase::Binary { step };
        self.phase_started = now;
        self.committee_vote(StepKind::Main(step), r, now, out);
    }

    /// BinaryBA⋆ reached consensus on `v` at `step`: vote the next three
    /// steps with `v` (so stragglers can cross their thresholds), vote the
    /// special final step if this was step 1, and begin the final count.
    fn decide(&mut self, v: Value, step: u32, now: Micros, out: &mut Vec<Output>) {
        if !self.ablation.disable_extra_votes {
            for s in step + 1..=step + 3 {
                self.committee_vote(StepKind::Main(s), v, now, out);
            }
        }
        if step == 1 {
            self.committee_vote(StepKind::Final, v, now, out);
        }
        self.binary_done = Some(now);
        out.push(Output::BinaryDecided { value: v, step });
        self.phase = Phase::FinalCount {
            value: v,
            binary_step: step,
        };
        self.phase_started = now;
        // Final-step votes may already be buffered; the advance loop will
        // re-check immediately.
    }

    /// Assembles the §8.3 safety certificate from final-step votes.
    fn build_final_certificate(&self, value: Value) -> Certificate {
        let threshold = self.params.final_vote_threshold();
        let mut votes = Vec::new();
        let mut total = 0u64;
        if let Some(tally) = self.tallies.get(&StepKind::Final.code()) {
            for (msg, v) in tally.messages_for(value) {
                votes.push(msg.clone());
                total += v;
                if (total as f64) > threshold {
                    break;
                }
            }
        }
        Certificate {
            round: self.round,
            step: StepKind::Final,
            value,
            votes,
        }
    }

    /// Assembles the §8.3 certificate from the concluding step's votes.
    fn build_certificate(&self, binary_step: u32, value: Value) -> Certificate {
        let threshold = self.params.step_vote_threshold();
        let mut votes = Vec::new();
        let mut total = 0u64;
        if let Some(tally) = self.tallies.get(&StepKind::Main(binary_step).code()) {
            for (msg, v) in tally.messages_for(value) {
                votes.push(msg.clone());
                total += v;
                if (total as f64) > threshold {
                    break;
                }
            }
        }
        Certificate {
            round: self.round,
            step: StepKind::Main(binary_step),
            value,
            votes,
        }
    }
}
