//! The three ablations that drive [`BaStar`] engines directly (§7.3,
//! §7.4): one lockstep cluster, three adversarial delivery schedules.
//!
//! Each experiment is a function returning the *shape* its figure file
//! prints; the `ablation_*` rows of [`crate::figures::FIGURES`] print
//! them and judge them against the paper's claims.

use algorand_ba::{
    AblationFlags, BaParams, BaStar, CachedVerifier, Micros, Output, RoundWeights, StepKind,
    VoteMessage, SECOND,
};
use algorand_crypto::Keypair;
use algorand_sortition::{select, Role, SortitionParams};
use std::collections::HashMap;
use std::sync::Arc;

const EMPTY: [u8; 32] = [0xee; 32];
const BLOCK: [u8; 32] = [0xbb; 32];
const PREV: [u8; 32] = [0x11; 32];
const SEED: [u8; 32] = [0x22; 32];
const STAKE: u64 = 10;

/// Honest users (one engine each) of every scenario.
pub const HONEST_USERS: usize = 20;

/// A cluster of BA⋆ engines for round 1, stepped in lockstep by an
/// adversarial network scheduler: the caller decides which votes reach
/// whom and when the clock moves. τ equals the total stake, so every
/// key is on every committee with all its sub-users.
struct Cluster {
    engines: Vec<BaStar>,
    /// Every key holding stake: the engines' first, then the
    /// adversary's (which run no engine).
    keypairs: Vec<Keypair>,
    weights: Arc<RoundWeights>,
    params: BaParams,
    now: Micros,
    /// Votes gossiped but not yet handed to [`Cluster::deliver`].
    pending: Vec<VoteMessage>,
    /// Per engine, the `(value, step)` BinaryBA⋆ concluded on.
    binary_decided: Vec<Option<([u8; 32], u32)>>,
    /// Engines whose BA⋆ completed (final count included).
    completed: usize,
}

impl Cluster {
    /// Starts [`HONEST_USERS`] engines at time 0, engine `i` holding
    /// `initial(i)` as its block hash, with `n_adversary` further staked
    /// keys that run no engine. `reduction` false starts BinaryBA⋆
    /// directly.
    fn start(
        n_adversary: usize,
        max_steps: u32,
        flags: AblationFlags,
        reduction: bool,
        initial: impl Fn(usize) -> [u8; 32],
    ) -> Cluster {
        let keypairs: Vec<Keypair> = (0..HONEST_USERS + n_adversary)
            .map(|i| {
                let mut s = [0u8; 32];
                s[..8].copy_from_slice(&(i as u64 + 1).to_le_bytes());
                Keypair::from_seed(s)
            })
            .collect();
        let weights = Arc::new(RoundWeights::from_pairs(
            keypairs.iter().map(|k| (k.pk, STAKE)),
        ));
        let total = weights.total() as f64;
        let params = BaParams {
            tau_step: total,
            tau_final: total,
            max_steps,
            lambda_step: SECOND,
            lambda_block: SECOND,
            // The scenarios are stated against the paper's fixed λ_step
            // and fire every engine's timeout at one shared instant;
            // under the adaptive backoff, engines that timed out more
            // often would hold later deadlines and fall out of lockstep.
            disable_backoff: true,
        };
        let verifier = Arc::new(CachedVerifier::new());
        let mut cluster = Cluster {
            engines: Vec::new(),
            keypairs,
            weights,
            params,
            now: 0,
            pending: Vec::new(),
            binary_decided: vec![None; HONEST_USERS],
            completed: 0,
        };
        let start = if reduction {
            BaStar::start
        } else {
            BaStar::start_without_reduction
        };
        for i in 0..HONEST_USERS {
            let (mut engine, outputs) = start(
                params,
                cluster.keypairs[i].clone(),
                1,
                SEED,
                PREV,
                initial(i),
                EMPTY,
                cluster.weights.clone(),
                verifier.clone(),
                0,
            );
            engine.set_ablation(flags);
            cluster.engines.push(engine);
            cluster.absorb(i, outputs);
        }
        cluster
    }

    fn absorb(&mut self, i: usize, outputs: Vec<Output>) {
        for o in outputs {
            match o {
                Output::Gossip(v) => self.pending.push(v),
                Output::BinaryDecided { value, step } => {
                    self.binary_decided[i] = Some((value, step));
                }
                Output::Decided(_) => self.completed += 1,
                Output::Hung => {}
            }
        }
    }

    /// Hands `batch` to every engine the adversary's `policy(to, vote)`
    /// lets it reach, at the current instant.
    fn deliver(
        &mut self,
        batch: &[VoteMessage],
        mut policy: impl FnMut(usize, &VoteMessage) -> bool,
    ) {
        for i in 0..self.engines.len() {
            for v in batch {
                if policy(i, v) {
                    let outputs = self.engines[i].on_vote(v, self.now);
                    self.absorb(i, outputs);
                }
            }
        }
    }

    /// Delivers pending votes, and the votes they trigger, until the
    /// network is quiet.
    fn deliver_to_quiescence(&mut self, mut policy: impl FnMut(usize, &VoteMessage) -> bool) {
        while !self.pending.is_empty() {
            let batch = std::mem::take(&mut self.pending);
            self.deliver(&batch, &mut policy);
        }
    }

    /// The earliest step timeout of any engine.
    fn next_deadline(&self) -> Option<Micros> {
        self.engines.iter().filter_map(BaStar::next_deadline).min()
    }

    /// Moves the clock to `now` and fires the timers of the engines
    /// `who` selects.
    fn tick(&mut self, now: Micros, who: impl Fn(usize) -> bool) {
        self.now = now;
        for i in (0..self.engines.len()).filter(|&i| who(i)) {
            let outputs = self.engines[i].on_tick(now);
            self.absorb(i, outputs);
        }
    }
}

/// Group A of the split attack: 65% of honest users, starting with the
/// empty hash. Group B (the rest) starts with a block hash.
pub const COIN_GROUP_A: usize = 13;
/// Adversary users of the split attack: 20% of total stake.
pub const COIN_ADVERSARIES: usize = 5;

/// The common coin (§7.4, Algorithm 9) under the "getting unstuck"
/// attack: honest users are split into group A (votes the empty hash)
/// and group B (votes a block hash). The adversary schedules delivery so
/// that
///
/// * in steps ≡ 1 (mod 3) it adds its own votes to group A's just before
///   the timeout, pushing A across the threshold for `empty` (crossing on
///   empty never decides there), while B times out and falls back to its
///   own `block_hash`;
/// * in steps ≡ 2 (mod 3) it adds nothing: neither value crosses, everyone
///   times out to `empty`;
/// * in steps ≡ 0 (mod 3) it delays all honest votes past the timeout.
///   **This is the step the coin defends.** Without the coin the fallback
///   is the user's own `block_hash` input — group B deterministically
///   re-splits, and the loop repeats forever. With the coin, each B user
///   flips to `empty` with probability ~1/2 per loop, so the split decays
///   and consensus follows within a few iterations.
///
/// Returns the highest binary step at which a converged majority of
/// honest users concluded, or `None` if the attack outlasted `max_steps`.
pub fn common_coin(disable_common_coin: bool, max_steps: u32) -> Option<u32> {
    let flags = AblationFlags {
        disable_common_coin,
        disable_extra_votes: false,
    };
    let mut c = Cluster::start(COIN_ADVERSARIES, max_steps, flags, false, |i| {
        if i < COIN_GROUP_A {
            EMPTY
        } else {
            BLOCK
        }
    });
    // The adversary's own committee votes for `empty`, per binary step.
    let mut bank: HashMap<u32, Vec<VoteMessage>> = HashMap::new();
    let sortition = SortitionParams {
        tau: c.params.tau_step,
        total_weight: c.weights.total(),
    };
    for kp in &c.keypairs[HONEST_USERS..] {
        for step in 1..=max_steps {
            let role = Role::Committee { round: 1, step };
            if let Some(sel) = select(kp, &SEED, role, &sortition, STAKE) {
                bank.entry(step).or_default().push(VoteMessage::sign(
                    kp,
                    1,
                    StepKind::Main(step),
                    sel.vrf_output,
                    sel.proof,
                    PREV,
                    EMPTY,
                ));
            }
        }
    }
    // Honest votes cast for coin steps are delayed past the timeout
    // (dropped: a late vote changes nothing once the step concluded).
    let not_withheld =
        |_: usize, v: &VoteMessage| !matches!(v.step, StepKind::Main(s) if s % 3 == 0);
    let converged = |c: &Cluster| {
        let decided: Vec<([u8; 32], u32)> = c.binary_decided.iter().flatten().copied().collect();
        (decided.len() > HONEST_USERS / 2 && decided.windows(2).all(|w| w[0].0 == w[1].0))
            .then(|| decided.iter().map(|(_, s)| *s).max().unwrap_or(0))
    };
    loop {
        c.deliver_to_quiescence(not_withheld);
        if let Some(step) = converged(&c) {
            return Some(step);
        }
        let deadline = c.next_deadline()?;
        // Adversary assist: group A engines in a step ≡ 1 (mod 3) get
        // the adversary's votes just before their deadline.
        c.now = deadline
            .saturating_sub(c.params.lambda_step / 10)
            .max(c.now);
        for i in 0..COIN_GROUP_A {
            let assist = c.engines[i]
                .current_binary_step()
                .filter(|step| step % 3 == 1)
                .and_then(|step| bank.get(&step));
            if let Some(votes) = assist {
                c.deliver(votes, |to, _| to == i);
            }
        }
        c.deliver_to_quiescence(not_withheld);
        if let Some(step) = converged(&c) {
            return Some(step);
        }
        c.tick(deadline, |_| true);
        let hung = c.engines.iter().filter(|e| e.is_finished()).count();
        if hung > HONEST_USERS / 2 && converged(&c).is_none() {
            return None; // Most engines hung at MaxSteps: attack won.
        }
    }
}

/// The reduction phase (§7.3, Algorithm 7), which converts agreement on
/// an *arbitrary* hash into agreement on one of exactly two values in two
/// fixed steps — "this reduction is important to ensure liveness". Every
/// user starts with a *different* block hash (the worst case of a
/// malicious highest-priority proposer sending everyone distinct blocks).
///
/// With reduction no hash can win reduction step 1, everyone enters
/// BinaryBA⋆ with the empty hash and concludes at binary step 2. Without
/// it honest inputs stay many-valued; the timeout cascade must burn
/// through the deterministic fallbacks (≥ 5 binary steps: 3 extra
/// committee-vote disseminations) before the network drifts to the
/// empty hash.
///
/// The cost is steps, not time. The cluster delivers instantly, so a
/// step that crosses its threshold takes no virtual time, and both arms
/// wait out three timeouts: reduction step 1 (λ_block + λ_step) and the
/// final count with reduction; binary steps 1 and 2 and the final count
/// without. At the cluster's λ_block = λ_step that is the same clock;
/// at the paper's timeouts the arm without reduction would wait less.
///
/// Returns `(highest concluding binary step, virtual seconds)`.
pub fn reduction(with_reduction: bool) -> (u32, f64) {
    let mut c = Cluster::start(0, 30, AblationFlags::default(), with_reduction, |i| {
        let mut initial = [0u8; 32];
        initial[0] = 0xb0 + i as u8;
        initial[1] = 0x77;
        initial
    });
    for _ in 0..4000 {
        c.deliver_to_quiescence(|_, _| true);
        if c.completed == HONEST_USERS {
            break;
        }
        let Some(deadline) = c.next_deadline() else {
            break;
        };
        c.tick(deadline, |_| true);
    }
    let step = c.binary_decided.iter().flatten().map(|(_, s)| *s).max();
    (step.unwrap_or(0), c.now as f64 / 1e6)
}

/// The three extra votes after deciding (§7.4): "It is also crucial that
/// BinaryBA⋆ is able to collect enough votes in the next step to carry
/// forward the value that A already reached consensus on" — so every user
/// that returns consensus votes in the next three steps with the decided
/// value. Without this, a straggler whose step-1 votes were delayed finds
/// the network silent: everyone else has decided and stopped voting, no
/// threshold can ever be crossed again, and the straggler grinds through
/// timeouts to MaxSteps.
///
/// 19 well-connected users plus one straggler whose incoming votes are
/// delayed by a bit more than λ_step. Returns the step the straggler
/// decided at, or `None` if it hung at MaxSteps.
pub fn extra_votes(disable_extra_votes: bool) -> Option<u32> {
    let flags = AblationFlags {
        disable_common_coin: false,
        disable_extra_votes,
    };
    let straggler = HONEST_USERS - 1;
    let mut c = Cluster::start(0, 12, flags, false, |_| BLOCK);
    // Phase 1: step-1 votes reach everyone except the straggler; the
    // fast 19 decide BLOCK at step 1 (190 > 171.25 even without the
    // straggler's vote). What they emit next stays in flight.
    let step1 = std::mem::take(&mut c.pending);
    c.deliver(&step1, |to, _| to != straggler);
    // Phase 2: the straggler's λ_step expires; it times out step 1 and
    // moves to step 2 (voting BLOCK again, per the timeout rule).
    c.tick(c.params.lambda_step + 1, |i| i == straggler);
    // Phase 3: the delayed traffic finally arrives at the straggler — the
    // original step-1 votes plus whatever the deciders emitted (with the
    // rule on: votes for steps 2–4 and the final step; with it off:
    // nothing).
    let late: Vec<VoteMessage> = step1.into_iter().chain(c.pending.drain(..)).collect();
    c.deliver(&late, |to, _| to == straggler);
    // Phase 4: let the straggler run out its timeouts.
    while c.binary_decided[straggler].is_none() && !c.engines[straggler].is_finished() {
        let Some(deadline) = c.engines[straggler].next_deadline() else {
            break;
        };
        c.tick(deadline, |i| i == straggler);
    }
    c.binary_decided[straggler].map(|(_, step)| step)
}
