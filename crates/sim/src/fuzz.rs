//! Schedule-space fuzzer and the one fault oracle: seeded random
//! fault/adversary schedules, the hand-written chaos schedules, and the
//! judgement every faulted run gets, plus automatic shrinking to
//! minimal reproducers.
//!
//! [`chaos_table`] pins the chaos suite's hand-written schedules; the
//! generator explores the schedule *space* around them. A seeded
//! [`generate`] composes well-formed [`FaultSchedule`]s — every onset
//! paired with a later clearing action, every schedule passing
//! [`FaultSchedule::validate`] — together with an adversary mix into
//! [`FuzzCase`]s. [`judge`] plays a case on a simulation built from
//! [`FuzzCase::config`], at any worker count, and classifies the outcome
//! with two oracles:
//!
//! 1. **safety** — the [`algorand_obs::monitor`] invariant monitor
//!    (checked continuously) plus a direct cross-node scan for
//!    divergent *finalized* blocks ([`divergent_finality`]), and
//! 2. **liveness** — a stalled-finality watchdog: after the schedule's
//!    last event, every honest node must advance ≥ 2 rounds onto a
//!    [`common_prefix`] within a recovery bound scaled by how much the
//!    schedule disturbed (its "generosity").
//!
//! Because faults are data and all randomness flows from seeded RNGs,
//! a failing `(seed, schedule)` pair replays byte-identically — which
//! is what makes [`shrink`] sound: a delta-debugging loop removes
//! paired fault events, shortens fault windows, shrinks partition node
//! sets, and reduces the adversary count, re-running the case after
//! each candidate edit and keeping only edits that preserve the
//! original verdict class. The minimized case serializes to a textual
//! reproducer ([`serialize_case`] / [`parse_case`]) that is archived
//! under `tests/corpus/` and replayed forever after.

use crate::adversary::AdversaryKind;
use crate::des::Simulation;
use crate::event::Micros;
use crate::faults::{FaultAction, FaultEvent, FaultSchedule};
use crate::harness::{InjectedBug, SimConfig};
use crate::network::PartitionSpec;
use algorand_crypto::rng::Rng;
use algorand_obs::Invariant;
use std::fmt;

const SEC: Micros = 1_000_000;

/// Base recovery allowance after the schedule's last event.
///
/// Sized to cover §8.2's worst-case arming latency, not just a healthy
/// round or two: recovery fires only at multiples of
/// `recovery_interval` (120 s at sim scale) *and* only once progress
/// has been quiet for half an interval, so a stall that begins just
/// after one boundary is not attacked until up to two intervals later
/// — plus `proposal_wait + λ_block + 6λ_step` (≈ 38 s) for the first
/// attempt to decide. 2·120 + 38 s, rounded up with slack.
const RECOVERY_BASE: Micros = 300 * SEC;
/// Extra recovery allowance per scheduled fault event (a crash-heavy
/// schedule legitimately takes longer to reconverge than a lone loss
/// window).
const RECOVERY_PER_EVENT: Micros = 20 * SEC;
/// Granularity at which [`judge`] polls the oracles.
const SLICE: Micros = 5 * SEC;

/// One point in schedule space: a complete, self-describing run
/// configuration. Everything the simulation consumes is in here, so a
/// case replays identically wherever it is deserialized.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// The generator draw that produced this case (provenance only;
    /// a shrunk case keeps its origin's draw).
    pub case_seed: u64,
    /// Simulation seed (topology, keys, sortition).
    pub seed: u64,
    /// Network size.
    pub n_users: usize,
    /// Colluding malicious users (≤ 20% of stake, §2's assumption with
    /// margin for small-committee variance).
    pub n_malicious: usize,
    /// The attack the malicious users mount.
    pub adversary: AdversaryKind,
    /// Test-only planted defect (`None` on honest builds).
    pub bug: Option<InjectedBug>,
    /// The fault script under test.
    pub schedule: FaultSchedule,
}

/// How a fuzzed run ended, the oracle's classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictClass {
    /// All oracles clean: recovered onto a common chain in bound.
    Pass,
    /// The invariant monitor flagged this class.
    MonitorViolation(Invariant),
    /// Two honest nodes finalized different blocks for one round
    /// (chain-level safety scan, independent of the monitor).
    ChainDivergence,
    /// No common-prefix progress within the recovery bound after the
    /// schedule's last event.
    LivenessStall,
}

impl VerdictClass {
    /// Stable machine name, used by reproducers and campaign reports.
    pub fn as_str(self) -> &'static str {
        match self {
            VerdictClass::Pass => "pass",
            VerdictClass::MonitorViolation(Invariant::ConflictingCertificates) => {
                "monitor_conflicting_certificates"
            }
            VerdictClass::MonitorViolation(Invariant::CommitteeBound) => "monitor_committee_bound",
            VerdictClass::MonitorViolation(Invariant::SeedChain) => "monitor_seed_chain",
            VerdictClass::MonitorViolation(Invariant::VoteDoubleCount) => {
                "monitor_vote_double_count"
            }
            VerdictClass::MonitorViolation(Invariant::FutureStaleness) => {
                "monitor_future_staleness"
            }
            VerdictClass::ChainDivergence => "chain_divergence",
            VerdictClass::LivenessStall => "liveness_stall",
        }
    }

    /// Parses [`VerdictClass::as_str`] output.
    pub fn parse(s: &str) -> Option<VerdictClass> {
        match s {
            "pass" => Some(VerdictClass::Pass),
            "chain_divergence" => Some(VerdictClass::ChainDivergence),
            "liveness_stall" => Some(VerdictClass::LivenessStall),
            _ => Invariant::ALL
                .into_iter()
                .map(VerdictClass::MonitorViolation)
                .find(|v| v.as_str() == s),
        }
    }
}

impl fmt::Display for VerdictClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One oracle judgement with its measurements.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The classification.
    pub class: VerdictClass,
    /// Least-advanced honest tip when the run ended.
    pub final_tip: u64,
    /// Virtual time from the schedule's last event to recovery
    /// (`Pass` only).
    pub recovered_after: Option<Micros>,
    /// Virtual instant the run stopped.
    pub sim_end: Micros,
}

fn adversary_str(kind: AdversaryKind) -> &'static str {
    match kind {
        AdversaryKind::Equivocator => "equivocator",
        AdversaryKind::Withholder => "withholder",
    }
}

fn adversary_parse(s: &str) -> Option<AdversaryKind> {
    match s {
        "equivocator" => Some(AdversaryKind::Equivocator),
        "withholder" => Some(AdversaryKind::Withholder),
        _ => None,
    }
}

// --- Generator -----------------------------------------------------------

/// Draws one well-formed fuzz case from `case_seed`. The same draw with
/// the same `bug` always yields the same case; the schedule always
/// passes [`FaultSchedule::validate`], and every onset is paired with a
/// later clearing action so full recovery is expected once the schedule
/// drains (the liveness oracle's premise).
///
/// The grammar (see DESIGN.md §13): 8–10 users, 0–20% colluding
/// adversaries of a random flavour, and 1–4 fault *segments*, each an
/// onset/clear pair drawn from { symmetric partition, asymmetric
/// partition, loss window, delay spike, crash+restart, clock skew }.
/// Segments may overlap freely — overlapping windows compose to a
/// clean post-schedule state because every category's clear action is
/// absolute (heal, loss 0, normal latency, restart, skew 0). Crashes
/// are constrained so validation holds and recovery stays expected:
/// only honest nodes crash, each node at most once, and at most half
/// the honest population.
pub fn generate(case_seed: u64, bug: Option<InjectedBug>) -> FuzzCase {
    let mut rng = Rng::seed_from_u64(case_seed ^ 0xF0CC_5EED);
    let n_users = 8 + rng.gen_range_usize(3); // 8..=10
    let n_malicious = rng.gen_range_usize(n_users / 5 + 1); // ≤ 20%
    let adversary = if rng.gen_range_usize(2) == 0 {
        AdversaryKind::Equivocator
    } else {
        AdversaryKind::Withholder
    };
    let n_honest = n_users - n_malicious;
    let seed = rng.next_u64();

    let mut schedule = FaultSchedule::new();
    let mut crashed: Vec<usize> = Vec::new();
    let mut skewed: Vec<usize> = Vec::new();
    let segments = 1 + rng.gen_range_usize(4); // 1..=4
    for _ in 0..segments {
        let onset = 2 * SEC + rng.gen_range_u64(8 * SEC);
        let clear = onset + 4 * SEC + rng.gen_range_u64(12 * SEC);
        let mut kind = rng.gen_range_usize(6);
        if kind == 4 && crashed.len() >= n_honest / 2 {
            kind = 2; // crash budget exhausted: fall back to a loss window
        }
        if kind == 5 && skewed.len() >= n_users {
            kind = 3; // every clock already skewed: fall back to a spike
        }
        schedule = match kind {
            0 => {
                let split = 1 + rng.gen_range_usize(n_users - 1);
                schedule.bipartition(n_users, split, onset, clear)
            }
            1 => {
                let split = 1 + rng.gen_range_usize(n_users - 1);
                schedule.asymmetric_partition(n_users, split, onset, clear)
            }
            2 => {
                let prob = 0.05 + 0.45 * rng.gen_f64();
                schedule.loss_window(prob, onset, clear)
            }
            3 => {
                let factor = 1.5 + 2.5 * rng.gen_f64();
                let extra = rng.gen_range_u64(150_000);
                schedule
                    .at(onset, FaultAction::DelaySpike { factor, extra })
                    .at(clear, FaultAction::DelayClear)
            }
            4 => {
                // A not-yet-crashed honest node (the budget check above
                // guarantees one exists).
                let pick = rng.gen_range_usize(n_honest - crashed.len());
                let node = (0..n_honest)
                    .filter(|i| !crashed.contains(i))
                    .nth(pick)
                    .expect("crash budget leaves a candidate");
                crashed.push(node);
                schedule.crash_restart(node, onset, clear)
            }
            _ => {
                // A node not already in a skew window: overlapping skew
                // segments on one clock would shadow each other and
                // break the onset/clear pairing the shrinker relies on.
                let pick = rng.gen_range_usize(n_users - skewed.len());
                let node = (0..n_users)
                    .filter(|i| !skewed.contains(i))
                    .nth(pick)
                    .expect("skew budget leaves a candidate");
                skewed.push(node);
                let magnitude = (50_000 + rng.gen_range_u64(450_000)) as i64;
                let skew = if rng.gen_range_usize(2) == 0 {
                    magnitude
                } else {
                    -magnitude
                };
                schedule
                    .at(onset, FaultAction::ClockSkew { node, skew })
                    .at(clear, FaultAction::ClockSkew { node, skew: 0 })
            }
        };
    }
    debug_assert_eq!(schedule.validate(n_users), Ok(()));
    FuzzCase {
        case_seed,
        seed,
        n_users,
        n_malicious,
        adversary,
        bug,
        schedule,
    }
}

// --- Oracle --------------------------------------------------------------

impl FuzzCase {
    /// Honest users: the first `n_users - n_malicious` indices.
    pub fn n_honest(&self) -> usize {
        self.n_users - self.n_malicious
    }

    /// The run this case describes, traced and with the invariant
    /// monitor attached (the oracle reads it). Wrap it in a
    /// [`crate::DesConfig`] to pick a worker count: the verdict, digest
    /// and trace are the same at any.
    pub fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(self.n_users);
        cfg.seed = self.seed;
        cfg.n_malicious = self.n_malicious;
        cfg.adversary_kind = self.adversary;
        cfg.trace = true;
        cfg.monitor = true;
        cfg.injected_bug = self.bug;
        cfg
    }
}

/// Safety: do two of the first `n_honest` nodes hold different
/// *finalized* blocks for one round?
pub fn divergent_finality(sim: &Simulation, n_honest: usize) -> bool {
    use std::collections::HashMap;
    let mut finalized: HashMap<u64, [u8; 32]> = HashMap::new();
    for i in 0..n_honest {
        let chain = sim.honest_node(i).chain();
        for round in 1..=chain.tip().round {
            if chain.is_finalized(round) {
                let h = chain.block_at(round).expect("canonical").hash();
                if let Some(prev) = finalized.get(&round) {
                    if *prev != h {
                        return true;
                    }
                } else {
                    finalized.insert(round, h);
                }
            }
        }
    }
    false
}

/// The least-advanced tip among the first `n_honest` nodes.
pub fn min_tip(sim: &Simulation, n_honest: usize) -> u64 {
    (0..n_honest)
        .map(|i| sim.honest_node(i).chain().tip().round)
        .min()
        .unwrap_or(0)
}

/// Convergence: do the first `n_honest` nodes agree block for block up
/// to the least-advanced tip?
pub fn common_prefix(sim: &Simulation, n_honest: usize) -> bool {
    let tip = min_tip(sim, n_honest);
    for round in 1..=tip {
        let h0 = match sim.honest_node(0).chain().block_at(round) {
            Some(b) => b.hash(),
            None => return false,
        };
        for i in 1..n_honest {
            match sim.honest_node(i).chain().block_at(round) {
                Some(b) if b.hash() == h0 => {}
                _ => return false,
            }
        }
    }
    true
}

/// The recovery allowance this schedule earns: disruptive schedules get
/// proportionally more virtual time to reconverge.
pub fn recovery_bound(schedule: &FaultSchedule) -> Micros {
    RECOVERY_BASE + RECOVERY_PER_EVENT * schedule.len() as Micros
}

/// Plays `case` on `sim` and classifies the outcome. `sim` must be
/// fresh and built from [`FuzzCase::config`], at any worker count; the
/// caller keeps it afterwards, stopped at the verdict, for its own
/// assertions.
///
/// Drive: install the schedule, run to its last event, then advance in
/// five-second steps. At every step the safety oracles are checked
/// (monitor first — it names the violated invariant — then
/// [`divergent_finality`]). The run passes once every honest node has
/// advanced ≥ 2 rounds past its post-schedule baseline onto a
/// [`common_prefix`]; it is a [`VerdictClass::LivenessStall`] if that
/// does not happen within [`recovery_bound`].
///
/// # Panics
///
/// If the schedule does not validate for the case's population (the
/// generator, shrinker and parser only construct validated cases, so an
/// invalid one here is a harness bug), or if `sim` has no monitor.
pub fn judge(sim: &mut Simulation, case: &FuzzCase) -> Verdict {
    case.schedule
        .validate(case.n_users)
        .expect("fuzz case schedule must validate");
    let n_honest = case.n_honest();
    let settle = case.schedule.last_event_at();
    let bound = recovery_bound(&case.schedule);
    sim.set_fault_schedule(case.schedule.clone());
    sim.run_until(settle);
    let baseline = min_tip(sim, n_honest);
    let mut t = settle;
    loop {
        let monitor = sim.monitor_report().expect("monitor attached");
        let (class, recovered_after) = if let Some(inv) = monitor.verdict_class() {
            (VerdictClass::MonitorViolation(inv), None)
        } else if divergent_finality(sim, n_honest) {
            (VerdictClass::ChainDivergence, None)
        } else if min_tip(sim, n_honest) >= baseline + 2 && common_prefix(sim, n_honest) {
            (VerdictClass::Pass, Some(t - settle))
        } else if t >= settle + bound {
            (VerdictClass::LivenessStall, None)
        } else {
            t += SLICE;
            sim.run_until(t);
            continue;
        };
        return Verdict {
            class,
            final_tip: min_tip(sim, n_honest),
            recovered_after,
            sim_end: sim.now(),
        };
    }
}

/// Replays one case on one worker and classifies the outcome
/// ([`judge`] on a fresh simulation).
pub fn run_case(case: &FuzzCase) -> Verdict {
    judge(&mut Simulation::new(case.config()), case)
}

// --- Hand-written schedules ------------------------------------------------

/// The chaos suite's scripted schedules (§3 safety under asynchrony,
/// §8.2–§8.3 recovery, §10.4 attacks), one `(name, case)` row each. The
/// test suite (`tests/chaos.rs`) and the pinned-results bin
/// (`chaos_determinism`) both judge every row with [`judge`].
pub fn chaos_table() -> Vec<(&'static str, FuzzCase)> {
    let s = FaultSchedule::new;
    let halves = |n| s().bipartition(n, n / 2, 30 * SEC, 90 * SEC);
    // 10 of 12 keep talking; the other 2 hear them but cannot answer.
    let asym = s().asymmetric_partition(12, 10, 30 * SEC, 90 * SEC);
    let loss = s().loss_window(0.30, 20 * SEC, 80 * SEC);
    // 9 of 16 nodes (56% of stake) down together for a minute.
    let crash_majority = (0..9).fold(s(), |acc, i| acc.crash_restart(i, 40 * SEC, 100 * SEC));
    // Nodes 0..6 go down one after another, two windows overlapping.
    let rolling = (0..6).fold(s(), |acc, i| {
        let down = (20 + 15 * i as Micros) * SEC;
        acc.crash_restart(i, down, down + 30 * SEC)
    });
    let rejoin = s().crash_restart(0, 30 * SEC, 90 * SEC);
    // Two clocks fast (up to half a λ_priority) and one 300 ms slow,
    // never cleared; every link triples its latency for 40 s.
    let skew = [(1, 200_000), (2, 500_000), (3, -300_000)]
        .into_iter()
        .fold(s(), |acc, (node, skew)| {
            acc.at(5 * SEC, FaultAction::ClockSkew { node, skew })
        })
        .at(
            20 * SEC,
            FaultAction::DelaySpike {
                factor: 3.0,
                extra: 100_000,
            },
        )
        .at(60 * SEC, FaultAction::DelayClear);
    let case = |seed, n_users, n_malicious, schedule| FuzzCase {
        case_seed: 0,
        seed,
        n_users,
        n_malicious,
        adversary: AdversaryKind::Equivocator,
        bug: None,
        schedule,
    };
    vec![
        ("partition/heal (sym)", case(11, 16, 0, halves(16))),
        ("partition (asym)", case(12, 12, 0, asym)),
        ("30% loss window", case(13, 12, 0, loss)),
        ("crash majority 9/16", case(14, 16, 0, crash_majority)),
        ("partition + equivocators", case(15, 20, 4, halves(20))),
        ("rolling restarts 6/12", case(16, 12, 0, rolling)),
        ("crash/rejoin via catch-up", case(17, 10, 0, rejoin)),
        ("clock skew + delay spike", case(18, 12, 0, skew)),
    ]
}

// --- Shrinker ------------------------------------------------------------

/// What [`shrink`] did and found.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The minimized case (still reproducing the original verdict).
    pub minimized: FuzzCase,
    /// The verdict class every accepted shrink step preserved.
    pub verdict: VerdictClass,
    /// Total [`run_case`] invocations spent (including the initial
    /// classification).
    pub attempts: usize,
    /// Every accepted intermediate case, in acceptance order, ending
    /// with `minimized` — the shrinker property test walks these to
    /// prove each step stayed well formed and kept the verdict.
    pub accepted: Vec<FuzzCase>,
}

/// Groups a schedule's (time-ordered) events into removal units: each
/// onset is bundled with the clearing action that ends it, so dropping
/// a unit never strands a disturbance (which would turn a safety
/// reproducer into a liveness artifact) and never breaks
/// [`FaultSchedule::validate`]'s crash/restart ordering.
fn removal_units(events: &[FaultEvent]) -> Vec<Vec<usize>> {
    use std::collections::HashMap;
    let mut units: Vec<Vec<usize>> = Vec::new();
    let mut open_partition: Vec<usize> = Vec::new();
    let mut open_loss: Vec<usize> = Vec::new();
    let mut open_delay: Vec<usize> = Vec::new();
    let mut open_crash: HashMap<usize, usize> = HashMap::new();
    let mut open_skew: HashMap<usize, usize> = HashMap::new();
    let mut leftovers: Vec<usize> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match &e.action {
            FaultAction::Partition(_) => open_partition.push(i),
            // A heal clears the most recently installed partition.
            FaultAction::Heal => match open_partition.pop() {
                Some(j) => units.push(vec![j, i]),
                None => units.push(vec![i]),
            },
            FaultAction::Loss(p) if *p > 0.0 => open_loss.push(i),
            FaultAction::Loss(_) => match open_loss.pop() {
                Some(j) => units.push(vec![j, i]),
                None => units.push(vec![i]),
            },
            FaultAction::DelaySpike { .. } => open_delay.push(i),
            FaultAction::DelayClear => match open_delay.pop() {
                Some(j) => units.push(vec![j, i]),
                None => units.push(vec![i]),
            },
            FaultAction::Crash(n) => {
                if let Some(prev) = open_crash.insert(*n, i) {
                    leftovers.push(prev);
                }
            }
            FaultAction::Restart(n) => match open_crash.remove(n) {
                Some(j) => units.push(vec![j, i]),
                None => units.push(vec![i]),
            },
            FaultAction::ClockSkew { node, skew } if *skew != 0 => {
                if let Some(prev) = open_skew.insert(*node, i) {
                    leftovers.push(prev);
                }
            }
            FaultAction::ClockSkew { node, .. } => match open_skew.remove(node) {
                Some(j) => units.push(vec![j, i]),
                None => units.push(vec![i]),
            },
        }
    }
    leftovers.extend(open_partition);
    leftovers.extend(open_loss);
    leftovers.extend(open_delay);
    leftovers.extend(open_crash.into_values());
    leftovers.extend(open_skew.into_values());
    for i in leftovers {
        units.push(vec![i]);
    }
    units.sort_by_key(|u| u[0]);
    units
}

/// Minimizes a failing case by delta debugging, preserving the verdict
/// class at every step.
///
/// Four reduction moves, repeated to a fixpoint (or until `max_attempts`
/// [`run_case`] replays are spent):
///
/// 1. **unit removal** (ddmin): drop chunks of onset/clear pairs,
///    halving the chunk size down to single units;
/// 2. **window shortening**: halve the onset→clear gap of surviving
///    pairs (floor 2 s);
/// 3. **partition-set shrinking**: move half of a partition's smallest
///    group into its largest, reducing how many nodes the fault cuts
///    off;
/// 4. **adversary reduction**: try zero malicious users, then halves.
///
/// Every candidate must pass [`FaultSchedule::validate`] before it is
/// replayed, and is accepted only if [`run_case`] returns the original
/// verdict class. Deterministic: same input ⇒ same minimized output.
///
/// # Panics
///
/// If the input case passes — there is nothing to shrink.
pub fn shrink(case: &FuzzCase, max_attempts: usize) -> ShrinkOutcome {
    let target = run_case(case).class;
    assert!(
        target != VerdictClass::Pass,
        "shrink called on a passing case"
    );
    let mut s = Shrinker {
        target,
        max_attempts,
        current: case.clone(),
        attempts: 1,
        accepted: Vec::new(),
    };
    loop {
        let before = s.attempts;
        let mut changed = s.ddmin();
        for edit in [shorter_windows, smaller_partitions, fewer_adversaries] {
            while s.accept_first(edit(&s.current)) {
                changed = true;
            }
        }
        if !changed || s.attempts >= max_attempts || s.attempts == before {
            break;
        }
    }
    ShrinkOutcome {
        minimized: s.current,
        verdict: target,
        attempts: s.attempts,
        accepted: s.accepted,
    }
}

/// The shrinker's walk: the case it holds and the replays it has spent.
struct Shrinker {
    target: VerdictClass,
    max_attempts: usize,
    current: FuzzCase,
    attempts: usize,
    accepted: Vec<FuzzCase>,
}

impl Shrinker {
    /// Replays `candidates` in order, within the attempt budget, and
    /// adopts the first that validates and keeps the verdict class.
    fn accept_first(&mut self, candidates: Vec<FuzzCase>) -> bool {
        for candidate in candidates {
            if self.attempts >= self.max_attempts {
                return false;
            }
            if candidate.schedule.validate(candidate.n_users).is_err() {
                continue;
            }
            self.attempts += 1;
            if run_case(&candidate).class == self.target {
                self.accepted.push(candidate.clone());
                self.current = candidate;
                return true;
            }
        }
        false
    }

    /// Move 1, delta debugging over removal units: drop chunks of units,
    /// halving the chunk size down to single units.
    fn ddmin(&mut self) -> bool {
        let mut changed = false;
        let mut chunk = removal_units(self.current.schedule.events())
            .len()
            .div_ceil(2)
            .max(1);
        loop {
            let events = self.current.schedule.clone().into_events();
            let units = removal_units(&events);
            if units.is_empty() || self.attempts >= self.max_attempts {
                return changed;
            }
            chunk = chunk.min(units.len());
            let candidates = units
                .chunks(chunk)
                .map(|dropped| {
                    let drop: std::collections::HashSet<usize> =
                        dropped.iter().flatten().copied().collect();
                    let kept = events
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !drop.contains(i))
                        .map(|(_, e)| e.clone())
                        .collect();
                    with_events(&self.current, kept)
                })
                .collect();
            if self.accept_first(candidates) {
                changed = true; // unit indices are stale; recompute
            } else if chunk == 1 {
                return changed;
            } else {
                chunk /= 2;
            }
        }
    }
}

/// `case` with its schedule replaced by `events`.
fn with_events(case: &FuzzCase, events: Vec<FaultEvent>) -> FuzzCase {
    let mut c = case.clone();
    c.schedule = FaultSchedule::from_events(events);
    c
}

/// Move 2: each surviving onset/clear pair with its gap halved (floor
/// 2 s).
fn shorter_windows(case: &FuzzCase) -> Vec<FuzzCase> {
    let events = case.schedule.clone().into_events();
    removal_units(&events)
        .iter()
        .filter_map(|unit| {
            let [onset, clear] = unit.as_slice() else {
                return None;
            };
            let gap = events[*clear].at.saturating_sub(events[*onset].at);
            if gap <= 2 * SEC {
                return None;
            }
            let mut shortened = events.clone();
            shortened[*clear].at = events[*onset].at + gap / 2;
            Some(with_events(case, shortened))
        })
        .collect()
}

/// Move 3: each partition with half of its smallest group moved into
/// its largest.
fn smaller_partitions(case: &FuzzCase) -> Vec<FuzzCase> {
    let events = case.schedule.clone().into_events();
    events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            let FaultAction::Partition(spec) = &e.action else {
                return None;
            };
            let mut edited = events.clone();
            edited[i].action = FaultAction::Partition(shrink_partition(spec)?);
            Some(with_events(case, edited))
        })
        .collect()
}

/// Move 4: zero malicious users, then half as many.
fn fewer_adversaries(case: &FuzzCase) -> Vec<FuzzCase> {
    if case.n_malicious == 0 {
        return Vec::new();
    }
    [0, case.n_malicious / 2]
        .into_iter()
        .map(|n_malicious| FuzzCase {
            n_malicious,
            ..case.clone()
        })
        .collect()
}

/// Moves half of a partition's smallest group into its largest,
/// keeping at least one member in every group that `blocked` names.
/// `None` when the spec cannot shrink further.
fn shrink_partition(spec: &PartitionSpec) -> Option<PartitionSpec> {
    use std::collections::HashMap;
    let mut sizes: HashMap<u8, usize> = HashMap::new();
    for &g in &spec.group_of {
        *sizes.entry(g).or_insert(0) += 1;
    }
    if sizes.len() < 2 {
        return None;
    }
    // Destination: the largest group (never shrunk — moving members
    // out of the majority would *grow* the cut-off set). Source: the
    // smallest other group with ≥ 2 members, so one stays behind and
    // `blocked` pairs keep naming live groups. Ties break on group id
    // so the move is deterministic.
    let largest = sizes
        .iter()
        .max_by_key(|(&g, &n)| (n, std::cmp::Reverse(g)))
        .map(|(&g, _)| g)?;
    let smallest = sizes
        .iter()
        .filter(|(&g, &n)| g != largest && n >= 2)
        .min_by_key(|(&g, &n)| (n, g))
        .map(|(&g, _)| g)?;
    let moving = sizes[&smallest] / 2;
    let mut spec = spec.clone();
    let mut moved = 0;
    // Move the highest-indexed members first (deterministic pick).
    for g in spec.group_of.iter_mut().rev() {
        if moved == moving {
            break;
        }
        if *g == smallest {
            *g = largest;
            moved += 1;
        }
    }
    (moved > 0).then_some(spec)
}

// --- Reproducer serialization --------------------------------------------

/// Header line every reproducer file starts with.
pub const REPRO_HEADER: &str = "algorand-fuzz-repro v1";

/// Serializes a case (plus its oracle verdict) as a line-oriented text
/// reproducer. Exact: floats use Rust's shortest-roundtrip formatting,
/// so [`parse_case`] reconstructs a bit-identical schedule and the
/// replay is byte-identical to the original run.
pub fn serialize_case(case: &FuzzCase, verdict: VerdictClass) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{REPRO_HEADER}");
    let _ = writeln!(out, "case_seed={}", case.case_seed);
    let _ = writeln!(out, "seed={}", case.seed);
    let _ = writeln!(out, "n_users={}", case.n_users);
    let _ = writeln!(out, "n_malicious={}", case.n_malicious);
    let _ = writeln!(out, "adversary={}", adversary_str(case.adversary));
    let _ = writeln!(out, "bug={}", case.bug.map_or("none", InjectedBug::as_str));
    let _ = writeln!(out, "verdict={}", verdict.as_str());
    for e in case.schedule.clone().into_events() {
        let _ = write!(out, "event at={} ", e.at);
        let _ = match &e.action {
            FaultAction::Partition(spec) => {
                let groups: Vec<String> = spec.group_of.iter().map(|g| g.to_string()).collect();
                let blocked: Vec<String> = spec
                    .blocked
                    .iter()
                    .map(|(a, b)| format!("{a}>{b}"))
                    .collect();
                writeln!(
                    out,
                    "partition groups={} blocked={}",
                    groups.join(","),
                    blocked.join(",")
                )
            }
            FaultAction::Heal => writeln!(out, "heal"),
            FaultAction::Loss(p) => writeln!(out, "loss p={p}"),
            FaultAction::DelaySpike { factor, extra } => {
                writeln!(out, "delay factor={factor} extra={extra}")
            }
            FaultAction::DelayClear => writeln!(out, "delay_clear"),
            FaultAction::Crash(n) => writeln!(out, "crash node={n}"),
            FaultAction::Restart(n) => writeln!(out, "restart node={n}"),
            FaultAction::ClockSkew { node, skew } => {
                writeln!(out, "skew node={node} skew={skew}")
            }
        };
    }
    let _ = writeln!(out, "end");
    out
}

/// The `key=value` lines every reproducer carries exactly once.
const HEADER_KEYS: [&str; 7] = [
    "case_seed",
    "seed",
    "n_users",
    "n_malicious",
    "adversary",
    "bug",
    "verdict",
];

/// Parses [`serialize_case`] output back into a runnable case.
///
/// # Errors
///
/// A human-readable description of the first problem: a malformed,
/// missing or repeated line, or a case [`run_case`] cannot run (no
/// users, no honest user, an invalid schedule).
pub fn parse_case(text: &str) -> Result<(FuzzCase, VerdictClass), String> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(REPRO_HEADER) {
        return Err(format!("missing '{REPRO_HEADER}' header"));
    }
    let mut header = std::collections::HashMap::new();
    let mut events: Vec<FaultEvent> = Vec::new();
    let mut ended = false;
    for line in lines.map(str::trim).filter(|l| !l.is_empty()) {
        if line == "end" {
            ended = true;
            break;
        }
        if let Some(rest) = line.strip_prefix("event at=") {
            events.push(parse_event(rest)?);
        } else if let Some((key, value)) = line
            .split_once('=')
            .filter(|(k, _)| HEADER_KEYS.contains(k))
        {
            if header.insert(key, value).is_some() {
                return Err(format!("repeated header key {key}="));
            }
        } else {
            return Err(format!("unrecognized line: {line}"));
        }
    }
    if !ended {
        return Err("missing 'end' terminator".into());
    }
    let get = |key: &str| {
        header
            .get(key)
            .copied()
            .ok_or(format!("missing {key}= line"))
    };
    let bad = |key: &str| format!("bad {key}: {}", header[key]);
    let case = FuzzCase {
        case_seed: get("case_seed")?.parse().map_err(|_| bad("case_seed"))?,
        seed: get("seed")?.parse().map_err(|_| bad("seed"))?,
        n_users: get("n_users")?.parse().map_err(|_| bad("n_users"))?,
        n_malicious: get("n_malicious")?
            .parse()
            .map_err(|_| bad("n_malicious"))?,
        adversary: adversary_parse(get("adversary")?).ok_or_else(|| bad("adversary"))?,
        bug: match get("bug")? {
            "none" => None,
            s => Some(InjectedBug::parse(s).ok_or_else(|| bad("bug"))?),
        },
        schedule: FaultSchedule::from_events(events),
    };
    let verdict = VerdictClass::parse(get("verdict")?).ok_or_else(|| bad("verdict"))?;
    if case.n_users == 0 {
        return Err("n_users=0: a case needs at least one user".into());
    }
    if case.n_malicious >= case.n_users {
        return Err(format!(
            "n_malicious={} >= n_users={}: no honest user left",
            case.n_malicious, case.n_users
        ));
    }
    case.schedule
        .validate(case.n_users)
        .map_err(|e| format!("reproducer schedule invalid: {e}"))?;
    Ok((case, verdict))
}

/// Parses the tail of an `event at=` line: `<time> <action> <args>`.
fn parse_event(rest: &str) -> Result<FaultEvent, String> {
    let mut parts = rest.split_whitespace();
    let at: Micros = parts
        .next()
        .ok_or("event missing time")?
        .parse()
        .map_err(|_| format!("bad event time in: {rest}"))?;
    let kind = parts
        .next()
        .ok_or(format!("event missing action: {rest}"))?;
    // Remaining tokens as key=value pairs.
    let mut kv = std::collections::HashMap::new();
    for tok in parts {
        let (k, v) = tok
            .split_once('=')
            .ok_or(format!("bad event field '{tok}' in: {rest}"))?;
        kv.insert(k.to_string(), v.to_string());
    }
    let need = |key: &str| -> Result<String, String> {
        kv.get(key)
            .cloned()
            .ok_or(format!("event missing {key}= in: {rest}"))
    };
    let action = match kind {
        "partition" => {
            let group_of: Vec<u8> = need("groups")?
                .split(',')
                .map(|s| s.parse().map_err(|_| format!("bad group '{s}'")))
                .collect::<Result<_, _>>()?;
            let blocked: Vec<(u8, u8)> = need("blocked")?
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    let (a, b) = s.split_once('>').ok_or(format!("bad blocked pair '{s}'"))?;
                    Ok::<(u8, u8), String>((
                        a.parse().map_err(|_| format!("bad group '{a}'"))?,
                        b.parse().map_err(|_| format!("bad group '{b}'"))?,
                    ))
                })
                .collect::<Result<_, _>>()?;
            FaultAction::Partition(PartitionSpec { group_of, blocked })
        }
        "heal" => FaultAction::Heal,
        "loss" => FaultAction::Loss(
            need("p")?
                .parse()
                .map_err(|_| format!("bad loss p in: {rest}"))?,
        ),
        "delay" => FaultAction::DelaySpike {
            factor: need("factor")?
                .parse()
                .map_err(|_| format!("bad delay factor in: {rest}"))?,
            extra: need("extra")?
                .parse()
                .map_err(|_| format!("bad delay extra in: {rest}"))?,
        },
        "delay_clear" => FaultAction::DelayClear,
        "crash" => FaultAction::Crash(
            need("node")?
                .parse()
                .map_err(|_| format!("bad crash node in: {rest}"))?,
        ),
        "restart" => FaultAction::Restart(
            need("node")?
                .parse()
                .map_err(|_| format!("bad restart node in: {rest}"))?,
        ),
        "skew" => FaultAction::ClockSkew {
            node: need("node")?
                .parse()
                .map_err(|_| format!("bad skew node in: {rest}"))?,
            skew: need("skew")?
                .parse()
                .map_err(|_| format!("bad skew offset in: {rest}"))?,
        },
        other => return Err(format!("unknown event action '{other}'")),
    };
    Ok(FaultEvent { at, action })
}

// --- Campaign ------------------------------------------------------------

/// Parameters for one fuzzing campaign.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Number of `(seed, schedule)` pairs to run.
    pub budget: usize,
    /// Master seed deriving every case's generator draw.
    pub master_seed: u64,
    /// Planted defect for the whole campaign (`None` = honest build).
    pub bug: Option<InjectedBug>,
}

/// The outcome of a campaign.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Cases run.
    pub cases: usize,
    /// Cases that passed every oracle.
    pub passes: usize,
    /// Failing cases with their verdicts, in discovery order.
    pub failures: Vec<(FuzzCase, VerdictClass)>,
    /// Byte-stable textual report: identical campaign config ⇒
    /// byte-identical report (the CI determinism check).
    pub report: String,
}

/// Runs `budget` generated cases and aggregates a deterministic
/// report. Cases run on a small worker pool (each case is its own
/// sealed simulation), but results are folded strictly in case order
/// and all statistics are integers in virtual-time units, so the
/// report is byte-identical across reruns of the same
/// `(master_seed, budget, bug)` triple on any machine at any worker
/// count.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    use std::fmt::Write;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let mut seeder = Rng::seed_from_u64(cfg.master_seed ^ 0xCAB1_F0CC);
    let seeds: Vec<u64> = (0..cfg.budget).map(|_| seeder.next_u64()).collect();
    let bug = cfg.bug;
    let results: Vec<Mutex<Option<(FuzzCase, Verdict)>>> =
        (0..cfg.budget).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
        .min(cfg.budget.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= seeds.len() {
                    break;
                }
                let case = generate(seeds[i], bug);
                let verdict = run_case(&case);
                *results[i].lock().expect("result slot") = Some((case, verdict));
            });
        }
    });

    let mut passes = 0usize;
    let mut failures: Vec<(FuzzCase, VerdictClass)> = Vec::new();
    let mut verdict_counts: Vec<(&'static str, u64)> = {
        let mut v = vec![(VerdictClass::Pass.as_str(), 0)];
        v.extend(
            Invariant::ALL
                .into_iter()
                .map(|i| (VerdictClass::MonitorViolation(i).as_str(), 0)),
        );
        v.push((VerdictClass::ChainDivergence.as_str(), 0));
        v.push((VerdictClass::LivenessStall.as_str(), 0));
        v
    };
    let mut events_total = 0u64;
    let mut events_min = u64::MAX;
    let mut events_max = 0u64;
    let mut recovery: Vec<Micros> = Vec::new();
    for slot in results {
        let (case, verdict) = slot
            .into_inner()
            .expect("result slot")
            .expect("worker filled every slot");
        let ev = case.schedule.len() as u64;
        events_total += ev;
        events_min = events_min.min(ev);
        events_max = events_max.max(ev);
        for (name, n) in verdict_counts.iter_mut() {
            if *name == verdict.class.as_str() {
                *n += 1;
            }
        }
        if verdict.class == VerdictClass::Pass {
            passes += 1;
            recovery.push(verdict.recovered_after.unwrap_or(0));
        } else {
            failures.push((case, verdict.class));
        }
    }
    recovery.sort_unstable();
    let pick = |q_num: usize, q_den: usize| -> Micros {
        if recovery.is_empty() {
            0
        } else {
            recovery[(recovery.len() - 1) * q_num / q_den]
        }
    };
    let mut report = String::new();
    let _ = writeln!(report, "fuzz campaign v1");
    let _ = writeln!(
        report,
        "master_seed={} budget={} bug={}",
        cfg.master_seed,
        cfg.budget,
        cfg.bug.map_or("none", InjectedBug::as_str)
    );
    let _ = writeln!(
        report,
        "cases={} pass={} fail={}",
        cfg.budget,
        passes,
        failures.len()
    );
    let mut verdicts = String::from("verdicts");
    for (name, n) in &verdict_counts {
        let _ = write!(verdicts, " {name}={n}");
    }
    let _ = writeln!(report, "{verdicts}");
    let _ = writeln!(
        report,
        "schedule_events total={} min={} max={}",
        events_total,
        if events_min == u64::MAX {
            0
        } else {
            events_min
        },
        events_max
    );
    let _ = writeln!(
        report,
        "recovery_virtual_us p50={} p90={} max={}",
        pick(1, 2),
        pick(9, 10),
        pick(1, 1)
    );
    for (case, class) in &failures {
        let _ = writeln!(
            report,
            "fail case_seed={} verdict={} events={}",
            case.case_seed,
            class.as_str(),
            case.schedule.len()
        );
    }
    let _ = writeln!(report, "end");
    CampaignResult {
        cases: cfg.budget,
        passes,
        failures,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_schedules_validate_and_pair_every_onset() {
        for s in 0..200u64 {
            let case = generate(s, None);
            assert!(case.n_users >= 8 && case.n_users <= 10);
            assert!(case.n_malicious * 5 <= case.n_users);
            assert_eq!(case.schedule.validate(case.n_users), Ok(()));
            assert!(!case.schedule.is_empty());
            // Every onset pairs with a later clear: grouping the events
            // must leave no singleton units.
            let events = case.schedule.clone().into_events();
            for unit in removal_units(&events) {
                assert_eq!(unit.len(), 2, "unpaired event in generated schedule");
                assert!(events[unit[0]].at < events[unit[1]].at);
                assert!(events[unit[0]].action.is_onset());
                assert!(!events[unit[1]].action.is_onset());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42, Some(InjectedBug::NoTimeoutBackoff));
        let b = generate(42, Some(InjectedBug::NoTimeoutBackoff));
        assert_eq!(
            serialize_case(&a, VerdictClass::Pass),
            serialize_case(&b, VerdictClass::Pass)
        );
        let c = generate(43, None);
        assert_ne!(
            serialize_case(&a, VerdictClass::Pass),
            serialize_case(&c, VerdictClass::Pass)
        );
    }

    #[test]
    fn verdict_class_names_roundtrip() {
        let all = [
            VerdictClass::Pass,
            VerdictClass::ChainDivergence,
            VerdictClass::LivenessStall,
        ]
        .into_iter()
        .chain(
            Invariant::ALL
                .into_iter()
                .map(VerdictClass::MonitorViolation),
        );
        for v in all {
            assert_eq!(VerdictClass::parse(v.as_str()), Some(v));
        }
        assert_eq!(VerdictClass::parse("bogus"), None);
    }

    #[test]
    fn reproducer_roundtrips_every_action_kind() {
        let schedule = FaultSchedule::new()
            .bipartition(9, 4, 5 * SEC, 20 * SEC)
            .asymmetric_partition(9, 7, 25 * SEC, 40 * SEC)
            .loss_window(0.123456789012345, 6 * SEC, 18 * SEC)
            .at(
                7 * SEC,
                FaultAction::DelaySpike {
                    factor: 2.7182818284590455,
                    extra: 99_999,
                },
            )
            .at(19 * SEC, FaultAction::DelayClear)
            .crash_restart(3, 8 * SEC, 30 * SEC)
            .at(
                9 * SEC,
                FaultAction::ClockSkew {
                    node: 1,
                    skew: -123_456,
                },
            )
            .at(33 * SEC, FaultAction::ClockSkew { node: 1, skew: 0 });
        let case = FuzzCase {
            case_seed: 7,
            seed: 0xDEAD_BEEF,
            n_users: 9,
            n_malicious: 1,
            adversary: AdversaryKind::Withholder,
            bug: Some(InjectedBug::IgnoreCatchupResponses),
            schedule,
        };
        let text = serialize_case(&case, VerdictClass::LivenessStall);
        let (parsed, verdict) = parse_case(&text).unwrap();
        assert_eq!(verdict, VerdictClass::LivenessStall);
        // Bit-exact roundtrip: re-serializing reproduces the same bytes
        // (floats use shortest-roundtrip formatting).
        assert_eq!(serialize_case(&parsed, verdict), text);
        assert_eq!(parsed.seed, case.seed);
        assert_eq!(parsed.bug, case.bug);
    }

    #[test]
    fn parser_rejects_malformed_reproducers() {
        // A complete header; every row but the first two breaks it once.
        let head = "case_seed=0\nseed=1\nn_users=4\nn_malicious=1\n\
                    adversary=equivocator\nbug=none\nverdict=pass";
        let repro = |header: &str| format!("{REPRO_HEADER}\n{header}\nend\n");
        let with = |from: &str, to: &str| repro(&head.replace(from, to));
        let rows = [
            ("not a repro".to_string(), "header"),
            (format!("{REPRO_HEADER}\n{head}\n"), "'end'"),
            (
                with("bug=none", "bug=none\nevent at=5 crash node=9"),
                "node 9 out of range",
            ),
            (with("verdict=pass", "verdict=nonsense"), "bad verdict"),
            (with("\nseed=1", ""), "missing seed="),
            (
                with("n_users=4", "n_users=4\nn_users=5"),
                "repeated header key n_users=",
            ),
            (with("n_users=4", "n_users=0"), "n_users=0"),
            (
                with("n_malicious=1", "n_malicious=4"),
                "n_malicious=4 >= n_users=4",
            ),
        ];
        for (text, problem) in rows {
            let err = parse_case(&text).expect_err(&text);
            assert!(err.contains(problem), "{text:?} gave {err:?}");
        }
        assert!(
            parse_case(&repro(head)).is_ok(),
            "the complete header parses"
        );
    }

    #[test]
    fn partition_shrink_halves_the_smallest_group() {
        let spec = PartitionSpec::bipartition(10, 6); // groups of 6 and 4
        let shrunk = shrink_partition(&spec).unwrap();
        let moved = shrunk.group_of.iter().filter(|&&g| g == 1).count();
        assert_eq!(moved, 2); // 4 → 2
        assert_eq!(shrunk.blocked, spec.blocked);
        // Shrinks to 1 member, then refuses to empty the group.
        let again = shrink_partition(&shrunk).unwrap();
        assert_eq!(again.group_of.iter().filter(|&&g| g == 1).count(), 1);
        assert!(shrink_partition(&again).is_none());
    }

    #[test]
    fn removal_units_pair_onsets_with_their_clears() {
        let events = FaultSchedule::new()
            .bipartition(8, 4, 10, 40)
            .crash_restart(2, 15, 35)
            .crash_restart(2, 50, 60) // same node, later window
            .at(20, FaultAction::Loss(0.4))
            .into_events();
        let units = removal_units(&events);
        // 3 pairs + 1 unpaired loss onset.
        assert_eq!(units.len(), 4);
        let singletons: Vec<_> = units.iter().filter(|u| u.len() == 1).collect();
        assert_eq!(singletons.len(), 1);
        assert!(matches!(
            events[singletons[0][0]].action,
            FaultAction::Loss(_)
        ));
    }
}
