//! Online protocol-invariant monitor fed from the live trace stream.
//!
//! Formal-verification work checks Algorand's safety invariants offline
//! on abstract models; this module runs the same checks *online* against
//! the real implementation. The adapter that runs the protocol owns one
//! [`InvariantMonitor`] and feeds it the stream it already reads: the
//! simulator the merged batch at each window barrier, a node what its
//! [`crate::Tracer`] recorded since the last read
//! ([`crate::Tracer::events_since`]), after every input. Either way the
//! monitor sees every event, in recording order, before a full buffer
//! can evict it, and it runs outside the tracer's lock.
//!
//! Checked invariants:
//!
//! 1. **No conflicting certificates** — no two *final* certificates for
//!    the same round carry different blocks (BA⋆ safety; tentative forks
//!    are legal under partition, §8.2, and only counted).
//! 2. **Committee bounds** — the network-wide deduplicated sub-user
//!    weight of every `(round, step)` committee stays under the binomial
//!    upper tail for the configured τ (§7.5). Only the upper tail is
//!    enforced: crashed or partitioned voters legitimately shrink the
//!    *observed* committee.
//! 3. **Seed-chain validity** — every appended block's seed verifies
//!    against the previous seed (VRF proposal or hash fallback, §5.2),
//!    and all nodes agree on a block's seed.
//! 4. **Vote accounting** — no `(voter, round, step)` is counted twice
//!    into any one node's tally (§8.4's one-vote rule), and a voter's
//!    sortition weight `j` is consistent across all observers.
//! 5. **FutureVotes staleness** — parked votes stay within the
//!    far-future window and the buffer occupancy bound.
//!
//! Scope: checks apply to events from *honest* nodes (ids below
//! [`MonitorConfig::honest_nodes`]); Byzantine nodes may claim anything.
//! Recovery-protocol engines carry no causal stamps and are excluded
//! from vote accounting by construction.

use crate::trace::{SpanKind, TraceEvent};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// How many rounds of committee / dedup state to retain behind the
/// latest observed round.
const RETAIN_ROUNDS: u64 = 16;
/// How many individual violations to keep verbatim (counters are exact).
const MAX_STORED: usize = 64;

/// The invariant classes the monitor enforces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Invariant {
    /// Two final certificates for one round with different blocks.
    ConflictingCertificates,
    /// A committee's deduplicated weight exceeded the binomial tail
    /// bound, or one voter reported inconsistent sortition weights.
    CommitteeBound,
    /// A block's seed failed verification, or nodes disagree on a
    /// block's seed.
    SeedChain,
    /// A `(voter, round, step)` triple entered one node's tally twice.
    VoteDoubleCount,
    /// A future vote parked beyond the window or past the buffer bound.
    FutureStaleness,
}

impl Invariant {
    /// All classes, in report order.
    pub const ALL: [Invariant; 5] = [
        Invariant::ConflictingCertificates,
        Invariant::CommitteeBound,
        Invariant::SeedChain,
        Invariant::VoteDoubleCount,
        Invariant::FutureStaleness,
    ];

    /// The class's report name.
    pub fn as_str(self) -> &'static str {
        match self {
            Invariant::ConflictingCertificates => "conflicting_certificates",
            Invariant::CommitteeBound => "committee_bound",
            Invariant::SeedChain => "seed_chain",
            Invariant::VoteDoubleCount => "vote_double_count",
            Invariant::FutureStaleness => "future_staleness",
        }
    }

    /// The class's position in [`Invariant::ALL`] (declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

/// One flagged violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// The round it broke in.
    pub round: u64,
    /// The node whose event exposed it.
    pub node: u32,
    /// Human-readable specifics.
    pub detail: String,
}

/// Static bounds the checks run against, computed by the harness from
/// the run's protocol parameters (the monitor itself stays math-free).
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Upper tail bound on a step committee's total sub-user weight.
    pub committee_hi_step: u64,
    /// Upper tail bound on the final committee's total sub-user weight.
    pub committee_hi_final: u64,
    /// Largest allowed `vote.round − current_round` for a parked vote.
    pub max_future_gap: u32,
    /// Largest allowed FutureVotes buffer occupancy.
    pub max_future_buffer: u64,
    /// Nodes `0..honest_nodes` are honest; events from others are
    /// counted but not violation-checked.
    pub honest_nodes: u32,
}

#[derive(Default)]
struct RoundState {
    /// Per step: network-wide deduplicated voter → sortition weight.
    committees: HashMap<u32, HashMap<u64, u64>>,
    /// Per step: running committee weight (sum of the map above).
    weights: HashMap<u32, u64>,
    /// Per (node, step): voters already counted into that node's tally.
    tallied: HashMap<(u32, u32), HashSet<u64>>,
}

/// Live observation counters — nonzero values prove the checks actually
/// saw traffic (the vacuity guard the CI suite asserts on).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Observed {
    /// Round conclusions checked (final + tentative).
    pub certificates: u64,
    /// Tally-add events checked.
    pub tally_adds: u64,
    /// Seed verdicts checked.
    pub seeds: u64,
    /// Future-vote parks checked.
    pub future_parks: u64,
    /// Largest deduplicated committee weight seen on any (round, step).
    pub max_committee: u64,
    /// Tentative (non-final) conflicting conclusions seen — legal under
    /// partition, reported for context.
    pub tentative_conflicts: u64,
}

/// The online checker: [`InvariantMonitor::observe`] every event, live
/// or parsed from an exported trace.
pub struct InvariantMonitor {
    cfg: MonitorConfig,
    finalized: HashMap<u64, u64>,
    tentative: HashMap<u64, u64>,
    rounds: BTreeMap<u64, RoundState>,
    seeds: HashMap<(u64, u64), u64>,
    max_round: u64,
    observed: Observed,
    counts: [u64; 5],
    stored: Vec<Violation>,
}

impl InvariantMonitor {
    /// A monitor with everything unobserved.
    pub fn new(cfg: MonitorConfig) -> InvariantMonitor {
        InvariantMonitor {
            cfg,
            finalized: HashMap::new(),
            tentative: HashMap::new(),
            rounds: BTreeMap::new(),
            seeds: HashMap::new(),
            max_round: 0,
            observed: Observed::default(),
            counts: [0; 5],
            stored: Vec::new(),
        }
    }

    fn flag(&mut self, invariant: Invariant, round: u64, node: u32, detail: String) {
        self.counts[invariant.index()] += 1;
        if self.stored.len() < MAX_STORED {
            self.stored.push(Violation {
                invariant,
                round,
                node,
                detail,
            });
        }
    }

    fn committee_hi(&self, step: u32) -> u64 {
        // Step code 0 is the final count (`StepKind::Final`); every other
        // code is a reduction or BinaryBA⋆ step committee.
        if step == 0 {
            self.cfg.committee_hi_final
        } else {
            self.cfg.committee_hi_step
        }
    }

    /// Checks one event. Order-sensitive state (restart slates, pruning)
    /// assumes recording order, which every feed keeps.
    pub fn observe(&mut self, ev: &TraceEvent) {
        match ev.kind {
            SpanKind::Round if ev.label == "final" || ev.label == "tentative" => {
                self.observe_round(ev)
            }
            SpanKind::Verify if ev.label == "seed" => self.observe_seed(ev),
            SpanKind::Tally if ev.label == "add" => self.observe_tally(ev),
            SpanKind::Tally if ev.label == "future" => self.observe_future(ev),
            SpanKind::Fault if ev.label == "restart" => {
                // A restarted node rebuilds its engines from its durable state
                // and legitimately re-tallies rounds it had in flight:
                // reset its per-node vote-accounting slate.
                for state in self.rounds.values_mut() {
                    state.tallied.retain(|(node, _), _| *node != ev.node);
                }
            }
            _ => {}
        }
    }

    fn note_round(&mut self, round: u64) {
        if round > self.max_round {
            self.max_round = round;
            let cutoff = self.max_round.saturating_sub(RETAIN_ROUNDS);
            self.rounds = self.rounds.split_off(&cutoff);
        }
    }

    fn observe_round(&mut self, ev: &TraceEvent) {
        self.observed.certificates += 1;
        self.note_round(ev.round);
        if ev.node >= self.cfg.honest_nodes || ev.id == 0 {
            return;
        }
        let first = if ev.ok {
            &mut self.finalized
        } else {
            &mut self.tentative
        };
        let prev = *first.entry(ev.round).or_insert(ev.id);
        if prev == ev.id {
            return;
        }
        if ev.ok {
            self.flag(
                Invariant::ConflictingCertificates,
                ev.round,
                ev.node,
                format!("final certificates for blocks {:#x} and {:#x}", prev, ev.id),
            );
        } else {
            self.observed.tentative_conflicts += 1;
        }
    }

    fn observe_seed(&mut self, ev: &TraceEvent) {
        self.observed.seeds += 1;
        if ev.node >= self.cfg.honest_nodes || ev.id == 0 {
            return;
        }
        if !ev.ok {
            self.flag(
                Invariant::SeedChain,
                ev.round,
                ev.node,
                format!("seed of block {:#x} failed verification", ev.id),
            );
        }
        let prev = *self.seeds.entry((ev.round, ev.id)).or_insert(ev.value);
        if prev != ev.value {
            self.flag(
                Invariant::SeedChain,
                ev.round,
                ev.node,
                format!(
                    "block {:#x} seen with seeds {:#x} and {:#x}",
                    ev.id, prev, ev.value
                ),
            );
        }
    }

    fn observe_tally(&mut self, ev: &TraceEvent) {
        self.observed.tally_adds += 1;
        self.note_round(ev.round);
        if ev.node >= self.cfg.honest_nodes || ev.cause == 0 {
            return;
        }
        if ev.round < self.max_round.saturating_sub(RETAIN_ROUNDS) {
            return; // slate already pruned; skip rather than miscount
        }
        let hi = self.committee_hi(ev.step);
        let voter = ev.cause;
        let state = self.rounds.entry(ev.round).or_default();
        // (4) per-node double-count.
        if !state
            .tallied
            .entry((ev.node, ev.step))
            .or_default()
            .insert(voter)
        {
            self.flag(
                Invariant::VoteDoubleCount,
                ev.round,
                ev.node,
                format!("voter {voter:#x} tallied twice at step {:#x}", ev.step),
            );
            return;
        }
        // (2) network-wide committee weight, deduplicated by voter.
        let step_committee = state.committees.entry(ev.step).or_default();
        match step_committee.get(&voter) {
            Some(&j) if j != ev.value => {
                self.flag(
                    Invariant::CommitteeBound,
                    ev.round,
                    ev.node,
                    format!(
                        "voter {voter:#x} weight {} vs {} at step {:#x}",
                        ev.value, j, ev.step
                    ),
                );
            }
            Some(_) => {}
            None => {
                step_committee.insert(voter, ev.value);
                let w = state.weights.entry(ev.step).or_insert(0);
                *w += ev.value;
                if *w > self.observed.max_committee {
                    self.observed.max_committee = *w;
                }
                if *w > hi {
                    let w = *w;
                    self.flag(
                        Invariant::CommitteeBound,
                        ev.round,
                        ev.node,
                        format!("committee weight {w} > bound {hi} at step {:#x}", ev.step),
                    );
                }
            }
        }
    }

    fn observe_future(&mut self, ev: &TraceEvent) {
        self.observed.future_parks += 1;
        if ev.node >= self.cfg.honest_nodes {
            return;
        }
        if ev.step > self.cfg.max_future_gap {
            self.flag(
                Invariant::FutureStaleness,
                ev.round,
                ev.node,
                format!(
                    "vote parked {} rounds ahead (window {})",
                    ev.step, self.cfg.max_future_gap
                ),
            );
        }
        if ev.value > self.cfg.max_future_buffer {
            self.flag(
                Invariant::FutureStaleness,
                ev.round,
                ev.node,
                format!(
                    "future buffer at {} (bound {})",
                    ev.value, self.cfg.max_future_buffer
                ),
            );
        }
    }

    /// The checked-stream summary.
    pub fn report(&self) -> MonitorReport {
        MonitorReport {
            observed: self.observed,
            counts: Invariant::ALL.map(|i| (i, self.counts[i.index()])),
            violations: self.stored.clone(),
        }
    }
}

/// A point-in-time summary of the monitor's state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MonitorReport {
    /// What the checks saw (vacuity guard).
    pub observed: Observed,
    /// Exact violation count per invariant class.
    pub counts: [(Invariant, u64); 5],
    /// The first `MAX_STORED` (64) violations, verbatim.
    pub violations: Vec<Violation>,
}

impl MonitorReport {
    /// Total violations across all classes.
    pub fn total_violations(&self) -> u64 {
        self.counts.iter().map(|(_, n)| n).sum()
    }

    /// Violations of one class.
    pub fn count(&self, invariant: Invariant) -> u64 {
        self.counts[invariant.index()].1
    }

    /// The first invariant class (in [`Invariant::ALL`] order) with a
    /// nonzero count, or `None` for a clean report. Automated oracles
    /// (the schedule fuzzer) classify a failing run by this.
    pub fn verdict_class(&self) -> Option<Invariant> {
        self.counts
            .iter()
            .find(|(_, n)| *n > 0)
            .map(|(inv, _)| *inv)
    }

    /// A machine-readable one-line summary with a fixed field order.
    /// Byte-stable for identical reports, so campaign logs built from it
    /// diff cleanly across reruns.
    pub fn machine_line(&self) -> String {
        let mut line = format!(
            "monitor total={} certs={} tallies={} seeds={} parks={} max_committee={} tentative_conflicts={}",
            self.total_violations(),
            self.observed.certificates,
            self.observed.tally_adds,
            self.observed.seeds,
            self.observed.future_parks,
            self.observed.max_committee,
            self.observed.tentative_conflicts,
        );
        for (inv, n) in self.counts {
            line.push_str(&format!(" {}={}", inv.as_str(), n));
        }
        line
    }
}

impl fmt::Display for MonitorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "invariant monitor: {} violation(s) | checked {} certs, {} tally adds, {} seeds, {} future parks | max committee {} | tentative conflicts {}",
            self.total_violations(),
            self.observed.certificates,
            self.observed.tally_adds,
            self.observed.seeds,
            self.observed.future_parks,
            self.observed.max_committee,
            self.observed.tentative_conflicts,
        )?;
        for (inv, n) in self.counts {
            writeln!(f, "  {:<26} {}", inv.as_str(), n)?;
        }
        for v in &self.violations {
            writeln!(
                f,
                "  VIOLATION [{}] round {} node {}: {}",
                v.invariant.as_str(),
                v.round,
                v.node,
                v.detail
            )?;
        }
        Ok(())
    }
}

/// Deliberate violation injection: feeds one synthetic violating stream
/// per invariant class into a fresh monitor and verifies each is
/// flagged (and nothing else is). This is the self-test the CI suite
/// runs — a monitor that cannot flag a planted violation proves
/// nothing by staying silent on real runs.
///
/// # Errors
///
/// Returns which injection went undetected (or spuriously fired).
pub fn violation_selftest() -> Result<(), String> {
    use crate::trace::Tracer;

    let cfg = MonitorConfig {
        committee_hi_step: 100,
        committee_hi_final: 120,
        max_future_gap: 3,
        max_future_buffer: 8,
        honest_nodes: 4,
    };
    let inject = |expected: Invariant, feed: &dyn Fn(&Tracer)| -> Result<(), String> {
        let tracer = Tracer::bounded(64);
        feed(&tracer);
        let mut monitor = InvariantMonitor::new(cfg);
        for ev in tracer.events() {
            monitor.observe(&ev);
        }
        let report = monitor.report();
        if report.count(expected) == 0 {
            return Err(format!("injected {} went undetected", expected.as_str()));
        }
        for (inv, n) in report.counts {
            if inv != expected && n != 0 {
                return Err(format!(
                    "injection of {} spuriously flagged {}",
                    expected.as_str(),
                    inv.as_str()
                ));
            }
        }
        Ok(())
    };

    inject(Invariant::ConflictingCertificates, &|t| {
        t.span(SpanKind::Round, 0, 5, 0)
            .label("final")
            .id(0xaa)
            .ok(true)
            .end_at(10);
        t.span(SpanKind::Round, 1, 5, 0)
            .label("final")
            .id(0xbb)
            .ok(true)
            .end_at(12);
    })?;
    inject(Invariant::CommitteeBound, &|t| {
        // Two voters whose combined weight bursts the step bound.
        t.span(SpanKind::Tally, 0, 5, 0)
            .step(1)
            .label("add")
            .id(1)
            .cause(0xa1)
            .value(60)
            .instant();
        t.span(SpanKind::Tally, 0, 5, 0)
            .step(1)
            .label("add")
            .id(2)
            .cause(0xa2)
            .value(70)
            .instant();
    })?;
    inject(Invariant::SeedChain, &|t| {
        t.span(SpanKind::Verify, 2, 7, 0)
            .label("seed")
            .id(0xcc)
            .value(0xd1)
            .ok(false)
            .instant();
    })?;
    inject(Invariant::VoteDoubleCount, &|t| {
        t.span(SpanKind::Tally, 3, 5, 0)
            .step(2)
            .label("add")
            .id(1)
            .cause(0xa1)
            .value(2)
            .instant();
        t.span(SpanKind::Tally, 3, 5, 0)
            .step(2)
            .label("add")
            .id(9)
            .cause(0xa1)
            .value(2)
            .instant();
    })?;
    inject(Invariant::FutureStaleness, &|t| {
        // Parked 5 rounds ahead of the window's 3.
        t.span(SpanKind::Tally, 0, 9, 0)
            .step(5)
            .label("future")
            .id(1)
            .cause(0xa1)
            .value(1)
            .instant();
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn cfg() -> MonitorConfig {
        MonitorConfig {
            committee_hi_step: 100,
            committee_hi_final: 120,
            max_future_gap: 3,
            max_future_buffer: 8,
            honest_nodes: 4,
        }
    }

    #[test]
    fn clean_stream_reports_zero_violations() {
        let t = Tracer::bounded(64);
        // Two nodes agree on round 5, tallies stay deduped and bounded,
        // seeds verify, a future vote parks within the window.
        t.span(SpanKind::Tally, 0, 5, 0)
            .step(1)
            .label("add")
            .id(1)
            .cause(0xa1)
            .value(40)
            .instant();
        t.span(SpanKind::Tally, 1, 5, 0)
            .step(1)
            .label("add")
            .id(1)
            .cause(0xa1)
            .value(40)
            .instant();
        t.span(SpanKind::Tally, 0, 5, 0)
            .label("add")
            .id(2)
            .cause(0xa2)
            .value(90)
            .instant();
        t.span(SpanKind::Tally, 0, 6, 0)
            .step(1)
            .label("future")
            .id(3)
            .cause(0xa3)
            .value(2)
            .instant();
        t.span(SpanKind::Verify, 0, 5, 0)
            .label("seed")
            .id(0xcc)
            .value(0xd1)
            .ok(true)
            .instant();
        t.span(SpanKind::Verify, 1, 5, 0)
            .label("seed")
            .id(0xcc)
            .value(0xd1)
            .ok(true)
            .instant();
        t.span(SpanKind::Round, 0, 5, 0)
            .label("final")
            .id(0xcc)
            .ok(true)
            .end_at(10);
        t.span(SpanKind::Round, 1, 5, 0)
            .label("final")
            .id(0xcc)
            .ok(true)
            .end_at(12);
        let mut m = InvariantMonitor::new(cfg());
        for ev in t.events() {
            m.observe(&ev);
        }
        let r = m.report();
        assert_eq!(r.total_violations(), 0, "{r}");
        assert_eq!(r.observed.certificates, 2);
        assert_eq!(r.observed.tally_adds, 3);
        assert_eq!(r.observed.future_parks, 1);
        assert_eq!(r.observed.max_committee, 90);
    }

    #[test]
    fn tentative_conflicts_are_counted_not_flagged() {
        let mut m = InvariantMonitor::new(cfg());
        let t = Tracer::bounded(8);
        t.span(SpanKind::Round, 0, 4, 0)
            .label("tentative")
            .id(0xaa)
            .ok(false)
            .end_at(5);
        t.span(SpanKind::Round, 1, 4, 0)
            .label("tentative")
            .id(0xbb)
            .ok(false)
            .end_at(6);
        for ev in t.events() {
            m.observe(&ev);
        }
        let r = m.report();
        assert_eq!(r.total_violations(), 0);
        assert_eq!(r.observed.tentative_conflicts, 1);
    }

    #[test]
    fn byzantine_nodes_are_exempt() {
        let mut m = InvariantMonitor::new(cfg());
        let t = Tracer::bounded(8);
        // Node 7 is beyond honest_nodes = 4: its claims don't flag.
        t.span(SpanKind::Round, 0, 4, 0)
            .label("final")
            .id(0xaa)
            .ok(true)
            .end_at(5);
        t.span(SpanKind::Round, 7, 4, 0)
            .label("final")
            .id(0xbb)
            .ok(true)
            .end_at(6);
        for ev in t.events() {
            m.observe(&ev);
        }
        assert_eq!(m.report().total_violations(), 0);
    }

    #[test]
    fn restart_resets_the_nodes_tally_slate() {
        let mut m = InvariantMonitor::new(cfg());
        let t = Tracer::bounded(8);
        t.span(SpanKind::Tally, 2, 5, 0)
            .step(1)
            .label("add")
            .id(1)
            .cause(0xa1)
            .value(3)
            .instant();
        t.span(SpanKind::Fault, 2, 0, 0).label("restart").instant();
        // Same (voter, round, step) at the same node, post-restart: the
        // rebuilt engine legitimately re-tallies.
        t.span(SpanKind::Tally, 2, 5, 0)
            .step(1)
            .label("add")
            .id(1)
            .cause(0xa1)
            .value(3)
            .instant();
        for ev in t.events() {
            m.observe(&ev);
        }
        let r = m.report();
        assert_eq!(r.count(Invariant::VoteDoubleCount), 0, "{r}");
        // And the committee stays deduplicated (weight counted once).
        assert_eq!(r.observed.max_committee, 3);
    }

    #[test]
    fn selftest_flags_every_injection() {
        violation_selftest().unwrap();
    }

    #[test]
    fn verdict_class_and_machine_line() {
        let mut m = InvariantMonitor::new(cfg());
        assert_eq!(m.report().verdict_class(), None);
        let t = Tracer::bounded(8);
        t.span(SpanKind::Round, 0, 4, 0)
            .label("final")
            .id(0xaa)
            .ok(true)
            .end_at(5);
        t.span(SpanKind::Round, 1, 4, 0)
            .label("final")
            .id(0xbb)
            .ok(true)
            .end_at(6);
        for ev in t.events() {
            m.observe(&ev);
        }
        let r = m.report();
        assert_eq!(r.verdict_class(), Some(Invariant::ConflictingCertificates));
        let line = r.machine_line();
        assert!(line.starts_with("monitor total=1 certs=2 "), "{line}");
        assert!(line.contains(" conflicting_certificates=1"), "{line}");
        assert!(line.contains(" seed_chain=0"), "{line}");
        // Byte-stable across repeated renders of the same report.
        assert_eq!(line, r.machine_line());
    }
}
