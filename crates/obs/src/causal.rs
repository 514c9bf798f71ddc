//! Happens-before graph construction and critical-path extraction.
//!
//! PR 4's trace layer aggregates span durations per node; this module
//! answers the sharper §10 question: *which* message chain actually gated
//! a round's finalization. Every causal event carries a stable `id` and a
//! `cause` link (see [`crate::TraceEvent`]); walking those links backward
//! from a round's certificate reconstructs the gating chain — proposer's
//! round start, block gossip hops, reduction and BinaryBA⋆ step waits,
//! vote hops, verifies, and the final count — as a contiguous sequence of
//! timed edges whose summed durations account for the round's measured
//! finalization latency.
//!
//! Two id namespaces are in play:
//!
//! - **message ids** ([`crate::stable_id`] of the 32-byte gossip message
//!   id): stamped on gossip hops, verify verdicts, tally adds, and vote
//!   emissions (the `committee` sortition span of the emitted vote);
//! - **phase span ids** ([`crate::span_id`] over `(node, round, step,
//!   tag)`): deterministic, computable by producer and consumer alike,
//!   stamped on proposal spans ([`proposal_span_id`]) and BA⋆ step spans
//!   ([`step_span_id`]).
//!
//! The `cause` links thread them together: a concluded step's cause is
//! the gating vote's message id, a vote emission's predecessor is the
//! phase that concluded at the emission instant, a proposal span's cause
//! is the adopted block's message id, and a round span's cause is the
//! final-count step span.

use crate::trace::{span_id, Micros, SpanKind, TraceEvent, NO_NODE};
use std::collections::{BTreeSet, HashMap};

/// Span-id namespace tag for per-node proposal phases.
pub const TAG_PROPOSAL: u8 = 1;
/// Span-id namespace tag for per-node BA⋆ step conclusions.
pub const TAG_STEP: u8 = 2;

/// The deterministic id of node's proposal phase in a round.
pub fn proposal_span_id(node: u32, round: u64) -> u64 {
    span_id(node, round, 0, TAG_PROPOSAL)
}

/// The deterministic id of a node's BA⋆ step conclusion in a round.
pub fn step_span_id(node: u32, round: u64, step: u32) -> u64 {
    span_id(node, round, step, TAG_STEP)
}

/// The latency category an edge is attributed to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum EdgeKind {
    /// Proposal-phase time: block assembly, priority window, adoption wait.
    Proposal,
    /// A gossip hop (or intermediate relay turnaround) of a message body.
    Gossip,
    /// A verification verdict on the gating message.
    Verify,
    /// A BA⋆ step wait: from gating-vote arrival (or step entry, on
    /// timeout) to the step's conclusion, plus vote emissions.
    BaStep,
}

impl EdgeKind {
    /// The category's report name.
    pub fn as_str(self) -> &'static str {
        match self {
            EdgeKind::Proposal => "proposal",
            EdgeKind::Gossip => "gossip",
            EdgeKind::Verify => "verify",
            EdgeKind::BaStep => "ba_step",
        }
    }
}

/// One timed edge of a round's critical path.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Attribution category.
    pub kind: EdgeKind,
    /// What happened in this interval (`"vote"` hop, `"binary"` wait, …).
    pub label: String,
    /// Where the interval began (the sender, for gossip hops).
    pub from_node: u32,
    /// Where the interval ended.
    pub to_node: u32,
    /// Interval start, µs.
    pub start: Micros,
    /// Interval end, µs.
    pub end: Micros,
    /// Wire bytes carried, for gossip hops (0 otherwise).
    pub bytes: u64,
    /// Sender's send-queue depth when the hop was enqueued, for gossip
    /// hops on merged cluster traces (0 otherwise).
    pub queue_depth: u32,
}

impl Edge {
    /// The edge's latency contribution.
    pub fn duration(&self) -> Micros {
        self.end.saturating_sub(self.start)
    }
}

/// The gating chain of one round, origin → certificate, contiguous in
/// time (each edge starts where the previous one ended).
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// The round this chain finalizes.
    pub round: u64,
    /// The first node to conclude the round (the walk's anchor).
    pub finalizer: u32,
    /// Whether the anchor reached final (vs tentative) consensus.
    pub final_consensus: bool,
    /// The anchor node's round start (latency denominator).
    pub round_start: Micros,
    /// The anchor node's conclusion instant.
    pub finalized_at: Micros,
    /// The chain, in time order.
    pub edges: Vec<Edge>,
}

impl CriticalPath {
    /// The round's measured finalization latency at the anchor node.
    pub fn latency(&self) -> Micros {
        self.finalized_at.saturating_sub(self.round_start)
    }

    /// Summed edge durations (equals conclusion minus chain origin).
    pub fn attributed(&self) -> Micros {
        self.edges.iter().map(Edge::duration).sum()
    }

    /// Fraction of the measured latency the chain accounts for. Can
    /// slightly exceed 1 when the chain's origin (the proposer's round
    /// start) predates the anchor node's own round start.
    pub fn coverage(&self) -> f64 {
        if self.latency() == 0 {
            return 1.0;
        }
        self.attributed() as f64 / self.latency() as f64
    }

    /// Total µs per category, in [`EdgeKind`] order.
    pub fn attribution(&self) -> [(EdgeKind, Micros); 4] {
        let mut out = [
            (EdgeKind::Proposal, 0),
            (EdgeKind::Gossip, 0),
            (EdgeKind::Verify, 0),
            (EdgeKind::BaStep, 0),
        ];
        for e in &self.edges {
            let slot = out.iter_mut().find(|(k, _)| *k == e.kind).expect("kind");
            slot.1 += e.duration();
        }
        out
    }

    /// The nodes — on a merged cluster trace, the processes — this chain
    /// touches.
    pub fn processes(&self) -> BTreeSet<u32> {
        self.edges
            .iter()
            .flat_map(|e| [e.from_node, e.to_node])
            .filter(|n| *n != NO_NODE)
            .collect()
    }
}

/// The bar a trace's critical paths must clear to count as a profile of
/// its rounds.
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    /// Fewest rounds that must yield a path.
    pub min_rounds: usize,
    /// Least share of each finalized round's latency its chain explains.
    pub min_coverage: f64,
    /// Whether some chain must cross from one process to another.
    pub cross_process: bool,
}

impl Gate {
    /// A merged cluster trace. Per-node clocks agree exactly only at the
    /// anchor instants, so fused hops carry skew residue a single clock
    /// never sees; a merge that no chain crosses proves nothing; and one
    /// profiled round could be a lucky one. Five rounds is what the
    /// `localnet` gate's phase A profiles.
    pub const CLUSTER: Gate = Gate {
        min_rounds: 5,
        min_coverage: 0.90,
        cross_process: true,
    };

    /// Every way `paths` fall short of the bar; empty when they clear it.
    /// Each chain must be contiguous (an edge starts where the previous
    /// one ended) and pass through the proposal phase — it may begin with
    /// the block body's hops, since the walk descends past the proposal
    /// span to the proposer — so an empty chain fails too.
    pub fn check(&self, paths: &[CriticalPath]) -> Vec<String> {
        let mut problems = Vec::new();
        if paths.len() < self.min_rounds {
            problems.push(format!(
                "only {} of {} rounds produced a critical path",
                paths.len(),
                self.min_rounds
            ));
        }
        for p in paths {
            if let Some(pair) = p.edges.windows(2).find(|w| w[1].start != w[0].end) {
                problems.push(format!(
                    "round {}: chain not contiguous at t={}us ({} -> {})",
                    p.round, pair[0].end, pair[0].label, pair[1].label
                ));
            }
            if !p.edges.iter().any(|e| e.kind == EdgeKind::Proposal) {
                problems.push(format!(
                    "round {}: chain never passes through the proposal phase",
                    p.round
                ));
            }
            if p.final_consensus && p.coverage() < self.min_coverage {
                problems.push(format!(
                    "round {}: coverage {:.1}% below the {:.0}% bar",
                    p.round,
                    p.coverage() * 100.0,
                    self.min_coverage * 100.0
                ));
            }
        }
        if self.cross_process && !paths.iter().any(|p| p.processes().len() > 1) {
            problems.push("no chain crosses a process boundary".into());
        }
        problems
    }
}

/// A backward-walk point: the instant an activity *completed*. The edge
/// between two consecutive points takes its category from the later one.
struct Point {
    t: Micros,
    node: u32,
    from: u32,
    kind: EdgeKind,
    label: String,
    bytes: u64,
    queue_depth: u32,
}

impl Point {
    fn new(t: Micros, node: u32, from: u32, kind: EdgeKind, label: String) -> Point {
        Point {
            t,
            node,
            from,
            kind,
            label,
            bytes: 0,
            queue_depth: 0,
        }
    }
}

/// Index of a trace's causal events, ready for backward walks.
pub struct CausalGraph<'a> {
    /// BA⋆ step conclusions by phase span id.
    steps_by_id: HashMap<u64, (usize, &'a TraceEvent)>,
    /// Per (node, round): step conclusions in recording order — the
    /// recording order is the causal order within one engine, which
    /// disambiguates same-instant conclusions (catch-up replay).
    steps_seq: HashMap<(u32, u64), Vec<(usize, &'a TraceEvent)>>,
    /// Vote emissions (committee sortition spans) by vote message id.
    emissions: HashMap<u64, (usize, &'a TraceEvent)>,
    /// Per message id: first arrival hop per receiving node.
    hops: HashMap<u64, HashMap<u32, &'a TraceEvent>>,
    /// Verify verdicts by (message id, node).
    verifies: HashMap<(u64, u32), &'a TraceEvent>,
    /// Proposal phases by (node, round).
    proposals: HashMap<(u32, u64), &'a TraceEvent>,
    /// Round conclusions, in recording order.
    rounds: Vec<&'a TraceEvent>,
}

impl<'a> CausalGraph<'a> {
    /// Indexes the causally-stamped events of a trace. Events with
    /// `id == 0` (pre-causal traces, recovery-protocol engines, bandwidth
    /// summaries) are ignored except for round and proposal spans, which
    /// are keyed structurally.
    pub fn build(events: &'a [TraceEvent]) -> CausalGraph<'a> {
        let mut g = CausalGraph {
            steps_by_id: HashMap::new(),
            steps_seq: HashMap::new(),
            emissions: HashMap::new(),
            hops: HashMap::new(),
            verifies: HashMap::new(),
            proposals: HashMap::new(),
            rounds: Vec::new(),
        };
        for (idx, ev) in events.iter().enumerate() {
            match ev.kind {
                SpanKind::BaStep if ev.id != 0 => {
                    g.steps_by_id.entry(ev.id).or_insert((idx, ev));
                    g.steps_seq
                        .entry((ev.node, ev.round))
                        .or_default()
                        .push((idx, ev));
                }
                SpanKind::Sortition if ev.id != 0 && ev.label == "committee" => {
                    g.emissions.entry(ev.id).or_insert((idx, ev));
                }
                SpanKind::GossipHop if ev.id != 0 => {
                    let per_node = g.hops.entry(ev.id).or_default();
                    let slot = per_node.entry(ev.node).or_insert(ev);
                    if ev.end < slot.end {
                        *slot = ev;
                    }
                }
                SpanKind::Verify if ev.id != 0 && ev.label != "seed" => {
                    g.verifies.entry((ev.id, ev.node)).or_insert(ev);
                }
                SpanKind::Proposal => {
                    g.proposals.entry((ev.node, ev.round)).or_insert(ev);
                }
                SpanKind::Round => g.rounds.push(ev),
                _ => {}
            }
        }
        g
    }

    /// The rounds with at least one recorded conclusion, ascending.
    pub fn rounds(&self) -> Vec<u64> {
        let mut rs: Vec<u64> = self.rounds.iter().map(|ev| ev.round).collect();
        rs.sort_unstable();
        rs.dedup();
        rs
    }

    /// Walks the gating chain of `round` backward from its first
    /// conclusion. Returns `None` when the round never concluded in the
    /// trace.
    pub fn critical_path(&self, round: u64) -> Option<CriticalPath> {
        // Anchor on the earliest conclusion, preferring finalized ones.
        let anchor = self
            .rounds
            .iter()
            .filter(|ev| ev.round == round)
            .min_by_key(|ev| (!ev.ok, ev.end, ev.node))?;

        let mut pts: Vec<Point> = Vec::new();
        // Built backward: each push clamps to keep times non-increasing,
        // so the forward chain is contiguous even under defects.
        let mut push = |pts: &mut Vec<Point>, mut p: Point| {
            if let Some(last) = pts.last() {
                if p.t > last.t {
                    p.t = last.t;
                }
            }
            pts.push(p);
        };

        // The round concludes the instant its final count does; start the
        // walk at that step (falling back to the node's last step span).
        let mut cur = self
            .steps_by_id
            .get(&anchor.cause)
            .or_else(|| {
                self.steps_seq
                    .get(&(anchor.node, round))
                    .and_then(|seq| seq.last())
            })
            .copied()?;

        // Steps already on the path. A merged trace sorts same-instant
        // events by kind, not recording order, so a step gated by its own
        // node's vote can sort before that vote's emission; the walk never
        // steps back onto the path, and so always ends.
        let mut on_path = BTreeSet::new();
        loop {
            let (idx, st) = cur;
            on_path.insert(idx);
            push(
                &mut pts,
                Point::new(
                    st.end,
                    st.node,
                    st.node,
                    EdgeKind::BaStep,
                    st.label.to_string(),
                ),
            );
            if st.cause == 0 {
                // Timeout conclusion: the wait spans the whole step
                // window; the predecessor concluded at the window's start.
                match self.prev_phase(st.node, round, idx, &on_path) {
                    Some(prev) => cur = prev,
                    None => {
                        self.descend_proposal(st.node, round, &mut pts, &mut push);
                        break;
                    }
                }
                continue;
            }
            let Some(&(eidx, em)) = self.emissions.get(&st.cause) else {
                // Unknown gating vote (forged / untraced): attribute the
                // remainder to the step window and stop.
                push(
                    &mut pts,
                    Point::new(
                        st.start,
                        st.node,
                        st.node,
                        EdgeKind::BaStep,
                        "untraced".into(),
                    ),
                );
                break;
            };
            if em.node != st.node {
                if let Some(v) = self.verifies.get(&(st.cause, st.node)) {
                    push(
                        &mut pts,
                        Point::new(
                            v.end,
                            st.node,
                            st.node,
                            EdgeKind::Verify,
                            v.label.to_string(),
                        ),
                    );
                }
                self.walk_hops(st.cause, st.node, em.node, &mut pts, &mut push);
            }
            push(
                &mut pts,
                Point::new(em.start, em.node, em.node, EdgeKind::BaStep, "emit".into()),
            );
            match self.prev_phase(em.node, round, eidx, &on_path) {
                Some(prev) => cur = prev,
                None => {
                    self.descend_proposal(em.node, round, &mut pts, &mut push);
                    break;
                }
            }
        }

        pts.reverse();
        let edges = pts
            .windows(2)
            .map(|w| Edge {
                kind: w[1].kind,
                label: w[1].label.clone(),
                from_node: w[1].from,
                to_node: w[1].node,
                start: w[0].t,
                end: w[1].t,
                bytes: w[1].bytes,
                queue_depth: w[1].queue_depth,
            })
            .collect();
        Some(CriticalPath {
            round,
            finalizer: anchor.node,
            final_consensus: anchor.ok,
            round_start: anchor.start,
            finalized_at: anchor.end,
            edges,
        })
    }

    /// The step conclusion recorded at `node` for `round` immediately
    /// before buffer index `before`, and not already in `on_path` — the
    /// phase whose conclusion triggered whatever happened at `before`.
    fn prev_phase(
        &self,
        node: u32,
        round: u64,
        before: usize,
        on_path: &BTreeSet<usize>,
    ) -> Option<(usize, &'a TraceEvent)> {
        self.steps_seq
            .get(&(node, round))?
            .iter()
            .rev()
            .find(|(i, _)| *i < before && !on_path.contains(i))
            .copied()
    }

    /// Backward hop chain of message `id` from `to` towards `origin`.
    fn walk_hops(
        &self,
        id: u64,
        to: u32,
        origin: u32,
        pts: &mut Vec<Point>,
        push: &mut impl FnMut(&mut Vec<Point>, Point),
    ) {
        let Some(per_node) = self.hops.get(&id) else {
            return;
        };
        let mut at = to;
        for _ in 0..per_node.len() + 1 {
            if at == origin {
                break;
            }
            let Some(h) = per_node.get(&at) else { break };
            push(
                pts,
                Point {
                    bytes: h.value,
                    queue_depth: h.step,
                    ..Point::new(h.end, h.node, h.peer, EdgeKind::Gossip, h.label.to_string())
                },
            );
            push(
                pts,
                Point::new(h.start, h.peer, h.peer, EdgeKind::Gossip, "relay".into()),
            );
            at = h.peer;
        }
    }

    /// Descends into `node`'s proposal phase: adoption wait, the adopted
    /// block's hop chain, and the proposer's round start (the chain
    /// origin).
    fn descend_proposal(
        &self,
        node: u32,
        round: u64,
        pts: &mut Vec<Point>,
        push: &mut impl FnMut(&mut Vec<Point>, Point),
    ) {
        let Some(p) = self.proposals.get(&(node, round)) else {
            return;
        };
        push(
            pts,
            Point::new(p.end, node, node, EdgeKind::Proposal, "adopt".into()),
        );
        if p.cause != 0 {
            self.walk_hops(p.cause, node, u32::MAX, pts, push);
            // Wherever the hop chain stopped is the proposer; anchor the
            // origin at its round start if its proposal span is present.
            let origin_node = pts.last().map_or(node, |pt| pt.from);
            if let Some(pp) = self.proposals.get(&(origin_node, round)) {
                push(
                    pts,
                    Point::new(
                        pp.start,
                        origin_node,
                        origin_node,
                        EdgeKind::Proposal,
                        "origin".into(),
                    ),
                );
            }
        } else {
            push(
                pts,
                Point::new(p.start, node, node, EdgeKind::Proposal, "origin".into()),
            );
        }
    }
}

/// Extracts the critical path of every concluded round in a trace.
pub fn critical_paths(events: &[TraceEvent]) -> Vec<CriticalPath> {
    let g = CausalGraph::build(events);
    g.rounds()
        .into_iter()
        .filter_map(|r| g.critical_path(r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{stable_id, Tracer};

    /// A hand-built two-node round: node 0 proposes at t=0, the block
    /// reaches node 1 at t=100, both run a reduction + binary + final
    /// chain where node 1's final vote (emitted at its binary conclusion,
    /// t=300) gates node 0's final count at t=400.
    fn synthetic_round() -> Vec<crate::TraceEvent> {
        let t = Tracer::bounded(64);
        let block = stable_id(&[7u8; 32]);
        let vote = stable_id(&[9u8; 32]);
        let r = 1u64;
        // Node 1's step chain, recording order = causal order.
        t.span(SpanKind::BaStep, 1, r, 100)
            .step(u32::MAX - 1)
            .label("reduction1")
            .id(step_span_id(1, r, u32::MAX - 1))
            .end_at(200);
        t.span(SpanKind::BaStep, 1, r, 200)
            .step(1)
            .label("binary")
            .id(step_span_id(1, r, 1))
            .end_at(300);
        // Node 1 emits its final vote on concluding the binary step.
        t.span(SpanKind::Sortition, 1, r, 300)
            .label("committee")
            .id(vote)
            .value(3)
            .instant();
        // The vote hops 1 → 0 and is verified there.
        t.span(SpanKind::GossipHop, 0, r, 300)
            .label("vote")
            .id(vote)
            .peer(1)
            .end_at(380);
        t.span(SpanKind::Verify, 0, r, 380)
            .label("vote")
            .id(vote)
            .instant();
        // Node 0's final count concludes on that vote.
        t.span(SpanKind::BaStep, 0, r, 320)
            .label("final")
            .id(step_span_id(0, r, 0))
            .cause(vote)
            .end_at(400);
        // Proposal phases: node 0 proposed (own block), node 1 adopted it
        // after one hop.
        t.span(SpanKind::GossipHop, 1, r, 10)
            .label("block_body")
            .id(block)
            .peer(0)
            .end_at(100);
        t.span(SpanKind::Proposal, 0, r, 0)
            .id(proposal_span_id(0, r))
            .cause(block)
            .end_at(90);
        t.span(SpanKind::Proposal, 1, r, 0)
            .id(proposal_span_id(1, r))
            .cause(block)
            .end_at(100);
        // Node 0's round concludes with the final count.
        t.span(SpanKind::Round, 0, r, 0)
            .label("final")
            .id(block)
            .cause(step_span_id(0, r, 0))
            .ok(true)
            .end_at(400);
        t.events()
    }

    #[test]
    fn walks_certificate_back_to_the_proposal() {
        let events = synthetic_round();
        let paths = critical_paths(&events);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.round, 1);
        assert_eq!(p.finalizer, 0);
        assert!(p.final_consensus);
        assert_eq!(p.latency(), 400);
        // Contiguous: attributed == finalized_at − origin == 400 − 0.
        assert_eq!(p.attributed(), 400);
        assert!(p.coverage() >= 0.95);
        // The chain crosses: node1 proposal adoption → block hop from 0
        // → … → vote hop to 0 → final count. Origin must be node 0's
        // proposal (round start 0), end the final conclusion.
        assert_eq!(p.edges.first().unwrap().start, 0);
        assert_eq!(p.edges.last().unwrap().end, 400);
        assert!(p.edges.iter().any(|e| e.kind == EdgeKind::Gossip
            && e.label == "vote"
            && e.from_node == 1
            && e.to_node == 0));
        assert!(p
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::Gossip && e.label == "block_body"));
        assert!(p
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::BaStep && e.label == "final"));
        // Attribution sums back to the total.
        let total: u64 = p.attribution().iter().map(|(_, v)| v).sum();
        assert_eq!(total, p.attributed());
    }

    #[test]
    fn a_step_sorted_before_its_own_gating_vote_does_not_loop_the_walk() {
        // A merged trace sorts same-instant events by kind: node 0's step
        // 2, gated by node 0's own vote, lands before that vote's
        // emission. The walk goes from the emission on to step 1.
        let t = Tracer::bounded(16);
        let vote = stable_id(&[5u8; 32]);
        let r = 3u64;
        t.span(SpanKind::BaStep, 0, r, 100)
            .step(1)
            .label("binary")
            .id(step_span_id(0, r, 1))
            .end_at(200);
        t.span(SpanKind::BaStep, 0, r, 200)
            .step(2)
            .label("binary")
            .id(step_span_id(0, r, 2))
            .cause(vote)
            .end_at(200);
        t.span(SpanKind::Sortition, 0, r, 200)
            .label("committee")
            .id(vote)
            .value(1)
            .instant();
        t.span(SpanKind::Round, 0, r, 0)
            .label("final")
            .cause(step_span_id(0, r, 2))
            .ok(true)
            .end_at(200);
        let events = t.events();
        let paths = critical_paths(&events);
        assert_eq!(paths.len(), 1);
        let emits = paths[0].edges.iter().filter(|e| e.label == "emit").count();
        assert_eq!(emits, 1);
    }

    #[test]
    fn timeout_rounds_attribute_the_step_window() {
        let t = Tracer::bounded(16);
        let r = 2u64;
        t.span(SpanKind::Proposal, 0, r, 0)
            .id(proposal_span_id(0, r))
            .end_at(1_000);
        t.span(SpanKind::BaStep, 0, r, 1_000)
            .step(u32::MAX - 1)
            .label("reduction1")
            .id(step_span_id(0, r, u32::MAX - 1))
            .ok(false)
            .end_at(5_000);
        t.span(SpanKind::Round, 0, r, 0)
            .label("tentative")
            .cause(step_span_id(0, r, u32::MAX - 1))
            .ok(false)
            .end_at(5_000);
        let events = t.events();
        let paths = critical_paths(&events);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert!(!p.final_consensus);
        assert_eq!(p.attributed(), 5_000);
        let ba: Micros = p
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::BaStep)
            .map(Edge::duration)
            .sum();
        assert_eq!(ba, 4_000);
    }

    #[test]
    fn ignores_unstamped_and_summary_events() {
        let t = Tracer::bounded(16);
        // A legacy (id = 0) hop and a bandwidth summary must not index.
        t.span(SpanKind::GossipHop, 0, 1, 0)
            .label("uplink_total")
            .value(123)
            .end_at(0);
        t.span(SpanKind::BaStep, 0, 1, 0).label("binary").end_at(10);
        let events = t.events();
        let g = CausalGraph::build(&events);
        assert!(g.hops.is_empty());
        assert!(g.steps_by_id.is_empty());
    }

    /// A round-1 chain over `(kind, from, to, start, end)` edges, its
    /// latency measured from t = 0 to `finalized_at`.
    fn path(
        final_consensus: bool,
        finalized_at: Micros,
        edges: &[(EdgeKind, u32, u32, Micros, Micros)],
    ) -> CriticalPath {
        CriticalPath {
            round: 1,
            finalizer: 0,
            final_consensus,
            round_start: 0,
            finalized_at,
            edges: edges
                .iter()
                .map(|&(kind, from_node, to_node, start, end)| Edge {
                    kind,
                    label: kind.as_str().into(),
                    from_node,
                    to_node,
                    start,
                    end,
                    bytes: 0,
                    queue_depth: 0,
                })
                .collect(),
        }
    }

    /// Proposer 1's block hops to node 0, which then finalizes: 100 µs of
    /// a 100 µs round, across two processes.
    fn crossing() -> CriticalPath {
        path(
            true,
            100,
            &[
                (EdgeKind::Proposal, 1, 1, 0, 40),
                (EdgeKind::Gossip, 1, 0, 40, 70),
                (EdgeKind::BaStep, 0, 0, 70, 100),
            ],
        )
    }

    fn gate(min_rounds: usize, cross_process: bool) -> Gate {
        Gate {
            min_rounds,
            min_coverage: 0.95,
            cross_process,
        }
    }

    /// Asserts the gate finds exactly one problem, and that it says `what`.
    fn fails_with(gate: Gate, paths: &[CriticalPath], what: &str) {
        let problems = gate.check(paths);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains(what), "{problems:?}");
    }

    #[test]
    fn gate_passes_a_contiguous_covered_crossing_chain() {
        assert_eq!(crossing().processes(), BTreeSet::from([0, 1]));
        assert!(gate(1, true).check(&[crossing()]).is_empty());
        fails_with(Gate::CLUSTER, &[crossing()], "only 1 of 5 rounds");
        let five: Vec<CriticalPath> = (1..=5)
            .map(|round| CriticalPath {
                round,
                ..crossing()
            })
            .collect();
        fails_with(Gate::CLUSTER, &five[..4], "only 4 of 5 rounds");
        assert!(Gate::CLUSTER.check(&five).is_empty());
    }

    #[test]
    fn gate_flags_each_rule_on_its_own() {
        fails_with(gate(2, false), &[crossing()], "only 1 of 2 rounds");

        let mut gap = crossing();
        gap.edges[1].start = 45;
        fails_with(gate(1, false), &[gap], "not contiguous at t=40us");

        let mut no_proposal = crossing();
        no_proposal.edges[0].kind = EdgeKind::Gossip;
        fails_with(
            gate(1, false),
            &[no_proposal],
            "never passes through the proposal",
        );

        // The chain explains 100 µs of 200: below the bar when the round
        // is final, not judged when it is tentative.
        let mut short = crossing();
        short.finalized_at = 200;
        fails_with(
            gate(1, false),
            std::slice::from_ref(&short),
            "coverage 50.0% below the 95% bar",
        );
        short.final_consensus = false;
        assert!(gate(1, false).check(&[short]).is_empty());

        let local = path(
            true,
            100,
            &[
                (EdgeKind::Proposal, 0, 0, 0, 60),
                (EdgeKind::BaStep, 0, 0, 60, 100),
            ],
        );
        assert!(gate(1, false)
            .check(std::slice::from_ref(&local))
            .is_empty());
        fails_with(
            gate(1, true),
            &[local],
            "no chain crosses a process boundary",
        );
    }
}
