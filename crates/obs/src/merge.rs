//! Cluster trace merging: fuses per-process traces into one causal
//! graph on a common clock.
//!
//! A live deployment has no shared simulator clock — every node stamps
//! events with its own monotonic microsecond counter, started whenever
//! that process happened to boot. What the processes *do* share is
//! content: a finalized round's [`crate::SpanKind::Round`] span carries
//! the block's [`crate::stable_id`], which is identical on every node
//! that finalized the same block. Those spans are the **anchors**:
//!
//! 1. pick the reference node (most finalized rounds, ties to the
//!    lowest node id);
//! 2. for every other node, take the rounds both finalized and compute
//!    `delta = ref_conclusion − node_conclusion` per anchor; the node's
//!    clock **offset** is the median delta, and its **skew bound** is
//!    the worst |delta − offset| — how far the alignment may still be
//!    wrong after correction;
//! 3. shift every event by its node's offset and rebase the whole
//!    merged timeline to start at 0.
//!
//! Canonicalization then makes the merge a pure function of the input
//! traces: the **horizon** is the earliest "last aligned event" over
//! all nodes, round conclusions past it are dropped (some process
//! stopped observing before they settled, so cross-process chains could
//! be silently truncated), and events are sorted by a total key in
//! which *end time comes first* — effects follow their causes, and the
//! causal walker's recording-order assumptions keep holding on the
//! merged stream. Merging the same traces twice is byte-identical.
//!
//! Gossip hops are recorded half per process: the sender logs a `send`
//! instant (queue depth, wire bytes) and the receiver logs an arrival
//! instant, both stamped with the same message id. [`merge`] fuses each
//! arrival with the latest plausible send of that id — aligned send
//! time at most the arrival time plus the pair's combined skew bound —
//! into one sim-shaped hop span (`peer` = sender, `step` = queue depth
//! at send), which is exactly what [`crate::causal`] walks.
//!
//! [`parse_merged`] also loads a plain single-clock trace (no nodes), so
//! [`render_report`] and [`Merged::problems`] serve both kinds.

use crate::causal::{critical_paths, Gate};
use crate::trace::{
    escape_into, field_num, field_raw, field_str, field_u64_or, parse_jsonl, write_jsonl, SpanKind,
    Trace, TraceEvent, NO_NODE,
};
use std::fmt::Write as _;

/// Finalized-round anchors each node's clock must rest on. With one, the
/// offset is that anchor's delta and the skew bound is 0 by
/// construction: the alignment has not been tested at all. With three,
/// the median delta outvotes one anchor that disagrees.
const MIN_ANCHORS: u64 = 3;

/// Timestamps a node's trace may carry lie below this, µs (about 73,000
/// years of uptime): aligning, rebasing and fusing such times in `i64`
/// cannot overflow, whatever offsets the anchors imply.
const MAX_TIME: u64 = 1 << 61;

/// Edges listed per round before the listing is elided (the attribution
/// sums always cover the full chain).
const MAX_EDGES_SHOWN: usize = 24;

/// One node's trace, tagged with the node's index and the address it
/// published.
#[derive(Clone, Debug)]
pub struct NodeTrace {
    /// The node's cluster index (from the trace header).
    pub node: u32,
    /// The address the node published.
    pub addr: String,
    /// The node's trace.
    pub trace: Trace,
}

/// Per-node clock-alignment metadata recorded in a merged trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeMeta {
    /// The node's cluster index.
    pub node: u32,
    /// The address the node published.
    pub addr: String,
    /// Microseconds added to this node's clock to align it with the
    /// reference node (0 for the reference itself). Negative when the
    /// node's clock ran ahead.
    pub offset: i64,
    /// Worst-case residual misalignment after applying `offset`, µs.
    pub skew: u64,
    /// Finalized-round anchors shared with the reference node.
    pub anchors: u64,
    /// Events this node contributed to the merge.
    pub events: u64,
}

/// A merged cluster trace: one canonical event stream plus the
/// alignment metadata that produced it.
#[derive(Clone, Debug)]
pub struct Merged {
    /// The deployment seed (identical on every node, enforced).
    pub seed: u64,
    /// The trace's schedule name: `merged cluster n=<nodes>` for a merge.
    pub schedule: String,
    /// Completeness horizon: the earliest "last aligned event" over all
    /// nodes. Round conclusions after it were dropped.
    pub horizon: u64,
    /// Total events dropped at record time across all nodes.
    pub dropped: u64,
    /// Per-node alignment metadata, ascending by node id.
    pub nodes: Vec<NodeMeta>,
    /// The canonical merged event stream.
    pub events: Vec<TraceEvent>,
}

/// The canonical merged order. A kind ranks by its declaration order in
/// the taxonomy, so at equal `(end, start, node)` a BA⋆ step sorts
/// before the vote emission it triggered, preserving the recording-order
/// semantics the causal walker relies on.
#[allow(clippy::type_complexity)]
fn sort_key(ev: &TraceEvent) -> (u64, u64, u32, u8, u64, u32, u64, u64, u64, u32, bool) {
    (
        ev.end,
        ev.start,
        ev.node,
        ev.kind as u8,
        ev.round,
        ev.step,
        ev.id,
        ev.cause,
        ev.value,
        ev.peer,
        ev.ok,
    )
}

fn median(sorted: &[i64]) -> i64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        // Midpoint, rounding toward the lower sample — deterministic.
        let (a, b) = (sorted[n / 2 - 1], sorted[n / 2]);
        a + (b - a) / 2
    }
}

/// Merges per-node traces into one canonical cluster trace.
///
/// # Errors
///
/// - fewer than one input, duplicate node indices, or mismatched seeds;
/// - a `start` or `end` at or past 2^61 µs (the message names the node
///   and the field);
/// - a node sharing **no** finalized-round anchor with the reference
///   node — its clock cannot be aligned, and merging it unaligned would
///   fabricate causality.
pub fn merge(inputs: &[NodeTrace]) -> Result<Merged, String> {
    let first = inputs.first().ok_or("merge of zero traces")?;
    let seed = first.trace.seed;
    let mut nodes: Vec<&NodeTrace> = inputs.iter().collect();
    nodes.sort_by_key(|n| n.node);
    for pair in nodes.windows(2) {
        if pair[0].node == pair[1].node {
            return Err(format!("duplicate node index {} in merge", pair[0].node));
        }
    }
    for n in &nodes {
        if n.trace.seed != seed {
            return Err(format!(
                "seed mismatch: node {} has {}, node {} has {seed}",
                n.node, n.trace.seed, first.node
            ));
        }
        for ev in &n.trace.events {
            for (field, t) in [("start", ev.start), ("end", ev.end)] {
                if t >= MAX_TIME {
                    return Err(format!(
                        "node {}: {field} {t} is past the clock range (2^61 us)",
                        n.node
                    ));
                }
            }
        }
    }

    // Anchor table: (round, block id) -> conclusion instant, per node.
    // Only finalized conclusions anchor — tentative rounds may conclude
    // at genuinely different instants on different nodes.
    let anchors_of = |nt: &NodeTrace| -> Vec<((u64, u64), u64)> {
        nt.trace
            .events
            .iter()
            .filter(|ev| ev.kind == SpanKind::Round && ev.ok && ev.id != 0)
            .map(|ev| ((ev.round, ev.id), ev.end))
            .collect()
    };
    let reference = nodes
        .iter()
        .max_by_key(|n| (anchors_of(n).len(), std::cmp::Reverse(n.node)))
        .copied()
        .ok_or("merge of zero traces")?;
    let ref_anchors: std::collections::HashMap<(u64, u64), u64> =
        anchors_of(reference).into_iter().collect();

    let mut metas: Vec<NodeMeta> = Vec::new();
    for n in &nodes {
        let (offset, skew, count) = if n.node == reference.node {
            (0i64, 0u64, ref_anchors.len() as u64)
        } else {
            let mut deltas: Vec<i64> = anchors_of(n)
                .into_iter()
                .filter_map(|(key, t)| ref_anchors.get(&key).map(|rt| *rt as i64 - t as i64))
                .collect();
            if deltas.is_empty() {
                return Err(format!(
                    "node {} shares no finalized-round anchor with reference node {}; \
                     clocks cannot be aligned",
                    n.node, reference.node
                ));
            }
            deltas.sort_unstable();
            let offset = median(&deltas);
            let skew = deltas.iter().map(|d| d.abs_diff(offset)).max().unwrap_or(0);
            (offset, skew, deltas.len() as u64)
        };
        metas.push(NodeMeta {
            node: n.node,
            addr: n.addr.clone(),
            offset,
            skew,
            anchors: count,
            events: n.trace.events.len() as u64,
        });
    }

    // Align: shift every event by its node's offset, tracking the
    // pre-rebase minimum and each node's last observation.
    let mut aligned: Vec<TraceEvent> = Vec::new();
    let mut min_t = i64::MAX;
    let mut last_per_node: Vec<i64> = Vec::new();
    for (n, meta) in nodes.iter().zip(&metas) {
        let mut last = i64::MIN;
        for ev in &n.trace.events {
            let mut ev = ev.clone();
            let start = ev.start as i64 + meta.offset;
            let end = ev.end as i64 + meta.offset;
            min_t = min_t.min(start);
            last = last.max(end);
            // Stash aligned times; rebased below once min_t is known.
            ev.start = start as u64;
            ev.end = end as u64;
            aligned.push(ev);
        }
        last_per_node.push(last);
    }
    if min_t == i64::MAX {
        return Err("merge of empty traces".into());
    }
    for ev in &mut aligned {
        ev.start = (ev.start as i64 - min_t) as u64;
        ev.end = (ev.end as i64 - min_t) as u64;
    }
    let horizon = last_per_node
        .iter()
        .map(|t| (t - min_t).max(0) as u64)
        .min()
        .unwrap_or(0);

    // Fuse live-node hop halves: receiver arrival instants (peer
    // unknown) pair with the latest plausible `send` instant of the
    // same message id from another node.
    let skew_of =
        |node: u32| -> u64 { metas.iter().find(|m| m.node == node).map_or(0, |m| m.skew) };
    let sends: Vec<&TraceEvent> = aligned
        .iter()
        .filter(|ev| ev.kind == SpanKind::GossipHop && ev.label == "send")
        .collect();
    let mut fused: Vec<TraceEvent> = Vec::with_capacity(aligned.len());
    for ev in &aligned {
        if ev.kind != SpanKind::GossipHop {
            fused.push(ev.clone());
            continue;
        }
        if ev.label == "send" {
            continue; // consumed below (or unmatched; either way not a hop)
        }
        if ev.peer != NO_NODE || ev.id == 0 {
            fused.push(ev.clone()); // already a full hop (sim trace) or summary
            continue;
        }
        let slack = skew_of(ev.node);
        let best = sends
            .iter()
            .filter(|s| {
                s.id == ev.id
                    && s.node != ev.node
                    && s.end <= ev.end.saturating_add(slack + skew_of(s.node))
            })
            .max_by_key(|s| (s.end, std::cmp::Reverse(s.node)));
        match best {
            Some(s) => {
                let mut hop = ev.clone();
                hop.peer = s.node;
                hop.step = s.step;
                hop.start = s.end.min(ev.end);
                fused.push(hop);
            }
            None => fused.push(ev.clone()),
        }
    }

    // Canonicalize: drop round conclusions past the horizon, then sort
    // by the total key.
    fused.retain(|ev| ev.kind != SpanKind::Round || ev.end <= horizon);
    fused.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)).then(a.label.cmp(&b.label)));

    Ok(Merged {
        seed,
        schedule: format!("merged cluster n={}", metas.len()),
        horizon,
        dropped: nodes.iter().map(|n| n.trace.dropped).sum(),
        nodes: metas,
        events: fused,
    })
}

/// Serializes a merged trace as standard trace JSONL whose header line
/// additionally carries the merge metadata (`"horizon"`, `"nodes"`).
/// [`crate::parse_jsonl`] reads only the fields it knows, so every
/// existing trace tool consumes the output unchanged; [`parse_merged`]
/// recovers the metadata.
pub fn write_merged(m: &Merged) -> String {
    let base = write_jsonl(m.seed, &m.schedule, m.dropped, &m.events);
    let newline = base.find('\n').expect("header line");
    let mut meta = String::new();
    meta.push_str(&format!(",\"horizon\":{},\"nodes\":[", m.horizon));
    for (i, n) in m.nodes.iter().enumerate() {
        if i > 0 {
            meta.push(',');
        }
        meta.push_str(&format!("{{\"node\":{},\"addr\":\"", n.node));
        escape_into(&mut meta, &n.addr);
        meta.push_str(&format!(
            "\",\"offset\":{},\"skew\":{},\"anchors\":{},\"node_events\":{}}}",
            n.offset, n.skew, n.anchors, n.events
        ));
    }
    meta.push(']');
    // Splice the metadata just before the header's closing brace.
    let mut out = String::with_capacity(base.len() + meta.len());
    out.push_str(&base[..newline - 1]);
    out.push_str(&meta);
    out.push_str(&base[newline - 1..]);
    out
}

/// Parses the output of [`write_merged`] back into a [`Merged`]. A plain
/// trace, which has no merge metadata, loads with no nodes and horizon 0.
///
/// # Errors
///
/// Anything [`crate::parse_jsonl`] rejects, or malformed merge metadata.
pub fn parse_merged(input: &str) -> Result<Merged, String> {
    let trace = parse_jsonl(input)?;
    let header = input.lines().next().unwrap_or_default();
    let mut nodes = Vec::new();
    if let Some(array) = field_raw(header, "nodes") {
        let array = array
            .trim()
            .strip_prefix('[')
            .and_then(|a| a.strip_suffix(']'));
        // Objects carry no nested braces, so splitting on '}' is safe.
        for obj in array.ok_or("malformed \"nodes\" array")?.split('}') {
            let obj = obj.trim_start_matches(',').trim();
            if obj.is_empty() {
                continue;
            }
            let obj = format!("{obj}}}");
            nodes.push(NodeMeta {
                node: field_num(&obj, "node")?,
                addr: field_str(&obj, "addr")?,
                offset: field_num(&obj, "offset")?,
                skew: field_num(&obj, "skew")?,
                anchors: field_num(&obj, "anchors")?,
                events: field_num(&obj, "node_events")?,
            });
        }
    }
    Ok(Merged {
        seed: trace.seed,
        schedule: trace.schedule,
        horizon: field_u64_or(header, "horizon", 0)?,
        dropped: trace.dropped,
        nodes,
        events: trace.events,
    })
}

impl Merged {
    /// Every way this trace falls short as a profile of its rounds, empty
    /// when it has none: events dropped at record time (each per-span
    /// figure would undercount), a node whose clock rests on fewer than
    /// three finalized-round anchors, and whatever `gate` finds in its
    /// critical paths.
    pub fn problems(&self, gate: &Gate) -> Vec<String> {
        let mut problems = Vec::new();
        if self.dropped > 0 {
            problems.push(format!("trace truncated: {} events dropped", self.dropped));
        }
        for n in self.nodes.iter().filter(|n| n.anchors < MIN_ANCHORS) {
            problems.push(format!(
                "node {} aligned on {} anchors, below {MIN_ANCHORS}",
                n.node, n.anchors
            ));
        }
        problems.extend(gate.check(&critical_paths(&self.events)));
        problems
    }
}

fn secs(us: u64) -> f64 {
    us as f64 / 1e6
}

/// Renders the critical-path profiler report: every round's gating chain
/// and the latency-attribution table, in seconds. A merged trace adds
/// each node's clock alignment, and each hop between two processes names
/// its wire — bytes, the sender's send-queue depth at enqueue, and the
/// sender's address. A pure function of the trace, so rendering it again
/// is byte-identical.
pub fn render_report(m: &Merged) -> String {
    let paths = critical_paths(&m.events);
    let mut w = String::new();
    let _ = writeln!(
        w,
        "== critical-path profiler: {} seed {} ==",
        m.schedule, m.seed
    );
    let _ = writeln!(w, "trace: {} events, {} dropped", m.events.len(), m.dropped);
    for n in &m.nodes {
        let _ = writeln!(
            w,
            "node {} addr={} offset={:+}us skew={}us anchors={} events={}",
            n.node, n.addr, n.offset, n.skew, n.anchors, n.events
        );
    }
    if !m.nodes.is_empty() {
        let _ = writeln!(w, "horizon: {}us", m.horizon);
    }
    let finals = paths.iter().filter(|p| p.final_consensus).count();
    let _ = writeln!(
        w,
        "rounds: {} traced ({} final, {} tentative)\n",
        paths.len(),
        finals,
        paths.len() - finals
    );
    for p in &paths {
        let _ = writeln!(
            w,
            "round {:>2}  finalizer n{:<3} {}  latency {:>7.3}s  chain {:>2} edges  coverage {:>5.1}%",
            p.round,
            p.finalizer,
            if p.final_consensus { "final    " } else { "tentative" },
            secs(p.latency()),
            p.edges.len(),
            p.coverage() * 100.0
        );
        for e in p.edges.iter().take(MAX_EDGES_SHOWN) {
            let hop = if e.from_node == e.to_node {
                format!("n{}", e.to_node)
            } else {
                format!("n{}->n{}", e.from_node, e.to_node)
            };
            let _ = write!(
                w,
                "    {:>8.3}s  +{:>7.3}s  {:<8} {:<12} {hop}",
                secs(e.start),
                secs(e.duration()),
                e.kind.as_str(),
                e.label
            );
            let sender = m.nodes.iter().find(|n| n.node == e.from_node);
            if let Some(sender) = sender.filter(|_| e.from_node != e.to_node) {
                let _ = write!(w, " {}B q={} from={}", e.bytes, e.queue_depth, sender.addr);
            }
            w.push('\n');
        }
        if p.edges.len() > MAX_EDGES_SHOWN {
            let _ = writeln!(w, "    ... {} more edges", p.edges.len() - MAX_EDGES_SHOWN);
        }
        w.push('\n');
    }

    let _ = writeln!(w, "latency attribution (seconds on the critical path):");
    let _ = writeln!(
        w,
        "  {:>5}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}",
        "round", "latency", "proposal", "gossip", "verify", "ba_step", "coverage"
    );
    let row = |w: &mut String, round: &dyn std::fmt::Display, latency, attr: [u64; 4], cov: f64| {
        let _ = write!(w, "  {round:>5}  {:>7.3}s", secs(latency));
        for us in attr {
            let _ = write!(w, "  {:>7.3}s", secs(us));
        }
        let _ = writeln!(w, "  {:>7.1}%", cov * 100.0);
    };
    let (mut tot, mut tot_latency) = ([0u64; 4], 0u64);
    for p in &paths {
        let attr = p.attribution().map(|(_, us)| us);
        for (slot, us) in tot.iter_mut().zip(attr) {
            *slot += us;
        }
        tot_latency += p.latency();
        row(&mut w, &p.round, p.latency(), attr, p.coverage());
    }
    let attributed: u64 = tot.iter().sum();
    let total_cov = if tot_latency == 0 {
        1.0
    } else {
        attributed as f64 / tot_latency as f64
    };
    row(&mut w, &"total", tot_latency, tot, total_cov);
    if attributed > 0 {
        let share = |us: u64| us as f64 / attributed as f64 * 100.0;
        let _ = writeln!(
            w,
            "  share of attributed time: proposal {:.1}%  gossip {:.1}%  verify {:.1}%  ba_step {:.1}%",
            share(tot[0]),
            share(tot[1]),
            share(tot[2]),
            share(tot[3])
        );
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::{proposal_span_id, step_span_id};
    use crate::trace::{stable_id, Tracer};

    /// Two processes observe the same round with clocks 1_000_000µs
    /// apart: node 0 (the proposer/finalizer) starts its clock at 0,
    /// node 1 starts 1s later in wall time, so the same wall instants
    /// read 1_000_000 *lower* on node 1's clock.
    fn two_process_round() -> Vec<NodeTrace> {
        let block = stable_id(&[7u8; 32]);
        let vote = stable_id(&[9u8; 32]);
        let r = 1u64;
        // Node 0's clock: wall time. Node 1's clock: wall − 1_000_000.
        let n1 = |wall: u64| wall - 1_000_000;

        let t0 = Tracer::bounded(64);
        t0.span(SpanKind::Proposal, 0, r, 1_000_000)
            .id(proposal_span_id(0, r))
            .cause(block)
            .end_at(1_000_090);
        // Sender half of the block hop 0 -> 1.
        t0.span(SpanKind::GossipHop, 0, r, 1_000_010)
            .label("send")
            .step(2)
            .id(block)
            .value(900)
            .instant();
        // Sender half of node 0's own final-vote broadcast (never
        // fused: node 1 doesn't need it for this round's chain).
        t0.span(SpanKind::BaStep, 0, r, 1_000_100)
            .step(1)
            .label("binary")
            .id(step_span_id(0, r, 1))
            .end_at(1_000_300);
        t0.span(SpanKind::Verify, 0, r, 1_000_380)
            .label("vote")
            .id(vote)
            .instant();
        // Receiver half of the vote hop 1 -> 0 (arrival instant).
        t0.span(SpanKind::GossipHop, 0, r, 1_000_380)
            .label("vote")
            .id(vote)
            .value(120)
            .instant();
        t0.span(SpanKind::BaStep, 0, r, 1_000_320)
            .label("final")
            .id(step_span_id(0, r, 0))
            .cause(vote)
            .end_at(1_000_400);
        t0.span(SpanKind::Round, 0, r, 1_000_000)
            .label("final")
            .id(block)
            .cause(step_span_id(0, r, 0))
            .ok(true)
            .end_at(1_000_400);

        let t1 = Tracer::bounded(64);
        // Receiver half of the block hop (node 1's clock).
        t1.span(SpanKind::GossipHop, 1, r, n1(1_000_100))
            .label("block_body")
            .id(block)
            .value(900)
            .instant();
        t1.span(SpanKind::Proposal, 1, r, n1(1_000_000))
            .id(proposal_span_id(1, r))
            .cause(block)
            .end_at(n1(1_000_100));
        t1.span(SpanKind::BaStep, 1, r, n1(1_000_100))
            .step(1)
            .label("binary")
            .id(step_span_id(1, r, 1))
            .end_at(n1(1_000_300));
        t1.span(SpanKind::Sortition, 1, r, n1(1_000_300))
            .label("committee")
            .id(vote)
            .value(3)
            .instant();
        // Sender half of the vote hop 1 -> 0.
        t1.span(SpanKind::GossipHop, 1, r, n1(1_000_300))
            .label("send")
            .step(5)
            .id(vote)
            .value(120)
            .instant();
        t1.span(SpanKind::Round, 1, r, n1(1_000_000))
            .label("final")
            .id(block)
            .cause(step_span_id(1, r, 1))
            .ok(true)
            .end_at(n1(1_000_400));

        vec![
            NodeTrace {
                node: 0,
                addr: "127.0.0.1:9000".into(),
                trace: parse_jsonl(&t0.export_jsonl(7, "node=0")).unwrap(),
            },
            NodeTrace {
                node: 1,
                addr: "127.0.0.1:9001".into(),
                trace: parse_jsonl(&t1.export_jsonl(7, "node=1")).unwrap(),
            },
        ]
    }

    #[test]
    fn aligns_clocks_and_fuses_cross_process_hops() {
        let m = merge(&two_process_round()).unwrap();
        // Node 0 finalized one round more... both finalized round 1;
        // node 0 wins the reference tie (lowest id), so node 1's offset
        // is +1_000_000 (its clock ran 1s behind... i.e. read lower).
        assert_eq!(m.nodes[0].offset, 0);
        assert_eq!(m.nodes[1].offset, 1_000_000);
        assert_eq!(m.nodes[1].skew, 0, "single consistent anchor pair");
        // No raw send halves survive; both hops are fused with sender,
        // queue depth, and bytes.
        assert!(m.events.iter().all(|e| e.label != "send"));
        let vote_hop = m
            .events
            .iter()
            .find(|e| e.kind == SpanKind::GossipHop && e.label == "vote")
            .unwrap();
        assert_eq!(vote_hop.node, 0);
        assert_eq!(vote_hop.peer, 1);
        assert_eq!(vote_hop.step, 5, "queue depth at send");
        assert_eq!(vote_hop.value, 120);
        assert!(vote_hop.start < vote_hop.end);
        let block_hop = m
            .events
            .iter()
            .find(|e| e.kind == SpanKind::GossipHop && e.label == "block_body")
            .unwrap();
        assert_eq!((block_hop.node, block_hop.peer, block_hop.step), (1, 0, 2));

        // The merged stream yields one cross-process critical path with
        // near-complete coverage.
        let paths = critical_paths(&m.events);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert!(p.final_consensus);
        assert!(p.coverage() >= 0.90, "coverage {}", p.coverage());
        assert!(p
            .edges
            .iter()
            .any(|e| e.from_node == 1 && e.to_node == 0 && e.label == "vote"));
        assert!(p.edges.iter().any(|e| e.label == "block_body"));
        // Wire attribution flows through to the edges.
        let vote_edge = p.edges.iter().find(|e| e.label == "vote").unwrap();
        assert_eq!((vote_edge.bytes, vote_edge.queue_depth), (120, 5));
    }

    #[test]
    fn merge_and_render_are_deterministic() {
        let inputs = two_process_round();
        let a = merge(&inputs).unwrap();
        let b = merge(&inputs).unwrap();
        assert_eq!(write_merged(&a), write_merged(&b));
        assert_eq!(render_report(&a), render_report(&b));
        // Input order must not matter either.
        let mut reversed = inputs.clone();
        reversed.reverse();
        let c = merge(&reversed).unwrap();
        assert_eq!(write_merged(&a), write_merged(&c));
    }

    #[test]
    fn merged_artifact_roundtrips_and_stays_a_plain_trace() {
        let m = merge(&two_process_round()).unwrap();
        let text = write_merged(&m);
        // Every existing tool reads it as an ordinary trace.
        let plain = parse_jsonl(&text).unwrap();
        assert_eq!(plain.seed, 7);
        assert_eq!(plain.events.len(), m.events.len());
        // And the metadata survives the round trip.
        let back = parse_merged(&text).unwrap();
        assert_eq!(back.horizon, m.horizon);
        assert_eq!(back.nodes, m.nodes);
        assert_eq!(back.events, m.events);
        assert_eq!(write_merged(&back), text);
        // A plain trace loads as one with no nodes.
        let single = parse_merged(&write_jsonl(7, "payment-50", 0, &m.events)).unwrap();
        assert_eq!(
            (single.schedule.as_str(), single.horizon),
            ("payment-50", 0)
        );
        assert!(single.nodes.is_empty());
        assert!(!render_report(&single).contains(" from="));
        assert!(render_report(&m).contains("n1->n0 120B q=5 from=127.0.0.1:9001"));
    }

    #[test]
    fn problems_name_drops_thin_alignment_and_gate_failures() {
        let mut m = merge(&two_process_round()).unwrap();
        let one_round = Gate {
            min_rounds: 1,
            ..Gate::CLUSTER
        };
        assert!(one_round.check(&critical_paths(&m.events)).is_empty());
        // One shared round: each clock rests on a single anchor.
        assert_eq!(
            m.problems(&one_round),
            [
                "node 0 aligned on 1 anchors, below 3",
                "node 1 aligned on 1 anchors, below 3"
            ]
        );
        for n in &mut m.nodes {
            n.anchors = MIN_ANCHORS;
        }
        assert!(m.problems(&one_round).is_empty());
        m.dropped = 1;
        assert_eq!(
            m.problems(&Gate::CLUSTER),
            [
                "trace truncated: 1 events dropped",
                "only 1 of 5 rounds produced a critical path"
            ]
        );
    }

    #[test]
    fn rounds_past_the_horizon_are_dropped() {
        let mut inputs = two_process_round();
        // Node 0 finalizes a second round *after* node 1's last
        // observation: its conclusion must not survive the merge.
        let t = Tracer::bounded(8);
        t.span(SpanKind::Round, 0, 2, 1_000_500)
            .label("final")
            .id(stable_id(&[8u8; 32]))
            .ok(true)
            .end_at(9_000_000);
        inputs[0]
            .trace
            .events
            .extend(parse_jsonl(&t.export_jsonl(7, "s")).unwrap().events);
        let m = merge(&inputs).unwrap();
        assert!(m
            .events
            .iter()
            .all(|e| e.kind != SpanKind::Round || e.round != 2));
        assert_eq!(critical_paths(&m.events).len(), 1);
    }

    #[test]
    fn a_timestamp_past_the_clock_range_is_an_error_naming_node_and_field() {
        // On the anchor, past 2^63: the cast wraps and the delta overflows.
        let mut inputs = two_process_round();
        let anchor = inputs[1].trace.events.iter_mut();
        let anchor = anchor.filter(|e| e.kind == SpanKind::Round).last().unwrap();
        anchor.end = 1 << 63;
        let err = merge(&inputs).unwrap_err();
        assert!(err.contains("node 1") && err.contains("end"), "{err}");
        // Elsewhere: the rebase onto the earliest instant overflows.
        let mut inputs = two_process_round();
        inputs[0].trace.events[0].start = u64::MAX;
        let err = merge(&inputs).unwrap_err();
        assert!(err.contains("node 0") && err.contains("start"), "{err}");
    }

    #[test]
    fn unalignable_and_mismatched_inputs_are_rejected() {
        let mut inputs = two_process_round();
        assert!(merge(&[]).is_err());
        // Seed mismatch.
        inputs[1].trace.seed = 99;
        assert!(merge(&inputs).unwrap_err().contains("seed mismatch"));
        // No shared anchor: strip node 1's round conclusions.
        let mut inputs = two_process_round();
        inputs[1].trace.events.retain(|e| e.kind != SpanKind::Round);
        assert!(merge(&inputs).unwrap_err().contains("anchor"));
        // Duplicate node index.
        let mut inputs = two_process_round();
        inputs[1].node = 0;
        assert!(merge(&inputs).unwrap_err().contains("duplicate"));
    }
}
