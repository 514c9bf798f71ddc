//! Structured trace spans with a bounded in-memory buffer, which keeps
//! the most recent events, and byte-stable JSONL export.
//!
//! Every span carries the same shape: a [`SpanKind`] from the fixed
//! taxonomy (round, BA⋆ step, sortition, verify, gossip hop, catch-up,
//! fault), the node id, the round, an optional step code, sim-time start
//! and end, a free `value` (bytes, counts), and an `ok` flag whose meaning
//! is kind-specific (verification verdict, votes-vs-timeout, final-vs-
//! tentative).
//!
//! The tracer only records and exports: no consumer code runs under its
//! lock. A consumer that checks the stream while the run goes on (a
//! node's invariant monitor) reads it with [`Tracer::events_since`] and
//! does its work outside the lock.
//!
//! Determinism: recording only *reads* values the simulation already
//! computed — it never draws randomness, never reorders events, and the
//! instrumented hot paths are no-ops when the tracer is disabled. With
//! one recording thread (a real node), buffer order is a pure function
//! of the inputs and the export is byte-stable. The simulator instead
//! gives every node its own tracer and stamps each event with a
//! canonical *order hint* ([`Tracer::set_order_hint`]); merging per-node
//! buffers by hint reproduces one canonical order no matter how many
//! worker threads ran, so the export stays byte-stable across worker
//! counts — the property the CI trace-determinism gate asserts.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, TryLockError};

/// Virtual time in microseconds (the simulator's clock).
pub type Micros = u64;

/// Node id used for network-wide events (faults that target no node).
pub const NO_NODE: u32 = u32::MAX;

/// The span taxonomy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// One completed consensus round on one node (start of proposal wait
    /// to block append). `step` is the concluding BinaryBA⋆ step, `value`
    /// the agreed block's wire size, `ok` whether consensus was final.
    Round,
    /// The block-proposal portion of a round (priority wait + block wait).
    Proposal,
    /// One concluded BA⋆ phase (reduction 1/2, a BinaryBA⋆ step, or the
    /// final count). `ok` = concluded on votes (false = timeout).
    BaStep,
    /// A sortition selection (proposer or committee). `value` = sub-user
    /// count for committee selections.
    Sortition,
    /// One verification-stage verdict. `ok` = accepted.
    Verify,
    /// One vote accepted into a BA⋆ step tally (`label = "add"`) or a
    /// future-round vote parked for later (`label = "future"`). `id` is
    /// the vote message id, `cause` the voter id, `value` the sub-user
    /// count (adds) or the buffer occupancy after the park (futures).
    Tally,
    /// One gossip hop of a message body (send start to arrival), or a
    /// per-node `uplink_total`/`downlink_total` summary. `value` = bytes,
    /// `peer` = the sending node for per-hop spans.
    GossipHop,
    /// Catch-up activity at the requester: `apply` (`value` = rounds
    /// adopted) or `reorg` (`value` = tentative rounds rolled back).
    Catchup,
    /// A scripted fault application or a recovery-protocol milestone.
    Fault,
}

impl SpanKind {
    /// The wire name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Round => "round",
            SpanKind::Proposal => "proposal",
            SpanKind::BaStep => "ba_step",
            SpanKind::Sortition => "sortition",
            SpanKind::Verify => "verify",
            SpanKind::Tally => "tally",
            SpanKind::GossipHop => "gossip_hop",
            SpanKind::Catchup => "catchup",
            SpanKind::Fault => "fault",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(s: &str) -> Option<SpanKind> {
        Some(match s {
            "round" => SpanKind::Round,
            "proposal" => SpanKind::Proposal,
            "ba_step" => SpanKind::BaStep,
            "sortition" => SpanKind::Sortition,
            "verify" => SpanKind::Verify,
            "tally" => SpanKind::Tally,
            "gossip_hop" => SpanKind::GossipHop,
            "catchup" => SpanKind::Catchup,
            "fault" => SpanKind::Fault,
            _ => return None,
        })
    }
}

/// One recorded span (or instantaneous event, when `start == end`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Which taxonomy entry this is.
    pub kind: SpanKind,
    /// The node the event happened on ([`NO_NODE`] for network-wide).
    pub node: u32,
    /// The consensus round the event belongs to (0 when not applicable).
    pub round: u64,
    /// Step code within the round (BA⋆ step code; 0 otherwise).
    pub step: u32,
    /// Kind-specific label (`"binary"`, `"vote"`, `"crash"`, …).
    pub label: Cow<'static, str>,
    /// Sim-time start, µs.
    pub start: Micros,
    /// Sim-time end, µs.
    pub end: Micros,
    /// Kind-specific magnitude (bytes, counts, sub-users).
    pub value: u64,
    /// Kind-specific verdict (accepted / on-votes / final).
    pub ok: bool,
    /// Stable causal identity: the gossip message id for hops, verifies
    /// and vote emissions ([`stable_id`]), a deterministic phase span id
    /// ([`span_id`]) for proposal/step/round spans, 0 when the event has
    /// no causal identity.
    pub id: u64,
    /// The id of the message or span that caused this event (0 = none):
    /// the gating vote for a concluded step, the adopted proposal for a
    /// reduction-one vote, the concluding step for a round.
    pub cause: u64,
    /// The other endpoint of a gossip hop (the sending node);
    /// [`NO_NODE`] when not applicable.
    pub peer: u32,
}

impl TraceEvent {
    /// The span's duration.
    pub fn duration(&self) -> Micros {
        self.end.saturating_sub(self.start)
    }
}

/// Truncates a 32-byte content hash (message id, public key, block hash)
/// to the 64-bit causal id used in trace links: the first 8 bytes,
/// little-endian, never 0 (0 is reserved for "no link").
pub fn stable_id(bytes: &[u8; 32]) -> u64 {
    let raw = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
    if raw == 0 {
        0x9e37_79b9_7f4a_7c15
    } else {
        raw
    }
}

/// A deterministic id for a protocol phase span, computable by both the
/// producer (instrumentation) and the consumer (the causal walker)
/// without coordination: a bit-mix of `(node, round, step, tag)`.
/// Never 0.
pub fn span_id(node: u32, round: u64, step: u32, tag: u8) -> u64 {
    // splitmix64 finalizer over a packed key; tag keeps proposal / step /
    // round namespaces disjoint for the same (node, round).
    let mut z = (round ^ ((node as u64) << 40) ^ ((step as u64) << 8) ^ (tag as u64))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    if z == 0 {
        1
    } else {
        z
    }
}

struct Buffer {
    /// The retained events, oldest first, each with the canonical-order
    /// key it was recorded under (see [`Tracer::set_order_hint`]). The
    /// keys are all zero on a real node, where buffer order *is*
    /// canonical order.
    events: VecDeque<(u64, TraceEvent)>,
    /// The hint stamped onto the next recorded events.
    hint: u64,
    cap: usize,
    /// Events evicted to make room.
    dropped: u64,
}

impl Buffer {
    fn export_jsonl(&self, seed: u64, schedule: &str) -> String {
        let events: Vec<TraceEvent> = self.events.iter().map(|(_, ev)| ev.clone()).collect();
        write_jsonl(seed, schedule, self.dropped, &events)
    }
}

/// A cheap, cloneable recording handle. [`Tracer::disabled`] is inert:
/// every recording call on it is a no-op, which is how production paths
/// run untraced at zero cost.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<Buffer>>>);

impl Tracer {
    /// The inert tracer: records nothing.
    pub fn disabled() -> Tracer {
        Tracer(None)
    }

    /// A tracer that keeps the most recent `cap` events: when full, each
    /// new event evicts the oldest, which is counted as dropped, so
    /// memory stays bounded however long the run.
    pub fn bounded(cap: usize) -> Tracer {
        Tracer(Some(Arc::new(Mutex::new(Buffer {
            events: VecDeque::new(),
            hint: 0,
            cap,
            dropped: 0,
        }))))
    }

    /// Whether recording does anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records a complete event. Nothing but the push and the eviction
    /// runs under the lock.
    pub fn record(&self, ev: TraceEvent) {
        let Some(buf) = &self.0 else { return };
        let mut buf = buf.lock().expect("trace lock");
        let hint = buf.hint;
        buf.events.push_back((hint, ev));
        if buf.events.len() > buf.cap {
            buf.events.pop_front();
            buf.dropped += 1;
        }
    }

    /// Stamps every subsequently recorded event with `hint`, a canonical
    /// ordering key. The simulation engine sets this before handing an
    /// event to a node so per-node buffers can later be merged into one
    /// canonical order, regardless of worker count or thread
    /// interleaving. A real node never calls this and relies on buffer
    /// order alone.
    pub fn set_order_hint(&self, hint: u64) {
        if let Some(buf) = &self.0 {
            buf.lock().expect("trace lock").hint = hint;
        }
    }

    /// Drains the buffered events together with their order hints,
    /// leaving the cumulative `dropped` count in place. Used by the
    /// simulation engine to empty per-node buffers at every barrier.
    pub fn drain_with_hints(&self) -> Vec<(u64, TraceEvent)> {
        let Some(buf) = &self.0 else {
            return Vec::new();
        };
        buf.lock().expect("trace lock").events.drain(..).collect()
    }

    /// Opens a span guard at `start`. Builder methods fill in the fields;
    /// [`Span::end_at`] (or [`Span::instant`]) records it. On a disabled
    /// tracer the guard is inert.
    pub fn span(&self, kind: SpanKind, node: u32, round: u64, start: Micros) -> Span {
        Span {
            tracer: self.clone(),
            ev: TraceEvent {
                kind,
                node,
                round,
                step: 0,
                label: Cow::Borrowed(""),
                start,
                end: start,
                value: 0,
                ok: true,
                id: 0,
                cause: 0,
                peer: NO_NODE,
            },
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |b| b.lock().expect("trace lock").events.len())
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the full buffer.
    pub fn dropped(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |b| b.lock().expect("trace lock").dropped)
    }

    /// The events recorded since the last read, oldest first, cloned
    /// under the lock so the caller consumes them outside it. `seen`
    /// counts the events ever recorded (evicted ones included) as of the
    /// last read; the read advances it to the current count. Events
    /// evicted before a read are skipped, so a consumer that reads after
    /// every burst of at most `cap` events sees each event once, in
    /// recording order. A drained tracer is read by
    /// [`Tracer::drain_with_hints`] instead.
    pub fn events_since(&self, seen: &mut u64) -> Vec<TraceEvent> {
        let Some(buf) = &self.0 else {
            return Vec::new();
        };
        let buf = buf.lock().expect("trace lock");
        let len = buf.events.len();
        let skip = (seen.saturating_sub(buf.dropped) as usize).min(len);
        *seen = buf.dropped + len as u64;
        buf.events.range(skip..).map(|(_, ev)| ev.clone()).collect()
    }

    /// A snapshot copy of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.as_ref().map_or_else(Vec::new, |b| {
            let buf = b.lock().expect("trace lock");
            buf.events.iter().map(|(_, ev)| ev.clone()).collect()
        })
    }

    /// Exports the buffer as JSONL keyed by `(seed, schedule)`; see
    /// [`write_jsonl`]. The header's `dropped` counts the evicted events.
    pub fn export_jsonl(&self, seed: u64, schedule: &str) -> String {
        match &self.0 {
            Some(buf) => buf.lock().expect("trace lock").export_jsonl(seed, schedule),
            None => write_jsonl(seed, schedule, 0, &[]),
        }
    }

    /// [`Tracer::export_jsonl`] for a panic hook: never waits for the
    /// lock. `None` when another thread holds it, since waiting could
    /// deadlock. A lock poisoned by an earlier panic is still read.
    pub fn try_export_jsonl(&self, seed: u64, schedule: &str) -> Option<String> {
        let Some(buf) = &self.0 else {
            return Some(write_jsonl(seed, schedule, 0, &[]));
        };
        match buf.try_lock() {
            Ok(buf) => Some(buf.export_jsonl(seed, schedule)),
            Err(TryLockError::Poisoned(poisoned)) => {
                Some(poisoned.into_inner().export_jsonl(seed, schedule))
            }
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// A span under construction. Building is allocation-free for static
/// labels; nothing is recorded until [`Span::end_at`] or
/// [`Span::instant`].
#[must_use = "a span records nothing until end_at()/instant() is called"]
pub struct Span {
    tracer: Tracer,
    ev: TraceEvent,
}

impl Span {
    /// Sets the step code.
    pub fn step(mut self, step: u32) -> Span {
        self.ev.step = step;
        self
    }

    /// Sets the label.
    pub fn label(mut self, label: &'static str) -> Span {
        self.ev.label = Cow::Borrowed(label);
        self
    }

    /// Sets the magnitude.
    pub fn value(mut self, value: u64) -> Span {
        self.ev.value = value;
        self
    }

    /// Sets the verdict flag.
    pub fn ok(mut self, ok: bool) -> Span {
        self.ev.ok = ok;
        self
    }

    /// Sets the event's causal identity.
    pub fn id(mut self, id: u64) -> Span {
        self.ev.id = id;
        self
    }

    /// Sets the causal predecessor link.
    pub fn cause(mut self, cause: u64) -> Span {
        self.ev.cause = cause;
        self
    }

    /// Sets the hop's sending node.
    pub fn peer(mut self, peer: u32) -> Span {
        self.ev.peer = peer;
        self
    }

    /// Closes the span at `end` and records it.
    pub fn end_at(mut self, end: Micros) {
        self.ev.end = end;
        self.tracer.record(self.ev);
    }

    /// Records the span as an instantaneous event (`end = start`).
    pub fn instant(self) {
        let end = self.ev.start;
        self.end_at(end);
    }
}

// --- JSONL export / import ----------------------------------------------------

pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Serializes a trace as JSONL: a header line keyed by `(seed, schedule)`
/// followed by one event per line, fields in a fixed order — identical
/// runs produce byte-identical output.
pub fn write_jsonl(seed: u64, schedule: &str, dropped: u64, events: &[TraceEvent]) -> String {
    write_jsonl_trimmed(seed, schedule, dropped, 0, events)
}

/// Like [`write_jsonl`], with the per-node-budget `trimmed` count in the
/// header. `dropped` means the buffer overflowed and the trace is
/// unusable for completeness checks; `trimmed` means a configured
/// per-node budget deliberately retained a prefix per node, with the
/// excess accounted here — the retained prefix is still canonical and
/// byte-stable. The field is emitted only when non-zero, so untrimmed
/// exports carry the plain header.
pub fn write_jsonl_trimmed(
    seed: u64,
    schedule: &str,
    dropped: u64,
    trimmed: u64,
    events: &[TraceEvent],
) -> String {
    let mut out = String::with_capacity(64 + events.len() * 128);
    out.push_str(&format!(
        "{{\"trace\":\"algorand\",\"version\":2,\"seed\":{seed},\"schedule\":\""
    ));
    escape_into(&mut out, schedule);
    if trimmed > 0 {
        out.push_str(&format!(
            "\",\"events\":{},\"dropped\":{dropped},\"trimmed\":{trimmed}}}\n",
            events.len()
        ));
    } else {
        out.push_str(&format!(
            "\",\"events\":{},\"dropped\":{dropped}}}\n",
            events.len()
        ));
    }
    for ev in events {
        out.push_str(&format!(
            "{{\"kind\":\"{}\",\"node\":{},\"peer\":{},\"round\":{},\"step\":{},\"label\":\"",
            ev.kind.as_str(),
            ev.node,
            ev.peer,
            ev.round,
            ev.step
        ));
        escape_into(&mut out, &ev.label);
        out.push_str(&format!(
            "\",\"start\":{},\"end\":{},\"value\":{},\"ok\":{},\"id\":{},\"cause\":{}}}\n",
            ev.start, ev.end, ev.value, ev.ok, ev.id, ev.cause
        ));
    }
    out
}

/// A parsed trace artifact.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The run's seed (from the header).
    pub seed: u64,
    /// The run's schedule name (from the header).
    pub schedule: String,
    /// Events dropped at record time (buffer cap).
    pub dropped: u64,
    /// Events deliberately trimmed by a per-node budget (the retained
    /// prefix per node is complete and canonical; see
    /// [`write_jsonl_trimmed`]).
    pub trimmed: u64,
    /// The recorded events, in recording order.
    pub events: Vec<TraceEvent>,
}

/// Byte index of the first of `stops` in `s` that is outside every
/// string literal (escaped quotes honored) and every `[...]` array.
pub(crate) fn find_unquoted(s: &str, stops: &[char]) -> Option<usize> {
    let (mut depth, mut in_str, mut escaped) = (0u32, false, false);
    for (i, c) in s.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
        } else if depth == 0 && stops.contains(&c) {
            return Some(i);
        } else if c == '[' {
            depth += 1;
        } else if c == ']' {
            depth = depth.saturating_sub(1);
        }
    }
    None
}

/// The raw text of `key`'s value on a JSON line: up to the ',' or '}'
/// that ends it, so a string keeps its quotes and an array its brackets.
pub(crate) fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    find_unquoted(rest, &[',', '}']).map(|end| &rest[..end])
}

/// A numeric field, parsed as the type the caller asks for: a value
/// that does not fit is an error, never a truncation.
pub(crate) fn field_num<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, String> {
    field_raw(line, key)
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| format!("missing or bad field {key:?} in {line:?}"))
}

/// Like [`field_num`] but tolerates an absent key (the `trimmed` header
/// field is written only when non-zero).
pub(crate) fn field_u64_or(line: &str, key: &str, default: u64) -> Result<u64, String> {
    match field_raw(line, key) {
        None => Ok(default),
        Some(s) => s
            .trim()
            .parse()
            .map_err(|_| format!("bad field {key:?} in {line:?}")),
    }
}

pub(crate) fn field_str(line: &str, key: &str) -> Result<String, String> {
    let raw = field_raw(line, key).ok_or_else(|| format!("missing field {key:?} in {line:?}"))?;
    let raw = raw.trim();
    let inner = raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("field {key:?} is not a string in {line:?}"))?;
    // Inverse of `escape_into`: one left-to-right pass, so a literal
    // backslash followed by 'n' can't be confused with an `\n` escape.
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| format!("bad \\u escape in field {key:?} of {line:?}"))?;
                out.push(code);
            }
            other => return Err(format!("bad escape {other:?} in field {key:?} of {line:?}")),
        }
    }
    Ok(out)
}

/// Parses the JSONL produced by [`write_jsonl`].
///
/// # Errors
///
/// Returns a description of the first malformed line; a header of any
/// version other than the one [`write_jsonl`] emits is malformed.
pub fn parse_jsonl(input: &str) -> Result<Trace, String> {
    let mut lines = input.lines();
    let header = lines.next().ok_or("empty trace")?;
    if field_str(header, "trace")? != "algorand" {
        return Err("not an algorand trace".into());
    }
    let version: u64 = field_num(header, "version")?;
    if version != 2 {
        return Err(format!("unsupported trace version {version}"));
    }
    let mut trace = Trace {
        seed: field_num(header, "seed")?,
        schedule: field_str(header, "schedule")?,
        dropped: field_num(header, "dropped")?,
        trimmed: field_u64_or(header, "trimmed", 0)?,
        events: Vec::new(),
    };
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let kind_name = field_str(line, "kind")?;
        let kind =
            SpanKind::parse(&kind_name).ok_or_else(|| format!("unknown kind {kind_name:?}"))?;
        trace.events.push(TraceEvent {
            kind,
            node: field_num(line, "node")?,
            round: field_num(line, "round")?,
            step: field_num(line, "step")?,
            label: Cow::Owned(field_str(line, "label")?),
            start: field_num(line, "start")?,
            end: field_num(line, "end")?,
            value: field_num(line, "value")?,
            ok: field_raw(line, "ok").map(str::trim) == Some("true"),
            id: field_num(line, "id")?,
            cause: field_num(line, "cause")?,
            peer: field_num(line, "peer")?,
        });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, node: u32, start: Micros, end: Micros) -> TraceEvent {
        TraceEvent {
            kind,
            node,
            round: 3,
            step: 2,
            label: Cow::Borrowed("binary"),
            start,
            end,
            value: 17,
            ok: true,
            id: 0xdead_beef,
            cause: 7,
            peer: 4,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.span(SpanKind::Round, 1, 1, 0).label("final").end_at(10);
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        assert!(t.export_jsonl(1, "none").starts_with("{\"trace\""));
    }

    #[test]
    fn span_guard_records_on_end() {
        let t = Tracer::bounded(16);
        t.span(SpanKind::BaStep, 4, 3, 100)
            .step(2)
            .label("binary")
            .value(17)
            .ok(true)
            .end_at(250);
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].duration(), 150);
        assert_eq!(evs[0].label, "binary");
    }

    #[test]
    fn buffer_bounds_and_counts_drops() {
        let t = Tracer::bounded(2);
        for i in 0..5u64 {
            t.span(SpanKind::Verify, 0, 1, i).instant();
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        // The newest two survive, oldest first.
        let starts: Vec<u64> = t.events().iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![3, 4]);
        let parsed = parse_jsonl(&t.export_jsonl(9, "s")).unwrap();
        assert_eq!(parsed.dropped, 3);
        assert_eq!(parsed.events, t.events());
    }

    #[test]
    fn zero_capacity_keeps_nothing_and_counts_everything() {
        let t = Tracer::bounded(0);
        for i in 0..3u64 {
            t.span(SpanKind::Verify, 0, 1, i).instant();
        }
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 3);
        let parsed = parse_jsonl(&t.export_jsonl(9, "s")).unwrap();
        assert_eq!((parsed.events.len(), parsed.dropped), (0, 3));
    }

    #[test]
    fn crash_dump_after_overflow_holds_the_newest_events() {
        let t = Tracer::bounded(3);
        for i in 0..9u64 {
            t.span(SpanKind::Verify, 0, i, i).label("vote").instant();
            assert_eq!(t.dropped() + t.len() as u64, i + 1);
        }
        let dump = t.try_export_jsonl(7, "crash wal_round=9").unwrap();
        assert_eq!(dump, t.export_jsonl(7, "crash wal_round=9"));
        let parsed = parse_jsonl(&dump).unwrap();
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.schedule, "crash wal_round=9");
        assert_eq!(parsed.dropped, 6);
        let rounds: Vec<u64> = parsed.events.iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![6, 7, 8]);
    }

    #[test]
    fn jsonl_roundtrips() {
        let events = vec![
            ev(SpanKind::Round, 0, 0, 5_000_000),
            ev(SpanKind::GossipHop, NO_NODE, 10, 20),
            TraceEvent {
                label: Cow::Borrowed("odd \"label\"\\with\nescapes"),
                ..ev(SpanKind::Fault, 7, 1, 1)
            },
        ];
        let text = write_jsonl(42, "crash_restart", 1, &events);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.seed, 42);
        assert_eq!(parsed.schedule, "crash_restart");
        assert_eq!(parsed.dropped, 1);
        assert_eq!(parsed.events, events);
    }

    #[test]
    fn export_is_byte_stable() {
        let record = || {
            let t = Tracer::bounded(8);
            t.span(SpanKind::Catchup, 3, 9, 77)
                .label("apply")
                .value(4)
                .end_at(80);
            t.export_jsonl(7, "x")
        };
        assert_eq!(record(), record());
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in [
            SpanKind::Round,
            SpanKind::Proposal,
            SpanKind::BaStep,
            SpanKind::Sortition,
            SpanKind::Verify,
            SpanKind::Tally,
            SpanKind::GossipHop,
            SpanKind::Catchup,
            SpanKind::Fault,
        ] {
            assert_eq!(SpanKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(SpanKind::parse("nope"), None);
    }

    #[test]
    fn causal_ids_are_stable_and_nonzero() {
        assert_ne!(stable_id(&[0u8; 32]), 0);
        assert_eq!(stable_id(&[9u8; 32]), stable_id(&[9u8; 32]));
        assert_ne!(span_id(1, 2, 3, 1), 0);
        assert_eq!(span_id(1, 2, 3, 1), span_id(1, 2, 3, 1));
        assert_ne!(span_id(1, 2, 3, 1), span_id(1, 2, 3, 2));
        assert_ne!(span_id(1, 2, 3, 1), span_id(2, 2, 3, 1));
    }

    #[test]
    fn order_hints_stamp_and_drain() {
        let t = Tracer::bounded(16);
        t.set_order_hint(7);
        t.span(SpanKind::Verify, 0, 1, 10).instant();
        t.set_order_hint(3);
        t.span(SpanKind::Verify, 0, 1, 20).instant();
        let drained = t.drain_with_hints();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, 7);
        assert_eq!(drained[1].0, 3);
        // The buffer is empty afterwards; dropped stays cumulative.
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        t.span(SpanKind::Verify, 0, 1, 30).instant();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn trimmed_header_roundtrips_and_defaults_to_zero() {
        let events = vec![ev(SpanKind::Round, 0, 0, 5)];
        let with = write_jsonl_trimmed(1, "s", 0, 9, &events);
        let parsed = parse_jsonl(&with).unwrap();
        assert_eq!(parsed.trimmed, 9);
        assert_eq!(parsed.dropped, 0);
        // Untrimmed exports keep the plain header bytes.
        let without = write_jsonl_trimmed(1, "s", 0, 0, &events);
        assert_eq!(without, write_jsonl(1, "s", 0, &events));
        assert_eq!(parse_jsonl(&without).unwrap().trimmed, 0);
    }

    #[test]
    fn reads_between_bursts_hand_out_every_event_once_in_order() {
        let t = Tracer::bounded(4);
        let (mut seen, mut read, mut next) = (0u64, Vec::new(), 0u64);
        for burst in [1u64, 4, 0, 3, 4, 2] {
            for _ in 0..burst {
                t.span(SpanKind::Verify, 0, next, next).instant();
                next += 1;
            }
            read.extend(t.events_since(&mut seen).iter().map(|e| e.round));
            assert_eq!(seen, next);
        }
        assert_eq!(read, (0..next).collect::<Vec<_>>());
        assert!(t.dropped() > 0, "the bursts overflowed the buffer");
        assert!(t.events_since(&mut seen).is_empty());
        // A read that falls behind the buffer skips what was evicted.
        for i in 0..6 {
            t.span(SpanKind::Verify, 0, next + i, 0).instant();
        }
        let rounds: Vec<u64> = t.events_since(&mut seen).iter().map(|e| e.round).collect();
        assert_eq!(rounds, (next + 2..next + 6).collect::<Vec<_>>());
        assert!(Tracer::disabled().events_since(&mut seen).is_empty());
    }
}
