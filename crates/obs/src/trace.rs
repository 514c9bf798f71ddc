//! Structured trace spans with a bounded in-memory buffer and byte-stable
//! JSONL export.
//!
//! Every span carries the same shape: a [`SpanKind`] from the fixed
//! taxonomy (round, BA⋆ step, sortition, verify, gossip hop, catch-up,
//! fault), the node id, the round, an optional step code, sim-time start
//! and end, a free `value` (bytes, counts), and an `ok` flag whose meaning
//! is kind-specific (verification verdict, votes-vs-timeout, final-vs-
//! tentative).
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
use std::sync::{Arc, Mutex};

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

/// A live consumer of every recorded event (the invariant monitor).
/// Observers see events *before* the buffer-cap check, so a truncated
/// trace still feeds the full stream to the observer.
pub trait TraceObserver: Send {
    /// Called once per recorded event, in recording order.
    fn observe(&mut self, ev: &TraceEvent);
}

struct Fanout(Vec<Box<dyn TraceObserver>>);

impl TraceObserver for Fanout {
    fn observe(&mut self, ev: &TraceEvent) {
        for obs in &mut self.0 {
            obs.observe(ev);
        }
    }
}

/// Combines observers into one, feeding each every event in order — the
/// tracer has a single observer slot, and the live node needs both the
/// invariant monitor and the flight recorder on it.
pub fn fanout(observers: Vec<Box<dyn TraceObserver>>) -> Box<dyn TraceObserver> {
    Box::new(Fanout(observers))
}

struct Buffer {
    events: Vec<TraceEvent>,
    /// Canonical-order keys assigned by the simulation engine, one per
    /// buffered event (see [`Tracer::set_order_hint`]). All zeros on a
    /// real node, where buffer order *is* canonical order.
    hints: Vec<u64>,
    /// The hint stamped onto the next recorded events.
    hint: u64,
    cap: usize,
    dropped: u64,
    observer: Option<Box<dyn TraceObserver>>,
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

    /// A tracer with a bounded in-memory buffer; events past `cap` are
    /// counted as dropped instead of growing memory without bound.
    pub fn bounded(cap: usize) -> Tracer {
        Tracer(Some(Arc::new(Mutex::new(Buffer {
            events: Vec::new(),
            hints: Vec::new(),
            hint: 0,
            cap,
            dropped: 0,
            observer: None,
        }))))
    }

    /// Whether recording does anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Attaches a live observer fed every subsequent event. No-op on a
    /// disabled tracer. A later call replaces the previous observer.
    pub fn set_observer(&self, observer: Box<dyn TraceObserver>) {
        if let Some(buf) = &self.0 {
            buf.lock().expect("trace lock").observer = Some(observer);
        }
    }

    /// Records a complete event.
    pub fn record(&self, ev: TraceEvent) {
        let Some(buf) = &self.0 else { return };
        let mut buf = buf.lock().expect("trace lock");
        if let Some(observer) = buf.observer.as_mut() {
            observer.observe(&ev);
        }
        if buf.events.len() >= buf.cap {
            buf.dropped += 1;
        } else {
            let hint = buf.hint;
            buf.events.push(ev);
            buf.hints.push(hint);
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
        let mut buf = buf.lock().expect("trace lock");
        let events = std::mem::take(&mut buf.events);
        let hints = std::mem::take(&mut buf.hints);
        hints.into_iter().zip(events).collect()
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

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |b| b.lock().expect("trace lock").dropped)
    }

    /// A snapshot copy of the buffered events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |b| b.lock().expect("trace lock").events.clone())
    }

    /// A snapshot of at most `max` buffered events starting at buffer
    /// index `cursor`, plus the current buffer length. The buffer keeps
    /// the *first* `cap` events in stable order and is append-only, so
    /// `(cursor, returned.len())` form a resumable drain position: a
    /// later call with `cursor + returned.len()` continues exactly where
    /// this one stopped, and re-reading an old cursor returns the same
    /// prefix bytes. This is what the node's TELEMETRY `TRACE_DRAIN` op
    /// serves.
    pub fn events_from(&self, cursor: usize, max: usize) -> (Vec<TraceEvent>, usize) {
        let Some(buf) = &self.0 else {
            return (Vec::new(), 0);
        };
        let buf = buf.lock().expect("trace lock");
        let total = buf.events.len();
        let lo = cursor.min(total);
        let hi = lo.saturating_add(max).min(total);
        (buf.events[lo..hi].to_vec(), total)
    }

    /// Exports the buffer as JSONL keyed by `(seed, schedule)`; see
    /// [`write_jsonl`].
    pub fn export_jsonl(&self, seed: u64, schedule: &str) -> String {
        write_jsonl(seed, schedule, self.dropped(), &self.events())
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
        let parsed = parse_jsonl(&t.export_jsonl(9, "s")).unwrap();
        assert_eq!(parsed.dropped, 3);
        assert_eq!(parsed.events.len(), 2);
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
    fn cursor_reads_are_resumable_and_stable() {
        let t = Tracer::bounded(16);
        for i in 0..10u64 {
            t.span(SpanKind::Verify, 0, i, i).instant();
        }
        let (chunk1, total1) = t.events_from(0, 4);
        assert_eq!((chunk1.len(), total1), (4, 10));
        // More events arrive between reads; the old range re-reads
        // identically (append-only, first-N retention).
        for i in 10..13u64 {
            t.span(SpanKind::Verify, 0, i, i).instant();
        }
        let (again, total2) = t.events_from(0, 4);
        assert_eq!(again, chunk1);
        assert_eq!(total2, 13);
        // Resuming from the previous position drains the rest.
        let (rest, _) = t.events_from(4, usize::MAX);
        assert_eq!(rest.len(), 9);
        assert_eq!(rest[0].round, 4);
        // Past-the-end and disabled tracers return empty.
        assert_eq!(t.events_from(99, 4).0.len(), 0);
        assert_eq!(Tracer::disabled().events_from(0, 4), (Vec::new(), 0));
    }

    #[test]
    fn observer_sees_events_past_the_buffer_cap() {
        struct Counter(Arc<Mutex<u64>>);
        impl TraceObserver for Counter {
            fn observe(&mut self, _ev: &TraceEvent) {
                *self.0.lock().unwrap() += 1;
            }
        }
        let seen = Arc::new(Mutex::new(0u64));
        let t = Tracer::bounded(2);
        t.set_observer(Box::new(Counter(seen.clone())));
        for i in 0..5u64 {
            t.span(SpanKind::Verify, 0, 1, i).instant();
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(*seen.lock().unwrap(), 5);
    }
}
