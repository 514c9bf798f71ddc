//! Flight recorder: a bounded ring of the *most recent* trace events.
//!
//! The tracer's own buffer keeps the **first** `cap` events (good for
//! deterministic replay comparison); a crash investigation needs the
//! opposite — the *last* moments before the failure. The flight recorder
//! rides the tracer's observer slot (see [`crate::trace::fanout`] to
//! share that slot with the invariant monitor), keeping a sliding window
//! of recent events with exact eviction accounting, and dumps in the same
//! JSONL format as a full trace so every existing trace tool parses it.

use crate::trace::{write_jsonl, TraceEvent, TraceObserver};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// The ring itself: most recent `cap` events, with accounting.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<TraceEvent>,
    cap: usize,
    recorded: u64,
    evicted: u64,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `cap` events.
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            ring: VecDeque::with_capacity(cap.min(4096)),
            cap,
            recorded: 0,
            evicted: 0,
        }
    }

    /// Pushes one event, evicting the oldest when full.
    pub fn push(&mut self, ev: TraceEvent) {
        self.recorded += 1;
        self.ring.push_back(ev);
        if self.ring.len() > self.cap {
            self.ring.pop_front();
            self.evicted += 1;
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events ever pushed.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted to make room (recorded − retained).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// A cloneable handle to a shared [`FlightRecorder`]; the node runtime
/// holds one and hands [`FlightHandle::observer`] to the tracer.
#[derive(Clone, Debug)]
pub struct FlightHandle(Arc<Mutex<FlightRecorder>>);

struct FlightObserver(FlightHandle);

impl TraceObserver for FlightObserver {
    fn observe(&mut self, ev: &TraceEvent) {
        self.0 .0.lock().expect("flight lock").push(ev.clone());
    }
}

impl FlightHandle {
    /// A handle to a fresh recorder retaining `cap` events.
    pub fn new(cap: usize) -> FlightHandle {
        FlightHandle(Arc::new(Mutex::new(FlightRecorder::new(cap))))
    }

    /// An observer feeding this recorder, for [`crate::Tracer::set_observer`]
    /// (combine with other observers via [`crate::trace::fanout`]).
    pub fn observer(&self) -> Box<dyn TraceObserver> {
        Box::new(FlightObserver(self.clone()))
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.lock().expect("flight lock").events()
    }

    /// `(retained, recorded, evicted)` accounting snapshot.
    pub fn stats(&self) -> (usize, u64, u64) {
        let r = self.0.lock().expect("flight lock");
        (r.len(), r.recorded(), r.evicted())
    }

    /// Dumps the ring as trace JSONL keyed by `(seed, schedule)`. The
    /// header's `dropped` field carries the eviction count, so
    /// [`crate::parse_jsonl`] reads a flight dump exactly like a
    /// truncated trace.
    pub fn dump_jsonl(&self, seed: u64, schedule: &str) -> String {
        let r = self.0.lock().expect("flight lock");
        write_jsonl(seed, schedule, r.evicted(), &r.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_jsonl;
    use crate::trace::{SpanKind, Tracer};

    fn ev(i: u64) -> TraceEvent {
        TraceEvent {
            kind: SpanKind::Verify,
            node: 0,
            round: i,
            step: 0,
            label: std::borrow::Cow::Borrowed("vote"),
            start: i,
            end: i,
            value: 0,
            ok: true,
            id: 0,
            cause: 0,
            peer: crate::NO_NODE,
        }
    }

    #[test]
    fn retains_most_recent_cap_events() {
        let mut r = FlightRecorder::new(4);
        for i in 0..11u64 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.recorded(), 11);
        assert_eq!(r.evicted(), 7);
        let rounds: Vec<u64> = r.events().iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![7, 8, 9, 10]);
    }

    #[test]
    fn under_capacity_evicts_nothing() {
        let mut r = FlightRecorder::new(8);
        for i in 0..3u64 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.evicted(), 0);
        assert_eq!(r.recorded(), 3);
    }

    #[test]
    fn zero_capacity_counts_everything_as_evicted() {
        let mut r = FlightRecorder::new(0);
        r.push(ev(1));
        r.push(ev(2));
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 2);
        assert_eq!(r.evicted(), 2);
    }

    #[test]
    fn accounting_identity_holds() {
        let mut r = FlightRecorder::new(5);
        for i in 0..23u64 {
            r.push(ev(i));
            assert_eq!(r.recorded(), r.evicted() + r.len() as u64);
        }
    }

    #[test]
    fn dump_parses_with_the_trace_parser() {
        let h = FlightHandle::new(3);
        let t = Tracer::bounded(1); // Tiny buffer: observer still sees all.
        t.set_observer(h.observer());
        for i in 0..9u64 {
            t.span(SpanKind::Verify, 0, i, i).label("vote").instant();
        }
        let dump = h.dump_jsonl(7, "flight wal_round=9");
        let parsed = parse_jsonl(&dump).unwrap();
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.schedule, "flight wal_round=9");
        assert_eq!(parsed.dropped, 6); // Evictions ride the dropped field.
        let rounds: Vec<u64> = parsed.events.iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![6, 7, 8]);
    }
}
