//! Dependency-free observability for the Algorand reproduction.
//!
//! Three pieces, built for a deterministic discrete-event simulation:
//!
//! - **Trace spans** ([`Tracer`], [`Span`], [`TraceEvent`]): a structured
//!   event API over the fixed [`SpanKind`] taxonomy (round, proposal, BA⋆
//!   step, sortition, verify, gossip hop, catch-up, fault). Events carry
//!   node id, round, step, and sim-time start/end, live in a bounded
//!   in-memory buffer, and export as byte-stable JSONL keyed by
//!   `(seed, schedule)` — see [`write_jsonl`] / [`parse_jsonl`].
//! - **Metrics registry** ([`Registry`]): process-wide named counters,
//!   gauges, and histograms behind cloneable typed handles. Registration
//!   is idempotent by name, so nodes recreated after a crash/restart
//!   re-attach to the same metric instead of double-counting.
//! - **Summaries** ([`Percentiles`], [`Histogram`]): the exact
//!   interpolated five-number summary used by the paper-style reports,
//!   and a constant-memory log-scale histogram (8 sub-buckets per octave,
//!   ≤ 12.5% relative error) with p50/p99 extraction and fleet merge.
//! - **Causal analysis** ([`causal`]): every causal event carries a
//!   stable `id` and a `cause` link; [`causal::critical_paths`] walks a
//!   round's certificate backward across nodes to the proposal that
//!   seeded it, with per-edge latency attribution, and [`Gate`] is the
//!   one statement of what those paths must satisfy.
//! - **Cluster merge** ([`merge`]): fuses per-process traces into one
//!   causal graph — clocks aligned via finalized-round anchor spans
//!   (content-hashed ids match across processes), per-node skew bounds
//!   recorded, sender/receiver hop halves fused into sim-shaped hops —
//!   so [`causal::critical_paths`] walks a live cluster's rounds across
//!   process boundaries. [`merge::parse_merged`] loads a merged or a
//!   plain trace, and [`merge::render_report`] renders either one's
//!   paths: the `trace` bench bin is a command line over these.
//! - **Invariant monitor** ([`monitor`]): an online checker fed live
//!   from the tracer's observer slot — conflicting certificates,
//!   committee tail bounds, seed-chain validity, vote accounting, and
//!   FutureVotes staleness.
//! - **Exposition** ([`expose`]): a byte-stable plain-text metrics
//!   format (`name{labels} value`, deterministic ordering, escaped
//!   label values) with a hand-rolled round-trip parser — what a live
//!   node rewrites into its `metrics.txt`.
//! - **Flight recorder** ([`flight`]): a bounded ring of the *most
//!   recent* trace events (the tracer buffer keeps the first N; crash
//!   forensics need the last N), dumpable as the same JSONL as a full
//!   trace. [`fanout`] shares the tracer's single observer slot between
//!   the monitor and the recorder.
//!
//! Everything here is write-only from the instrumented code's point of
//! view and consumes no randomness, so enabling or disabling observability
//! cannot change simulation behavior — the trace-determinism CI gate
//! asserts exactly that.

#![forbid(unsafe_code)]

pub mod causal;
pub mod expose;
pub mod flight;
mod hist;
pub mod merge;
pub mod monitor;
mod registry;
pub mod trace;

pub use causal::{critical_paths, CausalGraph, CriticalPath, Edge, EdgeKind, Gate};
pub use expose::{labeled, Sample};
pub use flight::{FlightHandle, FlightRecorder};
pub use hist::{Histogram, Percentiles};
pub use merge::{Merged, NodeMeta, NodeTrace};
pub use monitor::{Invariant, InvariantMonitor, MonitorConfig, MonitorHandle, MonitorReport};
pub use registry::{Counter, Gauge, HistHandle, MetricSnapshot, Registry};
pub use trace::{
    fanout, parse_jsonl, span_id, stable_id, write_jsonl, write_jsonl_trimmed, Micros, Span,
    SpanKind, Trace, TraceEvent, TraceObserver, Tracer, NO_NODE,
};

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_reports_exactly() {
        let mut h = Histogram::new();
        h.record(123_457);
        // The bucket floor is below the sample, but clamping into
        // [min, max] makes a one-sample histogram exact at every quantile.
        assert_eq!(h.p50(), Some(123_457));
        assert_eq!(h.p99(), Some(123_457));
        assert_eq!(h.quantile(0.0), Some(123_457));
        assert_eq!(h.quantile(1.0), Some(123_457));
        assert_eq!(h.min(), Some(123_457));
        assert_eq!(h.max(), Some(123_457));
    }

    #[test]
    fn overflow_bucket_catches_huge_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 60);
        h.record(5);
        assert_eq!(h.overflow_count(), 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(u64::MAX));
        // p99 lands in the overflow bucket, whose representative is its
        // lower bound 2^48 — clamped into the observed [min, max] range.
        assert_eq!(h.p99(), Some(1u64 << 48));
        assert_eq!(h.quantile(0.1), Some(5));
    }

    #[test]
    fn merge_combines_two_node_local_histograms() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=500u64 {
            a.record(v);
        }
        for v in 501..=1000u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(1000));
        assert_eq!(a.sum(), (1..=1000u128).sum::<u128>());
        let p50 = a.p50().unwrap() as f64;
        assert!((p50 - 500.0).abs() <= 500.0 / 8.0 + 1.0, "p50 {p50}");
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(42);
        let before = (a.count(), a.min(), a.max(), a.p50());
        a.merge(&Histogram::new());
        assert_eq!((a.count(), a.min(), a.max(), a.p50()), before);

        let mut empty = Histogram::new();
        let mut one = Histogram::new();
        one.record(42);
        empty.merge(&one);
        assert_eq!(empty.p50(), Some(42));
    }

    #[test]
    fn registry_histogram_merges_across_nodes() {
        let reg = Registry::new();
        let shared = reg.histogram("round.latency_us");
        let mut node_a = Histogram::new();
        node_a.record(100);
        let mut node_b = Histogram::new();
        node_b.record(300);
        shared.merge_from(&node_a);
        shared.merge_from(&node_b);
        let snap = shared.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.min(), Some(100));
        assert_eq!(snap.max(), Some(300));
    }
}
