//! The shared metrics registry: named counters, gauges, and histograms
//! behind cheap cloneable handles.
//!
//! One [`Registry`] serves a whole simulated deployment. Handles are
//! `Arc`-backed, so any number of nodes (or a node recreated after a
//! crash/restart) can hold the same metric: registration is idempotent —
//! asking for an existing name returns the *same* underlying metric, which
//! is what keeps restarted nodes from double-registering per-node state.
//!
//! Determinism: metrics are write-only from the instrumented code's point
//! of view — nothing in the hot path reads a metric to make a decision —
//! so attaching or detaching a registry cannot change simulation behavior.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that is set, not accumulated (idempotent republish).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared handle to a [`Histogram`].
#[derive(Clone, Debug, Default)]
pub struct HistHandle(Arc<Mutex<Histogram>>);

impl HistHandle {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.0.lock().expect("histogram lock").record(v);
    }

    /// Merges a node-local histogram into the shared one.
    pub fn merge_from(&self, other: &Histogram) {
        self.0.lock().expect("histogram lock").merge(other);
    }

    /// Replaces the contents (idempotent republish of an aggregate).
    pub fn replace(&self, h: Histogram) {
        *self.0.lock().expect("histogram lock") = h;
    }

    /// A snapshot copy.
    pub fn snapshot(&self) -> Histogram {
        self.0.lock().expect("histogram lock").clone()
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistHandle),
}

/// A point-in-time copy of one metric's value, for exposition.
#[derive(Clone, Debug)]
pub enum MetricSnapshot {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A histogram's full state.
    Histogram(Histogram),
}

/// The process-wide registry mapping names to metrics.
#[derive(Clone, Default)]
pub struct Registry(Arc<Mutex<BTreeMap<String, Metric>>>);

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The metric named `name`, registered by `new` on first use.
    fn metric(&self, name: &str, new: fn() -> Metric) -> Metric {
        let mut map = self.0.lock().expect("registry lock");
        map.entry(name.to_string()).or_insert_with(new).clone()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Counter {
        match self.metric(name, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name} is not a counter"),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.metric(name, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name} is not a gauge"),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> HistHandle {
        match self.metric(name, || Metric::Histogram(HistHandle::default())) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name} is not a histogram"),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.0.lock().expect("registry lock").len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every registered metric, sorted by name
    /// (byte order). The exposition renderer and the node's telemetry
    /// plane build on this.
    pub fn snapshot_all(&self) -> Vec<(String, MetricSnapshot)> {
        let map = self.0.lock().expect("registry lock");
        map.iter()
            .map(|(name, metric)| {
                let snap = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                    Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                };
                (name.clone(), snap)
            })
            .collect()
    }

    /// Renders every metric, one line each, sorted by name — the textual
    /// report the sim and benches print. Times recorded in µs are shown
    /// raw; callers choose the unit at recording time.
    pub fn render(&self) -> String {
        let map = self.0.lock().expect("registry lock");
        let mut out = String::new();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} = {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{name} = {}\n", g.get())),
                Metric::Histogram(h) => {
                    let h = h.snapshot();
                    match (h.min(), h.p50(), h.p99(), h.max()) {
                        (Some(min), Some(p50), Some(p99), Some(max)) => out.push_str(&format!(
                            "{name}: count={} min={min} p50={p50} p99={p99} max={max}\n",
                            h.count()
                        )),
                        _ => out.push_str(&format!("{name}: count=0\n")),
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        // Both handles hit the same metric: a restarted node re-registering
        // by name keeps accumulating instead of double-counting.
        assert_eq!(a.get(), 3);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn type_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn gauge_republish_is_idempotent() {
        let reg = Registry::new();
        let g = reg.gauge("tip");
        g.set(7);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter("b.count").add(2);
        reg.gauge("a.level").set(-1);
        reg.histogram("c.lat");
        let r1 = reg.render();
        let r2 = reg.render();
        assert_eq!(r1, r2);
        let lines: Vec<&str> = r1.lines().collect();
        assert!(lines[0].starts_with("a.level"));
        assert!(lines[1].starts_with("b.count"));
        assert!(lines[2].starts_with("c.lat: count=0"));
    }
}
