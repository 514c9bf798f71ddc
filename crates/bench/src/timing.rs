//! A minimal micro-benchmark harness (the workspace builds hermetically,
//! so there is no external bench framework).
//!
//! Adaptive iteration counts target a fixed measurement window per batch,
//! several batches are timed, and the median batch is reported — the same
//! shape as the usual harnesses, minus the statistics machinery. Numbers
//! are indicative; trends across sizes are what the benches document.

use std::time::Instant;

/// Number of timed batches per benchmark.
const BATCHES: usize = 5;
/// Target wall-clock per batch.
const TARGET_BATCH: f64 = 0.2;

/// Times `f`, printing `name: <t>/op` with the median batch estimate.
///
/// Returns the per-iteration time in nanoseconds.
pub fn bench<F: FnMut()>(name: &str, mut f: F) -> f64 {
    // Calibrate: run until 10ms has passed to estimate the cost of one call.
    let mut calib_iters: u64 = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 0.01 {
        f();
        calib_iters += 1;
    }
    let per_iter = start.elapsed().as_secs_f64() / calib_iters as f64;
    let iters = ((TARGET_BATCH / per_iter) as u64).clamp(1, 10_000_000);
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / iters as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let median = samples[BATCHES / 2];
    println!(
        "{name:<44} {:>12}/op  ({iters} iters/batch)",
        fmt_secs(median)
    );
    median * 1e9
}

fn fmt_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_plausible_times() {
        let mut x = 0u64;
        let ns = bench("noop-ish", || {
            x = std::hint::black_box(x.wrapping_add(1));
        });
        assert!(ns > 0.0 && ns < 1e6, "ns/op {ns}");
    }
}
