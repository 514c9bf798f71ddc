//! Trace-driven reproduction of the paper's §10 latency breakdown.
//!
//! Runs the 50-user payment workload with tracing enabled, exports the
//! structured trace as JSONL, and rebuilds the evaluation's headline
//! figures *from the trace alone* — the same way the paper's authors
//! instrumented their EC2 deployment:
//!
//!   * Figure 5-style round-latency breakdown: block proposal vs BA⋆
//!     reduction vs BinaryBA⋆ vs the final step, with p50/p99 per stage,
//!   * per-BA⋆-step wall-clock summaries,
//!   * per-user bandwidth (Figure 8's resource axis),
//!   * verification and sortition activity,
//!   * and, for a scripted chaos run, a recovery timeline aligning
//!     FaultSchedule events with the nodes' catch-up/recovery spans.
//!
//! `--check` runs the determinism gate instead: the same `(seed,
//! schedule)` traced twice must export byte-identical JSONL and chain
//! digests, tracing itself must not change the digest of an untraced
//! run, and the parallel engine's budget-trimmed export must be
//! deterministic with exact `trimmed` accounting (deliberate trimming
//! is fine; silent truncation is not). Exit code is non-zero on any
//! mismatch, so CI gates on it.

use algorand_bench::run_payment_workload;
use algorand_obs::{parse_jsonl, Percentiles, SpanKind, Trace, TraceEvent};
use algorand_sim::{DesConfig, FaultSchedule, Micros, ParallelSim, SimConfig, Simulation};
use std::collections::BTreeMap;
use std::process::ExitCode;

const SEC: Micros = 1_000_000;

/// A 16-user chaos scenario: a healed bipartition plus a crash/restart,
/// so the trace contains fault, catch-up and recovery spans to align.
fn chaos_cfg() -> (SimConfig, FaultSchedule) {
    let mut cfg = SimConfig::new(16);
    cfg.seed = 29;
    cfg.trace = true;
    let schedule = FaultSchedule::new()
        .bipartition(16, 8, 30 * SEC, 90 * SEC)
        .crash_restart(0, 40 * SEC, 100 * SEC);
    (cfg, schedule)
}

/// A short run on the parallel engine under a deliberately tiny
/// per-node retention budget, so the export exercises the trimmed path.
fn run_trimmed() -> String {
    let mut cfg = SimConfig::new(12);
    cfg.seed = 31;
    cfg.trace = true;
    let mut sim = ParallelSim::new(DesConfig {
        sim: cfg,
        workers: 2,
        trace_node_budget: 32,
    });
    sim.run_until(45 * SEC);
    sim.export_trace("trimmed-check")
}

fn run_chaos() -> Simulation {
    let (cfg, schedule) = chaos_cfg();
    let mut sim = Simulation::new(cfg);
    sim.set_fault_schedule(schedule);
    // Run through the whole fault window (last restart at 100s) plus a
    // recovery margin, so the trace contains the catch-up spans.
    sim.run_until(160 * SEC);
    sim
}

/// Durations, in seconds, of every span matching `kind` (and `label`,
/// unless empty).
fn durations(trace: &Trace, kind: SpanKind, label: &str) -> Vec<f64> {
    trace
        .events
        .iter()
        .filter(|e| e.kind == kind && (label.is_empty() || e.label == label))
        .map(|e| e.duration() as f64 / 1e6)
        .collect()
}

fn fmt_line(name: &str, secs: &[f64]) -> String {
    if secs.is_empty() {
        return format!("  {name:<22} (no spans)");
    }
    let p = Percentiles::of(secs);
    format!(
        "  {name:<22} n={:<5} p50={:6.2}s p99={:6.2}s max={:6.2}s",
        secs.len(),
        p.median,
        p.p99,
        p.max
    )
}

/// The Figure-5-style stage breakdown, computed purely from the trace.
fn print_latency_breakdown(trace: &Trace) {
    println!("latency breakdown (per-node spans, all rounds):");
    println!(
        "{}",
        fmt_line("round total", &durations(trace, SpanKind::Round, ""))
    );
    println!(
        "{}",
        fmt_line("block proposal", &durations(trace, SpanKind::Proposal, ""))
    );
    for (name, label) in [
        ("BA* reduction step 1", "reduction1"),
        ("BA* reduction step 2", "reduction2"),
        ("BinaryBA* steps", "binary"),
        ("final count step", "final"),
    ] {
        println!(
            "{}",
            fmt_line(name, &durations(trace, SpanKind::BaStep, label))
        );
    }
    let rounds: Vec<&TraceEvent> = trace
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::Round)
        .collect();
    let finals = rounds.iter().filter(|e| e.label == "final").count();
    println!(
        "  consensus kinds: {} final, {} tentative",
        finals,
        rounds.len() - finals
    );
}

/// Per-BA⋆-step wall-clock: BaStep spans grouped by phase, BinaryBA⋆
/// further split by its step number.
fn print_step_wallclock(trace: &Trace) {
    let mut by_step: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for e in &trace.events {
        if e.kind == SpanKind::BaStep {
            let key = if e.label == "binary" {
                format!("binary step {}", e.step)
            } else {
                e.label.to_string()
            };
            by_step
                .entry(key)
                .or_default()
                .push(e.duration() as f64 / 1e6);
        }
    }
    println!("per-step wall-clock (BA* phase -> span durations):");
    for (step, secs) in &by_step {
        println!("{}", fmt_line(step, secs));
    }
}

/// Per-user bandwidth, from the uplink/downlink summary events the
/// exporter appends (Figure 8's resource axis).
fn print_bandwidth(trace: &Trace) {
    let totals = |label: &str| -> Vec<f64> {
        trace
            .events
            .iter()
            .filter(|e| e.kind == SpanKind::GossipHop && e.label == label)
            .map(|e| e.value as f64 / 1e6)
            .collect()
    };
    let horizon = trace
        .events
        .iter()
        .filter(|e| e.label == "uplink_total")
        .map(|e| e.end)
        .max()
        .unwrap_or(0) as f64
        / 1e6;
    println!("per-user bandwidth over {horizon:.0}s of virtual time:");
    for (name, label) in [("uplink", "uplink_total"), ("downlink", "downlink_total")] {
        let mb = totals(label);
        if mb.is_empty() || horizon == 0.0 {
            println!("  {name:<9} (no summary events)");
            continue;
        }
        let p = Percentiles::of(&mb);
        println!(
            "  {name:<9} min={:6.2} MB  p50={:6.2} MB  max={:6.2} MB  (median {:5.0} kbit/s)",
            p.min,
            p.median,
            p.max,
            p.median * 8e3 / horizon
        );
    }
    // Network-wide per-kind byte split (the exporter's bytes_* summary
    // events): where the bandwidth actually goes.
    let kind_total: u64 = trace
        .events
        .iter()
        .filter(|e| e.label.starts_with("bytes_"))
        .map(|e| e.value)
        .sum();
    if kind_total > 0 {
        print!("  per-kind share:");
        for e in trace
            .events
            .iter()
            .filter(|e| e.label.starts_with("bytes_"))
        {
            print!(
                "  {}={:.1}%",
                e.label.trim_start_matches("bytes_"),
                e.value as f64 / kind_total as f64 * 100.0
            );
        }
        println!();
    }
    let hops = durations(trace, SpanKind::GossipHop, "block_body");
    println!("{}", fmt_line("block-body gossip hop", &hops));
}

/// Verification + sortition activity, grouped by label.
fn print_verify_sortition(trace: &Trace) {
    let mut verify: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    let mut sortition: BTreeMap<String, usize> = BTreeMap::new();
    for e in &trace.events {
        match e.kind {
            SpanKind::Verify => {
                let slot = verify.entry(e.label.to_string()).or_default();
                slot.0 += 1;
                slot.1 += e.ok as usize;
            }
            SpanKind::Sortition => *sortition.entry(e.label.to_string()).or_default() += 1,
            _ => {}
        }
    }
    println!("verification (per message kind, at the consuming nodes):");
    for (label, (n, ok)) in &verify {
        println!("  {label:<10} {n:>6} checked, {ok:>6} valid");
    }
    println!("sortition wins (proposer selections / committee memberships):");
    for (label, n) in &sortition {
        println!("  {label:<10} {n:>6}");
    }
}

/// The chaos run's recovery timeline: scripted faults interleaved with
/// the catch-up and §8.2 recovery spans they triggered.
fn print_recovery_timeline(trace: &Trace) {
    let mut lines: Vec<(Micros, String)> = Vec::new();
    for e in &trace.events {
        let who = if e.node == u32::MAX {
            "network".to_string()
        } else {
            format!("node {:>2}", e.node)
        };
        match e.kind {
            SpanKind::Fault if e.label == "recovery_enter" => lines.push((
                e.start,
                format!("{who} enters §8.2 recovery (attempt {})", e.step),
            )),
            SpanKind::Fault if e.label == "recovery_done" => {
                lines.push((e.start, format!("{who} completes fork recovery")))
            }
            SpanKind::Fault => lines.push((e.start, format!("{who} fault: {}", e.label))),
            SpanKind::Catchup if e.label == "apply" => lines.push((
                e.start,
                format!(
                    "{who} catch-up applied {} rounds (tip -> {})",
                    e.value, e.round
                ),
            )),
            _ => {}
        }
    }
    lines.sort();
    println!("recovery timeline (scripted faults vs observed recovery):");
    let shown = lines.len().min(40);
    for (t, text) in lines.iter().take(shown) {
        println!("  t={:7.2}s  {text}", *t as f64 / 1e6);
    }
    if lines.len() > shown {
        println!("  ... {} more events", lines.len() - shown);
    }
}

fn report() -> ExitCode {
    println!("== trace report: 50-user payment workload (seed 23) ==");
    let sim = run_payment_workload(true);
    let jsonl = sim.export_trace("payment-50");
    let trace = parse_jsonl(&jsonl).expect("exporter emits valid JSONL");
    println!(
        "trace: seed={} schedule={} events={} dropped={}",
        trace.seed,
        trace.schedule,
        trace.events.len(),
        trace.dropped
    );
    if trace.dropped > 0 {
        println!(
            "WARNING: trace truncated ({} events dropped past the buffer cap); \
             per-span sections undercount",
            trace.dropped
        );
    }
    print_latency_breakdown(&trace);
    print_step_wallclock(&trace);
    print_bandwidth(&trace);
    print_verify_sortition(&trace);
    sim.publish_metrics();
    println!(
        "registry ({} metrics), selected entries:",
        sim.registry().len()
    );
    for line in sim.registry().render().lines() {
        if line.starts_with("round.")
            || line.starts_with("gossip.")
            || line.starts_with("txpool.")
            || line.starts_with("workload.")
        {
            println!("  {line}");
        }
    }
    println!("{}", sim.pipeline_report());

    println!();
    println!("== trace report: 16-user chaos run (partition + crash, seed 29) ==");
    let chaos = run_chaos();
    let chaos_jsonl = chaos.export_trace("chaos-16");
    let chaos_trace = parse_jsonl(&chaos_jsonl).expect("exporter emits valid JSONL");
    println!(
        "trace: seed={} schedule={} events={} dropped={}",
        chaos_trace.seed,
        chaos_trace.schedule,
        chaos_trace.events.len(),
        chaos_trace.dropped
    );
    print_recovery_timeline(&chaos_trace);
    println!("{}", chaos.fault_report());
    ExitCode::SUCCESS
}

/// CI determinism gate: tracing must be invisible to the protocol.
fn check() -> ExitCode {
    let a = run_payment_workload(true);
    let b = run_payment_workload(true);
    let plain = run_payment_workload(false);
    let jsonl_a = a.export_trace("payment-50");
    let jsonl_b = b.export_trace("payment-50");
    let mut ok = true;
    if jsonl_a != jsonl_b {
        println!("trace check: FAILED (same seed+schedule produced different JSONL)");
        ok = false;
    } else {
        println!(
            "trace check: identical JSONL across reruns ({} bytes, {} events)",
            jsonl_a.len(),
            jsonl_a.lines().count() - 1
        );
    }
    if a.chain_digest() != b.chain_digest() {
        println!("trace check: FAILED (same seed+schedule produced different digests)");
        ok = false;
    }
    if a.chain_digest() != plain.chain_digest() {
        println!("trace check: FAILED (tracing changed the chain digest)");
        ok = false;
    } else {
        println!("trace check: tracing on/off leaves the chain digest unchanged");
    }
    // A truncated trace silently undercounts every per-span section, so
    // the gate treats it as a failure rather than a warning. Deliberate
    // per-node *trimming* (the parallel engine's retention budget) is
    // different: it is accounted in the export header and checked below.
    let dropped = a.trace_dropped().max(b.trace_dropped());
    if dropped > 0 {
        println!("trace check: FAILED (trace truncated: {dropped} events dropped)");
        ok = false;
    } else {
        println!("trace check: no dropped events (trace is complete)");
    }

    // The budgeted parallel engine: the retained prefix must itself be
    // deterministic JSONL, parse cleanly, and carry exact `trimmed`
    // accounting — trimming must never read as silent truncation.
    let trimmed_a = run_trimmed();
    let trimmed_b = run_trimmed();
    if trimmed_a != trimmed_b {
        println!("trace check: FAILED (trimmed exports diverged across reruns)");
        ok = false;
    } else {
        match parse_jsonl(&trimmed_a) {
            Ok(trace) if trace.dropped == 0 && trace.trimmed > 0 => {
                println!(
                    "trace check: trimmed export deterministic and accounted \
                     ({} events retained, {} trimmed)",
                    trace.events.len(),
                    trace.trimmed
                );
            }
            Ok(trace) => {
                println!(
                    "trace check: FAILED (budgeted run: dropped={} trimmed={}, \
                     expected 0 dropped and >0 trimmed)",
                    trace.dropped, trace.trimmed
                );
                ok = false;
            }
            Err(e) => {
                println!("trace check: FAILED (trimmed export does not parse: {e})");
                ok = false;
            }
        }
    }
    if ok {
        println!("trace check: OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--check") {
        check()
    } else {
        report()
    }
}
