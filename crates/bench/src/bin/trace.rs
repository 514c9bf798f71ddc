//! The trace tool: reads the paper's §10 latency breakdown back out of
//! traces, simulated or written by a cluster's processes.
//!
//! ```text
//! trace report                  §10 figures from two traced simulator runs
//! trace paths                   every payment round's critical path
//! trace check                   the simulator's trace gate
//! trace check FILE              the gate on a merged cluster trace
//! trace collect --dir ROOT [--out FILE] [--report FILE]
//! trace health --dir ROOT [--out FILE]
//! ```
//!
//! `report` runs the 50-user payment workload traced and rebuilds from
//! the exported JSONL alone — the way the paper's authors instrumented
//! their EC2 deployment — the Figure-5-style stage breakdown (p50/p99 per
//! stage), per-BA⋆-step wall-clock, per-user bandwidth (Figure 8's
//! resource axis) and verification and sortition activity; then, for a
//! scripted chaos run, a timeline of its faults against the catch-up and
//! recovery spans they triggered. `paths` walks every payment round's
//! certificate back along the trace's `cause` links to the proposal that
//! seeded it and attributes each edge to proposal, gossip, verify or BA⋆
//! step. Both are pure functions of compiled-in seeds:
//! `results/trace_report.txt` and `results/critical_path.txt`.
//!
//! `check` runs the payment workload twice traced and once untraced.
//! Tracing must be replayable and invisible: byte-identical JSONL and
//! digests across the traced runs, the untraced run's digest, and no
//! dropped event; a parallel run under a tiny retention budget must
//! export deterministically with exact `trimmed` accounting. The two
//! traces must render the same critical-path report, and their paths
//! must clear the simulator's bar (8 rounds, 95% coverage). `check FILE`
//! holds a merged cluster trace to [`Gate::CLUSTER`], re-rendering it
//! byte for byte; `Merged::problems` adds the record-time drops and the
//! per-node anchor count to both.
//!
//! `collect` merges the `trace.jsonl` files a deployment's processes
//! wrote at exit, one per `ROOT/*/` node directory, into one cluster
//! trace (defaults `results/cluster_trace.{jsonl,txt}`). `health`
//! reads the `metrics.txt` every node under `ROOT/*/` rewrites at each
//! STATUS tick, once, and prints the cluster health report. It needs the
//! nodes' directories: there is no way to ask a node for its metrics
//! over the network.
//!
//! Exit code: 0 on success (for `health`: every node's file readable,
//! clean and agreeing on its tip), 1 on a failed check, collection or
//! health, 2 on a usage error.

use algorand_bench::{path_problems, run_payment_workload};
use algorand_node::telemetry::{collect_trace, discover, ClusterHealth};
use algorand_obs::merge::{parse_merged, render_report};
use algorand_obs::{expose, parse_jsonl, Gate, Percentiles, SpanKind, Trace, TraceEvent};
use algorand_sim::{DesConfig, FaultSchedule, Micros, ParallelSim, SimConfig, Simulation};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

const SEC: Micros = 1_000_000;

/// The simulator's bar: all 8 payment rounds, and 95% of each finalized
/// round's latency — one clock leaves no alignment residue.
const SIM_GATE: Gate = Gate {
    min_rounds: 8,
    min_coverage: 0.95,
    cross_process: false,
};

const USAGE: &str = "usage: trace report | paths | check [FILE]
       trace collect --dir ROOT [--out FILE] [--report FILE]
       trace health --dir ROOT [--out FILE]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args
        .split_first()
        .map_or(("", &[][..]), |(cmd, rest)| (cmd.as_str(), rest));
    // Ok(false) is a failure (exit 1); Err names a usage error (exit 2).
    let outcome = match (cmd, rest) {
        ("report", []) => Ok(report()),
        ("paths", []) => Ok(paths()),
        ("check", []) => Ok(check()),
        ("check", [file]) => Ok(check_file(file)),
        ("collect", rest) => collect(rest),
        ("health", rest) => health(rest),
        _ => Err(format!("unknown command line {args:?}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("trace: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// A 16-user chaos scenario: a healed bipartition plus a crash/restart,
/// so the trace contains fault, catch-up and recovery spans to align.
fn run_chaos() -> Simulation {
    let mut cfg = SimConfig::new(16);
    cfg.seed = 29;
    cfg.trace = true;
    let mut sim = Simulation::new(cfg);
    sim.set_fault_schedule(
        FaultSchedule::new()
            .bipartition(16, 8, 30 * SEC, 90 * SEC)
            .crash_restart(0, 40 * SEC, 100 * SEC),
    );
    // Run through the whole fault window (last restart at 100s) plus a
    // recovery margin, so the trace contains the catch-up spans.
    sim.run_until(160 * SEC);
    sim
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

fn print_trace_header(trace: &Trace) {
    println!(
        "trace: seed={} schedule={} events={} dropped={}",
        trace.seed,
        trace.schedule,
        trace.events.len(),
        trace.dropped
    );
}

fn report() -> bool {
    println!("== trace report: 50-user payment workload (seed 23) ==");
    let sim = run_payment_workload(true);
    let trace = parse_jsonl(&sim.export_trace("payment-50")).expect("exporter emits valid JSONL");
    print_trace_header(&trace);
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
    for line in expose::render(sim.registry()).lines() {
        if ["round.", "gossip.", "txpool.", "workload."]
            .iter()
            .any(|prefix| line.starts_with(prefix))
        {
            println!("  {line}");
        }
    }
    println!("{}", sim.pipeline_report());

    println!();
    println!("== trace report: 16-user chaos run (partition + crash, seed 29) ==");
    let chaos = run_chaos();
    let trace = parse_jsonl(&chaos.export_trace("chaos-16")).expect("exporter emits valid JSONL");
    print_trace_header(&trace);
    print_recovery_timeline(&trace);
    println!("{}", chaos.fault_report());
    true
}

fn paths() -> bool {
    let jsonl = run_payment_workload(true).export_trace("payment-50");
    match parse_merged(&jsonl) {
        Ok(trace) => {
            print!("{}", render_report(&trace));
            true
        }
        Err(e) => {
            println!("trace paths: bad trace: {e}");
            false
        }
    }
}

/// Prints each problem as a failure, or the all-clear; true when clear.
fn verdict(problems: &[String]) -> bool {
    for p in problems {
        println!("trace check: FAILED ({p})");
    }
    if problems.is_empty() {
        println!("trace check: OK");
    }
    problems.is_empty()
}

/// The simulator's gate: tracing must be invisible to the protocol and
/// its exports replayable, and the critical paths must hold up.
fn check() -> bool {
    let mut problems = Vec::new();
    let (a, b) = (run_payment_workload(true), run_payment_workload(true));
    let plain_digest = run_payment_workload(false).chain_digest();
    if a.chain_digest() != b.chain_digest() {
        problems.push("same seed+schedule produced different digests".to_string());
    }
    if a.chain_digest() == plain_digest {
        println!("trace check: tracing on/off leaves the chain digest unchanged");
    } else {
        problems.push("tracing changed the chain digest".into());
    }
    let (jsonl_a, jsonl_b) = (a.export_trace("payment-50"), b.export_trace("payment-50"));
    drop((a, b));
    if jsonl_a == jsonl_b {
        println!(
            "trace check: identical JSONL across reruns ({} bytes, {} events)",
            jsonl_a.len(),
            jsonl_a.lines().count() - 1
        );
    } else {
        problems.push("same seed+schedule produced different JSONL".into());
    }
    problems.extend(path_problems(&jsonl_a, &jsonl_b, &SIM_GATE));

    // The budgeted parallel engine: the retained prefix must itself be
    // deterministic JSONL with exact `trimmed` accounting — trimming must
    // never read as silent truncation.
    let trimmed = run_trimmed();
    if trimmed != run_trimmed() {
        problems.push("trimmed exports diverged across reruns".into());
    } else {
        match parse_jsonl(&trimmed) {
            Ok(t) if t.dropped == 0 && t.trimmed > 0 => println!(
                "trace check: trimmed export deterministic and accounted \
                 ({} events retained, {} trimmed)",
                t.events.len(),
                t.trimmed
            ),
            Ok(t) => problems.push(format!(
                "budgeted run: dropped={} trimmed={}, expected 0 dropped and >0 trimmed",
                t.dropped, t.trimmed
            )),
            Err(e) => problems.push(format!("trimmed export does not parse: {e}")),
        }
    }
    verdict(&problems)
}

fn check_file(path: &str) -> bool {
    match std::fs::read_to_string(path) {
        Ok(text) => verdict(&path_problems(&text, &text, &Gate::CLUSTER)),
        Err(e) => verdict(&[format!("read {path}: {e}")]),
    }
}

/// Splits `ARG... [FLAG VALUE]...` into the plain arguments and the
/// values given for `flags`.
fn split_flags<'a>(
    args: &'a [String],
    flags: &[&str],
) -> Result<(Vec<String>, BTreeMap<&'a str, &'a str>), String> {
    let mut plain = Vec::new();
    let mut values = BTreeMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if flags.contains(&arg.as_str()) {
            let value = args.next().ok_or(format!("{arg} needs a value"))?;
            values.insert(arg.as_str(), value.as_str());
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        } else {
            plain.push(arg.clone());
        }
    }
    Ok((plain, values))
}

fn collect(args: &[String]) -> Result<bool, String> {
    let (plain, flags) = split_flags(args, &["--dir", "--out", "--report"])?;
    let (Some(root), true) = (flags.get("--dir"), plain.is_empty()) else {
        return Err("collect reads the files under --dir ROOT, and takes no address".into());
    };
    // A root that publishes no node is a bad command line, as for `health`.
    discover(Path::new(root))?;
    let out = flags.get("--out").unwrap_or(&"results/cluster_trace.jsonl");
    let report = flags
        .get("--report")
        .unwrap_or(&"results/cluster_trace.txt");
    println!("trace collect: merging the exit traces under {root}");
    match collect_trace(Path::new(root), Path::new(out), Path::new(report)) {
        Ok(merged) => {
            print!("{}", render_report(&merged));
            println!("trace collect: merged trace -> {out}, report -> {report}");
            Ok(true)
        }
        Err(e) => {
            println!("trace collect: FAILED ({e})");
            Ok(false)
        }
    }
}

fn health(args: &[String]) -> Result<bool, String> {
    let (plain, flags) = split_flags(args, &["--dir", "--out"])?;
    let (Some(root), true) = (flags.get("--dir"), plain.is_empty()) else {
        return Err("health reads the files under --dir ROOT, and takes no address".into());
    };
    // A root that publishes no node is a bad command line, as for `collect`.
    let health = ClusterHealth::collect(Path::new(root))?;
    let report = health.render();
    print!("{report}");
    if let Some(path) = flags.get("--out") {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("trace health: write {path}: {e}");
            return Ok(false);
        }
    }
    Ok(health.unreadable.is_empty() && health.total_violations() == 0 && health.digests_agree())
}
