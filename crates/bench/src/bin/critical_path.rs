//! Per-round critical-path profiler over the causal trace.
//!
//! Runs the traced 50-user payment workload, exports the trace as JSONL,
//! and reconstructs — from the JSONL alone, with no access to simulator
//! state — the gating chain of every round: certificate → final-count
//! step → gating vote's verify → gossip hops back to the voter → the
//! voter's previous phase → … → the proposal span that seeded the round.
//! Each chain edge is attributed to one of four categories (proposal,
//! gossip, verify, ba_step) and the per-round and aggregate tables show
//! where finalization latency actually goes.
//!
//! `--check` is the CI gate: the same `(seed, schedule)` must render a
//! byte-identical report twice, every chain must be contiguous in time,
//! and for every *finalized* round the chain must account for ≥ 95% of
//! the round's measured finalization latency.
//!
//! `--trace FILE` switches to **merged cluster mode**: instead of
//! running the simulator, the profiler reads a merged multi-process
//! trace produced by `trace_collect` (per-node clock offsets and skew
//! bounds in the header, sender/receiver hop halves already fused) and
//! renders per-round chains that cross process boundaries, each gossip
//! hop attributed with frame kind, sender address, wire bytes, and
//! queue depth at send. With `--check` the gate demands: byte-identical
//! rendering across reruns, contiguous chains, ≥ 90% coverage of every
//! finalized round's latency (real clocks leave alignment residue the
//! simulator does not), and at least one chain crossing processes.

use algorand_bench::run_payment_workload;
use algorand_obs::merge::{parse_merged, render_report};
use algorand_obs::{critical_paths, parse_jsonl, CriticalPath, EdgeKind, NO_NODE};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Fraction of measured finalization latency the chain must explain for
/// every finalized round (the acceptance bar for the causal walk).
const MIN_COVERAGE: f64 = 0.95;

/// The merged-cluster bar: per-node clock alignment is exact only at
/// the anchor instants, so cross-process chains may carry skew-bound
/// residue the single-clock simulator never sees.
const MIN_COVERAGE_MERGED: f64 = 0.90;

/// Edges printed per round before the listing is elided (the
/// attribution sums always cover the full chain).
const MAX_EDGES_SHOWN: usize = 24;

fn secs(us: u64) -> f64 {
    us as f64 / 1e6
}

/// Render the full report from exported JSONL. Pure function of the
/// trace bytes, so `--check` can demand byte-identical output.
fn render(jsonl: &str) -> Result<String, String> {
    let trace = parse_jsonl(jsonl)?;
    let paths = critical_paths(&trace.events);
    let mut out = String::new();
    let w = &mut out;

    let _ = writeln!(
        w,
        "== critical-path profiler: payment-50 seed {} ==",
        trace.seed
    );
    let _ = writeln!(
        w,
        "trace: {} events, {} dropped",
        trace.events.len(),
        trace.dropped
    );
    let finals = paths.iter().filter(|p| p.final_consensus).count();
    let _ = writeln!(
        w,
        "rounds: {} traced ({} final, {} tentative)",
        paths.len(),
        finals,
        paths.len() - finals
    );
    let _ = writeln!(w);

    for p in &paths {
        render_round(w, p);
    }
    render_attribution(w, &paths);
    Ok(out)
}

fn render_round(w: &mut String, p: &CriticalPath) {
    let _ =
        writeln!(
        w,
        "round {:>2}  finalizer n{:<3} {}  latency {:>7.3}s  chain {:>2} edges  coverage {:>5.1}%",
        p.round,
        p.finalizer,
        if p.final_consensus { "final    " } else { "tentative" },
        secs(p.latency()),
        p.edges.len(),
        p.coverage() * 100.0
    );
    let shown = p.edges.len().min(MAX_EDGES_SHOWN);
    for e in &p.edges[..shown] {
        let hop = if e.from_node == e.to_node {
            format!("n{}", e.to_node)
        } else {
            format!("n{}->n{}", e.from_node, e.to_node)
        };
        let _ = writeln!(
            w,
            "    {:>8.3}s  +{:>7.3}s  {:<8} {:<12} {}",
            secs(e.start),
            secs(e.duration()),
            e.kind.as_str(),
            e.label,
            hop
        );
    }
    if p.edges.len() > shown {
        let _ = writeln!(w, "    ... {} more edges", p.edges.len() - shown);
    }
    let _ = writeln!(w);
}

fn render_attribution(w: &mut String, paths: &[CriticalPath]) {
    let _ = writeln!(w, "latency attribution (seconds on the critical path):");
    let _ = writeln!(
        w,
        "  {:>5}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}",
        "round", "latency", "proposal", "gossip", "verify", "ba_step", "coverage"
    );
    let mut tot = [0u64; 4];
    let mut tot_latency = 0u64;
    for p in paths {
        let attr = p.attribution();
        for (slot, (_, us)) in tot.iter_mut().zip(attr.iter()) {
            *slot += us;
        }
        tot_latency += p.latency();
        let _ = writeln!(
            w,
            "  {:>5}  {:>7.3}s  {:>7.3}s  {:>7.3}s  {:>7.3}s  {:>7.3}s  {:>7.1}%",
            p.round,
            secs(p.latency()),
            secs(attr[0].1),
            secs(attr[1].1),
            secs(attr[2].1),
            secs(attr[3].1),
            p.coverage() * 100.0
        );
    }
    let attributed: u64 = tot.iter().sum();
    let _ = writeln!(
        w,
        "  {:>5}  {:>7.3}s  {:>7.3}s  {:>7.3}s  {:>7.3}s  {:>7.3}s  {:>7.1}%",
        "total",
        secs(tot_latency),
        secs(tot[0]),
        secs(tot[1]),
        secs(tot[2]),
        secs(tot[3]),
        if tot_latency == 0 {
            100.0
        } else {
            attributed as f64 / tot_latency as f64 * 100.0
        }
    );
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
}

/// Structural checks on the reconstructed chains: contiguity (each edge
/// starts where the previous one ended), origin at a proposal-phase
/// edge, and the coverage bar for finalized rounds.
fn check_paths(paths: &[CriticalPath], rounds_expected: u64, min_coverage: f64) -> Vec<String> {
    let mut problems = Vec::new();
    if (paths.len() as u64) < rounds_expected {
        problems.push(format!(
            "only {} of {} rounds produced a critical path",
            paths.len(),
            rounds_expected
        ));
    }
    for p in paths {
        if p.edges.is_empty() {
            problems.push(format!("round {}: empty chain", p.round));
            continue;
        }
        for pair in p.edges.windows(2) {
            if pair[1].start != pair[0].end {
                problems.push(format!(
                    "round {}: chain not contiguous at t={}us ({} -> {})",
                    p.round, pair[0].end, pair[0].label, pair[1].label
                ));
                break;
            }
        }
        // Chains may begin with the block body's gossip hops (the walk
        // descends past the proposal span to the proposer), but every
        // chain must pass through the proposal phase on its way to the
        // certificate.
        if !p.edges.iter().any(|e| e.kind == EdgeKind::Proposal) {
            problems.push(format!(
                "round {}: chain never passes through the proposal phase",
                p.round
            ));
        }
        if p.final_consensus && p.coverage() < min_coverage {
            problems.push(format!(
                "round {}: coverage {:.1}% below the {:.0}% bar",
                p.round,
                p.coverage() * 100.0,
                min_coverage * 100.0
            ));
        }
    }
    problems
}

/// Merged cluster mode: render (and optionally gate) a multi-process
/// trace collected by `trace_collect`.
fn run_merged(path: &str, check: bool) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            println!("critical_path: read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let merged = match parse_merged(&text) {
        Ok(m) => m,
        Err(e) => {
            println!("critical_path: bad merged trace {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = render_report(&merged);
    if !check {
        print!("{report}");
        return ExitCode::SUCCESS;
    }

    let mut ok = true;
    if merged.dropped > 0 {
        println!(
            "merged critical-path check: FAILED ({} events dropped at record time)",
            merged.dropped
        );
        ok = false;
    }
    // Pure-function gate: rendering the same artifact again must be
    // byte-identical (trace_collect already asserted the same for the
    // merge itself).
    if render_report(&parse_merged(&text).expect("parsed once already")) != report {
        println!("merged critical-path check: FAILED (re-rendering the artifact differed)");
        ok = false;
    } else {
        println!(
            "merged critical-path check: identical report across reruns ({} bytes)",
            report.len()
        );
    }
    let paths = critical_paths(&merged.events);
    let problems = check_paths(&paths, 1, MIN_COVERAGE_MERGED);
    for p in &problems {
        println!("merged critical-path check: FAILED ({p})");
    }
    ok &= problems.is_empty();
    let cross = paths
        .iter()
        .filter(|p| {
            let nodes: std::collections::BTreeSet<u32> = p
                .edges
                .iter()
                .flat_map(|e| [e.from_node, e.to_node])
                .filter(|n| *n != NO_NODE)
                .collect();
            nodes.len() > 1
        })
        .count();
    if cross == 0 {
        println!("merged critical-path check: FAILED (no chain crosses a process boundary)");
        ok = false;
    }
    if ok {
        let worst = paths
            .iter()
            .filter(|p| p.final_consensus)
            .map(|p| p.coverage())
            .fold(f64::INFINITY, f64::min);
        println!(
            "merged critical-path check: {} rounds from {} processes, {} cross-process chains, \
             worst finalized coverage {:.1}%",
            paths.len(),
            merged.nodes.len(),
            cross,
            worst * 100.0
        );
        println!("merged critical-path check: OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn check() -> ExitCode {
    let a = run_payment_workload(true);
    let b = run_payment_workload(true);
    let jsonl_a = a.export_trace("payment-50");
    let jsonl_b = b.export_trace("payment-50");
    let mut ok = true;
    if a.trace_dropped() > 0 {
        println!(
            "critical-path check: FAILED (trace truncated: {} events dropped)",
            a.trace_dropped()
        );
        ok = false;
    }
    let report_a = match render(&jsonl_a) {
        Ok(r) => r,
        Err(e) => {
            println!("critical-path check: FAILED (render a: {e})");
            return ExitCode::FAILURE;
        }
    };
    let report_b = match render(&jsonl_b) {
        Ok(r) => r,
        Err(e) => {
            println!("critical-path check: FAILED (render b: {e})");
            return ExitCode::FAILURE;
        }
    };
    if report_a != report_b {
        println!("critical-path check: FAILED (same seed+schedule rendered different reports)");
        ok = false;
    } else {
        println!(
            "critical-path check: identical report across reruns ({} bytes)",
            report_a.len()
        );
    }
    let trace = parse_jsonl(&jsonl_a).expect("exporter emits parseable JSONL");
    let paths = critical_paths(&trace.events);
    let problems = check_paths(&paths, 8, MIN_COVERAGE);
    if problems.is_empty() {
        let worst = paths
            .iter()
            .filter(|p| p.final_consensus)
            .map(|p| p.coverage())
            .fold(f64::INFINITY, f64::min);
        println!(
            "critical-path check: {} rounds, all chains contiguous, worst finalized coverage {:.1}%",
            paths.len(),
            worst * 100.0
        );
    } else {
        for p in &problems {
            println!("critical-path check: FAILED ({p})");
        }
        ok = false;
    }
    if ok {
        println!("critical-path check: OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let check_flag = args.iter().any(|a| a == "--check");
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        let Some(path) = args.get(i + 1) else {
            println!("critical_path: --trace needs a file path");
            return ExitCode::FAILURE;
        };
        return run_merged(path, check_flag);
    }
    if check_flag {
        return check();
    }
    let sim = run_payment_workload(true);
    let jsonl = sim.export_trace("payment-50");
    match render(&jsonl) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("critical_path: bad trace: {e}");
            ExitCode::FAILURE
        }
    }
}
