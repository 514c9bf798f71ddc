//! Scale gate: 1,000 real protocol nodes per run.
//!
//! The paper's testbed is 1,000 EC2 VMs (§10); this gate proves the
//! discrete-event engine carries the same population in a CI-feasible
//! wall-clock budget, and that worker threads are invisible to results:
//!
//!   1. a 1,000-node payment run must finalize ≥ 5 rounds,
//!   2. the final-chain digest must be identical at 1 and 4 workers
//!      (the wall-clock ratio of the two is reported, not gated),
//!   3. a traced run under a per-node retention budget must export
//!      under a fixed byte ceiling with exact `trimmed` accounting.
//!
//! Wall-clock numbers and the process's peak resident memory (VmHWM,
//! over all three legs) go to stdout. Each leg's simulation is dropped
//! before the next is built, so the peak is one 1,000-node simulation's.
//! Exit code is non-zero on any gate failure.

use algorand_sim::{DesConfig, Micros, ParallelSim, SimConfig};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

const SEC: Micros = 1_000_000;
const N: usize = 1_000;
const ROUNDS: u64 = 5;
const T_CAP: Micros = 600 * SEC;

fn config() -> SimConfig {
    let mut cfg = SimConfig::new(N);
    cfg.seed = 1_000;
    cfg.tx_rate = 20.0;
    cfg.tx_total = 60;
    cfg
}

fn min_tip(sim: &ParallelSim) -> u64 {
    (0..N).map(|i| sim.tip_round(i)).min().unwrap()
}

/// The kernel's high-water mark of this process's resident memory, as
/// `/proc/self/status` words it, or why it could not be read.
fn peak_rss() -> String {
    match std::fs::read_to_string("/proc/self/status") {
        Ok(status) => status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .map_or_else(|| "no VmHWM line".into(), |v| format!("VmHWM {}", v.trim())),
        Err(e) => format!("unreadable ({e})"),
    }
}

/// What the gates read from an untraced leg, kept after its
/// simulation is dropped.
struct Leg {
    tip: u64,
    digest: [u8; 32],
    virtual_s: f64,
    wall_s: f64,
    committed: Option<(usize, usize)>,
}

fn run_des(workers: usize) -> Leg {
    let mut sim = ParallelSim::new(DesConfig {
        sim: config(),
        workers,
        trace_node_budget: 0,
    });
    let t0 = Instant::now();
    // Driven in slices so CI logs show liveness on a 20+ minute gate.
    let mut t = 0;
    while min_tip(&sim) < ROUNDS && t < T_CAP {
        t += 10 * SEC;
        sim.run_until(t);
        eprintln!(
            "[scale] des workers={workers}: virtual {:>4}s, min tip {}, wall {:.0}s",
            t / SEC,
            min_tip(&sim),
            t0.elapsed().as_secs_f64()
        );
    }
    Leg {
        tip: min_tip(&sim),
        digest: sim.chain_digest(),
        virtual_s: sim.now() as f64 / 1e6,
        wall_s: t0.elapsed().as_secs_f64(),
        committed: sim.tx_stats().map(|s| (s.committed, s.injected)),
    }
}

fn main() -> ExitCode {
    let mut ok = true;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scale smoke: {N} nodes, target {ROUNDS} rounds (seed {})",
        config().seed
    );

    // Gate 1+2: the parallel engine at 1 and 4 workers.
    let one = run_des(1);
    let four = run_des(4);
    for (workers, leg) in [(1, &one), (4, &four)] {
        let _ = writeln!(
            out,
            "  des workers={workers}: {} rounds in {:.2}s wall ({:.1}s virtual)",
            leg.tip, leg.wall_s, leg.virtual_s
        );
    }
    if one.tip < ROUNDS || four.tip < ROUNDS {
        let _ = writeln!(out, "  FAILED: fewer than {ROUNDS} rounds finalized");
        ok = false;
    }
    if one.digest != four.digest {
        let _ = writeln!(out, "  FAILED: digest differs between 1 and 4 workers");
        ok = false;
    } else {
        let _ = writeln!(out, "  digest identical across worker counts: OK");
    }
    if let Some((committed, injected)) = four.committed {
        let _ = writeln!(out, "  workload: {committed}/{injected} txs committed");
    }

    // Reported, not gated: on a single-core host the 4-worker leg pays
    // pure thread overhead (it exists to exercise the cross-thread
    // determinism path at scale, and does).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(
        out,
        "  workers=4 over workers=1: {:.2}x wall ({cores} core(s) available)",
        four.wall_s / one.wall_s
    );

    // Gate 3: traced at scale under a per-node retention budget.
    let budget = 64;
    let mut traced = ParallelSim::new(DesConfig {
        sim: {
            let mut cfg = config();
            cfg.trace = true;
            cfg
        },
        workers: 4,
        trace_node_budget: budget,
    });
    let t0 = Instant::now();
    // Two rounds suffice for the retention-budget gate; the untraced
    // legs above already prove 5-round capacity.
    traced.run_rounds(2, T_CAP);
    let wall_traced = t0.elapsed().as_secs_f64();
    let jsonl = traced.export_trace("scale-smoke");
    // Budgeted events (generous 400 B/line) + per-node bandwidth
    // summaries + global summaries.
    let ceiling = budget * N * 400 + N * 2 * 200 + 64 * 1024;
    let _ = writeln!(
        out,
        "  traced (budget {budget}/node): {} retained, {} trimmed, {} dropped, \
         {} KiB export in {wall_traced:.2}s wall",
        traced.trace_retained(),
        traced.trace_trimmed(),
        traced.trace_dropped(),
        jsonl.len() / 1024
    );
    if jsonl.len() >= ceiling {
        let _ = writeln!(
            out,
            "  FAILED: trimmed export {} B over the {ceiling} B ceiling",
            jsonl.len()
        );
        ok = false;
    }
    if traced.trace_trimmed() > 0 && !jsonl.lines().next().unwrap_or("").contains("\"trimmed\":") {
        let _ = writeln!(out, "  FAILED: trimmed events not accounted in the header");
        ok = false;
    }
    if min_tip(&traced) < 2 {
        let _ = writeln!(out, "  FAILED: traced run finalized fewer than 2 rounds");
        ok = false;
    }

    let _ = writeln!(out, "  peak resident memory: {}", peak_rss());
    let _ = writeln!(out, "scale smoke: {}", if ok { "OK" } else { "FAILED" });
    print!("{out}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
