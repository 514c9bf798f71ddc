//! The evaluation harness: regenerates every table and figure of §10.
//!
//! Two kinds of binary live in `src/bin/`. `figures` reproduces the
//! paper's evaluation from one table ([`figures::FIGURES`]): each figure
//! is a pure function of compiled-in seeds, checked in as
//! `results/<name>.txt`, with its paper claims as predicates over its
//! own values (`figures check` diffs every file and judges every claim).
//! The rest are CI gates (`trace`, `scale_smoke`, `localnet`,
//! `chaos_determinism`, …). This library holds what they share.
//! Absolute numbers differ from the paper — our substrate is a
//! discrete-event simulator, not 1,000 EC2 VMs — but each figure prints
//! the paper's reference values next to the measured ones so the *shape*
//! (who wins, scaling trends, crossovers) can be compared directly.
//!
//! Nothing here says how fast this implementation runs: that is
//! `benchmark/` (workloads, gated end-to-end metrics, a per-layer
//! ledger). `benches/crypto_micro` times only the primitives the ledger
//! has no name for. `results/README.md` has the regeneration loop.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod figures;
pub mod timing;

use algorand_obs::merge::{parse_merged, render_report};
use algorand_obs::Gate;
use algorand_sim::{SimConfig, Simulation};

/// Virtual-time cap for a single simulated experiment.
pub const T_CAP: u64 = 60 * 60 * 1_000_000;

/// Runs the seed-23 payment workload the `trace` bin's `report`, `paths`
/// and `check` read: 50 users, 200 payments offered at 25 tx/s, 8 rounds.
/// (Tier-1 `tests/txpool_e2e.rs` gates the same population at 500
/// payments.)
pub fn run_payment_workload(trace: bool) -> Simulation {
    let mut cfg = SimConfig::new(50);
    cfg.stake_per_user = 50;
    cfg.tx_rate = 25.0;
    cfg.tx_total = 200;
    cfg.seed = 23;
    cfg.trace = trace;
    let mut sim = Simulation::new(cfg);
    sim.run_rounds(8, T_CAP);
    sim
}

/// The critical-path legs over two exports of one trace: each loads,
/// both render the same report, and the first has no problems under
/// `gate`. Only one loaded trace is held in memory at a time.
pub fn path_problems(a: &str, b: &str, gate: &Gate) -> Vec<String> {
    let load = |text: &str| parse_merged(text).map(|m| (render_report(&m), m));
    let (report, first) = match load(a) {
        Ok(loaded) => loaded,
        Err(e) => return vec![format!("trace does not load: {e}")],
    };
    let mut problems = first.problems(gate);
    if problems.is_empty() {
        println!(
            "trace check: critical paths clear the bar (>= {} rounds, contiguous, \
             >= {:.0}% coverage{})",
            gate.min_rounds,
            gate.min_coverage * 100.0,
            if gate.cross_process {
                ", crossing processes"
            } else {
                ""
            }
        );
    }
    drop(first);
    match load(b) {
        Ok((again, _)) if again == report => println!(
            "trace check: identical critical-path report across reruns ({} bytes)",
            report.len()
        ),
        Ok(_) => problems.push("the same trace rendered two different reports".into()),
        Err(e) => problems.push(format!("trace does not load: {e}")),
    }
    problems
}
