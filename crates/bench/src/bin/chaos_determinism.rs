//! Chaos determinism check + recovery-time measurement.
//!
//! Judges every row of the chaos table (`algorand_sim::fuzz::chaos_table`)
//! with the fuzz oracle (`fuzz::judge`), traced and monitored, at one
//! worker **twice** and then at 2 and 4 workers, and demands
//! byte-identical verdicts, final-chain digests, invariant-monitor
//! reports and exported trace JSONL from all four runs — the
//! replayability property the chaos harness is built on (faults are
//! data, all randomness flows from seeded RNGs) and the engine's core
//! contract (worker threads change wall-clock, never results). The
//! recovery time is the oracle's: virtual seconds from the schedule's
//! last event until every honest node is back on one common chain that
//! has grown at least two rounds past it, at the oracle's 5 s grain.
//!
//! Exit code is non-zero on any divergence or on a verdict other than
//! `pass`, so CI can gate on it. Output feeds `results/chaos.txt`.

use algorand_sim::fuzz::{chaos_table, judge, FuzzCase, VerdictClass};
use algorand_sim::{DesConfig, Simulation};

/// Everything one run produces that every other run of the same
/// `(seed, schedule)` must reproduce byte for byte.
#[derive(PartialEq)]
struct Outcome {
    class: VerdictClass,
    recovered_after: Option<u64>,
    digest: [u8; 32],
    /// The invariant monitor's rendered report.
    monitor: String,
    trace: String,
}

/// One judged run at the given worker count: the outcome plus the
/// rendered fault report.
fn run_once(name: &str, case: &FuzzCase, workers: usize) -> (Outcome, String) {
    let mut sim = Simulation::new(DesConfig {
        sim: case.config(),
        workers,
        trace_node_budget: 0,
    });
    let verdict = judge(&mut sim, case);
    let report = sim.fault_report().to_string();
    let outcome = Outcome {
        class: verdict.class,
        recovered_after: verdict.recovered_after,
        digest: sim.chain_digest(),
        monitor: sim.monitor_report().expect("monitor attached").to_string(),
        trace: sim.export_trace(name),
    };
    (outcome, report)
}

fn hex8(d: &[u8; 32]) -> String {
    d[..4].iter().map(|b| format!("{b:02x}")).collect()
}

fn main() {
    println!("chaos determinism + recovery times (virtual seconds after last fault clears)");
    println!();
    let mut failed = false;
    for (name, case) in chaos_table() {
        let (first, report) = run_once(name, &case, 1);
        let replay = run_once(name, &case, 1).0 == first;
        let parallel = [2, 4].iter().all(|&w| run_once(name, &case, w).0 == first);
        let verdict = |same| if same { "identical" } else { "DIVERGED" };
        let recovery = match first.recovered_after {
            Some(r) => format!("{:>6.1} s", r as f64 / 1e6),
            None => format!("{:>8}", first.class.as_str()),
        };
        println!(
            "{:<26} n={:<3} recovery={} digest={} replay={} workers 2/4={}",
            name,
            case.n_users,
            recovery,
            hex8(&first.digest),
            verdict(replay),
            verdict(parallel),
        );
        for line in report.lines() {
            println!("  {line}");
        }
        failed |= !replay || !parallel || first.class != VerdictClass::Pass;
    }
    println!();
    if failed {
        println!("FAIL: divergence, missed recovery or monitor violation");
        std::process::exit(1);
    }
    println!(
        "OK: all scenarios recovered with a clean monitor verdict; every (seed, schedule) run \
         was byte-identical at 1, 1 (replay), 2 and 4 workers"
    );
}
