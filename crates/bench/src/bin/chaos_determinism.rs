//! Chaos determinism check + recovery-time measurement.
//!
//! Runs each scripted chaos scenario, traced and monitored, with the
//! same `(seed, schedule)` pair at one worker **twice** and then at 2
//! and 4 workers, and demands byte-identical final-chain digests,
//! recovery times, invariant-monitor verdicts and exported trace JSONL
//! from all four runs — the replayability property the chaos harness is
//! built on (faults are data, all randomness flows from seeded RNGs) and
//! the engine's core contract (worker threads change wall-clock, never
//! results). Alongside, it measures the observed recovery time: virtual
//! seconds from the last fault clearing until every honest node is back
//! on one common chain that has grown at least two rounds past the
//! fault window.
//!
//! Exit code is non-zero on any divergence, missed recovery or monitor
//! violation, so CI can gate on it. Output feeds `results/chaos.txt`.

use algorand_sim::{DesConfig, FaultSchedule, Micros, SimConfig, Simulation};

const SEC: Micros = 1_000_000;

struct Scenario {
    name: &'static str,
    n: usize,
    n_malicious: usize,
    seed: u64,
    schedule: fn(usize) -> FaultSchedule,
    /// Give up on recovery this long after the last fault clears.
    horizon: Micros,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "partition/heal (sym)",
            n: 16,
            n_malicious: 0,
            seed: 11,
            schedule: |n| FaultSchedule::new().bipartition(n, n / 2, 30 * SEC, 90 * SEC),
            horizon: 300 * SEC,
        },
        Scenario {
            name: "partition (asym)",
            n: 12,
            n_malicious: 0,
            seed: 12,
            schedule: |n| FaultSchedule::new().asymmetric_partition(n, 10, 30 * SEC, 90 * SEC),
            horizon: 240 * SEC,
        },
        Scenario {
            name: "30% loss window",
            n: 12,
            n_malicious: 0,
            seed: 13,
            schedule: |_| FaultSchedule::new().loss_window(0.30, 20 * SEC, 80 * SEC),
            horizon: 180 * SEC,
        },
        Scenario {
            name: "crash majority 9/16",
            n: 16,
            n_malicious: 0,
            seed: 14,
            schedule: |_| {
                let mut s = FaultSchedule::new();
                for node in 0..9 {
                    s = s.crash_restart(node, 40 * SEC, 100 * SEC);
                }
                s
            },
            horizon: 360 * SEC,
        },
        Scenario {
            name: "partition + equivocators",
            n: 20,
            n_malicious: 4,
            seed: 15,
            schedule: |n| FaultSchedule::new().bipartition(n, n / 2, 30 * SEC, 90 * SEC),
            horizon: 300 * SEC,
        },
        Scenario {
            name: "rolling restarts 6/12",
            n: 12,
            n_malicious: 0,
            seed: 16,
            schedule: |_| {
                let mut s = FaultSchedule::new();
                for node in 0..6 {
                    let down = (20 + 15 * node as u64) * SEC;
                    s = s.crash_restart(node, down, down + 30 * SEC);
                }
                s
            },
            horizon: 240 * SEC,
        },
    ]
}

fn min_tip(sim: &Simulation, n_honest: usize) -> u64 {
    (0..n_honest)
        .map(|i| sim.honest_node(i).chain().tip().round)
        .min()
        .unwrap()
}

fn converged(sim: &Simulation, n_honest: usize, target: u64) -> bool {
    let tip = min_tip(sim, n_honest);
    if tip < target {
        return false;
    }
    for round in 1..=tip {
        let h0 = sim.honest_node(0).chain().block_at(round).unwrap().hash();
        for i in 1..n_honest {
            if sim.honest_node(i).chain().block_at(round).unwrap().hash() != h0 {
                return false;
            }
        }
    }
    true
}

/// Everything one run produces that every other run of the same
/// `(seed, schedule)` must reproduce byte for byte.
#[derive(PartialEq)]
struct Outcome {
    digest: [u8; 32],
    /// Virtual seconds from the last fault clearing to convergence.
    recovery: Option<f64>,
    /// The invariant monitor's rendered report and its violation count.
    monitor: String,
    violations: u64,
    trace: String,
}

/// One traced, monitored run at the given worker count: the outcome
/// plus the fault-report line.
fn run_once(s: &Scenario, workers: usize) -> (Outcome, String) {
    let mut cfg = SimConfig::new(s.n);
    cfg.n_malicious = s.n_malicious;
    cfg.seed = s.seed;
    cfg.trace = true;
    cfg.monitor = true;
    let mut sim = Simulation::new(DesConfig {
        sim: cfg,
        workers,
        trace_node_budget: 0,
    });
    let schedule = (s.schedule)(s.n);
    let clear = schedule.last_event_at();
    sim.set_fault_schedule(schedule);
    sim.run_until(clear);
    let n_honest = s.n - s.n_malicious;
    let target = min_tip(&sim, n_honest) + 2;
    let mut recovery = None;
    let mut t = clear;
    while recovery.is_none() && t < clear + s.horizon {
        t += 5 * SEC;
        sim.run_until(t);
        if converged(&sim, n_honest, target) {
            recovery = Some((sim.now() - clear) as f64 / 1e6);
        }
    }
    let report = sim.fault_report();
    let line = format!(
        "restarts={} partitions={} dropped(filter/partition/loss)={}/{}/{} \
         escalations={} watchdog_catchups={} fork_recoveries={} catchups={}",
        report.restarts,
        report.partitions_activated,
        report.dropped_by_filter,
        report.dropped_by_partition,
        report.dropped_by_loss,
        report.recovery.timeout_escalations,
        report.recovery.watchdog_catchups,
        report.recovery.recoveries_completed,
        report.recovery.catchups_applied,
    );
    let monitor = sim.monitor_report().expect("monitor attached");
    let outcome = Outcome {
        digest: sim.chain_digest(),
        recovery,
        monitor: monitor.to_string(),
        violations: monitor.total_violations(),
        trace: sim.export_trace(s.name),
    };
    (outcome, line)
}

fn hex8(d: &[u8; 32]) -> String {
    d[..4].iter().map(|b| format!("{b:02x}")).collect()
}

fn main() {
    println!("chaos determinism + recovery times (virtual seconds after last fault clears)");
    println!();
    let mut failed = false;
    for s in scenarios() {
        let (first, line) = run_once(&s, 1);
        let replay = run_once(&s, 1).0 == first;
        let parallel = [2, 4].iter().all(|&w| run_once(&s, w).0 == first);
        let verdict = |same| if same { "identical" } else { "DIVERGED" };
        let recovery = match first.recovery {
            Some(r) => format!("{r:>6.1} s"),
            None => "  MISS ".to_string(),
        };
        let clean = first.violations == 0;
        println!(
            "{:<26} n={:<3} recovery={} digest={} replay={} workers 2/4={}{}",
            s.name,
            s.n,
            recovery,
            hex8(&first.digest),
            verdict(replay),
            verdict(parallel),
            if clean { "" } else { " [monitor violations]" },
        );
        println!("  {line}");
        if !replay || !parallel || first.recovery.is_none() || !clean {
            failed = true;
        }
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
