//! One seeded run of a simulator workload, driven and observed purely
//! through `algorand_sim`'s public surface.

use crate::observe::{Counts, Exposition};
use crate::procfs;
use crate::stats;
use algorand_core::RoundRecord;
use algorand_obs::expose;
use algorand_sim::{DesConfig, ParallelSim, PipelineReport, SimConfig, Simulation, TxRecord};
use std::collections::HashMap;
use std::time::Instant;

/// Virtual-time ceiling for any run: far beyond what a healthy run needs,
/// so hitting it means consensus stalled and the run reports a failure.
const T_CAP_US: u64 = 600_000_000;

/// Per-node retained-event cap for a traced `ParallelSim` run. The
/// monitor still sees every event; this only bounds the memory a
/// 200-node trace holds, and trimmed events are counted, not lost.
const TRACE_NODE_BUDGET: usize = 1024;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EngineKind {
    /// `sim::Simulation`: one global event queue.
    Serial,
    /// `sim::ParallelSim`: sharded queues, lookahead windows.
    Parallel,
}

/// The fixed shape of one simulator workload. Everything except the seed.
#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    pub engine: EngineKind,
    pub users: usize,
    pub stake_per_user: u64,
    /// Open-loop payments per virtual second.
    pub tx_rate: f64,
    pub tx_total: usize,
    pub block_tx_bytes: usize,
    /// Every honest chain must reach this round.
    pub rounds: u64,
    /// Virtual microseconds per timed slice of a run (see [`Slice`]):
    /// sized so a slice is roughly half a host second or more.
    pub slice_us: u64,
}

impl SimSpec {
    /// The simulator configuration for `seed`: `SimConfig::new`'s
    /// defaults (inter-city latency matrix, 20 Mbit/s uplinks, scaled
    /// committees) plus this workload's population and traffic.
    pub fn config(&self, seed: u64, traced: bool) -> SimConfig {
        let mut cfg = SimConfig::new(self.users);
        cfg.seed = seed;
        cfg.stake_per_user = self.stake_per_user;
        cfg.tx_rate = self.tx_rate;
        cfg.tx_total = self.tx_total;
        cfg.block_tx_bytes = self.block_tx_bytes;
        cfg.trace = traced;
        cfg.monitor = traced;
        cfg
    }

    /// Microseconds between injections, as the simulator rounds it.
    fn interval_us(&self) -> u64 {
        ((1_000_000.0 / self.tx_rate) as u64).max(1)
    }
}

/// Worker threads of every gated `ParallelSim` run. One: with two, the
/// driver's check saw the same code's `run_wall_s` spread by a third
/// across ten runs where the single-threaded workloads held. Every
/// lookahead window spawns and joins its workers, so a second worker
/// ties each window to whichever vCPU of a shared host is served later.
pub const GATED_WORKERS: usize = 1;

/// Worker threads of the traced pass's one multi-worker run
/// (`sim.des_parallel_wall_s`): never more than the host has.
pub fn parallel_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

enum Engine {
    Serial(Box<Simulation>),
    Parallel(Box<ParallelSim>),
}

impl Engine {
    fn build(spec: &SimSpec, seed: u64, traced: bool, workers: usize) -> Engine {
        let sim = spec.config(seed, traced);
        match spec.engine {
            EngineKind::Serial => Engine::Serial(Box::new(Simulation::new(sim))),
            EngineKind::Parallel => Engine::Parallel(Box::new(ParallelSim::new(DesConfig {
                sim,
                workers,
                trace_node_budget: if traced { TRACE_NODE_BUDGET } else { 0 },
            }))),
        }
    }

    /// Advances to virtual time `t_end`; the first call starts the nodes.
    fn run_until(&mut self, t_end: u64) {
        match self {
            Engine::Serial(s) => s.run_until(t_end),
            Engine::Parallel(s) => s.run_until(t_end),
        }
    }

    /// Runs until every chain has `spec.rounds` rounds, one slice of
    /// virtual time after another, timing each slice.
    fn run_sliced(&mut self, spec: &SimSpec) -> Vec<Slice> {
        let mut slices = Vec::new();
        let mut t_end = 0;
        loop {
            t_end += spec.slice_us;
            let cpu0 = procfs::self_cpu().own_s;
            let t = Instant::now();
            self.run_until(t_end);
            slices.push(Slice {
                wall_s: t.elapsed().as_secs_f64(),
                cpu_s: procfs::self_cpu().own_s - cpu0,
            });
            if self.min_tip(spec.users) >= spec.rounds || t_end >= T_CAP_US {
                return slices;
            }
        }
    }

    fn now(&self) -> u64 {
        match self {
            Engine::Serial(s) => s.now(),
            Engine::Parallel(s) => s.now(),
        }
    }

    fn digest(&self) -> [u8; 32] {
        match self {
            Engine::Serial(s) => s.chain_digest(),
            Engine::Parallel(s) => s.chain_digest(),
        }
    }

    fn records(&self) -> Vec<Vec<RoundRecord>> {
        match self {
            Engine::Serial(s) => s.combined_records(),
            Engine::Parallel(s) => s.combined_records(),
        }
    }

    fn pipeline(&self) -> PipelineReport {
        match self {
            Engine::Serial(s) => s.pipeline_report(),
            Engine::Parallel(s) => s.pipeline_report(),
        }
    }

    fn injected(&self) -> Vec<TxRecord> {
        match self {
            Engine::Serial(s) => s.injected_txs().to_vec(),
            Engine::Parallel(s) => s.injected_txs(),
        }
    }

    fn exposition(&self) -> Exposition {
        let text = match self {
            Engine::Serial(s) => expose::render(s.registry()),
            Engine::Parallel(s) => expose::render(s.registry()),
        };
        Exposition::parse(&text).expect("the registry renders what its own parser reads")
    }

    fn bytes_sent(&self) -> u64 {
        match self {
            Engine::Serial(s) => s.network().total_bytes_sent(),
            Engine::Parallel(s) => s.network().total_bytes_sent(),
        }
    }

    /// The lowest chain tip over all nodes.
    fn min_tip(&self, users: usize) -> u64 {
        (0..users)
            .map(|i| match self {
                Engine::Serial(s) => s.honest_node(i).chain().tip().round,
                Engine::Parallel(s) => s.tip_round(i),
            })
            .min()
            .unwrap_or(0)
    }
}

/// The system-level results of a run — what a user of the deployment
/// would see — on whichever clock the workload has.
#[derive(Clone, Debug, PartialEq)]
pub struct System {
    /// Mean seconds per finished round over nodes and target rounds.
    pub round_s: f64,
    pub tx_per_s: f64,
    pub finalize_p50_s: f64,
    /// `None` on `ParallelSim`, which publishes a latency summary
    /// (median, p99) but neither the chain nor per-payment latencies.
    pub finalize_p95_s: Option<f64>,
    pub finalize_p99_s: f64,
    /// Payments the percentiles rest on.
    pub samples: usize,
}

/// The virtual-time results of a run: exact for a fixed seed, so two
/// repetitions of one input must agree bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Virtual {
    /// Virtual seconds simulated.
    pub virtual_s: f64,
    pub system: System,
    pub digest: [u8; 32],
}

/// Host time of one slice of a run: the events of one fixed span of
/// virtual time. The simulator is deterministic, so slice `k` is the same
/// work in every repetition of an input, and the fastest repetition of
/// each slice is that work's cost with the least of the host's noise.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Everything one run produced.
pub struct RunObs {
    pub setup_s: f64,
    /// `start()` to the slice in which the last chain reached the target.
    pub slices: Vec<Slice>,
    /// Sums over `slices`.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub virt: Virtual,
    pub counts: Counts,
    /// Payments plus target rounds.
    pub attempted: u64,
    pub failed: u64,
    /// Oracle violations, in words. Empty on a correct run.
    pub problems: Vec<String>,
    /// Records in the exported trace (traced runs only).
    pub trace_events: u64,
    pub trace_dropped: u64,
}

/// Seconds to build the simulation — keys, genesis, topology, one node
/// per user — without running it.
pub fn time_setup(spec: &SimSpec, seed: u64, workers: usize) -> f64 {
    let t = Instant::now();
    let engine = Engine::build(spec, seed, false, workers);
    let secs = t.elapsed().as_secs_f64();
    drop(engine);
    secs
}

/// Builds, runs and inspects one simulation.
pub fn run_once(spec: &SimSpec, seed: u64, traced: bool, workers: usize) -> RunObs {
    let t_setup = Instant::now();
    let mut engine = Engine::build(spec, seed, traced, workers);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let slices = engine.run_sliced(spec);
    let wall_s = slices.iter().map(|s| s.wall_s).sum();
    let cpu_s = slices.iter().map(|s| s.cpu_s).sum();

    let mut problems = Vec::new();
    let records = engine.records();
    let injected = engine.injected();

    // Rounds: every chain must reach the target.
    let min_tip = engine.min_tip(spec.users);
    let short_rounds = spec.rounds.saturating_sub(min_tip);
    if short_rounds > 0 {
        problems.push(format!(
            "a chain stopped at round {min_tip} of {}",
            spec.rounds
        ));
    }
    let target: Vec<&RoundRecord> = records
        .iter()
        .flatten()
        .filter(|r| r.round <= spec.rounds)
        .collect();
    let round_s = if target.is_empty() {
        0.0
    } else {
        target.iter().map(|r| r.total() as f64).sum::<f64>() / target.len() as f64 / 1e6
    };
    let final_step_mean = if target.is_empty() {
        0.0
    } else {
        target.iter().map(|r| f64::from(r.binary_step)).sum::<f64>() / target.len() as f64
    };

    // Open loop: payment k is due at (k+1) intervals, whatever the system
    // is doing. The virtual-time generator must hit every due instant.
    let interval = spec.interval_us();
    let lateness_us = injected
        .iter()
        .enumerate()
        .map(|(k, rec)| rec.submitted.abs_diff((k as u64 + 1) * interval))
        .max()
        .unwrap_or(0);
    if lateness_us != 0 {
        problems.push(format!("open-loop generator ran {lateness_us} us late"));
    }
    if injected.len() != spec.tx_total {
        problems.push(format!(
            "injected {} of {} payments",
            injected.len(),
            spec.tx_total
        ));
    }

    // Payments: each in the agreed chain exactly once by run end.
    let payments = match &engine {
        Engine::Serial(sim) => serial_payments(sim, spec, &injected, &records, &mut problems),
        Engine::Parallel(sim) => parallel_payments(sim, &mut problems),
    };
    if payments.duplicates > 0 {
        problems.push(format!("{} payments committed twice", payments.duplicates));
    }
    let uncommitted = (spec.tx_total as u64).saturating_sub(payments.committed);
    if uncommitted > 0 {
        problems.push(format!("{uncommitted} payments not committed by run end"));
    }

    let (trace_events, trace_dropped) = if traced {
        trace_totals(&mut engine, &mut problems)
    } else {
        (0, 0)
    };

    let p = engine.pipeline();
    let expo = engine.exposition();
    let counts = Counts {
        nodes: spec.users as f64,
        rounds: min_tip.min(spec.rounds) as f64,
        node_rounds: target.len() as f64,
        ingested: p.stages.ingested as f64,
        rejected_ingest: p.stages.rejected_ingest as f64,
        verified: p.stages.verified as f64,
        emitted: p.stages.emitted as f64,
        cache_hits: p.cache_hits as f64,
        cache_misses: p.cache_misses as f64,
        cold_votes: p.unique_votes as f64,
        cold_proposals: p.unique_proposals as f64,
        relay_new: expo.get("gossip.relayed") + expo.get("gossip.equivocations"),
        relay_dup: expo.get("gossip.duplicates"),
        pool_admitted: expo.get("txpool.admitted"),
        pool_rejected: expo.get("txpool.rejected"),
        committed: payments.committed as f64,
        payment_blocks: payments.blocks as f64,
        bytes_sent: engine.bytes_sent() as f64,
        final_step_mean,
        ..Counts::default()
    };

    RunObs {
        setup_s,
        slices,
        wall_s,
        cpu_s,
        virt: Virtual {
            virtual_s: engine.now() as f64 / 1e6,
            system: System {
                round_s,
                tx_per_s: payments.tx_per_s,
                finalize_p50_s: payments.p50,
                finalize_p95_s: payments.p95,
                finalize_p99_s: payments.p99,
                samples: payments.samples,
            },
            digest: engine.digest(),
        },
        counts,
        attempted: spec.tx_total as u64 + spec.rounds,
        failed: uncommitted + payments.duplicates + short_rounds,
        problems,
        trace_events,
        trace_dropped,
    }
}

struct Payments {
    committed: u64,
    duplicates: u64,
    /// Agreed blocks holding at least one payment.
    blocks: u64,
    tx_per_s: f64,
    p50: f64,
    p95: Option<f64>,
    p99: f64,
    samples: usize,
}

/// Payment accounting where the chain is reachable: per-payment
/// latencies from the agreed chain and the sender's own round records,
/// exactly as `TxStats` defines them, plus node-by-node agreement.
fn serial_payments(
    sim: &Simulation,
    spec: &SimSpec,
    injected: &[TxRecord],
    records: &[Vec<RoundRecord>],
    problems: &mut Vec<String>,
) -> Payments {
    let reference = sim.honest_node(0).chain().digest_through(spec.rounds);
    for i in 1..spec.users {
        if reference.is_none()
            || sim.honest_node(i).chain().digest_through(spec.rounds) != reference
        {
            problems.push(format!("node {i} disagrees with node 0 on the chain"));
            break;
        }
    }

    let chain = sim.honest_node(0).chain();
    let mut commit_round = HashMap::new();
    let mut duplicates = 0u64;
    let mut blocks = 0u64;
    for r in 1..=chain.tip().round {
        let Some(block) = chain.block_at(r) else {
            continue;
        };
        blocks += u64::from(!block.txs.is_empty());
        for tx in &block.txs {
            if commit_round.insert(tx.id(), r).is_some() {
                duplicates += 1;
            }
        }
    }
    let mut latencies = Vec::with_capacity(injected.len());
    let mut committed = 0u64;
    for rec in injected {
        let Some(&round) = commit_round.get(&rec.id) else {
            continue;
        };
        committed += 1;
        // The sender's own completion of the committing round; a sender
        // that adopted the round by catch-up has no record of it.
        let finished = records
            .get(rec.sender)
            .and_then(|rs| rs.iter().find(|x| x.round == round))
            .or_else(|| records.iter().flatten().find(|x| x.round == round))
            .map(|x| x.finished);
        if let Some(f) = finished {
            latencies.push(f.saturating_sub(rec.submitted) as f64 / 1e6);
        }
    }
    let stats = sim.tx_stats();
    let tx_per_s = stats.map_or(0.0, |t| t.tx_per_sec);
    if latencies.is_empty() {
        return Payments {
            committed,
            duplicates,
            blocks,
            tx_per_s,
            p50: 0.0,
            p95: None,
            p99: 0.0,
            samples: 0,
        };
    }
    let sorted = stats::sorted(&latencies);
    let (p50, p99) = (
        stats::quantile(&sorted, 0.5),
        stats::quantile(&sorted, 0.99),
    );
    // The simulator's own summary is computed from the same chain and
    // records; disagreeing with it means this accounting is wrong.
    if let Some(theirs) = stats.and_then(|t| t.latency) {
        if theirs.median != p50 || theirs.p99 != p99 {
            problems.push("payment latencies disagree with the simulator's TxStats".into());
        }
    }
    Payments {
        committed,
        duplicates,
        blocks,
        tx_per_s,
        p50,
        p95: Some(stats::quantile(&sorted, 0.95)),
        p99,
        samples: sorted.len(),
    }
}

/// Payment accounting on `ParallelSim`, which publishes `TxStats` only.
fn parallel_payments(sim: &ParallelSim, problems: &mut Vec<String>) -> Payments {
    let Some(t) = sim.tx_stats() else {
        problems.push("no workload ran".into());
        return Payments {
            committed: 0,
            duplicates: 0,
            blocks: 0,
            tx_per_s: 0.0,
            p50: 0.0,
            p95: None,
            p99: 0.0,
            samples: 0,
        };
    };
    let lat = t.latency;
    Payments {
        committed: t.committed as u64,
        duplicates: t.duplicate_commits as u64,
        // Not observable without the chain; the ledger model falls back
        // to one payment block per round.
        blocks: 0,
        tx_per_s: t.tx_per_sec,
        p50: lat.map_or(0.0, |l| l.median),
        p95: None,
        p99: lat.map_or(0.0, |l| l.p99),
        samples: t.committed,
    }
}

/// Trace size and loss of a traced run, and the monitor's verdict.
fn trace_totals(engine: &mut Engine, problems: &mut Vec<String>) -> (u64, u64) {
    let (violations, events, dropped) = match engine {
        Engine::Serial(s) => {
            let v = s.monitor_report().map(|r| r.total_violations());
            // Header line excluded.
            let events = s.export_trace("benchmark").lines().count() as u64 - 1;
            (v, events, s.trace_dropped())
        }
        Engine::Parallel(s) => {
            let v = s.monitor_report().map(|r| r.total_violations());
            let events = s.trace_retained() as u64 + s.trace_trimmed();
            (v, events, s.trace_dropped())
        }
    };
    match violations {
        None => problems.push("traced run had no invariant monitor attached".into()),
        Some(0) => {}
        Some(n) => problems.push(format!("invariant monitor flagged {n} violations")),
    }
    (events, dropped)
}
