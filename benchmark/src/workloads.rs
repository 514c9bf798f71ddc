//! The four workloads: their fixed shapes, the untraced pass that yields
//! the end-to-end metrics, and the traced pass that yields the per-layer
//! ledger.

use crate::layers;
use crate::localnet::{self, LocalnetSpec};
use crate::observe::Counts;
use crate::probes::{self, Shape};
use crate::procfs;
use crate::simrun::{self, EngineKind, RunObs, SimSpec, Slice, System};
use crate::spans::SpanLog;
use crate::stats;
use algorand_core::AlgorandParams;
use algorand_ledger::Transaction;
use algorand_node::NodeConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;

pub const NAMES: [&str; 4] = ["steady", "saturated", "scale", "localnet"];

/// The run length every size below is tuned for; `--seconds` scales the
/// repetitions (and `localnet`'s rounds) in proportion.
const NOMINAL_SECONDS: f64 = 30.0;

pub enum Kind {
    Sim(SimSpec),
    Localnet(LocalnetSpec),
}

/// One workload at one `--seconds`: shape, repetitions, and the words
/// that describe it in the report.
pub struct Plan {
    pub name: &'static str,
    pub kind: Kind,
    /// Back-to-back repetitions of the identical seeded input.
    pub reps: usize,
    /// How many times set-up is timed (the median is reported).
    pub setup_samples: usize,
    /// Rounds of each run in the traced pass, which makes two or three
    /// runs and the probes fit where the untraced pass makes `reps`.
    pub trace_rounds: u64,
    pub describe: String,
    /// The delay the workload injects between nodes, in words.
    pub injected_delay: &'static str,
}

const SIM_DELAY: &str =
    "sim::NetConfig default: inter-city latency matrix with jitter, 20 Mbit/s uplinks";
const LOOPBACK_DELAY: &str = "none: loopback TCP, as fast as the kernel moves bytes";

/// The plan for `name`, or `None` for an unknown workload. `smoke`
/// shrinks everything to seconds for the test suite.
pub fn plan(name: &str, seconds: u64, smoke: bool) -> Option<Plan> {
    let scale = seconds as f64 / NOMINAL_SECONDS;
    let reps = |nominal: usize| ((nominal as f64 * scale).round() as usize).max(1);
    let sim = |engine, users, tx_rate, tx_total, block_txs: usize, rounds, slice_ms: u64| SimSpec {
        engine,
        users,
        stake_per_user: 500,
        tx_rate,
        tx_total,
        block_tx_bytes: block_txs * Transaction::WIRE_SIZE,
        rounds,
        slice_us: slice_ms * 1000,
    };
    // 1 MiB of payments per block: the product default, never the limit.
    let roomy = (1 << 20) / Transaction::WIRE_SIZE;
    let (name, kind, reps, setup_samples, trace_rounds) = match (name, smoke) {
        ("steady", false) => (
            "steady",
            Kind::Sim(sim(EngineKind::Serial, 50, 10.0, 80, roomy, 6, 2000)),
            reps(4),
            15,
            6,
        ),
        ("steady", true) => (
            "steady",
            Kind::Sim(sim(EngineKind::Serial, 8, 10.0, 6, roomy, 3, 2000)),
            2,
            3,
            3,
        ),
        ("saturated", false) => (
            "saturated",
            Kind::Sim(sim(EngineKind::Serial, 50, 400.0, 250, 113, 5, 1000)),
            reps(3),
            15,
            5,
        ),
        ("saturated", true) => (
            "saturated",
            Kind::Sim(sim(EngineKind::Serial, 8, 100.0, 12, 6, 4, 1000)),
            2,
            3,
            4,
        ),
        ("scale", false) => (
            "scale",
            Kind::Sim(sim(EngineKind::Parallel, 200, 60.0, 20, roomy, 2, 500)),
            reps(4),
            9,
            2,
        ),
        ("scale", true) => (
            "scale",
            Kind::Sim(sim(EngineKind::Parallel, 12, 20.0, 6, roomy, 3, 500)),
            2,
            3,
            3,
        ),
        ("localnet", false) => {
            let rounds = ((10.0 * scale).round() as u64).max(3);
            (
                "localnet",
                Kind::Localnet(LocalnetSpec {
                    nodes: 5,
                    stake_per_user: 1000,
                    tx_count: 50,
                    target_round: rounds,
                }),
                1,
                9,
                (rounds * 2 / 5).max(3),
            )
        }
        ("localnet", true) => (
            "localnet",
            Kind::Localnet(LocalnetSpec {
                nodes: 3,
                stake_per_user: 1000,
                tx_count: 20,
                target_round: 2,
            }),
            1,
            1,
            2,
        ),
        _ => return None,
    };
    let (describe, injected_delay) = match &kind {
        Kind::Sim(s) => (
            format!(
                "{}, {} users x stake {}, open loop {} tx/s x {} payments, {} payments/block, {} rounds, timed in {} ms virtual slices",
                match s.engine {
                    EngineKind::Serial => "sim::Simulation".to_string(),
                    EngineKind::Parallel =>
                        format!("sim::ParallelSim workers={}", simrun::GATED_WORKERS),
                },
                s.users,
                s.stake_per_user,
                s.tx_rate,
                s.tx_total,
                s.block_tx_bytes / Transaction::WIRE_SIZE,
                s.rounds,
                s.slice_us / 1000
            ),
            SIM_DELAY,
        ),
        Kind::Localnet(s) => (
            format!(
                "{} node processes x stake {}, {} payments preloaded, target round {}, linger {} s",
                s.nodes,
                s.stake_per_user,
                s.tx_count,
                s.target_round,
                localnet::LINGER_SECS
            ),
            LOOPBACK_DELAY,
        ),
    };
    Some(Plan {
        name,
        kind,
        reps,
        setup_samples,
        trace_rounds,
        describe,
        injected_delay,
    })
}

/// A reported number with the words printed beside it.
pub struct Line {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// `host`, `virtual`, or `wall` (a real deployment's clock).
    pub clock: &'static str,
    pub note: String,
}

/// The result of one pass over one workload.
pub struct Report {
    /// Metrics by name, for the result line.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra numbers printed for the reader but not gated.
    pub lines: Vec<Line>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Report {
    fn put(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        clock: &'static str,
        note: String,
    ) {
        self.values.insert(name, value);
        self.lines.push(Line {
            name,
            value,
            unit,
            clock,
            note,
        });
    }
}

fn host_note(what: &str, values: &[f64]) -> String {
    format!(
        "{what} of {} (median {:.4}, spread {:.1}%)",
        values.len(),
        stats::median(values),
        stats::rep_spread(values) * 100.0
    )
}

/// The note beside a lower-envelope metric: how whole repetitions did.
fn envelope_note(whole: &[f64]) -> String {
    format!(
        "sum of each slice's fastest of {} reps (whole reps: fastest {:.4}, median {:.4}, spread {:.1}%)",
        whole.len(),
        stats::sorted(whole)[0],
        stats::median(whole),
        stats::rep_spread(whole) * 100.0
    )
}

fn tail_note(samples: usize) -> String {
    match stats::supported_percentile(samples) {
        Some(p) => format!("{samples} payments; ten-beyond rule supports up to p{p}"),
        None => format!("{samples} payments; too few for any percentile by the ten-beyond rule"),
    }
}

/// Directory for everything a run writes: `benchmark/out/`.
fn scratch(name: &str) -> PathBuf {
    crate::out_dir().join(format!("{name}-{}", std::process::id()))
}

// --- Untraced pass: the end-to-end metrics -------------------------------

pub fn end_to_end(plan: &Plan, seed: u64) -> Report {
    match &plan.kind {
        Kind::Sim(spec) => sim_end_to_end(plan, spec, seed),
        Kind::Localnet(spec) => localnet_end_to_end(plan, spec, seed),
    }
}

fn sim_end_to_end(plan: &Plan, spec: &SimSpec, seed: u64) -> Report {
    let workers = simrun::GATED_WORKERS;
    let runs: Vec<RunObs> = (0..plan.reps)
        .map(|_| simrun::run_once(spec, seed, false, workers))
        .collect();
    let mut setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    while setups.len() < plan.setup_samples {
        setups.push(simrun::time_setup(spec, seed, workers));
    }

    let mut report = Report {
        values: BTreeMap::new(),
        lines: Vec::new(),
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        problems: runs.iter().flat_map(|r| r.problems.clone()).collect(),
    };
    // Virtual time is exact for a fixed seed: repetitions of one input
    // that differ in any bit mean the simulator is not deterministic.
    let virt = &runs[0].virt;
    if runs
        .iter()
        .any(|r| r.virt != *virt || r.slices.len() != runs[0].slices.len())
    {
        report
            .problems
            .push("virtual-time results differ between repetitions of one input".into());
    }

    // Host time is the lower envelope of the repetitions: slice by slice,
    // whichever repetition ran it fastest.
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = runs.iter().map(|r| r.cpu_s).collect();
    let per_slice = |f: fn(&Slice) -> f64| -> Vec<Vec<f64>> {
        runs.iter()
            .map(|r| r.slices.iter().map(f).collect())
            .collect()
    };
    report.put(
        "setup_s",
        stats::median(&setups),
        "s",
        "host",
        host_note("median", &setups),
    );
    report.put(
        "run_wall_s",
        stats::envelope(&per_slice(|s| s.wall_s)),
        "s",
        "host",
        envelope_note(&walls),
    );
    report.put(
        "run_cpu_s",
        stats::envelope(&per_slice(|s| s.cpu_s)),
        "s",
        "host",
        envelope_note(&cpus),
    );
    report.put(
        "peak_rss_mb",
        procfs::peak_rss_mb("self").expect("/proc/self/status is readable on Linux"),
        "MB",
        "host",
        "VmHWM of this process".into(),
    );
    put_system(&mut report, &virt.system, "virtual");
    report
}

fn put_system(report: &mut Report, v: &System, clock: &'static str) {
    report.put(
        "round_s",
        v.round_s,
        "s",
        clock,
        "mean over nodes and rounds".into(),
    );
    report.put(
        "tx_per_s",
        v.tx_per_s,
        "tx/s",
        clock,
        "committed / (first submit .. last commit)".into(),
    );
    report.put(
        "finalize_p50_s",
        v.finalize_p50_s,
        "s",
        clock,
        tail_note(v.samples),
    );
    if let Some(p95) = v.finalize_p95_s {
        report.lines.push(Line {
            name: "finalize_p95_s",
            value: p95,
            unit: "s",
            clock,
            note: "printed, not gated (see README)".into(),
        });
    }
    report.put(
        "finalize_p99_s",
        v.finalize_p99_s,
        "s",
        clock,
        tail_note(v.samples),
    );
}

fn localnet_end_to_end(plan: &Plan, spec: &LocalnetSpec, seed: u64) -> Report {
    let reference = localnet::reference(spec, seed);
    let root = scratch(plan.name);
    let run = localnet::run_once(spec, false, &root, &reference);
    let mut setups = vec![run.setup_s];
    while setups.len() < plan.setup_samples {
        setups.push(localnet::time_setup(spec, reference.seed, &root));
    }
    let mut report = Report {
        values: BTreeMap::new(),
        lines: Vec::new(),
        attempted: run.attempted,
        failed: run.failed,
        problems: run.problems,
    };
    report.put(
        "setup_s",
        stats::median(&setups),
        "s",
        "host",
        host_note("median", &setups),
    );
    // One deployment: a round is ~2.1 s of λ, so ten rounds fill the run
    // and there is no second repetition to be the faster one.
    let single = "one deployment".to_string();
    report.put("run_wall_s", run.wall_s, "s", "host", single.clone());
    report.put("run_cpu_s", run.cpu_s, "s", "host", single);
    report.put(
        "peak_rss_mb",
        run.peak_rss_mb,
        "MB",
        "host",
        "largest VmHWM over the node processes".into(),
    );
    let lat = stats::sorted(&run.finalize_s);
    let q = |p: f64| {
        if lat.is_empty() {
            0.0
        } else {
            stats::quantile(&lat, p)
        }
    };
    put_system(
        &mut report,
        &System {
            round_s: run.round_s,
            tx_per_s: run.tx_per_s,
            finalize_p50_s: q(0.5),
            finalize_p95_s: Some(q(0.95)),
            finalize_p99_s: q(0.99),
            samples: lat.len(),
        },
        "wall",
    );
    report
}

// --- Traced pass: the per-layer ledger -----------------------------------

/// What the traced pass hands back besides its report.
pub struct Traced {
    pub report: Report,
    pub spans: SpanLog,
}

pub fn traced(plan: &Plan, seed: u64) -> Traced {
    let mut spans = SpanLog::new(plan.name);
    let root = scratch(plan.name);
    let mut report = Report {
        values: BTreeMap::new(),
        lines: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };

    // The same input twice — tracer and monitor off, then on — and, for
    // the parallel engine, once more on as many workers as the host has
    // cores (two at most).
    let pair: Pair = match &plan.kind {
        Kind::Sim(spec) => {
            let spec = SimSpec {
                rounds: plan.trace_rounds,
                ..*spec
            };
            let workers = simrun::GATED_WORKERS;
            let plain = spans.scoped("run.untraced", None, || {
                simrun::run_once(&spec, seed, false, workers)
            });
            let traced = spans.scoped("run.traced", None, || {
                simrun::run_once(&spec, seed, true, workers)
            });
            // Tracing is write-only: it must not change what happens.
            if traced.virt != plain.virt {
                report
                    .problems
                    .push("tracing changed the run's virtual-time results".into());
            }
            let parallel_wall_s = if spec.engine == EngineKind::Parallel {
                let many = spans.scoped("run.parallel", None, || {
                    simrun::run_once(&spec, seed, false, simrun::parallel_workers())
                });
                if many.virt != plain.virt {
                    report
                        .problems
                        .push("worker count changed the run's virtual-time results".into());
                }
                absorb(&mut report, &many.problems, many.attempted, many.failed);
                many.wall_s
            } else {
                0.0
            };
            absorb(&mut report, &plain.problems, plain.attempted, plain.failed);
            absorb(
                &mut report,
                &traced.problems,
                traced.attempted,
                traced.failed,
            );
            Pair {
                wall_s: plain.wall_s,
                cpu_s: plain.cpu_s,
                traced_cpu_s: traced.cpu_s,
                counts: plain.counts,
                trace_events: traced.trace_events,
                trace_dropped: traced.trace_dropped,
                virtual_s: plain.virt.virtual_s,
                parallel_wall_s,
                node_cpu_s: 0.0,
                node_rss_mb: 0.0,
                shape: sim_shape(&spec, seed, &plain),
            }
        }
        Kind::Localnet(spec) => {
            let spec = LocalnetSpec {
                target_round: plan.trace_rounds,
                ..*spec
            };
            let reference = localnet::reference(&spec, seed);
            let plain = spans.scoped("run.untraced", None, || {
                localnet::run_once(&spec, false, &root, &reference)
            });
            let traced = spans.scoped("run.traced", None, || {
                localnet::run_once(&spec, true, &root, &reference)
            });
            absorb(&mut report, &plain.problems, plain.attempted, plain.failed);
            absorb(
                &mut report,
                &traced.problems,
                traced.attempted,
                traced.failed,
            );
            Pair {
                wall_s: plain.wall_s,
                cpu_s: plain.cpu_s,
                traced_cpu_s: traced.cpu_s,
                counts: plain.counts,
                trace_events: traced.trace_events,
                trace_dropped: traced.trace_dropped,
                virtual_s: 0.0,
                parallel_wall_s: 0.0,
                node_cpu_s: plain.cpu_s / spec.nodes as f64,
                node_rss_mb: plain.mean_rss_mb,
                shape: Shape {
                    users: spec.nodes,
                    stake_per_user: spec.stake_per_user,
                    params: localnet_params(&spec),
                    // The node keeps the product's 1 MiB block budget, so
                    // the whole preload rides one block.
                    block_txs: spec.tx_count,
                    pool_depth: spec.tx_count,
                    rounds: spec.target_round,
                },
            }
        }
    };

    let units = probes::run(&pair.shape, seed, &root, &mut spans);
    let _ = std::fs::remove_dir_all(&root);
    let c = &pair.counts;
    let v = &mut report.values;
    for (name, cost) in &units {
        v.insert(name, *cost);
    }
    let per = |x: f64, d: f64| if d > 0.0 { x / d } else { 0.0 };
    v.insert("core.ingested", c.ingested);
    v.insert("core.verified", c.verified);
    v.insert("core.cache_hits", c.cache_hits);
    v.insert("core.cache_misses", c.cache_misses);
    v.insert(
        "core.hit_ratio",
        per(c.cache_hits, c.cache_hits + c.cache_misses),
    );
    v.insert("core.rejected_ingest", c.rejected_ingest);
    v.insert("core.emitted", c.emitted);
    v.insert("ba.unique_votes", c.cold_votes);
    v.insert("ba.final_step_mean", c.final_step_mean);
    v.insert(
        "gossip.msgs_per_round_user",
        per(c.relay_received(), c.node_rounds),
    );
    v.insert(
        "gossip.bytes_per_round_user",
        per(c.bytes_sent, c.node_rounds),
    );
    v.insert("gossip.dup_ratio", per(c.relay_dup, c.relay_received()));
    v.insert("txpool.admitted", c.pool_admitted);
    v.insert("txpool.rejected", c.pool_rejected);
    let simulated = pair.virtual_s > 0.0;
    v.insert(
        "sim.events_per_s",
        if simulated {
            per(c.relay_received(), pair.wall_s)
        } else {
            0.0
        },
    );
    v.insert(
        "sim.host_us_per_event",
        if simulated {
            per(pair.cpu_s * 1e6, c.relay_received())
        } else {
            0.0
        },
    );
    v.insert("sim.speed", per(pair.virtual_s, pair.wall_s));
    v.insert("sim.virtual_s", pair.virtual_s);
    v.insert("sim.des_parallel_wall_s", pair.parallel_wall_s);
    v.insert("node.frames_sent", c.frames_sent);
    v.insert(
        "node.bytes_sent",
        if simulated { 0.0 } else { c.bytes_sent },
    );
    v.insert("node.send_drops", c.send_drops);
    v.insert("node.decode_failures", c.decode_failures);
    v.insert("node.cpu_s_per_node", pair.node_cpu_s);
    v.insert("node.rss_mb_per_node", pair.node_rss_mb);
    v.insert("obs.trace_overhead", per(pair.traced_cpu_s, pair.cpu_s));
    v.insert("obs.trace_events", pair.trace_events as f64);
    v.insert("obs.trace_dropped", pair.trace_dropped as f64);
    let estimate = layers::estimate(&units, c, pair.shape.block_txs);
    for (name, share) in estimate.shares(pair.cpu_s) {
        v.insert(name, share);
    }
    report.lines.push(Line {
        name: "payments.share",
        value: per(
            estimate.txpool + estimate.ledger + estimate.payment_sigs,
            pair.cpu_s,
        ),
        unit: "ratio",
        clock: "host",
        note: "txpool + ledger + signature checks on payments; printed, not gated".into(),
    });
    report.lines.push(Line {
        name: "run_cpu_s",
        value: pair.cpu_s,
        unit: "s",
        clock: "host",
        note: format!(
            "untraced run of the traced pass ({} rounds); the shares divide by this",
            plan.trace_rounds
        ),
    });
    Traced { report, spans }
}

/// The sizes the probes reproduce, read off the run itself where it
/// shows them: the mean length of the blocks that carried payments, and
/// a pool as deep as two rounds of arrivals (a payment waits for the
/// next proposal, then for that round to finish before it is pruned).
fn sim_shape(spec: &SimSpec, seed: u64, run: &RunObs) -> Shape {
    let cap = spec.block_tx_bytes / Transaction::WIRE_SIZE;
    let c = &run.counts;
    let block_txs = if c.payment_blocks > 0.0 {
        (c.committed / c.payment_blocks).round() as usize
    } else {
        // `ParallelSim` does not show its blocks.
        spec.tx_total
    }
    .clamp(1, cap);
    let two_rounds = (spec.tx_rate * 2.0 * run.virt.system.round_s).ceil() as usize;
    Shape {
        users: spec.users,
        stake_per_user: spec.stake_per_user,
        params: spec.config(seed, false).params,
        block_txs,
        pool_depth: spec.tx_total.min(two_rounds).max(block_txs),
        rounds: spec.rounds,
    }
}

/// The two runs of a traced pass, reduced to what the ledger needs.
struct Pair {
    wall_s: f64,
    cpu_s: f64,
    traced_cpu_s: f64,
    counts: Counts,
    trace_events: u64,
    trace_dropped: u64,
    /// 0 for a real deployment.
    virtual_s: f64,
    /// 0 off `ParallelSim`.
    parallel_wall_s: f64,
    node_cpu_s: f64,
    node_rss_mb: f64,
    shape: Shape,
}

fn absorb(report: &mut Report, problems: &[String], attempted: u64, failed: u64) {
    report.problems.extend_from_slice(problems);
    report.attempted += attempted;
    report.failed += failed;
}

/// The protocol parameters a `localnet` node derives from its config.
fn localnet_params(spec: &LocalnetSpec) -> AlgorandParams {
    NodeConfig {
        n_users: spec.nodes,
        stake_per_user: spec.stake_per_user,
        ..NodeConfig::default()
    }
    .params()
}
