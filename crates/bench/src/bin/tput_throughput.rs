//! §10.2: throughput vs Bitcoin — measured with real transactions.
//!
//! The paper derives throughput from committed ledger bytes per hour
//! (750 MB/hour at 10 MB blocks = 125× Bitcoin's 6 MB/hour). Earlier
//! revisions of this binary proxied block contents with synthetic
//! payload bytes; now that the node carries a transaction pool, we
//! drive an open-loop payment workload through gossip and measure what
//! actually lands in finalized blocks: committed tx/sec, per-transaction
//! finalization latency, and the equivalent committed MB/hour.
//!
//! The sweep varies the proposer's per-block transaction byte budget.
//! The workload (400 tx/s offered) saturates the small caps, so
//! committed throughput tracks the cap until the offered load becomes
//! the bottleneck — the same "BA⋆ time is flat, payload amortizes"
//! shape as the paper's Figure 7-derived numbers.

use algorand_bench::{header, BITCOIN_MB_PER_HOUR, T_CAP};
use algorand_ledger::Transaction;
use algorand_sim::{SimConfig, Simulation};

fn main() {
    header(
        "§10.2 — committed transaction throughput vs Bitcoin",
        "2MB block: ~22 s round -> 327 MB/h; 10MB -> 750 MB/h = 125x Bitcoin (6 MB/h)",
    );
    let n_users = 50;
    let rounds = 12;
    println!(
        "{:>8} {:>9} {:>10} {:>9} {:>8} {:>8} {:>9} {:>10}",
        "cap", "injected", "committed", "tx/s", "p50(s)", "p99(s)", "MB/hour", "x Bitcoin"
    );
    let mut rates = Vec::new();
    for (cap, label) in [
        (32usize << 10, "32KB"),
        (64 << 10, "64KB"),
        (128 << 10, "128KB"),
        (256 << 10, "256KB"),
    ] {
        let mut cfg = SimConfig::new(n_users);
        cfg.stake_per_user = 500;
        cfg.payload_bytes = 0; // real transactions only
        cfg.block_tx_bytes = cap;
        cfg.tx_rate = 400.0;
        cfg.tx_total = 4000;
        cfg.seed = 19;
        let mut sim = Simulation::new(cfg);
        sim.run_rounds(rounds, T_CAP);
        let stats = sim.tx_stats().expect("workload configured");
        assert_eq!(stats.duplicate_commits, 0, "a transaction committed twice");
        let (p50, p99) = stats
            .latency
            .as_ref()
            .map_or((f64::NAN, f64::NAN), |p| (p.median, p.p99));
        let mb_per_hour =
            stats.tx_per_sec * Transaction::WIRE_SIZE as f64 * 3600.0 / (1 << 20) as f64;
        let ratio = mb_per_hour / BITCOIN_MB_PER_HOUR;
        println!(
            "{label:>8} {:>9} {:>10} {:>9.1} {p50:>8.2} {p99:>8.2} {mb_per_hour:>9.2} {ratio:>10.2}",
            stats.injected, stats.committed, stats.tx_per_sec
        );
        rates.push(stats.tx_per_sec);
    }
    println!();
    let (first, last) = (rates[0], rates[rates.len() - 1]);
    println!(
        "shape check: committed tx/s grows with the block cap while saturated \
         ({first:.0} -> {last:.0} tx/s), then flattens at the offered load"
    );
    println!(
        "note: 144-byte payments make small blocks; the paper's MB/hour numbers \
         come from MB-scale blocks (reproduced by fig7_blocksize with synthetic payload)"
    );
    println!("paper: 125x Bitcoin at 10 MB blocks on the EC2 testbed");
}
