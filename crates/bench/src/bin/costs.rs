//! §10.3: CPU, bandwidth, and storage costs of running Algorand.
//!
//! Paper numbers: ~6.5% of a core per user (dominated by signature/VRF
//! verification), ~10 Mbit/s per user with 1 MB blocks and 50k users
//! (independent of user count), 300 KB certificates (~30% overhead on
//! 1 MB blocks), and proportional savings from sharding storage.

use algorand_ba::VoteMessage;
use algorand_bench::{header, run_experiment};
use algorand_sim::SimConfig;

fn main() {
    header(
        "§10.3 — CPU, bandwidth, and storage costs",
        "~10 Mbit/s/user; 300 KB certificates (~30% of a 1 MB block); sharding divides storage",
    );
    let n_users = 80;
    let rounds = 3;
    let payload = 256 << 10;
    let mut cfg = SimConfig::new(n_users);
    cfg.payload_bytes = payload;
    cfg.seed = 23;
    let (sim, _stats) = run_experiment(cfg, rounds);
    let virtual_s = sim.now() as f64 / 1e6;

    // --- Bandwidth -----------------------------------------------------------
    let total_sent = sim.network().total_bytes_sent() as f64;
    let per_user_mbps = total_sent * 8.0 / n_users as f64 / virtual_s / 1e6;
    println!("bandwidth:");
    println!("  simulated time           {virtual_s:>10.1} s");
    println!("  total bytes gossiped     {:>10.1} MB", total_sent / 1e6);
    println!("  per-user average         {per_user_mbps:>10.2} Mbit/s   (paper: ~10 Mbit/s at 1 MB blocks)");

    // --- CPU -----------------------------------------------------------------
    let uniques = sim.unique_verifications();
    println!("cpu:");
    println!("  unique vote verifications {uniques:>9}   (each = 1 signature + 1 VRF check)");

    // --- Storage ---------------------------------------------------------------
    let node = sim.honest_node(0);
    let chain = node.chain();
    let mut block_bytes = 0usize;
    let mut cert_bytes = 0usize;
    for r in 1..=chain.tip().round {
        if let Some(b) = chain.block_at(r) {
            block_bytes += b.wire_size();
        }
        if let Some(c) = chain.certificate_at(r) {
            cert_bytes += c.wire_size();
        }
    }
    let per_cert = cert_bytes as f64 / chain.tip().round.max(1) as f64;
    println!("storage:");
    println!(
        "  blocks                    {:>9.1} KB",
        block_bytes as f64 / 1e3
    );
    println!(
        "  certificates              {:>9.1} KB  ({:.1} KB each; paper: 300 KB at tau_step=2000)",
        cert_bytes as f64 / 1e3,
        per_cert / 1e3
    );
    println!(
        "  certificate overhead      {:>9.1} %  (paper: ~30% at 1 MB blocks)",
        cert_bytes as f64 / block_bytes.max(1) as f64 * 100.0
    );
    let full = chain.sharded_storage_bytes(&node.public_key(), 1);
    let sharded = chain.sharded_storage_bytes(&node.public_key(), 10);
    println!(
        "  sharding mod 10           {:>9.1} %  of full storage (paper: 1/10)",
        sharded as f64 / full.max(1) as f64 * 100.0
    );

    // Certificate-size model at paper scale: ~threshold votes of ~300 B.
    let paper_cert_kb = (0.685 * 2000.0 + 1.0) * VoteMessage::WIRE_SIZE as f64 / 1e3;
    println!();
    println!(
        "model check: at paper scale a certificate needs >0.685*2000 votes x {} B = {:.0} KB (paper: ~300 KB)",
        VoteMessage::WIRE_SIZE,
        paper_cert_kb
    );
    // §8.3's forged-certificate attack: the adversary must find a step it
    // dominates; at paper parameters the per-step probability is
    // astronomically small.
    let log10 = algorand_sortition::committee::certificate_forgery_log10_bound(2000.0, 0.685, 0.80);
    println!(
        "forgery check: per-step certificate-forgery probability <= 10^{log10:.0} (paper: < 2^-166 = 10^-50)"
    );
}
