//! Figure 6: round latency from 50,000 to 500,000 users (500 users/VM).
//!
//! The paper's configuration is bandwidth-bound — 500 processes share each
//! VM's NIC, and the paper replaces signature verification with sleeps.
//! We mirror that substitution with the analytic epidemic model (DESIGN.md
//! §4.6) parameterized identically: 1 Gbit/s ÷ 500 per process, paper
//! committees, 1 MB blocks, λ_step raised to 60 s as in the paper. The
//! expected shape: ~4× the Figure 5 latency, and roughly flat up to 500k
//! users.

use algorand_bench::header;
use algorand_core::AlgorandParams;
use algorand_sim::EpidemicConfig;

fn main() {
    header(
        "Figure 6 — round latency at 50k..500k users (bandwidth-bound)",
        "~4x Figure 5's latency; roughly flat from 50k to 500k users",
    );
    let params = AlgorandParams::paper();
    println!("{:>9} {:>7} {:>16}", "users", "hops", "round latency(s)");
    let mut first = None;
    let mut last = 0.0;
    for n in [50_000usize, 100_000, 150_000, 250_000, 350_000, 500_000] {
        let cfg = EpidemicConfig::figure6(n);
        let latency = cfg.round_latency_s(&params);
        println!("{:>9} {:>7.0} {:>16.1}", n, cfg.hops(), latency);
        first.get_or_insert(latency);
        last = latency;
    }
    let first = first.unwrap();
    println!();
    println!(
        "scaling check: 10x the users -> {:.2}x the latency (paper: roughly flat)",
        last / first
    );
    // And the ~4x relation to the 20 Mbit/s regime of Figure 5:
    let mut fig5_regime = EpidemicConfig::figure6(50_000);
    fig5_regime.bandwidth_bps = 20e6;
    let ratio = first / fig5_regime.round_latency_s(&params);
    println!("regime check: fig6 latency / fig5 latency at 50k users = {ratio:.1}x (paper: ~4x)");
}
