//! The paper's evaluation (§7, §10), one row of [`FIGURES`] per figure,
//! table or ablation.
//!
//! A figure runs its experiment once, a pure function of the seeds
//! written here, writes the text pinned as `results/<name>.txt` (as a
//! printer writes to stdout; [`run`] captures it), and returns the
//! paper's claims judged on the values it printed. Each claim is a
//! predicate whose tolerance is a named constant beside the paper
//! sentence it encodes, fixed before anything ran. A row whose claim the
//! figure's size cannot show is [`Claim::Unclaimed`], with the reason.
//! Absolute numbers differ from the paper (a discrete-event simulator,
//! not 1,000 EC2 VMs), so the claims are about shape: what stays flat,
//! what grows, who wins.

use crate::ablation::{self, COIN_ADVERSARIES, COIN_GROUP_A, HONEST_USERS};
use crate::T_CAP;
use algorand_ba::{Micros, VoteMessage, SECOND, T_FINAL, T_STEP};
use algorand_core::{AlgorandParams, HONEST_FRACTION};
use algorand_ledger::Transaction;
use algorand_sim::{DesConfig, EpidemicConfig, RoundStats, SimConfig, Simulation, TxStats};
use algorand_sortition::committee::{
    certificate_forgery_log10_bound, figure3_curve, violation_probability, CommitteeSizePoint,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One paper claim about a figure.
pub enum Claim {
    /// The predicate's name, and whether the figure's values keep it.
    Judged(&'static str, bool),
    /// A row the figure's size cannot show its claim at, and why.
    Unclaimed(&'static str),
}

/// A figure's experiment: it writes the figure's text and returns its
/// claims.
pub type Figure = fn() -> Vec<Claim>;

/// Every figure by its `results/<name>.txt` name, in the order `figures
/// check` runs them.
pub const FIGURES: &[(&str, Figure)] = &[
    ("fig3_committee_size", fig3),
    ("fig4_params", fig4),
    ("fig5_latency_users", fig5),
    ("fig6_latency_largescale", fig6),
    ("fig7_blocksize", fig7),
    ("fig8_malicious", fig8),
    ("tput_throughput", tput),
    ("costs", costs),
    ("ba_steps", ba_steps),
    ("timeout_validation", timeouts),
    ("ablation_common_coin", common_coin),
    ("ablation_reduction", reduction),
    ("ablation_extra_votes", extra_votes),
    ("ablation_priority_gossip", priority_gossip),
    ("epidemic_vs_des", epidemic_vs_des),
];

thread_local! {
    /// The running figure's text so far.
    static TEXT: RefCell<String> = const { RefCell::new(String::new()) };
}

/// `println!` into the running figure's text.
macro_rules! say {
    ($($arg:tt)*) => {
        TEXT.with_borrow_mut(|text| {
            let _ = writeln!(text, $($arg)*);
        })
    };
}

/// Runs one figure: its text, byte for byte as pinned, and its claims.
pub fn run(figure: Figure) -> (String, Vec<Claim>) {
    TEXT.with_borrow_mut(String::clear);
    let claims = figure();
    (TEXT.with_borrow_mut(std::mem::take), claims)
}

/// Starts a figure's text with a section header in the uniform style.
fn header(title: &str, paper_ref: &str) {
    let rule = "================================================================";
    say!("\n{rule}\n{title}\n  paper reference: {paper_ref}\n{rule}");
}

/// Runs one simulation, capped at [`T_CAP`], and returns the stats of
/// rounds 1..=`rounds`.
fn run_experiment(cfg: SimConfig, rounds: u64) -> (Simulation, Vec<RoundStats>) {
    let mut sim = Simulation::new(cfg);
    sim.run_rounds(rounds, T_CAP);
    let stats: Vec<RoundStats> = (1..=rounds).filter_map(|r| sim.round_stats(r)).collect();
    (sim, stats)
}

/// Mean of `f` over the measured rounds; NaN when none was measured.
fn round_mean(stats: &[RoundStats], f: impl Fn(&RoundStats) -> f64) -> f64 {
    stats.iter().map(f).sum::<f64>() / stats.len() as f64
}

/// Runs each `(label, config)` for 3 rounds and prints its round
/// completion min/p25/median/p75/max, each averaged over the rounds,
/// under a `column`-headed table; returns the medians.
fn completion_sweep(column: &str, rows: Vec<(String, SimConfig)>) -> Vec<f64> {
    let width = column.len().max(rows[0].0.len());
    say!("{column:>width$}   rounds      min    p25 median    p75    max");
    let five = |s: &RoundStats| {
        let c = &s.completion;
        [c.min, c.p25, c.median, c.p75, c.max]
    };
    let mut medians = Vec::new();
    for (label, cfg) in rows {
        let (_sim, stats) = run_experiment(cfg, 3);
        let p: Vec<f64> = (0..5).map(|i| round_mean(&stats, |s| five(s)[i])).collect();
        let cells: Vec<String> = p.iter().map(|x| format!("{x:6.2}")).collect();
        say!("{label} {:>8}   {}", stats.len(), cells.join(" "));
        medians.push(p[2]);
    }
    medians
}

/// True when the largest of `xs` is at most `factor` times the smallest
/// (a NaN, i.e. a configuration that measured nothing, fails).
fn flat(xs: &[f64], factor: f64) -> bool {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    !xs.is_empty() && xs.iter().all(|x| *x <= lo * factor)
}

// --- Figure 3 ---------------------------------------------------------------

/// Fig. 3 plots the committee size "sufficient to limit the probability
/// of violating safety to 5×10⁻⁹", and §7.5 marks h = 80%, τ_step = 2000,
/// T_step = 0.685 as the operating point (the figure's star).
const FIG3_VIOLATION: f64 = 5e-9;
/// The star's τ: the curve passes through or under it at h = 80%.
const FIG3_STAR_TAU: u64 = 2000;

fn fig3() -> Vec<Claim> {
    header(
        "Figure 3 — committee size vs honest fraction (violation ≤ 5e-9)",
        "curve from ~4500 at h=76% down to <500 at h=90%; star at (80%, 2000)",
    );
    let hs: Vec<f64> = (76..=90).map(|pct| pct as f64 / 100.0).collect();
    let curve = figure3_curve(&hs);
    say!(" h (%)        tau        T");
    for c in &curve {
        let h = c.honest_fraction * 100.0;
        say!("{h:>6.0} {:>10} {:>8.3}", c.tau, c.threshold);
    }
    let p = violation_probability(2000.0, 0.685, 0.80);
    say!("\ncheck at the paper's operating point (h=80%, tau=2000, T=0.685):");
    say!("  violation probability = {p:.3e}  (paper target: 5e-9)");
    vec![
        Claim::Judged("star_within_target", p < FIG3_VIOLATION),
        Claim::Judged("curve_falls_through_star", fig3_curve_holds(&hs, &curve)),
    ]
}

/// Every h solved, τ never growing with h, and τ(80%) at or under the star.
fn fig3_curve_holds(hs: &[f64], curve: &[CommitteeSizePoint]) -> bool {
    curve.len() == hs.len()
        && curve.windows(2).all(|w| w[0].tau >= w[1].tau)
        && curve
            .iter()
            .any(|c| c.honest_fraction == 0.80 && c.tau <= FIG3_STAR_TAU)
}

// --- Figure 4 ---------------------------------------------------------------

/// Figure 4's rows: each parameter and what it means, in the paper's order.
const FIG4_ROWS: [(&str, &str); 12] = [
    ("h", "assumed fraction of honest weighted users"),
    ("R", "seed refresh interval (# of rounds)"),
    ("tau_proposer", "expected # of block proposers"),
    ("tau_step", "expected # of committee members"),
    ("T_step", "threshold of tau_step for BA*"),
    ("tau_final", "expected # of final committee members"),
    ("T_final", "threshold of tau_final for BA*"),
    ("MaxSteps", "maximum number of steps in BinaryBA*"),
    ("lambda_priority", "time to gossip sortition proofs"),
    ("lambda_block", "timeout for receiving a block"),
    ("lambda_step", "timeout for a BA* step"),
    ("lambda_stepvar", "estimate of BA* completion variance"),
];

fn fig4() -> Vec<Claim> {
    header(
        "Figure 4 — implementation parameters",
        "h=80%, R=1000, tau_proposer=26, tau_step=2000, T_step=68.5%, \
         tau_final=10000, T_final=74%, MaxSteps=150, priorities 5s, \
         block 1min, step 20s, stepvar 5s",
    );
    let p = AlgorandParams::paper();
    let pct = |x: f64, digits: usize| format!("{:.*}%", digits, x * 100.0);
    let secs = |us: Micros| format!("{} s", us as f64 / 1e6);
    say!("parameter      meaning                                               value");
    let values = [
        pct(HONEST_FRACTION, 0),
        p.chain.seed_refresh_interval.to_string(),
        p.tau_proposer.to_string(),
        p.ba.tau_step.to_string(),
        pct(T_STEP, 1),
        p.ba.tau_final.to_string(),
        pct(T_FINAL, 0),
        p.ba.max_steps.to_string(),
        secs(p.lambda_priority),
        secs(p.ba.lambda_block),
        secs(p.ba.lambda_step),
        secs(p.lambda_stepvar),
    ];
    for ((name, meaning), value) in FIG4_ROWS.iter().zip(values) {
        say!("{name:<14} {meaning:<46} {value:>12}");
    }
    let (step, fin) = (p.ba.step_vote_threshold(), p.ba.final_vote_threshold());
    say!("\nderived:");
    say!("  step vote threshold  T_step*tau_step  = {step:.0} votes");
    say!("  final vote threshold T_final*tau_final = {fin:.0} votes");
    let wait = secs(p.proposal_wait());
    say!("  proposal wait lambda_priority+lambda_stepvar = {wait}");
    vec![Claim::Judged("table_is_the_papers", fig4_is_paper(&p))]
}

/// Figure 4 is a table of choices, not a measurement: every value exactly
/// the paper's.
fn fig4_is_paper(p: &AlgorandParams) -> bool {
    HONEST_FRACTION == 0.80
        && p.chain.seed_refresh_interval == 1000
        && p.tau_proposer == 26.0
        && (p.ba.tau_step, T_STEP) == (2000.0, 0.685)
        && (p.ba.tau_final, T_FINAL) == (10_000.0, 0.74)
        && p.ba.max_steps == 150
        && (p.lambda_priority, p.lambda_stepvar) == (5 * SECOND, 5 * SECOND)
        && (p.ba.lambda_block, p.ba.lambda_step) == (60 * SECOND, 20 * SECOND)
}

// --- Figures 5 and 6 --------------------------------------------------------

/// Fig. 5: latency stays "nearly constant" from 5,000 to 50,000 users;
/// Fig. 6: "roughly flat" from 50,000 to 500,000. Read as: across the
/// sweep the slowest population's latency is within 1.5× of the fastest,
/// room for the gossip diameter's logarithmic growth and no more.
const USERS_FLAT: f64 = 1.5;

fn fig5() -> Vec<Claim> {
    header(
        "Figure 5 — round latency vs number of users",
        "5k→50k users at 1 MB blocks: ~12 s median, flat in user count",
    );
    let users = [50usize, 100, 200, 400, 800];
    let rows = users.map(|n| {
        let mut cfg = SimConfig::new(n);
        cfg.payload_bytes = 64 * 1024;
        cfg.seed = 11;
        (format!("{n:>7}"), cfg)
    });
    let medians = completion_sweep("users", rows.into());
    let (first, last) = (medians[0], medians[medians.len() - 1]);
    let (few, many) = (users[0], users[users.len() - 1]);
    let (more_users, more_latency) = (many / few, last / first);
    say!("\nscaling check: median at {few} users = {first:.2}s, at {many} users = {last:.2}s ({more_users}x users -> {more_latency:.2}x latency)");
    say!("paper: latency nearly constant from 5k to 50k users");
    vec![Claim::Judged("flat_in_users", flat(&medians, USERS_FLAT))]
}

/// Fig. 6's latency is "~4×" Fig. 5's (a 1 Gbit/s NIC shared by 500
/// processes against 20 Mbit/s each). Read as: within a quarter of 4×.
const FIG6_REGIME: f64 = 4.0;
const FIG6_REGIME_SLACK: f64 = 0.25;

fn fig6() -> Vec<Claim> {
    header(
        "Figure 6 — round latency at 50k..500k users (bandwidth-bound)",
        "~4x Figure 5's latency; roughly flat from 50k to 500k users",
    );
    let params = AlgorandParams::paper();
    say!("    users    hops round latency(s)");
    let mut latencies = Vec::new();
    for n in [50_000usize, 100_000, 150_000, 250_000, 350_000, 500_000] {
        let cfg = EpidemicConfig::figure6(n);
        let latency = cfg.round_latency_s(&params);
        say!("{n:>9} {:>7.0} {latency:>16.1}", cfg.hops());
        latencies.push(latency);
    }
    let (first, last) = (latencies[0], latencies[latencies.len() - 1]);
    let growth = last / first;
    say!("\nscaling check: 10x the users -> {growth:.2}x the latency (paper: roughly flat)");
    // And the ~4x relation to the 20 Mbit/s regime of Figure 5:
    let mut fig5_regime = EpidemicConfig::figure6(50_000);
    fig5_regime.bandwidth_bps = 20e6;
    let ratio = first / fig5_regime.round_latency_s(&params);
    say!("regime check: fig6 latency / fig5 latency at 50k users = {ratio:.1}x (paper: ~4x)");
    vec![
        Claim::Judged("flat_in_users", flat(&latencies, USERS_FLAT)),
        Claim::Judged("about_4x_fig5", fig6_regime_holds(ratio)),
    ]
}

fn fig6_regime_holds(ratio: f64) -> bool {
    (ratio / FIG6_REGIME - 1.0).abs() <= FIG6_REGIME_SLACK
}

// --- Figure 7 ---------------------------------------------------------------

/// Fig. 7: "block proposal" grows with block size, while BA⋆ without the
/// final step and the final step are independent of it. Read as: each of
/// the two agreement bands stays within 1.25× of itself from 1 KB to 1 MB,
/// and proposal at the largest block exceeds proposal at the smallest.
const FIG7_FLAT: f64 = 1.25;
/// Rows 1 KB..=1 MB fit the scaled proposal window; the last (2 MB) does not.
const FIG7_IN_WINDOW: usize = 4;

fn fig7() -> Vec<Claim> {
    header(
        "Figure 7 — latency breakdown vs block size",
        "proposal grows with block size; BA* (~12 s) and final step (~6 s) flat",
    );
    let sizes = [
        (1 << 10, "1KB"),
        (64 << 10, "64KB"),
        (256 << 10, "256KB"),
        (1 << 20, "1MB"),
        (2 << 20, "2MB"),
    ];
    say!("   block  proposal(s)     BA*(s)     final(s)   total(s)");
    let (mut proposal, mut ba, mut fin) = (Vec::new(), Vec::new(), Vec::new());
    for (bytes, label) in sizes {
        let mut cfg = SimConfig::new(100);
        // The paper's fixed 10 s proposal wait absorbs block transmission
        // at its 1 MB default; keep the same proportion here so multi-MB
        // blocks finish gossiping before votes contend for uplinks.
        cfg.params.lambda_priority = 4_000_000;
        cfg.params.lambda_stepvar = 4_000_000;
        cfg.payload_bytes = bytes;
        cfg.seed = 13;
        let (_sim, stats) = run_experiment(cfg, 3);
        let p = round_mean(&stats, |s| s.proposal_median);
        let b = round_mean(&stats, |s| s.ba_median);
        let f = round_mean(&stats, |s| s.final_median);
        let total = p + b + f;
        say!("{label:>8} {p:>12.2} {b:>10.2} {f:>12.2} {total:>10.2}");
        proposal.push(p);
        ba.push(b);
        fin.push(f);
    }
    // The BA⋆-flatness claim holds while dissemination fits the proposal
    // window; past that point (the paper's 10 MB, our 2 MB at scaled
    // timeouts) the dissemination tail dominates the round, exactly as the
    // paper's growing block-proposal band shows.
    let (small, large) = (ba[0], ba[FIG7_IN_WINDOW - 1]);
    say!("\nshape check: agreement time {small:.2}s at 1KB vs {large:.2}s at 1MB — flat across a 1000x          size range (paper: BA* independent of block size)");
    say!("shape check: beyond the proposal window (2MB here, 10MB in the paper) the round          is dominated by block dissemination, not agreement");
    vec![
        Claim::Judged("ba_flat_to_1mb", flat(&ba[..FIG7_IN_WINDOW], FIG7_FLAT)),
        Claim::Judged("final_flat_to_1mb", flat(&fin[..FIG7_IN_WINDOW], FIG7_FLAT)),
        Claim::Judged("proposal_grows", fig7_proposal_grows(&proposal)),
        Claim::Unclaimed(
            "flat BA* at 2MB: past the proposal window blocks and votes share uplinks",
        ),
    ]
}

fn fig7_proposal_grows(proposal: &[f64]) -> bool {
    proposal.last().is_some_and(|last| *last > proposal[0])
}

// --- Figure 8 ---------------------------------------------------------------

/// §10.4: under the equivocation attack with up to 20% malicious weight,
/// Algorand's latency is "not significantly affected". Read as: every
/// malicious fraction's median within 1.25× of every other's.
const FIG8_FLAT: f64 = 1.25;

fn fig8() -> Vec<Claim> {
    header(
        "Figure 8 — round latency vs fraction of malicious users",
        "0..20% malicious: latency not significantly affected (~12 s)",
    );
    let rows = [0usize, 5, 10, 15, 20].map(|pct| {
        let mut cfg = SimConfig::new(60);
        cfg.n_malicious = 60 * pct / 100;
        cfg.payload_bytes = 16 * 1024;
        cfg.seed = 17;
        (format!("{pct:>10}%"), cfg)
    });
    let medians = completion_sweep("malicious", rows.into());
    let (clean, attacked) = (medians[0], medians[medians.len() - 1]);
    let slowdown = attacked / clean;
    say!("\nshape check: median latency {clean:.2}s (0% malicious) vs {attacked:.2}s (20% malicious): {slowdown:.2}x");
    say!("paper: Algorand is not significantly affected by this attack");
    vec![Claim::Judged("unaffected", flat(&medians, FIG8_FLAT))]
}

// --- §10.2 throughput -------------------------------------------------------

/// Bitcoin's throughput baseline used by §10.2: a 1 MB block every 10
/// minutes = 6 MB of transactions per hour.
const BITCOIN_MB_PER_HOUR: f64 = 6.0;
/// §10.2 reads throughput off Fig. 7: BA⋆ time is flat, so a bigger block
/// commits more per round, until the offered load runs out. Read as: no
/// cap commits under 95% of the next smaller cap's tx/s, and the largest
/// commits more than the smallest.
const TPUT_SLACK: f64 = 0.05;

fn tput() -> Vec<Claim> {
    header(
        "§10.2 — committed transaction throughput vs Bitcoin",
        "2MB block: ~22 s round -> 327 MB/h; 10MB -> 750 MB/h = 125x Bitcoin (6 MB/h)",
    );
    say!("     cap  injected  committed      tx/s   p50(s)   p99(s)   MB/hour  x Bitcoin");
    let mut rows = Vec::new();
    for (cap, label) in [
        (32 << 10, "32KB"),
        (64 << 10, "64KB"),
        (128 << 10, "128KB"),
        (256 << 10, "256KB"),
    ] {
        let mut cfg = SimConfig::new(50);
        cfg.stake_per_user = 500;
        cfg.payload_bytes = 0; // real transactions only
        cfg.block_tx_bytes = cap;
        cfg.tx_rate = 400.0;
        cfg.tx_total = 4000;
        cfg.seed = 19;
        let mut sim = Simulation::new(cfg);
        sim.run_rounds(12, T_CAP);
        let s = sim.tx_stats().expect("workload configured");
        let (p50, p99) = s
            .latency
            .as_ref()
            .map_or((f64::NAN, f64::NAN), |p| (p.median, p.p99));
        let mb_per_hour = s.tx_per_sec * Transaction::WIRE_SIZE as f64 * 3600.0 / (1 << 20) as f64;
        let ratio = mb_per_hour / BITCOIN_MB_PER_HOUR;
        let (injected, committed, tx_per_sec) = (s.injected, s.committed, s.tx_per_sec);
        say!("{label:>8} {injected:>9} {committed:>10} {tx_per_sec:>9.1} {p50:>8.2} {p99:>8.2} {mb_per_hour:>9.2} {ratio:>10.2}");
        rows.push(s);
    }
    let (first, last) = (rows[0].tx_per_sec, rows[rows.len() - 1].tx_per_sec);
    say!(
        "\nshape check: committed tx/s grows with the block cap while saturated \
         ({first:.0} -> {last:.0} tx/s), then flattens at the offered load"
    );
    say!(
        "note: 144-byte payments make small blocks; the paper's MB/hour numbers \
         come from MB-scale blocks (reproduced by fig7_blocksize with synthetic payload)"
    );
    say!("paper: 125x Bitcoin at 10 MB blocks on the EC2 testbed");
    let once = rows.iter().all(|r| r.duplicate_commits == 0);
    vec![
        Claim::Judged("grows_with_cap", tput_grows(&rows)),
        Claim::Judged("largest_cap_commits_all", tput_meets_load(&rows)),
        Claim::Judged("commits_once", once),
        Claim::Unclaimed("125x Bitcoin: needs 10 MB blocks; 144-byte payments make small ones"),
    ]
}

fn tput_grows(rows: &[TxStats]) -> bool {
    let rate = |i: usize| rows[i].tx_per_sec;
    rows.len() > 1
        && (1..rows.len()).all(|i| rate(i) >= rate(i - 1) * (1.0 - TPUT_SLACK))
        && rate(rows.len() - 1) > rate(0)
}

/// "Then flattens at the offered load": the largest cap leaves nothing
/// injected uncommitted.
fn tput_meets_load(rows: &[TxStats]) -> bool {
    rows.last().is_some_and(|r| r.committed == r.injected)
}

// --- §10.3 costs ------------------------------------------------------------

/// §10.3: a certificate is "about 300 KB" at τ_step = 2000. Read as: the
/// paper-scale model (> T_step·τ_step votes of one vote's wire size)
/// within 1.5× of 300 KB.
const COSTS_CERT_KB: f64 = 300.0;
const COSTS_CERT_FACTOR: f64 = 1.5;
/// §8.3: "for τ_step > 1000, the probability of this attack is less than
/// 2⁻¹⁶⁶ at every step".
const COSTS_FORGERY_BITS: f64 = 166.0;

fn costs() -> Vec<Claim> {
    header(
        "§10.3 — CPU, bandwidth, and storage costs",
        "~10 Mbit/s/user; 300 KB certificates (~30% of a 1 MB block); sharding divides storage",
    );
    let n_users = 80;
    let mut cfg = SimConfig::new(n_users);
    cfg.payload_bytes = 256 << 10;
    cfg.seed = 23;
    let (sim, _stats) = run_experiment(cfg, 3);
    let virtual_s = sim.now() as f64 / 1e6;

    // --- Bandwidth -----------------------------------------------------------
    let total_sent = sim.network().total_bytes_sent() as f64;
    let per_user_mbps = total_sent * 8.0 / n_users as f64 / virtual_s / 1e6;
    say!("bandwidth:");
    say!("  simulated time           {virtual_s:>10.1} s");
    say!("  total bytes gossiped     {:>10.1} MB", total_sent / 1e6);
    say!("  per-user average         {per_user_mbps:>10.2} Mbit/s   (paper: ~10 Mbit/s at 1 MB blocks)");

    // --- CPU -----------------------------------------------------------------
    let uniques = sim.unique_verifications();
    say!("cpu:");
    say!("  unique vote verifications {uniques:>9}   (each = 1 signature + 1 VRF check)");

    // --- Storage ---------------------------------------------------------------
    let node = sim.honest_node(0);
    let chain = node.chain();
    let mut block_bytes = 0usize;
    let mut cert_bytes = 0usize;
    for r in 1..=chain.tip().round {
        block_bytes += chain.block_at(r).map_or(0, |b| b.wire_size());
        cert_bytes += chain.certificate_at(r).map_or(0, |c| c.wire_size());
    }
    let per_cert_kb = cert_bytes as f64 / chain.tip().round.max(1) as f64 / 1e3;
    say!("storage:");
    let (blocks_kb, certs_kb) = (block_bytes as f64 / 1e3, cert_bytes as f64 / 1e3);
    say!("  blocks                    {blocks_kb:>9.1} KB");
    say!("  certificates              {certs_kb:>9.1} KB  ({per_cert_kb:.1} KB each; paper: 300 KB at tau_step=2000)");
    let overhead = cert_bytes as f64 / block_bytes.max(1) as f64 * 100.0;
    say!("  certificate overhead      {overhead:>9.1} %  (paper: ~30% at 1 MB blocks)");
    let full = chain.sharded_storage_bytes(&node.public_key(), 1);
    let sharded = chain.sharded_storage_bytes(&node.public_key(), 10);
    let share = sharded as f64 / full.max(1) as f64 * 100.0;
    say!("  sharding mod 10           {share:>9.1} %  of full storage (paper: 1/10)");

    // Certificate-size model at paper scale: ~threshold votes of ~300 B.
    let vote_bytes = VoteMessage::WIRE_SIZE;
    let paper_cert_kb = (0.685 * 2000.0 + 1.0) * vote_bytes as f64 / 1e3;
    say!("\nmodel check: at paper scale a certificate needs >0.685*2000 votes x {vote_bytes} B = {paper_cert_kb:.0} KB (paper: ~300 KB)");
    // §8.3's forged-certificate attack: the adversary must find a step it
    // dominates; at paper parameters the per-step probability is
    // astronomically small.
    let log10 = certificate_forgery_log10_bound(2000.0, 0.685, 0.80);
    let forgery_ok = log10 < -COSTS_FORGERY_BITS * std::f64::consts::LOG10_2;
    say!("forgery check: per-step certificate-forgery probability <= 10^{log10:.0} (paper: < 2^-166 = 10^-50)");
    vec![
        Claim::Judged("certificate_model", costs_certificate_holds(paper_cert_kb)),
        Claim::Judged("forgery_bound", forgery_ok),
        Claim::Unclaimed("~10 Mbit/s per user: the paper's is at 1 MB blocks and 50k users"),
        Claim::Unclaimed("certificate overhead ~30%: scaled committees make ~16 KB certificates"),
        Claim::Unclaimed("sharding mod 10 stores ~1/10: a 3-round chain is too short to split"),
    ]
}

fn costs_certificate_holds(kb: f64) -> bool {
    (COSTS_CERT_KB / COSTS_CERT_FACTOR..=COSTS_CERT_KB * COSTS_CERT_FACTOR).contains(&kb)
}

// --- §7 BA⋆ step counts -----------------------------------------------------

/// §7: with an honest highest-priority proposer under strong synchrony,
/// BA⋆ takes 4 interactive steps, i.e. BinaryBA⋆ always concludes at its
/// step 1; with a malicious one it takes "an expected 11 steps" of
/// BinaryBA⋆ in the worst case.
const BA_EXPECTED_STEPS: f64 = 11.0;

fn ba_steps() -> Vec<Claim> {
    header(
        "§7 — BA* step counts (common case vs adversarial proposer)",
        "honest proposer: 4 interactive steps (BinaryBA* step 1); malicious: expected ≤11 binary steps",
    );
    let distribution = |label: &str, n_malicious: usize| {
        let mut cfg = SimConfig::new(40);
        cfg.n_malicious = n_malicious;
        cfg.seed = 31;
        let (sim, _) = run_experiment(cfg, 4);
        let mut dist = BTreeMap::new();
        for r in sim.honest_records().into_iter().flatten() {
            *dist.entry(r.binary_step).or_insert(0usize) += 1;
        }
        let total: usize = dist.values().sum();
        say!("{label}:");
        for (step, count) in &dist {
            let share = *count as f64 / total.max(1) as f64 * 100.0;
            say!("  BinaryBA* concluded at step {step}: {count:>5} ({share:.1}%)");
        }
        say!();
        dist
    };
    let honest = distribution("all honest", 0);
    let attacked = distribution("20% malicious (equivocation attack)", 8);
    let frac_step1 =
        *honest.get(&1).unwrap_or(&0) as f64 / honest.values().sum::<usize>().max(1) as f64;
    let pct_step1 = frac_step1 * 100.0;
    say!("shape check: honest runs conclude at step 1 in {pct_step1:.0}% of rounds (paper: always, under strong synchrony)");
    let max_attacked = attacked.keys().max().copied().unwrap_or(0);
    say!("shape check: under attack the worst observed concluding step was {max_attacked} (paper bound: expected 11)");
    vec![
        Claim::Judged("honest_conclude_at_step_1", ba_all_step_1(&honest)),
        Claim::Judged("attacked_mean_within_11", ba_mean_within(&attacked)),
    ]
}

fn ba_all_step_1(dist: &BTreeMap<u32, usize>) -> bool {
    !dist.is_empty() && dist.keys().all(|&step| step == 1)
}

fn ba_mean_within(dist: &BTreeMap<u32, usize>) -> bool {
    let total: usize = dist.values().sum();
    let steps: usize = dist.iter().map(|(s, n)| *s as usize * n).sum();
    total > 0 && steps as f64 / total as f64 <= BA_EXPECTED_STEPS
}

// --- §10.5 timeouts ---------------------------------------------------------

/// §10.5 checks the timeouts against the measured system: BA⋆ steps
/// finish well within λ_step, the p25–p75 spread of completion times is
/// under λ_stepvar, and blocks arrive within λ_block of the proposal wait.
/// Each bound is the parameter itself, as the paper states it.
fn timeouts() -> Vec<Claim> {
    header(
        "§10.5 — timeout parameter validation",
        "steps << lambda_step; p75-p25 < lambda_stepvar; blocks < lambda_block; priorities ~1 s",
    );
    let mut cfg = SimConfig::new(80);
    cfg.payload_bytes = 128 << 10;
    cfg.seed = 29;
    let params = cfg.params;
    let (_sim, stats) = run_experiment(cfg, 4);
    let sec = |us: u64| us as f64 / 1e6;
    let limits = [
        sec(params.ba.lambda_step),
        sec(params.lambda_stepvar),
        sec(params.proposal_wait() + params.ba.lambda_block),
    ];
    say!(" round   ba step(s)    spread(s)    proposal(s)       status");
    let mut rows = Vec::new();
    for s in &stats {
        // BA⋆ without the final step spans reduction (2 steps) + binary
        // step 1 in the common case: 3 vote steps.
        let row = [
            s.ba_median / 3.0,
            s.completion.p75 - s.completion.p25,
            s.proposal_median,
        ];
        let status = if timeouts_hold(&[row], limits) {
            "within"
        } else {
            "EXCEEDED"
        };
        let ([step, spread, proposal], round) = (row, s.round);
        say!("{round:>6} {step:>12.2} {spread:>12.2} {proposal:>14.2} {status:>12}");
        rows.push(row);
    }
    say!(
        "\nparameters: lambda_step={}s lambda_stepvar={}s lambda_block={}s lambda_priority={}s",
        sec(params.ba.lambda_step),
        sec(params.lambda_stepvar),
        sec(params.ba.lambda_block),
        sec(params.lambda_priority)
    );
    let holds = timeouts_hold(&rows, limits);
    let verdict = if holds {
        "all rounds within the configured timeouts (matches §10.5)"
    } else {
        "some timeouts exceeded — would need retuning at this scale"
    };
    say!("verdict: {verdict}");
    vec![Claim::Judged("rounds_within_timeouts", holds)]
}

/// Every round's (per-step BA⋆, spread, proposal), and there is one,
/// under the matching limit.
fn timeouts_hold(rows: &[[f64; 3]], limits: [f64; 3]) -> bool {
    !rows.is_empty() && rows.iter().all(|r| (0..3).all(|i| r[i] < limits[i]))
}

// --- Ablations --------------------------------------------------------------

/// §7.4: without the common coin the adversary re-splits the honest users
/// forever; with it "the split decays" by about half per three-step loop.
/// Read as: converged by binary step 15 (five loops, 1/32 of the split
/// left) with the coin, and never within MaxSteps without it.
const COIN_CONVERGED_BY: u32 = 15;
const COIN_MAX_STEPS: u32 = 45;

fn common_coin() -> Vec<Claim> {
    header(
        "Ablation — the common coin (§7.4's split attack)",
        "without the coin the adversary re-splits honest users at every third step, forever; \
         with it the split decays by ~1/2 per loop",
    );
    say!(
        "attack: {COIN_GROUP_A}/{} honest split, {COIN_ADVERSARIES} adversary users (20% stake), \
         adversary-scheduled delivery, MaxSteps {COIN_MAX_STEPS}",
        HONEST_USERS - COIN_GROUP_A
    );
    let with = ablation::common_coin(false, COIN_MAX_STEPS);
    match with {
        Some(step) => say!("  WITH common coin:    honest users converged by binary step {step}"),
        None => say!("  WITH common coin:    no convergence within {COIN_MAX_STEPS} steps"),
    }
    let without = ablation::common_coin(true, COIN_MAX_STEPS);
    match without {
        Some(step) => say!("  WITHOUT common coin: converged at step {step} (attack failed)"),
        None => say!(
            "  WITHOUT common coin: honest users still split after {COIN_MAX_STEPS} steps — \
             the adversary sustains the attack indefinitely"
        ),
    }
    let holds = coin_holds(with, without);
    vec![Claim::Judged("coin_defeats_split", holds)]
}

fn coin_holds(with: Option<u32>, without: Option<u32>) -> bool {
    with.is_some_and(|step| step <= COIN_CONVERGED_BY) && without.is_none()
}

/// §7.3: reduction reaches two-valued agreement in its two fixed steps,
/// so BinaryBA⋆ concludes at step 2 on a many-valued start; without it
/// the start must decay through the timeout fallbacks (≥ 5 binary steps).
/// No time is claimed: both arms wait out the same three timeouts.
const REDUCTION_STEPS: u32 = 2;
const NO_REDUCTION_MIN_STEPS: u32 = 5;

fn reduction() -> Vec<Claim> {
    header(
        "Ablation — the reduction phase (§7.3)",
        "reduction reaches two-valued agreement in 2 fixed steps; without it the \
         many-valued start must decay through timeout fallbacks",
    );
    say!("worst case: every one of 20 users starts BA* with a distinct block hash");
    let (with, secs) = ablation::reduction(true);
    say!("  WITH reduction:    concluded at binary step {with} after {secs:.1} virtual seconds");
    let (without, secs) = ablation::reduction(false);
    say!("  WITHOUT reduction: concluded at binary step {without} after {secs:.1} virtual seconds");
    let extra = without.saturating_sub(with);
    say!(
        "\ncost of removing it: {extra} extra BinaryBA* steps ({extra} extra committee-vote \
         disseminations per disagreeing round), and BinaryBA*'s two-value invariant — \
         which its decide rules and the common-coin analysis assume — no longer holds: \
         an adversary can keep several non-empty values alive simultaneously."
    );
    let holds = reduction_holds(with, without);
    vec![Claim::Judged("reduction_saves_steps", holds)]
}

fn reduction_holds(with: u32, without: u32) -> bool {
    with == REDUCTION_STEPS && without >= NO_REDUCTION_MIN_STEPS
}

/// §7.4: deciders vote the next three steps so that a straggler "is able
/// to collect enough votes"; without them it starves. Read as: the
/// straggler decides with the rule and hangs at MaxSteps without it.
fn extra_votes() -> Vec<Claim> {
    header(
        "Ablation — the three post-decision votes (§7.4)",
        "deciders vote the next three steps so stragglers can still cross thresholds",
    );
    say!("scenario: 19 users decide at step 1; one straggler's inbox is delayed past λ_step");
    let with = ablation::extra_votes(false);
    match with {
        Some(step) => say!("  WITH extra votes:    straggler caught up and decided at step {step}"),
        None => say!("  WITH extra votes:    straggler hung (unexpected)"),
    }
    let without = ablation::extra_votes(true);
    match without {
        Some(step) => say!("  WITHOUT extra votes: straggler decided at step {step} (unexpected)"),
        None => say!(
            "  WITHOUT extra votes: straggler starved below every threshold and hung at MaxSteps"
        ),
    }
    let holds = extra_votes_hold(with, without);
    vec![Claim::Judged("rescue_straggler", holds)]
}

fn extra_votes_hold(with: Option<u32>, without: Option<u32>) -> bool {
    with.is_some() && without.is_none()
}

/// §6: "users discard messages about blocks that do not have the highest
/// priority seen by that user so far", so a round relays about one of the
/// τ_proposer blocks instead of all. Read as: turning the rule off at
/// least doubles the bytes gossiped.
const DISCARD_MIN_SAVING: f64 = 2.0;

fn priority_gossip() -> Vec<Claim> {
    header(
        "Ablation — priority gossip & highest-priority block discard (§6)",
        "discarding non-best blocks avoids relaying ~tau_proposer full blocks per round",
    );
    let run = |relay_all: bool| {
        let mut cfg = SimConfig::new(60);
        cfg.payload_bytes = 256 << 10;
        cfg.relay_all_blocks = relay_all;
        cfg.seed = 37;
        let (sim, stats) = run_experiment(cfg, 3);
        let mb = sim.network().total_bytes_sent() as f64 / 1e6;
        (mb, round_mean(&stats, |s| s.completion.median))
    };
    say!("workload: 60 users, 256 KB blocks, 3 rounds");
    let (mb_discard, lat_discard) = run(false);
    say!("  WITH discard rule (paper): {mb_discard:>8.1} MB gossiped, median round {lat_discard:.2} s");
    let (mb_all, lat_all) = run(true);
    say!("  WITHOUT (relay all):       {mb_all:>8.1} MB gossiped, median round {lat_all:.2} s");
    let saving = mb_all / mb_discard.max(0.001);
    say!("\nbandwidth saved by the rule: {saving:.1}x less block traffic");
    let holds = saving >= DISCARD_MIN_SAVING;
    vec![Claim::Judged("discard_saves_bandwidth", holds)]
}

// --- The epidemic model vs the engine --------------------------------------

/// Fig. 6 extrapolates to 500,000 users with a closed-form epidemic
/// model, so the model must agree with the real engine where both run:
/// within 4× either way at 100–1,000 users. Further off than that, the
/// model or the engine is misconfigured.
const EPIDEMIC_FACTOR: f64 = 4.0;
const EPIDEMIC_ROUNDS: usize = 3;

/// Mean finalization latency of the first rounds on the parallel engine,
/// `None` if fewer finalized.
fn epidemic_measure_des(n: usize) -> Option<f64> {
    let mut cfg = SimConfig::new(n);
    cfg.seed = 600 + n as u64;
    let mut sim = Simulation::new(DesConfig {
        sim: cfg,
        workers: 4,
        trace_node_budget: 0,
    });
    sim.run_rounds(EPIDEMIC_ROUNDS as u64, 300 * SECOND);
    let records = sim.combined_records();
    let first = records[0].get(..EPIDEMIC_ROUNDS)?;
    let secs = first.iter().map(|r| (r.finished - r.started) as f64 / 1e6);
    Some(secs.sum::<f64>() / EPIDEMIC_ROUNDS as f64)
}

fn epidemic_vs_des() -> Vec<Claim> {
    say!("epidemic model vs real DES: mean finalization latency of the first {EPIDEMIC_ROUNDS} rounds\n");
    say!(" users    des (s)  model (s)    delta   ratio");
    let mut ratios = Vec::new();
    for n in [100usize, 200, 500, 1_000] {
        let params = AlgorandParams::scaled(n);
        // The model at the simulator's network, not figure6's EC2 packing
        // (500 users per 1 Gbit/s NIC).
        let mut model = EpidemicConfig::figure6(n);
        model.bandwidth_bps = 20e6;
        model.mean_latency_s = 0.075;
        model.fanout = 4;
        model.block_bytes = 2_000;
        model.tau_step = params.ba.tau_step;
        let predicted = model.round_latency_s(&params);
        let measured = epidemic_measure_des(n);
        match measured {
            Some(m) => {
                let (delta, ratio) = ((m - predicted) / predicted * 100.0, m / predicted);
                say!("{n:>6}  {m:>9.2}  {predicted:>9.2}  {delta:>+6.1}%  {ratio:>6.2}");
            }
            None => say!("{n:>6}  FAILED: fewer than {EPIDEMIC_ROUNDS} rounds finalized"),
        }
        ratios.push(measured.map(|m| m / predicted));
    }
    let agrees = epidemic_agrees(&ratios);
    say!("\nmodel operating point: 20 Mbit/s uplinks, 75 ms mean latency, fan-out 4, 2 KB blocks");
    let gate = if agrees { "OK" } else { "FAILED" };
    say!("gate (each size within 4x of the model): {gate}");
    vec![Claim::Judged("model_within_4x_of_engine", agrees)]
}

/// Every size finalized its rounds, at a DES/model ratio within the band.
fn epidemic_agrees(ratios: &[Option<f64>]) -> bool {
    let band = 1.0 / EPIDEMIC_FACTOR..=EPIDEMIC_FACTOR;
    ratios.iter().all(|r| r.is_some_and(|r| band.contains(&r)))
}

#[cfg(test)]
mod tests {
    //! Each predicate on a hand-built broken row set: it must say no
    //! without a full run.

    use super::*;
    use std::path::Path;

    #[test]
    fn every_figure_has_a_pinned_file() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for (i, (name, _)) in FIGURES.iter().enumerate() {
            assert!(results.join(format!("{name}.txt")).is_file(), "{name}");
            assert!(
                FIGURES[..i].iter().all(|(other, _)| other != name),
                "{name}"
            );
        }
    }

    #[test]
    fn flat_rejects_a_doubling_and_a_missing_row() {
        assert!(flat(&[2.39, 2.39, 2.40, 2.39, 2.39], FIG8_FLAT));
        assert!(!flat(&[2.39, 2.39, 2.40, 2.39, 4.78], FIG8_FLAT));
        assert!(!flat(&[2.36, 2.47, 2.68, 2.89, 3.60], USERS_FLAT));
        assert!(!flat(&[0.28, f64::NAN, 0.28, 0.29], FIG7_FLAT));
        assert!(!flat(&[], FIG7_FLAT));
    }

    #[test]
    fn fig3_rejects_a_rising_curve_a_missing_h_and_a_star_under_the_curve() {
        let hs = [0.79, 0.80, 0.81];
        let curve = |taus: &[(f64, u64)]| -> Vec<CommitteeSizePoint> {
            let point = |&(honest_fraction, tau)| CommitteeSizePoint {
                honest_fraction,
                tau,
                threshold: 0.685,
            };
            taus.iter().map(point).collect()
        };
        assert!(fig3_curve_holds(
            &hs,
            &curve(&[(0.79, 2314), (0.80, 1985), (0.81, 1710)])
        ));
        assert!(!fig3_curve_holds(
            &hs,
            &curve(&[(0.79, 2314), (0.80, 1985), (0.81, 2400)])
        ));
        assert!(!fig3_curve_holds(
            &hs,
            &curve(&[(0.79, 2314), (0.81, 1710)])
        ));
        assert!(!fig3_curve_holds(
            &hs,
            &curve(&[(0.79, 2314), (0.80, 2100), (0.81, 1710)])
        ));
    }

    #[test]
    fn fig4_rejects_a_changed_parameter() {
        assert!(fig4_is_paper(&AlgorandParams::paper()));
        let mut p = AlgorandParams::paper();
        p.ba.tau_step = 1000.0;
        assert!(!fig4_is_paper(&p));
        let mut p = AlgorandParams::paper();
        p.lambda_stepvar = 10 * SECOND;
        assert!(!fig4_is_paper(&p));
    }

    #[test]
    fn fig6_rejects_a_regime_far_from_4x() {
        assert!(fig6_regime_holds(4.3));
        assert!(!fig6_regime_holds(2.0));
        assert!(!fig6_regime_holds(f64::NAN));
    }

    #[test]
    fn fig7_rejects_a_proposal_that_does_not_grow() {
        assert!(fig7_proposal_grows(&[8.0, 8.0, 8.0, 8.0, 8.39]));
        assert!(!fig7_proposal_grows(&[8.0, 8.0, 8.0, 8.0, 8.0]));
    }

    fn tx(committed: usize, tx_per_sec: f64) -> TxStats {
        TxStats {
            injected: 4000,
            committed,
            duplicate_commits: 0,
            tx_per_sec,
            latency: None,
        }
    }

    #[test]
    fn tput_rejects_a_falling_rate_and_a_backlog_at_the_largest_cap() {
        let rows = [
            tx(2497, 87.4),
            tx(4000, 168.1),
            tx(4000, 279.3),
            tx(4000, 279.4),
        ];
        assert!(tput_grows(&rows) && tput_meets_load(&rows));
        let falls = [
            tx(2497, 87.4),
            tx(4000, 168.1),
            tx(4000, 120.0),
            tx(4000, 279.4),
        ];
        assert!(!tput_grows(&falls));
        let flat = [
            tx(4000, 279.4),
            tx(4000, 279.3),
            tx(4000, 279.3),
            tx(4000, 279.2),
        ];
        assert!(!tput_grows(&flat));
        assert!(!tput_meets_load(&[tx(2497, 87.4), tx(3999, 168.1)]));
    }

    #[test]
    fn costs_reject_a_certificate_off_scale() {
        assert!(costs_certificate_holds(411.0));
        assert!(!costs_certificate_holds(600.0));
        assert!(!costs_certificate_holds(150.0));
    }

    #[test]
    fn ba_steps_reject_a_second_step_when_honest_and_a_long_attack() {
        assert!(ba_all_step_1(&BTreeMap::from([(1, 160)])));
        assert!(!ba_all_step_1(&BTreeMap::from([(1, 150), (2, 10)])));
        assert!(!ba_all_step_1(&BTreeMap::new()));
        assert!(ba_mean_within(&BTreeMap::from([(1, 96), (2, 32)])));
        assert!(!ba_mean_within(&BTreeMap::from([(12, 96), (14, 32)])));
    }

    #[test]
    fn timeouts_reject_one_exceeded_round_and_no_rounds() {
        let limits = [4.0, 1.0, 12.0];
        assert!(timeouts_hold(
            &[[0.09, 0.03, 2.0], [0.08, 0.01, 2.0]],
            limits
        ));
        assert!(!timeouts_hold(
            &[[0.09, 0.03, 2.0], [0.08, 1.5, 2.0]],
            limits
        ));
        assert!(!timeouts_hold(&[], limits));
    }

    #[test]
    fn ablations_reject_the_arm_that_loses() {
        assert!(coin_holds(Some(11), None));
        assert!(!coin_holds(None, None), "the coin must end the split");
        assert!(!coin_holds(Some(30), None), "converging too late");
        assert!(
            !coin_holds(Some(11), Some(20)),
            "the split must hold without the coin"
        );
        assert!(reduction_holds(2, 5));
        assert!(!reduction_holds(3, 5), "reduction must leave two values");
        assert!(
            !reduction_holds(2, 4),
            "a many-valued start must cost steps"
        );
        assert!(extra_votes_hold(Some(4), None));
        assert!(
            !extra_votes_hold(None, None),
            "the rule must rescue the straggler"
        );
        assert!(
            !extra_votes_hold(Some(4), Some(9)),
            "without it the straggler hangs"
        );
    }

    #[test]
    fn epidemic_rejects_a_ratio_outside_the_band_and_a_stalled_size() {
        assert!(epidemic_agrees(&[Some(0.66), Some(0.74)]));
        assert!(!epidemic_agrees(&[Some(0.66), Some(4.5)]));
        assert!(!epidemic_agrees(&[Some(0.66), None]));
    }
}
