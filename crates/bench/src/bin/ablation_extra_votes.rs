//! Ablation: the three extra votes after deciding (§7.4). The experiment
//! is [`algorand_bench::ablation::extra_votes`].

use algorand_bench::ablation::extra_votes;
use algorand_bench::header;

fn main() {
    header(
        "Ablation — the three post-decision votes (§7.4)",
        "deciders vote the next three steps so stragglers can still cross thresholds",
    );
    println!("scenario: 19 users decide at step 1; one straggler's inbox is delayed past λ_step");
    match extra_votes(false) {
        Some(step) => {
            println!("  WITH extra votes:    straggler caught up and decided at step {step}")
        }
        None => println!("  WITH extra votes:    straggler hung (unexpected)"),
    }
    match extra_votes(true) {
        Some(step) => {
            println!("  WITHOUT extra votes: straggler decided at step {step} (unexpected)")
        }
        None => println!(
            "  WITHOUT extra votes: straggler starved below every threshold and hung at MaxSteps"
        ),
    }
}
