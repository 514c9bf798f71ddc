//! Ablation: the reduction phase (§7.3, Algorithm 7). The experiment is
//! [`algorand_bench::ablation::reduction`].

use algorand_bench::ablation::reduction;
use algorand_bench::header;

fn main() {
    header(
        "Ablation — the reduction phase (§7.3)",
        "reduction reaches two-valued agreement in 2 fixed steps; without it the \
         many-valued start must decay through timeout fallbacks",
    );
    println!("worst case: every one of 20 users starts BA* with a distinct block hash");
    let (step, secs) = reduction(true);
    println!(
        "  WITH reduction:    concluded at binary step {step} after {secs:.1} virtual seconds"
    );
    let (step_no, secs_no) = reduction(false);
    println!(
        "  WITHOUT reduction: concluded at binary step {step_no} after {secs_no:.1} virtual seconds"
    );
    println!();
    println!(
        "cost of removing it: {} extra BinaryBA* steps ({} extra committee-vote \
         disseminations per disagreeing round), and BinaryBA*'s two-value invariant — \
         which its decide rules and the common-coin analysis assume — no longer holds: \
         an adversary can keep several non-empty values alive simultaneously.",
        step_no.saturating_sub(step),
        step_no.saturating_sub(step)
    );
}
