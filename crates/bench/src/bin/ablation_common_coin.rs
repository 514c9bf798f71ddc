//! Ablation: the common coin (§7.4, Algorithm 9) under the split attack.
//! The experiment is [`algorand_bench::ablation::common_coin`].

use algorand_bench::ablation::{common_coin, COIN_ADVERSARIES, COIN_GROUP_A, HONEST_USERS};
use algorand_bench::header;

fn main() {
    header(
        "Ablation — the common coin (§7.4's split attack)",
        "without the coin the adversary re-splits honest users at every third step, forever; \
         with it the split decays by ~1/2 per loop",
    );
    let max_steps = 45;
    println!(
        "attack: {COIN_GROUP_A}/{} honest split, {COIN_ADVERSARIES} adversary users (20% stake), \
         adversary-scheduled delivery, MaxSteps {max_steps}",
        HONEST_USERS - COIN_GROUP_A
    );
    match common_coin(false, max_steps) {
        Some(step) => {
            println!("  WITH common coin:    honest users converged by binary step {step}")
        }
        None => println!("  WITH common coin:    no convergence within {max_steps} steps"),
    }
    match common_coin(true, max_steps) {
        Some(step) => println!("  WITHOUT common coin: converged at step {step} (attack failed)"),
        None => println!(
            "  WITHOUT common coin: honest users still split after {max_steps} steps — \
             the adversary sustains the attack indefinitely"
        ),
    }
}
