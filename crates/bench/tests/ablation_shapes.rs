//! The shapes `results/ablation_{common_coin,reduction,extra_votes}.txt`
//! print, pinned: each mechanism's ablation must keep showing what the
//! paper says the mechanism is for.

use algorand_bench::ablation::{common_coin, extra_votes, reduction};

#[test]
fn common_coin_defeats_the_split_attack() {
    let with = common_coin(false, 45).expect("the coin lets the split decay");
    assert!(with <= 15, "converged only at binary step {with}");
    assert_eq!(common_coin(true, 45), None, "no coin: split sustained");
}

#[test]
fn reduction_buys_a_two_valued_start() {
    let (with, _) = reduction(true);
    let (without, _) = reduction(false);
    assert_eq!(with, 2);
    assert!(without >= 5, "many-valued start concluded at {without}");
}

#[test]
fn extra_votes_rescue_the_straggler() {
    assert!(extra_votes(false).is_some(), "straggler catches up");
    assert_eq!(extra_votes(true), None, "straggler hangs at MaxSteps");
}
