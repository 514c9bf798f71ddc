//! Integration tests for the schedule-space fuzzer (`sim::fuzz`).
//!
//! Unit tests inside the module cover the generator grammar and the
//! reproducer codec; this suite exercises the two end-to-end promises
//! the CI gate leans on:
//!
//! 1. a generated (seed, schedule) pair replays byte-identically —
//!    verdict, chain digest and exported trace — the whole point of
//!    recording only the pair in a reproducer;
//! 2. the ddmin shrinker only ever walks through *well-formed* cases
//!    that keep the original verdict class, so the minimized reproducer
//!    it emits is both valid and faithful (satellite: shrinker property
//!    test).
//!
//! The shrink test replays dozens of full simulations, so it is
//! release-only like the corpus replay suite; the CI fuzz gate runs it
//! with `--include-ignored`.

use algorand_sim::fuzz::{
    generate, judge, parse_case, run_case, serialize_case, shrink, FuzzCase, ShrinkOutcome,
};
use algorand_sim::{InjectedBug, Simulation, VerdictClass};

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: replays full fuzz cases")]
fn generated_case_replays_deterministically() {
    let case = generate(11, None);
    let run = || {
        let mut sim = Simulation::new(case.config());
        let verdict = judge(&mut sim, &case);
        (verdict, sim.chain_digest(), sim.export_trace("replay"))
    };
    let (first, digest, trace) = run();
    let (second, digest_again, trace_again) = run();
    assert_eq!(
        first.class,
        VerdictClass::Pass,
        "an honest-build case must pass"
    );
    assert_eq!(first.class, second.class);
    assert_eq!(first.final_tip, second.final_tip);
    assert_eq!(first.sim_end, second.sim_end);
    assert_eq!(first.recovered_after, second.recovered_after);
    assert_eq!(digest, digest_again, "chain digest diverged on replay");
    assert!(trace == trace_again, "exported trace diverged on replay");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: replays full fuzz cases")]
fn shrinker_steps_stay_well_formed_and_keep_the_verdict() {
    // Find a failing case by planting the catch-up defect and scanning
    // generator draws, exactly as the campaign's bug leg does.
    let mut failing = None;
    for case_seed in 0..40 {
        let case = generate(case_seed, Some(InjectedBug::IgnoreCatchupResponses));
        let verdict = run_case(&case);
        if verdict.class != VerdictClass::Pass {
            failing = Some((case, verdict.class));
            break;
        }
    }
    let (case, class) = failing.expect("the planted defect must be reachable within 40 draws");
    let outcome = shrink_faithfully(&case, class);

    // Pinned output: the first failing draw loses its partition and
    // keeps one crash/restart pair.
    assert_eq!(case.case_seed, 6);
    assert_eq!((outcome.attempts, outcome.accepted.len()), (7, 4));
    assert_eq!(
        event_lines(&outcome.minimized, class),
        [
            "event at=9442250 crash node=5",
            "event at=10618152 restart node=5"
        ]
    );

    // A second input that exercises the adversary move: draw 14 starts
    // with two malicious users and ends with none.
    let case = generate(14, Some(InjectedBug::IgnoreCatchupResponses));
    let class = run_case(&case).class;
    assert_ne!(class, VerdictClass::Pass, "draw 14 must fail");
    let outcome = shrink_faithfully(&case, class);
    assert_eq!((case.n_malicious, outcome.minimized.n_malicious), (2, 0));
    assert_eq!((outcome.attempts, outcome.accepted.len()), (9, 4));
    assert_eq!(
        event_lines(&outcome.minimized, class),
        ["event at=9773984 partition", "event at=12019530 heal"]
    );
}

/// Shrinks `case` and checks the walk's promises: the verdict class
/// survives, the attempt budget holds, and every accepted step is
/// well formed, no larger than the last and replayable as written.
fn shrink_faithfully(case: &FuzzCase, class: VerdictClass) -> ShrinkOutcome {
    let outcome = shrink(case, 60);
    assert_eq!(
        outcome.verdict, class,
        "shrinking changed the verdict class"
    );
    assert!(
        outcome.attempts <= 61,
        "shrinker exceeded its attempt budget"
    );

    // Property walk: every accepted intermediate (ending with the
    // minimized case) still validates against the population, still
    // reproduces the original verdict class, and never grew. An empty
    // chain is legal only when the case was already minimal.
    if let Some(last) = outcome.accepted.last() {
        assert_eq!(
            last.schedule.events().len(),
            outcome.minimized.schedule.events().len(),
            "accepted chain must end at the minimized case"
        );
    } else {
        assert_eq!(
            outcome.minimized.schedule.events().len(),
            case.schedule.events().len(),
            "no accepted steps, yet the case shrank"
        );
    }
    let mut prev_len = case.schedule.events().len();
    for (i, step) in outcome.accepted.iter().enumerate() {
        step.schedule
            .validate(step.n_users)
            .unwrap_or_else(|e| panic!("accepted step {i} is malformed: {e}"));
        let len = step.schedule.events().len();
        assert!(len <= prev_len, "accepted step {i} grew the schedule");
        prev_len = len;
        assert_eq!(
            run_case(step).class,
            class,
            "accepted step {i} does not reproduce the verdict"
        );
    }

    // The minimized case survives a serialize/parse round trip and the
    // parsed copy still fails the same way — i.e. the emitted reproducer
    // is replayable as written.
    let text = serialize_case(&outcome.minimized, class);
    let (parsed, recorded) = parse_case(&text).expect("minimized reproducer parses");
    assert_eq!(recorded, class);
    assert_eq!(serialize_case(&parsed, recorded), text, "not canonical");
    assert_eq!(run_case(&parsed).class, class, "parsed reproducer drifted");
    outcome
}

/// The reproducer's `event` lines, cut after the action's name.
fn event_lines(case: &FuzzCase, class: VerdictClass) -> Vec<String> {
    serialize_case(case, class)
        .lines()
        .filter(|l| l.starts_with("event "))
        .map(|l| l.split(" groups=").next().unwrap_or(l).to_string())
        .collect()
}
