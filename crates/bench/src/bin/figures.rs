//! The paper's figures and tables, from one table
//! ([`algorand_bench::figures::FIGURES`]).
//!
//! ```text
//! figures NAME     print one figure, byte for byte as results/NAME.txt
//! figures check    run every figure in this one process, diff each
//!                  against results/NAME.txt and judge its paper claims
//! ```
//!
//! `check` reads `results/` relative to the working directory (run it
//! from the repository root) and prints one verdict line per figure:
//! its wall time, whether its bytes moved (and the first line that did),
//! and every claim that broke or that the figure's size cannot show.
//!
//! Exit code: 0 on success, 1 if any byte moved or any claim broke, 2 on
//! a usage error.

use algorand_bench::figures::{run, Claim, FIGURES};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Ok(false) is a failure (exit 1); Err names a usage error (exit 2).
    let outcome = match args.as_slice() {
        [cmd] if cmd == "check" => Ok(check()),
        [name] => match FIGURES.iter().find(|(n, _)| n == name) {
            Some((_, figure)) => {
                print!("{}", run(*figure).0);
                Ok(true)
            }
            None => Err(format!("no figure named {name:?}")),
        },
        _ => Err(format!("unknown command line {args:?}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "figures: {e}\nusage: figures NAME | check\nnames: {}",
                names.join(" ")
            );
            ExitCode::from(2)
        }
    }
}

fn check() -> bool {
    let started = Instant::now();
    let (mut ok, mut held, mut unclaimed) = (true, 0, 0);
    for (name, figure) in FIGURES {
        let t = Instant::now();
        let (text, claims) = run(*figure);
        let path = format!("results/{name}.txt");
        let bytes = match std::fs::read_to_string(&path) {
            Ok(pinned) if pinned == text => "bytes same".to_string(),
            Ok(pinned) => {
                let same = pinned.lines().zip(text.lines()).take_while(|(a, b)| a == b);
                format!("BYTES MOVED from line {}", same.count() + 1)
            }
            Err(e) => format!("BYTES UNREAD: {path}: {e}"),
        };
        ok &= bytes == "bytes same";
        let mut verdict = format!("{name:<26} {:>6.1} s  {bytes}", t.elapsed().as_secs_f64());
        for claim in &claims {
            match claim {
                Claim::Judged(_, true) => held += 1,
                Claim::Judged(name, false) => {
                    ok = false;
                    verdict += &format!("\n    claim BROKEN: {name}");
                }
                Claim::Unclaimed(why) => {
                    unclaimed += 1;
                    verdict += &format!("\n    unclaimed: {why}");
                }
            }
        }
        println!("{verdict}");
    }
    println!(
        "figures check: {} — {} figures, {held} claims hold, {unclaimed} rows unclaimed, {:.0} s",
        if ok { "OK" } else { "FAILED" },
        FIGURES.len(),
        started.elapsed().as_secs_f64()
    );
    ok
}
