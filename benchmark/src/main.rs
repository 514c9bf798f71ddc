//! One benchmark for the whole system: four seeded workloads, the
//! end-to-end metrics of `BENCHMARK.json`, and a per-layer ledger, all
//! measured from outside the product crates. See `README.md` beside
//! `Cargo.toml` for what every name means.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one pass over one workload
//! benchmark all     [--seed N] [--seconds S]                every workload, one process each
//! benchmark trace W [--seed N] [--seconds S]                same as --workload W --trace 1
//! benchmark repeat  [--seed N] [--seconds S]                the whole set twice, compared
//! benchmark node <conf>                                     (internal) one localnet node
//! ```

use benchmark::contract::{self, Contract, Metric};
use benchmark::json::Json;
use benchmark::workloads::{self, Line, Report};
use benchmark::{localnet, out_dir, stats};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// The seed used when none is given. Seed 23 is held back: nothing about
/// the workloads was sized or measured on it, so a claim can be checked
/// on it.
const DEFAULT_SEED: u64 = 19;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <{}> --seed N --seconds S --trace 0|1 [--smoke]\n       \
         benchmark all|repeat [--seed N] [--seconds S]\n       \
         benchmark trace <workload> [--seed N] [--seconds S]",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse_flags(flags: &[String], contract: &Contract) -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: contract.run_seconds,
        trace: false,
        smoke: false,
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = Some(it.next()?.clone()),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = it.next()?.parse().ok().filter(|s| *s >= 1)?,
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let contract = contract::load();
    match argv.first().map(String::as_str) {
        Some("node") => match argv.as_slice() {
            [_, conf] => localnet::node_main(Path::new(conf)),
            _ => usage(),
        },
        Some("all") => match parse_flags(&argv[1..], &contract) {
            Some(args) if args.workload.is_none() => run_all(&contract, &args),
            _ => usage(),
        },
        Some("repeat") => match parse_flags(&argv[1..], &contract) {
            Some(args) if args.workload.is_none() => repeat(&contract, &args),
            _ => usage(),
        },
        Some("trace") => match (
            argv.get(1),
            parse_flags(argv.get(2..).unwrap_or(&[]), &contract),
        ) {
            (Some(w), Some(mut args)) if args.workload.is_none() => {
                args.workload = Some(w.clone());
                args.trace = true;
                one_pass(&contract, &args)
            }
            _ => usage(),
        },
        _ => match parse_flags(&argv, &contract) {
            Some(args) if args.workload.is_some() => one_pass(&contract, &args),
            _ => usage(),
        },
    }
}

/// Exit code 0 for a pass whose oracle held, 1 otherwise.
fn verdict(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// --- One pass over one workload ------------------------------------------

fn one_pass(contract: &Contract, args: &Args) -> ExitCode {
    let name = args.workload.as_deref().expect("checked by the caller");
    let Some(plan) = workloads::plan(name, args.seconds, args.smoke) else {
        eprintln!("benchmark: unknown workload {name:?}");
        return usage();
    };
    println!(
        "workload {}  seed {}  {} pass  reps {}",
        plan.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        plan.reps
    );
    println!("  shape: {}", plan.describe);
    println!("  injected delay: {}", plan.injected_delay);

    let (report, listed) = if args.trace {
        let traced = workloads::traced(&plan, args.seed);
        let path = out_dir().join(format!("trace_{}.jsonl", plan.name));
        match traced.spans.write(&path) {
            Ok(()) => println!(
                "  spans: {} written to {}",
                traced.spans.count(),
                path.display()
            ),
            Err(e) => {
                eprintln!("benchmark: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
        (traced.report, &contract.per_layer)
    } else {
        (
            workloads::end_to_end(&plan, args.seed),
            &contract.end_to_end,
        )
    };
    print_report(&report, listed);
    let correct = report.problems.is_empty() && report.failed == 0;
    println!(
        "  ops_attempted {}  ops_failed {}  oracle {}",
        report.attempted,
        report.failed,
        if correct { "pass" } else { "FAIL" }
    );
    for p in &report.problems {
        println!("  oracle: {p}");
    }
    println!("{}", result_line(&report, listed, correct).render());
    verdict(correct)
}

fn print_report(report: &Report, listed: &[Metric]) {
    let notes: BTreeMap<&str, &Line> = report.lines.iter().map(|l| (l.name, l)).collect();
    println!(
        "  {:<30} {:>16} {:<6} {:<8} note",
        "metric", "value", "unit", "clock"
    );
    let row = |name: &str, value: f64, unit: &str, clock: &str, note: &str| {
        println!("  {name:<30} {value:>16.6} {unit:<6} {clock:<8} {note}");
    };
    for m in listed {
        let value = value_of(report, &m.name);
        match notes.get(m.name.as_str()) {
            Some(l) => row(&m.name, value, &m.unit, l.clock, &l.note),
            None => row(&m.name, value, &m.unit, "", ""),
        }
    }
    for l in &report.lines {
        if !listed.iter().any(|m| m.name == l.name) {
            row(l.name, l.value, l.unit, l.clock, &l.note);
        }
    }
}

fn value_of(report: &Report, name: &str) -> f64 {
    *report
        .values
        .get(name)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {name}, which this pass did not measure"))
}

/// The one JSON object the driver reads from the last line of stdout.
fn result_line(report: &Report, listed: &[Metric], correct: bool) -> Json {
    let metrics = listed.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(value_of(report, &m.name))),
                ("unit", Json::Str(m.unit.clone())),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

// --- The whole set, one process per workload -----------------------------

/// End-to-end values of one workload as parsed back from a child's
/// result line, plus whether the child called the run correct.
struct ChildResult {
    values: BTreeMap<String, f64>,
    correct: bool,
    failed: u64,
}

/// Runs one workload in a process of its own, so its peak RSS is its own
/// and not a high-water mark inherited from the workload before it.
fn run_child(workload: &str, args: &Args, echo: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output"))?;
    if echo {
        for l in &lines {
            println!("{l}");
        }
        println!();
    }
    let doc = Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let values = doc
        .get("metrics")
        .and_then(Json::members)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        values,
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
        failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
    })
}

fn run_set(
    contract: &Contract,
    args: &Args,
    echo: bool,
) -> Result<Vec<(String, ChildResult)>, String> {
    contract
        .workloads
        .iter()
        .map(|(name, _)| Ok((name.clone(), run_child(name, args, echo)?)))
        .collect()
}

fn run_all(contract: &Contract, args: &Args) -> ExitCode {
    let set = match run_set(contract, args, true) {
        Ok(set) => set,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "summary (seed {}, {} s per workload)",
        args.seed, args.seconds
    );
    print!("  {:<16}", "metric");
    for (name, _) in &set {
        print!(" {name:>14}");
    }
    println!("  unit");
    for m in &contract.end_to_end {
        print!("  {:<16}", m.name);
        for (_, r) in &set {
            print!(
                " {:>14.5}",
                r.values.get(&m.name).copied().unwrap_or(f64::NAN)
            );
        }
        println!("  {}", m.unit);
    }
    let ok = set.iter().all(|(_, r)| r.correct && r.failed == 0);
    println!(
        "  oracle: {}",
        if ok { "pass on every workload" } else { "FAIL" }
    );
    verdict(ok)
}

/// Runs the whole set twice and holds every end-to-end metric's relative
/// difference to its bound; a metric on a virtual clock must not differ
/// at all. The two sets are of the same code, so any difference is the
/// host's noise — which is what the bounds have to clear.
fn repeat(contract: &Contract, args: &Args) -> ExitCode {
    let mut sets = Vec::new();
    for i in 1..=2 {
        println!("set {i} of 2");
        match run_set(contract, args, true) {
            Ok(set) => sets.push(set),
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let (first, second) = (&sets[0], &sets[1]);
    let mut ok = first
        .iter()
        .chain(second)
        .all(|(_, r)| r.correct && r.failed == 0);
    println!(
        "  {:<10} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((name, a), (_, b)) in first.iter().zip(second) {
        // On a simulator workload these run on the virtual clock and are
        // exact for a fixed seed; `localnet` runs on the wall clock.
        let exact = |m: &str| {
            name != "localnet"
                && ["round_s", "tx_per_s", "finalize_p50_s", "finalize_p99_s"].contains(&m)
        };
        for m in &contract.end_to_end {
            let (x, y) = (a.values[&m.name], b.values[&m.name]);
            let diff = stats::rel_diff(x, y);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let verdict = if exact(&m.name) && x.to_bits() != y.to_bits() {
                "FAIL (virtual clock must repeat exactly)"
            } else if diff > bound {
                "FAIL (over bound)"
            } else {
                "ok"
            };
            ok &= verdict == "ok";
            println!(
                "  {name:<10} {:<16} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.1}%  {verdict}",
                m.name,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    println!(
        "repeat: {}",
        if ok {
            "both sets agree within every bound"
        } else {
            "FAIL"
        }
    );
    verdict(ok)
}
