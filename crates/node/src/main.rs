//! `algorand-node` — run one Algorand node process from a config file.
//!
//! ```text
//! algorand-node path/to/node.conf
//! ```
//!
//! The process joins the peers named in the config, participates in
//! consensus (replaying its WAL first if one exists), and exits 0 once
//! the configured `target_round` is finalized — writing `digest`,
//! `metrics.txt` and optionally `trace.jsonl` into the WAL directory.
//! With `target_round = 0` it runs until `deadline_secs`. While it runs,
//! it rewrites `metrics.txt` at every STATUS tick (500 ms), so the file
//! is never more than one tick old.

use algorand_node::{NodeConfig, Runtime};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(path), None) = (args.next(), args.next()) else {
        eprintln!("usage: algorand-node <config-file>");
        return ExitCode::from(2);
    };
    let cfg = match NodeConfig::load(std::path::Path::new(&path)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("algorand-node: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let index = cfg.index;
    let mut runtime = match Runtime::new(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("algorand-node: startup failed: {e}");
            return ExitCode::from(1);
        }
    };
    // From here on a panic dumps the trace buffer to crash.jsonl;
    // an orderly exit (either arm of the match) disarms first.
    algorand_node::crash::arm(runtime.crash_context());
    let outcome = runtime.run();
    algorand_node::crash::disarm();
    match outcome {
        Ok(summary) => {
            println!(
                "[node {index}] round {}/{} digest={}",
                summary.reached_round,
                summary.target_round,
                summary.digest.as_deref().unwrap_or("-"),
            );
            if summary.success() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("algorand-node: {e}");
            ExitCode::from(1)
        }
    }
}
