//! The pieces of the system benchmark; `main.rs` is its command line.
//! See `README.md` beside `Cargo.toml` for what every metric means.

pub mod contract;
pub mod json;
pub mod layers;
pub mod localnet;
pub mod observe;
pub mod probes;
pub mod procfs;
pub mod simrun;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;

/// Where a run may write: `out/` beside this package's `Cargo.toml`,
/// inside the checkout and ignored by git. `cargo run` and `cargo test`
/// name the package directory at run time; the compiled-in path serves a
/// binary started by hand, or re-executed as a `localnet` node.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out")
}
