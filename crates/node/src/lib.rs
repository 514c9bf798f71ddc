//! A real Algorand node process around the sans-io core.
//!
//! The paper's §10 evaluation runs Algorand as 1,000 real processes on
//! EC2 VMs; everything in this repository up to now drove
//! [`algorand_core::Node`] from the deterministic simulator instead. This
//! crate is the first production-shaped layer: the *same* sans-io node,
//! driven by real sockets and a real clock.
//!
//! ```text
//!            ┌──────────────────────────────────────────────────┐
//!            │                     runtime                      │
//!            │  ┌──────────┐   events    ┌────────────────┐     │
//!  TCP ──────┼─►│ transport├────────────►│  core::Process │     │
//!  peers ◄───┼──┤ (threads)│◄────────────┤   (sans-io)    │     │
//!            │  └──────────┘   effects   └───┬──────────┬─┘     │
//!            │   hello/gossip/status   final │      tip │       │
//!            │                        rounds ▼          ▼       │
//!            │                          ┌─────┐ ┌───────────┐   │
//!            │                          │ WAL │ │metrics.txt│   │
//!            │                          └─────┘ └───────────┘   │
//!            └──────────────────────────────────────────────────┘
//! ```
//!
//! * [`transport`] — threaded TCP speaking the existing
//!   [`algorand_core::wire`] codec inside length-delimited frames: it
//!   dials its configured peers, accepts whoever dials in, and keeps
//!   per-peer bounded send queues (backpressure drops, never blocks
//!   consensus);
//! * [`wal`] — a CRC-guarded write-ahead log of the final rounds'
//!   `(block, certificate)` pairs, each written once when it becomes
//!   final, with truncated-tail recovery, so `kill -9` + restart replays
//!   from disk and keeps no round a reorg could still replace;
//! * [`config`] — the node's config file (keys, peers, genesis, WAL dir)
//!   and the deterministic key/workload derivations shared with the
//!   simulator so a localhost deployment finalizes the *same chain
//!   digest* as `sim::Simulation` under the same seed;
//! * [`runtime`] — the single-threaded event loop that carries out what
//!   [`algorand_core::Process`] decides (relay forwarding, point-to-point
//!   catch-up, blocksync, STATUS, which rounds to log) over these
//!   sockets, this WAL and the wall clock, and the `algorand-node`
//!   binary's whole substance;
//! * [`telemetry`] — the reading side of a deployment's files: the
//!   cluster-health merger behind `trace health`, which reads the
//!   `metrics.txt` every node rewrites at each STATUS tick, and the
//!   discovery and exit-file merge behind `trace collect`;
//! * [`crash`] — a panic hook that dumps the trace buffer and last
//!   WAL round to `<wal_dir>/crash.jsonl` on the way down.
//!
//! The split keeps the property the CADP formal-model line of work
//! emphasizes: the consensus core never learns whether its driver is a
//! simulator or a socket.

#![forbid(unsafe_code)]

pub mod config;
pub mod crash;
pub mod frame;
pub mod runtime;
pub mod telemetry;
pub mod transport;
pub mod wal;

pub use config::NodeConfig;
pub use runtime::{RunSummary, Runtime};
pub use wal::{Wal, WalReplay};
