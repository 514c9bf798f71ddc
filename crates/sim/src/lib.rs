//! Discrete-event simulation of an Algorand deployment.
//!
//! The paper evaluates Algorand on 1,000 EC2 VMs (§10); this crate is that
//! testbed's stand-in. It drives [`algorand_core::Node`] instances over a
//! gossip topology in virtual time, modelling the two resources that
//! determine the paper's results: per-process uplink bandwidth (20 Mbit/s,
//! serializing transmissions) and inter-city propagation latency with
//! jitter. Scripted fault injection (partitions, loss, crashes, clock
//! skew), the one oracle that judges a faulted run, and the §10.4
//! equivocation adversary are built in; for 500,000-user scales an
//! analytic epidemic model mirrors the paper's own shortcuts.

#![forbid(unsafe_code)]

pub mod adversary;
pub mod des;
pub mod epidemic;
pub mod event;
pub mod faults;
pub mod fuzz;
pub mod harness;
pub mod latency;
pub mod metrics;
pub mod network;

pub use adversary::{AdversaryKind, AdversaryShared, Outgoing};
pub use algorand_core::GENESIS_SEED;
pub use des::{DesConfig, ParallelSim, Simulation};
pub use epidemic::EpidemicConfig;
pub use event::Micros;
pub use faults::{FaultAction, FaultEvent, FaultSchedule, ScheduleError};
pub use fuzz::{
    generate, parse_case, run_campaign, run_case, serialize_case, shrink, CampaignConfig,
    CampaignResult, FuzzCase, ShrinkOutcome, Verdict, VerdictClass,
};
pub use harness::{FaultReport, InjectedBug, PipelineReport, SimConfig, TxRecord, TxStats};
pub use metrics::{round_stats, Percentiles, RoundStats};
pub use network::{Network, PartitionSpec};

// The shared observability layer (tracing + metrics registry), re-exported
// so harnesses driving the simulator need not depend on the crate directly.
pub use algorand_obs as obs;
