//! Scripted fault injection: the chaos harness's schedule language.
//!
//! A [`FaultSchedule`] is a time-ordered list of [`FaultEvent`]s the
//! simulation applies at exact virtual instants, interleaved
//! deterministically with message deliveries and timer wakes. It is the
//! simulator's only way to inject a fault. Because every fault is data
//! (no closures) and all randomness downstream of a fault flows from the
//! simulation's seeded RNGs, a `(seed, schedule)` pair replays to a
//! byte-identical run — the property the CI determinism check asserts.
//! `sim::fuzz` judges every faulted run.
//!
//! The vocabulary covers the paper's robustness claims (§8.2, §10.4–10.6):
//! network partitions (symmetric and asymmetric) with healing, per-send
//! packet loss, propagation-delay spikes, node crashes with later
//! restarts (durable state only survives; the node rejoins via the §8.3
//! catch-up protocol), and clock skew for the loosely-synchronized-clock
//! assumptions of §8.2.

use crate::event::Micros;
use crate::network::PartitionSpec;

/// One scripted fault, applied at an exact virtual instant.
#[derive(Clone, Debug)]
pub enum FaultAction {
    /// Install a partition (replacing any active one).
    Partition(PartitionSpec),
    /// Remove the active partition.
    Heal,
    /// Set the per-send packet-loss probability (0 restores lossless).
    Loss(f64),
    /// Distort propagation latency to `latency * factor + extra`.
    DelaySpike {
        /// Multiplicative latency factor.
        factor: f64,
        /// Constant additional latency in microseconds.
        extra: Micros,
    },
    /// Restore normal propagation latency.
    DelayClear,
    /// Crash a node: volatile state is lost, durable state (the chain
    /// with its certificates) is snapshotted through the wire codec.
    Crash(usize),
    /// Restart a crashed node from its snapshot; it rejoins via catch-up.
    Restart(usize),
    /// Skew a node's local clock by `skew` microseconds (applied to
    /// every timestamp the node observes from then on).
    ClockSkew {
        /// The skewed node.
        node: usize,
        /// Signed offset added to the node's local clock: positive runs
        /// fast, negative runs slow — both directions of §8.2's
        /// loosely-synchronized-clock assumption.
        skew: i64,
    },
}

impl FaultAction {
    /// Whether this action *introduces* a disturbance (as opposed to
    /// clearing one): partitions, nonzero loss, delay spikes, crashes,
    /// and nonzero clock skews are onsets; heals, zero-loss, delay
    /// clears, restarts, and zero skews end one.
    pub fn is_onset(&self) -> bool {
        match self {
            FaultAction::Partition(_) | FaultAction::DelaySpike { .. } | FaultAction::Crash(_) => {
                true
            }
            FaultAction::Loss(p) => *p > 0.0,
            FaultAction::ClockSkew { skew, .. } => *skew != 0,
            FaultAction::Heal | FaultAction::DelayClear | FaultAction::Restart(_) => false,
        }
    }
}

/// A [`FaultAction`] bound to its firing time.
#[derive(Clone, Debug)]
pub struct FaultEvent {
    /// Virtual time at which the fault applies.
    pub at: Micros,
    /// What happens.
    pub action: FaultAction,
}

/// A replayable script of timed faults.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Appends an action at `at` (builder style).
    pub fn at(mut self, at: Micros, action: FaultAction) -> FaultSchedule {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// A symmetric bipartition of `n` nodes at `split`, healed later.
    pub fn bipartition(self, n: usize, split: usize, from: Micros, until: Micros) -> FaultSchedule {
        self.at(
            from,
            FaultAction::Partition(PartitionSpec::bipartition(n, split)),
        )
        .at(until, FaultAction::Heal)
    }

    /// An asymmetric partition (second group cannot reach the first),
    /// healed later.
    pub fn asymmetric_partition(
        self,
        n: usize,
        split: usize,
        from: Micros,
        until: Micros,
    ) -> FaultSchedule {
        self.at(
            from,
            FaultAction::Partition(PartitionSpec::asymmetric(n, split)),
        )
        .at(until, FaultAction::Heal)
    }

    /// A packet-loss window at rate `prob`.
    pub fn loss_window(self, prob: f64, from: Micros, until: Micros) -> FaultSchedule {
        self.at(from, FaultAction::Loss(prob))
            .at(until, FaultAction::Loss(0.0))
    }

    /// Crash `node` at `from`, restart it at `until`.
    pub fn crash_restart(self, node: usize, from: Micros, until: Micros) -> FaultSchedule {
        self.at(from, FaultAction::Crash(node))
            .at(until, FaultAction::Restart(node))
    }

    /// A schedule from an explicit event list (the shrinker and the
    /// reproducer parser build schedules this way).
    pub fn from_events(events: Vec<FaultEvent>) -> FaultSchedule {
        FaultSchedule { events }
    }

    /// The scheduled events in insertion order (not yet time-sorted).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events in schedule order (stable by time, then insertion).
    pub fn into_events(self) -> Vec<FaultEvent> {
        let mut events: Vec<(usize, FaultEvent)> = self.events.into_iter().enumerate().collect();
        events.sort_by_key(|&(i, ref e)| (e.at, i));
        events.into_iter().map(|(_, e)| e).collect()
    }

    /// The instant the last scheduled event fires — heals and restarts
    /// included. After this point the schedule injects nothing more, so
    /// recovery-time bounds start here. (This used to be misnamed
    /// `last_fault_clear`; see [`FaultSchedule::last_fault_onset`] for
    /// the last time a *disturbance* is introduced.)
    pub fn last_event_at(&self) -> Micros {
        self.events.iter().map(|e| e.at).max().unwrap_or(0)
    }

    /// The instant the last fault *onset* fires — the last partition,
    /// loss window, delay spike, crash, or nonzero skew. Heals,
    /// restarts, and other clearing actions scheduled later do not
    /// count: they end disturbances rather than introduce them.
    pub fn last_fault_onset(&self) -> Micros {
        self.events
            .iter()
            .filter(|e| e.action.is_onset())
            .map(|e| e.at)
            .max()
            .unwrap_or(0)
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks the schedule is well formed for a network of `n_users`
    /// nodes. The fuzz generator only emits schedules that pass this,
    /// and every shrink step must keep passing it.
    ///
    /// Rejected shapes:
    /// - crash / restart / skew of a node index `>= n_users`,
    /// - restarting a node that is not crashed (restart-before-crash),
    /// - crashing a node that is already down (double-crash),
    /// - a partition whose group map does not cover exactly `n_users`
    ///   nodes, or whose blocked pairs name groups no node belongs to,
    /// - a loss probability outside `[0, 1]` (or NaN),
    /// - a delay spike with a negative or non-finite factor.
    ///
    /// # Errors
    ///
    /// The first violation found, in schedule order.
    pub fn validate(&self, n_users: usize) -> Result<(), ScheduleError> {
        let mut crashed = vec![false; n_users];
        for e in self.clone().into_events() {
            match &e.action {
                FaultAction::Partition(spec) => {
                    if spec.group_of.len() != n_users {
                        return Err(ScheduleError::PartitionSize {
                            at: e.at,
                            got: spec.group_of.len(),
                            expected: n_users,
                        });
                    }
                    for &(a, b) in &spec.blocked {
                        if !spec.group_of.contains(&a) || !spec.group_of.contains(&b) {
                            return Err(ScheduleError::PartitionUnknownGroup {
                                at: e.at,
                                pair: (a, b),
                            });
                        }
                    }
                }
                FaultAction::Loss(p) => {
                    if !p.is_finite() || !(0.0..=1.0).contains(p) {
                        return Err(ScheduleError::LossOutOfRange { at: e.at, prob: *p });
                    }
                }
                FaultAction::DelaySpike { factor, .. } => {
                    if !factor.is_finite() || *factor < 0.0 {
                        return Err(ScheduleError::BadDelayFactor {
                            at: e.at,
                            factor: *factor,
                        });
                    }
                }
                FaultAction::Crash(i) => {
                    if *i >= n_users {
                        return Err(ScheduleError::NodeOutOfRange { at: e.at, node: *i });
                    }
                    if crashed[*i] {
                        return Err(ScheduleError::DoubleCrash { at: e.at, node: *i });
                    }
                    crashed[*i] = true;
                }
                FaultAction::Restart(i) => {
                    if *i >= n_users {
                        return Err(ScheduleError::NodeOutOfRange { at: e.at, node: *i });
                    }
                    if !crashed[*i] {
                        return Err(ScheduleError::RestartBeforeCrash { at: e.at, node: *i });
                    }
                    crashed[*i] = false;
                }
                FaultAction::ClockSkew { node, .. } => {
                    if *node >= n_users {
                        return Err(ScheduleError::NodeOutOfRange {
                            at: e.at,
                            node: *node,
                        });
                    }
                }
                FaultAction::Heal | FaultAction::DelayClear => {}
            }
        }
        Ok(())
    }
}

/// Why a schedule failed [`FaultSchedule::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleError {
    /// A crash/restart/skew names a node index outside `0..n_users`.
    NodeOutOfRange {
        /// When the offending event fires.
        at: Micros,
        /// The out-of-range node index.
        node: usize,
    },
    /// A node is crashed while already down.
    DoubleCrash {
        /// When the offending event fires.
        at: Micros,
        /// The doubly-crashed node.
        node: usize,
    },
    /// A node is restarted without a preceding crash.
    RestartBeforeCrash {
        /// When the offending event fires.
        at: Micros,
        /// The node restarted while live.
        node: usize,
    },
    /// A partition's group map does not cover the node population.
    PartitionSize {
        /// When the offending event fires.
        at: Micros,
        /// Nodes the partition's group map covers.
        got: usize,
        /// Nodes in the network.
        expected: usize,
    },
    /// A partition blocks a group no node belongs to.
    PartitionUnknownGroup {
        /// When the offending event fires.
        at: Micros,
        /// The blocked pair naming an unknown group.
        pair: (u8, u8),
    },
    /// A loss probability outside `[0, 1]`.
    LossOutOfRange {
        /// When the offending event fires.
        at: Micros,
        /// The offending probability.
        prob: f64,
    },
    /// A delay spike with a negative or non-finite factor.
    BadDelayFactor {
        /// When the offending event fires.
        at: Micros,
        /// The offending factor.
        factor: f64,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NodeOutOfRange { at, node } => {
                write!(f, "t={at}: node {node} out of range")
            }
            ScheduleError::DoubleCrash { at, node } => {
                write!(f, "t={at}: node {node} crashed while already down")
            }
            ScheduleError::RestartBeforeCrash { at, node } => {
                write!(f, "t={at}: node {node} restarted without a crash")
            }
            ScheduleError::PartitionSize { at, got, expected } => {
                write!(
                    f,
                    "t={at}: partition covers {got} nodes, expected {expected}"
                )
            }
            ScheduleError::PartitionUnknownGroup { at, pair } => {
                write!(f, "t={at}: partition blocks unknown group pair {pair:?}")
            }
            ScheduleError::LossOutOfRange { at, prob } => {
                write!(f, "t={at}: loss probability {prob} outside [0, 1]")
            }
            ScheduleError::BadDelayFactor { at, factor } => {
                write!(f, "t={at}: delay factor {factor} invalid")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_orders_by_time_then_insertion() {
        let s = FaultSchedule::new()
            .at(30, FaultAction::Heal)
            .at(10, FaultAction::Loss(0.5))
            .at(30, FaultAction::Loss(0.0))
            .at(20, FaultAction::Crash(1));
        assert_eq!(s.last_event_at(), 30);
        let events = s.into_events();
        let times: Vec<Micros> = events.iter().map(|e| e.at).collect();
        assert_eq!(times, vec![10, 20, 30, 30]);
        // Ties preserve insertion order: Heal before Loss(0.0).
        assert!(matches!(events[2].action, FaultAction::Heal));
        assert!(matches!(events[3].action, FaultAction::Loss(_)));
    }

    #[test]
    fn builders_expand_to_paired_events() {
        let s = FaultSchedule::new()
            .bipartition(8, 4, 100, 200)
            .crash_restart(3, 150, 250)
            .loss_window(0.3, 120, 180);
        assert_eq!(s.len(), 6);
        assert_eq!(s.last_event_at(), 250);
    }

    #[test]
    fn last_onset_excludes_clearing_actions() {
        // Crash at 150 is the last disturbance; the restart at 250, the
        // heal at 200, and the loss clear at 180 only end disturbances.
        let s = FaultSchedule::new()
            .bipartition(8, 4, 100, 200)
            .crash_restart(3, 150, 250)
            .loss_window(0.3, 120, 180);
        assert_eq!(s.last_fault_onset(), 150);
        assert_eq!(s.last_event_at(), 250);
        // A late skew onset counts; clearing it back to zero does not.
        let s = s
            .at(
                260,
                FaultAction::ClockSkew {
                    node: 1,
                    skew: -500,
                },
            )
            .at(300, FaultAction::ClockSkew { node: 1, skew: 0 });
        assert_eq!(s.last_fault_onset(), 260);
        assert_eq!(s.last_event_at(), 300);
    }

    #[test]
    fn validate_accepts_well_formed_schedules() {
        let s = FaultSchedule::new()
            .bipartition(8, 4, 100, 200)
            .crash_restart(3, 150, 250)
            .loss_window(0.3, 120, 180)
            .at(
                50,
                FaultAction::ClockSkew {
                    node: 7,
                    skew: -300,
                },
            )
            .at(
                60,
                FaultAction::DelaySpike {
                    factor: 2.0,
                    extra: 1000,
                },
            )
            .at(90, FaultAction::DelayClear);
        assert_eq!(s.validate(8), Ok(()));
        // A node may crash again after its restart.
        let s = FaultSchedule::new()
            .crash_restart(1, 10, 20)
            .crash_restart(1, 30, 40);
        assert_eq!(s.validate(4), Ok(()));
        // A crash without a restart is legal (the node stays down).
        assert_eq!(
            FaultSchedule::new()
                .at(5, FaultAction::Crash(0))
                .validate(2),
            Ok(())
        );
    }

    #[test]
    fn validate_rejects_malformed_schedules() {
        // Restart before crash.
        assert!(matches!(
            FaultSchedule::new()
                .at(10, FaultAction::Restart(1))
                .validate(4),
            Err(ScheduleError::RestartBeforeCrash { node: 1, .. })
        ));
        // Double crash of a node already down (checked in *time* order,
        // even when inserted out of order).
        assert!(matches!(
            FaultSchedule::new()
                .at(20, FaultAction::Crash(2))
                .at(10, FaultAction::Crash(2))
                .validate(4),
            Err(ScheduleError::DoubleCrash { node: 2, .. })
        ));
        // Node index out of range.
        assert!(matches!(
            FaultSchedule::new()
                .at(10, FaultAction::Crash(4))
                .validate(4),
            Err(ScheduleError::NodeOutOfRange { node: 4, .. })
        ));
        assert!(matches!(
            FaultSchedule::new()
                .at(10, FaultAction::ClockSkew { node: 9, skew: 5 })
                .validate(4),
            Err(ScheduleError::NodeOutOfRange { node: 9, .. })
        ));
        // Partition sized for a different population.
        assert!(matches!(
            FaultSchedule::new().bipartition(8, 4, 10, 20).validate(6),
            Err(ScheduleError::PartitionSize {
                got: 8,
                expected: 6,
                ..
            })
        ));
        // Partition blocking a group no node belongs to.
        assert!(matches!(
            FaultSchedule::new()
                .at(
                    10,
                    FaultAction::Partition(crate::network::PartitionSpec {
                        group_of: vec![0, 0, 0, 0],
                        blocked: vec![(0, 3)],
                    })
                )
                .validate(4),
            Err(ScheduleError::PartitionUnknownGroup { pair: (0, 3), .. })
        ));
        // Loss probability out of range / NaN.
        assert!(matches!(
            FaultSchedule::new()
                .at(10, FaultAction::Loss(1.5))
                .validate(4),
            Err(ScheduleError::LossOutOfRange { .. })
        ));
        assert!(matches!(
            FaultSchedule::new()
                .at(10, FaultAction::Loss(f64::NAN))
                .validate(4),
            Err(ScheduleError::LossOutOfRange { .. })
        ));
        // Negative delay factor.
        assert!(matches!(
            FaultSchedule::new()
                .at(
                    10,
                    FaultAction::DelaySpike {
                        factor: -1.0,
                        extra: 0
                    }
                )
                .validate(4),
            Err(ScheduleError::BadDelayFactor { .. })
        ));
    }
}
