//! The future-event set: a calendar of virtual-time buckets.
//!
//! The engine never needs *the* next event, only every event below a
//! window end, and it sorts that batch anyway. So events are not kept in
//! order: each is appended to the bucket of its 2,048 µs slice of
//! virtual time, buckets live in an ordered map (a far-future
//! timer wake is just a distant key), and [`CalendarQueue::pop_window`]
//! drains whole buckets, splits at most the one the window end falls in,
//! and sorts the few hundred extracted events. The order is still total
//! and still a function of the keys alone: every event carries an
//! [`OrderKey`] that is globally unique and assigned only in sequential
//! engine phases, and the extracted batch — exactly the events with
//! `time < end`, whichever buckets held them — is sorted by it. The
//! property test below pins the pop sequence and every intermediate
//! [`CalendarQueue::next_time`] to a reference binary heap's.

use crate::event::Micros;
use std::collections::BTreeMap;

/// Ordering class for deliveries: at the same instant, a message
/// delivery is processed before a timer wake (a fixed, documented rule).
pub const CLASS_DELIVER: u8 = 0;
/// Ordering class for timer wakes.
pub const CLASS_WAKE: u8 = 1;

/// Canonical ordering key: `(time, class, tiebreak)`.
///
/// Delivery tiebreaks are engine-global sequence numbers handed out in
/// the sequential barrier phase (sends are serialized there in canonical
/// order); wake tiebreaks are node ids. Both are independent of how the
/// queue stores events and of worker-thread interleaving, so the sorted
/// pop order is too.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct OrderKey {
    /// Virtual time of the event.
    pub time: Micros,
    /// [`CLASS_DELIVER`] or [`CLASS_WAKE`].
    pub class: u8,
    /// Engine-global delivery sequence number, or the waking node id.
    pub tiebreak: u64,
}

/// log2 of the bucket width: 2,048 µs, on the order of the engine's
/// 1.5 ms lookahead, so a window drains at most one or two buckets and
/// splits one. (Measured on `scale`: 1,024 µs costs the ordered map more
/// per `schedule`, 4,096 µs costs the split more per window.)
const BUCKET_SHIFT: u32 = 11;

/// A future-event set bucketed by virtual time, with payloads stored
/// inline. Scheduling is an append; nothing is ordered until it is popped.
pub struct CalendarQueue<T> {
    /// The non-empty buckets, by `time >> BUCKET_SHIFT`.
    buckets: BTreeMap<u64, Vec<(OrderKey, T)>>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> CalendarQueue<T> {
        CalendarQueue {
            buckets: BTreeMap::new(),
        }
    }
}

impl<T> CalendarQueue<T> {
    /// Schedules an event under `key`.
    pub fn schedule(&mut self, key: OrderKey, item: T) {
        let bucket = self.buckets.entry(key.time >> BUCKET_SHIFT).or_default();
        bucket.push((key, item));
    }

    /// The earliest pending event time, exactly: the engine derives its
    /// window end from it, so a bucket's lower edge would not do.
    pub fn next_time(&self) -> Option<Micros> {
        let (_, first) = self.buckets.first_key_value()?;
        first.iter().map(|(k, _)| k.time).min()
    }

    /// Removes every event with `time < end` and returns them sorted by
    /// [`OrderKey`] — the sequence a single global heap would pop.
    pub fn pop_window(&mut self, end: Micros) -> Vec<(OrderKey, T)> {
        let cut = end >> BUCKET_SHIFT;
        let mut out = Vec::new();
        while let Some(whole) = self.buckets.first_entry().filter(|e| *e.key() < cut) {
            out.append(&mut whole.remove());
        }
        // A window cut short (global event, churn, `t_end`) ends inside
        // bucket `cut`: take what lies below `end`, leave the rest.
        if let Some(mut split) = self.buckets.first_entry().filter(|e| *e.key() == cut) {
            out.extend(split.get_mut().extract_if(.., |(k, _)| k.time < end));
            if split.get().is_empty() {
                split.remove();
            }
        }
        // Keys are globally unique, so the order is total.
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_crypto::rng::Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    const BUCKET_MICROS: Micros = 1 << BUCKET_SHIFT;

    /// The obvious future-event set the calendar must be indistinguishable
    /// from: one binary heap, popped one event at a time.
    #[derive(Default)]
    struct Reference(BinaryHeap<Reverse<(OrderKey, u64)>>);

    impl Reference {
        fn next_time(&self) -> Option<Micros> {
            self.0.peek().map(|Reverse((k, _))| k.time)
        }

        fn pop_window(&mut self, end: Micros) -> Vec<(OrderKey, u64)> {
            let mut out = Vec::new();
            while self.next_time().is_some_and(|t| t < end) {
                out.push(self.0.pop().expect("peeked").0);
            }
            out
        }
    }

    /// Both queues, fed and drained in lockstep.
    #[derive(Default)]
    struct Pair {
        calendar: CalendarQueue<u64>,
        reference: Reference,
        /// Unique per event, as in the engine (delivery seqs are globally
        /// unique; wakes are deduped per node before scheduling).
        next_tiebreak: u64,
    }

    impl Pair {
        fn schedule(&mut self, time: Micros, class: u8) {
            let key = OrderKey {
                time,
                class,
                tiebreak: self.next_tiebreak,
            };
            self.next_tiebreak += 1;
            self.calendar.schedule(key, key.tiebreak ^ 0xabcd);
            self.reference.0.push(Reverse((key, key.tiebreak ^ 0xabcd)));
            assert_eq!(self.calendar.next_time(), self.reference.next_time());
        }

        fn pop_window(&mut self, end: Micros) -> usize {
            let popped = self.calendar.pop_window(end);
            assert_eq!(popped, self.reference.pop_window(end), "window end {end}");
            assert_eq!(self.calendar.next_time(), self.reference.next_time());
            popped.len()
        }
    }

    #[test]
    fn pops_and_next_times_equal_a_reference_heap() {
        for seed in [7u64, 21, 1234, 9_999] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut pair = Pair::default();
            let mut popped = 0;
            let mut end = 0;
            for round in 0..60 {
                // A batch around the frontier: a crowd at one instant,
                // near-future deliveries, wakes far beyond one bucket,
                // and stragglers below the last window end.
                let crowd = end + rng.gen_range_u64(3 * BUCKET_MICROS);
                for _ in 0..rng.gen_range_usize(40) {
                    let class = rng.gen_range_u64(2) as u8;
                    let time = match rng.gen_range_u64(5) {
                        0 => crowd,
                        1 => end + rng.gen_range_u64(BUCKET_MICROS),
                        2 => end + rng.gen_range_u64(8 * BUCKET_MICROS),
                        3 => end + rng.gen_range_u64(5_000 * BUCKET_MICROS),
                        _ => rng.gen_range_u64(end + 1),
                    };
                    pair.schedule(time, class);
                }
                // Window ends mid-bucket, exactly on a bucket boundary,
                // and at or before the frontier (an empty window).
                end = match round % 3 {
                    0 => end + 1 + rng.gen_range_u64(3 * BUCKET_MICROS),
                    1 => ((end >> BUCKET_SHIFT) + 1 + rng.gen_range_u64(3)) << BUCKET_SHIFT,
                    _ => end.saturating_sub(rng.gen_range_u64(BUCKET_MICROS)),
                };
                popped += pair.pop_window(end);
            }
            pair.schedule(u64::MAX - 1, CLASS_WAKE);
            popped += pair.pop_window(u64::MAX);
            assert_eq!(pair.calendar.next_time(), None);
            assert_eq!(popped as u64, pair.next_tiebreak, "seed {seed}");
        }
    }

    #[test]
    fn deliveries_sort_before_wakes_at_the_same_instant() {
        let mut q = CalendarQueue::default();
        q.schedule(
            OrderKey {
                time: 10,
                class: CLASS_WAKE,
                tiebreak: 3,
            },
            "wake",
        );
        q.schedule(
            OrderKey {
                time: 10,
                class: CLASS_DELIVER,
                tiebreak: 99,
            },
            "deliver",
        );
        let popped = q.pop_window(11);
        assert_eq!(
            popped.iter().map(|(_, s)| *s).collect::<Vec<_>>(),
            vec!["deliver", "wake"]
        );
    }

    #[test]
    fn next_time_is_the_minimum_and_the_window_end_is_exclusive() {
        let mut q: CalendarQueue<()> = CalendarQueue::default();
        assert_eq!(q.next_time(), None);
        q.schedule(
            OrderKey {
                time: 50,
                class: CLASS_DELIVER,
                tiebreak: 0,
            },
            (),
        );
        q.schedule(
            OrderKey {
                time: 20,
                class: CLASS_WAKE,
                tiebreak: 2,
            },
            (),
        );
        assert_eq!(q.next_time(), Some(20));
        // Window end is exclusive.
        assert_eq!(q.pop_window(20).len(), 0);
        assert_eq!(q.pop_window(51).len(), 2);
    }
}
