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
//!
//! An in-flight event costs 16 bytes: its key packed into one `u64`
//! relative to its bucket, plus a caller-defined `u64` route (the engine
//! packs target, sender and a message-body slot into it). Records live in
//! fixed-size chunks that a free list recycles, so a bucket wastes at most
//! one partly filled chunk and nothing is ever copied to grow.

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
    /// Engine-global delivery sequence number, or the waking node id;
    /// below [`TIEBREAK_LIMIT`].
    pub tiebreak: u64,
}

/// log2 of the bucket width: 2,048 µs, on the order of the engine's
/// 1.5 ms lookahead, so a window drains at most one or two buckets and
/// splits one. (Measured on `scale`: 1,024 µs costs the ordered map more
/// per `schedule`, 4,096 µs costs the split more per window.)
const BUCKET_SHIFT: u32 = 11;
const OFFSET_MASK: u64 = (1 << BUCKET_SHIFT) - 1;

/// A record's sort key is `offset ‖ class ‖ tiebreak`, most significant
/// first, so comparing keys of one bucket compares `(time, class,
/// tiebreak)`: the offset takes [`BUCKET_SHIFT`] bits, the class one.
const TIEBREAK_BITS: u32 = 64 - BUCKET_SHIFT - 1;

/// Every [`OrderKey::tiebreak`] must be below this (2^52).
pub const TIEBREAK_LIMIT: u64 = 1 << TIEBREAK_BITS;

/// Records per chunk: 64 × 16 B = 1 KiB, so a far-future wake alone in
/// its bucket holds 1 KiB, and a bucket wastes at most one partly filled
/// chunk (6% of the calendar at `scale`'s peak).
const CHUNK: usize = 64;

/// One scheduled event, as the calendar holds it.
#[derive(Clone, Copy, Default)]
struct Record {
    /// The key packed relative to the bucket (see [`TIEBREAK_BITS`]).
    key: u64,
    /// The caller's payload, returned beside the key.
    route: u64,
}

type Chunk = Box<[Record; CHUNK]>;

/// One bucket's records, in arrival order, `len` of them across `chunks`.
#[derive(Default)]
struct Bucket {
    chunks: Vec<Chunk>,
    len: usize,
}

impl Bucket {
    fn records(&self) -> impl Iterator<Item = &Record> {
        self.chunks.iter().flat_map(|c| c.iter()).take(self.len)
    }
}

/// A future-event set bucketed by virtual time. Scheduling is an append;
/// nothing is ordered until it is popped.
#[derive(Default)]
pub struct CalendarQueue {
    /// The non-empty buckets, by `time >> BUCKET_SHIFT`.
    buckets: BTreeMap<u64, Bucket>,
    /// Empty chunks, reused before any new one is allocated.
    free: Vec<Chunk>,
}

impl CalendarQueue {
    /// Schedules an event under `key`, carrying `route`.
    ///
    /// # Panics
    ///
    /// If `key.tiebreak` is not below [`TIEBREAK_LIMIT`] or `key.class`
    /// is neither class: the packed key would not sort as the key does.
    pub fn schedule(&mut self, key: OrderKey, route: u64) {
        assert!(
            key.tiebreak < TIEBREAK_LIMIT,
            "tiebreak {} overflows",
            key.tiebreak
        );
        assert!(key.class <= CLASS_WAKE, "unknown class {}", key.class);
        let packed = ((key.time & OFFSET_MASK) << (TIEBREAK_BITS + 1))
            | (u64::from(key.class) << TIEBREAK_BITS)
            | key.tiebreak;
        let bucket = self.buckets.entry(key.time >> BUCKET_SHIFT).or_default();
        let at = bucket.len % CHUNK;
        if at == 0 {
            let chunk = self
                .free
                .pop()
                .unwrap_or_else(|| Box::new([Record::default(); CHUNK]));
            bucket.chunks.push(chunk);
        }
        let chunk = bucket.chunks.last_mut().expect("a chunk with room");
        chunk[at] = Record { key: packed, route };
        bucket.len += 1;
    }

    /// The earliest pending event time, exactly: the engine derives its
    /// window end from it, so a bucket's lower edge would not do.
    pub fn next_time(&self) -> Option<Micros> {
        let (&index, first) = self.buckets.first_key_value()?;
        let min = first.records().map(|r| r.key).min()?;
        Some(index << BUCKET_SHIFT | min >> (TIEBREAK_BITS + 1))
    }

    /// Removes every event with `time < end` and returns them, with their
    /// routes, sorted by [`OrderKey`] — the sequence a single global heap
    /// would pop.
    pub fn pop_window(&mut self, end: Micros) -> Vec<(OrderKey, u64)> {
        let cut = end >> BUCKET_SHIFT;
        let mut out = Vec::new();
        let mut batch = Vec::new();
        while let Some(whole) = self.buckets.first_entry().filter(|e| *e.key() < cut) {
            let index = *whole.key();
            let bucket = whole.remove();
            batch.extend(bucket.records());
            self.free.extend(bucket.chunks);
            emit_sorted(index, &mut batch, &mut out);
        }
        // A window cut short (global event, churn, `t_end`) ends inside
        // bucket `cut`: take what lies below `end`, compact the rest.
        if let Some(mut split) = self.buckets.first_entry().filter(|e| *e.key() == cut) {
            let below = (end & OFFSET_MASK) << (TIEBREAK_BITS + 1);
            let bucket = split.get_mut();
            let mut kept = 0;
            for i in 0..bucket.len {
                let r = bucket.chunks[i / CHUNK][i % CHUNK];
                if r.key < below {
                    batch.push(r);
                } else {
                    bucket.chunks[kept / CHUNK][kept % CHUNK] = r;
                    kept += 1;
                }
            }
            bucket.len = kept;
            self.free
                .extend(bucket.chunks.drain(kept.div_ceil(CHUNK)..));
            if kept == 0 {
                split.remove();
            }
            emit_sorted(cut, &mut batch, &mut out);
        }
        out
    }
}

/// Sorts one bucket's extracted records and appends them, unpacked, to
/// `out`. Buckets are visited in ascending order, so per-bucket sorting
/// sorts the whole batch.
fn emit_sorted(index: u64, batch: &mut Vec<Record>, out: &mut Vec<(OrderKey, u64)>) {
    batch.sort_unstable_by_key(|r| r.key);
    out.extend(batch.drain(..).map(|r| {
        let key = OrderKey {
            time: index << BUCKET_SHIFT | r.key >> (TIEBREAK_BITS + 1),
            class: (r.key >> TIEBREAK_BITS & 1) as u8,
            tiebreak: r.key & (TIEBREAK_LIMIT - 1),
        };
        (key, r.route)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_crypto::rng::Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    const BUCKET_MICROS: Micros = 1 << BUCKET_SHIFT;

    #[test]
    fn an_in_flight_event_costs_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 16);
        assert_eq!(std::mem::size_of::<[Record; CHUNK]>(), 1024);
    }

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
        calendar: CalendarQueue,
        reference: Reference,
        /// Unique per event, as in the engine (delivery seqs are globally
        /// unique; wakes are deduped per node before scheduling).
        next_tiebreak: u64,
        scheduled: u64,
        /// The most chunks the calendar's buckets held at once.
        peak_chunks: usize,
        /// How many times a bucket started a chunk.
        chunks_taken: usize,
        /// Whether some window ended inside a bucket of several chunks.
        multi_chunk_split: bool,
    }

    impl Pair {
        fn starting_at(tiebreak: u64) -> Pair {
            Pair {
                next_tiebreak: tiebreak,
                ..Pair::default()
            }
        }

        fn live_chunks(&self) -> usize {
            self.calendar.buckets.values().map(|b| b.chunks.len()).sum()
        }

        fn schedule(&mut self, time: Micros, class: u8) {
            let key = OrderKey {
                time,
                class,
                tiebreak: self.next_tiebreak,
            };
            self.next_tiebreak += 1;
            self.scheduled += 1;
            let bucket = self.calendar.buckets.get(&(time >> BUCKET_SHIFT));
            self.chunks_taken += usize::from(bucket.map_or(0, |b| b.len).is_multiple_of(CHUNK));
            self.calendar.schedule(key, key.tiebreak ^ 0xabcd);
            self.reference.0.push(Reverse((key, key.tiebreak ^ 0xabcd)));
            assert_eq!(self.calendar.next_time(), self.reference.next_time());
            self.peak_chunks = self.peak_chunks.max(self.live_chunks());
        }

        fn pop_window(&mut self, end: Micros) -> usize {
            let split = self.calendar.buckets.get(&(end >> BUCKET_SHIFT));
            self.multi_chunk_split |=
                end & OFFSET_MASK != 0 && split.is_some_and(|b| b.len > CHUNK);
            let popped = self.calendar.pop_window(end);
            assert_eq!(popped, self.reference.pop_window(end), "window end {end}");
            assert_eq!(self.calendar.next_time(), self.reference.next_time());
            // Every chunk is either in a bucket or in the pool, and a new
            // one is allocated only when the pool is empty.
            let (live, pooled) = (self.live_chunks(), self.calendar.free.len());
            assert_eq!(
                live + pooled,
                self.peak_chunks,
                "a chunk was leaked or not reused"
            );
            for b in self.calendar.buckets.values() {
                assert_eq!(
                    b.chunks.len(),
                    b.len.div_ceil(CHUNK),
                    "a bucket holds a spare chunk"
                );
            }
            popped.len()
        }
    }

    #[test]
    fn pops_and_next_times_equal_a_reference_heap() {
        // Each seed runs twice: from sequence number 0, and up to the
        // packing limit.
        let seeds = [7u64, 21, 1234, 9_999];
        let bases = [0, TIEBREAK_LIMIT - 20_000];
        for (seed, base) in seeds.iter().flat_map(|&s| bases.map(|b| (s, b))) {
            let mut rng = Rng::seed_from_u64(seed);
            let mut pair = Pair::starting_at(base);
            let mut popped = 0;
            let mut end = 0;
            for round in 0..60 {
                // A batch around the frontier: a crowd at one instant,
                // near-future deliveries, wakes far beyond one bucket or
                // 2^40 µs out, and stragglers below the last window end.
                let crowd = end + rng.gen_range_u64(3 * BUCKET_MICROS);
                for _ in 0..rng.gen_range_usize(40) {
                    let class = rng.gen_range_u64(2) as u8;
                    let time = match rng.gen_range_u64(6) {
                        0 => crowd,
                        1 => end + rng.gen_range_u64(BUCKET_MICROS),
                        2 => end + rng.gen_range_u64(8 * BUCKET_MICROS),
                        3 => end + rng.gen_range_u64(5_000 * BUCKET_MICROS),
                        4 => end + (1 << 40) + rng.gen_range_u64(BUCKET_MICROS),
                        _ => rng.gen_range_u64(end + 1),
                    };
                    pair.schedule(time, class);
                }
                // Window ends mid-bucket, exactly on a bucket boundary,
                // and at or before the frontier (an empty window). Every
                // seventh round floods the next bucket over several
                // chunks and ends the window inside it.
                end = if round % 7 == 3 {
                    let flood = ((end >> BUCKET_SHIFT) + 1) << BUCKET_SHIFT;
                    for _ in 0..3 * CHUNK {
                        let class = rng.gen_range_u64(2) as u8;
                        pair.schedule(flood + rng.gen_range_u64(BUCKET_MICROS), class);
                    }
                    flood + 1 + rng.gen_range_u64(BUCKET_MICROS - 1)
                } else {
                    match round % 3 {
                        0 => end + 1 + rng.gen_range_u64(3 * BUCKET_MICROS),
                        1 => ((end >> BUCKET_SHIFT) + 1 + rng.gen_range_u64(3)) << BUCKET_SHIFT,
                        _ => end.saturating_sub(rng.gen_range_u64(BUCKET_MICROS)),
                    }
                };
                popped += pair.pop_window(end);
            }
            pair.schedule(u64::MAX - 1, CLASS_WAKE);
            popped += pair.pop_window(u64::MAX);
            assert_eq!(pair.calendar.next_time(), None);
            assert_eq!(popped as u64, pair.scheduled, "seed {seed}");
            assert!(
                pair.multi_chunk_split,
                "seed {seed}: no multi-chunk bucket was split"
            );
            // Chunks were taken more often than allocated: the pool
            // recycled them across windows.
            assert!(
                pair.chunks_taken > pair.peak_chunks,
                "seed {seed}: no chunk reused"
            );
        }
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn a_tiebreak_past_the_packing_limit_is_refused() {
        let key = OrderKey {
            time: 5,
            class: CLASS_DELIVER,
            tiebreak: TIEBREAK_LIMIT,
        };
        CalendarQueue::default().schedule(key, 0);
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
            1,
        );
        q.schedule(
            OrderKey {
                time: 10,
                class: CLASS_DELIVER,
                tiebreak: 99,
            },
            2,
        );
        let popped = q.pop_window(11);
        assert_eq!(
            popped.iter().map(|(_, r)| *r).collect::<Vec<_>>(),
            vec![2, 1]
        );
    }

    #[test]
    fn next_time_is_the_minimum_and_the_window_end_is_exclusive() {
        let mut q = CalendarQueue::default();
        assert_eq!(q.next_time(), None);
        q.schedule(
            OrderKey {
                time: 50,
                class: CLASS_DELIVER,
                tiebreak: 0,
            },
            0,
        );
        q.schedule(
            OrderKey {
                time: 20,
                class: CLASS_WAKE,
                tiebreak: 2,
            },
            0,
        );
        assert_eq!(q.next_time(), Some(20));
        // Window end is exclusive.
        assert_eq!(q.pop_window(20).len(), 0);
        assert_eq!(q.pop_window(51).len(), 2);
        // Also for the smallest key at the end instant of a split bucket,
        // whose packed form equals the split's bound.
        let end = 3 * BUCKET_MICROS + 5;
        let first = OrderKey {
            time: end,
            class: CLASS_DELIVER,
            tiebreak: 0,
        };
        q.schedule(first, 0);
        assert_eq!(q.pop_window(end).len(), 0);
        assert_eq!(q.pop_window(end + 1), vec![(first, 0)]);
    }
}
