//! The discrete-event engine: a time-ordered event queue.
//!
//! [`Engine`] owns the simulation clock, the pending-event queue and the
//! root RNG. Components schedule payloads of a user-chosen event type `E`;
//! the driver loop pops them in `(time, insertion order)` order:
//!
//! ```
//! use ignem_simcore::{event::Engine, time::SimDuration};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut engine: Engine<Ev> = Engine::new(42);
//! engine.schedule_in(SimDuration::from_secs(1), Ev::Ping(7));
//! let mut seen = vec![];
//! while let Some(ev) = engine.pop() {
//!     match ev { Ev::Ping(n) => seen.push(n) }
//! }
//! assert_eq!(seen, vec![7]);
//! assert_eq!(engine.now().as_secs_f64(), 1.0);
//! ```
//!
//! ## The queue
//!
//! The queue is a [`BinaryHeap`] whose entries carry their payload and
//! are ordered by `(time, insertion seq)` alone. `seq` is unique, so the
//! order is total: the pop sequence is exactly `(time, insertion seq)`,
//! and equal-time events fire in the order they were scheduled. Schedule
//! and pop cost `O(log n)` in the number of pending events, which peaks
//! in the low hundreds on every workload the repository runs, the
//! 12,288-node trace replay included (DESIGN.md §9). `Clone` copies the
//! heap, so a cloned engine pops the identical future sequence.
//!
//! There is no cancellation. A component whose timer has been superseded
//! lets the old event fire and ignores it: `World` stamps each timer
//! payload with a generation counter and drops the event when the
//! generation no longer matches.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A queued event: its `(at, seq)` key and the payload it fires.
#[derive(Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    /// Reversed, so that the max-heap surfaces the earliest `(at, seq)`.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// The discrete-event simulation engine.
///
/// Generic over the event payload type `E` so each simulation defines its own
/// closed event vocabulary (an enum), keeping dispatch exhaustive and
/// allocation-free.
///
/// When `E: Clone` the whole engine is `Clone`: the heap and the root RNG
/// copy structurally, so a clone pops the exact same future event
/// sequence — including insertion-order tie-breaks — as the original.
/// This is what makes world snapshots a memcpy-style fork rather than a
/// replay.
#[derive(Clone)]
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Entry<E>>,
    rng: SimRng,
    processed: u64,
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("processed", &self.processed)
            .finish()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with a seeded root RNG.
    pub fn new(seed: u64) -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            rng: SimRng::new(seed),
            processed: 0,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still queued.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// The engine's root RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Schedules `payload` after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Schedules `payload` to fire immediately (at the current time, after
    /// any already-queued events for this instant).
    pub fn schedule_now(&mut self, payload: E) {
        self.schedule_at(self.now, payload);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when no events remain.
    pub fn pop(&mut self) -> Option<E> {
        let Entry { at, payload, .. } = self.heap.pop()?;
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.processed += 1;
        Some(payload)
    }

    /// Peeks at the next event — timestamp and a borrow of its payload —
    /// without firing it. A pure read: the step loop uses it to decide
    /// whether the *next* event is a branch point (e.g. a fault injection)
    /// worth snapshotting before.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|e| (e.at, &e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops every remaining event in fire order.
    fn drain<E>(e: &mut Engine<E>) -> Vec<E> {
        std::iter::from_fn(|| e.pop()).collect()
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule_at(SimTime::from_micros(30), 3);
        e.schedule_at(SimTime::from_micros(10), 1);
        e.schedule_at(SimTime::from_micros(20), 2);
        assert_eq!(drain(&mut e), vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut e: Engine<u32> = Engine::new(0);
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            e.schedule_at(t, i);
        }
        assert_eq!(drain(&mut e), (0..10).collect::<Vec<_>>());
    }

    /// Ties must survive interleaving: events scheduled at the same distant
    /// tick, with differently-timed neighbours scheduled between them,
    /// still fire in insertion order once their time comes.
    #[test]
    fn ties_fire_in_insertion_order_when_interleaved() {
        let mut e: Engine<u32> = Engine::new(0);
        let far = SimTime::from_micros(1_000_003);
        // Interleave two tied groups plus scattered neighbours.
        e.schedule_at(far, 0);
        e.schedule_at(SimTime::from_micros(1_000_001), 100);
        e.schedule_at(far, 1);
        e.schedule_at(SimTime::from_micros(999_999), 99);
        e.schedule_at(far, 2);
        assert_eq!(drain(&mut e), vec![99, 100, 0, 1, 2]);
    }

    /// Order must hold across widely spread timestamps, from one tick to
    /// half the `u64` tick space.
    #[test]
    fn long_horizon_events_fire_in_order() {
        let mut e: Engine<u64> = Engine::new(0);
        let mut ticks: Vec<u64> = (0..40).map(|i| 7u64 << i).collect();
        ticks.push(1);
        ticks.push(u64::MAX / 2);
        for &t in ticks.iter().rev() {
            e.schedule_at(SimTime::from_micros(t), t);
        }
        ticks.sort_unstable();
        assert_eq!(drain(&mut e), ticks);
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut e: Engine<()> = Engine::new(0);
        e.schedule_at(SimTime::from_secs_f64(2.5), ());
        e.pop();
        assert_eq!(e.now(), SimTime::from_secs_f64(2.5));
    }

    #[test]
    fn schedule_during_pop_loop_works() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule_in(SimDuration::from_secs(1), 5);
        let mut count = 0;
        while let Some(n) = e.pop() {
            count += 1;
            if n > 0 {
                e.schedule_in(SimDuration::from_secs(1), n - 1);
            }
        }
        assert_eq!(count, 6);
        assert_eq!(e.now().as_secs_f64(), 6.0);
    }

    /// `peek` must return the payload of the event `pop` would fire next
    /// and change nothing observable.
    #[test]
    fn peek_returns_next_payload_without_firing() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule_at(SimTime::from_micros(2_000), 2);
        e.schedule_at(SimTime::from_micros(1_000), 1);
        assert_eq!(e.peek(), Some((SimTime::from_micros(1_000), &1)));
        assert_eq!(e.now(), SimTime::ZERO);
        assert_eq!(e.processed(), 0);
        assert_eq!(e.pending(), 2);
        assert_eq!(e.pop(), Some(1));
        assert_eq!(e.peek(), Some((SimTime::from_micros(2_000), &2)));
        assert_eq!(e.pop(), Some(2));
        assert_eq!(e.peek(), None);
        assert_eq!(e.pending(), 0);
    }

    /// A cloned engine must pop the exact same future sequence — times,
    /// payloads and insertion-order tie-breaks — as the original, and the
    /// two must diverge independently afterwards.
    #[test]
    fn cloned_engine_pops_identical_sequence() {
        let mut e: Engine<u32> = Engine::new(7);
        let t = SimTime::from_micros(5);
        for i in 0..8 {
            e.schedule_at(t, i); // all tied: insertion order must survive
        }
        e.schedule_at(SimTime::from_micros(9), 100);
        e.schedule_at(SimTime::from_micros(8), 99);
        assert_eq!(e.pop(), Some(0));

        let mut fork = e.clone();
        let drain_timed = |eng: &mut Engine<u32>| {
            let mut got = vec![];
            while let Some(v) = eng.pop() {
                got.push((eng.now(), v));
            }
            got
        };
        let a = drain_timed(&mut e);
        let b = drain_timed(&mut fork);
        assert_eq!(a, b);
        assert_eq!(a.last(), Some(&(SimTime::from_micros(9), 100)));
        // Post-fork schedules are independent.
        fork.schedule_at(SimTime::from_micros(20), 42);
        assert_eq!(fork.pop(), Some(42));
        assert_eq!(e.pop(), None);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_scheduling() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule_at(SimTime::from_secs(5), 1);
        e.pop();
        e.schedule_at(SimTime::from_secs(1), 2);
    }

    /// Property test: the engine against a reference model with the same
    /// ordering semantics — a sorted `(time, seq)` list. Random
    /// interleavings of schedule / pop / peek / clone-restore must produce
    /// the identical pop sequence, tie-breaks included, and identical
    /// pending counts throughout.
    #[test]
    fn engine_matches_sorted_reference_model() {
        for seed in 0..32u64 {
            let mut rng = SimRng::new(0xF1EE_D00D ^ seed);
            let mut e: Engine<u64> = Engine::new(1);
            // Model entry: (at, seq, payload), sorted on demand.
            type Model = Vec<(SimTime, u64, u64)>;
            let mut model: Model = Vec::new();
            let mut next_seq = 0u64;
            let mut snapshot: Option<(Engine<u64>, Model)> = None;

            for step in 0..4_000 {
                match rng.index(100) {
                    // Schedule at horizons from 8 µs to ~11 h; small
                    // ranges force frequent exact-time ties.
                    0..=54 => {
                        let horizon = match rng.index(4) {
                            0 => 8,
                            1 => 1_000,
                            2 => 1_000_000,
                            _ => 40_000_000_000,
                        };
                        let at = e.now() + SimDuration::from_micros(rng.index(horizon) as u64);
                        e.schedule_at(at, next_seq);
                        model.push((at, next_seq, next_seq));
                        next_seq += 1;
                    }
                    55..=59 => {
                        // Clone both sides; later restore swaps them in.
                        snapshot = Some((e.clone(), model.clone()));
                    }
                    60..=62 => {
                        if let Some((se, sm)) = snapshot.take() {
                            e = se;
                            model = sm;
                        }
                    }
                    _ => {
                        model.sort_by_key(|&(at, seq, _)| (at, seq));
                        let expect = model.first().copied();
                        assert_eq!(
                            e.peek().map(|(at, &p)| (at, p)),
                            expect.map(|(at, _, p)| (at, p)),
                            "peek mismatch at step {step} (seed {seed})"
                        );
                        let popped = e.pop();
                        match expect {
                            Some((at, _, payload)) => {
                                assert_eq!(popped, Some(payload), "pop payload (seed {seed})");
                                assert_eq!(e.now(), at, "pop clock (seed {seed})");
                                model.remove(0);
                            }
                            None => assert_eq!(popped, None, "pop on empty (seed {seed})"),
                        }
                    }
                }
                assert_eq!(
                    e.pending(),
                    model.len(),
                    "pending count at step {step} (seed {seed})"
                );
            }

            // Drain: the full remaining sequence must match the model's.
            model.sort_by_key(|&(at, seq, _)| (at, seq));
            let expected: Vec<u64> = model.iter().map(|&(_, _, p)| p).collect();
            assert_eq!(drain(&mut e), expected, "drain order (seed {seed})");
        }
    }
}
