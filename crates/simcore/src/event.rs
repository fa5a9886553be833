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
//! ## The hierarchical timing wheel
//!
//! The queue is a hierarchical timing wheel (a calendar queue), not a
//! binary heap: 11 levels of 64 slots each, 6 bits of the microsecond
//! tick per level, covering the whole `u64` tick space. An event at
//! absolute tick `t` lives at the level of the most significant bit in
//! which `t` differs from the wheel's floor `elapsed` (the granularity at
//! which its deadline is still "far"), in the slot indexed by `t`'s 6-bit
//! digit at that level. Scheduling is O(1): one XOR, one leading-zeros,
//! one `Vec::push`. Popping promotes the earliest occupied slot — found
//! by scanning 11 per-level occupancy bitmaps — jumps the floor straight
//! to that slot's earliest tick (which is the global minimum, so one
//! promotion always yields ready work), and *cascades*: entries due at
//! the new floor become ready (sorted by insertion `seq`, so equal-time
//! events still fire in FIFO order), the rest re-insert at a strictly
//! lower level. Each entry cascades through at most `LEVELS` slots over
//! its lifetime, so schedule/pop are O(1) amortized — the `O(log n)`
//! heap sifts are gone, which is what lets a 12k-node world carry
//! millions of pending timers without the queue dominating the run.
//! Promotion recycles two scratch buffers (the swapped-out slot vector
//! and the due batch), so the steady-state hot path allocates nothing.
//!
//! Determinism is unchanged from the heap engine: the pop order is
//! *exactly* `(time, insertion seq)` — the wheel only ever reorders
//! storage, never the fire sequence — and `Clone` copies the wheel
//! (levels, bitmaps, floor, ready queue) structurally, so a cloned
//! engine pops the identical future sequence. World snapshots capture
//! the wheel cursors for free.
//!
//! ## The payload arena
//!
//! Wheel entries carry only the `(time, seq)` key and the index of an
//! arena slot that parks the payload, so cascade copies stay small
//! however large `E` is. Popping takes the payload out of its slot and
//! returns the index to a free list, so the arena is bounded by the peak
//! number of *pending* events, not by the total ever scheduled.
//!
//! There is no cancellation. A component whose timer has been superseded
//! lets the old event fire and ignores it: `World` stamps each timer
//! payload with a generation counter and drops the event when the
//! generation no longer matches.

use std::collections::VecDeque;

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A wheel entry is the ordering key plus the arena slot holding the
/// payload: a small fixed-size value, so cascades move ~24 bytes instead
/// of the (potentially large) event payload itself.
#[derive(Debug, Clone)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// Bits of the tick consumed per wheel level.
const LEVEL_BITS: u32 = 6;
/// Slots per level (`2^LEVEL_BITS`).
const LEVEL_SLOTS: usize = 1 << LEVEL_BITS;
/// Levels needed to cover a full `u64` of microsecond ticks
/// (`11 × 6 = 66 ≥ 64`).
const LEVELS: usize = 11;

/// The calendar-queue structure: per-level slot vectors, occupancy
/// bitmaps, the wheel floor, and the ready queue of entries at the floor.
///
/// Invariants (between public engine operations):
/// - every stored entry has `at > elapsed` (levels) or `at == elapsed`
///   (ready queue);
/// - all level-`l` entries share `elapsed`'s tick digits above level `l`,
///   so within a level, slot index order is time order and every occupied
///   slot index is strictly greater than `elapsed`'s digit at that level;
/// - all level-`l` entries fire strictly before any level-`l+1` entry;
/// - `ready` is sorted by `seq` (cascades sort the batch they promote;
///   later schedules at the floor append with strictly larger seqs);
/// - `elapsed == now` whenever the engine is quiescent: only a promotion
///   moves the floor, and the pop that follows moves the clock to it.
#[derive(Clone)]
struct Wheel {
    /// `LEVELS × LEVEL_SLOTS` slot vectors, row-major by level.
    levels: Vec<Vec<Entry>>,
    /// Per-level occupancy bitmap: bit `s` set ⇔ `levels[l*64+s]` nonempty.
    occupied: [u64; LEVELS],
    /// Entries at tick `elapsed`, in seq order; `pop` drains from the front.
    ready: VecDeque<Entry>,
    /// The wheel floor in ticks: every level entry is strictly later.
    elapsed: u64,
    /// Recycled cascade buffer: swapped with the promoted slot's vector so
    /// steady-state promotion allocates nothing (a `mem::take` would throw
    /// the slot's capacity away on every cascade).
    cascade: Vec<Entry>,
    /// Recycled batch buffer for the entries due at the new floor.
    due: Vec<Entry>,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            levels: vec![Vec::new(); LEVELS * LEVEL_SLOTS],
            occupied: [0; LEVELS],
            ready: VecDeque::new(),
            elapsed: 0,
            cascade: Vec::new(),
            due: Vec::new(),
        }
    }

    /// The level and slot index for an entry at tick `at`, relative to
    /// the current floor. Caller guarantees `at > self.elapsed`.
    fn level_slot(&self, at: u64) -> (usize, usize) {
        let diff = at ^ self.elapsed;
        debug_assert!(diff != 0, "floor ticks belong in the ready queue");
        let msb = 63 - diff.leading_zeros();
        let level = (msb / LEVEL_BITS) as usize;
        let slot = ((at >> (LEVEL_BITS * level as u32)) & (LEVEL_SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    /// Files an entry: ready queue if it is due at the floor, otherwise
    /// the level/slot its tick digits select.
    fn insert(&mut self, entry: Entry) {
        let at = entry.at.as_micros();
        if at == self.elapsed {
            // Fresh schedules carry a seq larger than everything already
            // queued, so appending keeps `ready` seq-sorted; cascades only
            // reach here via `promote_earliest`, which sorts its batch.
            self.ready.push_back(entry);
        } else {
            let (level, slot) = self.level_slot(at);
            self.levels[level * LEVEL_SLOTS + slot].push(entry);
            self.occupied[level] |= 1 << slot;
        }
    }

    /// The earliest occupied `(level, slot)`, if any level holds entries.
    fn earliest_slot(&self) -> Option<(usize, usize)> {
        self.occupied
            .iter()
            .position(|&occ| occ != 0)
            .map(|level| (level, self.occupied[level].trailing_zeros() as usize))
    }

    /// Jumps the floor to the earliest stored tick and promotes every
    /// entry due there into `ready` (seq-sorted); later entries from the
    /// same slot re-file at a strictly lower level. Returns `false` when
    /// every level is empty — otherwise `ready` is guaranteed nonempty,
    /// so the caller never loops.
    ///
    /// Correctness of the timestamp jump: `earliest_slot` picks the
    /// lowest occupied level (all lower levels empty) and its lowest
    /// occupied slot, and slot order within a level is time order, so the
    /// minimum tick in that slot is the global minimum. Jumping `elapsed`
    /// to it only changes digits at or below the promoted level, which
    /// preserves the digit-sharing invariant for every other stored
    /// entry. Re-filed entries share the promoted slot's digit with the
    /// new floor, so `level_slot` sends them strictly lower; each entry
    /// still cascades at most `LEVELS` times over its lifetime.
    fn promote_earliest(&mut self) -> bool {
        let Some((level, slot)) = self.earliest_slot() else {
            return false;
        };
        // Swap the slot's vector with the recycled cascade buffer instead
        // of `mem::take`-ing it, so slot capacity survives the promotion.
        let idx = level * LEVEL_SLOTS + slot;
        // Sparse timers dominate: most promotions move a lone entry, which
        // needs no min-scan, no partition and no sort.
        if self.levels[idx].len() == 1 {
            let entry = self.levels[idx].pop().expect("len checked above");
            self.occupied[level] &= !(1 << slot);
            debug_assert!(entry.at.as_micros() > self.elapsed);
            self.elapsed = entry.at.as_micros();
            debug_assert!(self.ready.is_empty(), "cascade only runs when drained");
            self.ready.push_back(entry);
            return true;
        }
        let mut batch = std::mem::take(&mut self.cascade);
        std::mem::swap(&mut batch, &mut self.levels[idx]);
        self.occupied[level] &= !(1 << slot);
        let min_at = batch
            .iter()
            .map(|e| e.at.as_micros())
            .min()
            .expect("occupied bitmap pointed at an empty slot");
        debug_assert!(min_at > self.elapsed, "slots always lie beyond the floor");
        self.elapsed = min_at;
        let mut due = std::mem::take(&mut self.due);
        for entry in batch.drain(..) {
            if entry.at.as_micros() == min_at {
                due.push(entry);
            } else {
                self.insert(entry);
            }
        }
        // Cascaded batches arrive in storage order; equal-time events must
        // still fire in insertion order. Seqs are unique so an unstable
        // (allocation-free) sort is exact.
        due.sort_unstable_by_key(|e| e.seq);
        debug_assert!(self.ready.is_empty(), "cascade only runs when drained");
        self.ready.extend(due.drain(..));
        self.cascade = batch;
        self.due = due;
        true
    }
}

/// The discrete-event simulation engine.
///
/// Generic over the event payload type `E` so each simulation defines its own
/// closed event vocabulary (an enum), keeping dispatch exhaustive and
/// allocation-free.
///
/// When `E: Clone` the whole engine is `Clone`: the wheel (levels,
/// occupancy bitmaps, floor cursor, ready queue), the payload arena, the
/// free list and the root RNG all copy structurally, so a clone pops the
/// exact same future event sequence — including insertion-order
/// tie-breaks — as the original. This is what makes world snapshots a
/// memcpy-style fork rather than a replay.
#[derive(Clone)]
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    wheel: Wheel,
    /// Payload arena indexed by [`Entry::slot`]; `None` marks a free slot.
    payloads: Vec<Option<E>>,
    /// Free arena slots, reused before the arena grows.
    free: Vec<u32>,
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
            wheel: Wheel::new(),
            payloads: Vec::new(),
            free: Vec::new(),
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

    /// Number of events still queued. O(1): every occupied arena slot is
    /// one pending event.
    pub fn pending(&self) -> usize {
        self.payloads.len() - self.free.len()
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
        let slot = match self.free.pop() {
            Some(slot) => {
                self.payloads[slot as usize] = Some(payload);
                slot
            }
            None => {
                let len = self.payloads.len();
                // lint: allow(P02, reason = "capacity guard: 2^32 pending events means a runaway schedule loop")
                let slot = u32::try_from(len).expect("more than u32::MAX pending events");
                // lint: allow(Q01, reason = "the arena reuses freed slots via the free list; growth tracks peak pending events")
                self.payloads.push(Some(payload));
                slot
            }
        };
        self.wheel.insert(Entry { at, seq, slot });
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
        if self.wheel.ready.is_empty() && !self.wheel.promote_earliest() {
            return None;
        }
        let entry = self.wheel.ready.pop_front()?;
        let payload = self.payloads[entry.slot as usize]
            .take()
            .expect("wheel entry without payload");
        self.free.push(entry.slot);
        debug_assert!(entry.at >= self.now, "time went backwards");
        self.now = entry.at;
        self.processed += 1;
        Some(payload)
    }

    /// Peeks at the next event — timestamp and a borrow of its payload —
    /// without firing it. A pure read: the step loop uses it to decide
    /// whether the *next* event is a branch point (e.g. a fault injection)
    /// worth snapshotting before.
    ///
    /// Without a ready entry the minimum lies in the earliest occupied
    /// slot: levels are strictly layered in time, and within a level slot
    /// index order is time order (the argument `promote_earliest` uses).
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        let entry = match self.wheel.ready.front() {
            Some(entry) => entry,
            None => {
                let (level, slot) = self.wheel.earliest_slot()?;
                self.wheel.levels[level * LEVEL_SLOTS + slot]
                    .iter()
                    .min_by_key(|e| (e.at, e.seq))?
            }
        };
        let payload = self.payloads[entry.slot as usize]
            .as_ref()
            .expect("wheel entry without payload");
        Some((entry.at, payload))
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

    /// Ties must survive a cascade: events scheduled at the same distant
    /// tick start out in a coarse slot together with differently-timed
    /// neighbours and are only separated (and seq-ordered) as the wheel
    /// promotes them level by level.
    #[test]
    fn ties_fire_in_insertion_order_across_cascades() {
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

    /// Long-horizon schedules exercise every wheel level; order must hold
    /// across widely spread timestamps, including the top levels.
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

    /// The arena must stay bounded by peak concurrency, not total events:
    /// popped slots are reused through the free list.
    #[test]
    fn payload_arena_stays_bounded_under_churn() {
        let mut e: Engine<u64> = Engine::new(0);
        e.schedule_at(SimTime::from_micros(1), 0);
        for i in 0..10_000u64 {
            e.schedule_at(SimTime::from_micros(i + 2), i);
            e.pop();
        }
        assert_eq!(e.pending(), 1);
        assert!(
            e.payloads.len() <= 2,
            "arena grew to {} slots under serial churn",
            e.payloads.len()
        );
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

    /// Property test: the wheel against a reference model with the binary
    /// heap's ordering semantics — a sorted `(time, seq)` list. Random
    /// interleavings of schedule / pop / peek / clone-restore must produce
    /// the identical pop sequence, tie-breaks included, and identical O(1)
    /// pending counts throughout.
    #[test]
    fn wheel_matches_reference_heap_model() {
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
                    // Schedule at a horizon spanning several wheel levels;
                    // small ranges force frequent exact-time ties.
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
