//! Parallel deterministic sweep runner.
//!
//! Fans independent pieces of work (chaos seeds, for the `chaos-sweep`
//! binary and the benchmark's `chaos_sweep` workload) out to a
//! scoped-thread worker pool and hands results back **in input order**, so
//! everything derived from a sweep — printed progress, the exit code, the
//! minimized-schedule artifact — is byte-identical to a serial run.
//! Determinism comes from two properties:
//!
//! 1. each work item runs against its own isolated [`World`]-building
//!    closure (workers share nothing but the claim counter), and
//! 2. results are *consumed* strictly in input order on the calling
//!    thread, regardless of the order workers finish in.
//!
//! Worker scheduling (which thread runs which seed, and when) is the only
//! nondeterministic part, and it is unobservable: it can change wall-clock
//! timing but never the consumed sequence. `--jobs 1` takes a lock-free
//! inline path that is trivially identical to the old serial loop; the
//! threaded path is identical by the order-restoring merge.
//!
//! Everything here is std-only: [`std::thread::scope`] workers, one
//! mutex-guarded ring of result slots, and a condvar for both
//! backpressure (workers stay at most `2 × jobs` items ahead of the
//! consumer, bounding memory and wasted work after an early stop) and
//! result hand-off.
//!
//! [`World`]: crate::world::World

use std::ops::ControlFlow;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Default worker count for sweeps: the machine's available parallelism,
/// falling back to 1 when it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Shared sweep state: a ring of result slots plus the claim/consume
/// cursors. Slot `i % window` may only be reused once result `i` has been
/// consumed, which the claim condition (`claimed < consumed + window`)
/// guarantees.
struct State<T> {
    slots: Vec<Option<T>>,
    claimed: usize,
    consumed: usize,
    stop: bool,
}

fn lock<'a, T>(m: &'a Mutex<State<T>>) -> MutexGuard<'a, State<T>> {
    // A worker panic (propagated by the scope after join) is the real
    // report; poisoning must not deadlock the teardown path.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sets `stop` and wakes everyone when dropped while armed — used so a
/// panicking worker (or consumer) releases the other side instead of
/// deadlocking; `std::thread::scope` then joins and re-raises the panic.
struct StopGuard<'a, T> {
    state: &'a Mutex<State<T>>,
    cv: &'a Condvar,
    armed: bool,
}

impl<T> Drop for StopGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            lock(self.state).stop = true;
            self.cv.notify_all();
        }
    }
}

/// Runs `run(seed)` for every seed in `start..start + count` on a pool of
/// `jobs` scoped worker threads and feeds each result to `consume` in
/// ascending seed order on the calling thread.
///
/// `consume` returning [`ControlFlow::Break`] stops the sweep early:
/// workers quit at the next claim, in-flight seeds finish but are
/// discarded, and the break value is returned. A completed sweep returns
/// `None`.
///
/// With `jobs <= 1` this degenerates to the plain serial loop (no
/// threads, no locks); with any `jobs` value the `consume` call sequence
/// is identical, which is what makes parallel sweeps byte-equivalent to
/// serial ones.
///
/// # Panics
///
/// Panics if `count` does not fit in `usize` (only reachable on targets
/// narrower than 64 bits): the parallel path indexes per-seed slots in
/// memory, so a >4G-seed sweep on a 32-bit host must be split by the
/// caller rather than silently truncated.
pub fn sweep<T, B>(
    start: u64,
    count: u64,
    jobs: usize,
    run: impl Fn(u64) -> T + Sync,
    mut consume: impl FnMut(u64, T) -> ControlFlow<B>,
) -> Option<B>
where
    T: Send,
{
    if jobs <= 1 || count <= 1 {
        for seed in start..start.saturating_add(count) {
            if let ControlFlow::Break(b) = consume(seed, run(seed)) {
                return Some(b);
            }
        }
        return None;
    }

    let total = checked_seed_total(count);
    let window = jobs.saturating_mul(2).min(total).max(1);
    let state = Mutex::new(State {
        slots: (0..window).map(|_| None).collect(),
        claimed: 0,
        consumed: 0,
        stop: false,
    });
    let cv = Condvar::new();
    let mut out = None;

    std::thread::scope(|s| {
        for _ in 0..jobs.min(total) {
            s.spawn(|| {
                let mut guard = StopGuard {
                    state: &state,
                    cv: &cv,
                    armed: true,
                };
                loop {
                    let idx = {
                        let mut st = lock(&state);
                        loop {
                            if st.stop || st.claimed == total {
                                guard.armed = false;
                                return;
                            }
                            if st.claimed < st.consumed + window {
                                break;
                            }
                            st = cv.wait(st).unwrap_or_else(|e| e.into_inner());
                        }
                        let i = st.claimed;
                        st.claimed += 1;
                        i
                    };
                    let value = run(start + idx as u64);
                    let mut st = lock(&state);
                    st.slots[idx % window] = Some(value);
                    cv.notify_all();
                }
            });
        }

        let guard = StopGuard {
            state: &state,
            cv: &cv,
            armed: true,
        };
        'consume: for i in 0..total {
            let value = {
                let mut st = lock(&state);
                loop {
                    if let Some(v) = st.slots[i % window].take() {
                        st.consumed = i + 1;
                        cv.notify_all();
                        break v;
                    }
                    if st.stop {
                        // A worker died before filling this slot; bail out
                        // and let the scope join re-raise its panic.
                        break 'consume;
                    }
                    st = cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            if let ControlFlow::Break(b) = consume(start + i as u64, value) {
                out = Some(b);
                break;
            }
        }
        // Normal teardown doubles as the early-stop signal; leaving the
        // guard armed is exactly the broadcast we want.
        drop(guard);
    });
    out
}

/// Converts a sweep's seed count into the in-memory work-list length the
/// parallel path indexes by. Refusing (rather than clamping to
/// `usize::MAX`, as this used to) is deliberate: a silent clamp on a
/// 32-bit target would quietly run fewer seeds than asked for and report
/// statistics over the truncated set. See
/// [`seed_count_fits_pointer_width`] for the decision logic.
fn checked_seed_total(count: u64) -> usize {
    assert!(
        seed_count_fits_pointer_width(count, usize::MAX as u128),
        "sweep seed count {count} exceeds usize::MAX on this target; split the sweep into smaller ranges"
    );
    count as usize
}

/// Whether a `count`-seed sweep fits a target whose `usize::MAX` is
/// `usize_max`. Factored out (with the width as a parameter) so the
/// 32-bit refusal is unit-testable from a 64-bit host.
fn seed_count_fits_pointer_width(count: u64, usize_max: u128) -> bool {
    u128::from(count) <= usize_max
}

/// Distribution summary of one integer metric across the seeds of a
/// sweep: minimum, nearest-rank median and p99, and maximum. Used to
/// aggregate per-seed [`MetricsReport`](ignem_simcore::metrics::MetricsReport)
/// totals (and any other per-seed counter) into one line per metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedStat {
    /// Smallest observed value.
    pub min: u64,
    /// Median: the true middle value for odd sample sizes, the upper of
    /// the two middle values for even ones.
    pub p50: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Largest observed value.
    pub max: u64,
}

impl SeedStat {
    /// Summarizes `values` (one per seed). Sorts a copy; the input order
    /// does not matter. Returns the default (all zeros) for an empty
    /// slice.
    ///
    /// The median takes the *upper* middle value on even sample sizes
    /// (`sorted[n / 2]`, zero-indexed). The previous nearest-rank
    /// `ceil(n/2)` formula took the lower middle, which degenerates for a
    /// two-element sample: p50 of `[10, 2]` came out as 2 — the minimum —
    /// so a sweep over two seeds reported min == p50 unconditionally.
    /// With the upper-middle convention at least half the sample is `<=
    /// p50` and the two-seed median is no longer pinned to the minimum.
    pub fn from_values(values: &[u64]) -> SeedStat {
        if values.is_empty() {
            return SeedStat::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = |q_num: usize, q_den: usize| {
            // Nearest-rank: ceil(q * n) clamped to [1, n], 1-indexed.
            let n = sorted.len();
            let r = (q_num * n).div_ceil(q_den).clamp(1, n);
            sorted[r - 1]
        };
        SeedStat {
            min: sorted[0],
            p50: sorted[sorted.len() / 2],
            p99: rank(99, 100),
            max: sorted[sorted.len() - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects the exact consume sequence a sweep produces.
    fn consumed_sequence(jobs: usize, start: u64, count: u64) -> (Vec<(u64, u64)>, Option<u64>) {
        let mut seen = Vec::new();
        let broke = sweep(
            start,
            count,
            jobs,
            |seed| seed * 10 + 1,
            |seed, v| {
                seen.push((seed, v));
                ControlFlow::<u64>::Continue(())
            },
        );
        (seen, broke)
    }

    #[test]
    fn serial_and_parallel_consume_identically() {
        let serial = consumed_sequence(1, 7, 64);
        for jobs in [2, 3, 8] {
            assert_eq!(consumed_sequence(jobs, 7, 64), serial, "jobs={jobs}");
        }
        assert_eq!(serial.0.len(), 64);
        assert_eq!(serial.0[0], (7, 71));
        assert!(serial.1.is_none());
    }

    #[test]
    fn early_break_returns_value_and_stops_in_order() {
        for jobs in [1, 4] {
            let mut seen = Vec::new();
            let broke = sweep(
                0,
                100,
                jobs,
                |seed| seed,
                |seed, v| {
                    seen.push(v);
                    if seed == 5 {
                        ControlFlow::Break(format!("stop at {seed}"))
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(broke.as_deref(), Some("stop at 5"), "jobs={jobs}");
            assert_eq!(seen, vec![0, 1, 2, 3, 4, 5], "jobs={jobs}");
        }
    }

    #[test]
    fn crash_enabled_chaos_outcomes_identical_serial_and_pooled() {
        // The synthetic tests above prove the consume *sequence* matches;
        // this one proves it for the real payload: full crash-enabled
        // chaos verification runs, fingerprints and all, are
        // byte-identical between the `--jobs 1` inline loop and the
        // bounded-ring thread pool.
        use crate::chaos::{fingerprint, run_chaos, ChaosConfig};
        let outcome = |seed: u64| {
            let cfg = ChaosConfig {
                seed,
                crashes: 1,
                ..ChaosConfig::default()
            };
            let report = run_chaos(&cfg);
            (
                fingerprint(&report.metrics),
                report.metrics.crashes,
                report.check_invariants().is_ok(),
            )
        };
        let collect = |jobs: usize| {
            let mut seen = Vec::new();
            sweep(0, 8, jobs, outcome, |seed, v| {
                seen.push((seed, v));
                ControlFlow::<()>::Continue(())
            });
            seen
        };
        let serial = collect(1);
        assert_eq!(collect(4), serial);
        assert!(serial.iter().all(|(_, (_, _, ok))| *ok), "invariants");
        assert!(
            serial.iter().any(|(_, (_, crashes, _))| *crashes > 0),
            "no crash landed in the sweep range"
        );
    }

    #[test]
    fn empty_and_single_item_sweeps_work() {
        assert_eq!(consumed_sequence(4, 3, 0), (vec![], None));
        assert_eq!(consumed_sequence(4, 3, 1), (vec![(3, 31)], None));
    }

    #[test]
    fn seed_stat_percentiles() {
        // 1..=100 (even n): p50 is the upper middle (51st value), p99 the
        // nearest-rank 99th.
        let values: Vec<u64> = (1..=100).rev().collect();
        let s = SeedStat::from_values(&values);
        assert_eq!(s.min, 1);
        assert_eq!(s.p50, 51);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        // Odd n: the true median.
        let odd: Vec<u64> = (1..=7).collect();
        assert_eq!(SeedStat::from_values(&odd).p50, 4);
    }

    #[test]
    fn seed_stat_small_and_empty_inputs() {
        assert_eq!(SeedStat::from_values(&[]), SeedStat::default());
        let one = SeedStat::from_values(&[7]);
        assert_eq!((one.min, one.p50, one.p99, one.max), (7, 7, 7, 7));
        // Regression: the lower-middle formula made the two-sample median
        // collapse onto the minimum; it must be the upper middle.
        let two = SeedStat::from_values(&[10, 2]);
        assert_eq!((two.min, two.p50, two.p99, two.max), (2, 10, 10, 10));
    }

    /// Pins the refusal decision for seed counts wider than the target's
    /// pointer width (the parallel path indexes per-seed slots in memory,
    /// so clamping would silently truncate a >4G-seed sweep on 32-bit).
    #[test]
    fn seed_count_overflow_is_refused_not_clamped() {
        let five_g = 5_000_000_000u64;
        // Fits a 64-bit host, refused on a 32-bit one.
        assert!(seed_count_fits_pointer_width(five_g, u64::MAX as u128));
        assert!(!seed_count_fits_pointer_width(five_g, u32::MAX as u128));
        assert!(seed_count_fits_pointer_width(
            u64::from(u32::MAX),
            u32::MAX as u128
        ));
        // On this host the conversion itself must round-trip exactly.
        assert_eq!(checked_seed_total(123_456), 123_456usize);
    }
}
