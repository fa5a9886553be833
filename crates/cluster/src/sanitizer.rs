//! Runtime determinism sanitizer: double-run a world, compare the two
//! telemetry event streams record by record, and report the first
//! differing event.
//!
//! The static rules in `ignem-lint` ban the *patterns* that break
//! same-seed replay; this module checks the *property* itself at runtime.
//! [`double_run_forked`] runs two worlds built by the same closure and
//! [`first_divergence`] finds the first record at which their streams
//! differ, so a CI failure reports *the* first diverging event seq instead
//! of "streams differ". [`hash_chain`] folds a stream into one FNV-1a
//! hash chained over the events' canonical JSON ([`EventRecord::to_json`]
//! is float-free, so the hash is bit-stable across platforms); the golden
//! stream pins compare it.
//!
//! The flight recorder is a bounded ring, so both runs use the same
//! capacity; a nonzero eviction count is reported rather than silently
//! shortening the compared window.

use ignem_simcore::telemetry::{EventRecord, FlightRecorder};

use crate::explain::TelemetryReport;
use crate::metrics::RunMetrics;
use crate::world::World;

/// 64-bit FNV-1a offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds `bytes` into the 64-bit FNV-1a state `h`.
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The hash chain of an event stream: FNV-1a over every event's
/// canonical JSON, in stream order, so it commits to the whole stream (the
/// offset basis for an empty one).
pub fn hash_chain(events: &[EventRecord]) -> u64 {
    events
        .iter()
        .fold(FNV_OFFSET, |h, rec| fnv1a(h, rec.to_json().as_bytes()))
}

/// The first point where two event streams disagree.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// 0-based position of the first differing event.
    pub index: usize,
    /// The event at `index` in the first run (`None` if that stream
    /// ended there).
    pub first: Option<EventRecord>,
    /// The event at `index` in the second run (`None` if that stream
    /// ended there).
    pub second: Option<EventRecord>,
    /// How many events the streams share before diverging (== `index`).
    pub common_len: usize,
}

impl Divergence {
    /// The telemetry seq of the first diverging event, preferring the
    /// first run's stream (they agree on every seq before this point).
    pub fn seq(&self) -> Option<u64> {
        self.first
            .as_ref()
            .or(self.second.as_ref())
            .map(|rec| rec.seq)
    }

    /// Renders the divergence for humans: the last events of the common
    /// prefix, the two competing events, and the explainer's view of the
    /// agreed-upon history (so the diverging step lands in context — what
    /// had already won or lost its migration race when the runs split).
    pub fn describe(&self, common_prefix: &[EventRecord]) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "determinism divergence at event index {} (seq {:?})\n",
            self.index,
            self.seq()
        ));
        let tail_start = common_prefix.len().saturating_sub(3);
        for rec in &common_prefix[tail_start..] {
            s.push_str(&format!("  … common: {}\n", rec.to_json()));
        }
        match &self.first {
            Some(rec) => s.push_str(&format!("  run A:    {}\n", rec.to_json())),
            None => s.push_str("  run A:    <stream ended>\n"),
        }
        match &self.second {
            Some(rec) => s.push_str(&format!("  run B:    {}\n", rec.to_json())),
            None => s.push_str("  run B:    <stream ended>\n"),
        }
        let report = TelemetryReport::from_events(common_prefix);
        s.push_str(&format!(
            "  context:  {} verdicts before divergence ({} won, {} lost), {} leak(s)\n",
            report.verdicts.len(),
            report.won(),
            report.lost(),
            report.leaked.len()
        ));
        s
    }
}

/// Finds the first event at which two streams differ, or `None` if they
/// are identical. A stream that ends early diverges where it ends.
pub fn first_divergence(a: &[EventRecord], b: &[EventRecord]) -> Option<Divergence> {
    let index = a
        .iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    if index == a.len() && index == b.len() {
        return None;
    }
    Some(Divergence {
        index,
        first: a.get(index).cloned(),
        second: b.get(index).cloned(),
        common_len: index,
    })
}

/// The outcome of a sanitizer double-run.
#[derive(Debug)]
pub struct DoubleRun {
    /// Metrics of the first run.
    pub metrics_a: RunMetrics,
    /// Metrics of the second run.
    pub metrics_b: RunMetrics,
    /// First run's event stream.
    pub events_a: Vec<EventRecord>,
    /// Second run's event stream.
    pub events_b: Vec<EventRecord>,
    /// Ring-buffer evictions in either run (should be zero for a valid
    /// comparison; a truncated window can mask an early divergence).
    pub dropped: (u64, u64),
    /// The first divergence, if any.
    pub divergence: Option<Divergence>,
}

impl DoubleRun {
    /// Whether the two runs produced bit-identical event streams with no
    /// recorder eviction.
    pub fn is_deterministic(&self) -> bool {
        self.divergence.is_none() && self.dropped == (0, 0)
    }

    /// Human-readable verdict; [`Divergence::describe`] with the real
    /// common prefix when the runs split.
    pub fn describe(&self) -> String {
        match &self.divergence {
            None if self.dropped == (0, 0) => format!(
                "deterministic: {} events, streams bit-identical",
                self.events_a.len()
            ),
            None => format!(
                "streams equal but recorder evicted {}/{} events — widen the capacity",
                self.dropped.0, self.dropped.1
            ),
            Some(d) => d.describe(&self.events_a[..d.common_len]),
        }
    }
}

/// A [`DoubleRun`] produced by [`double_run_forked`], plus the outcome of
/// the snapshot-forked suffix re-check.
#[derive(Debug)]
pub struct ForkedDoubleRun {
    /// The ordinary double-run comparison.
    pub run: DoubleRun,
    /// Emitted-event index of the snapshot the fork restored: the latest
    /// snapshot at or before the divergence (or before the stream's end
    /// when the runs agree — the re-check then audits snapshot
    /// equivalence on the final window).
    pub fork_at: usize,
    /// How many events the forked suffix re-simulated; everything before
    /// `fork_at` was *not* re-run.
    pub resimulated: usize,
    /// Whether the forked suffix reproduced run A's tail bit-for-bit.
    /// `false` here means the divergence is not stable under replay from
    /// the snapshot — i.e. the nondeterminism lives in state the snapshot
    /// captures, which localizes the bug to the suffix window.
    pub suffix_consistent: bool,
}

/// Builds a world twice with `build`, runs both with `capacity`-event
/// flight recorders, and compares the telemetry streams step by step.
///
/// `build` must be a pure function of its captured configuration — any
/// divergence between the two runs is, by construction, nondeterminism in
/// the simulator (or in the builder), which is exactly what this check
/// exists to catch.
///
/// Run A is driven step by step with a [`World::snapshot`] taken every
/// `stride` emitted events. When the two streams diverge, the checker does
/// **not** replay run A from `t = 0` to study the split: it restores the
/// latest snapshot at or before the diverging event and re-simulates only
/// the suspect suffix, confirming the suffix reproduces run A's tail
/// (snapshot equivalence). When the runs agree, the same re-check audits
/// the final window so the equivalence property is exercised on every
/// invocation.
///
/// # Panics
///
/// Panics if `stride` is zero.
pub fn double_run_forked<F>(build: F, capacity: usize, stride: usize) -> ForkedDoubleRun
where
    F: Fn() -> World,
{
    assert!(stride > 0, "snapshot stride must be at least one event");
    let recorder = FlightRecorder::new(capacity);
    let mut world = build().with_telemetry(Box::new(recorder.clone()));
    let mut snaps = vec![(0usize, world.snapshot())];
    let mut next_mark = stride;
    while world.step() {
        let emitted = world.telemetry_cursor().map_or(0, |(_, seq)| seq) as usize;
        if emitted >= next_mark {
            snaps.push((emitted, world.snapshot()));
            next_mark = emitted + stride;
        }
    }
    let metrics_a = world.finalize_mut();
    let events_a = recorder.events();
    let dropped_a = recorder.dropped();

    let (metrics_b, events_b, dropped_b) = build().run_recorded(capacity);
    let divergence = first_divergence(&events_a, &events_b);

    // Fork target: the divergence when there is one, else the end of the
    // stream. Restore the latest snapshot at or before it that still
    // leaves a nonempty suffix to re-simulate.
    let target = divergence
        .as_ref()
        .map_or(events_a.len(), |d| d.index)
        .min(events_a.len());
    let (fork_at, snap) = snaps
        .iter()
        .rev()
        .find(|(emitted, _)| *emitted <= target && *emitted < events_a.len().max(1))
        .unwrap_or(&snaps[0]);
    let fork_at = *fork_at;

    world.restore(snap);
    let fork_rec = FlightRecorder::new(capacity);
    world.swap_recorder(Box::new(fork_rec.clone()));
    world.run_to_end();
    let _ = world.finalize_mut();
    let suffix = fork_rec.events();
    let suffix_consistent =
        fork_rec.dropped() == 0 && first_divergence(&events_a[fork_at..], &suffix).is_none();

    ForkedDoubleRun {
        run: DoubleRun {
            metrics_a,
            metrics_b,
            events_a,
            events_b,
            dropped: (dropped_a, dropped_b),
            divergence,
        },
        fork_at,
        resimulated: suffix.len(),
        suffix_consistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignem_simcore::telemetry::Event;
    use ignem_simcore::time::SimTime;

    fn rec(seq: u64, at_us: u64, node: u32) -> EventRecord {
        EventRecord {
            seq,
            at: SimTime::from_micros(at_us),
            event: Event::MigrationEnqueued {
                node,
                job: 1,
                block: 7,
                bytes: 64,
            },
        }
    }

    #[test]
    fn identical_streams_have_no_divergence() {
        let a: Vec<EventRecord> = (0..100).map(|i| rec(i, i * 10, 1)).collect();
        assert!(first_divergence(&a, &a.clone()).is_none());
        assert!(first_divergence(&[], &[]).is_none());
    }

    #[test]
    fn injected_divergence_is_found_at_its_exact_seq() {
        let a: Vec<EventRecord> = (0..500).map(|i| rec(i, i * 10, 1)).collect();
        for inject_at in [0usize, 1, 250, 499] {
            let mut b = a.clone();
            // Artificial divergence: same seq, different payload.
            b[inject_at] = rec(inject_at as u64, inject_at as u64 * 10, 9);
            let d = first_divergence(&a, &b).expect("must diverge");
            assert_eq!(d.index, inject_at, "first diverging index");
            assert_eq!(d.seq(), Some(inject_at as u64), "first diverging seq");
            assert_eq!(d.common_len, inject_at);
        }
    }

    #[test]
    fn truncated_stream_diverges_at_the_cut() {
        let a: Vec<EventRecord> = (0..50).map(|i| rec(i, i * 10, 1)).collect();
        let b = a[..37].to_vec();
        let d = first_divergence(&a, &b).expect("length mismatch diverges");
        assert_eq!(d.index, 37);
        assert!(d.first.is_some());
        assert!(d.second.is_none());
        assert_eq!(d.seq(), Some(37));
    }

    #[test]
    fn describe_renders_context() {
        let a: Vec<EventRecord> = (0..10).map(|i| rec(i, i * 10, 1)).collect();
        let mut b = a.clone();
        b[6] = rec(6, 60, 2);
        let d = first_divergence(&a, &b).expect("diverges");
        let text = d.describe(&a[..d.common_len]);
        assert!(text.contains("divergence at event index 6"));
        assert!(text.contains("run A:"));
        assert!(text.contains("run B:"));
        assert!(text.contains("context:"));
    }
}
