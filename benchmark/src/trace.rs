//! Spans recorded from the benchmark's side of the simulator's public API.
//!
//! Every unit of work gets a [`UnitTrace`]; [`UnitTrace::call`] wraps one
//! public call (`World::new`, `finalize_mut`, an observability fold, …)
//! and [`UnitTrace::step_loop`] wraps a `World::step` loop, adding one
//! aggregate child span per event kind from the `HostProfiler` buckets
//! charged during that loop. The step loop's self time — its duration
//! minus its kind children — is the engine's residual: timing-wheel pops
//! plus per-event validation.
//!
//! With tracing off no clock is read inside a unit and the profiler handed
//! to worlds is the disabled one, so the untraced path runs exactly the
//! code a user's run does. The [`Tracer`] folds every unit's spans into
//! per-name totals (the per-layer metrics) and keeps the spans of a
//! sample of units in memory until [`Tracer::write_chrome`] writes them
//! out at exit.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use ignem_bench::wall_clock;
use ignem_simcore::profile::HostProfiler;

/// Pseudo unit id of spans outside any unit: set-up and the datacenter drain.
pub(crate) const WORKLOAD: u64 = u64::MAX;

/// Units whose spans are written out, at most; totals cover every unit.
const MAX_SAMPLED_UNITS: u64 = 256;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum SpanName {
    /// One public call into the simulator, or one benchmark phase.
    Call(&'static str),
    /// Aggregate handler time of one event kind within one step loop.
    Kind(&'static str),
}

/// One recorded span. Times are host nanoseconds since the tracer's
/// origin.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// What it measures.
    name: SpanName,
    /// Start, in nanoseconds since the tracer was created.
    start_ns: u64,
    /// Duration in nanoseconds.
    dur_ns: u64,
    /// Calls made (1) or, for a kind span, events handled.
    count: u64,
    /// Owning unit, or [`WORKLOAD`].
    unit: u64,
    /// Benchmark thread that recorded it.
    tid: u32,
}

/// Process-wide heap counters, read through the traced binary's counting
/// allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations made so far (reallocations included).
    pub count: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live: u64,
}

/// A copyable clock handle, so worker threads can time their own units.
#[derive(Clone, Copy)]
pub struct Clock {
    origin: Instant,
    enabled: bool,
    alloc: Option<fn() -> AllocSnapshot>,
}

impl Clock {
    /// Host nanoseconds since the tracer's origin.
    pub(crate) fn now_ns(&self) -> u64 {
        wall_clock().duration_since(self.origin).as_nanos() as u64
    }

    /// Whether spans and profiles are being recorded.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current heap counters, when a counting allocator is installed.
    pub(crate) fn alloc(&self) -> Option<AllocSnapshot> {
        self.alloc.map(|probe| probe())
    }

    /// A profiler to hand to a world: timing when tracing, disabled
    /// otherwise.
    pub(crate) fn profiler(&self) -> HostProfiler {
        if !self.enabled {
            return HostProfiler::disabled();
        }
        let clock = *self;
        HostProfiler::new(Box::new(move || clock.now_ns()))
    }

    /// Runs `f` for `unit` under a span named `name`: returns its result,
    /// its host time in nanoseconds (measured with tracing on or off) and
    /// the spans it recorded.
    pub fn timed<R>(
        &self,
        unit: u64,
        name: &'static str,
        f: impl FnOnce(&mut UnitTrace) -> R,
    ) -> (R, u64, UnitTrace) {
        let mut trace = UnitTrace {
            clock: *self,
            unit,
            spans: Vec::new(),
        };
        let start = self.now_ns();
        let out = f(&mut trace);
        let ns = self.now_ns() - start;
        trace.push(SpanName::Call(name), start, ns, 1);
        (out, ns, trace)
    }
}

/// The spans of one unit of work, recorded on whichever thread runs it.
pub struct UnitTrace {
    clock: Clock,
    unit: u64,
    spans: Vec<Span>,
}

impl UnitTrace {
    fn push(&mut self, name: SpanName, start_ns: u64, dur_ns: u64, count: u64) {
        if self.clock.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                dur_ns,
                count,
                unit: self.unit,
                tid: thread_id(),
            });
        }
    }

    /// Runs `f` as one call span named `name`.
    pub(crate) fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.clock.enabled {
            return f();
        }
        let start = self.clock.now_ns();
        let out = f();
        let dur = self.clock.now_ns() - start;
        self.push(SpanName::Call(name), start, dur, 1);
        out
    }

    /// Runs a step loop `f` as a `world.run` span and adds, laid end to
    /// end from the loop's start, one child span per event kind carrying
    /// the handler time `profiler` charged to that kind during the loop.
    pub(crate) fn step_loop<R>(&mut self, profiler: &HostProfiler, f: impl FnOnce() -> R) -> R {
        if !self.clock.enabled {
            return f();
        }
        let before = profiler.report();
        let start = self.clock.now_ns();
        let out = f();
        let dur = self.clock.now_ns() - start;
        self.push(SpanName::Call("world.run"), start, dur, 1);
        let mut at = start;
        for (kind, after) in profiler.report() {
            let prev = before
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, b)| *b)
                .unwrap_or_default();
            let (events, nanos) = (after.count - prev.count, after.nanos - prev.nanos);
            if events > 0 {
                self.push(SpanName::Kind(kind), at, nanos, events);
                at += nanos;
            }
        }
        out
    }
}

/// A small dense id per benchmark thread, for the trace's `tid` lanes.
fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// Summed duration and count of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Total {
    /// Summed host nanoseconds.
    pub(crate) ns: u64,
    /// Summed calls (or, for kinds, events).
    pub(crate) count: u64,
}

/// Collects the spans of a run: totals by name over every unit, the spans
/// themselves for a sample of units, and traced-only heap observations.
pub struct Tracer {
    clock: Clock,
    stride: u64,
    spans: Vec<Span>,
    totals: BTreeMap<SpanName, Total>,
    /// Heap bytes held by one freshly built world (set-up's last build).
    pub world_resident_bytes: u64,
    /// Allocations and bytes requested during the measured units.
    pub measured_alloc: (u64, u64),
}

impl Tracer {
    /// A tracer recording spans when `enabled`, reading heap counters
    /// through `alloc` when given.
    pub fn new(enabled: bool, alloc: Option<fn() -> AllocSnapshot>) -> Tracer {
        Tracer {
            clock: Clock {
                origin: wall_clock(),
                enabled,
                alloc,
            },
            stride: 1,
            spans: Vec::new(),
            totals: BTreeMap::new(),
            world_resident_bytes: 0,
            measured_alloc: (0, 0),
        }
    }

    /// The tracer's clock handle.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Keeps spans for every `k`-th unit so that at most 256 of `units`
    /// are written out.
    pub(crate) fn sample_units(&mut self, units: u64) {
        self.stride = units.div_ceil(MAX_SAMPLED_UNITS).max(1);
    }

    /// Folds a finished unit's spans into the totals and keeps them when
    /// the unit is sampled.
    pub(crate) fn absorb(&mut self, unit: UnitTrace) {
        for s in &unit.spans {
            self.add(s.name, s.dur_ns, s.count);
        }
        if unit.unit == WORKLOAD || unit.unit.is_multiple_of(self.stride) {
            self.spans.extend(unit.spans);
        }
    }

    /// Adds host time measured outside any span to `name`'s total.
    pub(crate) fn add(&mut self, name: SpanName, ns: u64, count: u64) {
        let t = self.totals.entry(name).or_default();
        t.ns += ns;
        t.count += count;
    }

    /// The total of every span named `name`.
    pub(crate) fn total(&self, name: SpanName) -> Total {
        self.totals.get(&name).copied().unwrap_or_default()
    }

    /// Every event kind the profilers charged handler time to.
    pub(crate) fn kinds(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.totals.keys().filter_map(|name| match name {
            SpanName::Kind(kind) => Some(*kind),
            SpanName::Call(_) => None,
        })
    }

    /// Writes the kept spans as Chrome trace-event JSON (loadable in
    /// <https://ui.perfetto.dev>), one complete event per span.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut spans = self.spans.clone();
        // Parents before the children they contain: same lane, earlier
        // start, and longer first on a shared start.
        spans.sort_by_key(|s| (s.tid, s.start_ns, std::cmp::Reverse(s.dur_ns)));
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        for (i, s) in spans.iter().enumerate() {
            let (name, cat) = match s.name {
                SpanName::Call(n) => (n.to_string(), "call"),
                SpanName::Kind(k) => (format!("dispatch.{k}"), "kind"),
            };
            let unit = if s.unit == WORKLOAD {
                "\"workload\"".to_string()
            } else {
                s.unit.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"unit\":{unit},\"count\":{}}}}}{}",
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.tid,
                s.count,
                if i + 1 < spans.len() { "," } else { "" },
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}
