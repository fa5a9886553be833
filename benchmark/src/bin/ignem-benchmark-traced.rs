//! Runs one workload untraced and then traced, prints the per-layer
//! metrics and writes the traced run's spans as Chrome trace-event JSON.
//!
//! ```text
//! ignem-benchmark-traced --workload paper8 [--seed N] [--seconds S] [--spans-out PATH]
//! ```
//!
//! Both runs share this binary's counting allocator, so `trace.overhead`
//! isolates the spans and the profiler.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use ignem_benchmark::report;
use ignem_benchmark::trace::{AllocSnapshot, Tracer};
use ignem_benchmark::workloads::{self, Plan};
use ignem_benchmark::{Args, USAGE};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and bytes. The counters are
/// statistics that publish no other data, hence `Relaxed`.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only read
// `layout.size()` and `new_size`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from
        // `System`, with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from `System` with
        // `layout`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn alloc_snapshot() -> AllocSnapshot {
    let bytes = BYTES.load(Ordering::Relaxed);
    AllocSnapshot {
        count: ALLOCS.load(Ordering::Relaxed),
        bytes,
        live: bytes.saturating_sub(FREED.load(Ordering::Relaxed)),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::full(args.workload);
    let plain = workloads::run(
        &plan,
        args.seed,
        1,
        &mut Tracer::new(false, Some(alloc_snapshot)),
    );
    let mut tracer = Tracer::new(true, Some(alloc_snapshot));
    let traced = workloads::run(&plan, args.seed, 1, &mut tracer);
    if let Some(path) = &args.spans_out {
        if let Err(e) = tracer.write_chrome(path) {
            eprintln!("could not write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let unlisted = report::unlisted_kinds(&tracer);
    if !unlisted.is_empty() {
        eprintln!("event kinds missing from the kind-to-module map: {unlisted:?}");
    }
    let failed = report::traced_failures(&plain, &traced, &tracer);
    report::print(
        &report::per_layer(&plain, &traced, &tracer),
        failed == 0,
        traced.units.len(),
        failed,
    );
    ExitCode::SUCCESS
}
