//! Metric assembly and output.
//!
//! Both binaries print one `name value unit` line per metric (with the
//! sample count `n=` beside timings that are order statistics) and then,
//! as the last line of standard output, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.

use crate::stats::{median, percentile};
use crate::trace::{SpanName, Tracer};
use crate::workloads::Outcome;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count behind an order statistic.
    pub n: Option<usize>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        n: None,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run; `peak_rss_mb` is the
/// process's `VmHWM`.
pub fn end_to_end(out: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let ns = out.sorted_unit_ns();
    let mut setup = out.setup_ns.clone();
    setup.sort_unstable();
    let n = Some(ns.len());
    vec![
        metric("work_s", ns.iter().sum::<u64>() as f64 / 1e9, "s"),
        Metric {
            n,
            ..metric("unit_ms_p50", median(&ns) as f64 / 1e6, "ms")
        },
        Metric {
            n,
            ..metric("unit_ms_p90", percentile(&ns, 90) as f64 / 1e6, "ms")
        },
        Metric {
            n: Some(setup.len()),
            ..metric("setup_s", median(&setup) as f64 / 1e9, "s")
        },
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Every `World` event kind (`Event::kind_name`) and the module whose
/// code its handler mostly runs.
const KINDS: [(&str, &str); 26] = [
    ("submit", "compute"),
    ("queued", "compute"),
    ("heartbeat", "compute"),
    ("heartbeat_sweep", "compute"),
    ("arrival", "compute"),
    ("task_launched", "compute"),
    ("task_compute_done", "compute"),
    ("disk_timer", "storage"),
    ("ram_timer", "storage"),
    ("net_timer", "netsim"),
    ("rpc_timeout", "netsim"),
    ("deliver_migrates", "ignem"),
    ("deliver_evict", "ignem"),
    ("deliver_ack", "ignem"),
    ("liveness_query", "ignem"),
    ("liveness_reply", "ignem"),
    ("lease_check", "ignem"),
    ("cleanup_sweep", "ignem"),
    ("inject", "faults"),
    ("node_resume", "faults"),
    ("disk_restore", "faults"),
    ("partition_heal", "faults"),
    ("node_restart", "faults"),
    ("deliver_register", "faults"),
    ("register_retry", "faults"),
    ("rerep_retry", "faults"),
];

/// The modules [`KINDS`] maps event kinds to.
const MODULES: [&str; 5] = ["netsim", "compute", "storage", "ignem", "faults"];

/// The per-layer metrics of a traced run: `plain` is the same work run
/// untraced in the same process, `traced` the traced run and `tracer`
/// its spans.
pub fn per_layer(plain: &Outcome, traced: &Outcome, tracer: &Tracer) -> Vec<Metric> {
    let wall = traced.wall_ns as f64;
    let events = traced.events() as f64;
    let units = traced.units.len() as f64;
    let share = |ns: u64| 100.0 * ratio(ns as f64, wall);
    let call = |name| tracer.total(SpanName::Call(name));
    let mean_ms = |name| {
        let t = call(name);
        ratio(t.ns as f64, t.count as f64) / 1e6
    };
    let mut out = Vec::new();

    let mut handled = 0;
    for (kind, _) in KINDS {
        let t = tracer.total(SpanName::Kind(kind));
        handled += t.ns;
        out.push(metric(
            format!("cluster.dispatch.{kind}.count"),
            t.count as f64,
            "count",
        ));
        out.push(metric(
            format!("cluster.dispatch.{kind}.share"),
            share(t.ns),
            "%",
        ));
    }
    for module in MODULES {
        let ns = KINDS
            .iter()
            .filter(|(_, m)| *m == module)
            .map(|(k, _)| tracer.total(SpanName::Kind(k)).ns)
            .sum();
        out.push(metric(format!("{module}.share"), share(ns), "%"));
    }

    let step_loops = call("world.run").ns;
    out.push(metric("simcore.event.events", events, "count"));
    out.push(metric(
        "simcore.event.events_per_s",
        ratio(plain.events() as f64, plain.wall_ns as f64 / 1e9),
        "1/s",
    ));
    out.push(metric(
        "simcore.event.host_ns_per_event",
        ratio(step_loops as f64, events),
        "ns",
    ));
    out.push(metric(
        "simcore.event.residual_ns_per_event",
        ratio(step_loops.saturating_sub(handled) as f64, events),
        "ns",
    ));

    out.push(metric(
        "cluster.world.build_ms",
        mean_ms("world.build"),
        "ms",
    ));
    out.push(metric("cluster.world.run_ms", mean_ms("world.run"), "ms"));
    out.push(metric(
        "cluster.world.finalize_ms",
        mean_ms("world.finalize"),
        "ms",
    ));
    out.push(metric(
        "cluster.world.resident_mb",
        tracer.world_resident_bytes as f64 / (1u64 << 20) as f64,
        "MB",
    ));
    let (allocs, bytes) = tracer.measured_alloc;
    out.push(metric(
        "alloc.count_per_event",
        ratio(allocs as f64, events),
        "count",
    ));
    out.push(metric(
        "alloc.bytes_per_event",
        ratio(bytes as f64, events),
        "B",
    ));

    out.push(metric(
        "cluster.check.us_per_unit",
        ratio(call("check").ns as f64, units) / 1e3,
        "us",
    ));
    let sim = &traced.sim;
    out.push(metric(
        "netsim.rpc.retry_ratio",
        ratio(sim.rpc_retries as f64, sim.rpc_sent as f64),
        "ratio",
    ));
    let busy: u64 = plain.units.iter().map(|u| u.ns).sum();
    out.push(metric(
        "cluster.sweep.busy_ratio",
        ratio(busy as f64, plain.jobs as f64 * plain.wall_ns as f64),
        "ratio",
    ));

    out.push(metric(
        "simcore.telemetry.records",
        sim.telemetry_records as f64,
        "count",
    ));
    for (layer, span) in [
        ("simcore.telemetry.share", "telemetry.events"),
        ("cluster.explain.fold.share", "explain.fold"),
        ("simcore.span.build.share", "span.build"),
        ("simcore.span.critical_path.share", "span.critical_path"),
        ("simcore.perfetto.export.share", "perfetto.export"),
        ("workloads.stream.share", "workloads.stream_next"),
    ] {
        out.push(metric(layer, share(call(span).ns), "%"));
    }
    out.push(metric(
        "simcore.perfetto.bytes",
        sim.perfetto_bytes as f64,
        "B",
    ));
    out.push(metric("workloads.gen_ms", mean_ms("workloads.gen"), "ms"));

    let reads = (sim.reads_memory + sim.reads_local_disk + sim.reads_remote_disk) as f64;
    out.push(metric("dfs.read.memory", sim.reads_memory as f64, "count"));
    out.push(metric(
        "dfs.read.local_disk",
        sim.reads_local_disk as f64,
        "count",
    ));
    out.push(metric(
        "dfs.read.remote_disk",
        sim.reads_remote_disk as f64,
        "count",
    ));
    out.push(metric(
        "dfs.memory_read_ratio",
        ratio(sim.reads_memory as f64, reads),
        "ratio",
    ));
    out.push(metric("ignem.slave.migrated", sim.migrated as f64, "count"));
    out.push(metric(
        "ignem.slave.wasted_ratio",
        ratio(sim.wasted as f64, sim.commands as f64),
        "ratio",
    ));
    out.push(metric(
        "cluster.recovery.reignited",
        sim.reignited as f64,
        "count",
    ));

    out.push(metric(
        "trace.overhead",
        ratio(traced.wall_ns as f64, plain.wall_ns as f64),
        "ratio",
    ));
    out.push(metric("table1_err_pts", sim.table1_err_pts, "pts"));
    let ns = plain.sorted_unit_ns();
    out.push(Metric {
        n: Some(ns.len()),
        ..metric("unit_ms_p99", percentile(&ns, 99) as f64 / 1e6, "ms")
    });
    out
}

/// Event kinds the profilers reported that [`KINDS`] does not list. Their
/// handler time would silently count as residual, so a traced run with
/// any fails.
pub fn unlisted_kinds(tracer: &Tracer) -> Vec<&'static str> {
    tracer
        .kinds()
        .filter(|kind| !KINDS.iter().any(|(k, _)| k == kind))
        .collect()
}

/// Failed units of a traced run: units that failed in either run or
/// whose events or fingerprints differ between them. The traced run must
/// also charge no more handler time than its step loops took and report
/// only event kinds [`KINDS`] lists; a run breaking either, or running a
/// different number of units, counts at least one failure.
pub fn traced_failures(plain: &Outcome, traced: &Outcome, tracer: &Tracer) -> usize {
    let units = plain
        .units
        .iter()
        .zip(&traced.units)
        .filter(|(a, b)| {
            a.failed || b.failed || a.events != b.events || a.fingerprint != b.fingerprint
        })
        .count();
    let handled: u64 = KINDS
        .iter()
        .map(|(k, _)| tracer.total(SpanName::Kind(k)).ns)
        .sum();
    let reproduced = plain.units.len() == traced.units.len()
        && handled <= tracer.total(SpanName::Call("world.run")).ns
        && unlisted_kinds(tracer).is_empty();
    if reproduced {
        units
    } else {
        units.max(1)
    }
}

/// Prints every metric as a `name value unit` line, then the result line.
pub fn print(metrics: &[Metric], correct: bool, attempted: usize, failed: usize) {
    let mut json = Vec::with_capacity(metrics.len());
    for m in metrics {
        match m.n {
            Some(n) => println!("{} {} {} n={n}", m.name, m.value, m.unit),
            None => println!("{} {} {}", m.name, m.value, m.unit),
        }
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
}

/// The process's peak resident set (`VmHWM`) in MiB, where procfs exists.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{SimCounts, Unit};

    fn outcome() -> Outcome {
        Outcome {
            units: vec![Unit {
                ns: 1,
                events: 2,
                fingerprint: 3,
                failed: false,
            }],
            wall_ns: 100,
            setup_ns: vec![1],
            jobs: 1,
            sim: SimCounts::default(),
        }
    }

    #[test]
    fn an_unlisted_event_kind_fails_the_traced_run() {
        let mut tracer = Tracer::new(true, None);
        tracer.add(SpanName::Call("world.run"), 100, 1);
        tracer.add(SpanName::Kind("heartbeat"), 40, 2);
        assert!(unlisted_kinds(&tracer).is_empty());
        assert_eq!(traced_failures(&outcome(), &outcome(), &tracer), 0);

        // A kind added to the simulator but not to KINDS: its time would
        // otherwise vanish into the residual.
        tracer.add(SpanName::Kind("new_kind"), 10, 1);
        assert_eq!(unlisted_kinds(&tracer), ["new_kind"]);
        assert_eq!(traced_failures(&outcome(), &outcome(), &tracer), 1);
    }

    #[test]
    fn handler_time_beyond_the_step_loops_fails_the_traced_run() {
        let mut tracer = Tracer::new(true, None);
        tracer.add(SpanName::Call("world.run"), 100, 1);
        tracer.add(SpanName::Kind("net_timer"), 101, 5);
        assert_eq!(traced_failures(&outcome(), &outcome(), &tracer), 1);
    }
}
