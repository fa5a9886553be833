//! Chrome trace-event JSON export for span forests and metric windows.
//!
//! Emits the legacy trace-event format (`{"traceEvents":[...]}`), which
//! Perfetto (ui.perfetto.dev) and `chrome://tracing` both open directly.
//! Spans render as complete (`ph:"X"`) duration events on per-node tracks
//! — pid 0 is the cluster/master track, pid `n+1` is node `n` — and each
//! metric window renders as a counter (`ph:"C"`) sample on the cluster
//! track. All timestamps and values are integers (micros), so the output
//! is bit-identical across runs whenever the span forest is.

use crate::idmap::IdSet;
use crate::metrics::MetricsReport;
use crate::span::SpanForest;
use crate::text::{Measure, Text};

/// Renders a span forest (and optionally a metrics report) as a Chrome
/// trace-event JSON string.
pub fn export(forest: &SpanForest, metrics: Option<&MetricsReport>) -> String {
    // Process-name metadata so Perfetto labels tracks: one per node with
    // a span, and the cluster track (pid 0).
    let mut pids = IdSet::new();
    pids.insert(0);
    for s in &forest.spans {
        pids.insert(pid(s.node));
    }
    // Measure the trace, then write it into a buffer of exactly its size.
    let mut len = Measure::default();
    write_trace(&mut len, &pids, forest, metrics);
    let mut out = String::with_capacity(len.0);
    write_trace(&mut out, &pids, forest, metrics);
    out
}

/// Writes the trace: track metadata, then spans in id order (already
/// canonical in the forest), then metric windows as counter tracks on the
/// cluster pid. Events are separated by ",\n"; the cluster track's
/// metadata always comes first.
fn write_trace(
    out: &mut impl Text,
    pids: &IdSet<u64>,
    forest: &SpanForest,
    metrics: Option<&MetricsReport>,
) {
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for pid in pids.iter() {
        if pid > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"ph\":\"M\",\"pid\":");
        out.push_int(pid);
        out.push_str(",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"");
        if pid == 0 {
            out.push_str("cluster");
        } else {
            out.push_str("node");
            out.push_int(pid - 1);
        }
        out.push_str("\"}}");
    }

    for s in &forest.spans {
        out.push_str(",\n{\"ph\":\"X\",\"pid\":");
        out.push_int(pid(s.node));
        out.push_str(",\"tid\":0,\"ts\":");
        out.push_int(s.start.as_micros());
        out.push_str(",\"dur\":");
        out.push_int(s.duration().as_micros());
        out.push_str(",\"name\":\"");
        out.push_str(s.name);
        out.push_str("\",\"cat\":\"");
        out.push_str(s.category.tag());
        out.push_str("\",\"args\":{\"span\":");
        out.push_int(s.id.0);
        out.push_str(",\"parent\":");
        out.push_int(s.parent.map(|p| p.0 as i64).unwrap_or(-1));
        out.push_str(",\"job\":");
        out.push_int(s.job);
        out.push_str(",\"block\":");
        out.push_int(s.block);
        out.push_str("}}");
    }

    if let Some(report) = metrics {
        for w in &report.windows {
            let ts = w.start_us;
            for ((name, tag), v) in &w.counters {
                counter_event(out, ts, name, *tag, *v as i64);
            }
            for ((name, tag), v) in &w.gauges {
                counter_event(out, ts, name, *tag, *v);
            }
            for ((name, tag), h) in &w.hists {
                counter_event(out, ts, name, *tag, h.count as i64);
            }
        }
    }

    out.push_str("]}\n");
}

/// The track of a span's node: pid 0 is the cluster (node `-1`), pid
/// `n + 1` is node `n`.
fn pid(node: i64) -> u64 {
    (node + 1) as u64
}

fn counter_event(out: &mut impl Text, ts: u64, name: &str, tag: u64, value: i64) {
    out.push_str(",\n{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":");
    out.push_int(ts);
    out.push_str(",\"name\":\"");
    out.push_str(name);
    out.push_str("[");
    out.push_int(tag);
    out.push_str("]\",\"args\":{\"value\":");
    out.push_int(value);
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::telemetry::{Event, EventRecord};
    use crate::time::{SimDuration, SimTime};

    fn forest() -> SpanForest {
        let evs = vec![
            EventRecord {
                seq: 0,
                at: SimTime::from_secs(1),
                event: Event::MigrationAssigned {
                    job: 1,
                    block: 2,
                    node: 0,
                    bytes: 64,
                },
            },
            EventRecord {
                seq: 1,
                at: SimTime::from_secs(2),
                event: Event::MigrationEnqueued {
                    node: 0,
                    job: 1,
                    block: 2,
                    bytes: 64,
                },
            },
            EventRecord {
                seq: 2,
                at: SimTime::from_secs(3),
                event: Event::MigrationStarted {
                    node: 0,
                    block: 2,
                    bytes: 64,
                },
            },
            EventRecord {
                seq: 3,
                at: SimTime::from_secs(4),
                event: Event::MigrationCompleted {
                    node: 0,
                    block: 2,
                    bytes: 64,
                },
            },
        ];
        SpanForest::build(&evs)
    }

    #[test]
    fn export_is_valid_shaped_integer_only_json() {
        let json = export(&forest(), None);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        // Integer-only: no float formatting anywhere.
        assert!(!json.contains('.'), "floats leaked into the trace");
        // Balanced braces (cheap structural check without a JSON parser).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        // Track metadata present for node 0.
        assert!(json.contains("\"name\":\"node0\""));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn export_is_deterministic() {
        let f = forest();
        assert_eq!(export(&f, None), export(&f, None));
    }

    #[test]
    fn counter_tracks_come_from_metric_windows() {
        let reg = MetricsRegistry::new(SimDuration::from_secs(1));
        reg.set_now(SimTime::ZERO);
        reg.counter_add("migrations", 0, 3);
        reg.gauge_set("occupancy", 1, 42);
        let report = reg.finish(SimTime::from_secs(1));
        let json = export(&forest(), Some(&report));
        assert!(json.contains("\"name\":\"migrations[0]\""));
        assert!(json.contains("\"name\":\"occupancy[1]\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(!json.contains('.'));
    }
}
