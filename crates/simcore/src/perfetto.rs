//! Chrome trace-event JSON export for span forests and metric windows.
//!
//! Emits the legacy trace-event format (`{"traceEvents":[...]}`), which
//! Perfetto (ui.perfetto.dev) and `chrome://tracing` both open directly.
//! Spans render as complete (`ph:"X"`) duration events on per-node tracks
//! — pid 0 is the cluster/master track, pid `n+1` is node `n` — and each
//! metric window renders as a counter (`ph:"C"`) sample on the cluster
//! track. All timestamps and values are integers (micros), so the output
//! is bit-identical across runs whenever the span forest is.

use crate::metrics::MetricsReport;
use crate::span::SpanForest;

/// Renders a span forest (and optionally a metrics report) as a Chrome
/// trace-event JSON string.
pub fn export(forest: &SpanForest, metrics: Option<&MetricsReport>) -> String {
    // One buffer for the whole trace; events are separated by ",\n".
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut push = |event: String| {
        if !out.ends_with('[') {
            out.push_str(",\n");
        }
        out.push_str(&event);
    };

    // Process-name metadata so Perfetto labels tracks.
    let mut pids: Vec<i64> = forest.spans.iter().map(|s| s.node).collect();
    pids.push(-1);
    pids.sort_unstable();
    pids.dedup();
    for node in pids {
        let pid = node + 1;
        let name = if node < 0 {
            "cluster".to_string()
        } else {
            format!("node{node}")
        };
        push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }

    // Spans, in id order (already canonical in the forest).
    for s in &forest.spans {
        let pid = s.node + 1;
        let parent = s.parent.map(|p| p.0 as i64).unwrap_or(-1);
        push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{ts},\"dur\":{dur},\
             \"name\":\"{name}\",\"cat\":\"{cat}\",\
             \"args\":{{\"span\":{span},\"parent\":{parent},\"job\":{job},\"block\":{block}}}}}",
            ts = s.start.as_micros(),
            dur = s.duration().as_micros(),
            name = s.name,
            cat = s.category.tag(),
            span = s.id.0,
            job = s.job,
            block = s.block,
        ));
    }

    // Metric windows as counter tracks on the cluster pid.
    if let Some(report) = metrics {
        for w in &report.windows {
            let ts = w.start_us;
            for ((name, tag), v) in &w.counters {
                push(counter_event(ts, name, *tag, *v as i64));
            }
            for ((name, tag), v) in &w.gauges {
                push(counter_event(ts, name, *tag, *v));
            }
            for ((name, tag), h) in &w.hists {
                push(counter_event(ts, name, *tag, h.count as i64));
            }
        }
    }

    out.push_str("]}\n");
    out
}

fn counter_event(ts: u64, name: &str, tag: u64, value: i64) -> String {
    format!(
        "{{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{ts},\
         \"name\":\"{name}[{tag}]\",\"args\":{{\"value\":{value}}}}}"
    )
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
