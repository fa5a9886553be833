//! Ad-hoc debug tracing of the typed event stream.
//!
//! Simulations are hard to debug from aggregate metrics alone. A
//! [`StderrSink`] is an [`EventSink`] that prints every
//! [telemetry](crate::telemetry) record as it is emitted, prefixed with the
//! simulated time. Hosts emit only when a sink is installed, so tracing is
//! zero-cost when off.

use crate::telemetry::{EventRecord, EventSink};

/// A sink that prints each record to stderr as
/// `[{at}] {category}: {json}` — handy for ad-hoc debugging.
///
/// An optional category filter ([`Event::category`]) keeps chatty
/// categories out of the way when debugging one subsystem (e.g. chaos
/// tests drowning in task events):
///
/// ```
/// use ignem_simcore::trace::StderrSink;
///
/// let sink = StderrSink::with_filter("migration, rpc");
/// assert!(sink.accepts("migration"));
/// assert!(!sink.accepts("task"));
/// ```
///
/// [`Event::category`]: crate::telemetry::Event::category
#[derive(Debug, Clone, Default)]
pub struct StderrSink {
    /// `None` prints everything; `Some` prints only the listed categories.
    filter: Option<Vec<String>>,
}

impl StderrSink {
    /// Creates an unfiltered sink (prints every category).
    pub fn new() -> Self {
        StderrSink::default()
    }

    /// Creates a sink printing only the categories in `spec`, an
    /// env-style comma-separated list like `"migration,rpc"`. Whitespace
    /// around entries is ignored; an empty spec means "print everything".
    pub fn with_filter(spec: &str) -> Self {
        let cats: Vec<String> = spec
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        StderrSink {
            filter: if cats.is_empty() { None } else { Some(cats) },
        }
    }

    /// Whether records in `category` pass the filter.
    pub fn accepts(&self, category: &str) -> bool {
        match &self.filter {
            None => true,
            Some(cats) => cats.iter().any(|c| c == category),
        }
    }
}

impl EventSink for StderrSink {
    fn record(&mut self, rec: &EventRecord) {
        let category = rec.event.category();
        if self.accepts(category) {
            eprintln!("[{}] {category}: {}", rec.at, rec.to_json());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stderr_filter_parses_env_style_lists() {
        let all = StderrSink::new();
        assert!(all.accepts("task"));
        let some = StderrSink::with_filter("migration,rpc");
        assert!(some.accepts("migration"));
        assert!(some.accepts("rpc"));
        assert!(!some.accepts("task"));
        // Whitespace and empty entries are tolerated; an empty spec means
        // "everything".
        let spaced = StderrSink::with_filter(" migration , ,rpc ");
        assert!(spaced.accepts("rpc"));
        assert!(!spaced.accepts("job"));
        let empty = StderrSink::with_filter("  ,  ");
        assert!(empty.accepts("anything"));
    }
}
