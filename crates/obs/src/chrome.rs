//! Chrome Trace Event Format JSON writer.
//!
//! One shared emitter for every trace in the workspace: the span
//! exporter here ([`spans_to_json`]) and the systolic-schedule
//! traces in `eureka-core::schedule::trace` both build their output
//! through [`TraceBuilder`], so escaping and event syntax live in one
//! place. The output is a plain JSON array of events, loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Timestamps/durations are reported in the trace's microsecond unit —
//! real microseconds for spans, cycles for schedule traces.

use crate::json::escape;
use crate::span::SpanEvent;
use std::collections::BTreeMap;

/// Builds a Trace Event Format JSON array.
#[derive(Default)]
pub struct TraceBuilder {
    events: Vec<String>,
}

impl TraceBuilder {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Appends a complete (`ph: "X"`) duration event.
    pub fn complete(&mut self, name: &str, ts: u64, dur: u64, pid: u32, tid: u64) {
        self.complete_with(name, ts, dur, pid, tid, None, &[]);
    }

    /// Appends a complete event with an optional color name (`cname`)
    /// and key/value `args`.
    #[allow(clippy::too_many_arguments)] // mirrors the Trace Event field set
    pub fn complete_with(
        &mut self,
        name: &str,
        ts: u64,
        dur: u64,
        pid: u32,
        tid: u64,
        cname: Option<&str>,
        args: &[(&str, &str)],
    ) {
        let mut e = format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\"tid\":{tid}",
            escape(name)
        );
        if let Some(c) = cname {
            e.push_str(&format!(",\"cname\":\"{}\"", escape(c)));
        }
        if !args.is_empty() {
            let kv: Vec<String> = args
                .iter()
                .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
                .collect();
            e.push_str(&format!(",\"args\":{{{}}}", kv.join(",")));
        }
        e.push('}');
        self.events.push(e);
    }

    /// Appends a `thread_name` metadata event, labelling track `tid` in
    /// the viewer.
    pub fn thread_name(&mut self, pid: u32, tid: u64, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
    }

    /// Number of events appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the trace as a JSON array.
    #[must_use]
    pub fn build(self) -> String {
        format!("[{}]", self.events.join(","))
    }
}

/// Serializes spans as Trace Event JSON: one `thread_name` metadata
/// event per track, then one complete event per span (non-empty details
/// become `args.detail`). Events are ordered by (track, start, longest
/// first) so enclosing spans precede their children.
#[must_use]
pub fn spans_to_json(events: &[SpanEvent], tracks: &BTreeMap<u64, String>) -> String {
    let mut builder = TraceBuilder::new();
    let used: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    for tid in &used {
        let fallback = format!("worker-{tid}");
        let name = tracks.get(tid).map_or(fallback.as_str(), String::as_str);
        builder.thread_name(0, *tid, name);
    }
    let mut sorted: Vec<&SpanEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.tid, e.start_us, std::cmp::Reverse(e.dur_us)));
    for e in sorted {
        if e.detail.is_empty() {
            builder.complete(e.name, e.start_us, e.dur_us, 0, e.tid);
        } else {
            builder.complete_with(
                e.name,
                e.start_us,
                e.dur_us,
                0,
                e.tid,
                None,
                &[("detail", e.detail.as_str())],
            );
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_emits_events_in_tracing_syntax() {
        let mut b = TraceBuilder::new();
        b.thread_name(0, 3, "worker-3");
        b.complete("step 0", 0, 5, 0, 3);
        b.complete_with("bubble", 5, 2, 0, 3, Some("terrible"), &[]);
        b.complete_with("unit.exec", 0, 9, 0, 4, None, &[("detail", "Dense conv1")]);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        let json = b.build();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"thread_name\",\"ph\":\"M\""));
        assert!(json
            .contains("\"name\":\"step 0\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\"pid\":0,\"tid\":3"));
        assert!(json.contains("\"cname\":\"terrible\""));
        assert!(json.contains("\"args\":{\"detail\":\"Dense conv1\"}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn builder_escapes_names() {
        let mut b = TraceBuilder::new();
        b.complete("a\"b\\c", 0, 1, 0, 0);
        let json = b.build();
        assert!(json.contains(r#"\"b\\c"#), "{json}");
    }

    #[test]
    fn spans_serialize_with_one_metadata_event_per_track() {
        let events = vec![
            SpanEvent {
                name: "unit.exec",
                detail: "Dense conv1".into(),
                tid: 2,
                start_us: 10,
                dur_us: 5,
            },
            SpanEvent {
                name: "runner.run_all",
                detail: String::new(),
                tid: 1,
                start_us: 0,
                dur_us: 40,
            },
        ];
        let mut tracks = BTreeMap::new();
        tracks.insert(1u64, "main".to_string());
        tracks.insert(2u64, "worker-2".to_string());
        let json = spans_to_json(&events, &tracks);
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        // Track 1's event precedes track 2's after sorting.
        assert!(json.find("runner.run_all").unwrap() < json.find("unit.exec").unwrap());
        // Unknown tracks would fall back to worker-<tid>; known ones keep names.
        assert!(json.contains("\"args\":{\"name\":\"main\"}"));
    }

    #[test]
    fn empty_trace_is_an_empty_array() {
        assert_eq!(TraceBuilder::new().build(), "[]");
        assert_eq!(spans_to_json(&[], &BTreeMap::new()), "[]");
    }
}
