//! Structured run-event stream (`eureka-events-v1`).
//!
//! A run's JSONL event sink, mirroring the metrics registry's
//! deterministic/timing split at the *field* level: every event line
//! carries a `det` object (fields that are byte-identical across
//! reruns and across `--jobs 1` vs `--jobs N`, given the runner's
//! determinism contract) and a `wall` object (emission order, wall
//! clock, and environment — everything that legitimately varies).
//!
//! Line format (one JSON object per line, no trailing spaces):
//!
//! ```text
//! {"schema":"eureka-events-v1","event":"unit-finished","det":{...},"wall":{"seq":7,"t_us":1234,...}}
//! ```
//!
//! Because worker threads emit concurrently, the raw line *order* is
//! not deterministic under `--jobs N`. The canonical comparison form is
//! the [`deterministic_projection`]: per line, keep only
//! `{"event":...,"det":{...}}`, sort the lines lexicographically, and
//! join with `\n`. Two runs of the same plan agree byte-for-byte on
//! this projection regardless of parallelism; `eureka check events`
//! compares streams by it.
//!
//! A command builds one [`Events`] handle and hands it to the runner
//! that emits into it, so two runs in one process never share a
//! stream, a clock or a count. The default handle is **off**:
//! [`Events::emit`] takes a closure and never calls it, so instrumented
//! code pays one branch per emit site until a writer or the progress
//! reporter is attached.

use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::json;
use crate::metrics::Registry;
use crate::progress::{Mode, Reporter};

/// Schema identifier stamped on every line.
pub const SCHEMA: &str = "eureka-events-v1";

/// Event kinds and their required deterministic fields, in schema
/// order. The checker ([`validate_line`]) enforces this table, so a
/// new kind is added here alone.
pub const KINDS: &[(&str, &[&str])] = &[
    ("run-started", &[]),
    ("unit-planned", &["unit", "job", "arch", "gemm", "key"]),
    ("unit-started", &["unit"]),
    ("unit-finished", &["unit", "source", "ok", "cycles"]),
    ("retry", &["unit", "attempt", "kind"]),
    ("failure", &["unit", "kind", "attempts", "payload"]),
    ("checkpoint-written", &["unit"]),
    ("store-flush", &[]),
    ("run-finished", &["units", "failures"]),
];

/// A single field value (events only need these three shapes).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (unit indices, cycle counts, digests-as-u64).
    U64(u64),
    /// String (arch names, source classification, failure kinds).
    Str(String),
    /// Boolean (`ok`).
    Bool(bool),
}

impl FieldValue {
    fn write_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::Str(s) => {
                out.push('"');
                out.push_str(&json::escape(s));
                out.push('"');
            }
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

/// One event under construction. Build with [`Event::new`] and the
/// `det_*`/`wall_*` field adders, and return it from the closure passed
/// to [`Events::emit`].
#[derive(Debug, Clone)]
pub struct Event {
    kind: &'static str,
    det: Vec<(&'static str, FieldValue)>,
    wall: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Starts an event of the given kind (one of the [`KINDS`] names).
    #[must_use]
    pub fn new(kind: &'static str) -> Self {
        Event {
            kind,
            det: Vec::new(),
            wall: Vec::new(),
        }
    }

    /// Adds a deterministic unsigned-integer field.
    #[must_use]
    pub fn det_u64(mut self, key: &'static str, v: u64) -> Self {
        self.det.push((key, FieldValue::U64(v)));
        self
    }

    /// Adds a deterministic string field.
    #[must_use]
    pub fn det_str(mut self, key: &'static str, v: impl Into<String>) -> Self {
        self.det.push((key, FieldValue::Str(v.into())));
        self
    }

    /// Adds a deterministic boolean field.
    #[must_use]
    pub fn det_bool(mut self, key: &'static str, v: bool) -> Self {
        self.det.push((key, FieldValue::Bool(v)));
        self
    }

    /// Adds a wall-clock/environment unsigned-integer field (appended
    /// after the sink-assigned `seq` and `t_us`).
    #[must_use]
    pub fn wall_u64(mut self, key: &'static str, v: u64) -> Self {
        self.wall.push((key, FieldValue::U64(v)));
        self
    }

    /// The event kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Looks up a deterministic field by name.
    #[must_use]
    pub fn det_field(&self, key: &str) -> Option<&FieldValue> {
        self.det.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn to_line(&self, seq: u64, t_us: u64) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\",\"event\":\"");
        out.push_str(self.kind);
        out.push_str("\",\"det\":{");
        for (i, (k, v)) in self.det.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(k);
            out.push_str("\":");
            v.write_json(&mut out);
        }
        out.push_str("},\"wall\":{\"seq\":");
        out.push_str(&seq.to_string());
        out.push_str(",\"t_us\":");
        out.push_str(&t_us.to_string());
        for (k, v) in &self.wall {
            out.push_str(",\"");
            out.push_str(k);
            out.push_str("\":");
            v.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }
}

/// A run's event sink: off (the [`Default`]) or one shared JSONL
/// writer, `seq`/`t_us` clock, emitted count and progress tally. Clones
/// are cheap and share all four, so a runner's worker threads emit into
/// one stream. Dropping the last clone flushes the writer and ends the
/// progress line.
#[derive(Clone, Default)]
pub struct Events(Option<Arc<Sink>>);

struct Sink {
    start: Instant,
    stream: Mutex<Stream>,
    progress: Option<Reporter>,
}

struct Stream {
    writer: Option<Box<dyn Write + Send>>,
    /// The next line's `seq`, which is also the emitted count.
    seq: u64,
}

impl Sink {
    fn stream(&self) -> MutexGuard<'_, Stream> {
        // Every update leaves the stream valid (a bumped counter, a
        // dropped writer), so a panicking emitter poisons nothing.
        self.stream.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        if let Some(progress) = &self.progress {
            progress.finish();
        }
        if let Some(w) = self.stream().writer.as_mut() {
            let _ = w.flush();
        }
    }
}

impl Events {
    /// A sink writing JSONL to `writer` (if any) and feeding the
    /// progress reporter when `progress` resolves on; the progress line
    /// reads the tile-store hit rate from `metrics`, the run's registry.
    /// Off — emitting and counting nothing — when it has neither
    /// consumer. The `t_us` clock starts now.
    #[must_use]
    pub fn new(writer: Option<Box<dyn Write + Send>>, progress: Mode, metrics: &Registry) -> Self {
        let progress = progress.is_on().then(|| Reporter::new(metrics.clone()));
        if writer.is_none() && progress.is_none() {
            return Events::default();
        }
        Events(Some(Arc::new(Sink {
            start: Instant::now(),
            stream: Mutex::new(Stream { writer, seq: 0 }),
            progress,
        })))
    }

    /// Number of events emitted into this sink (by any clone).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |sink| sink.stream().seq)
    }

    /// Emits the event `make` builds: assigns `seq`/`t_us` under the
    /// sink lock, writes the JSONL line to the writer (if any), and
    /// feeds the progress reporter. An off handle never calls `make`.
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        let Some(sink) = &self.0 else { return };
        let ev = make();
        {
            let mut stream = sink.stream();
            let seq = stream.seq;
            stream.seq += 1;
            if let Some(w) = stream.writer.as_mut() {
                let t_us = u64::try_from(sink.start.elapsed().as_micros()).unwrap_or(u64::MAX);
                if writeln!(w, "{}", ev.to_line(seq, t_us)).is_err() {
                    // A broken pipe must not take the run down; drop
                    // the writer and keep simulating.
                    stream.writer = None;
                }
            }
        }
        if let Some(progress) = &sink.progress {
            progress.observe(&ev);
        }
    }
}

impl fmt::Debug for Events {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "Events(on)"
        } else {
            "Events(off)"
        })
    }
}

/// Validates a single JSONL line against the v1 schema: the `schema`
/// stamp, a known `event` kind, its required `det` fields, and the
/// sink-assigned `wall.seq`/`wall.t_us` numbers.
pub fn validate_line(line: &str) -> Result<(), String> {
    validated(line).map(drop)
}

/// [`validate_line`], handing back the parsed line.
fn validated(line: &str) -> Result<json::Value, String> {
    let v = json::parse(line)?;
    if v.get("schema").and_then(json::Value::as_str) != Some(SCHEMA) {
        return Err(format!("bad or missing schema stamp (want {SCHEMA})"));
    }
    let kind = v
        .get("event")
        .and_then(json::Value::as_str)
        .ok_or("missing event kind")?;
    let required = KINDS
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, req)| *req)
        .ok_or_else(|| format!("unknown event kind {kind:?}"))?;
    let det = v.get("det").ok_or("missing det object")?;
    if !matches!(det, json::Value::Obj(_)) {
        return Err("det is not an object".to_string());
    }
    for field in required {
        if det.get(field).is_none() {
            return Err(format!("event {kind:?} missing det field {field:?}"));
        }
    }
    let wall = v.get("wall").ok_or("missing wall object")?;
    for field in ["seq", "t_us"] {
        if wall.get(field).and_then(json::Value::as_f64).is_none() {
            return Err(format!("missing numeric wall field {field:?}"));
        }
    }
    Ok(v)
}

/// A stream line that fails [`deterministic_projection`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineError {
    /// The 1-based line number.
    pub line: usize,
    /// What is wrong with it.
    pub reason: String,
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

/// Canonical deterministic projection of an event stream: per line,
/// keep only `{"event":...,"det":{...}}` (field order preserved), sort
/// the projected lines lexicographically, join with `\n`. Two runs of
/// the same plan agree byte-for-byte on this projection regardless of
/// `--jobs`.
///
/// Every non-empty line is validated on the way through, and the
/// stream's `wall.seq` values must be exactly `0..n` for its `n` lines
/// (the sink assigns them densely in emission order), so a dropped,
/// duplicated or foreign line fails at the first line whose `seq` is
/// out of range or seen before.
pub fn deterministic_projection(stream: &str) -> Result<String, LineError> {
    let n = stream.lines().filter(|l| !l.is_empty()).count();
    let mut seen = vec![false; n];
    let mut projected = Vec::with_capacity(n);
    for (idx, line) in stream.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let fail = |reason: String| LineError {
            line: idx + 1,
            reason,
        };
        let v = validated(line).map_err(fail)?;
        let seq = v
            .get("wall")
            .and_then(|w| w.get("seq"))
            .and_then(json::Value::as_f64)
            .expect("invariant: validated lines carry a numeric wall.seq");
        if seq.fract() != 0.0 || !(0.0..n as f64).contains(&seq) {
            return Err(fail(format!(
                "wall.seq {seq} is outside the stream's dense 0..{n}"
            )));
        }
        if std::mem::replace(&mut seen[seq as usize], true) {
            return Err(fail(format!("wall.seq {seq} repeats an earlier line's")));
        }
        let event = v.get("event").cloned().unwrap_or(json::Value::Null);
        let det = v.get("det").cloned().unwrap_or(json::Value::Null);
        let proj = json::Value::Obj(vec![("event".to_string(), event), ("det".to_string(), det)]);
        projected.push(proj.to_json());
    }
    projected.sort_unstable();
    Ok(projected.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Vec<u8> sink shareable across the `Box<dyn Write + Send>`
    /// boundary.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Sink {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn off_handle_emits_nothing() {
        for events in [
            Events::default(),
            Events::new(None, Mode::Off, &Registry::new()),
        ] {
            events.emit(|| unreachable!("an off handle builds no event"));
            assert_eq!(events.count(), 0);
        }
    }

    #[test]
    fn emits_schema_valid_lines_in_sequence() {
        let sink = Sink::default();
        let events = Events::new(
            Some(Box::new(std::io::BufWriter::new(sink.clone()))),
            Mode::Off,
            &Registry::new(),
        );
        let clone = events.clone();
        events.emit(|| Event::new("run-started").wall_u64("jobs", 2));
        clone.emit(|| {
            Event::new("unit-planned")
                .det_u64("unit", 0)
                .det_u64("job", 0)
                .det_str("arch", "Dense")
                .det_str("gemm", "conv1")
                .det_str("key", "00ff")
        });
        drop(clone);
        events.emit(|| {
            Event::new("unit-finished")
                .det_u64("unit", 0)
                .det_str("source", "computed")
                .det_bool("ok", true)
                .det_u64("cycles", 123)
                .wall_u64("exec_us", 9)
        });
        assert_eq!(events.count(), 3, "clones share one count");
        assert!(sink.contents().is_empty(), "buffered until the last drop");
        drop(events);
        let out = sink.contents();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            validate_line(line).unwrap_or_else(|e| panic!("line {i}: {e}\n{line}"));
            let v = json::parse(line).unwrap();
            let seq = v.get("wall").unwrap().get("seq").unwrap().as_f64().unwrap();
            assert_eq!(seq as usize, i, "seq assigned in emission order");
        }
        assert!(lines[2].contains("\"cycles\":123"));
        assert!(lines[2].contains("\"exec_us\":9"));
    }

    #[test]
    fn progress_alone_turns_the_sink_on_and_counts() {
        let events = Events::new(None, Mode::On, &Registry::new());
        events.emit(|| Event::new("run-started"));
        assert_eq!(events.count(), 1);
    }

    #[test]
    fn projection_is_order_insensitive_and_drops_wall_fields() {
        let a = concat!(
            r#"{"schema":"eureka-events-v1","event":"unit-started","det":{"unit":1},"wall":{"seq":0,"t_us":5}}"#,
            "\n",
            r#"{"schema":"eureka-events-v1","event":"unit-started","det":{"unit":0},"wall":{"seq":1,"t_us":9}}"#,
        );
        let b = concat!(
            r#"{"schema":"eureka-events-v1","event":"unit-started","det":{"unit":0},"wall":{"seq":0,"t_us":1}}"#,
            "\n",
            r#"{"schema":"eureka-events-v1","event":"unit-started","det":{"unit":1},"wall":{"seq":1,"t_us":2}}"#,
        );
        let pa = deterministic_projection(a).unwrap();
        let pb = deterministic_projection(b).unwrap();
        assert_eq!(pa, pb);
        assert!(!pa.contains("wall"));
        assert!(!pa.contains("t_us"));
    }

    #[test]
    fn validation_rejects_bad_lines() {
        assert!(validate_line("not json").is_err());
        assert!(validate_line(r#"{"schema":"eureka-events-v2","event":"run-started","det":{},"wall":{"seq":0,"t_us":0}}"#).is_err());
        assert!(validate_line(r#"{"schema":"eureka-events-v1","event":"no-such-kind","det":{},"wall":{"seq":0,"t_us":0}}"#).is_err());
        assert!(validate_line(r#"{"schema":"eureka-events-v1","event":"unit-started","det":{},"wall":{"seq":0,"t_us":0}}"#)
            .is_err_and(|e| e.contains("unit")));
        assert!(validate_line(
            r#"{"schema":"eureka-events-v1","event":"run-started","det":{},"wall":{"seq":0}}"#
        )
        .is_err());
        assert!(validate_line(r#"{"schema":"eureka-events-v1","event":"run-started","det":{},"wall":{"seq":0,"t_us":0}}"#).is_ok());
    }

    #[test]
    fn broken_writer_does_not_poison_the_run() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("pipe closed"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let events = Events::new(Some(Box::new(Broken)), Mode::Off, &Registry::new());
        events.emit(|| Event::new("run-started"));
        events.emit(|| {
            Event::new("run-finished")
                .det_u64("units", 0)
                .det_u64("failures", 0)
        });
        assert_eq!(events.count(), 2);
    }
}
