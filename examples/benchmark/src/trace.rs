//! Spans recorded by the harness around its calls into each layer, kept
//! in memory and written as Chrome-trace JSON when the run ends.

use eureka_obs::chrome::TraceBuilder;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.arch.simulate_layer`.
    pub name: String,
    /// Unique within the trace (starts at 1).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Request this span serves (a job or a figure process), shared by
    /// every span of that request.
    pub req: Option<u64>,
    /// Track: 0 for the main thread, 1 for the helper thread.
    pub tid: u64,
    /// Start, µs since the trace origin.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
}

/// An in-memory span recorder. One per thread; merge with [`Trace::absorb`].
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    tid: u64,
    next_id: u64,
    spans: Vec<Span>,
}

impl Trace {
    /// A recorder whose timestamps count from `origin`; ids are drawn
    /// from a per-track range so merged traces never collide.
    #[must_use]
    pub fn new(origin: Instant, tid: u64) -> Self {
        Trace {
            origin,
            tid,
            next_id: (tid << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Records a span that ran from `start` until now; returns its id.
    pub fn close(
        &mut self,
        name: &str,
        start: Instant,
        parent: Option<u64>,
        req: Option<u64>,
    ) -> u64 {
        let id = self.reserve();
        self.close_as(id, name, start, parent, req);
        id
    }

    /// An id for a span that other spans name as their parent before it
    /// closes (possibly in another thread's recorder, via
    /// [`Trace::close_as`]).
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// [`Trace::close`] under an id from [`Trace::reserve`].
    pub fn close_as(
        &mut self,
        id: u64,
        name: &str,
        start: Instant,
        parent: Option<u64>,
        req: Option<u64>,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_micros() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            req,
            tid: self.tid,
            start_us: us(start),
            dur_us: start.elapsed().as_micros() as u64,
        });
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Trace) {
        self.spans.extend(other.spans);
    }

    /// The spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome Trace Event JSON (an array of complete events plus one
    /// track-name event per thread); `args` carry id, parent and request.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut b = TraceBuilder::new();
        let pid = std::process::id();
        b.thread_name(pid, 0, "main");
        b.thread_name(pid, 1, "helper");
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.tid, s.start_us, std::cmp::Reverse(s.dur_us)));
        for s in spans {
            let id = s.id.to_string();
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let req = s.req.map(|r| r.to_string()).unwrap_or_default();
            let mut args = vec![("id", id.as_str())];
            if s.parent.is_some() {
                args.push(("parent", parent.as_str()));
            }
            if s.req.is_some() {
                args.push(("req", req.as_str()));
            }
            b.complete_with(&s.name, s.start_us, s.dur_us, pid, s.tid, None, &args);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eureka_obs::json::{self, Value};

    #[test]
    fn chrome_trace_parses_with_the_workspace_json_reader() {
        let origin = Instant::now();
        let mut main = Trace::new(origin, 0);
        let start = Instant::now();
        let root = main.reserve();
        main.close(
            "sim.arch.simulate_layer \"quoted\"",
            start,
            Some(root),
            None,
        );
        main.close_as(root, "e2e.op", start, None, None);
        let mut helper = Trace::new(origin, 1);
        helper.close("cli.serve.poll", start, None, Some(7));
        main.absorb(helper);
        assert_eq!(main.spans().len(), 3);

        let parsed = json::parse(&main.to_chrome_json()).expect("valid JSON");
        let events = parsed.as_arr().expect("an event array");
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 3);
        let child = complete
            .iter()
            .find(|e| {
                e.get("name").and_then(Value::as_str) == Some("sim.arch.simulate_layer \"quoted\"")
            })
            .expect("child span present");
        let args = child.get("args").expect("args");
        assert_eq!(
            args.get("parent").and_then(Value::as_str),
            Some(root.to_string().as_str())
        );
        let poll = complete
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("cli.serve.poll"))
            .expect("helper span present");
        assert_eq!(poll.get("tid").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            poll.get("args")
                .and_then(|a| a.get("req"))
                .and_then(Value::as_str),
            Some("7")
        );
        for e in &complete {
            assert!(e.get("ts").and_then(Value::as_f64).is_some());
            assert!(e.get("dur").and_then(Value::as_f64).is_some());
        }
    }
}
