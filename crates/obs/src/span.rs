//! Structured tracing spans.
//!
//! A [`Span`] is a RAII guard: entering records a start timestamp,
//! dropping records the duration into the [`Spans`] handle it was
//! opened on. A command builds one handle and hands it to the runner
//! that records into it, so two runs in one process never share a
//! trace, an epoch or a track table. The default handle is **off**: a
//! [`crate::span!`] on it costs one `None` check and never formats its
//! detail string, so instrumentation can stay in release builds.
//!
//! Every thread that records into a handle gets a track id (`tid`, in
//! order of its first span) and a track name (the thread's name, or
//! `worker-<tid>` for the runner's anonymous scoped workers); the
//! Chrome-trace exporter emits one track per thread. A finished span
//! goes straight into the handle's collector under one lock, so it is
//! in the trace as soon as its guard drops, also on a thread that
//! unwinds.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// One completed span, ready for export.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Instrumentation-point name (e.g. `unit.exec`).
    pub name: &'static str,
    /// Free-form detail (arch/layer/...); empty when none was given.
    pub detail: String,
    /// Track id of the recording thread.
    pub tid: u64,
    /// Start, in microseconds since the handle's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// A run's span collector: off (the [`Default`]) or one shared
/// collector with its own epoch and track table. Clones are cheap and
/// share the collector, so a runner's worker threads record into one
/// trace.
#[derive(Clone, Default)]
pub struct Spans(Option<Arc<Collector>>);

struct Collector {
    epoch: Instant,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    events: Vec<SpanEvent>,
    tracks: HashMap<ThreadId, (u64, String)>,
}

impl Collector {
    fn state(&self) -> MutexGuard<'_, State> {
        // Every update is one push or one insert, so a poisoned lock
        // still guards a valid trace.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Spans {
    /// A handle that records every span opened on it; its epoch (time
    /// zero of every `start_us`) is now.
    #[must_use]
    pub fn recording() -> Self {
        Spans(Some(Arc::new(Collector {
            epoch: Instant::now(),
            state: Mutex::default(),
        })))
    }

    /// Whether spans opened on this handle are recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span on this handle (records nothing when it is off).
    /// Prefer [`crate::span!`], which skips formatting `detail` then.
    pub fn enter(&self, name: &'static str, detail: String) -> Span<'_> {
        Span(self.0.as_deref().map(|collector| Open {
            collector,
            name,
            detail,
            started: Instant::now(),
        }))
    }

    /// Drains the spans recorded so far (by any clone) and returns them
    /// with the track-name table. Track ids stay assigned.
    #[must_use]
    pub fn take(&self) -> (Vec<SpanEvent>, BTreeMap<u64, String>) {
        let Some(collector) = &self.0 else {
            return Default::default();
        };
        let mut state = collector.state();
        let tracks = state.tracks.values().cloned().collect();
        (std::mem::take(&mut state.events), tracks)
    }
}

impl fmt::Debug for Spans {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_on() {
            "Spans(on)"
        } else {
            "Spans(off)"
        })
    }
}

/// A RAII span guard: measures from [`Spans::enter`] until drop.
///
/// Construct via [`crate::span!`]; bind to a named variable so the guard
/// lives to the end of the scope.
#[must_use = "a span measures until dropped; bind it to a named variable"]
pub struct Span<'a>(Option<Open<'a>>);

struct Open<'a> {
    collector: &'a Collector,
    name: &'static str,
    detail: String,
    started: Instant,
}

impl Span<'_> {
    /// A span that records nothing (the off arm of [`crate::span!`]).
    pub fn off() -> Self {
        Span(None)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let dur_us = micros(open.started.elapsed());
        let start_us = micros(open.started.saturating_duration_since(open.collector.epoch));
        let thread = std::thread::current();
        let mut state = open.collector.state();
        let next = state.tracks.len() as u64;
        let tid = state
            .tracks
            .entry(thread.id())
            .or_insert_with(|| {
                let name = thread
                    .name()
                    .map_or_else(|| format!("worker-{next}"), str::to_string);
                (next, name)
            })
            .0;
        state.events.push(SpanEvent {
            name: open.name,
            detail: open.detail,
            tid,
            start_us,
            dur_us,
        });
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_off_handle_records_nothing_and_formats_nothing() {
        let spans = Spans::default();
        let mut formatted = false;
        {
            let _s = crate::span!(&spans, "test.off", "{}", {
                formatted = true;
                1
            });
        }
        assert!(!formatted, "an off handle never formats its detail");
        assert!(spans.take().0.is_empty());
    }

    #[test]
    fn recorded_spans_carry_their_detail_and_track() {
        let spans = Spans::recording();
        {
            let _s = crate::span!(&spans, "test.enabled", "layer {}", 3);
            std::thread::sleep(Duration::from_micros(200));
        }
        let (events, tracks) = spans.take();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(
            (e.name, e.detail.as_str(), e.tid),
            ("test.enabled", "layer 3", 0)
        );
        assert!(e.dur_us >= 1, "non-zero duration");
        assert!(tracks.contains_key(&e.tid), "track registered");
        assert!(spans.take().0.is_empty(), "take drains");
    }

    #[test]
    fn a_panicking_thread_keeps_the_spans_it_closed() {
        let spans = Spans::recording();
        let worker = std::thread::Builder::new()
            .name("panicky".into())
            .spawn({
                let spans = spans.clone();
                move || {
                    let _s = crate::span!(&spans, "test.panicky");
                    std::panic::resume_unwind(Box::new("worker dies after opening a span"));
                }
            })
            .expect("spawn");
        assert!(worker.join().is_err(), "worker panicked");
        let (events, tracks) = spans.take();
        assert_eq!(events.len(), 1, "the unwinding guard recorded its span");
        assert_eq!(tracks[&events[0].tid], "panicky");
    }

    #[test]
    fn worker_threads_get_their_own_tracks() {
        let spans = Spans::recording();
        {
            let _s = crate::span!(&spans, "test.main");
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let _w = crate::span!(&spans, "test.worker");
                    });
                }
            });
        }
        let (events, tracks) = spans.take();
        assert_eq!(
            events.len(),
            3,
            "every span is in as soon as the scope ends"
        );
        let worker_tids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter(|e| e.name == "test.worker")
            .map(|e| e.tid)
            .collect();
        assert_eq!(worker_tids.len(), 2, "one track per worker thread");
        let main = events.iter().find(|e| e.name == "test.main").unwrap();
        assert!(!worker_tids.contains(&main.tid));
        for tid in &worker_tids {
            assert_eq!(tracks[tid], format!("worker-{tid}"));
        }
    }

    #[test]
    fn two_handles_keep_their_spans_apart() {
        let (a, b) = (Spans::recording(), Spans::recording());
        {
            let _a = crate::span!(&a, "test.a");
            let _b = crate::span!(&b, "test.b");
            let _b2 = crate::span!(&b, "test.b");
        }
        let names = |s: &Spans| s.take().0.iter().map(|e| e.name).collect::<Vec<_>>();
        assert_eq!(names(&a), ["test.a"]);
        assert_eq!(names(&b), ["test.b", "test.b"]);
    }
}
