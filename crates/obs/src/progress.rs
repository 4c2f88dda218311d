//! Throttled terminal progress reporter fed by a run's event sink.
//!
//! A passive consumer of one [`crate::events::Events`] handle: it keeps
//! a small tally of planned/started/finished units, retries and
//! failures, and redraws a single `\r`-rewritten stderr line at most
//! every ~100 ms. It writes **only to stderr** and reads the run's
//! metrics registry exclusively through
//! [`crate::metrics::Registry::counter_value`] (which never registers
//! names), so enabling it cannot change a report, a metrics snapshot,
//! or any cache/store counter — the zero-impact contract
//! `tests/events.rs` enforces.
//!
//! Activation follows the CLI convention: [`Mode::Auto`] turns the
//! reporter on only when stderr is a terminal (so tests, CI, and
//! redirected runs stay silent), `--progress` forces [`Mode::On`],
//! `--no-progress` forces [`Mode::Off`]. The mode is passed to
//! [`crate::events::Events::new`], which owns the reporter it turns on.

use std::io::{IsTerminal, Write};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::events::{Event, FieldValue};
use crate::metrics::Registry;

/// Reporter activation policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// On iff stderr is a terminal (the default).
    Auto,
    /// Always on, even when stderr is redirected.
    On,
    /// Always off.
    Off,
}

impl Mode {
    /// Whether this policy turns the reporter on in this process.
    #[must_use]
    pub(crate) fn is_on(self) -> bool {
        match self {
            Mode::On => true,
            Mode::Off => false,
            Mode::Auto => std::io::stderr().is_terminal(),
        }
    }
}

/// Minimum interval between redraws (the final `run-finished` redraw is
/// never throttled).
const RENDER_INTERVAL: Duration = Duration::from_millis(100);

struct State {
    planned: u64,
    started: u64,
    finished: u64,
    failures: u64,
    retries: u64,
    from_cache: u64,
    from_store: u64,
    from_checkpoint: u64,
    run_start: Instant,
    last_render: Option<Instant>,
    last_len: usize,
    rendered: bool,
}

impl State {
    fn reset(&mut self) {
        *self = State {
            run_start: Instant::now(),
            ..State::new()
        };
    }

    fn new() -> State {
        State {
            planned: 0,
            started: 0,
            finished: 0,
            failures: 0,
            retries: 0,
            from_cache: 0,
            from_store: 0,
            from_checkpoint: 0,
            run_start: Instant::now(),
            last_render: None,
            last_len: 0,
            rendered: false,
        }
    }
}

/// One run's progress line: the tally behind it, its redraw throttle,
/// and the registry whose tile-store counters it shows.
pub(crate) struct Reporter {
    state: Mutex<State>,
    metrics: Registry,
}

impl Reporter {
    pub(crate) fn new(metrics: Registry) -> Self {
        Reporter {
            state: Mutex::new(State::new()),
            metrics,
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        // Every update leaves the tally valid, so a poisoned lock still
        // holds a usable one.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ends the progress line: if anything was drawn, redraws the final
    /// tally and emits the trailing newline so subsequent stderr output
    /// starts on a fresh line.
    pub(crate) fn finish(&self) {
        let mut st = self.state();
        if st.rendered {
            render(&mut st, true, &self.metrics);
            let _ = writeln!(std::io::stderr());
            st.rendered = false;
            st.last_len = 0;
        }
    }

    /// Feeds one event to the reporter (called by
    /// [`crate::events::Events::emit`] after the sink lock is released).
    pub(crate) fn observe(&self, ev: &Event) {
        let mut st = self.state();
        match ev.kind() {
            "run-started" => st.reset(),
            "unit-planned" => st.planned += 1,
            "unit-started" => st.started += 1,
            "unit-finished" => {
                st.finished += 1;
                if let Some(FieldValue::Str(source)) = ev.det_field("source") {
                    match source.as_str() {
                        "cache" => st.from_cache += 1,
                        "store" => st.from_store += 1,
                        "checkpoint" => st.from_checkpoint += 1,
                        _ => {}
                    }
                }
            }
            "retry" => st.retries += 1,
            "failure" => st.failures += 1,
            _ => {}
        }
        let force = ev.kind() == "run-finished";
        let due = st
            .last_render
            .is_none_or(|t| t.elapsed() >= RENDER_INTERVAL);
        if force || (due && st.planned > 0) {
            render(&mut st, force, &self.metrics);
        }
    }
}

#[allow(clippy::cast_precision_loss)]
fn render(st: &mut State, force: bool, metrics: &Registry) {
    let done = st.finished + st.failures;
    let pct = (done * 100).checked_div(st.planned).unwrap_or(0);
    let elapsed = st.run_start.elapsed().as_secs_f64().max(1e-9);
    let rate = done as f64 / elapsed;
    let eta = if rate > 0.0 && st.planned > done {
        let secs = (st.planned - done) as f64 / rate;
        format!("{secs:.0}s")
    } else {
        "-".to_string()
    };
    let in_flight = st.started.saturating_sub(done);
    let unit_hits = st.from_cache + st.from_store + st.from_checkpoint;
    let unit_pct = (unit_hits * 100).checked_div(st.finished).unwrap_or(0);
    // Tile-store hit rate via the non-registering read: observing it
    // must never add names to the registry.
    let store = match (
        metrics.counter_value("store.hits"),
        metrics.counter_value("store.lookups"),
    ) {
        (Some(h), Some(l)) if l > 0 => format!("{}%", h * 100 / l),
        _ => "-".to_string(),
    };
    let mut line = format!(
        "[eureka] {done}/{} units {pct}% | {rate:.1} u/s | eta {eta} | in-flight {in_flight} | unit-hits {unit_pct}% tile-store {store} | retries {} failures {}",
        st.planned, st.retries, st.failures
    );
    if force {
        line.push_str(" | done");
    }
    let pad = st.last_len.saturating_sub(line.len());
    st.last_len = line.len();
    st.last_render = Some(Instant::now());
    st.rendered = true;
    let mut err = std::io::stderr().lock();
    let _ = write!(err, "\r{line}{}", " ".repeat(pad));
    let _ = err.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planned(unit: u64) -> Event {
        Event::new("unit-planned")
            .det_u64("unit", unit)
            .det_u64("job", 0)
            .det_str("arch", "Dense")
            .det_str("gemm", "g")
            .det_str("key", "00")
    }

    #[test]
    fn auto_mode_is_off_under_test_harness() {
        // cargo test captures stderr through a pipe, so Auto stays off
        // and the reporter is inert by default.
        assert!(!Mode::Auto.is_on());
        assert!(Mode::On.is_on());
        assert!(!Mode::Off.is_on());
    }

    #[test]
    fn observe_tallies_unit_lifecycle() {
        let reporter = Reporter::new(Registry::new());
        reporter.observe(&Event::new("run-started"));
        for unit in 0..3u64 {
            reporter.observe(&planned(unit));
        }
        reporter.observe(&Event::new("unit-started").det_u64("unit", 0));
        reporter.observe(
            &Event::new("unit-finished")
                .det_u64("unit", 0)
                .det_str("source", "cache")
                .det_bool("ok", true)
                .det_u64("cycles", 7),
        );
        reporter.observe(&Event::new("retry").det_u64("unit", 1).det_u64("attempt", 1));
        reporter.observe(
            &Event::new("failure")
                .det_u64("unit", 1)
                .det_str("kind", "panic")
                .det_u64("attempts", 2)
                .det_str("payload", "boom"),
        );
        {
            let st = reporter.state();
            assert_eq!(st.planned, 3);
            assert_eq!(st.finished, 1);
            assert_eq!(st.from_cache, 1);
            assert_eq!(st.retries, 1);
            assert_eq!(st.failures, 1);
        }
        reporter.observe(
            &Event::new("run-finished")
                .det_u64("units", 3)
                .det_u64("failures", 1),
        );
        reporter.finish();
        assert!(!reporter.state().rendered, "finish ends the line");
    }

    #[test]
    fn run_started_resets_the_tally() {
        let reporter = Reporter::new(Registry::new());
        reporter.observe(&planned(0));
        reporter.observe(&Event::new("run-started"));
        assert_eq!(reporter.state().planned, 0);
    }
}
