//! Telemetry substrate for the Eureka reproduction.
//!
//! Everything the workspace needs to see *where time goes* — without any
//! third-party dependency (the build environment is offline, like the
//! vendored `proptest`/`criterion` shims). The pillars:
//!
//! 1. **Spans** ([`mod@span`], [`span!`]) — lightweight start/stop guards
//!    recorded into thread-local buffers (no lock on the hot path) and
//!    drained into a process-wide collector when a thread exits or an
//!    exporter flushes. Disabled by default: a disabled [`span!`] costs
//!    one relaxed atomic load and never formats its detail string, so
//!    instrumented code pays ~nothing until tracing is switched on.
//! 2. **Metrics** ([`metrics`]) — a process-wide registry of named
//!    monotonic counters, gauges and fixed-bucket histograms, with a
//!    deterministic JSON snapshot. Metrics are tagged at registration as
//!    [`metrics::Class::Deterministic`] (counts and cycle-derived values,
//!    byte-identical across reruns) or [`metrics::Class::Timing`]
//!    (wall-clock derived, excluded from the deterministic snapshot by
//!    design).
//! 3. **Exporters** ([`chrome`]) — a Chrome Trace Event Format JSON
//!    writer (loadable in `chrome://tracing` or Perfetto) shared by the
//!    span exporter and the systolic-schedule traces in
//!    `eureka-core::schedule::trace`, plus the metrics snapshot.
//! 4. **Events** ([`events`]) — a versioned JSONL run-event stream
//!    (`eureka-events-v1`) with the same deterministic/wall-clock field
//!    split as the metrics registry, feeding both `--events-out` files
//!    and the throttled terminal [`progress`] reporter.
//! 5. **Flight recorder** ([`flightrec`]) — an always-armed,
//!    fixed-capacity ring of recent job-lifecycle records
//!    (`eureka-flightrec-v1`), dumped atomically as JSONL so a crashed
//!    or SIGKILLed service leaves a post-mortem trail.
//!
//! A small verbosity-gated stderr logger ([`log`], [`error!`], [`info!`],
//! [`debug!`]) rounds out the crate so CLI diagnostics flow through one
//! helper instead of stray `eprintln!`s.
//!
//! # Example
//!
//! ```
//! use eureka_obs as obs;
//!
//! obs::span::set_enabled(true);
//! {
//!     let _span = obs::span!("demo.work", "item {}", 7);
//!     obs::metrics::counter("demo.items", obs::metrics::Class::Deterministic).inc();
//! }
//! obs::span::set_enabled(false);
//! let trace = obs::chrome::export_trace_json();
//! assert!(trace.contains("demo.work"));
//! let snapshot = obs::metrics::snapshot_json(true);
//! assert!(snapshot.contains("demo.items"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod chrome;
pub mod events;
pub mod flightrec;
pub mod json;
pub mod log;
pub mod metrics;
pub mod progress;
pub mod span;

pub use span::Span;

/// Opens a [`Span`] guard recording from now until the guard drops.
///
/// Bind the result to a named variable (`let _span = ...`; a bare `_`
/// drops immediately). The one-argument form records just the name; the
/// format-argument form builds a detail string, but **only when tracing
/// is enabled** — a disabled span never evaluates the format arguments.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::Span::enter($name, ::std::string::String::new())
    };
    ($name:expr, $($fmt:tt)+) => {
        if $crate::span::enabled() {
            $crate::span::Span::enter($name, ::std::format!($($fmt)+))
        } else {
            $crate::span::Span::disabled()
        }
    };
}

/// Logs at error level (always printed) through the process logger.
#[macro_export]
macro_rules! error {
    ($($fmt:tt)+) => {
        $crate::log::write($crate::log::Level::Error, ::std::format_args!($($fmt)+))
    };
}

/// Logs at info level (printed under `-v` and above).
#[macro_export]
macro_rules! info {
    ($($fmt:tt)+) => {
        $crate::log::write($crate::log::Level::Info, ::std::format_args!($($fmt)+))
    };
}

/// Logs at debug level (printed under `-vv` and above).
#[macro_export]
macro_rules! debug {
    ($($fmt:tt)+) => {
        $crate::log::write($crate::log::Level::Debug, ::std::format_args!($($fmt)+))
    };
}
