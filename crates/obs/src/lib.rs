//! Telemetry substrate for the Eureka reproduction.
//!
//! Everything the workspace needs to see *where time goes* — without any
//! third-party dependency (the build environment is offline, like the
//! vendored `proptest`/`criterion` shims). The pillars:
//!
//! 1. **Spans** ([`mod@span`], [`span!`]) — lightweight start/stop guards
//!    recorded into a run's [`span::Spans`] handle, which a command
//!    hands to its runner. The default handle is off: a [`span!`] on it
//!    costs one `None` check and never formats its detail string, so
//!    instrumented code pays ~nothing until a trace is asked for.
//! 2. **Metrics** ([`metrics`]) — registries of named monotonic
//!    counters, gauges and fixed-bucket histograms, each owned by the run
//!    that counts into it, with a deterministic JSON snapshot. Metrics are tagged at registration as
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
//!    (`eureka-flightrec-v1`), appended as JSONL to a per-process log so
//!    a crashed or SIGKILLed service leaves a post-mortem trail.
//!
//! Every record that must survive a crash — the service's job journal,
//! unit records, the flight recorder's export — is a line of one
//! append-only log, [`applog`], which also holds the one content hash
//! ([`applog::fnv1a64`]).
//!
//! A small verbosity-gated stderr logger ([`log`], [`error!`], [`info!`],
//! [`debug!`]) rounds out the crate so CLI diagnostics flow through one
//! helper instead of stray `eprintln!`s; the verbosity is a
//! [`log::Verbosity`] value the command passes along.
//!
//! # Example
//!
//! ```
//! use eureka_obs as obs;
//!
//! let metrics = obs::metrics::Registry::new();
//! let spans = obs::span::Spans::recording();
//! {
//!     let _span = obs::span!(&spans, "demo.work", "item {}", 7);
//!     metrics
//!         .counter("demo.items", obs::metrics::Class::Deterministic)
//!         .inc();
//! }
//! let (events, tracks) = spans.take();
//! let trace = obs::chrome::spans_to_json(&events, &tracks);
//! assert!(trace.contains("demo.work"));
//! let snapshot = metrics.snapshot_json(true);
//! assert!(snapshot.contains("demo.items"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod applog;
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

/// Opens a [`Span`] guard on a [`span::Spans`] handle (a `&Spans`),
/// recording from now until the guard drops.
///
/// Bind the result to a named variable (`let _span = ...`; a bare `_`
/// drops immediately). The two-argument form records just the name; the
/// format-argument form builds a detail string, but **only when the
/// handle is on** — an off handle never evaluates the format arguments.
#[macro_export]
macro_rules! span {
    ($spans:expr, $name:expr) => {
        $crate::span::Spans::enter($spans, $name, ::std::string::String::new())
    };
    ($spans:expr, $name:expr, $($fmt:tt)+) => {{
        let spans: &$crate::span::Spans = $spans;
        if spans.is_on() {
            spans.enter($name, ::std::format!($($fmt)+))
        } else {
            $crate::span::Span::off()
        }
    }};
}

/// Logs at error level (always printed).
#[macro_export]
macro_rules! error {
    ($($fmt:tt)+) => {
        $crate::log::write($crate::log::Level::Error, ::std::format_args!($($fmt)+))
    };
}

/// Logs at info level when the [`log::Verbosity`] given first is 1
/// (`-v`) or more; the format arguments are evaluated only then.
#[macro_export]
macro_rules! info {
    ($verbosity:expr, $($fmt:tt)+) => {
        if $crate::log::Verbosity::enabled($verbosity, $crate::log::Level::Info) {
            $crate::log::write($crate::log::Level::Info, ::std::format_args!($($fmt)+))
        }
    };
}

/// Logs at debug level when the [`log::Verbosity`] given first is 2
/// (`-vv`) or more; the format arguments are evaluated only then.
#[macro_export]
macro_rules! debug {
    ($verbosity:expr, $($fmt:tt)+) => {
        if $crate::log::Verbosity::enabled($verbosity, $crate::log::Level::Debug) {
            $crate::log::write($crate::log::Level::Debug, ::std::format_args!($($fmt)+))
        }
    };
}
