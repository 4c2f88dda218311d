//! Verbosity-gated stderr logging.
//!
//! One helper for every diagnostic line in the workspace — CLI errors,
//! `-v` telemetry summaries, `-vv` per-layer breakdowns — instead of
//! stray `eprintln!` call sites. Output always goes to **stderr**, so
//! machine-readable stdout (CSV, JSON) stays clean.
//!
//! Levels: [`Level::Error`] always prints; [`Level::Info`] prints at
//! verbosity ≥ 1 (`-v`); [`Level::Debug`] prints at verbosity ≥ 2
//! (`-vv`). A command builds its [`Verbosity`] from its flags and hands
//! it to the [`crate::info!`] and [`crate::debug!`] macros; the
//! [`crate::error!`] macro needs none.

use std::fmt;

/// Log severity, gated against a [`Verbosity`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Always printed, prefixed `error:`.
    Error,
    /// Printed at verbosity ≥ 1.
    Info,
    /// Printed at verbosity ≥ 2, prefixed `debug:`.
    Debug,
}

/// A command's diagnostic verbosity: 0 = errors only (the
/// [`Default`]), 1 = `-v`, 2 or more = `-vv`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verbosity(pub u8);

impl Verbosity {
    /// Whether `level` prints at this verbosity.
    #[must_use]
    pub fn enabled(self, level: Level) -> bool {
        match level {
            Level::Error => true,
            Level::Info => self.0 >= 1,
            Level::Debug => self.0 >= 2,
        }
    }
}

/// Writes one line at `level` to stderr. The macros check the
/// verbosity first; prefer them over calling this directly.
pub fn write(level: Level, args: fmt::Arguments<'_>) {
    match level {
        Level::Error => eprintln!("error: {args}"),
        Level::Info => eprintln!("{args}"),
        Level::Debug => eprintln!("debug: {args}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_gate_on_verbosity() {
        let gates =
            |v: u8| [Level::Error, Level::Info, Level::Debug].map(|l| Verbosity(v).enabled(l));
        assert_eq!(gates(0), [true, false, false]);
        assert_eq!(Verbosity::default(), Verbosity(0));
        assert_eq!(gates(1), [true, true, false]);
        assert_eq!(gates(2), [true, true, true]);
        assert_eq!(gates(3), [true, true, true]);
    }

    #[test]
    fn suppressed_levels_never_evaluate_their_arguments() {
        let evaluated = std::cell::Cell::new(0);
        let arg = || evaluated.replace(evaluated.get() + 1);
        crate::info!(Verbosity(0), "suppressed {}", arg());
        crate::debug!(Verbosity(1), "suppressed {}", arg());
        assert_eq!(evaluated.get(), 0);
        crate::error!("test error {}", arg());
        assert_eq!(evaluated.get(), 1);
    }
}
