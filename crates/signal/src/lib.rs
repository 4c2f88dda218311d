//! Async-signal-safe termination latch for the resident job service.
//!
//! `eureka serve` must drain gracefully on SIGTERM: finish in-flight
//! jobs, reject new ones, flush the store and the journal, then exit.
//! Pure-std Rust has no way to observe signals, so this crate makes the
//! one FFI call in the workspace: it registers a C handler (via the
//! libc `signal(2)` already linked by `std`) whose only action is a
//! relaxed atomic store — the strictest reading of async-signal-safety.
//! Everything else (drain, flush, journal writes) happens on ordinary
//! threads that poll [`termination_requested`]. Handlers get BSD
//! `signal(2)` semantics (SA_RESTART), so blocking syscalls restart
//! rather than fail with EINTR; a thread blocked in one must be woken
//! some other way.
//!
//! On non-Unix targets the latch degrades to a plain process-local
//! flag: [`install_termination_latch`] is a no-op and only
//! [`raise_termination`] can set it.

#![warn(missing_docs)]
// This crate is the single deliberate exception to the workspace-wide
// `forbid(unsafe_code)`: registering a signal handler requires FFI.

use std::sync::atomic::{AtomicBool, Ordering};

/// The latch. Set from the signal handler (or [`raise_termination`]),
/// cleared only by [`reset_termination`].
static TERMINATION: AtomicBool = AtomicBool::new(false);

/// `SIGTERM` on every Unix the simulator targets.
pub const SIGTERM: i32 = 15;
/// `SIGINT` (Ctrl-C).
pub const SIGINT: i32 = 2;

#[cfg(unix)]
mod imp {
    use super::{Ordering, SIGINT, SIGTERM, TERMINATION};

    extern "C" {
        // `sighandler_t signal(int, sighandler_t)` — handlers are plain
        // function pointers, passed and returned as machine words.
        fn signal(signum: i32, handler: usize) -> usize;
        fn raise(signum: i32) -> i32;
    }

    extern "C" fn on_termination(_signum: i32) {
        // An atomic store is async-signal-safe; nothing else is allowed
        // in here (no allocation, no locks, no I/O).
        TERMINATION.store(true, Ordering::Relaxed);
    }

    pub fn install() {
        // SAFETY: `on_termination` is a valid `extern "C" fn(i32)` for
        // the whole program lifetime and performs only an atomic store.
        unsafe {
            signal(SIGTERM, on_termination as *const () as usize);
            signal(SIGINT, on_termination as *const () as usize);
        }
    }

    pub fn raise_term() {
        // SAFETY: `raise(2)` with a valid signal number; the installed
        // handler (or the default) runs synchronously in this thread.
        unsafe {
            raise(SIGTERM);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use super::{Ordering, TERMINATION};

    pub fn install() {}

    pub fn raise_term() {
        TERMINATION.store(true, Ordering::Relaxed);
    }
}

/// Registers the SIGTERM/SIGINT handler (idempotent; no-op off Unix).
/// Call once before entering a serve loop.
pub fn install_termination_latch() {
    imp::install();
}

/// Whether a termination signal has arrived since the last
/// [`reset_termination`]. Cheap enough to poll every loop iteration.
#[must_use]
pub fn termination_requested() -> bool {
    TERMINATION.load(Ordering::Relaxed)
}

/// Clears the latch (tests, or a serve loop that restarts itself).
pub fn reset_termination() {
    TERMINATION.store(false, Ordering::Relaxed);
}

/// Delivers SIGTERM to the current process (test helper: exercises the
/// real handler path on Unix). Requires
/// [`install_termination_latch`] first — with no handler installed the
/// process default (terminate) applies.
pub fn raise_termination() {
    imp::raise_term();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_round_trips_through_a_real_signal() {
        install_termination_latch();
        reset_termination();
        assert!(!termination_requested());
        raise_termination();
        assert!(termination_requested(), "handler must set the latch");
        reset_termination();
        assert!(!termination_requested());
    }
}
