//! Typed failure handling for the runner drive path.
//!
//! A work unit that panics or returns a [`SimError`] no longer aborts the
//! sweep: the runner isolates it ([`std::panic::catch_unwind`]), retries
//! it under a bounded deterministic [`RetryPolicy`], and reduces whatever
//! survived into a [`JobOutcome`] — complete, degraded (partial layers
//! plus a structured failure list), or failed. Sweeps keep hours of
//! per-layer results when one unit dies; see DESIGN.md "Failure model &
//! recovery".

use crate::arch::SimError;
use crate::report::SimReport;
use core::fmt;

/// Why a work unit failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The unit panicked; the panic message is in
    /// [`UnitFailure::payload`].
    Panic,
    /// The architecture returned a [`SimError`].
    Sim(SimError),
    /// The unit was cooperatively stopped at a unit boundary: its
    /// [`crate::runner::CancelToken`] fired (operator cancel or
    /// deadline) before the unit began executing. Never retried — the
    /// token stays fired, so a retry would observe it again.
    Cancelled,
}

impl FailureKind {
    /// Short label for reports and metrics
    /// (`panic` / `sim-error` / `cancelled`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Sim(_) => "sim-error",
            FailureKind::Cancelled => "cancelled",
        }
    }
}

/// One failed work unit: where it was, why it failed, and everything
/// needed to reproduce it deterministically.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitFailure {
    /// Index of the owning job in the submitted batch.
    pub job: usize,
    /// Layer index within the job's workload.
    pub layer: usize,
    /// Layer (GEMM) name.
    pub layer_name: String,
    /// Architecture display name.
    pub arch: String,
    /// Failure classification.
    pub kind: FailureKind,
    /// Panic message or error rendering.
    pub payload: String,
    /// The workload RNG seed — together with the layer index (the RNG
    /// stream) this pins the unit's exact random state.
    pub rng_seed: u64,
    /// How many attempts were made before giving up (≥ 1, except
    /// [`FailureKind::Cancelled`], which reports 0: the unit never ran).
    pub attempts: u32,
}

impl UnitFailure {
    /// Collapses the failure into a [`SimError`] for legacy
    /// `Result`-shaped callers: simulation errors pass through, panics
    /// become [`SimError::UnitPanic`].
    #[must_use]
    pub fn to_sim_error(&self) -> SimError {
        match &self.kind {
            FailureKind::Sim(e) => e.clone(),
            FailureKind::Panic => SimError::UnitPanic {
                layer: self.layer_name.clone(),
                payload: self.payload.clone(),
            },
            FailureKind::Cancelled => SimError::Cancelled {
                layer: self.layer_name.clone(),
            },
        }
    }
}

impl fmt::Display for UnitFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} layer {} ({}) on {}: {} after {} attempt(s), seed {:#x}: {}",
            self.job,
            self.layer,
            self.layer_name,
            self.arch,
            self.kind.label(),
            self.attempts,
            self.rng_seed,
            self.payload
        )
    }
}

/// The result of running one [`crate::runner::SimJob`] under fault
/// isolation.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// Every layer simulated successfully.
    Complete(SimReport),
    /// Some layers failed; `report` holds the surviving layers
    /// (bit-identical to what a fault-free run produces for them) and
    /// `failed_layers` records every failure in layer order.
    Degraded {
        /// Surviving layers, in layer-index order.
        report: SimReport,
        /// One entry per failed unit, lowest layer index first.
        failed_layers: Vec<UnitFailure>,
    },
    /// Every layer failed.
    Failed {
        /// One entry per failed unit, lowest layer index first.
        failures: Vec<UnitFailure>,
    },
}

impl JobOutcome {
    /// The (possibly partial) report, if any layer survived.
    #[must_use]
    pub fn report(&self) -> Option<&SimReport> {
        match self {
            JobOutcome::Complete(r) | JobOutcome::Degraded { report: r, .. } => Some(r),
            JobOutcome::Failed { .. } => None,
        }
    }

    /// Every recorded failure (empty for [`JobOutcome::Complete`]).
    #[must_use]
    pub fn failures(&self) -> &[UnitFailure] {
        match self {
            JobOutcome::Complete(_) => &[],
            JobOutcome::Degraded { failed_layers, .. } => failed_layers,
            JobOutcome::Failed { failures } => failures,
        }
    }

    /// Whether every layer simulated successfully.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, JobOutcome::Complete(_))
    }

    /// Legacy `Result` view: a complete report, or the lowest-layer-index
    /// failure as a [`SimError`] (panics surface as
    /// [`SimError::UnitPanic`]). Partial results are discarded — callers
    /// that want them should match on the outcome instead.
    ///
    /// # Errors
    ///
    /// The first failure, when the outcome is degraded or failed.
    pub fn into_result(self) -> Result<SimReport, SimError> {
        match self {
            JobOutcome::Complete(r) => Ok(r),
            JobOutcome::Degraded { failed_layers, .. } => Err(failed_layers
                .first()
                .expect("invariant: a degraded outcome records at least one failure")
                .to_sim_error()),
            JobOutcome::Failed { failures } => Err(failures
                .first()
                .expect("invariant: a failed outcome records at least one failure")
                .to_sim_error()),
        }
    }
}

/// Bounded deterministic retry policy for failed work units.
///
/// Retrying re-executes the same pure unit on the same inputs, so under
/// real (deterministic) failures a retry reproduces the failure and the
/// policy only bounds wasted work; its value is for genuinely transient
/// faults (and the fault-injection layer models exactly those via
/// per-attempt [`crate::faults::FaultSpec::fail_first`] counters). Panics
/// and [`SimError`]s are retried; [`SimError::Unsupported`] never is: it
/// is a declared permanent incompatibility, and retrying a pure function
/// on identical inputs cannot change a deterministic refusal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per unit, including the first (≥ 1).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// No retries: one attempt per unit (the default).
    pub const NONE: RetryPolicy = RetryPolicy { max_attempts: 1 };

    /// No retries: one attempt per unit.
    #[must_use]
    pub fn none() -> Self {
        Self::NONE
    }

    /// Retry panics and simulation errors with at most `max_attempts`
    /// total attempts per unit.
    #[must_use]
    pub fn transient(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
        }
    }

    /// Whether a failure of `kind` on attempt number `attempt` (1-based)
    /// should be retried.
    #[must_use]
    pub fn should_retry(&self, kind: &FailureKind, attempt: u32) -> bool {
        if attempt >= self.max_attempts {
            return false;
        }
        match kind {
            FailureKind::Panic => true,
            // Permanent by definition: see the type's docs.
            FailureKind::Sim(SimError::Unsupported { .. }) => false,
            FailureKind::Sim(_) => true,
            // The token stays fired; retrying would observe it again.
            FailureKind::Cancelled => false,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::NONE
    }
}

/// Renders a structured failure report: one line per failure, naming the
/// (job, layer, kind, seed) site, for CLI output and CI artifacts.
#[must_use]
pub fn render_failure_report(failures: &[UnitFailure]) -> String {
    let mut out = format!("{} unit failure(s):\n", failures.len());
    for f in failures {
        out.push_str(&format!("  {f}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::LayerReport;

    fn failure(kind: FailureKind) -> UnitFailure {
        UnitFailure {
            job: 0,
            layer: 3,
            layer_name: "conv3".into(),
            arch: "Dense".into(),
            kind,
            payload: "boom".into(),
            rng_seed: 0x42,
            attempts: 2,
        }
    }

    #[test]
    fn panic_failures_surface_as_unit_panic_errors() {
        let f = failure(FailureKind::Panic);
        match f.to_sim_error() {
            SimError::UnitPanic { layer, payload } => {
                assert_eq!(layer, "conv3");
                assert_eq!(payload, "boom");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sim_failures_pass_through() {
        let e = SimError::Unsupported {
            arch: "S2TA".into(),
            reason: "no data".into(),
        };
        let f = failure(FailureKind::Sim(e.clone()));
        assert_eq!(f.to_sim_error(), e);
    }

    #[test]
    fn outcome_accessors() {
        let report = SimReport {
            arch: "Dense".into(),
            workload: "w".into(),
            layers: vec![LayerReport::default()],
        };
        let complete = JobOutcome::Complete(report.clone());
        assert!(complete.is_complete());
        assert!(complete.failures().is_empty());
        assert_eq!(complete.report(), Some(&report));

        let degraded = JobOutcome::Degraded {
            report: report.clone(),
            failed_layers: vec![failure(FailureKind::Panic)],
        };
        assert!(!degraded.is_complete());
        assert_eq!(degraded.failures().len(), 1);
        assert!(degraded.clone().into_result().is_err());

        let failed = JobOutcome::Failed {
            failures: vec![failure(FailureKind::Panic)],
        };
        assert_eq!(failed.report(), None);
        assert!(failed.into_result().is_err());
    }

    #[test]
    fn retry_policy_never_retries_unsupported() {
        let p = RetryPolicy::transient(5);
        let unsupported = FailureKind::Sim(SimError::Unsupported {
            arch: "S2TA".into(),
            reason: "no data".into(),
        });
        assert!(!p.should_retry(&unsupported, 1));
        assert!(
            !p.should_retry(&FailureKind::Cancelled, 1),
            "a fired cancel token never un-fires"
        );
        assert!(p.should_retry(&FailureKind::Panic, 1));
        let injected = FailureKind::Sim(SimError::Injected { site: "l0".into() });
        assert!(
            p.should_retry(&injected, 1),
            "other sim errors are transient"
        );
        assert!(p.should_retry(&FailureKind::Panic, 4));
        assert!(!p.should_retry(&FailureKind::Panic, 5), "budget exhausted");
        assert!(!RetryPolicy::none().should_retry(&FailureKind::Panic, 1));
    }

    #[test]
    fn failure_report_names_every_site() {
        let report = render_failure_report(&[failure(FailureKind::Panic)]);
        assert!(report.contains("1 unit failure(s)"));
        assert!(report.contains("job 0 layer 3 (conv3)"));
        assert!(report.contains("panic"));
        assert!(report.contains("0x42"));
    }
}
