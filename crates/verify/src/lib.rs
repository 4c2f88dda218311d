//! Differential verification for the Eureka reproduction.
//!
//! Three oracle layers, from strongest to broadest:
//!
//! * **Numeric** ([`oracle`]) — for every architecture whose timing model
//!   rests on a concrete dataflow, run random sparse GEMMs through the
//!   real tiling → compaction → SUDS → executor pipeline and demand
//!   bit-exact agreement with the schoolbook dense reference
//!   ([`eureka_models::gemm::naive_gemm`]). Integer values and a capped
//!   reduction dimension make FP16 arithmetic exact, so any mismatch is a
//!   real bug.
//! * **Brute force** ([`suds_oracle`]) — certify `suds::optimize` against
//!   exhaustive search: feasible, optimal, minimal; greedy never beats it.
//! * **Metamorphic** ([`metamorphic`]) — invariants between related runs
//!   (rotation/permutation invariance, density monotonicity on coupled
//!   masks, P=1 ≡ dense, simulator determinism) for *every* registry
//!   architecture, including those with no functional executor.
//!
//! The [`fuzz`] driver generates seeded cases, shrinks failures to minimal
//! reproducers, and serializes them as one-line [`corpus`] entries which
//! `tests/differential.rs` replays forever after. The CLI front end is
//! `eureka verify --cases N --seed S [--arch A]`.

pub mod case;
pub mod chaos;
pub mod corpus;
pub mod faultcheck;
pub mod fuzz;
pub mod metamorphic;
pub mod oracle;
pub mod suds_oracle;

pub use case::CaseParams;
pub use chaos::run_chaos;
pub use corpus::CorpusEntry;
pub use faultcheck::run_fault_matrix;
pub use fuzz::{Failure, FuzzReport};
pub use oracle::{numeric_path, NumericPath, PlanKind};

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Options for a verification run (mirrors the CLI flags).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Seeded cases per architecture.
    pub cases: u32,
    /// Master seed for the case stream.
    pub seed: u64,
    /// Restrict to one registry architecture (default: all).
    pub arch: Option<String>,
    /// Where to persist shrunk failing cases (default: nowhere).
    pub corpus_dir: Option<PathBuf>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            cases: 100,
            seed: 42,
            arch: None,
            corpus_dir: None,
        }
    }
}

/// Runs the full differential suite.
///
/// # Errors
///
/// A report of every shrunk failure (with its replayable corpus line) if
/// any check fails, or an option/IO problem. The success value is a
/// per-architecture summary.
pub fn run(opts: &VerifyOptions) -> Result<String, String> {
    let registry = eureka_sim::arch::registry_names();
    let archs: Vec<&str> = match &opts.arch {
        Some(a) => {
            if registry.contains(&a.as_str()) {
                vec![a.as_str()]
            } else {
                return Err(format!(
                    "unknown architecture {a:?}; available: {}",
                    registry.join(", ")
                ));
            }
        }
        None => registry,
    };

    let mut summary = String::new();
    let mut failures = Vec::new();
    for arch in archs {
        let report = fuzz::run_arch(arch, opts.cases, opts.seed);
        let _ = writeln!(
            summary,
            "{arch:<16} {} cases, {} checks ({}): {}",
            report.cases,
            report.checks,
            fuzz::checks_for(arch).join("+"),
            if report.failures.is_empty() {
                "ok".to_string()
            } else {
                format!("{} FAILED", report.failures.len())
            }
        );
        failures.extend(report.failures);
    }

    if failures.is_empty() {
        let _ = writeln!(summary, "all architectures verified");
        return Ok(summary);
    }

    if let Some(dir) = &opts.corpus_dir {
        for failure in &failures {
            corpus::append(dir, &failure.entry)
                .map_err(|e| format!("cannot write corpus to {}: {e}", dir.display()))?;
        }
    }
    let mut out = summary;
    let _ = writeln!(out, "\n{} failure(s) after shrinking:", failures.len());
    for failure in &failures {
        let _ = writeln!(
            out,
            "\n  {}\n  {}",
            failure.entry.to_line(),
            failure.message
        );
    }
    let _ = writeln!(
        out,
        "\nreplay a line by appending it to tests/corpus/*.txt and running \
         `cargo test --test differential`"
    );
    Err(out)
}

/// Replays every corpus entry under `dir`; used by the tier-1 regression
/// test and CI.
///
/// # Errors
///
/// Lists every entry that still fails, or an unreadable corpus.
pub fn replay_corpus(dir: &Path) -> Result<String, String> {
    let entries =
        corpus::load_dir(dir).map_err(|e| format!("cannot read corpus {}: {e}", dir.display()))?;
    let mut failed = Vec::new();
    for entry in &entries {
        if let Err(message) = fuzz::replay(entry) {
            failed.push(format!("  {}\n  {message}", entry.to_line()));
        }
    }
    if failed.is_empty() {
        Ok(format!(
            "replayed {} corpus entr(ies), all pass",
            entries.len()
        ))
    } else {
        Err(format!(
            "{} of {} corpus entr(ies) regressed:\n{}",
            failed.len(),
            entries.len(),
            failed.join("\n")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_arch_is_rejected_with_the_available_list() {
        let err = run(&VerifyOptions {
            cases: 1,
            arch: Some("not-an-arch".into()),
            ..VerifyOptions::default()
        })
        .unwrap_err();
        assert!(err.contains("not-an-arch"));
        assert!(err.contains("eureka-p4"));
    }

    #[test]
    fn single_arch_run_passes_and_summarizes() {
        let out = run(&VerifyOptions {
            cases: 5,
            seed: 7,
            arch: Some("eureka-p2".into()),
            corpus_dir: None,
        })
        .unwrap();
        assert!(out.contains("eureka-p2"), "{out}");
        assert!(out.contains("all architectures verified"), "{out}");
    }

    #[test]
    fn empty_corpus_replays_cleanly() {
        let out = replay_corpus(Path::new("/nonexistent/corpus")).unwrap();
        assert!(out.contains("0 corpus entr(ies)"), "{out}");
    }
}
