//! Fault-tolerance verification: a seeded fault matrix over the runner.
//!
//! Complements the differential oracles: instead of checking *timing
//! model* correctness, this proves the *drive path's* failure contract
//! under deterministic fault injection ([`eureka_sim::faults`]):
//!
//! * a permanently faulted unit (panic or typed error) degrades the job —
//!   it never aborts the process and never discards surviving layers;
//! * every surviving layer is bit-identical to the fault-free run, in
//!   serial and parallel alike;
//! * failed units never poison a runner's unit records;
//! * a transient fault plus a [`RetryPolicy`] recovers to a report
//!   bit-identical to the fault-free run;
//! * a degraded run's store directory resumes to a complete,
//!   bit-identical report (the kill-and-resume story, emulated in
//!   process);
//! * slow units (stalls) change nothing but wall-clock.
//!
//! The CLI front end is `eureka verify --fault-matrix [--seed S]`.

use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::arch::{self, Architecture};
use eureka_sim::faults::{FaultKind, FaultPlan, FaultSpec, FaultyArch};
use eureka_sim::report::SimReport;
use eureka_sim::runner::{Runner, SimJob};
use eureka_sim::{JobOutcome, RetryPolicy, SimConfig};
use std::fmt::Write as _;

/// Faults injected per matrix cell.
const FAULTS_PER_CELL: usize = 2;

fn matrix_config() -> SimConfig {
    // Distinct sampling keeps this suite's cache entries disjoint from
    // every other test that simulates MobileNet under `fast()`.
    SimConfig {
        rowgroup_samples: 6,
        ..SimConfig::fast()
    }
}

fn check(cond: bool, msg: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("fault-matrix: {msg}"))
    }
}

/// Asserts every layer of `got` matches `want` bit-identically (layer
/// set and contents; the report-level arch label is allowed to differ).
fn layers_match(got: &SimReport, want: &SimReport, what: &str) -> Result<(), String> {
    check(
        got.layers.len() == want.layers.len(),
        &format!(
            "{what}: {} layer(s), expected {}",
            got.layers.len(),
            want.layers.len()
        ),
    )?;
    for layer in &want.layers {
        let found = got.layer_by_name(&layer.name);
        check(
            found == Some(layer),
            &format!("{what}: layer '{}' differs from fault-free run", layer.name),
        )?;
    }
    Ok(())
}

/// Asserts the surviving layers of a degraded report are a strict,
/// bit-identical subset of the fault-free baseline.
fn survivors_match(got: &SimReport, baseline: &SimReport, what: &str) -> Result<(), String> {
    for layer in &got.layers {
        let want = baseline.layer_by_name(&layer.name);
        check(
            want == Some(layer),
            &format!("{what}: surviving layer '{}' differs", layer.name),
        )?;
    }
    Ok(())
}

fn runner_for(jobs: usize) -> Runner {
    if jobs <= 1 {
        Runner::serial()
    } else {
        Runner::with_jobs(jobs)
    }
}

fn kind_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Panic => "panic",
        FaultKind::Error => "error",
        FaultKind::Stall(_) => "stall",
    }
}

/// One matrix cell: inject a seeded plan of permanent `kind` faults and
/// check the outcome taxonomy, the failure records, survivor identity,
/// and (via an identically-named clean wrapper) cache hygiene.
fn run_cell(
    seed: u64,
    kind: FaultKind,
    jobs: usize,
    workload: &Workload,
    cfg: &SimConfig,
    baseline: &SimReport,
    out: &mut String,
) -> Result<(), String> {
    let layers: Vec<String> = workload.gemms().into_iter().map(|g| g.name).collect();
    let plan = FaultPlan::seeded(seed, &layers, FAULTS_PER_CELL, kind);
    check(
        plan == FaultPlan::seeded(seed, &layers, FAULTS_PER_CELL, kind),
        "seeded plans must be deterministic",
    )?;
    let label = kind_label(kind);
    let tag = format!("fm-{label}-j{jobs}-s{seed:x}");
    let cell = format!("{label} x jobs={jobs}");

    let faulty = FaultyArch::new(Box::new(arch::eureka_p4()), plan.clone(), &tag);
    let runner = runner_for(jobs);
    let outcome = runner.run_outcome(&SimJob::new(&faulty, workload, *cfg));

    match kind {
        // Stalls only cost time: the job must complete bit-identically.
        FaultKind::Stall(_) => {
            check(
                outcome.is_complete(),
                &format!("{cell}: stall must complete"),
            )?;
            let report = outcome.report().expect("complete outcome has a report");
            layers_match(report, baseline, &cell)?;
            let _ = writeln!(
                out,
                "  {cell:<22} complete, {} layer(s) identical",
                report.layers.len()
            );
        }
        // Permanent panics/errors degrade the job without losing the
        // survivors.
        FaultKind::Panic | FaultKind::Error => {
            let JobOutcome::Degraded {
                report,
                failed_layers,
            } = outcome
            else {
                return Err(format!("fault-matrix: {cell}: expected a degraded outcome"));
            };
            check(
                failed_layers.len() == FAULTS_PER_CELL,
                &format!(
                    "{cell}: {} failure(s), expected {FAULTS_PER_CELL}",
                    failed_layers.len()
                ),
            )?;
            for f in &failed_layers {
                check(
                    plan.sites().contains(&f.layer_name.as_str()),
                    &format!("{cell}: unplanned failure at '{}'", f.layer_name),
                )?;
                check(
                    f.kind.label()
                        == if kind == FaultKind::Panic {
                            "panic"
                        } else {
                            "sim-error"
                        },
                    &format!(
                        "{cell}: failure at '{}' has kind '{}'",
                        f.layer_name,
                        f.kind.label()
                    ),
                )?;
                check(
                    f.attempts == 1,
                    &format!("{cell}: no retry policy, yet {} attempt(s)", f.attempts),
                )?;
            }
            check(
                report.layers.len() + failed_layers.len() == baseline.layers.len(),
                &format!("{cell}: survivors + failures != planned layers"),
            )?;
            survivors_match(&report, baseline, &cell)?;

            // Cache hygiene: a clean wrapper with the SAME display name
            // hits the cache entries the degraded run wrote. If a failed
            // unit had poisoned the cache, this run could not produce a
            // complete, baseline-identical report.
            let clean = FaultyArch::new(Box::new(arch::eureka_p4()), FaultPlan::empty(), &tag);
            let rerun = runner.run_outcome(&SimJob::new(&clean, workload, *cfg));
            check(
                rerun.is_complete(),
                &format!("{cell}: clean rerun under the same cache name must complete"),
            )?;
            layers_match(
                rerun.report().expect("complete outcome has a report"),
                baseline,
                &format!("{cell} (clean rerun)"),
            )?;
            let _ = writeln!(
                out,
                "  {cell:<22} degraded {}/{} at [{}], survivors identical, cache clean",
                failed_layers.len(),
                baseline.layers.len(),
                plan.sites().join(", ")
            );
        }
    }
    Ok(())
}

/// Transient faults (one failing attempt per site) plus a two-attempt
/// retry policy must recover to a fault-free-identical report.
fn run_retry_check(
    seed: u64,
    workload: &Workload,
    cfg: &SimConfig,
    baseline: &SimReport,
    out: &mut String,
) -> Result<(), String> {
    let layers: Vec<String> = workload.gemms().into_iter().map(|g| g.name).collect();
    let sites = FaultPlan::seeded(seed, &layers, FAULTS_PER_CELL, FaultKind::Error);
    let plan = FaultPlan::new(
        sites
            .sites()
            .iter()
            .enumerate()
            .map(|(i, layer)| FaultSpec {
                layer: (*layer).to_string(),
                // Alternate kinds so both transient paths get exercised.
                kind: if i % 2 == 0 {
                    FaultKind::Error
                } else {
                    FaultKind::Panic
                },
                fail_first: 1,
            })
            .collect(),
    );
    let faulty = FaultyArch::new(
        Box::new(arch::eureka_p4()),
        plan,
        &format!("fm-retry-s{seed:x}"),
    );
    let outcome = Runner::serial()
        .with_retry(RetryPolicy::transient(2))
        .run_outcome(&SimJob::new(&faulty, workload, *cfg));
    check(
        outcome.is_complete(),
        "retry: transient faults under transient(2) must complete",
    )?;
    layers_match(
        outcome.report().expect("complete outcome has a report"),
        baseline,
        "retry",
    )?;
    let _ = writeln!(
        out,
        "  retry                  transient faults recovered, report identical"
    );
    Ok(())
}

/// Emulates kill-and-resume: a degraded run with a store directory
/// leaves its survivor units in the directory's records; a fresh runner
/// on it, under the same arch name, completes and matches the fault-free
/// baseline bit-identically.
fn run_resume_check(
    seed: u64,
    workload: &Workload,
    cfg: &SimConfig,
    baseline: &SimReport,
    out: &mut String,
) -> Result<(), String> {
    let dir =
        std::env::temp_dir().join(format!("eureka-faultcheck-{}-{seed:x}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("fault-matrix: mkdir: {e}"))?;
    let result = (|| {
        let layers: Vec<String> = workload.gemms().into_iter().map(|g| g.name).collect();
        let plan = FaultPlan::seeded(seed, &layers, FAULTS_PER_CELL, FaultKind::Error);
        let tag = format!("fm-resume-s{seed:x}");

        // "Crashing" run, on a runner of its own.
        let faulty = FaultyArch::new(Box::new(arch::eureka_p4()), plan, &tag);
        let first = Runner::serial()
            .with_store_dir(&dir)
            .run_outcome(&SimJob::new(&faulty, workload, *cfg));
        let survivors = first.report().map(|r| r.layers.len()).unwrap_or_default();
        check(
            !first.is_complete() && survivors > 0,
            "resume: the faulted run must degrade, not fail outright",
        )?;

        // Resumed run: same arch name, clean plan, and a fresh runner,
        // so the survivors can only come from the directory's records,
        // exactly as in a fresh process.
        let clean = FaultyArch::new(Box::new(arch::eureka_p4()), FaultPlan::empty(), &tag);
        let runner = Runner::serial().with_store_dir(&dir);
        let resumed = runner.run_outcome(&SimJob::new(&clean, workload, *cfg));
        check(resumed.is_complete(), "resume: resumed run must complete")?;
        check(
            runner.metrics().counter_value("checkpoint.hits") >= Some(survivors as u64),
            "resume: every survivor must replay from the records, not recompute",
        )?;
        layers_match(
            resumed.report().expect("complete outcome has a report"),
            baseline,
            "resume",
        )?;
        let _ = writeln!(
            out,
            "  resume                 {survivors} survivor(s) recorded, resumed report identical"
        );
        Ok(())
    })();
    std::fs::remove_dir_all(&dir).ok();
    result
}

/// Runs the seeded fault matrix (kind × parallelism) plus the retry and
/// store-directory resume checks.
///
/// # Errors
///
/// The first violated contract, as a message naming the matrix cell.
pub fn run_fault_matrix(seed: u64) -> Result<String, String> {
    let cfg = matrix_config();
    let workload = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let clean = arch::eureka_p4();
    let baseline = Runner::serial()
        .run(&SimJob::new(&clean, &workload, cfg))
        .map_err(|e| format!("fault-matrix: baseline run failed: {e}"))?;

    let mut out = format!(
        "fault matrix: {} on {}, seed {seed}, {FAULTS_PER_CELL} fault(s)/cell\n",
        clean.name(),
        workload.benchmark().name()
    );
    for kind in [FaultKind::Panic, FaultKind::Error, FaultKind::Stall(5)] {
        for jobs in [1usize, 4] {
            run_cell(seed, kind, jobs, &workload, &cfg, &baseline, &mut out)?;
        }
    }
    run_retry_check(seed, &workload, &cfg, &baseline, &mut out)?;
    run_resume_check(seed, &workload, &cfg, &baseline, &mut out)?;
    let _ = writeln!(out, "fault-tolerance contract holds");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_matrix_passes_on_default_seed() {
        let out = run_fault_matrix(42).expect("contract holds");
        assert!(out.contains("fault-tolerance contract holds"), "{out}");
        assert!(out.contains("panic x jobs=1"), "{out}");
        assert!(out.contains("stall x jobs=4"), "{out}");
        assert!(out.contains("resume"), "{out}");
    }
}
