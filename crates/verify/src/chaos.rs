//! Chaos verification for the resident job service.
//!
//! Extends the fault-injection layer ([`eureka_sim::faults`]) from the
//! runner up into the service: seeded schedules of worker panics,
//! transient faults, stalls that cross deadlines, mid-job crash (the
//! in-process SIGKILL emulation) with journal replay, on-disk
//! corruption of the journal and the unit-record log, and overload
//! shedding. After every scenario the service must land in a consistent
//! ledger — the `service.*` reconciliation invariant holds — and every
//! surviving result must be bit-identical to a fault-free run of the
//! same spec.
//!
//! Scenarios cycle per case, so `--cases 50` runs each of the seven
//! about seven times under varying seeds. The CLI front end is
//! `eureka verify --chaos [--cases N] [--seed S]`.

use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::arch;
use eureka_sim::checkpoint;
use eureka_sim::faults::{self, FaultKind, FaultPlan, FaultSpec};
use eureka_sim::report::SimReport;
use eureka_sim::runner::{Runner, SimJob};
use eureka_sim::service::{self, JobService, JobSpec, JobStatus, ServiceConfig, SubmitError};
use eureka_sim::{Journal, SimConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Small sampling, so each scenario's jobs finish fast.
fn chaos_config() -> SimConfig {
    SimConfig {
        rowgroup_samples: 21,
        slice_samples: 4,
        act_samples: 4,
        ..SimConfig::fast()
    }
}

fn check(cond: bool, msg: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("chaos: {msg}"))
    }
}

/// Asserts every baseline layer appears bit-identically in `got` (the
/// report-level arch label may differ: injected archs carry a ⚡tag).
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
        check(
            got.layer_by_name(&layer.name) == Some(layer),
            &format!("{what}: layer '{}' differs from fault-free run", layer.name),
        )?;
    }
    Ok(())
}

/// Asserts `svc`'s `service.*` ledger reconciles at quiescence, and
/// that the per-outcome-class latency histograms agree with it sample
/// for sample: every terminal transition recorded exactly one
/// end-to-end latency sample in its class, so the histogram counts must
/// equal the counters under every chaos scenario.
fn check_reconciled(svc: &JobService, what: &str) -> Result<(), String> {
    let s = svc.stats();
    check(
        s.reconciled(),
        &format!(
            "{what}: ledger does not reconcile: served={} != completed={} + shed={} \
             + cancelled={} + deadline_exceeded={} + failed={}",
            s.served, s.completed, s.shed, s.cancelled, s.deadline_exceeded, s.failed
        ),
    )?;
    let counts = svc.latency_counts();
    let expected = [
        s.completed,
        s.shed,
        s.cancelled,
        s.deadline_exceeded,
        s.failed,
    ];
    check(
        counts == expected,
        &format!(
            "{what}: latency histogram counts diverge from the service ledger: \
             e2e counts per class {counts:?} != counters {expected:?} \
             (order: {:?})",
            service::OUTCOME_CLASSES
        ),
    )
}

/// One chaos case's sandbox: fresh journal and store dirs and a
/// case-unique fault tag (tags namespace the unit records).
struct Sandbox {
    root: PathBuf,
    tag: String,
}

impl Sandbox {
    fn new(seed: u64, case: u32) -> Result<Self, String> {
        let tag = format!("chaos-{seed:x}-{case}");
        let root = std::env::temp_dir().join(format!("eureka-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).map_err(|e| format!("chaos: mkdir: {e}"))?;
        Ok(Sandbox { root, tag })
    }

    fn config(&self, plan: FaultPlan) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(self.root.join("journal"));
        cfg.sim = chaos_config();
        cfg.store_dir = Some(self.store());
        // Fast, deterministic retry spacing for chaos runs.
        cfg.backoff = eureka_sim::BackoffPolicy::exponential(100, 2_000);
        cfg.fault = Some((plan, self.tag.clone()));
        cfg
    }

    fn journal(&self) -> Journal {
        Journal::new(self.root.join("journal"))
    }

    fn store(&self) -> PathBuf {
        self.root.join("store")
    }
}

impl Drop for Sandbox {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

fn spec() -> JobSpec {
    JobSpec::new(
        Benchmark::MobileNetV1,
        PruningLevel::Moderate,
        32,
        "eureka-p4",
    )
}

fn submit_and_wait(svc: &JobService, s: JobSpec) -> Result<(u64, JobStatus), String> {
    let id = svc.submit(s).map_err(|e| format!("chaos: submit: {e}"))?;
    check(svc.wait_idle(), "service went idle")?;
    let status = svc
        .status(id)
        .ok_or_else(|| "chaos: submitted job vanished".to_string())?;
    Ok((id, status))
}

fn report_of(svc: &JobService, id: u64) -> Result<SimReport, String> {
    svc.outcome(id)
        .as_ref()
        .and_then(|o| o.report().cloned())
        .ok_or_else(|| "chaos: terminal job has no report".to_string())
}

/// Scenario 0 — fault-free round trip: complete, bit-identical, ledger
/// reconciles.
fn scenario_clean(sb: &Sandbox, baseline: &SimReport, out: &mut String) -> Result<(), String> {
    let svc = JobService::start(sb.config(FaultPlan::empty()));
    let (id, status) = submit_and_wait(&svc, spec())?;
    check(
        status == JobStatus::Completed,
        &format!("clean: status {status:?}, expected Completed"),
    )?;
    layers_match(&report_of(&svc, id)?, baseline, "clean")?;
    check_reconciled(&svc, "clean")?;
    svc.shutdown();
    let _ = writeln!(out, "  clean        completed, report identical");
    Ok(())
}

/// Scenario 1 — permanent worker panics: the job fails *in the ledger*,
/// never aborts the service, and its surviving layers are identical.
fn scenario_panic(
    seed: u64,
    sb: &Sandbox,
    baseline: &SimReport,
    layers: &[String],
    out: &mut String,
) -> Result<(), String> {
    let plan = FaultPlan::seeded(seed, layers, 2, FaultKind::Panic);
    let sites = plan.sites().len();
    let svc = JobService::start(sb.config(plan));
    let (id, status) = submit_and_wait(&svc, spec())?;
    check(
        status == JobStatus::Failed,
        &format!("panic: status {status:?}, expected Failed"),
    )?;
    let survivors = report_of(&svc, id)?;
    check(
        survivors.layers.len() + sites == baseline.layers.len(),
        "panic: survivors + faulted sites != baseline layers",
    )?;
    for layer in &survivors.layers {
        check(
            baseline.layer_by_name(&layer.name) == Some(layer),
            &format!("panic: surviving layer '{}' differs", layer.name),
        )?;
    }
    // The service survives its worker's panics: it still takes work.
    let mut next = spec();
    next.retries = 7; // distinct spec, same clean path
    let svc2_status = {
        let id2 = svc.submit(next).map_err(|e| format!("chaos: {e}"))?;
        check(svc.wait_idle(), "service idles after panic job")?;
        svc.status(id2)
    };
    check(
        svc2_status == Some(JobStatus::Failed),
        "panic: permanent faults also fail the follow-up (same plan), service alive",
    )?;
    check_reconciled(&svc, "panic")?;
    svc.shutdown();
    let _ = writeln!(
        out,
        "  panic        {sites} site(s) failed, survivors identical"
    );
    Ok(())
}

/// Scenario 2 — transient faults + retry budget + backoff: the job
/// recovers to a bit-identical report.
fn scenario_transient(
    seed: u64,
    sb: &Sandbox,
    baseline: &SimReport,
    layers: &[String],
    out: &mut String,
) -> Result<(), String> {
    let sites = FaultPlan::seeded(seed, layers, 2, FaultKind::Error);
    let plan = FaultPlan::new(
        sites
            .sites()
            .iter()
            .enumerate()
            .map(|(i, layer)| FaultSpec {
                layer: (*layer).to_string(),
                kind: if i % 2 == 0 {
                    FaultKind::Error
                } else {
                    FaultKind::Panic
                },
                fail_first: 1,
            })
            .collect(),
    );
    let svc = JobService::start(sb.config(plan));
    let mut s = spec();
    s.retries = 2;
    let (id, status) = submit_and_wait(&svc, s)?;
    check(
        status == JobStatus::Completed,
        &format!("transient: status {status:?}, expected Completed after retries"),
    )?;
    layers_match(&report_of(&svc, id)?, baseline, "transient")?;
    check(
        svc.stats().retried >= 1,
        "transient: the retry path must actually have fired",
    )?;
    check_reconciled(&svc, "transient")?;
    svc.shutdown();
    let _ = writeln!(
        out,
        "  transient    recovered via retries, report identical"
    );
    Ok(())
}

/// Scenario 3 — a stall crosses the deadline: the job is stopped
/// cooperatively, ledgered as deadline-exceeded; a clean resubmit
/// completes identically.
fn scenario_deadline(
    sb: &Sandbox,
    baseline: &SimReport,
    layers: &[String],
    out: &mut String,
) -> Result<(), String> {
    // Stall the first layer well past the job deadline, permanently.
    let plan = FaultPlan::new(vec![FaultSpec {
        layer: layers[0].clone(),
        kind: FaultKind::Stall(250),
        fail_first: u32::MAX,
    }]);
    let svc = JobService::start(sb.config(plan));
    let mut s = spec();
    s.deadline_ms = 50;
    let (_, status) = submit_and_wait(&svc, s)?;
    check(
        status == JobStatus::DeadlineExceeded,
        &format!("deadline: status {status:?}, expected DeadlineExceeded"),
    )?;
    check_reconciled(&svc, "deadline (stalled)")?;
    svc.shutdown();

    // Same sandbox, no stall, no deadline: completes identically.
    let svc = JobService::start(sb.config(FaultPlan::empty()));
    let (id, status) = submit_and_wait(&svc, spec())?;
    check(
        status == JobStatus::Completed,
        "deadline: clean resubmit completes",
    )?;
    layers_match(&report_of(&svc, id)?, baseline, "deadline (resubmit)")?;
    check_reconciled(&svc, "deadline")?;
    svc.shutdown();
    let _ = writeln!(
        out,
        "  deadline     stall stopped at boundary, resubmit identical"
    );
    Ok(())
}

/// Scenario 4 — mid-job SIGKILL emulation + restart: the journal
/// replays the unfinished job, the units the first generation appended
/// to the store's records are not recomputed, and the final report is
/// bit-identical.
fn scenario_crash_recover(
    sb: &Sandbox,
    baseline: &SimReport,
    layers: &[String],
    out: &mut String,
) -> Result<(), String> {
    // Generation 1: stall a middle layer so the crash lands mid-job,
    // with a few units already recorded.
    let stall_at = layers.len() / 2;
    let plan = FaultPlan::new(vec![FaultSpec {
        layer: layers[stall_at].clone(),
        kind: FaultKind::Stall(250),
        fail_first: u32::MAX,
    }]);
    let mut held = spec();
    held.retries = 3; // distinct journal identity from other scenarios' specs
    let svc = JobService::start(sb.config(plan));
    svc.submit(held.clone())
        .map_err(|e| format!("chaos: submit: {e}"))?;
    // Let the worker get into the job, then kill it without ceremony.
    std::thread::sleep(Duration::from_millis(40));
    svc.crash();
    check(
        sb.journal().recover().0 == vec![held.canonical()],
        "crash: the unfinished job must await replay (accepted, no terminal)",
    )?;

    // Generation 2: a fresh service (and ledger), same dirs, same tag,
    // no faults — the journal replays the job and the store's records
    // serve whatever generation 1 completed.
    let (appended, damaged) = checkpoint::load(&sb.store());
    check(
        damaged == 0,
        "crash: a finished unit's record is never torn",
    )?;
    let svc2 = JobService::start(sb.config(FaultPlan::empty()));
    check(svc2.wait_idle(), "recovered job runs to completion")?;
    check(
        svc2.metrics().counter_value("checkpoint.hits") >= Some(appended.len() as u64),
        &format!(
            "crash: the {} unit(s) generation 1 appended must replay, not recompute",
            appended.len()
        ),
    )?;
    let stats = svc2.stats();
    check(
        stats.recovered == 1 && stats.completed == 1,
        &format!(
            "crash: expected 1 recovered + 1 completed, got {} + {}",
            stats.recovered, stats.completed
        ),
    )?;
    // The recovered job is id 1 of the new generation.
    layers_match(&report_of(&svc2, 1)?, baseline, "crash (recovered)")?;
    check_reconciled(&svc2, "crash")?;
    svc2.shutdown();
    check(
        sb.journal().recover().0.is_empty(),
        "crash: a third start must recover nothing",
    )?;
    let _ = writeln!(
        out,
        "  crash        journal replayed 1 job, {} recorded unit(s) reused, report identical",
        appended.len()
    );
    Ok(())
}

/// Scenario 5 — on-disk corruption of the journal and the unit-record
/// log: recovery degrades to recomputation, never to an abort or wrong
/// data.
fn scenario_corruption(sb: &Sandbox, baseline: &SimReport, out: &mut String) -> Result<(), String> {
    // Seed the disks with a completed job.
    let svc = JobService::start(sb.config(FaultPlan::empty()));
    let (_, status) = submit_and_wait(&svc, spec())?;
    check(
        status == JobStatus::Completed,
        "corruption: seeding run completes",
    )?;
    svc.shutdown();

    // Vandalize: put a NUL inside the first unit record, truncate the
    // log mid-record, and append garbage to the journal log — including
    // a forged `accepted` record for the completed spec whose checksum
    // does not match, which would replay the job if it were misread.
    let log = sb.store().join("records-v3.units");
    let mut records = std::fs::read(&log).map_err(|e| format!("chaos: read record log: {e}"))?;
    let intact = checkpoint::load(&sb.store()).0.len();
    let first_end = records.iter().position(|&b| b == b'\n');
    records[first_end.ok_or("chaos: expected recorded units")? - 1] = 0;
    records.truncate(records.len() - 7);
    std::fs::write(&log, &records).map_err(|e| format!("chaos: {e}"))?;
    let (left, damaged) = checkpoint::load(&sb.store());
    check(
        intact >= 2 && damaged == 2 && left.len() + 2 == intact,
        &format!("corruption: {damaged} of {intact} record(s) damaged, expected 2"),
    )?;
    let garbage = format!(
        "not a journal\neureka\0journal\n0000000000000bad accepted {}\n",
        spec().canonical()
    );
    std::fs::OpenOptions::new()
        .append(true)
        .open(sb.root.join("journal").join("journal.log"))
        .and_then(|mut log| std::io::Write::write_all(&mut log, garbage.as_bytes()))
        .map_err(|e| format!("chaos: {e}"))?;
    check(
        sb.journal().recover().0.is_empty(),
        "corruption: a garbage journal line replayed a job",
    )?;

    // A fresh service on the vandalized dirs: starts, recovers nothing
    // (the completed record survived), and a resubmit recomputes the
    // damaged units into a bit-identical report.
    let svc2 = JobService::start(sb.config(FaultPlan::empty()));
    let (id, status) = submit_and_wait(&svc2, spec())?;
    check(
        status == JobStatus::Completed,
        "corruption: resubmit on damaged dirs completes",
    )?;
    layers_match(&report_of(&svc2, id)?, baseline, "corruption")?;
    check_reconciled(&svc2, "corruption")?;
    svc2.shutdown();
    let _ = writeln!(
        out,
        "  corruption   damaged shards skipped, report identical"
    );
    Ok(())
}

/// Scenario 6 — overload: submissions beyond the queue bound shed with
/// the typed rejection, and the shed load is ledgered.
fn scenario_overload(sb: &Sandbox, out: &mut String) -> Result<(), String> {
    let mut cfg = sb.config(FaultPlan::empty());
    cfg.queue_capacity = 1;
    cfg.hold = true;
    let svc = JobService::start(cfg);
    svc.submit(spec()).map_err(|e| format!("chaos: {e}"))?;
    let mut second = spec();
    second.batch = 16;
    check(
        svc.submit(second) == Err(SubmitError::Overloaded { capacity: 1 }),
        "overload: the second submission must shed with the typed error",
    )?;
    svc.release();
    check(svc.wait_idle(), "held service drains after release")?;
    check(svc.stats().shed >= 1, "overload: shed load must be counted")?;
    check_reconciled(&svc, "overload")?;
    svc.shutdown();
    let _ = writeln!(out, "  overload     queue bound enforced, shed ledgered");
    Ok(())
}

/// Runs `cases` seeded chaos scenarios against the job service.
///
/// # Errors
///
/// The first violated contract, naming the scenario and the mismatch.
pub fn run_chaos(cases: u32, seed: u64) -> Result<String, String> {
    faults::install_quiet_hook();
    let cfg = chaos_config();
    let workload = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let layers: Vec<String> = workload.gemms().into_iter().map(|g| g.name).collect();
    let clean = arch::eureka_p4();
    let baseline = Runner::serial()
        .run(&SimJob::new(&clean, &workload, cfg))
        .map_err(|e| format!("chaos: baseline run failed: {e}"))?;

    let mut out = format!(
        "chaos: {cases} case(s) over 7 scenario(s), seed {seed}, {} layers\n",
        baseline.layers.len()
    );
    for case in 0..cases {
        let case_seed = seed ^ u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let sb = Sandbox::new(seed, case)?;
        match case % 7 {
            0 => scenario_clean(&sb, &baseline, &mut out)?,
            1 => scenario_panic(case_seed, &sb, &baseline, &layers, &mut out)?,
            2 => scenario_transient(case_seed, &sb, &baseline, &layers, &mut out)?,
            3 => scenario_deadline(&sb, &baseline, &layers, &mut out)?,
            4 => scenario_crash_recover(&sb, &baseline, &layers, &mut out)?,
            5 => scenario_corruption(&sb, &baseline, &mut out)?,
            _ => scenario_overload(&sb, &mut out)?,
        }
    }
    let _ = writeln!(
        out,
        "chaos contract holds: consistent ledger, identical survivors"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_passes_one_cycle_of_every_scenario() {
        let out = run_chaos(7, 42).expect("chaos contract holds");
        assert!(out.contains("chaos contract holds"), "{out}");
        assert!(out.contains("crash"), "{out}");
        assert!(out.contains("overload"), "{out}");
    }
}
