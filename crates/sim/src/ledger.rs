//! Persistent run ledger (`eureka-ledger-v1`) and snapshot diffing —
//! the longitudinal half of observability.
//!
//! Every CLI run appends one content-keyed summary record to a ledger
//! directory (by default `results/ledger/` when run from the repo
//! root): what ran (`kind` + `label`, hashed into the record `key`),
//! at which source revision (`git describe`), with which deterministic
//! metrics outcome (`metrics_digest`, which the caller computes with
//! [`metrics_digest`] from its run's deterministic snapshot), how long
//! it took, and how many run events it emitted. Records are single JSON
//! files written through [`eureka_obs::atomic::write_atomic`], so a killed
//! run never leaves a torn record.
//!
//! [`diff`] compares two snapshots field-by-field under a regression
//! threshold. It understands both record families:
//!
//! * `eureka-bench-v1` (`results/BENCH_<n>.json`, written by
//!   `eureka profile --bench-json`): per-arch `total_cycles` higher and
//!   `speedup_vs_dense` lower than the baseline by more than the
//!   threshold are **regressions**; utilization and wall-clock fields
//!   are reported informationally (wall time is machine noise, never a
//!   gate).
//! * `eureka-ledger-v1` (this module): top-level `total_cycles` /
//!   `speedup_vs_dense` gate the same way; a `metrics_digest` mismatch
//!   between records with equal keys is also a regression — the
//!   deterministic counters changed for identical work.
//!
//! The CLI's `eureka bench diff` exits non-zero when any regression is
//! found, which is exactly the CI perf gate.

use eureka_obs::applog::fnv1a64;
use eureka_obs::json::{self, Value};
use std::path::{Path, PathBuf};

/// Schema marker for ledger records.
pub const SCHEMA: &str = "eureka-ledger-v1";

/// One run summary, as assembled by the caller before [`append`] stamps
/// the environment fields (key, git revision, creation time).
#[derive(Clone, Debug)]
pub struct LedgerRecord {
    /// Which drive path ran: `simulate`, `figure`, or `profile`.
    pub kind: String,
    /// Canonical run label: benchmark, pruning, batch, sampling, archs —
    /// everything that identifies the configuration. Hashed (with
    /// `kind`) into the record key, so equal labels compare across time.
    pub label: String,
    /// Modeled total cycles of the run's primary architecture, when the
    /// run produced one.
    pub total_cycles: Option<u64>,
    /// Speedup vs the dense baseline, when the run computed one.
    pub speedup_vs_dense: Option<f64>,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: f64,
    /// Events the run emitted (0 when its event sink was off).
    pub events: u64,
    /// Digest of the run's deterministic metrics ([`metrics_digest`]);
    /// equal keys with unequal digests gate as a regression.
    pub metrics_digest: String,
    /// Service SLA summary (`eureka serve --sla-budget-us`); `None` for
    /// batch runs. Serialized as flat `sla_*` fields so `bench diff`
    /// gates p99 / throughput / shed-rate like any other metric.
    pub sla: Option<crate::service::SlaReport>,
}

/// The content key of a record: FNV-1a over `kind|label`, rendered as
/// 16 hex digits. Runs of the same configuration share a key, which is
/// what makes the ledger a *trajectory* (same key, advancing git
/// revisions) rather than a flat log.
#[must_use]
pub fn record_key(kind: &str, label: &str) -> String {
    format!("{:016x}", fnv1a64(format!("{kind}|{label}").as_bytes()))
}

/// The `metrics_digest` of a deterministic metrics snapshot (such as
/// [`eureka_obs::metrics::Registry::snapshot_json`]`(false)`): FNV-1a, rendered
/// as 16 hex digits.
#[must_use]
pub fn metrics_digest(snapshot: &str) -> String {
    format!("{:016x}", fnv1a64(snapshot.as_bytes()))
}

/// Best-effort `git describe --always --dirty` of the working tree;
/// `"unknown"` outside a repository (or without git).
#[must_use]
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Appends one record to the ledger directory (created if missing) and
/// returns the path written. File names are `<key>-<n>.json` with `n`
/// the first sequence number for that key whose file this call could
/// create, so concurrent runs never overwrite each other's record; the
/// record is then written tmp+rename, so a killed run never tears one
/// (it can leave an empty claimed file, which [`read_dir`] skips).
///
/// # Errors
///
/// Returns a description when the directory cannot be created or the
/// record cannot be written.
pub fn append(dir: &Path, record: &LedgerRecord) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let key = record_key(&record.kind, &record.label);
    let created_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u128::min(d.as_millis(), u128::from(u64::MAX)) as u64);
    let sla_fields = record.sla.map_or_else(String::new, |s| {
        format!(
            ",\"sla_budget_us\":{},\"sla_p99_e2e_us\":{},\"sla_jobs_per_sec\":{},\"sla_shed_rate\":{},\"sla_saturated\":{}",
            s.budget_us,
            s.p99_e2e_us,
            json::fmt_f64(s.jobs_per_sec),
            json::fmt_f64(s.shed_rate),
            s.saturated,
        )
    });
    let body = format!(
        "{{\"schema\":\"{SCHEMA}\",\"key\":\"{key}\",\"kind\":\"{}\",\"label\":\"{}\",\"git\":\"{}\",\"metrics_digest\":\"{}\",\"total_cycles\":{},\"speedup_vs_dense\":{},\"wall_ms\":{},\"events\":{}{sla_fields},\"created_ms\":{created_ms}}}\n",
        json::escape(&record.kind),
        json::escape(&record.label),
        json::escape(&git_describe()),
        json::escape(&record.metrics_digest),
        record
            .total_cycles
            .map_or_else(|| "null".to_string(), |v| v.to_string()),
        record
            .speedup_vs_dense
            .map_or_else(|| "null".to_string(), json::fmt_f64),
        json::fmt_f64(record.wall_ms),
        record.events,
    );
    // Claim the first free sequence number by creating its file, so two
    // runs appending the same key at once never pick the same name.
    let mut n = 1u32;
    let path = loop {
        let candidate = dir.join(format!("{key}-{n}.json"));
        match std::fs::File::options()
            .write(true)
            .create_new(true)
            .open(&candidate)
        {
            Ok(_) => break candidate,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(format!("claim {}: {e}", candidate.display())),
        }
        n += 1;
        if n > 1_000_000 {
            return Err("ledger sequence exhausted".to_string());
        }
    };
    eureka_obs::atomic::write_atomic(&path, body.as_bytes())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Reads every `*.json` ledger record under `dir`, sorted by file name
/// (which groups by key and orders runs of a key by sequence number).
/// Malformed or foreign-schema files are skipped fail-soft, mirroring
/// the tile store's strict-reader policy: never wrong data, at worst a
/// shorter listing.
///
/// # Errors
///
/// Returns a description when the directory cannot be read (a missing
/// directory yields an empty listing instead — "no runs recorded yet").
pub fn read_dir(dir: &Path) -> Result<Vec<(PathBuf, Value)>, String> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(v) = json::parse(&text) else { continue };
        if v.get("schema").and_then(Value::as_str) == Some(SCHEMA) {
            out.push((path, v));
        }
    }
    Ok(out)
}

/// Loads one snapshot file (`eureka-bench-v1` or `eureka-ledger-v1`)
/// for [`diff`].
///
/// # Errors
///
/// Returns a description for unreadable files, malformed JSON, or an
/// unrecognized `schema` stamp.
pub fn load_snapshot(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match v.get("schema").and_then(Value::as_str) {
        Some("eureka-bench-v1" | SCHEMA) => Ok(v),
        Some(other) => Err(format!("{}: unsupported schema {other:?}", path.display())),
        None => Err(format!("{}: missing schema stamp", path.display())),
    }
}

/// The outcome of a snapshot comparison: human-readable per-field lines
/// plus the subset that crossed the regression threshold.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// One line per compared field, in snapshot order.
    pub lines: Vec<String>,
    /// The regression subset (empty ⇒ the gate passes).
    pub regressions: Vec<String>,
}

impl DiffReport {
    /// Whether the comparison found no regressions.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the full report (all lines, then a verdict).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        if self.ok() {
            out.push_str("OK: no regressions\n");
        } else {
            out.push_str(&format!(
                "FAIL: {} regression(s) beyond threshold\n",
                self.regressions.len()
            ));
        }
        out
    }

    fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    fn regress(&mut self, line: String) {
        self.lines.push(format!("REGRESSION: {line}"));
        self.regressions.push(line);
    }
}

fn pct_change(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a * 100.0
    }
}

/// A `lower-is-better` gated comparison (cycles): regression when `b`
/// exceeds `a` by more than `max_regress` percent.
fn gate_lower_is_better(report: &mut DiffReport, name: &str, a: f64, b: f64, max_regress: f64) {
    let delta = pct_change(a, b);
    let line = format!("{name}: {a} -> {b} ({delta:+.2}%)");
    if delta > max_regress {
        report.regress(line);
    } else {
        report.note(line);
    }
}

/// A `higher-is-better` gated comparison (speedups): regression when
/// `b` falls below `a` by more than `max_regress` percent.
fn gate_higher_is_better(report: &mut DiffReport, name: &str, a: f64, b: f64, max_regress: f64) {
    let delta = pct_change(a, b);
    let line = format!("{name}: {a} -> {b} ({delta:+.2}%)");
    if delta < -max_regress {
        report.regress(line);
    } else {
        report.note(line);
    }
}

fn info_field(report: &mut DiffReport, name: &str, a: Option<f64>, b: Option<f64>) {
    if let (Some(a), Some(b)) = (a, b) {
        report.note(format!(
            "{name}: {a} -> {b} ({:+.2}%) [informational]",
            pct_change(a, b)
        ));
    }
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// Compares baseline `a` against candidate `b` under a symmetric
/// regression threshold of `max_regress` percent. Both snapshots must
/// carry the same schema (`eureka-bench-v1` or `eureka-ledger-v1`);
/// cycle counts gate lower-is-better, speedups higher-is-better, and
/// wall-clock / utilization fields are informational only.
///
/// # Errors
///
/// Returns a description when the schemas differ or are unsupported.
pub fn diff(a: &Value, b: &Value, max_regress: f64) -> Result<DiffReport, String> {
    let sa = a.get("schema").and_then(Value::as_str).unwrap_or("?");
    let sb = b.get("schema").and_then(Value::as_str).unwrap_or("?");
    if sa != sb {
        return Err(format!("schema mismatch: {sa:?} vs {sb:?}"));
    }
    match sa {
        "eureka-bench-v1" => Ok(diff_bench(a, b, max_regress)),
        SCHEMA => Ok(diff_ledger(a, b, max_regress)),
        other => Err(format!("unsupported schema {other:?}")),
    }
}

fn diff_bench(a: &Value, b: &Value, max_regress: f64) -> DiffReport {
    let mut report = DiffReport::default();
    for key in ["benchmark", "pruning", "sampling"] {
        let va = a.get(key).and_then(Value::as_str).unwrap_or("?");
        let vb = b.get(key).and_then(Value::as_str).unwrap_or("?");
        if va != vb {
            report.note(format!("{key}: {va:?} vs {vb:?} (different workloads)"));
        }
    }
    let empty: [Value; 0] = [];
    let archs_a = a.get("archs").and_then(Value::as_arr).unwrap_or(&empty);
    let archs_b = b.get("archs").and_then(Value::as_arr).unwrap_or(&empty);
    let by_name = |archs: &[Value], name: &str| -> Option<Value> {
        archs
            .iter()
            .find(|v| v.get("name").and_then(Value::as_str) == Some(name))
            .cloned()
    };
    for arch_a in archs_a {
        let Some(name) = arch_a.get("name").and_then(Value::as_str) else {
            continue;
        };
        let Some(arch_b) = by_name(archs_b, name) else {
            report.regress(format!("arch {name}: missing from candidate"));
            continue;
        };
        if let (Some(ca), Some(cb)) = (num(arch_a, "total_cycles"), num(&arch_b, "total_cycles")) {
            gate_lower_is_better(
                &mut report,
                &format!("{name}.total_cycles"),
                ca,
                cb,
                max_regress,
            );
        }
        if let (Some(ua), Some(ub)) = (
            num(arch_a, "speedup_vs_dense"),
            num(&arch_b, "speedup_vs_dense"),
        ) {
            gate_higher_is_better(
                &mut report,
                &format!("{name}.speedup_vs_dense"),
                ua,
                ub,
                max_regress,
            );
        }
        info_field(
            &mut report,
            &format!("{name}.mac_utilization"),
            num(arch_a, "mac_utilization"),
            num(&arch_b, "mac_utilization"),
        );
    }
    for arch_b in archs_b {
        if let Some(name) = arch_b.get("name").and_then(Value::as_str) {
            if by_name(archs_a, name).is_none() {
                report.note(format!("arch {name}: new in candidate [informational]"));
            }
        }
    }
    for key in ["cold_wall_ms", "warm_wall_ms", "warm_speedup"] {
        info_field(&mut report, key, num(a, key), num(b, key));
    }
    report
}

fn diff_ledger(a: &Value, b: &Value, max_regress: f64) -> DiffReport {
    let mut report = DiffReport::default();
    let key_a = a.get("key").and_then(Value::as_str).unwrap_or("?");
    let key_b = b.get("key").and_then(Value::as_str).unwrap_or("?");
    if key_a != key_b {
        report.note(format!(
            "key: {key_a} vs {key_b} (different configurations — comparing anyway)"
        ));
    }
    for key in ["git", "created_ms"] {
        let va = a.get(key).map_or_else(String::new, Value::to_json);
        let vb = b.get(key).map_or_else(String::new, Value::to_json);
        report.note(format!("{key}: {va} -> {vb} [informational]"));
    }
    if let (Some(ca), Some(cb)) = (num(a, "total_cycles"), num(b, "total_cycles")) {
        gate_lower_is_better(&mut report, "total_cycles", ca, cb, max_regress);
    }
    if let (Some(ua), Some(ub)) = (num(a, "speedup_vs_dense"), num(b, "speedup_vs_dense")) {
        gate_higher_is_better(&mut report, "speedup_vs_dense", ua, ub, max_regress);
    }
    // Service SLA fields (serve records): latency and shed-rate gate
    // like cycles, throughput like speedup, the budget is context.
    if let (Some(pa), Some(pb)) = (num(a, "sla_p99_e2e_us"), num(b, "sla_p99_e2e_us")) {
        gate_lower_is_better(&mut report, "sla_p99_e2e_us", pa, pb, max_regress);
    }
    if let (Some(ja), Some(jb)) = (num(a, "sla_jobs_per_sec"), num(b, "sla_jobs_per_sec")) {
        gate_higher_is_better(&mut report, "sla_jobs_per_sec", ja, jb, max_regress);
    }
    if let (Some(sa), Some(sb)) = (num(a, "sla_shed_rate"), num(b, "sla_shed_rate")) {
        gate_lower_is_better(&mut report, "sla_shed_rate", sa, sb, max_regress);
    }
    info_field(
        &mut report,
        "sla_budget_us",
        num(a, "sla_budget_us"),
        num(b, "sla_budget_us"),
    );
    if key_a == key_b {
        let da = a.get("metrics_digest").and_then(Value::as_str);
        let db = b.get("metrics_digest").and_then(Value::as_str);
        if let (Some(da), Some(db)) = (da, db) {
            if da == db {
                report.note(format!("metrics_digest: {da} (identical)"));
            } else {
                report.regress(format!(
                    "metrics_digest: {da} -> {db} (deterministic metrics changed for identical work)"
                ));
            }
        }
    }
    info_field(&mut report, "wall_ms", num(a, "wall_ms"), num(b, "wall_ms"));
    info_field(&mut report, "events", num(a, "events"), num(b, "events"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_snapshot(cycles: u64, speedup: f64) -> Value {
        json::parse(&format!(
            r#"{{"schema":"eureka-bench-v1","benchmark":"m","pruning":"mod","batch":32,"sampling":"fast","archs":[{{"name":"dense","total_cycles":1000,"speedup_vs_dense":1,"mac_utilization":0.9}},{{"name":"eureka-p4","total_cycles":{cycles},"speedup_vs_dense":{speedup},"mac_utilization":0.8}}],"cold_wall_ms":10.0,"warm_wall_ms":5.0,"warm_speedup":2.0}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_bench_snapshots_pass() {
        let a = bench_snapshot(250, 4.0);
        let report = diff(&a, &a, 2.0).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert!(report.render().contains("OK: no regressions"));
    }

    #[test]
    fn cycle_regression_beyond_threshold_fails() {
        let a = bench_snapshot(250, 4.0);
        let b = bench_snapshot(275, 4.0); // +10% cycles
        let report = diff(&a, &b, 2.0).unwrap();
        assert!(!report.ok());
        assert!(
            report
                .regressions
                .iter()
                .any(|r| r.contains("eureka-p4.total_cycles")),
            "{:?}",
            report.regressions
        );
        // The same delta passes under a generous threshold.
        assert!(diff(&a, &b, 15.0).unwrap().ok());
    }

    #[test]
    fn speedup_drop_beyond_threshold_fails() {
        let a = bench_snapshot(250, 4.0);
        let b = bench_snapshot(250, 3.0); // -25% speedup
        let report = diff(&a, &b, 2.0).unwrap();
        assert!(!report.ok());
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("eureka-p4.speedup_vs_dense")));
    }

    #[test]
    fn wall_clock_fields_never_gate() {
        let a = bench_snapshot(250, 4.0);
        let mut b = bench_snapshot(250, 4.0);
        // Quintuple the wall times: noisy machines must not fail CI.
        if let Value::Obj(pairs) = &mut b {
            for (k, v) in pairs.iter_mut() {
                if k == "cold_wall_ms" || k == "warm_wall_ms" {
                    *v = Value::Num(50.0);
                }
            }
        }
        let report = diff(&a, &b, 2.0).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert!(report.render().contains("cold_wall_ms"));
    }

    #[test]
    fn missing_arch_is_a_regression() {
        let a = bench_snapshot(250, 4.0);
        let b = json::parse(
            r#"{"schema":"eureka-bench-v1","benchmark":"m","pruning":"mod","batch":32,"sampling":"fast","archs":[{"name":"dense","total_cycles":1000,"speedup_vs_dense":1}]}"#,
        )
        .unwrap();
        let report = diff(&a, &b, 2.0).unwrap();
        assert!(!report.ok());
        assert!(report.regressions[0].contains("eureka-p4"));
    }

    #[test]
    fn schema_mismatch_errors() {
        let a = bench_snapshot(250, 4.0);
        let b = json::parse(r#"{"schema":"eureka-ledger-v1","key":"00"}"#).unwrap();
        assert!(diff(&a, &b, 2.0).is_err());
    }

    #[test]
    fn ledger_records_roundtrip_and_gate() {
        let dir = std::env::temp_dir().join(format!("eureka-ledger-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let record = LedgerRecord {
            kind: "simulate".to_string(),
            label: "mobilenetv1|mod|batch32|fast|archs=eureka-p4".to_string(),
            total_cycles: Some(252_211),
            speedup_vs_dense: Some(3.07),
            wall_ms: 12.5,
            events: 42,
            metrics_digest: metrics_digest("{\"runner.jobs\":1}"),
            sla: None,
        };
        let p1 = append(&dir, &record).unwrap();
        let p2 = append(&dir, &record).unwrap();
        assert_ne!(p1, p2, "sequence numbers advance");
        let records = read_dir(&dir).unwrap();
        assert_eq!(records.len(), 2);
        let (path, v) = &records[0];
        assert_eq!(*path, p1);
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(
            v.get("key").and_then(Value::as_str),
            Some(record_key("simulate", &record.label).as_str())
        );
        assert_eq!(num(v, "total_cycles"), Some(252_211.0));
        assert_eq!(num(v, "events"), Some(42.0));
        assert_eq!(
            v.get("metrics_digest").and_then(Value::as_str),
            Some(record.metrics_digest.as_str())
        );
        // Records of identical work share git revision and metrics
        // digest, so the self-diff passes.
        let report = diff(&records[0].1, &records[1].1, 2.0).unwrap();
        assert!(report.ok(), "{}", report.render());
        // An injected cycle regression fails the gate.
        let mut worse = records[1].1.clone();
        if let Value::Obj(pairs) = &mut worse {
            for (k, v) in pairs.iter_mut() {
                if k == "total_cycles" {
                    *v = Value::Num(300_000.0);
                }
            }
        }
        assert!(!diff(&records[0].1, &worse, 2.0).unwrap().ok());
        // So does a changed deterministic-metrics digest under one key.
        let changed = LedgerRecord {
            metrics_digest: metrics_digest("{\"runner.jobs\":2}"),
            ..record
        };
        let p3 = append(&dir, &changed).unwrap();
        let records = read_dir(&dir).unwrap();
        let (_, v3) = records.iter().find(|(p, _)| *p == p3).unwrap();
        let drift = diff(&records[0].1, v3, 2.0).unwrap();
        assert!(!drift.ok());
        assert!(
            drift.render().contains("REGRESSION: metrics_digest"),
            "{}",
            drift.render()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sla_fields_roundtrip_and_gate_latency_regressions() {
        let dir = std::env::temp_dir().join(format!("eureka-ledger-sla-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let record = LedgerRecord {
            kind: "serve".to_string(),
            label: "serve|capacity=8|fast|sla_budget_us=1000000".to_string(),
            total_cycles: None,
            speedup_vs_dense: None,
            wall_ms: 500.0,
            events: 0,
            metrics_digest: metrics_digest("{}"),
            sla: Some(crate::service::SlaReport {
                budget_us: 1_000_000,
                p99_e2e_us: 45_000,
                jobs_per_sec: 4.0,
                shed_rate: 0.0,
                saturated: false,
            }),
        };
        append(&dir, &record).unwrap();
        append(&dir, &record).unwrap();
        let records = read_dir(&dir).unwrap();
        assert_eq!(records.len(), 2);
        let v = &records[0].1;
        assert_eq!(num(v, "sla_budget_us"), Some(1_000_000.0));
        assert_eq!(num(v, "sla_p99_e2e_us"), Some(45_000.0));
        assert_eq!(num(v, "sla_jobs_per_sec"), Some(4.0));
        assert_eq!(num(v, "sla_shed_rate"), Some(0.0));
        assert_eq!(v.get("sla_saturated"), Some(&Value::Bool(false)));
        let report = diff(&records[0].1, &records[1].1, 2.0).unwrap();
        assert!(report.ok(), "{}", report.render());
        // p99 blowing past the threshold is a regression; so is new shed.
        let bump = |v: &Value, key: &str, to: f64| {
            let mut out = v.clone();
            if let Value::Obj(pairs) = &mut out {
                for (k, val) in pairs.iter_mut() {
                    if k == key {
                        *val = Value::Num(to);
                    }
                }
            }
            out
        };
        let slow = bump(&records[1].1, "sla_p99_e2e_us", 90_000.0);
        let slow_report = diff(&records[0].1, &slow, 2.0).unwrap();
        assert!(!slow_report.ok(), "{}", slow_report.render());
        assert!(slow_report.render().contains("sla_p99_e2e_us"));
        let shedding = bump(&records[1].1, "sla_shed_rate", 0.25);
        assert!(
            !diff(&records[0].1, &shedding, 2.0).unwrap().ok(),
            "shed rate appearing from zero must gate as a regression"
        );
        let slower = bump(&records[1].1, "sla_jobs_per_sec", 2.0);
        assert!(
            !diff(&records[0].1, &slower, 2.0).unwrap().ok(),
            "halved throughput must gate as a regression"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_dir_skips_foreign_files_and_missing_dir() {
        let dir = std::env::temp_dir().join(format!("eureka-ledger-skip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(read_dir(&dir).unwrap().is_empty(), "missing dir is empty");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("junk.json"), "not json").unwrap();
        std::fs::write(dir.join("other.json"), r#"{"schema":"eureka-bench-v1"}"#).unwrap();
        std::fs::write(dir.join("note.txt"), "ignored").unwrap();
        assert!(read_dir(&dir).unwrap().is_empty());
        let record = LedgerRecord {
            kind: "figure".to_string(),
            label: "fig9".to_string(),
            total_cycles: None,
            speedup_vs_dense: None,
            wall_ms: 1.0,
            events: 0,
            metrics_digest: metrics_digest("{}"),
            sla: None,
        };
        append(&dir, &record).unwrap();
        let records = read_dir(&dir).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].1.get("total_cycles"), Some(&Value::Null));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_of_one_key_keep_every_record() {
        let dir = std::env::temp_dir().join(format!("eureka-ledger-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths: Vec<PathBuf> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|i| {
                    let dir = &dir;
                    scope.spawn(move || {
                        let record = LedgerRecord {
                            kind: "simulate".to_string(),
                            label: "same-key".to_string(),
                            total_cycles: Some(i),
                            speedup_vs_dense: None,
                            wall_ms: 1.0,
                            events: 0,
                            metrics_digest: metrics_digest("{}"),
                            sla: None,
                        };
                        append(dir, &record).unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let mut distinct = paths.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 8, "every run claimed its own name");
        let mut cycles: Vec<f64> = read_dir(&dir)
            .unwrap()
            .iter()
            .map(|(_, v)| v.get("total_cycles").and_then(Value::as_f64).unwrap())
            .collect();
        cycles.sort_by(f64::total_cmp);
        assert_eq!(
            cycles,
            (0..8).map(f64::from).collect::<Vec<_>>(),
            "all 8 records parse"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
