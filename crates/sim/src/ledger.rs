//! Persistent run ledger (`eureka-ledger-v2`) and snapshot diffing —
//! the longitudinal half of observability.
//!
//! Every CLI run appends one content-keyed record to
//! `<ledger-dir>/ledger.log`, one sealed line through
//! [`eureka_obs::applog`]: what ran (`kind` + `label`, hashed into the
//! `key`), at which `git` revision, the digest of its deterministic
//! metrics, its wall time and event count, and one row per modeled
//! architecture ([`arch_row`]). A BENCH snapshot (`eureka profile
//! --bench-json`, `results/BENCH_<n>.json`) is the same record, of kind
//! `bench`, written as plain JSON.
//!
//! [`diff`] compares two records under a regression threshold; the CLI's
//! `eureka bench diff` exits non-zero when it finds a regression, which
//! is the CI perf gate.

use crate::report::SimReport;
use eureka_obs::applog::{self, fnv1a64, AppLog};
use eureka_obs::json::{self, Value};
use std::path::{Path, PathBuf};

/// Schema marker for ledger records.
pub const SCHEMA: &str = "eureka-ledger-v2";

/// The ledger's file within its directory.
pub const LOG_FILE: &str = "ledger.log";

/// One modeled architecture's row of a record: `report`'s total,
/// compute, memory and bubble cycles and MAC utilization, modeled on the
/// architecture `name`, with its speedup over `dense_cycles` when those
/// are known (`null` otherwise).
#[must_use]
pub fn arch_row(name: &str, report: &SimReport, dense_cycles: Option<u64>) -> String {
    let total = report.total_cycles();
    let speedup = dense_cycles
        .filter(|_| total > 0)
        .map(|d| d as f64 / total as f64);
    format!(
        "{{\"name\":\"{}\",\"total_cycles\":{total},\"compute_cycles\":{},\"mem_cycles\":{},\"bubble_cycles\":{},\"mac_utilization\":{},\"speedup_vs_dense\":{}}}",
        json::escape(name),
        report.compute_cycles(),
        report.mem_cycles(),
        report.bubble_cycles(),
        json::fmt_f64(report.mac_utilization()),
        speedup.map_or_else(|| "null".to_string(), json::fmt_f64),
    )
}

/// One run summary, as assembled by the caller before
/// [`LedgerRecord::to_json`] stamps the environment fields (key, git
/// revision, creation time).
#[derive(Clone, Debug)]
pub struct LedgerRecord {
    /// Which drive path ran: `simulate`, `profile`, `bench` (a profile
    /// with `--bench-json`), `figure` or `serve`.
    pub kind: String,
    /// Canonical run label: benchmark, pruning, batch, sampling, archs —
    /// everything that identifies the configuration. Hashed (with
    /// `kind`) into the record key, so equal labels compare across time.
    pub label: String,
    /// One [`arch_row`] per modeled architecture: one for `simulate` and
    /// `profile`, the standard matrix for `bench`, none for `figure` and
    /// `serve`.
    pub archs: Vec<String>,
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

impl LedgerRecord {
    /// The record as one line of JSON (without a newline), stamped with
    /// its key, the working tree's git revision and the current time.
    #[must_use]
    pub fn to_json(&self) -> String {
        let created_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| u128::min(d.as_millis(), u128::from(u64::MAX)) as u64);
        let sla_fields = self.sla.map_or_else(String::new, |s| {
            format!(
                ",\"sla_budget_us\":{},\"sla_p99_e2e_us\":{},\"sla_jobs_per_sec\":{},\"sla_shed_rate\":{},\"sla_saturated\":{}",
                s.budget_us,
                s.p99_e2e_us,
                json::fmt_f64(s.jobs_per_sec),
                json::fmt_f64(s.shed_rate),
                s.saturated,
            )
        });
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"key\":\"{}\",\"kind\":\"{}\",\"label\":\"{}\",\"git\":\"{}\",\"metrics_digest\":\"{}\",\"wall_ms\":{},\"events\":{},\"archs\":[{}]{sla_fields},\"created_ms\":{created_ms}}}",
            record_key(&self.kind, &self.label),
            json::escape(&self.kind),
            json::escape(&self.label),
            json::escape(&git_describe()),
            json::escape(&self.metrics_digest),
            json::fmt_f64(self.wall_ms),
            self.events,
            self.archs.join(","),
        )
    }
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
/// as 16 hex digits, over the snapshot without the counters that say
/// which memo tier served the run (`cache.*`, `checkpoint.*`, `store.*`,
/// `runner.units_{cached,executed,from_store}`). The digest covers only
/// what the work itself fixes, so a run served by unit records or tile
/// shards digests like a plain run of the same work.
#[must_use]
pub fn metrics_digest(snapshot: &str) -> String {
    let kept = match json::parse(snapshot) {
        Ok(Value::Obj(mut sections)) => {
            for (section, metrics) in &mut sections {
                if let ("counters", Value::Obj(counters)) = (section.as_str(), metrics) {
                    counters.retain(|(name, _)| !is_memo_counter(name));
                }
            }
            Value::Obj(sections).to_json()
        }
        _ => snapshot.to_string(),
    };
    format!("{:016x}", fnv1a64(kept.as_bytes()))
}

/// Whether counter `name` says which memo tier served a run rather than
/// what the run computed (see [`metrics_digest`]).
fn is_memo_counter(name: &str) -> bool {
    ["cache.", "checkpoint.", "store."]
        .iter()
        .any(|tier| name.starts_with(tier))
        || matches!(
            name,
            "runner.units_cached" | "runner.units_executed" | "runner.units_from_store"
        )
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

/// Appends one record (a [`LedgerRecord::to_json`] line) to the ledger
/// log in `dir`, creating both if missing, and returns the log's path.
/// The line is sealed and written with one append under the log's lock,
/// so concurrent runs never interleave their records.
///
/// # Errors
///
/// Returns a description when the log cannot be created or written.
pub fn append(dir: &Path, record: &str) -> Result<PathBuf, String> {
    let path = dir.join(LOG_FILE);
    AppLog::new(&path)
        .append(applog::seal(record).as_bytes())
        .map_err(|e| format!("append to {}: {e}", path.display()))?;
    Ok(path)
}

/// Replays every intact `eureka-ledger-v2` record of the ledger log at
/// `path`, in append order. A damaged line or one of a foreign schema is
/// skipped: never wrong data, at worst a shorter listing. A missing log
/// is an empty one — no runs recorded yet.
///
/// # Errors
///
/// Returns a description when the log cannot be read.
pub fn read_log(path: &Path) -> Result<Vec<Value>, String> {
    let mut records = Vec::new();
    applog::replay(path, None, |lines| {
        records.reserve(lines);
        |payload: &str| match json::parse(payload) {
            Ok(v) if v.get("schema").and_then(Value::as_str) == Some(SCHEMA) => {
                records.push(v);
                true
            }
            _ => false,
        }
    })
    .map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(records)
}

/// Loads one record for [`diff`]: `arg` is a snapshot file holding one
/// record as plain JSON, or `<ledger.log>#<N>` for the log's `N`-th
/// intact record (1-based, as `eureka bench list` numbers them).
///
/// # Errors
///
/// Returns a description for unreadable files, malformed JSON, a
/// foreign `schema`, or a record number that is not in the log.
pub fn load_snapshot(arg: &str) -> Result<Value, String> {
    if let Some((path, n)) = arg.rsplit_once('#') {
        let n: usize = n
            .parse()
            .map_err(|_| format!("{arg}: record number {n:?} is not a positive integer"))?;
        let records = read_log(Path::new(path))?;
        let count = records.len();
        return n
            .checked_sub(1)
            .and_then(|i| records.into_iter().nth(i))
            .ok_or_else(|| {
                format!("{arg}: no record #{n}; {path} holds {count} ledger record(s)")
            });
    }
    let text = std::fs::read_to_string(arg).map_err(|e| format!("read {arg}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{arg}: {e}"))?;
    match v.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => Ok(v),
        Some(other) => Err(format!("{arg}: unsupported schema {other:?}")),
        None => Err(format!("{arg}: missing schema stamp")),
    }
}

/// The outcome of a snapshot comparison: human-readable per-field lines
/// plus the subset that crossed the regression threshold.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// One line per compared field: per-arch rows, then the gated
    /// top-level fields, then the informational ones.
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

    /// A gated comparison: a regression when `b` is worse than `a` by
    /// more than `max_regress` percent.
    fn gate(&mut self, name: &str, a: f64, b: f64, max_regress: f64, higher_is_better: bool) {
        let delta = pct_change(a, b);
        let line = format!("{name}: {a} -> {b} ({delta:+.2}%)");
        let worse_by = if higher_is_better { -delta } else { delta };
        if worse_by > max_regress {
            self.regress(line);
        } else {
            self.note(line);
        }
    }

    /// An informational comparison: numbers with their change, objects
    /// field by field, nothing for a field neither side has a value for,
    /// anything else as JSON.
    fn info(&mut self, name: &str, a: &Value, b: &Value) {
        match (a, b) {
            (Value::Null, Value::Null) => {}
            (Value::Num(a), Value::Num(b)) => self.note(format!(
                "{name}: {a} -> {b} ({:+.2}%) [informational]",
                pct_change(*a, *b)
            )),
            (Value::Obj(fields), Value::Obj(_)) => {
                for (key, va) in fields {
                    if let Some(vb) = b.get(key) {
                        self.info(&format!("{name}.{key}"), va, vb);
                    }
                }
            }
            _ => self.note(format!(
                "{name}: {} -> {} [informational]",
                a.to_json(),
                b.to_json()
            )),
        }
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

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// The per-row fields that gate, and whether higher is better.
const ROW_GATES: [(&str, bool); 2] = [("total_cycles", false), ("speedup_vs_dense", true)];

/// The service SLA fields that gate, and whether higher is better.
const SLA_GATES: [(&str, bool); 3] = [
    ("sla_p99_e2e_us", false),
    ("sla_jobs_per_sec", true),
    ("sla_shed_rate", false),
];

/// Top-level fields that identify a record or are compared on their own,
/// and so stay out of the informational tail.
const IDENTITY: [&str; 6] = ["schema", "key", "kind", "label", "archs", "metrics_digest"];

/// The record's per-arch rows.
fn rows(record: &Value) -> &[Value] {
    record.get("archs").and_then(Value::as_arr).unwrap_or(&[])
}

fn name(row: &Value) -> Option<&str> {
    row.get("name").and_then(Value::as_str)
}

/// Compares baseline record `a` against candidate `b` under a symmetric
/// regression threshold of `max_regress` percent. Regressions are: a
/// row's `total_cycles` higher or its `speedup_vs_dense` lower than the
/// baseline's by more than the threshold, a baseline row missing from the
/// candidate, a `metrics_digest` mismatch between records with equal keys
/// (the deterministic counters changed for identical work), and the
/// service's `sla_*` p99 latency, throughput and shed rate moving the
/// wrong way. Every other field is informational: wall time is machine
/// noise, never a gate.
#[must_use]
pub fn diff(a: &Value, b: &Value, max_regress: f64) -> DiffReport {
    let mut report = DiffReport::default();
    let key_a = a.get("key").and_then(Value::as_str).unwrap_or("?");
    let key_b = b.get("key").and_then(Value::as_str).unwrap_or("?");
    if key_a != key_b {
        report.note(format!(
            "key: {key_a} vs {key_b} (different configurations — comparing anyway)"
        ));
    }
    let (rows_a, rows_b) = (rows(a), rows(b));
    for row_a in rows_a {
        let Some(arch) = name(row_a) else { continue };
        let Some(row_b) = rows_b.iter().find(|row| name(row) == Some(arch)) else {
            report.regress(format!("arch {arch}: missing from candidate"));
            continue;
        };
        for (field, higher_is_better) in ROW_GATES {
            if let (Some(x), Some(y)) = (num(row_a, field), num(row_b, field)) {
                report.gate(
                    &format!("{arch}.{field}"),
                    x,
                    y,
                    max_regress,
                    higher_is_better,
                );
            }
        }
        if let (Some(x), Some(y)) = (row_a.get("mac_utilization"), row_b.get("mac_utilization")) {
            report.info(&format!("{arch}.mac_utilization"), x, y);
        }
    }
    for arch in rows_b.iter().filter_map(name) {
        if !rows_a.iter().any(|row| name(row) == Some(arch)) {
            report.note(format!("arch {arch}: new in candidate [informational]"));
        }
    }
    for (field, higher_is_better) in SLA_GATES {
        if let (Some(x), Some(y)) = (num(a, field), num(b, field)) {
            report.gate(field, x, y, max_regress, higher_is_better);
        }
    }
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
    if let Value::Obj(fields) = a {
        for (field, va) in fields {
            let gated =
                IDENTITY.contains(&field.as_str()) || SLA_GATES.iter().any(|(g, _)| g == field);
            if let (false, Some(vb)) = (gated, b.get(field)) {
                report.info(field, va, vb);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bench record in the shape of the committed snapshots: a
    /// dense-anchored matrix plus the informational timing fields.
    fn bench_snapshot(cycles: u64, speedup: f64) -> Value {
        json::parse(&format!(
            r#"{{"schema":"eureka-ledger-v2","key":"{}","kind":"bench","label":"m|mod|batch32|fast|arch=eureka-p4","git":null,"metrics_digest":null,"wall_ms":null,"events":null,"archs":[{{"name":"dense","total_cycles":1000,"speedup_vs_dense":1,"mac_utilization":0.9}},{{"name":"eureka-p4","total_cycles":{cycles},"speedup_vs_dense":{speedup},"mac_utilization":0.8}}],"cold_wall_ms":10.0,"warm_wall_ms":5.0,"warm_speedup":2.0,"kernels":{{"mac_dot256":{{"speedup":1.05}}}}}}"#,
            record_key("bench", "m|mod|batch32|fast|arch=eureka-p4"),
        ))
        .unwrap()
    }

    /// `v` with top-level field `key` set to `to`.
    fn with(v: &Value, key: &str, to: Value) -> Value {
        let mut out = v.clone();
        if let Value::Obj(pairs) = &mut out {
            for (k, val) in pairs.iter_mut() {
                if k == key {
                    *val = to.clone();
                }
            }
        }
        out
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eureka-ledger-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(kind: &str, label: &str, archs: Vec<String>) -> LedgerRecord {
        LedgerRecord {
            kind: kind.to_string(),
            label: label.to_string(),
            archs,
            wall_ms: 1.0,
            events: 0,
            metrics_digest: metrics_digest("{}"),
            sla: None,
        }
    }

    /// A one-layer report of `compute_cycles` plus 5 memory cycles.
    fn report(compute_cycles: u64) -> SimReport {
        SimReport {
            arch: "x".into(),
            workload: "w".into(),
            layers: vec![crate::report::LayerReport {
                name: "l".into(),
                compute_cycles,
                mem_cycles: 5,
                bubble_cycles: 2,
                mac_ops: 10,
                idle_mac_cycles: 10,
                ..Default::default()
            }],
        }
    }

    fn row(name: &str, total_cycles: u64) -> String {
        arch_row(name, &report(total_cycles - 5), None)
    }

    #[test]
    fn identical_bench_snapshots_pass() {
        let a = bench_snapshot(250, 4.0);
        let report = diff(&a, &a, 2.0);
        assert!(report.ok(), "{}", report.render());
        assert!(report.render().contains("OK: no regressions"));
        assert!(
            report
                .render()
                .contains("kernels.mac_dot256.speedup: 1.05 -> 1.05"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn cycle_regression_beyond_threshold_fails() {
        let a = bench_snapshot(250, 4.0);
        let b = bench_snapshot(275, 4.0); // +10% cycles
        let report = diff(&a, &b, 2.0);
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
        assert!(diff(&a, &b, 15.0).ok());
    }

    #[test]
    fn speedup_drop_beyond_threshold_fails() {
        let a = bench_snapshot(250, 4.0);
        let b = bench_snapshot(250, 3.0); // -25% speedup
        let report = diff(&a, &b, 2.0);
        assert!(!report.ok());
        assert!(report
            .regressions
            .iter()
            .any(|r| r.contains("eureka-p4.speedup_vs_dense")));
    }

    #[test]
    fn wall_clock_fields_never_gate() {
        let a = bench_snapshot(250, 4.0);
        // Quintuple the wall times: noisy machines must not fail CI.
        let mut b = with(&a, "cold_wall_ms", Value::Num(50.0));
        b = with(&b, "warm_wall_ms", Value::Num(50.0));
        let a = with(&a, "wall_ms", Value::Num(10.0));
        b = with(&b, "wall_ms", Value::Num(50.0));
        let report = diff(&a, &b, 2.0);
        assert!(report.ok(), "{}", report.render());
        assert!(report.render().contains("cold_wall_ms"));
        assert!(report
            .lines
            .iter()
            .any(|l| l.starts_with("wall_ms: 10 -> 50")));
    }

    #[test]
    fn missing_arch_is_a_regression() {
        let a = bench_snapshot(250, 4.0);
        let b = with(
            &a,
            "archs",
            json::parse(r#"[{"name":"dense","total_cycles":1000,"speedup_vs_dense":1}]"#).unwrap(),
        );
        let report = diff(&a, &b, 2.0);
        assert!(!report.ok());
        assert!(report.regressions[0].contains("eureka-p4"));
        // An arch new in the candidate is only noted.
        assert!(diff(&b, &a, 2.0).ok());
    }

    #[test]
    fn load_snapshot_accepts_one_schema() {
        let dir = temp_dir("load");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let line = record("bench", "m", vec![row("dense", 10)]).to_json();
        std::fs::write(path("v2.json"), format!("{line}\n")).unwrap();
        assert_eq!(
            load_snapshot(&path("v2.json")).unwrap(),
            json::parse(&line).unwrap()
        );
        std::fs::write(
            path("v1.json"),
            r#"{"schema":"eureka-bench-v1","archs":[]}"#,
        )
        .unwrap();
        let err = load_snapshot(&path("v1.json")).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        std::fs::write(path("bare.json"), r#"{"archs":[]}"#).unwrap();
        assert!(load_snapshot(&path("bare.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rows_carry_a_reports_figures_anchored_on_dense() {
        assert_eq!(
            arch_row("eureka-p4", &report(20), Some(100)),
            r#"{"name":"eureka-p4","total_cycles":25,"compute_cycles":20,"mem_cycles":5,"bubble_cycles":2,"mac_utilization":0.5,"speedup_vs_dense":4}"#
        );
        assert!(arch_row("x", &report(20), None).ends_with("\"speedup_vs_dense\":null}"));
    }

    #[test]
    fn ledger_records_roundtrip_and_gate() {
        let dir = temp_dir("roundtrip");
        let label = "MobileNetv1|mod|batch32|fast|arch=eureka-p4";
        let mut first = record("simulate", label, vec![row("eureka-p4", 252_211)]);
        first.events = 42;
        first.metrics_digest = metrics_digest("{\"runner.jobs\":1}");
        let log = append(&dir, &first.to_json()).unwrap();
        assert_eq!(log, dir.join(LOG_FILE));
        append(&dir, &first.to_json()).unwrap();
        let records = read_log(&log).unwrap();
        assert_eq!(records.len(), 2);
        let v = &records[0];
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(
            v.get("key").and_then(Value::as_str),
            Some(record_key("simulate", label).as_str())
        );
        let rows = v.get("archs").and_then(Value::as_arr).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(num(&rows[0], "total_cycles"), Some(252_211.0));
        assert_eq!(num(v, "events"), Some(42.0));
        assert_eq!(
            v.get("metrics_digest").and_then(Value::as_str),
            Some(first.metrics_digest.as_str())
        );
        // Records of identical work share git revision and metrics
        // digest, so the self-diff passes.
        let report = diff(&records[0], &records[1], 2.0);
        assert!(report.ok(), "{}", report.render());
        // An injected cycle regression fails the gate.
        let worse = record("simulate", label, vec![row("eureka-p4", 300_000)]);
        let worse = json::parse(&worse.to_json()).unwrap();
        assert!(!diff(&records[0], &worse, 2.0).ok());
        // So does a changed deterministic-metrics digest under one key.
        let changed = LedgerRecord {
            metrics_digest: metrics_digest("{\"runner.jobs\":2}"),
            ..first
        };
        append(&dir, &changed.to_json()).unwrap();
        let records = read_log(&log).unwrap();
        let drift = diff(&records[0], &records[2], 2.0);
        assert!(!drift.ok());
        assert!(
            drift.render().contains("REGRESSION: metrics_digest"),
            "{}",
            drift.render()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_digest_ignores_memo_counters_only() {
        let snapshot = |planned: u64, memo: u64| {
            format!(
                "{{\"counters\":{{\"cache.hits\":{memo},\"checkpoint.hits\":{memo},\
                 \"runner.jobs\":1,\"runner.units_cached\":{memo},\
                 \"runner.units_executed\":{memo},\"runner.units_from_store\":{memo},\
                 \"runner.units_planned\":{planned},\"store.lookups\":{memo}}},\
                 \"gauges\":{{}},\"histograms\":{{}}}}"
            )
        };
        let plain = metrics_digest(&snapshot(27, 0));
        assert_eq!(metrics_digest(&snapshot(27, 9)), plain);
        assert_ne!(metrics_digest(&snapshot(28, 0)), plain);
    }

    #[test]
    fn sla_fields_roundtrip_and_gate_latency_regressions() {
        let dir = temp_dir("sla");
        let mut serve = record(
            "serve",
            "serve|capacity=8|fast|sla_budget_us=1000000",
            vec![],
        );
        serve.sla = Some(crate::service::SlaReport {
            budget_us: 1_000_000,
            p99_e2e_us: 45_000,
            jobs_per_sec: 4.0,
            shed_rate: 0.0,
            saturated: false,
        });
        let log = append(&dir, &serve.to_json()).unwrap();
        append(&dir, &serve.to_json()).unwrap();
        let records = read_log(&log).unwrap();
        assert_eq!(records.len(), 2);
        let v = &records[0];
        assert_eq!(v.get("archs"), Some(&Value::Arr(Vec::new())));
        assert_eq!(num(v, "sla_budget_us"), Some(1_000_000.0));
        assert_eq!(num(v, "sla_p99_e2e_us"), Some(45_000.0));
        assert_eq!(num(v, "sla_jobs_per_sec"), Some(4.0));
        assert_eq!(num(v, "sla_shed_rate"), Some(0.0));
        assert_eq!(v.get("sla_saturated"), Some(&Value::Bool(false)));
        let report = diff(&records[0], &records[1], 2.0);
        assert!(report.ok(), "{}", report.render());
        // p99 blowing past the threshold is a regression; so is new shed.
        let slow = with(&records[1], "sla_p99_e2e_us", Value::Num(90_000.0));
        let slow_report = diff(&records[0], &slow, 2.0);
        assert!(!slow_report.ok(), "{}", slow_report.render());
        assert!(slow_report.render().contains("sla_p99_e2e_us"));
        let shedding = with(&records[1], "sla_shed_rate", Value::Num(0.25));
        assert!(
            !diff(&records[0], &shedding, 2.0).ok(),
            "shed rate appearing from zero must gate as a regression"
        );
        let slower = with(&records[1], "sla_jobs_per_sec", Value::Num(2.0));
        assert!(
            !diff(&records[0], &slower, 2.0).ok(),
            "halved throughput must gate as a regression"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_lists_intact_records_only() {
        let dir = temp_dir("replay");
        let log = dir.join(LOG_FILE);
        assert!(read_log(&log).unwrap().is_empty(), "missing dir is empty");
        let intact = |label: &str| record("figure", label, Vec::new()).to_json();
        append(&dir, &intact("fig9")).unwrap();
        // A foreign schema, sealed; a record whose seal does not match;
        // then a torn tail without its newline.
        let mut junk = applog::seal(r#"{"schema":"eureka-ledger-v1","key":"00"}"#);
        junk.push_str(&applog::seal(&intact("tampered")).replacen("tampered", "tampere!", 1));
        junk.push_str(&applog::seal(&intact("torn"))[..40]);
        let mut text = std::fs::read_to_string(&log).unwrap();
        text.push_str(&junk);
        std::fs::write(&log, text).unwrap();
        let labels = |log: &Path| -> Vec<String> {
            read_log(log)
                .unwrap()
                .iter()
                .map(|v| v.get("label").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(labels(&log), ["fig9"]);
        // The next append cuts the torn tail and replays after the damage.
        append(&dir, &intact("fig11")).unwrap();
        assert_eq!(labels(&log), ["fig9", "fig11"]);
        let records = read_log(&log).unwrap();
        assert_eq!(records[0].get("archs"), Some(&Value::Arr(Vec::new())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_of_one_key_keep_every_record() {
        let dir = temp_dir("race");
        std::thread::scope(|scope| {
            for i in 0..8 {
                let dir = &dir;
                scope.spawn(move || {
                    let record = record("simulate", "same-key", vec![row("eureka-p4", 10 + i)]);
                    append(dir, &record.to_json()).unwrap();
                });
            }
        });
        let mut cycles: Vec<f64> = read_log(&dir.join(LOG_FILE))
            .unwrap()
            .iter()
            .map(|v| {
                num(
                    &v.get("archs").and_then(Value::as_arr).unwrap()[0],
                    "total_cycles",
                )
                .unwrap()
            })
            .collect();
        cycles.sort_by(f64::total_cmp);
        assert_eq!(
            cycles,
            (10..18).map(f64::from).collect::<Vec<_>>(),
            "all 8 records replay"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
