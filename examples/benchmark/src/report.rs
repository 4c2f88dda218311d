//! The run's outputs: the JSON result line printed last, a human
//! summary on stderr, and a record file `compare` reads back.

use crate::e2e::{Pass, Workload};
use crate::stats::{tail_supported, Tally};
use eureka_obs::json::{self, Value};
use std::path::{Path, PathBuf};

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples it summarizes (1 for a single reading).
    pub n: usize,
}

impl Metric {
    /// A metric; a missing value (no successful sample) reads 0, and the
    /// run is then not `correct` anyway.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, value: Option<f64>, n: usize) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: value.filter(|v| v.is_finite()).unwrap_or(0.0),
            n,
        }
    }
}

/// Names and units of the end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The end-to-end metrics of an untraced pass.
#[must_use]
pub fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let values = [
        (pass.setup_s.p50(), pass.setup_s.len()),
        (pass.op_ms.p50(), pass.op_ms.len()),
        (Some(pass.peak_rss_mb), 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, n))| Metric::new(name, unit, value, n))
        .collect()
}

/// The result object: `correct`, `attempted`, `failed`, and
/// every metric with its unit, values at full precision.
#[must_use]
pub fn result_json(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let v = Value::Obj(vec![
                ("value".into(), Value::Num(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(tally.attempted as f64)),
        ("failed".into(), Value::Num(tally.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
    .to_json()
}

/// Prints every metric by name with its unit and sample count, then the
/// failure fraction and any failed checks, to stderr.
pub fn print_summary(workload: Workload, seed: u64, pass: &Pass, metrics: &[Metric]) {
    eprintln!("== {} (seed {seed})", workload.name());
    for m in metrics {
        eprintln!("  {:<44} {:>14.4} {:<9} n={}", m.name, m.value, m.unit, m.n);
    }
    // Reported, not gated: their run-to-run spread exceeds any bound the
    // benchmark may set (see README.md).
    let n = pass.op_ms.len();
    let tail = [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|&q| tail_supported(n, q));
    match tail {
        Some(q) => {
            let label = format!("op_ms.p{}", (q * 100.0).round());
            let value = pass.op_ms.quantile(q).unwrap_or(0.0);
            eprintln!("  {label:<44} {value:>14.4} ms        n={n}  (not gated)");
        }
        None => eprintln!("  op_ms tail: n={n} leaves no tail with 10 samples beyond it"),
    }
    let cpu = pass.cpu_ms_per_op;
    eprintln!(
        "  {:<44} {cpu:>14.4} ms        n={n}  (not gated)",
        "cpu_ms_per_op"
    );
    eprintln!(
        "  fail_frac = {} ({} of {} operations failed)",
        pass.tally.fail_frac(),
        pass.tally.failed,
        pass.tally.attempted
    );
    if !pass.submit_ms.is_empty() {
        eprintln!(
            "  client: submit p50 {:.2} ms, generator lateness p95 {:.2} ms, {:.2} polls/job, {:.1} connections/s",
            pass.submit_ms.p50().unwrap_or(0.0),
            pass.lateness_ms.quantile(0.95).unwrap_or(0.0),
            pass.polls as f64 / pass.op_ms.len().max(1) as f64,
            pass.connections as f64 / pass.window_s.max(1e-9)
        );
    }
    for p in &pass.problems {
        eprintln!("  FAILED CHECK: {p}");
    }
}

/// Writes the run's record under `out/records/`, for `compare`.
///
/// # Errors
///
/// File-system failures.
pub fn write_record(
    out: &Path,
    workload: Workload,
    seed: u64,
    traced: bool,
    result: &str,
) -> std::io::Result<PathBuf> {
    let dir = out.join("records");
    std::fs::create_dir_all(&dir)?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = dir.join(format!(
        "{}-seed{seed}-trace{}-{stamp}-{}.json",
        workload.name(),
        u8::from(traced),
        std::process::id()
    ));
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{traced},\"result\":{result}}}\n",
        workload.name()
    );
    std::fs::write(&path, record)?;
    Ok(path)
}

/// One metric's declaration in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The end-to-end and per-layer declarations of a `BENCHMARK.json`.
///
/// # Errors
///
/// Unreadable or malformed files.
pub fn declared(path: &Path) -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        let items = spec
            .get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("{key} missing"))?;
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
                Ok(Declared {
                    name: s("name").ok_or("metric without a name")?,
                    unit: s("unit").ok_or("metric without a unit")?,
                    lower_is_better: s("better").as_deref() == Some("lower"),
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        let m = vec![Metric::new("op_ms.p50", "ms", Some(1.234_567_891_2), 3)];
        let line = result_json(true, tally, &m);
        let v = json::parse(&line).expect("valid JSON");
        let Value::Obj(pairs) = &v else {
            panic!("an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = v
            .get("metrics")
            .and_then(|m| m.get("op_ms.p50"))
            .expect("metric");
        assert_eq!(
            p50.get("value").and_then(Value::as_f64),
            Some(1.234_567_891_2)
        );
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
        assert_eq!(Metric::new("x", "ms", None, 0).value, 0.0);
    }

    #[test]
    fn harness_metrics_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let (e2e, per_layer) = declared(&path).expect("BENCHMARK.json parses");
        let declared: Vec<(&str, &str)> = e2e
            .iter()
            .map(|d| (d.name.as_str(), d.unit.as_str()))
            .collect();
        assert_eq!(declared, END_TO_END);
        assert!(e2e
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let layers: Vec<(&str, &str)> = per_layer
            .iter()
            .map(|d| (d.name.as_str(), d.unit.as_str()))
            .collect();
        assert_eq!(layers, crate::PER_LAYER);
    }
}
