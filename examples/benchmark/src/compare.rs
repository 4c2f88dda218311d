//! `benchmark compare`: parent runs against change runs, judged by paired
//! wins, the parent's interquartile range and the bounds in
//! `BENCHMARK.json`. A change that fails more operations than the parent
//! regresses, and none of its gains on that workload count.

use crate::report::Declared;
use crate::stats::quartiles;
use eureka_obs::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Values of one (workload, metric) pair, in the order the runs were given.
type Series = BTreeMap<(String, String), Vec<f64>>;

/// How one side's runs of a workload went.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcomes {
    /// Each run's failed ÷ attempted operations.
    pub fail_frac: Vec<f64>,
    /// Operations attempted over all runs.
    pub attempted: f64,
    /// Operations failed over all runs.
    pub failed: f64,
    /// Runs whose result was not `correct`.
    pub incorrect: usize,
}

impl Outcomes {
    /// Failed ÷ attempted over all runs.
    #[must_use]
    pub fn total_fail_frac(&self) -> f64 {
        if self.attempted > 0.0 {
            self.failed / self.attempted
        } else {
            0.0
        }
    }
}

/// One side's run records, read back.
#[derive(Clone, Debug, Default)]
pub struct Runs {
    /// Metric values per (workload, metric).
    pub series: Series,
    /// Operation outcomes per workload.
    pub outcomes: BTreeMap<String, Outcomes>,
}

impl Runs {
    /// Adds one run record (`{"workload":…,"result":{…}}`).
    ///
    /// # Errors
    ///
    /// Malformed records.
    pub fn add(&mut self, text: &str) -> Result<(), String> {
        let record = json::parse(text.trim())?;
        let (Some(workload), Some(result)) = (
            record.get("workload").and_then(Value::as_str),
            record.get("result"),
        ) else {
            return Err("not a run record".into());
        };
        let (Some(correct), Some(attempted), Some(failed), Some(Value::Obj(metrics))) = (
            result.get("correct"),
            result.get("attempted").and_then(Value::as_f64),
            result.get("failed").and_then(Value::as_f64),
            result.get("metrics"),
        ) else {
            return Err("the result lacks correct, attempted, failed or metrics".into());
        };
        let outcome = self.outcomes.entry(workload.to_string()).or_default();
        outcome.fail_frac.push(if attempted > 0.0 {
            failed / attempted
        } else {
            1.0
        });
        outcome.attempted += attempted;
        outcome.failed += failed;
        if *correct != Value::Bool(true) {
            outcome.incorrect += 1;
        }
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                self.series
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
        Ok(())
    }
}

/// Reads run records (`target/benchmark/records/*.json`).
///
/// # Errors
///
/// Unreadable or malformed files.
pub fn load(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::default();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        runs.add(&text).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(runs)
}

/// The verdict on one (metric, workload) pair.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Metric name.
    pub metric: String,
    /// Workload name.
    pub workload: String,
    /// Parent median and quartiles.
    pub parent: [f64; 3],
    /// Change median and quartiles.
    pub change: [f64; 3],
    /// Pairs the change won, and pairs compared (ties count for neither).
    pub wins: (usize, usize),
    /// `gain`, `regression`, `unresolved`, `within bound`, `-`, or
    /// `no gain: failures` for a gain on a workload whose change fails more.
    pub verdict: &'static str,
}

fn summary(values: &[f64]) -> [f64; 3] {
    match quartiles(values) {
        Some([q1, q2, q3]) => [q2, q1, q3],
        None => [values[0]; 3],
    }
}

/// Judges one metric. `bound` is `None` for per-layer metrics, which get
/// a gain verdict but no regression gate.
#[must_use]
pub fn judge(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: Option<f64>,
) -> ([f64; 3], [f64; 3], (usize, usize), &'static str) {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let (p, c) = (summary(parent), summary(change));
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&pv, &cv)| better(cv, pv))
        .count();
    let all_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| better(cv, pv)));
    let all_worse = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| better(pv, cv)));
    let parent_iqr = p[2] - p[1];
    let spread = |s: [f64; 3]| {
        if s[0] == 0.0 {
            0.0
        } else {
            (s[2] - s[1]) / s[0].abs()
        }
    };
    let worse_by = if lower_is_better {
        c[0] - p[0]
    } else {
        p[0] - c[0]
    };
    let verdict = if pairs > 0 && wins * 10 >= pairs * 9 && worse_by < 0.0 && -worse_by > parent_iqr
    {
        "gain"
    } else if let Some(bound) = bound {
        let limit = bound * p[0].abs();
        if all_worse && worse_by > limit {
            "regression"
        } else if (spread(p) > bound || spread(c) > bound) && !all_better {
            "unresolved"
        } else if worse_by > limit {
            "regression"
        } else {
            "within bound"
        }
    } else {
        "-"
    };
    (p, c, (wins, pairs), verdict)
}

/// Compares every workload and (metric, workload) pair present on both
/// sides: first one `fail_frac` row per workload, then the metrics in
/// declaration order.
///
/// `fail_frac` is gated at +0: the change regresses on a workload where
/// it fails a larger share of its operations than the parent, or where
/// any of its runs is not `correct`. Failed operations leave no latency
/// sample and lighten the load, so on such a workload no gain counts.
#[must_use]
pub fn compare(parent: &Runs, change: &Runs, declared: &[Declared]) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut failing = BTreeSet::new();
    for (workload, p) in &parent.outcomes {
        let Some(c) = change.outcomes.get(workload) else {
            continue;
        };
        let (parent, change, wins, _) = judge(&p.fail_frac, &c.fail_frac, true, None);
        let worse = c.incorrect > 0 || c.total_fail_frac() > p.total_fail_frac();
        if worse {
            failing.insert(workload.clone());
        }
        rows.push(Row {
            metric: "fail_frac".into(),
            workload: workload.clone(),
            parent,
            change,
            wins,
            verdict: if worse { "regression" } else { "within bound" },
        });
    }
    for d in declared {
        for ((workload, metric), p) in parent.series.iter().filter(|((_, m), _)| m == &d.name) {
            let Some(c) = change.series.get(&(workload.clone(), metric.clone())) else {
                continue;
            };
            let (parent, change, wins, mut verdict) = judge(p, c, d.lower_is_better, d.bound);
            if verdict == "gain" && failing.contains(workload) {
                verdict = "no gain: failures";
            }
            rows.push(Row {
                metric: metric.clone(),
                workload: workload.clone(),
                parent,
                change,
                wins,
                verdict,
            });
        }
    }
    rows
}

/// Renders rows as an aligned table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<40} {:<12} {:>32} {:>32} {:>7}  verdict\n",
        "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for r in rows {
        let cell = |s: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", s[0], s[1], s[2]);
        out.push_str(&format!(
            "{:<40} {:<12} {:>32} {:>32} {:>7}  {}\n",
            r.metric,
            r.workload,
            cell(r.parent),
            cell(r.change),
            format!("{}/{}", r.wins.0, r.wins.1),
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i)).collect()
    }

    #[test]
    fn a_clear_improvement_is_a_gain() {
        let (_, _, wins, verdict) = judge(&ten(100.0, 0.5), &ten(80.0, 0.5), true, Some(0.1));
        assert_eq!((wins, verdict), ((10, 10), "gain"));
    }

    #[test]
    fn nine_of_ten_pairs_and_a_gap_beyond_the_parent_iqr_are_both_needed() {
        let parent = ten(100.0, 1.0);
        let mut change = ten(90.0, 1.0);
        change[0] = 200.0; // one lost pair still leaves 9 of 10
        assert_eq!(judge(&parent, &change, true, Some(0.2)).3, "gain");
        change[1] = 200.0; // 8 of 10 is not enough
        assert_eq!(judge(&parent, &change, true, Some(0.2)).3, "unresolved");
        // Every pair won, but by less than the parent's own spread.
        let close = ten(99.0, 1.0);
        assert_eq!(judge(&parent, &close, true, Some(0.1)).3, "within bound");
    }

    #[test]
    fn worsening_beyond_the_bound_is_a_regression_and_wide_spread_is_unresolved() {
        let parent = ten(100.0, 0.1);
        assert_eq!(
            judge(&parent, &ten(120.0, 0.1), true, Some(0.1)).3,
            "regression"
        );
        assert_eq!(
            judge(&parent, &ten(105.0, 0.1), true, Some(0.1)).3,
            "within bound"
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&parent, &ten(80.0, 0.1), false, Some(0.1)).3,
            "regression"
        );
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 60.0 } else { 140.0 })
            .collect();
        assert_eq!(
            judge(&noisy, &ten(101.0, 0.1), true, Some(0.1)).3,
            "unresolved"
        );
        assert_eq!(judge(&parent, &ten(101.0, 0.1), true, None).3, "-");
    }

    fn runs(op_ms: &[f64], outcome: impl Fn(usize) -> (bool, u32)) -> Runs {
        let mut runs = Runs::default();
        for (i, v) in op_ms.iter().enumerate() {
            let (correct, failed) = outcome(i);
            runs.add(&format!(
                "{{\"workload\":\"serve-hot\",\"seed\":{i},\"trace\":false,\"result\":\
                 {{\"correct\":{correct},\"attempted\":100,\"failed\":{failed},\
                 \"metrics\":{{\"op_ms.p50\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}}}"
            ))
            .expect("a valid record");
        }
        runs
    }

    fn verdicts(parent: &Runs, change: &Runs) -> Vec<(String, &'static str)> {
        let declared = [Declared {
            name: "op_ms.p50".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound: Some(0.25),
        }];
        compare(parent, change, &declared)
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn a_faster_change_that_fails_more_is_a_regression_not_a_gain() {
        let parent = runs(&ten(100.0, 0.5), |_| (true, 0));
        let clean = runs(&ten(80.0, 0.5), |_| (true, 0));
        assert_eq!(
            verdicts(&parent, &clean),
            [
                ("fail_frac".to_string(), "within bound"),
                ("op_ms.p50".to_string(), "gain")
            ]
        );
        // One failed job in one run of ten voids the gain.
        let failing = runs(&ten(80.0, 0.5), |i| (i != 3, u32::from(i == 3)));
        assert_eq!(failing.outcomes["serve-hot"].total_fail_frac(), 0.001);
        assert_eq!(
            verdicts(&parent, &failing),
            [
                ("fail_frac".to_string(), "regression"),
                ("op_ms.p50".to_string(), "no gain: failures")
            ]
        );
        // A run that is not correct regresses even with no failed operation.
        let incorrect = runs(&ten(80.0, 0.5), |i| (i != 0, 0));
        assert_eq!(verdicts(&parent, &incorrect)[0].1, "regression");
        // As many failures as the parent is no regression.
        let parent_failing = runs(&ten(100.0, 0.5), |i| (true, u32::from(i == 5)));
        let same = runs(&ten(80.0, 0.5), |i| (true, u32::from(i == 7)));
        assert_eq!(
            verdicts(&parent_failing, &same),
            [
                ("fail_frac".to_string(), "within bound"),
                ("op_ms.p50".to_string(), "gain")
            ]
        );
        assert!(Runs::default()
            .add("{\"workload\":\"serve-hot\",\"result\":{\"metrics\":{}}}")
            .is_err());
    }
}
