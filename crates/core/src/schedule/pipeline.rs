//! The systolic macro-step timing model.
//!
//! The 2D compute array advances in lockstep: every macro-step, each
//! systolic row finishes its resident work and the operand wavefront shifts
//! one stage. The step's duration is the longest row's work; shorter rows
//! idle (bubbles). A sub-matrix marches through all `stages` stages (one
//! per macro-step), computing a different output tile at each stage as the
//! activation operands stream past.

/// Geometry of one tensor core's systolic array.
///
/// The paper's configuration (§4) is four 4×4 sub-arrays per tensor core,
/// i.e. a 2×2 grid: two systolic rows of two stages each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SystolicConfig {
    /// Parallel systolic rows of sub-arrays.
    pub rows: usize,
    /// Pipeline stages per row.
    pub stages: usize,
    /// Maximum sub-matrices the scheduler may pack into one macro-step of
    /// one row (§3.3 limits this to a small number, e.g. 2, to bound
    /// register-file bandwidth).
    pub window: usize,
}

impl SystolicConfig {
    /// The paper's default tensor core: 2×2 grid of 4×4 sub-arrays,
    /// scheduling window of 2.
    #[must_use]
    pub fn paper_default() -> Self {
        SystolicConfig {
            rows: 2,
            stages: 2,
            window: 2,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero.
    pub fn assert_valid(&self) {
        assert!(
            self.rows > 0 && self.stages > 0 && self.window > 0,
            "systolic config fields must be positive: {self:?}"
        );
    }
}

impl Default for SystolicConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Timing outcome of streaming a set of tiles through the systolic array.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// End-to-end cycles, including pipeline fill.
    pub total_cycles: u64,
    /// Sum of all tiles' critical paths — the cycles a perfectly packed
    /// single row would need (per stage march).
    pub busy_cycles: u64,
    /// Idle row-cycles caused by macro-step mismatches.
    pub bubble_cycles: u64,
    /// Number of macro-steps executed.
    pub steps: u64,
}

impl PipelineReport {
    /// Fraction of row-cycles doing useful work (1.0 = bubble-free).
    #[must_use]
    pub fn row_utilization(&self) -> f64 {
        let denom = self.busy_cycles + self.bubble_cycles;
        if denom == 0 {
            return 1.0;
        }
        self.busy_cycles as f64 / denom as f64
    }
}

/// Computes the report for an explicit assignment of work to macro-steps.
///
/// `steps[k]` holds the per-row work sums of macro-step `k`. The step's
/// duration is the maximum row sum; rows below it accrue bubbles. Pipeline
/// fill adds `stages - 1` extra traversals of the first step's duration
/// (items entering stage by stage).
#[must_use]
pub fn run_steps(steps: &[Vec<u64>], cfg: &SystolicConfig) -> PipelineReport {
    run_steps_with_sink(steps, cfg, &mut super::profile::NullSink)
}

/// [`run_steps`] with a cycle-attribution hook: the sink observes every
/// macro-step (index, duration, per-row sums) and the trailing fill
/// cycles. Timing is byte-identical to [`run_steps`] — the sink is
/// called with values the accounting already computed, and with
/// [`super::profile::NullSink`] the generic compiles down to the plain
/// loop (profiling off costs nothing).
pub fn run_steps_with_sink<S: super::profile::ProfileSink>(
    steps: &[Vec<u64>],
    cfg: &SystolicConfig,
    sink: &mut S,
) -> PipelineReport {
    let mut run = StepRun::new(cfg, sink);
    for row_sums in steps {
        run.step(row_sums);
    }
    run.finish()
}

/// The accounting of [`run_steps_with_sink`], fed one macro-step at a
/// time: the schedulers stream their steps into it instead of building a
/// `Vec` per step.
pub(crate) struct StepRun<'a, S> {
    cfg: &'a SystolicConfig,
    sink: &'a mut S,
    report: PipelineReport,
    first_duration: Option<u64>,
}

impl<'a, S: super::profile::ProfileSink> StepRun<'a, S> {
    pub(crate) fn new(cfg: &'a SystolicConfig, sink: &'a mut S) -> Self {
        cfg.assert_valid();
        StepRun {
            cfg,
            sink,
            report: PipelineReport::default(),
            first_duration: None,
        }
    }

    /// Accounts one macro-step given its per-row work sums.
    pub(crate) fn step(&mut self, row_sums: &[u64]) {
        let report = &mut self.report;
        let duration = row_sums.iter().copied().max().unwrap_or(0);
        let index = report.steps as usize;
        report.steps += 1;
        report.total_cycles += duration;
        for &sum in row_sums {
            report.busy_cycles += sum;
            report.bubble_cycles += duration - sum;
        }
        // Rows absent from this step (fewer entries than cfg.rows) are
        // fully idle.
        report.bubble_cycles += duration * (self.cfg.rows.saturating_sub(row_sums.len())) as u64;
        self.first_duration.get_or_insert(duration);
        self.sink.step(index, duration, row_sums);
    }

    /// Adds the pipeline fill and returns the report.
    pub(crate) fn finish(mut self) -> PipelineReport {
        // Pipeline fill: the wavefront needs (stages - 1) extra steps to
        // reach the last stage; approximate with the first step's
        // duration.
        if let Some(d) = self.first_duration {
            let fill = d * (self.cfg.stages as u64 - 1);
            self.report.total_cycles += fill;
            self.sink.fill(fill);
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_steps_have_no_bubbles() {
        let cfg = SystolicConfig::paper_default();
        let steps = vec![vec![2, 2]; 10];
        let r = run_steps(&steps, &cfg);
        assert_eq!(r.bubble_cycles, 0);
        assert_eq!(r.busy_cycles, 40);
        assert_eq!(r.total_cycles, 20 + 2); // + fill
        assert_eq!(r.row_utilization(), 1.0);
    }

    #[test]
    fn figure10a_bubble() {
        // Top row: A1 (2 cycles) then A3 (2). Bottom row: A2 (1) then A4
        // (1). Natural pairing wastes one cycle per step.
        let cfg = SystolicConfig::paper_default();
        let steps = vec![vec![2, 1], vec![2, 1]];
        let r = run_steps(&steps, &cfg);
        assert_eq!(r.bubble_cycles, 2);
        assert!((r.row_utilization() - 6.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn figure10b_scheduled() {
        // Scheduled: the bottom row packs A2+A4 (1+1) against A1's 2, then
        // A3 pairs with another 2-cycle step.
        let cfg = SystolicConfig::paper_default();
        let steps = vec![vec![2, 2], vec![2, 2]];
        let r = run_steps(&steps, &cfg);
        assert_eq!(r.bubble_cycles, 0);
    }

    #[test]
    fn missing_rows_idle() {
        let cfg = SystolicConfig {
            rows: 4,
            stages: 1,
            window: 1,
        };
        let steps = vec![vec![3]]; // only one of four rows fed
        let r = run_steps(&steps, &cfg);
        assert_eq!(r.bubble_cycles, 9);
        assert_eq!(r.total_cycles, 3);
    }

    #[test]
    fn empty_stream() {
        let r = run_steps(&[], &SystolicConfig::paper_default());
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.row_utilization(), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn invalid_config() {
        let cfg = SystolicConfig {
            rows: 0,
            stages: 2,
            window: 2,
        };
        let _ = run_steps(&[], &cfg);
    }

    #[test]
    fn empty_steps_produce_default_report() {
        // No steps at all: no cycles, no fill (there is no first step to
        // size the fill from), utilization degenerates to 1.0.
        let r = run_steps(&[], &SystolicConfig::paper_default());
        assert_eq!(r, PipelineReport::default());
        // A step that exists but carries no rows contributes nothing
        // except the step count (duration 0, no row entries).
        let r = run_steps(&[vec![]], &SystolicConfig::paper_default());
        assert_eq!(r.steps, 1);
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.busy_cycles, 0);
        assert_eq!(r.bubble_cycles, 0);
    }

    #[test]
    fn short_steps_bill_missing_rows_as_idle() {
        // Exercises the `saturating_sub` branch: row_sums.len() < cfg.rows
        // bills `duration * (rows - len)` idle row-cycles; len == rows
        // bills none; and the subtraction saturates (never underflows)
        // when a schedule feeds more entries than configured rows.
        let cfg = SystolicConfig {
            rows: 3,
            stages: 1,
            window: 1,
        };
        let short = run_steps(&[vec![5u64]], &cfg); // 2 rows missing
        assert_eq!(short.busy_cycles, 5);
        assert_eq!(short.bubble_cycles, 10);
        let exact = run_steps(&[vec![5u64, 5, 5]], &cfg);
        assert_eq!(exact.bubble_cycles, 0);
        let over = run_steps(&[vec![5u64, 5, 5, 2]], &cfg); // len > rows
        assert_eq!(over.busy_cycles, 17);
        assert_eq!(over.bubble_cycles, 3, "only the short extra entry idles");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Permuting the rows within a step never changes what the step
        /// costs: duration is the max (order-free) and busy/bubble are
        /// per-entry sums. Rotation + transposition generate every
        /// permutation, so checking those suffices.
        #[test]
        fn busy_plus_bubble_invariant_under_row_permutation(
            step in proptest::collection::vec(0u64..64, 0..8),
            rot in 0usize..8,
            swap_a in 0usize..8,
            swap_b in 0usize..8,
        ) {
            let cfg = SystolicConfig {
                rows: 4,
                stages: 2,
                window: 2,
            };
            let base = run_steps(std::slice::from_ref(&step), &cfg);
            let mut permuted = step;
            if !permuted.is_empty() {
                let r = rot % permuted.len();
                permuted.rotate_left(r);
                let (a, b) = (swap_a % permuted.len(), swap_b % permuted.len());
                permuted.swap(a, b);
            }
            let p = run_steps(&[permuted], &cfg);
            proptest::prop_assert_eq!(
                base.busy_cycles + base.bubble_cycles,
                p.busy_cycles + p.bubble_cycles
            );
            proptest::prop_assert_eq!(base.busy_cycles, p.busy_cycles);
            proptest::prop_assert_eq!(base.total_cycles, p.total_cycles);
        }
    }
}
