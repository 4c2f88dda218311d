//! The offline systolic scheduler: packing tiles into macro-steps.
//!
//! [`schedule_natural`] models an unscheduled stream (tiles dispatched
//! round-robin in arrival order, one per row per step) — the behaviour of
//! *Cnvlutin-like* and the "original" side of Figure 10. [`schedule_grouped`]
//! implements §3.3: tiles with the same critical path, or short tiles whose
//! paths sum to the step length, share a macro-step.

use super::pipeline::{PipelineReport, StepRun, SystolicConfig};
use super::profile::{NullSink, ProfileSink};

/// The macro-steps of an unscheduled stream: tiles in arrival order, one
/// per systolic row per step.
#[must_use]
pub fn schedule_natural_steps(times: &[u64], cfg: &SystolicConfig) -> Vec<Vec<u64>> {
    cfg.assert_valid();
    times.chunks(cfg.rows).map(<[u64]>::to_vec).collect()
}

/// Streams tiles in arrival order, one tile per systolic row per
/// macro-step. The step's duration is the longest tile in it.
#[must_use]
pub fn schedule_natural(times: &[u64], cfg: &SystolicConfig) -> PipelineReport {
    schedule_natural_with_sink(times, cfg, &mut NullSink)
}

/// [`schedule_natural`] with a cycle-attribution hook, as in
/// [`super::pipeline::run_steps_with_sink`] over
/// [`schedule_natural_steps`], without building the steps.
pub fn schedule_natural_with_sink<S: ProfileSink>(
    times: &[u64],
    cfg: &SystolicConfig,
    sink: &mut S,
) -> PipelineReport {
    let mut run = StepRun::new(cfg, sink);
    for row_sums in times.chunks(cfg.rows) {
        run.step(row_sums);
    }
    run.finish()
}

/// Offline systolic scheduling: greedily builds macro-steps by taking the
/// longest remaining tile (which sets the step duration) and packing every
/// row — including the remainder of the first — with up to `cfg.window`
/// tiles whose critical paths fit the remaining step capacity,
/// largest-fit-first.
///
/// With uniform tile times this degenerates to the natural schedule (no
/// bubbles either way); with SUDS-shortened, low-variance paths it packs
/// most steps exactly (the §3.3 + §3.2 synergy).
#[must_use]
pub fn schedule_grouped(times: &[u64], cfg: &SystolicConfig) -> PipelineReport {
    schedule_grouped_with_sink(times, cfg, &mut GroupingBuffers::default(), &mut NullSink)
}

/// [`schedule_grouped`] with a cycle-attribution hook, as in
/// [`super::pipeline::run_steps_with_sink`] over
/// [`schedule_grouped_steps`], without building the steps. `buf` is
/// scratch space: once it has grown, scheduling allocates nothing.
pub fn schedule_grouped_with_sink<S: ProfileSink>(
    times: &[u64],
    cfg: &SystolicConfig,
    buf: &mut GroupingBuffers,
    sink: &mut S,
) -> PipelineReport {
    let mut run = StepRun::new(cfg, sink);
    grouped_steps(times, cfg, buf, |row_sums| run.step(row_sums));
    run.finish()
}

/// The macro-steps the offline scheduler constructs (see
/// [`schedule_grouped`]), exposed for the cycle-accurate cross-validation
/// and for inspecting schedules.
#[must_use]
pub fn schedule_grouped_steps(times: &[u64], cfg: &SystolicConfig) -> Vec<Vec<u64>> {
    let mut steps = Vec::new();
    grouped_steps(times, cfg, &mut GroupingBuffers::default(), |row_sums| {
        steps.push(row_sums.to_vec());
    });
    steps
}

/// Reusable scratch space for the offline scheduler: the remaining tile
/// times and one macro-step's row sums. Contents never carry between
/// calls.
#[derive(Clone, Debug, Default)]
pub struct GroupingBuffers {
    /// The multiset of remaining tile times as `(time, count)` pairs,
    /// ascending by time, with no zero counts.
    pool: Vec<(u64, u64)>,
    row_sums: Vec<u64>,
}

/// Feeds the offline scheduler's macro-steps, in order, to `step` (see
/// [`schedule_grouped`]). Every step has one entry per systolic row.
fn grouped_steps(
    times: &[u64],
    cfg: &SystolicConfig,
    buf: &mut GroupingBuffers,
    mut step: impl FnMut(&[u64]),
) {
    cfg.assert_valid();
    let GroupingBuffers { pool, row_sums } = buf;
    pool.clear();
    for &t in times {
        match pool.binary_search_by_key(&t, |&(v, _)| v) {
            Ok(i) => pool[i].1 += 1,
            Err(i) => pool.insert(i, (t, 1)),
        }
    }
    while let Some(&(t_max, _)) = pool.last() {
        row_sums.clear();
        // Row 0's first take is the longest tile, which sets the step.
        for _ in 0..cfg.rows {
            let mut sum = 0;
            for _ in 0..cfg.window {
                let Some(t) = take(pool, t_max - sum) else {
                    break;
                };
                sum += t;
            }
            row_sums.push(sum);
        }
        step(row_sums);
    }
}

/// Removes one of the longest remaining times not above `at_most` from
/// the pool and returns it.
fn take(pool: &mut Vec<(u64, u64)>, at_most: u64) -> Option<u64> {
    let i = pool
        .partition_point(|&(t, _)| t <= at_most)
        .checked_sub(1)?;
    let (t, count) = &mut pool[i];
    let t = *t;
    *count -= 1;
    if *count == 0 {
        pool.remove(i);
    }
    Some(t)
}

/// Information-theoretic makespan lower bound for a tile stream on the
/// given geometry: the work spread perfectly over the rows, but never
/// below the longest single tile. (Pipeline fill is not lower-bounded —
/// a lucky schedule leads with a short step.)
#[must_use]
pub fn makespan_lower_bound(times: &[u64], cfg: &SystolicConfig) -> u64 {
    cfg.assert_valid();
    let total: u64 = times.iter().sum();
    let max_t = times.iter().copied().max().unwrap_or(0);
    total.div_ceil(cfg.rows as u64).max(max_t)
}

#[cfg(test)]
mod tests {
    use super::super::pipeline::{run_steps, run_steps_with_sink};
    use super::super::profile::StepProfile;
    use super::*;
    use std::collections::BTreeMap;

    /// The offline scheduler as first written, over a `BTreeMap`
    /// multiset with one `Vec` per step: the reference the streaming
    /// scheduler must match step for step.
    fn reference_grouped_steps(times: &[u64], cfg: &SystolicConfig) -> Vec<Vec<u64>> {
        let mut pool: BTreeMap<u64, u64> = BTreeMap::new();
        for &t in times {
            *pool.entry(t).or_insert(0) += 1;
        }
        let take = |pool: &mut BTreeMap<u64, u64>, at_most: u64| -> Option<u64> {
            let (&t, _) = pool.range(..=at_most).next_back()?;
            let cnt = pool.get_mut(&t).expect("key just observed");
            *cnt -= 1;
            if *cnt == 0 {
                pool.remove(&t);
            }
            Some(t)
        };
        let mut steps = Vec::new();
        while let Some((&t_max, _)) = pool.iter().next_back() {
            let lead = take(&mut pool, t_max).expect("nonempty pool");
            let mut row_sums = Vec::with_capacity(cfg.rows);
            for row in 0..cfg.rows {
                let mut sum = if row == 0 { lead } else { 0 };
                let mut count = usize::from(row == 0);
                while count < cfg.window {
                    match take(&mut pool, t_max - sum) {
                        Some(t) => {
                            sum += t;
                            count += 1;
                        }
                        None => break,
                    }
                }
                row_sums.push(sum);
            }
            steps.push(row_sums);
        }
        steps
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The streaming schedulers build the reference's steps and
        /// account them exactly as `run_steps` does, sink included: empty
        /// streams, zero-cycle tiles and times far beyond any tile's.
        #[test]
        fn streaming_schedules_match_run_steps(
            small in proptest::collection::vec(0u64..=16, 0..120),
            shift in 0u32..=44,
            rows in 1usize..=4,
            window in 1usize..=4,
            stages in 1usize..=4,
        ) {
            let times: Vec<u64> = small.iter().map(|&t| t << shift).collect();
            let cfg = SystolicConfig { rows, stages, window };
            let reference = reference_grouped_steps(&times, &cfg);
            proptest::prop_assert_eq!(&schedule_grouped_steps(&times, &cfg), &reference);
            let mut want_sink = StepProfile::new(rows);
            let want = run_steps_with_sink(&reference, &cfg, &mut want_sink);
            let mut sink = StepProfile::new(rows);
            let mut buf = GroupingBuffers::default();
            let got = schedule_grouped_with_sink(&times, &cfg, &mut buf, &mut sink);
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(&sink, &want_sink);
            proptest::prop_assert_eq!(&schedule_grouped(&times, &cfg), &want);
            // A reused buffer carries nothing into the next schedule.
            let again = schedule_grouped_with_sink(&times, &cfg, &mut buf, &mut NullSink);
            proptest::prop_assert_eq!(&again, &want);

            let natural = schedule_natural_steps(&times, &cfg);
            let mut want_sink = StepProfile::new(rows);
            let want = run_steps_with_sink(&natural, &cfg, &mut want_sink);
            let mut sink = StepProfile::new(rows);
            proptest::prop_assert_eq!(&schedule_natural_with_sink(&times, &cfg, &mut sink), &want);
            proptest::prop_assert_eq!(&sink, &want_sink);
            proptest::prop_assert_eq!(&schedule_natural(&times, &cfg), &run_steps(&natural, &cfg));
        }
    }

    fn cfg() -> SystolicConfig {
        SystolicConfig::paper_default()
    }

    #[test]
    fn grouped_is_near_the_lower_bound_on_suds_distributions() {
        // Post-SUDS critical paths are short and low-variance; the
        // scheduler should land within a few percent of the bound.
        let times: Vec<u64> = (0..2000)
            .map(|i| match i % 10 {
                0..=4 => 2,
                5..=7 => 1,
                8 => 3,
                _ => 2,
            })
            .collect();
        let lb = makespan_lower_bound(&times, &cfg());
        let got = schedule_grouped(&times, &cfg()).total_cycles;
        assert!(got >= lb);
        assert!(
            (got as f64) < lb as f64 * 1.03,
            "grouped {got} vs lower bound {lb}"
        );
    }

    #[test]
    fn lower_bound_edge_cases() {
        assert_eq!(makespan_lower_bound(&[], &cfg()), 0);
        assert_eq!(makespan_lower_bound(&[5], &cfg()), 5);
        // Dominated by the single longest tile, not the average.
        assert_eq!(makespan_lower_bound(&[9, 1], &cfg()), 9);
        assert_eq!(makespan_lower_bound(&[2, 2, 2, 2], &cfg()), 4);
    }

    #[test]
    fn figure10_end_to_end() {
        // A1=2, A2=1, A3=2, A4=1 in arrival order.
        let times = [2u64, 1, 2, 1];
        let natural = schedule_natural(&times, &cfg());
        let grouped = schedule_grouped(&times, &cfg());
        // Natural: steps (2,1) and (2,1): 2 bubbles.
        assert_eq!(natural.bubble_cycles, 2);
        // Scheduled: (2 | 1+1) then (2 | -): the last step has an unfilled
        // row, but total bubbles must not exceed natural's.
        assert!(grouped.bubble_cycles <= natural.bubble_cycles);
        assert!(grouped.total_cycles <= natural.total_cycles);
        assert_eq!(grouped.busy_cycles, 6);
    }

    #[test]
    fn uniform_times_no_bubbles_either_way() {
        let times = vec![3u64; 64];
        let natural = schedule_natural(&times, &cfg());
        let grouped = schedule_grouped(&times, &cfg());
        assert_eq!(natural.bubble_cycles, 0);
        assert_eq!(grouped.bubble_cycles, 0);
        assert_eq!(natural.total_cycles, grouped.total_cycles);
    }

    #[test]
    fn grouped_never_loses_work() {
        let times: Vec<u64> = (0..100).map(|i| 1 + (i * 7) % 4).collect();
        let natural = schedule_natural(&times, &cfg());
        let grouped = schedule_grouped(&times, &cfg());
        assert_eq!(natural.busy_cycles, grouped.busy_cycles);
        assert_eq!(natural.busy_cycles, times.iter().sum::<u64>());
    }

    #[test]
    fn grouped_improves_mixed_stream() {
        // Alternating 4s and 1s: natural pairs (4,1) every step; grouped
        // pairs 4 against 1+1+1+1 when the window allows.
        let times: Vec<u64> = (0..200).map(|i| if i % 2 == 0 { 4 } else { 1 }).collect();
        let wide = SystolicConfig {
            rows: 2,
            stages: 2,
            window: 4,
        };
        let natural = schedule_natural(&times, &wide);
        let grouped = schedule_grouped(&times, &wide);
        assert!(
            grouped.total_cycles < natural.total_cycles,
            "grouped {} vs natural {}",
            grouped.total_cycles,
            natural.total_cycles
        );
        assert!(grouped.row_utilization() > natural.row_utilization());
    }

    #[test]
    fn window_limits_packing() {
        // With window 1, grouping can only reorder, not pack.
        let times = [4u64, 1, 1, 1, 1, 4];
        let w1 = SystolicConfig {
            rows: 2,
            stages: 2,
            window: 1,
        };
        let grouped = schedule_grouped(&times, &w1);
        // Reordering pairs the two 4s together and the 1s together.
        assert_eq!(grouped.bubble_cycles, 0);
        let w1_natural = schedule_natural(&times, &w1);
        assert!(w1_natural.bubble_cycles > 0);
    }

    #[test]
    fn empty_input() {
        let r = schedule_grouped(&[], &cfg());
        assert_eq!(r.total_cycles, 0);
        let r = schedule_natural(&[], &cfg());
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn single_tile() {
        let r = schedule_grouped(&[5], &cfg());
        assert_eq!(r.busy_cycles, 5);
        // One step of 5 plus one fill step of 5 (stages = 2).
        assert_eq!(r.total_cycles, 10);
    }
}
