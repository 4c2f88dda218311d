//! The shared tile-stream engine for one-sided architectures.
//!
//! Dense, Ampere/STC, Cnvlutin-like, the whole Eureka family and the
//! Figure 12 ablations differ only in three knobs:
//!
//! * the **compaction factor** `P` (tile width `q = p·P`);
//! * the **tile timer** — how a sparse tile's critical path becomes cycles
//!   (dense, 2:4, compaction-only max-row, greedy SUDS, optimal SUDS);
//! * the **schedule mode** — natural tile order vs offline systolic
//!   grouping (§3.3).
//!
//! Timing is statistical: tiles are sampled from the layer's (possibly
//! clustered) sparsity distribution; the busy total scales the sample mean
//! to the layer's true tile count, and the scheduling utilization comes
//! from running the macro-step pipeline on the sampled stream.

use super::{tile_density, Architecture, LayerCtx, SimError};
use crate::config::SimConfig;
use crate::memory;
use crate::profile::{
    LayerProfile, MacBreakdown, ProfileConfig, RowOccupancy, StallBreakdown, SudsStats, TileStat,
};
use crate::report::{LayerReport, OpCounts};
use crate::scratch::Scratch;
use crate::store::{TileBroker, TileKey, TileOutcome};
use eureka_core::schedule::{
    schedule_grouped_with_sink, schedule_natural_with_sink, GroupingBuffers, NullSink,
    PipelineReport, ProfileSink, StepProfile, SystolicConfig,
};
use eureka_core::suds;
use eureka_models::workload::LayerGemm;
use eureka_sparse::TilePattern;
use std::collections::BTreeMap;

/// How a tile's sparsity becomes a cycle count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileTimer {
    /// Dense operation: every tile takes `q` cycles (`q = p`, factor 1).
    Dense,
    /// Ampere 2:4: uniform `q/2` cycles.
    TwoFour,
    /// Compaction only: the longest left-aligned row (Cnvlutin-like,
    /// Eureka-unopt, Eureka-no-SUDS).
    MaxRow,
    /// Greedy SUDS displacement (Figure 12's *Greedy SUDS*).
    GreedySuds,
    /// Optimal SUDS work assignment (Algorithm 1 + binary search).
    OptimalSuds,
    /// Hypothetical reach-R displacement (execute up to R rows below) —
    /// the design-space ablation behind the paper's "single-step" choice.
    /// Costs R return wires and an (R+2)-input adder per MAC.
    MultiStepSuds(usize),
}

impl TileTimer {
    /// The content-addressed store key for timing `tile` under this
    /// timer, or `None` for uniform-latency timers (dense, 2:4), whose
    /// per-tile cost ignores the sparsity pattern and is never cached at
    /// tile granularity.
    ///
    /// Every sampled timer is a pure function of the tile's row-length
    /// signature, so the key is the timer's discipline tag plus the
    /// canonical signature: sorted for the permutation-invariant max-row
    /// timer, exact row order for the SUDS planners (whose displacement
    /// walk and base-row choice are position-dependent). Equal keys
    /// imply bit-identical [`TileTimer::outcome`]s — the congruence the
    /// workspace property suite asserts for every registry architecture.
    #[must_use]
    pub fn key(self, tile: &TilePattern) -> Option<TileKey> {
        let (mut lens, mut token) = (Vec::new(), String::new());
        let (mut tag, mut key) = (String::new(), String::new());
        self.key_into(tile, &mut lens, &mut token, &mut tag, &mut key)
            .then(|| TileKey::new(&tag, &token))
    }

    /// [`key`](Self::key) into caller-owned buffers: fills `key` with the
    /// store key's text form (byte-identical to what [`key`](Self::key)
    /// produces) and returns `true`, or returns `false` for uniform
    /// timers without touching `key`. The intermediate buffers (`lens`,
    /// `token`, `tag`) are cleared and refilled; hot loops recycle all
    /// four from a [`crate::scratch::Scratch`] so keying a tile performs
    /// no allocation in steady state.
    pub(crate) fn key_into(
        self,
        tile: &TilePattern,
        lens: &mut Vec<usize>,
        token: &mut String,
        tag: &mut String,
        key: &mut String,
    ) -> bool {
        use eureka_sparse::canon::{canonical_lens_into, lens_token_into, RowOrder};
        use std::fmt::Write as _;
        tag.clear();
        let order = match self {
            TileTimer::Dense | TileTimer::TwoFour => return false,
            TileTimer::MaxRow => {
                tag.push_str("maxrow");
                RowOrder::Sorted
            }
            TileTimer::GreedySuds => {
                tag.push_str("greedy");
                RowOrder::Exact
            }
            TileTimer::OptimalSuds => {
                tag.push_str("optimal");
                RowOrder::Exact
            }
            TileTimer::MultiStepSuds(reach) => {
                let _ = write!(tag, "ms{reach}");
                RowOrder::Exact
            }
        };
        canonical_lens_into(tile, order, lens);
        lens_token_into(lens, token);
        TileKey::encode_into(tag, token, key);
        true
    }

    /// Times `tile` under this timer, packaged as the [`TileOutcome`]
    /// record the store persists. Pure: no RNG, no shared state.
    #[must_use]
    pub fn outcome(self, tile: &TilePattern) -> TileOutcome {
        let nnz = tile.nnz() as u64;
        match self {
            TileTimer::Dense => TileOutcome {
                cycles: tile.q() as u64,
                displaced: 0,
                base_row: None,
                nnz,
            },
            TileTimer::TwoFour => TileOutcome {
                cycles: (tile.q() as u64) / 2,
                displaced: 0,
                base_row: None,
                nnz,
            },
            TileTimer::MaxRow => TileOutcome {
                cycles: tile.critical_path().max(1) as u64,
                displaced: 0,
                base_row: None,
                nnz,
            },
            TileTimer::GreedySuds => {
                let plan = suds::greedy(&tile.row_lens());
                TileOutcome {
                    cycles: plan.k.max(1) as u64,
                    displaced: plan.displaced_count() as u64,
                    base_row: Some(plan.base_row),
                    nnz,
                }
            }
            TileTimer::OptimalSuds => {
                let plan = suds::optimize(&tile.row_lens());
                TileOutcome {
                    cycles: plan.k.max(1) as u64,
                    displaced: plan.displaced_count() as u64,
                    base_row: Some(plan.base_row),
                    nnz,
                }
            }
            TileTimer::MultiStepSuds(reach) => {
                let lens = tile.row_lens();
                let reach = reach.min(lens.len().saturating_sub(1));
                let k = suds::multistep::optimal_k(&lens, reach);
                // Displaced work: at least each row's overflow must move.
                let moved: usize = lens.iter().map(|&l| l.saturating_sub(k)).sum();
                TileOutcome {
                    cycles: k.max(1) as u64,
                    displaced: moved as u64,
                    base_row: None,
                    nnz,
                }
            }
        }
    }
}

/// Rows of the tiles the signature tables cover: the paper's 4×4
/// sub-arrays.
const SIGNATURE_ROWS: usize = 4;
/// Longest row the signature tables cover: compaction factor 4 on a
/// 4-wide sub-array.
const SIGNATURE_MAX_LEN: usize = 16;
/// One base-17 digit per row length: 17⁴ = 83,521 entries.
const SIGNATURE_ENTRIES: usize = (SIGNATURE_MAX_LEN + 1).pow(SIGNATURE_ROWS as u32);
/// Marks a filled table entry; an empty entry is all zeros.
const FILLED: u16 = 1 << 15;

/// Lazily filled outcome tables for the sampled timers at the paper
/// geometry, one per timer (paper §3.2: "the cases for small 4×4, 4×8
/// matrices can be enumerated exhaustively").
///
/// Every sampled timer's [`TileOutcome`] is a pure function of the
/// tile's row lengths, so a 4-row tile whose rows hold at most 16
/// non-zeros is timed once per signature and looked up after that. A
/// table is allocated (167 KB) only when its timer first runs at that
/// geometry; it lives with the [`crate::scratch::Scratch`] that holds
/// it, so a worker fills it once for every layer and job it simulates.
#[derive(Debug, Default)]
pub struct SignatureTables {
    tables: Vec<SignatureTable>,
}

impl SignatureTables {
    /// `timer`'s table for `p × q` tiles: `None` unless `timer` is a
    /// sampled one (max-row or a SUDS planner) and the geometry is the
    /// paper's (`p = 4`, `q ≤ 16`). Dense and 2:4 tiles take a uniform
    /// time, and other geometries overflow the signature.
    pub fn get(&mut self, timer: TileTimer, p: usize, q: usize) -> Option<&mut SignatureTable> {
        if matches!(timer, TileTimer::Dense | TileTimer::TwoFour)
            || p != SIGNATURE_ROWS
            || q > SIGNATURE_MAX_LEN
        {
            return None;
        }
        let i = match self.tables.iter().position(|t| t.timer == timer) {
            Some(i) => i,
            None => {
                self.tables.push(SignatureTable {
                    timer,
                    entries: vec![0; SIGNATURE_ENTRIES].into_boxed_slice(),
                });
                self.tables.len() - 1
            }
        };
        Some(&mut self.tables[i])
    }
}

/// One timer's outcome table over 4-row signatures (see
/// [`SignatureTables`]).
#[derive(Debug)]
pub struct SignatureTable {
    timer: TileTimer,
    /// Indexed by the row lengths as base-17 digits. A filled entry packs
    /// the cycles (bits 0–4), the displaced count (bits 5–11) and the
    /// base row plus one, or 0 for none (bits 12–14), under [`FILLED`].
    entries: Box<[u16]>,
}

impl SignatureTable {
    /// The outcome of a tile with row lengths `lens` under this table's
    /// timer. On a miss `direct` times the tile — it must return
    /// [`TileTimer::outcome`] of a tile with these row lengths — and the
    /// entry is filled from its result, unless a field overflows its
    /// bits. Row lengths beyond 16 always go to `direct`.
    pub fn outcome(
        &mut self,
        lens: [usize; SIGNATURE_ROWS],
        direct: impl FnOnce() -> TileOutcome,
    ) -> TileOutcome {
        if lens.iter().any(|&l| l > SIGNATURE_MAX_LEN) {
            return direct();
        }
        let index = lens
            .iter()
            .fold(0, |acc, &l| acc * (SIGNATURE_MAX_LEN + 1) + l);
        let nnz = lens.iter().sum::<usize>() as u64;
        let entry = self.entries[index];
        if entry & FILLED != 0 {
            let base = (entry >> 12) & 0x7;
            return TileOutcome {
                cycles: u64::from(entry & 0x1f),
                displaced: u64::from((entry >> 5) & 0x7f),
                base_row: (base != 0).then(|| usize::from(base) - 1),
                nnz,
            };
        }
        let o = direct();
        debug_assert_eq!(o.nnz, nnz, "direct timing of another signature");
        let base = o.base_row.map_or(0, |b| b as u64 + 1);
        if o.cycles < 1 << 5 && o.displaced < 1 << 7 && base < 1 << 3 {
            self.entries[index] = FILLED | (o.cycles | o.displaced << 5 | base << 12) as u16;
        }
        o
    }
}

/// Tile dispatch order on the systolic rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Arrival order, one tile per row per macro-step.
    Natural,
    /// Offline systolic scheduling (§3.3).
    Grouped,
}

/// A one-sided architecture instance.
#[derive(Clone, Debug)]
pub struct OneSided {
    name: String,
    factor: usize,
    timer: TileTimer,
    schedule: ScheduleMode,
}

impl OneSided {
    /// Builds a custom one-sided configuration.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        factor: usize,
        timer: TileTimer,
        schedule: ScheduleMode,
    ) -> Self {
        assert!(factor > 0, "compaction factor must be positive");
        OneSided {
            name: name.into(),
            factor,
            timer,
            schedule,
        }
    }

    /// Compaction factor `P`.
    #[must_use]
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// The tile timer this configuration simulates with — exposed so
    /// the congruence property suite can exercise every registry
    /// architecture's timer against the canonical store keys.
    #[must_use]
    pub fn timer(&self) -> TileTimer {
        self.timer
    }

    /// Per-value metadata bits for this configuration at tile width `q`.
    fn meta_bits(&self, q: usize) -> u32 {
        let col_bits = usize::BITS - (q - 1).leading_zeros();
        match self.timer {
            TileTimer::Dense => 0,
            TileTimer::TwoFour => 2,
            TileTimer::MaxRow => col_bits,
            // SUDS adds the displaced bit (§3.1).
            TileTimer::GreedySuds | TileTimer::OptimalSuds => col_bits + 1,
            // Reach-R displacement must encode the landing offset.
            TileTimer::MultiStepSuds(reach) => col_bits + (usize::BITS - reach.leading_zeros()),
        }
    }

    /// Streams `times` through this configuration's schedule into the
    /// macro-step timing model, reporting each step to `sink`.
    fn run_schedule<S: ProfileSink>(
        &self,
        times: &[u64],
        sys: &SystolicConfig,
        grouping: &mut GroupingBuffers,
        sink: &mut S,
    ) -> PipelineReport {
        match self.schedule {
            ScheduleMode::Natural => schedule_natural_with_sink(times, sys, sink),
            ScheduleMode::Grouped => schedule_grouped_with_sink(times, sys, grouping, sink),
        }
    }
}

/// Resolves sampled tiles from their row masks in the one order every
/// sampled timer follows: the timer's signature table when the geometry
/// has one; on a table miss, or with no table, the tile store when one
/// is attached, keyed with [`TileTimer::key_into`]; otherwise the timer
/// itself. A worker therefore keys each distinct signature at most once
/// per table. Every outcome is the same pure function of the row
/// lengths, so the order changes no result.
struct Resolver<'s> {
    timer: TileTimer,
    q: usize,
    tiles: &'s TileBroker,
    table: Option<&'s mut SignatureTable>,
    tile: &'s mut TilePattern,
    lens: &'s mut Vec<usize>,
    token: &'s mut String,
    tag: &'s mut String,
    key: &'s mut String,
    /// Tiles the table served, to count as store hits in
    /// [`Resolver::finish`].
    table_hits: u64,
}

impl<'s> Resolver<'s> {
    /// Splits `scratch` into a resolver for `timer` on `p × q` tiles and
    /// the buffers it leaves free: the row masks, the time stream and the
    /// grouping working set.
    fn split(
        scratch: &'s mut Scratch,
        timer: TileTimer,
        p: usize,
        q: usize,
        tiles: &'s TileBroker,
    ) -> (
        Self,
        &'s mut Vec<u64>,
        &'s mut Vec<u64>,
        &'s mut GroupingBuffers,
    ) {
        let Scratch {
            masks,
            tile,
            lens,
            token,
            key,
            tag,
            times,
            tables,
            grouping,
        } = scratch;
        let resolver = Resolver {
            timer,
            q,
            tiles,
            table: tables.get(timer, p, q),
            tile,
            lens,
            token,
            tag,
            key,
            table_hits: 0,
        };
        (resolver, masks, times, grouping)
    }

    /// The outcome of the tile whose rows are `masks`.
    fn outcome(&mut self, masks: &[u64]) -> TileOutcome {
        let Resolver {
            timer,
            q,
            tiles,
            table,
            tile,
            lens,
            token,
            tag,
            key,
            table_hits,
        } = self;
        let mut untabled = || {
            tile.reset_from_rows(masks, *q)
                .expect("q validated by caller");
            let keyed = tiles.is_enabled() && timer.key_into(tile, lens, token, tag, key);
            tiles.resolve_str(keyed.then_some(key.as_str()), || timer.outcome(tile))
        };
        let Some(table) = table.as_deref_mut() else {
            return untabled();
        };
        let signature = std::array::from_fn(|r| masks[r].count_ones() as usize);
        let mut missed = false;
        let o = table.outcome(signature, || {
            missed = true;
            untabled()
        });
        if !missed {
            *table_hits += 1;
        }
        o
    }

    /// Counts the table's hits as store lookups and hits, once per
    /// layer: a table entry is filled only through a store lookup of
    /// its key, so with a store attached each table hit stands for a
    /// store hit.
    fn finish(self) {
        self.tiles.count_hits(self.table_hits);
    }
}

/// What the sampled-pipeline branch hands back to the report assembly:
/// the pipeline's row-cycle totals (always, for `bubble_cycles`) and the
/// full attribution detail (profiled runs only).
#[derive(Default)]
struct SampledPipe {
    busy_rc: u64,
    idle_rc: u64,
    sink: Option<StepProfile>,
    tiles: Vec<TileStat>,
    suds: Option<SudsStats>,
}

/// `value * num / den` in u128, floored; 0 when `den == 0`.
fn scale(value: u64, num: u64, den: u64) -> u64 {
    if den == 0 {
        return 0;
    }
    (u128::from(value) * u128::from(num) / u128::from(den)) as u64
}

impl OneSided {
    /// The shared simulation body. `prof` is `None` on the plain path
    /// (no attribution work at all) and `Some` on the profiled path; the
    /// two paths draw identical RNG sequences and produce bit-identical
    /// [`LayerReport`]s — profiling only *additionally* records values
    /// the simulation already computed.
    #[allow(clippy::too_many_lines)] // one straight-line timing model
    fn simulate_layer_impl(
        &self,
        gemm: &LayerGemm,
        ctx: &LayerCtx,
        cfg: &SimConfig,
        prof: Option<&ProfileConfig>,
    ) -> Result<(LayerReport, Option<LayerProfile>), SimError> {
        let p = cfg.core.sub_array_dim;
        let q = p * self.factor;
        assert!(q <= 64, "tile width {q} exceeds the 64-bit row masks");
        let (n, k, m) = (gemm.shape.n, gemm.shape.k, gemm.shape.m);
        let stages = cfg.core.grid_cols;
        let rows = cfg.core.grid_rows;
        let rowgroups = n.div_ceil(p) as u64;
        let slices = k.div_ceil(q) as u64;
        let colgroups = m.div_ceil(p) as u64;
        let passes = colgroups.div_ceil(stages as u64);
        let total_tiles = rowgroups * slices;

        let uniform_time = match self.timer {
            TileTimer::Dense => Some(q as u64),
            TileTimer::TwoFour => Some((q as u64 / 2).max(1)),
            _ => None,
        };

        let mut sampled = SampledPipe::default();
        let (mean_t, mean_nnz, mean_displaced, utilization) = if let Some(t) = uniform_time {
            // Uniform latency: no load imbalance, no bubbles (§2.3.1).
            let nnz_per_tile = match self.timer {
                TileTimer::Dense => (p * q) as f64,
                _ => (p * q) as f64 / 2.0,
            };
            (t as f64, nnz_per_tile, 0.0, 1.0)
        } else {
            let profiling = prof.is_some();
            if profiling && matches!(self.timer, TileTimer::GreedySuds | TileTimer::OptimalSuds) {
                sampled.suds = Some(SudsStats {
                    tiles: 0,
                    displaced: 0,
                    rotation: vec![0; p],
                });
            }
            let mut rng = ctx.rng.fork(0x0001_51DE);
            let n_rg = (cfg.rowgroup_samples as u64).min(rowgroups).max(1);
            let n_sl = (cfg.slice_samples as u64).min(slices).max(1);
            // Check one scratch set out for the whole layer: the tile,
            // its key strings and the time stream all recycle buffers
            // across samples (and across layers, via the pool). The tile
            // is always *sampled* (identical RNG draws however it is
            // resolved); only its timing is looked up.
            let mut scratch = ctx.scratch.acquire();
            let (mut resolver, masks, times, grouping) =
                Resolver::split(&mut scratch, self.timer, p, q, &ctx.tiles);
            times.clear();
            times.reserve((n_rg * n_sl) as usize);
            let (mut sum_t, mut sum_nnz, mut sum_disp) = (0f64, 0f64, 0f64);
            for i in 0..n_rg {
                let rg = i * rowgroups / n_rg;
                let rows_live = p.min(n - (rg as usize) * p);
                for j in 0..n_sl {
                    let si = j * slices / n_sl;
                    let cols_live = q.min(k - (si as usize) * q);
                    let d = tile_density(gemm, &mut rng);
                    super::sample_masks_into(
                        masks,
                        p,
                        q,
                        rows_live,
                        cols_live,
                        d,
                        cfg.row_density_sigma,
                        &mut rng,
                    );
                    // The signature table first, then the tile store
                    // when one is attached, then the timer itself (see
                    // `Resolver`): a store hit or a table hit is
                    // bit-identical to the timing it skips.
                    let o = resolver.outcome(masks);
                    let (t, disp, base_row) = (o.cycles, o.displaced, o.base_row);
                    times.push(t);
                    sum_t += t as f64;
                    sum_nnz += o.nnz as f64;
                    sum_disp += disp as f64;
                    if profiling {
                        sampled.tiles.push(TileStat {
                            index: (times.len() - 1) as u64,
                            cycles: t,
                            nnz: o.nnz,
                            displaced: disp,
                        });
                        if let (Some(su), Some(base)) = (sampled.suds.as_mut(), base_row) {
                            su.tiles += 1;
                            su.displaced += disp;
                            // The crossbar rotation that lands the base
                            // row on the last physical row.
                            su.rotation[p - 1 - base.min(p - 1)] += 1;
                        }
                    }
                }
            }
            resolver.finish();
            let count = times.len() as f64;
            let sys = SystolicConfig {
                rows,
                stages,
                window: cfg.core.window,
            };
            let pipe = if profiling {
                let mut sink = StepProfile::new(sys.rows);
                let pipe = self.run_schedule(times, &sys, grouping, &mut sink);
                sampled.sink = Some(sink);
                pipe
            } else {
                self.run_schedule(times, &sys, grouping, &mut NullSink)
            };
            sampled.busy_rc = pipe.busy_cycles;
            sampled.idle_rc = pipe.bubble_cycles;
            (
                sum_t / count,
                sum_nnz / count,
                sum_disp / count,
                pipe.row_utilization(),
            )
        };

        let busy_row_cycles = mean_t * total_tiles as f64 * passes as f64;
        let parallel_rows = (cfg.tensor_cores * rows) as f64;
        let compute_cycles = (busy_row_cycles / utilization / parallel_rows).ceil() as u64;
        let compute_cycles = compute_cycles.max(1);

        // Useful multiplies: every stored non-zero weight meets every one
        // of the m activation columns (2:4 stores exactly half the values).
        let nnz_total = match self.timer {
            TileTimer::Dense => (n * k) as f64,
            TileTimer::TwoFour => (n * k) as f64 / 2.0,
            _ => mean_nnz * total_tiles as f64,
        };
        let mac_ops = (nnz_total * m as f64) as u64;
        let csa_ops = (mean_displaced * total_tiles as f64 * m as f64) as u64;
        // Operand-mux selections, bucketed by fan-in: 2:4 and compaction
        // use a q-to-1 mux per multiply; SUDS additionally toggles the two
        // 2-1 adder-input muxes on every displaced fold.
        let mut mux_by_width = [0u64; 3]; // 4-1, 8-1, 16-1
        if !matches!(self.timer, TileTimer::Dense) {
            let bucket = match q {
                0..=4 => 0,
                5..=8 => 1,
                _ => 2,
            };
            mux_by_width[bucket] = mac_ops;
        }
        let mux2_ops = if matches!(
            self.timer,
            TileTimer::GreedySuds | TileTimer::OptimalSuds | TileTimer::MultiStepSuds(_)
        ) {
            2 * csa_ops
        } else {
            0
        };

        let device_macs = cfg.total_macs() as u64;
        let idle_mac_cycles = (compute_cycles * device_macs).saturating_sub(mac_ops);

        let meta_bits = u64::from(self.meta_bits(q));
        let rotation_bits = if matches!(
            self.timer,
            TileTimer::GreedySuds | TileTimer::OptimalSuds | TileTimer::MultiStepSuds(_)
        ) {
            (usize::BITS - (p - 1).leading_zeros()) as u64
        } else {
            0
        };
        let weight_bytes = (nnz_total * 2.0) as u64;
        let metadata_bytes =
            ((nnz_total * meta_bits as f64) / 8.0) as u64 + total_tiles * rotation_bits / 8;

        // Device cycles lost to pipeline idle row-cycles of any kind,
        // scaled exactly from the sampled stream (0 for uniform timers,
        // whose pipeline never bubbles).
        let observed_rc = sampled.busy_rc + sampled.idle_rc;
        let bubble_cycles = scale(compute_cycles, sampled.idle_rc, observed_rc);

        let mut report = LayerReport {
            name: gemm.name.clone(),
            compute_cycles,
            mem_cycles: 0,
            mac_ops,
            idle_mac_cycles,
            bubble_cycles,
            weight_bytes,
            act_bytes: gemm.unique_act_bytes,
            out_bytes: (2 * n * m) as u64,
            metadata_bytes,
            ops: OpCounts {
                mux2: mux2_ops,
                mux4: mux_by_width[0],
                mux8: mux_by_width[1],
                mux16: mux_by_width[2],
                csa: csa_ops,
                ..OpCounts::default()
            },
        };
        report.mem_cycles = memory::exposed_cycles(&report, &cfg.mem);

        let profile = prof.map(|pcfg| self.build_profile(&report, &sampled, device_macs, pcfg));
        Ok((report, profile))
    }

    /// Assembles the [`LayerProfile`] from the finished report and the
    /// sampled pipeline detail. Pure arithmetic on already-computed
    /// values; every derived bucket is constructed to reconcile exactly
    /// (stalls sum to the report's total cycles, idle-MAC buckets sum to
    /// the report's `idle_mac_cycles`).
    fn build_profile(
        &self,
        report: &LayerReport,
        sampled: &SampledPipe,
        device_macs: u64,
        pcfg: &ProfileConfig,
    ) -> LayerProfile {
        let Some(sink) = &sampled.sink else {
            // Uniform-latency timers have no sampled pipeline: all
            // compute is compute-bound.
            return LayerProfile::from_report(report);
        };
        let observed_rc = sampled.busy_rc + sampled.idle_rc;
        // True macro-step bubbles scale separately from whole-row drain;
        // the remainder assignment keeps the pair exactly equal to the
        // report's bubble_cycles scalar.
        let pipeline_bubble = scale(report.compute_cycles, sink.bubble_cycles(), observed_rc);
        let tail_drain = report.bubble_cycles.saturating_sub(pipeline_bubble);
        let compute = report.compute_cycles - report.bubble_cycles;

        let idle_total = report.idle_mac_cycles;
        let bubble_macs = pipeline_bubble.saturating_mul(device_macs).min(idle_total);
        let drain_macs = tail_drain
            .saturating_mul(device_macs)
            .min(idle_total - bubble_macs);
        let slack = idle_total - bubble_macs - drain_macs;

        let rows = (0..sink.rows())
            .map(|r| RowOccupancy {
                busy: sink.row_busy()[r],
                bubble: sink.row_bubble()[r],
                drain: sink.row_drain()[r],
            })
            .collect();

        let mut histogram: BTreeMap<u64, u64> = BTreeMap::new();
        for t in &sampled.tiles {
            *histogram.entry(t.cycles).or_insert(0) += 1;
        }
        let mut worst = sampled.tiles.clone();
        worst.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.index.cmp(&b.index)));
        worst.truncate(pcfg.top_tiles);

        LayerProfile {
            name: report.name.clone(),
            compute_cycles: report.compute_cycles,
            mem_cycles: report.mem_cycles,
            stalls: StallBreakdown {
                compute,
                memory: report.mem_cycles,
                pipeline_bubble,
                tail_drain,
            },
            macs: MacBreakdown {
                busy: report.mac_ops,
                bubble: bubble_macs,
                drain: drain_macs,
                slack,
            },
            rows,
            critical_path: histogram.into_iter().collect(),
            suds: sampled.suds.clone(),
            worst_tiles: worst,
        }
    }
}

impl Architecture for OneSided {
    fn name(&self) -> &str {
        &self.name
    }

    fn simulate_layer(
        &self,
        gemm: &LayerGemm,
        ctx: &LayerCtx,
        cfg: &SimConfig,
    ) -> Result<LayerReport, SimError> {
        self.simulate_layer_impl(gemm, ctx, cfg, None)
            .map(|(report, _)| report)
    }

    fn simulate_layer_profiled(
        &self,
        gemm: &LayerGemm,
        ctx: &LayerCtx,
        cfg: &SimConfig,
        profile: &ProfileConfig,
    ) -> Result<(LayerReport, LayerProfile), SimError> {
        self.simulate_layer_impl(gemm, ctx, cfg, Some(profile))
            .map(|(report, prof)| {
                let prof = prof.unwrap_or_else(|| LayerProfile::from_report(&report));
                (report, prof)
            })
    }
}

/// The dense tensor-core baseline.
#[must_use]
pub fn dense() -> OneSided {
    OneSided::new("Dense", 1, TileTimer::Dense, ScheduleMode::Natural)
}

/// Ampere's 2:4 structured-sparse tensor core (covers STC as well).
#[must_use]
pub fn ampere() -> OneSided {
    OneSided::new("Ampere/STC", 1, TileTimer::TwoFour, ScheduleMode::Natural)
}

/// Cnvlutin-like: compaction factor 4, no load balancing, no systolic
/// scheduling (§5.1).
#[must_use]
pub fn cnvlutin_like() -> OneSided {
    OneSided::new("Cnvlutin-like", 4, TileTimer::MaxRow, ScheduleMode::Natural)
}

/// Full Eureka at compaction factor 2.
#[must_use]
pub fn eureka_p2() -> OneSided {
    OneSided::new(
        "Eureka P=2",
        2,
        TileTimer::OptimalSuds,
        ScheduleMode::Grouped,
    )
}

/// Full Eureka at compaction factor 4 (the headline configuration).
#[must_use]
pub fn eureka_p4() -> OneSided {
    OneSided::new(
        "Eureka P=4",
        4,
        TileTimer::OptimalSuds,
        ScheduleMode::Grouped,
    )
}

/// Figure 12: unoptimized Eureka — no compaction, no SUDS, no scheduling.
#[must_use]
pub fn eureka_unopt() -> OneSided {
    OneSided::new("Eureka-unopt", 1, TileTimer::MaxRow, ScheduleMode::Natural)
}

/// Figure 12: compaction only, at the given factor.
#[must_use]
pub fn compaction_only(factor: usize) -> OneSided {
    OneSided::new(
        format!("Compaction P={factor}"),
        factor,
        TileTimer::MaxRow,
        ScheduleMode::Natural,
    )
}

/// Figure 12: greedy SUDS on top of factor-4 compaction (no scheduling).
#[must_use]
pub fn greedy_suds_p4() -> OneSided {
    OneSided::new(
        "Greedy SUDS",
        4,
        TileTimer::GreedySuds,
        ScheduleMode::Natural,
    )
}

/// Figure 12: optimal SUDS on top of factor-4 compaction (no scheduling).
#[must_use]
pub fn optimal_suds_p4() -> OneSided {
    OneSided::new(
        "Optimal SUDS",
        4,
        TileTimer::OptimalSuds,
        ScheduleMode::Natural,
    )
}

/// Figure 12: full Eureka minus SUDS (compaction + systolic scheduling).
#[must_use]
pub fn eureka_no_suds_p4() -> OneSided {
    OneSided::new(
        "Eureka-no-SUDS",
        4,
        TileTimer::MaxRow,
        ScheduleMode::Grouped,
    )
}

/// Exact (non-sampled) compute cycles for one layer: materializes a full
/// synthetic weight pattern from the same distribution the statistical
/// engine samples, times *every* tile, and runs the real scheduler over
/// the complete stream. `O(tiles)` — used to validate the sampling
/// methodology (see the `sampling_matches_exact_enumeration` test) and
/// for small layers where exactness is cheap. Tiles resolve through the
/// same scratch, signature tables and schedule buffers as the sampled
/// engine.
#[must_use]
pub fn exact_layer_compute_cycles(
    arch: &OneSided,
    gemm: &LayerGemm,
    ctx: &LayerCtx,
    cfg: &SimConfig,
) -> u64 {
    let p = cfg.core.sub_array_dim;
    let q = p * arch.factor();
    let (n, k, m) = (gemm.shape.n, gemm.shape.k, gemm.shape.m);
    let stages = cfg.core.grid_cols;
    let rows = cfg.core.grid_rows;
    let mut rng = ctx.rng.fork(0x000E_5AC7);

    // Materialize the full pattern: per-tile cluster density, per-row
    // log-normal heterogeneity — the sampling engine's distribution.
    let rowgroups = n.div_ceil(p);
    let slices = k.div_ceil(q);
    let mut scratch = ctx.scratch.acquire();
    let (mut resolver, masks, times, grouping) =
        Resolver::split(&mut scratch, arch.timer, p, q, &ctx.tiles);
    times.clear();
    times.reserve(rowgroups * slices);
    let mut busy = 0u64;
    for rg in 0..rowgroups {
        let rows_live = p.min(n - rg * p);
        for si in 0..slices {
            let cols_live = q.min(k - si * q);
            let d = tile_density(gemm, &mut rng);
            super::sample_masks_into(
                masks,
                p,
                q,
                rows_live,
                cols_live,
                d,
                cfg.row_density_sigma,
                &mut rng,
            );
            let t = resolver.outcome(masks).cycles;
            times.push(t);
            busy += t;
        }
    }
    resolver.finish();
    let sys = SystolicConfig {
        rows,
        stages,
        window: cfg.core.window,
    };
    let pipe = arch.run_schedule(times, &sys, grouping, &mut NullSink);
    let colgroups = m.div_ceil(p) as u64;
    let passes = colgroups.div_ceil(stages as u64);
    let busy_row_cycles = busy as f64 * passes as f64;
    let parallel_rows = (cfg.tensor_cores * rows) as f64;
    ((busy_row_cycles / pipe.row_utilization() / parallel_rows).ceil() as u64).max(1)
}

/// Ablation: Eureka with hypothetical reach-`reach` displacement (the
/// `ablations` experiment quantifying the paper's single-step choice).
///
/// # Panics
///
/// Panics if `reach` is zero (use [`eureka_no_suds_p4`] for no
/// displacement).
#[must_use]
pub fn eureka_multistep(reach: usize) -> OneSided {
    assert!(reach > 0, "reach must be positive");
    OneSided::new(
        format!("Eureka reach-{reach}"),
        4,
        TileTimer::MultiStepSuds(reach),
        ScheduleMode::Grouped,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eureka_models::GemmShape;
    use eureka_sparse::rng::DetRng;

    fn ctx() -> LayerCtx {
        LayerCtx {
            act_density: 0.5,
            s2ta_act_density: Some(0.44),
            s2ta_fil_density: Some(0.38),
            rng: DetRng::new(42),
            tiles: Default::default(),
            scratch: Default::default(),
        }
    }

    fn gemm(n: usize, k: usize, m: usize, d: f64) -> LayerGemm {
        LayerGemm {
            name: "test".into(),
            shape: GemmShape { n, k, m },
            unique_act_bytes: 1 << 20,
            weight_density: d,
            clustered: false,
            depthwise: false,
        }
    }

    #[test]
    fn dense_matches_analytic() {
        let cfg = SimConfig::fast();
        let g = gemm(256, 2304, 6272, 1.0);
        let r = dense().simulate_layer(&g, &ctx(), &cfg).unwrap();
        let expect = g.shape.macs() / cfg.total_macs() as u64;
        let got = r.compute_cycles;
        assert!(
            (got as f64 - expect as f64).abs() / (expect as f64) < 0.02,
            "got {got} expect {expect}"
        );
        assert_eq!(r.mac_ops, g.shape.macs());
        assert_eq!(r.ops.mux_total(), 0);
    }

    #[test]
    fn ampere_is_twice_dense() {
        let cfg = SimConfig::fast();
        let g = gemm(256, 2304, 6272, 0.13);
        let d = dense().simulate_layer(&g, &ctx(), &cfg).unwrap();
        let a = ampere().simulate_layer(&g, &ctx(), &cfg).unwrap();
        let speedup = d.compute_cycles as f64 / a.compute_cycles as f64;
        assert!((speedup - 2.0).abs() < 0.05, "speedup {speedup}");
        assert_eq!(a.mac_ops, d.mac_ops / 2);
    }

    #[test]
    fn eureka_beats_cnvlutin_beats_ampere() {
        let cfg = SimConfig::fast();
        let g = gemm(256, 2304, 6272, 0.13);
        let c = ctx();
        let amp = ampere().simulate_layer(&g, &c, &cfg).unwrap();
        let cnv = cnvlutin_like().simulate_layer(&g, &c, &cfg).unwrap();
        let eur = eureka_p4().simulate_layer(&g, &c, &cfg).unwrap();
        assert!(cnv.compute_cycles < amp.compute_cycles);
        assert!(eur.compute_cycles < cnv.compute_cycles);
        // Eureka cannot exceed the one-sided bound 1/density.
        let dense_r = dense().simulate_layer(&g, &c, &cfg).unwrap();
        let speedup = dense_r.compute_cycles as f64 / eur.compute_cycles as f64;
        assert!(speedup < 1.0 / 0.13 + 0.5, "speedup {speedup}");
        assert!(speedup > 4.0, "speedup {speedup}");
    }

    #[test]
    fn p4_beats_p2() {
        let cfg = SimConfig::fast();
        let g = gemm(512, 4608, 1568, 0.13);
        let c = ctx();
        let p2 = eureka_p2().simulate_layer(&g, &c, &cfg).unwrap();
        let p4 = eureka_p4().simulate_layer(&g, &c, &cfg).unwrap();
        assert!(p4.compute_cycles <= p2.compute_cycles);
    }

    #[test]
    fn figure12_ordering() {
        // Progressive techniques must not regress: unopt >= compaction >=
        // greedy >= optimal >= full Eureka cycles.
        let cfg = SimConfig::fast();
        let g = gemm(256, 2304, 6272, 0.13);
        let c = ctx();
        let steps = [
            eureka_unopt().simulate_layer(&g, &c, &cfg).unwrap(),
            compaction_only(4).simulate_layer(&g, &c, &cfg).unwrap(),
            greedy_suds_p4().simulate_layer(&g, &c, &cfg).unwrap(),
            optimal_suds_p4().simulate_layer(&g, &c, &cfg).unwrap(),
            eureka_p4().simulate_layer(&g, &c, &cfg).unwrap(),
        ];
        for w in steps.windows(2) {
            assert!(
                w[1].compute_cycles <= w[0].compute_cycles + w[0].compute_cycles / 50,
                "{} ({}) should not regress to {} ({})",
                w[0].name,
                w[0].compute_cycles,
                w[1].name,
                w[1].compute_cycles
            );
        }
    }

    #[test]
    fn suds_counts_displaced_csa_ops() {
        let cfg = SimConfig::fast();
        let g = gemm(256, 2304, 6272, 0.13);
        let e = eureka_p4().simulate_layer(&g, &ctx(), &cfg).unwrap();
        assert!(e.ops.csa > 0, "SUDS should displace something");
        assert!(e.ops.csa < e.mac_ops);
        assert_eq!(e.ops.mux16, e.mac_ops);
        let c = compaction_only(4).simulate_layer(&g, &ctx(), &cfg).unwrap();
        assert_eq!(c.ops.csa, 0);
    }

    #[test]
    fn metadata_scales_with_factor() {
        let cfg = SimConfig::fast();
        let g = gemm(256, 2304, 6272, 0.13);
        let p2 = eureka_p2().simulate_layer(&g, &ctx(), &cfg).unwrap();
        let p4 = eureka_p4().simulate_layer(&g, &ctx(), &cfg).unwrap();
        // P=4 uses 4+1 bits/value vs P=2's 3+1.
        assert!(p4.metadata_bytes > p2.metadata_bytes);
        let d = dense().simulate_layer(&g, &ctx(), &cfg).unwrap();
        assert_eq!(d.metadata_bytes, 0);
    }

    #[test]
    fn depthwise_tiny_reduction_works() {
        let cfg = SimConfig::fast();
        let g = LayerGemm {
            name: "dw".into(),
            shape: GemmShape {
                n: 512,
                k: 9,
                m: 6272,
            },
            unique_act_bytes: 1 << 20,
            weight_density: 0.9,
            clustered: false,
            depthwise: true,
        };
        let r = eureka_p4().simulate_layer(&g, &ctx(), &cfg).unwrap();
        assert!(r.compute_cycles > 0);
        assert!(r.mac_ops > 0);
    }

    #[test]
    fn sampling_matches_exact_enumeration() {
        // The statistical engine's estimate must track a full enumeration
        // of the same distribution within a few percent.
        let cfg = SimConfig::paper_default();
        let g = gemm(512, 2304, 6272, 0.13);
        let c = ctx();
        for a in [eureka_p4(), cnvlutin_like(), eureka_p2()] {
            let sampled = a.simulate_layer(&g, &c, &cfg).unwrap().compute_cycles;
            let exact = exact_layer_compute_cycles(&a, &g, &c, &cfg);
            let ratio = sampled as f64 / exact as f64;
            assert!(
                (0.93..1.07).contains(&ratio),
                "{}: sampled {sampled} vs exact {exact} (ratio {ratio})",
                a.name()
            );
        }
    }

    /// A 4 × 16 tile whose rows hold `lens` left-aligned non-zeros.
    fn tile_of(lens: [usize; 4]) -> TilePattern {
        let rows = lens.map(|l| (1u64 << l) - 1);
        TilePattern::from_rows(&rows, 16).unwrap()
    }

    #[test]
    fn signature_tables_match_the_direct_timer_exhaustively() {
        let mut tables = SignatureTables::default();
        for timer in [
            TileTimer::OptimalSuds,
            TileTimer::GreedySuds,
            TileTimer::MultiStepSuds(2),
            TileTimer::MaxRow,
        ] {
            let table = tables.get(timer, 4, 16).expect("paper geometry");
            let signatures = || {
                let base = SIGNATURE_MAX_LEN + 1;
                (0..SIGNATURE_ENTRIES).map(move |i| [3, 2, 1, 0].map(|e| i / base.pow(e) % base))
            };
            for lens in signatures() {
                table.outcome(lens, || timer.outcome(&tile_of(lens)));
            }
            // Every outcome fits the 16-bit entry layout.
            let filled = table.entries.iter().filter(|&&e| e & FILLED != 0).count();
            assert_eq!(filled, SIGNATURE_ENTRIES, "{timer:?}");
            // Second pass: every signature hits, and unpacks exactly.
            for lens in signatures() {
                let got = table.outcome(lens, || panic!("{timer:?} {lens:?} missed"));
                assert_eq!(got, timer.outcome(&tile_of(lens)), "{timer:?} {lens:?}");
            }
        }
        // Uniform timers and other geometries time directly.
        assert!(tables.get(TileTimer::Dense, 4, 4).is_none());
        assert!(tables.get(TileTimer::TwoFour, 4, 4).is_none());
        assert!(tables.get(TileTimer::OptimalSuds, 8, 32).is_none());
        assert!(tables.get(TileTimer::OptimalSuds, 4, 32).is_none());
    }

    #[test]
    fn a_shared_scratch_leaks_nothing_across_timers_and_geometries() {
        use crate::config::TensorCoreConfig;
        let paper = SimConfig::fast();
        let plain8 = paper.with_core(TensorCoreConfig::plain(8));
        let wide = OneSided::new("P=8", 8, TileTimer::OptimalSuds, ScheduleMode::Grouped);
        let g = gemm(256, 2304, 6272, 0.13);
        let runs = [
            (eureka_p2(), paper),
            (eureka_p4(), paper),
            (eureka_p4(), plain8),
            (greedy_suds_p4(), paper),
            (eureka_multistep(2), paper),
            (wide, paper),
            (eureka_p2(), paper),
            (eureka_p4(), paper),
        ];
        let shared = ctx();
        for (arch, cfg) in &runs {
            let reused = arch.simulate_layer(&g, &shared, cfg).unwrap();
            let fresh = arch.simulate_layer(&g, &ctx(), cfg).unwrap();
            assert_eq!(
                reused,
                fresh,
                "{} at p={}",
                arch.name(),
                cfg.core.sub_array_dim
            );
            let pcfg = ProfileConfig::default();
            let reused = arch.simulate_layer_profiled(&g, &shared, cfg, &pcfg);
            let fresh = arch.simulate_layer_profiled(&g, &ctx(), cfg, &pcfg);
            assert_eq!(reused.unwrap(), fresh.unwrap(), "{} profiled", arch.name());
        }
    }

    #[test]
    fn clustered_sparsity_hurts_utilization() {
        // At equal density, clustered filters give longer worst-case rows,
        // but SUDS+scheduling should keep Eureka's penalty small.
        let cfg = SimConfig::fast();
        let mut g = gemm(768, 3072, 12288, 0.10);
        let c = ctx();
        let uni = eureka_p4().simulate_layer(&g, &c, &cfg).unwrap();
        g.clustered = true;
        let clu = eureka_p4().simulate_layer(&g, &c, &cfg).unwrap();
        // Clustered can be modestly slower but within 2x.
        assert!(clu.compute_cycles < uni.compute_cycles * 2);
    }
}
