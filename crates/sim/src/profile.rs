//! Cycle-attribution profiles: where a simulated workload's cycles go.
//!
//! Profiling is opt-in ([`ProfileConfig`] passed to
//! [`crate::Runner::run_profiled`]) and
//! observational: a profiled run produces bit-identical [`crate::report`]
//! results to an unprofiled one, because the profiled code paths consume
//! the same RNG streams and the same intermediate values — the profile is
//! assembled from numbers the simulation already computed.
//!
//! # Stall taxonomy
//!
//! Every cycle of [`LayerProfile::total_cycles`] lands in exactly one
//! bucket of [`StallBreakdown`]:
//!
//! * **compute** — MAC rows were doing useful work;
//! * **pipeline_bubble** — a systolic row idled behind a longer row in
//!   its macro-step (Figure 10(a)); the fix is better scheduling or SUDS;
//! * **tail_drain** — rows with no resident work: unfilled scheduler
//!   rows plus pipeline fill/drain; the fix is more tiles in flight;
//! * **memory** — exposed (non-overlapped) DRAM cycles; the fix is
//!   bandwidth or residency.
//!
//! The device-cycle split is derived from the sampled pipeline's
//! row-cycle attribution ([`eureka_core::schedule::profile::StepProfile`])
//! by exact integer scaling, so `compute + pipeline_bubble + tail_drain
//! == compute_cycles` and the workload-level invariant
//! `SimProfile::total_attributed_cycles() == SimReport::total_cycles()`
//! holds identically — tested, not approximated.

use crate::report::LayerReport;
use eureka_obs::chrome::TraceBuilder;
use eureka_obs::json::escape;

/// Opt-in switches for a profiled run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfileConfig {
    /// How many worst (longest critical path) tiles to keep per layer.
    pub top_tiles: usize,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig { top_tiles: 5 }
    }
}

/// Where one layer's device cycles went. Buckets are disjoint and
/// exhaustive: they sum to the layer's total cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles with useful MAC work resident.
    pub compute: u64,
    /// Exposed memory cycles.
    pub memory: u64,
    /// Cycles lost to macro-step mismatch between systolic rows.
    pub pipeline_bubble: u64,
    /// Cycles where rows had no work at all (unfilled rows, fill/drain).
    pub tail_drain: u64,
}

impl StallBreakdown {
    /// Sum of all buckets — the layer's total cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.compute + self.memory + self.pipeline_bubble + self.tail_drain
    }
}

/// Idle-MAC attribution. `busy` counts useful multiplies; the three idle
/// buckets sum exactly to the layer report's `idle_mac_cycles`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MacBreakdown {
    /// Useful multiplies (the report's `mac_ops`).
    pub busy: u64,
    /// MAC-cycles idled by pipeline bubbles (whole rows waiting).
    pub bubble: u64,
    /// MAC-cycles idled by empty rows and pipeline fill/drain.
    pub drain: u64,
    /// Residual slack: lanes idle within otherwise-busy cycles
    /// (imperfect compaction, ceil rounding).
    pub slack: u64,
}

impl MacBreakdown {
    /// Total idle MAC-cycles — must equal the report's `idle_mac_cycles`.
    #[must_use]
    pub fn idle(&self) -> u64 {
        self.bubble + self.drain + self.slack
    }
}

/// Sampled occupancy of one systolic row, in row-cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowOccupancy {
    /// Row-cycles executing resident work.
    pub busy: u64,
    /// Row-cycles idle behind a longer row in the same macro-step.
    pub bubble: u64,
    /// Row-cycles with no work scheduled.
    pub drain: u64,
}

impl RowOccupancy {
    /// Total observed row-cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.busy + self.bubble + self.drain
    }

    /// Busy fraction (1.0 when nothing was observed).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 1.0;
        }
        self.busy as f64 / t as f64
    }
}

/// One sampled tile, kept for the worst-tiles ranking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TileStat {
    /// Sample index (stable: sampling order is deterministic).
    pub index: u64,
    /// The tile's critical path in cycles.
    pub cycles: u64,
    /// Non-zeros in the tile.
    pub nnz: u64,
    /// Values SUDS displaced out of their home row.
    pub displaced: u64,
}

/// SUDS displacement statistics over the sampled tiles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SudsStats {
    /// Tiles sampled through the SUDS assignment.
    pub tiles: u64,
    /// Total displaced values across sampled tiles.
    pub displaced: u64,
    /// Base-row rotation histogram: `rotation[i]` counts tiles whose
    /// crossbar rotation is `i` (the rotation that lands the plan's base
    /// row on the last physical row).
    pub rotation: Vec<u64>,
}

/// Cycle attribution for one simulated layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerProfile {
    /// Layer name (matches the [`LayerReport`]).
    pub name: String,
    /// Device compute cycles (copied from the report).
    pub compute_cycles: u64,
    /// Exposed memory cycles (copied from the report).
    pub mem_cycles: u64,
    /// Stall taxonomy; sums to `compute_cycles + mem_cycles`.
    pub stalls: StallBreakdown,
    /// Idle-MAC attribution; `macs.idle()` equals the report's
    /// `idle_mac_cycles`.
    pub macs: MacBreakdown,
    /// Per-systolic-row sampled occupancy (empty when the architecture
    /// has no sampled pipeline — uniform timers, non-systolic models).
    pub rows: Vec<RowOccupancy>,
    /// Critical-path histogram over sampled tiles: sorted
    /// `(cycles, tile_count)` pairs.
    pub critical_path: Vec<(u64, u64)>,
    /// SUDS displacement statistics (`None` when the architecture does
    /// not displace).
    pub suds: Option<SudsStats>,
    /// The top-N longest sampled tiles, worst first.
    pub worst_tiles: Vec<TileStat>,
}

impl LayerProfile {
    /// Total cycles attributed to this layer; equals the matching
    /// [`LayerReport::total_cycles`].
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.stalls.total()
    }

    /// The trivial profile for a report with no pipeline detail: the
    /// report's aggregate `bubble_cycles` (pipeline mismatch plus empty
    /// rows, unsplittable without row-level attribution) all lands in
    /// `pipeline_bubble`, the rest of the compute cycles are
    /// compute-bound, and idle MACs are unexplained slack.
    #[must_use]
    pub fn from_report(report: &LayerReport) -> Self {
        let bubble = report.bubble_cycles.min(report.compute_cycles);
        LayerProfile {
            name: report.name.clone(),
            compute_cycles: report.compute_cycles,
            mem_cycles: report.mem_cycles,
            stalls: StallBreakdown {
                compute: report.compute_cycles - bubble,
                memory: report.mem_cycles,
                pipeline_bubble: bubble,
                tail_drain: 0,
            },
            macs: MacBreakdown {
                busy: report.mac_ops,
                bubble: 0,
                drain: 0,
                slack: report.idle_mac_cycles,
            },
            rows: Vec::new(),
            critical_path: Vec::new(),
            suds: None,
            worst_tiles: Vec::new(),
        }
    }
}

/// A full workload × architecture cycle-attribution profile.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimProfile {
    /// Architecture name.
    pub arch: String,
    /// Workload description.
    pub workload: String,
    /// Per-layer profiles, in workload order.
    pub layers: Vec<LayerProfile>,
}

impl SimProfile {
    /// Sum of per-layer attributed cycles; the invariant (tested against
    /// every architecture) is equality with [`SimReport::total_cycles`](crate::SimReport::total_cycles).
    #[must_use]
    pub fn total_attributed_cycles(&self) -> u64 {
        self.layers.iter().map(LayerProfile::total_cycles).sum()
    }

    /// Aggregated stall taxonomy across layers.
    #[must_use]
    pub fn stalls(&self) -> StallBreakdown {
        let mut acc = StallBreakdown::default();
        for l in &self.layers {
            acc.compute += l.stalls.compute;
            acc.memory += l.stalls.memory;
            acc.pipeline_bubble += l.stalls.pipeline_bubble;
            acc.tail_drain += l.stalls.tail_drain;
        }
        acc
    }

    /// Total idle MAC-cycles attributed by the profiler; must equal
    /// [`SimReport::idle_mac_cycles`](crate::SimReport::idle_mac_cycles).
    #[must_use]
    pub fn idle_mac_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.macs.idle()).sum()
    }

    /// Byte-stable JSON export (profile schema v1). All numeric fields
    /// are exact integers, names go through the shared JSON escaper, and
    /// layer order is workload order — so identical simulations serialize
    /// to identical bytes regardless of worker count.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":\"eureka-profile-v1\"");
        out.push_str(&format!(",\"arch\":\"{}\"", escape(&self.arch)));
        out.push_str(&format!(",\"workload\":\"{}\"", escape(&self.workload)));
        out.push_str(&format!(
            ",\"total_cycles\":{}",
            self.total_attributed_cycles()
        ));
        let s = self.stalls();
        out.push_str(&format!(
            ",\"stalls\":{{\"compute\":{},\"memory\":{},\"pipeline_bubble\":{},\"tail_drain\":{}}}",
            s.compute, s.memory, s.pipeline_bubble, s.tail_drain
        ));
        out.push_str(",\"layers\":[");
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"name\":\"{}\"", escape(&l.name)));
            out.push_str(&format!(",\"compute_cycles\":{}", l.compute_cycles));
            out.push_str(&format!(",\"mem_cycles\":{}", l.mem_cycles));
            out.push_str(&format!(
                ",\"stalls\":{{\"compute\":{},\"memory\":{},\"pipeline_bubble\":{},\"tail_drain\":{}}}",
                l.stalls.compute, l.stalls.memory, l.stalls.pipeline_bubble, l.stalls.tail_drain
            ));
            out.push_str(&format!(
                ",\"macs\":{{\"busy\":{},\"bubble\":{},\"drain\":{},\"slack\":{}}}",
                l.macs.busy, l.macs.bubble, l.macs.drain, l.macs.slack
            ));
            out.push_str(",\"rows\":[");
            for (j, r) in l.rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"busy\":{},\"bubble\":{},\"drain\":{}}}",
                    r.busy, r.bubble, r.drain
                ));
            }
            out.push(']');
            out.push_str(",\"critical_path\":[");
            for (j, (cycles, count)) in l.critical_path.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{cycles},{count}]"));
            }
            out.push(']');
            match &l.suds {
                Some(su) => {
                    out.push_str(&format!(
                        ",\"suds\":{{\"tiles\":{},\"displaced\":{},\"rotation\":[",
                        su.tiles, su.displaced
                    ));
                    for (j, c) in su.rotation.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&c.to_string());
                    }
                    out.push_str("]}");
                }
                None => out.push_str(",\"suds\":null"),
            }
            out.push_str(",\"worst_tiles\":[");
            for (j, t) in l.worst_tiles.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"index\":{},\"cycles\":{},\"nnz\":{},\"displaced\":{}}}",
                    t.index, t.cycles, t.nnz, t.displaced
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Per-row utilization heatmap as CSV: one line per (layer, row).
    #[must_use]
    pub fn heatmap_csv(&self) -> String {
        let mut out = String::from("layer,row,busy,bubble,drain,utilization\n");
        for l in &self.layers {
            for (r, occ) in l.rows.iter().enumerate() {
                out.push_str(&format!(
                    "{},{},{},{},{},{:.4}\n",
                    l.name,
                    r,
                    occ.busy,
                    occ.bubble,
                    occ.drain,
                    occ.utilization()
                ));
            }
        }
        out
    }

    /// Chrome-trace occupancy tracks: one track per systolic row, one
    /// colored slice per layer phase (busy, then bubble, then drain),
    /// plus a memory track. Time is in sampled row-cycles, concatenated
    /// across layers — load in `chrome://tracing` / Perfetto.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let rows = self.layers.iter().map(|l| l.rows.len()).max().unwrap_or(0);
        let mut tb = TraceBuilder::new();
        for r in 0..rows {
            tb.thread_name(0, r as u64, &format!("systolic row {r}"));
        }
        tb.thread_name(0, rows as u64, "memory");
        let mut cursor = vec![0u64; rows + 1];
        for l in &self.layers {
            for (r, occ) in l.rows.iter().enumerate() {
                let mut ts = cursor[r];
                for (phase, dur, color) in [
                    ("busy", occ.busy, "thread_state_running"),
                    ("bubble", occ.bubble, "thread_state_iowait"),
                    ("drain", occ.drain, "thread_state_sleeping"),
                ] {
                    if dur > 0 {
                        tb.complete_with(
                            &format!("{}:{phase}", l.name),
                            ts,
                            dur,
                            0,
                            r as u64,
                            Some(color),
                            &[],
                        );
                        ts += dur;
                    }
                }
            }
            // Align all row cursors on the layer boundary.
            let span = l.rows.iter().map(RowOccupancy::total).max().unwrap_or(0);
            for c in cursor.iter_mut().take(rows) {
                *c += span;
            }
            if l.mem_cycles > 0 {
                tb.complete_with(
                    &format!("{}:memory", l.name),
                    cursor[rows],
                    l.mem_cycles,
                    0,
                    rows as u64,
                    Some("thread_state_iowait"),
                    &[],
                );
            }
            cursor[rows] += l.mem_cycles.max(span);
        }
        tb.build()
    }

    /// The human bottleneck report: aggregate stall ranking (what to fix
    /// first), then the heaviest layers with their dominant stall and
    /// worst tiles.
    #[must_use]
    pub fn bottleneck_report(&self, top_layers: usize) -> String {
        let total = self.total_attributed_cycles();
        let mut out = format!("profile: {} on {}\n", self.arch, self.workload);
        out.push_str(&format!("  total cycles: {total}\n"));
        if total == 0 {
            return out;
        }
        let s = self.stalls();
        let mut ranked = [
            (
                "compute (useful work; optimize the kernel itself)",
                s.compute,
            ),
            (
                "memory stalls (exposed DRAM; improve residency/bandwidth)",
                s.memory,
            ),
            (
                "pipeline bubbles (macro-step mismatch; better scheduling/SUDS)",
                s.pipeline_bubble,
            ),
            (
                "tail drain (empty rows + fill; more tiles in flight)",
                s.tail_drain,
            ),
        ];
        ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
        out.push_str("  where the cycles go (fix the top non-compute item first):\n");
        for (what, cycles) in ranked {
            out.push_str(&format!(
                "    {:>6.2}%  {:>14}  {what}\n",
                100.0 * cycles as f64 / total as f64,
                cycles,
            ));
        }
        let idle = self.idle_mac_cycles();
        let busy: u64 = self.layers.iter().map(|l| l.macs.busy).sum();
        if busy + idle > 0 {
            out.push_str(&format!(
                "  MAC utilization: {:.1}% ({busy} useful, {idle} idle)\n",
                100.0 * busy as f64 / (busy + idle) as f64
            ));
        }
        let mut heaviest: Vec<&LayerProfile> = self.layers.iter().collect();
        heaviest.sort_by_key(|l| std::cmp::Reverse(l.total_cycles()));
        out.push_str(&format!(
            "  heaviest layers (top {}):\n",
            top_layers.min(heaviest.len())
        ));
        for l in heaviest.iter().take(top_layers) {
            let lt = l.total_cycles();
            let (dom, dc) = [
                ("compute", l.stalls.compute),
                ("memory", l.stalls.memory),
                ("bubble", l.stalls.pipeline_bubble),
                ("drain", l.stalls.tail_drain),
            ]
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .unwrap_or(("compute", 0));
            out.push_str(&format!(
                "    {:<24} {:>14} cycles ({:>5.2}% of total; dominant: {dom} {:.1}%)\n",
                l.name,
                lt,
                100.0 * lt as f64 / total as f64,
                if lt == 0 {
                    0.0
                } else {
                    100.0 * dc as f64 / lt as f64
                },
            ));
            for t in &l.worst_tiles {
                out.push_str(&format!(
                    "      worst tile #{}: {} cycles, {} nnz, {} displaced\n",
                    t.index, t.cycles, t.nnz, t.displaced
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::OpCounts;

    fn report() -> LayerReport {
        LayerReport {
            name: "conv1".into(),
            compute_cycles: 100,
            mem_cycles: 20,
            mac_ops: 500,
            idle_mac_cycles: 140,
            bubble_cycles: 10,
            weight_bytes: 1,
            act_bytes: 2,
            out_bytes: 3,
            metadata_bytes: 4,
            ops: OpCounts::default(),
        }
    }

    #[test]
    fn trivial_profile_attributes_everything() {
        let r = report();
        let p = LayerProfile::from_report(&r);
        assert_eq!(p.total_cycles(), r.total_cycles());
        assert_eq!(p.macs.idle(), r.idle_mac_cycles);
        assert_eq!(p.stalls.compute, 90);
        assert_eq!(p.stalls.memory, 20);
        assert_eq!(p.stalls.pipeline_bubble, 10, "bubble_cycles carried over");
        assert_eq!(p.stalls.tail_drain, 0);
    }

    #[test]
    fn json_is_stable_and_wellformed() {
        let mut p = SimProfile {
            arch: "Eureka \"P4\"".into(),
            workload: "t".into(),
            layers: vec![LayerProfile::from_report(&report())],
        };
        p.layers[0].rows = vec![RowOccupancy {
            busy: 3,
            bubble: 1,
            drain: 0,
        }];
        p.layers[0].critical_path = vec![(2, 10), (4, 1)];
        p.layers[0].suds = Some(SudsStats {
            tiles: 11,
            displaced: 4,
            rotation: vec![5, 6],
        });
        p.layers[0].worst_tiles = vec![TileStat {
            index: 7,
            cycles: 4,
            nnz: 9,
            displaced: 1,
        }];
        let a = p.to_json();
        let b = p.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"eureka-profile-v1\""));
        assert!(a.contains("\\\"P4\\\""), "names are escaped: {a}");
        assert!(a.contains("\"critical_path\":[[2,10],[4,1]]"));
        assert!(a.contains("\"rotation\":[5,6]"));
        // Balanced braces/brackets (cheap well-formedness check).
        let depth = a.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn heatmap_lists_layer_rows() {
        let mut p = SimProfile {
            arch: "a".into(),
            workload: "w".into(),
            layers: vec![LayerProfile::from_report(&report())],
        };
        p.layers[0].rows = vec![
            RowOccupancy {
                busy: 3,
                bubble: 1,
                drain: 0,
            },
            RowOccupancy {
                busy: 0,
                bubble: 0,
                drain: 4,
            },
        ];
        let csv = p.heatmap_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "layer,row,busy,bubble,drain,utilization");
        assert_eq!(lines[1], "conv1,0,3,1,0,0.7500");
        assert_eq!(lines[2], "conv1,1,0,0,4,0.0000");
    }

    #[test]
    fn chrome_trace_has_row_tracks() {
        let mut p = SimProfile {
            arch: "a".into(),
            workload: "w".into(),
            layers: vec![LayerProfile::from_report(&report())],
        };
        p.layers[0].rows = vec![RowOccupancy {
            busy: 3,
            bubble: 1,
            drain: 2,
        }];
        let json = p.to_chrome_json();
        assert!(json.contains("systolic row 0"));
        assert!(json.contains("conv1:busy"));
        assert!(json.contains("conv1:memory"));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn bottleneck_report_ranks_stalls() {
        let mut p = SimProfile {
            arch: "a".into(),
            workload: "w".into(),
            layers: vec![LayerProfile::from_report(&report())],
        };
        p.layers[0].stalls = StallBreakdown {
            compute: 10,
            memory: 20,
            pipeline_bubble: 60,
            tail_drain: 30,
        };
        let text = p.bottleneck_report(3);
        let bubble_pos = text.find("pipeline bubbles").unwrap();
        let compute_pos = text.find("compute (useful work").unwrap();
        assert!(bubble_pos < compute_pos, "largest bucket first:\n{text}");
        assert!(text.contains("total cycles: 120"));
    }
}
