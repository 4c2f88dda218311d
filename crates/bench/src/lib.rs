//! Experiment harness reproducing every table and figure of the Eureka
//! paper's evaluation (§5).
//!
//! Each `figure*` / `table*` function computes the corresponding result as
//! a structured [`FigTable`]; [`figure`] maps each name in [`FIGURES`] to
//! its output, which `eureka figure <name>` prints, the `reproduce` binary
//! writes to disk, the Criterion benches in `benches/` time, and the
//! golden tests pin. The workspace integration tests assert the paper's
//! qualitative claims on the tables.
//!
//! | Function | Paper content |
//! |---|---|
//! | [`table1`] | benchmark summary |
//! | [`figure9`] | critical-path distribution before/after optimal SUDS |
//! | [`figure11`] | performance vs Dense across nine architectures |
//! | [`figure12`] | isolation of Eureka's techniques |
//! | [`figure13`] | total energy vs Dense (incl. Dense Bench) |
//! | [`table2`] | per-MAC area/power and delay |
//! | [`figure14`] | sensitivity to MAC array size |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod svg;

use eureka_energy::{area, calibrate, MacVariant};
use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::arch::{self, Architecture};
use eureka_sim::{engine, sweep, Runner, SimConfig, SimJob, SimReport};
use eureka_sparse::stats::Histogram;

/// A labelled results grid: one row per workload/configuration, one column
/// per architecture/variant. `None` marks combinations the paper leaves
/// blank (S2TA on InceptionV3).
#[derive(Clone, Debug, PartialEq)]
pub struct FigTable {
    /// Title printed above the table.
    pub title: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Rows: label plus one optional value per column.
    pub rows: Vec<(String, Vec<Option<f64>>)>,
}

impl FigTable {
    /// Looks up a value by row label and column name.
    #[must_use]
    pub fn value(&self, row: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == column)?;
        let r = self.rows.iter().find(|(label, _)| label == row)?;
        r.1.get(c).copied().flatten()
    }

    /// Renders a fixed-width text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("{}\n", self.title);
        out.push_str(&format!("{:<22}", ""));
        for c in &self.columns {
            out.push_str(&format!("{c:>15}"));
        }
        out.push('\n');
        for (label, cells) in &self.rows {
            out.push_str(&format!("{label:<22}"));
            for cell in cells {
                match cell {
                    Some(v) => out.push_str(&format!("{v:>15.2}")),
                    None => out.push_str(&format!("{:>15}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Serializes the table as CSV (blank cells stay empty).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("row");
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (label, cells) in &self.rows {
            out.push_str(label);
            for cell in cells {
                out.push(',');
                if let Some(v) = cell {
                    out.push_str(&format!("{v:.4}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Appends an arithmetic-mean row over the existing rows (skipping
    /// blanks per column).
    fn push_mean_row(&mut self, label: &str) {
        let cols = self.columns.len();
        let mut sums = vec![0.0; cols];
        let mut counts = vec![0usize; cols];
        for (_, cells) in &self.rows {
            for (i, cell) in cells.iter().enumerate() {
                if let Some(v) = cell {
                    sums[i] += v;
                    counts[i] += 1;
                }
            }
        }
        let means = sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| (c > 0).then(|| s / c as f64))
            .collect();
        self.rows.push((label.to_string(), means));
    }

    /// Appends the paper's *representative mean*: BERT weighted 75%, the
    /// CNNs 25% (TPUv4i's workload mix, §5.1). Rows whose label contains
    /// "BERT" form the BERT group.
    fn push_rep_mean_row(&mut self, label: &str) {
        let cols = self.columns.len();
        let mut acc = vec![(0.0f64, 0usize, 0.0f64, 0usize); cols]; // (bert_sum, n, cnn_sum, n)
        for (row_label, cells) in &self.rows {
            let is_bert = row_label.contains("BERT");
            for (i, cell) in cells.iter().enumerate() {
                if let Some(v) = cell {
                    if is_bert {
                        acc[i].0 += v;
                        acc[i].1 += 1;
                    } else {
                        acc[i].2 += v;
                        acc[i].3 += 1;
                    }
                }
            }
        }
        let means = acc
            .iter()
            .map(|&(bs, bn, cs, cn)| {
                if bn == 0 || cn == 0 {
                    None
                } else {
                    Some(0.75 * bs / bn as f64 + 0.25 * cs / cn as f64)
                }
            })
            .collect();
        self.rows.push((label.to_string(), means));
    }
}

/// Every table and figure the reproduction prints, by name, in the
/// order `reproduce` writes them.
pub const FIGURES: [&str; 8] = [
    "table1",
    "table2",
    "fig09",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "ablations",
];

/// One named figure's output (see [`figure`]).
#[derive(Clone, Debug, Default)]
pub struct Figure {
    /// The result grids; empty for the prepared-text Tables 1 and 2.
    pub tables: Vec<FigTable>,
    /// The prepared text of Tables 1 and 2, printed for text and CSV alike.
    text: Option<String>,
    /// Whether the figure reads as a grouped bar chart ([`svg::to_svg`]).
    pub chart: bool,
    /// One line per headline number, set against the paper's.
    pub headlines: Vec<String>,
}

impl Figure {
    /// The fixed-width text rendering.
    #[must_use]
    pub fn render(&self) -> String {
        self.join(FigTable::render)
    }

    /// The CSV rendering (Tables 1 and 2 print their text).
    #[must_use]
    pub fn to_csv(&self) -> String {
        self.join(FigTable::to_csv)
    }

    /// A single table as it is; several each followed by a blank line.
    fn join(&self, each: fn(&FigTable) -> String) -> String {
        match (&self.text, self.tables.as_slice()) {
            (Some(text), _) => text.clone(),
            (None, [table]) => each(table),
            (None, tables) => tables.iter().map(|t| each(t) + "\n").collect(),
        }
    }
}

/// Computes the figure `name` (one of [`FIGURES`]) on `runner` under
/// `cfg`; `None` for any other name.
#[must_use]
pub fn figure(name: &str, runner: &Runner, cfg: &SimConfig) -> Option<Figure> {
    let text = |text| Figure {
        text: Some(text),
        ..Figure::default()
    };
    let grids = |tables, chart| Figure {
        tables,
        chart,
        ..Figure::default()
    };
    let mean = |t: &FigTable, c: &str| t.value("mean", c).unwrap_or(f64::NAN);
    Some(match name {
        "table1" => text(table1()),
        "table2" => text(table2()),
        "fig09" => grids(vec![figure9(cfg)], false),
        "fig11" => {
            let t = figure11(runner, cfg);
            let (eureka, ampere) = (mean(&t, "Eureka P=4"), mean(&t, "Ampere/STC"));
            Figure {
                headlines: vec![
                    format!("Eureka P=4 mean speedup over Dense : {eureka:.2}x (paper 4.8x)"),
                    format!(
                        "Eureka P=4 over Ampere             : {:.2}x (paper 2.4x)",
                        eureka / ampere
                    ),
                ],
                ..grids(vec![t], true)
            }
        }
        "fig12" => grids(vec![figure12(runner, cfg)], true),
        "fig13" => {
            let t = figure13(runner, cfg);
            let (eureka, ampere) = (mean(&t, "Eureka P=4"), mean(&t, "Ampere/STC"));
            Figure {
                headlines: vec![
                    format!(
                        "Eureka P=4 mean energy vs Dense    : {:.2}x less (paper 3.1x)",
                        1.0 / eureka
                    ),
                    format!(
                        "Eureka P=4 energy vs Ampere        : {:.2}x less (paper 1.8x)",
                        ampere / eureka
                    ),
                ],
                ..grids(vec![t], true)
            }
        }
        "fig14" => grids(vec![figure14(runner, cfg)], true),
        "ablations" => grids(ablations::all(runner, cfg), false),
        _ => return None,
    })
}

/// The benchmark × pruning grid of Figures 11–13, in the paper's order of
/// increasing moderate-pruning sparsity.
#[must_use]
pub fn workload_grid(batch: usize) -> Vec<Workload> {
    let mut out = Vec::new();
    for bench in Benchmark::all() {
        for level in [PruningLevel::Conservative, PruningLevel::Moderate] {
            out.push(Workload::new(bench, level, batch));
        }
    }
    out
}

fn row_label(w: &Workload) -> String {
    format!("{} ({})", w.benchmark().name(), w.pruning().label())
}

/// Simulates the whole grid — Dense plus every listed architecture for
/// every workload — as one batch of runner jobs (the runner fans the
/// per-layer units out across cores), then maps each workload's reports
/// to row cells. Architectures that cannot run a workload (S2TA on
/// InceptionV3) yield `None` reports, matching the paper's blank cells.
fn rows_over_grid<F>(
    runner: &Runner,
    archs: &[Box<dyn Architecture>],
    cfg: &SimConfig,
    per_row: F,
) -> Vec<(String, Vec<Option<f64>>)>
where
    F: Fn(&Workload, &SimReport, &[Option<SimReport>]) -> Vec<Option<f64>>,
{
    let grid = workload_grid(32);
    let dense = arch::dense();
    let mut jobs = Vec::with_capacity(grid.len() * (archs.len() + 1));
    for w in &grid {
        jobs.push(SimJob::new(&dense, w, *cfg));
        for a in archs {
            jobs.push(SimJob::new(a.as_ref(), w, *cfg));
        }
    }
    let mut results = runner.run_all(&jobs).into_iter();
    grid.iter()
        .map(|w| {
            let dense_r = results
                .next()
                .expect("one result per job")
                .expect("Dense runs every workload");
            let arch_rs: Vec<Option<SimReport>> = archs
                .iter()
                .map(|_| results.next().expect("one result per job").ok())
                .collect();
            (row_label(w), per_row(w, &dense_r, &arch_rs))
        })
        .collect()
}

/// Table 1: the benchmark summary (delegates to `eureka-models`).
#[must_use]
pub fn table1() -> String {
    eureka_models::table1::render()
}

/// Figure 9: critical-path distribution of four filter sub-matrix groups
/// of a ResNet50 intermediate layer (conv4_2/3x3, moderate pruning),
/// before (compaction only) and after the optimal SUDS assignment.
#[must_use]
pub fn figure9(cfg: &SimConfig) -> FigTable {
    use eureka_core::suds;
    use eureka_sim::arch::tile_samples_for_layer;

    let _span = eureka_obs::span!("bench.figure9");
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    let gemm = w
        .gemms()
        .into_iter()
        .find(|g| g.name == "conv4_2/3x3")
        .expect("ResNet50 defines conv4_2/3x3");
    // Four groups of sub-matrices, as in the paper's figure.
    const GROUPS: usize = 4;
    let mut before: Vec<Histogram> = vec![Histogram::new(); GROUPS];
    let mut after: Vec<Histogram> = vec![Histogram::new(); GROUPS];
    for group in 0..GROUPS {
        let tiles = tile_samples_for_layer(&gemm, cfg, group as u64);
        for tile in tiles {
            before[group].record(tile.critical_path().max(1));
            after[group].record(suds::optimal_cycles(&tile));
        }
    }
    let max = before
        .iter()
        .chain(&after)
        .filter_map(Histogram::max)
        .max()
        .unwrap_or(0);
    let mut columns = Vec::new();
    for g in 1..=GROUPS {
        columns.push(format!("g{g} before"));
    }
    for g in 1..=GROUPS {
        columns.push(format!("g{g} after"));
    }
    let mut table = FigTable {
        title: "Figure 9: critical-path distribution (fraction of sub-matrices) of four \
                filter sub-matrix groups, ResNet50 conv4_2/3x3 (mod), P=4"
            .to_string(),
        columns,
        rows: Vec::new(),
    };
    for k in 0..=max {
        let mut cells: Vec<Option<f64>> = before.iter().map(|h| Some(h.fraction(k))).collect();
        cells.extend(after.iter().map(|h| Some(h.fraction(k))));
        table.rows.push((format!("critical path {k}"), cells));
    }
    let mut mean_cells: Vec<Option<f64>> = before.iter().map(|h| Some(h.mean())).collect();
    mean_cells.extend(after.iter().map(|h| Some(h.mean())));
    table.rows.push(("mean".into(), mean_cells));
    let mut sd_cells: Vec<Option<f64>> = before.iter().map(|h| Some(h.std_dev())).collect();
    sd_cells.extend(after.iter().map(|h| Some(h.std_dev())));
    table.rows.push(("std dev".into(), sd_cells));
    table
}

/// The nine Figure 11 architectures in plot order.
#[must_use]
pub fn figure11_archs() -> Vec<Box<dyn Architecture>> {
    vec![
        Box::new(arch::ampere()),
        Box::new(arch::cnvlutin_like()),
        Box::new(arch::eureka_p2()),
        Box::new(arch::eureka_p4()),
        Box::new(arch::ideal()),
        Box::new(arch::dstc()),
        Box::new(arch::sparten()),
        Box::new(arch::s2ta()),
    ]
}

/// Figure 11: speedup over Dense for every architecture × benchmark ×
/// pruning level, plus the mean and representative-mean rows.
#[must_use]
pub fn figure11(runner: &Runner, cfg: &SimConfig) -> FigTable {
    let _span = eureka_obs::span!("bench.figure11");
    let archs = figure11_archs();
    let mut table = FigTable {
        title: "Figure 11: speedup over Dense (batch 32, 432 tensor cores)".to_string(),
        columns: archs.iter().map(|a| a.name().to_string()).collect(),
        rows: Vec::new(),
    };
    table.rows = rows_over_grid(runner, &archs, cfg, |_, dense, reports| {
        reports
            .iter()
            .map(|r| r.as_ref().map(|r| engine::speedup(dense, r)))
            .collect()
    });
    table.push_mean_row("mean");
    table.push_rep_mean_row("rep mean");
    table
}

/// The Figure 12 technique-isolation variants, in progressive order.
#[must_use]
pub fn figure12_archs() -> Vec<Box<dyn Architecture>> {
    vec![
        Box::new(arch::eureka_unopt()),
        Box::new(arch::compaction_only(4)),
        Box::new(arch::greedy_suds_p4()),
        Box::new(arch::optimal_suds_p4()),
        Box::new(arch::eureka_p4()),
        Box::new(arch::eureka_no_suds_p4()),
    ]
}

/// Figure 12: isolating compaction, SUDS (greedy/optimal) and systolic
/// scheduling; speedups over Dense.
#[must_use]
pub fn figure12(runner: &Runner, cfg: &SimConfig) -> FigTable {
    let _span = eureka_obs::span!("bench.figure12");
    let archs = figure12_archs();
    let mut table = FigTable {
        title: "Figure 12: isolation of Eureka's techniques (speedup over Dense)".to_string(),
        columns: archs.iter().map(|a| a.name().to_string()).collect(),
        rows: Vec::new(),
    };
    table.rows = rows_over_grid(runner, &archs, cfg, |_, dense, reports| {
        reports
            .iter()
            .map(|r| r.as_ref().map(|r| engine::speedup(dense, r)))
            .collect()
    });
    table.push_mean_row("mean");
    table
}

/// Figure 13: total (compute + memory) energy normalized to Dense,
/// including the unpruned *Dense Bench* row showing each scheme's
/// sparsity-hardware overhead on dense models.
#[must_use]
pub fn figure13(runner: &Runner, cfg: &SimConfig) -> FigTable {
    let _span = eureka_obs::span!("bench.figure13");
    let model = calibrate::calibrated_model(cfg);
    let archs = figure11_archs();
    let mut table = FigTable {
        title: "Figure 13: total energy normalized to Dense (lower is better)".to_string(),
        columns: archs.iter().map(|a| a.name().to_string()).collect(),
        rows: Vec::new(),
    };
    table.rows = rows_over_grid(runner, &archs, cfg, |_, dense, reports| {
        let dense = model.energy(dense, cfg);
        reports
            .iter()
            .map(|r| {
                r.as_ref()
                    .map(|r| model.energy(r, cfg).total_pj() / dense.total_pj())
            })
            .collect()
    });
    table.push_mean_row("mean");
    table.push_rep_mean_row("rep mean");

    // Dense Bench: unpruned model, dense-mode timing, each scheme paying
    // for its sparsity hardware.
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Dense, 32);
    let dense_r = runner
        .run(&SimJob::new(&arch::dense(), &w, *cfg))
        .expect("invariant: Dense supports every workload");
    let base = model
        .dense_mode_energy(&dense_r, MacVariant::Dense, cfg)
        .total_pj();
    let variants = [
        Some(MacVariant::Ampere),   // Ampere/STC
        Some(MacVariant::EurekaP4), // Cnvlutin-like shares the 16-1 mux
        Some(MacVariant::EurekaP2), // Eureka P=2
        Some(MacVariant::EurekaP4), // Eureka P=4
        None,                       // Ideal has no hardware
        Some(MacVariant::Dstc),     // DSTC
        Some(MacVariant::SparTen),  // SparTen
        Some(MacVariant::Ampere),   // S2TA's per-MAC delta is Ampere-like
    ];
    let cells = variants
        .iter()
        .map(|v| v.map(|variant| model.dense_mode_energy(&dense_r, variant, cfg).total_pj() / base))
        .collect();
    table.rows.push(("Dense Bench".into(), cells));
    table
}

/// Table 2: per-MAC area/power of the key components and the Ampere /
/// Eureka totals with overheads and delays.
#[must_use]
pub fn table2() -> String {
    use eureka_energy::components::{spec, Component};
    let mut out = String::from("Table 2: ASIC 15 nm area and power (per MAC)\n");
    out.push_str(&format!(
        "{:<34}{:>12}{:>12}\n",
        "Component", "Area (um2)", "Power (uW)"
    ));
    let rows: [(&str, Component); 8] = [
        ("MAC", Component::Mac),
        ("FP carry-save adder", Component::FpCsa),
        ("16-1 Multiplexer", Component::Mux16),
        ("8-1 Multiplexer*", Component::Mux8),
        ("4-1 Multiplexer", Component::Mux4),
        ("2-1 Multiplexer", Component::Mux2),
        ("DSTC Crossbar", Component::DstcCrossbar),
        ("SparTen logic", Component::SparTenLogic),
    ];
    for (name, c) in rows {
        let s = spec(c);
        out.push_str(&format!(
            "{name:<34}{:>12.0}{:>12.0}\n",
            s.area_um2, s.power_uw
        ));
    }
    let sp = spec(Component::SparTenBuffers);
    out.push_str(&format!(
        "{:<34}{:>12.0}{:>12.0}\n",
        "SparTen buffers", sp.area_um2, sp.power_uw
    ));
    for (name, v) in [
        ("Total Ampere", MacVariant::Ampere),
        ("Total Eureka P=2", MacVariant::EurekaP2),
        ("Total Eureka P=4", MacVariant::EurekaP4),
    ] {
        let b = area::per_mac(v);
        out.push_str(&format!(
            "{name:<34}{:>12.0}{:>12.0}   delay {:.2} ns\n",
            b.area_um2, b.power_uw, b.delay_ns
        ));
    }
    let (a, p) = area::overhead_vs_ampere(MacVariant::EurekaP4);
    out.push_str(&format!(
        "Eureka P=4 overhead vs Ampere: area {:.1}%, power {:.1}%\n",
        100.0 * a,
        100.0 * p
    ));
    out.push_str("(* structural estimate; not listed in the paper's table)\n");
    out
}

/// Figure 14: mean and representative-mean Eureka speedup over Dense
/// across MAC-array geometries, at a constant device MAC budget.
#[must_use]
pub fn figure14(runner: &Runner, cfg: &SimConfig) -> FigTable {
    let _span = eureka_obs::span!("bench.figure14");
    let variants = sweep::figure14_variants();
    let mut table = FigTable {
        title: "Figure 14: sensitivity to MAC array size (Eureka speedup over Dense)".to_string(),
        columns: variants.iter().map(|v| v.label.to_string()).collect(),
        rows: Vec::new(),
    };
    // Every (geometry, workload) cell compares a matched Eureka against
    // Dense at that geometry: one job batch for the whole figure.
    let grid = workload_grid(32);
    let dense = arch::dense();
    let archs: Vec<_> = variants.iter().map(sweep::variant_arch).collect();
    let mut jobs = Vec::with_capacity(grid.len() * variants.len() * 2);
    for w in &grid {
        for (v, a) in variants.iter().zip(&archs) {
            let c = cfg.with_core(v.core);
            jobs.push(SimJob::new(&dense, w, c));
            jobs.push(SimJob::new(a, w, c));
        }
    }
    let mut results = runner.run_all(&jobs).into_iter();
    table.rows = grid
        .iter()
        .map(|w| {
            let cells = variants
                .iter()
                .map(|_| {
                    let d = results.next().expect("dense job").expect("Dense runs");
                    let e = results.next().expect("eureka job").expect("Eureka runs");
                    Some(engine::speedup(&d, &e))
                })
                .collect();
            (row_label(w), cells)
        })
        .collect();
    table.push_mean_row("mean");
    table.push_rep_mean_row("rep mean");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figtable_render_and_lookup() {
        let t = FigTable {
            title: "t".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![("r1".into(), vec![Some(1.5), None])],
        };
        assert_eq!(t.value("r1", "a"), Some(1.5));
        assert_eq!(t.value("r1", "b"), None);
        assert_eq!(t.value("r2", "a"), None);
        let s = t.render();
        assert!(s.contains("1.50"));
        assert!(s.contains('-'));
    }

    #[test]
    fn csv_serialization() {
        let t = FigTable {
            title: "t".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![("r1".into(), vec![Some(1.5), None])],
        };
        assert_eq!(t.to_csv(), "row,a,b\nr1,1.5000,\n");
    }

    #[test]
    fn mean_rows() {
        let mut t = FigTable {
            title: "t".into(),
            columns: vec!["a".into()],
            rows: vec![
                ("CNN x".into(), vec![Some(2.0)]),
                ("BERT y".into(), vec![Some(10.0)]),
            ],
        };
        t.push_mean_row("mean");
        assert_eq!(t.value("mean", "a"), Some(6.0));
        t.rows.pop();
        t.push_rep_mean_row("rep");
        assert_eq!(t.value("rep", "a"), Some(0.75 * 10.0 + 0.25 * 2.0));
    }

    #[test]
    fn workload_grid_shape() {
        let grid = workload_grid(32);
        assert_eq!(grid.len(), 8);
        assert!(grid.iter().all(|w| w.batch() == 32));
    }

    #[test]
    fn table1_renders() {
        assert!(table1().contains("ResNet50"));
    }

    #[test]
    fn table2_matches_paper_totals() {
        let s = table2();
        assert!(s.contains("1246"));
        assert!(s.contains("1321"));
        assert!(s.contains("area 6.0%"));
        assert!(s.contains("power 11.5%"));
    }
}
