//! Reproduces the paper's entire evaluation in one command, writing every
//! table/figure as text and CSV under `results/`.
//!
//! ```console
//! $ cargo run -p eureka-bench --release --bin reproduce [-- <out_dir>]
//! ```

use eureka_bench::{ablations, figure11, figure12, figure13, figure14, figure9, table1, table2};
use eureka_sim::{Runner, SimConfig};
use std::fs;
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    let out_dir = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("results"), PathBuf::from);
    fs::create_dir_all(&out_dir)?;
    let cfg = SimConfig::paper_default();
    let runner = Runner::parallel();

    let write = |name: &str, text: &str| -> std::io::Result<()> {
        fs::write(out_dir.join(name), text)?;
        println!("wrote {}", out_dir.join(name).display());
        Ok(())
    };

    write("table1.txt", &table1())?;
    write("table2.txt", &table2())?;

    let fig9 = figure9(&cfg);
    write("fig09.txt", &fig9.render())?;
    write("fig09.csv", &fig9.to_csv())?;

    let fig11 = figure11(&runner, &cfg);
    write("fig11.txt", &fig11.render())?;
    write("fig11.csv", &fig11.to_csv())?;
    write("fig11.svg", &eureka_bench::svg::to_svg(&fig11))?;

    let fig12 = figure12(&runner, &cfg);
    write("fig12.txt", &fig12.render())?;
    write("fig12.csv", &fig12.to_csv())?;
    write("fig12.svg", &eureka_bench::svg::to_svg(&fig12))?;

    let fig13 = figure13(&runner, &cfg);
    write("fig13.txt", &fig13.render())?;
    write("fig13.csv", &fig13.to_csv())?;
    write("fig13.svg", &eureka_bench::svg::to_svg(&fig13))?;

    let fig14 = figure14(&runner, &cfg);
    write("fig14.txt", &fig14.render())?;
    write("fig14.csv", &fig14.to_csv())?;
    write("fig14.svg", &eureka_bench::svg::to_svg(&fig14))?;

    let mut abl = String::new();
    for t in [
        ablations::reach_sweep(&runner, &cfg),
        ablations::window_sweep(&runner, &cfg),
        ablations::compaction_sweep(&runner, &cfg),
        ablations::sigma_sweep(&runner, &cfg),
        ablations::two_sided_energy(&runner, &cfg),
        ablations::clock_penalty(&runner, &cfg),
        ablations::sparten_calibration(&runner, &cfg),
        ablations::batch_sweep(&runner, &cfg),
    ] {
        abl.push_str(&t.render());
        abl.push('\n');
    }
    write("ablations.txt", &abl)?;

    println!("\nheadlines:");
    let v = |t: &eureka_bench::FigTable, r: &str, c: &str| t.value(r, c).unwrap_or(f64::NAN);
    println!(
        "  Eureka P=4 mean speedup over Dense : {:.2}x (paper 4.8x)",
        v(&fig11, "mean", "Eureka P=4")
    );
    println!(
        "  Eureka P=4 over Ampere             : {:.2}x (paper 2.4x)",
        v(&fig11, "mean", "Eureka P=4") / v(&fig11, "mean", "Ampere/STC")
    );
    println!(
        "  Eureka P=4 mean energy vs Dense    : {:.2}x less (paper 3.1x)",
        1.0 / v(&fig13, "mean", "Eureka P=4")
    );
    println!(
        "  Eureka P=4 energy vs Ampere        : {:.2}x less (paper 1.8x)",
        v(&fig13, "mean", "Ampere/STC") / v(&fig13, "mean", "Eureka P=4")
    );
    Ok(())
}
