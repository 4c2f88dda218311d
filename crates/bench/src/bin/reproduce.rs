//! Reproduces the paper's entire evaluation in one command, writing every
//! table/figure as text and CSV under `results/`.
//!
//! ```console
//! $ cargo run -p eureka-bench --release --bin reproduce [-- <out_dir>]
//! ```

use eureka_bench::{figure, svg, FIGURES};
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

    let write = |name: String, text: &str| -> std::io::Result<()> {
        let path = out_dir.join(name);
        fs::write(&path, text)?;
        println!("wrote {}", path.display());
        Ok(())
    };

    let mut headlines = Vec::new();
    for name in FIGURES {
        let fig = figure(name, &runner, &cfg).expect("FIGURES names only figures");
        write(format!("{name}.txt"), &fig.render())?;
        if let [table] = fig.tables.as_slice() {
            write(format!("{name}.csv"), &table.to_csv())?;
            if fig.chart {
                write(format!("{name}.svg"), &svg::to_svg(table))?;
            }
        }
        headlines.extend(fig.headlines);
    }

    println!("\nheadlines:");
    for line in headlines {
        println!("  {line}");
    }
    Ok(())
}
