//! Regenerates Figure 11: performance of all architectures vs Dense.
//!
//! Pass `--csv` for machine-readable output.

use eureka_sim::{Runner, SimConfig};

fn main() {
    let cfg = SimConfig::paper_default();
    let runner = Runner::parallel();
    let table = eureka_bench::figure11(&runner, &cfg);
    if std::env::args().any(|a| a == "--csv") {
        print!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
    }
}
