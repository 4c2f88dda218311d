//! Regenerates Figure 14: sensitivity to MAC array size.
//!
//! Pass `--csv` for machine-readable output.

use eureka_sim::{Runner, SimConfig};

fn main() {
    let cfg = SimConfig::paper_default();
    let runner = Runner::parallel();
    let table = eureka_bench::figure14(&runner, &cfg);
    if std::env::args().any(|a| a == "--csv") {
        print!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
    }
}
