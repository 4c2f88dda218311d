//! Runs the design-choice ablations (see `eureka_bench::ablations`).

use eureka_bench::ablations;
use eureka_sim::{Runner, SimConfig};

fn main() {
    let cfg = SimConfig::paper_default();
    let runner = Runner::parallel();
    println!("{}", ablations::reach_sweep(&runner, &cfg).render());
    println!("{}", ablations::window_sweep(&runner, &cfg).render());
    println!("{}", ablations::compaction_sweep(&runner, &cfg).render());
    println!("{}", ablations::sigma_sweep(&runner, &cfg).render());
    println!("{}", ablations::two_sided_energy(&runner, &cfg).render());
    println!("{}", ablations::clock_penalty(&runner, &cfg).render());
    println!("{}", ablations::sparten_calibration(&runner, &cfg).render());
    println!("{}", ablations::batch_sweep(&runner, &cfg).render());
}
