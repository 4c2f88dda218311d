//! **Eureka** — a reproduction of *"Eureka: Efficient Tensor Cores for
//! One-sided Unstructured Sparsity in DNN Inference"* (MICRO 2023).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`fp16`] — bit-level binary16 arithmetic and the SUDS three-input
//!   carry-save adder;
//! * [`sparse`] — sparse matrix formats, tiling, generators;
//! * [`offline`] — the paper's contribution: matrix compaction, SUDS
//!   displacement with optimal work assignment, systolic scheduling, and
//!   the functional executor proving correctness;
//! * [`models`] — the benchmark networks, pruning profiles and GEMM
//!   lowering;
//! * [`sim`] — the cycle-level tensor-core simulator with all nine
//!   evaluated architectures;
//! * [`energy`] — ASIC area/power models (Table 2) and energy accounting;
//! * [`verify`] — differential verification: the dense-GEMM numeric
//!   oracle, the brute-force SUDS checker, metamorphic invariants, and
//!   the seeded shrinking fuzz driver behind `eureka verify`;
//! * [`obs`] — telemetry: tracing spans, the metrics registry, and the
//!   Chrome-trace / metrics-snapshot exporters behind the CLI's
//!   `--trace-out` / `--metrics-out` flags.
//!
//! The experiment harness lives in the `eureka-bench` crate; the CLI
//! prints each table and figure (`eureka figure fig11`, etc.).
//!
//! # Quickstart
//!
//! ```
//! use eureka::prelude::*;
//!
//! // An imbalanced sparse filter tile: 4 filters over 16 reduction steps.
//! let tile = TilePattern::from_rows(&[0b0101_0011_0011, 0b10, 0, 0b100], 16)?;
//! assert_eq!(tile.critical_path(), 6); // compaction alone: 6 cycles
//!
//! // Optimal SUDS halves the critical path by displacing work downward.
//! let plan = suds::optimize(&tile.row_lens());
//! assert_eq!(plan.k, 3);
//!
//! // And the displaced schedule still computes the exact same outputs.
//! let schedule = DisplacedTile::from_plan(&AlignedTile::from_tile(&tile), &plan)?;
//! schedule.validate()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use eureka_core as offline;
pub use eureka_energy as energy;
pub use eureka_fp16 as fp16;
pub use eureka_models as models;
pub use eureka_obs as obs;
pub use eureka_sim as sim;
pub use eureka_sparse as sparse;
pub use eureka_verify as verify;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use eureka_core::exec;
    pub use eureka_core::schedule::{self, SystolicConfig};
    pub use eureka_core::suds::{self, DisplacementPlan};
    pub use eureka_core::{CompactedTile, CompiledLayer, DisplacedTile};
    pub use eureka_energy::{EnergyModel, MacVariant};
    pub use eureka_fp16::{MacUnit, F16};
    pub use eureka_models::{Benchmark, PruningLevel, Workload};
    pub use eureka_sim::{arch, engine, SimConfig, SimReport};
    pub use eureka_sparse::{
        gen, rng::DetRng, AlignedTile, Matrix, SparsityPattern, TileGrid, TilePattern,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_key_types() {
        use crate::prelude::*;
        let _ = F16::ONE;
        let _ = SimConfig::fast();
        let _ = SystolicConfig::paper_default();
        let _ = Benchmark::ResNet50;
    }
}
