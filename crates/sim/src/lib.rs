//! Cycle-level tensor-core simulator for the Eureka (MICRO 2023)
//! evaluation.
//!
//! Models a GPU-scale device — 432 tensor cores, each a systolic grid of
//! 4×4 MAC sub-arrays (paper §4) — running the pruned benchmark GEMMs under
//! nine architectures:
//!
//! | Architecture | Sparsity exploited | Module |
//! |---|---|---|
//! | `Dense` | none | [`arch::dense`] |
//! | `Ampere/STC` | 2:4 structured filters | [`arch::ampere`] |
//! | `Cnvlutin-like` | unstructured filters, compaction only | [`arch::onesided`] |
//! | `Eureka P=2 / P=4` (+ Fig 12 ablations) | unstructured filters | [`arch::onesided`] |
//! | `1-sided Ideal` | unstructured filters, perfect balance | [`arch::ideal`](mod@arch::ideal) |
//! | `DSTC` | two-sided unstructured | [`arch::dstc`](mod@arch::dstc) |
//! | `SparTen` | two-sided unstructured | [`arch::sparten`](mod@arch::sparten) |
//! | `S2TA` | two-sided structured | [`arch::s2ta`](mod@arch::s2ta) |
//!
//! Timing is tile-granular: every mechanism in the paper (compaction, SUDS,
//! systolic scheduling, crossbar limits, chunk matching) acts at the tile
//! level, and the systolic pipeline is modelled with the macro-step engine
//! from `eureka-core::schedule`. See DESIGN.md §4 for the model and its
//! sampling strategy.
//!
//! # Examples
//!
//! ```
//! use eureka_models::{Benchmark, PruningLevel, Workload};
//! use eureka_sim::{arch, engine, SimConfig};
//!
//! let cfg = SimConfig::fast();
//! let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
//! let dense = engine::simulate(&arch::dense(), &w, &cfg);
//! let eureka = engine::simulate(&arch::eureka_p4(), &w, &cfg);
//! let speedup = dense.total_cycles() as f64 / eureka.total_cycles() as f64;
//! assert!(speedup > 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod backoff;
pub mod cachesim;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod faults;
pub mod journal;
pub mod ledger;
pub mod memory;
pub mod outcome;
pub mod profile;
pub mod report;
pub mod runner;
pub mod scratch;
pub mod service;
pub mod store;
pub mod sweep;

pub use backoff::BackoffPolicy;
pub use config::{MemoryConfig, SimConfig, TensorCoreConfig};
pub use journal::{Journal, JournalState};
pub use ledger::{DiffReport, LedgerRecord};
pub use outcome::{render_failure_report, FailureKind, JobOutcome, RetryPolicy, UnitFailure};
pub use profile::{
    LayerProfile, MacBreakdown, ProfileConfig, RowOccupancy, SimProfile, StallBreakdown, SudsStats,
    TileStat,
};
pub use report::{LayerReport, OpCounts, SimReport};
pub use runner::{CancelToken, Runner, SimJob};
pub use service::{JobService, JobSpec, JobStatus, ServiceConfig, SlaReport, SubmitError};
pub use store::{TileBroker, TileKey, TileOutcome};
