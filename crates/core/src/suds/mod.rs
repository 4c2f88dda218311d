//! Single-step uni-directional displacement (SUDS, paper §3.1–3.2).
//!
//! After compaction, a tile's cycle count is its longest row. SUDS lets each
//! filter element's *multiplication* run either in its own MAC row or in the
//! vacant MAC one row below, while the *accumulation* stays in the original
//! row (the product is routed one hop back up into the three-input adder).
//! Work assignment — which elements move — is computed offline:
//!
//! * [`decision`] — Algorithm 1: can all rows fit in `K` cycles?
//! * [`optimize`] — the optimal `K` via binary search over the decision
//!   procedure (`O(p² log q)`);
//! * [`greedy`] — the single-pass greedy strawman of Figure 7(b);
//! * [`DisplacedTile`] — the concrete per-cycle schedule with base-row
//!   rotation and hardware-constraint validation;
//! * [`verify`] — brute-force optimum for small tiles plus the structured
//!   plan checker ([`check_plan`]) the differential oracle reports with.

mod assignment;
pub mod decision;
mod greedy;
pub mod multistep;
mod optimal;
pub mod verify;

pub use assignment::{DisplacedTile, Slot};
pub use decision::{feasible, DisplacementPlan};
pub use greedy::greedy;
pub use optimal::optimize;
pub use verify::{check_plan, PlanViolation};

use eureka_sparse::TilePattern;

/// Convenience: optimal SUDS directly from a tile pattern.
///
/// # Examples
///
/// ```
/// use eureka_core::suds;
/// use eureka_sparse::TilePattern;
///
/// let t = TilePattern::from_rows(&[0b1111, 0, 0, 0], 4).unwrap();
/// // Worst case of §3.1: a single full row halves via displacement.
/// assert_eq!(suds::optimize_tile(&t).k, 2);
/// ```
#[must_use]
pub fn optimize_tile(tile: &TilePattern) -> DisplacementPlan {
    optimize(&tile.row_lens())
}

/// Cycle count of an optimally displaced tile (min 1, like an empty tile
/// still occupying its pipeline slot).
#[must_use]
pub fn optimal_cycles(tile: &TilePattern) -> usize {
    optimize_tile(tile).k.max(1)
}
