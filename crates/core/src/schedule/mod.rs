//! Systolic scheduling (paper §3.3, Figure 10).
//!
//! A tensor core is a grid of MAC sub-arrays: operands stream systolically,
//! so the whole array advances in *macro-steps* whose duration is set by the
//! slowest resident sub-matrix. With 2:4 sparsity every tile takes the same
//! time and the pipeline never bubbles; unstructured sparsity's uneven
//! critical paths leave faster rows idle.
//!
//! Offline systolic scheduling fixes this by feeding, along each systolic
//! row, sub-matrices with the same critical path — or several short ones
//! whose paths *add up* to the step length (Figure 10(b)). The critical
//! paths are statically known from the SUDS assignment.
//!
//! * [`pipeline`] — the macro-step timing model shared by all simulated
//!   architectures;
//! * [`grouping`] — the offline scheduler that packs tiles into steps.

pub mod cyclesim;
pub mod grouping;
pub mod pipeline;
pub mod profile;
pub mod trace;

pub use grouping::{
    makespan_lower_bound, schedule_grouped, schedule_grouped_steps, schedule_grouped_with_sink,
    schedule_natural, schedule_natural_steps, schedule_natural_with_sink, GroupingBuffers,
};
pub use pipeline::{PipelineReport, SystolicConfig};
pub use profile::{NullSink, ProfileSink, StepProfile};
