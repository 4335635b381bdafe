//! QRCC — integrated qubit reuse and circuit cutting.
//!
//! This crate implements the paper's primary contribution: a compiler pass
//! that evaluates large quantum circuits on small quantum devices by jointly
//! exploiting **wire cutting**, **gate cutting** and **qubit reuse**, plus the
//! classical post-processing that reconstructs the original circuit's output.
//!
//! The main entry points are:
//!
//! * [`planner::CutPlanner`] — finds a reuse-aware cutting solution for a
//!   device size (heuristic search plus an exact ILP refinement on small
//!   instances, built on [`qrcc_ilp`]).
//! * [`reuse::ReusePass`] — a standalone CaQR-style qubit-reuse pass.
//! * [`fragment::FragmentSet`] — turns a plan into executable subcircuit
//!   variants (measurement/initialisation variants for wire cuts, the six
//!   Mitarai–Fujii instances for gate cuts).
//! * [`execute`] — the batch-first execution layer: enumerate each needed
//!   variant once as an integer [`fragment::VariantKey`] (fragment,
//!   slot-configuration ordinal, output bases), map keys to canonical keys
//!   by a rule on the ordinal, and the [`execute::ExecutionBackend`]s that
//!   build and run those variants as rayon-parallel batches.
//! * [`schedule`] — the execution scheduler between batching and
//!   reconstruction: route each deduplicated circuit across a
//!   [`schedule::DeviceRegistry`] of heterogeneous backends, split a global
//!   shot budget by reconstruction-variance weight (ShotQC-style), and
//!   stream result chunks into incremental reconstruction.
//! * [`dispatch`] — the fault-tolerant async dispatch engine inside the
//!   scheduler: an event loop on the caller's thread over per-backend
//!   worker threads, with a bounded in-flight chunk window (the loop folds
//!   each chunk where it delivers it, so the window bounds the results not
//!   yet folded), retry with failer exclusion, and per-job lifecycle
//!   telemetry; plus the `dispatch::FlakyBackend` /
//!   `dispatch::QueueBackend` fault-injection doubles (behind the
//!   `testing` feature).
//! * [`cache`] — the shot-aware result cache: executed distributions keyed
//!   by `(interned fragment body, canonical ordinal, outputs)` with
//!   full/delta-hit shot semantics, LRU weight eviction and snapshot
//!   persistence, and
//!   [`cache::serve`], the one front through which the dispatch workers
//!   (via [`schedule::DeviceRegistry::with_result_cache`]) and `QrccServer`
//!   workers consult it.
//! * [`reconstruct`] — probability-vector and expectation-value
//!   reconstruction through a shared contraction engine (dense global loop
//!   or pairwise fragment-tensor contraction with sparse pruning, selected
//!   by [`ReconstructionStrategy`]), and the post-processing cost models of
//!   Figure 6.
//! * [`pipeline::QrccPipeline`] — the end-to-end flow
//!   (plan → fragments → execute → reconstruct), one streaming request per
//!   answer.
//!
//! # Example
//!
//! ```rust
//! use qrcc_circuit::Circuit;
//! use qrcc_core::pipeline::{ExactBackend, QrccPipeline};
//! use qrcc_core::{DeviceRegistry, QrccConfig, SchedulePolicy, Scheduler};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Evaluate a 4-qubit GHZ circuit using only a 3-qubit device.
//! let mut ghz = Circuit::new(4);
//! ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
//! let pipeline = QrccPipeline::plan(&ghz, QrccConfig::new(3))?;
//! // one request: a deduplicated batch streams through the scheduler and
//! // folds as it lands; a single backend is a one-entry registry
//! let mut registry = DeviceRegistry::new();
//! registry.register("exact", ExactBackend::new());
//! let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
//! let (p, _, _) = pipeline.execute_streaming(&scheduler)?;
//! assert!((p[0b0000] - 0.5).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod error;

pub mod analyze;
pub mod cache;
pub mod dispatch;
pub mod execute;
pub mod fragment;
pub mod gatecut;
pub mod heuristic;
pub mod model;
pub mod obs;
pub mod pipeline;
pub mod planner;
pub mod reconstruct;
pub mod reuse;
pub mod schedule;
pub mod spec;

pub use analyze::{
    AnalysisContext, AnalysisReport, Analyzer, Diagnostic, Lint, LintLevel, Location, Severity,
};
pub use cache::{CacheLookup, CacheStats, ResultCache, ResultCachePolicy};
pub use config::{QrccConfig, SchedulePolicy, ShotAllocation, ALPHA_WIRE_CUT, BETA_GATE_CUT};
pub use error::CoreError;
pub use obs::{
    Histogram, MetricsSnapshot, MonitorPolicy, PhaseProfile, QrccReport, RateCounter,
    SloEvaluation, SloSpec, SloStatus, WindowedHistogram,
};
pub use reconstruct::{ReconstructionOptions, ReconstructionReport, ReconstructionStrategy};
pub use schedule::{DeviceRegistry, ScheduleReport, Scheduler};
pub use spec::{CutMetrics, CutSolution, Segment, SubcircuitId, WireCutPoint};
