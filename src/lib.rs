//! # QRCC — integrated qubit reuse and circuit cutting
//!
//! This facade crate re-exports the public API of the QRCC reproduction, a
//! framework for evaluating large quantum circuits on small quantum devices
//! by combining **wire cutting**, **gate cutting**, and **qubit reuse**
//! (Pawar et al., ASPLOS 2024).
//!
//! The workspace is organised as five library crates:
//!
//! * [`circuit`] — quantum circuit IR, benchmark generators, observables.
//! * [`sim`] — state-vector simulation, shot sampling, noise, devices.
//! * [`ilp`] — self-contained 0-1 ILP modelling and solving substrate.
//! * [`core`] — the QRCC compiler pass: QR-aware DAG, cutting models,
//!   subcircuit generation, and classical reconstruction.
//! * [`net`] — the remote execution transport: a framed TCP protocol,
//!   [`QrccServer`](net::QrccServer) workers wrapping any backend, and
//!   [`RemoteBackend`](net::RemoteBackend) clients that drop into the
//!   dispatch layer.
//!
//! # Quickstart
//!
//! A request is one call: plan once, then `execute_streaming` (or
//! `execute_observables_streaming`) enumerates every subcircuit variant,
//! deduplicates them by structural key, runs the batch through a
//! [`Scheduler`](core::Scheduler) over a device registry — a single backend
//! is a one-entry registry — and folds each delivered chunk into the
//! reconstruction as it lands.
//!
//! ```rust
//! use qrcc::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 6-qubit circuit that we want to evaluate using only a 3-qubit device.
//! let mut circuit = Circuit::new(6);
//! circuit.h(0);
//! for q in 0..5 {
//!     circuit.cx(q, q + 1);
//! }
//! let config = QrccConfig::new(3).with_ilp_time_limit(std::time::Duration::ZERO);
//! let pipeline = QrccPipeline::plan(&circuit, config)?;
//! assert!(pipeline.plan_ref().subcircuit_widths().iter().all(|&w| w <= 3));
//!
//! // one request: a deduplicated batch streams into the reconstruction
//! let mut registry = DeviceRegistry::new();
//! registry.register("exact", ExactBackend::new());
//! let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
//! let (probabilities, _, schedule) = pipeline.execute_streaming(&scheduler)?;
//! assert!((probabilities[0] - 0.5).abs() < 1e-6);
//! println!("{} circuits, {} shots", schedule.circuits, schedule.total_shots);
//! # Ok(())
//! # }
//! ```

pub use qrcc_circuit as circuit;
pub use qrcc_core as core;
pub use qrcc_ilp as ilp;
pub use qrcc_net as net;
pub use qrcc_sim as sim;

/// Commonly used items, intended for glob import in examples and tests.
pub mod prelude {
    pub use qrcc_circuit::{
        generators,
        graph::Graph,
        observable::{PauliObservable, PauliString},
        Circuit, Gate, Operation, QubitId,
    };
    // the fault-injection doubles ship only behind the `testing` feature
    #[cfg(feature = "testing")]
    pub use qrcc_core::dispatch::{FailureMode, FlakyBackend, QueueBackend};
    pub use qrcc_core::{
        cache::{CacheLookup, CacheStats, ResultCache, ResultCachePolicy},
        cutqc::CutQcPlanner,
        dispatch::DispatchStats,
        execute::{
            execute_requests, BackendUsage, ExactBackend, ExecutionBackend, ExecutionResults,
            ShotsBackend,
        },
        fragment::{FragmentSet, FragmentVariant, VariantKey, VariantRequest},
        pipeline::QrccPipeline,
        planner::{CutPlan, CutPlanner},
        reconstruct::{
            ExpectationAccumulator, ExpectationReconstructor, ProbabilityAccumulator,
            ProbabilityReconstructor, ReconstructionOptions, ReconstructionReport,
            ReconstructionStrategy,
        },
        reuse::ReusePass,
        schedule::{DeviceRegistry, ScheduleReport, Scheduler, ShotAllocator},
        AnalysisContext, AnalysisReport, Analyzer, Diagnostic, LintLevel, Location, MonitorPolicy,
        QrccConfig, SchedulePolicy, Severity, ShotAllocation, SloEvaluation, SloSpec, SloStatus,
    };
    pub use qrcc_net::{
        lint_capabilities, FleetMonitor, FleetView, HealthReport, HealthState, QrccServer,
        RemoteBackend, ServerHandle, ServerStats,
    };
    pub use qrcc_sim::{
        compile::{CompileStats, FramedProgram, KernelCache},
        device::{Device, DeviceConfig},
        noise::NoiseModel,
        Counts, StateVector,
    };
}
