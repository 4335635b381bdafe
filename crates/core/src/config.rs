use crate::analyze::LintLevel;
use crate::reconstruct::ReconstructionStrategy;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Post-processing cost weights from the paper's linearised objective
/// (§4.2.5): a wire cut costs `ALPHA` and a gate cut costs `BETA`, chosen so
/// that the linear cost preserves the ordering of the true `4^k · 6^m`
/// exponential cost for up to 240 cuts.
pub const ALPHA_WIRE_CUT: f64 = 3.25;
/// See [`ALPHA_WIRE_CUT`].
pub const BETA_GATE_CUT: f64 = 4.2;

/// How a global shot budget is split across the deduplicated circuits of a
/// scheduled batch (ShotQC-style, see PAPERS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ShotAllocation {
    /// Every circuit receives `budget / circuits` shots.
    Uniform,
    /// Shots are split proportionally to each circuit's reconstruction
    /// variance weight — the summed magnitude of the cut coefficients
    /// (`1/2`-scaled wire attribution terms, gate-cut quasi-probability
    /// coefficients) that multiply its measured distribution. High-leverage
    /// variants get more shots, which lowers the reconstructed observable's
    /// sampling error at equal total budget.
    #[default]
    VarianceWeighted,
}

/// Scheduling knobs of the execution [`schedule`](crate::schedule) layer:
/// how a [`Scheduler`](crate::schedule::Scheduler) splits a global shot
/// budget, chunks a batch for streaming reconstruction, and how its
/// [`dispatch`](crate::dispatch) event loop throttles and retries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulePolicy {
    /// How the shot budget is split across the batch.
    pub allocation: ShotAllocation,
    /// Global shot budget across the *whole* deduplicated batch. `None`
    /// leaves every backend running its own default shot count (exact
    /// backends ignore shots entirely).
    pub shot_budget: Option<u64>,
    /// Minimum shots any scheduled circuit receives when a budget is set
    /// (keeps zero-weight variants measurable).
    pub min_shots: u64,
    /// Circuits per streamed chunk; `0` disables chunking (one chunk).
    pub chunk_size: usize,
    /// Upper bound on chunks the dispatcher keeps **in flight** — dispatched
    /// to backend workers but not yet delivered to the consumer. A window of
    /// 1 makes a slow consumer fully serialise dispatch (strict
    /// backpressure, minimal undelivered-result memory); larger windows let
    /// execution run ahead of reconstruction. `0` disables the bound.
    pub max_in_flight_chunks: usize,
    /// How many times a dispatched circuit that fails on a backend is
    /// re-routed to another compatible backend (the failing backend is
    /// excluded first; exhausted exclusions fall back to previously failed
    /// backends). `0` disables retries: the first backend error aborts the
    /// run, exactly like single-backend execution.
    pub max_retries: u32,
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        SchedulePolicy {
            allocation: ShotAllocation::VarianceWeighted,
            shot_budget: None,
            min_shots: 1,
            chunk_size: 0,
            max_in_flight_chunks: 2,
            max_retries: 2,
        }
    }
}

impl SchedulePolicy {
    /// A policy with a global shot budget and variance-weighted allocation.
    pub fn with_budget(budget: u64) -> Self {
        SchedulePolicy { shot_budget: Some(budget), ..SchedulePolicy::default() }
    }

    /// Sets the allocation mode.
    pub fn with_allocation(mut self, allocation: ShotAllocation) -> Self {
        self.allocation = allocation;
        self
    }

    /// Sets the per-circuit minimum shot count (only meaningful with a
    /// budget).
    pub fn with_min_shots(mut self, min_shots: u64) -> Self {
        self.min_shots = min_shots;
        self
    }

    /// Sets the streamed chunk size (`0` = one chunk).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// Sets the dispatcher's bounded in-flight chunk window (`0` = no
    /// bound). A window of 1 gives strict backpressure: the next chunk is
    /// not dispatched until the consumer has accepted the previous one.
    pub fn with_max_in_flight_chunks(mut self, window: usize) -> Self {
        self.max_in_flight_chunks = window;
        self
    }

    /// Sets the per-circuit retry budget of the dispatcher (`0` disables
    /// retries — the first backend failure aborts the run).
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }
}

/// Configuration of the QRCC cut planner (the meta parameters of §4.2.1),
/// plus the reconstruction options and the pre-flight lint gate of the plan
/// it produces.
///
/// Every other layer owns its own policy: a [`Scheduler`] carries its
/// [`SchedulePolicy`], a [`DeviceRegistry`] its
/// [`ResultCachePolicy`](crate::cache::ResultCachePolicy), tracing is
/// switched by [`tracer()`](crate::obs::tracer)`.enable()`, and the
/// gate-by-gate interpreter is selected with
/// [`ExactBackend::interpreted`](crate::execute::ExactBackend::interpreted).
///
/// [`Scheduler`]: crate::schedule::Scheduler
/// [`DeviceRegistry`]: crate::schedule::DeviceRegistry
///
/// ```rust
/// use qrcc_core::QrccConfig;
///
/// let config = QrccConfig::new(5)
///     .with_subcircuit_range(2, 4)
///     .with_delta(0.7)
///     .with_gate_cuts(true);
/// assert_eq!(config.device_size, 5);
/// assert_eq!(config.c_max, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QrccConfig {
    /// `D`: number of physical qubits available on the target device.
    pub device_size: usize,
    /// `C_min`: minimum number of subcircuits of the solution.
    pub c_min: usize,
    /// `C_max`: maximum number of subcircuits of the solution.
    pub c_max: usize,
    /// `W_max`: maximum number of wire cuts allowed.
    pub max_wire_cuts: usize,
    /// `G_max`: maximum number of gate cuts allowed.
    pub max_gate_cuts: usize,
    /// `δ`: weight between post-processing cost (δ) and fidelity balancing
    /// (1−δ) in the objective; 1.0 = post-processing cost only (QRCC-C),
    /// 0.7 is the paper's QRCC-B setting.
    pub delta: f64,
    /// Whether gate cutting is enabled (only valid for expectation-value
    /// workloads).
    pub gate_cuts_enabled: bool,
    /// Whether qubit reuse is exploited when computing subcircuit widths,
    /// in the heuristic search, the ILP model's capacity rows and the plan's
    /// metrics alike (disabling this reproduces the CutQC width model, see
    /// [`QrccConfig::cutqc`]).
    pub qubit_reuse_enabled: bool,
    /// Time budget for the exact ILP refinement; the heuristic solution is
    /// returned unchanged when this is zero.
    #[serde(skip, default = "default_ilp_time_limit")]
    pub ilp_time_limit: Duration,
    /// Upper bound on `gates × subcircuits` above which the ILP refinement is
    /// skipped and only the heuristic search is used.
    pub ilp_size_limit: usize,
    /// Random seed for the heuristic's tie-breaking.
    pub seed: u64,
    /// How the classical post-processing reconstructs the output: the dense
    /// global component loop, pairwise tensor contraction, or automatic
    /// selection by the cost models (the default).
    pub reconstruction_strategy: ReconstructionStrategy,
    /// Sparse-pruning tolerance of the `Contract` reconstruction strategy:
    /// attribution entries whose accumulated absolute weight stays below
    /// this value are dropped (0.0, the default, disables pruning).
    pub prune_tolerance: f64,
    /// Severity gate of the pre-flight [`analyze`](crate::analyze) pass:
    /// which diagnostics make [`AnalysisReport::gate`](crate::analyze::AnalysisReport::gate)
    /// fail. `Warn` (the default) fails on errors only; `Deny` also fails on
    /// warnings; `Allow` never fails.
    pub lint_level: LintLevel,
}

fn default_ilp_time_limit() -> Duration {
    Duration::from_secs(10)
}

impl QrccConfig {
    /// A configuration targeting a `device_size`-qubit device with the
    /// paper's defaults: 2–8 subcircuits, up to 100 cuts of each kind,
    /// δ = 1.0 (QRCC-C), gate cuts off, reuse on.
    pub fn new(device_size: usize) -> Self {
        QrccConfig {
            device_size,
            c_min: 2,
            c_max: 8,
            max_wire_cuts: 100,
            max_gate_cuts: 100,
            delta: 1.0,
            gate_cuts_enabled: false,
            qubit_reuse_enabled: true,
            ilp_time_limit: default_ilp_time_limit(),
            ilp_size_limit: 600,
            seed: 0,
            reconstruction_strategy: ReconstructionStrategy::Auto,
            prune_tolerance: 0.0,
            lint_level: LintLevel::default(),
        }
    }

    /// The paper's QRCC-C setting (δ = 1, post-processing cost only).
    pub fn qrcc_c(device_size: usize) -> Self {
        Self::new(device_size)
    }

    /// The paper's QRCC-B setting (δ = 0.7, balances two-qubit gates across
    /// subcircuits for fidelity).
    pub fn qrcc_b(device_size: usize) -> Self {
        Self::new(device_size).with_delta(0.7)
    }

    /// The CutQC baseline (Tang et al., ASPLOS'21) the paper compares
    /// against: wire cuts only, and no qubit reuse, so every wire segment of
    /// a subcircuit holds its own physical qubit.
    pub fn cutqc(device_size: usize) -> Self {
        Self::new(device_size).with_gate_cuts(false).with_qubit_reuse(false)
    }

    /// Sets the `[C_min, C_max]` subcircuit-count range.
    ///
    /// # Panics
    ///
    /// Panics if `c_min` is zero or greater than `c_max`.
    pub fn with_subcircuit_range(mut self, c_min: usize, c_max: usize) -> Self {
        assert!(c_min >= 1 && c_min <= c_max, "need 1 <= c_min <= c_max");
        self.c_min = c_min;
        self.c_max = c_max;
        self
    }

    /// Sets the maximum number of wire cuts.
    pub fn with_max_wire_cuts(mut self, max: usize) -> Self {
        self.max_wire_cuts = max;
        self
    }

    /// Sets the maximum number of gate cuts.
    pub fn with_max_gate_cuts(mut self, max: usize) -> Self {
        self.max_gate_cuts = max;
        self
    }

    /// Sets δ, the post-processing-cost vs fidelity weight.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < delta <= 1.0`.
    pub fn with_delta(mut self, delta: f64) -> Self {
        assert!(delta > 0.0 && delta <= 1.0, "delta must be in (0, 1]");
        self.delta = delta;
        self
    }

    /// Enables or disables gate cutting.
    pub fn with_gate_cuts(mut self, enabled: bool) -> Self {
        self.gate_cuts_enabled = enabled;
        self
    }

    /// Enables or disables qubit-reuse-aware width accounting.
    pub fn with_qubit_reuse(mut self, enabled: bool) -> Self {
        self.qubit_reuse_enabled = enabled;
        self
    }

    /// Sets the ILP refinement time limit (zero disables the ILP pass).
    pub fn with_ilp_time_limit(mut self, limit: Duration) -> Self {
        self.ilp_time_limit = limit;
        self
    }

    /// Sets the random seed used for heuristic tie-breaking.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the reconstruction strategy (dense loop, pairwise contraction,
    /// or cost-model-driven automatic selection).
    pub fn with_reconstruction_strategy(mut self, strategy: ReconstructionStrategy) -> Self {
        self.reconstruction_strategy = strategy;
        self
    }

    /// Sets the sparse-pruning tolerance of the `Contract` reconstruction
    /// strategy (0.0 disables pruning).
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is negative or not finite.
    pub fn with_prune_tolerance(mut self, tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance >= 0.0,
            "prune tolerance must be finite and non-negative"
        );
        self.prune_tolerance = tolerance;
        self
    }

    /// Sets the severity gate of the pre-flight analysis pass.
    /// `LintLevel::Deny` is "deny warnings" mode: any warning- or
    /// error-severity diagnostic fails
    /// [`AnalysisReport::gate`](crate::analyze::AnalysisReport::gate) fast.
    pub fn with_lint_level(mut self, level: LintLevel) -> Self {
        self.lint_level = level;
        self
    }

    /// The linearised post-processing cost `α·#wire_cuts + β·#gate_cuts`
    /// (Eq. (15)).
    pub fn linear_post_processing_cost(&self, wire_cuts: usize, gate_cuts: usize) -> f64 {
        ALPHA_WIRE_CUT * wire_cuts as f64 + BETA_GATE_CUT * gate_cuts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = QrccConfig::new(7);
        assert_eq!(c.device_size, 7);
        assert_eq!(c.max_wire_cuts, 100);
        assert_eq!(c.delta, 1.0);
        assert!(c.qubit_reuse_enabled);
        assert!(!c.gate_cuts_enabled);
        assert_eq!(c.reconstruction_strategy, ReconstructionStrategy::Auto);
        assert_eq!(c.prune_tolerance, 0.0);
        assert_eq!(QrccConfig::qrcc_b(7).delta, 0.7);
    }

    #[test]
    fn builder_methods_chain() {
        let c = QrccConfig::new(5)
            .with_subcircuit_range(2, 3)
            .with_max_wire_cuts(10)
            .with_max_gate_cuts(2)
            .with_gate_cuts(true)
            .with_qubit_reuse(false)
            .with_seed(99);
        assert_eq!((c.c_min, c.c_max), (2, 3));
        assert_eq!(c.max_wire_cuts, 10);
        assert_eq!(c.max_gate_cuts, 2);
        assert!(c.gate_cuts_enabled);
        assert!(!c.qubit_reuse_enabled);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn linear_cost_preserves_exponential_ordering_for_small_counts() {
        let c = QrccConfig::new(4);
        // examples from the paper: S(1,1) is better than S(2,1) wire/gate mix,
        // and S(0,4) gate cuts are better than S(5,0) wire cuts.
        let cost = |w: usize, g: usize| c.linear_post_processing_cost(w, g);
        let exp = |w: u32, g: u32| 4f64.powi(w as i32) * 6f64.powi(g as i32);
        for (a, b) in [((1, 1), (2, 1)), ((4, 0), (0, 5)), ((3, 2), (6, 0))] {
            let linear_order = cost(a.0, a.1) < cost(b.0, b.1);
            let exp_order = exp(a.0 as u32, a.1 as u32) < exp(b.0 as u32, b.1 as u32);
            assert_eq!(linear_order, exp_order, "ordering mismatch for {a:?} vs {b:?}");
        }
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn delta_must_be_positive() {
        QrccConfig::new(3).with_delta(0.0);
    }

    #[test]
    fn reconstruction_knobs_chain() {
        let c = QrccConfig::new(5)
            .with_reconstruction_strategy(ReconstructionStrategy::Contract)
            .with_prune_tolerance(1e-8);
        assert_eq!(c.reconstruction_strategy, ReconstructionStrategy::Contract);
        assert_eq!(c.prune_tolerance, 1e-8);
    }

    #[test]
    #[should_panic(expected = "prune tolerance")]
    fn prune_tolerance_must_be_non_negative() {
        QrccConfig::new(3).with_prune_tolerance(-1.0);
    }

    #[test]
    fn schedule_policy_knobs_chain() {
        let p = SchedulePolicy::with_budget(500)
            .with_min_shots(4)
            .with_chunk_size(8)
            .with_max_in_flight_chunks(1)
            .with_max_retries(5);
        assert_eq!(p.shot_budget, Some(500));
        assert_eq!(p.min_shots, 4);
        assert_eq!(p.chunk_size, 8);
        assert_eq!(p.max_in_flight_chunks, 1);
        assert_eq!(p.max_retries, 5);
        assert_eq!(p.allocation, ShotAllocation::VarianceWeighted);
        // no budget by default: backends keep their own shot counts
        assert_eq!(SchedulePolicy::default().shot_budget, None);
        // dispatch defaults: double-buffered window, a couple of retries
        assert_eq!(SchedulePolicy::default().max_in_flight_chunks, 2);
        assert_eq!(SchedulePolicy::default().max_retries, 2);
    }
}
