use std::error::Error;
use std::fmt;

/// Errors produced by the QRCC cutting, execution and reconstruction pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// No cutting solution satisfying the device-size constraint was found
    /// within the configured search limits.
    NoCutFound {
        /// The device size that could not be met.
        device_size: usize,
        /// The smallest subcircuit width achieved by the search.
        best_width: usize,
    },
    /// The requested device size is not smaller than the circuit (no cutting
    /// needed) or is zero.
    InvalidDeviceSize {
        /// The circuit width.
        circuit_qubits: usize,
        /// The requested device size.
        device_size: usize,
    },
    /// A cut solution failed validation (inconsistent assignment, missing cut
    /// on a crossing wire, oversized subcircuit, ...).
    InvalidCutSolution {
        /// Human-readable reason.
        reason: String,
    },
    /// Gate cutting was requested on a gate that has no local-ZZ form.
    GateNotCuttable {
        /// The gate name.
        gate: String,
    },
    /// Gate cutting was requested for a probability-distribution workload,
    /// which gate cuts cannot reconstruct.
    GateCutNeedsExpectation,
    /// The number of wire cuts is too large for dense reconstruction.
    TooManyCuts {
        /// Number of cuts in the plan.
        cuts: usize,
        /// The maximum the reconstructor supports.
        limit: usize,
    },
    /// A reconstructor asked [`ExecutionResults`](crate::execute::ExecutionResults)
    /// for a variant that was not part of the executed batch — the enumerate
    /// phase and the consume phase disagree.
    MissingVariant {
        /// The fragment whose variant is missing.
        fragment: usize,
    },
    /// No backend in a [`DeviceRegistry`](crate::schedule::DeviceRegistry)
    /// can run a routed fragment circuit (too wide for every device, or a
    /// required capability such as mid-circuit measurement is missing).
    NoCompatibleBackend {
        /// Width of the circuit that could not be placed.
        required: usize,
        /// Number of backends in the registry.
        backends: usize,
    },
    /// A shot budget is too small to give every circuit of a scheduled batch
    /// its minimum shot count.
    ShotBudgetTooSmall {
        /// The global budget.
        budget: u64,
        /// The minimum total the batch needs (`circuits × min_shots`).
        needed: u64,
    },
    /// A backend reported a transient failure (device dropped, queue
    /// timeout, job rejected) — the one error class
    /// [`CoreError::is_transient`] calls transient. The
    /// [`dispatch`](crate::dispatch) event loop re-routes such jobs to
    /// another compatible backend with the failer excluded; the error only
    /// surfaces once the retry budget is spent.
    BackendUnavailable {
        /// The backend that failed.
        backend: String,
        /// Human-readable failure cause.
        reason: String,
    },
    /// The remote execution transport observed a **protocol violation**: a
    /// malformed, oversized or unexpected frame, a handshake version
    /// mismatch, or a server reply that breaks the submit/result contract.
    /// Unlike [`CoreError::BackendUnavailable`] (I/O errors, disconnects,
    /// timeouts — transient by assumption), a transport error means one side
    /// is speaking the protocol wrong, so it is permanent: the dispatcher
    /// ends the request with it instead of retrying anywhere.
    Transport {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A dispatched circuit failed on every attempt the retry budget
    /// allowed, across every compatible backend.
    RetriesExhausted {
        /// Attempts made (initial dispatch + retries).
        attempts: u32,
        /// The error of the final attempt.
        last: Box<CoreError>,
    },
    /// The pre-flight [`analyze`](crate::analyze) pass found diagnostics at
    /// or above the configured
    /// [`LintLevel`](crate::analyze::LintLevel) gate, so execution was
    /// refused before any backend was contacted.
    AnalysisFailed {
        /// Error-severity diagnostics in the report.
        errors: usize,
        /// Warning-severity diagnostics in the report.
        warnings: usize,
        /// The first gating diagnostic, rendered (`error[QL0203]: ...`).
        first: String,
    },
    /// An error bubbled up from the simulator / device layer.
    Simulation(qrcc_sim::SimError),
    /// An error bubbled up from the ILP solver.
    Ilp(qrcc_ilp::IlpError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoCutFound { device_size, best_width } => write!(
                f,
                "no cutting solution fits a {device_size}-qubit device (best subcircuit width {best_width})"
            ),
            CoreError::InvalidDeviceSize { circuit_qubits, device_size } => write!(
                f,
                "device size {device_size} is invalid for a {circuit_qubits}-qubit circuit (need 0 < D < N)"
            ),
            CoreError::InvalidCutSolution { reason } => {
                write!(f, "invalid cut solution: {reason}")
            }
            CoreError::GateNotCuttable { gate } => {
                write!(f, "gate {gate} cannot be gate-cut (no local ZZ form)")
            }
            CoreError::GateCutNeedsExpectation => write!(
                f,
                "gate cutting reconstructs expectation values only; disable it for probability workloads"
            ),
            CoreError::TooManyCuts { cuts, limit } => {
                write!(f, "plan has {cuts} cuts but dense reconstruction supports at most {limit}")
            }
            CoreError::MissingVariant { fragment } => write!(
                f,
                "execution results hold no distribution for a requested variant of fragment {fragment} (was it enumerated before execute?)"
            ),
            CoreError::NoCompatibleBackend { required, backends } => write!(
                f,
                "no registered backend can run a {required}-qubit fragment circuit ({backends} backend(s) registered)"
            ),
            CoreError::ShotBudgetTooSmall { budget, needed } => write!(
                f,
                "shot budget {budget} is below the scheduled batch minimum of {needed} shots"
            ),
            CoreError::BackendUnavailable { backend, reason } => {
                write!(f, "backend '{backend}' unavailable: {reason}")
            }
            CoreError::Transport { detail } => {
                write!(f, "transport protocol violation: {detail}")
            }
            CoreError::RetriesExhausted { attempts, last } => {
                write!(f, "circuit failed on every backend after {attempts} attempt(s): {last}")
            }
            CoreError::AnalysisFailed { errors, warnings, first } => write!(
                f,
                "pre-flight analysis failed with {errors} error(s) and {warnings} warning(s); first: {first}"
            ),
            CoreError::Simulation(e) => write!(f, "simulation error: {e}"),
            CoreError::Ilp(e) => write!(f, "ilp error: {e}"),
        }
    }
}

impl CoreError {
    /// Whether the failure may clear on another attempt, so that the
    /// dispatcher should retry it: only [`CoreError::BackendUnavailable`]
    /// (a fleet worker's `Backend` error kind). Every other error —
    /// [`CoreError::Transport`] (the `Protocol` and `VersionMismatch`
    /// kinds), a simulator refusal, a key that fits no fragment — is
    /// permanent: the same bytes fail the same way on any backend.
    pub fn is_transient(&self) -> bool {
        matches!(self, CoreError::BackendUnavailable { .. })
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Simulation(e) => Some(e),
            CoreError::Ilp(e) => Some(e),
            CoreError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<qrcc_sim::SimError> for CoreError {
    fn from(e: qrcc_sim::SimError) -> Self {
        CoreError::Simulation(e)
    }
}

impl From<qrcc_ilp::IlpError> for CoreError {
    fn from(e: qrcc_ilp::IlpError) -> Self {
        CoreError::Ilp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let errors = [
            CoreError::NoCutFound { device_size: 3, best_width: 5 },
            CoreError::InvalidDeviceSize { circuit_qubits: 4, device_size: 9 },
            CoreError::InvalidCutSolution { reason: "dangling wire".into() },
            CoreError::GateNotCuttable { gate: "swap".into() },
            CoreError::GateCutNeedsExpectation,
            CoreError::TooManyCuts { cuts: 40, limit: 16 },
            CoreError::MissingVariant { fragment: 2 },
            CoreError::NoCompatibleBackend { required: 5, backends: 2 },
            CoreError::ShotBudgetTooSmall { budget: 10, needed: 64 },
            CoreError::BackendUnavailable { backend: "ibm-ish".into(), reason: "queue".into() },
            CoreError::Transport { detail: "frame length 99 exceeds the cap".into() },
            CoreError::RetriesExhausted {
                attempts: 3,
                last: Box::new(CoreError::BackendUnavailable {
                    backend: "ibm-ish".into(),
                    reason: "queue".into(),
                }),
            },
            CoreError::AnalysisFailed {
                errors: 1,
                warnings: 2,
                first: "error[QL0203]: fragment 0 is 5 qubits wide".into(),
            },
            CoreError::Simulation(qrcc_sim::SimError::ZeroShots),
            CoreError::Ilp(qrcc_ilp::IlpError::Infeasible),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn conversions_from_substrate_errors() {
        let e: CoreError = qrcc_sim::SimError::ZeroShots.into();
        assert!(matches!(e, CoreError::Simulation(_)));
        let e: CoreError = qrcc_ilp::IlpError::Infeasible.into();
        assert!(matches!(e, CoreError::Ilp(_)));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn retries_exhausted_exposes_the_final_attempt_as_source() {
        let last = CoreError::BackendUnavailable { backend: "b".into(), reason: "down".into() };
        let e = CoreError::RetriesExhausted { attempts: 2, last: Box::new(last.clone()) };
        let source = Error::source(&e).expect("wraps the last error");
        assert_eq!(source.to_string(), last.to_string());
    }
}
