use std::error::Error;
use std::fmt;

/// Errors produced by the simulator and simulated devices.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The circuit needs more qubits than the device (or simulator limit) offers.
    TooManyQubits {
        /// Qubits required by the circuit.
        required: usize,
        /// Qubits available.
        available: usize,
    },
    /// The circuit writes more classical bits than what receives its
    /// outcomes may hold: a dense probability vector
    /// ([`Counts::MAX_DENSE_BITS`](crate::Counts::MAX_DENSE_BITS)) or a
    /// histogram key (64 bits; see [`ShotSink::over`](crate::ShotSink::over)).
    TooManyClbits {
        /// Classical bits of the circuit.
        required: usize,
        /// Classical bits available.
        available: usize,
    },
    /// A state-vector operation was asked to run a non-unitary circuit.
    NonUnitaryCircuit {
        /// Index of the offending operation.
        index: usize,
    },
    /// The device does not support mid-circuit measurement / reset but the
    /// circuit requires it.
    MidCircuitUnsupported,
    /// The circuit contains no measurements and implicit measurement was
    /// disabled.
    NothingToMeasure,
    /// An observable's qubit count does not match the circuit.
    ObservableWidthMismatch {
        /// Observable width.
        observable: usize,
        /// Circuit width.
        circuit: usize,
    },
    /// The requested number of shots was zero.
    ZeroShots,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TooManyQubits { required, available } => {
                write!(f, "circuit needs {required} qubits but only {available} are available")
            }
            SimError::TooManyClbits { required, available } => {
                write!(
                    f,
                    "circuit writes {required} classical bits but only {available} are available"
                )
            }
            SimError::NonUnitaryCircuit { index } => {
                write!(
                    f,
                    "operation {index} is not unitary; use a trajectory or branching executor"
                )
            }
            SimError::MidCircuitUnsupported => {
                write!(f, "device does not support mid-circuit measurement or reset")
            }
            SimError::NothingToMeasure => write!(f, "circuit contains no measurements"),
            SimError::ObservableWidthMismatch { observable, circuit } => {
                write!(f, "observable acts on {observable} qubits but the circuit has {circuit}")
            }
            SimError::ZeroShots => write!(f, "shot count must be positive"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errors = [
            SimError::TooManyQubits { required: 5, available: 3 },
            SimError::TooManyClbits { required: 31, available: 30 },
            SimError::NonUnitaryCircuit { index: 2 },
            SimError::MidCircuitUnsupported,
            SimError::NothingToMeasure,
            SimError::ObservableWidthMismatch { observable: 3, circuit: 2 },
            SimError::ZeroShots,
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }
}
