use serde::{Deserialize, Serialize};
use std::fmt;

/// Broad classification of a [`Gate`] by the number of qubits it acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// Acts on a single qubit.
    SingleQubit,
    /// Acts on two qubits.
    TwoQubit,
}

/// A quantum gate from the fixed gate set supported by the QRCC pipeline.
///
/// The set mirrors what the paper assumes the hardware offers: arbitrary
/// single-qubit gates plus a family of two-qubit entangling gates. Rotation
/// angles are in radians.
///
/// Two-qubit gates of the form `exp(iθ A₁⊗A₂)` with `A₁² = A₂² = I` (up to
/// local single-qubit corrections) are *gate-cuttable*: [`Gate::is_gate_cuttable`]
/// reports whether the Mitarai–Fujii six-instance decomposition applies.
///
/// ```rust
/// use qrcc_circuit::Gate;
///
/// assert!(Gate::Cz.is_two_qubit());
/// assert!(Gate::Cz.is_gate_cuttable());
/// assert!(!Gate::Swap.is_gate_cuttable());
/// assert_eq!(Gate::Rz(0.5).dagger(), Gate::Rz(-0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Gate {
    // ---- single-qubit gates ----
    /// Identity.
    I,
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate S = diag(1, i).
    S,
    /// Inverse phase gate S† = diag(1, -i).
    Sdg,
    /// T gate = diag(1, e^{iπ/4}).
    T,
    /// T† gate.
    Tdg,
    /// Square root of X (the native √x gate on IBM hardware).
    SqrtX,
    /// Rotation about the X axis by the given angle.
    Rx(f64),
    /// Rotation about the Y axis by the given angle.
    Ry(f64),
    /// Rotation about the Z axis by the given angle.
    Rz(f64),
    /// Phase gate diag(1, e^{iλ}).
    Phase(f64),
    /// General single-qubit unitary U3(θ, φ, λ).
    U3(f64, f64, f64),

    // ---- two-qubit gates ----
    /// Controlled-X (CNOT); qubit order is (control, target).
    Cx,
    /// Controlled-Y; qubit order is (control, target).
    Cy,
    /// Controlled-Z (symmetric).
    Cz,
    /// SWAP gate.
    Swap,
    /// Two-qubit ZZ rotation `exp(-iθ/2 · Z⊗Z)`.
    Rzz(f64),
    /// Two-qubit XX rotation `exp(-iθ/2 · X⊗X)`.
    Rxx(f64),
    /// Two-qubit YY rotation `exp(-iθ/2 · Y⊗Y)`.
    Ryy(f64),
    /// Controlled phase gate diag(1, 1, 1, e^{iλ}) (symmetric).
    CPhase(f64),
}

/// Hashes a gate by its kind and the bit patterns of its angles, as
/// [`Circuit::structural_hash`](crate::Circuit::structural_hash) does, so
/// that any two gates that build the same unitary bit for bit hash alike.
impl std::hash::Hash for Gate {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name().hash(state);
        self.params().into_iter().for_each(|param| param.to_bits().hash(state));
    }
}

impl Gate {
    /// The number of qubits this gate acts on (1 or 2).
    pub fn num_qubits(&self) -> usize {
        match self.kind() {
            GateKind::SingleQubit => 1,
            GateKind::TwoQubit => 2,
        }
    }

    /// Whether this gate acts on exactly two qubits.
    pub fn is_two_qubit(&self) -> bool {
        self.kind() == GateKind::TwoQubit
    }

    /// Whether this gate acts on exactly one qubit.
    pub fn is_single_qubit(&self) -> bool {
        self.kind() == GateKind::SingleQubit
    }

    /// The [`GateKind`] of this gate.
    pub fn kind(&self) -> GateKind {
        use Gate::*;
        match self {
            I | H | X | Y | Z | S | Sdg | T | Tdg | SqrtX | Rx(_) | Ry(_) | Rz(_) | Phase(_)
            | U3(..) => GateKind::SingleQubit,
            Cx | Cy | Cz | Swap | Rzz(_) | Rxx(_) | Ryy(_) | CPhase(_) => GateKind::TwoQubit,
        }
    }

    /// A short, stable, lowercase name for the gate (OpenQASM-style).
    pub fn name(&self) -> &'static str {
        use Gate::*;
        match self {
            I => "id",
            H => "h",
            X => "x",
            Y => "y",
            Z => "z",
            S => "s",
            Sdg => "sdg",
            T => "t",
            Tdg => "tdg",
            SqrtX => "sx",
            Rx(_) => "rx",
            Ry(_) => "ry",
            Rz(_) => "rz",
            Phase(_) => "p",
            U3(..) => "u3",
            Cx => "cx",
            Cy => "cy",
            Cz => "cz",
            Swap => "swap",
            Rzz(_) => "rzz",
            Rxx(_) => "rxx",
            Ryy(_) => "ryy",
            CPhase(_) => "cp",
        }
    }

    /// The rotation parameters of the gate, if any.
    pub fn params(&self) -> Vec<f64> {
        use Gate::*;
        match *self {
            Rx(t) | Ry(t) | Rz(t) | Phase(t) | Rzz(t) | Rxx(t) | Ryy(t) | CPhase(t) => vec![t],
            U3(a, b, c) => vec![a, b, c],
            _ => Vec::new(),
        }
    }

    /// Whether all parameters (if any) are finite.
    pub fn params_finite(&self) -> bool {
        self.params().iter().all(|p| p.is_finite())
    }

    /// The adjoint (inverse) of this gate.
    pub fn dagger(&self) -> Gate {
        use Gate::*;
        match *self {
            I => I,
            H => H,
            X => X,
            Y => Y,
            Z => Z,
            S => Sdg,
            Sdg => S,
            T => Tdg,
            Tdg => T,
            // √X† = Rx(-π/2) up to a global phase, which is U3(π/2, π/2, -π/2).
            SqrtX => U3(
                std::f64::consts::FRAC_PI_2,
                std::f64::consts::FRAC_PI_2,
                -std::f64::consts::FRAC_PI_2,
            ),
            Rx(t) => Rx(-t),
            Ry(t) => Ry(-t),
            Rz(t) => Rz(-t),
            Phase(t) => Phase(-t),
            U3(theta, phi, lambda) => U3(-theta, -lambda, -phi),
            Cx => Cx,
            Cy => Cy,
            Cz => Cz,
            Swap => Swap,
            Rzz(t) => Rzz(-t),
            Rxx(t) => Rxx(-t),
            Ryy(t) => Ryy(-t),
            CPhase(t) => CPhase(-t),
        }
    }

    /// Whether the gate is (exactly) the identity operation.
    ///
    /// Parameterised rotations with angle `0.0` are also reported as identity.
    pub fn is_identity(&self) -> bool {
        use Gate::*;
        match *self {
            I => true,
            Rx(t) | Ry(t) | Rz(t) | Phase(t) | Rzz(t) | Rxx(t) | Ryy(t) | CPhase(t) => t == 0.0,
            U3(a, b, c) => a == 0.0 && b == 0.0 && c == 0.0,
            _ => false,
        }
    }

    /// Whether this two-qubit gate can be *gate-cut* with the Mitarai–Fujii
    /// six-instance decomposition used by QRCC.
    ///
    /// A gate qualifies when it is locally equivalent to `exp(iθ Z⊗Z)` for
    /// some θ, i.e. it can be written as local single-qubit gates (which stay
    /// in their own subcircuits) times a single two-qubit ZZ interaction.
    /// This covers CX, CY, CZ, RZZ, RXX, RYY and controlled-phase gates, but
    /// not SWAP (which needs three such interactions).
    pub fn is_gate_cuttable(&self) -> bool {
        use Gate::*;
        matches!(self, Cx | Cy | Cz | Rzz(_) | Rxx(_) | Ryy(_) | CPhase(_))
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let rendered: Vec<String> = params.iter().map(|p| format!("{p:.6}")).collect();
            write!(f, "{}({})", self.name(), rendered.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_kind() {
        assert_eq!(Gate::H.num_qubits(), 1);
        assert_eq!(Gate::Cx.num_qubits(), 2);
        assert!(Gate::Rzz(0.3).is_two_qubit());
        assert!(Gate::U3(0.1, 0.2, 0.3).is_single_qubit());
    }

    #[test]
    fn dagger_is_involutive_for_parameterised_gates() {
        let gates = [
            Gate::Rx(0.7),
            Gate::Ry(-1.2),
            Gate::Rz(2.5),
            Gate::Phase(0.9),
            Gate::Rzz(0.4),
            Gate::CPhase(1.1),
        ];
        for g in gates {
            assert_eq!(g.dagger().dagger(), g);
        }
    }

    #[test]
    fn self_inverse_gates() {
        for g in [Gate::H, Gate::X, Gate::Y, Gate::Z, Gate::Cx, Gate::Cz, Gate::Swap] {
            assert_eq!(g.dagger(), g);
        }
    }

    #[test]
    fn s_and_t_invert_to_daggers() {
        assert_eq!(Gate::S.dagger(), Gate::Sdg);
        assert_eq!(Gate::T.dagger(), Gate::Tdg);
        assert_eq!(Gate::Sdg.dagger(), Gate::S);
        assert_eq!(Gate::Tdg.dagger(), Gate::T);
    }

    #[test]
    fn identity_detection() {
        assert!(Gate::I.is_identity());
        assert!(Gate::Rz(0.0).is_identity());
        assert!(Gate::Rzz(0.0).is_identity());
        assert!(!Gate::Rz(0.1).is_identity());
        assert!(!Gate::X.is_identity());
    }

    #[test]
    fn gate_cuttable_set() {
        assert!(Gate::Cz.is_gate_cuttable());
        assert!(Gate::Cx.is_gate_cuttable());
        assert!(Gate::Rzz(0.2).is_gate_cuttable());
        assert!(Gate::CPhase(0.2).is_gate_cuttable());
        assert!(!Gate::Swap.is_gate_cuttable());
        assert!(!Gate::H.is_gate_cuttable());
    }

    #[test]
    fn display_includes_params() {
        assert_eq!(Gate::H.to_string(), "h");
        assert!(Gate::Rz(0.5).to_string().starts_with("rz(0.5"));
    }

    #[test]
    fn names_are_lowercase_and_stable() {
        for g in [Gate::I, Gate::H, Gate::SqrtX, Gate::Cx, Gate::CPhase(0.1)] {
            assert!(g.name().chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        }
    }
}
