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

    /// How many gate codes there are: [`Gate::code`] numbers the gates
    /// `0..Gate::CODES`.
    pub const CODES: usize = 23;

    /// The gate's code, in declaration order: what a fragment body's
    /// encoding writes before the gate's angles ([`Gate::params`]), and the
    /// index compile statistics count the gate's family under. Encoded
    /// bodies depend on it, so a code is never reassigned.
    #[inline]
    pub fn code(&self) -> u8 {
        use Gate::*;
        match self {
            I => 0,
            H => 1,
            X => 2,
            Y => 3,
            Z => 4,
            S => 5,
            Sdg => 6,
            T => 7,
            Tdg => 8,
            SqrtX => 9,
            Rx(_) => 10,
            Ry(_) => 11,
            Rz(_) => 12,
            Phase(_) => 13,
            U3(..) => 14,
            Cx => 15,
            Cy => 16,
            Cz => 17,
            Swap => 18,
            Rzz(_) => 19,
            Rxx(_) => 20,
            Ryy(_) => 21,
            CPhase(_) => 22,
        }
    }

    /// The inverse of [`Gate::code`] and [`Gate::params`]: the gate with
    /// `code`, drawing each angle it takes from `angle` in [`Gate::params`]
    /// order. `Ok(None)` for a code no gate has; an error of `angle` is
    /// returned as it came.
    ///
    /// # Errors
    ///
    /// The first error `angle` returns.
    pub fn from_code<E>(
        code: u8,
        mut angle: impl FnMut() -> Result<f64, E>,
    ) -> Result<Option<Gate>, E> {
        use Gate::*;
        Ok(Some(match code {
            0 => I,
            1 => H,
            2 => X,
            3 => Y,
            4 => Z,
            5 => S,
            6 => Sdg,
            7 => T,
            8 => Tdg,
            9 => SqrtX,
            10 => Rx(angle()?),
            11 => Ry(angle()?),
            12 => Rz(angle()?),
            13 => Phase(angle()?),
            14 => U3(angle()?, angle()?, angle()?),
            15 => Cx,
            16 => Cy,
            17 => Cz,
            18 => Swap,
            19 => Rzz(angle()?),
            20 => Rxx(angle()?),
            21 => Ryy(angle()?),
            22 => CPhase(angle()?),
            _ => return Ok(None),
        }))
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
    fn gate_codes_are_pinned_and_round_trip_every_angle_bit_for_bit() {
        // encoded fragment bodies carry these codes: a change breaks them
        let (a, b, c) = (0.1 + 0.2, -f64::MIN_POSITIVE, 1e300);
        let gates = [
            Gate::I,
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::SqrtX,
            Gate::Rx(a),
            Gate::Ry(b),
            Gate::Rz(c),
            Gate::Phase(-0.0),
            Gate::U3(a, b, c),
            Gate::Cx,
            Gate::Cy,
            Gate::Cz,
            Gate::Swap,
            Gate::Rzz(b),
            Gate::Rxx(c),
            Gate::Ryy(a),
            Gate::CPhase(f64::EPSILON),
        ];
        assert_eq!(gates.len(), Gate::CODES);
        for (code, gate) in gates.iter().enumerate() {
            assert_eq!(gate.code() as usize, code, "{gate}");
            let mut angles = gate.params().into_iter();
            let decoded = Gate::from_code(gate.code(), || angles.next().ok_or(()));
            let decoded = decoded.unwrap().unwrap();
            assert_eq!(angles.next(), None, "{gate} reads every angle it wrote");
            let bits = |gate: &Gate| gate.params().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!((decoded.name(), bits(&decoded)), (gate.name(), bits(gate)));
        }
        let unknown = Gate::from_code(Gate::CODES as u8, || Err::<f64, ()>(()));
        assert_eq!(unknown, Ok(None));
        assert_eq!(Gate::from_code(14, || Err::<f64, &str>("short")), Err("short"));
    }

    #[test]
    fn names_are_lowercase_and_stable() {
        for g in [Gate::I, Gate::H, Gate::SqrtX, Gate::Cx, Gate::CPhase(0.1)] {
            assert!(g.name().chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        }
    }
}
