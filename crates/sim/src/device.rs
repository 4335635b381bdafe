//! A simulated quantum device with a qubit budget, optional noise, and
//! shots-based execution — the stand-in for the small quantum computers
//! (e.g. the 7-qubit IBM Lagos and hypothetical 3/4-qubit devices) the paper
//! runs subcircuits on.

use crate::compile::{
    interpreted_forced_by_env, CompileCounters, CompileStats, FramedProgram, Measurements,
};
use crate::expectation::{expectation_from_counts, measurement_circuit};
use crate::noise::NoiseModel;
use crate::{Counts, SimError, StateVector};
use qrcc_circuit::observable::PauliObservable;
use qrcc_circuit::{Circuit, Operation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of a [`Device`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Number of physical qubits the device offers.
    pub num_qubits: usize,
    /// Gate/readout noise applied during execution.
    pub noise: NoiseModel,
    /// Whether the device supports mid-circuit measurement and reset (the
    /// Measure-and-Reset functionality qubit reuse relies on).
    pub supports_mid_circuit: bool,
    /// Base seed for shot sampling; every execution derives a fresh stream
    /// from it so results are reproducible run-to-run.
    pub seed: u64,
    /// Forces the interpreted per-gate simulator — one trajectory per shot —
    /// for noiseless execution instead of one sampled readout of the
    /// compiled kernel program (noisy execution is always interpreted:
    /// per-gate noise anchors to gate boundaries, which fusion would erase).
    /// The `QRCC_SIM_INTERPRETED=1` environment variable forces this at
    /// [`Device::new`] time for differential testing.
    pub interpreted: bool,
}

impl DeviceConfig {
    /// An ideal (noiseless) device with `num_qubits` qubits and mid-circuit
    /// measurement support.
    pub fn ideal(num_qubits: usize) -> Self {
        DeviceConfig {
            num_qubits,
            noise: NoiseModel::noiseless(),
            supports_mid_circuit: true,
            seed: 0,
            interpreted: false,
        }
    }

    /// A noisy device using the given noise model.
    pub fn noisy(num_qubits: usize, noise: NoiseModel) -> Self {
        DeviceConfig { num_qubits, noise, supports_mid_circuit: true, seed: 0, interpreted: false }
    }

    /// Sets the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables mid-circuit measurement/reset support.
    pub fn without_mid_circuit(mut self) -> Self {
        self.supports_mid_circuit = false;
        self
    }

    /// Opts out of compiled kernel execution (differential-testing path).
    pub fn interpreted(mut self) -> Self {
        self.interpreted = true;
        self
    }
}

/// A simulated quantum device.
///
/// ```rust
/// use qrcc_circuit::Circuit;
/// use qrcc_sim::device::{Device, DeviceConfig};
///
/// let device = Device::new(DeviceConfig::ideal(3));
/// let mut ghz = Circuit::new(3);
/// ghz.h(0).cx(0, 1).cx(1, 2).measure_all();
/// let counts = device.execute(&ghz, 1000).unwrap();
/// assert_eq!(counts.shots(), 1000);
/// ```
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    executions: AtomicU64,
    /// What the compiled path compiled, summed over every execution.
    compiled: CompileCounters,
    /// Resolved at construction: config opt-out or `QRCC_SIM_INTERPRETED`.
    use_compiled: bool,
}

impl Device {
    /// Creates a device from its configuration.
    pub fn new(config: DeviceConfig) -> Self {
        let use_compiled = !config.interpreted && !interpreted_forced_by_env();
        Device {
            config,
            executions: AtomicU64::new(0),
            compiled: CompileCounters::new(),
            use_compiled,
        }
    }

    /// An ideal (noiseless) device with `num_qubits` qubits.
    pub fn ideal(num_qubits: usize) -> Self {
        Self::new(DeviceConfig::ideal(num_qubits))
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Number of `execute` calls made so far (useful for accounting how many
    /// subcircuit instances a cutting plan required).
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// Reserves `n` consecutive sampling-stream ids, returning the first.
    ///
    /// Batch executors grab a contiguous stream block up front and assign
    /// stream `base + i` to the `i`-th circuit, which makes a parallel batch
    /// reproduce the serial execution of the same circuits in order,
    /// independent of thread scheduling.
    pub fn reserve_streams(&self, n: u64) -> u64 {
        self.executions.fetch_add(n, Ordering::Relaxed)
    }

    fn rng_for_stream(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.config.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next_rng(&self) -> StdRng {
        let n = self.executions.fetch_add(1, Ordering::Relaxed);
        self.rng_for_stream(n)
    }

    /// Checks that `circuit` could run on this device, without executing it
    /// or consuming a sampling stream. Batch executors use this to assign
    /// streams only to circuits that will actually run.
    ///
    /// # Errors
    ///
    /// Same width / mid-circuit conditions as [`Device::execute`].
    pub fn validate(&self, circuit: &Circuit) -> Result<(), SimError> {
        self.check_width(circuit)?;
        self.check_mid_circuit(|| needs_mid_circuit(circuit))
    }

    fn check_width(&self, circuit: &Circuit) -> Result<(), SimError> {
        if circuit.num_qubits() > self.config.num_qubits {
            return Err(SimError::TooManyQubits {
                required: circuit.num_qubits(),
                available: self.config.num_qubits,
            });
        }
        Ok(())
    }

    /// `reuses_wires` is asked only of a device without mid-circuit support.
    fn check_mid_circuit(&self, reuses_wires: impl FnOnce() -> bool) -> Result<(), SimError> {
        if !self.config.supports_mid_circuit && reuses_wires() {
            return Err(SimError::MidCircuitUnsupported);
        }
        Ok(())
    }

    /// Executes `circuit` for `shots` shots and returns the histogram over
    /// its classical bits. Circuits without any measurement are measured on
    /// every qubit at the end (classical bit `i` = qubit `i`).
    ///
    /// # Cost
    ///
    /// A **noiseless** device compiles the circuit on the calling thread
    /// ([`FramedProgram::compile`]; nothing compiled is kept) and runs the
    /// program as one sampled readout ([`FramedProgram::sample`]): the
    /// state is swept once per kernel and *leaf*, not once per shot.
    /// Terminal measures never branch; at a mid-circuit measure or reset
    /// the shots are dealt to the two outcomes with one binomial draw and
    /// only outcomes that were dealt a shot are followed, so there are at
    /// most `min(shots, 2^branch points)` leaves — one for an all-measured circuit — and a leaf deals
    /// its shots over `|ψ|²` as one multinomial. The cost is
    /// O(leaves·kernels·2^n) plus one O(1)-expected binomial draw per node
    /// the deals visit: it does not grow with the shots.
    ///
    /// A **noisy** device runs one interpreted per-gate trajectory per shot,
    /// O(shots·gates·2^n): stochastic per-gate noise anchors to gate
    /// boundaries, which kernel fusion would erase. A noiseless device opted
    /// out of compilation ([`DeviceConfig::interpreted`],
    /// `QRCC_SIM_INTERPRETED=1`) runs the same trajectories — the oracle the
    /// sampled readout is tested against.
    ///
    /// # Seeded counts
    ///
    /// The histogram is a function of `(seed, stream)` alone, whatever the
    /// thread count or the order a batch runs in. The sampled readout deals
    /// shots in tree order with binomial draws where the trajectories make
    /// one draw per shot and measurement, so the seeded counts of noiseless
    /// circuits differ from the interpreted device's while following the
    /// same distribution, the one [`FramedProgram::read_out`] computes
    /// exactly. A circuit whose measures are all terminal is one leaf, whose
    /// counts are the ones [`StateVector::sample_counts`] draws from the
    /// final state with the same stream.
    ///
    /// # Errors
    ///
    /// * [`SimError::TooManyQubits`] if the circuit is wider than the device.
    /// * [`SimError::MidCircuitUnsupported`] if the circuit needs mid-circuit
    ///   measurement or reset and the device does not support it.
    /// * [`SimError::ZeroShots`] if `shots == 0`.
    ///
    pub fn execute(&self, circuit: &Circuit, shots: u64) -> Result<Counts, SimError> {
        self.execute_with_rng(circuit, shots, || self.next_rng())
    }

    /// Executes `circuit` on an explicit sampling stream (see
    /// [`Device::reserve_streams`]) instead of the device's internal counter.
    ///
    /// Running stream `base + i` for the `i`-th circuit of a batch reproduces
    /// exactly what serial [`Device::execute`] calls in the same order would
    /// sample, which keeps parallel batch execution deterministic.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Device::execute`].
    pub fn execute_stream(
        &self,
        circuit: &Circuit,
        shots: u64,
        stream: u64,
    ) -> Result<Counts, SimError> {
        self.execute_with_rng(circuit, shots, || self.rng_for_stream(stream))
    }

    fn execute_with_rng(
        &self,
        circuit: &Circuit,
        shots: u64,
        make_rng: impl FnOnce() -> StdRng,
    ) -> Result<Counts, SimError> {
        if shots == 0 {
            return Err(SimError::ZeroShots);
        }
        let mut circuit = Cow::Borrowed(circuit);
        if !circuit.operations().iter().any(Operation::is_measure) {
            circuit.to_mut().measure_all();
        }
        let circuit = &*circuit;

        if self.use_compiled && self.config.noise.is_noiseless() {
            // One sampled readout: the program classified its measurements
            // when it was compiled, and that is the only classification.
            self.check_width(circuit)?;
            let program = FramedProgram::compile(circuit);
            self.compiled.add(&program);
            self.check_mid_circuit(|| program.reuses_wires())?;
            return Ok(program.sample(shots, &mut make_rng())?.counts);
        }

        // Interpreted trajectories: one per-gate state-vector run per shot.
        // Noisy execution always lands here — stochastic per-gate noise
        // anchors to gate boundaries, which kernel fusion would erase.
        self.validate(circuit)?;
        let mut rng = make_rng();
        let mut counts = Counts::new(circuit.num_clbits());
        for _ in 0..shots {
            let bits = self.run_single_trajectory(circuit, &mut rng)?;
            counts.record_bits(&bits);
        }
        Ok(counts)
    }

    /// Kernel-compilation telemetry summed over every circuit this device
    /// compiled (`None` when the device runs the interpreted path).
    pub fn compile_stats(&self) -> Option<CompileStats> {
        self.use_compiled.then(|| self.compiled.stats())
    }

    fn run_single_trajectory(
        &self,
        circuit: &Circuit,
        rng: &mut StdRng,
    ) -> Result<Vec<bool>, SimError> {
        let mut state = StateVector::new(circuit.num_qubits());
        let mut clbits = vec![false; circuit.num_clbits()];
        for op in circuit.operations() {
            match op {
                Operation::Single { gate, qubit } => {
                    state.apply_gate(gate, &[*qubit]);
                    self.config.noise.apply_gate_noise(&mut state, &[*qubit], rng);
                }
                Operation::Two { gate, qubits } => {
                    state.apply_gate(gate, qubits);
                    self.config.noise.apply_gate_noise(&mut state, qubits, rng);
                }
                Operation::Measure { qubit, clbit } => {
                    let outcome = state.measure(*qubit, rng);
                    clbits[*clbit] = self.config.noise.apply_readout(outcome, rng);
                }
                Operation::Reset { qubit } => {
                    state.reset(*qubit, rng);
                }
                Operation::Barrier { .. } => {}
            }
        }
        Ok(clbits)
    }

    /// Estimates the expectation value of `observable` on the state prepared
    /// by the (unitary) `circuit`, using `shots` shots per Pauli term.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ObservableWidthMismatch`] when the observable and
    /// circuit widths differ, plus any error from [`Device::execute`].
    pub fn estimate_expectation(
        &self,
        circuit: &Circuit,
        observable: &PauliObservable,
        shots: u64,
    ) -> Result<f64, SimError> {
        if observable.num_qubits() != circuit.num_qubits() {
            return Err(SimError::ObservableWidthMismatch {
                observable: observable.num_qubits(),
                circuit: circuit.num_qubits(),
            });
        }
        let mut total = 0.0;
        for (coeff, string) in observable.terms() {
            if string.is_identity() {
                total += coeff;
                continue;
            }
            let mc = measurement_circuit(circuit, string);
            let counts = self.execute(&mc, shots)?;
            total += coeff * expectation_from_counts(&counts, string.support().len());
        }
        Ok(total)
    }
}

/// Whether the circuit requires mid-circuit measurement or reset support:
/// it contains a reset, or a measurement that is followed by another
/// operation on the same qubit. Linear in the circuit.
pub fn needs_mid_circuit(circuit: &Circuit) -> bool {
    Measurements::of_circuit(circuit).reuses_wires
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrcc_circuit::observable::PauliString;

    #[test]
    fn execute_counts_total_shots() {
        let device = Device::ideal(2);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let counts = device.execute(&c, 500).unwrap();
        assert_eq!(counts.shots(), 500);
        // only 00 and 11 should appear for a Bell state on an ideal device
        assert_eq!(counts.count(0b01), 0);
        assert_eq!(counts.count(0b10), 0);
    }

    #[test]
    fn implicit_measure_all_when_no_measurements() {
        let device = Device::ideal(2);
        let mut c = Circuit::new(2);
        c.x(1);
        let counts = device.execute(&c, 100).unwrap();
        assert_eq!(counts.count(0b10), 100);
    }

    #[test]
    fn width_limit_is_enforced() {
        let device = Device::ideal(2);
        let c = Circuit::new(3);
        assert!(matches!(device.execute(&c, 10), Err(SimError::TooManyQubits { .. })));
    }

    #[test]
    fn mid_circuit_support_flag_is_respected() {
        let config = DeviceConfig::ideal(2).without_mid_circuit();
        let device = Device::new(config);
        let mut c = Circuit::new(2);
        c.h(0).measure(0, 0).reset(0).h(0).measure(0, 1);
        assert!(matches!(device.execute(&c, 10), Err(SimError::MidCircuitUnsupported)));
        let permissive = Device::ideal(2);
        assert!(permissive.execute(&c, 10).is_ok());
    }

    #[test]
    fn needs_mid_circuit_detection() {
        let mut terminal = Circuit::new(2);
        terminal.h(0).cx(0, 1).measure_all();
        assert!(!needs_mid_circuit(&terminal));
        let mut reuse = Circuit::new(1);
        reuse.h(0).measure(0, 0).h(0);
        assert!(needs_mid_circuit(&reuse));
        let mut with_reset = Circuit::new(1);
        with_reset.reset(0);
        assert!(needs_mid_circuit(&with_reset));
    }

    #[test]
    fn noisy_execution_degrades_ghz_fidelity() {
        let mut ghz = Circuit::new(4);
        ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();
        let ideal = Device::ideal(4);
        let noisy = Device::new(DeviceConfig::noisy(4, NoiseModel::uniform(0.05)).with_seed(3));
        let ideal_counts = ideal.execute(&ghz, 2000).unwrap();
        let noisy_counts = noisy.execute(&ghz, 2000).unwrap();
        let good = |c: &Counts| (c.count(0b0000) + c.count(0b1111)) as f64 / c.shots() as f64;
        assert!(good(&ideal_counts) > 0.999);
        assert!(good(&noisy_counts) < 0.95);
    }

    #[test]
    fn expectation_estimation_matches_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(0.6, 2).cz(1, 2);
        let mut obs = PauliObservable::new(3);
        obs.add_term(0.7, PauliString::zz(3, 0, 1));
        obs.add_term(-0.4, PauliString::z(3, 2));
        obs.add_term(0.25, PauliString::identity(3));
        let exact = StateVector::from_circuit(&c).unwrap().expectation(&obs);
        let device = Device::new(DeviceConfig::ideal(3).with_seed(9));
        let estimate = device.estimate_expectation(&c, &obs, 40_000).unwrap();
        assert!((estimate - exact).abs() < 0.02, "estimate {estimate} vs exact {exact}");
    }

    #[test]
    fn expectation_estimation_rejects_width_mismatch() {
        let device = Device::ideal(3);
        let c = Circuit::new(2);
        let obs = PauliObservable::all_z(3);
        assert!(matches!(
            device.estimate_expectation(&c, &obs, 10),
            Err(SimError::ObservableWidthMismatch { .. })
        ));
    }

    #[test]
    fn execution_counter_increments() {
        let device = Device::ideal(1);
        let mut c = Circuit::new(1);
        c.h(0).measure(0, 0);
        assert_eq!(device.executions(), 0);
        device.execute(&c, 10).unwrap();
        device.execute(&c, 10).unwrap();
        assert_eq!(device.executions(), 2);
    }

    #[test]
    fn explicit_streams_reproduce_serial_execution() {
        let mut terminal = Circuit::new(2);
        terminal.h(0).ry(0.7, 1).cx(0, 1).measure_all();
        let mut reuse = Circuit::with_clbits(2, 3);
        reuse.h(0).cx(0, 1).measure(0, 0).reset(0).ry(0.7, 0).measure(0, 1).measure(1, 2);
        // noisy: one trajectory per shot; noiseless reuse: one sampled readout
        for (config, c) in [
            (DeviceConfig::noisy(2, NoiseModel::uniform(0.02)).with_seed(9), &terminal),
            (DeviceConfig::ideal(2).with_seed(9), &reuse),
        ] {
            // serial: three executes consume streams 0, 1, 2
            let serial = Device::new(config);
            let serial_counts: Vec<Counts> =
                (0..3).map(|_| serial.execute(c, 500).unwrap()).collect();
            assert_ne!(serial_counts[0], serial_counts[1], "streams differ");
            // batched: reserve the same stream block up front, run in any order
            let batched = Device::new(config);
            let base = batched.reserve_streams(3);
            assert_eq!(base, 0);
            for i in [2usize, 0, 1] {
                let counts = batched.execute_stream(c, 500, base + i as u64).unwrap();
                assert_eq!(counts, serial_counts[i], "stream {i} must match serial run {i}");
            }
            assert_eq!(batched.executions(), 3);
        }
    }

    #[test]
    fn compile_stats_sum_every_circuit_the_device_compiled() {
        let mut reuse = Circuit::with_clbits(2, 2);
        reuse.h(0).cx(0, 1).measure(0, 0).reset(0).ry(0.7, 0).measure(0, 1);
        let mut unmeasured = Circuit::new(2);
        unmeasured.h(0).t(0).cz(0, 1);
        let device = Device::new(DeviceConfig::ideal(2).with_seed(4));
        for circuit in [&reuse, &unmeasured, &reuse] {
            device.execute(circuit, 50).unwrap();
        }
        let Some(stats) = device.compile_stats() else {
            return; // differential CI leg: the interpreted device compiles nothing
        };
        // an unmeasured circuit runs measured on every wire
        let mut measured = unmeasured.clone();
        measured.measure_all();
        let mut expected = CompileStats::default();
        for circuit in [&reuse, &measured, &reuse] {
            expected.merge(FramedProgram::compile(circuit).stats());
        }
        assert_eq!(stats, expected);
        // each reuse run branches twice and reads one clbit at the end
        assert_eq!((stats.branch_points, stats.terminal_measures), (4, 2 + 2));
    }

    #[test]
    fn all_terminal_execution_samples_the_final_state_once() {
        // No branch point: the shots are the draws `sample_counts` makes from
        // the final state, in basis-index order — the seeded counts this
        // device has always produced for all-measured circuits.
        let mut unitary = Circuit::new(3);
        unitary.h(0).cx(0, 1).ry(0.6, 2).cz(1, 2).rx(0.3, 0);
        let mut measured = unitary.clone();
        measured.measure_all();
        let device = Device::new(DeviceConfig::ideal(3).with_seed(21));
        if !device.use_compiled {
            return; // differential CI leg: the oracle runs trajectories
        }
        let state = FramedProgram::compile(&unitary).run_unitary().unwrap();
        let expected = state.sample_counts(700, &mut device.rng_for_stream(0)).unwrap();
        assert_eq!(device.execute(&measured, 700).unwrap(), expected);
        // an unmeasured circuit is measured on every wire: the same program
        let expected = state.sample_counts(700, &mut device.rng_for_stream(1)).unwrap();
        assert_eq!(device.execute(&unitary, 700).unwrap(), expected);
    }
}
