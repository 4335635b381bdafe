//! Property-based end-to-end tests: for randomly generated small circuits,
//! the QRCC pipeline must (i) respect the device budget, (ii) produce a
//! normalised distribution, and (iii) agree with direct state-vector
//! simulation.

use proptest::prelude::*;
use qrcc::prelude::*;
use std::time::Duration;

/// Random 4–5 qubit circuits built from the cuttable gate set.
fn random_circuit() -> impl Strategy<Value = Circuit> {
    let n = 5usize;
    let gate = (0..6usize, 0..n, 0..n, -2.0f64..2.0);
    proptest::collection::vec(gate, 4..20).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        // make sure the circuit is wide enough that cutting is required
        c.h(0).cx(0, 1).cx(2, 3).cx(3, 4);
        for (kind, a, b, theta) in gates {
            let a = a % n;
            let b = b % n;
            match kind {
                0 => {
                    c.h(a);
                }
                1 => {
                    c.ry(theta, a);
                }
                2 => {
                    c.rz(theta, a);
                }
                3 if a != b => {
                    c.cx(a, b);
                }
                4 if a != b => {
                    c.rzz(theta, a, b);
                }
                5 if a != b => {
                    c.cz(a, b);
                }
                _ => {
                    c.t(a);
                }
            }
        }
        c
    })
}

fn config() -> QrccConfig {
    QrccConfig::new(4).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipeline_reproduces_random_circuits(circuit in random_circuit()) {
        let pipeline = match QrccPipeline::plan(&circuit, config()) {
            Ok(p) => p,
            // Some random circuits cannot be cut for a 4-qubit device within
            // the small subcircuit range; that is a legitimate planner answer.
            Err(_) => return Ok(()),
        };
        prop_assert!(pipeline.plan_ref().subcircuit_widths().iter().all(|&w| w <= 4));
        // keep the reconstruction cheap: skip pathological plans with many cuts
        prop_assume!(pipeline.plan_ref().wire_cut_count() <= 5);
        let mut registry = DeviceRegistry::new();
        registry.register("exact", ExactBackend::new());
        let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
        let (reconstructed, _, _) = pipeline.execute_streaming(&scheduler).unwrap();
        let total: f64 = reconstructed.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "distribution total {total}");
        let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();
        for (a, b) in exact.iter().zip(&reconstructed) {
            prop_assert!((a - b).abs() < 1e-6, "mismatch {a} vs {b}");
        }
    }
}
