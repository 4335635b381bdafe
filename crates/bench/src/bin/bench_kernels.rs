//! Kernel-compiler benchmark: interpreted vs compiled wall-clock per gate
//! family and per benchmark circuit family, with the compiler's fusion and
//! specialization coverage, plus a `readout.*` group timing the exact
//! classical distribution `ExactBackend` actually asks for — compiled
//! readout (terminal measures never branch) against the interpreted
//! every-measure-branches oracle — and a `sample.*` group timing what
//! `ShotsBackend` asks for: a noiseless device's shots, as one sampled
//! readout of the compiled program against the device's trajectory oracle
//! (`Device::execute_trajectories`, one per-gate trajectory per shot).
//! Writes `BENCH_kernels.json` in the working directory.
//!
//! Usage: `cargo run --release -p qrcc-bench --bin bench_kernels [--smoke]`
//!
//! A `kernel.*` group times each kernel class alone at 8 and 12 qubits:
//! the portable sweep body against the one `Kernel::apply` dispatches to on
//! this CPU (the AVX2 build where the CPU has it).
//!
//! `--smoke` runs scaled-down sizes and exits non-zero unless the compiled
//! path is at least as fast as the interpreter on the fusion-heavy family,
//! on the all-terminal readout row and on every `sample.*` row, unless no
//! kernel class runs clearly slower dispatched than portable, and unless
//! the compiled sampling of the REG-8 variant at 2^20 shots takes at most 8×
//! its time at 1 024 (median of several runs each) — the CI guard against
//! compiled-path regressions and against a sampling cost that grows with
//! the shots. The full run records the numbers quoted in the README.

use qrcc_circuit::generators::{self, HamiltonianKind};
use qrcc_circuit::observable::PauliObservable;
use qrcc_circuit::Circuit;
use qrcc_core::fragment::FragmentSet;
use qrcc_core::obs::{bench_json, MetricsSnapshot};
use qrcc_core::planner::CutPlanner;
use qrcc_core::reconstruct::ExpectationReconstructor;
use qrcc_core::QrccConfig;
use qrcc_sim::branching;
use qrcc_sim::compile::{FramedProgram, Kernel};
use qrcc_sim::device::{Device, DeviceConfig};
use qrcc_sim::{Complex, StateVector};
use std::time::{Duration, Instant};

/// One measured row: a named circuit, both wall-clocks, and the compiler's
/// view of it.
struct Row {
    name: String,
    qubits: usize,
    gates: usize,
    kernels: usize,
    interpreted_ms: f64,
    compiled_ms: f64,
    compile_ms: f64,
    fusion_ratio: f64,
    coverage: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        if self.compiled_ms > 0.0 {
            self.interpreted_ms / self.compiled_ms
        } else {
            f64::INFINITY
        }
    }

    /// Folds this row into the snapshot behind the shared bench schema,
    /// namespaced `{group}.{family}.{field}` (counts as counters, timings
    /// and ratios as gauges).
    fn fold_into(&self, group: &str, snapshot: MetricsSnapshot) -> MetricsSnapshot {
        let key = |field: &str| format!("{group}.{}.{field}", self.name);
        snapshot
            .with_counter(&key("qubits"), self.qubits as u64)
            .with_counter(&key("gates"), self.gates as u64)
            .with_counter(&key("kernels"), self.kernels as u64)
            .with_gauge(&key("interpreted_ms"), self.interpreted_ms)
            .with_gauge(&key("compiled_ms"), self.compiled_ms)
            .with_gauge(&key("compile_ms"), self.compile_ms)
            .with_gauge(&key("speedup"), self.speedup())
            .with_gauge(&key("fusion_ratio"), self.fusion_ratio)
            .with_gauge(&key("coverage"), self.coverage)
    }
}

/// Best-of-`reps` wall-clock of `f`, in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Measures one unitary circuit: interpreted `StateVector::from_circuit` vs
/// the compiled program's `run_unitary`, plus one-shot compile cost.
fn measure(name: &str, circuit: &Circuit, reps: usize) -> Row {
    measure_with(
        name,
        circuit,
        (reps, reps),
        |circuit| drop(StateVector::from_circuit(circuit).unwrap()),
        |program| drop(program.run_unitary().unwrap()),
    )
}

/// Measures the exact readout of one measured circuit: the interpreted
/// branching oracle vs the compiled program's `classical_distribution`.
fn measure_readout(name: &str, circuit: &Circuit, reps: usize) -> Row {
    measure_with(
        name,
        circuit,
        (reps, reps),
        |circuit| drop(branching::classical_distribution(circuit).unwrap()),
        |program| drop(program.classical_distribution().unwrap()),
    )
}

/// Median-of-`reps` wall-clock of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

/// A seeded noiseless device as wide as `circuit`: it samples the compiled
/// program.
fn sampling_device(circuit: &Circuit) -> Device {
    Device::new(DeviceConfig::ideal(circuit.num_qubits()).with_seed(1))
}

/// Measures `shots` shots of one measured circuit on a noiseless device:
/// its trajectory oracle (one per-gate trajectory per shot, best of
/// `oracle_reps`) vs its execution (frames lowered and measurements
/// classified per call, then one sampled readout, best of `reps`).
fn measure_sampling(
    name: &str,
    circuit: &Circuit,
    shots: u64,
    reps: usize,
    oracle_reps: usize,
) -> Row {
    let device = sampling_device(circuit);
    measure_with(
        name,
        circuit,
        (oracle_reps, reps),
        |circuit| drop(device.execute_trajectories(circuit, shots, 0).unwrap()),
        |_| drop(device.execute(circuit, shots).unwrap()),
    )
}

/// Times `interpreted` and `compiled`, best of `reps.0` and `reps.1` runs.
fn measure_with(
    name: &str,
    circuit: &Circuit,
    reps: (usize, usize),
    interpreted: impl Fn(&Circuit),
    compiled: impl Fn(&FramedProgram),
) -> Row {
    let t = Instant::now();
    let program = FramedProgram::compile(circuit);
    let compile_ms = t.elapsed().as_secs_f64() * 1e3;
    let interpreted_ms = time_ms(reps.0, || interpreted(circuit));
    let compiled_ms = time_ms(reps.1, || compiled(&program));
    let stats = program.stats();
    Row {
        name: name.to_string(),
        qubits: circuit.num_qubits(),
        gates: stats.gates_in as usize,
        kernels: stats.kernels_out as usize,
        interpreted_ms,
        compiled_ms,
        compile_ms,
        fusion_ratio: stats.fusion_ratio(),
        coverage: stats.coverage(),
    }
}

/// One kernel class's sweep cost at one width: the portable body against
/// the body `Kernel::apply` dispatches to on this CPU (the AVX2 one where
/// the CPU has it), in nanoseconds per kernel.
struct KernelRow {
    class: &'static str,
    qubits: usize,
    portable_ns: f64,
    dispatched_ns: f64,
}

impl KernelRow {
    fn fold_into(&self, snapshot: MetricsSnapshot) -> MetricsSnapshot {
        let key = |field: &str| format!("kernel.{}_{}q.{field}", self.class, self.qubits);
        snapshot
            .with_gauge(&key("portable_ns"), self.portable_ns)
            .with_gauge(&key("dispatched_ns"), self.dispatched_ns)
            .with_gauge(&key("speedup"), self.portable_ns / self.dispatched_ns)
    }
}

/// How a kernel class is produced: a one-gate circuit on qubit `q` of `n`,
/// and the class its compiled kernel must land in.
struct KernelClass {
    name: &'static str,
    place: fn(&mut Circuit, usize, usize),
    is: fn(&Kernel) -> bool,
}

const KERNEL_CLASSES: [KernelClass; 7] = [
    KernelClass {
        name: "Unary",
        place: |c, q, _| {
            c.u3(0.3, 0.2, 0.4, q);
        },
        is: |k| matches!(k, Kernel::Unary { .. }),
    },
    KernelClass {
        name: "Diag1",
        place: |c, q, _| {
            c.rz(0.3, q);
        },
        is: |k| matches!(k, Kernel::Diag1 { .. }),
    },
    KernelClass {
        name: "Flip1",
        place: |c, q, _| {
            c.x(q);
        },
        is: |k| matches!(k, Kernel::Flip1 { .. }),
    },
    KernelClass {
        name: "Diag2",
        place: |c, q, n| {
            c.cp(0.3, q, (q + 1) % n);
        },
        is: |k| matches!(k, Kernel::Diag2 { .. }),
    },
    KernelClass {
        name: "SwapPerm",
        place: |c, q, n| {
            c.swap(q, (q + 1) % n);
        },
        is: |k| matches!(k, Kernel::SwapPerm { .. }),
    },
    KernelClass {
        name: "CFlip",
        place: |c, q, n| {
            c.cx(q, (q + 1) % n);
        },
        is: |k| matches!(k, Kernel::CFlip { .. }),
    },
    KernelClass {
        name: "Two",
        place: |c, q, n| {
            c.rxx(0.4, q, (q + 1) % n);
        },
        is: |k| matches!(k, Kernel::Two { .. }),
    },
];

/// Times one kernel class on an `n`-qubit state, its gate placed on every
/// qubit in turn: the portable body and the dispatched one, alternating
/// best-of-`reps` rounds of about 2^22 amplitude updates each.
fn measure_kernel_class(class: &KernelClass, n: usize, reps: usize) -> KernelRow {
    let kernels: Vec<Kernel> = (0..n)
        .flat_map(|q| {
            let mut c = Circuit::new(n);
            (class.place)(&mut c, q, n);
            FramedProgram::compile(&c).kernels().to_vec()
        })
        .collect();
    assert!(
        kernels.len() == n && kernels.iter().all(class.is),
        "{} gates lower to one {} kernel each",
        n,
        class.name
    );
    let mut amps = vec![Complex::real((1.0 / (1u64 << n) as f64).sqrt()); 1 << n];
    let rounds = ((1usize << 22) >> n).max(1);
    let per_kernel = 1e6 / (rounds * kernels.len()) as f64;
    let (mut portable_ms, mut dispatched_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        portable_ms = portable_ms.min(time_ms(1, || {
            for _ in 0..rounds {
                kernels.iter().for_each(|k| k.apply_portable(&mut amps));
            }
        }));
        dispatched_ms = dispatched_ms.min(time_ms(1, || {
            for _ in 0..rounds {
                kernels.iter().for_each(|k| k.apply(&mut amps));
            }
        }));
    }
    KernelRow {
        class: class.name,
        qubits: n,
        portable_ns: portable_ms * per_kernel,
        dispatched_ns: dispatched_ms * per_kernel,
    }
}

/// Fusion-heavy family: long single-qubit runs with a sparse entangling
/// skeleton — the workload the compiler exists for, and the smoke gate.
fn fusion_heavy(n: usize, depth: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for layer in 0..depth {
        for q in 0..n {
            let t = 0.1 + 0.01 * (layer * n + q) as f64;
            c.h(q).rz(t, q).s(q).u3(t, 0.2, 0.4, q).t(q).rx(1.3 * t, q);
        }
        c.cx(layer % n, (layer + 1) % n);
    }
    c
}

/// Diagonal family: multiply-only sweeps (rz/t/s/cz/cp/rzz).
fn diagonal(n: usize, depth: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    c.barrier();
    for layer in 0..depth {
        for q in 0..n {
            c.rz(0.2 + 0.01 * q as f64, q).t(q);
        }
        for q in 0..n - 1 {
            if (layer + q) % 2 == 0 {
                c.cz(q, q + 1);
            } else {
                c.cp(0.3, q, q + 1);
            }
        }
        c.barrier();
    }
    c
}

/// Permutation family: index remaps and controlled flips (x/swap/cx/cy).
fn permutation(n: usize, depth: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    c.barrier();
    for layer in 0..depth {
        for q in 0..n {
            c.x(q);
        }
        c.barrier();
        for q in 0..n - 1 {
            if (layer + q) % 2 == 0 {
                c.cx(q, q + 1);
            } else {
                c.swap(q, q + 1);
            }
        }
        c.barrier();
    }
    c
}

/// Dense two-qubit family: rxx/ryy kernels the compiler cannot specialize —
/// the floor case where compiled ≈ interpreted.
fn dense_2q(n: usize, depth: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    c.barrier();
    for layer in 0..depth {
        for q in 0..n - 1 {
            if (layer + q) % 2 == 0 {
                c.rxx(0.4, q, q + 1);
            } else {
                c.ryy(0.3, q, q + 1);
            }
        }
        c.barrier();
    }
    c
}

/// One all-measured VQE layer: every measure is terminal, so the compiled
/// readout is one leaf where the oracle builds `2^n` states.
fn vqe_all_measured(n: usize) -> Circuit {
    let mut c = generators::vqe_two_local(n, 1, 13);
    c.measure_all();
    c
}

/// A qubit-reuse chain: one wire of `n` is measured, reset and re-entangled
/// `pairs` times (every pair is two branch points), then the rest are read
/// out — the shape where both paths have to branch.
fn reuse_chain(n: usize, pairs: usize) -> Circuit {
    let mut c = Circuit::with_clbits(n, pairs + n - 1);
    for round in 0..pairs {
        c.h(0).cx(0, 1 + round % (n - 1)).measure(0, round).reset(0);
    }
    for q in 1..n {
        c.ry(0.3 * q as f64, q).measure(q, pairs + q - 1);
    }
    c
}

/// A variant with three branch points of the plan the pipeline ledger
/// samples: REG-8 QAOA cut for a 5-qubit device (1 wire + 3 gate cuts),
/// where every measuring gate-cut instance is a mid-circuit measure.
fn reg8_gate_cut_variant() -> Circuit {
    let (circuit, graph) = generators::qaoa_regular(8, 3, 1, 3);
    let config = QrccConfig::new(5).with_gate_cuts(true).with_ilp_time_limit(Duration::ZERO);
    let plan = CutPlanner::new(config).plan(&circuit).expect("REG-8 fits a 5-qubit device");
    let fragments = FragmentSet::from_plan(&plan).expect("the plan fragments");
    let requests = ExpectationReconstructor::new()
        .requests(&fragments, &PauliObservable::maxcut(&graph))
        .expect("the plan is reconstructible");
    requests
        .iter()
        .map(|request| fragments.instantiate_key(&request.key).expect("enumerated keys are valid"))
        .find(|variant| FramedProgram::compile(variant).stats().branch_points == 3)
        .expect("some variant measures at all three of its gate-cut instances")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, depth, reps) = if smoke { (12, 8, 3) } else { (16, 16, 5) };

    println!("kernel benchmark: {n} qubits, depth {depth}, best of {reps} runs\n");
    let header = format!(
        "{:<16} {:>6} {:>8} {:>12} {:>12} {:>8} {:>7} {:>9}",
        "family", "gates", "kernels", "interp (ms)", "compiled", "speedup", "fusion", "coverage"
    );

    println!("-- gate families --\n{header}");
    let gate_families: Vec<Row> = vec![
        measure("fusion_heavy", &fusion_heavy(n, depth), reps),
        measure("diagonal", &diagonal(n, depth), reps),
        measure("permutation", &permutation(n, depth), reps),
        measure("dense_2q", &dense_2q(n, depth), reps),
    ];
    for row in &gate_families {
        print_row(row);
    }

    let (sup_r, sup_c) = if smoke { (3, 4) } else { (4, 4) };
    println!("\n-- benchmark circuit families --\n{header}");
    let circuit_families: Vec<Row> = vec![
        measure("QFT", &generators::qft(n), reps),
        measure("AQFT", &generators::aqft(n, n / 2), reps),
        measure("SPM", &generators::supremacy(sup_r, sup_c, 8, 7), reps),
        measure("ADD", &generators::ripple_carry_adder((n - 2) / 2, 11), reps),
        measure("REG", &generators::qaoa_regular(n, 3, 2, 5).0, reps),
        measure(
            "TFIM",
            &generators::hamiltonian_simulation(
                HamiltonianKind::TransverseFieldIsing,
                4,
                n / 4,
                false,
                3,
                0.1,
            )
            .0,
            reps,
        ),
        measure("VQE", &generators::vqe_two_local(n, 3, 13), reps),
    ];
    for row in &circuit_families {
        print_row(row);
    }

    println!("\n-- exact readout (interpreted = branching oracle) --\n{header}");
    let readouts: Vec<Row> = vec![
        measure_readout("vqe_terminal", &vqe_all_measured(12), reps),
        measure_readout("reuse_chain", &reuse_chain(4, 9), reps),
    ];
    for row in &readouts {
        print_row(row);
    }

    println!(
        "\n-- shots on a noiseless device (interpreted = one trajectory per shot) --\n{header}"
    );
    let reg8 = reg8_gate_cut_variant();
    let samplings: Vec<Row> = vec![
        // shots ≫ leaves: the trajectories re-prepare each of 8 states 128 times
        measure_sampling("reg8_gate_cut", &reg8, 1024, reps, reps),
        // the same at 2^20 shots: the trajectories' cost is linear in the
        // shots (one run of them is enough), the sampled readout's is not
        measure_sampling("reg8_gate_cut_1m", &reg8, 1 << 20, reps, 1),
        // leaves ≳ shots: min(shots, 2^branch points) keeps it no slower
        measure_sampling("reuse_chain", &reuse_chain(12, 8), 64, reps, reps),
        // one leaf, few shots: what a circuit costs before its first shot
        measure_sampling("vqe_terminal", &vqe_all_measured(5), 256, reps, reps),
    ];
    for row in &samplings {
        print_row(row);
    }

    let isa = if qrcc_sim::compile::avx2_sweeps() { "avx2" } else { "portable" };
    println!(
        "\n-- kernel classes (ns per kernel; dispatched = {isa}) --\n{:<16} {:>6} {:>12} {:>12} {:>8}",
        "class", "qubits", "portable", "dispatched", "speedup"
    );
    let kernel_classes: Vec<KernelRow> = [8, 12]
        .into_iter()
        .flat_map(|n| KERNEL_CLASSES.iter().map(move |class| measure_kernel_class(class, n, reps)))
        .collect();
    for row in &kernel_classes {
        println!(
            "{:<16} {:>6} {:>12.1} {:>12.1} {:>7.2}x",
            row.class,
            row.qubits,
            row.portable_ns,
            row.dispatched_ns,
            row.portable_ns / row.dispatched_ns
        );
    }

    let covered: f64 = circuit_families.iter().map(|r| r.coverage * r.gates as f64).sum();
    let total: f64 = circuit_families.iter().map(|r| r.gates as f64).sum();
    let aggregate_coverage = covered / total;
    println!(
        "\naggregate benchmark coverage: {:.1}% of gates fused or specialized",
        100.0 * aggregate_coverage
    );

    if smoke {
        // CI guard: the compiled path must not lose to the interpreter on the
        // workload it was built for. A small tolerance absorbs timer jitter.
        let row = &gate_families[0];
        assert!(
            row.compiled_ms <= row.interpreted_ms * 1.05,
            "compiled path regressed on {}: {:.3} ms compiled vs {:.3} ms interpreted",
            row.name,
            row.compiled_ms,
            row.interpreted_ms,
        );
        println!(
            "smoke OK: fusion_heavy compiled {:.3} ms <= interpreted {:.3} ms",
            row.compiled_ms, row.interpreted_ms
        );
        // ... nor the readout to the every-measure-branches oracle where no
        // measure has to branch at all.
        let row = &readouts[0];
        assert!(
            row.compiled_ms <= row.interpreted_ms,
            "compiled readout regressed on {}: {:.3} ms compiled vs {:.3} ms oracle",
            row.name,
            row.compiled_ms,
            row.interpreted_ms,
        );
        println!(
            "smoke OK: vqe_terminal readout compiled {:.3} ms <= oracle {:.3} ms",
            row.compiled_ms, row.interpreted_ms
        );
        // ... nor the sampled readout to one trajectory per shot, whether
        // shots outnumber leaves, leaves outnumber shots, or neither matters.
        for row in &samplings {
            assert!(
                row.compiled_ms <= row.interpreted_ms,
                "sampled readout regressed on {}: {:.3} ms compiled vs {:.3} ms trajectories",
                row.name,
                row.compiled_ms,
                row.interpreted_ms,
            );
            println!(
                "smoke OK: {} sampling compiled {:.3} ms <= trajectories {:.3} ms",
                row.name, row.compiled_ms, row.interpreted_ms
            );
        }
        // ... nor a kernel class's dispatched sweep to its portable body
        // (equal code where the CPU lacks AVX2); the tolerance absorbs
        // timer jitter, not a class that vectorizes worse
        for row in &kernel_classes {
            assert!(
                row.dispatched_ns <= row.portable_ns * 1.25,
                "{} kernels at {} qubits run slower dispatched ({isa}): {:.1} ns vs {:.1} ns \
                 portable",
                row.class,
                row.qubits,
                row.dispatched_ns,
                row.portable_ns,
            );
        }
        println!("smoke OK: no kernel class runs slower dispatched ({isa}) than portable");
        // ... nor the sampled readout's cost to follow the shots: 1024× the
        // shots may cost at most 8× the time (one draw per shot was linear)
        let device = sampling_device(&reg8);
        let [few, many] = [1024, 1 << 20]
            .map(|shots| median_ms(15, || drop(device.execute(&reg8, shots).unwrap())));
        assert!(
            many <= 8.0 * few,
            "sampling cost grows with the shots on reg8_gate_cut: median {many:.4} ms at 2^20 \
             shots vs {few:.4} ms at 1024"
        );
        println!(
            "smoke OK: reg8_gate_cut sampling median {many:.4} ms at 2^20 shots <= 8 x {few:.4} ms \
             at 1024"
        );
    } else {
        // the shared bench schema: {name, config, metrics{}} rendered by the
        // obs exporter, so every BENCH_*.json parses the same way
        let mut metrics = MetricsSnapshot::default();
        for row in &gate_families {
            metrics = row.fold_into("gate", metrics);
        }
        for row in &circuit_families {
            metrics = row.fold_into("circuit", metrics);
        }
        for row in &readouts {
            metrics = row.fold_into("readout", metrics);
        }
        for row in &samplings {
            metrics = row.fold_into("sample", metrics);
        }
        for row in &kernel_classes {
            metrics = row.fold_into(metrics);
        }
        metrics = metrics.with_gauge("aggregate_coverage", aggregate_coverage);
        let json = bench_json(
            "bench_kernels",
            &[
                ("qubits", n.to_string()),
                ("depth", depth.to_string()),
                ("repeats", reps.to_string()),
                ("smoke", smoke.to_string()),
                ("sweeps", isa.to_string()),
            ],
            &metrics,
        );
        std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
        println!("wrote BENCH_kernels.json");
    }
}

fn print_row(row: &Row) {
    println!(
        "{:<16} {:>6} {:>8} {:>12.3} {:>12.3} {:>7.2}x {:>6.2}x {:>8.1}%",
        row.name,
        row.gates,
        row.kernels,
        row.interpreted_ms,
        row.compiled_ms,
        row.speedup(),
        row.fusion_ratio,
        100.0 * row.coverage,
    );
}
