//! Plan fingerprints of the paper-table workloads.
//!
//! Every plan the `table1`, `table2` and `figure5` harness binaries make is
//! reduced to one line: its cut metrics, its subcircuit widths with qubit
//! reuse on and off, and a hash of the QASM of each fragment's first
//! instance. The harness plans heuristic-only (`harness_config`,
//! `cutqc_config`), so the lines are deterministic. A refactor of the width
//! model or of fragment building must move none of them; a change that moves
//! a plan on purpose updates the rows it moves and names them in its notes.

use qrcc::circuit::qasm::to_qasm;
use qrcc::core::fragment::FragmentSet;
use qrcc::prelude::*;
use qrcc_bench::{cutqc_config, harness_config, table1_workloads, table2_workloads, Scale};

/// 64-bit FNV-1a: a hash that does not depend on the toolchain.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The fingerprint of `circuit` planned under `config`.
fn fingerprint(circuit: &Circuit, config: QrccConfig) -> String {
    let Ok(plan) = CutPlanner::new(config).plan(circuit) else {
        return "no plan".into();
    };
    let m = plan.metrics();
    let (dag, solution) = (plan.dag(), plan.solution());
    let fragments = FragmentSet::from_plan(&plan).expect("a plan builds its fragments");
    let hashes: Vec<String> = fragments
        .fragments
        .iter()
        .map(|f| format!("{:016x}", fnv1a(to_qasm(&f.instantiate(0, 0)).as_bytes())))
        .collect();
    format!(
        "sc {} wc {} gc {} reuse {:?} plain {:?} qasm {}",
        m.num_subcircuits,
        m.wire_cuts,
        m.gate_cuts,
        solution.subcircuit_widths(dag, true),
        solution.subcircuit_widths(dag, false),
        hashes.join(" ")
    )
}

/// One line per (workload, planner configuration) the three binaries run.
fn fingerprints() -> Vec<String> {
    let mut lines = Vec::new();
    let mut row = |table: &str, name: &str, n: usize, d: usize, scheme: &str, line: String| {
        lines.push(format!("{table} {name}-{n} D{d} {scheme}: {line}"));
    };
    for (w, d) in table1_workloads(Scale::Small) {
        row("t1", &w.name, w.n, d, "cutqc", fingerprint(&w.circuit, cutqc_config(d)));
        row("t1", &w.name, w.n, d, "c", fingerprint(&w.circuit, harness_config(d, 1.0, false)));
        row("t1", &w.name, w.n, d, "b", fingerprint(&w.circuit, harness_config(d, 0.7, false)));
    }
    let table2 = table2_workloads(Scale::Small);
    for (w, d) in &table2 {
        let d = *d;
        row("t2", &w.name, w.n, d, "cutqc", fingerprint(&w.circuit, cutqc_config(d)));
        row("t2", &w.name, w.n, d, "w", fingerprint(&w.circuit, harness_config(d, 1.0, false)));
        row("t2", &w.name, w.n, d, "wg", fingerprint(&w.circuit, harness_config(d, 1.0, true)));
    }
    // figure5 sweeps δ over the first four table2 workloads, gate cuts on
    for (w, d) in table2.iter().take(4) {
        for tenths in 1..=10 {
            let delta = tenths as f64 / 10.0;
            let scheme = format!("delta{delta:.1}");
            row(
                "f5",
                &w.name,
                w.n,
                *d,
                &scheme,
                fingerprint(&w.circuit, harness_config(*d, delta, true)),
            );
        }
    }
    lines
}

/// The fingerprints, one line per plan, in [`fingerprints`] order.
const EXPECTED: &str = "
t1 QFT-10 D6 cutqc: no plan
t1 QFT-10 D6 c: sc 3 wc 19 gc 0 reuse [4, 6, 6] plain [12, 7, 10] qasm 5a3c54129ad1b4a5 3085b4217623e219 c2dc902039f3e599
t1 QFT-10 D6 b: sc 2 wc 18 gc 0 reuse [6, 6] plain [14, 14] qasm e06a16f0c15e33df b942f805aed60aa8
t1 QFT-12 D8 cutqc: no plan
t1 QFT-12 D8 c: sc 3 wc 20 gc 0 reuse [4, 8, 8] plain [12, 8, 12] qasm 5a3c54129ad1b4a5 12d4cef02eb36bbd d64ef2f8d6648e56
t1 QFT-12 D8 b: sc 2 wc 14 gc 0 reuse [8, 8] plain [14, 12] qasm bca9bdddbfa67206 430d0a6d2d1270f0
t1 SPM-12 D7 cutqc: sc 6 wc 24 gc 0 reuse [3, 4, 3, 3, 3, 2] plain [6, 5, 7, 7, 6, 5] qasm 6c35b5e1593bcf79 0d2da5f6c4b6b0f5 5c863f391da98ec5 e21cc093c65dd323 d146bcf2f7cd6908 8bb49f2f7d2118e2
t1 SPM-12 D7 c: sc 2 wc 11 gc 0 reuse [7, 6] plain [12, 11] qasm 5b7961991a1a43ea 8f9591432261dc76
t1 SPM-12 D7 b: sc 2 wc 9 gc 0 reuse [7, 7] plain [11, 10] qasm 22496783fa3432d9 553cbccc823a0e79
t1 SPM-15 D8 cutqc: sc 7 wc 34 gc 0 reuse [5, 4, 3, 4, 3, 2, 2] plain [8, 6, 8, 8, 7, 7, 5] qasm 6aeab2119a90a4b9 ea9c82d4e98110eb d56122538e0ab014 53bf9ccac1bcd6d7 99cb49a8a5fba9e0 7e7fa6b4cead1d04 add581c00f5d5a31
t1 SPM-15 D8 c: sc 3 wc 19 gc 0 reuse [7, 7, 5] plain [10, 14, 10] qasm d7f3162fbaffc5c4 71499547436f66a5 66e4d71e64351f77
t1 SPM-15 D8 b: sc 2 wc 16 gc 0 reuse [8, 8] plain [16, 15] qasm a0f754b989f159aa 4426d7db3964d432
t1 ADD-12 D7 cutqc: sc 6 wc 23 gc 0 reuse [6, 5, 5, 3, 3, 3] plain [7, 7, 6, 5, 5, 5] qasm f05a44e8187294a6 3ac9d50ad4df9323 1c29ecfec1853e73 31c4a4131d1a87d3 aff6a25afcda3aac 66d650c0196c9556
t1 ADD-12 D7 c: sc 2 wc 17 gc 0 reuse [7, 5] plain [16, 13] qasm 117c270945bea896 ee1bd82836cb6fc6
t1 ADD-12 D7 b: sc 2 wc 6 gc 0 reuse [7, 6] plain [10, 8] qasm 73113279f5d94ca2 c1b48507ecc0b42d
t1 ADD-14 D8 cutqc: no plan
t1 ADD-14 D8 c: sc 2 wc 11 gc 0 reuse [8, 7] plain [13, 12] qasm 6f8e64755cee95d3 9668cb85481d06ca
t1 ADD-14 D8 b: sc 2 wc 2 gc 0 reuse [7, 8] plain [8, 8] qasm b0042830a10ff90e 44602386572c5ec2
t1 AQFT-12 D7 cutqc: sc 3 wc 6 gc 0 reuse [4, 4, 4] plain [4, 7, 7] qasm 11f7c92b56dfed1e ede55fcc34516e50 ede55fcc34516e50
t1 AQFT-12 D7 c: sc 2 wc 3 gc 0 reuse [4, 4] plain [6, 9] qasm 55dcb3aa84d04158 614a1c79b650670e
t1 AQFT-12 D7 b: sc 2 wc 3 gc 0 reuse [4, 4] plain [8, 7] qasm 03ce9e90ab4fa688 8ce9f4bf1933c288
t1 AQFT-14 D8 cutqc: sc 3 wc 6 gc 0 reuse [4, 4, 4] plain [5, 8, 7] qasm b87fad421477580e 05220ddd64b8fa6b ede55fcc34516e50
t1 AQFT-14 D8 c: sc 2 wc 3 gc 0 reuse [4, 4] plain [7, 10] qasm 45b4673116da77ba 583219e39ba2b8cc
t1 AQFT-14 D8 b: sc 2 wc 3 gc 0 reuse [4, 4] plain [8, 9] qasm 76fc2cf663fb5a1f a8d66df21eefd53a
t2 REG-12 D8 cutqc: sc 3 wc 7 gc 0 reuse [6, 7, 4] plain [6, 8, 5] qasm ae4bae8bb3371c0f b0c3b543ddf91bf7 4eaff72294df6c7e
t2 REG-12 D8 w: sc 2 wc 6 gc 0 reuse [8, 7] plain [9, 9] qasm 6f760a869f324325 eb3fde2b2b59ac9b
t2 REG-12 D8 wg: sc 2 wc 6 gc 0 reuse [8, 7] plain [9, 9] qasm 6f760a869f324325 eb3fde2b2b59ac9b
t2 ERD-12 D8 cutqc: sc 3 wc 7 gc 0 reuse [7, 7, 3] plain [7, 8, 4] qasm c3dea1e930a755d6 57fe0a10fc275dfe b79bea49c958b0f0
t2 ERD-12 D8 w: sc 2 wc 4 gc 0 reuse [8, 5] plain [9, 7] qasm 3d013c16498f97bd 4a57e397d3fe1ce6
t2 ERD-12 D8 wg: sc 2 wc 4 gc 0 reuse [8, 5] plain [9, 7] qasm 3d013c16498f97bd 4a57e397d3fe1ce6
t2 BAR-12 D8 cutqc: sc 5 wc 13 gc 0 reuse [4, 4, 7, 7, 3] plain [4, 4, 7, 7, 3] qasm 803c571b2f97241f 19069e3abc219811 b067a35546e20086 ee1e092da0ae5701 6338e5789cb2fb3a
t2 BAR-12 D8 w: sc 2 wc 5 gc 0 reuse [8, 8] plain [8, 9] qasm 9055eb0942481140 23a8b0e3650ee830
t2 BAR-12 D8 wg: sc 2 wc 5 gc 0 reuse [8, 8] plain [8, 9] qasm 9055eb0942481140 23a8b0e3650ee830
t2 IS-12 D8 cutqc: sc 2 wc 4 gc 0 reuse [7, 7] plain [8, 8] qasm 2788b93de384b7e3 7d74a26f1f1a7c8a
t2 IS-12 D8 w: sc 2 wc 4 gc 0 reuse [7, 6] plain [10, 6] qasm 12662f129d3a471a 3ab22f00af91f1ac
t2 IS-12 D8 wg: sc 2 wc 4 gc 0 reuse [7, 6] plain [10, 6] qasm 12662f129d3a471a 3ab22f00af91f1ac
t2 IS-n-12 D8 cutqc: sc 2 wc 4 gc 0 reuse [6, 6] plain [8, 8] qasm c9bca939c91cea5f f35b9d3f55f37767
t2 IS-n-12 D8 w: sc 2 wc 4 gc 0 reuse [6, 6] plain [8, 8] qasm 07c9ec547a40f300 b80700a0cacb7058
t2 IS-n-12 D8 wg: sc 2 wc 4 gc 0 reuse [6, 6] plain [8, 8] qasm 07c9ec547a40f300 b80700a0cacb7058
t2 XY-12 D8 cutqc: sc 3 wc 8 gc 0 reuse [6, 8, 6] plain [6, 8, 6] qasm a58d0f29571ee2a5 b37e034c49e5af68 ca88b1661daeda78
t2 XY-12 D8 w: sc 2 wc 6 gc 0 reuse [8, 7] plain [9, 9] qasm c3d291d9558b0f83 6b4c33b141791463
t2 XY-12 D8 wg: sc 2 wc 6 gc 0 reuse [8, 7] plain [9, 9] qasm c3d291d9558b0f83 6b4c33b141791463
t2 XY-n-12 D8 cutqc: sc 3 wc 10 gc 0 reuse [7, 8, 5] plain [7, 8, 7] qasm 6e8963b60da33728 6e373cf77ee4d036 b71388d92e08fb52
t2 XY-n-12 D8 w: sc 2 wc 9 gc 0 reuse [8, 8] plain [10, 11] qasm 4c54d2d00aa10322 c9083c9cced4699e
t2 XY-n-12 D8 wg: sc 2 wc 9 gc 0 reuse [8, 8] plain [10, 11] qasm 4c54d2d00aa10322 c9083c9cced4699e
t2 HS-12 D8 cutqc: sc 3 wc 8 gc 0 reuse [6, 8, 6] plain [6, 8, 6] qasm 544545f09f0f3aa4 f75c9b113fba735e c9064b1b45a4850e
t2 HS-12 D8 w: sc 2 wc 6 gc 0 reuse [8, 7] plain [9, 9] qasm f02795164e1e3b1f 64274a67874df4e2
t2 HS-12 D8 wg: sc 2 wc 6 gc 0 reuse [8, 7] plain [9, 9] qasm f02795164e1e3b1f 64274a67874df4e2
t2 HS-n-12 D8 cutqc: sc 3 wc 10 gc 0 reuse [7, 8, 5] plain [7, 8, 7] qasm c8aebafb8e780251 4c4f4ac0d259ca84 16fd2c1eedd8af4d
t2 HS-n-12 D8 w: sc 2 wc 9 gc 0 reuse [8, 8] plain [10, 11] qasm cd451f2a6ebeb798 19fc1496012562d9
t2 HS-n-12 D8 wg: sc 2 wc 9 gc 0 reuse [8, 8] plain [10, 11] qasm cd451f2a6ebeb798 19fc1496012562d9
t2 VQE-12 D8 cutqc: sc 2 wc 3 gc 0 reuse [7, 6] plain [8, 7] qasm 265c7a1a64100c18 14fd5d032d2ce60c
t2 VQE-12 D8 w: sc 2 wc 2 gc 0 reuse [7, 7] plain [7, 7] qasm 051193ed919965b7 a29a13fe54a7c9c9
t2 VQE-12 D8 wg: sc 2 wc 2 gc 0 reuse [7, 7] plain [7, 7] qasm 051193ed919965b7 a29a13fe54a7c9c9
f5 REG-12 D8 delta0.1: sc 2 wc 0 gc 8 reuse [6, 6] plain [6, 6] qasm 5bd2989ed9f1a79e 6c647839b1af1b7d
f5 REG-12 D8 delta0.2: sc 2 wc 4 gc 1 reuse [8, 6] plain [8, 8] qasm 6f382923b6e68ca9 6d0b3deffc826a0d
f5 REG-12 D8 delta0.3: sc 2 wc 4 gc 0 reuse [7, 8] plain [7, 9] qasm fd47b39d37064f20 c2311f469206c56d
f5 REG-12 D8 delta0.4: sc 2 wc 4 gc 0 reuse [7, 8] plain [7, 9] qasm fd47b39d37064f20 c2311f469206c56d
f5 REG-12 D8 delta0.5: sc 2 wc 4 gc 0 reuse [7, 8] plain [7, 9] qasm fd47b39d37064f20 c2311f469206c56d
f5 REG-12 D8 delta0.6: sc 2 wc 4 gc 0 reuse [7, 8] plain [7, 9] qasm fd47b39d37064f20 c2311f469206c56d
f5 REG-12 D8 delta0.7: sc 2 wc 4 gc 0 reuse [7, 8] plain [7, 9] qasm fd47b39d37064f20 c2311f469206c56d
f5 REG-12 D8 delta0.8: sc 2 wc 4 gc 0 reuse [7, 8] plain [7, 9] qasm fd47b39d37064f20 c2311f469206c56d
f5 REG-12 D8 delta0.9: sc 2 wc 4 gc 0 reuse [7, 8] plain [7, 9] qasm fd47b39d37064f20 c2311f469206c56d
f5 REG-12 D8 delta1.0: sc 2 wc 6 gc 0 reuse [8, 7] plain [9, 9] qasm 6f760a869f324325 eb3fde2b2b59ac9b
f5 ERD-12 D8 delta0.1: sc 2 wc 3 gc 4 reuse [8, 5] plain [8, 7] qasm 7e18ade435e82e6e 6377bb7c894b28df
f5 ERD-12 D8 delta0.2: sc 2 wc 3 gc 0 reuse [8, 7] plain [8, 7] qasm 07f6848e586e9041 e44ac9de2d9c6748
f5 ERD-12 D8 delta0.3: sc 2 wc 3 gc 0 reuse [8, 7] plain [8, 7] qasm 07f6848e586e9041 e44ac9de2d9c6748
f5 ERD-12 D8 delta0.4: sc 2 wc 3 gc 0 reuse [8, 7] plain [8, 7] qasm 07f6848e586e9041 e44ac9de2d9c6748
f5 ERD-12 D8 delta0.5: sc 2 wc 3 gc 0 reuse [8, 7] plain [8, 7] qasm 07f6848e586e9041 e44ac9de2d9c6748
f5 ERD-12 D8 delta0.6: sc 2 wc 3 gc 0 reuse [8, 7] plain [8, 7] qasm 07f6848e586e9041 e44ac9de2d9c6748
f5 ERD-12 D8 delta0.7: sc 2 wc 3 gc 0 reuse [8, 7] plain [8, 7] qasm 07f6848e586e9041 e44ac9de2d9c6748
f5 ERD-12 D8 delta0.8: sc 2 wc 3 gc 0 reuse [8, 7] plain [8, 7] qasm 07f6848e586e9041 e44ac9de2d9c6748
f5 ERD-12 D8 delta0.9: sc 2 wc 3 gc 0 reuse [8, 7] plain [8, 7] qasm 07f6848e586e9041 e44ac9de2d9c6748
f5 ERD-12 D8 delta1.0: sc 2 wc 4 gc 0 reuse [8, 5] plain [9, 7] qasm 3d013c16498f97bd 4a57e397d3fe1ce6
f5 BAR-12 D8 delta0.1: sc 2 wc 3 gc 6 reuse [6, 7] plain [7, 8] qasm 0c475bbd423ad24a 4b33fe9167be5f14
f5 BAR-12 D8 delta0.2: sc 2 wc 6 gc 2 reuse [8, 7] plain [11, 7] qasm e18fa3b9b9e62341 8c504c919e219a97
f5 BAR-12 D8 delta0.3: sc 2 wc 6 gc 2 reuse [8, 7] plain [11, 7] qasm e18fa3b9b9e62341 8c504c919e219a97
f5 BAR-12 D8 delta0.4: sc 2 wc 5 gc 0 reuse [8, 4] plain [12, 5] qasm 0513cd4b6f80d345 0313888f053e3ee7
f5 BAR-12 D8 delta0.5: sc 2 wc 5 gc 0 reuse [8, 4] plain [12, 5] qasm 0513cd4b6f80d345 0313888f053e3ee7
f5 BAR-12 D8 delta0.6: sc 2 wc 5 gc 0 reuse [8, 4] plain [12, 5] qasm 0513cd4b6f80d345 0313888f053e3ee7
f5 BAR-12 D8 delta0.7: sc 2 wc 5 gc 0 reuse [8, 4] plain [12, 5] qasm 0513cd4b6f80d345 0313888f053e3ee7
f5 BAR-12 D8 delta0.8: sc 2 wc 5 gc 0 reuse [8, 4] plain [12, 5] qasm 0513cd4b6f80d345 0313888f053e3ee7
f5 BAR-12 D8 delta0.9: sc 2 wc 5 gc 0 reuse [8, 4] plain [12, 5] qasm 0513cd4b6f80d345 0313888f053e3ee7
f5 BAR-12 D8 delta1.0: sc 2 wc 5 gc 0 reuse [8, 8] plain [8, 9] qasm 9055eb0942481140 23a8b0e3650ee830
f5 IS-12 D8 delta0.1: sc 2 wc 0 gc 5 reuse [6, 6] plain [6, 6] qasm 2bc9e549c24eb96f 1aec7b1067600eb2
f5 IS-12 D8 delta0.2: sc 2 wc 3 gc 1 reuse [6, 7] plain [8, 7] qasm 381d65f8e252d019 5a92e834aac87238
f5 IS-12 D8 delta0.3: sc 2 wc 3 gc 1 reuse [6, 7] plain [8, 7] qasm 381d65f8e252d019 5a92e834aac87238
f5 IS-12 D8 delta0.4: sc 2 wc 3 gc 1 reuse [6, 7] plain [8, 7] qasm 381d65f8e252d019 5a92e834aac87238
f5 IS-12 D8 delta0.5: sc 2 wc 4 gc 0 reuse [7, 7] plain [9, 7] qasm aa40c5a6263c3114 0f6b49fecfc025ea
f5 IS-12 D8 delta0.6: sc 2 wc 4 gc 0 reuse [7, 7] plain [9, 7] qasm aa40c5a6263c3114 0f6b49fecfc025ea
f5 IS-12 D8 delta0.7: sc 2 wc 4 gc 0 reuse [7, 7] plain [9, 7] qasm aa40c5a6263c3114 0f6b49fecfc025ea
f5 IS-12 D8 delta0.8: sc 2 wc 4 gc 0 reuse [7, 7] plain [9, 7] qasm aa40c5a6263c3114 0f6b49fecfc025ea
f5 IS-12 D8 delta0.9: sc 2 wc 4 gc 0 reuse [7, 7] plain [9, 7] qasm aa40c5a6263c3114 0f6b49fecfc025ea
f5 IS-12 D8 delta1.0: sc 2 wc 4 gc 0 reuse [7, 6] plain [10, 6] qasm 12662f129d3a471a 3ab22f00af91f1ac
";

#[test]
fn harness_plans_match_their_fingerprints() {
    let actual = fingerprints();
    let expected: Vec<&str> = EXPECTED.lines().filter(|line| !line.is_empty()).collect();
    let moved: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .map(|(a, e)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        moved.is_empty() && actual.len() == expected.len(),
        "{} of {} rows moved ({} expected):\n{}\nfull table:\n{}",
        moved.len(),
        actual.len(),
        expected.len(),
        moved.join("\n"),
        actual.join("\n")
    );
}
