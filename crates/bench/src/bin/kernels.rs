//! Specialized-kernel speedups: every fast apply path (phase, diagonal,
//! permutation, controlled) against the generic dense kernel applying an
//! equivalent matrix to the same state. Results are written to
//! `BENCH_kernels.json`.
//!
//! Each row times one kernel class swept across every valid target on an
//! `n`-qubit random state, best of `reps`. Pass `--check RATIO` (e.g.
//! `--check 1.5`) to exit non-zero when the mean speedup over the dense
//! path falls below `RATIO`, or when any single class is slower than the
//! dense path (speedup below 1.0x, which would make the classifier route
//! that operator to a slower kernel) — CI runs this as the
//! "specialization pays for itself" regression gate.
//!
//! Usage: `kernels [--qubits N] [--reps N] [--seed N] [--out PATH] [--check RATIO] [--record] [--quiet]`

use std::time::Instant;

use qsim_statevec::{Matrix2, Matrix4, StateVector, C64};
use redsim::testkit::random_state;
use redsim_bench::report::ResultsDoc;
use redsim_bench::table::Table;
use redsim_bench::{arg_value, json, report};

/// Best-of-`reps` wall clock in milliseconds, with one warmup execution.
fn time_best<F: FnMut()>(reps: usize, mut run: F) -> f64 {
    run();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

struct Row {
    kernel: &'static str,
    specialized_ms: f64,
    dense_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.dense_ms / self.specialized_ms.max(1e-9)
    }
}

/// Time a one-qubit kernel swept over every qubit, against the dense
/// equivalent sweeping the same matrix.
fn row_1q(
    kernel: &'static str,
    state: &StateVector,
    reps: usize,
    m: &Matrix2,
    mut specialized: impl FnMut(&mut StateVector, usize),
) -> Row {
    let n = state.n_qubits();
    let mut s = state.clone();
    let specialized_ms = time_best(reps, || {
        for q in 0..n {
            specialized(&mut s, q);
        }
    });
    let mut d = state.clone();
    let dense_ms = time_best(reps, || {
        for q in 0..n {
            d.apply_1q(m, q).expect("valid qubit");
        }
    });
    Row { kernel, specialized_ms, dense_ms }
}

/// Time a two-qubit kernel swept over every adjacent pair, against the
/// dense equivalent sweeping the same matrix.
fn row_2q(
    kernel: &'static str,
    state: &StateVector,
    reps: usize,
    m: &Matrix4,
    mut specialized: impl FnMut(&mut StateVector, usize, usize),
) -> Row {
    let n = state.n_qubits();
    let mut s = state.clone();
    let specialized_ms = time_best(reps, || {
        for q in 0..n - 1 {
            specialized(&mut s, q, q + 1);
        }
    });
    let mut d = state.clone();
    let dense_ms = time_best(reps, || {
        for q in 0..n - 1 {
            d.apply_2q(m, q, q + 1).expect("valid pair");
        }
    });
    Row { kernel, specialized_ms, dense_ms }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_qubits = arg_value(&args, "--qubits", 16usize);
    let reps = arg_value(&args, "--reps", 25usize);
    let seed = arg_value(&args, "--seed", 2020u64);
    let out = arg_value(&args, "--out", "BENCH_kernels.json".to_owned());
    let check = arg_value(&args, "--check", f64::NEG_INFINITY);
    let quiet = redsim_bench::arg_flag(&args, "--quiet");

    let state = random_state(n_qubits, seed);
    let theta = 0.37f64;
    let phase = C64::new(theta.cos(), theta.sin());
    let d1 = [C64::new(0.0, 1.0), phase];
    let perm_phase = [phase, C64::new(1.0, 0.0)];
    let one = C64::new(1.0, 0.0);
    let zero = C64::new(0.0, 0.0);
    let h = Matrix2::h();

    let rows = vec![
        row_1q("phase1", &state, reps, &Matrix2([[one, zero], [zero, phase]]), |s, q| {
            s.apply_phase1(phase, q).expect("valid qubit");
        }),
        row_1q("diag1", &state, reps, &Matrix2([[d1[0], zero], [zero, d1[1]]]), |s, q| {
            s.apply_diag1(&d1, q).expect("valid qubit");
        }),
        row_1q(
            "perm1",
            &state,
            reps,
            &Matrix2([[zero, perm_phase[0]], [perm_phase[1], zero]]),
            |s, q| {
                s.apply_perm1(&perm_phase, q).expect("valid qubit");
            },
        ),
        row_2q("cphase2", &state, reps, &Matrix4::cphase(theta), |s, low, high| {
            s.apply_cphase2(phase, low, high).expect("valid pair");
        }),
        row_2q(
            "cdiag1",
            &state,
            reps,
            &Matrix4::controlled(&Matrix2([[d1[0], zero], [zero, d1[1]]])),
            |s, low, high| {
                s.apply_cdiag1(&d1, high, low).expect("valid pair");
            },
        ),
        row_2q("cx", &state, reps, &Matrix4::cx(), |s, low, high| {
            s.apply_cx(high, low).expect("valid pair");
        }),
        row_2q("ctrl1", &state, reps, &Matrix4::controlled(&h), |s, low, high| {
            s.apply_ctrl1(&h, high, low).expect("valid pair");
        }),
        row_2q("perm2", &state, reps, &Matrix4::swap(), |s, low, high| {
            s.apply_perm2(&[0, 2, 1, 3], &[one, one, one, one], low, high).expect("valid pair");
        }),
        row_2q(
            "diag2",
            &state,
            reps,
            &Matrix4::kron(&Matrix2::rz(0.3), &Matrix2::rz(theta)),
            |s, low, high| {
                let rz_a = Matrix2::rz(0.3).0;
                let rz_b = Matrix2::rz(theta).0;
                let d = [
                    rz_a[0][0] * rz_b[0][0],
                    rz_a[0][0] * rz_b[1][1],
                    rz_a[1][1] * rz_b[0][0],
                    rz_a[1][1] * rz_b[1][1],
                ];
                s.apply_diag2(&d, low, high).expect("valid pair");
            },
        ),
    ];

    let mean_speedup = rows.iter().map(Row::speedup).sum::<f64>() / rows.len() as f64;

    let doc = ResultsDoc::new("kernels")
        .int("qubits", n_qubits)
        .int("reps", reps)
        .int("seed", seed)
        .field(
            "rows",
            json::array(rows.iter().map(|row| {
                json::object(&[
                    ("kernel", json::string(row.kernel)),
                    ("specialized_ms", json::number(row.specialized_ms)),
                    ("dense_ms", json::number(row.dense_ms)),
                    ("speedup", json::number(row.speedup())),
                ])
            })),
        )
        .field("mean_speedup", json::number(mean_speedup));
    doc.write_file(&out);
    report::maybe_record(&args, &doc);

    if !quiet {
        let mut table = Table::new(["Kernel", "Specialized", "Dense", "Speedup"]);
        for row in &rows {
            table.row([
                row.kernel.to_owned(),
                format!("{:.3} ms", row.specialized_ms),
                format!("{:.3} ms", row.dense_ms),
                format!("{:.2}x", row.speedup()),
            ]);
        }
        println!("Specialized kernels vs generic dense apply: {n_qubits} qubits, best of {reps}");
        println!("{table}");
        println!("mean speedup {mean_speedup:.2}x");
        println!("results written to {out}");
    }

    if check.is_finite() {
        // Single-kernel timings jitter on shared CI runners, so the ratio
        // floor applies to the mean across all classes; each class only
        // has to beat the dense path it replaces.
        let slower: Vec<String> = rows
            .iter()
            .filter(|row| row.speedup() < 1.0)
            .map(|row| format!("{} {:.2}x", row.kernel, row.speedup()))
            .collect();
        if !slower.is_empty() {
            eprintln!("FAIL: slower than the dense path: {}", slower.join(", "));
        }
        if mean_speedup < check {
            eprintln!("FAIL: mean speedup {mean_speedup:.2}x below the {check}x floor");
        }
        if !slower.is_empty() || mean_speedup < check {
            std::process::exit(1);
        }
        println!(
            "mean speedup {mean_speedup:.2}x clears the {check}x floor; every class beats dense"
        );
    }
}
