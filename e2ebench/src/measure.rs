//! Measurements taken from outside the program: kernel-class rates from
//! replaying a workload's fused programs, the copy-bandwidth roofline, the
//! gauge work that gauges the host's speed, and the process's peak
//! resident set.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use qsim_circuit::FusedProgram;
use qsim_statevec::{FusedOp, Matrix2, Matrix4, StateVector};

/// Every kernel class `FusedOp::kernel_name` can return, with the name of
/// its rate metric.
pub const KERNEL_CLASSES: [(&str, &str); 12] = [
    ("phase1", "statevec.phase1.gbps"),
    ("diag1", "statevec.diag1.gbps"),
    ("perm1", "statevec.perm1.gbps"),
    ("dense1", "statevec.dense1.gbps"),
    ("cphase2", "statevec.cphase2.gbps"),
    ("cdiag1", "statevec.cdiag1.gbps"),
    ("diag2", "statevec.diag2.gbps"),
    ("cx", "statevec.cx.gbps"),
    ("ctrl1", "statevec.ctrl1.gbps"),
    ("perm2", "statevec.perm2.gbps"),
    ("dense2", "statevec.dense2.gbps"),
    ("ccx", "statevec.ccx.gbps"),
];

/// Computed bytes one kernel pass moves: every amplitude (16 B) read and
/// written once.
pub fn pass_bytes(n_qubits: usize) -> f64 {
    32.0 * (1u64 << n_qubits) as f64
}

/// Apply `ops` to `state` again and again, timing each repetition, for at
/// least five repetitions and `min_secs`; returns the fastest repetition's
/// seconds.
fn best_rep_secs(state: &mut StateVector, ops: &[&FusedOp], min_secs: f64) -> Result<f64, String> {
    let start = Instant::now();
    let mut best = f64::INFINITY;
    let mut reps = 0;
    while reps < 5 || start.elapsed().as_secs_f64() < min_secs {
        let rep = Instant::now();
        for op in ops {
            state.apply_fused(op).map_err(|e| format!("replaying {}: {e}", op.kernel_name()))?;
        }
        best = best.min(rep.elapsed().as_secs_f64());
        reps += 1;
    }
    black_box(&*state);
    Ok(best)
}

/// One operator of each kernel class on `n_qubits >= 3` qubits, for the
/// classes a workload's programs do not contain.
fn synthetic_op(class: &str) -> FusedOp {
    let op = match class {
        "phase1" => FusedOp::classify_1q(&Matrix2::t(), 0),
        "diag1" => FusedOp::classify_1q(&Matrix2::rz(0.3), 0),
        "perm1" => FusedOp::classify_1q(&Matrix2::x(), 0),
        "dense1" => FusedOp::classify_1q(&Matrix2::h(), 0),
        "cphase2" => FusedOp::classify_2q(&Matrix4::cphase(0.3), 0, 1),
        "cdiag1" => FusedOp::classify_2q(&Matrix4::controlled(&Matrix2::rz(0.3)), 0, 1),
        "diag2" => FusedOp::classify_2q(&Matrix4::kron(&Matrix2::rz(0.3), &Matrix2::rz(0.7)), 0, 1),
        "cx" => FusedOp::classify_2q(&Matrix4::cx(), 0, 1),
        "ctrl1" => FusedOp::classify_2q(&Matrix4::controlled(&Matrix2::h()), 0, 1),
        "perm2" => FusedOp::classify_2q(&Matrix4::swap(), 0, 1),
        "dense2" => FusedOp::classify_2q(&Matrix4::kron(&Matrix2::h(), &Matrix2::h()), 0, 1),
        _ => FusedOp::Ccx { control_a: 0, control_b: 1, target: 2 },
    };
    assert_eq!(op.kernel_name(), class, "synthetic operator lands in its class");
    op
}

/// Kernel rates from replaying fused programs on a zero state.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Computed GB/s per kernel class.
    pub class_gbps: BTreeMap<&'static str, f64>,
    /// Classes no program contained, measured on one synthetic operator.
    pub synthetic: Vec<&'static str>,
    /// Computed GB/s replaying each program whole, in order.
    pub sweep_gbps: f64,
    /// Replayed nanoseconds per kernel pass, per program.
    pub ns_per_pass: Vec<f64>,
}

/// Replay each program op by op through `StateVector::apply_fused`,
/// grouped by kernel class, then whole; each group is repeated for at
/// least `min_secs` and its fastest repetition counts. Classes absent from
/// every program are timed on one synthetic operator at the widest
/// program's width.
///
/// # Errors
///
/// Returns a message if a kernel rejects its operator.
pub fn replay(programs: &[&FusedProgram], min_secs: f64) -> Result<Replay, String> {
    let mut per_class: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    let (mut sweep_bytes, mut sweep_secs) = (0.0, 0.0);
    let mut ns_per_pass = Vec::with_capacity(programs.len());
    for program in programs {
        let n = program.n_qubits();
        let ops: Vec<&FusedOp> = program.segments().iter().flat_map(|s| s.ops()).collect();
        let mut state = StateVector::zero_state(n);
        for (class, _) in KERNEL_CLASSES {
            let of_class: Vec<&FusedOp> =
                ops.iter().copied().filter(|op| op.kernel_name() == class).collect();
            if !of_class.is_empty() {
                let secs = best_rep_secs(&mut state, &of_class, min_secs)?;
                let slot = per_class.entry(class).or_default();
                slot.0 += of_class.len() as f64 * pass_bytes(n);
                slot.1 += secs;
            }
        }
        let mut state = StateVector::zero_state(n);
        let secs = best_rep_secs(&mut state, &ops, min_secs)?;
        sweep_bytes += ops.len() as f64 * pass_bytes(n);
        sweep_secs += secs;
        ns_per_pass.push(secs * 1e9 / ops.len().max(1) as f64);
    }
    let width = programs.iter().map(|p| p.n_qubits()).max().unwrap_or(3).max(3);
    let mut synthetic = Vec::new();
    for (class, _) in KERNEL_CLASSES {
        if !per_class.contains_key(class) {
            let op = synthetic_op(class);
            let mut state = StateVector::zero_state(width);
            let secs = best_rep_secs(&mut state, &[&op], min_secs)?;
            per_class.insert(class, (pass_bytes(width), secs));
            synthetic.push(class);
        }
    }
    Ok(Replay {
        class_gbps: per_class.into_iter().map(|(c, (b, s))| (c, b / s * 1e-9)).collect(),
        synthetic,
        sweep_gbps: sweep_bytes / sweep_secs * 1e-9,
        ns_per_pass,
    })
}

/// Copy bandwidth over one array of `bytes`: copy its first half onto its
/// second half and back, in samples of about a millisecond or one copy,
/// for at least five samples and `min_secs`. Reports the fastest sample in
/// computed GB/s (bytes read plus bytes written).
pub fn copy_gbps(bytes: usize, min_secs: f64) -> f64 {
    let words = (bytes / 16).max(1) * 2;
    let mut array = vec![1u64; words];
    let half = words / 2;
    // A state-sized array can be a few hundred bytes: repeat its copies so
    // that one sample is long enough to time.
    let inner = (1 << 20) / (half * 8) + 1;
    let mut best = 0.0f64;
    let mut samples = 0;
    let start = Instant::now();
    while samples < 5 || start.elapsed().as_secs_f64() < min_secs {
        let sample = Instant::now();
        for i in 0..inner {
            let (low, high) = array.split_at_mut(half);
            if i % 2 == 0 {
                high.copy_from_slice(low);
            } else {
                low.copy_from_slice(high);
            }
            black_box(&mut array);
        }
        let secs = sample.elapsed().as_secs_f64();
        best = best.max((inner * half * 16) as f64 / secs * 1e-9);
        samples += 1;
    }
    best
}

/// Seconds one [`HostGauge::sample`] takes on the 2-vCPU Xeon the benchmark
/// was tuned on (the median of about 6700 samples, rounded). It only sets
/// the scale of the host-corrected times: a host running at this speed
/// needs no correction.
pub const GAUGE_NOMINAL_S: f64 = 1.0e-4;

/// Complex amplitudes the gauge rotates: 64 KiB, more than L1 holds
/// and far less than L2, like the states the workloads sweep.
const GAUGE_AMPLITUDES: usize = 4096;

/// Sweeps over the amplitudes in one gauge sample.
const GAUGE_SWEEPS: usize = 16;

/// A fixed piece of work, owned by the benchmark and calling nothing in the
/// program, timed between the program's calls. Its time follows the speed
/// the shared host gives this process at that moment, so the program's
/// times can be divided by it; a change to the program cannot move it.
#[derive(Clone, Debug)]
pub struct HostGauge {
    amplitudes: Vec<(f64, f64)>,
}

impl Default for HostGauge {
    fn default() -> Self {
        HostGauge { amplitudes: vec![(0.0, 0.0); GAUGE_AMPLITUDES] }
    }
}

impl HostGauge {
    /// Time one sample: refill the amplitudes and rotate each of them
    /// [`GAUGE_SWEEPS`] times. The refill makes every sample the same
    /// work on the same numbers.
    pub fn sample(&mut self) -> f64 {
        let (sin, cos) = 0.3f64.sin_cos();
        let start = Instant::now();
        for (i, amplitude) in self.amplitudes.iter_mut().enumerate() {
            *amplitude = ((i % 7) as f64 * 0.125, 0.5);
        }
        for _ in 0..GAUGE_SWEEPS {
            for amplitude in &mut self.amplitudes {
                let (re, im) = *amplitude;
                *amplitude = (re * cos - im * sin, re * sin + im * cos);
            }
            black_box(&mut self.amplitudes);
        }
        start.elapsed().as_secs_f64()
    }
}

/// How much slower than nominal the host ran while `gauge_secs` were
/// sampled: their mean over [`GAUGE_NOMINAL_S`]. One when there are
/// none.
pub fn host_factor(gauge_secs: &[f64]) -> f64 {
    if gauge_secs.is_empty() {
        return 1.0;
    }
    gauge_secs.iter().sum::<f64>() / gauge_secs.len() as f64 / GAUGE_NOMINAL_S
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks the
/// field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_owned())
}
