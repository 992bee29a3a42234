//! Compressed at-rest storage for the reuse walk.
//!
//! The paper keeps the MSV count low because each cached frontier costs a
//! full `2ⁿ` amplitude vector; its related work (compressed simulation,
//! QuIDD/decision-diagram state storage) attacks the *per-state* cost
//! instead. This module combines the two. Compression is not a traversal of
//! its own: it is a storage policy of the one reordered prefix-caching walk
//! ([`crate::exec::ReuseExecutor`]), which here parks its frontiers as
//! [`qsim_statevec::StoredState`] (exact zero-elided sparse form when
//! profitable). Structured circuits spend long prefixes in nearly-basis
//! states, where a cached frontier shrinks from `2ⁿ` amplitudes to a
//! handful of entries.
//!
//! Operation counts and measurement outcomes are identical to
//! [`crate::exec::ReuseExecutor`]; only the at-rest representation differs.
//! Like the dense executors, the walk runs the trial set's shared
//! [`qsim_circuit::FusedProgram`], so outcomes stay bitwise comparable
//! across every execution strategy.

use qsim_circuit::LayeredCircuit;
use qsim_noise::Trial;
use qsim_statevec::{StateVector, StoredState};
use qsim_telemetry::{NullRecorder, Recorder};

use crate::exec::{
    fuse_for_trials_traced, AtRest, Engine, Frame, Outcomes, PrefixCache, ReuseExecutor, RunResult,
};
use crate::SimError;

/// Memory accounting of one compressed run.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CompressionStats {
    /// Peak bytes held by cached frontiers in compressed form.
    pub peak_stored_bytes: usize,
    /// What the same peak would cost dense (`peak_msv × 2ⁿ × 16`).
    pub peak_dense_bytes: usize,
    /// Frontier stores performed.
    pub frames_stored: u64,
    /// How many of those chose the sparse representation.
    pub sparse_frames: u64,
    /// Bytes written across *all* frontier stores, compressed.
    pub total_stored_bytes: u64,
    /// Bytes the same stores would have written dense.
    pub total_dense_bytes: u64,
}

impl CompressionStats {
    /// Compression ratio `peak_stored / peak_dense` (1.0 when nothing was
    /// cached or nothing compressed).
    pub fn peak_ratio(&self) -> f64 {
        if self.peak_dense_bytes == 0 {
            1.0
        } else {
            self.peak_stored_bytes as f64 / self.peak_dense_bytes as f64
        }
    }

    /// Mean at-rest compression across every frontier store,
    /// `total_stored / total_dense` (1.0 when nothing was stored). Peak
    /// instants in mid-circuit regions are often all-dense even when the
    /// bulk of stores compress well; this is the time-averaged view.
    pub fn mean_ratio(&self) -> f64 {
        if self.total_dense_bytes == 0 {
            1.0
        } else {
            self.total_stored_bytes as f64 / self.total_dense_bytes as f64
        }
    }
}

/// Parked frontiers held as [`StoredState`]: every park compresses (and is
/// counted), every visit decompresses, advances in dense form and re-parks.
struct Compressed {
    dense_bytes: usize,
    stats: CompressionStats,
}

impl AtRest for Compressed {
    type Held = StoredState;
    const SHARED: &'static str = "compressed/shared";
    const BRANCH: &'static str = "compressed/branch";
    const REMAINDER: &'static str = "compressed/remainder";
    const SPAN: &'static str = "run/compressed";

    fn hold(&mut self, state: StateVector) -> StoredState {
        let stored = StoredState::compress_owned(state);
        self.stats.frames_stored += 1;
        if stored.is_sparse() {
            self.stats.sparse_frames += 1;
        }
        self.stats.total_stored_bytes += stored.stored_bytes() as u64;
        self.stats.total_dense_bytes += self.dense_bytes as u64;
        stored
    }

    fn visit<T>(&mut self, held: &mut StoredState, f: impl FnOnce(&mut StateVector) -> T) -> T {
        let mut state = held.to_state();
        let out = f(&mut state);
        *held = self.hold(state);
        out
    }

    fn copy(&mut self, held: &StoredState) -> StateVector {
        held.to_state()
    }

    fn take(&mut self, held: StoredState) -> StateVector {
        held.into_state()
    }

    fn resident_bytes(&mut self, stack: &[Frame<StoredState>]) -> u64 {
        let bytes: usize = stack.iter().map(|f| f.state.stored_bytes()).sum();
        self.stats.peak_stored_bytes = self.stats.peak_stored_bytes.max(bytes);
        bytes as u64
    }

    fn record<R: Recorder + ?Sized>(&self, recorder: &R) {
        recorder.counter("compress.frames_stored", self.stats.frames_stored);
        recorder.counter("compress.sparse_frames", self.stats.sparse_frames);
        recorder.counter("compress.stored_bytes", self.stats.total_stored_bytes);
        recorder.counter("compress.dense_bytes", self.stats.total_dense_bytes);
    }
}

/// Run the reordered, prefix-cached execution with compressed at-rest
/// frontiers. Returns the usual [`RunResult`] (outcomes in input order,
/// ops/MSV identical to the dense executor) plus [`CompressionStats`].
///
/// # Errors
///
/// Returns [`SimError`] for trials whose injections do not fit the circuit.
pub fn run_reordered_compressed(
    layered: &LayeredCircuit,
    trials: &[Trial],
) -> Result<(RunResult, CompressionStats), SimError> {
    run_reordered_compressed_traced(layered, trials, &NullRecorder)
}

/// [`run_reordered_compressed`] with instrumentation streamed into
/// `recorder`: per-kernel timings (phases `"compressed/shared"`,
/// `"compressed/branch"`, `"compressed/remainder"`), MSV lifecycle and
/// prefix-cache events matching the dense reuse executor, `compress.*`
/// counters mirroring [`CompressionStats`], and a `"run/compressed"` span.
/// With a [`NullRecorder`] this is exactly [`run_reordered_compressed`].
///
/// # Errors
///
/// As [`run_reordered_compressed`].
pub fn run_reordered_compressed_traced<R: Recorder + ?Sized>(
    layered: &LayeredCircuit,
    trials: &[Trial],
    recorder: &R,
) -> Result<(RunResult, CompressionStats), SimError> {
    let program = fuse_for_trials_traced(layered, trials, recorder);
    let dense_bytes = StoredState::dense_bytes(layered.n_qubits());
    let mut policy = Compressed { dense_bytes, stats: CompressionStats::default() };
    let mut outcomes = Outcomes::new(trials.len());
    let stats = ReuseExecutor::new(layered).walk(
        Engine::Fused(&program),
        trials,
        usize::MAX,
        PrefixCache::Off,
        &mut policy,
        |index, outcome| outcomes.put(index, outcome),
        recorder,
    )?;
    let comp = CompressionStats { peak_dense_bytes: stats.peak_msv * dense_bytes, ..policy.stats };
    Ok((outcomes.into_result(stats), comp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::exec::BaselineExecutor;
    use crate::testkit::uniform_workload;
    use qsim_circuit::catalog;

    fn run_case(circuit: &qsim_circuit::Circuit, rate_scale: f64, n: usize) {
        let rates = ((1e-2 * rate_scale).min(1.0), (5e-2 * rate_scale).min(1.0), 1e-2);
        let (layered, set) = uniform_workload(circuit, rates, n, 3);
        let baseline = BaselineExecutor::new(&layered).run(set.trials()).unwrap();
        let (result, comp) = run_reordered_compressed(&layered, set.trials()).unwrap();
        assert_eq!(result.outcomes, baseline.outcomes, "{}", circuit.name());
        let report = analyze(&layered, &set).unwrap();
        assert_eq!(result.stats.ops, report.optimized_ops, "{}", circuit.name());
        assert_eq!(result.stats.peak_msv, report.msv_peak, "{}", circuit.name());
        assert!(comp.peak_stored_bytes <= comp.peak_dense_bytes);
        assert!(comp.frames_stored > 0);
    }

    #[test]
    fn compressed_run_is_outcome_and_ops_exact() {
        run_case(&catalog::bv(4, 0b101), 1.0, 300);
        run_case(&catalog::qft(4), 2.0, 300);
        run_case(&catalog::seven_x1_mod15(), 1.0, 200);
    }

    #[test]
    fn structured_circuits_compress_their_frontiers() {
        // BV frontiers before the final Hadamards are near-basis states.
        let (layered, set) = uniform_workload(&catalog::bv(5, 0b1111), (1e-2, 5e-2, 0.0), 500, 9);
        let (_, comp) = run_reordered_compressed(&layered, set.trials()).unwrap();
        assert!(comp.sparse_frames > 0, "no frontier ever compressed");
        // BV's mid-circuit |±…±⟩ frontiers are fully dense, so the peak
        // *instant* cannot compress; the at-rest stores (terminal near-basis
        // states) are where the memory win lives.
        assert!(comp.peak_ratio() <= 1.0);
        assert!(comp.mean_ratio() < 1.0, "mean ratio {} shows no memory win", comp.mean_ratio());
    }

    #[test]
    fn dense_random_circuits_fall_back_to_dense_storage() {
        let (layered, set) =
            uniform_workload(&catalog::quantum_volume(5, 3, 4), (1e-2, 5e-2, 0.0), 200, 2);
        let (result, comp) = run_reordered_compressed(&layered, set.trials()).unwrap();
        // QV states are dense almost immediately: ratio ≈ 1 but never worse.
        assert!(comp.peak_ratio() <= 1.0);
        assert_eq!(result.outcomes.len(), 200);
    }

    #[test]
    fn compressed_telemetry_mirrors_stats_exactly() {
        use qsim_telemetry::AggregatingRecorder;
        let (layered, set) = uniform_workload(&catalog::qft(4), (2e-2, 8e-2, 1e-2), 300, 17);
        let recorder = AggregatingRecorder::new();
        let (result, comp) =
            run_reordered_compressed_traced(&layered, set.trials(), &recorder).unwrap();
        let report = recorder.report();
        assert_eq!(report.counter("ops"), result.stats.ops);
        assert_eq!(report.counter("fused_ops"), result.stats.fused_ops);
        assert_eq!(report.counter("amplitude_passes"), result.stats.amplitude_passes);
        assert_eq!(report.peak_residency(), result.stats.peak_msv);
        assert_eq!(report.total_kernel_count(), result.stats.amplitude_passes);
        assert_eq!(report.counter("compress.frames_stored"), comp.frames_stored);
        assert_eq!(report.counter("compress.sparse_frames"), comp.sparse_frames);
        assert!(report.spans.contains_key("run/compressed"));
        // The traced run is bitwise identical to the untraced one.
        let (plain, plain_comp) = run_reordered_compressed(&layered, set.trials()).unwrap();
        assert_eq!(plain, result);
        assert_eq!(plain_comp, comp);
    }

    #[test]
    fn compression_stats_are_pinned() {
        // Recorded before compression became a storage policy of the shared
        // reuse walk: every field and counter must survive that fold (e.g. a
        // shared advance re-stores its frame only when it moved).
        use qsim_noise::{NoiseModel, TrialGenerator};
        use qsim_telemetry::AggregatingRecorder;
        let pinned = [
            ("bv5", [1024, 1024, 1030, 1, 526_872, 527_360]),
            ("qft5", [1024, 1536, 1051, 639, 290_120, 538_112]),
            ("qv_n5d3", [1024, 1024, 1044, 39, 529_176, 534_528]),
        ];
        let suite = crate::testkit::yorktown_suite();
        for (name, want) in pinned {
            let (_, layered) = suite.iter().find(|(n, _)| n == name).expect("suite circuit");
            let set = TrialGenerator::new(layered, &NoiseModel::ibm_yorktown())
                .expect("native circuit")
                .generate(1000, 7);
            let recorder = AggregatingRecorder::new();
            let (_, comp) =
                run_reordered_compressed_traced(layered, set.trials(), &recorder).unwrap();
            let got = [
                comp.peak_stored_bytes as u64,
                comp.peak_dense_bytes as u64,
                comp.frames_stored,
                comp.sparse_frames,
                comp.total_stored_bytes,
                comp.total_dense_bytes,
            ];
            assert_eq!(got, want, "{name}");
            let report = recorder.report();
            let counters = [
                "compress.frames_stored",
                "compress.sparse_frames",
                "compress.stored_bytes",
                "compress.dense_bytes",
            ]
            .map(|c| report.counter(c));
            assert_eq!(counters, [want[2], want[3], want[4], want[5]], "{name}");
        }
    }

    #[test]
    fn empty_trials_compressed() {
        let layered = catalog::rb().layered().unwrap();
        let (result, comp) = run_reordered_compressed(&layered, &[]).unwrap();
        assert!(result.outcomes.is_empty());
        assert_eq!(comp.frames_stored, 1); // the root store
    }
}
