use qsim_circuit::{Circuit, LayeredCircuit};
use qsim_noise::{NoiseModel, TrialGenerator, TrialSet};

use crate::analysis::{self, CostReport};
use crate::exec::{BaselineExecutor, ReuseExecutor, RunResult};
use crate::histogram::Histogram;
use crate::SimError;

/// End-to-end façade: circuit + noise model + trial set, with analysis and
/// both execution strategies.
///
/// ```
/// use qsim_circuit::catalog;
/// use qsim_noise::NoiseModel;
/// use redsim::Simulation;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sim = Simulation::from_circuit(
///     &catalog::seven_x1_mod15(),
///     NoiseModel::uniform(4, 1e-3, 1e-2, 1e-2),
/// )?;
/// sim.generate_trials(512, 0)?;
/// let report = sim.analyze()?;
/// assert!(report.savings() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Simulation {
    layered: LayeredCircuit,
    model: NoiseModel,
    trials: Option<TrialSet>,
}

impl Simulation {
    /// Bind a layered circuit to a noise model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Noise`] if the model does not cover the circuit
    /// (width, non-native gates).
    pub fn new(layered: LayeredCircuit, model: NoiseModel) -> Result<Self, SimError> {
        // Validate compatibility eagerly by constructing a generator once.
        TrialGenerator::new(&layered, &model)?;
        Ok(Simulation { layered, model, trials: None })
    }

    /// Layer a circuit and bind it to a noise model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Circuit`] for layering failures and
    /// [`SimError::Noise`] for model mismatches.
    pub fn from_circuit(circuit: &Circuit, model: NoiseModel) -> Result<Self, SimError> {
        let layered = circuit.layered().map_err(|e| SimError::Circuit(e.to_string()))?;
        Simulation::new(layered, model)
    }

    /// The layered circuit.
    pub fn layered(&self) -> &LayeredCircuit {
        &self.layered
    }

    /// The noise model.
    pub fn model(&self) -> &NoiseModel {
        &self.model
    }

    /// The current trial set, if generated.
    pub fn trials(&self) -> Option<&TrialSet> {
        self.trials.as_ref()
    }

    /// Generate `n` trials with the direct per-position sampler.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Noise`] on model/circuit mismatch.
    pub fn generate_trials(&mut self, n: usize, seed: u64) -> Result<&TrialSet, SimError> {
        let generator = TrialGenerator::new(&self.layered, &self.model)?;
        self.trials = Some(generator.generate(n, seed));
        Ok(self.trials.as_ref().expect("just generated"))
    }

    /// Generate `n` trials with the binomial fast path (for very large `n`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Noise`] on model/circuit mismatch.
    pub fn generate_trials_fast(&mut self, n: usize, seed: u64) -> Result<&TrialSet, SimError> {
        let generator = TrialGenerator::new(&self.layered, &self.model)?;
        self.trials = Some(generator.generate_fast(n, seed));
        Ok(self.trials.as_ref().expect("just generated"))
    }

    /// Adopt an externally built trial set.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TrialMismatch`] for foreign geometry.
    pub fn set_trials(&mut self, trials: TrialSet) -> Result<(), SimError> {
        if trials.n_qubits() != self.layered.n_qubits()
            || trials.n_layers() != self.layered.n_layers()
        {
            return Err(SimError::TrialMismatch {
                trials: (trials.n_qubits(), trials.n_layers()),
                circuit: (self.layered.n_qubits(), self.layered.n_layers()),
            });
        }
        self.trials = Some(trials);
        Ok(())
    }

    /// Static cost analysis of the reordered execution (no amplitudes
    /// touched).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation.
    pub fn analyze(&self) -> Result<CostReport, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        analysis::analyze(&self.layered, trials)
    }

    /// Static cost analysis of prefix caching *without* reordering (the
    /// ablation of the paper's §IV.B motivation).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation.
    pub fn analyze_generation_order(&self) -> Result<CostReport, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        analysis::analyze_generation_order(&self.layered, trials.trials())
    }

    /// Execute all trials with the baseline strategy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation, or execution
    /// failures.
    pub fn run_baseline(&self) -> Result<RunResult, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        BaselineExecutor::new(&self.layered).run(trials.trials())
    }

    /// [`Simulation::run_baseline`] with instrumentation streamed into
    /// `recorder` (see [`BaselineExecutor::run_traced`]).
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_baseline`].
    pub fn run_baseline_traced<R: qsim_telemetry::Recorder + ?Sized>(
        &self,
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        BaselineExecutor::new(&self.layered).run_traced(trials.trials(), recorder)
    }

    /// Execute all trials with trial reordering and prefix-state caching.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation, or execution
    /// failures.
    pub fn run_reordered(&self) -> Result<RunResult, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        ReuseExecutor::new(&self.layered).run(trials.trials())
    }

    /// [`Simulation::run_reordered`] with instrumentation streamed into
    /// `recorder` (see [`ReuseExecutor::run_traced`]).
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_reordered`].
    pub fn run_reordered_traced<R: qsim_telemetry::Recorder + ?Sized>(
        &self,
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        ReuseExecutor::new(&self.layered).run_traced(trials.trials(), recorder)
    }

    /// Execute with reordering under a hard cap of `budget` stored state
    /// vectors (see [`crate::exec::ReuseExecutor::run_with_budget`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation, or execution
    /// failures.
    pub fn run_reordered_with_budget(&self, budget: usize) -> Result<RunResult, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        ReuseExecutor::new(&self.layered).run_with_budget(trials.trials(), budget)
    }

    /// [`Simulation::run_reordered_with_budget`] with instrumentation (see
    /// [`ReuseExecutor::run_traced`]).
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_reordered_with_budget`].
    pub fn run_reordered_with_budget_traced<R: qsim_telemetry::Recorder + ?Sized>(
        &self,
        budget: usize,
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        ReuseExecutor::new(&self.layered).run_with_budget_traced(trials.trials(), budget, recorder)
    }

    /// Static analysis under a stored-state budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation.
    pub fn analyze_with_budget(&self, budget: usize) -> Result<CostReport, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        let mut sorted = trials.trials().to_vec();
        crate::order::reorder(&mut sorted);
        analysis::analyze_sorted_with_budget(&self.layered, &sorted, budget)
    }

    /// Execute with reordering and compressed at-rest frontiers (see
    /// [`crate::compressed`]); outcomes remain identical to the baseline.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation, or execution
    /// failures.
    pub fn run_reordered_compressed(
        &self,
    ) -> Result<(RunResult, crate::compressed::CompressionStats), SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        crate::compressed::run_reordered_compressed(&self.layered, trials.trials())
    }

    /// [`Simulation::run_reordered_compressed`] with instrumentation (see
    /// [`crate::compressed::run_reordered_compressed_traced`]).
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_reordered_compressed`].
    pub fn run_reordered_compressed_traced<R: qsim_telemetry::Recorder + ?Sized>(
        &self,
        recorder: &R,
    ) -> Result<(RunResult, crate::compressed::CompressionStats), SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        crate::compressed::run_reordered_compressed_traced(&self.layered, trials.trials(), recorder)
    }

    /// Execute all trials with the batched tree executor (see
    /// [`crate::tree::TreeExecutor`]): the reuse trie made explicit, with
    /// every fused op swept across the whole sibling frontier. Outcomes
    /// and pass accounting are bitwise identical to
    /// [`Simulation::run_reordered`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation, or execution
    /// failures.
    pub fn run_tree(&self) -> Result<RunResult, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        crate::tree::TreeExecutor::new(&self.layered).run(trials.trials())
    }

    /// [`Simulation::run_tree`] with instrumentation streamed into
    /// `recorder` (see [`crate::tree::TreeExecutor::run_traced`]).
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_tree`].
    pub fn run_tree_traced<R: qsim_telemetry::Recorder + ?Sized>(
        &self,
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        crate::tree::TreeExecutor::new(&self.layered).run_traced(trials.trials(), recorder)
    }

    /// [`Simulation::run_reordered`] through the persistent cross-run
    /// prefix store (see [`crate::semcache`]): consult the store before
    /// materializing the shared prefix, publish the frontier after a
    /// miss. Outcomes and [`crate::exec::ExecStats`] are bitwise identical
    /// to [`Simulation::run_reordered`] whether the lookup hits or
    /// misses.
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_reordered`]; store I/O problems degrade to an
    /// uncached run, they never fail it.
    pub fn run_reordered_cached(
        &self,
        store: &redsim_msvstore::MsvStore,
    ) -> Result<(RunResult, crate::semcache::CacheOutcome), SimError> {
        self.run_reordered_cached_traced(store, &qsim_telemetry::NullRecorder)
    }

    /// [`Simulation::run_reordered_cached`] with instrumentation: the
    /// usual reuse-executor telemetry plus the `msvstore.*` counters
    /// (hit/miss/store/evict, bytes moved, and the pass/op credit that
    /// keeps trace cross-checks exact on hit runs).
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_reordered_cached`].
    pub fn run_reordered_cached_traced<R: qsim_telemetry::Recorder + ?Sized>(
        &self,
        store: &redsim_msvstore::MsvStore,
        recorder: &R,
    ) -> Result<(RunResult, crate::semcache::CacheOutcome), SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        crate::semcache::run_reordered_cached_traced(
            &self.layered,
            &self.model,
            trials.trials(),
            store,
            recorder,
        )
    }

    /// Compile the plan once, ask the static advisor for the cheapest
    /// *executable* strategy (see [`qsim_analyzer::advise`]), and run it.
    /// Returns the result together with the winning prediction so callers
    /// can cross-check measured [`crate::exec::ExecStats`] against it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation, or execution
    /// failures from the selected strategy.
    #[cfg(feature = "advisor")]
    pub fn run_advised(&self) -> Result<(RunResult, qsim_analyzer::StrategyPrediction), SimError> {
        self.run_advised_traced(&qsim_telemetry::NullRecorder)
    }

    /// [`Simulation::run_advised`] with instrumentation: records the
    /// advisor's verdict as `advisor.predicted_passes`,
    /// `advisor.predicted_ops`, `advisor.predicted_msv`, and an
    /// `advisor.selected.<strategy>` counter before handing the run to the
    /// selected executor (which streams its usual telemetry on top).
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_advised`].
    #[cfg(feature = "advisor")]
    pub fn run_advised_traced<R: qsim_telemetry::Recorder + ?Sized>(
        &self,
        recorder: &R,
    ) -> Result<(RunResult, qsim_analyzer::StrategyPrediction), SimError> {
        let (result, chosen, _) = self.run_advised_with(None, recorder)?;
        Ok((result, chosen))
    }

    /// [`Simulation::run_advised_traced`] consulting the persistent
    /// prefix store when — and only when — the advisor selects the reuse
    /// strategy; every other strategy has no seedable root frontier and
    /// runs uncached (`None` in the returned triple).
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_advised`].
    #[cfg(feature = "advisor")]
    pub fn run_advised_cached_traced<R: qsim_telemetry::Recorder + ?Sized>(
        &self,
        store: &redsim_msvstore::MsvStore,
        recorder: &R,
    ) -> Result<
        (RunResult, qsim_analyzer::StrategyPrediction, Option<crate::semcache::CacheOutcome>),
        SimError,
    > {
        self.run_advised_with(Some(store), recorder)
    }

    /// Compile the execution plan, record the advisor's verdict counters,
    /// and run the winning executable strategy — through `store` when that
    /// is reuse.
    #[cfg(feature = "advisor")]
    fn run_advised_with<R: qsim_telemetry::Recorder + ?Sized>(
        &self,
        store: Option<&redsim_msvstore::MsvStore>,
        recorder: &R,
    ) -> Result<
        (RunResult, qsim_analyzer::StrategyPrediction, Option<crate::semcache::CacheOutcome>),
        SimError,
    > {
        use qsim_analyzer::Strategy;
        let set = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        let (layered, trials) = (&self.layered, set.trials());
        let plan = qsim_analyzer::ExecutionPlan::compile_traced(layered, set, usize::MAX, recorder);
        let chosen = *qsim_analyzer::advise(&plan).best_executable();
        if recorder.enabled() {
            recorder.counter("advisor.predicted_passes", chosen.amplitude_passes);
            recorder.counter("advisor.predicted_ops", chosen.ops);
            recorder.counter("advisor.predicted_msv", chosen.msv_peak as u64);
            recorder.counter(
                match chosen.strategy {
                    Strategy::Sequential => "advisor.selected.sequential",
                    Strategy::Fused => "advisor.selected.fused",
                    Strategy::Reuse => "advisor.selected.reuse",
                    Strategy::Compressed => "advisor.selected.compressed",
                    Strategy::Tree => "advisor.selected.tree",
                    Strategy::FrameTracking => "advisor.selected.frame-tracking",
                },
                1,
            );
        }
        let result = match (chosen.strategy, store) {
            (Strategy::Reuse, Some(store)) => {
                let (result, cache) = crate::semcache::run_reordered_cached_traced(
                    layered,
                    &self.model,
                    trials,
                    store,
                    recorder,
                )?;
                return Ok((result, chosen, Some(cache)));
            }
            (Strategy::Reuse, None) => ReuseExecutor::new(layered).run_traced(trials, recorder)?,
            (Strategy::Sequential, _) => BaselineExecutor::new(layered).run_unfused(trials)?,
            (Strategy::Fused, _) => BaselineExecutor::new(layered).run_traced(trials, recorder)?,
            (Strategy::Compressed, _) => {
                crate::compressed::run_reordered_compressed_traced(layered, trials, recorder)?.0
            }
            (Strategy::Tree, _) => {
                crate::tree::TreeExecutor::new(layered).run_traced(trials, recorder)?
            }
            (Strategy::FrameTracking, _) => {
                unreachable!("best_executable never returns a frame-tracking prediction")
            }
        };
        Ok((result, chosen, None))
    }

    /// Analytic first-order prediction of the savings for `n_trials`
    /// Monte-Carlo trials (see [`crate::estimate`]); no trials generated.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Noise`] on model/circuit mismatch.
    pub fn estimate(&self, n_trials: usize) -> Result<crate::estimate::SavingsEstimate, SimError> {
        let generator = TrialGenerator::new(&self.layered, &self.model)?;
        Ok(crate::estimate::estimate_first_order(&self.layered, &generator, n_trials))
    }

    /// The exact outcome distribution from the density-matrix oracle (see
    /// [`crate::reference`]); small registers only.
    ///
    /// # Errors
    ///
    /// Propagates oracle failures (non-native gates, oversized registers).
    pub fn exact_distribution(&self) -> Result<Vec<f64>, SimError> {
        crate::reference::exact_distribution(&self.layered, &self.model)
    }

    /// Multi-threaded baseline execution (`0` threads = all cores).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation, or execution
    /// failures.
    pub fn run_baseline_parallel(&self, n_threads: usize) -> Result<RunResult, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        crate::parallel::run_baseline_parallel(&self.layered, trials.trials(), n_threads)
    }

    /// Multi-threaded reordered execution (`0` threads = all cores).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation, or execution
    /// failures.
    pub fn run_reordered_parallel(&self, n_threads: usize) -> Result<RunResult, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        crate::parallel::run_reordered_parallel(&self.layered, trials.trials(), n_threads)
    }

    /// [`Simulation::run_baseline_parallel`] with a shared recorder across
    /// workers (see [`crate::parallel::run_baseline_parallel_traced`]).
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_baseline_parallel`].
    pub fn run_baseline_parallel_traced<R: qsim_telemetry::Recorder + ?Sized>(
        &self,
        n_threads: usize,
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        crate::parallel::run_baseline_parallel_traced(
            &self.layered,
            trials.trials(),
            n_threads,
            recorder,
        )
    }

    /// [`Simulation::run_reordered_parallel`] with a shared recorder across
    /// workers (see [`crate::parallel::run_reordered_parallel_traced`]).
    ///
    /// # Errors
    ///
    /// As [`Simulation::run_reordered_parallel`].
    pub fn run_reordered_parallel_traced<R: qsim_telemetry::Recorder + ?Sized>(
        &self,
        n_threads: usize,
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        crate::parallel::run_reordered_parallel_traced(
            &self.layered,
            trials.trials(),
            n_threads,
            recorder,
        )
    }

    /// Aggregate a run's outcomes into a histogram over the classical
    /// register.
    pub fn histogram(&self, result: &RunResult) -> Histogram {
        Histogram::from_outcomes(self.layered.n_cbits(), &result.outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::catalog;

    fn sim() -> Simulation {
        Simulation::from_circuit(&catalog::bv(4, 0b111), NoiseModel::uniform(4, 5e-3, 5e-2, 2e-2))
            .unwrap()
    }

    #[test]
    fn requires_trials_before_analysis_or_execution() {
        let s = sim();
        assert!(matches!(s.analyze(), Err(SimError::NoTrials)));
        assert!(matches!(s.run_baseline(), Err(SimError::NoTrials)));
        assert!(matches!(s.run_reordered(), Err(SimError::NoTrials)));
    }

    #[test]
    fn end_to_end_equivalence_and_savings() {
        let mut s = sim();
        s.generate_trials(400, 3).unwrap();
        let report = s.analyze().unwrap();
        assert!(report.savings() > 0.3, "saving {}", report.savings());
        let baseline = s.run_baseline().unwrap();
        let reordered = s.run_reordered().unwrap();
        assert_eq!(baseline.outcomes, reordered.outcomes);
        assert_eq!(reordered.stats.ops, report.optimized_ops);
        assert_eq!(baseline.stats.ops, report.baseline_ops);
        let h = s.histogram(&reordered);
        assert_eq!(h.total(), 400);
        // Most outcomes should still be the hidden string at these rates.
        assert!(h.probability(0b111) > 0.5);
    }

    #[test]
    fn fast_generation_also_runs() {
        let mut s = sim();
        s.generate_trials_fast(300, 9).unwrap();
        let report = s.analyze().unwrap();
        assert_eq!(report.n_trials, 300);
        let result = s.run_reordered().unwrap();
        assert_eq!(result.stats.ops, report.optimized_ops);
    }

    #[test]
    fn set_trials_validates_geometry() {
        let mut s = sim();
        let foreign = TrialSet::new(9, 9, vec![]);
        assert!(matches!(s.set_trials(foreign), Err(SimError::TrialMismatch { .. })));
        let mut other = sim();
        other.generate_trials(10, 0).unwrap();
        let set = other.trials().unwrap().clone();
        s.set_trials(set).unwrap();
        assert_eq!(s.trials().unwrap().len(), 10);
    }

    #[test]
    fn rejects_untranspiled_circuit_eagerly() {
        let mut qc = Circuit::new("ccx", 3, 3);
        qc.ccx(0, 1, 2).measure_all();
        let err =
            Simulation::from_circuit(&qc, NoiseModel::uniform(3, 1e-3, 1e-2, 0.0)).unwrap_err();
        assert!(matches!(err, SimError::Noise(_)));
    }

    #[test]
    fn facade_budget_and_parallel_paths_agree() {
        let mut s = sim();
        s.generate_trials(300, 21).unwrap();
        let baseline = s.run_baseline().unwrap();
        let budgeted = s.run_reordered_with_budget(2).unwrap();
        assert_eq!(budgeted.outcomes, baseline.outcomes);
        assert!(budgeted.stats.peak_msv <= 2);
        assert_eq!(s.analyze_with_budget(2).unwrap().optimized_ops, budgeted.stats.ops);
        let par = s.run_reordered_parallel(3).unwrap();
        assert_eq!(par.outcomes, baseline.outcomes);
        let par_base = s.run_baseline_parallel(3).unwrap();
        assert_eq!(par_base.outcomes, baseline.outcomes);
    }

    #[test]
    fn facade_compressed_and_oracle_paths() {
        let mut s = sim();
        s.generate_trials(400, 8).unwrap();
        let baseline = s.run_baseline().unwrap();
        let (compressed, stats) = s.run_reordered_compressed().unwrap();
        assert_eq!(compressed.outcomes, baseline.outcomes);
        assert!(stats.frames_stored > 0);
        let exact = s.exact_distribution().unwrap();
        assert!((exact.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let hist = s.histogram(&compressed);
        assert!(hist.tv_distance(&exact) < 0.15); // coarse at 400 trials
    }

    #[test]
    fn accessors_expose_components() {
        let mut s = sim();
        assert_eq!(s.layered().n_qubits(), 4);
        assert_eq!(s.model().n_qubits(), 4);
        assert!(s.trials().is_none());
        s.generate_trials(5, 0).unwrap();
        assert_eq!(s.trials().unwrap().len(), 5);
    }
}
