//! One benchmark run: set up, check the outputs, then run measurement
//! passes, each from fresh set-ups, for the requested time and turn them
//! into metrics.
//!
//! The host is shared: for seconds to minutes at a time other tenants slow
//! this process down, often for the whole of a run. So a fixed piece of
//! work the benchmark owns, [`HostGauge`], is timed after every set-up and
//! every strategy call, and each pass's times are divided by the pass's
//! host factor: the mean gauge sample over [`GAUGE_NOMINAL_S`]. A
//! strategy's time is the median over passes of its corrected pass total,
//! and `setup_s` is the median of the corrected set-ups.

use std::path::PathBuf;
use std::time::Instant;

use qsim_analyzer::{advise, ExecutionPlan};
use redsim::exec::BaselineExecutor;
use redsim::{analysis, CacheOutcome, RunResult, SimError};

use crate::check::{digest, Tally};
use crate::measure::{
    copy_gbps, host_factor, pass_bytes, peak_rss_mib, replay, HostGauge, GAUGE_NOMINAL_S,
    KERNEL_CLASSES,
};
use crate::report::Metric;
use crate::trace::{best_self_secs, median, Tracer};
use crate::workload::{self, set_up, Case, Prepared, Sizes, TrialInput, Workload};

/// One in this many trials is re-run through the baseline executor.
pub const BASELINE_SAMPLE: usize = 64;

/// Measurement passes every run makes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// Timed set-ups before each measurement pass; the pass runs on the last.
pub const SETUPS_PER_PASS: usize = 5;

/// What to run and for how long.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Minimum seconds of measurement passes.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Problem sizes.
    pub sizes: Sizes,
    /// Scratch directory for the prefix store; removed afterwards.
    pub work_dir: PathBuf,
}

impl Options {
    /// The options the command line runs with.
    pub fn full(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            sizes: Sizes::FULL,
            work_dir: PathBuf::from(".e2ebench-tmp").join(format!("run-{}", std::process::id())),
        }
    }
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Trial counts and failed checks.
    pub tally: Tally,
    /// Digest of every circuit's outcome histogram.
    pub digest: u64,
    /// Measurement passes made.
    pub passes: usize,
    /// Metrics by name: end-to-end ones untraced, per-layer ones traced.
    pub metrics: Vec<Metric>,
    /// Human-readable notes (off-path and synthetic measurements).
    pub notes: Vec<String>,
}

/// The executors a pass runs, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Strategy {
    /// `Simulation::run_reordered`, the default `qsim run` path.
    Reuse,
    /// `Simulation::run_tree`.
    Tree,
    /// `Simulation::run_reordered_cached` against an empty store.
    Cold,
    /// `Simulation::run_reordered_cached` against the store cold filled.
    Warm,
}

impl Strategy {
    const ALL: [Strategy; 4] = [Strategy::Reuse, Strategy::Tree, Strategy::Cold, Strategy::Warm];

    fn span(self) -> &'static str {
        match self {
            Strategy::Reuse => "exec.reuse",
            Strategy::Tree => "tree.run",
            Strategy::Cold => "semcache.cold",
            Strategy::Warm => "semcache.warm",
        }
    }

    fn run(self, case: &Case, prepared: &Prepared) -> Result<(RunResult, CacheOutcome), SimError> {
        let uncached = |result: RunResult| (result, CacheOutcome::default());
        match self {
            Strategy::Reuse => case.sim.run_reordered().map(uncached),
            Strategy::Tree => case.sim.run_tree().map(uncached),
            Strategy::Cold | Strategy::Warm => case.sim.run_reordered_cached(&prepared.store),
        }
    }
}

/// Counts one pass observes; they repeat exactly from pass to pass.
#[derive(Clone, Debug, Default)]
struct Counts {
    reuse_passes: Vec<u64>,
    reuse_bytes: f64,
    peak_msv: usize,
    tree_bytes: f64,
    tree_fused_ops: u64,
    tree_batch_sweeps: u64,
    tree_frontier_bytes: f64,
    bytes_written: u64,
    bytes_read: u64,
    warm_hits: usize,
    credited_passes: u64,
    warm_passes: u64,
}

/// Timings and counts of one measurement pass.
#[derive(Clone, Debug, Default)]
struct Pass {
    traced: bool,
    /// Seconds of each set-up made for the pass.
    setup_secs: Vec<f64>,
    /// Seconds per strategy (in [`Strategy::ALL`] order) per case.
    secs: [Vec<f64>; 4],
    /// Seconds of every gauge sample taken during the pass.
    gauge_secs: Vec<f64>,
    counts: Counts,
}

impl Pass {
    /// How much slower than nominal the host ran during the pass.
    fn host_factor(&self) -> f64 {
        host_factor(&self.gauge_secs)
    }

    /// The pass's total seconds for the strategies in `strategies`,
    /// corrected for the host factor.
    fn corrected_secs(&self, strategies: &[Strategy]) -> f64 {
        let secs: f64 = strategies.iter().map(|&s| self.secs[s as usize].iter().sum::<f64>()).sum();
        secs / self.host_factor()
    }
}

/// Median over `passes` of their corrected totals for `strategies`.
fn median_corrected_secs(passes: &[&Pass], strategies: &[Strategy]) -> f64 {
    median(passes.iter().map(|p| p.corrected_secs(strategies)).collect())
}

/// Every strategy once on every case: reuse, tree, then cold and warm
/// through a freshly cleared prefix store. A case's strategies run back to
/// back so that they see the same host conditions. Each result is checked
/// against the case's reference run outside the timed region. A traced
/// pass also times the layers off the run path on every case.
fn run_pass(
    pass: &mut Pass,
    prepared: &Prepared,
    references: &[RunResult],
    tracer: &mut Tracer,
    gauge: &mut HostGauge,
    tally: &mut Tally,
) -> Result<(), String> {
    let counts = &mut pass.counts;
    for (case, want) in prepared.cases.iter().zip(references) {
        for (s, strategy) in Strategy::ALL.into_iter().enumerate() {
            if strategy == Strategy::Cold {
                prepared.store.clear().map_err(|e| format!("clearing the prefix store: {e}"))?;
            }
            let start = Instant::now();
            let got = tracer.span(strategy.span(), |_| strategy.run(case, prepared));
            pass.secs[s].push(start.elapsed().as_secs_f64());
            pass.gauge_secs.push(gauge.sample());
            let got = got.map(|(result, cache)| {
                let stats = &result.stats;
                let bytes = stats.amplitude_passes as f64 * pass_bytes(case.n_qubits());
                match strategy {
                    Strategy::Reuse => {
                        counts.reuse_passes.push(stats.amplitude_passes);
                        counts.reuse_bytes += bytes;
                        counts.peak_msv = counts.peak_msv.max(stats.peak_msv);
                    }
                    Strategy::Tree => {
                        counts.tree_bytes += bytes;
                        counts.tree_fused_ops += stats.fused_ops;
                        counts.tree_batch_sweeps += stats.batch_sweeps;
                        let frontier = stats.peak_msv as f64 * pass_bytes(case.n_qubits()) / 2.0;
                        counts.tree_frontier_bytes = counts.tree_frontier_bytes.max(frontier);
                    }
                    Strategy::Cold => counts.bytes_written += cache.bytes_written,
                    Strategy::Warm => {
                        counts.warm_hits += usize::from(cache.hit);
                        counts.bytes_read += cache.bytes_read;
                        counts.credited_passes += cache.credited_passes;
                        counts.warm_passes += stats.amplitude_passes;
                    }
                }
                result
            });
            let what = format!("{} {}", case.name, strategy.span());
            // The tree executor adds batch counters to its stats; only its
            // outcomes must match.
            tally.compare(&what, &got, want, strategy != Strategy::Tree);
        }
        if tracer.enabled() {
            time_off_path(case, tracer);
        }
    }
    Ok(())
}

/// Time the layers off the run path on one case: the static analysis, the
/// advisor, and `redsim::reorder` on a copy of the trials (an outside
/// estimate of the sort inside the executors).
fn time_off_path(case: &Case, tracer: &mut Tracer) {
    let layered = case.sim.layered();
    let set = case.trials();
    tracer.span("analysis.analyze", |_| std::hint::black_box(analysis::analyze(layered, set)).ok());
    tracer.span("analyzer.advise", |_| {
        let plan = ExecutionPlan::compile(layered, set, usize::MAX);
        std::hint::black_box(advise(&plan));
    });
    tracer.span("order.reorder", |_| {
        let mut copy = set.trials().to_vec();
        redsim::reorder(&mut copy);
        std::hint::black_box(copy);
    });
}

/// The untimed correctness checks on each reference run: a 1-in-64
/// baseline sample through the same fused program, and the reuse run's
/// counts against the static analysis.
fn check_references(prepared: &Prepared, references: &[RunResult]) -> Tally {
    let mut tally = Tally::default();
    for (case, reference) in prepared.cases.iter().zip(references) {
        let layered = case.sim.layered();
        let set = case.trials();
        let what = format!("{} analysis", case.name);
        match analysis::analyze(layered, set) {
            Ok(report) => tally.check_run(
                &what,
                set.len(),
                report.optimized_ops == reference.stats.ops
                    && report.msv_peak == reference.stats.peak_msv,
                || {
                    format!(
                        "reuse ops {} / peak msv {} but analysis predicts {} / {}",
                        reference.stats.ops,
                        reference.stats.peak_msv,
                        report.optimized_ops,
                        report.msv_peak
                    )
                },
            ),
            Err(e) => tally.check_run(&what, set.len(), false, || e.to_string()),
        }
        let sampled: Vec<usize> = (0..set.len()).step_by(BASELINE_SAMPLE).collect();
        let trials: Vec<_> = sampled.iter().map(|&i| set.trials()[i].clone()).collect();
        let want = RunResult {
            outcomes: sampled.iter().map(|&i| reference.outcomes[i].clone()).collect(),
            stats: reference.stats,
        };
        let got = BaselineExecutor::new(layered).run_with_program(&case.program, &trials);
        tally.compare(&format!("{} baseline sample", case.name), &got, &want, false);
    }
    tally
}

/// Run the benchmark.
///
/// # Errors
///
/// Returns a message when the inputs cannot be built or set up, when a
/// reference run fails, or when the scratch directory cannot be used.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let result = run_in(opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    if let Some(parent) = opts.work_dir.parent() {
        // Removes the parent only if no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    result
}

/// Set up from `inputs` as the `index`-th timed set-up of the run, and
/// record its time and a gauge sample in `pass`.
fn timed_set_up(
    opts: &Options,
    inputs: &workload::Inputs,
    index: usize,
    tracer: &mut Tracer,
    gauge: &mut HostGauge,
    pass: &mut Pass,
) -> Result<Prepared, String> {
    tracer.set_pass(index as u32);
    let start = Instant::now();
    let prepared = set_up(inputs, &opts.work_dir, tracer)?;
    pass.setup_secs.push(start.elapsed().as_secs_f64());
    pass.gauge_secs.push(gauge.sample());
    Ok(prepared)
}

fn run_in(opts: &Options) -> Result<Outcome, String> {
    let inputs = workload::inputs(opts.workload, &opts.sizes, opts.seed)?;
    let mut tracer = Tracer::new(opts.trace);
    let given_trials = inputs.circuits.iter().any(|c| matches!(c.trials, TrialInput::Given(_)));

    // The first set-up is not timed: it also warms the allocator and the
    // page cache.
    let mut prepared = set_up(&inputs, &opts.work_dir, &mut Tracer::new(false))?;
    let references = prepared
        .cases
        .iter()
        .map(|case| case.sim.run_reordered().map_err(|e| format!("{}: {e}", case.name)))
        .collect::<Result<Vec<RunResult>, String>>()?;
    let histograms: Vec<_> = prepared
        .cases
        .iter()
        .zip(&references)
        .map(|(case, reference)| case.sim.histogram(reference))
        .collect();
    let digest = digest(&histograms);
    let mut tally = check_references(&prepared, &references);

    let mut gauge = HostGauge::default();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < opts.seconds {
        // The traced run alternates traced and untraced passes so that
        // their difference gives the cost of tracing.
        tracer.set_enabled(opts.trace && passes.len() % 2 == 0);
        let mut pass = Pass { traced: tracer.enabled(), ..Pass::default() };
        // Every pass starts from fresh set-ups, as a new `qsim run` would;
        // this also spreads the set-up samples over the whole run.
        for i in 0..SETUPS_PER_PASS {
            drop(prepared);
            let index = passes.len() * SETUPS_PER_PASS + i;
            prepared = timed_set_up(opts, &inputs, index, &mut tracer, &mut gauge, &mut pass)?;
        }
        tracer.set_pass(passes.len() as u32);
        if given_trials && tracer.enabled() {
            workload::probe_trialgen(&prepared, &inputs.model, opts.seed, &mut tracer);
        }
        run_pass(&mut pass, &prepared, &references, &mut tracer, &mut gauge, &mut tally)?;
        let totals = pass.secs.each_ref().map(|s| s.iter().sum::<f64>());
        eprintln!(
            "pass {}: host factor {:.3}, set-up {:.4} s, reuse {:.4} s, tree {:.4} s, \
             cold {:.4} s, warm {:.4} s",
            passes.len(),
            pass.host_factor(),
            pass.setup_secs.last().expect("just set up"),
            totals[0],
            totals[1],
            totals[2],
            totals[3]
        );
        passes.push(pass);
    }
    tracer.set_enabled(opts.trace);

    let mut notes = Vec::new();
    let metrics = if opts.trace {
        if given_trials {
            notes.push(
                "noise.trialgen_s is off the measured path: trials are given, so it times \
                 the generator on the same circuits and trial counts"
                    .to_owned(),
            );
        }
        per_layer_metrics(opts, &prepared, &tracer, &passes, &mut notes)?
    } else {
        let trials: usize = prepared.cases.iter().map(|c| c.trials().len()).sum();
        let all: Vec<&Pass> = passes.iter().collect();
        let rate = |s: Strategy| trials as f64 / median_corrected_secs(&all, &[s]);
        let setup_secs = passes
            .iter()
            .flat_map(|p| p.setup_secs.iter().map(|secs| secs / p.host_factor()))
            .collect();
        notes.push(format!(
            "host factor (mean gauge sample over {GAUGE_NOMINAL_S} s): median {:.3}, \
             range {:.3}-{:.3} over passes",
            median(passes.iter().map(Pass::host_factor).collect()),
            passes.iter().map(Pass::host_factor).fold(f64::INFINITY, f64::min),
            passes.iter().map(Pass::host_factor).fold(0.0, f64::max),
        ));
        vec![
            Metric::new("setup_s", median(setup_secs), "s"),
            Metric::new("reuse_trials_per_s", rate(Strategy::Reuse), "trials/s"),
            Metric::new("tree_trials_per_s", rate(Strategy::Tree), "trials/s"),
            Metric::new("cold_trials_per_s", rate(Strategy::Cold), "trials/s"),
            Metric::new("warm_trials_per_s", rate(Strategy::Warm), "trials/s"),
            Metric::new("peak_rss_mb", peak_rss_mib()?, "MiB"),
        ]
    };
    Ok(Outcome { tally, digest, passes: passes.len(), metrics, notes })
}

/// The traced run's per-layer metrics.
fn per_layer_metrics(
    opts: &Options,
    prepared: &Prepared,
    tracer: &Tracer,
    passes: &[Pass],
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| p.traced);
    let overhead = if untraced.is_empty() {
        0.0
    } else {
        median_corrected_secs(&traced, &Strategy::ALL)
            / median_corrected_secs(&untraced, &Strategy::ALL)
            - 1.0
    };
    let counts = &traced.last().expect("the first pass is traced").counts;

    let cases = &prepared.cases;
    let trials: usize = cases.iter().map(|c| c.trials().len()).sum();
    let injections: usize = cases.iter().map(|c| c.trials().total_injections()).sum();
    let source_gates: usize = cases.iter().map(|c| c.program.total_source_gates()).sum();
    let fused_ops: usize = cases.iter().map(|c| c.program.total_fused_ops()).sum();
    let (mut optimized, mut baseline) = (0u64, 0u64);
    for case in cases {
        let report = case.sim.analyze().map_err(|e| format!("{}: {e}", case.name))?;
        optimized += report.optimized_ops;
        baseline += report.baseline_ops;
    }

    let programs: Vec<_> = cases.iter().map(|c| &c.program).collect();
    let kernels = replay(&programs, opts.sizes.probe_secs)?;
    if !kernels.synthetic.is_empty() {
        notes.push(format!(
            "kernel classes absent from the workload, timed on one synthetic operator: {}",
            kernels.synthetic.join(", ")
        ));
    }
    let replayed_sweep_s: f64 = counts
        .reuse_passes
        .iter()
        .zip(&kernels.ns_per_pass)
        .map(|(&passes, &ns)| passes as f64 * ns * 1e-9)
        .sum();
    let state_bytes = cases.iter().map(|c| pass_bytes(c.n_qubits()) / 2.0).fold(0.0, f64::max);
    let l2 = copy_gbps(state_bytes as usize, opts.sizes.probe_secs);
    let dram = copy_gbps(opts.sizes.roofline_bytes, opts.sizes.probe_secs);
    notes.push(format!(
        "roofline arrays: {state_bytes} B (the state) and {} MiB",
        opts.sizes.roofline_bytes >> 20
    ));

    let reuse_s = best_self_secs(tracer.spans(), "exec.reuse");
    let tree_s = best_self_secs(tracer.spans(), "tree.run");
    let cold_s = best_self_secs(tracer.spans(), "semcache.cold");
    let mut metrics = vec![
        Metric::new("qasm.parse_s", best_self_secs(tracer.spans(), "qasm.parse"), "s"),
        Metric::new("circuit.layer_s", best_self_secs(tracer.spans(), "circuit.layer"), "s"),
        Metric::new("circuit.fuse_s", best_self_secs(tracer.spans(), "circuit.fuse"), "s"),
        Metric::new("circuit.gates_per_fused_op", source_gates as f64 / fused_ops as f64, "ratio"),
        Metric::new("noise.trialgen_s", best_self_secs(tracer.spans(), "noise.trialgen"), "s"),
        Metric::new("noise.injections_per_trial", injections as f64 / trials as f64, "count"),
        Metric::new("order.reorder_s", best_self_secs(tracer.spans(), "order.reorder"), "s"),
        Metric::new("order.passes_ratio", optimized as f64 / baseline as f64, "ratio"),
        Metric::new("analysis.analyze_s", best_self_secs(tracer.spans(), "analysis.analyze"), "s"),
        Metric::new("analyzer.advise_s", best_self_secs(tracer.spans(), "analyzer.advise"), "s"),
        Metric::new("exec.reuse_s", reuse_s, "s"),
        Metric::new(
            "exec.amplitude_passes",
            counts.reuse_passes.iter().sum::<u64>() as f64,
            "count",
        ),
        Metric::new("exec.peak_msv", counts.peak_msv as f64, "count"),
        Metric::new("exec.reuse_gbps", counts.reuse_bytes / reuse_s * 1e-9, "GB/s"),
        Metric::new("exec.nonsweep_frac", 1.0 - replayed_sweep_s / reuse_s, "ratio"),
        Metric::new("tree.run_s", tree_s, "s"),
        Metric::new("tree.gbps", counts.tree_bytes / tree_s * 1e-9, "GB/s"),
        Metric::new(
            "tree.mean_batch_width",
            counts.tree_fused_ops as f64 / counts.tree_batch_sweeps.max(1) as f64,
            "count",
        ),
        Metric::new("tree.peak_frontier_mb", counts.tree_frontier_bytes / (1 << 20) as f64, "MiB"),
    ];
    metrics.extend(
        KERNEL_CLASSES.map(|(class, name)| Metric::new(name, kernels.class_gbps[class], "GB/s")),
    );
    metrics.extend([
        Metric::new("statevec.sweep_gbps", kernels.sweep_gbps, "GB/s"),
        Metric::new("statevec.sweep_roofline_frac", kernels.sweep_gbps / l2, "ratio"),
        Metric::new("mem.copy_gbps.l2", l2, "GB/s"),
        Metric::new("mem.copy_gbps.dram", dram, "GB/s"),
        Metric::new("semcache.cold_s", cold_s, "s"),
        Metric::new("semcache.warm_s", best_self_secs(tracer.spans(), "semcache.warm"), "s"),
        Metric::new(
            "semcache.credited_frac",
            counts.credited_passes as f64 / counts.warm_passes.max(1) as f64,
            "ratio",
        ),
        Metric::new("msvstore.publish_s", cold_s - reuse_s, "s"),
        Metric::new("msvstore.bytes_written", counts.bytes_written as f64, "B"),
        Metric::new("msvstore.bytes_read", counts.bytes_read as f64, "B"),
        Metric::new("msvstore.hit_rate", counts.warm_hits as f64 / cases.len() as f64, "ratio"),
        Metric::new("trace.overhead_frac", overhead, "ratio"),
    ]);
    Ok(metrics)
}
