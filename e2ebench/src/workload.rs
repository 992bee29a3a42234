//! The three workloads: their inputs, generated from the seed, and the
//! timed set-up that turns those inputs into runnable simulations.

use std::path::{Path, PathBuf};

use qsim_circuit::{catalog, to_qasm, FusedProgram};
use qsim_noise::{NoiseModel, TrialGenerator, TrialSet};
use redsim::exec::fuse_for_trials;
use redsim::testkit::vqa_sweep;
use redsim::Simulation;
use redsim_msvstore::MsvStore;

use crate::trace::Tracer;

/// A workload the benchmark can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Eight 14-qubit quantum-volume circuits: kernel sweeps dominate.
    Qv14,
    /// The twelve shipped 5-qubit Yorktown circuits at many trials:
    /// per-trial work dominates.
    Yorktown,
    /// A 16-qubit VQA parameter sweep run uncached, cold and warm through
    /// the persistent prefix store.
    VqaCache,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Qv14, Workload::Yorktown, Workload::VqaCache];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Qv14 => "qv14",
            Workload::Yorktown => "yorktown",
            Workload::VqaCache => "vqa_cache",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes. [`Sizes::FULL`] is what the benchmark measures;
/// [`Sizes::TINY`] keeps every code path but runs in milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Quantum-volume width.
    pub qv_qubits: usize,
    /// Quantum-volume depth.
    pub qv_depth: usize,
    /// Quantum-volume circuits, each built from its own seed.
    pub qv_circuits: usize,
    /// Trials per quantum-volume circuit.
    pub qv_trials: usize,
    /// Trials per Yorktown circuit.
    pub yorktown_trials: usize,
    /// Yorktown circuits used, from the start of the sorted file list.
    pub yorktown_circuits: usize,
    /// VQA ansatz width.
    pub vqa_qubits: usize,
    /// VQA ansatz blocks.
    pub vqa_blocks: usize,
    /// VQA sweep points.
    pub vqa_points: usize,
    /// Trials per sweep point.
    pub vqa_trials: usize,
    /// Minimum seconds per kernel-replay and roofline sample set.
    pub probe_secs: f64,
    /// Size of the array the DRAM roofline copies.
    pub roofline_bytes: usize,
}

impl Sizes {
    /// The measured sizes.
    pub const FULL: Sizes = Sizes {
        qv_qubits: 14,
        qv_depth: 10,
        qv_circuits: 8,
        qv_trials: 16,
        yorktown_trials: 32768,
        yorktown_circuits: 12,
        vqa_qubits: 16,
        vqa_blocks: 16,
        vqa_points: 16,
        vqa_trials: 64,
        probe_secs: 0.03,
        // At least four times the 105 MiB last-level cache of the
        // 2-vCPU Xeon the benchmark was tuned on.
        roofline_bytes: 448 << 20,
    };

    /// Smoke-test sizes.
    pub const TINY: Sizes = Sizes {
        qv_qubits: 6,
        qv_depth: 3,
        qv_circuits: 2,
        qv_trials: 16,
        yorktown_trials: 256,
        yorktown_circuits: 3,
        vqa_qubits: 6,
        vqa_blocks: 3,
        vqa_points: 3,
        vqa_trials: 16,
        probe_secs: 0.0005,
        roofline_bytes: 1 << 20,
    };
}

/// How a circuit's trials reach the program.
#[derive(Clone, Debug, PartialEq)]
pub enum TrialInput {
    /// Sampled by the noise layer during set-up.
    Generate {
        /// Number of trials.
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Handed over ready-made (the VQA sweep's tail-only trials).
    Given(TrialSet),
}

/// One circuit of a workload, as a user would hand it to `qsim run`.
#[derive(Clone, Debug, PartialEq)]
pub struct CircuitInput {
    /// Display name.
    pub name: String,
    /// OpenQASM 2.0 source.
    pub qasm: String,
    /// Trials to run.
    pub trials: TrialInput,
}

/// A workload's inputs: everything derived from the seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// Noise model shared by every circuit.
    pub model: NoiseModel,
    /// The circuits, in run order.
    pub circuits: Vec<CircuitInput>,
}

/// Seed for the `index`-th circuit's trials (splitmix64 of the pair).
fn derive_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Directory holding the shipped Yorktown QASM files.
fn yorktown_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../benchmarks/yorktown")
}

/// Generate a workload's inputs from `seed`. The same arguments always
/// give the same inputs.
///
/// # Errors
///
/// Returns a message when the shipped Yorktown files cannot be read.
pub fn inputs(workload: Workload, sizes: &Sizes, seed: u64) -> Result<Inputs, String> {
    let (model, circuits) = match workload {
        Workload::Qv14 => {
            let circuits = (0..sizes.qv_circuits)
                .map(|i| {
                    let circuit_seed = derive_seed(seed, 2 * i);
                    let circuit =
                        catalog::quantum_volume(sizes.qv_qubits, sizes.qv_depth, circuit_seed);
                    CircuitInput {
                        name: format!("{}-{i}", circuit.name()),
                        qasm: to_qasm(&circuit),
                        trials: TrialInput::Generate {
                            n: sizes.qv_trials,
                            seed: derive_seed(seed, 2 * i + 1),
                        },
                    }
                })
                .collect();
            (NoiseModel::artificial(sizes.qv_qubits, 1e-3), circuits)
        }
        Workload::Yorktown => {
            let dir = yorktown_dir();
            let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
                .map_err(|e| format!("{}: {e}", dir.display()))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "qasm"))
                .collect();
            paths.sort();
            if paths.len() < sizes.yorktown_circuits {
                return Err(format!(
                    "{}: expected {} QASM files, found {}",
                    dir.display(),
                    sizes.yorktown_circuits,
                    paths.len()
                ));
            }
            let circuits = paths
                .iter()
                .take(sizes.yorktown_circuits)
                .enumerate()
                .map(|(i, path)| {
                    let qasm = std::fs::read_to_string(path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    let name = path.file_stem().map(|s| s.to_string_lossy().into_owned());
                    Ok(CircuitInput {
                        name: name.unwrap_or_default(),
                        qasm,
                        trials: TrialInput::Generate {
                            n: sizes.yorktown_trials,
                            seed: derive_seed(seed, i),
                        },
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            (NoiseModel::ibm_yorktown(), circuits)
        }
        Workload::VqaCache => {
            let (model, sweep) = vqa_sweep(
                sizes.vqa_qubits,
                sizes.vqa_blocks,
                sizes.vqa_points,
                sizes.vqa_trials,
                seed,
            );
            let circuits = sweep
                .into_iter()
                .map(|point| CircuitInput {
                    name: point.name,
                    qasm: to_qasm(&catalog::vqa_ansatz(
                        sizes.vqa_qubits,
                        sizes.vqa_blocks,
                        point.theta,
                    )),
                    trials: TrialInput::Given(point.trials),
                })
                .collect();
            (model, circuits)
        }
    };
    Ok(Inputs { model, circuits })
}

/// One circuit ready to run.
#[derive(Debug)]
pub struct Case {
    /// Display name.
    pub name: String,
    /// Circuit, noise model and trials.
    pub sim: Simulation,
    /// The fused program the executors compile for these trials.
    pub program: FusedProgram,
}

impl Case {
    /// The case's trial set.
    pub fn trials(&self) -> &TrialSet {
        self.sim.trials().expect("set-up always installs trials")
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.sim.layered().n_qubits()
    }
}

/// The result of set-up: every case plus the open prefix store (empty:
/// nothing is published before the measurement passes).
#[derive(Debug)]
pub struct Prepared {
    /// The circuits, in run order.
    pub cases: Vec<Case>,
    /// Persistent prefix store used by the cold and warm passes.
    pub store: MsvStore,
}

/// Set-up: parse, layer, bind the noise model, generate trials, fuse, and
/// open the prefix store in `store_dir`, each inside its layer's span.
///
/// # Errors
///
/// Returns a message when any layer rejects the inputs.
pub fn set_up(inputs: &Inputs, store_dir: &Path, tracer: &mut Tracer) -> Result<Prepared, String> {
    let cases = inputs
        .circuits
        .iter()
        .map(|input| {
            let circuit = tracer
                .span("qasm.parse", |_| qsim_qasm::parse(&input.qasm))
                .map_err(|e| format!("{}: {e}", input.name))?;
            let layered = tracer
                .span("circuit.layer", |_| circuit.layered())
                .map_err(|e| format!("{}: {e}", input.name))?;
            let mut sim = Simulation::new(layered, inputs.model.clone())
                .map_err(|e| format!("{}: {e}", input.name))?;
            match &input.trials {
                TrialInput::Generate { n, seed } => {
                    tracer
                        .span("noise.trialgen", |_| sim.generate_trials(*n, *seed).map(|_| ()))
                        .map_err(|e| format!("{}: {e}", input.name))?;
                }
                TrialInput::Given(set) => {
                    sim.set_trials(set.clone()).map_err(|e| format!("{}: {e}", input.name))?;
                }
            }
            let trials = sim.trials().expect("trials installed above").trials();
            let program = tracer.span("circuit.fuse", |_| fuse_for_trials(sim.layered(), trials));
            Ok(Case { name: input.name.clone(), sim, program })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let store = tracer
        .span("msvstore.open", |_| MsvStore::open(store_dir, 0))
        .map_err(|e| format!("{}: {e}", store_dir.display()))?;
    Ok(Prepared { cases, store })
}

/// Time the noise layer's generator on each circuit of `prepared` at its
/// trial count. On workloads whose trials are [`TrialInput::Given`] this is
/// off the measured path: it is what `qsim run` would spend sampling the
/// same number of trials for the same circuits.
pub fn probe_trialgen(prepared: &Prepared, model: &NoiseModel, seed: u64, tracer: &mut Tracer) {
    for case in &prepared.cases {
        let n = case.trials().len();
        tracer.span("noise.trialgen", |_| {
            let generator =
                TrialGenerator::new(case.sim.layered(), model).expect("set-up bound this model");
            std::hint::black_box(generator.generate(n, seed));
        });
    }
}
