//! Correctness checks feeding the `attempted` / `failed` trial counts, and
//! the histogram digest two runs can be compared by.

use redsim::{Histogram, RunResult, SimError};

/// Trials attempted and failed across every checked run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Trials executed by checked runs.
    pub attempted: u64,
    /// Trials whose outcome mismatched, or that belonged to a run that
    /// returned an error or wrong accounting.
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
}

impl Tally {
    /// Record a run of `want.outcomes.len()` trials that is expected to
    /// reproduce `want`'s outcomes bitwise (and its [`redsim::ExecStats`]
    /// too when `same_stats`). A run that errored or whose accounting
    /// differs fails all its trials; otherwise each mismatched outcome
    /// fails one trial.
    pub fn compare(
        &mut self,
        what: &str,
        got: &Result<RunResult, SimError>,
        want: &RunResult,
        same_stats: bool,
    ) {
        let n = want.outcomes.len() as u64;
        self.attempted += n;
        let failed = match got {
            Err(e) => {
                self.notes.push(format!("{what}: run failed: {e}"));
                n
            }
            Ok(got) if got.outcomes.len() != want.outcomes.len() => {
                self.notes.push(format!(
                    "{what}: {} outcomes for {} trials",
                    got.outcomes.len(),
                    want.outcomes.len()
                ));
                n
            }
            Ok(got) if same_stats && got.stats != want.stats => {
                self.notes.push(format!("{what}: stats {} != {}", got.stats, want.stats));
                n
            }
            Ok(got) => {
                let bad = got.outcomes.iter().zip(&want.outcomes).filter(|(a, b)| a != b).count();
                if bad > 0 {
                    self.notes.push(format!("{what}: {bad} of {n} outcomes differ"));
                }
                bad as u64
            }
        };
        self.failed += failed;
    }

    /// Record a check over a whole run of `n` trials that passed or failed
    /// as one (the reuse run's counts against the static analysis).
    pub fn check_run(&mut self, what: &str, n: usize, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += n as u64;
        if !ok {
            self.failed += n as u64;
            self.notes.push(format!("{what}: {}", detail()));
        }
    }
}

/// FNV-1a over the bytes of `words`, continuing from `hash`.
fn fnv1a(mut hash: u64, words: &[u64]) -> u64 {
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Digest of a workload's per-circuit outcome histograms, in circuit
/// order. Equal outcomes give equal digests.
pub fn digest<'a>(histograms: impl IntoIterator<Item = &'a Histogram>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for (i, histogram) in histograms.into_iter().enumerate() {
        hash = fnv1a(hash, &[i as u64, histogram.n_bits() as u64, histogram.total()]);
        for (pattern, count) in histogram.iter() {
            hash = fnv1a(hash, &[pattern, count]);
        }
    }
    hash
}
