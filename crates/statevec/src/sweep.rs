//! Amplitude-group enumeration shared by the whole-state and batched sweeps.
//!
//! A one-qubit operator on qubit `q` updates `2^(n−1)` independent
//! amplitude **pairs**; a two-qubit operator on `(low, high)` updates
//! `2^(n−2)` independent **quads**. Numbering the groups `0..count` in
//! base-index order lets every kernel take a `Range` of groups: a sweep
//! takes one [`TILE_GROUPS`] tile at a time, over a batch of states (a
//! whole-state apply is a batch of one). Group numbers that agree
//! above bit `min(operands)` have consecutive base indices, so a range
//! splits into *runs*, and each run is two (pairs) or four (quads)
//! contiguous, disjoint streams of amplitudes.
//!
//! The enumeration visits a batch of equal-width states together: each
//! block of runs is cut from every state before the next block, so the
//! block arithmetic is paid once per block rather than once per state.
//! Whole runs are cut with `chunks_exact_mut` and `split_at_mut`, so short
//! runs (low operand qubits) cost a few instructions each.

use std::ops::Range;

use crate::{StateVector, C64};

/// Groups per tile of a batched sweep: each tile is swept in every state
/// of the frontier before the next tile starts.
pub(crate) const TILE_GROUPS: usize = 512;

/// `x` with a zero bit inserted at position `bit`.
fn insert_zero(x: usize, bit: usize) -> usize {
    let low = x & ((1usize << bit) - 1);
    ((x - low) << 1) | low
}

/// Split the pair indices `range` (pairs on `bit`) into a partial first
/// run, whole runs, and a partial last run.
fn spans(range: Range<usize>, bit: usize) -> [Range<usize>; 3] {
    // Shifts and masks, not `next_multiple_of`: the run length is a power
    // of two but not a constant, and a division would cost more than a
    // short run.
    let mask = (1usize << bit) - 1;
    let whole_start = ((range.start + mask) & !mask).min(range.end);
    let whole_end = (range.end & !mask).max(whole_start);
    [range.start..whole_start, whole_start..whole_end, whole_end..range.end]
}

/// The `(bit clear, bit set)` streams of the pairs `part` of `region`,
/// which lie inside one run.
fn part_streams(region: &mut [C64], bit: usize, part: Range<usize>) -> [&mut [C64]; 2] {
    let (stride, len) = (1usize << bit, part.len());
    let base = insert_zero(part.start, bit);
    let (lo, hi) = region[base..base + stride + len].split_at_mut(stride);
    [&mut lo[..len], hi]
}

/// The amplitude pairs of a one-qubit operator on `qubit`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pairs {
    pub(crate) qubit: usize,
}

impl Pairs {
    /// Call `f(lo, hi)` on the `(bit clear, bit set)` streams of every run
    /// of the pairs `groups` in every state.
    pub(crate) fn for_each_run(
        self,
        states: &mut [StateVector],
        groups: Range<usize>,
        mut f: impl FnMut(&mut [C64], &mut [C64]),
    ) {
        let (bit, stride) = (self.qubit, 1usize << self.qubit);
        let [head, whole, tail] = spans(groups, bit);
        for part in [head, tail] {
            if !part.is_empty() {
                for s in &mut *states {
                    let [lo, hi] = part_streams(s.amps_mut(), bit, part.clone());
                    f(lo, hi);
                }
            }
        }
        // Whole runs, up to 256 pairs' worth of them from each state in
        // turn.
        let chunk = 2 * stride.max(256);
        let mut base = 2 * whole.start;
        while base < 2 * whole.end {
            let end = (2 * whole.end).min(base + chunk);
            for s in &mut *states {
                for run in s.amps_mut()[base..end].chunks_exact_mut(2 * stride) {
                    let (lo, hi) = run.split_at_mut(stride);
                    f(lo, hi);
                }
            }
            base = end;
        }
    }
}

/// The amplitude quads of a two-qubit operator on `(low, high)`, in the
/// local index order `2·bit(high) + bit(low)` of [`crate::Matrix4`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Quads {
    pub(crate) small: usize,
    pub(crate) large: usize,
    pub(crate) low_is_small: bool,
}

impl Quads {
    pub(crate) fn new(low: usize, high: usize) -> Self {
        Quads { small: low.min(high), large: low.max(high), low_is_small: low < high }
    }

    /// Call `f(lower, upper, pairs)` for each block of `2^(large+1)`
    /// amplitudes that holds quads of `groups`, in every state. `lower` and
    /// `upper` are the block's halves with the large operand bit clear and
    /// set; the quads of `groups` in the block are the pairs `pairs` on bit
    /// `small` of both halves, in lockstep.
    pub(crate) fn for_each_block(
        self,
        states: &mut [StateVector],
        groups: Range<usize>,
        mut f: impl FnMut(&mut [C64], &mut [C64], Range<usize>),
    ) {
        let half = 1usize << self.large;
        let per_block = half >> 1;
        let mut g = groups.start;
        while g < groups.end {
            let block = g >> (self.large - 1);
            let first = block * per_block;
            let end = groups.end.min(first + per_block);
            for s in &mut *states {
                let (lower, upper) =
                    s.amps_mut()[2 * half * block..2 * half * (block + 1)].split_at_mut(half);
                f(lower, upper, g - first..end - first);
            }
            g = end;
        }
    }

    /// Call `f(streams)` on the four streams (local index 00, 01, 10, 11)
    /// of every run of the quads `groups` in every state.
    pub(crate) fn for_each_run(
        self,
        states: &mut [StateVector],
        groups: Range<usize>,
        mut f: impl FnMut([&mut [C64]; 4]),
    ) {
        let small = self.small;
        let stride = 1usize << small;
        // With `low > high` the small stride carries the high local bit,
        // so streams 01 and 10 trade places.
        let mut emit = |[l0, l1]: [&mut [C64]; 2], [u0, u1]: [&mut [C64]; 2]| {
            f(if self.low_is_small { [l0, l1, u0, u1] } else { [l0, u0, l1, u1] });
        };
        self.for_each_block(states, groups, |lower, upper, pairs| {
            let [head, whole, tail] = spans(pairs, small);
            if !head.is_empty() {
                emit(part_streams(lower, small, head.clone()), part_streams(upper, small, head));
            }
            let lower_runs = lower[2 * whole.start..2 * whole.end].chunks_exact_mut(2 * stride);
            let upper_runs = upper[2 * whole.start..2 * whole.end].chunks_exact_mut(2 * stride);
            for (l, u) in lower_runs.zip(upper_runs) {
                let (l0, l1) = l.split_at_mut(stride);
                let (u0, u1) = u.split_at_mut(stride);
                emit([l0, l1], [u0, u1]);
            }
            if !tail.is_empty() {
                emit(part_streams(lower, small, tail.clone()), part_streams(upper, small, tail));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One 32-amplitude state whose amplitudes hold their own index.
    fn indexed() -> Vec<StateVector> {
        let amps: Vec<C64> = (0..32).map(|i| C64::new(i as f64, 0.0)).collect();
        vec![StateVector::from_amplitudes(&amps).unwrap()]
    }

    #[test]
    fn pair_runs_cover_each_range_exactly_once() {
        for qubit in 0..5usize {
            let pairs = Pairs { qubit };
            for groups in [0..16, 0..0, 3..13, 5..6, 1..16] {
                let mut got = Vec::new();
                pairs.for_each_run(&mut indexed(), groups.clone(), |lo, hi| {
                    assert_eq!(lo.len(), hi.len());
                    for (a, b) in lo.iter().zip(hi.iter()) {
                        assert_eq!(b.re - a.re, (1 << qubit) as f64, "stride");
                        got.push(a.re as usize);
                    }
                });
                got.sort_unstable();
                let expected: Vec<usize> = groups.clone().map(|g| insert_zero(g, qubit)).collect();
                assert_eq!(got, expected, "q={qubit} {groups:?}");
            }
        }
    }

    #[test]
    fn quad_runs_cover_each_range_exactly_once_in_local_order() {
        for (low, high) in [(0usize, 1usize), (1, 0), (0, 4), (3, 1), (2, 4), (4, 3)] {
            let quads = Quads::new(low, high);
            let (ml, mh) = (1usize << low, 1usize << high);
            for groups in [0..8, 0..0, 1..7, 3..4, 2..8] {
                let mut got = Vec::new();
                quads.for_each_run(&mut indexed(), groups.clone(), |[s00, s01, s10, s11]| {
                    for k in 0..s00.len() {
                        let base = s00[k].re as usize;
                        assert_eq!(s01[k].re as usize, base | ml);
                        assert_eq!(s10[k].re as usize, base | mh);
                        assert_eq!(s11[k].re as usize, base | ml | mh);
                        got.push(base);
                    }
                });
                let expected: Vec<usize> = (0..32usize)
                    .filter(|i| i & (ml | mh) == 0)
                    .skip(groups.start)
                    .take(groups.len())
                    .collect();
                assert_eq!(got, expected, "({low},{high}) {groups:?}");
            }
        }
    }
}
