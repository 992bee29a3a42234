//! Cross-state batched sweep kernels.
//!
//! The batched tree executor (`redsim::tree`) advances a whole frontier of
//! sibling trial states through one [`crate::FusedOp`] at a time. Calling
//! the scalar kernels per state repays the full setup — operand
//! validation, mask/stride computation, dispatch, and the strided
//! enumeration loops — once *per state*, which at small register widths
//! costs as much as the arithmetic itself. The kernels here validate once
//! per sweep and advance the batch op-major: the sparse classes enumerate
//! each operand-index block once and update it in every state as a loop
//! over contiguous slices; the classes with a sweep in `crate::simd`
//! (`phase1`, `diag1`, `perm1`, `dense1`, `diag2`, `perm2`, `ctrl1`,
//! `dense2`) go through [`sweep_pairs`] / [`sweep_quads`], which sweep one
//! tile of groups at a time, block by block across every state. The
//! whole-state applies call the same two functions with a batch of one.
//!
//! # Bitwise exactness
//!
//! Each kernel's per-amplitude update is the arithmetic of the
//! corresponding scalar kernel — the same function for the swept classes,
//! the verbatim expression (same operands, same operation order; Rust does
//! not reassociate or contract floating-point expressions) for the rest.
//! Only the iteration order across independent amplitude groups changes,
//! and no update reads another group's amplitudes, so every state leaves a
//! batched sweep bit-for-bit identical to a scalar
//! [`StateVector::apply_fused`](crate::StateVector) call. The conformance
//! test in `fused.rs` asserts exactly this for every kernel class, and the
//! tree executor's differential harness asserts it end-to-end against the
//! sequential executors.
//!
//! All states in a batch must share one register width; operands are
//! validated once against the first state (empty batches are a no-op).

use std::ops::Range;

use crate::simd::{self, PairOp, QuadOp};
use crate::sweep::{Pairs, Quads, TILE_GROUPS};
use crate::{StateVecError, StateVector, C64};

/// Every state in a batch must have the same register width as the first.
fn check_same_width(states: &[StateVector]) -> Result<(), StateVecError> {
    let width = states[0].n_qubits();
    for s in &states[1..] {
        if s.n_qubits() != width {
            return Err(StateVecError::WidthMismatch { left: width, right: s.n_qubits() });
        }
    }
    Ok(())
}

/// Both operands of a two-qubit op are in range and distinct.
fn check_pair(first: &StateVector, a: usize, b: usize) -> Result<(), StateVecError> {
    first.check_qubit(a)?;
    first.check_qubit(b)?;
    if a == b {
        return Err(StateVecError::DuplicateQubit { qubit: a });
    }
    Ok(())
}

/// Run `f` over `0..groups` one [`TILE_GROUPS`] tile at a time, each tile
/// on every state before the next tile starts.
fn for_each_tile(
    states: &mut [StateVector],
    groups: usize,
    mut f: impl FnMut(&mut [StateVector], Range<usize>),
) {
    let mut start = 0;
    while start < groups {
        let end = (start + TILE_GROUPS).min(groups);
        f(states, start..end);
        start = end;
    }
}

/// Batched one-qubit sweep: [`StateVector::apply_phase1`],
/// [`apply_diag1`](StateVector::apply_diag1),
/// [`apply_perm1`](StateVector::apply_perm1) or
/// [`apply_1q`](StateVector::apply_1q), by `op`.
pub(crate) fn sweep_pairs(
    states: &mut [StateVector],
    op: PairOp<'_>,
    qubit: usize,
) -> Result<(), StateVecError> {
    let Some(first) = states.first() else { return Ok(()) };
    first.check_qubit(qubit)?;
    check_same_width(states)?;
    let (pairs, groups) = (Pairs { qubit }, first.dim() >> 1);
    simd::apply_pairs(op, pairs, |sweep| for_each_tile(states, groups, sweep));
    Ok(())
}

/// Batched two-qubit sweep: [`StateVector::apply_diag2`],
/// [`apply_perm2`](StateVector::apply_perm2),
/// [`apply_ctrl1`](StateVector::apply_ctrl1) or
/// [`apply_2q`](StateVector::apply_2q), by `op`.
pub(crate) fn sweep_quads(
    states: &mut [StateVector],
    op: QuadOp<'_>,
    low: usize,
    high: usize,
) -> Result<(), StateVecError> {
    let Some(first) = states.first() else { return Ok(()) };
    check_pair(first, low, high)?;
    check_same_width(states)?;
    let (quads, groups) = (Quads::new(low, high), first.dim() >> 2);
    simd::apply_quads(op, quads, |sweep| for_each_tile(states, groups, sweep));
    Ok(())
}

/// Batched [`StateVector::apply_cphase2`].
pub(crate) fn cphase2(
    states: &mut [StateVector],
    p: C64,
    qubit_a: usize,
    qubit_b: usize,
) -> Result<(), StateVecError> {
    let Some(first) = states.first() else { return Ok(()) };
    check_pair(first, qubit_a, qubit_b)?;
    check_same_width(states)?;
    let offset = (1usize << qubit_a) | (1usize << qubit_b);
    let (small, large) = if qubit_a < qubit_b { (qubit_a, qubit_b) } else { (qubit_b, qubit_a) };
    let small_stride = 1usize << small;
    let large_stride = 1usize << large;
    let n = states[0].dim();
    // Every index in a `[mid, mid + small_stride)` run has both operand
    // bits clear, so OR-ing the offset is an addition and the active
    // quarter decomposes into contiguous runs.
    let mut outer = 0;
    while outer < n {
        let mut mid = outer;
        while mid < outer + large_stride {
            let start = mid + offset;
            for s in &mut *states {
                for a in &mut s.amps_mut()[start..start + small_stride] {
                    *a = p * *a;
                }
            }
            mid += small_stride << 1;
        }
        outer += large_stride << 1;
    }
    Ok(())
}

/// Batched [`StateVector::apply_cdiag1`].
pub(crate) fn cdiag1(
    states: &mut [StateVector],
    d: &[C64; 2],
    control: usize,
    target: usize,
) -> Result<(), StateVecError> {
    let Some(first) = states.first() else { return Ok(()) };
    check_pair(first, control, target)?;
    check_same_width(states)?;
    let cmask = 1usize << control;
    let tmask = 1usize << target;
    let (d0, d1) = (d[0], d[1]);
    let (small, large) = if control < target { (control, target) } else { (target, control) };
    let small_stride = 1usize << small;
    let large_stride = 1usize << large;
    let n = states[0].dim();
    let mut outer = 0;
    while outer < n {
        let mut mid = outer;
        while mid < outer + large_stride {
            let ic = mid + cmask;
            let ict = ic + tmask;
            for s in &mut *states {
                let amps = s.amps_mut();
                for a in &mut amps[ic..ic + small_stride] {
                    *a = d0 * *a;
                }
                for a in &mut amps[ict..ict + small_stride] {
                    *a = d1 * *a;
                }
            }
            mid += small_stride << 1;
        }
        outer += large_stride << 1;
    }
    Ok(())
}

/// Batched [`StateVector::apply_cx`].
pub(crate) fn cx(
    states: &mut [StateVector],
    control: usize,
    target: usize,
) -> Result<(), StateVecError> {
    let Some(first) = states.first() else { return Ok(()) };
    check_pair(first, control, target)?;
    check_same_width(states)?;
    let cmask = 1usize << control;
    let tmask = 1usize << target;
    let (small, large) = if control < target { (control, target) } else { (target, control) };
    let small_stride = 1usize << small;
    let large_stride = 1usize << large;
    let n = states[0].dim();
    let mut outer = 0;
    while outer < n {
        let mut mid = outer;
        while mid < outer + large_stride {
            let start = mid + cmask;
            for s in &mut *states {
                let (left, right) =
                    s.amps_mut()[start..start + tmask + small_stride].split_at_mut(tmask);
                for (a, b) in left[..small_stride].iter_mut().zip(right.iter_mut()) {
                    std::mem::swap(a, b);
                }
            }
            mid += small_stride << 1;
        }
        outer += large_stride << 1;
    }
    Ok(())
}

/// Batched [`StateVector::apply_ccx`].
pub(crate) fn ccx(
    states: &mut [StateVector],
    control_a: usize,
    control_b: usize,
    target: usize,
) -> Result<(), StateVecError> {
    let Some(first) = states.first() else { return Ok(()) };
    first.check_qubit(control_a)?;
    first.check_qubit(control_b)?;
    first.check_qubit(target)?;
    if control_a == control_b {
        return Err(StateVecError::DuplicateQubit { qubit: control_a });
    }
    if control_a == target || control_b == target {
        return Err(StateVecError::DuplicateQubit { qubit: target });
    }
    check_same_width(states)?;
    let cmask = (1usize << control_a) | (1usize << control_b);
    let tmask = 1usize << target;
    let mut qs = [control_a, control_b, target];
    qs.sort_unstable();
    let [s0, s1, s2] = qs.map(|q| 1usize << q);
    let n = states[0].dim();
    let mut outer = 0;
    while outer < n {
        let mut mid = outer;
        while mid < outer + s2 {
            let mut inner = mid;
            while inner < mid + s1 {
                let start = inner + cmask;
                for s in &mut *states {
                    let (left, right) = s.amps_mut()[start..start + tmask + s0].split_at_mut(tmask);
                    for (a, b) in left[..s0].iter_mut().zip(right.iter_mut()) {
                        std::mem::swap(a, b);
                    }
                }
                inner += s0 << 1;
            }
            mid += s1 << 1;
        }
        outer += s2 << 1;
    }
    Ok(())
}
