//! Sweep kernels for the operator classes that update every amplitude
//! group: an AVX path and a scalar fallback per class, shared by
//! [`StateVector`](crate::StateVector)'s whole-state applies and the batched
//! frontier sweeps of `crate::batch`.
//!
//! One-qubit classes ([`PairOp`]: `phase1`, `diag1`, `perm1`, `dense1`)
//! run over amplitude pairs, two-qubit classes ([`QuadOp`]: `diag2`,
//! `perm2`, `dense2`, `ctrl1`) over quads; both entry points take a range of groups
//! (see `crate::sweep`) and pick the AVX path at each call when the CPU has
//! it. Other targets, and Miri, compile only the scalar path.
//!
//! # Bitwise contract
//!
//! Every AVX lane evaluates the scalar `Complex` expression exactly. The
//! product `r·a` is `addsub(a·r.re, swap(a)·r.im)` =
//! `(r.re·a.re − r.im·a.im, r.re·a.im + r.im·a.re)`, the same two products
//! and one add/sub per component as `Complex::mul` (IEEE-754 products and
//! sums are commutative). Row sums associate as `((p0 + p1) + p2) + p3`,
//! like the scalar `p0 + p1 + p2 + p3`, and no FMA is used, so each output
//! is rounded exactly where the scalar kernel rounds it.

use std::ops::Range;

use crate::sweep::{Pairs, Quads};
use crate::{Matrix2, Matrix4, StateVector, C64};

// The AVX loads view `[C64; 2]` as four contiguous `f64`
// (`re, im, re, im`), which the vendored `Complex`'s `#[repr(C)]` provides.
const _: () = {
    assert!(std::mem::size_of::<C64>() == 16);
    assert!(std::mem::align_of::<C64>() == 8);
    assert!(std::mem::offset_of!(C64, re) == 0);
    assert!(std::mem::offset_of!(C64, im) == 8);
};

/// A one-qubit class, applied to each amplitude pair `(a, b)` (qubit bit
/// clear, set).
#[derive(Clone, Copy, Debug)]
pub(crate) enum PairOp<'a> {
    /// `b ← d1·b`; `a` is not touched.
    Phase(C64),
    /// `(a, b) ← (d0·a, d1·b)`.
    Diag(&'a [C64; 2]),
    /// `(a, b) ← (p0·b, p1·a)`.
    Perm(&'a [C64; 2]),
    /// `(a, b) ← (m00·a + m01·b, m10·a + m11·b)`.
    Dense(&'a Matrix2),
}

/// A two-qubit class, applied to each amplitude quad in local index order.
#[derive(Clone, Copy, Debug)]
pub(crate) enum QuadOp<'a> {
    /// `new[r] = d[r]·old[r]`.
    Diag(&'a [C64; 4]),
    /// `new[r] = phase[r]·old[src[r]]`.
    Perm(&'a [u8; 4], &'a [C64; 4]),
    /// `new[r] = ((m[r][0]·old[0] + m[r][1]·old[1]) + …) + m[r][3]·old[3]`.
    Dense(&'a Matrix4),
    /// `(old[2], old[3])` ← `u·(old[2], old[3])`; quads' first half is not
    /// touched. A one-qubit `u` on the low operand, controlled by the high.
    Ctrl1(&'a Matrix2),
}

/// One prepared sweep: applies its operator to the groups `range` of every
/// state in `states` (all of one width).
pub(crate) type Sweep<'s> = &'s mut dyn FnMut(&mut [StateVector], Range<usize>);

/// Apply `op` to the pairs of qubit `pairs.qubit`. The kernel path is
/// chosen and the coefficients prepared once; `each` then runs the
/// prepared sweep on every `(states, group range)` it covers.
pub(crate) fn apply_pairs(op: PairOp<'_>, pairs: Pairs, each: impl FnOnce(Sweep<'_>)) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: the running CPU supports AVX (detected just above).
        return unsafe { avx::apply_pairs(op, pairs, each) };
    }
    each(&mut |states, groups| scalar::apply_pairs(states, op, pairs, groups));
}

/// Apply `op` to the quads of the operand pair `quads`, like
/// [`apply_pairs`].
pub(crate) fn apply_quads(op: QuadOp<'_>, quads: Quads, each: impl FnOnce(Sweep<'_>)) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: the running CPU supports AVX (detected just above).
        return unsafe { avx::apply_quads(op, quads, each) };
    }
    each(&mut |states, groups| scalar::apply_quads(states, op, quads, groups));
}

mod scalar {
    use super::*;

    pub(super) fn apply_pairs(
        states: &mut [StateVector],
        op: PairOp<'_>,
        pairs: Pairs,
        groups: Range<usize>,
    ) {
        pairs.for_each_run(states, groups, |lo, hi| pair_run(op, lo, hi));
    }

    /// `op` on the pairs `(lo[k], hi[k])`.
    pub(super) fn pair_run(op: PairOp<'_>, lo: &mut [C64], hi: &mut [C64]) {
        match op {
            PairOp::Phase(d1) => {
                for b in hi {
                    *b = d1 * *b;
                }
            }
            PairOp::Diag(&[d0, d1]) => {
                for a in lo {
                    *a = d0 * *a;
                }
                for b in hi {
                    *b = d1 * *b;
                }
            }
            PairOp::Perm(&[p0, p1]) => {
                for (a, b) in lo.iter_mut().zip(hi) {
                    let x = *a;
                    *a = p0 * *b;
                    *b = p1 * x;
                }
            }
            PairOp::Dense(m) => {
                let [[m00, m01], [m10, m11]] = m.0;
                for (a, b) in lo.iter_mut().zip(hi) {
                    let (x, y) = (*a, *b);
                    *a = m00 * x + m01 * y;
                    *b = m10 * x + m11 * y;
                }
            }
        }
    }

    pub(super) fn apply_quads(
        states: &mut [StateVector],
        op: QuadOp<'_>,
        quads: Quads,
        groups: Range<usize>,
    ) {
        quads.for_each_run(states, groups, |streams| quad_run(op, streams));
    }

    /// `op` on the quads `(s00[k], s01[k], s10[k], s11[k])`.
    pub(super) fn quad_run(op: QuadOp<'_>, [s00, s01, s10, s11]: [&mut [C64]; 4]) {
        if let QuadOp::Ctrl1(u) = op {
            return pair_run(PairOp::Dense(u), s10, s11);
        }
        let quads = s00.iter_mut().zip(s01).zip(s10).zip(s11);
        match op {
            QuadOp::Diag(d) => {
                for (((p00, p01), p10), p11) in quads {
                    *p00 = d[0] * *p00;
                    *p01 = d[1] * *p01;
                    *p10 = d[2] * *p10;
                    *p11 = d[3] * *p11;
                }
            }
            QuadOp::Perm(src, phase) => {
                debug_assert!(src.iter().all(|&s| s < 4));
                for (((p00, p01), p10), p11) in quads {
                    let old = [*p00, *p01, *p10, *p11];
                    *p00 = phase[0] * old[src[0] as usize];
                    *p01 = phase[1] * old[src[1] as usize];
                    *p10 = phase[2] * old[src[2] as usize];
                    *p11 = phase[3] * old[src[3] as usize];
                }
            }
            QuadOp::Dense(m) => {
                let r = &m.0;
                for (((p00, p01), p10), p11) in quads {
                    let (a0, a1, a2, a3) = (*p00, *p01, *p10, *p11);
                    *p00 = r[0][0] * a0 + r[0][1] * a1 + r[0][2] * a2 + r[0][3] * a3;
                    *p01 = r[1][0] * a0 + r[1][1] * a1 + r[1][2] * a2 + r[1][3] * a3;
                    *p10 = r[2][0] * a0 + r[2][1] * a1 + r[2][2] * a2 + r[2][3] * a3;
                    *p11 = r[3][0] * a0 + r[3][1] * a1 + r[3][2] * a2 + r[3][3] * a3;
                }
            }
            QuadOp::Ctrl1(_) => unreachable!("handled above"),
        }
    }
}

/// The AVX kernels. Every function is `#[target_feature(enable = "avx")]`:
/// safe to call from here, but a call from code compiled without AVX is
/// `unsafe` and sound only after the running CPU was found to support it.
/// Memory accesses go through `[C64; 2]` and `[C64; 4]` references, so the
/// only unsafe blocks are the loads and stores of whole arrays.
#[cfg(target_arch = "x86_64")]
mod avx {
    use std::arch::x86_64::*;

    use super::*;

    /// A complex coefficient per 128-bit lane, split into a vector of
    /// real parts and a vector of imaginary parts.
    #[derive(Clone, Copy)]
    struct Coeff {
        re: __m256d,
        im: __m256d,
    }

    /// `lo` in the low lane and `hi` in the high lane.
    #[target_feature(enable = "avx")]
    fn coeff(lo: C64, hi: C64) -> Coeff {
        Coeff {
            re: _mm256_setr_pd(lo.re, lo.re, hi.re, hi.re),
            im: _mm256_setr_pd(lo.im, lo.im, hi.im, hi.im),
        }
    }

    /// `c` in both lanes.
    #[target_feature(enable = "avx")]
    fn splat(c: C64) -> Coeff {
        coeff(c, c)
    }

    /// Per lane, `c · a` with the scalar product's terms (module docs).
    #[target_feature(enable = "avx")]
    fn cmul(c: Coeff, a: __m256d) -> __m256d {
        let swapped = _mm256_permute_pd::<0b0101>(a);
        _mm256_addsub_pd(_mm256_mul_pd(a, c.re), _mm256_mul_pd(swapped, c.im))
    }

    #[target_feature(enable = "avx")]
    fn load(p: &[C64; 2]) -> __m256d {
        // SAFETY: `[C64; 2]` is 32 readable bytes holding four `f64` (the
        // layout pinned in the parent module); `loadu` has no alignment
        // requirement.
        unsafe { _mm256_loadu_pd(p.as_ptr().cast::<f64>()) }
    }

    #[target_feature(enable = "avx")]
    fn store(p: &mut [C64; 2], v: __m256d) {
        // SAFETY: `[C64; 2]` is 32 writable bytes holding four `f64`,
        // uniquely borrowed; `storeu` has no alignment requirement.
        unsafe { _mm256_storeu_pd(p.as_mut_ptr().cast::<f64>(), v) }
    }

    /// The two halves of `[C64; 4]` as vectors.
    #[target_feature(enable = "avx")]
    fn load_halves(q: &[C64; 4]) -> [__m256d; 2] {
        let p = q.as_ptr().cast::<f64>();
        // SAFETY: `[C64; 4]` is 64 readable bytes holding eight `f64`, so
        // both 32-byte loads, at `f64` offsets 0 and 4, are in bounds;
        // `loadu` has no alignment requirement.
        unsafe { [_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4))] }
    }

    #[target_feature(enable = "avx")]
    fn store_halves(q: &mut [C64; 4], [lo, hi]: [__m256d; 2]) {
        let p = q.as_mut_ptr().cast::<f64>();
        // SAFETY: `[C64; 4]` is 64 writable bytes holding eight `f64`,
        // uniquely borrowed; both 32-byte stores are in bounds and `storeu`
        // has no alignment requirement.
        unsafe {
            _mm256_storeu_pd(p, lo);
            _mm256_storeu_pd(p.add(4), hi);
        }
    }

    /// `[[c0, c1], [c2, c3]]·(x, y)` per lane.
    #[target_feature(enable = "avx")]
    fn dense_pair(c: &[Coeff; 4], x: __m256d, y: __m256d) -> [__m256d; 2] {
        [_mm256_add_pd(cmul(c[0], x), cmul(c[1], y)), _mm256_add_pd(cmul(c[2], x), cmul(c[3], y))]
    }

    /// The entries of `m` splatted, row-major.
    #[target_feature(enable = "avx")]
    fn dense_coeffs(m: &Matrix2) -> [Coeff; 4] {
        let [[m00, m01], [m10, m11]] = m.0;
        [splat(m00), splat(m01), splat(m10), splat(m11)]
    }

    /// `f` on the pairs `(lo[k], hi[k])`, two at a time.
    #[target_feature(enable = "avx")]
    fn zip_pairs(
        lo: &mut [[C64; 2]],
        hi: &mut [[C64; 2]],
        f: impl Fn(__m256d, __m256d) -> [__m256d; 2],
    ) {
        for (pl, ph) in lo.iter_mut().zip(hi) {
            let [x, y] = f(load(pl), load(ph));
            store(pl, x);
            store(ph, y);
        }
    }

    /// `groups` as a lone first group, the even-aligned middle, and a lone
    /// last group (either lone part may be empty).
    fn even_split(groups: Range<usize>) -> [Range<usize>; 3] {
        let start = groups.start.next_multiple_of(2).min(groups.end);
        let end = (groups.end & !1).max(start);
        [groups.start..start, start..end, end..groups.end]
    }

    #[target_feature(enable = "avx")]
    pub(super) fn apply_pairs(op: PairOp<'_>, pairs: Pairs, each: impl FnOnce(Sweep<'_>)) {
        if pairs.qubit == 0 {
            return pairs_low(op, each);
        }
        // Each class's per-lane update, chosen once so the loops carry no
        // dispatch.
        match op {
            PairOp::Phase(d1) if pairs.qubit > 1 => {
                // Only the bit-set stream is read or written.
                let c = splat(d1);
                each(&mut |states, groups| {
                    pairs.for_each_run(states, groups, |_, hi| {
                        let (hi2, hi_tail) = hi.as_chunks_mut::<2>();
                        for p in hi2 {
                            store(p, cmul(c, load(p)));
                        }
                        if !hi_tail.is_empty() {
                            scalar::pair_run(op, &mut [], hi_tail);
                        }
                    });
                });
            }
            PairOp::Phase(d1) => {
                let c = splat(d1);
                each(&mut |states, groups| {
                    pairs_with(states, op, pairs, groups, |x, y| [x, cmul(c, y)]);
                });
            }
            PairOp::Diag(&[d0, d1]) => {
                let (c0, c1) = (splat(d0), splat(d1));
                each(&mut |states, groups| {
                    pairs_with(states, op, pairs, groups, |x, y| [cmul(c0, x), cmul(c1, y)]);
                });
            }
            PairOp::Perm(&[p0, p1]) => {
                let (c0, c1) = (splat(p0), splat(p1));
                each(&mut |states, groups| {
                    pairs_with(states, op, pairs, groups, |x, y| [cmul(c0, y), cmul(c1, x)]);
                });
            }
            PairOp::Dense(m) => {
                let c = dense_coeffs(m);
                each(&mut |states, groups| {
                    pairs_with(states, op, pairs, groups, |x, y| dense_pair(&c, x, y));
                });
            }
        }
    }

    /// `apply_pairs` for qubit ≥ 1 with the per-lane update `f`, two pairs
    /// per iteration. On qubit 1 a run is two pairs, `[lo, hi]` = one
    /// `[C64; 4]`; above it, each run's two streams hold whole vectors.
    #[target_feature(enable = "avx")]
    fn pairs_with(
        states: &mut [StateVector],
        op: PairOp<'_>,
        pairs: Pairs,
        groups: Range<usize>,
        f: impl Fn(__m256d, __m256d) -> [__m256d; 2],
    ) {
        if pairs.qubit == 1 {
            let [head, even, tail] = even_split(groups);
            scalar::apply_pairs(states, op, pairs, head);
            for s in &mut *states {
                let amps = &mut s.amps_mut()[2 * even.start..2 * even.end];
                for run in amps.as_chunks_mut::<4>().0 {
                    let [x, y] = load_halves(run);
                    store_halves(run, f(x, y));
                }
            }
            return scalar::apply_pairs(states, op, pairs, tail);
        }
        pairs.for_each_run(states, groups, |lo, hi| {
            let (lo2, lo_tail) = lo.as_chunks_mut::<2>();
            let (hi2, hi_tail) = hi.as_chunks_mut::<2>();
            zip_pairs(lo2, hi2, &f);
            if !lo_tail.is_empty() {
                scalar::pair_run(op, lo_tail, hi_tail);
            }
        });
    }

    /// `apply_pairs` on qubit 0, where pair g is the vector
    /// `amps[2g..2g + 2]` = `[a, b]` and each class is a per-lane product.
    #[target_feature(enable = "avx")]
    fn pairs_low(op: PairOp<'_>, each: impl FnOnce(Sweep<'_>)) {
        fn vectors(
            states: &mut [StateVector],
            groups: Range<usize>,
        ) -> impl Iterator<Item = &mut [C64; 2]> {
            let range = 2 * groups.start..2 * groups.end;
            states.iter_mut().flat_map(move |s| s.amps_mut()[range.clone()].as_chunks_mut::<2>().0)
        }
        match op {
            PairOp::Phase(d1) => {
                // [a, d1·b]: the low lane keeps `a` untouched.
                let c = splat(d1);
                each(&mut |states, groups| {
                    for p in vectors(states, groups) {
                        let v = load(p);
                        store(p, _mm256_blend_pd::<0b1100>(v, cmul(c, v)));
                    }
                });
            }
            PairOp::Diag(&[d0, d1]) => {
                let c = coeff(d0, d1);
                each(&mut |states, groups| {
                    for p in vectors(states, groups) {
                        store(p, cmul(c, load(p)));
                    }
                });
            }
            PairOp::Perm(&[p0, p1]) => {
                // [p0, p1]·[b, a].
                let c = coeff(p0, p1);
                each(&mut |states, groups| {
                    for p in vectors(states, groups) {
                        let v = load(p);
                        store(p, cmul(c, _mm256_permute2f128_pd::<0x01>(v, v)));
                    }
                });
            }
            PairOp::Dense(m) => {
                // Broadcast each amplitude to both lanes and weight it by
                // its matrix column: [m00, m10]·[a, a] + [m01, m11]·[b, b].
                let [[m00, m01], [m10, m11]] = m.0;
                let (c0, c1) = (coeff(m00, m10), coeff(m01, m11));
                each(&mut |states, groups| {
                    for p in vectors(states, groups) {
                        let v = load(p);
                        let a = _mm256_permute2f128_pd::<0x00>(v, v);
                        let b = _mm256_permute2f128_pd::<0x11>(v, v);
                        store(p, _mm256_add_pd(cmul(c0, a), cmul(c1, b)));
                    }
                });
            }
        }
    }

    /// Per lane, `((r0·a0 + r1·a1) + r2·a2) + r3·a3`.
    #[target_feature(enable = "avx")]
    fn row(r: &[Coeff; 4], a: &[__m256d; 4]) -> __m256d {
        let p01 = _mm256_add_pd(cmul(r[0], a[0]), cmul(r[1], a[1]));
        _mm256_add_pd(_mm256_add_pd(p01, cmul(r[2], a[2])), cmul(r[3], a[3]))
    }

    #[target_feature(enable = "avx")]
    pub(super) fn apply_quads(op: QuadOp<'_>, quads: Quads, each: impl FnOnce(Sweep<'_>)) {
        // Each class's update of one vector per local index (lane k of
        // every vector from the same quad), chosen once so the loops carry
        // no dispatch.
        match op {
            QuadOp::Diag(d) => {
                let c = [splat(d[0]), splat(d[1]), splat(d[2]), splat(d[3])];
                each(&mut |states, groups| {
                    quads_with(states, op, quads, groups, |a| {
                        [cmul(c[0], a[0]), cmul(c[1], a[1]), cmul(c[2], a[2]), cmul(c[3], a[3])]
                    });
                });
            }
            QuadOp::Perm(src, p) => {
                let s = src.map(usize::from);
                let c = [splat(p[0]), splat(p[1]), splat(p[2]), splat(p[3])];
                each(&mut |states, groups| {
                    quads_with(states, op, quads, groups, |a| {
                        [
                            cmul(c[0], a[s[0]]),
                            cmul(c[1], a[s[1]]),
                            cmul(c[2], a[s[2]]),
                            cmul(c[3], a[s[3]]),
                        ]
                    });
                });
            }
            QuadOp::Dense(m) => {
                let mut r = [[splat(C64::default()); 4]; 4];
                for (row, m_row) in r.iter_mut().zip(&m.0) {
                    for (c, &e) in row.iter_mut().zip(m_row) {
                        *c = splat(e);
                    }
                }
                each(&mut |states, groups| {
                    quads_with(states, op, quads, groups, |a| {
                        [row(&r[0], a), row(&r[1], a), row(&r[2], a), row(&r[3], a)]
                    });
                });
            }
            QuadOp::Ctrl1(u) if quads.small > 1 => {
                // Only the control-set half (streams 10 and 11) is read or
                // written.
                let c = dense_coeffs(u);
                each(&mut |states, groups| {
                    quads.for_each_run(states, groups, |[_, _, s10, s11]| {
                        let (c10, t10) = s10.as_chunks_mut::<2>();
                        let (c11, t11) = s11.as_chunks_mut::<2>();
                        zip_pairs(c10, c11, |x, y| dense_pair(&c, x, y));
                        if !t10.is_empty() {
                            scalar::pair_run(PairOp::Dense(u), t10, t11);
                        }
                    });
                });
            }
            QuadOp::Ctrl1(u) => {
                let c = dense_coeffs(u);
                each(&mut |states, groups| {
                    quads_with(states, op, quads, groups, |a| {
                        let [x, y] = dense_pair(&c, a[2], a[3]);
                        [a[0], a[1], x, y]
                    });
                });
            }
        }
    }

    /// `apply_quads` with the per-local-index update `f`, two quads per
    /// iteration.
    #[target_feature(enable = "avx")]
    fn quads_with(
        states: &mut [StateVector],
        op: QuadOp<'_>,
        quads: Quads,
        groups: Range<usize>,
        f: impl Fn(&[__m256d; 4]) -> [__m256d; 4],
    ) {
        if quads.small <= 1 {
            return quads_narrow(states, op, quads, groups, f);
        }
        // Each run's four streams hold whole vectors.
        quads.for_each_run(states, groups, |[s00, s01, s10, s11]| {
            let (c00, t00) = s00.as_chunks_mut::<2>();
            let (c01, t01) = s01.as_chunks_mut::<2>();
            let (c10, t10) = s10.as_chunks_mut::<2>();
            let (c11, t11) = s11.as_chunks_mut::<2>();
            for (((p00, p01), p10), p11) in c00.iter_mut().zip(c01).zip(c10).zip(c11) {
                let o = f(&[load(p00), load(p01), load(p10), load(p11)]);
                store(p00, o[0]);
                store(p01, o[1]);
                store(p10, o[2]);
                store(p11, o[3]);
            }
            if !t00.is_empty() {
                scalar::quad_run(op, [t00, t01, t10, t11]);
            }
        });
    }

    /// `quads_with` for `small` 0 or 1. Each quad's amplitudes at offsets
    /// (0, 1) and (large, large + 1) are adjacent pairs. With `small = 1`
    /// the two quads of a run fill each vector, one lane each. With
    /// `small = 0` each quad is two vectors, so two quads are transposed
    /// into one vector per local index (lane k = quad g + k), updated, and
    /// transposed back.
    #[target_feature(enable = "avx")]
    fn quads_narrow(
        states: &mut [StateVector],
        op: QuadOp<'_>,
        quads: Quads,
        groups: Range<usize>,
        f: impl Fn(&[__m256d; 4]) -> [__m256d; 4],
    ) {
        let [head, even, tail] = even_split(groups);
        scalar::apply_quads(states, op, quads, head);
        // `v` holds offsets (0, small, large, small + large).
        let update = |v: [__m256d; 4]| {
            if quads.low_is_small {
                f(&v)
            } else {
                let o = f(&[v[0], v[2], v[1], v[3]]);
                [o[0], o[2], o[1], o[3]]
            }
        };
        let transpose = |x: __m256d, y: __m256d| {
            [_mm256_permute2f128_pd::<0x20>(x, y), _mm256_permute2f128_pd::<0x31>(x, y)]
        };
        if quads.large == 1 {
            // Quad g is amps[4g..4g + 4].
            let quad_arrays = states
                .iter_mut()
                .flat_map(|s| s.amps_mut()[4 * even.start..4 * even.end].as_chunks_mut::<8>().0);
            for two in quad_arrays {
                let (two, _) = two.as_chunks_mut::<4>();
                let [q0, q1] = two else { unreachable!("chunks of two") };
                let ([x0, x1], [y0, y1]) = (load_halves(q0), load_halves(q1));
                let ([v0, v1], [v2, v3]) = (transpose(x0, y0), transpose(x1, y1));
                let w = update([v0, v1, v2, v3]);
                let ([x0, y0], [x1, y1]) = (transpose(w[0], w[1]), transpose(w[2], w[3]));
                store_halves(q0, [x0, x1]);
                store_halves(q1, [y0, y1]);
            }
        } else {
            // Blocks hold an even number of quads, so every block's part of
            // the even-aligned range pairs up; `l` and `u` are the two
            // quads' lower and upper halves.
            quads.for_each_block(states, even, |lower, upper, pairs| {
                let (lower4, _) = lower[2 * pairs.start..2 * pairs.end].as_chunks_mut::<4>();
                let (upper4, _) = upper[2 * pairs.start..2 * pairs.end].as_chunks_mut::<4>();
                for (l, u) in lower4.iter_mut().zip(upper4) {
                    let ([l0, l1], [u0, u1]) = (load_halves(l), load_halves(u));
                    if quads.small == 1 {
                        let w = update([l0, l1, u0, u1]);
                        store_halves(l, [w[0], w[1]]);
                        store_halves(u, [w[2], w[3]]);
                    } else {
                        let ([v0, v1], [v2, v3]) = (transpose(l0, l1), transpose(u0, u1));
                        let w = update([v0, v1, v2, v3]);
                        store_halves(l, transpose(w[0], w[1]));
                        store_halves(u, transpose(w[2], w[3]));
                    }
                }
            });
        }
        scalar::apply_quads(states, op, quads, tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::TILE_GROUPS;
    use crate::{FusedOp, StateVector};

    fn matrix2(seed: f64) -> Matrix2 {
        Matrix2::u(1.3 + seed, 0.4 - seed, 2.1 * seed)
    }

    /// A 4×4 with no structurally zero entry.
    fn matrix4(seed: f64) -> Matrix4 {
        let mut m = Matrix4::kron(&matrix2(seed), &matrix2(0.7 * seed + 0.2));
        for (k, row) in m.0.iter_mut().enumerate() {
            row[(k + 1) % 4] += C64::new(0.1 * seed, -0.3);
        }
        m
    }

    fn phases(seed: f64) -> [C64; 4] {
        [0.3, 1.1, -2.0, 2.9].map(|t: f64| C64::from_polar(1.0, t + seed))
    }

    /// Amplitudes with mixed signs, magnitudes and signed zeros.
    fn amplitudes(n: usize, seed: u64) -> Vec<C64> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..1usize << n)
            .map(|i| match i % 7 {
                3 => C64::new(-0.0, next()),
                5 => C64::new(next() * 1e-3, 0.0),
                _ => C64::new(next(), next()),
            })
            .collect()
    }

    fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
        amps.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
    }

    /// The whole range, then tiles of 1, 3 and 5 groups (which do not
    /// divide the power-of-two group counts).
    fn tilings(count: usize) -> Vec<Vec<Range<usize>>> {
        [count.max(1), 1, 3, 5]
            .into_iter()
            .map(|tile| (0..count).step_by(tile).map(|s| s..(s + tile).min(count)).collect())
            .collect()
    }

    /// `input` after a sweep over every range of `tiling`; `apply` is
    /// handed the driver that runs its prepared sweep.
    fn tiled(
        input: &[C64],
        tiling: &[Range<usize>],
        apply: impl FnOnce(&mut dyn FnMut(Sweep<'_>)),
    ) -> Vec<C64> {
        let mut state = [StateVector::from_amplitudes(input).unwrap()];
        apply(&mut |sweep| {
            for range in tiling {
                sweep(&mut state, range.clone());
            }
        });
        state[0].amplitudes().to_vec()
    }

    #[cfg(target_arch = "x86_64")]
    fn has_avx() -> bool {
        !cfg!(miri) && std::arch::is_x86_feature_detected!("avx")
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx_pair_kernels_are_bitwise_identical_to_scalar() {
        if !has_avx() {
            return;
        }
        for n in 1..=7usize {
            for qubit in 0..n {
                let seed = 0.1 * (n + qubit) as f64;
                let (m, p) = (matrix2(seed), phases(seed));
                let d = [p[0], p[1]];
                let ops =
                    [PairOp::Phase(p[2]), PairOp::Diag(&d), PairOp::Perm(&d), PairOp::Dense(&m)];
                let pairs = Pairs { qubit };
                let input = amplitudes(n, (n * 31 + qubit) as u64);
                for op in ops {
                    for tiling in tilings(input.len() >> 1) {
                        let expected = tiled(&input, &tiling, |run| {
                            run(&mut |s, g| scalar::apply_pairs(s, op, pairs, g))
                        });
                        // SAFETY: `has_avx` confirmed AVX support.
                        let got = tiled(&input, &tiling, |run| unsafe {
                            avx::apply_pairs(op, pairs, run)
                        });
                        assert_eq!(
                            bits(&got),
                            bits(&expected),
                            "n={n} q={qubit} {op:?} {tiling:?}"
                        );
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx_quad_kernels_are_bitwise_identical_to_scalar() {
        if !has_avx() {
            return;
        }
        for n in 2..=7usize {
            for low in 0..n {
                for high in (0..n).filter(|&h| h != low) {
                    let seed = 0.1 * (n + 3 * low + high) as f64;
                    let (m, p) = (matrix4(seed), phases(seed));
                    let src = [2u8, 0, 3, 1];
                    let u = matrix2(seed);
                    let ops = [
                        QuadOp::Diag(&p),
                        QuadOp::Perm(&src, &p),
                        QuadOp::Dense(&m),
                        QuadOp::Ctrl1(&u),
                    ];
                    let quads = Quads::new(low, high);
                    let input = amplitudes(n, (n * 97 + low * 7 + high) as u64);
                    for op in ops {
                        for tiling in tilings(input.len() >> 2) {
                            let expected = tiled(&input, &tiling, |run| {
                                run(&mut |s, g| scalar::apply_quads(s, op, quads, g))
                            });
                            // SAFETY: `has_avx` confirmed AVX support.
                            let got = tiled(&input, &tiling, |run| unsafe {
                                avx::apply_quads(op, quads, run)
                            });
                            assert_eq!(
                                bits(&got),
                                bits(&expected),
                                "n={n} ({low},{high}) {op:?} {tiling:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `op` through the scalar path over whole states.
    fn scalar_fused(op: &FusedOp, states: &mut [StateVector]) {
        let (pairs, quads) = (0..states[0].dim() >> 1, 0..states[0].dim() >> 2);
        match *op {
            FusedOp::Phase1 { d1, qubit } => {
                scalar::apply_pairs(states, PairOp::Phase(d1), Pairs { qubit }, pairs)
            }
            FusedOp::Diag1 { ref d, qubit } => {
                scalar::apply_pairs(states, PairOp::Diag(d), Pairs { qubit }, pairs)
            }
            FusedOp::Perm1 { ref phase, qubit } => {
                scalar::apply_pairs(states, PairOp::Perm(phase), Pairs { qubit }, pairs)
            }
            FusedOp::Dense1 { ref m, qubit } => {
                scalar::apply_pairs(states, PairOp::Dense(m), Pairs { qubit }, pairs)
            }
            FusedOp::Diag2 { ref d, low, high } => {
                scalar::apply_quads(states, QuadOp::Diag(d), Quads::new(low, high), quads)
            }
            FusedOp::Perm2 { ref src, ref phase, low, high } => {
                scalar::apply_quads(states, QuadOp::Perm(src, phase), Quads::new(low, high), quads)
            }
            FusedOp::Dense2 { ref m, low, high } => {
                scalar::apply_quads(states, QuadOp::Dense(m), Quads::new(low, high), quads)
            }
            FusedOp::Ctrl1 { ref u, control, target } => {
                scalar::apply_quads(states, QuadOp::Ctrl1(u), Quads::new(target, control), quads)
            }
            _ => unreachable!("not a sweep class"),
        }
    }

    #[test]
    fn whole_state_and_batched_entry_points_match_the_scalar_path_bitwise() {
        // n = 12 spans several batched tiles; n <= 5 is one partial tile.
        const { assert!(TILE_GROUPS < 1 << 10) };
        for n in [1usize, 2, 5, 12] {
            let input = amplitudes(n, n as u64);
            let p = phases(n as f64);
            let mut ops = Vec::new();
            for qubit in [0, 1, n / 2, n - 1].into_iter().filter(|&q| q < n) {
                ops.push(FusedOp::Phase1 { d1: p[0], qubit });
                ops.push(FusedOp::Diag1 { d: [p[1], p[2]], qubit });
                ops.push(FusedOp::Perm1 { phase: [p[3], p[0]], qubit });
                ops.push(FusedOp::Dense1 { m: matrix2(qubit as f64), qubit });
            }
            for (low, high) in [(0usize, 1usize), (1, 0), (0, n - 1), (n - 1, 0), (2, 4), (4, 1)] {
                if low != high && low < n && high < n {
                    ops.push(FusedOp::Diag2 { d: p, low, high });
                    ops.push(FusedOp::Perm2 { src: [3, 2, 0, 1], phase: p, low, high });
                    ops.push(FusedOp::Dense2 { m: matrix4(0.3 + low as f64), low, high });
                    ops.push(FusedOp::Ctrl1 {
                        u: matrix2(0.1 + low as f64),
                        control: high,
                        target: low,
                    });
                }
            }
            for op in &ops {
                let mut expected = [StateVector::from_amplitudes(&input).unwrap()];
                scalar_fused(op, &mut expected);
                let expected = expected[0].amplitudes();
                let mut whole = StateVector::from_amplitudes(&input).unwrap();
                whole.apply_fused(op).unwrap();
                assert_eq!(bits(whole.amplitudes()), bits(expected), "{op:?} whole state");
                let mut batch: Vec<StateVector> =
                    (0..2).map(|_| StateVector::from_amplitudes(&input).unwrap()).collect();
                op.apply_batch(&mut batch).unwrap();
                for s in &batch {
                    assert_eq!(bits(s.amplitudes()), bits(expected), "{op:?} batched");
                }
            }
        }
    }
}
