//! The statevector and exact gate application.
//!
//! Amplitudes are stored as split planes, `re[i]` and `im[i]`, so the
//! gate kernels run the same arithmetic on many amplitudes at once: a
//! group's four amplitudes sit at the same lane of four plane slices.

use crate::complex::C32;
use crate::gates::Gate2;
use crate::gates1::Gate1;
use gh_par::par_map_reduce;
use std::ops::Range;

/// Lanes of one kernel step: the kernel works on `[f32; LANES]` blocks,
/// which the compiler keeps in vector registers.
const LANES: usize = 8;

/// Groups a gate kernel call handles at most; also the length of the
/// gather scratch for gates whose contiguous runs are shorter than
/// [`LANES`].
const BLOCK: usize = 512;

/// Groups (two-qubit gates) or pairs (one-qubit gates) a worker claims at
/// a time. A constant, so the split across workers never depends on the
/// gate's qubits.
const CHUNK: usize = 8 * BLOCK;

/// An `n`-qubit statevector of `2^n` single-precision amplitudes.
#[derive(Debug, Clone)]
pub struct StateVector {
    n: u32,
    re: Vec<f32>,
    im: Vec<f32>,
}

/// The two amplitude planes as raw pointers, for gate workers that write
/// disjoint index sets of them.
#[derive(Clone, Copy)]
struct Planes {
    re: *mut f32,
    im: *mut f32,
}

// SAFETY: `StateVector::par_items` is the only place `Planes` is shared
// across threads. It hands each item range to exactly one worker, the
// caller's item-to-index map is injective (each item owns its amplitude
// indices), and the thread scope ends before the `&mut StateVector` borrow
// that produced the pointers does.
unsafe impl Sync for Planes {}

impl Planes {
    /// Mutable views of `len` amplitudes from `at` in both planes.
    ///
    /// # Safety
    /// `at + len` must be in bounds, no other live view may overlap
    /// `at..at + len`, and the views must not outlive the `par_items`
    /// call that handed out `self`.
    #[inline(always)]
    unsafe fn run<'a>(self, at: usize, len: usize) -> (&'a mut [f32], &'a mut [f32]) {
        (
            std::slice::from_raw_parts_mut(self.re.add(at), len),
            std::slice::from_raw_parts_mut(self.im.add(at), len),
        )
    }
}

/// `Gate2` split into real and imaginary matrices.
struct SplitGate {
    re: [[f32; 4]; 4],
    im: [[f32; 4]; 4],
}

impl SplitGate {
    fn new(g: &Gate2) -> SplitGate {
        SplitGate {
            re: g.m.map(|row| row.map(|z| z.re)),
            im: g.m.map(|row| row.map(|z| z.im)),
        }
    }
}

/// Applies the gate in place to the groups at lanes `0..len` of the four
/// quarters `q[k] = (re, im)` (basis state `k` of each group); `len` is a
/// multiple of [`LANES`]. Each lane repeats `Gate2::apply`'s op sequence
/// exactly: per row, `acc = 0`, then for each column
/// `acc.re += g.re*v.re - g.im*v.im` and `acc.im += g.re*v.im + g.im*v.re`.
#[inline(always)]
fn mix(g: &SplitGate, q: [(&mut [f32], &mut [f32]); 4]) {
    let [(r0, i0), (r1, i1), (r2, i2), (r3, i3)] = q;
    debug_assert!(r0.len().is_multiple_of(LANES));
    for at in (0..r0.len()).step_by(LANES) {
        let lanes = at..at + LANES;
        let (mut vr, mut vi) = ([[0.0f32; LANES]; 4], [[0.0f32; LANES]; 4]);
        for (k, (pr, pi)) in [(&*r0, &*i0), (&*r1, &*i1), (&*r2, &*i2), (&*r3, &*i3)]
            .into_iter()
            .enumerate()
        {
            vr[k].copy_from_slice(&pr[lanes.clone()]);
            vi[k].copy_from_slice(&pi[lanes.clone()]);
        }
        let (mut or, mut oi) = ([[0.0f32; LANES]; 4], [[0.0f32; LANES]; 4]);
        for row in 0..4 {
            for c in 0..4 {
                let (gr, gi) = (g.re[row][c], g.im[row][c]);
                for l in 0..LANES {
                    or[row][l] += gr * vr[c][l] - gi * vi[c][l];
                    oi[row][l] += gr * vi[c][l] + gi * vr[c][l];
                }
            }
        }
        let out = [
            (&mut *r0, &mut *i0),
            (&mut *r1, &mut *i1),
            (&mut *r2, &mut *i2),
            (&mut *r3, &mut *i3),
        ];
        for (k, (pr, pi)) in out.into_iter().enumerate() {
            pr[lanes.clone()].copy_from_slice(&or[k]);
            pi[lanes.clone()].copy_from_slice(&oi[k]);
        }
    }
}

impl StateVector {
    /// |0…0⟩ on `n` qubits.
    pub fn zero_state(n: u32) -> StateVector {
        assert!(n >= 2, "need at least 2 qubits for 2-qubit gates");
        assert!(n <= 30, "statevector would not fit in host memory");
        let mut re = vec![0.0f32; 1usize << n];
        re[0] = 1.0;
        StateVector {
            n,
            re,
            im: vec![0.0f32; 1usize << n],
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> u32 {
        self.n
    }

    /// Amplitude of a basis state.
    pub fn amp(&self, basis: usize) -> C32 {
        C32::new(self.re[basis], self.im[basis])
    }

    /// All amplitudes, interleaved into one vector.
    pub fn amps(&self) -> Vec<C32> {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&re, &im)| C32::new(re, im))
            .collect()
    }

    /// Runs `f(planes, items)` over `0..total` items cut into [`CHUNK`]
    /// ranges, in parallel. Each range goes to exactly one call; `f` may
    /// touch only the amplitudes its items own, and no two items may own
    /// the same index.
    fn par_items<F>(&mut self, total: usize, f: F)
    where
        F: Fn(Planes, Range<usize>) + Sync,
    {
        let planes = Planes {
            re: self.re.as_mut_ptr(),
            im: self.im.as_mut_ptr(),
        };
        gh_par::par_map(total.div_ceil(CHUNK), gh_par::default_parallelism(), |c| {
            f(planes, c * CHUNK..((c + 1) * CHUNK).min(total))
        });
    }

    /// Draws `shots` measurement outcomes (basis-state indices) from the
    /// state's distribution, deterministically in `seed`.
    pub fn sample(&self, seed: u64, shots: usize) -> Vec<usize> {
        // Prefix sums + binary search per shot.
        let mut cdf = Vec::with_capacity(self.re.len());
        let mut acc = 0.0f64;
        for i in 0..self.re.len() {
            acc += self.amp(i).norm_sqr() as f64;
            cdf.push(acc);
        }
        let total = acc.max(f64::MIN_POSITIVE);
        let mut st = seed | 1;
        (0..shots)
            .map(|_| {
                st = st.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = st;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let u = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 * total;
                cdf.partition_point(|&c| c < u).min(self.re.len() - 1)
            })
            .collect()
    }

    /// Σ|aᵢ|² — must stay 1 under unitary evolution.
    pub fn norm_sqr(&self) -> f64 {
        par_map_reduce(
            0..self.re.len(),
            0.0f64,
            |i| self.amp(i).norm_sqr() as f64,
            |a, b| a + b,
        )
    }

    /// Applies a two-qubit gate to qubits `(q0, q1)`, `q0 != q1`, exactly
    /// and in parallel. Basis order inside a group is |q1 q0⟩.
    ///
    /// Group `gidx` expands to the index `i00` with zeros inserted at bit
    /// positions `lo` and `hi`, so `1 << lo` consecutive groups map to
    /// consecutive indices. When those runs hold at least [`LANES`]
    /// groups, the four quarter slices of a run are read and written in
    /// place; shorter runs are gathered into scratch planes first.
    pub fn apply_gate2(&mut self, g: &Gate2, q0: u32, q1: u32) {
        assert!(q0 < self.n && q1 < self.n && q0 != q1, "bad qubit pair");
        let (lo, hi) = (q0.min(q1), q0.max(q1));
        let (b0, b1) = (1usize << q0, 1usize << q1);
        let lo_mask = (1usize << lo) - 1;
        let mid_mask = ((1usize << (hi - 1)) - 1) & !lo_mask;
        let expand = move |gidx: usize| {
            let low = gidx & lo_mask;
            let mid = (gidx & mid_mask) << 1;
            let high = (gidx & !(lo_mask | mid_mask)) << 2;
            high | mid | low
        };
        let quarters = move |i00: usize| [i00, i00 | b0, i00 | b1, i00 | b0 | b1];
        let g = SplitGate::new(g);
        let groups = self.re.len() / 4;
        if lo_mask + 1 >= LANES {
            self.par_items(groups, |p, items| {
                let mut gidx = items.start;
                while gidx < items.end {
                    // The rest of this contiguous run, capped at BLOCK;
                    // runs and chunk ends are multiples of LANES.
                    let len = ((gidx | lo_mask) + 1).min(items.end).min(gidx + BLOCK) - gidx;
                    // SAFETY: the four quarter runs lie inside the state
                    // and are pairwise disjoint (`len <= 1 << lo`, which
                    // divides both strides b0 and b1); the groups are
                    // owned by this item range.
                    mix(
                        &g,
                        quarters(expand(gidx)).map(|at| unsafe { p.run(at, len) }),
                    );
                    gidx += len;
                }
            });
        } else {
            self.par_items(groups, |p, items| {
                // Per quarter, its (re, im) scratch planes.
                let mut scratch = [([0.0f32; BLOCK], [0.0f32; BLOCK]); 4];
                let mut first = items.start;
                while first < items.end {
                    let len = (items.end - first).min(BLOCK);
                    for (lane, gidx) in (first..first + len).enumerate() {
                        for ((sr, si), at) in scratch.iter_mut().zip(quarters(expand(gidx))) {
                            // SAFETY: one amplitude of a group this item
                            // range owns; the view ends with the statement.
                            let (r, i) = unsafe { p.run(at, 1) };
                            (sr[lane], si[lane]) = (r[0], i[0]);
                        }
                    }
                    // Lanes past `len` hold stale or zero values; they are
                    // computed but never scattered back.
                    let padded = len.next_multiple_of(LANES);
                    mix(
                        &g,
                        scratch
                            .each_mut()
                            .map(|(r, i)| (&mut r[..padded], &mut i[..padded])),
                    );
                    for (lane, gidx) in (first..first + len).enumerate() {
                        for ((sr, si), at) in scratch.iter().zip(quarters(expand(gidx))) {
                            // SAFETY: as for the gather above.
                            let (r, i) = unsafe { p.run(at, 1) };
                            (r[0], i[0]) = (sr[lane], si[lane]);
                        }
                    }
                    first += len;
                }
            });
        }
    }

    /// Applies a single-qubit gate to qubit `q`, exactly and in parallel.
    pub fn apply_gate1(&mut self, g: &Gate1, q: u32) {
        assert!(q < self.n, "qubit out of range");
        let bit = 1usize << q;
        let low_mask = bit - 1;
        let m = g.m;
        self.par_items(self.re.len() / 2, |p, items| {
            for pair in items {
                let i0 = ((pair & !low_mask) << 1) | (pair & low_mask);
                // SAFETY: the pair (i0, i0 | bit) is owned by this item
                // range; the views end with the loop body.
                let ((r0, im0), (r1, im1)) = unsafe { (p.run(i0, 1), p.run(i0 | bit, 1)) };
                let a = C32::new(r0[0], im0[0]);
                let b = C32::new(r1[0], im1[0]);
                let (x, y) = (m[0][0] * a + m[0][1] * b, m[1][0] * a + m[1][1] * b);
                (r0[0], im0[0], r1[0], im1[0]) = (x.re, x.im, y.re, y.im);
            }
        });
    }

    /// Measurement probability of `basis`.
    pub fn probability(&self, basis: usize) -> f64 {
        self.amp(basis).norm_sqr() as f64
    }

    /// A scalar fingerprint of the state for cross-version checks.
    pub fn checksum(&self) -> f64 {
        par_map_reduce(
            0..self.re.len(),
            0.0f64,
            |i| {
                let a = self.amp(i);
                (a.re as f64) * ((i % 97) as f64 + 1.0) + (a.im as f64) * ((i % 89) as f64 + 1.0)
            },
            |a, b| a + b,
        )
    }
}

/// Dense reference application (exponential; tests only): builds the full
/// `2^n × 2^n` operator for the gate and multiplies.
pub fn apply_gate2_dense(state: &[C32], g: &Gate2, q0: u32, q1: u32, n: u32) -> Vec<C32> {
    let dim = 1usize << n;
    let (b0, b1) = (1usize << q0, 1usize << q1);
    let mut out = vec![C32::ZERO; dim];
    for (row, o) in out.iter_mut().enumerate() {
        let r_sub = (((row & b1) != 0) as usize) << 1 | ((row & b0) != 0) as usize;
        let rest = row & !(b0 | b1);
        for c_sub in 0..4 {
            let col =
                rest | if c_sub & 1 != 0 { b0 } else { 0 } | if c_sub & 2 != 0 { b1 } else { 0 };
            *o += g.m[r_sub][c_sub] * state[col];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: C32, b: C32) -> bool {
        (a.re - b.re).abs() < 1e-5 && (a.im - b.im).abs() < 1e-5
    }

    /// The per-group scalar `apply_gate2` the plane kernel replaced: the
    /// oracle it must match bit for bit.
    fn apply_gate2_oracle(s: &mut StateVector, g: &Gate2, q0: u32, q1: u32) {
        let (lo, hi) = (q0.min(q1), q0.max(q1));
        let (b0, b1) = (1usize << q0, 1usize << q1);
        let lo_mask = (1usize << lo) - 1;
        let mid_mask = ((1usize << (hi - 1)) - 1) & !lo_mask;
        for gidx in 0..s.re.len() / 4 {
            let low = gidx & lo_mask;
            let mid = (gidx & mid_mask) << 1;
            let high = (gidx & !(lo_mask | mid_mask)) << 2;
            let i00 = high | mid | low;
            let idx = [i00, i00 | b0, i00 | b1, i00 | b0 | b1];
            let out = g.apply(idx.map(|i| s.amp(i)));
            for (i, a) in idx.into_iter().zip(out) {
                (s.re[i], s.im[i]) = (a.re, a.im);
            }
        }
    }

    /// A state with seeded, unnormalised amplitudes in every slot.
    fn random_state(n: u32, seed: u64) -> StateVector {
        let mut st = seed;
        let mut next = || {
            st = st.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (st ^ (st >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            ((z >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        };
        let mut s = StateVector::zero_state(n);
        for i in 0..1usize << n {
            (s.re[i], s.im[i]) = (next(), next());
        }
        s
    }

    fn bits(s: &StateVector) -> Vec<(u32, u32)> {
        s.amps()
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Every ordered qubit pair, so both the gather path (low qubit
        /// below 3) and the contiguous-run path are covered.
        #[test]
        fn apply_gate2_matches_the_scalar_oracle(n in 2u32..11, seed in 0u64..1_000_000) {
            let g = Gate2::random_su4(seed);
            let start = random_state(n, seed);
            for q0 in 0..n {
                for q1 in (0..n).filter(|&q| q != q0) {
                    let (mut fast, mut slow) = (start.clone(), start.clone());
                    fast.apply_gate2(&g, q0, q1);
                    apply_gate2_oracle(&mut slow, &g, q0, q1);
                    proptest::prop_assert!(bits(&fast) == bits(&slow), "n={} q=({},{})", n, q0, q1);
                }
            }
        }
    }

    #[test]
    fn multi_chunk_gates_match_the_scalar_oracle() {
        // 2^13 groups span two worker chunks; low qubits 0 and 1 gather,
        // 3 and 13 run in place, and 13's runs are longer than a chunk.
        let g = Gate2::random_su4(11);
        let start = random_state(15, 3);
        for (q0, q1) in [(0, 14), (1, 0), (3, 9), (14, 13)] {
            let (mut fast, mut slow) = (start.clone(), start.clone());
            fast.apply_gate2(&g, q0, q1);
            apply_gate2_oracle(&mut slow, &g, q0, q1);
            assert!(bits(&fast) == bits(&slow), "q=({q0},{q1})");
        }
    }

    #[test]
    fn reductions_are_bit_stable() {
        let s = random_state(16, 5);
        let (norm, sum) = (s.norm_sqr().to_bits(), s.checksum().to_bits());
        for _ in 0..20 {
            assert_eq!(s.norm_sqr().to_bits(), norm);
            assert_eq!(s.checksum().to_bits(), sum);
        }
    }

    #[test]
    fn zero_state_is_normalized() {
        let s = StateVector::zero_state(5);
        assert_eq!(s.amp(0), C32::ONE);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cnot_on_zero_state_is_identity() {
        let mut s = StateVector::zero_state(3);
        s.apply_gate2(&Gate2::cnot(), 0, 1);
        assert!(close(s.amp(0), C32::ONE));
    }

    #[test]
    fn matches_dense_reference_on_random_gates() {
        for n in [2u32, 3, 4, 5] {
            for seed in 0..5u64 {
                let g = Gate2::random_su4(seed);
                let q0 = (seed % n as u64) as u32;
                let q1 = ((seed + 1) % n as u64) as u32;
                if q0 == q1 {
                    continue;
                }
                let mut s = StateVector::zero_state(n);
                // Scramble with a first gate so the state is non-trivial.
                let pre = Gate2::random_su4(seed + 100);
                s.apply_gate2(&pre, 0, 1);
                let dense_in = s.amps().to_vec();
                let expected = apply_gate2_dense(&dense_in, &g, q0, q1, n);
                s.apply_gate2(&g, q0, q1);
                for (i, want) in expected.iter().enumerate() {
                    assert!(
                        close(s.amp(i), *want),
                        "n={n} seed={seed} q=({q0},{q1}) i={i}: {:?} vs {:?}",
                        s.amp(i),
                        want
                    );
                }
            }
        }
    }

    #[test]
    fn norm_preserved_under_random_circuit() {
        let mut s = StateVector::zero_state(8);
        for seed in 0..30u64 {
            let g = Gate2::random_su4(seed);
            let q0 = (seed % 8) as u32;
            let q1 = ((seed * 5 + 3) % 8) as u32;
            if q0 != q1 {
                s.apply_gate2(&g, q0, q1);
            }
        }
        assert!((s.norm_sqr() - 1.0).abs() < 1e-3, "norm {}", s.norm_sqr());
    }

    #[test]
    fn qubit_order_matters_for_asymmetric_gates() {
        // CNOT(control=q1, target=q0): flipping operand order changes the
        // result on |01⟩ vs |10⟩ states.
        let pre = Gate2::random_su4(9);
        let mut a = StateVector::zero_state(2);
        a.apply_gate2(&pre, 0, 1);
        let mut b = a.clone();
        a.apply_gate2(&Gate2::cnot(), 0, 1);
        b.apply_gate2(&Gate2::cnot(), 1, 0);
        let differs = (0..4).any(|i| !close(a.amp(i), b.amp(i)));
        assert!(differs);
    }

    #[test]
    #[should_panic(expected = "bad qubit pair")]
    fn same_qubit_pair_panics() {
        let mut s = StateVector::zero_state(3);
        s.apply_gate2(&Gate2::identity(), 1, 1);
    }

    #[test]
    fn checksum_distinguishes_states() {
        let mut a = StateVector::zero_state(6);
        let b = StateVector::zero_state(6);
        a.apply_gate2(&Gate2::random_su4(3), 2, 4);
        assert_ne!(a.checksum(), b.checksum());
    }
}
