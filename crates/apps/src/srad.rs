//! SRAD: Speckle-Reducing Anisotropic Diffusion (Rodinia).
//!
//! The paper's access-counter-migration showcase (§6, Fig 10): an
//! iterative two-kernel pipeline over the same working set. The image
//! `J` is CPU-initialized (so it starts CPU-resident and migrates to the
//! GPU over the first iterations under the access-counter engine), while
//! the derivative/coefficient arrays are *GPU-first-touched* in iteration
//! 1 (the §5.1.2 GPU-side-initialization cost for system memory).

use gh_par::par_chunks_mut;
use gh_profiler::Phase;
use gh_sim::{Machine, MemMode, RunReport};

use crate::common::UBuf;

/// Input parameters.
#[derive(Debug, Clone)]
pub struct SradParams {
    /// Image side (paper: 20k; scaled default 1800 so the six buffers
    /// total ~78 MiB — in-memory on the 96 MiB GPU, thrashing under
    /// oversubscription).
    pub size: usize,
    /// Diffusion iterations (paper's Fig 10 uses 12).
    pub iterations: usize,
    /// Diffusion rate λ.
    pub lambda: f32,
    /// RNG seed for the image.
    pub seed: u64,
}

impl Default for SradParams {
    fn default() -> Self {
        Self {
            size: 1800,
            iterations: 12,
            lambda: 0.5,
            seed: 23,
        }
    }
}

fn image_value(seed: u64, i: u64) -> f32 {
    let x = (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let u = ((x >> 11) as f64 / (1u64 << 53) as f64) as f32;
    (u * 0.5 + 0.25).exp() // exp(image) as Rodinia does
}

struct Grids {
    j: Vec<f32>,
    dn: Vec<f32>,
    ds: Vec<f32>,
    de: Vec<f32>,
    dw: Vec<f32>,
    c: Vec<f32>,
}

impl Grids {
    /// The seeded `n × n` image and zeroed derivative planes.
    fn new(n: usize, seed: u64) -> Grids {
        Grids {
            j: (0..n * n).map(|i| image_value(seed, i as u64)).collect(),
            dn: vec![0.0; n * n],
            ds: vec![0.0; n * n],
            de: vec![0.0; n * n],
            dw: vec![0.0; n * n],
            c: vec![0.0; n * n],
        }
    }
}

/// Rows of the image one `srad1`/`srad2` task handles.
const ROWS_PER_TASK: usize = 8;

fn q0sqr(j: &[f32]) -> f32 {
    let n = j.len() as f32;
    // One pass, two accumulators; each keeps the serial order (and the
    // `-0.0` start) of `Iterator::sum`, so the bits are those of two
    // separate sums.
    let (sum, sum2) = j
        .iter()
        .fold((-0.0f32, -0.0f32), |(s, s2), &x| (s + x, s2 + x * x));
    let mean = sum / n;
    let var = (sum2 / n) - mean * mean;
    var / (mean * mean)
}

/// One `srad1` pixel from its centre and its four neighbours: the
/// derivatives `[dN, dS, dW, dE]` and the diffusion coefficient.
#[inline(always)]
fn srad1_pixel(jc: f32, jn: f32, js: f32, jw: f32, je: f32, q0: f32) -> [f32; 5] {
    let dn = jn - jc;
    let ds = js - jc;
    let dw = jw - jc;
    let de = je - jc;
    let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc);
    let l = (dn + ds + dw + de) / jc;
    let num = 0.5 * g2 - (1.0 / 16.0) * l * l;
    let den = 1.0 + 0.25 * l;
    let qsqr = num / (den * den);
    let cden = (qsqr - q0) / (q0 * (1.0 + q0));
    let cval = (1.0 / (1.0 + cden)).clamp(0.0, 1.0);
    [dn, ds, dw, de, cval]
}

/// `srad1` over one row of `n` pixels. `north` and `south` are the
/// neighbouring rows, or `row` itself on the image border, where a
/// missing neighbour reads the centre pixel. Columns 0 and `n - 1` are
/// peeled off so the interior loop has no branch.
#[allow(clippy::too_many_arguments)] // five output planes, each its own noalias slice
fn srad1_row(
    north: &[f32],
    row: &[f32],
    south: &[f32],
    dn: &mut [f32],
    ds: &mut [f32],
    dw: &mut [f32],
    de: &mut [f32],
    c: &mut [f32],
    q0: f32,
) {
    let n = row.len();
    let mut put = |col: usize, jw: f32, je: f32| {
        [dn[col], ds[col], dw[col], de[col], c[col]] =
            srad1_pixel(row[col], north[col], south[col], jw, je, q0);
    };
    put(0, row[0], row[1.min(n - 1)]);
    if n == 1 {
        return;
    }
    put(n - 1, row[n - 2], row[n - 1]);
    let m = n - 1;
    let inputs = north[1..m]
        .iter()
        .zip(&south[1..m])
        .zip(row[..m - 1].iter().zip(&row[1..m]).zip(&row[2..]));
    let outputs = dn[1..m]
        .iter_mut()
        .zip(&mut ds[1..m])
        .zip(dw[1..m].iter_mut().zip(&mut de[1..m]))
        .zip(&mut c[1..m]);
    for (((jn, js), ((jw, jc), je)), (((dn, ds), (dw, de)), c)) in inputs.zip(outputs) {
        [*dn, *ds, *dw, *de, *c] = srad1_pixel(*jc, *jn, *js, *jw, *je, q0);
    }
}

/// Row-parallel derivative and coefficient pass.
fn srad1(g: &mut Grids, n: usize, q0: f32) {
    let j = &g.j;
    let mut rows: Vec<_> =
        g.dn.chunks_mut(n)
            .zip(g.ds.chunks_mut(n))
            .zip(g.dw.chunks_mut(n))
            .zip(g.de.chunks_mut(n))
            .zip(g.c.chunks_mut(n))
            .map(|((((dn, ds), dw), de), c)| (dn, ds, dw, de, c))
            .collect();
    par_chunks_mut(&mut rows, ROWS_PER_TASK, |t, task| {
        for (k, (dn, ds, dw, de, c)) in task.iter_mut().enumerate() {
            let r = t * ROWS_PER_TASK + k;
            let row = &j[r * n..(r + 1) * n];
            let north = if r > 0 { &j[(r - 1) * n..r * n] } else { row };
            let south = if r + 1 < n {
                &j[(r + 1) * n..(r + 2) * n]
            } else {
                row
            };
            srad1_row(north, row, south, dn, ds, dw, de, c, q0);
        }
    });
}

/// `srad2` over one row: `d` holds the row's `[dN, dS, dW, dE]`, `c` its
/// coefficients and `c_south` the next row's (or `c` itself on the last
/// row). The last column's east coefficient is its own, so it is peeled
/// off the branch-free interior loop.
fn srad2_row(jrow: &mut [f32], d: [&[f32]; 4], c: &[f32], c_south: &[f32], lambda: f32) {
    let [dn, ds, dw, de] = d;
    let n = jrow.len();
    let delta = |cc: f32, cs: f32, ce: f32, [dn, ds, dw, de]: [f32; 4]| {
        let (cn, cw) = (cc, cc);
        0.25 * lambda * (cn * dn + cs * ds + cw * dw + ce * de)
    };
    let last = n - 1;
    jrow[last] += delta(
        c[last],
        c_south[last],
        c[last],
        [dn[last], ds[last], dw[last], de[last]],
    );
    let coeffs = c[..last].iter().zip(&c_south[..last]).zip(&c[1..]);
    let derivs = dn[..last]
        .iter()
        .zip(&ds[..last])
        .zip(dw[..last].iter().zip(&de[..last]));
    for ((j, ((&cc, &cs), &ce)), ((&dn, &ds), (&dw, &de))) in
        jrow[..last].iter_mut().zip(coeffs).zip(derivs)
    {
        *j += delta(cc, cs, ce, [dn, ds, dw, de]);
    }
}

/// Row-parallel image update; reads c of south/east neighbours.
fn srad2(g: &mut Grids, n: usize, lambda: f32) {
    let (dn, ds, dw, de, c) = (&g.dn, &g.ds, &g.dw, &g.de, &g.c);
    par_chunks_mut(&mut g.j, n * ROWS_PER_TASK, |t, rows| {
        for (k, jrow) in rows.chunks_mut(n).enumerate() {
            let r = t * ROWS_PER_TASK + k;
            let at = r * n..(r + 1) * n;
            let south = if r + 1 < n {
                at.start + n..at.end + n
            } else {
                at.clone()
            };
            let d = [
                &dn[at.clone()],
                &ds[at.clone()],
                &dw[at.clone()],
                &de[at.clone()],
            ];
            srad2_row(jrow, d, &c[at], &c[south], lambda);
        }
    });
}

/// Sequential reference: final image after all iterations.
pub fn reference(p: &SradParams) -> Vec<f32> {
    let n = p.size;
    let mut g = Grids::new(n, p.seed);
    for _ in 0..p.iterations {
        let q0 = q0sqr(&g.j);
        srad1(&mut g, n, q0);
        srad2(&mut g, n, p.lambda);
    }
    g.j
}

/// Runs SRAD under `mode` (checksum = sum of the final image).
pub fn run(mut m: Machine, mode: MemMode, p: &SradParams) -> RunReport {
    let n = p.size;
    let bytes = (n * n * 4) as u64;

    // ---- real data ----
    let mut g = Grids::new(n, p.seed);

    // ---- GPU context initialization + argument parsing (phase 1) ----
    m.phase(Phase::CtxInit);
    m.rt.cuda_init();

    // ---- allocation ----
    m.phase(Phase::Alloc);
    let j_buf = UBuf::alloc(&mut m, mode, bytes, "srad.J");
    let dn_buf = UBuf::alloc_gpu_scratch(&mut m, mode, bytes, "srad.dN");
    let ds_buf = UBuf::alloc_gpu_scratch(&mut m, mode, bytes, "srad.dS");
    let de_buf = UBuf::alloc_gpu_scratch(&mut m, mode, bytes, "srad.dE");
    let dw_buf = UBuf::alloc_gpu_scratch(&mut m, mode, bytes, "srad.dW");
    let c_buf = UBuf::alloc_gpu_scratch(&mut m, mode, bytes, "srad.c");

    // ---- CPU-side initialization (the image only) ----
    m.phase(Phase::CpuInit);
    j_buf.cpu_init(&mut m, 0, bytes);

    // ---- compute ----
    m.phase(Phase::Compute);
    j_buf.upload(&mut m);
    for _ in 0..p.iterations {
        let q0 = q0sqr(&g.j);
        srad1(&mut g, n, q0);
        {
            let mut k = m.rt.launch("srad1");
            k.read(j_buf.gpu(), 0, bytes);
            k.write(dn_buf.gpu(), 0, bytes);
            k.write(ds_buf.gpu(), 0, bytes);
            k.write(de_buf.gpu(), 0, bytes);
            k.write(dw_buf.gpu(), 0, bytes);
            k.write(c_buf.gpu(), 0, bytes);
            k.compute((n * n * 30) as u64);
            k.finish();
        }
        srad2(&mut g, n, p.lambda);
        {
            let mut k = m.rt.launch("srad2");
            k.read(dn_buf.gpu(), 0, bytes);
            k.read(ds_buf.gpu(), 0, bytes);
            k.read(de_buf.gpu(), 0, bytes);
            k.read(dw_buf.gpu(), 0, bytes);
            k.read(c_buf.gpu(), 0, bytes);
            k.read(j_buf.gpu(), 0, bytes);
            k.write(j_buf.gpu(), 0, bytes);
            k.compute((n * n * 12) as u64);
            k.finish();
        }
    }
    j_buf.download(&mut m, 0, bytes);

    let checksum = g.j.iter().map(|&x| x as f64).sum::<f64>();
    m.set_checksum(checksum);

    // ---- de-allocation ----
    m.phase(Phase::Dealloc);
    j_buf.free(&mut m);
    dn_buf.free(&mut m);
    ds_buf.free(&mut m);
    de_buf.free(&mut m);
    dw_buf.free(&mut m);
    c_buf.free(&mut m);
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SradParams {
        SradParams {
            size: 64,
            iterations: 4,
            lambda: 0.5,
            seed: 2,
        }
    }

    #[test]
    fn all_modes_agree_with_reference() {
        let p = small();
        let expected: f64 = reference(&p).iter().map(|&x| x as f64).sum();
        for mode in MemMode::ALL {
            let r = run(gh_sim::platform::gh200().machine(), mode, &p);
            let rel = (r.checksum - expected).abs() / expected.abs().max(1.0);
            assert!(rel < 1e-6, "{mode}: {} vs {expected}", r.checksum);
        }
    }

    /// The per-pixel scalar `srad1` the row kernels replaced: the oracle
    /// they must match bit for bit.
    fn srad1_oracle(g: &mut Grids, n: usize, q0: f32) {
        let j = &g.j;
        for r in 0..n {
            for col in 0..n {
                let i = r * n + col;
                let jc = j[i];
                let jn = if r > 0 { j[i - n] } else { jc };
                let js = if r + 1 < n { j[i + n] } else { jc };
                let jw = if col > 0 { j[i - 1] } else { jc };
                let je = if col + 1 < n { j[i + 1] } else { jc };
                let dn = jn - jc;
                let ds = js - jc;
                let dw = jw - jc;
                let de = je - jc;
                let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc);
                let l = (dn + ds + dw + de) / jc;
                let num = 0.5 * g2 - (1.0 / 16.0) * l * l;
                let den = 1.0 + 0.25 * l;
                let qsqr = num / (den * den);
                let cden = (qsqr - q0) / (q0 * (1.0 + q0));
                let cval = (1.0 / (1.0 + cden)).clamp(0.0, 1.0);
                g.dn[i] = dn;
                g.ds[i] = ds;
                g.dw[i] = dw;
                g.de[i] = de;
                g.c[i] = cval;
            }
        }
    }

    /// The per-pixel scalar `srad2` oracle.
    fn srad2_oracle(g: &mut Grids, n: usize, lambda: f32) {
        for r in 0..n {
            for col in 0..n {
                let i = r * n + col;
                let cn = g.c[i];
                let cw = g.c[i];
                let cs = if r + 1 < n { g.c[i + n] } else { g.c[i] };
                let ce = if col + 1 < n { g.c[i + 1] } else { g.c[i] };
                let d = cn * g.dn[i] + cs * g.ds[i] + cw * g.dw[i] + ce * g.de[i];
                g.j[i] += 0.25 * lambda * d;
            }
        }
    }

    /// The two-pass `q0sqr` oracle.
    fn q0sqr_oracle(j: &[f32]) -> f32 {
        let n = j.len() as f32;
        let sum: f32 = j.iter().sum();
        let sum2: f32 = j.iter().map(|&x| x * x).sum();
        let mean = sum / n;
        let var = (sum2 / n) - mean * mean;
        var / (mean * mean)
    }

    fn bits(g: &Grids) -> [Vec<u32>; 6] {
        [&g.j, &g.dn, &g.ds, &g.dw, &g.de, &g.c].map(|v| v.iter().map(|x| x.to_bits()).collect())
    }

    #[test]
    fn row_kernels_match_scalar_oracles_bit_for_bit() {
        // n = 1, 2 and 3 leave the interior loop empty or one wide; 17 is
        // not a multiple of any vector width or of ROWS_PER_TASK.
        for n in [1usize, 2, 3, 17, 64] {
            let (mut fast, mut slow) = (Grids::new(n, 9), Grids::new(n, 9));
            for it in 0..4 {
                let q0 = q0sqr(&fast.j);
                assert_eq!(
                    q0.to_bits(),
                    q0sqr_oracle(&slow.j).to_bits(),
                    "n={n} it={it}"
                );
                srad1(&mut fast, n, q0);
                srad1_oracle(&mut slow, n, q0);
                assert!(bits(&fast) == bits(&slow), "srad1 n={n} it={it}");
                srad2(&mut fast, n, 0.5);
                srad2_oracle(&mut slow, n, 0.5);
                assert!(bits(&fast) == bits(&slow), "srad2 n={n} it={it}");
            }
        }
    }

    #[test]
    fn all_modes_match_the_scalar_oracle_checksum() {
        let p = small();
        let mut g = Grids::new(p.size, p.seed);
        for _ in 0..p.iterations {
            let q0 = q0sqr_oracle(&g.j);
            srad1_oracle(&mut g, p.size, q0);
            srad2_oracle(&mut g, p.size, p.lambda);
        }
        let expected = g.j.iter().map(|&x| x as f64).sum::<f64>();
        for mode in MemMode::ALL {
            let r = run(gh_sim::platform::gh200().machine(), mode, &p);
            assert_eq!(r.checksum.to_bits(), expected.to_bits(), "{mode}");
        }
    }

    #[test]
    fn diffusion_smooths_the_image() {
        let p = small();
        let n = p.size;
        let before: Vec<f32> = (0..n * n).map(|i| image_value(p.seed, i as u64)).collect();
        let after = reference(&p);
        let var = |v: &[f32]| {
            let m = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / v.len() as f32
        };
        assert!(var(&after) < var(&before), "diffusion must reduce variance");
    }

    #[test]
    fn q0sqr_of_constant_image_is_zero() {
        let j = vec![2.0f32; 100];
        assert!(q0sqr(&j).abs() < 1e-6);
    }

    #[test]
    fn coefficients_stay_in_unit_range() {
        let p = small();
        let n = p.size;
        let mut g = Grids::new(n, p.seed);
        let q0 = q0sqr(&g.j);
        srad1(&mut g, n, q0);
        assert!(g.c.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn system_mode_gpu_first_touch_happens_for_derivatives() {
        let p = small();
        let r = run(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        assert!(
            r.traffic.ats_faults > 0,
            "derivative arrays must be GPU-first-touched"
        );
    }
}
