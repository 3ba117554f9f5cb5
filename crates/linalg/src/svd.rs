//! Singular value decomposition and the energy spectrum of a window.
//!
//! Two kernels, for two different questions:
//!
//! * [`svd`] — one-sided Jacobi: orthogonalizes the columns of `A` by plane
//!   rotations; the column norms of the result are the singular values. It
//!   is simple and computes every singular value, small ones included, to
//!   high *relative* accuracy, and it is the only decomposition here that
//!   produces vectors. It is also slow (≈ 0.6 ms for a 32×32 window: three
//!   dot products per column pair per sweep, `V` accumulated alongside), so
//!   nothing that runs per window calls it; the tests use it as the oracle.
//! * [`EnergySpectrum::truncation_level`] — the study's per-window question
//!   is only "how many modes hold 99 % of the energy", which needs the
//!   eigenvalues of the Gram matrix of the window's shorter side and no
//!   vectors: centre → scale by a power of two near `1 / max|x|` → Gram →
//!   Householder tridiagonalisation → implicit QL (≈ 0.035 ms at 32×32).
//!
//! **Accuracy of the energy route.** The symmetric eigensolver is backward
//! stable: each computed eigenvalue `λᵢ = σᵢ²` is off by at most about
//! `n·ε·λ_max` in *absolute* terms. A cumulative energy fraction is a ratio
//! against `Σλ ≥ λ_max`, so that error moves it by ~1e-14 — irrelevant to a
//! 99 % threshold, and well inside the `1e-12·total` slack [`truncation_level`]
//! already applies, so exact ties resolve the same way on both routes. It is
//! *not* a substitute for small singular values: anything below
//! `√(n·ε)·σ_max ≈ 1e-7·σ_max` is noise here (and may come out slightly
//! negative before clamping). Use [`singular_values`] for those.

use crate::{LinalgError, Matrix};

/// Result of a singular value decomposition `A = U Σ Vᵀ`.
#[derive(Debug, Clone)]
pub struct SvdResult {
    /// Singular values in non-increasing order.
    pub singular_values: Vec<f64>,
    /// Left singular vectors as columns (rows × min(rows, cols)).
    pub u: Matrix,
    /// Right singular vectors as columns (cols × min(rows, cols)).
    pub v: Matrix,
}

/// Compute the full SVD of `a` (rows ≥ cols is handled directly; wide
/// matrices are transposed internally).
pub fn svd(a: &Matrix) -> Result<SvdResult, LinalgError> {
    if a.rows() < a.cols() {
        // Work on the transpose and swap U / V at the end.
        let t = a.transpose();
        let r = svd_tall(&t)?;
        return Ok(SvdResult { singular_values: r.singular_values, u: r.v, v: r.u });
    }
    svd_tall(a)
}

/// Singular values only, in non-increasing order, each to the Jacobi route's
/// high relative accuracy. This runs the full [`svd`]; the per-window
/// truncation statistic uses [`EnergySpectrum`] instead.
pub fn singular_values(a: &Matrix) -> Result<Vec<f64>, LinalgError> {
    Ok(svd(a)?.singular_values)
}

fn svd_tall(a: &Matrix) -> Result<SvdResult, LinalgError> {
    let m = a.rows();
    let n = a.cols();
    // Columns of `work` are rotated until mutually orthogonal.
    let mut work: Vec<Vec<f64>> = (0..n).map(|j| a.column(j)).collect();
    // V accumulates the right-side rotations.
    let mut v = Matrix::identity(n);

    let max_sweeps = 60;
    let eps = 1e-15;
    // Columns whose squared norm falls below this threshold are numerically
    // zero (they arise when the matrix is rank-deficient); rotating them
    // against each other only shuffles rounding noise and prevents the
    // off-diagonal measure from converging, so they are skipped.
    let total_sq: f64 = work.iter().flat_map(|c| c.iter()).map(|x| x * x).sum();
    let negligible = total_sq * 1e-28 + f64::MIN_POSITIVE;
    let mut converged = false;
    for _sweep in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in p + 1..n {
                let alpha: f64 = work[p].iter().map(|x| x * x).sum();
                let beta: f64 = work[q].iter().map(|x| x * x).sum();
                let gamma: f64 = work[p].iter().zip(work[q].iter()).map(|(x, y)| x * y).sum();
                if alpha <= negligible || beta <= negligible {
                    continue;
                }
                off = off.max(gamma.abs() / (alpha.sqrt() * beta.sqrt()));
                if gamma.abs() <= eps * (alpha * beta).sqrt() {
                    continue;
                }
                // Jacobi rotation that zeroes the (p,q) inner product.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                let (lo, hi) = work.split_at_mut(q);
                for (wp, wq) in lo[p].iter_mut().zip(hi[0].iter_mut()) {
                    let (xp, xq) = (*wp, *wq);
                    *wp = c * xp - s * xq;
                    *wq = s * xp + c * xq;
                }
                for i in 0..n {
                    let vp = v.get(i, p);
                    let vq = v.get(i, q);
                    v.set(i, p, c * vp - s * vq);
                    v.set(i, q, s * vp + c * vq);
                }
            }
        }
        if off < 1e-13 {
            converged = true;
            break;
        }
    }
    if !converged {
        // The rotations still produced a usable factorization; only extreme
        // inputs get here. Report non-convergence so callers can decide.
        return Err(LinalgError::NoConvergence { iterations: max_sweeps });
    }

    // Singular values are the column norms; U's columns are the normalized
    // rotated columns.
    let mut sv: Vec<(f64, usize)> = work
        .iter()
        .enumerate()
        .map(|(j, col)| (col.iter().map(|x| x * x).sum::<f64>().sqrt(), j))
        .collect();
    sv.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("singular values are finite"));

    let mut u = Matrix::zeros(m, n);
    let mut vv = Matrix::zeros(n, n);
    let mut values = Vec::with_capacity(n);
    for (slot, &(sigma, j)) in sv.iter().enumerate() {
        values.push(sigma);
        for (i, &w) in work[j].iter().enumerate() {
            let x = if sigma > 0.0 { w / sigma } else { 0.0 };
            u.set(i, slot, x);
        }
        for i in 0..n {
            vv.set(i, slot, v.get(i, j));
        }
    }
    Ok(SvdResult { singular_values: values, u, v: vv })
}

/// Number of leading singular values whose squared sum reaches `fraction` of
/// the total squared sum (the paper's "99 % of the variance" truncation
/// level). Returns 0 for an all-zero matrix.
pub fn truncation_level(singular_values: &[f64], fraction: f64) -> usize {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
    energy_level(singular_values.iter().map(|s| s * s), fraction)
}

/// [`truncation_level`] on mode energies `σ²` in non-increasing order — the
/// one threshold rule both the Jacobi and the Gram route apply.
fn energy_level(energies: impl Iterator<Item = f64> + Clone, fraction: f64) -> usize {
    let total: f64 = energies.clone().sum();
    if total <= 0.0 {
        return 0;
    }
    let target = fraction * total;
    let mut acc = 0.0;
    let mut modes = 0;
    for energy in energies {
        acc += energy;
        modes += 1;
        if acc >= target - 1e-12 * total {
            break;
        }
    }
    modes
}

/// `hypot(f, g)`, by a plain square root wherever the squares neither
/// overflow nor underflow — libm's `hypot` is about a quarter of the whole
/// spectrum kernel. The fallback matters: an exactly rank-deficient Gram
/// matrix leaves zeros on the diagonal next to couplings whose squares
/// underflow, and a zero length would stall the QL sweep until it gives up
/// (the rounding residue of a constant window does this).
#[inline]
fn rotation_length(f: f64, g: f64) -> f64 {
    let squares = f * f + g * g;
    if (1e-280..1e280).contains(&squares) {
        squares.sqrt()
    } else {
        f.hypot(g)
    }
}

/// Sweeps of implicit QL allowed per eigenvalue before giving up; symmetric
/// tridiagonal matrices take two or three.
const MAX_QL_SWEEPS: usize = 60;

/// Values-only energy spectrum of a centred window, with the buffers it
/// needs kept for the next window (one per worker thread).
#[derive(Debug, Default)]
pub struct EnergySpectrum {
    /// The centred, scaled window, row-major.
    window: Vec<f64>,
    /// Gram matrix of the window's shorter side (lower triangle), reduced
    /// in place.
    gram: Vec<f64>,
    /// Tridiagonal form, then the eigenvalues.
    diag: Vec<f64>,
    off: Vec<f64>,
}

impl EnergySpectrum {
    /// An empty scratch; buffers grow to the first window's size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of leading singular modes of the *centred* window (its mean
    /// removed) that hold `fraction` of its energy — what
    /// [`truncation_level`] returns for the singular values of the centred
    /// window, from the Gram matrix's eigenvalues instead (module docs give
    /// the accuracy statement).
    ///
    /// `rows` are the window's rows, all of one length. A constant window
    /// has level 0. `None` when the window holds a non-finite value or the
    /// eigensolver does not converge.
    ///
    /// # Panics
    /// Panics if `fraction` is outside `[0, 1]`, the window is empty, or the
    /// rows differ in length.
    pub fn truncation_level<'a>(
        &mut self,
        rows: impl Iterator<Item = &'a [f64]>,
        fraction: f64,
    ) -> Option<usize> {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        self.window.clear();
        let mut n_rows = 0;
        let mut n_cols = 0;
        for row in rows {
            if n_rows == 0 {
                n_cols = row.len();
            }
            assert_eq!(row.len(), n_cols, "window rows must share one length");
            self.window.extend_from_slice(row);
            n_rows += 1;
        }
        assert!(n_rows > 0 && n_cols > 0, "window must not be empty");

        // Centre on the mean, summed in row-major order.
        let mean = self.window.iter().sum::<f64>() / self.window.len() as f64;
        let mut max_abs = 0.0f64;
        for x in &mut self.window {
            *x -= mean;
            max_abs = max_abs.max(x.abs());
        }
        if !max_abs.is_finite() || mean.is_nan() {
            return None;
        }
        if max_abs == 0.0 {
            return Some(0);
        }
        // The Gram matrix squares entries, which overflows beyond ~1e154 and
        // flushes to zero below ~1e-154 where Jacobi did neither. The level
        // is scale-invariant and a power of two scales exactly, so bring the
        // largest entry into [1, 2). `pre` first lifts subnormal / lowers
        // huge maxima to where the exact reciprocal power of two exists.
        let pre = if max_abs < 1e-150 {
            2f64.powi(600)
        } else if max_abs > 1e150 {
            2f64.powi(-600)
        } else {
            1.0
        };
        let exponent = (((max_abs * pre).to_bits() >> 52) & 0x7ff) as i64 - 1023;
        let post = f64::from_bits(((1023 - exponent) as u64) << 52);
        for x in &mut self.window {
            *x = *x * pre * post;
        }

        let n = self.form_gram(n_rows, n_cols);
        self.tridiagonalise(n);
        self.eigenvalues_ql(n)?;
        // Rounding can push null eigenvalues slightly below zero.
        let energies = &mut self.diag[..n];
        for e in energies.iter_mut() {
            *e = e.max(0.0);
        }
        energies.sort_unstable_by(|a, b| b.total_cmp(a));
        Some(energy_level(energies.iter().copied(), fraction))
    }

    /// Fill the lower triangle of `gram` with `X Xᵀ` (rows ≤ cols) or `XᵀX`;
    /// returns its order.
    fn form_gram(&mut self, n_rows: usize, n_cols: usize) -> usize {
        let n = n_rows.min(n_cols);
        self.gram.clear();
        self.gram.resize(n * n, 0.0);
        let (x, g) = (&self.window, &mut self.gram);
        if n_rows <= n_cols {
            for (i, ri) in x.chunks_exact(n_cols).enumerate() {
                for (gij, rj) in g[i * n..=i * n + i].iter_mut().zip(x.chunks_exact(n_cols)) {
                    *gij = ri.iter().zip(rj).map(|(a, b)| a * b).sum();
                }
            }
        } else {
            // Column dot products as a sum of row outer products, so every
            // access stays contiguous.
            for row in x.chunks_exact(n_cols) {
                for (i, &xi) in row.iter().enumerate() {
                    for (gij, &xj) in g[i * n..=i * n + i].iter_mut().zip(row) {
                        *gij += xi * xj;
                    }
                }
            }
        }
        n
    }

    /// Householder reduction of `gram` to tridiagonal form (`diag`, `off`
    /// with `off[i]` coupling `i-1` and `i`), no transformation accumulated.
    /// Works on the lower triangle, row `i` holding the Householder vector
    /// of step `i` once that step is done.
    fn tridiagonalise(&mut self, n: usize) {
        self.diag.clear();
        self.diag.resize(n, 0.0);
        self.off.clear();
        self.off.resize(n, 0.0);
        let (a, e) = (&mut self.gram, &mut self.off);
        for i in (1..n).rev() {
            let (above, rest) = a.split_at_mut(i * n);
            let u = &mut rest[..i];
            let scale: f64 = u.iter().map(|x| x.abs()).sum();
            if i == 1 || scale == 0.0 {
                e[i] = u[i - 1];
                continue;
            }
            let mut h = 0.0;
            for x in u.iter_mut() {
                *x /= scale;
                h += *x * *x;
            }
            let f = u[i - 1];
            let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            u[i - 1] = f - g;
            // p = A·u / h into e[..i]. Row j of the lower triangle serves
            // both as row j (a dot product) and as column j's upper part (an
            // update of the earlier p's), so every access is contiguous.
            e[..i].fill(0.0);
            for j in 0..i {
                let row = &above[j * n..j * n + j];
                let uj = u[j];
                let mut g = above[j * n + j] * uj;
                for ((&a, &uk), pk) in row.iter().zip(&*u).zip(e.iter_mut()) {
                    g += a * uk;
                    *pk += a * uj;
                }
                e[j] += g;
            }
            let mut upu = 0.0;
            for (pj, &uj) in e[..i].iter_mut().zip(&*u) {
                *pj /= h;
                upu += *pj * uj;
            }
            let hh = upu / (h + h);
            // A ← A − q·uᵀ − u·qᵀ with q = p − hh·u.
            for j in 0..i {
                let f = u[j];
                let g = e[j] - hh * f;
                e[j] = g;
                for ((x, &ek), &uk) in above[j * n..j * n + j + 1].iter_mut().zip(&e[..=j]).zip(&*u)
                {
                    *x -= f * ek + g * uk;
                }
            }
        }
        for i in 0..n {
            self.diag[i] = self.gram[i * n + i];
        }
    }

    /// Implicit-shift QL on the tridiagonal (`diag`, `off`); leaves the
    /// eigenvalues, unordered, in `diag`. `None` on non-convergence.
    ///
    /// The sweeps are one serial chain of plane rotations and take over half
    /// of the kernel's time, most of it in the rotation length.
    fn eigenvalues_ql(&mut self, n: usize) -> Option<()> {
        let (d, e) = (&mut self.diag, &mut self.off);
        e.copy_within(1..n, 0);
        e[n - 1] = 0.0;
        for l in 0..n {
            let mut sweeps = 0;
            loop {
                // Smallest m ≥ l whose coupling to m+1 is negligible.
                let mut m = l;
                while m + 1 < n {
                    let dd = d[m].abs() + d[m + 1].abs();
                    if e[m].abs() <= f64::EPSILON * dd {
                        break;
                    }
                    m += 1;
                }
                if m == l {
                    break;
                }
                if sweeps == MAX_QL_SWEEPS {
                    return None;
                }
                sweeps += 1;
                let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                let mut r = g.hypot(1.0);
                g = d[m] - d[l] + e[l] / (g + r.copysign(g));
                let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
                let mut deflated = false;
                for i in (l..m).rev() {
                    let f = s * e[i];
                    let b = c * e[i];
                    r = rotation_length(f, g);
                    e[i + 1] = r;
                    if r == 0.0 {
                        d[i + 1] -= p;
                        e[m] = 0.0;
                        deflated = true;
                        break;
                    }
                    s = f / r;
                    c = g / r;
                    g = d[i + 1] - p;
                    r = (d[i] - g) * s + 2.0 * c * b;
                    p = s * r;
                    d[i + 1] = g + p;
                    g = c * r - b;
                }
                if deflated {
                    continue;
                }
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(r: &SvdResult) -> Matrix {
        let k = r.singular_values.len();
        let mut sigma = Matrix::zeros(k, k);
        for (i, &s) in r.singular_values.iter().enumerate() {
            sigma.set(i, i, s);
        }
        r.u.matmul(&sigma).unwrap().matmul(&r.v.transpose()).unwrap()
    }

    #[test]
    fn diagonal_matrix_has_its_entries_as_singular_values() {
        let mut a = Matrix::zeros(3, 3);
        a.set(0, 0, 3.0);
        a.set(1, 1, 1.0);
        a.set(2, 2, 2.0);
        let r = svd(&a).unwrap();
        let sv = r.singular_values;
        assert!((sv[0] - 3.0).abs() < 1e-10);
        assert!((sv[1] - 2.0).abs() < 1e-10);
        assert!((sv[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![-1.0, 0.25, 3.0],
            vec![0.0, 1.0, -2.0],
            vec![2.0, 2.0, 2.0],
        ])
        .unwrap();
        let r = svd(&a).unwrap();
        let back = reconstruct(&r);
        assert!(a.max_abs_diff(&back) < 1e-9, "diff = {}", a.max_abs_diff(&back));
    }

    #[test]
    fn wide_matrix_is_handled() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0, 2.0, 1.0], vec![0.0, 3.0, 0.0, -1.0]]).unwrap();
        let r = svd(&a).unwrap();
        assert_eq!(r.singular_values.len(), 2);
        // Largest singular value of A equals sqrt of largest eigenvalue of A Aᵀ.
        let aat = a.matmul(&a.transpose()).unwrap();
        let trace = aat.get(0, 0) + aat.get(1, 1);
        let sumsq: f64 = r.singular_values.iter().map(|s| s * s).sum();
        assert!((trace - sumsq).abs() < 1e-9);
    }

    #[test]
    fn singular_values_are_sorted_and_nonnegative() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let sv = singular_values(&a).unwrap();
        assert!(sv.windows(2).all(|w| w[0] >= w[1] - 1e-12));
        assert!(sv.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn factors_are_orthonormal() {
        let a = Matrix::from_fn(5, 3, |i, j| (i as f64 + 1.0) * (j as f64 - 1.0) + (i * j) as f64);
        let r = svd(&a).unwrap();
        let utu = r.u.transpose().matmul(&r.u).unwrap();
        let vtv = r.v.transpose().matmul(&r.v).unwrap();
        // Columns associated with non-zero singular values are orthonormal;
        // for this full-rank-ish example all should be.
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                if r.singular_values[i] > 1e-9 && r.singular_values[j] > 1e-9 {
                    assert!((utu.get(i, j) - expect).abs() < 1e-8);
                }
                assert!((vtv.get(i, j) - expect).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn rank_one_matrix_has_single_nonzero_singular_value() {
        let a = Matrix::from_fn(4, 4, |i, j| (i + 1) as f64 * (j + 1) as f64);
        let sv = singular_values(&a).unwrap();
        assert!(sv[0] > 1.0);
        for s in &sv[1..] {
            assert!(*s < 1e-9);
        }
        assert_eq!(truncation_level(&sv, 0.99), 1);
    }

    #[test]
    fn truncation_level_behaviour() {
        assert_eq!(truncation_level(&[0.0, 0.0], 0.99), 0);
        assert_eq!(truncation_level(&[3.0, 0.0], 0.99), 1);
        // Equal energy in 4 modes: 99 % needs all 4.
        assert_eq!(truncation_level(&[1.0, 1.0, 1.0, 1.0], 0.99), 4);
        // 50 % needs 2 of them.
        assert_eq!(truncation_level(&[1.0, 1.0, 1.0, 1.0], 0.5), 2);
    }

    /// Level of the centred matrix through the Jacobi oracle.
    fn oracle_level(a: &Matrix, fraction: f64) -> usize {
        let mean = a.as_slice().iter().sum::<f64>() / a.as_slice().len() as f64;
        let centred = Matrix::from_fn(a.rows(), a.cols(), |i, j| a.get(i, j) - mean);
        truncation_level(&singular_values(&centred).unwrap(), fraction)
    }

    fn energy_level_of(spectrum: &mut EnergySpectrum, a: &Matrix, fraction: f64) -> Option<usize> {
        spectrum.truncation_level((0..a.rows()).map(|i| a.row(i)), fraction)
    }

    #[test]
    fn energy_spectrum_matches_the_jacobi_oracle_with_one_reused_scratch() {
        // Square, wide (Gram over rows) and tall (Gram over columns), with
        // smooth-plus-rough content; one scratch across shapes and sizes.
        let mut spectrum = EnergySpectrum::new();
        for (rows, cols) in [(32, 32), (12, 40), (40, 12), (2, 2), (1, 9), (9, 1), (64, 64)] {
            let a = Matrix::from_fn(rows, cols, |i, j| {
                (0.2 * i as f64).sin() * (0.15 * j as f64).cos()
                    + 0.05 * (((i * 31 + j * 17) % 13) as f64 - 6.0)
            });
            for fraction in [0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    energy_level_of(&mut spectrum, &a, fraction),
                    Some(oracle_level(&a, fraction)),
                    "{rows}x{cols} @ {fraction}"
                );
            }
        }
    }

    #[test]
    fn energy_spectrum_resolves_exact_ties_like_truncation_level() {
        // Four orthogonal ±1 patterns of equal energy (already zero-mean):
        // 50 % is reached exactly at two modes, within the shared slack.
        let hadamard = [[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0]];
        let a = Matrix::from_fn(4, 4, |i, j| if i < 3 { hadamard[i][j] } else { 0.0 });
        let mut spectrum = EnergySpectrum::new();
        assert_eq!(energy_level_of(&mut spectrum, &a, 0.99), Some(3));
        assert_eq!(
            energy_level_of(&mut spectrum, &a, 2.0 / 3.0),
            Some(oracle_level(&a, 2.0 / 3.0))
        );
        assert_eq!(energy_level_of(&mut spectrum, &a, 0.0), Some(oracle_level(&a, 0.0)));
    }

    #[test]
    fn energy_spectrum_converges_on_exactly_rank_deficient_windows() {
        // Rank 1 and rank 2 with zero mean: the Gram matrix has exact zero
        // eigenvalues, the case that stalls QL if rotations underflow.
        let mut spectrum = EnergySpectrum::new();
        let rank1 = Matrix::from_fn(32, 32, |i, j| (i + 1) as f64 * (j as f64 - 15.5));
        let all_equal_rows = Matrix::from_fn(32, 32, |_, j| if j % 2 == 0 { 1.0 } else { -1.0 });
        for a in [&rank1, &all_equal_rows] {
            for fraction in [0.5, 0.99, 1.0] {
                assert_eq!(energy_level_of(&mut spectrum, a, fraction), Some(1));
            }
        }
        // A constant whose mean does not round back to it (rank-1 rounding
        // residue) and a single spike (rank 2 once centred).
        let residue = Matrix::from_fn(32, 32, |_, _| 4.2);
        assert_eq!(energy_level_of(&mut spectrum, &residue, 0.99), Some(1));
        let spike = Matrix::from_fn(32, 32, |i, j| if (i, j) == (7, 19) { 1.0 } else { 0.0 });
        assert_eq!(energy_level_of(&mut spectrum, &spike, 0.99), Some(oracle_level(&spike, 0.99)));
        let rank2 = Matrix::from_fn(32, 32, |i, j| {
            (i + 1) as f64 * (j as f64 - 15.5) + if (i + j) % 2 == 0 { 3.0 } else { -3.0 }
        });
        assert_eq!(energy_level_of(&mut spectrum, &rank2, 1.0), Some(oracle_level(&rank2, 1.0)));
    }

    #[test]
    fn energy_spectrum_rejects_non_finite_and_zeroes_constants() {
        let mut spectrum = EnergySpectrum::new();
        let constant = Matrix::from_fn(8, 8, |_, _| -3.5);
        assert_eq!(energy_level_of(&mut spectrum, &constant, 0.99), Some(0));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let a = Matrix::from_fn(8, 8, |i, j| if (i, j) == (2, 5) { bad } else { 1.0 });
            assert_eq!(energy_level_of(&mut spectrum, &a, 0.99), None);
        }
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn truncation_level_rejects_bad_fraction() {
        let _ = truncation_level(&[1.0], 1.5);
    }
}
