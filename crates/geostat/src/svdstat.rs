//! Local SVD truncation-level statistics.
//!
//! For every `H × H` window the paper computes the number of singular modes
//! needed to recover 99 % of the window's variance; the standard deviation
//! of that truncation level across windows ("Std of truncation level of
//! local SVD (H=32)") is the multiscale-sensitive statistic of Section V-C.
//!
//! "Variance" is taken literally: each window is centred (its mean removed)
//! before the decomposition, so the truncation level measures the complexity
//! of the window's *fluctuations* rather than being dominated by the rank-1
//! mean component. This is what makes the statistic discriminate windows of
//! smooth large-scale flow from windows of developed turbulence.
//!
//! The level comes from an energy spectrum kernel, which answers only "how
//! many modes hold 99 % of the energy": that needs the eigenvalues of the
//! Gram matrix of the window's shorter side and no singular vectors —
//! centre → scale by a power of two near `1 / max|x|` → Gram → Householder
//! tridiagonalisation → implicit QL. The tests check it against a
//! one-sided Jacobi SVD, which computes every singular value, small ones
//! included, to high *relative* accuracy but is ≈ 17× slower (≈ 0.6 ms at
//! 32×32: three dot products per column pair per sweep).
//!
//! **Four windows at a time.** [`local_svd_truncation_levels_view`] runs
//! its tiles as quads (`quad`): the first four steps are lane
//! arithmetic on one interleaved copy of four windows (`QuadSpectrum`; the
//! one data branch, a zero Householder column, is a per-lane select), and
//! implicit QL interleaves the four windows' rotation chains, each with its
//! own `l`, `m`, sweep count and deflation. Every lane takes its window's
//! scalar steps, so each eigenvalue and level has the bits of the
//! one-window kernel, [`window_truncation_level`], which stays as the test
//! oracle and the single-window entry point (≈ 2× the quad path's time per
//! window: 512² GRFs, one thread). A field with a non-finite window has no
//! levels; a window whose QL does not converge is dropped.
//!
//! **Accuracy of the energy route.** The symmetric eigensolver is backward
//! stable: each computed eigenvalue `λᵢ = σᵢ²` is off by at most about
//! `n·ε·λ_max` in *absolute* terms. A cumulative energy fraction is a ratio
//! against `Σλ ≥ λ_max`, so that error moves it by ~1e-14 — irrelevant to a
//! 99 % threshold, and well inside the `1e-12·total` slack of the threshold
//! rule, so exact ties resolve the same way on both routes. It is *not* a
//! substitute for small singular values: anything below
//! `√(n·ε)·σ_max ≈ 1e-7·σ_max` is noise here (and may come out slightly
//! negative before clamping); only the Jacobi route resolves those.

use crate::local::full_windows;
use crate::quad::{add, div, interleave, map_quads, mul, select, sub, Lanes, QUAD};
use lcc_grid::{stats, FieldView};
use lcc_lossless::dispatch::{simd_level, SimdLevel};
use lcc_par::ThreadPoolConfig;

/// Truncation level of a single window view — the per-window kernel
/// [`local_svd_truncation_levels_view`] equals window by window, public so
/// a benchmark can time one window. Returns `None` when the window holds a
/// non-finite value (or its centring overflows) or the eigensolver does not
/// converge.
///
/// The window is centred so the level describes the variance (fluctuation)
/// structure, not the rank-1 mean component; the level itself comes from the
/// energy-only spectrum kernel (module docs), which agrees with the tests'
/// Jacobi SVD oracle unless the cumulative energy lands within rounding
/// of the threshold.
pub fn window_truncation_level(view: &FieldView<'_>, fraction: f64) -> Option<usize> {
    EnergySpectrum::new().truncation_level(view.rows(), fraction).ok()
}

/// Compute the 99 %-variance (or any `fraction`) truncation level of every
/// full `window × window` tile of the field, in row-major tile order, each
/// with [`window_truncation_level`]'s value. Tiles whose eigensolver does
/// not converge are left out. Empty when any tile holds a non-finite value
/// or its centring overflows: such a field has no spectrum, and
/// [`local_svd_truncation_std_view`] reads NaN. Tiles are strided sub-views
/// of the parent buffer, copied four at a time into one worker buffer.
pub fn local_svd_truncation_levels_view(
    field: &FieldView<'_>,
    window: usize,
    fraction: f64,
    threads: Option<usize>,
) -> Vec<usize> {
    local_svd_truncation_levels_view_at(simd_level(), field, window, fraction, threads)
        .unwrap_or_default()
}

/// [`local_svd_truncation_levels_view`] at an explicit SIMD tier (lowered
/// to one the hardware runs), `None` where the plain call is empty because
/// a tile has no spectrum; every tier gives the same levels.
pub fn local_svd_truncation_levels_view_at(
    level: SimdLevel,
    field: &FieldView<'_>,
    window: usize,
    fraction: f64,
    threads: Option<usize>,
) -> Option<Vec<usize>> {
    assert!(window >= 2, "windows must be at least 2x2");
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
    let tiles = full_windows(field, window);
    let pool = threads.map_or_else(ThreadPoolConfig::auto, ThreadPoolConfig::with_threads);
    let levels = map_quads(pool, &tiles, QuadSpectrum::default, |spectrum, quad| {
        spectrum.truncation_levels(level, quad, fraction)
    });
    let mut out = Vec::with_capacity(levels.len());
    for result in levels {
        match result {
            Ok(level) => out.push(level),
            Err(NoLevel::NonFinite) => return None,
            Err(NoLevel::NoConvergence) => {}
        }
    }
    Some(out)
}

/// Standard deviation of the local SVD truncation levels — the statistic on
/// the x-axis of Figure 6 and the right column of Figure 7. NaN when any
/// full tile holds a non-finite value or its centring overflows.
pub fn local_svd_truncation_std_view(
    field: &FieldView<'_>,
    window: usize,
    fraction: f64,
    threads: Option<usize>,
) -> f64 {
    let Some(levels) =
        local_svd_truncation_levels_view_at(simd_level(), field, window, fraction, threads)
    else {
        return f64::NAN;
    };
    let as_f64: Vec<f64> = levels.iter().map(|&l| l as f64).collect();
    stats::std_dev(&as_f64)
}

/// Why a window has no truncation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NoLevel {
    /// The window holds a non-finite value, or its centring overflows.
    NonFinite,
    /// Implicit QL did not converge within [`MAX_QL_SWEEPS`] a level.
    NoConvergence,
}

/// Number of leading modes, energies `σ²` in non-increasing order, whose
/// energy reaches `fraction` of the total (the paper's "99 % of the
/// variance" truncation level); 0 when there is no energy. The one
/// threshold rule both the Gram route and the tests' Jacobi oracle apply.
pub(crate) fn energy_level(energies: impl Iterator<Item = f64> + Clone, fraction: f64) -> usize {
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

/// [`energy_level`] of a window's Gram eigenvalues, given unordered: each
/// clamped at zero (rounding can push null eigenvalues slightly below it),
/// then sorted largest first.
fn level_of(eigenvalues: &mut [f64], fraction: f64) -> usize {
    for e in eigenvalues.iter_mut() {
        *e = e.max(0.0);
    }
    eigenvalues.sort_unstable_by(|a, b| b.total_cmp(a));
    energy_level(eigenvalues.iter().copied(), fraction)
}

/// The powers of two `(pre, post)` that bring a centred window's largest
/// magnitude `max_abs` (finite, positive) into `[1, 2)` as
/// `max_abs · pre · post`.
///
/// The Gram matrix squares entries, which overflows beyond ~1e154 and
/// flushes to zero below ~1e-154 where Jacobi did neither. The level is
/// scale-invariant and a power of two scales exactly, so bring the largest
/// entry into [1, 2). `pre` first lifts subnormal / lowers huge maxima to
/// where the exact reciprocal power of two exists.
#[inline(always)]
fn power_of_two_scale(max_abs: f64) -> (f64, f64) {
    let pre = if max_abs < 1e-150 {
        2f64.powi(600)
    } else if max_abs > 1e150 {
        2f64.powi(-600)
    } else {
        1.0
    };
    let exponent = (((max_abs * pre).to_bits() >> 52) & 0x7ff) as i64 - 1023;
    (pre, f64::from_bits(((1023 - exponent) as u64) << 52))
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
struct EnergySpectrum {
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
    fn new() -> Self {
        Self::default()
    }

    /// Number of leading singular modes of the *centred* window (its mean
    /// removed) that hold `fraction` of its energy — [`energy_level`] of
    /// the centred window's singular values, from the Gram matrix's
    /// eigenvalues (module docs give the accuracy statement).
    ///
    /// `rows` are the window's rows, all of one length. A constant window
    /// has level 0.
    ///
    /// # Panics
    /// Panics if `fraction` is outside `[0, 1]`, the window is empty, or the
    /// rows differ in length.
    fn truncation_level<'a>(
        &mut self,
        rows: impl Iterator<Item = &'a [f64]>,
        fraction: f64,
    ) -> Result<usize, NoLevel> {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        Ok(level_of(self.eigenvalues(rows)?, fraction))
    }

    /// The eigenvalues of the centred window's Gram matrix, unordered; none
    /// for a window without variance.
    fn eigenvalues<'a>(
        &mut self,
        rows: impl Iterator<Item = &'a [f64]>,
    ) -> Result<&mut [f64], NoLevel> {
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
            return Err(NoLevel::NonFinite);
        }
        if max_abs == 0.0 {
            return Ok(&mut []);
        }
        let (pre, post) = power_of_two_scale(max_abs);
        for x in &mut self.window {
            *x = *x * pre * post;
        }

        let n = self.form_gram(n_rows, n_cols);
        self.tridiagonalise(n);
        self.eigenvalues_ql(n).ok_or(NoLevel::NoConvergence)?;
        Ok(&mut self.diag[..n])
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

/// How a window of a quad came out of centring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Centred {
    /// It holds a non-finite value, or its centring overflowed.
    NonFinite,
    /// No variance: level 0.
    Constant,
    /// Centred and scaled; its spectrum is in the quad's tridiagonal form.
    Varies,
}

/// [`EnergySpectrum`] for four square windows at once (one per worker
/// thread): lane `k` of every buffer belongs to window `k`, and every step
/// is that window's scalar step (centring, power-of-two scaling, Gram,
/// Householder tridiagonalisation), so each window keeps its bits; the
/// scalar kernel's branches are per-lane selects. Implicit QL then runs
/// the four rotation chains interleaved, each lane with its own state.
#[derive(Debug, Default)]
pub(crate) struct QuadSpectrum {
    /// The quad's centred, scaled windows, row-major.
    cells: Vec<Lanes>,
    /// Their Gram matrices (lower triangle), reduced in place.
    gram: Vec<Lanes>,
    /// The tridiagonal couplings, `off[i]` joining `i-1` and `i`.
    off: Vec<Lanes>,
    /// Per window: the tridiagonal form, then its eigenvalues.
    diag: [Vec<f64>; QUAD],
    couplings: [Vec<f64>; QUAD],
    /// Each window's QL state, kept for the tests to read.
    ql: [QlChain; QUAD],
}

impl QuadSpectrum {
    /// Each window's level, or why it has none.
    fn truncation_levels(
        &mut self,
        level: SimdLevel,
        quad: &[FieldView<'_>; QUAD],
        fraction: f64,
    ) -> [Result<usize, NoLevel>; QUAD] {
        let centred = crate::simd::tridiagonalise_quad(level, self, quad);
        let converged = self.eigenvalues_ql();
        std::array::from_fn(|k| match centred[k] {
            Centred::NonFinite => Err(NoLevel::NonFinite),
            Centred::Constant => Ok(0),
            Centred::Varies if !converged[k] => Err(NoLevel::NoConvergence),
            Centred::Varies => Ok(level_of(&mut self.diag[k], fraction)),
        })
    }

    /// The lane body: copy a quad of square windows in, centre and scale
    /// each, form the Gram matrices and reduce them to tridiagonal form.
    /// A window that is not [`Centred::Varies`] runs as zeros, which every
    /// step leaves alone.
    #[inline(always)]
    pub(crate) fn tridiagonalise_body(&mut self, quad: &[FieldView<'_>; QUAD]) -> [Centred; QUAD] {
        let n = quad[0].ny();
        debug_assert_eq!(quad[0].shape(), (n, n), "quads of square windows");
        interleave(quad, &mut self.cells);

        // Centre on the mean, summed in row-major order from `Sum`'s -0.0.
        let mut sum = [-0.0f64; QUAD];
        for cell in &self.cells {
            for k in 0..QUAD {
                sum[k] += cell[k];
            }
        }
        let mean = sum.map(|s| s / self.cells.len() as f64);
        let mut max_abs = [0.0f64; QUAD];
        for cell in &mut self.cells {
            for k in 0..QUAD {
                cell[k] -= mean[k];
                max_abs[k] = max_abs[k].max(cell[k].abs());
            }
        }
        let centred: [Centred; QUAD] = std::array::from_fn(|k| {
            if !max_abs[k].is_finite() || mean[k].is_nan() {
                Centred::NonFinite
            } else if max_abs[k] == 0.0 {
                Centred::Constant
            } else {
                Centred::Varies
            }
        });
        let mut pre = [1.0; QUAD];
        let mut post = [1.0; QUAD];
        for k in 0..QUAD {
            if centred[k] == Centred::Varies {
                (pre[k], post[k]) = power_of_two_scale(max_abs[k]);
            }
        }
        for cell in &mut self.cells {
            for k in 0..QUAD {
                cell[k] = cell[k] * pre[k] * post[k];
            }
        }
        for k in 0..QUAD {
            if centred[k] != Centred::Varies {
                self.cells.iter_mut().for_each(|cell| cell[k] = 0.0);
            }
        }

        // `X Xᵀ`, each entry summed along the row from `Sum`'s -0.0; four
        // entries of a row at a time, each its own chain.
        self.gram.clear();
        self.gram.resize(n * n, [0.0; QUAD]);
        for (i, ri) in self.cells.chunks_exact(n).enumerate() {
            let row = &mut self.gram[i * n..=i * n + i];
            let mut rj = self.cells.chunks_exact(n);
            let mut entries = row.chunks_exact_mut(4);
            for four in entries.by_ref() {
                let rows = [(); 4].map(|()| rj.next().expect("a row per entry"));
                four.copy_from_slice(&dots(ri, rows));
            }
            for (gij, rj) in entries.into_remainder().iter_mut().zip(rj) {
                [*gij] = dots(ri, [rj]);
            }
        }

        self.tridiagonalise(n);
        centred
    }

    /// [`EnergySpectrum::tridiagonalise`] lane by lane. Its one data branch,
    /// the skip of a step whose Householder column is zero, becomes a
    /// per-lane select: a skipping lane's step runs on a divisor of 1 and
    /// writes nothing back but its coupling. Row `i`'s Householder vector
    /// and the scratch `off[..i]` are read by no later step, so only the
    /// coupling and the trailing update need the select.
    #[inline(always)]
    fn tridiagonalise(&mut self, n: usize) {
        self.off.clear();
        self.off.resize(n, [0.0; QUAD]);
        let (a, e) = (&mut self.gram, &mut self.off);
        for i in (1..n).rev() {
            let (above, rest) = a.split_at_mut(i * n);
            let u = &mut rest[..i];
            let mut scale = [-0.0f64; QUAD];
            for x in u.iter() {
                scale = add(scale, x.map(f64::abs));
            }
            let active = scale.map(|s| s != 0.0);
            if i == 1 || !active.contains(&true) {
                e[i] = u[i - 1];
                continue;
            }
            let divisor = select(active, scale, [1.0; QUAD]);
            let mut h = [0.0f64; QUAD];
            for x in u.iter_mut() {
                *x = div(*x, divisor);
                h = add(h, mul(*x, *x));
            }
            let f = u[i - 1];
            let root = h.map(f64::sqrt);
            let g = select(f.map(|f| f >= 0.0), root.map(|r| -r), root);
            e[i] = select(active, mul(scale, g), f);
            h = sub(h, mul(f, g));
            u[i - 1] = sub(f, g);
            // p = A·u / h into e[..i], as the scalar kernel walks it.
            e[..i].fill([0.0; QUAD]);
            for j in 0..i {
                let row = &above[j * n..j * n + j];
                let uj = u[j];
                let mut g = mul(above[j * n + j], uj);
                for ((a, uk), pk) in row.iter().zip(&*u).zip(e.iter_mut()) {
                    g = add(g, mul(*a, *uk));
                    *pk = add(*pk, mul(*a, uj));
                }
                e[j] = add(e[j], g);
            }
            let mut upu = [0.0f64; QUAD];
            for (pj, uj) in e[..i].iter_mut().zip(&*u) {
                *pj = div(*pj, h);
                upu = add(upu, mul(*pj, *uj));
            }
            let hh = div(upu, add(h, h));
            // A ← A − q·uᵀ − u·qᵀ with q = p − hh·u, where the lane is active.
            for j in 0..i {
                let f = u[j];
                let g = sub(e[j], mul(hh, f));
                e[j] = g;
                for ((x, ek), uk) in above[j * n..j * n + j + 1].iter_mut().zip(&e[..=j]).zip(&*u) {
                    *x = select(active, sub(*x, add(mul(f, *ek), mul(g, *uk))), *x);
                }
            }
        }
        for k in 0..QUAD {
            self.diag[k].clear();
            self.diag[k].extend((0..n).map(|i| self.gram[i * n + i][k]));
            self.couplings[k].clear();
            self.couplings[k].extend(self.off.iter().map(|e| e[k]));
        }
    }

    /// [`EnergySpectrum::eigenvalues_ql`] on the four tridiagonal forms at
    /// once: one step of each unfinished window's chain in turn, so four
    /// independent rotation chains are in flight. Each window keeps its own
    /// `l`, `m`, sweep count and deflation, and takes exactly its scalar
    /// steps. Returns which windows converged.
    fn eigenvalues_ql(&mut self) -> [bool; QUAD] {
        for (e, chain) in self.couplings.iter_mut().zip(&mut self.ql) {
            let n = e.len();
            e.copy_within(1..n, 0);
            e[n - 1] = 0.0;
            *chain = QlChain::default();
        }
        loop {
            let mut running = false;
            for ((chain, d), e) in self.ql.iter_mut().zip(&mut self.diag).zip(&mut self.couplings) {
                if !chain.done {
                    chain.step(d, e);
                    running = true;
                }
            }
            if !running {
                break;
            }
        }
        self.ql.map(|chain| !chain.failed)
    }
}

/// The dot products, each summed in order from `Sum`'s -0.0, of row `ri`
/// with each of `rows`, lane by lane: `J` independent chains in flight.
#[inline(always)]
fn dots<const J: usize>(ri: &[Lanes], rows: [&[Lanes]; J]) -> [Lanes; J] {
    let rows = rows.map(|r| &r[..ri.len()]);
    let mut acc = [[-0.0f64; QUAD]; J];
    for (t, a) in ri.iter().enumerate() {
        for (acc, r) in acc.iter_mut().zip(&rows) {
            *acc = add(*acc, mul(*a, r[t]));
        }
    }
    acc
}

/// One window's implicit-QL state between steps.
#[derive(Debug, Default, Clone, Copy)]
struct QlChain {
    /// The eigenvalue being isolated, and its sweeps so far.
    l: usize,
    sweeps: usize,
    /// Within a sweep: its end `m`, the rotation index `i` last done, and
    /// the carried `s`, `c`, `p`, `g`.
    in_sweep: bool,
    m: usize,
    i: usize,
    s: f64,
    c: f64,
    p: f64,
    g: f64,
    done: bool,
    failed: bool,
    /// Sweeps over all eigenvalues, and sweeps ended by a zero rotation.
    #[cfg(test)]
    total_sweeps: usize,
    #[cfg(test)]
    deflations: usize,
}

impl QlChain {
    /// One step of [`EnergySpectrum::eigenvalues_ql`]: outside a sweep, the
    /// search for `m` and the sweep's set-up; inside one, one rotation.
    #[inline]
    fn step(&mut self, d: &mut [f64], e: &mut [f64]) {
        let n = d.len();
        let l = self.l;
        if !self.in_sweep {
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
                self.l += 1;
                self.sweeps = 0;
                self.done = self.l == n;
                return;
            }
            if self.sweeps == MAX_QL_SWEEPS {
                self.failed = true;
                self.done = true;
                return;
            }
            self.sweeps += 1;
            #[cfg(test)]
            {
                self.total_sweeps += 1;
            }
            let g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let r = g.hypot(1.0);
            self.g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            (self.s, self.c, self.p) = (1.0, 1.0, 0.0);
            (self.m, self.i, self.in_sweep) = (m, m, true);
            return;
        }
        let (m, i) = (self.m, self.i - 1);
        let f = self.s * e[i];
        let b = self.c * e[i];
        let r = rotation_length(f, self.g);
        e[i + 1] = r;
        if r == 0.0 {
            d[i + 1] -= self.p;
            e[m] = 0.0;
            self.in_sweep = false;
            #[cfg(test)]
            {
                self.deflations += 1;
            }
            return;
        }
        self.s = f / r;
        self.c = self.g / r;
        let g = d[i + 1] - self.p;
        let r = (d[i] - g) * self.s + 2.0 * self.c * b;
        self.p = self.s * r;
        d[i + 1] = g + self.p;
        self.g = self.c * r - b;
        self.i = i;
        if i == l {
            d[l] -= self.p;
            e[l] = self.g;
            e[m] = 0.0;
            self.in_sweep = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::{singular_values, truncation_level};
    use crate::regression::Matrix;
    use crate::test_fields::{families, quad_cases, white_noise};
    use lcc_grid::Field2D;
    use lcc_lossless::dispatch::supported_levels;
    use lcc_synth::{generate_single_range, GaussianFieldConfig};

    /// Mean truncation level over the field's full 32 × 32 windows.
    fn mean_level(field: &Field2D, fraction: f64) -> f64 {
        let levels = local_svd_truncation_levels_view(&field.view(), 32, fraction, None);
        stats::mean(&levels.iter().map(|&l| l as f64).collect::<Vec<_>>())
    }

    const FRACTIONS: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

    /// Checks one window at every fraction against the oracle: the Jacobi
    /// `svd()` of the centred window + `truncation_level`. A mismatch fails,
    /// except where the oracle's own cumulative energy passes within
    /// 1e-10·total of the threshold — there the level is decided by rounding
    /// on either route and ±1 is accepted. Returns how many of the four
    /// comparisons were such near-threshold cases.
    fn assert_levels_match_oracle(view: &FieldView<'_>, what: &str) -> usize {
        let mean = view.summary().mean;
        let centred: Vec<f64> = view.iter().map(|v| v - mean).collect();
        let m = Matrix::from_vec(view.ny(), view.nx(), centred).unwrap();
        let sv = singular_values(&m).unwrap();
        let total: f64 = sv.iter().map(|s| s * s).sum();
        let mut near = 0;
        for fraction in FRACTIONS {
            let oracle = truncation_level(&sv, fraction);
            let level = window_truncation_level(view, fraction).unwrap();
            let threshold = fraction * total - 1e-12 * total;
            let mut acc = 0.0;
            let near_threshold = sv.iter().any(|s| {
                acc += s * s;
                (acc - threshold).abs() <= 1e-10 * total
            });
            if near_threshold {
                near += 1;
                assert!(level.abs_diff(oracle) <= 1, "{what} @ {fraction}: {level} vs {oracle}");
            } else {
                assert_eq!(level, oracle, "{what} @ {fraction}");
            }
        }
        near
    }

    #[test]
    fn window_levels_equal_the_jacobi_oracle_on_every_family() {
        let (mut windows, mut near) = (0, 0);
        for (name, field) in families() {
            for size in [16, 32, 64] {
                for (win, view) in field.windows(size, size) {
                    near += assert_levels_match_oracle(
                        &view,
                        &format!("{name} {size}² at ({}, {})", win.i0, win.j0),
                    );
                    windows += 1;
                }
            }
        }
        assert_eq!(windows, 9 * (64 + 16 + 4));
        // Near-threshold cases are the tolerated exception, not the rule.
        assert!(near * 100 <= windows * FRACTIONS.len(), "{near} near-threshold comparisons");
    }

    #[test]
    fn rectangular_and_strided_views_equal_the_oracle_and_their_owned_copies() {
        for (name, field) in families() {
            // Wide (Gram over rows), tall (Gram over columns), and a column
            // strip; all strided through the parent buffer.
            for (i0, j0, h, w) in [(3, 5, 24, 40), (5, 3, 40, 24), (60, 17, 64, 9)] {
                let view = field.view().subview(i0, j0, h, w);
                assert!(!view.is_contiguous());
                assert_levels_match_oracle(&view, &format!("{name} {h}x{w}"));
                let owned = view.to_field();
                for fraction in FRACTIONS {
                    assert_eq!(
                        window_truncation_level(&view, fraction),
                        window_truncation_level(&owned.view(), fraction)
                    );
                }
            }
        }
    }

    #[test]
    fn levels_survive_every_representable_amplitude() {
        // The Gram route squares entries; without the power-of-two scaling
        // 1e±300 would overflow / flush to zero.
        let base = generate_single_range(&GaussianFieldConfig::new(32, 32, 5.0, 4));
        let noise = white_noise(32, 32, 3);
        for (name, field) in [("grf", &base), ("noise", &noise)] {
            let expected = window_truncation_level(&field.view(), 0.99).unwrap();
            assert!(expected > 0);
            for amplitude in [1e-300, 1e-150, 1e150, 1e300] {
                let scaled = Field2D::from_fn(32, 32, |i, j| field.at(i, j) * amplitude);
                assert_eq!(
                    window_truncation_level(&scaled.view(), 0.99),
                    Some(expected),
                    "{name} × {amplitude}"
                );
            }
        }
    }

    #[test]
    fn degenerate_windows_have_defined_levels() {
        // Constant, and zeros of either sign: no variance, level 0.
        let signed_zeros =
            Field2D::from_fn(32, 32, |i, j| if (i + j) % 2 == 0 { 0.0 } else { -0.0 });
        for f in [Field2D::filled(32, 32, 4.25), Field2D::zeros(32, 32), signed_zeros] {
            assert_eq!(window_truncation_level(&f.view(), 0.99), Some(0));
        }
        // A constant whose mean does not round back to it leaves a rank-1
        // residue of rounding, on both routes.
        assert_levels_match_oracle(&Field2D::filled(32, 32, 4.2).view(), "constant 4.2");
        // Subnormal values: integer multiples of the smallest subnormal,
        // which the same integers at amplitude 1 must agree with.
        let integers = Field2D::from_fn(32, 32, |i, j| {
            (1e6 * ((0.3 * i as f64).sin() + (0.2 * j as f64).cos() + 0.01 * (i * j) as f64))
                .round()
        });
        let tiny = f64::from_bits(1);
        let subnormal = Field2D::from_fn(32, 32, |i, j| integers.at(i, j) * tiny);
        assert!(subnormal.as_slice().iter().all(|x| x.abs() < f64::MIN_POSITIVE));
        let level = window_truncation_level(&integers.view(), 0.99).unwrap();
        assert!(level > 0);
        assert_eq!(window_truncation_level(&subnormal.view(), 0.99), Some(level));
        // A single spike: the centred window has rank 2. A huge one must
        // read the same (the Jacobi oracle itself overflows there).
        let spike = |amplitude: f64| {
            let mut f = Field2D::zeros(32, 32);
            f.set(7, 19, amplitude);
            f
        };
        assert_levels_match_oracle(&spike(1.0).view(), "spike");
        for fraction in FRACTIONS {
            assert_eq!(
                window_truncation_level(&spike(1e300).view(), fraction),
                window_truncation_level(&spike(1.0).view(), fraction)
            );
        }
        // Non-finite input has no spectrum.
        let mut f = Field2D::filled(32, 32, 1.0);
        f.set(3, 3, f64::NAN);
        assert_eq!(window_truncation_level(&f.view(), 0.99), None);
        f.set(3, 3, f64::INFINITY);
        assert_eq!(window_truncation_level(&f.view(), 0.99), None);
    }

    #[test]
    fn rank_one_windows_need_one_mode() {
        // A separable product field has rank-1 windows.
        let f = Field2D::from_fn(64, 64, |i, j| (1.0 + i as f64) * (1.0 + j as f64).ln().max(0.1));
        let levels = local_svd_truncation_levels_view(&f.view(), 32, 0.99, Some(2));
        assert_eq!(levels.len(), 4);
        assert!(levels.iter().all(|&l| l <= 2), "{levels:?}");
    }

    #[test]
    fn noise_needs_many_modes_smooth_needs_few() {
        let smooth = generate_single_range(&GaussianFieldConfig::new(96, 96, 20.0, 3));
        let noise = white_noise(96, 96, 11);
        let smooth_mean = mean_level(&smooth, 0.99);
        let noise_mean = mean_level(&noise, 0.99);
        assert!(noise_mean > 2.0 * smooth_mean, "noise {noise_mean} vs smooth {smooth_mean}");
    }

    #[test]
    fn std_statistic_is_finite_and_deterministic() {
        let f = generate_single_range(&GaussianFieldConfig::new(96, 96, 6.0, 8));
        let a = local_svd_truncation_std_view(&f.view(), 32, 0.99, Some(1));
        let b = local_svd_truncation_std_view(&f.view(), 32, 0.99, Some(4));
        assert!(a.is_finite());
        assert_eq!(a, b);
    }

    #[test]
    fn partial_windows_are_ignored() {
        let f = generate_single_range(&GaussianFieldConfig::new(70, 70, 6.0, 8));
        let levels = local_svd_truncation_levels_view(&f.view(), 32, 0.99, None);
        assert_eq!(levels.len(), 4); // only the 2x2 grid of full windows
    }

    #[test]
    fn fraction_controls_the_level() {
        let f = generate_single_range(&GaussianFieldConfig::new(64, 64, 5.0, 2));
        let strict = mean_level(&f, 0.999);
        let loose = mean_level(&f, 0.5);
        assert!(strict > loose);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_fraction_panics() {
        let f = Field2D::zeros(32, 32);
        let _ = local_svd_truncation_levels_view(&f.view(), 32, 1.5, None);
    }

    /// Level of the centred matrix through the Jacobi oracle.
    fn oracle_level(a: &Matrix, fraction: f64) -> usize {
        let mean = a.as_slice().iter().sum::<f64>() / a.as_slice().len() as f64;
        let centred = Matrix::from_fn(a.rows(), a.cols(), |i, j| a.get(i, j) - mean);
        truncation_level(&singular_values(&centred).unwrap(), fraction)
    }

    fn energy_level_of(spectrum: &mut EnergySpectrum, a: &Matrix, fraction: f64) -> Option<usize> {
        spectrum.truncation_level((0..a.rows()).map(|i| a.row(i)), fraction).ok()
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
    fn quads_have_each_windows_eigenvalues_and_level_at_every_tier() {
        let mut oracle = EnergySpectrum::new();
        let (mut windows, mut sweep_counts, mut deflated) = (0, Vec::new(), 0);
        for case in quad_cases() {
            let tiles = full_windows(&case.view(), case.window);
            for &level in supported_levels() {
                let mut spectrum = QuadSpectrum::default();
                for group in tiles.chunks(QUAD) {
                    let quad = std::array::from_fn(|k| *group.get(k).unwrap_or(&group[0]));
                    let centred = crate::simd::tridiagonalise_quad(level, &mut spectrum, &quad);
                    let converged = spectrum.eigenvalues_ql();
                    for (k, view) in group.iter().enumerate() {
                        let what = format!("{} at {level:?}, window {windows}", case.name);
                        match oracle.eigenvalues(view.rows()) {
                            Err(NoLevel::NonFinite) => assert_eq!(centred[k], Centred::NonFinite),
                            Err(NoLevel::NoConvergence) => panic!("{what}: QL did not converge"),
                            Ok([]) => assert_eq!(centred[k], Centred::Constant, "{what}"),
                            Ok(want) => {
                                assert_eq!(centred[k], Centred::Varies, "{what}");
                                assert!(converged[k], "{what}");
                                let got: Vec<u64> =
                                    spectrum.diag[k].iter().map(|x| x.to_bits()).collect();
                                let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
                                assert_eq!(got, want, "{what}");
                                sweep_counts.push(spectrum.ql[k].total_sweeps);
                                deflated += spectrum.ql[k].deflations.min(1);
                            }
                        }
                        windows += 1;
                    }
                    let levels = spectrum.truncation_levels(level, &quad, 0.99);
                    for (got, view) in levels.iter().zip(group) {
                        assert_eq!(got.ok(), window_truncation_level(view, 0.99), "{}", case.name);
                    }
                }
            }
        }
        // Lanes whose chains take different sweep counts, and lanes that
        // deflate, sit in the quads above.
        sweep_counts.sort_unstable();
        sweep_counts.dedup();
        assert!(sweep_counts.len() > 10, "{sweep_counts:?}");
        assert!(deflated > 0);
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
}
