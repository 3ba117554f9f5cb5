//! Empirical semi-variograms and the squared-exponential model fit.
//!
//! The empirical (Matheron) semi-variogram of a field `z` is
//!
//! ```text
//! γ(h) = 1 / (2 N(h)) · Σ_{|xᵢ − xⱼ| = h} (z(xᵢ) − z(xⱼ))²
//! ```
//!
//! (Equation 1 of the paper). On a regular grid the pairs at a given
//! separation are enumerated by lag *offsets*; this implementation samples
//! the axial and diagonal directions at every integer lag up to a cutoff —
//! the same style of pair enumeration gstat uses for gridded data — and bins
//! pairs by Euclidean distance. Very large fields are additionally strided
//! so the cost stays bounded, mirroring gstat's sampling behaviour.
//!
//! The estimator runs in three steps:
//!
//! 1. **offset list** — every (direction, lag) offset that fits the field,
//!    direction-major, with the origin stride its sampling budget implies;
//! 2. **band sweep** — the offsets of one stride whose lags fall in one band
//!    of `BAND` (16) consecutive lags, in all four directions, are one job.
//!    Before the fan-out, each stride `s > 1` the jobs use gets one
//!    *residue plane*, a copy of the field whose row `i` holds the columns
//!    `r, r + s, r + 2s, …` of row `i` packed, residue after residue: an
//!    offset's sampled origin and partner elements are contiguous there,
//!    so every kernel call reads unit-stride (unit-stride offsets read the
//!    field itself). The job walks the origin rows once, `ROWS` (8) at a
//!    time, and runs every offset of the band against each block of rows:
//!    horizontal lags re-read a row that is in L1, vertical and diagonal
//!    lags share one sliding window of `ROWS · stride + BAND` partner rows,
//!    so a 512² field is streamed once per band (15 times) instead of once
//!    per offset (680 times). Per offset the sum of squared differences
//!    still goes into `LANES` (8) independent accumulators, two `[f64; 4]`
//!    lane vectors, combined in a fixed tree (one accumulator is a single
//!    floating-point dependency chain and runs at add latency, not
//!    throughput), and `GROUP` (4) lags of a direction share a kernel call,
//!    their blocks interleaved; where the group's origin samples start at
//!    one cell (every direction but the anti-diagonal) each origin block is
//!    read once for the four. The job is lane arithmetic throughout and the
//!    crate's `simd` module compiles it once per SIMD tier;
//! 3. **ordered binning** — the per-offset sums are folded into the distance
//!    bins in list order.
//!
//! Step 2 is the only part that costs anything, and jobs are independent, so
//! it fans out over a thread pool ([`estimate_range_pooled`], largest job
//! first). **The variogram is bit-identical for every pool width and SIMD
//! tier, and to a pass over the field per offset**: each offset is in
//! exactly one job and its sum is computed by exactly one thread; the
//! residue plane moves where a sampled element is read from, not which
//! element it is; element `k` of a row's samples still goes to lane
//! `k mod LANES`; each lane still receives its offset's terms rows
//! ascending, columns ascending — interleaving lags and blocking rows only
//! reorders work *between* lanes, which do not interact until the fixed
//! tree; neither tier contracts a multiply and an add; and step 3 is serial
//! in list order. The per-offset pass over the field's own rows survives as
//! the test oracle (`offset_sum`). [`empirical_variogram_view`] /
//! [`estimate_range_view`] are the same code at width 1.
//!
//! **Windows.** The local statistic estimates the variogram of every full
//! window of a field, and all of them share one shape, so `WindowPlan`
//! lays the offset list (strides included), each offset's bin and the
//! bins' distances out once per field and sums four windows' offsets at
//! once, one window per lane of a `quad` copy, binning into the
//! worker's buffers. Each lane takes the per-offset pass's steps, so every
//! window's γ has [`empirical_variogram_view`]'s bits (the unit tests hold
//! it there at every SIMD tier).
//!
//! The paper's "estimated variogram range" is the range parameter `a` of the
//! squared-exponential model `γ(h) = c₀ (1 − exp(−h²/a²))` fitted to the
//! empirical variogram by least squares. The Gauss–Newton fit evaluates
//! `exp(−h²/a²)` once per sample per parameter vector: the model and its
//! gradient share it, and a candidate's residual pass also builds the
//! normal equations the next iteration uses if the step is accepted — the
//! same sums, bit for bit, as separate residual, model and Jacobian passes
//! (a test keeps that three-pass fit as the oracle). A variogram with a
//! non-finite γ is refused, so a field holding NaN or ±∞, or values whose
//! squared differences overflow, has a NaN range and sill.

use crate::quad::{add, interleave, mul, sub, Lanes, QUAD};
use crate::GeostatError;
use lcc_grid::{Field2D, FieldView};
use lcc_lossless::dispatch::{simd_level, SimdLevel};
use lcc_par::{parallel_map_with, ThreadPoolConfig};

/// Configuration of the empirical variogram estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariogramConfig {
    /// Largest lag distance (grid units) to evaluate. `None` means a third of
    /// the smaller field extent (gstat's default cutoff heuristic).
    pub max_lag: Option<usize>,
    /// Number of distance bins of the returned variogram.
    pub n_bins: usize,
    /// Maximum number of grid points sampled per direction/lag pair; larger
    /// fields are strided down to roughly this budget.
    pub sample_budget: usize,
}

impl Default for VariogramConfig {
    fn default() -> Self {
        VariogramConfig { max_lag: None, n_bins: 24, sample_budget: 200_000 }
    }
}

/// An empirical semi-variogram: binned distances, semi-variances and pair
/// counts.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalVariogram {
    /// Mean pair distance of each bin.
    pub distances: Vec<f64>,
    /// Semi-variance γ(h) of each bin.
    pub gammas: Vec<f64>,
    /// Number of pairs that contributed to each bin.
    pub counts: Vec<u64>,
}

impl EmpiricalVariogram {
    /// The variogram of no pairs, which every fit rejects.
    fn empty() -> Self {
        EmpiricalVariogram { distances: Vec::new(), gammas: Vec::new(), counts: Vec::new() }
    }

    /// Number of non-empty bins.
    pub fn len(&self) -> usize {
        self.distances.len()
    }

    /// True when no pairs were collected.
    pub fn is_empty(&self) -> bool {
        self.distances.is_empty()
    }
}

/// Result of fitting the squared-exponential model `γ(h) = c₀(1 − exp(−h²/a²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariogramFit {
    /// Fitted sill `c₀` (the variance plateau).
    pub sill: f64,
    /// Fitted range `a` — the paper's "estimated variogram range".
    pub range: f64,
    /// Sum of squared residuals of the fit.
    pub residual: f64,
}

/// Compute the empirical semi-variogram of a (possibly strided) view,
/// serially — the variogram of the global estimate
/// ([`estimate_range_view`]) and of the one-window kernel
/// [`window_range`](crate::window_range). The windowed local statistics do
/// not call it: they run their windows as `WindowPlan` quads.
pub fn empirical_variogram_view(
    field: &FieldView<'_>,
    config: &VariogramConfig,
) -> EmpiricalVariogram {
    empirical_variogram_pooled(simd_level(), field, config, ThreadPoolConfig::with_threads(1))
}

/// One (direction, lag) offset of the pair enumeration: origins `(i, j)` on
/// a `stride`-spaced lattice pair with `(i + off_y, j ± off_x)`.
#[derive(Debug, Clone, Copy)]
struct Offset {
    /// Index into [`DIRECTIONS`].
    dir: usize,
    lag: usize,
    off_y: usize,
    off_x: usize,
    /// The anti-diagonal direction pairs with `j − off_x`.
    negative_x: bool,
    stride: usize,
    dist: f64,
    /// Pairs the offset samples in one origin row.
    samples: usize,
    /// Where the origin row's and the partner row's samples start in a row
    /// of the stride's residue plane ([`plane_column`]).
    a_col: usize,
    b_col: usize,
}

impl Offset {
    /// Number of pairs the offset samples in a field of `ny` rows.
    fn pairs(&self, ny: usize) -> u64 {
        ((ny - self.off_y).div_ceil(self.stride) * self.samples) as u64
    }
}

/// Directions sampled (dy, dx): axial + both diagonals. `usize::MAX` stands
/// for dx = −1.
const DIRECTIONS: [(usize, usize); 4] = [(0, 1), (1, 0), (1, 1), (1, usize::MAX)];

/// The offsets that fit an `ny × nx` field, direction-major then by lag.
/// Within a direction the pair count falls with the lag, so the stride
/// never rises.
fn offsets(ny: usize, nx: usize, max_lag: usize, max_dist: f64, budget: usize) -> Vec<Offset> {
    let budget = budget.max(1) as f64;
    let mut out = Vec::with_capacity(DIRECTIONS.len() * max_lag);
    for (dir, &(dy, dx_raw)) in DIRECTIONS.iter().enumerate() {
        for lag in 1..=max_lag {
            let negative_x = dx_raw == usize::MAX;
            let (off_y, off_x) = (dy * lag, if negative_x { lag } else { dx_raw * lag });
            if off_y >= ny || off_x >= nx {
                continue;
            }
            let dist = ((off_y * off_y + off_x * off_x) as f64).sqrt();
            if dist > max_dist {
                continue;
            }
            // Stride the origin points so the per-offset pair count stays
            // within the sampling budget. A stride of the larger extent
            // already samples a single origin, so nothing above it is needed.
            let pairs = (ny - off_y) * (nx - off_x);
            let stride = ((pairs as f64 / budget).sqrt().ceil() as usize).clamp(1, ny.max(nx));
            let (a_start, b_start) = if negative_x { (off_x, 0) } else { (0, off_x) };
            out.push(Offset {
                dir,
                lag,
                off_y,
                off_x,
                negative_x,
                stride,
                dist,
                samples: (nx - off_x).div_ceil(stride),
                a_col: plane_column(a_start, nx, stride),
                b_col: plane_column(b_start, nx, stride),
            });
        }
    }
    out
}

/// Where column `c` of an `nx`-wide row sits in a row of the residue plane
/// for origin stride `s` ([`residue_plane`]): residue `c mod s` starts at
/// `(c mod s) · ⌈nx / s⌉`, and `c` is its element `c / s`.
fn plane_column(c: usize, nx: usize, s: usize) -> usize {
    (c % s) * nx.div_ceil(s) + c / s
}

/// The field's residue plane for origin stride `s > 1`: row `i` holds the
/// columns `r, r + s, r + 2s, …` of the field's row `i` for each residue
/// `r < s` in turn, each residue `⌈nx / s⌉` wide (a short residue's last
/// cell is zero). The `k`-th sampled element of a row from column `c` is
/// then element `plane_column(c) + k`: every offset of stride `s` reads its
/// origin and partner samples contiguously.
fn residue_plane(field: &FieldView<'_>, s: usize) -> Field2D {
    let (ny, nx) = field.shape();
    let width = nx.div_ceil(s);
    let mut plane = Field2D::zeros(ny, s * width);
    for i in 0..ny {
        let (row, out) = (field.row(i), plane.row_mut(i));
        // A stride above `nx` (a tiny budget on a tall field) leaves the
        // residues from `nx` on empty.
        for (residue, r) in out.chunks_exact_mut(width).zip(0..nx) {
            for (k, cell) in residue[..(nx - r).div_ceil(s)].iter_mut().enumerate() {
                *cell = row[r + k * s];
            }
        }
    }
    plane
}

/// Independent accumulators of the pair kernel.
const LANES: usize = 8;

/// One offset's [`LANES`] accumulators as two lane vectors: accumulators
/// 0–3, then 4–7.
type Acc = [Lanes; 2];

/// Consecutive lags one job sweeps together. A 512² GRF at one thread on a
/// 2-vCPU x86-64 box, best of nine, alternating builds, AVX2 / scalar
/// tier: 8 lags 12.4 / 16.7 ms, 16 lags 12.2 / 16.5, 32 lags 11.6 / 16.4 —
/// nearly flat, because any of them keeps the partner rows in L2; 16
/// leaves 15 jobs for the pool to balance where 32 leaves 8, and a 4 KB
/// accumulator block on the stack.
const BAND: usize = 16;

/// Lags of one direction that share a kernel call, their blocks
/// interleaved so that `GROUP × LANES` add chains are in flight. The same
/// runs, 2 / 4 lags: 512² 12.7 / 11.8 ms at AVX2 (four offsets' eight
/// accumulator vectors take half its sixteen registers) but 15.4 / 16.6
/// scalar (they take all sixteen SSE2 registers), and `select` `req_per_s`
/// 53.7 / 55.9 (ten alternating pairs, all won by four). The one-window
/// kernel pays for it: a 32 × 32 window's variogram plus fit 15.4 / 17.2 µs at AVX2,
/// 15.7 / 19.3 scalar — groups of four leave two of ten lags, and every
/// row only the shorter lags of a group have, to single calls.
const GROUP: usize = 4;

/// Origin rows a kernel call walks with its accumulators in registers.
/// The same runs: 4 rows 12.0 / 16.7 ms, 8 rows 12.2 / 16.5, 16 rows
/// 12.4 / 16.7, 32 rows 12.2 / 16.6 — flat (256 rows read 20.1 ms against
/// 17.2–18.2 for 8 before the residue planes: the per-band working set
/// leaves L2's fast ways).
const ROWS: usize = 8;

/// The two lane vectors of a [`LANES`]-element block.
#[inline(always)]
fn halves(block: &[f64]) -> Acc {
    let (lo, hi) = block.split_at(QUAD);
    [lo.try_into().expect("a block of LANES"), hi.try_into().expect("a block of LANES")]
}

/// `acc[k] += (a[k] − b[k])²` for the [`LANES`] elements of one block.
#[inline(always)]
fn accumulate_block(acc: &mut Acc, a: &[f64], b: &[f64]) {
    let ([a0, a1], [b0, b1]) = (halves(a), halves(b));
    let (d0, d1) = (sub(a0, b0), sub(a1, b1));
    *acc = [add(acc[0], mul(d0, d0)), add(acc[1], mul(d1, d1))];
}

/// `acc[k mod LANES] += (a[k] − b[k])²` over two equally long slices.
#[inline(always)]
fn accumulate(acc: &mut Acc, a: &[f64], b: &[f64]) {
    let (a_blocks, b_blocks) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail = a_blocks.remainder().iter().zip(b_blocks.remainder());
    // A copy, so that the lanes are registers over both loops: accumulating
    // through `acc` reads 25 ms for a 512² field where this reads 17.
    let mut lanes = *acc;
    for (ca, cb) in a_blocks.zip(b_blocks) {
        accumulate_block(&mut lanes, ca, cb);
    }
    for (k, (x, y)) in tail.enumerate() {
        let d = x - y;
        lanes[k / QUAD][k % QUAD] += d * d;
    }
    *acc = lanes;
}

/// [`accumulate`] for a [`GROUP`] of slice pairs at once: the blocks every
/// pair has are interleaved block by block, then each pair finishes its
/// own remaining blocks and ragged tail. Every pair's lanes receive exactly
/// the terms, in exactly the order, of a call of its own. The joint blocks
/// are one zip of block iterators, so the loop carries no bounds check;
/// with `SHARED` (every `a` starts at the same cell: the origin samples of
/// all directions but the anti-diagonal) each block of `a` is read once.
#[inline(always)]
fn accumulate_group<'a, const SHARED: bool>(
    acc: &mut [Acc; GROUP],
    a: [&'a [f64]; GROUP],
    b: [&'a [f64]; GROUP],
) {
    let blocks = |s: &'a [f64]| s.chunks_exact(LANES);
    let [mut l0, mut l1, mut l2, mut l3] = *acc;
    let mut joint = 0;
    let partners = blocks(b[0]).zip(blocks(b[1])).zip(blocks(b[2]).zip(blocks(b[3])));
    if SHARED {
        for (ca, ((b0, b1), (b2, b3))) in blocks(a[0]).zip(partners) {
            accumulate_block(&mut l0, ca, b0);
            accumulate_block(&mut l1, ca, b1);
            accumulate_block(&mut l2, ca, b2);
            accumulate_block(&mut l3, ca, b3);
            joint += LANES;
        }
    } else {
        let origins = blocks(a[0]).zip(blocks(a[1])).zip(blocks(a[2]).zip(blocks(a[3])));
        for (((a0, a1), (a2, a3)), ((b0, b1), (b2, b3))) in origins.zip(partners) {
            accumulate_block(&mut l0, a0, b0);
            accumulate_block(&mut l1, a1, b1);
            accumulate_block(&mut l2, a2, b2);
            accumulate_block(&mut l3, a3, b3);
            joint += LANES;
        }
    }
    let mut lanes = [l0, l1, l2, l3];
    for (g, lanes) in lanes.iter_mut().enumerate() {
        accumulate(lanes, &a[g][joint..], &b[g][joint..]);
    }
    *acc = lanes;
}

/// The slices offset `o` pairs on origin row `i` of its stride's residue
/// plane `rows`: the origin row's samples and the partner row's.
#[inline(always)]
fn pair_rows<'a>(rows: &FieldView<'a>, i: usize, o: &Offset) -> (&'a [f64], &'a [f64]) {
    let (origin, partner) = (rows.row(i), rows.row(i + o.off_y));
    (&origin[o.a_col..][..o.samples], &partner[o.b_col..][..o.samples])
}

/// The pair kernel: a [`GROUP`] of offsets of one direction against the
/// origin rows `r · stride`, `r` in `origins`, of the residue plane `rows`;
/// `SHARED` when the offsets' origin samples start at one cell.
#[inline(always)]
fn sweep_group<const SHARED: bool>(
    acc: &mut [Acc; GROUP],
    rows: &FieldView<'_>,
    group: &[Offset; GROUP],
    origins: std::ops::Range<usize>,
    stride: usize,
) {
    let mut lanes = *acc;
    for r in origins {
        let (mut a, mut b): ([&[f64]; GROUP], [&[f64]; GROUP]) = ([&[]; GROUP], [&[]; GROUP]);
        for g in 0..GROUP {
            (a[g], b[g]) = pair_rows(rows, r * stride, &group[g]);
        }
        accumulate_group::<SHARED>(&mut lanes, a, b);
    }
    *acc = lanes;
}

/// [`sweep_group`] for one offset.
#[inline(always)]
fn sweep_one(acc: &mut Acc, rows: &FieldView<'_>, o: &Offset, origins: std::ops::Range<usize>) {
    let mut lanes = *acc;
    for r in origins {
        let (a, b) = pair_rows(rows, r * o.stride, o);
        accumulate(&mut lanes, a, b);
    }
    *acc = lanes;
}

/// A block of origin rows against the offsets of one direction (`acc[k]`
/// belongs to `band[k]`, lags ascending): each [`GROUP`] of offsets in one
/// kernel call over the rows its longest lag still has a partner for, the
/// rows only shorter lags have, and the offsets short of a group, singly.
#[inline(always)]
fn sweep_direction(
    acc: &mut [Acc],
    rows: &FieldView<'_>,
    band: &[Offset],
    origins: std::ops::Range<usize>,
    stride: usize,
) {
    let ny = rows.ny();
    // Origin rows `r · stride` of offset `o` that fall in this block.
    let rows_of =
        |o: &Offset, from: usize| from..(ny - o.off_y).div_ceil(stride).clamp(from, origins.end);
    let mut acc_groups = acc.chunks_exact_mut(GROUP);
    let mut band_groups = band.chunks_exact(GROUP);
    for (acc, group) in acc_groups.by_ref().zip(band_groups.by_ref()) {
        let acc: &mut [Acc; GROUP] = acc.try_into().expect("a chunk of GROUP");
        let group: &[Offset; GROUP] = group.try_into().expect("a chunk of GROUP");
        let joint = rows_of(&group[GROUP - 1], origins.start);
        if group.iter().all(|o| o.a_col == group[0].a_col) {
            sweep_group::<true>(acc, rows, group, joint.clone(), stride);
        } else {
            sweep_group::<false>(acc, rows, group, joint.clone(), stride);
        }
        for (acc, o) in acc.iter_mut().zip(group) {
            sweep_one(acc, rows, o, rows_of(o, joint.end));
        }
    }
    for (acc, o) in acc_groups.into_remainder().iter_mut().zip(band_groups.remainder()) {
        sweep_one(acc, rows, o, rows_of(o, origins.start));
    }
}

/// The unit of parallel work: the offsets of one origin stride whose lags
/// fall in one band of [`BAND`] consecutive lags, in all four directions.
#[derive(Debug)]
pub(crate) struct BandJob {
    stride: usize,
    /// `(lag − 1) / BAND`.
    band: usize,
    /// Per direction, the job's offsets as a range of the offset list.
    dirs: [std::ops::Range<usize>; DIRECTIONS.len()],
    /// Pairs the job sums — its cost, to order the job list by.
    pairs: u64,
}

/// Per direction, the sum of squared differences of each offset of a job.
pub(crate) type BandSums = [[f64; BAND]; DIRECTIONS.len()];

/// Group the offset list into band jobs, most pairs first. Every offset is
/// in exactly one job.
fn band_jobs(offsets: &[Offset], ny: usize) -> Vec<BandJob> {
    let mut jobs: Vec<BandJob> = Vec::new();
    // Within a direction the stride never rises and the band never falls,
    // so equal (direction, stride, band) keys are one run of consecutive
    // offsets and the job list is searched once a run, not once an offset.
    let mut run = None;
    for (index, o) in offsets.iter().enumerate() {
        let key = (o.dir, o.stride, (o.lag - 1) / BAND);
        let job = match run {
            Some((run_key, job)) if run_key == key => job,
            _ => {
                let found = jobs.iter().position(|j| (j.stride, j.band) == (key.1, key.2));
                let job = found.unwrap_or_else(|| {
                    let dirs = std::array::from_fn(|_| 0..0);
                    jobs.push(BandJob { stride: key.1, band: key.2, dirs, pairs: 0 });
                    jobs.len() - 1
                });
                jobs[job].dirs[o.dir] = index..index;
                run = Some((key, job));
                job
            }
        };
        jobs[job].dirs[o.dir].end = index + 1;
        jobs[job].pairs += o.pairs(ny);
    }
    jobs.sort_unstable_by_key(|j| (std::cmp::Reverse(j.pairs), j.stride, j.band));
    jobs
}

/// The estimator of one field laid out as work: the offset list (step 1),
/// its band jobs, largest first (step 2, [`BandSweep::sums`]) and the
/// binning of their sums (step 3, [`BandSweep::bin`]).
#[derive(Debug)]
pub(crate) struct BandSweep {
    ny: usize,
    n_bins: usize,
    max_dist: f64,
    offsets: Vec<Offset>,
    jobs: Vec<BandJob>,
}

impl BandSweep {
    /// Lay out the estimator for an `ny × nx` field. `None` for a single
    /// row or column, which admits no 2D lag structure under the
    /// directional enumeration (partial edge windows can be this
    /// degenerate): its variogram is [`EmpiricalVariogram::empty`].
    fn plan(ny: usize, nx: usize, config: &VariogramConfig) -> Option<BandSweep> {
        let min_extent = ny.min(nx);
        if min_extent < 2 {
            return None;
        }
        let max_lag = config.max_lag.unwrap_or((min_extent / 3).max(2)).clamp(1, min_extent - 1);
        let n_bins = config.n_bins.max(2);
        let max_dist = (max_lag as f64) * std::f64::consts::SQRT_2;
        let offsets = offsets(ny, nx, max_lag, max_dist, config.sample_budget);
        let jobs = band_jobs(&offsets, ny);
        Some(BandSweep { ny, n_bins, max_dist, offsets, jobs })
    }

    /// Step 2 at tier `level` over `pool`: the residue plane of every
    /// stride above one the jobs use, built once, then every job on the
    /// plane of its stride (the field itself at unit stride). Returns the
    /// sum of squared differences of every offset, in list order.
    fn sums(&self, level: SimdLevel, field: &FieldView<'_>, pool: ThreadPoolConfig) -> Vec<f64> {
        let mut planes: Vec<(usize, Field2D)> = Vec::new();
        for job in &self.jobs {
            if job.stride > 1 && planes.iter().all(|(s, _)| *s != job.stride) {
                planes.push((job.stride, residue_plane(field, job.stride)));
            }
        }
        let job_sums = parallel_map_with(pool, &self.jobs, |job| {
            let plane = planes.iter().find(|(s, _)| *s == job.stride);
            let rows = plane.map_or(*field, |(_, plane)| plane.view());
            crate::simd::sweep_band(level, self, &rows, job)
        });
        self.offset_sums(&job_sums)
    }

    /// Run one band job on its stride's residue plane `rows`: walk the
    /// origin rows once, a block of [`ROWS`] at a time, and pair each block
    /// with every offset of the band. Each offset's eight lanes see its
    /// rows ascending and its columns ascending, and are combined in the
    /// same fixed tree, as if the offset had been swept alone. Lane
    /// arithmetic throughout, so that `simd::sweep_band` compiles it once
    /// per tier.
    #[inline(always)]
    pub(crate) fn run(&self, rows: &FieldView<'_>, job: &BandJob) -> BandSums {
        debug_assert_eq!(rows.ny(), self.ny);
        let origins = self.ny.div_ceil(job.stride);
        let mut acc = [[[[0.0f64; QUAD]; 2]; BAND]; DIRECTIONS.len()];
        for start in (0..origins).step_by(ROWS) {
            let block = start..(start + ROWS).min(origins);
            for (acc, range) in acc.iter_mut().zip(&job.dirs) {
                let band = &self.offsets[range.clone()];
                sweep_direction(&mut acc[..band.len()], rows, band, block.clone(), job.stride);
            }
        }
        // ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)).
        acc.map(|dir| {
            dir.map(|[lo, hi]| {
                let s = add(lo, hi);
                (s[0] + s[2]) + (s[1] + s[3])
            })
        })
    }

    /// The sum of squared differences of every offset, in list order, from
    /// the sums of the jobs in `jobs` order.
    fn offset_sums(&self, job_sums: &[BandSums]) -> Vec<f64> {
        let mut sums = vec![0.0f64; self.offsets.len()];
        for (job, by_dir) in self.jobs.iter().zip(job_sums) {
            for (range, dir_sums) in job.dirs.iter().zip(by_dir) {
                sums[range.clone()].copy_from_slice(&dir_sums[..range.len()]);
            }
        }
        sums
    }

    /// The distance bin of offset `o`.
    fn bin_of(&self, o: &Offset) -> usize {
        (((o.dist / self.max_dist) * self.n_bins as f64) as usize).min(self.n_bins - 1)
    }

    /// Fold the per-offset sums (list order) into the distance bins, offset
    /// by offset.
    fn bin(&self, sums: &[f64]) -> EmpiricalVariogram {
        let n_bins = self.n_bins;
        // Bin accumulators over distance [0, max_dist].
        let mut bin_gamma = vec![0.0f64; n_bins];
        let mut bin_dist = vec![0.0f64; n_bins];
        let mut bin_count = vec![0u64; n_bins];
        for (o, &sum) in self.offsets.iter().zip(sums) {
            let count = o.pairs(self.ny);
            let gamma = sum / (2.0 * count as f64);
            let bin = self.bin_of(o);
            bin_gamma[bin] += gamma * count as f64;
            bin_dist[bin] += o.dist * count as f64;
            bin_count[bin] += count;
        }

        let mut variogram = EmpiricalVariogram::empty();
        for b in 0..n_bins {
            if bin_count[b] == 0 {
                continue;
            }
            let w = bin_count[b] as f64;
            variogram.distances.push(bin_dist[b] / w);
            variogram.gammas.push(bin_gamma[b] / w);
            variogram.counts.push(bin_count[b]);
        }
        variogram
    }
}

/// [`empirical_variogram_view`] at tier `level`, with the band jobs spread
/// over `pool`. The result depends on neither (module docs).
fn empirical_variogram_pooled(
    level: SimdLevel,
    field: &FieldView<'_>,
    config: &VariogramConfig,
    pool: ThreadPoolConfig,
) -> EmpiricalVariogram {
    let (ny, nx) = field.shape();
    let Some(sweep) = BandSweep::plan(ny, nx, config) else {
        return EmpiricalVariogram::empty();
    };
    sweep.bin(&sweep.sums(level, field, pool))
}

/// The estimator of every window of one shape, laid out once per field:
/// the offset list with each offset's bin and pair count, and the mean
/// distance of each non-empty bin — all of which depend on the shape
/// alone. [`WindowPlan::sum_quad`] sums four windows' offsets at once,
/// each window in its own lane and in the order of its per-offset pass
/// (module docs), so [`WindowPlan::fit_lane`] reads every window's
/// variogram with the bits [`empirical_variogram_view`] gives it.
#[derive(Debug)]
pub(crate) struct WindowPlan {
    ny: usize,
    nx: usize,
    /// The offsets in list order, each with its bin and its pair count.
    offsets: Vec<(Offset, usize, f64)>,
    /// The non-empty bins: index and pair count.
    filled: Vec<(usize, f64)>,
    /// Mean pair distance of each non-empty bin.
    distances: Vec<f64>,
    n_bins: usize,
}

/// One worker's buffers for [`WindowPlan`]: a quad's cells, its bins'
/// semi-variances, and one window's variogram.
#[derive(Debug, Default)]
pub(crate) struct WindowScratch {
    cells: Vec<Lanes>,
    bins: Vec<Lanes>,
    gammas: Vec<f64>,
}

impl WindowPlan {
    /// Lay out the estimator for `ny × nx` windows; `None` where
    /// [`BandSweep::plan`] has none (a single row or column).
    pub(crate) fn new(ny: usize, nx: usize, config: &VariogramConfig) -> Option<WindowPlan> {
        let sweep = BandSweep::plan(ny, nx, config)?;
        let mut bin_dist = vec![0.0f64; sweep.n_bins];
        let mut bin_count = vec![0u64; sweep.n_bins];
        let mut offsets = Vec::with_capacity(sweep.offsets.len());
        for o in &sweep.offsets {
            let (count, bin) = (o.pairs(ny), sweep.bin_of(o));
            bin_dist[bin] += o.dist * count as f64;
            bin_count[bin] += count;
            offsets.push((*o, bin, count as f64));
        }
        let filled: Vec<(usize, f64)> = (0..sweep.n_bins)
            .filter(|&b| bin_count[b] > 0)
            .map(|b| (b, bin_count[b] as f64))
            .collect();
        let distances = filled.iter().map(|&(b, w)| bin_dist[b] / w).collect();
        Some(WindowPlan { ny, nx, offsets, filled, distances, n_bins: sweep.n_bins })
    }

    /// The lane body: copy a quad of `ny × nx` windows into `scratch` and
    /// fold every offset's sum of squared differences into the bins, lane
    /// `k` holding window `k`. Each lane takes its window's per-offset pass
    /// step for step: element `t` of a row to accumulator `t mod LANES`,
    /// rows ascending, the same fixed tree, the same binning in list order.
    #[inline(always)]
    pub(crate) fn sum_quad(&self, quad: &[FieldView<'_>; QUAD], scratch: &mut WindowScratch) {
        interleave(quad, &mut scratch.cells);
        scratch.bins.clear();
        scratch.bins.resize(self.n_bins, [0.0; QUAD]);
        let (ny, nx) = (self.ny, self.nx);
        for (o, bin, count) in &self.offsets {
            let width = nx - o.off_x;
            let (a_start, b_start) = if o.negative_x { (o.off_x, 0) } else { (0, o.off_x) };
            let mut acc = [[0.0f64; QUAD]; LANES];
            for i in (0..ny - o.off_y).step_by(o.stride) {
                let a = &scratch.cells[i * nx + a_start..][..width];
                let b = &scratch.cells[(i + o.off_y) * nx + b_start..][..width];
                match o.stride {
                    1 => accumulate_quad(&mut acc, a, b, 1),
                    s => accumulate_quad(&mut acc, a, b, s),
                }
            }
            let l = acc;
            let bin = &mut scratch.bins[*bin];
            for k in 0..QUAD {
                let sum = ((l[0][k] + l[4][k]) + (l[2][k] + l[6][k]))
                    + ((l[1][k] + l[5][k]) + (l[3][k] + l[7][k]));
                let gamma = sum / (2.0 * count);
                bin[k] += gamma * count;
            }
        }
    }

    /// The variogram range of window `lane` of the quad [`Self::sum_quad`]
    /// last summed: [`window_range`](crate::window_range)'s bits.
    pub(crate) fn fit_lane(&self, scratch: &mut WindowScratch, lane: usize) -> f64 {
        let WindowScratch { bins, gammas, .. } = scratch;
        gammas.clear();
        gammas.extend(self.filled.iter().map(|&(b, w)| bins[b][lane] / w));
        fit_samples(&self.distances, gammas).map_or(f64::NAN, |fit| fit.range)
    }
}

/// The band sweep's pair kernel for a quad, on the window's own rows:
/// `acc[t mod LANES][k] += (a[t·stride][k] − b[t·stride][k])²` over the
/// sampled elements `t` of two equally long row slices, for each window `k`.
#[inline(always)]
fn accumulate_quad(acc: &mut [Lanes; LANES], a: &[Lanes], b: &[Lanes], stride: usize) {
    let block = LANES * stride;
    let (a_blocks, b_blocks) = (a.chunks_exact(block), b.chunks_exact(block));
    let a_tail = a_blocks.remainder().iter().step_by(stride);
    let b_tail = b_blocks.remainder().iter().step_by(stride);
    let mut lanes = *acc;
    for (ca, cb) in a_blocks.zip(b_blocks) {
        for (t, lane) in lanes.iter_mut().enumerate() {
            add_squared_difference(lane, &ca[t * stride], &cb[t * stride]);
        }
    }
    for ((lane, x), y) in lanes.iter_mut().zip(a_tail).zip(b_tail) {
        add_squared_difference(lane, x, y);
    }
    *acc = lanes;
}

/// `lane[k] += (x[k] − y[k])²` for each window `k`.
#[inline(always)]
fn add_squared_difference(lane: &mut Lanes, x: &Lanes, y: &Lanes) {
    for k in 0..QUAD {
        let d = x[k] - y[k];
        lane[k] += d * d;
    }
}

/// Fit the squared-exponential variogram model by damped Gauss–Newton with a
/// coarse grid-search initialization.
///
/// A variogram with fewer than three bins, or with a non-finite
/// semi-variance (a field holding NaN or ±∞, or finite values whose squared
/// differences overflow), is refused: no range describes it.
pub fn fit_squared_exponential(
    variogram: &EmpiricalVariogram,
) -> Result<VariogramFit, GeostatError> {
    fit_samples(&variogram.distances, &variogram.gammas)
}

/// [`fit_squared_exponential`] of the bins' distances `h` and
/// semi-variances `g`.
fn fit_samples(h: &[f64], g: &[f64]) -> Result<VariogramFit, GeostatError> {
    if h.len() < 3 {
        return Err(GeostatError::DegenerateInput(format!(
            "need at least 3 variogram bins, got {}",
            h.len()
        )));
    }
    if let Some(bad) = g.iter().find(|gamma| !gamma.is_finite()) {
        return Err(GeostatError::DegenerateInput(format!("semi-variance {bad}")));
    }
    let max_h = h.iter().cloned().fold(0.0, f64::max);
    let max_g = g.iter().cloned().fold(0.0, f64::max);
    if max_g <= 0.0 {
        // A constant field: no spatial variance at any lag. Report a zero sill
        // with the largest distinguishable range.
        return Ok(VariogramFit { sill: 0.0, range: max_h, residual: 0.0 });
    }

    let model = |hh: f64, p: &[f64; 2]| p[0] * (1.0 - (-(hh * hh) / (p[1] * p[1])).exp());
    // The model and its gradient from one `exp`.
    let eval = |hh: f64, p: &[f64; 2]| {
        let e = (-(hh * hh) / (p[1] * p[1])).exp();
        (p[0] * (1.0 - e), [1.0 - e, -2.0 * p[0] * e * hh * hh / (p[1] * p[1] * p[1])])
    };
    let sse = |p: &[f64; 2]| -> f64 {
        h.iter().zip(g.iter()).map(|(&hh, &gg)| (model(hh, p) - gg).powi(2)).sum()
    };

    // Grid-search initialization over plausible ranges.
    let mut best = ([max_g, max_h / 3.0], f64::INFINITY);
    for frac in [0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.5] {
        let candidate = [max_g, (max_h * frac).max(1e-3)];
        let err = sse(&candidate);
        if err < best.1 {
            best = (candidate, err);
        }
    }

    let fitted = gauss_newton(h, g, &best.0, eval)?;
    let mut sill = fitted[0];
    let mut range = fitted[1].abs(); // the model is even in the range parameter
                                     // Guard against non-physical fits on pathological inputs.
    if !sill.is_finite() || !range.is_finite() || range <= 0.0 {
        sill = max_g;
        range = best.0[1];
    }
    // Ranges beyond a few domain lengths are indistinguishable from "no decay
    // observed"; clamp so downstream log-regressions stay finite.
    range = range.min(10.0 * max_h.max(1.0));
    Ok(VariogramFit { sill, range, residual: sse(&[sill, range]) })
}

/// Maximum number of Gauss–Newton iterations.
const MAX_ITERATIONS: usize = 100;
/// Convergence threshold on the parameter update norm.
const TOLERANCE: f64 = 1e-10;
/// Initial Levenberg–Marquardt style damping added to the normal matrix
/// diagonal; adapts up and down as steps are rejected/accepted.
const DAMPING: f64 = 1e-6;

/// The residual sum of squares of a parameter vector and the normal
/// equations `JᵀJ`, `Jᵀr` at it, from one pass over the samples.
type Normal<const P: usize> = (f64, [[f64; P]; P], [f64; P]);

/// Damped Gauss–Newton (Levenberg–Marquardt) minimization of
/// `sum_i (model(x_i, params) - y_i)²` over `P` parameters.
///
/// `eval` returns the model at one sample and its partial derivatives with
/// respect to each parameter, so a model can share its costly terms (the
/// variogram's `exp`) between the two. Each parameter vector is evaluated
/// once: a candidate's pass gives its residual sum of squares and, should
/// the step be accepted, the next iteration's normal equations — the sums
/// a separate residual pass, model pass and Jacobian pass would give, bit
/// for bit. Returns the fitted parameters. The parameter count is a
/// constant so the normal equations live on the stack: a fit allocates
/// nothing (the study runs 257 of them per field).
fn gauss_newton<const P: usize, E>(
    x: &[f64],
    y: &[f64],
    initial: &[f64; P],
    eval: E,
) -> Result<[f64; P], GeostatError>
where
    E: Fn(f64, &[f64; P]) -> (f64, [f64; P]),
{
    if x.len() != y.len() {
        return Err(GeostatError::DegenerateInput("x and y lengths differ".into()));
    }
    if x.len() < P {
        return Err(GeostatError::DegenerateInput("fewer samples than parameters".into()));
    }
    let normal = |p: &[f64; P]| -> Normal<P> {
        // `-0.0`, the start value of `f64`'s `Sum`.
        let mut sse = -0.0;
        let mut jtj = [[0.0; P]; P];
        let mut jtr = [0.0; P];
        for (&xi, &yi) in x.iter().zip(y.iter()) {
            let (model, grad) = eval(xi, p);
            sse += (model - yi).powi(2);
            let r = yi - model;
            for p in 0..P {
                jtr[p] += grad[p] * r;
                for q in 0..P {
                    jtj[p][q] += grad[p] * grad[q];
                }
            }
        }
        (sse, jtj, jtr)
    };
    let mut params = *initial;
    let mut lambda = DAMPING;
    let (mut current_sse, mut jtj, mut jtr) = normal(&params);

    for _ in 0..MAX_ITERATIONS {
        // Solve the damped system (JᵀJ + λ diag(JᵀJ)) δ = Jᵀ r.
        let mut step = None;
        for _attempt in 0..8 {
            let mut a = jtj;
            for (p, row) in a.iter_mut().enumerate() {
                row[p] += lambda * row[p].max(1e-12);
            }
            let mut rhs = jtr;
            if solve_inplace(&mut a, &mut rhs).is_none() {
                lambda *= 10.0;
                continue;
            }
            let mut candidate = params;
            for (c, d) in candidate.iter_mut().zip(&rhs) {
                *c += d;
            }
            let at_candidate = normal(&candidate);
            let new_sse = at_candidate.0;
            if new_sse.is_finite() && new_sse <= current_sse {
                step = Some((candidate, rhs, at_candidate));
                lambda = (lambda * 0.3).max(1e-14);
                break;
            }
            lambda *= 10.0;
        }

        let Some((candidate, delta, at_candidate)) = step else {
            // Could not find a descent step; treat current params as converged.
            return Ok(params);
        };
        let delta_norm: f64 = delta.iter().map(|d| d * d).sum::<f64>().sqrt();
        params = candidate;
        (current_sse, jtj, jtr) = at_candidate;
        if delta_norm < TOLERANCE {
            return Ok(params);
        }
    }
    Ok(params)
}

/// Gaussian elimination with partial pivoting; the solution replaces `rhs`.
/// `None` when the matrix is singular.
fn solve_inplace<const N: usize>(a: &mut [[f64; N]; N], rhs: &mut [f64; N]) -> Option<()> {
    for k in 0..N {
        let mut piv = k;
        let mut best = a[k][k].abs();
        for (i, row) in a.iter().enumerate().skip(k + 1) {
            if row[k].abs() > best {
                best = row[k].abs();
                piv = i;
            }
        }
        if best < 1e-300 {
            return None;
        }
        if piv != k {
            a.swap(k, piv);
            rhs.swap(k, piv);
        }
        let pivot_row = a[k];
        for i in k + 1..N {
            let f = a[i][k] / pivot_row[k];
            if f == 0.0 {
                continue;
            }
            for (x, p) in a[i][k..].iter_mut().zip(&pivot_row[k..]) {
                *x -= f * p;
            }
            rhs[i] -= f * rhs[k];
        }
    }
    for k in (0..N).rev() {
        let mut acc = rhs[k];
        for j in k + 1..N {
            acc -= a[k][j] * rhs[j];
        }
        rhs[k] = acc / a[k][k];
    }
    Some(())
}

/// Empirical variogram plus model fit of a (possibly strided) view — the
/// paper's per-field "estimated global variogram range".
pub fn estimate_range_view(field: &FieldView<'_>, config: &VariogramConfig) -> VariogramFit {
    estimate_range_pooled(field, config, ThreadPoolConfig::with_threads(1))
}

/// [`estimate_range_view`] with the variogram's band jobs spread over
/// `pool` — for one large field on an otherwise idle pool. Bit-identical to
/// [`estimate_range_view`] at every width. Callers already inside a pool
/// worker (the sweep scheduler, the per-window statistics) use
/// [`estimate_range_view`], so pools never nest.
pub fn estimate_range_pooled(
    field: &FieldView<'_>,
    config: &VariogramConfig,
    pool: ThreadPoolConfig,
) -> VariogramFit {
    let vg = empirical_variogram_pooled(simd_level(), field, config, pool);
    fit_squared_exponential(&vg).unwrap_or(VariogramFit {
        sill: f64::NAN,
        range: f64::NAN,
        residual: f64::NAN,
    })
}

/// Evaluate the fitted squared-exponential model at a distance (used by the
/// Figure 1 reproduction to draw the model curve).
pub fn model_gamma(fit: &VariogramFit, h: f64) -> f64 {
    if fit.range <= 0.0 {
        return fit.sill;
    }
    fit.sill * (1.0 - (-(h * h) / (fit.range * fit.range)).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fields::{families, quad_cases, white_noise};
    use lcc_grid::Field2D;
    use lcc_lossless::dispatch::supported_levels;
    use lcc_synth::{generate_single_range, GaussianFieldConfig};

    /// `y = A exp(−x / τ)` and its gradient.
    fn exponential_decay(x: f64, p: &[f64; 2]) -> (f64, [f64; 2]) {
        let e = (-x / p[1]).exp();
        (p[0] * e, [e, p[0] * e * x / (p[1] * p[1])])
    }

    #[test]
    fn gauss_newton_fits_exponential_decay() {
        // y = A exp(-x / tau) with A = 2, tau = 3.
        let xs: Vec<f64> = (0..40).map(|i| i as f64 * 0.25).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * (-x / 3.0).exp()).collect();
        let fitted = gauss_newton(&xs, &ys, &[1.0, 1.0], exponential_decay).unwrap();
        assert!((fitted[0] - 2.0).abs() < 1e-6, "{fitted:?}");
        assert!((fitted[1] - 3.0).abs() < 1e-6, "{fitted:?}");
    }

    #[test]
    fn gauss_newton_fits_squared_exponential_variogram_shape() {
        // gamma(h) = c0 (1 - exp(-(h/a)^2)) with c0 = 1.2, a = 14.
        let hs: Vec<f64> = (1..60).map(|i| i as f64).collect();
        let ys: Vec<f64> = hs.iter().map(|h| 1.2 * (1.0 - (-(h / 14.0).powi(2)).exp())).collect();
        let eval = |h: f64, p: &[f64; 2]| {
            let e = (-(h / p[1]).powi(2)).exp();
            (p[0] * (1.0 - e), [1.0 - e, -p[0] * e * 2.0 * h * h / (p[1] * p[1] * p[1])])
        };
        let fitted = gauss_newton(&hs, &ys, &[0.5, 5.0], eval).unwrap();
        assert!((fitted[0] - 1.2).abs() < 1e-5, "{fitted:?}");
        assert!((fitted[1] - 14.0).abs() < 1e-4, "{fitted:?}");
    }

    #[test]
    fn gauss_newton_with_noise_stays_close() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64 * 0.1).collect();
        // Deterministic pseudo-noise so the test is reproducible.
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 5.0 * (-x / 2.0).exp() + 0.01 * ((i * 2654435761) % 1000) as f64 / 1000.0)
            .collect();
        let fitted = gauss_newton(&xs, &ys, &[1.0, 1.0], exponential_decay).unwrap();
        assert!((fitted[0] - 5.0).abs() < 0.05);
        assert!((fitted[1] - 2.0).abs() < 0.05);
    }

    #[test]
    fn gauss_newton_validates_inputs() {
        let eval = |_x: f64, p: &[f64; 1]| (p[0], [1.0]);
        assert!(gauss_newton(&[1.0], &[1.0, 2.0], &[0.0], eval).is_err());
        assert!(gauss_newton(&[] as &[f64], &[], &[0.0], eval).is_err());
    }

    /// The fit as it was before the model and its gradient shared one
    /// `exp`: a residual pass per candidate, then a model pass and a
    /// Jacobian pass per accepted parameter vector. Kept as the oracle of
    /// [`fit_samples`]'s bits.
    fn three_pass_fit(h: &[f64], g: &[f64]) -> (f64, f64) {
        let model = |hh: f64, p: &[f64; 2]| p[0] * (1.0 - (-(hh * hh) / (p[1] * p[1])).exp());
        let jacobian = |hh: f64, p: &[f64; 2]| {
            let e = (-(hh * hh) / (p[1] * p[1])).exp();
            [1.0 - e, -2.0 * p[0] * e * hh * hh / (p[1] * p[1] * p[1])]
        };
        let sse = |p: &[f64; 2]| -> f64 {
            h.iter().zip(g).map(|(&hh, &gg)| (model(hh, p) - gg).powi(2)).sum()
        };
        let max_h = h.iter().cloned().fold(0.0, f64::max);
        let max_g = g.iter().cloned().fold(0.0, f64::max);
        let mut best = ([max_g, max_h / 3.0], f64::INFINITY);
        for frac in [0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.5] {
            let candidate = [max_g, (max_h * frac).max(1e-3)];
            let err = sse(&candidate);
            if err < best.1 {
                best = (candidate, err);
            }
        }
        let (mut params, mut lambda) = (best.0, DAMPING);
        let mut current_sse = sse(&params);
        for _ in 0..MAX_ITERATIONS {
            let mut jtj = [[0.0; 2]; 2];
            let mut jtr = [0.0; 2];
            for (&xi, &yi) in h.iter().zip(g) {
                let r = yi - model(xi, &params);
                let grad = jacobian(xi, &params);
                for p in 0..2 {
                    jtr[p] += grad[p] * r;
                    for q in 0..2 {
                        jtj[p][q] += grad[p] * grad[q];
                    }
                }
            }
            let mut step = None;
            for _attempt in 0..8 {
                let mut a = jtj;
                for (p, row) in a.iter_mut().enumerate() {
                    row[p] += lambda * row[p].max(1e-12);
                }
                let mut rhs = jtr;
                if solve_inplace(&mut a, &mut rhs).is_none() {
                    lambda *= 10.0;
                    continue;
                }
                let candidate = [params[0] + rhs[0], params[1] + rhs[1]];
                let new_sse = sse(&candidate);
                if new_sse.is_finite() && new_sse <= current_sse {
                    step = Some((candidate, rhs, new_sse));
                    lambda = (lambda * 0.3).max(1e-14);
                    break;
                }
                lambda *= 10.0;
            }
            let Some((candidate, delta, new_sse)) = step else { break };
            params = candidate;
            current_sse = new_sse;
            if (delta[0] * delta[0] + delta[1] * delta[1]).sqrt() < TOLERANCE {
                break;
            }
        }
        let (mut sill, mut range) = (params[0], params[1].abs());
        if !sill.is_finite() || !range.is_finite() || range <= 0.0 {
            sill = max_g;
            range = best.0[1];
        }
        (sill, range.min(10.0 * max_h.max(1.0)))
    }

    #[test]
    fn window_plan_quads_have_each_windows_variogram_at_every_tier() {
        let mut strides = Vec::new();
        for case in quad_cases() {
            let config =
                VariogramConfig { max_lag: Some(10), n_bins: 10, sample_budget: case.budget };
            let windows = crate::local::full_windows(&case.view(), case.window);
            let plan = WindowPlan::new(case.window, case.window, &config).unwrap();
            strides.extend(plan.offsets.iter().map(|(o, _, _)| o.stride));
            for &level in supported_levels() {
                let mut scratch = WindowScratch::default();
                for (q, group) in windows.chunks(QUAD).enumerate() {
                    let quad = std::array::from_fn(|k| *group.get(k).unwrap_or(&group[0]));
                    crate::simd::sum_quad(level, &plan, &quad, &mut scratch);
                    for (k, view) in group.iter().enumerate() {
                        let what = format!("{} at {level:?}, window {}", case.name, 4 * q + k);
                        let range = plan.fit_lane(&mut scratch, k);
                        let want = empirical_variogram_view(view, &config);
                        assert_eq!(plan.distances, want.distances, "{what}");
                        let counts: Vec<f64> = want.counts.iter().map(|&c| c as f64).collect();
                        let filled: Vec<f64> = plan.filled.iter().map(|&(_, w)| w).collect();
                        assert_eq!(filled, counts, "{what}");
                        let gammas: Vec<u64> = scratch.gammas.iter().map(|g| g.to_bits()).collect();
                        let want_gammas: Vec<u64> =
                            want.gammas.iter().map(|g| g.to_bits()).collect();
                        assert_eq!(gammas, want_gammas, "{what}");
                        let want_range = crate::window_range(view, &config);
                        assert_eq!(range.to_bits(), want_range.to_bits(), "{what}");
                    }
                }
            }
        }
        assert!(strides.contains(&1) && strides.iter().any(|&s| s > 1), "{strides:?}");
    }

    #[test]
    fn non_finite_semi_variances_are_refused() {
        for bad in [f64::NAN, f64::INFINITY] {
            let vg = EmpiricalVariogram {
                distances: vec![1.0, 2.0, 3.0, 4.0],
                gammas: vec![0.1, 0.2, bad, 0.3],
                counts: vec![10; 4],
            };
            assert!(matches!(fit_squared_exponential(&vg), Err(GeostatError::DegenerateInput(_))));
        }
        // A field holding NaN, ±∞, or finite values whose squared
        // differences overflow has no range and no sill.
        let base = generate_single_range(&GaussianFieldConfig::new(64, 64, 6.0, 3));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            let mut field = base.clone();
            field.set(17, 40, bad);
            let fit = estimate_range_view(&field.view(), &VariogramConfig::default());
            assert!(fit.range.is_nan() && fit.sill.is_nan(), "{bad}: {fit:?}");
        }
    }

    #[test]
    fn the_shared_exp_fit_has_the_three_pass_bits() {
        let configs = [
            VariogramConfig { max_lag: Some(10), n_bins: 10, ..Default::default() },
            VariogramConfig::default(),
        ];
        let mut fits = 0;
        for (name, field) in families() {
            for config in &configs {
                for (win, view) in field.windows(32, 32) {
                    let vg = empirical_variogram_view(&view, config);
                    let fit = fit_squared_exponential(&vg).unwrap();
                    let (sill, range) = three_pass_fit(&vg.distances, &vg.gammas);
                    let what = format!("{name} at ({}, {})", win.i0, win.j0);
                    assert_eq!(fit.sill.to_bits(), sill.to_bits(), "{what}");
                    assert_eq!(fit.range.to_bits(), range.to_bits(), "{what}");
                    fits += 1;
                }
            }
        }
        assert_eq!(fits, 9 * 2 * 16);
    }

    /// The estimator as one scalar loop: every pair read through `at`, one
    /// accumulator per offset. The kernel above must visit the same pairs.
    fn reference_variogram(field: &FieldView<'_>, config: &VariogramConfig) -> EmpiricalVariogram {
        let (ny, nx) = field.shape();
        let min_extent = ny.min(nx);
        let max_lag = config.max_lag.unwrap_or((min_extent / 3).max(2)).clamp(1, min_extent - 1);
        let n_bins = config.n_bins.max(2);
        let max_dist = (max_lag as f64) * std::f64::consts::SQRT_2;
        let mut bin_gamma = vec![0.0f64; n_bins];
        let mut bin_dist = vec![0.0f64; n_bins];
        let mut bin_count = vec![0u64; n_bins];
        for &(dy, dx_raw) in &DIRECTIONS {
            for lag in 1..=max_lag {
                let (off_y, off_x, negative_x) = if dx_raw == usize::MAX {
                    (dy * lag, lag, true)
                } else {
                    (dy * lag, dx_raw * lag, false)
                };
                if off_y >= ny || off_x >= nx {
                    continue;
                }
                let dist = ((off_y * off_y + off_x * off_x) as f64).sqrt();
                if dist > max_dist {
                    continue;
                }
                let usable_rows = ny - off_y;
                let usable_cols = nx - off_x;
                let pairs = usable_rows * usable_cols;
                let budget = config.sample_budget.max(1) as f64;
                let stride = ((pairs as f64 / budget).sqrt().ceil() as usize).clamp(1, ny.max(nx));
                let mut sum = 0.0f64;
                let mut count = 0u64;
                let mut i = 0;
                while i < usable_rows {
                    let mut j = if negative_x { off_x } else { 0 };
                    let j_end = if negative_x { nx } else { usable_cols };
                    while j < j_end {
                        let a = field.at(i, j);
                        let b = if negative_x {
                            field.at(i + off_y, j - off_x)
                        } else {
                            field.at(i + off_y, j + off_x)
                        };
                        let d = a - b;
                        sum += d * d;
                        count += 1;
                        j += stride;
                    }
                    i += stride;
                }
                let gamma = sum / (2.0 * count as f64);
                let bin = (((dist / max_dist) * n_bins as f64) as usize).min(n_bins - 1);
                bin_gamma[bin] += gamma * count as f64;
                bin_dist[bin] += dist * count as f64;
                bin_count[bin] += count;
            }
        }
        let filled = (0..n_bins).filter(|&b| bin_count[b] > 0);
        EmpiricalVariogram {
            distances: filled.clone().map(|b| bin_dist[b] / bin_count[b] as f64).collect(),
            gammas: filled.clone().map(|b| bin_gamma[b] / bin_count[b] as f64).collect(),
            counts: filled.map(|b| bin_count[b]).collect(),
        }
    }

    /// Same pairs (counts and distances equal), γ within 1e-12 relative.
    fn assert_matches_reference(field: &FieldView<'_>, config: &VariogramConfig, what: &str) {
        let kernel = empirical_variogram_view(field, config);
        let reference = reference_variogram(field, config);
        assert_eq!(kernel.counts, reference.counts, "{what}");
        assert_eq!(kernel.distances, reference.distances, "{what}");
        assert!(!kernel.is_empty(), "{what}");
        for (k, r) in kernel.gammas.iter().zip(&reference.gammas) {
            assert!((k - r).abs() <= 1e-12 * r.abs(), "{what}: gamma {k} vs {r}");
        }
    }

    /// `acc[k mod LANES] += (a[k·stride] − b[k·stride])²` over the sampled
    /// elements `k` of two equally long row slices: the pair kernel before
    /// the residue planes, reading the field's own rows at a run-time
    /// stride.
    fn accumulate_strided(acc: &mut [f64; LANES], a: &[f64], b: &[f64], stride: usize) {
        let block = LANES * stride;
        let (a_blocks, b_blocks) = (a.chunks_exact(block), b.chunks_exact(block));
        let a_tail = a_blocks.remainder().iter().step_by(stride);
        let b_tail = b_blocks.remainder().iter().step_by(stride);
        for (ca, cb) in a_blocks.zip(b_blocks) {
            for (k, lane) in acc.iter_mut().enumerate() {
                let d = ca[k * stride] - cb[k * stride];
                *lane += d * d;
            }
        }
        for ((lane, x), y) in acc.iter_mut().zip(a_tail).zip(b_tail) {
            let d = x - y;
            *lane += d * d;
        }
    }

    /// The per-offset pass the band sweep replaced, kept as its oracle: one
    /// offset alone, its rows ascending, through the single-pair kernel at a
    /// run-time stride on the field's own rows, the eight lanes combined in
    /// the fixed tree.
    fn offset_sum(field: &FieldView<'_>, o: &Offset) -> (f64, u64) {
        let (ny, nx) = field.shape();
        let width = nx - o.off_x;
        let (a_start, b_start) = if o.negative_x { (o.off_x, 0) } else { (0, o.off_x) };
        let height = ny - o.off_y;
        let mut acc = [0.0f64; LANES];
        for i in (0..height).step_by(o.stride) {
            let a = &field.row(i)[a_start..a_start + width];
            let b = &field.row(i + o.off_y)[b_start..b_start + width];
            accumulate_strided(&mut acc, a, b, o.stride);
        }
        let sum = ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
        (sum, (height.div_ceil(o.stride) * width.div_ceil(o.stride)) as u64)
    }

    /// Every offset sits in exactly one band job of its own stride, and its
    /// `(sum, count)` from the sweep — residue planes included — has the
    /// oracle's bits at every SIMD tier and pool width. Returns the strides
    /// the field was swept at.
    fn assert_sweep_matches_oracle(
        field: &FieldView<'_>,
        config: &VariogramConfig,
        what: &str,
    ) -> Vec<usize> {
        let (ny, nx) = field.shape();
        let sweep = BandSweep::plan(ny, nx, config).expect("a 2D field");
        let mut jobs_of = vec![0usize; sweep.offsets.len()];
        for job in &sweep.jobs {
            for index in job.dirs.iter().flat_map(|range| range.clone()) {
                jobs_of[index] += 1;
                assert_eq!(sweep.offsets[index].stride, job.stride, "{what}");
            }
        }
        assert!(jobs_of.iter().all(|&n| n == 1), "{what}: one job per offset");
        let oracle: Vec<(f64, u64)> = sweep.offsets.iter().map(|o| offset_sum(field, o)).collect();
        for &level in supported_levels() {
            for width in [1, 2, 3, 8] {
                let sums = sweep.sums(level, field, ThreadPoolConfig::with_threads(width));
                for ((o, sum), (want, count)) in sweep.offsets.iter().zip(sums).zip(&oracle) {
                    let at = format!("{what} at {level:?}, width {width}: {o:?}");
                    assert_eq!(sum.to_bits(), want.to_bits(), "{at}");
                    assert_eq!(o.pairs(ny), *count, "{at}");
                }
            }
        }
        let mut strides: Vec<usize> = sweep.offsets.iter().map(|o| o.stride).collect();
        strides.sort_unstable();
        strides.dedup();
        strides
    }

    #[test]
    fn band_sweep_has_the_per_offset_bits_on_every_family() {
        let window_config = VariogramConfig { max_lag: Some(10), n_bins: 10, ..Default::default() };
        for (name, field) in families() {
            let view = field.view();
            assert_sweep_matches_oracle(&view, &VariogramConfig::default(), &name);
            assert_sweep_matches_oracle(&view.subview(32, 64, 32, 32), &window_config, &name);
            let lag31 = VariogramConfig { max_lag: Some(31), ..Default::default() };
            assert_sweep_matches_oracle(&view.subview(1, 2, 50, 37), &lag31, &name);
        }
    }

    #[test]
    fn band_sweep_has_the_per_offset_bits_on_degenerate_and_odd_shapes() {
        let default = VariogramConfig::default();
        let noise = white_noise(140, 150, 3);
        let view = noise.view();
        assert_sweep_matches_oracle(&view.subview(0, 0, 2, 2), &default, "2x2");
        assert!(BandSweep::plan(1, 16, &default).is_none());
        assert!(BandSweep::plan(16, 1, &default).is_none());
        for (ny, nx) in [(2, 97), (97, 2), (67, 71), (131, 127), (3, 5)] {
            let config = VariogramConfig { max_lag: Some(40), ..default };
            assert_sweep_matches_oracle(
                &view.subview(5, 7, ny, nx),
                &config,
                &format!("{ny}x{nx}"),
            );
        }
        // Pair widths `nx − lag` on both sides of one and two `LANES × stride`
        // blocks, at stride 1 and (a third of the pairs as budget) stride 2.
        for nx in [9, 12, 17, 20, 33, 36] {
            for (budget, stride) in [(usize::MAX, 1), (4 * nx, 2)] {
                let config = VariogramConfig { max_lag: Some(5), sample_budget: budget, ..default };
                let what = format!("12x{nx}, budget {budget}");
                let strides =
                    assert_sweep_matches_oracle(&view.subview(3, 1, 12, nx), &config, &what);
                assert_eq!(strides.last(), Some(&stride), "{what}: {strides:?}");
            }
        }
        // A band is BAND lags and a kernel call GROUP of them.
        for max_lag in [1, 3, BAND - 1, BAND, BAND + 1, BAND + GROUP + 1, 2 * BAND + 5] {
            let config = VariogramConfig { max_lag: Some(max_lag), ..default };
            assert_sweep_matches_oracle(&view, &config, &format!("max_lag {max_lag}"));
        }
    }

    #[test]
    fn band_sweep_has_the_per_offset_bits_at_every_stride() {
        // Lags up to the extent: pair counts from n² down to a handful, so
        // one budget gives every stride from 5 down to 1 in one field.
        let noise = white_noise(120, 120, 9);
        let config =
            VariogramConfig { max_lag: Some(119), sample_budget: 600, ..Default::default() };
        let strides = assert_sweep_matches_oracle(&noise.view(), &config, "120², budget 600");
        for stride in [1, 2, 3, 5] {
            assert!(strides.contains(&stride), "{strides:?}");
        }
        // Paper scale, not square, lags past half the extent: strides 3 → 1
        // under the default budget.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let large = Field2D::from_fn(1028, 1021, |i, j| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (i as f64 * 0.011).sin() + (j as f64 * 0.017).cos() + state as f64 / u64::MAX as f64
        });
        let config = VariogramConfig { max_lag: Some(600), ..Default::default() };
        let strides = assert_sweep_matches_oracle(&large.view(), &config, "1028x1021");
        assert_eq!(strides, [1, 2, 3]);
    }

    #[test]
    fn a_zero_or_tiny_budget_samples_one_origin_and_does_not_overflow() {
        // `sample_budget: 0` used to give `stride = usize::MAX`, whose
        // `LANES * stride` overflows (a panic with debug assertions, a wrap
        // without); the stride is clamped to the larger extent instead. On
        // the tall field that is wider than a row: residues from `nx` on
        // are empty.
        for field in [white_noise(40, 56, 13), white_noise(56, 40, 13)] {
            for budget in [0, 1, 2] {
                let config = VariogramConfig { sample_budget: budget, ..Default::default() };
                let kernel = empirical_variogram_view(&field.view(), &config);
                let reference = reference_variogram(&field.view(), &config);
                assert_eq!(kernel.counts, reference.counts, "budget {budget}");
                assert_eq!(kernel.distances, reference.distances, "budget {budget}");
                assert!(!kernel.is_empty());
                let strides = assert_sweep_matches_oracle(&field.view(), &config, "tiny budget");
                assert!(strides.iter().all(|&s| s <= 56), "budget {budget}: {strides:?}");
            }
        }
        let tall =
            BandSweep::plan(56, 40, &VariogramConfig { sample_budget: 0, ..Default::default() });
        assert!(tall.unwrap().offsets.iter().any(|o| o.stride > 40));
    }

    fn bits(vg: &EmpiricalVariogram) -> (Vec<u64>, Vec<u64>, &[u64]) {
        let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (to_bits(&vg.distances), to_bits(&vg.gammas), &vg.counts)
    }

    #[test]
    fn kernel_matches_the_scalar_reference_on_every_family() {
        let window_config = VariogramConfig { max_lag: Some(10), n_bins: 10, ..Default::default() };
        for (name, field) in families() {
            assert_matches_reference(&field.view(), &VariogramConfig::default(), &name);
            // A 32×32 window as the local statistic reads it, and widths on
            // both sides of the lane count.
            assert_matches_reference(&field.view().subview(32, 64, 32, 32), &window_config, &name);
            assert_matches_reference(
                &field.view().subview(1, 2, 50, 37),
                &VariogramConfig { max_lag: Some(31), ..Default::default() },
                &name,
            );
        }
    }

    #[test]
    fn kernel_matches_the_scalar_reference_when_the_budget_strides_the_origins() {
        // 512² exceeds the default budget at short lags (stride 2) and not
        // at long ones (stride 1); a small budget forces strides 3 and up.
        let field = generate_single_range(&GaussianFieldConfig::new(512, 512, 12.0, 5));
        let default = VariogramConfig::default();
        let strides: Vec<usize> =
            offsets(512, 512, 170, 512.0, default.sample_budget).iter().map(|o| o.stride).collect();
        assert!(strides.contains(&1) && strides.contains(&2));
        assert_matches_reference(&field.view(), &default, "512² default budget");
        let tight = VariogramConfig { sample_budget: 9_000, max_lag: Some(40), ..default };
        assert_matches_reference(&field.view(), &tight, "512² budget 9000");
        assert_matches_reference(&field.view().subview(7, 3, 300, 401), &tight, "strided subview");
    }

    #[test]
    fn variogram_bits_do_not_depend_on_pool_width_or_on_view_versus_owned() {
        let field = generate_single_range(&GaussianFieldConfig::new(200, 168, 9.0, 21));
        for (view, config) in [
            (field.view(), VariogramConfig::default()),
            (field.view(), VariogramConfig { sample_budget: 5_000, ..Default::default() }),
            (field.view().subview(11, 5, 150, 97), VariogramConfig::default()),
        ] {
            let serial = empirical_variogram_view(&view, &config);
            for &level in supported_levels() {
                for width in [1, 2, 3, 8] {
                    let pool = ThreadPoolConfig::with_threads(width);
                    let pooled = empirical_variogram_pooled(level, &view, &config, pool);
                    assert_eq!(bits(&pooled), bits(&serial), "{level:?}, width {width}");
                }
            }
            for width in [1, 2, 3, 8] {
                let pool = ThreadPoolConfig::with_threads(width);
                let fit = estimate_range_pooled(&view, &config, pool);
                let fit_serial = estimate_range_view(&view, &config);
                assert_eq!(fit.range.to_bits(), fit_serial.range.to_bits());
                assert_eq!(fit.sill.to_bits(), fit_serial.sill.to_bits());
            }
            let owned = view.to_field();
            assert_eq!(bits(&empirical_variogram_view(&owned.view(), &config)), bits(&serial));
        }
    }

    #[test]
    fn variogram_of_constant_field_is_zero() {
        let f = Field2D::filled(32, 32, 4.2);
        let vg = empirical_variogram_view(&f.view(), &VariogramConfig::default());
        assert!(!vg.is_empty());
        assert!(vg.gammas.iter().all(|&g| g == 0.0));
        let fit = fit_squared_exponential(&vg).unwrap();
        assert_eq!(fit.sill, 0.0);
    }

    #[test]
    fn variogram_increases_with_distance_for_correlated_fields() {
        let f = generate_single_range(&GaussianFieldConfig::new(96, 96, 10.0, 3));
        let vg = empirical_variogram_view(&f.view(), &VariogramConfig::default());
        assert!(vg.len() >= 5);
        // γ at the shortest lag is well below γ at the longest lag.
        assert!(vg.gammas[0] < 0.5 * vg.gammas[vg.len() - 1]);
        // Distances are sorted and positive.
        assert!(vg.distances.windows(2).all(|w| w[0] < w[1]));
        assert!(vg.distances[0] >= 1.0);
        // Counts recorded for every bin.
        assert!(vg.counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn white_noise_has_flat_variogram() {
        let f = white_noise(96, 96, 5);
        let vg = empirical_variogram_view(&f.view(), &VariogramConfig::default());
        // All bins close to the variance (≈ 1/3 for uniform [-1,1]).
        let mean_gamma: f64 = vg.gammas.iter().sum::<f64>() / vg.len() as f64;
        for &g in &vg.gammas {
            assert!((g - mean_gamma).abs() / mean_gamma < 0.2, "gamma {g} vs mean {mean_gamma}");
        }
        // The fitted range of white noise is below the shortest sampled lag
        // (no spatial correlation beyond distance ~1).
        let fit = fit_squared_exponential(&vg).unwrap();
        assert!(fit.range < 3.0, "white-noise range {}", fit.range);
    }

    #[test]
    fn recovers_known_correlation_ranges() {
        // The estimated range must recover the generation range within a
        // loose tolerance and, crucially, must order fields correctly.
        let mut estimates = Vec::new();
        for &a in &[4.0, 8.0, 16.0] {
            let f = generate_single_range(&GaussianFieldConfig::new(160, 160, a, 17));
            let fit = estimate_range_view(&f.view(), &VariogramConfig::default());
            assert!(fit.range.is_finite() && fit.range > 0.0);
            assert!((fit.range - a).abs() / a < 0.6, "true range {a}, estimated {}", fit.range);
            estimates.push(fit.range);
        }
        assert!(estimates[0] < estimates[1] && estimates[1] < estimates[2], "{estimates:?}");
    }

    #[test]
    fn sill_matches_field_variance() {
        let f = generate_single_range(&GaussianFieldConfig::new(160, 160, 6.0, 23));
        let fit = estimate_range_view(&f.view(), &VariogramConfig::default());
        let var = f.summary().variance;
        assert!((fit.sill - var).abs() / var < 0.4, "sill {} vs variance {var}", fit.sill);
    }

    #[test]
    fn model_gamma_has_the_right_shape() {
        let fit = VariogramFit { sill: 2.0, range: 10.0, residual: 0.0 };
        assert_eq!(model_gamma(&fit, 0.0), 0.0);
        assert!((model_gamma(&fit, 10.0) - 2.0 * (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert!(model_gamma(&fit, 100.0) > 1.99);
        let degenerate = VariogramFit { sill: 1.0, range: 0.0, residual: 0.0 };
        assert_eq!(model_gamma(&degenerate, 5.0), 1.0);
    }

    #[test]
    fn degenerate_single_row_or_column_yields_empty_variogram() {
        // 1×N / N×1 rectangles are valid views (a strip of a field, or a
        // field one row or column wide); they must not panic.
        for f in
            [Field2D::from_fn(1, 16, |_, j| j as f64), Field2D::from_fn(16, 1, |i, _| i as f64)]
        {
            let vg = empirical_variogram_view(&f.view(), &VariogramConfig::default());
            assert!(vg.is_empty());
            let fit = estimate_range_view(&f.view(), &VariogramConfig::default());
            assert!(fit.range.is_nan());
        }
    }

    #[test]
    fn fit_rejects_too_few_bins() {
        let vg = EmpiricalVariogram {
            distances: vec![1.0, 2.0],
            gammas: vec![0.1, 0.2],
            counts: vec![10, 10],
        };
        assert!(matches!(fit_squared_exponential(&vg), Err(GeostatError::DegenerateInput(_))));
    }

    #[test]
    fn small_windows_work_with_tight_config() {
        // 32x32 windows are the paper's local statistic unit.
        let f = generate_single_range(&GaussianFieldConfig::new(32, 32, 5.0, 9));
        let config = VariogramConfig { max_lag: Some(10), n_bins: 10, ..Default::default() };
        let fit = estimate_range_view(&f.view(), &config);
        assert!(fit.range.is_finite() && fit.range > 0.0);
    }

    #[test]
    fn estimator_is_deterministic() {
        let f = generate_single_range(&GaussianFieldConfig::new(64, 64, 7.0, 2));
        let a = empirical_variogram_view(&f.view(), &VariogramConfig::default());
        let b = empirical_variogram_view(&f.view(), &VariogramConfig::default());
        assert_eq!(a, b);
    }
}
