//! The pinned surface: every call the benchmark makes into the workspace
//! goes through this file, so a later change that renames or removes an
//! entry point breaks exactly one file here. README.md lists these names
//! as the ones a later PR must keep (or must update here, as its own
//! change). None of the `_deadline_with` / `_checksummed_with` /
//! `_degraded` / `foo(&Field2D)` twins appear.
//!
//! Plain data types are re-exported; the rest of the crate touches them
//! only through their accessors.

use std::sync::Arc;

use lcc_archive::{Archive, ArchiveWriter, TileCache};
use lcc_core::dataset::LabeledField;
use lcc_core::statistics::{StatisticKind, StatisticsConfig};
use lcc_core::{run_sweep, CompressionRatioPredictor, SweepConfig};
use lcc_hydro::{MirandaProxy, MirandaProxyConfig, Problem};
use lcc_lossless::{CodecScratch, RansScratch};
use lcc_mgard::MgardCompressor;
use lcc_pressio::frame::{compress_framed_with, compress_tiled_with, decompress_framed_with};
use lcc_pressio::{Compressor, Registry};
use lcc_synth::{GaussianFieldConfig, MultiRangeConfig};
use lcc_sz::SzCompressor;
use lcc_zfp::ZfpCompressor;

pub use lcc_archive::{CacheStats, RegionStats};
pub use lcc_core::CorrelationStatistics;
pub use lcc_grid::{Field2D, FieldView, Window};
pub use lcc_par::ThreadPoolConfig;
pub use lcc_pressio::{CompressError, ErrorBound, FrameScratch, ScratchArena};

/// SIMD tier the kernels dispatch to, for the run's fingerprint.
pub fn simd_level() -> &'static str {
    lcc_lossless::simd_level().label()
}

// ---- inputs ---------------------------------------------------------------

pub fn grf_single(n: usize, range: f64, seed: u64) -> Field2D {
    lcc_synth::generate_single_range(&GaussianFieldConfig::new(n, n, range, seed))
}

pub fn grf_two_ranges(n: usize, a1: f64, a2: f64, seed: u64) -> Field2D {
    lcc_synth::generate_multi_range(&MultiRangeConfig::two_ranges(n, n, a1, a2, seed))
}

/// `slices` Kelvin–Helmholtz `velocityx` snapshots, `steps` solver steps
/// apart.
pub fn miranda_slices(n: usize, slices: usize, steps: usize, seed: u64) -> Vec<Field2D> {
    MirandaProxy::new(MirandaProxyConfig {
        ny: n,
        nx: n,
        n_slices: slices,
        steps_between_snapshots: steps,
        problem: Problem::KelvinHelmholtz,
        seed,
    })
    .generate_velocityx_slices()
}

// ---- codecs ---------------------------------------------------------------

/// One of the five codecs the ROADMAP's Pareto rule keeps.
pub struct Codec {
    /// Registry name: `sz`, `zfp`, `mgard`, `sz-rans8`, `mgard-rans8`.
    pub name: &'static str,
    /// Prefix of this codec's per-layer metrics: `sz.`, `sz.rans8_`, …
    pub key: &'static str,
    /// Span names of its single-stream calls.
    pub span_compress: &'static str,
    pub span_decompress: &'static str,
    imp: Arc<dyn Compressor>,
}

/// The five codecs, the paper's three baselines first.
pub fn codecs() -> Vec<Codec> {
    let codec = |name, key, span_compress, span_decompress, imp: Arc<dyn Compressor>| {
        debug_assert_eq!(imp.name(), name);
        Codec { name, key, span_compress, span_decompress, imp }
    };
    vec![
        codec("sz", "sz.", "sz.compress", "sz.decompress", Arc::new(SzCompressor::default())),
        codec("zfp", "zfp.", "zfp.compress", "zfp.decompress", Arc::new(ZfpCompressor::default())),
        codec(
            "mgard",
            "mgard.",
            "mgard.compress",
            "mgard.decompress",
            Arc::new(MgardCompressor::default()),
        ),
        codec(
            "sz-rans8",
            "sz.rans8_",
            "sz.rans8_compress",
            "sz.rans8_decompress",
            Arc::new(SzCompressor::rans8()),
        ),
        codec(
            "mgard-rans8",
            "mgard.rans8_",
            "mgard.rans8_compress",
            "mgard.rans8_decompress",
            Arc::new(MgardCompressor::rans8()),
        ),
    ]
}

/// Index of the three baselines within [`codecs`], the candidates of
/// `select`.
pub const BASELINES: [usize; 3] = [0, 1, 2];
/// Index of `sz-rans8`, the archive codec of `region` and `ingest`.
pub const ARCHIVE_CODEC: usize = 3;

impl Codec {
    pub fn compress(
        &self,
        view: &FieldView<'_>,
        bound: ErrorBound,
        arena: &mut ScratchArena,
    ) -> Result<Vec<u8>, CompressError> {
        self.imp.compress_view_with(view, bound, arena)
    }

    pub fn decompress(
        &self,
        stream: &[u8],
        arena: &mut ScratchArena,
        out: &mut Field2D,
    ) -> Result<(), CompressError> {
        self.imp.decompress_view_with(stream, arena, out)
    }

    pub fn compress_framed(
        &self,
        view: &FieldView<'_>,
        bound: ErrorBound,
        blocks: usize,
        pool: ThreadPoolConfig,
        scratch: &mut FrameScratch,
    ) -> Result<Vec<u8>, CompressError> {
        compress_framed_with(self.imp.as_ref(), view, bound, blocks, pool, scratch)
    }

    pub fn decompress_framed(
        &self,
        stream: &[u8],
        pool: ThreadPoolConfig,
        scratch: &mut FrameScratch,
        out: &mut Field2D,
    ) -> Result<(), CompressError> {
        decompress_framed_with(self.imp.as_ref(), stream, pool, scratch, out)
    }

    pub fn compress_tiled(
        &self,
        view: &FieldView<'_>,
        bound: ErrorBound,
        tile: usize,
        pool: ThreadPoolConfig,
        scratch: &mut FrameScratch,
    ) -> Result<Vec<u8>, CompressError> {
        compress_tiled_with(self.imp.as_ref(), view, bound, tile, tile, pool, scratch)
    }
}

// ---- statistics and prediction --------------------------------------------

/// The study's statistics configuration at pool width `threads`.
pub fn stats_config(threads: usize) -> StatisticsConfig {
    StatisticsConfig { threads: Some(threads), ..StatisticsConfig::default() }
}

/// The composite call `select` times when tracing is off.
pub fn stats_composite(view: &FieldView<'_>, cfg: &StatisticsConfig) -> CorrelationStatistics {
    CorrelationStatistics::compute_view(view, cfg)
}

/// The three calls `compute_view` makes, separately, so a traced request
/// can put a span around each. Assembling their results must give the
/// composite's bits (a unit test holds this).
pub fn stats_global_variogram(view: &FieldView<'_>, cfg: &StatisticsConfig) -> (f64, f64) {
    let fit = lcc_geostat::estimate_range_view(view, &cfg.variogram);
    (fit.range, fit.sill)
}

pub fn stats_local_range(view: &FieldView<'_>, cfg: &StatisticsConfig) -> f64 {
    lcc_geostat::local_range_std_view(view, &cfg.local_config())
}

pub fn stats_local_svd(view: &FieldView<'_>, cfg: &StatisticsConfig) -> f64 {
    lcc_geostat::local_svd_truncation_std_view(view, cfg.window, cfg.svd_fraction, cfg.threads)
}

/// Variogram range of one window, as the local statistic computes it.
pub fn window_range(view: &FieldView<'_>, cfg: &StatisticsConfig) -> f64 {
    lcc_geostat::window_range(view, &cfg.local_config().variogram)
}

/// SVD truncation level of one window.
pub fn window_svd(view: &FieldView<'_>, cfg: &StatisticsConfig) -> Option<usize> {
    lcc_geostat::window_truncation_level(view, cfg.svd_fraction)
}

/// Ratio predictor over the three baselines, trained by a sweep.
pub struct Predictor {
    imp: CompressionRatioPredictor,
}

/// What training did, for the `core.*` set-up rows.
pub struct Training {
    pub predictor: Predictor,
    pub sweep_s: f64,
    pub fit_s: f64,
    /// (field, codec, bound) cells the sweep measured.
    pub cells: usize,
}

/// `run_sweep` over `fields` × baselines × the four paper bounds, then
/// `CompressionRatioPredictor::train` on the global variogram range.
pub fn train_predictor(
    fields: Vec<(String, Field2D, f64)>,
    codecs: &[Codec],
    threads: usize,
) -> Result<Training, String> {
    let labeled: Vec<LabeledField> = fields
        .into_iter()
        .map(|(name, field, range)| LabeledField::new(name, field, Some(range)))
        .collect();
    let mut registry = Registry::new();
    for &c in &BASELINES {
        registry.register(Arc::clone(&codecs[c].imp), "e2e");
    }
    let config = SweepConfig {
        statistics: stats_config(threads),
        threads: Some(threads),
        ..SweepConfig::default()
    };
    let t0 = std::time::Instant::now();
    let records = run_sweep(&labeled, &registry, &config).map_err(|e| e.to_string())?;
    let sweep_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let imp = CompressionRatioPredictor::train(&records, StatisticKind::GlobalVariogramRange)
        .map_err(|e| e.to_string())?;
    let fit_s = t1.elapsed().as_secs_f64();
    Ok(Training { predictor: Predictor { imp }, sweep_s, fit_s, cells: records.len() })
}

impl Predictor {
    /// Index into [`codecs`] of the baseline with the highest predicted
    /// ratio, and that ratio. `None` when no model covers the statistics.
    pub fn select(
        &self,
        stats: &CorrelationStatistics,
        bound: ErrorBound,
        codecs: &[Codec],
    ) -> Option<(usize, f64)> {
        let names = BASELINES.map(|c| codecs[c].name);
        let choice = self.imp.select_compressor(stats, bound, &names)?;
        let index = BASELINES.into_iter().find(|&c| codecs[c].name == choice.compressor)?;
        Some((index, choice.predicted_ratio))
    }
}

/// The four absolute bounds of the paper, tightest first.
pub fn paper_bounds() -> [ErrorBound; 4] {
    ErrorBound::paper_bounds()
}

// ---- archive --------------------------------------------------------------

/// Archive tile edge of `region` and `ingest`.
pub const TILE: usize = 64;

pub struct Writer {
    imp: ArchiveWriter,
}

impl Writer {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Writer { imp: ArchiveWriter::new() }
    }

    pub fn add_entry(
        &mut self,
        name: &str,
        field: &Field2D,
        codec: &Codec,
        bound: ErrorBound,
        pool: ThreadPoolConfig,
        scratch: &mut FrameScratch,
    ) -> Result<usize, CompressError> {
        self.imp.add_entry(name, 0, field, codec.imp.as_ref(), bound, TILE, TILE, pool, scratch)
    }

    pub fn finish(self) -> Vec<u8> {
        self.imp.finish()
    }
}

/// An open in-memory archive, optionally behind a shared tile cache.
pub struct Reader {
    imp: Archive<Vec<u8>>,
}

pub struct Cache {
    imp: Arc<TileCache>,
}

impl Cache {
    pub fn new(byte_budget: usize) -> Self {
        Cache { imp: Arc::new(TileCache::new(byte_budget)) }
    }

    pub fn stats(&self) -> CacheStats {
        self.imp.stats()
    }
}

impl Reader {
    pub fn open(bytes: Vec<u8>) -> Result<Self, CompressError> {
        Archive::open(bytes).map(|imp| Reader { imp })
    }

    pub fn with_cache(self, cache: &Cache) -> Self {
        Reader { imp: self.imp.with_cache(Arc::clone(&cache.imp)) }
    }

    pub fn read_region(
        &self,
        entry: usize,
        window: &Window,
        codec: &Codec,
        pool: ThreadPoolConfig,
        scratch: &mut FrameScratch,
        out: &mut Field2D,
    ) -> Result<RegionStats, CompressError> {
        self.imp.read_region(entry, window, codec.imp.as_ref(), pool, scratch, out)
    }

    pub fn read_entry(
        &self,
        entry: usize,
        codec: &Codec,
        pool: ThreadPoolConfig,
        scratch: &mut FrameScratch,
        out: &mut Field2D,
    ) -> Result<(), CompressError> {
        self.imp.read_entry(entry, codec.imp.as_ref(), pool, scratch, out)
    }

    /// Bytes of the entries' frames, without head, entry table and footer.
    pub fn payload_bytes(&self) -> u64 {
        (0..self.imp.len()).map(|k| self.imp.entry(k).length).sum()
    }
}

// ---- queue ----------------------------------------------------------------

/// `lcc_par::run_bounded_queue`: `states.len()` clients drain a queue of
/// `capacity` items that `producer` fills through the `push` it is handed.
/// Returns the number of jobs that panicked.
pub fn run_queue<T: Send, S: Send>(
    states: &mut [S],
    capacity: usize,
    producer: impl FnOnce(&dyn Fn(T)),
    worker: impl Fn(&mut S, usize, T) + Sync,
) -> u64 {
    let pool = ThreadPoolConfig::with_threads(states.len());
    let report = lcc_par::run_bounded_queue(
        pool,
        states,
        capacity,
        |queue| {
            producer(&|item| {
                // The queue closes only after the producer returns.
                let pushed = queue.push(item).is_ok();
                debug_assert!(pushed, "queue closed under the producer");
            })
        },
        worker,
    );
    report.job_panics
}

// ---- lossless kernels -----------------------------------------------------

/// Reusable state of the entropy-coder kernels the probe phase times.
#[derive(Default)]
pub struct KernelScratch {
    codec: CodecScratch,
    rans: RansScratch,
}

pub fn huffman_encode(s: &mut KernelScratch, symbols: &[u32], out: &mut Vec<u8>) {
    out.clear();
    lcc_lossless::huffman_encode_with(&mut s.codec, symbols, out);
}

pub fn huffman_decode(s: &mut KernelScratch, bytes: &[u8], out: &mut Vec<u32>) -> bool {
    lcc_lossless::huffman_decode_with(&mut s.codec, bytes, out).is_ok()
}

pub fn rans8_encode(s: &mut KernelScratch, symbols: &[u32], out: &mut Vec<u8>) {
    out.clear();
    lcc_lossless::rans8_encode_with(&mut s.rans, symbols, out);
}

pub fn rans8_decode(s: &mut KernelScratch, bytes: &[u8], out: &mut Vec<u32>) -> bool {
    lcc_lossless::rans8_decode_with(&mut s.rans, bytes, out).is_ok()
}

pub fn lz77_compress(s: &mut KernelScratch, input: &[u8], out: &mut Vec<u8>) {
    out.clear();
    lcc_lossless::lz77_compress_with(&mut s.codec, input, out);
}

pub fn lz77_decompress(bytes: &[u8], out: &mut Vec<u8>) -> bool {
    lcc_lossless::lz77_decompress_into(bytes, out).is_ok()
}

pub fn xxh64(bytes: &[u8]) -> u64 {
    lcc_lossless::xxh64(bytes, 0)
}
