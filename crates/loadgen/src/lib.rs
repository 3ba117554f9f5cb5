//! # lcc-loadgen — concurrency-identity and chaos harness
//!
//! `benchmarks/e2e` measures the codec stack's throughput and latency; this
//! crate answers the other production question: does the stack produce the
//! *same bytes* under concurrent mixed traffic, and does it account for
//! every fault thrown at it? A seeded deterministic [`schedule`] drives N
//! worker threads through the full [`entropy_ablation_registry`] — all five
//! codec variants, each in single-stream, `LCCF`-framed, and
//! checksummed-framed (`+framed+ck`, per-block XXH64 verified on decode)
//! form, over mixed field sizes — via the bounded work queue in
//! [`lcc_par::queue`] (backpressure instead of an unbounded backlog, like a
//! serving admission queue).
//!
//! Every request is a full round trip: compress a field view through the
//! worker's persistent [`ScratchArena`]/[`FrameScratch`], decode the stream
//! back into the worker's reusable reconstruction field, and verify both
//! the stream and the reconstruction hash-match a single-threaded reference
//! computed at setup — so a run with zero errors *proves* byte-identical
//! round trips under concurrency, not just absence of panics.
//!
//! On top of the 15 round-trip variants, three **region-read** variants
//! (`region_sz-rans8`, `region_zfp`, `region_mgard-rans8`) serve
//! tile-sized windows out of an in-memory tiled [`lcc_archive`] through a
//! shared decoded-tile cache, with a Zipf-skewed window popularity
//! schedule, each verified against the same window of a full-entry decode.
//! The merged [`LoadReport`] (`BENCH_load.json`) carries the per-variant
//! request / error / tile counts, the cache's counters and, in chaos mode,
//! the [`ChaosSummary`].

mod fault;
pub mod report;
pub mod schedule;

use fault::{take_thread_injections, FaultPlan, FaultyReadAt, CHAOS_PANIC_TAG};
use lcc_archive::{Archive, ArchiveWriter, ReadOptions, TileCache};
use lcc_core::registry::entropy_ablation_registry;
use lcc_grid::{Field2D, FieldView, Window};
use lcc_par::{run_bounded_queue, CancelToken, ThreadPoolConfig};
use lcc_pressio::frame::{compress_frame, decompress_framed_with, FrameOptions, Layout};
use lcc_pressio::{CompressError, Compressor, ErrorBound, FrameScratch, ScratchArena};
use lcc_synth::{generate_single_range, GaussianFieldConfig};
pub use report::{ChaosSummary, LoadReport, LoadVariant};
use schedule::{Request, Schedule};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Codecs served through the archive region-read path: the fastest-decoding
/// variant of each family, the serving-grade default.
const REGION_CODECS: [&str; 3] = ["sz-rans8", "zfp", "mgard-rans8"];
/// Zipf exponent of the window-popularity schedule (weight ∝ 1/(k+1)^s).
const ZIPF_EXPONENT: f64 = 1.1;
/// Edge lengths of the square payload fields (two correlation ranges are
/// generated per size, so the payload table is six fields).
const SIZES: [usize; 3] = [64, 96, 128];
/// Absolute point-wise error bound of every compress call.
const BOUND: ErrorBound = ErrorBound::Absolute(1e-3);
/// Block count of framed requests. Blocks encode sequentially *within* a
/// worker — concurrency comes from the request level, as in a serving pool.
const FRAMED_BLOCKS: usize = 4;
/// Edge length of the square archive entries the region variants read from.
const ARCHIVE_SIZE: usize = 256;
/// Tile edge of the archive entries; region requests read one tile-sized
/// window each.
const ARCHIVE_TILE: usize = 64;
/// Byte budget of the decoded-tile cache the region variants share.
const TILE_CACHE_BYTES: usize = 8_000_000;
/// Per-request deadline of region reads in chaos mode. Injected device
/// stalls last 5× this, so every stall surfaces as `DeadlineExceeded`;
/// clean reads finish orders of magnitude inside it.
const CHAOS_DEADLINE: Duration = Duration::from_millis(50);

/// Configuration of one load run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent worker threads draining the request queue.
    pub workers: usize,
    /// Target wall-clock duration of the submission phase.
    pub duration: Duration,
    /// Seed of the deterministic request schedule and payload fields.
    pub seed: u64,
    /// Minimum number of requests to submit even if the deadline passes
    /// first — at least one full round-robin over the variants guarantees
    /// every variant appears in the report of an arbitrarily short run.
    pub min_requests: u64,
    /// Per-site fault-injection probability (`--chaos <rate>`); 0 disables
    /// chaos mode. When enabled, archive reads go through a seeded
    /// [`FaultyReadAt`], round-trip streams are corrupted at the same rate,
    /// rare worker panics are injected, the tile cache verifies hits, and
    /// the report carries a [`ChaosSummary`] proving
    /// `injected == detected + recovered`.
    pub chaos_rate: f64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            workers: 4,
            duration: Duration::from_millis(2000),
            seed: 42,
            min_requests: 0,
            chaos_rate: 0.0,
        }
    }
}

impl LoadgenConfig {
    /// One-line workload description used as the report label.
    fn label(&self) -> String {
        format!("{} workers, {} ms, seed {}", self.workers, self.duration.as_millis(), self.seed)
    }

    fn chaos_enabled(&self) -> bool {
        self.chaos_rate > 0.0
    }
}

/// Parse the value of `--chaos`: a finite fault rate in `[0, 1]`. Anything
/// else is an error naming the flag and the text — `nan` parses as an `f64`
/// and a clamp would turn `-1` or `nan` into a run *without* chaos, whose
/// exit contract a typo would then pass vacuously.
pub fn parse_chaos_rate(text: &str) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(rate) if (0.0..=1.0).contains(&rate) => Ok(rate),
        _ => Err(format!("--chaos: {text:?} is not a fault rate in [0, 1]")),
    }
}

/// Injected worker panics are this fraction of the byte-fault rate: rare
/// enough that most requests still run, frequent enough that a
/// multi-second smoke run exercises per-job panic absorption.
const CHAOS_PANIC_FRACTION: f64 = 0.1;

/// Container form of one variant-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VariantMode {
    /// Plain single-stream compress/decompress.
    Single,
    /// Block-parallel `LCCF` frame.
    Framed,
    /// `LCCF` frame with per-block XXH64 checksums verified on decode.
    FramedChecksummed,
    /// Archive region read of entry `k` — one tile-sized window per
    /// request, through the shared decoded-tile cache.
    Region(usize),
}

impl VariantMode {
    /// Report key (`BENCH_load.json`) of `codec` driven in this form:
    /// `sz`, `sz+framed`, `sz+framed+ck`, `region_sz`.
    fn label(self, codec: &str) -> String {
        match self {
            VariantMode::Single => codec.to_string(),
            VariantMode::Framed => format!("{codec}+framed"),
            VariantMode::FramedChecksummed => format!("{codec}+framed+ck"),
            VariantMode::Region(_) => format!("region_{codec}"),
        }
    }
}

/// One entry of the run's variant table: a registry compressor in
/// single-stream, framed, or checksummed-framed form.
struct Variant {
    compressor: Arc<dyn Compressor>,
    mode: VariantMode,
    label: String,
}

/// Single-threaded reference of one (variant, field) cell: the expected
/// stream and reconstruction hashes every concurrent round trip must
/// reproduce.
#[derive(Debug, Clone, Copy)]
struct Reference {
    stream_hash: u64,
    recon_hash: u64,
}

/// Per-worker chaos ledger: where this worker's share of the injected
/// faults surfaced. Summed into the report's [`ChaosSummary`].
#[derive(Default)]
struct ChaosLedger {
    detected: u64,
    recovered: u64,
    timeouts: u64,
    unexplained: u64,
}

impl ChaosLedger {
    /// Attribute one request's injection delta to its outcome: a verified
    /// request recovered its faults, a failed one detected them (timeouts
    /// tracked separately), and a failure with nothing injected is
    /// unexplained — a real bug the chaos run flushes out.
    fn settle(&mut self, injections: u64, verified: bool, timed_out: bool) {
        if verified {
            self.recovered += injections;
        } else if injections > 0 {
            self.detected += injections;
            if timed_out {
                self.timeouts += injections;
            }
        } else {
            self.unexplained += 1;
        }
    }
}

/// Per-worker state: persistent scratch plus this worker's share of the
/// report rows, handed to the worker thread by [`run_bounded_queue`] for the
/// whole run.
struct Worker {
    arena: ScratchArena,
    frame: FrameScratch,
    recon: Field2D,
    per_variant: Vec<LoadVariant>,
    served: u64,
    chaos: ChaosLedger,
}

impl Worker {
    fn new(n_variants: usize) -> Self {
        Worker {
            arena: ScratchArena::new(),
            frame: FrameScratch::new(),
            recon: Field2D::zeros(1, 1),
            per_variant: vec![LoadVariant::default(); n_variants],
            served: 0,
            chaos: ChaosLedger::default(),
        }
    }
}

/// FNV-1a over a byte slice — cheap, dependency-free stream fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over a view's values in row-major bit pattern.
fn hash_view(view: &FieldView<'_>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in view.iter() {
        for b in v.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// FNV-1a over a field's values in row-major bit pattern.
fn hash_field(field: &Field2D) -> u64 {
    hash_view(&field.view())
}

/// The compressors serving the region-read variants, in
/// [`REGION_CODECS`] order (entry `k` of the archive is written by codec
/// `k`).
fn region_compressors() -> Vec<Arc<dyn Compressor>> {
    let registry = entropy_ablation_registry();
    REGION_CODECS
        .iter()
        .map(|name| registry.get(name).expect("ablation registry carries the region codecs"))
        .collect()
}

/// Build the run's variant table from the ablation registry: every codec in
/// single-stream form first (registry order), then every codec framed, then
/// every codec checksummed-framed, and finally the archive region-read
/// variants.
fn build_variants() -> Vec<Variant> {
    let registry = entropy_ablation_registry();
    let mut variants = Vec::with_capacity(registry.len() * 3 + REGION_CODECS.len());
    let mut push = |compressor: Arc<dyn Compressor>, mode: VariantMode| {
        let label = mode.label(compressor.name());
        variants.push(Variant { compressor, mode, label });
    };
    for mode in [VariantMode::Single, VariantMode::Framed, VariantMode::FramedChecksummed] {
        for compressor in registry.compressors() {
            push(compressor, mode);
        }
    }
    for (ordinal, compressor) in region_compressors().into_iter().enumerate() {
        push(compressor, VariantMode::Region(ordinal));
    }
    variants
}

/// The region-read side of a run: the in-memory tiled archive (one entry
/// per region codec), its shared decoded-tile cache, the window table, and
/// the per-(entry, window) reference hashes a region read must reproduce.
struct RegionWorkload {
    /// The archive always reads through the fault seam; outside chaos mode
    /// the plan stays disarmed and the wrapper is a strict passthrough.
    archive: Archive<FaultyReadAt<Vec<u8>>>,
    cache: Arc<TileCache>,
    windows: Vec<Window>,
    /// `refs[ordinal][window]` — hash of the window of a full-frame decode.
    refs: Vec<Vec<u64>>,
}

/// Build the region workload: compress one Gaussian field per region codec
/// into a tiled archive, attach the shared cache, enumerate the window
/// table (every tile-aligned **and** half-tile-offset anchor, so reads both
/// align with tiles and straddle tile boundaries), and record reference
/// hashes from full-frame decodes. `plan` must still be disarmed here so
/// the build and references run clean; in chaos mode the cache verifies
/// its hits, closing the decoded-tile (post-checksum) corruption window.
fn build_region_workload(
    config: &LoadgenConfig,
    plan: &Arc<FaultPlan>,
) -> Result<RegionWorkload, CompressError> {
    let (size, tile) = (ARCHIVE_SIZE, ARCHIVE_TILE);
    let pool = ThreadPoolConfig::with_threads(2);
    let mut scratch = FrameScratch::new();
    let compressors = region_compressors();

    let mut writer = ArchiveWriter::new();
    for (k, compressor) in compressors.iter().enumerate() {
        let cfg = GaussianFieldConfig::new(
            size,
            size,
            size as f64 / 8.0,
            config.seed.wrapping_add(9000 + k as u64),
        );
        let field = generate_single_range(&cfg);
        writer.add_entry(
            "region-field",
            k as u64,
            &field,
            compressor.as_ref(),
            BOUND,
            tile,
            tile,
            pool,
            &mut scratch,
        )?;
    }
    let cache =
        Arc::new(TileCache::new(TILE_CACHE_BYTES).with_verification(config.chaos_enabled()));
    let faulty = FaultyReadAt::new(writer.finish(), Arc::clone(plan));
    let archive = Archive::open(faulty)?.with_cache(cache.clone());

    let anchors: Vec<usize> = (0..=size - tile).step_by(tile / 2).collect();
    let mut windows = Vec::with_capacity(anchors.len() * anchors.len());
    for &i0 in &anchors {
        for &j0 in &anchors {
            windows.push(Window { i0, j0, height: tile, width: tile });
        }
    }

    let mut refs = Vec::with_capacity(compressors.len());
    let mut full = Field2D::zeros(1, 1);
    for (k, compressor) in compressors.iter().enumerate() {
        archive.read_entry(k, compressor.as_ref(), pool, &mut scratch, &mut full)?;
        refs.push(windows.iter().map(|w| hash_view(&full.view().window(w))).collect());
    }
    Ok(RegionWorkload { archive, cache, windows, refs })
}

/// Generate the payload table: two Gaussian random fields per size of
/// [`SIZES`] (a short- and a long-correlation-range instance), all derived
/// from the run seed.
fn build_fields(seed: u64) -> Vec<Field2D> {
    let mut fields = Vec::with_capacity(SIZES.len() * 2);
    for (k, &size) in SIZES.iter().enumerate() {
        for (r, range_div) in [8.0, 3.0].iter().enumerate() {
            let seed = seed.wrapping_add((k * 2 + r) as u64 + 1);
            let cfg = GaussianFieldConfig::new(size, size, size as f64 / range_div, seed);
            fields.push(generate_single_range(&cfg));
        }
    }
    fields
}

/// Run one (variant, field) round trip through the given worker scratch,
/// returning the stream. Framed variants run their blocks sequentially on a
/// single-thread pool: request-level workers are the concurrency. In chaos
/// mode `sabotage` corrupts the encoded stream *between* encode and decode
/// — modelling bytes damaged at rest — so the decode/verify side must
/// catch every injection.
fn round_trip(
    variant: &Variant,
    field: &Field2D,
    arena: &mut ScratchArena,
    frame_scratch: &mut FrameScratch,
    recon: &mut Field2D,
    sabotage: Option<(&FaultPlan, u64)>,
) -> Result<Vec<u8>, CompressError> {
    let compressor = variant.compressor.as_ref();
    let corrupt = |stream: &mut Vec<u8>| {
        if let Some((plan, site)) = sabotage {
            plan.corrupt_stream(site, stream);
        }
    };
    let checksum = match variant.mode {
        VariantMode::Single => {
            let mut stream = compressor.compress_view_with(&field.view(), BOUND, arena)?;
            corrupt(&mut stream);
            compressor.decompress_view_with(&stream, arena, recon)?;
            return Ok(stream);
        }
        VariantMode::Framed => false,
        VariantMode::FramedChecksummed => true,
        VariantMode::Region(_) => unreachable!("region requests go through serve_region"),
    };
    let pool = ThreadPoolConfig::with_threads(1);
    let (layout, options) =
        (Layout::RowBands(FRAMED_BLOCKS), FrameOptions { checksum, cancel: None });
    let (mut stream, _) = compress_frame(
        compressor,
        &field.view(),
        BOUND,
        layout,
        options,
        pool,
        frame_scratch,
        |_| (),
    )?;
    corrupt(&mut stream);
    // Checksummed frames self-describe; the one decode path verifies when
    // the flag is present.
    decompress_framed_with(compressor, &stream, pool, frame_scratch, recon)?;
    Ok(stream)
}

/// Compute the single-threaded reference table: one compress+decompress per
/// (variant, field) cell through a fresh scratch set.
fn build_references(
    variants: &[Variant],
    fields: &[Field2D],
) -> Result<Vec<Vec<Reference>>, CompressError> {
    let mut arena = ScratchArena::new();
    let mut frame_scratch = FrameScratch::new();
    let mut recon = Field2D::zeros(1, 1);
    variants
        .iter()
        .map(|variant| {
            if matches!(variant.mode, VariantMode::Region(_)) {
                // Region variants verify against the per-window hashes in
                // the RegionWorkload instead of the round-trip table.
                return Ok(Vec::new());
            }
            fields
                .iter()
                .map(|field| {
                    let stream = round_trip(
                        variant,
                        field,
                        &mut arena,
                        &mut frame_scratch,
                        &mut recon,
                        None,
                    )?;
                    Ok(Reference { stream_hash: fnv1a(&stream), recon_hash: hash_field(&recon) })
                })
                .collect()
        })
        .collect()
}

/// Everything a worker needs to serve requests: the immutable variant,
/// payload, and reference tables. Shared read-only across all worker
/// threads.
struct Workload {
    variants: Vec<Variant>,
    fields: Vec<Field2D>,
    references: Vec<Vec<Reference>>,
    regions: RegionWorkload,
    /// The armed fault plan; `None` outside chaos mode.
    chaos: Option<Arc<FaultPlan>>,
}

/// Serve one region-read request: decode one Zipf-popular window out of the
/// shared archive through the decoded-tile cache and verify the output hash
/// against the full-decode reference.
fn serve_region(worker: &mut Worker, request: Request, ordinal: usize, load: &Workload) {
    let variant = &load.variants[request.variant];
    let regions = &load.regions;
    let window = &regions.windows[request.window];
    let pool = ThreadPoolConfig::with_threads(1);

    // Chaos mode serves under a per-request deadline, so an injected
    // device stall (5× the deadline) surfaces as `DeadlineExceeded`
    // instead of silently stretching the tail. The 1-wide pool keeps the
    // whole read on this thread, so the plan's thread-local injection
    // counter attributes every fault to this request.
    let deadline = load.chaos.as_ref().map(|_| CancelToken::with_timeout(CHAOS_DEADLINE));
    let outcome = regions
        .archive
        .read_region_with(
            ordinal,
            window,
            variant.compressor.as_ref(),
            pool,
            &mut worker.frame,
            &mut worker.recon,
            ReadOptions { cancel: deadline.as_ref(), degraded: false },
        )
        .map(|region| region.stats);

    worker.served += 1;
    let verified =
        outcome.is_ok() && hash_field(&worker.recon) == regions.refs[ordinal][request.window];
    if load.chaos.is_some() {
        let timed_out = matches!(&outcome, Err(CompressError::DeadlineExceeded(_)));
        worker.chaos.settle(take_thread_injections(), verified, timed_out);
    }
    let row = &mut worker.per_variant[request.variant];
    match outcome {
        Ok(region) if verified => {
            row.requests += 1;
            row.tiles += region.tiles as u64;
            row.tiles_from_cache += region.tiles_from_cache as u64;
        }
        _ => row.errors += 1,
    }
}

/// Serve one request on a worker: round trip, verify against the reference,
/// count it as verified or failed. Region requests dispatch to
/// [`serve_region`].
fn serve(worker: &mut Worker, request: Request, load: &Workload) {
    let variant = &load.variants[request.variant];
    // Injected worker panic: fires before any fault site, so the absorbed
    // job carries no injection delta. The bounded-queue harness catches it
    // per job and the pool keeps serving.
    if let Some(plan) = &load.chaos {
        if plan.draw_panic(worker.served) {
            fault::inject_panic(worker.served);
        }
    }
    if let VariantMode::Region(ordinal) = variant.mode {
        serve_region(worker, request, ordinal, load);
        return;
    }
    let reference = &load.references[request.variant][request.field];
    let sabotage = load.chaos.as_ref().map(|plan| (plan.as_ref(), worker.served));
    let outcome = round_trip(
        variant,
        &load.fields[request.field],
        &mut worker.arena,
        &mut worker.frame,
        &mut worker.recon,
        sabotage,
    );
    worker.served += 1;

    let verified = outcome.is_ok_and(|stream| {
        fnv1a(&stream) == reference.stream_hash && hash_field(&worker.recon) == reference.recon_hash
    });
    if load.chaos.is_some() {
        worker.chaos.settle(take_thread_injections(), verified, false);
    }
    let row = &mut worker.per_variant[request.variant];
    if verified {
        row.requests += 1;
    } else {
        row.errors += 1;
    }
}

/// Run a sustained load according to `config` and return the merged report.
///
/// The calling thread produces requests from the seeded schedule until the
/// deadline passes (and at least `min_requests` went out); `workers` scoped
/// threads drain the bounded queue through persistent per-worker scratch.
/// Returns an error only when the single-threaded reference setup fails —
/// per-request failures during the run are *counted*, not propagated, like
/// a serving error budget.
pub fn run_load(config: &LoadgenConfig) -> Result<LoadReport, CompressError> {
    let workers = config.workers.max(1);
    let chaos_on = config.chaos_enabled();
    // The plan exists in every run (the region archive always reads
    // through the fault seam) but stays disarmed — and therefore inert —
    // until the measured window of a chaos run begins.
    let mut plan = FaultPlan::new(config.seed, config.chaos_rate);
    if chaos_on {
        plan = plan
            .with_panic_rate(config.chaos_rate * CHAOS_PANIC_FRACTION)
            .with_delay(CHAOS_DEADLINE * 5);
        install_chaos_panic_hook();
    }
    let plan = Arc::new(plan);
    let variants = build_variants();
    let fields = build_fields(config.seed);
    let references = build_references(&variants, &fields)?;
    let regions = build_region_workload(config, &plan)?;
    let region_start = variants.len() - REGION_CODECS.len();
    let n_windows = regions.windows.len();
    let load = Workload {
        variants,
        fields,
        references,
        regions,
        chaos: chaos_on.then(|| Arc::clone(&plan)),
    };

    let mut states: Vec<Worker> =
        std::iter::repeat_with(|| Worker::new(load.variants.len())).take(workers).collect();
    let mut schedule = Schedule::new(config.seed, load.variants.len(), load.fields.len())
        .with_regions(region_start, n_windows, ZIPF_EXPONENT);

    let started = Instant::now();
    let deadline = started + config.duration;
    let min_requests = config.min_requests;
    if chaos_on {
        plan.arm();
    }
    let queue_report = run_bounded_queue(
        ThreadPoolConfig::with_threads(workers),
        &mut states,
        workers * 4,
        |queue| loop {
            let issued = schedule.issued();
            if issued >= min_requests && Instant::now() >= deadline {
                break;
            }
            if queue.push(schedule.next_request()).is_err() {
                break;
            }
        },
        |worker, _, request| serve(worker, request, &load),
    );
    plan.disarm();
    let duration_seconds = started.elapsed().as_secs_f64();

    // Merge the per-worker rows into one report row per variant.
    let mut rows: Vec<LoadVariant> = load
        .variants
        .iter()
        .map(|v| LoadVariant { variant: v.label.clone(), ..LoadVariant::default() })
        .collect();
    for worker in &states {
        for (row, share) in rows.iter_mut().zip(&worker.per_variant) {
            row.requests += share.requests;
            row.errors += share.errors;
            row.tiles += share.tiles;
            row.tiles_from_cache += share.tiles_from_cache;
        }
    }

    let chaos = chaos_on.then(|| {
        let mut summary = ChaosSummary {
            seed: config.seed,
            rate: config.chaos_rate,
            injected: plan.injected(),
            panics_injected: plan.injected_panics(),
            panics_absorbed: queue_report.job_panics,
            ..ChaosSummary::default()
        };
        for worker in &states {
            summary.detected += worker.chaos.detected;
            summary.recovered += worker.chaos.recovered;
            summary.timeouts += worker.chaos.timeouts;
            summary.unexplained_errors += worker.chaos.unexplained;
        }
        summary
    });
    Ok(LoadReport {
        label: config.label(),
        simd_level: lcc_lossless::simd_level().label().to_string(),
        workers,
        duration_seconds,
        tile_cache: load.regions.cache.stats(),
        chaos,
        variants: rows,
    })
}

/// Install (once per process) a panic hook that silences injected chaos
/// panics — their payload carries [`CHAOS_PANIC_TAG`] — while chaining any
/// other panic to the previously installed hook. Without this, a 2-second
/// chaos run spews dozens of expected backtraces over the report.
fn install_chaos_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if !message.is_some_and(|m| m.contains(CHAOS_PANIC_TAG)) {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hash_field_distinguishes_values_and_matches_bytes() {
        let a = Field2D::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let mut b = a.clone();
        assert_eq!(hash_field(&a), hash_field(&b));
        b.set(2, 2, -1.0);
        assert_ne!(hash_field(&a), hash_field(&b));
        // Equivalent to hashing the raw little-endian bytes.
        let bytes: Vec<u8> = a.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(hash_field(&a), fnv1a(&bytes));
    }

    #[test]
    fn chaos_rates_outside_the_unit_interval_are_refused_by_name() {
        for (text, rate) in [("0", 0.0), ("0.02", 0.02), ("1", 1.0), ("1e-3", 1e-3)] {
            assert_eq!(parse_chaos_rate(text), Ok(rate));
        }
        for text in ["-1", "-0.001", "1.5", "5", "nan", "NaN", "inf", "-inf", "", "abc", "0.1x"] {
            let message = parse_chaos_rate(text).unwrap_err();
            assert!(message.starts_with("--chaos") && message.contains(text), "{message:?}");
        }
    }

    #[test]
    fn variant_table_is_all_codecs_single_then_framed_then_checksummed() {
        let variants = build_variants();
        assert_eq!(variants.len(), 18);
        let labels: Vec<&str> = variants.iter().map(|v| v.label.as_str()).collect();
        let codecs = ["mgard", "mgard-rans8", "sz", "sz-rans8", "zfp"];
        let expected: Vec<String> = codecs
            .iter()
            .map(|c| c.to_string())
            .chain(codecs.iter().map(|c| format!("{c}+framed")))
            .chain(codecs.iter().map(|c| format!("{c}+framed+ck")))
            .chain(REGION_CODECS.iter().map(|c| format!("region_{c}")))
            .collect();
        assert_eq!(labels, expected);
        assert!(variants[..5].iter().all(|v| v.mode == VariantMode::Single));
        assert!(variants[5..10].iter().all(|v| v.mode == VariantMode::Framed));
        assert!(variants[10..15].iter().all(|v| v.mode == VariantMode::FramedChecksummed));
        assert!(variants[15..].iter().enumerate().all(|(k, v)| v.mode == VariantMode::Region(k)));
    }

    #[test]
    fn region_workload_windows_cover_and_refs_are_deterministic() {
        let config = LoadgenConfig::default();
        let plan = Arc::new(FaultPlan::new(config.seed, 0.0));
        let a = build_region_workload(&config, &plan).unwrap();
        let b = build_region_workload(&config, &plan).unwrap();
        // Half-tile anchors 0, 32, …, 192 on both axes → 49 windows.
        assert_eq!(a.windows.len(), 49);
        assert!(a.windows.iter().all(|w| w.height == ARCHIVE_TILE && w.width == ARCHIVE_TILE));
        assert!(a
            .windows
            .iter()
            .all(|w| w.i0 + w.height <= ARCHIVE_SIZE && w.j0 + w.width <= ARCHIVE_SIZE));
        assert_eq!(a.refs, b.refs, "same seed must give identical references");
        assert_eq!(a.refs.len(), REGION_CODECS.len());
        assert!(a.refs.iter().all(|r| r.len() == 49));
    }

    #[test]
    fn payload_fields_are_seed_deterministic() {
        let a = build_fields(42);
        let b = build_fields(42);
        assert_eq!(a.len(), 6, "two ranges per size");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(hash_field(x), hash_field(y));
        }
        assert_ne!(hash_field(&a[0]), hash_field(&build_fields(1234)[0]));
    }

    #[test]
    fn clean_runs_carry_no_chaos_summary_and_no_errors() {
        let config = LoadgenConfig {
            workers: 2,
            duration: Duration::from_millis(50),
            min_requests: 40,
            ..LoadgenConfig::default()
        };
        let report = run_load(&config).unwrap();
        assert!(report.chaos.is_none());
        assert_eq!(report.total_errors(), 0, "clean runs must verify byte-identically");
        assert!(report.total_requests() >= 40);
    }

    #[test]
    fn chaos_runs_account_for_every_injected_fault() {
        let config = LoadgenConfig {
            workers: 2,
            duration: Duration::from_millis(150),
            min_requests: 600,
            chaos_rate: 0.25,
            ..LoadgenConfig::default()
        };
        let report = run_load(&config).unwrap();
        let chaos = report.chaos.expect("chaos mode records a summary");
        assert_eq!(chaos.rate, 0.25);
        assert_eq!(chaos.seed, config.seed);
        assert!(chaos.injected > 0, "a 25% plan over 600+ requests injects faults");
        assert!(
            chaos.is_accounted(),
            "injected {} != detected {} + recovered {}",
            chaos.injected,
            chaos.detected,
            chaos.recovered
        );
        assert_eq!(
            chaos.panics_absorbed, chaos.panics_injected,
            "every absorbed panic must be one the plan injected"
        );
        assert_eq!(chaos.unexplained_errors, 0);
        // Recovery actually happens: the verified cache + source re-read
        // heal at least some corrupt region reads (a sixth of the requests).
        assert!(chaos.recovered > 0, "no injection was recovered: {chaos:?}");
    }

    #[test]
    fn references_are_scratch_independent() {
        // The reference table must not depend on arena reuse order:
        // computing a single cell with fresh scratch gives the same hashes.
        let variants = build_variants();
        let fields = build_fields(42);
        let refs = build_references(&variants, &fields).unwrap();
        let mut arena = ScratchArena::new();
        let mut frame_scratch = FrameScratch::new();
        let mut recon = Field2D::zeros(1, 1);
        for (v, variant) in variants.iter().enumerate() {
            if matches!(variant.mode, VariantMode::Region(_)) {
                assert!(refs[v].is_empty(), "region variants carry no round-trip references");
                continue;
            }
            let stream =
                round_trip(variant, &fields[1], &mut arena, &mut frame_scratch, &mut recon, None)
                    .unwrap();
            assert_eq!(fnv1a(&stream), refs[v][1].stream_hash, "variant {}", variant.label);
            assert_eq!(hash_field(&recon), refs[v][1].recon_hash, "variant {}", variant.label);
        }
    }
}
