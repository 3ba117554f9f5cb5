//! The serving set-up `tests/concurrency_identity.rs` and `tests/chaos.rs`
//! share (`#[path]`-included). 18 variants: the five registry codecs, each
//! as a single stream, in a frame of four full-width tiles and in a
//! checksummed one, plus region reads of three codecs' entries in one tiled archive
//! behind a shared [`TileCache`]. Six payload fields, a fixed seeded request
//! list, and the single-threaded, fresh-scratch references every concurrent
//! answer must equal.

#![allow(dead_code)]

#[path = "fnv.rs"]
mod fnv;

use lcc_archive::{Archive, ArchiveWriter, ReadAt, ReadOptions, TileCache};
use lcc_core::registry::entropy_ablation_registry;
use lcc_grid::{Field2D, Window};
use lcc_par::{CancelToken, ThreadPoolConfig};
use lcc_pressio::frame::{compress_frame, decompress_framed_with};
use lcc_pressio::{CompressError, Compressor, ErrorBound, FrameScratch, ScratchArena};
use lcc_synth::{generate_single_range, GaussianFieldConfig};
use std::sync::Arc;
use std::time::Duration;

/// Seed of the payload fields, the archive entries and the request list.
pub const SEED: u64 = 42;
/// Concurrent workers draining the request queue.
pub const WORKERS: usize = 4;
/// Codecs whose archive entries the region variants read, entry `k` by codec `k`.
const REGION_CODECS: [&str; 3] = ["sz-rans8", "zfp", "mgard-rans8"];
/// Edge lengths of the square payload fields, two correlation ranges each.
const SIZES: [usize; 3] = [64, 96, 128];
const BOUND: ErrorBound = ErrorBound::Absolute(1e-3);
/// Blocks of a framed request, encoded one after another on its worker.
const FRAMED_BLOCKS: usize = 4;
const ARCHIVE_SIZE: usize = 256;
const ARCHIVE_TILE: usize = 64;
/// About 15 of the archive's 48 tiles, so reads keep missing, evicting and
/// refusing as well as hitting.
const CACHE_BYTES: usize = 512 << 10;

/// splitmix64: decorrelates a counter into a seeded draw.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Single,
    Framed {
        checksum: bool,
    },
    /// A tile-sized window of archive entry `k`.
    Region(usize),
}

pub struct Variant {
    pub compressor: Arc<dyn Compressor>,
    pub mode: Mode,
}

#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Position in the request list; the chaos test's fault site.
    pub id: u64,
    pub variant: usize,
    pub field: usize,
    pub window: usize,
}

/// One worker's scratch, reused across every request it serves.
pub struct Scratch {
    arena: ScratchArena,
    frame: FrameScratch,
    recon: Field2D,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            arena: ScratchArena::new(),
            frame: FrameScratch::new(),
            recon: Field2D::zeros(1, 1),
        }
    }
}

/// The stream and reconstruction hashes of one (variant, field) round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reference {
    stream: u64,
    recon: u64,
}

impl Reference {
    fn of(stream: &[u8], recon: &Field2D) -> Self {
        Reference { stream: fnv::bytes(stream), recon: fnv::values(&recon.view()) }
    }
}

/// Everything the workers read, shared across them.
pub struct Load<R: ReadAt> {
    variants: Vec<Variant>,
    fields: Vec<Field2D>,
    /// `references[variant][field]`; empty for region variants.
    references: Vec<Vec<Reference>>,
    archive: Archive<R>,
    pub cache: Arc<TileCache>,
    /// Every tile-aligned and half-tile-offset 64 × 64 window, so reads both
    /// align with tiles and straddle tile seams.
    windows: Vec<Window>,
    /// `window_refs[entry][window]`: that window of a full-entry decode.
    window_refs: Vec<Vec<u64>>,
}

impl<R: ReadAt> Load<R> {
    /// Build the set-up, the archive read through `source` over its bytes
    /// and cached by a verifying cache when `verify` is set.
    pub fn build(verify: bool, source: impl FnOnce(Vec<u8>) -> R) -> Self {
        let registry = entropy_ablation_registry();
        let codec = |name: &str| registry.get(name).expect("registered codec");
        let mut variants = Vec::new();
        for mode in
            [Mode::Single, Mode::Framed { checksum: false }, Mode::Framed { checksum: true }]
        {
            let compressors = registry.compressors().into_iter();
            variants.extend(compressors.map(|compressor| Variant { compressor, mode }));
        }
        for (k, name) in REGION_CODECS.into_iter().enumerate() {
            variants.push(Variant { compressor: codec(name), mode: Mode::Region(k) });
        }

        let mut fields = Vec::new();
        for (k, &size) in SIZES.iter().enumerate() {
            for (r, range_div) in [8.0, 3.0].into_iter().enumerate() {
                let seed = SEED + (k * 2 + r) as u64 + 1;
                let config = GaussianFieldConfig::new(size, size, size as f64 / range_div, seed);
                fields.push(generate_single_range(&config));
            }
        }

        let references = variants
            .iter()
            .map(|variant| match variant.mode {
                Mode::Region(_) => Vec::new(),
                _ => fields
                    .iter()
                    .map(|field| {
                        let mut fresh = Scratch::default();
                        let stream = round_trip(variant, field, &mut fresh, |_| ())
                            .expect("reference round trip");
                        Reference::of(&stream, &fresh.recon)
                    })
                    .collect(),
            })
            .collect();

        let pool = ThreadPoolConfig::with_threads(2);
        let mut frame = FrameScratch::new();
        let mut writer = ArchiveWriter::new();
        for (k, name) in REGION_CODECS.into_iter().enumerate() {
            let (n, t, seed) = (ARCHIVE_SIZE, ARCHIVE_TILE, SEED + 9000 + k as u64);
            let field =
                generate_single_range(&GaussianFieldConfig::new(n, n, n as f64 / 8.0, seed));
            writer
                .add_entry("region", k as u64, &field, &*codec(name), BOUND, t, t, pool, &mut frame)
                .expect("archive entry");
        }
        let cache = Arc::new(TileCache::new(CACHE_BYTES).with_verification(verify));
        let archive = Archive::open(source(writer.finish())).expect("archive opens");
        let archive = archive.with_cache(Arc::clone(&cache));

        let anchors: Vec<usize> =
            (0..=ARCHIVE_SIZE - ARCHIVE_TILE).step_by(ARCHIVE_TILE / 2).collect();
        let windows: Vec<Window> = anchors
            .iter()
            .flat_map(|&i0| anchors.iter().map(move |&j0| (i0, j0)))
            .map(|(i0, j0)| Window { i0, j0, height: ARCHIVE_TILE, width: ARCHIVE_TILE })
            .collect();
        let mut full = Field2D::zeros(1, 1);
        let window_refs = REGION_CODECS
            .into_iter()
            .enumerate()
            .map(|(k, name)| {
                archive.read_entry(k, codec(name).as_ref(), pool, &mut frame, &mut full).unwrap();
                windows.iter().map(|w| fnv::values(&full.view().window(w))).collect()
            })
            .collect();
        Load { variants, fields, references, archive, cache, windows, window_refs }
    }

    /// `count` requests: every variant once, then seeded draws of
    /// (variant, field, window), so windows and their tiles repeat.
    pub fn requests(&self, count: usize) -> Vec<Request> {
        let (variants, fields, windows) =
            (self.variants.len(), self.fields.len(), self.windows.len());
        (0..count)
            .map(|k| {
                let draw = |salt: u64| mix(SEED ^ mix(k as u64) ^ salt) as usize;
                Request {
                    id: k as u64,
                    variant: if k < variants { k } else { draw(0) % variants },
                    field: draw(1) % fields,
                    window: draw(2) % windows,
                }
            })
            .collect()
    }

    /// Serve one request through `scratch`: `Ok(true)` when its stream and
    /// reconstruction (or window) equal the reference. A region read runs
    /// under `deadline` when one is given, on a 1-wide pool, so the whole
    /// read stays on the calling thread. `corrupt` sees a round trip's
    /// stream between encode and decode.
    pub fn serve(
        &self,
        scratch: &mut Scratch,
        request: &Request,
        deadline: Option<Duration>,
        corrupt: impl FnOnce(&mut Vec<u8>),
    ) -> Result<bool, CompressError> {
        let variant = &self.variants[request.variant];
        if let Mode::Region(k) = variant.mode {
            let token = deadline.map(CancelToken::with_timeout);
            self.archive.read_region_with(
                k,
                &self.windows[request.window],
                variant.compressor.as_ref(),
                ThreadPoolConfig::with_threads(1),
                &mut scratch.frame,
                &mut scratch.recon,
                ReadOptions { cancel: token.as_ref(), degraded: false },
            )?;
            return Ok(fnv::values(&scratch.recon.view()) == self.window_refs[k][request.window]);
        }
        let stream = round_trip(variant, &self.fields[request.field], scratch, corrupt)?;
        Ok(Reference::of(&stream, &scratch.recon)
            == self.references[request.variant][request.field])
    }
}

/// Compress `field` as `variant`, hand the stream to `corrupt`, decode it
/// into `scratch.recon`, and return the stream. Frame blocks run one after
/// another: the workers are the concurrency.
fn round_trip(
    variant: &Variant,
    field: &Field2D,
    scratch: &mut Scratch,
    corrupt: impl FnOnce(&mut Vec<u8>),
) -> Result<Vec<u8>, CompressError> {
    let compressor = variant.compressor.as_ref();
    let Mode::Framed { checksum } = variant.mode else {
        let mut stream = compressor.compress_view_with(&field.view(), BOUND, &mut scratch.arena)?;
        corrupt(&mut stream);
        compressor.decompress_view_with(&stream, &mut scratch.arena, &mut scratch.recon)?;
        return Ok(stream);
    };
    let pool = ThreadPoolConfig::with_threads(1);
    let tile = (field.ny().div_ceil(FRAMED_BLOCKS), field.nx());
    let (mut stream, _) = compress_frame(
        compressor,
        &field.view(),
        BOUND,
        tile,
        checksum,
        pool,
        &mut scratch.frame,
        |_| (),
    )?;
    corrupt(&mut stream);
    decompress_framed_with(compressor, &stream, pool, &mut scratch.frame, &mut scratch.recon)?;
    Ok(stream)
}
