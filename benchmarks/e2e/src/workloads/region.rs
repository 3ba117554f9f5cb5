//! `region`: `T` clients share one tile cache over an in-memory archive of
//! the pool (`sz-rans8`, 64×64 tiles). A request reads a window 64…192
//! cells square, not tile-aligned, drawn Zipf(1.1) from 1024 fixed
//! candidates, and is verified against the original field. The cache
//! budget is a quarter of the decoded archive, so hits, misses and
//! evictions all happen.

use std::time::Instant;

use crate::harness::{drive_queue, judge, summarize, Client, Req, Sample};
use crate::metrics::Layers;
use crate::pool::{self, Pool, FIELD_BYTES, N};
use crate::rng::{Rng, Zipf};
use crate::surface::{
    self, Cache, Codec, ErrorBound, Field2D, FrameScratch, Reader, ThreadPoolConfig, Window,
    ARCHIVE_CODEC,
};
use crate::trace::{aggregate, now_ns, Tracer};
use crate::workloads::{common_layers, setup_rows, timed_setup, Config, Report, BOUND};
use crate::{alloc, stats};

/// Decoded-tile budget: 4 MB against 16.8 MB of decoded archive.
const CACHE_BYTES: usize = 4_000_000;
const CANDIDATES: usize = 1024;
const CANDIDATE_SEED: u64 = 2021;
const ZIPF_S: f64 = 1.1;
/// Requests of the one unit.
const UNIT_REQUESTS: usize = 4096;
const MIN_EDGE: usize = 64;
const MAX_EDGE: usize = 192;

struct Setup {
    pool: Pool,
    codecs: Vec<Codec>,
    reader: Reader,
    cache: Cache,
    archive_bytes: u64,
    payload_bytes: u64,
    windows: Vec<(usize, Window)>,
    build_s: f64,
    open_us: f64,
}

struct State {
    frames: FrameScratch,
    out: Field2D,
}

/// The archive of the pool, as `ingest` also builds it.
fn build_archive(pool: &Pool, codec: &Codec, threads: usize) -> Result<Vec<u8>, String> {
    let mut writer = surface::Writer::new();
    let mut frames = FrameScratch::new();
    let width = ThreadPoolConfig::with_threads(threads);
    for (name, field) in pool.names.iter().zip(&pool.fields) {
        writer
            .add_entry(name, field, codec, ErrorBound::Absolute(BOUND), width, &mut frames)
            .map_err(|e| format!("archive build: {e}"))?;
    }
    Ok(writer.finish())
}

/// The candidate windows: entry, origin and edge. They are the same for
/// every seed (rank `r` of the Zipf draw is always the same window), so
/// that the seed changes the field contents and the order of the reads but
/// not how much of the archive is hot.
pub fn candidates(entries: usize) -> Vec<(usize, Window)> {
    let mut rng = Rng::fork(CANDIDATE_SEED, 600);
    (0..CANDIDATES)
        .map(|_| {
            let entry = rng.below(entries);
            let edge = MIN_EDGE + rng.below(MAX_EDGE - MIN_EDGE + 1);
            let (i0, j0) = (rng.below(N - edge + 1), rng.below(N - edge + 1));
            (entry, Window { i0, j0, height: edge, width: edge })
        })
        .collect()
}

fn setup(cfg: &Config) -> Result<Setup, String> {
    let pool = pool::generate(cfg.seed, cfg.threads);
    let codecs = surface::codecs();
    let t0 = Instant::now();
    let bytes = build_archive(&pool, &codecs[ARCHIVE_CODEC], cfg.threads)?;
    let build_s = t0.elapsed().as_secs_f64();
    let archive_bytes = bytes.len() as u64;

    let mut opens = Vec::new();
    for _ in 0..5 {
        let copy = bytes.clone();
        let t0 = Instant::now();
        Reader::open(copy).map_err(|e| format!("archive open: {e}"))?;
        opens.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let cache = Cache::new(CACHE_BYTES);
    let reader = Reader::open(bytes).map_err(|e| format!("archive open: {e}"))?.with_cache(&cache);
    let payload_bytes = reader.payload_bytes();
    let windows = candidates(pool.fields.len());
    Ok(Setup {
        pool,
        codecs,
        reader,
        cache,
        archive_bytes,
        payload_bytes,
        windows,
        build_s,
        open_us: stats::median(&opens),
    })
}

fn serve(s: &Setup, st: &mut State, tracer: &mut Tracer, req: &Req) -> Sample {
    let (entry, window) = &s.windows[req.combo as usize];
    let original = s.pool.fields[*entry].view().window(window);
    let mut sample = Sample { raw_bytes: (window.len() * 8) as u64, ..Sample::default() };

    let t0 = now_ns();
    let outcome = tracer.span("archive.read_region", sample.raw_bytes, |_| {
        s.reader.read_region(
            *entry,
            window,
            &s.codecs[ARCHIVE_CODEC],
            ThreadPoolConfig::with_threads(1),
            &mut st.frames,
            &mut st.out,
        )
    });
    sample.lat_ns = now_ns() - t0;
    let outcome = outcome.map(|stats| {
        sample.aux = [stats.tiles as f64, stats.tiles_from_cache as f64];
    });

    let verdict = tracer
        .span("bench.verify", 0, |_| judge(outcome, &original, &mut st.out, BOUND, req.fault));
    sample.judged(verdict)
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let (s, pass_s) = timed_setup(|| setup(cfg))?;
    let zipf = Zipf::new(CANDIDATES, ZIPF_S);
    let mut rng = Rng::fork(cfg.seed, 700);
    let units = [(0..UNIT_REQUESTS).map(|_| zipf.sample(&mut rng) as u32).collect::<Vec<u32>>()];
    let mut clients: Vec<Client<State>> = (0..cfg.threads)
        .map(|_| Client::new(State { frames: FrameScratch::new(), out: Field2D::zeros(1, 1) }))
        .collect();

    // Two units, so the cache is in its steady state when timing starts.
    let warm = drive_queue(&mut clients, &units, cfg.warmup(2), |st, t, r| serve(&s, st, t, r));
    clients.iter_mut().for_each(|c| c.samples.clear());
    let cache0 = s.cache.stats();
    let allocs0 = alloc::calls();
    let setup_s = now_ns() as f64 / 1e9;
    let phase = drive_queue(&mut clients, &units, cfg.measured(), |st, t, r| serve(&s, st, t, r));
    let allocs = alloc::calls() - allocs0;
    let peak_heap_mb = alloc::peak_heap_mb();
    let cache1 = s.cache.stats();

    let samples: Vec<&Sample> = clients.iter().flat_map(|c| c.samples.iter()).collect();
    let mut summary = summarize(samples.iter().copied(), &phase);
    // A read puts out no bytes of its own: the ratio is the archive's.
    summary.ratio = (s.pool.fields.len() as u64 * FIELD_BYTES) as f64 / s.archive_bytes as f64;
    let tracers: Vec<&Tracer> = clients.iter().map(|c| &c.tracer).collect();
    let spans = aggregate(&tracers);

    let mut layers = Layers::default();
    common_layers(&mut layers, &samples, &phase, clients.len(), allocs);
    let n = samples.len().max(1) as f64;
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    layers.set("archive.cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    layers.set("archive.evictions_per_req", (cache1.evictions - cache0.evictions) as f64 / n);
    layers.set("archive.cache_resident_mb", cache1.bytes as f64 / 1e6);
    let tiles: f64 = samples.iter().map(|s| s.aux[0]).sum();
    let cached: f64 = samples.iter().map(|s| s.aux[1]).sum();
    layers.set("archive.tiles_per_req", tiles / n);
    layers.set("archive.tiles_decoded_per_req", (tiles - cached) / n);
    let median_us = |pick: &dyn Fn(&Sample) -> bool| {
        let mut lat: Vec<u64> = samples.iter().filter(|s| pick(s)).map(|s| s.lat_ns).collect();
        stats::percentile(&mut lat, 50.0) as f64 / 1e3
    };
    layers.set("archive.read_hot_us_p50", median_us(&|s| s.aux[0] > 0.0 && s.aux[1] == s.aux[0]));
    layers.set("archive.read_cold_us_p50", median_us(&|s| s.aux[0] > 0.0 && s.aux[1] == 0.0));
    layers.set("archive.open_us", s.open_us);
    layers.set("archive.bytes_per_entry", s.payload_bytes as f64 / s.pool.fields.len() as f64);
    layers.set(
        "archive.index_bytes_frac",
        (s.archive_bytes - s.payload_bytes) as f64 / s.archive_bytes as f64,
    );
    layers.set("bench.archive_build_s", s.build_s);
    setup_rows(&mut layers, &s.pool, pass_s, &warm);
    if cfg.trace {
        crate::probe::kernels(&mut layers, &s.pool, &s.codecs, cfg.threads);
        let mut whole = Vec::new();
        let state = &mut clients[0].state;
        for _ in 0..3 {
            let t0 = Instant::now();
            s.reader
                .read_entry(
                    0,
                    &s.codecs[ARCHIVE_CODEC],
                    ThreadPoolConfig::with_threads(cfg.threads),
                    &mut state.frames,
                    &mut state.out,
                )
                .map_err(|e| format!("read_entry: {e}"))?;
            whole.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        layers.set("archive.read_entry_ms", stats::median(&whole));
    }

    Ok(Report {
        summary,
        setup_s,
        peak_heap_mb,
        layers,
        tracers: clients.into_iter().map(|c| c.tracer).collect(),
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_windows_fit_the_field_and_straddle_tiles() {
        let windows = candidates(8);
        assert_eq!(windows.len(), CANDIDATES);
        for (entry, w) in &windows {
            assert!(*entry < 8);
            assert!((MIN_EDGE..=MAX_EDGE).contains(&w.height) && w.height == w.width);
            assert!(w.i0 + w.height <= N && w.j0 + w.width <= N);
        }
        assert!(windows.iter().any(|(_, w)| w.i0 % 64 != 0 && w.j0 % 64 != 0));
        assert_eq!(windows, candidates(8));
    }
}
