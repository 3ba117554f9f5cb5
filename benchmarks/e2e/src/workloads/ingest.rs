//! `ingest`: one client, pool width `T`. A request builds a fresh archive
//! of the whole pool (eight tiled, checksummed `sz-rans8` entries),
//! finishes it and opens it; one seeded window per entry is then read back
//! and verified. The write side of the layers `region` reads through.

use crate::alloc;
use crate::harness::{drive_direct, judge, summarize, Client, Plan, Req, Sample, Stop};
use crate::metrics::Layers;
use crate::pool::{self, Pool, FIELD_BYTES, N};
use crate::rng::Rng;
use crate::surface::{
    self, Codec, ErrorBound, Field2D, FrameScratch, Reader, ThreadPoolConfig, Window, ARCHIVE_CODEC,
};
use crate::trace::{aggregate, now_ns, Tracer};
use crate::verify::{Failure, Quality};
use crate::workloads::{
    common_layers, setup_rows, span_median, timed_setup, Config, Report, BOUND,
};

struct Setup {
    pool: Pool,
    codecs: Vec<Codec>,
    seed: u64,
}

struct State {
    frames: FrameScratch,
    out: Field2D,
}

fn build(
    s: &Setup,
    threads: usize,
    st: &mut State,
    tracer: &mut Tracer,
) -> Result<(Reader, u64, u64), surface::CompressError> {
    let codec = &s.codecs[ARCHIVE_CODEC];
    let width = ThreadPoolConfig::with_threads(threads);
    let mut writer = surface::Writer::new();
    for (name, field) in s.pool.names.iter().zip(&s.pool.fields) {
        tracer.span("archive.add_entry", FIELD_BYTES, |_| {
            writer.add_entry(name, field, codec, ErrorBound::Absolute(BOUND), width, &mut st.frames)
        })?;
    }
    let bytes = tracer.span("archive.finish", 0, |_| writer.finish());
    let len = bytes.len() as u64;
    let reader = tracer.span("archive.open", 0, |_| Reader::open(bytes))?;
    let payload = reader.payload_bytes();
    Ok((reader, len, payload))
}

/// Read one seeded window of every entry back and judge each; the worst
/// reading stands for the request.
fn read_back(s: &Setup, reader: &Reader, st: &mut State, req: &Req) -> Result<Quality, Failure> {
    let mut rng = Rng::fork(s.seed ^ req.id, 800);
    let mut worst = Quality { max_err_over_bound: 0.0, psnr_db: f64::INFINITY };
    for (entry, field) in s.pool.fields.iter().enumerate() {
        let edge = 64 + rng.below(129);
        let window = Window {
            i0: rng.below(N - edge + 1),
            j0: rng.below(N - edge + 1),
            height: edge,
            width: edge,
        };
        let outcome = reader
            .read_region(
                entry,
                &window,
                &s.codecs[ARCHIVE_CODEC],
                ThreadPoolConfig::with_threads(1),
                &mut st.frames,
                &mut st.out,
            )
            .map(|_| ());
        // A fault is injected once per request, on its first entry.
        let fault = if entry == 0 { req.fault } else { crate::harness::Fault::None };
        let q = judge(outcome, &field.view().window(&window), &mut st.out, BOUND, fault)?;
        worst.max_err_over_bound = worst.max_err_over_bound.max(q.max_err_over_bound);
        worst.psnr_db = worst.psnr_db.min(q.psnr_db);
    }
    Ok(worst)
}

fn serve(s: &Setup, threads: usize, st: &mut State, tracer: &mut Tracer, req: &Req) -> Sample {
    let mut sample =
        Sample { raw_bytes: s.pool.fields.len() as u64 * FIELD_BYTES, ..Sample::default() };
    let t0 = now_ns();
    let built = build(s, threads, st, tracer);
    sample.lat_ns = now_ns() - t0;
    let verdict = tracer.span("bench.verify", 0, |_| match built {
        Ok((reader, len, payload)) => {
            sample.out_bytes = len;
            sample.aux = [len as f64, payload as f64];
            read_back(s, &reader, st, req)
        }
        Err(e) => Err(Failure::Error(e.to_string())),
    });
    sample.judged(verdict)
}

fn new_client() -> Client<State> {
    Client::new(State { frames: FrameScratch::new(), out: Field2D::zeros(1, 1) })
}

/// Requests per second of `n` requests at pool width `threads`.
fn rate_at(s: &Setup, threads: usize, n: usize) -> f64 {
    let mut client = new_client();
    let plan = Plan { stop: Stop::Units(n), trace: false, self_test: false };
    let phase = drive_direct(&mut client, &[vec![0]], plan, |st, t, r| serve(s, threads, st, t, r));
    n as f64 / phase.wall_s
}

fn setup(cfg: &Config) -> Result<Setup, String> {
    let pool = pool::generate(cfg.seed, cfg.threads);
    Ok(Setup { pool, codecs: surface::codecs(), seed: cfg.seed })
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let (s, pass_s) = timed_setup(|| setup(cfg))?;
    // Every request builds the same archive: one unit of one request.
    let units = [vec![0u32]];
    let mut client = new_client();

    let warm = drive_direct(&mut client, &units, cfg.warmup(3), |st, t, r| {
        serve(&s, cfg.threads, st, t, r)
    });
    client.samples.clear();
    let allocs0 = alloc::calls();
    let setup_s = now_ns() as f64 / 1e9;
    let phase = drive_direct(&mut client, &units, cfg.measured(), |st, t, r| {
        serve(&s, cfg.threads, st, t, r)
    });
    let allocs = alloc::calls() - allocs0;
    let peak_heap_mb = alloc::peak_heap_mb();

    let samples: Vec<&Sample> = client.samples.iter().collect();
    let summary = summarize(samples.iter().copied(), &phase);
    let spans = aggregate(&[&client.tracer]);

    let mut layers = Layers::default();
    common_layers(&mut layers, &samples, &phase, 1, allocs);
    layers.set("archive.add_entry_ms", span_median(&spans, "archive.add_entry", 1e6));
    layers.set("archive.finish_us", span_median(&spans, "archive.finish", 1e3));
    layers.set("archive.open_us", span_median(&spans, "archive.open", 1e3));
    if let Some(built) = samples.iter().find(|s| s.failure.is_none()) {
        let [len, payload] = built.aux;
        layers.set("archive.bytes_per_entry", payload / s.pool.fields.len() as f64);
        layers.set("archive.index_bytes_frac", (len - payload) / len);
    }
    setup_rows(&mut layers, &s.pool, pass_s, &warm);
    if cfg.trace {
        crate::probe::kernels(&mut layers, &s.pool, &s.codecs, cfg.threads);
        let eff = if cfg.threads > 1 {
            rate_at(&s, cfg.threads, 4) / (cfg.threads as f64 * rate_at(&s, 1, 4))
        } else {
            1.0
        };
        layers.set("par.parallel_eff", eff);
    }

    Ok(Report { summary, setup_s, peak_heap_mb, layers, tracers: vec![client.tracer], spans })
}
