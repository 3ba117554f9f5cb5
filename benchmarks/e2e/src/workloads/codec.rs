//! `codec`: `T` clients of pool width 1 behind the bounded queue, each
//! request one of 5 codecs × {single stream, 4-block frame} × 8 pool
//! fields: compress and decompress into reused scratch, then verify.
//! `geostat` does no work here.

use crate::harness::{drive_queue, judge, summarize, Client, Req, Sample};
use crate::metrics::Layers;
use crate::pool::{self, Pool, FIELD_BYTES};
use crate::rng::Rng;
use crate::surface::{
    self, Codec, ErrorBound, Field2D, FrameScratch, ScratchArena, ThreadPoolConfig,
};
use crate::trace::{aggregate, now_ns, Tracer};
use crate::workloads::{codec_rows, common_layers, setup_rows, timed_setup, Config, Report, BOUND};
use crate::{alloc, stats};

/// Row blocks of a framed request.
const FRAME_BLOCKS: usize = 4;

struct Setup {
    pool: Pool,
    codecs: Vec<Codec>,
}

struct State {
    arena: ScratchArena,
    frames: FrameScratch,
    recon: Field2D,
}

/// `combo` = ((codec × 2) + framed) × fields + field.
fn split(combo: u32, fields: usize) -> (usize, bool, usize) {
    let c = combo as usize;
    (c / (2 * fields), (c / fields) % 2 == 1, c % fields)
}

fn serve(s: &Setup, st: &mut State, tracer: &mut Tracer, req: &Req) -> Sample {
    let (codec, framed, field) = split(req.combo, s.pool.fields.len());
    let codec = &s.codecs[codec];
    let view = s.pool.fields[field].view();
    let bound = ErrorBound::Absolute(BOUND);
    let one = ThreadPoolConfig::with_threads(1);
    let mut sample = Sample { raw_bytes: FIELD_BYTES, ..Sample::default() };

    let t0 = now_ns();
    let outcome = if framed {
        tracer
            .span("pressio.frame_compress", FIELD_BYTES, |_| {
                codec.compress_framed(&view, bound, FRAME_BLOCKS, one, &mut st.frames)
            })
            .and_then(|stream| {
                sample.out_bytes = stream.len() as u64;
                tracer.span("pressio.frame_decompress", FIELD_BYTES, |_| {
                    codec.decompress_framed(&stream, one, &mut st.frames, &mut st.recon)
                })
            })
    } else {
        tracer
            .span(codec.span_compress, FIELD_BYTES, |_| codec.compress(&view, bound, &mut st.arena))
            .and_then(|stream| {
                sample.out_bytes = stream.len() as u64;
                tracer.span(codec.span_decompress, FIELD_BYTES, |_| {
                    codec.decompress(&stream, &mut st.arena, &mut st.recon)
                })
            })
    };
    sample.lat_ns = now_ns() - t0;

    let verdict =
        tracer.span("bench.verify", 0, |_| judge(outcome, &view, &mut st.recon, BOUND, req.fault));
    sample.judged(verdict)
}

fn setup(cfg: &Config) -> Result<Setup, String> {
    Ok(Setup { pool: pool::generate(cfg.seed, cfg.threads), codecs: surface::codecs() })
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let (s, pass_s) = timed_setup(|| setup(cfg))?;
    let fields = s.pool.fields.len();
    let mut unit: Vec<u32> = (0..(s.codecs.len() * 2 * fields) as u32).collect();
    Rng::fork(cfg.seed, 500).shuffle(&mut unit);
    let units = [unit];
    let mut clients: Vec<Client<State>> = (0..cfg.threads)
        .map(|_| {
            Client::new(State {
                arena: ScratchArena::new(),
                frames: FrameScratch::new(),
                recon: Field2D::zeros(1, 1),
            })
        })
        .collect();

    let warm = drive_queue(&mut clients, &units, cfg.warmup(1), |st, t, r| serve(&s, st, t, r));
    clients.iter_mut().for_each(|c| c.samples.clear());
    let allocs0 = alloc::calls();
    let setup_s = now_ns() as f64 / 1e9;
    let phase = drive_queue(&mut clients, &units, cfg.measured(), |st, t, r| serve(&s, st, t, r));
    let allocs = alloc::calls() - allocs0;
    let peak_heap_mb = alloc::peak_heap_mb();

    let samples: Vec<&Sample> = clients.iter().flat_map(|c| c.samples.iter()).collect();
    let summary = summarize(samples.iter().copied(), &phase);
    let tracers: Vec<&Tracer> = clients.iter().map(|c| &c.tracer).collect();
    let spans = aggregate(&tracers);

    let mut layers = Layers::default();
    common_layers(&mut layers, &samples, &phase, clients.len(), allocs);
    codec_rows(&mut layers, &s.codecs, &spans, &samples, |sample| {
        let (codec, framed, _) = split(sample.combo, fields);
        (!framed).then_some(codec)
    });
    if let Some(t) = spans.get("pressio.frame_compress") {
        layers.set("pressio.framed_compress_mb_s", t.mb_per_s());
    }
    if let Some(t) = spans.get("pressio.frame_decompress") {
        layers.set("pressio.framed_decompress_mb_s", t.mb_per_s());
    }
    let mut psnr = std::collections::BTreeMap::new();
    for sample in &samples {
        if let Some(q) = sample.quality {
            psnr.insert(sample.combo, q.psnr_db);
        }
    }
    layers.set("pressio.psnr_db", stats::median(&psnr.into_values().collect::<Vec<f64>>()));
    setup_rows(&mut layers, &s.pool, pass_s, &warm);
    if cfg.trace {
        crate::probe::kernels(&mut layers, &s.pool, &s.codecs, cfg.threads);
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
    fn combos_enumerate_codec_framing_and_field() {
        let mut seen = std::collections::BTreeSet::new();
        for combo in 0..80 {
            let (codec, framed, field) = split(combo, 8);
            assert!(codec < 5 && field < 8);
            assert!(seen.insert((codec, framed, field)));
        }
        assert_eq!(split(0, 8), (0, false, 0));
        assert_eq!(split(79, 8), (4, true, 7));
    }
}
