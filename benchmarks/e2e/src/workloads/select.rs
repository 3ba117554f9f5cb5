//! `select`: the paper's loop as one request. One client, pool width `T`.
//! Correlation statistics of a pool field → the predictor picks one of
//! `sz`, `zfp`, `mgard` → compress with it → decompress → verify.

use std::time::Instant;

use crate::alloc;
use crate::harness::{drive_direct, judge, summarize, Client, Plan, Req, Sample, Stop};
use crate::metrics::Layers;
use crate::pool::{self, Pool, FIELD_BYTES};
use crate::rng::Rng;
use crate::surface::{
    self, Codec, CorrelationStatistics, ErrorBound, Field2D, Predictor, ScratchArena, BASELINES,
};
use crate::trace::{aggregate, now_ns, Tracer};
use crate::verify::Failure;
use crate::workloads::{
    codec_rows, common_layers, setup_rows, span_median, timed_setup, Config, Report,
};

const N_BOUNDS: usize = 4;

struct Setup {
    pool: Pool,
    codecs: Vec<Codec>,
    bounds: [ErrorBound; N_BOUNDS],
    predictor: Predictor,
    /// Ratio of each baseline on each (field, bound), measured at set-up.
    oracle: Vec<[f64; 3]>,
    sweep_s: f64,
    fit_s: f64,
    cells: usize,
    oracle_s: f64,
}

struct State {
    arena: ScratchArena,
    recon: Field2D,
}

fn combo(field: usize, bound: usize) -> u32 {
    (field * N_BOUNDS + bound) as u32
}

fn setup(cfg: &Config) -> Result<Setup, String> {
    let mut pool = pool::generate(cfg.seed, cfg.threads);
    let (training, train_synth_s) = pool::training_set(cfg.seed, cfg.threads);
    pool.synth_s += train_synth_s;
    let codecs = surface::codecs();
    let bounds = surface::paper_bounds();
    let labelled = training.into_iter().map(|(f, a)| (format!("train-a{a:.2}"), f, a)).collect();
    let training = surface::train_predictor(labelled, &codecs, cfg.threads)?;

    let t0 = Instant::now();
    let n_combos = pool.fields.len() * N_BOUNDS;
    let oracle = pool::parallel_jobs(cfg.threads, n_combos, |c| {
        let view = pool.fields[c / N_BOUNDS].view();
        let mut arena = ScratchArena::new();
        BASELINES.map(|b| match codecs[b].compress(&view, bounds[c % N_BOUNDS], &mut arena) {
            Ok(stream) => FIELD_BYTES as f64 / stream.len() as f64,
            Err(_) => 0.0,
        })
    });
    let oracle_s = t0.elapsed().as_secs_f64();

    Ok(Setup {
        pool,
        codecs,
        bounds,
        predictor: training.predictor,
        oracle,
        sweep_s: training.sweep_s,
        fit_s: training.fit_s,
        cells: training.cells,
        oracle_s,
    })
}

/// Four units of eight requests: each unit reads every field once and
/// every bound twice, and the four together every (field, bound) once.
fn units(seed: u64, fields: usize) -> Vec<Vec<u32>> {
    let mut rng = Rng::fork(seed, 400);
    let mut first_bound: Vec<usize> = (0..fields).map(|f| f % N_BOUNDS).collect();
    rng.shuffle(&mut first_bound);
    (0..N_BOUNDS)
        .map(|u| {
            let mut order: Vec<usize> = (0..fields).collect();
            rng.shuffle(&mut order);
            order.into_iter().map(|f| combo(f, (first_bound[f] + u) % N_BOUNDS)).collect()
        })
        .collect()
}

/// The statistics of a traced request: the three calls `compute_view`
/// makes, each under its own span.
fn stats_traced(
    tracer: &mut Tracer,
    view: &surface::FieldView<'_>,
    threads: usize,
) -> CorrelationStatistics {
    let cfg = surface::stats_config(threads);
    tracer.span("core.stats", 0, |t| {
        let (global_range, global_sill) =
            t.span("geostat.global_variogram", 0, |_| surface::stats_global_variogram(view, &cfg));
        let local_range_std =
            t.span("geostat.local_range", 0, |_| surface::stats_local_range(view, &cfg));
        let local_svd_std =
            t.span("geostat.local_svd", 0, |_| surface::stats_local_svd(view, &cfg));
        CorrelationStatistics { global_range, global_sill, local_range_std, local_svd_std }
    })
}

fn serve(s: &Setup, threads: usize, st: &mut State, tracer: &mut Tracer, req: &Req) -> Sample {
    let field = req.combo as usize / N_BOUNDS;
    let bound = s.bounds[req.combo as usize % N_BOUNDS];
    let view = s.pool.fields[field].view();
    let mut sample = Sample { raw_bytes: FIELD_BYTES, ..Sample::default() };

    let t0 = now_ns();
    let stats = if tracer.enabled() {
        stats_traced(tracer, &view, threads)
    } else {
        surface::stats_composite(&view, &surface::stats_config(threads))
    };
    let choice = tracer.span("core.predict", 0, |_| s.predictor.select(&stats, bound, &s.codecs));
    let Some((chosen, predicted)) = choice else {
        sample.lat_ns = now_ns() - t0;
        sample.failure = Some(Failure::Error("no model covers the field's statistics".into()));
        return sample;
    };
    let codec = &s.codecs[chosen];
    let outcome = tracer
        .span(codec.span_compress, FIELD_BYTES, |_| codec.compress(&view, bound, &mut st.arena))
        .and_then(|stream| {
            sample.out_bytes = stream.len() as u64;
            tracer.span(codec.span_decompress, FIELD_BYTES, |_| {
                codec.decompress(&stream, &mut st.arena, &mut st.recon)
            })
        });
    sample.lat_ns = now_ns() - t0;
    sample.aux = [predicted, chosen as f64];

    let verdict = tracer.span("bench.verify", 0, |_| {
        judge(outcome, &view, &mut st.recon, bound.raw_epsilon(), req.fault)
    });
    sample.judged(verdict)
}

/// The predictor's rows, over the distinct verified (field, bound) pairs.
fn predictor_rows(layers: &mut Layers, s: &Setup, samples: &[&Sample]) {
    let mut distinct = std::collections::BTreeMap::new();
    for sample in samples.iter().filter(|s| s.failure.is_none()) {
        distinct.insert(sample.combo, (sample.aux[0], sample.aux[1] as usize, sample.out_bytes));
    }
    if distinct.is_empty() {
        return;
    }
    let (mut errs, mut regret, mut agree) = (Vec::new(), 0.0, 0usize);
    for (&c, &(predicted, chosen, out_bytes)) in &distinct {
        let achieved = FIELD_BYTES as f64 / out_bytes as f64;
        errs.push((predicted / achieved).ln().abs());
        let ratios = s.oracle[c as usize];
        let best = ratios.iter().copied().fold(0.0, f64::max);
        regret += (best - achieved).max(0.0) / best;
        let slot = BASELINES.iter().position(|&b| b == chosen).expect("chosen among baselines");
        agree += usize::from(ratios[slot] == best);
    }
    errs.sort_by(f64::total_cmp);
    let rank = |p: f64| errs[((p * errs.len() as f64).ceil() as usize).clamp(1, errs.len()) - 1];
    layers.set("core.pred_abs_log_err_p50", rank(0.5));
    layers.set("core.pred_abs_log_err_p90", rank(0.9));
    layers.set("core.select_regret", regret / distinct.len() as f64);
    layers.set("core.select_agree_frac", agree as f64 / distinct.len() as f64);
}

/// Requests per second of `n_units` units at pool width `threads`.
fn rate_at(s: &Setup, units: &[Vec<u32>], threads: usize, n_units: usize) -> f64 {
    let mut client = Client::new(State { arena: ScratchArena::new(), recon: Field2D::zeros(1, 1) });
    let plan = Plan { stop: Stop::Units(n_units), trace: false, self_test: false };
    let phase = drive_direct(&mut client, units, plan, |st, t, r| serve(s, threads, st, t, r));
    client.samples.len() as f64 / phase.wall_s
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let (s, pass_s) = timed_setup(|| setup(cfg))?;
    let units = units(cfg.seed, s.pool.fields.len());
    let mut client = Client::new(State { arena: ScratchArena::new(), recon: Field2D::zeros(1, 1) });

    let warm = drive_direct(&mut client, &units, cfg.warmup(1), |st, t, r| {
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
    codec_rows(&mut layers, &s.codecs, &spans, &samples, |s| Some(s.aux[1] as usize));
    predictor_rows(&mut layers, &s, &samples);
    layers.set("geostat.global_variogram_ms", span_median(&spans, "geostat.global_variogram", 1e6));
    layers.set("geostat.local_range_ms", span_median(&spans, "geostat.local_range", 1e6));
    layers.set("geostat.local_svd_ms", span_median(&spans, "geostat.local_svd", 1e6));
    layers.set("core.stats_compute_ms", span_median(&spans, "core.stats", 1e6));
    layers.set("core.predict_us", span_median(&spans, "core.predict", 1e3));
    let window = surface::stats_config(1).window;
    layers.set("geostat.windows_per_req", ((pool::N / window) * (pool::N / window)) as f64);
    if let Some(request) = spans.get("request") {
        let geostat: u64 =
            spans.iter().filter(|(n, _)| n.starts_with("geostat.")).map(|(_, t)| t.self_ns).sum();
        layers.set("geostat.self_share", geostat as f64 / request.dur_ns as f64);
    }
    layers.set("core.train_sweep_s", s.sweep_s);
    layers.set("core.train_cells", s.cells as f64);
    layers.set("core.fit_ms", s.fit_s * 1e3);
    layers.set("bench.oracle_s", s.oracle_s);
    setup_rows(&mut layers, &s.pool, pass_s, &warm);
    if cfg.trace {
        crate::probe::kernels(&mut layers, &s.pool, &s.codecs, cfg.threads);
        let eff = if cfg.threads > 1 {
            let half: Vec<Vec<u32>> = vec![units[0][..units[0].len() / 2].to_vec()];
            rate_at(&s, &half, cfg.threads, 1) / (cfg.threads as f64 * rate_at(&s, &half, 1, 1))
        } else {
            1.0
        };
        layers.set("par.parallel_eff", eff);
    }

    Ok(Report { summary, setup_s, peak_heap_mb, layers, tracers: vec![client.tracer], spans })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_units_cover_every_field_and_bound_pair_once() {
        let units = units(2021, 8);
        assert_eq!(units.len(), 4);
        let mut all: Vec<u32> = units.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..32).collect::<Vec<u32>>());
        for unit in &units {
            let mut fields: Vec<u32> = unit.iter().map(|c| c / 4).collect();
            fields.sort_unstable();
            assert_eq!(fields, (0..8).collect::<Vec<u32>>(), "a unit reads every field once");
            for bound in 0..4 {
                assert_eq!(unit.iter().filter(|&&c| c % 4 == bound).count(), 2);
            }
        }
        assert_eq!(units, super::units(2021, 8), "the schedule is a function of the seed");
    }

    #[test]
    fn traced_statistics_have_the_bits_of_the_composite_call() {
        let field = surface::grf_single(96, 6.0, 11);
        let view = field.view();
        let mut tracer = Tracer::new();
        tracer.start_request(0, true);
        let traced = stats_traced(&mut tracer, &view, 2);
        let composite = surface::stats_composite(&view, &surface::stats_config(2));
        for (a, b) in [
            (traced.global_range, composite.global_range),
            (traced.global_sill, composite.global_sill),
            (traced.local_range_std, composite.local_range_std),
            (traced.local_svd_std, composite.local_svd_std),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let names: Vec<_> = tracer.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("core.stats", crate::trace::NO_PARENT),
                ("geostat.global_variogram", 0),
                ("geostat.local_range", 0),
                ("geostat.local_svd", 0)
            ]
        );
    }
}
