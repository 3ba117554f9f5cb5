//! The four workloads and what they share: configuration, the report, the
//! timed set-up, and the per-layer rows every workload fills the same way.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::harness::{Phase, Plan, Sample, Stop, Summary};
use crate::metrics::Layers;
use crate::pool::Pool;
use crate::stats;
use crate::surface::Codec;
use crate::trace::{SpanTotals, Tracer};

pub mod codec;
pub mod ingest;
pub mod region;
pub mod select;

/// Absolute bound of every workload but `select`, which draws from the
/// four paper bounds.
pub const BOUND: f64 = 1e-3;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `T`: threads in total (clients × pool width).
    pub threads: usize,
    pub self_test: bool,
}

impl Config {
    pub fn warmup(&self, units: usize) -> Plan {
        Plan { stop: Stop::Units(units), trace: false, self_test: false }
    }

    pub fn measured(&self) -> Plan {
        Plan { stop: Stop::Seconds(self.seconds), trace: self.trace, self_test: self.self_test }
    }
}

/// Everything a run produced.
pub struct Report {
    pub summary: Summary,
    /// Process start to the first timed request.
    pub setup_s: f64,
    /// Live bytes at their highest from the end of set-up to the end of
    /// the measured phase, in 10⁶ bytes.
    pub peak_heap_mb: f64,
    pub layers: Layers,
    /// One per client, for the trace file.
    pub tracers: Vec<Tracer>,
    /// Self time by span name, for the printed table.
    pub spans: BTreeMap<&'static str, SpanTotals>,
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload.as_str() {
        "select" => select::run(cfg),
        "codec" => codec::run(cfg),
        "region" => region::run(cfg),
        "ingest" => ingest::run(cfg),
        other => Err(format!("unknown workload {other:?}; one of select, codec, region, ingest")),
    }
}

/// Run the workload's set-up and return its state with the seconds it
/// took; what is live when it returns is where `peak_heap_mb` starts.
pub fn timed_setup<S>(setup: impl FnOnce() -> Result<S, String>) -> Result<(S, f64), String> {
    let t0 = Instant::now();
    let state = setup()?;
    let secs = t0.elapsed().as_secs_f64();
    crate::alloc::setup_done();
    Ok((state, secs))
}

fn percentile_us(values: &mut [u64], p: f64) -> f64 {
    stats::percentile(values, p) as f64 / 1e3
}

/// The `par.*` and `bench.*` rows, which every workload measures the same
/// way from its measured phase.
pub fn common_layers(
    layers: &mut Layers,
    samples: &[&Sample],
    phase: &Phase,
    clients: usize,
    allocs: u64,
) {
    let n = samples.len().max(1) as f64;
    let mut lat: Vec<u64> = samples.iter().map(|s| s.lat_ns).collect();
    layers.set("bench.samples", samples.len() as f64);
    layers.set("bench.p99_ms", stats::percentile(&mut lat, 99.0) as f64 / 1e6);
    layers.set("bench.allocs_per_req", allocs as f64 / n);

    // Traced and untraced units replay the same requests, so the ratio of
    // their mean service times is what recording spans costs.
    let mean_service = |traced: bool| {
        let picked: Vec<u64> =
            samples.iter().filter(|s| s.traced == traced).map(|s| s.service_ns).collect();
        (!picked.is_empty()).then(|| picked.iter().sum::<u64>() as f64 / picked.len() as f64)
    };
    if let (Some(on), Some(off)) = (mean_service(true), mean_service(false)) {
        layers.set("bench.trace_overhead_frac", on / off - 1.0);
    }

    let mut waits: Vec<u64> = samples.iter().map(|s| s.wait_ns).collect();
    layers.set("par.queue_wait_us_p50", percentile_us(&mut waits, 50.0));
    layers.set("par.queue_wait_us_p90", percentile_us(&mut waits, 90.0));
    let mut blocks = phase.push_block_ns.to_vec();
    layers.set("par.push_block_us_p90", percentile_us(&mut blocks, 90.0));
    let busy: u64 = samples.iter().map(|s| s.service_ns).sum();
    layers.set("par.worker_busy_frac", busy as f64 / 1e9 / (clients as f64 * phase.wall_s));
    layers.set("par.job_panics", phase.job_panics as f64);
}

/// The rows every workload's set-up fills: input generation, the whole
/// pass, the warm-up.
pub fn setup_rows(layers: &mut Layers, pool: &Pool, pass_s: f64, warm: &Phase) {
    layers.set("synth.generate_s", pool.synth_s);
    layers.set("hydro.generate_s", pool.hydro_s);
    layers.set("bench.setup_pass_s", pass_s);
    layers.set("bench.warmup_s", warm.wall_s);
}

/// `<codec>.compress_mb_s` / `.decompress_mb_s` from the spans around the
/// codec's single-stream calls, and `<codec>.ratio` /
/// `.max_err_over_bound` from the distinct verified requests that used it
/// (`codec_of` picks the codec of a sample, `None` to skip it).
pub fn codec_rows(
    layers: &mut Layers,
    codecs: &[Codec],
    spans: &BTreeMap<&'static str, SpanTotals>,
    samples: &[&Sample],
    codec_of: impl Fn(&Sample) -> Option<usize>,
) {
    for (index, codec) in codecs.iter().enumerate() {
        if let Some(t) = spans.get(codec.span_compress) {
            layers.set(&format!("{}compress_mb_s", codec.key), t.mb_per_s());
        }
        if let Some(t) = spans.get(codec.span_decompress) {
            layers.set(&format!("{}decompress_mb_s", codec.key), t.mb_per_s());
        }
        let mut distinct: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let mut worst = 0.0f64;
        for s in samples.iter().filter(|s| s.failure.is_none() && codec_of(s) == Some(index)) {
            distinct.insert(s.combo, (s.raw_bytes, s.out_bytes));
            worst = worst.max(s.quality.map_or(0.0, |q| q.max_err_over_bound));
        }
        let (raw, out) = distinct.values().fold((0, 0), |(r, o), &(dr, d_o)| (r + dr, o + d_o));
        if out > 0 {
            layers.set(&format!("{}ratio", codec.key), raw as f64 / out as f64);
            layers.set(&format!("{}max_err_over_bound", codec.key), worst);
        }
    }
}

/// Median duration of the spans called `name`, in the unit `per_ns` ns.
pub fn span_median(spans: &BTreeMap<&'static str, SpanTotals>, name: &str, per_ns: f64) -> f64 {
    spans.get(name).map_or(0.0, |t| t.median_ns() / per_ns)
}
