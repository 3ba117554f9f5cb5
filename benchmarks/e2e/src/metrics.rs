//! The names, units and directions of every metric, in print order. This
//! table is the source of `BENCHMARK.json` (`lcc-e2e --benchmark-json`
//! prints it; a unit test holds the committed file to it).

use std::collections::BTreeMap;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "select",
        why: "the paper's loop as one request: statistics, predicted ratio, chosen codec, decode; \
              geostat and linalg own most of it, so predictor work shows here and nowhere else",
    },
    Workload {
        name: "codec",
        why: "five codecs, single-stream and framed, through the bounded queue; geostat does \
              nothing here, so predictor work must read no change",
    },
    Workload {
        name: "region",
        why: "Zipf window reads of an archive four times the tile cache, so index, hit, miss and \
              eviction paths all run; bypasses geostat and the encode side",
    },
    Workload {
        name: "ingest",
        why: "archive writes beside region's reads: tiled, checksummed, block-parallel encode, \
              so a read-side gain that costs the write path shows",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The least bound the metric is given, whatever the noise.
    pub floor: f64,
    /// Share of the parent's median by which the metric may get worse:
    /// the larger of `floor` and three times the spread `--calibrate`
    /// measured, capped at the 0.25 the benchmark contract allows
    /// (README.md records the measurement).
    pub bound: f64,
}

/// Seconds one run measures, `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 27;

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", floor: 0.15, bound: 0.25 },
    EndToEnd { name: "req_per_s", unit: "1/s", better: "higher", floor: 0.07, bound: 0.25 },
    EndToEnd { name: "mb_per_s", unit: "MB/s", better: "higher", floor: 0.07, bound: 0.25 },
    EndToEnd { name: "p50_ms", unit: "ms", better: "lower", floor: 0.07, bound: 0.25 },
    EndToEnd { name: "p90_ms", unit: "ms", better: "lower", floor: 0.10, bound: 0.25 },
    EndToEnd { name: "ratio", unit: "x", better: "higher", floor: 0.005, bound: 0.01 },
    EndToEnd { name: "peak_heap_mb", unit: "MB", better: "lower", floor: 0.05, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn row(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

const LOW: &str = "lower";
const HIGH: &str = "higher";

pub const PER_LAYER: [PerLayer; 80] = [
    row("geostat.global_variogram_ms", "ms", LOW),
    row("geostat.local_range_ms", "ms", LOW),
    row("geostat.local_svd_ms", "ms", LOW),
    row("geostat.window_range_us", "us", LOW),
    row("geostat.window_svd_us", "us", LOW),
    row("geostat.windows_per_req", "count", LOW),
    row("geostat.self_share", "frac", LOW),
    row("core.stats_compute_ms", "ms", LOW),
    row("core.predict_us", "us", LOW),
    row("core.train_sweep_s", "s", LOW),
    row("core.train_cells", "count", LOW),
    row("core.fit_ms", "ms", LOW),
    row("core.pred_abs_log_err_p50", "ln", LOW),
    row("core.pred_abs_log_err_p90", "ln", LOW),
    row("core.select_regret", "frac", LOW),
    row("core.select_agree_frac", "frac", HIGH),
    row("sz.compress_mb_s", "MB/s", HIGH),
    row("sz.decompress_mb_s", "MB/s", HIGH),
    row("sz.ratio", "x", HIGH),
    row("sz.max_err_over_bound", "frac", LOW),
    row("sz.rans8_compress_mb_s", "MB/s", HIGH),
    row("sz.rans8_decompress_mb_s", "MB/s", HIGH),
    row("sz.rans8_ratio", "x", HIGH),
    row("sz.rans8_max_err_over_bound", "frac", LOW),
    row("zfp.compress_mb_s", "MB/s", HIGH),
    row("zfp.decompress_mb_s", "MB/s", HIGH),
    row("zfp.ratio", "x", HIGH),
    row("zfp.max_err_over_bound", "frac", LOW),
    row("mgard.compress_mb_s", "MB/s", HIGH),
    row("mgard.decompress_mb_s", "MB/s", HIGH),
    row("mgard.ratio", "x", HIGH),
    row("mgard.max_err_over_bound", "frac", LOW),
    row("mgard.rans8_compress_mb_s", "MB/s", HIGH),
    row("mgard.rans8_decompress_mb_s", "MB/s", HIGH),
    row("mgard.rans8_ratio", "x", HIGH),
    row("mgard.rans8_max_err_over_bound", "frac", LOW),
    row("lossless.huffman_enc_mb_s", "MB/s", HIGH),
    row("lossless.huffman_dec_mb_s", "MB/s", HIGH),
    row("lossless.rans8_enc_mb_s", "MB/s", HIGH),
    row("lossless.rans8_dec_mb_s", "MB/s", HIGH),
    row("lossless.lz77_enc_mb_s", "MB/s", HIGH),
    row("lossless.lz77_dec_mb_s", "MB/s", HIGH),
    row("lossless.xxh64_mb_s", "MB/s", HIGH),
    row("pressio.framed_compress_mb_s", "MB/s", HIGH),
    row("pressio.framed_decompress_mb_s", "MB/s", HIGH),
    row("pressio.frame_overhead_frac", "frac", LOW),
    row("pressio.tiled_compress_mb_s", "MB/s", HIGH),
    row("pressio.psnr_db", "dB", HIGH),
    row("par.queue_wait_us_p50", "us", LOW),
    row("par.queue_wait_us_p90", "us", LOW),
    row("par.push_block_us_p90", "us", LOW),
    row("par.worker_busy_frac", "frac", HIGH),
    row("par.job_panics", "count", LOW),
    row("par.parallel_eff", "frac", HIGH),
    row("archive.open_us", "us", LOW),
    row("archive.read_hot_us_p50", "us", LOW),
    row("archive.read_cold_us_p50", "us", LOW),
    row("archive.cache_hit_rate", "frac", HIGH),
    row("archive.tiles_per_req", "count", LOW),
    row("archive.tiles_decoded_per_req", "count", LOW),
    row("archive.evictions_per_req", "count", LOW),
    row("archive.cache_resident_mb", "MB", LOW),
    row("archive.read_entry_ms", "ms", LOW),
    row("archive.add_entry_ms", "ms", LOW),
    row("archive.finish_us", "us", LOW),
    row("archive.bytes_per_entry", "B", LOW),
    row("archive.index_bytes_frac", "frac", LOW),
    row("synth.generate_s", "s", LOW),
    row("hydro.generate_s", "s", LOW),
    row("bench.oracle_s", "s", LOW),
    row("bench.archive_build_s", "s", LOW),
    row("bench.warmup_s", "s", LOW),
    row("bench.setup_pass_s", "s", LOW),
    row("bench.setup_peak_heap_mb", "MB", LOW),
    row("bench.peak_rss_mb", "MB", LOW),
    row("bench.trace_overhead_frac", "frac", LOW),
    row("bench.allocs_per_req", "count", LOW),
    row("bench.timer_ns", "ns", LOW),
    row("bench.p99_ms", "ms", LOW),
    row("bench.samples", "count", HIGH),
];

/// Values of a run's per-layer metrics. A metric whose layer is not on
/// the workload's path stays 0: that is the reading "this layer did no
/// work here", and the traced run prints it on every workload.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// # Panics
    /// Panics on a name that is not in [`PER_LAYER`]: a bug in this crate.
    pub fn set(&mut self, name: &str, value: f64) {
        let row = PER_LAYER
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values.insert(row.name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmarks/e2e/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmarks/e2e\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            crate::json::escape(w.name),
            crate::json::escape(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            crate::json::escape(m.name),
            crate::json::escape(m.unit),
            crate::json::escape(m.better),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            crate::json::escape(m.name),
            crate::json::escape(m.unit),
            crate::json::escape(m.better)
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric(), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(well_formed(unit, 16, "_/%.-"), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound >= m.floor && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn committed_benchmark_json_is_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with `lcc-e2e --benchmark-json`");
    }
}
