//! `BENCH_sweep.json`: what `bench_sweep` reports and nothing else does —
//! paper-scale (1028²) stage seconds, per-codec MB/s and ratio, seconds per
//! encode layer, the global variogram's cost, and the paper's cost ratio
//! (statistics ÷ one `sz` compress). Throughput, latency, allocation and
//! cache numbers of the serving paths come from `benchmarks/e2e`.

use std::path::Path;
use std::time::Instant;

/// Write a report's JSON to `path`, creating parent directories.
pub fn write_json(path: &Path, json: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, json)
}

/// `numerator / seconds`, with a zero time collapsing to 0 rather than ∞.
fn per_second(numerator: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        numerator / seconds
    } else {
        0.0
    }
}

/// Measured compress/decompress time of one compressor over a known
/// uncompressed payload size.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecThroughput {
    /// Compressor name (`"sz"`, `"zfp"`, `"mgard"`…).
    pub compressor: String,
    /// Uncompressed payload size in megabytes (10^6 bytes).
    pub megabytes: f64,
    /// Wall time of the compress call, seconds.
    pub compress_seconds: f64,
    /// Wall time of the decompress call, seconds.
    pub decompress_seconds: f64,
    /// Uncompressed ÷ stream size.
    pub compression_ratio: f64,
}

impl CodecThroughput {
    /// Compression throughput in MB/s.
    pub fn compress_mb_per_s(&self) -> f64 {
        per_second(self.megabytes, self.compress_seconds)
    }

    /// Decompression throughput in MB/s.
    pub fn decompress_mb_per_s(&self) -> f64 {
        per_second(self.megabytes, self.decompress_seconds)
    }
}

/// Where one compressor's compress call spends its time: seconds per encode
/// layer, in pipeline order, over repeated timed compress calls on the same
/// field.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeLayers {
    /// Compressor name (`"sz"`, `"sz-rans8"`, `"sz@64x64"`…).
    pub compressor: String,
    /// `(layer, min seconds, median seconds)` per layer.
    pub layers: Vec<(String, f64, f64)>,
    /// On a row that sums the layers over the tiles of a field: what one
    /// more stream costs, in microseconds — the row's layer minima minus
    /// those of the whole-field row, over the tile count.
    pub tile_fixed_cost_us: Option<f64>,
    /// On such a row of a `*-rans8` codec: the share of the tiles' stream
    /// bytes that is rANS frequency table rather than coded symbols.
    pub tile_table_bytes_frac: Option<f64>,
}

impl EncodeLayers {
    /// Summarize per-repetition samples: `samples[r][k]` is the seconds
    /// repetition `r` spent in layer `names[k]`.
    pub fn from_samples(
        compressor: impl Into<String>,
        names: &[&str],
        samples: &[Vec<f64>],
    ) -> Self {
        let layers = names
            .iter()
            .enumerate()
            .map(|(k, name)| {
                let mut column: Vec<f64> = samples.iter().map(|rep| rep[k]).collect();
                column.sort_by(f64::total_cmp);
                let min = column.first().copied().unwrap_or(0.0);
                let median = column.get(column.len() / 2).copied().unwrap_or(0.0);
                (name.to_string(), min, median)
            })
            .collect();
        EncodeLayers {
            compressor: compressor.into(),
            layers,
            tile_fixed_cost_us: None,
            tile_table_bytes_frac: None,
        }
    }

    /// Sum of the layers' minima: the compress call with every layer at its
    /// quickest.
    pub fn min_total_seconds(&self) -> f64 {
        self.layers.iter().map(|&(_, min, _)| min).sum()
    }
}

/// What the global variogram of the report's field costs: the pairs it sums
/// and the seconds that takes on one thread and on `threads`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariogramCost {
    /// Pairs summed over every (direction, lag) offset.
    pub pairs: u64,
    /// Seconds at pool width 1.
    pub serial_seconds: f64,
    /// Seconds at pool width `threads`.
    pub pooled_seconds: f64,
    /// The pooled run's width.
    pub threads: usize,
}

impl VariogramCost {
    /// Nanoseconds per pair at width 1 — to hold against what the pair
    /// kernel does on a row that sits in L1.
    pub fn ns_per_pair(&self) -> f64 {
        self.serial_seconds * 1e9 / (self.pairs as f64).max(1.0)
    }

    /// Speed-up at `threads` over `threads` times the width-1 rate; what is
    /// missing from 1 is the serial fraction and the pool's idle tail.
    pub fn parallel_eff(&self) -> f64 {
        self.serial_seconds / (self.threads as f64 * self.pooled_seconds.max(f64::MIN_POSITIVE))
    }
}

/// The `BENCH_sweep.json` report of one `bench_sweep` run.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Workload description (`"1028x1028"`).
    pub label: String,
    /// SIMD dispatch tier the run executed under (`"scalar"`, `"avx2"`, …).
    pub simd_level: String,
    /// `(stage, seconds)`, in the order the stages ran.
    pub stages: Vec<(String, f64)>,
    /// One row per compressor.
    pub throughput: Vec<CodecThroughput>,
    /// One row per `sz*` / `mgard*` compressor, and per-tile `sz*` rows.
    pub encode_layers: Vec<EncodeLayers>,
    /// `(rans8 streams, of which coded in the Huffman-fallback mode)`: a
    /// `*-rans8` row of such a stream measures Huffman.
    pub rans8_fallback: Option<(usize, usize)>,
    /// Cost of the global variogram on the report's field.
    pub variogram_cost: Option<VariogramCost>,
}

impl SweepReport {
    /// Run `f`, record its wall time under `stage`, and pass its result on.
    pub fn time<T>(&mut self, stage: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.stages.push((stage.to_string(), start.elapsed().as_secs_f64()));
        out
    }

    /// Seconds recorded for a stage, if present.
    pub fn seconds(&self, stage: &str) -> Option<f64> {
        self.stages.iter().find(|(name, _)| name == stage).map(|&(_, s)| s)
    }

    /// Sum of all recorded stage times.
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|&(_, s)| s).sum()
    }

    /// The paper's cost ratio: seconds of `correlation_statistics_compute`
    /// over seconds of `compress_sz` on the same field — what the predictor
    /// costs in units of the compression it steers (it has to be well below
    /// the number of candidate codecs to pay for itself). `None` unless the
    /// run recorded both stages.
    pub fn predictor_cost_over_codec_cost(&self) -> Option<f64> {
        let predictor = self.seconds("correlation_statistics_compute")?;
        let codec = self.seconds("compress_sz")?;
        (codec > 0.0).then(|| predictor / codec)
    }

    /// Serialize the report as JSON. Labels, stage and compressor names are
    /// this workspace's own identifiers, so nothing needs escaping.
    pub fn to_json(&self) -> String {
        let rows = |rows: Vec<String>| {
            if rows.is_empty() {
                "[\n  ]".to_string()
            } else {
                format!("[\n    {}\n  ]", rows.join(",\n    "))
            }
        };
        let stages = self
            .stages
            .iter()
            .map(|(name, seconds)| format!("{{\"stage\": \"{name}\", \"seconds\": {seconds:.6}}}"))
            .collect();
        let throughput = self
            .throughput
            .iter()
            .map(|t| {
                format!(
                    "{{\"compressor\": \"{}\", \"megabytes\": {:.6}, \
                     \"compress_seconds\": {:.6}, \"compress_mb_per_s\": {:.3}, \
                     \"decompress_seconds\": {:.6}, \"decompress_mb_per_s\": {:.3}, \
                     \"compression_ratio\": {:.3}}}",
                    t.compressor,
                    t.megabytes,
                    t.compress_seconds,
                    t.compress_mb_per_s(),
                    t.decompress_seconds,
                    t.decompress_mb_per_s(),
                    t.compression_ratio,
                )
            })
            .collect();
        let encode_layers = self
            .encode_layers
            .iter()
            .map(|e| {
                let layers: Vec<String> = e
                    .layers
                    .iter()
                    .map(|(layer, min, median)| {
                        format!(
                            "{{\"layer\": \"{layer}\", \"min_seconds\": {min:.6}, \
                             \"median_seconds\": {median:.6}}}"
                        )
                    })
                    .collect();
                let fixed = e
                    .tile_fixed_cost_us
                    .map_or(String::new(), |us| format!(", \"tile_fixed_cost_us\": {us:.3}"));
                let table = e.tile_table_bytes_frac.map_or(String::new(), |frac| {
                    format!(", \"tile_table_bytes_frac\": {frac:.4}")
                });
                format!(
                    "{{\"compressor\": \"{}\", \"layers\": [{}]{fixed}{table}}}",
                    e.compressor,
                    layers.join(", ")
                )
            })
            .collect();
        let mut out = format!(
            "{{\n  \"bench\": \"sweep\",\n  \"label\": \"{}\",\n  \"simd_level\": \"{}\",\n  \
             \"stages\": {},\n  \"throughput\": {},\n  \"encode_layers\": {},\n",
            self.label,
            self.simd_level,
            rows(stages),
            rows(throughput),
            rows(encode_layers)
        );
        if let Some((streams, fallback)) = self.rans8_fallback {
            out.push_str(&format!(
                "  \"rans8_huffman_fallback\": {{\"streams\": {streams}, \"fallback\": {fallback}}},\n"
            ));
        }
        if let Some(cost) = self.variogram_cost {
            out.push_str(&format!(
                "  \"variogram_pairs\": {},\n  \"variogram_ns_per_pair\": {:.4},\n  \
                 \"variogram_parallel_eff\": {:.3},\n  \"variogram_threads\": {},\n",
                cost.pairs,
                cost.ns_per_pair(),
                cost.parallel_eff(),
                cost.threads
            ));
        }
        if let Some(ratio) = self.predictor_cost_over_codec_cost() {
            out.push_str(&format!("  \"predictor_cost_over_codec_cost\": {ratio:.3},\n"));
        }
        out.push_str(&format!("  \"total_seconds\": {:.6}\n}}\n", self.total_seconds()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(stages: &[(&str, f64)]) -> SweepReport {
        SweepReport {
            label: "64x64".into(),
            stages: stages.iter().map(|&(name, s)| (name.to_string(), s)).collect(),
            ..SweepReport::default()
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let mut t = report(&[("generate", 0.25), ("stats", 0.5)]);
        t.simd_level = "avx2".into();
        t.throughput.push(CodecThroughput {
            compressor: "sz".into(),
            megabytes: 8.454272,
            compress_seconds: 2.0,
            decompress_seconds: 0.5,
            compression_ratio: 6.25,
        });
        let json = t.to_json();
        assert!(json.starts_with("{\n  \"bench\": \"sweep\",\n  \"label\": \"64x64\",\n"));
        assert!(json.contains("  \"simd_level\": \"avx2\",\n  \"stages\": [\n"));
        assert!(json.contains("    {\"stage\": \"generate\", \"seconds\": 0.250000},\n"));
        assert!(json.contains("    {\"stage\": \"stats\", \"seconds\": 0.500000}\n  ],\n"));
        assert!(json.contains(
            "  \"throughput\": [\n    {\"compressor\": \"sz\", \"megabytes\": 8.454272, \
             \"compress_seconds\": 2.000000, \"compress_mb_per_s\": 4.227, \
             \"decompress_seconds\": 0.500000, \"decompress_mb_per_s\": 16.909, \
             \"compression_ratio\": 6.250}\n  ],\n"
        ));
        assert!(json.contains("  \"encode_layers\": [\n  ],\n"));
        assert!(json.ends_with("  \"total_seconds\": 0.750000\n}\n"));
        for absent in ["predictor_cost_over_codec_cost", "variogram_", "rans8_huffman_fallback"] {
            assert!(!json.contains(absent), "{absent}");
        }
    }

    #[test]
    fn cost_ratio_needs_both_stages_and_lands_in_the_json() {
        let mut t = report(&[("correlation_statistics_compute", 0.5)]);
        assert_eq!(t.predictor_cost_over_codec_cost(), None);
        t.stages.push(("compress_sz".into(), 0.125));
        assert_eq!(t.predictor_cost_over_codec_cost(), Some(4.0));
        assert!(t.to_json().contains("  \"predictor_cost_over_codec_cost\": 4.000,\n"));
    }

    #[test]
    fn variogram_cost_lands_in_the_json_as_three_named_numbers() {
        let mut t = report(&[]);
        let cost = VariogramCost {
            pairs: 2_000_000,
            serial_seconds: 0.5e-3,
            pooled_seconds: 0.3125e-3,
            threads: 2,
        };
        assert_eq!(cost.ns_per_pair(), 0.25);
        assert_eq!(cost.parallel_eff(), 0.8);
        t.variogram_cost = Some(cost);
        assert!(t.to_json().contains(
            "  \"variogram_pairs\": 2000000,\n  \"variogram_ns_per_pair\": 0.2500,\n  \
             \"variogram_parallel_eff\": 0.800,\n  \"variogram_threads\": 2,\n"
        ));
    }

    #[test]
    fn encode_layers_summarize_samples_and_land_in_the_json() {
        let samples = vec![vec![0.003, 0.5], vec![0.001, 0.25], vec![0.002, 1.0]];
        let layers = EncodeLayers::from_samples("sz", &["validate", "lz77"], &samples);
        assert_eq!(layers.layers[0], ("validate".to_string(), 0.001, 0.002));
        assert_eq!(layers.layers[1], ("lz77".to_string(), 0.25, 0.5));
        assert_eq!(layers.min_total_seconds(), 0.251);
        let mut t = report(&[]);
        t.encode_layers.push(layers.clone());
        t.rans8_fallback = Some((2, 1));
        assert!(t
            .to_json()
            .contains("  \"rans8_huffman_fallback\": {\"streams\": 2, \"fallback\": 1},\n"));
        assert!(t.to_json().contains(
            "{\"compressor\": \"sz\", \"layers\": [{\"layer\": \"validate\", \
             \"min_seconds\": 0.001000, \"median_seconds\": 0.002000}, {\"layer\": \"lz77\", \
             \"min_seconds\": 0.250000, \"median_seconds\": 0.500000}]}\n"
        ));
        t.encode_layers.push(EncodeLayers {
            compressor: "sz@64x64".into(),
            tile_fixed_cost_us: Some(12.5),
            ..layers.clone()
        });
        assert!(t
            .to_json()
            .contains("\"median_seconds\": 0.500000}], \"tile_fixed_cost_us\": 12.500}\n"));
        t.encode_layers.push(EncodeLayers {
            compressor: "sz-rans8@64x64".into(),
            tile_fixed_cost_us: Some(12.5),
            tile_table_bytes_frac: Some(0.13107),
            ..layers
        });
        assert!(t
            .to_json()
            .contains("}], \"tile_fixed_cost_us\": 12.500, \"tile_table_bytes_frac\": 0.1311}\n"));
    }
}
