//! Wall-clock stage timings and sustained-traffic load reports serialized
//! as small JSON reports (`BENCH_sweep.json`, `BENCH_load.json`).
//!
//! The CI benchmark smoke job and the paper-scale statistics gate both emit
//! `BENCH_sweep.json` so successive PRs leave a machine-readable perf
//! trajectory behind: one entry per pipeline stage (field generation, global
//! variogram, local statistics, compression sweep), each with its measured
//! wall time, plus one [`CodecThroughput`] entry per compressor
//! (compress/decompress MB/s over the uncompressed payload size) so
//! codec-side speedups are visible in the CI artifact, not just total wall
//! time.
//!
//! The load generator emits the sibling `BENCH_load.json` from the same
//! schema family: a [`LoadReport`] with one [`LoadVariant`] row per registry
//! variant, carrying request counts, round-trip p50/p90/p99/max latency
//! extracted from a fixed-bucket log-scaled [`LatencyHistogram`], and MB/s
//! per core. `scripts/bench_table.py --gate` compares both files against
//! their committed baselines and fails CI on a threshold breach.

use std::path::Path;
use std::time::{Duration, Instant};

/// Measured compress/decompress throughput of one compressor over a known
/// uncompressed payload size.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecThroughput {
    /// Compressor name (`"sz"`, `"zfp"`, `"mgard"`…).
    pub compressor: String,
    /// Uncompressed payload size in megabytes (10^6 bytes).
    pub megabytes: f64,
    /// Wall time of the compress call(s), seconds.
    pub compress_seconds: f64,
    /// Wall time of the decompress call(s), seconds.
    pub decompress_seconds: f64,
    /// Measured compression ratio (uncompressed ÷ stream size; 0.0 when the
    /// measurement predates the ratio column). The entropy-backend ablation
    /// reads ratio and MB/s from the same row — the tradeoff in one line.
    pub compression_ratio: f64,
}

impl CodecThroughput {
    /// Compression throughput in MB/s (infinite times collapse to 0).
    pub fn compress_mb_per_s(&self) -> f64 {
        if self.compress_seconds > 0.0 {
            self.megabytes / self.compress_seconds
        } else {
            0.0
        }
    }

    /// Decompression throughput in MB/s (infinite times collapse to 0).
    pub fn decompress_mb_per_s(&self) -> f64 {
        if self.decompress_seconds > 0.0 {
            self.megabytes / self.decompress_seconds
        } else {
            0.0
        }
    }
}

/// Scalar-vs-dispatched throughput of one hot kernel (rANS decode, the SZ
/// plane quantizer, the ZFP block transform, the LZ77 matcher) over the
/// same payload: the per-kernel evidence behind a SIMD speedup claim, kept
/// separate from [`CodecThroughput`] because a whole-codec number hides
/// which kernel moved.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelThroughput {
    /// Kernel key (`"rans8_decode"`, `"lorenzo_quant"`, `"zfp_transform"`,
    /// `"lz77_match"`).
    pub kernel: String,
    /// Payload processed per timed pass, in megabytes (10^6 bytes).
    pub megabytes: f64,
    /// Wall time of the scalar-tier pass, seconds.
    pub scalar_seconds: f64,
    /// Wall time of the dispatched (best-tier) pass, seconds.
    pub simd_seconds: f64,
}

impl KernelThroughput {
    /// Scalar-tier throughput in MB/s (infinite times collapse to 0).
    pub fn scalar_mb_per_s(&self) -> f64 {
        if self.scalar_seconds > 0.0 {
            self.megabytes / self.scalar_seconds
        } else {
            0.0
        }
    }

    /// Dispatched-tier throughput in MB/s (infinite times collapse to 0).
    pub fn simd_mb_per_s(&self) -> f64 {
        if self.simd_seconds > 0.0 {
            self.megabytes / self.simd_seconds
        } else {
            0.0
        }
    }

    /// Scalar time over dispatched time — >1 means the SIMD tier is faster.
    pub fn speedup(&self) -> f64 {
        if self.simd_seconds > 0.0 {
            self.scalar_seconds / self.simd_seconds
        } else {
            0.0
        }
    }
}

/// Where one compressor's compress call spends its time: seconds per encode
/// layer, in pipeline order, over repeated timed compress calls on the same
/// field. Names the layer behind a compress ÷
/// decompress gap, which a whole-codec [`CodecThroughput`] row cannot.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeLayers {
    /// Compressor name (`"sz"`, `"sz-rans8"`).
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

/// An accumulating set of named stage timings.
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    label: String,
    /// Detected SIMD dispatch tier of the run (`"scalar"`, `"sse4"`,
    /// `"avx2"`, …; empty when the producer predates the field). Plain
    /// string so `lcc_core` stays independent of the kernel crates.
    simd_level: String,
    stages: Vec<(String, f64)>,
    throughputs: Vec<CodecThroughput>,
    kernels: Vec<KernelThroughput>,
    encode_layers: Vec<EncodeLayers>,
    /// `(rans8 streams, of which coded in the Huffman-fallback mode)`.
    rans8_fallback: Option<(usize, usize)>,
    variogram_cost: Option<VariogramCost>,
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

impl StageTimings {
    /// Start an empty report; `label` describes the workload (e.g.
    /// `"1028x1028"`).
    pub fn new(label: impl Into<String>) -> Self {
        StageTimings { label: label.into(), ..StageTimings::default() }
    }

    /// Record the SIMD dispatch tier the run executed under.
    pub fn set_simd_level(&mut self, level: impl Into<String>) {
        self.simd_level = level.into();
    }

    /// The recorded SIMD dispatch tier (empty when never set).
    pub fn simd_level(&self) -> &str {
        &self.simd_level
    }

    /// Record a stage measured externally.
    pub fn record(&mut self, stage: impl Into<String>, seconds: f64) {
        self.stages.push((stage.into(), seconds));
    }

    /// Run `f`, record its wall time under `stage`, and pass its result on.
    pub fn time<T>(&mut self, stage: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(stage, start.elapsed().as_secs_f64());
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

    /// Record a per-compressor throughput measurement.
    pub fn record_throughput(&mut self, throughput: CodecThroughput) {
        self.throughputs.push(throughput);
    }

    /// The recorded throughput entry for a compressor, if present.
    pub fn throughput(&self, compressor: &str) -> Option<&CodecThroughput> {
        self.throughputs.iter().find(|t| t.compressor == compressor)
    }

    /// Record a per-kernel scalar-vs-dispatched measurement.
    pub fn record_kernel(&mut self, kernel: KernelThroughput) {
        self.kernels.push(kernel);
    }

    /// The recorded kernel entry, if present.
    pub fn kernel(&self, kernel: &str) -> Option<&KernelThroughput> {
        self.kernels.iter().find(|k| k.kernel == kernel)
    }

    /// Record one compressor's per-layer encode timings.
    pub fn record_encode_layers(&mut self, layers: EncodeLayers) {
        self.encode_layers.push(layers);
    }

    /// The recorded encode-layer entry for a compressor, if present.
    pub fn encode_layers(&self, compressor: &str) -> Option<&EncodeLayers> {
        self.encode_layers.iter().find(|e| e.compressor == compressor)
    }

    /// Record how many of the run's `*-rans8` streams there were and how many
    /// of them overflowed the 12-bit frequency table, so that their codes
    /// were written in the rANS stream's Huffman mode: a `*-rans8` row of
    /// such a run measures Huffman.
    pub fn record_rans8_fallback(&mut self, streams: usize, fallback: usize) {
        self.rans8_fallback = Some((streams, fallback));
    }

    /// `(rans8 streams, Huffman-mode streams among them)`, if recorded.
    pub fn rans8_fallback(&self) -> Option<(usize, usize)> {
        self.rans8_fallback
    }

    /// Record the global variogram's cost on the report's field.
    pub fn record_variogram_cost(&mut self, cost: VariogramCost) {
        self.variogram_cost = Some(cost);
    }

    /// The recorded variogram cost, if any.
    pub fn variogram_cost(&self) -> Option<VariogramCost> {
        self.variogram_cost
    }

    /// Serialize the report as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"bench\": \"sweep\",\n  \"label\": \"{}\",\n  \"simd_level\": \"{}\",\n",
            escape(&self.label),
            escape(&self.simd_level)
        ));
        out.push_str("  \"stages\": [\n");
        for (k, (name, seconds)) in self.stages.iter().enumerate() {
            let comma = if k + 1 < self.stages.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"seconds\": {seconds:.6}}}{comma}\n",
                escape(name)
            ));
        }
        out.push_str("  ],\n  \"throughput\": [\n");
        for (k, t) in self.throughputs.iter().enumerate() {
            let comma = if k + 1 < self.throughputs.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"compressor\": \"{}\", \"megabytes\": {:.6}, \
                 \"compress_seconds\": {:.6}, \"compress_mb_per_s\": {:.3}, \
                 \"decompress_seconds\": {:.6}, \"decompress_mb_per_s\": {:.3}, \
                 \"compression_ratio\": {:.3}}}{comma}\n",
                escape(&t.compressor),
                t.megabytes,
                t.compress_seconds,
                t.compress_mb_per_s(),
                t.decompress_seconds,
                t.decompress_mb_per_s(),
                t.compression_ratio,
            ));
        }
        out.push_str("  ],\n  \"kernels\": [\n");
        for (k, kt) in self.kernels.iter().enumerate() {
            let comma = if k + 1 < self.kernels.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"megabytes\": {:.6}, \
                 \"scalar_seconds\": {:.6}, \"scalar_mb_per_s\": {:.3}, \
                 \"simd_seconds\": {:.6}, \"simd_mb_per_s\": {:.3}, \
                 \"speedup\": {:.3}}}{comma}\n",
                escape(&kt.kernel),
                kt.megabytes,
                kt.scalar_seconds,
                kt.scalar_mb_per_s(),
                kt.simd_seconds,
                kt.simd_mb_per_s(),
                kt.speedup(),
            ));
        }
        out.push_str("  ],\n  \"encode_layers\": [\n");
        for (k, e) in self.encode_layers.iter().enumerate() {
            let comma = if k + 1 < self.encode_layers.len() { "," } else { "" };
            let layers: Vec<String> = e
                .layers
                .iter()
                .map(|(layer, min, median)| {
                    format!(
                        "{{\"layer\": \"{}\", \"min_seconds\": {min:.6}, \
                         \"median_seconds\": {median:.6}}}",
                        escape(layer)
                    )
                })
                .collect();
            let fixed = e
                .tile_fixed_cost_us
                .map_or(String::new(), |us| format!(", \"tile_fixed_cost_us\": {us:.3}"));
            let table = e
                .tile_table_bytes_frac
                .map_or(String::new(), |frac| format!(", \"tile_table_bytes_frac\": {frac:.4}"));
            out.push_str(&format!(
                "    {{\"compressor\": \"{}\", \"layers\": [{}]{fixed}{table}}}{comma}\n",
                escape(&e.compressor),
                layers.join(", ")
            ));
        }
        out.push_str("  ],\n");
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

    /// Write the JSON report to `path`, creating parent directories.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

/// Sub-bucket resolution of [`LatencyHistogram`]: each power-of-two octave
/// splits into `2^SUB_BITS` linear sub-buckets, bounding the relative
/// quantile error at `2^-SUB_BITS` (6.25%).
const SUB_BITS: u32 = 4;
const SUBS_PER_OCTAVE: usize = 1 << SUB_BITS;
/// Total fixed bucket count: values below `2^SUB_BITS` get exact buckets,
/// every octave from there up to `2^63` gets [`SUBS_PER_OCTAVE`] buckets.
const BUCKETS: usize = (64 - SUB_BITS as usize) * SUBS_PER_OCTAVE + SUBS_PER_OCTAVE;

/// Fixed-bucket log-scaled latency histogram over nanosecond samples.
///
/// Recording is O(1) into one of [`BUCKETS`] pre-sized buckets (no
/// allocation after construction — safe to hold per worker in a steady-state
/// loop), bucket width is at most 6.25% of the value, and per-worker
/// histograms [`merge`](LatencyHistogram::merge) losslessly because every
/// histogram shares the same fixed bucket boundaries. Minimum and maximum
/// are additionally tracked exactly, so `quantile_ns(1.0)` is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram with all buckets pre-allocated.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Bucket index of a nanosecond value: exact below `2^SUB_BITS`,
    /// log-scaled with [`SUBS_PER_OCTAVE`] linear sub-buckets per octave
    /// above.
    fn bucket_index(ns: u64) -> usize {
        if ns < SUBS_PER_OCTAVE as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros(); // ns in [2^octave, 2^(octave+1))
        let sub = (ns >> (octave - SUB_BITS)) as usize & (SUBS_PER_OCTAVE - 1);
        (octave - SUB_BITS + 1) as usize * SUBS_PER_OCTAVE + sub
    }

    /// Inclusive upper bound of bucket `index` — the value
    /// [`quantile_ns`](LatencyHistogram::quantile_ns) reports for samples
    /// landing in that bucket ("latency ≤ X").
    fn bucket_upper(index: usize) -> u64 {
        if index < SUBS_PER_OCTAVE {
            return index as u64;
        }
        let octave = (index / SUBS_PER_OCTAVE) as u32 + SUB_BITS - 1;
        let sub = (index % SUBS_PER_OCTAVE) as u128;
        // u128 arithmetic: the top octave's last bucket upper bound is
        // 2^64 - 1, which would overflow the shift in u64.
        let upper = ((SUBS_PER_OCTAVE as u128 + sub + 1) << (octave - SUB_BITS)) - 1;
        u64::try_from(upper).unwrap_or(u64::MAX)
    }

    /// Record one latency sample in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Record a [`Duration`] sample (saturating at `u64::MAX` nanoseconds).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest recorded sample (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Exact largest recorded sample (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean of the recorded samples in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Sum of all recorded samples in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`) in nanoseconds: the upper
    /// bound of the bucket holding the sample of rank `ceil(q · count)`,
    /// clamped to the exact recorded extremes so `quantile_ns(0.0)` and
    /// `quantile_ns(1.0)` are exact. Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(index).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Convenience: the quantile in microseconds (the unit the load report
    /// serializes).
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) as f64 / 1e3
    }

    /// Fold another histogram into this one. Lossless: every histogram
    /// shares the same fixed bucket boundaries, so the merged quantiles
    /// equal the quantiles of the concatenated sample streams (up to the
    /// shared bucket resolution).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// One registry variant's row in a [`LoadReport`]: request counts, uncompressed
/// volume, busy time, round-trip latency distribution and mean compression
/// ratio under sustained mixed traffic.
#[derive(Debug, Clone, Default)]
pub struct LoadVariant {
    /// Variant key (`"sz"`, `"sz+framed"`, `"region_sz-rans8"`, …).
    pub variant: String,
    /// Round trips completed without error.
    pub requests: u64,
    /// Round trips that failed (compress error, decode error, or a
    /// round-trip hash mismatch against the single-threaded reference).
    pub errors: u64,
    /// Uncompressed payload volume round-tripped, in megabytes (counted
    /// once per request, not once per direction).
    pub megabytes: f64,
    /// Sum of this variant's request latencies in seconds — single-core
    /// occupancy time, the denominator of MB/s *per core*.
    pub busy_seconds: f64,
    /// Mean compression ratio over the variant's requests (0 for region
    /// rows, which measure seek-and-decode, not a compress round trip).
    pub compression_ratio: f64,
    /// Archive tiles touched by this variant's requests (0 for non-region
    /// rows).
    pub tiles: u64,
    /// Of [`tiles`](LoadVariant::tiles), how many were served from the
    /// decoded-tile cache instead of being fetched and entropy-decoded.
    pub tiles_from_cache: u64,
    /// Round-trip latency distribution (compress + decompress + verify).
    pub latency: LatencyHistogram,
}

impl LoadVariant {
    /// Round-trip throughput in MB/s per busy core: uncompressed megabytes
    /// divided by the time a core spent serving this variant. Unlike
    /// `megabytes / wall_time` this is well-defined when many variants
    /// share the same wall clock.
    pub fn mb_per_s_per_core(&self) -> f64 {
        if self.busy_seconds > 0.0 {
            self.megabytes / self.busy_seconds
        } else {
            0.0
        }
    }
}

/// Aggregate decoded-tile cache behaviour of a load run's region-read
/// traffic: lookup counters snapshotted from the shared cache plus the
/// hit-path vs miss-path volume/latency split, so the report can state
/// both the hit rate *and* what a hit is worth in MB/s.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TileCacheSummary {
    /// Tile lookups served from cache.
    pub hits: u64,
    /// Tile lookups that fell through to fetch + decode.
    pub misses: u64,
    /// Resident tiles displaced to admit another.
    pub evictions: u64,
    /// Decoded tiles the cache turned away as colder than what it held.
    pub refusals: u64,
    /// Tiles resident at the end of the run.
    pub entries: u64,
    /// Bytes resident at the end of the run.
    pub bytes: u64,
    /// Configured cache byte budget.
    pub budget_bytes: u64,
    /// Uncompressed megabytes of region reads served entirely from cache.
    pub hit_megabytes: f64,
    /// Busy seconds of those fully-cached reads.
    pub hit_busy_seconds: f64,
    /// Uncompressed megabytes of region reads that decoded at least one tile.
    pub miss_megabytes: f64,
    /// Busy seconds of those decoding reads.
    pub miss_busy_seconds: f64,
}

impl TileCacheSummary {
    /// Fraction of tile lookups served from cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Throughput of fully-cached region reads, MB/s per busy core.
    pub fn hit_mb_per_s(&self) -> f64 {
        if self.hit_busy_seconds > 0.0 {
            self.hit_megabytes / self.hit_busy_seconds
        } else {
            0.0
        }
    }

    /// Throughput of region reads that decoded tiles, MB/s per busy core.
    pub fn miss_mb_per_s(&self) -> f64 {
        if self.miss_busy_seconds > 0.0 {
            self.miss_megabytes / self.miss_busy_seconds
        } else {
            0.0
        }
    }
}

/// Fault-injection accounting of a chaos-mode load run: how many faults the
/// seeded plan landed, and where each one surfaced. The run is sound when
/// `injected == detected + recovered` — every injection either produced a
/// visible error/timeout or was healed by a resilience mechanism — and
/// `unexplained_errors == 0` (no request failed without an injection to
/// blame).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosSummary {
    /// Seed of the fault plan, recorded so the run can be replayed.
    pub seed: u64,
    /// Per-site byte-fault probability (`--chaos <rate>`).
    pub rate: f64,
    /// Byte-level faults the plan applied (bit flips, truncations, failed
    /// reads, delays).
    pub injected: u64,
    /// Injections that surfaced as a request error, verification mismatch
    /// or deadline timeout.
    pub detected: u64,
    /// Injections healed invisibly (cache eviction + source re-read,
    /// retry, or a delay absorbed within the deadline).
    pub recovered: u64,
    /// Of [`detected`](ChaosSummary::detected), injections that surfaced
    /// as `DeadlineExceeded`.
    pub timeouts: u64,
    /// Worker panics the plan injected.
    pub panics_injected: u64,
    /// Worker panics the serving loop absorbed per-job (must equal
    /// [`panics_injected`](ChaosSummary::panics_injected) — any other
    /// panic is a real bug).
    pub panics_absorbed: u64,
    /// Requests that failed with no injection attributed to them.
    pub unexplained_errors: u64,
}

impl ChaosSummary {
    /// The accounting invariant: every injected byte fault is either
    /// detected or recovered, and nothing failed for unexplained reasons.
    pub fn is_accounted(&self) -> bool {
        self.injected == self.detected + self.recovered
            && self.panics_absorbed == self.panics_injected
            && self.unexplained_errors == 0
    }
}

/// Sustained-traffic load report — the `BENCH_load.json` sibling of the
/// sweep report, one row per registry variant.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Workload description (e.g. `"4 workers, 2000 ms, sizes 64-128"`).
    pub label: String,
    /// Detected SIMD dispatch tier of the run (empty when the producer
    /// predates the field).
    pub simd_level: String,
    /// Concurrent worker count of the run.
    pub workers: usize,
    /// Measured wall-clock duration of the run, seconds.
    pub duration_seconds: f64,
    /// Mean allocations per request in the steady state (warmup excluded);
    /// `None` when the counting allocator was not compiled in.
    pub allocs_per_request: Option<f64>,
    /// Decoded-tile cache behaviour of the run's region-read traffic;
    /// `None` when the run had no region variants.
    pub tile_cache: Option<TileCacheSummary>,
    /// Fault-injection accounting; `None` outside chaos mode.
    pub chaos: Option<ChaosSummary>,
    /// Per-variant rows, in the order they were registered.
    pub variants: Vec<LoadVariant>,
}

impl LoadReport {
    /// Total completed requests across all variants.
    pub fn total_requests(&self) -> u64 {
        self.variants.iter().map(|v| v.requests).sum()
    }

    /// Total failed requests across all variants.
    pub fn total_errors(&self) -> u64 {
        self.variants.iter().map(|v| v.errors).sum()
    }

    /// Total uncompressed megabytes round-tripped.
    pub fn total_megabytes(&self) -> f64 {
        self.variants.iter().map(|v| v.megabytes).sum()
    }

    /// Aggregate round-trip throughput, MB/s over the wall clock.
    pub fn mb_per_s(&self) -> f64 {
        if self.duration_seconds > 0.0 {
            self.total_megabytes() / self.duration_seconds
        } else {
            0.0
        }
    }

    /// Aggregate MB/s divided by the worker count.
    pub fn mb_per_s_per_core(&self) -> f64 {
        if self.workers > 0 {
            self.mb_per_s() / self.workers as f64
        } else {
            0.0
        }
    }

    /// The row for a variant, if present.
    pub fn variant(&self, name: &str) -> Option<&LoadVariant> {
        self.variants.iter().find(|v| v.variant == name)
    }

    /// Serialize the report as JSON (schema family of
    /// [`StageTimings::to_json`]: a top-level `"bench"` discriminator plus
    /// flat numeric rows).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"bench\": \"load\",\n  \"label\": \"{}\",\n  \"simd_level\": \"{}\",\n  \
             \"workers\": {},\n  \
             \"duration_seconds\": {:.6},\n  \"total_requests\": {},\n  \
             \"total_errors\": {},\n  \"total_megabytes\": {:.6},\n  \
             \"mb_per_s\": {:.3},\n  \"mb_per_s_per_core\": {:.3},\n",
            escape(&self.label),
            escape(&self.simd_level),
            self.workers,
            self.duration_seconds,
            self.total_requests(),
            self.total_errors(),
            self.total_megabytes(),
            self.mb_per_s(),
            self.mb_per_s_per_core(),
        ));
        match self.allocs_per_request {
            Some(a) => out.push_str(&format!("  \"allocs_per_request\": {a:.3},\n")),
            None => out.push_str("  \"allocs_per_request\": null,\n"),
        }
        match &self.tile_cache {
            Some(c) => out.push_str(&format!(
                "  \"tile_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
                 \"refusals\": {}, \"entries\": {}, \"bytes\": {}, \"budget_bytes\": {}, \
                 \"hit_rate\": {:.4}, \"hit_megabytes\": {:.6}, \
                 \"hit_busy_seconds\": {:.6}, \"hit_mb_per_s\": {:.3}, \
                 \"miss_megabytes\": {:.6}, \"miss_busy_seconds\": {:.6}, \
                 \"miss_mb_per_s\": {:.3}}},\n",
                c.hits,
                c.misses,
                c.evictions,
                c.refusals,
                c.entries,
                c.bytes,
                c.budget_bytes,
                c.hit_rate(),
                c.hit_megabytes,
                c.hit_busy_seconds,
                c.hit_mb_per_s(),
                c.miss_megabytes,
                c.miss_busy_seconds,
                c.miss_mb_per_s(),
            )),
            None => out.push_str("  \"tile_cache\": null,\n"),
        }
        match &self.chaos {
            Some(c) => out.push_str(&format!(
                "  \"chaos\": {{\"enabled\": true, \"seed\": {}, \"rate\": {:.4}, \
                 \"injected\": {}, \"detected\": {}, \"recovered\": {}, \
                 \"timeouts\": {}, \"panics_injected\": {}, \"panics_absorbed\": {}, \
                 \"unexplained_errors\": {}}},\n",
                c.seed,
                c.rate,
                c.injected,
                c.detected,
                c.recovered,
                c.timeouts,
                c.panics_injected,
                c.panics_absorbed,
                c.unexplained_errors,
            )),
            None => out.push_str("  \"chaos\": null,\n"),
        }
        out.push_str("  \"variants\": [\n");
        for (k, v) in self.variants.iter().enumerate() {
            let comma = if k + 1 < self.variants.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"variant\": \"{}\", \"requests\": {}, \"errors\": {}, \
                 \"megabytes\": {:.6}, \"busy_seconds\": {:.6}, \
                 \"mb_per_s_per_core\": {:.3}, \"compression_ratio\": {:.3}, \
                 \"tiles\": {}, \"tiles_from_cache\": {}, \
                 \"p50_us\": {:.1}, \"p90_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"max_us\": {:.1}}}{comma}\n",
                escape(&v.variant),
                v.requests,
                v.errors,
                v.megabytes,
                v.busy_seconds,
                v.mb_per_s_per_core(),
                v.compression_ratio,
                v.tiles,
                v.tiles_from_cache,
                v.latency.quantile_us(0.50),
                v.latency.quantile_us(0.90),
                v.latency.quantile_us(0.99),
                v.latency.max_ns() as f64 / 1e3,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the JSON report to `path`, creating parent directories.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_sums_stages() {
        let mut t = StageTimings::new("test");
        t.record("a", 1.5);
        let v = t.time("b", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.seconds("a"), Some(1.5));
        assert!(t.seconds("b").unwrap() >= 0.0);
        assert!(t.seconds("missing").is_none());
        assert!(t.total_seconds() >= 1.5);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut t = StageTimings::new("64x64");
        t.record("generate", 0.25);
        t.record("stats", 0.5);
        let json = t.to_json();
        assert!(json.contains("\"label\": \"64x64\""));
        assert!(json.contains("{\"stage\": \"generate\", \"seconds\": 0.250000},"));
        assert!(json.contains("{\"stage\": \"stats\", \"seconds\": 0.500000}\n"));
        assert!(json.contains("\"total_seconds\": 0.750000"));
        assert!(!json.contains("predictor_cost_over_codec_cost"));
    }

    #[test]
    fn cost_ratio_needs_both_stages_and_lands_in_the_json() {
        let mut t = StageTimings::new("64x64");
        t.record("correlation_statistics_compute", 0.5);
        assert_eq!(t.predictor_cost_over_codec_cost(), None);
        t.record("compress_sz", 0.125);
        assert_eq!(t.predictor_cost_over_codec_cost(), Some(4.0));
        assert!(t.to_json().contains("  \"predictor_cost_over_codec_cost\": 4.000,\n"));
    }

    #[test]
    fn variogram_cost_lands_in_the_json_as_three_named_numbers() {
        let mut t = StageTimings::new("1028x1028");
        assert!(!t.to_json().contains("variogram_"));
        let cost = VariogramCost {
            pairs: 2_000_000,
            serial_seconds: 0.5e-3,
            pooled_seconds: 0.3125e-3,
            threads: 2,
        };
        assert_eq!(cost.ns_per_pair(), 0.25);
        assert_eq!(cost.parallel_eff(), 0.8);
        t.record_variogram_cost(cost);
        assert_eq!(t.variogram_cost(), Some(cost));
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
        let mut t = StageTimings::new("1028x1028");
        assert!(t.to_json().contains("  \"encode_layers\": [\n  ],\n"));
        t.record_encode_layers(layers.clone());
        assert!(!t.to_json().contains("rans8_huffman_fallback"));
        t.record_rans8_fallback(2, 1);
        assert!(t
            .to_json()
            .contains("  \"rans8_huffman_fallback\": {\"streams\": 2, \"fallback\": 1},\n"));
        assert_eq!(t.encode_layers("sz"), Some(&layers));
        assert!(t.encode_layers("zfp").is_none());
        assert!(t.to_json().contains(
            "{\"compressor\": \"sz\", \"layers\": [{\"layer\": \"validate\", \
             \"min_seconds\": 0.001000, \"median_seconds\": 0.002000}, {\"layer\": \"lz77\", \
             \"min_seconds\": 0.250000, \"median_seconds\": 0.500000}]}\n"
        ));
        assert_eq!(layers.min_total_seconds(), 0.251);
        t.record_encode_layers(EncodeLayers {
            compressor: "sz@64x64".into(),
            tile_fixed_cost_us: Some(12.5),
            ..layers.clone()
        });
        assert!(t
            .to_json()
            .contains("\"median_seconds\": 0.500000}], \"tile_fixed_cost_us\": 12.500}\n"));
        t.record_encode_layers(EncodeLayers {
            compressor: "sz-rans8@64x64".into(),
            tile_fixed_cost_us: Some(12.5),
            tile_table_bytes_frac: Some(0.13107),
            ..layers
        });
        assert!(t
            .to_json()
            .contains("}], \"tile_fixed_cost_us\": 12.500, \"tile_table_bytes_frac\": 0.1311}\n"));
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("lcc_benchreport_test");
        let path = dir.join("BENCH_sweep.json");
        let mut t = StageTimings::new("x");
        t.record("s", 0.1);
        t.write(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench\": \"sweep\""));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn throughput_entries_round_trip_into_json() {
        let mut t = StageTimings::new("1028x1028");
        t.record_throughput(CodecThroughput {
            compressor: "sz".into(),
            megabytes: 8.454272,
            compress_seconds: 2.0,
            decompress_seconds: 0.5,
            compression_ratio: 6.25,
        });
        let entry = t.throughput("sz").unwrap();
        assert!((entry.compress_mb_per_s() - 4.227136).abs() < 1e-9);
        assert!((entry.decompress_mb_per_s() - 16.908544).abs() < 1e-9);
        assert!(t.throughput("zfp").is_none());
        let json = t.to_json();
        assert!(json.contains("\"compressor\": \"sz\""));
        assert!(json.contains("\"compress_mb_per_s\": 4.227"));
        assert!(json.contains("\"decompress_mb_per_s\": 16.909"));
        assert!(json.contains("\"compression_ratio\": 6.250"));
    }

    #[test]
    fn simd_level_and_kernels_round_trip_into_json() {
        let mut t = StageTimings::new("1028x1028");
        assert_eq!(t.simd_level(), "");
        t.set_simd_level("avx2");
        assert_eq!(t.simd_level(), "avx2");
        t.record_kernel(KernelThroughput {
            kernel: "rans8_decode".into(),
            megabytes: 4.0,
            scalar_seconds: 0.2,
            simd_seconds: 0.1,
        });
        let k = t.kernel("rans8_decode").unwrap();
        assert!((k.scalar_mb_per_s() - 20.0).abs() < 1e-9);
        assert!((k.simd_mb_per_s() - 40.0).abs() < 1e-9);
        assert!((k.speedup() - 2.0).abs() < 1e-9);
        assert!(t.kernel("lz77_match").is_none());
        let json = t.to_json();
        assert!(json.contains("\"simd_level\": \"avx2\""));
        assert!(json.contains("\"kernel\": \"rans8_decode\""));
        assert!(json.contains("\"speedup\": 2.000"));
    }

    #[test]
    fn zero_second_kernel_collapses_to_zero() {
        let k = KernelThroughput {
            kernel: "x".into(),
            megabytes: 1.0,
            scalar_seconds: 0.0,
            simd_seconds: 0.0,
        };
        assert_eq!(k.scalar_mb_per_s(), 0.0);
        assert_eq!(k.simd_mb_per_s(), 0.0);
        assert_eq!(k.speedup(), 0.0);
    }

    #[test]
    fn zero_second_throughput_collapses_to_zero() {
        let t = CodecThroughput {
            compressor: "x".into(),
            megabytes: 1.0,
            compress_seconds: 0.0,
            decompress_seconds: 0.0,
            compression_ratio: 0.0,
        };
        assert_eq!(t.compress_mb_per_s(), 0.0);
        assert_eq!(t.decompress_mb_per_s(), 0.0);
    }

    #[test]
    fn escapes_quotes_in_labels() {
        let t = StageTimings::new("a\"b\\c");
        assert!(t.to_json().contains("a\\\"b\\\\c"));
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact_below_sixteen_and_tight_above() {
        // Small values get exact buckets: every distinct value its own bin.
        for v in 0u64..16 {
            assert_eq!(LatencyHistogram::bucket_index(v), v as usize);
            assert_eq!(LatencyHistogram::bucket_upper(v as usize), v);
        }
        // Above that, every value lands in a bucket whose bounds contain it
        // and the relative width stays within the designed 6.25%.
        for v in [16u64, 17, 31, 32, 33, 63, 64, 1000, 4096, 1 << 20, u64::MAX] {
            let index = LatencyHistogram::bucket_index(v);
            let upper = LatencyHistogram::bucket_upper(index);
            assert!(upper >= v, "upper {upper} < value {v}");
            assert!(
                index == 0 || LatencyHistogram::bucket_upper(index - 1) < v,
                "value {v} below its bucket's lower bound"
            );
            assert!((upper - v) as f64 <= v as f64 / 16.0 + 1.0, "bucket too wide at {v}");
        }
        // Adjacent bucket uppers are strictly increasing across the table.
        for i in 1..BUCKETS {
            assert!(LatencyHistogram::bucket_upper(i) > LatencyHistogram::bucket_upper(i - 1));
        }
    }

    #[test]
    fn histogram_quantiles_match_a_sorted_reference() {
        // Deterministic pseudo-random samples spanning several octaves.
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            samples.push(x % 5_000_000 + 1); // 1 ns .. 5 ms
        }
        let mut hist = LatencyHistogram::new();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_unstable();
        assert_eq!(hist.count(), samples.len() as u64);
        assert_eq!(hist.min_ns(), samples[0]);
        assert_eq!(hist.max_ns(), *samples.last().unwrap());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let reference = samples[rank - 1];
            let measured = hist.quantile_ns(q);
            // The histogram reports the containing bucket's upper bound, so
            // it can only overshoot, and by at most one bucket width.
            assert!(measured >= reference, "q={q}: {measured} < reference {reference}");
            assert!(
                measured as f64 <= reference as f64 * (1.0 + 1.0 / 16.0) + 1.0,
                "q={q}: {measured} too far above reference {reference}"
            );
        }
        let exact_mean = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        assert!((hist.mean_ns() - exact_mean).abs() < 1e-6);
    }

    #[test]
    fn histogram_merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = i * 977 + 13;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merged per-worker histograms must equal the combined one");
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(a.quantile_ns(q), whole.quantile_ns(q));
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn record_duration_and_second_totals() {
        let mut h = LatencyHistogram::new();
        h.record_duration(Duration::from_micros(250));
        h.record_duration(Duration::from_micros(750));
        assert_eq!(h.count(), 2);
        assert!((h.total_seconds() - 1e-3).abs() < 1e-12);
        assert!((h.quantile_us(0.5) - 250.0).abs() <= 250.0 / 16.0 + 1.0);
    }

    #[test]
    fn load_report_aggregates_and_serializes() {
        let mut sz = LoadVariant { variant: "sz".into(), ..LoadVariant::default() };
        for _ in 0..10 {
            sz.latency.record(2_000_000); // 2 ms
        }
        sz.requests = 10;
        sz.megabytes = 10.0 * 0.032768;
        sz.busy_seconds = 0.02;
        sz.compression_ratio = 12.5;
        let mut framed = LoadVariant { variant: "sz+framed".into(), ..LoadVariant::default() };
        framed.latency.record(4_000_000);
        framed.requests = 1;
        framed.errors = 1;
        framed.megabytes = 0.032768;
        framed.busy_seconds = 0.004;
        let report = LoadReport {
            label: "smoke".into(),
            simd_level: "avx2".into(),
            workers: 4,
            duration_seconds: 0.5,
            allocs_per_request: Some(3.25),
            tile_cache: None,
            chaos: None,
            variants: vec![sz, framed],
        };
        assert_eq!(report.total_requests(), 11);
        assert_eq!(report.total_errors(), 1);
        assert!((report.total_megabytes() - 11.0 * 0.032768).abs() < 1e-9);
        assert!(report.mb_per_s() > 0.0);
        assert!((report.mb_per_s_per_core() - report.mb_per_s() / 4.0).abs() < 1e-9);
        let row = report.variant("sz").unwrap();
        assert!((row.mb_per_s_per_core() - row.megabytes / row.busy_seconds).abs() < 1e-9);
        assert!(report.variant("zfp").is_none());
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"load\""));
        assert!(json.contains("\"variant\": \"sz+framed\""));
        assert!(json.contains("\"allocs_per_request\": 3.250"));
        assert!(json.contains("\"p99_us\""));
        assert!(json.contains("\"total_errors\": 1"));
        // The quantile columns sit near the recorded 2 ms latency.
        assert!(json.contains("\"p50_us\": 2"));
    }

    #[test]
    fn load_report_without_alloc_tracking_serializes_null() {
        let report = LoadReport {
            label: "x".into(),
            simd_level: String::new(),
            workers: 1,
            duration_seconds: 0.0,
            allocs_per_request: None,
            tile_cache: None,
            chaos: None,
            variants: Vec::new(),
        };
        let json = report.to_json();
        assert!(json.contains("\"allocs_per_request\": null"));
        assert!(json.contains("\"tile_cache\": null"));
        assert!(json.contains("\"chaos\": null"));
        assert_eq!(report.mb_per_s(), 0.0);
        assert_eq!(report.mb_per_s_per_core(), 0.0);
    }

    #[test]
    fn tile_cache_summary_rates_and_serialization() {
        let summary = TileCacheSummary {
            hits: 75,
            misses: 25,
            evictions: 3,
            refusals: 5,
            entries: 12,
            bytes: 400_000,
            budget_bytes: 8_000_000,
            hit_megabytes: 2.0,
            hit_busy_seconds: 0.01,
            miss_megabytes: 1.0,
            miss_busy_seconds: 0.1,
        };
        assert!((summary.hit_rate() - 0.75).abs() < 1e-12);
        assert!((summary.hit_mb_per_s() - 200.0).abs() < 1e-9);
        assert!((summary.miss_mb_per_s() - 10.0).abs() < 1e-9);
        assert_eq!(TileCacheSummary::default().hit_rate(), 0.0);
        assert_eq!(TileCacheSummary::default().hit_mb_per_s(), 0.0);
        assert_eq!(TileCacheSummary::default().miss_mb_per_s(), 0.0);

        let mut region =
            LoadVariant { variant: "region_sz-rans8".into(), ..LoadVariant::default() };
        region.requests = 100;
        region.tiles = 100;
        region.tiles_from_cache = 75;
        let report = LoadReport {
            label: "regions".into(),
            workers: 2,
            tile_cache: Some(summary),
            variants: vec![region],
            ..LoadReport::default()
        };
        let json = report.to_json();
        assert!(json.contains(
            "\"tile_cache\": {\"hits\": 75, \"misses\": 25, \"evictions\": 3, \"refusals\": 5"
        ));
        assert!(json.contains("\"hit_rate\": 0.7500"));
        assert!(json.contains("\"hit_mb_per_s\": 200.000"));
        assert!(json.contains("\"miss_mb_per_s\": 10.000"));
        assert!(json.contains("\"variant\": \"region_sz-rans8\""));
        assert!(json.contains("\"tiles\": 100, \"tiles_from_cache\": 75"));
    }

    #[test]
    fn chaos_summaries_serialize_and_check_their_invariant() {
        let chaos = ChaosSummary {
            seed: 2021,
            rate: 0.02,
            injected: 40,
            detected: 25,
            recovered: 15,
            timeouts: 3,
            panics_injected: 2,
            panics_absorbed: 2,
            unexplained_errors: 0,
        };
        assert!(chaos.is_accounted());
        let report =
            LoadReport { label: "chaos".into(), chaos: Some(chaos), ..LoadReport::default() };
        let json = report.to_json();
        assert!(json.contains("\"chaos\": {\"enabled\": true"), "{json}");
        assert!(json.contains("\"rate\": 0.0200"));
        assert!(json.contains("\"injected\": 40, \"detected\": 25, \"recovered\": 15"));
        assert!(json.contains("\"panics_injected\": 2, \"panics_absorbed\": 2"));

        let leak = ChaosSummary { injected: 5, detected: 2, recovered: 2, ..chaos };
        assert!(!leak.is_accounted(), "an unaccounted injection must trip the invariant");
        let unexplained = ChaosSummary { unexplained_errors: 1, ..chaos };
        assert!(!unexplained.is_accounted());
        let real_panic = ChaosSummary { panics_absorbed: 3, ..chaos };
        assert!(!real_panic.is_accounted());
    }

    #[test]
    fn load_report_writes_to_disk() {
        let dir = std::env::temp_dir().join("lcc_loadreport_test");
        let path = dir.join("BENCH_load.json");
        let report = LoadReport { label: "disk".into(), workers: 2, ..LoadReport::default() };
        report.write(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench\": \"load\""));
        let _ = std::fs::remove_dir_all(dir);
    }
}
