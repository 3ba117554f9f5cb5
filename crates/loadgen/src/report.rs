//! `BENCH_load.json`: what a load run proves — per-variant verified and
//! failed request counts, the shared tile cache's counters, and the chaos
//! accounting. It carries no throughput or latency: those are
//! `benchmarks/e2e`'s numbers.

use lcc_archive::CacheStats;

/// One registry variant's row: how many requests verified against the
/// single-threaded reference and how many did not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadVariant {
    /// Variant key (`"sz"`, `"sz+framed"`, `"region_sz-rans8"`, …).
    pub variant: String,
    /// Requests whose stream and reconstruction (or window) hash-matched
    /// the reference.
    pub requests: u64,
    /// Requests that failed: compress error, decode error, or a hash
    /// mismatch.
    pub errors: u64,
    /// Archive tiles touched by this variant's requests (0 for non-region
    /// rows).
    pub tiles: u64,
    /// Of [`tiles`](LoadVariant::tiles), how many came from the
    /// decoded-tile cache instead of being fetched and entropy-decoded.
    pub tiles_from_cache: u64,
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

/// The report of one load run, one row per registry variant.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Workload description (e.g. `"4 workers, 2000 ms, seed 42"`).
    pub label: String,
    /// SIMD dispatch tier the run executed under.
    pub simd_level: String,
    /// Concurrent worker count of the run.
    pub workers: usize,
    /// Measured wall-clock duration of the run, seconds.
    pub duration_seconds: f64,
    /// Counters of the decoded-tile cache the region variants share.
    pub tile_cache: CacheStats,
    /// Fault-injection accounting; `None` outside chaos mode.
    pub chaos: Option<ChaosSummary>,
    /// Per-variant rows, in variant-table order.
    pub variants: Vec<LoadVariant>,
}

impl LoadReport {
    /// Total verified requests across all variants.
    pub fn total_requests(&self) -> u64 {
        self.variants.iter().map(|v| v.requests).sum()
    }

    /// Total failed requests across all variants.
    pub fn total_errors(&self) -> u64 {
        self.variants.iter().map(|v| v.errors).sum()
    }

    /// Serialize the report as JSON. Labels and variant names are this
    /// workspace's own identifiers, so nothing needs escaping.
    pub fn to_json(&self) -> String {
        let c = &self.tile_cache;
        let chaos = self.chaos.map_or("null".to_string(), |c| {
            format!(
                "{{\"enabled\": true, \"seed\": {}, \"rate\": {:.4}, \
                 \"injected\": {}, \"detected\": {}, \"recovered\": {}, \
                 \"timeouts\": {}, \"panics_injected\": {}, \"panics_absorbed\": {}, \
                 \"unexplained_errors\": {}}}",
                c.seed,
                c.rate,
                c.injected,
                c.detected,
                c.recovered,
                c.timeouts,
                c.panics_injected,
                c.panics_absorbed,
                c.unexplained_errors,
            )
        });
        let variants: Vec<String> = self
            .variants
            .iter()
            .map(|v| {
                format!(
                    "    {{\"variant\": \"{}\", \"requests\": {}, \"errors\": {}, \
                     \"tiles\": {}, \"tiles_from_cache\": {}}}",
                    v.variant, v.requests, v.errors, v.tiles, v.tiles_from_cache
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"load\",\n  \"label\": \"{}\",\n  \"simd_level\": \"{}\",\n  \
             \"workers\": {},\n  \"duration_seconds\": {:.6},\n  \"total_requests\": {},\n  \
             \"total_errors\": {},\n  \
             \"tile_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"refusals\": {}, \"integrity_failures\": {}, \"entries\": {}, \"bytes\": {}}},\n  \
             \"chaos\": {chaos},\n  \"variants\": [\n{}\n  ]\n}}\n",
            self.label,
            self.simd_level,
            self.workers,
            self.duration_seconds,
            self.total_requests(),
            self.total_errors(),
            c.hits,
            c.misses,
            c.evictions,
            c.refusals,
            c.integrity_failures,
            c.entries,
            c.bytes,
            variants.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut report =
            LoadReport { label: "chaos".into(), chaos: Some(chaos), ..LoadReport::default() };
        report.variants.push(LoadVariant {
            variant: "region_zfp".into(),
            requests: 9,
            errors: 1,
            tiles: 36,
            tiles_from_cache: 30,
        });
        let json = report.to_json();
        assert!(json.contains("\"chaos\": {\"enabled\": true"), "{json}");
        assert!(json.contains("\"rate\": 0.0200"));
        assert!(json.contains("\"injected\": 40, \"detected\": 25, \"recovered\": 15"));
        assert!(json.contains("\"panics_injected\": 2, \"panics_absorbed\": 2"));
        assert!(json.contains("\"total_requests\": 9,\n  \"total_errors\": 1,\n"));
        assert!(json.contains(
            "    {\"variant\": \"region_zfp\", \"requests\": 9, \"errors\": 1, \"tiles\": 36, \
             \"tiles_from_cache\": 30}\n  ]\n}\n"
        ));
        assert!(LoadReport::default().to_json().contains("  \"chaos\": null,\n"));

        let leak = ChaosSummary { injected: 5, detected: 2, recovered: 2, ..chaos };
        assert!(!leak.is_accounted(), "an unaccounted injection must trip the invariant");
        let unexplained = ChaosSummary { unexplained_errors: 1, ..chaos };
        assert!(!unexplained.is_accounted());
        let real_panic = ChaosSummary { panics_absorbed: 3, ..chaos };
        assert!(!real_panic.is_accounted());
    }
}
