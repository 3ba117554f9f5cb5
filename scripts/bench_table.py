#!/usr/bin/env python3
"""Render perf tables from BENCH_*.json reports and gate CI on regressions.

Usage:
  bench_table.py [--gate PCT] BASELINE.json CURRENT.json
      Render GitHub-flavoured markdown comparing the two reports (both must
      be the same kind: "sweep" or "load"). With --gate, additionally print
      a PASS/FAIL row per gated metric and exit non-zero if any metric
      regressed by more than PCT percent against the baseline.

  bench_table.py --check-only FILE [FILE ...]
      Validate that each file parses and matches a known report schema.
      A malformed or truncated artifact fails with a one-line message
      (never a stack trace), so CI steps surface the real problem.

  bench_table.py --self-test
      Run the built-in checks: the gate must fail on a synthetic regressed
      input (sweep and load), pass on a non-regressed one, and malformed
      JSON must produce a clean error. Exits 0 when all checks hold.

Sweep reports (BENCH_sweep.json, emitted by bench_sweep) carry per-codec
throughput and stage wall times; committed baseline:
benchmarks/BASELINE_sweep.json. Load reports (BENCH_load.json, emitted by
loadgen) carry per-variant p50/p99 round-trip latency and MB/s per core;
committed baseline: benchmarks/BASELINE_load.json. The gate compares
compress/decompress MB/s (sweep) and MB/s-per-core (load); latency columns
are rendered but not gated (too noisy on shared runners).

The renderer FAILS (non-zero exit) when the current report is missing any
registry variant it is supposed to measure — a silently skipped compressor
must break the bench-smoke job, not vanish from the summary.
"""

import argparse
import json
import sys

# Every compressor bench_sweep's ablation registry must have measured, in
# both single-stream and framed form. Keep in sync with
# lcc_core::registry::entropy_ablation_registry().
REQUIRED_VARIANTS = ["mgard", "mgard-rans8", "sz", "sz-rans8", "zfp"]
# Archive region-read rows bench_sweep's `regions` stage must have
# measured: a full-entry decode baseline, a cold (cache-less) tiled window
# read, and a warmed decoded-tile-cache read. Keep in sync with
# bench_sweep's Stage 2c.
REQUIRED_REGION_ROWS = ["region_full_decode", "region_read_cold",
                        "region_read_hot"]
# The load generator measures the same registry: every codec single-stream,
# framed, and framed+checksummed (lcc_core::registry::framed_variant_name /
# checksummed_variant_name) — the +framed+ck rows are where the XXH64
# verify cost must stay visible — plus the archive region-read variants
# (lcc_core::registry::region_variant_name over each family's fastest
# decoder).
REQUIRED_LOAD_VARIANTS = (REQUIRED_VARIANTS
                          + [f"{n}+framed" for n in REQUIRED_VARIANTS]
                          + [f"{n}+framed+ck" for n in REQUIRED_VARIANTS]
                          + [f"region_{n}" for n in
                             ["sz-rans8", "zfp", "mgard-rans8"]])
# Every hot kernel bench_sweep's SIMD pass must have measured scalar vs
# dispatched. Keep in sync with bench_sweep's Stage 2c.
REQUIRED_KERNELS = ["rans8_decode", "lorenzo_quant", "zfp_transform",
                    "zfp_transform_batch", "lz77_match"]

# Default regression threshold, percent. Generous on purpose: shared CI
# runners jitter by tens of percent, and the gate exists to catch real
# regressions (an accidentally quadratic loop, a lost fast path), not noise.
DEFAULT_GATE_PCT = 25.0


class TableError(Exception):
    """A user-facing failure: printed as one line, never a traceback."""


def load(path):
    """Parse a report file, raising TableError with a clear message."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise TableError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise TableError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise TableError(f"{path}: expected a JSON object at top level")
    validate(data, path)
    return data


def kind(report):
    return report.get("bench", "sweep")


def validate(report, path):
    """Schema check shared by --check-only and normal rendering."""
    k = kind(report)
    if k == "sweep":
        rows = report.get("throughput")
        if not isinstance(rows, list):
            raise TableError(f"{path}: sweep report has no 'throughput' array")
        for row in rows:
            for key in ("compressor", "compress_mb_per_s", "decompress_mb_per_s"):
                if key not in row:
                    raise TableError(
                        f"{path}: throughput row {row.get('compressor', '?')!r} "
                        f"is missing '{key}'")
        if not isinstance(report.get("stages", []), list):
            raise TableError(f"{path}: 'stages' is not an array")
        kernels = report.get("kernels", [])
        if not isinstance(kernels, list):
            raise TableError(f"{path}: 'kernels' is not an array")
        for row in kernels:
            for key in ("kernel", "scalar_mb_per_s", "simd_mb_per_s"):
                if key not in row:
                    raise TableError(
                        f"{path}: kernel row {row.get('kernel', '?')!r} "
                        f"is missing '{key}'")
        layered = report.get("encode_layers", [])
        if not isinstance(layered, list):
            raise TableError(f"{path}: 'encode_layers' is not an array")
        for entry in layered:
            layers = entry.get("layers")
            if "compressor" not in entry or not isinstance(layers, list):
                raise TableError(
                    f"{path}: encode_layers entry needs 'compressor' and a "
                    "'layers' array")
            for layer in layers:
                for key in ("layer", "min_seconds", "median_seconds"):
                    if key not in layer:
                        raise TableError(
                            f"{path}: encode layer of "
                            f"{entry['compressor']!r} is missing '{key}'")
        fallback = report.get("rans8_huffman_fallback")
        if fallback is not None and not (
                isinstance(fallback, dict)
                and all(isinstance(fallback.get(k), int)
                        for k in ("streams", "fallback"))):
            raise TableError(
                f"{path}: 'rans8_huffman_fallback' needs integer 'streams' "
                "and 'fallback'")
    elif k == "load":
        rows = report.get("variants")
        if not isinstance(rows, list):
            raise TableError(f"{path}: load report has no 'variants' array")
        for row in rows:
            for key in ("variant", "requests", "errors", "mb_per_s_per_core",
                        "p50_us", "p99_us"):
                if key not in row:
                    raise TableError(
                        f"{path}: variant row {row.get('variant', '?')!r} "
                        f"is missing '{key}'")
        validate_chaos(report.get("chaos"), path)
    else:
        raise TableError(f"{path}: unknown report kind {k!r}")


def validate_chaos(chaos, path):
    """Check the fault-injection block of a load report. `None` (chaos off,
    or a report predating the injector) is fine; when present, every counter
    must exist and the accounting invariant must hold — a chaos run whose
    injected faults are not all detected-or-recovered is a FAILED run even
    if the loadgen binary forgot to say so."""
    if chaos is None:
        return
    if not isinstance(chaos, dict):
        raise TableError(f"{path}: 'chaos' is neither null nor an object")
    for key in ("enabled", "seed", "rate", "injected", "detected",
                "recovered", "timeouts", "panics_injected", "panics_absorbed",
                "unexplained_errors"):
        if key not in chaos:
            raise TableError(f"{path}: chaos block is missing '{key}'")
    if chaos["injected"] != chaos["detected"] + chaos["recovered"]:
        raise TableError(
            f"{path}: chaos accounting broken — {chaos['injected']} injected "
            f"!= {chaos['detected']} detected + {chaos['recovered']} "
            f"recovered")
    if chaos["panics_absorbed"] != chaos["panics_injected"]:
        raise TableError(
            f"{path}: chaos panic accounting broken — "
            f"{chaos['panics_injected']} injected worker panic(s) but "
            f"{chaos['panics_absorbed']} absorbed")
    if chaos["unexplained_errors"]:
        raise TableError(
            f"{path}: {chaos['unexplained_errors']} request(s) failed with "
            f"no fault injected into them")


def check_required(report, path, required, key, rows_key):
    present = {t[key] for t in report.get(rows_key, [])}
    missing = [name for name in required if name not in present]
    if missing:
        raise TableError(f"{path}: report is missing registry variants: "
                         f"{', '.join(missing)}")


def ratio(before, after):
    if before and after:
        return f"{after / before:.2f}x"
    return "n/a"


def simd_note(baseline, current):
    """One-line dispatch-tier note for either report kind: which SIMD level
    each artifact ran at (empty / missing means the producer predates the
    field)."""
    b = baseline.get("simd_level") or "unrecorded"
    c = current.get("simd_level") or "unrecorded"
    return f"SIMD dispatch level: baseline {b}, current {c}."


def fmt(v):
    return f"{v:.1f}" if v is not None else "—"


def predictor_cost_ratio(report):
    """The paper's cost ratio: statistics seconds over one sz compress.

    bench_sweep writes it as `predictor_cost_over_codec_cost`; reports
    older than that key (the committed baseline) still carry both stages.
    """
    recorded = report.get("predictor_cost_over_codec_cost")
    if recorded is not None:
        return recorded
    stages = {s["stage"]: s["seconds"] for s in report.get("stages", [])}
    predictor = stages.get("correlation_statistics_compute")
    codec = stages.get("compress_sz")
    return predictor / codec if predictor and codec else None


def render_sweep(baseline, current):
    print(f"## Codec throughput — {current.get('label', '?')} (MB/s)")
    print()
    print(simd_note(baseline, current))
    print()
    print("| compressor | compress before | compress after | ratio | "
          "decompress before | decompress after | ratio |")
    print("|---|---|---|---|---|---|---|")
    base_tp = {t["compressor"]: t for t in baseline.get("throughput", [])}
    cur_tp = {t["compressor"]: t for t in current.get("throughput", [])}
    for t in current.get("throughput", []):
        b = base_tp.get(t["compressor"], {})
        if not b and t["compressor"].endswith("+framed"):
            # `+framed` rows without a baseline counterpart (pre-framing
            # baseline) are pure noise here; the framed section below
            # renders them against the current single-stream numbers.
            # Anything else missing from the baseline still shows with a
            # "—" before column so new compressors stay visible.
            continue
        bc, ac = b.get("compress_mb_per_s"), t["compress_mb_per_s"]
        bd, ad = b.get("decompress_mb_per_s"), t["decompress_mb_per_s"]
        print(f"| {t['compressor']} | {fmt(bc)} | {fmt(ac)} | {ratio(bc, ac)} "
              f"| {fmt(bd)} | {fmt(ad)} | {ratio(bd, ad)} |")
    print()

    # Encode layers: where a compress call's time goes, next to the whole
    # compress and decompress calls of the same run (the layers are timed
    # inside the compress call itself; min of the repetitions, median in
    # brackets). Reported, not gated.
    layered = current.get("encode_layers", [])
    if layered:
        print("## Encode layers — current run (ms: min [median])")
        print()
        # One table per codec family: `sz*` and `mgard*` name their middle
        # layers differently.
        names = None
        for entry in layered:
            entry_names = [l["layer"] for l in entry["layers"]]
            if entry_names != names:
                if names is not None:
                    print()
                names = entry_names
                print("| compressor | " + " | ".join(names)
                      + " | layers sum | compress | decompress |")
                print("|---|" + "---|" * (len(names) + 3))
            t = cur_tp.get(entry["compressor"], {})
            cells = [f"{l['min_seconds'] * 1e3:.2f} [{l['median_seconds'] * 1e3:.2f}]"
                     for l in entry["layers"]]
            total = sum(l["min_seconds"] for l in entry["layers"])
            whole = [f"{t[key] * 1e3:.2f}" if t.get(key) else "—"
                     for key in ("compress_seconds", "decompress_seconds")]
            print(f"| {entry['compressor']} | " + " | ".join(cells)
                  + f" | {total * 1e3:.2f} | {whole[0]} | {whole[1]} |")
        print()
    fallback = current.get("rans8_huffman_fallback")
    if fallback:
        print(f"{fallback['fallback']} of {fallback['streams']} `*-rans8` "
              "streams overflowed the 12-bit rANS table and carry "
              "Huffman-mode codes: the row of such a stream measures "
              "Huffman without the LZ77 pass.")
        print()

    # Entropy-backend ablation: each codec with an entropy stage against
    # its rans8-backend variant, read from the *current* run — ratio and
    # throughput side by side, the tradeoff the backend axis exists to
    # measure (the speedup columns are relative to the Huffman backend).
    pairs = [(name, cur_tp.get(name), cur_tp.get(f"{name}-rans8"))
             for name in ["sz", "mgard"]]
    pairs = [(n, h, r8) for n, h, r8 in pairs if h and r8]
    if pairs:
        print("## Entropy backend ablation — Huffman vs rans8, current run")
        print()
        print("| codec | ratio huffman | ratio rans8 | "
              "compress huffman | compress rans8 | speedup | "
              "decompress huffman | decompress rans8 | speedup |")
        print("|---|---|---|---|---|---|---|---|---|")
        for name, h, r8 in pairs:
            hc, r8c = h["compress_mb_per_s"], r8["compress_mb_per_s"]
            hd, r8d = h["decompress_mb_per_s"], r8["decompress_mb_per_s"]
            hr = h.get("compression_ratio")
            r8r = r8.get("compression_ratio")
            print(f"| {name} | {fmt(hr)} | {fmt(r8r)} "
                  f"| {fmt(hc)} | {fmt(r8c)} | {ratio(hc, r8c)} "
                  f"| {fmt(hd)} | {fmt(r8d)} | {ratio(hd, r8d)} |")
        print()

    # Block-parallel framed codec: `<name>+framed` entries measure the same
    # single-field work through the multi-block container, so the speedup
    # column here is the block-parallel scaling of the *current* run (the
    # before/after table above tracks the trajectory across PRs).
    framed = [(name, t) for name, t in cur_tp.items()
              if name.endswith("+framed")]
    if framed:
        print("## Block-parallel framed codec — current run (MB/s)")
        print()
        print("| compressor | compress single | compress framed | speedup | "
              "decompress single | decompress framed | speedup |")
        print("|---|---|---|---|---|---|---|")
        for name, t in sorted(framed):
            single = cur_tp.get(name.removesuffix("+framed"), {})
            sc, fc = single.get("compress_mb_per_s"), t["compress_mb_per_s"]
            sd, fd = single.get("decompress_mb_per_s"), t["decompress_mb_per_s"]
            print(f"| {name.removesuffix('+framed')} | {fmt(sc)} | {fmt(fc)} "
                  f"| {ratio(sc, fc)} | {fmt(sd)} | {fmt(fd)} "
                  f"| {ratio(sd, fd)} |")
        print()

    # Archive region reads: per-read latency of the tiled random-access
    # path, from the *current* run — the cold column's speedup over the
    # full-entry decode is what the seek index buys, the hot column's
    # speedup over cold is what the decoded-tile cache buys.
    region = {name: cur_tp.get(name) for name in REQUIRED_REGION_ROWS}
    if all(region.values()):
        full_s = region["region_full_decode"].get("decompress_seconds")
        cold_s = region["region_read_cold"].get("decompress_seconds")
        hot_s = region["region_read_hot"].get("decompress_seconds")
        print("## Archive region reads — current run")
        print()
        print("| row | per-read ms | MB/s | vs full decode | vs cold |")
        print("|---|---|---|---|---|")
        for name in REQUIRED_REGION_ROWS:
            t = region[name]
            s = t.get("decompress_seconds")
            ms = f"{s * 1e3:.3f}" if s else "—"
            vs_full = (f"{full_s / s:.1f}x"
                       if s and full_s and name != "region_full_decode"
                       else "—")
            vs_cold = (f"{cold_s / s:.1f}x"
                       if s and cold_s and name == "region_read_hot"
                       else "—")
            print(f"| {name} | {ms} | {fmt(t['decompress_mb_per_s'])} "
                  f"| {vs_full} | {vs_cold} |")
        print()

    # SIMD kernel pass: scalar vs dispatched throughput per hot kernel, from
    # the *current* run (the speedup column is the whole point of the SIMD
    # tier), plus the dispatched number's trajectory against the baseline.
    kernels = current.get("kernels", [])
    if kernels:
        base_kernels = {k["kernel"]: k for k in baseline.get("kernels", [])}
        print("## SIMD kernel pass — scalar vs dispatched, current run (MB/s)")
        print()
        print("| kernel | scalar | dispatched | speedup | "
              "dispatched before | ratio |")
        print("|---|---|---|---|---|---|")
        for k in kernels:
            b = base_kernels.get(k["kernel"], {})
            bs = b.get("simd_mb_per_s")
            print(f"| {k['kernel']} | {fmt(k['scalar_mb_per_s'])} "
                  f"| {fmt(k['simd_mb_per_s'])} | {k.get('speedup', 0):.2f}x "
                  f"| {fmt(bs)} | {ratio(bs, k['simd_mb_per_s'])} |")
        print()

    print("## Stage wall times (s)")
    print()
    print("| stage | before | after | speedup |")
    print("|---|---|---|---|")
    base_stages = {s["stage"]: s["seconds"]
                   for s in baseline.get("stages", [])}
    for s in current.get("stages", []):
        b = base_stages.get(s["stage"])
        before = f"{b:.3f}" if b is not None else "—"
        speedup = f"{b / s['seconds']:.2f}x" if b and s["seconds"] else "n/a"
        print(f"| {s['stage']} | {before} | {s['seconds']:.3f} | {speedup} |")
    print()
    print(f"Totals: {baseline.get('total_seconds', 0):.3f}s → "
          f"{current.get('total_seconds', 0):.3f}s "
          f"(baseline: committed benchmarks/BASELINE_sweep.json)")
    # Reported, not gated: it divides two timings, and the baselines carry
    # no hardware fingerprint yet.
    print()
    before, after = (predictor_cost_ratio(r) for r in (baseline, current))
    print("Predictor cost / codec cost (correlation_statistics_compute ÷ "
          f"compress_sz): {fmt(before)} → {fmt(after)}")


def render_load(baseline, current):
    print(f"## Sustained load — {current.get('label', '?')}")
    print()
    print(simd_note(baseline, current))
    print()
    print(f"{current.get('workers', '?')} workers, "
          f"{current.get('total_requests', 0)} requests, "
          f"{current.get('total_errors', 0)} errors, "
          f"{current.get('mb_per_s', 0):.1f} MB/s aggregate "
          f"({current.get('mb_per_s_per_core', 0):.1f} MB/s per core); "
          f"baseline {baseline.get('mb_per_s_per_core', 0):.1f} MB/s per "
          f"core. Steady-state allocations per request: "
          f"{current.get('allocs_per_request', 'not tracked')}.")
    print()
    print("| variant | requests | errors | p50 us | p99 us | max us | "
          "MB/s/core before | MB/s/core after | ratio |")
    print("|---|---|---|---|---|---|---|---|---|")
    base_rows = {v["variant"]: v for v in baseline.get("variants", [])}
    for v in current.get("variants", []):
        b = base_rows.get(v["variant"], {})
        bm, am = b.get("mb_per_s_per_core"), v["mb_per_s_per_core"]
        print(f"| {v['variant']} | {v['requests']} | {v['errors']} "
              f"| {fmt(v['p50_us'])} | {fmt(v['p99_us'])} "
              f"| {fmt(v.get('max_us'))} "
              f"| {fmt(bm)} | {fmt(am)} | {ratio(bm, am)} |")
    print()

    # Decoded-tile cache: hit rate and the fully-cached vs decoding split
    # of region-read throughput — the columns that justify (or indict) the
    # cache's byte budget. Older reports carry no `tile_cache` object.
    cache = current.get("tile_cache")
    if cache:
        base_cache = baseline.get("tile_cache") or {}
        hit_pct = cache.get("hit_rate", 0.0) * 100.0
        base_hit = base_cache.get("hit_rate")
        base_note = (f" (baseline {base_hit * 100.0:.1f}%)"
                     if base_hit is not None else "")
        print("## Decoded-tile cache — region reads, current run")
        print()
        print(f"Hit rate {hit_pct:.1f}%{base_note}: "
              f"{cache.get('hits', 0)} hits, {cache.get('misses', 0)} misses, "
              f"{cache.get('evictions', 0)} evictions, "
              f"{cache.get('refusals', 0)} refusals; "
              f"{cache.get('bytes', 0)} of {cache.get('budget_bytes', 0)} "
              f"budget bytes resident.")
        print()
        print("| read class | MB served | busy s | MB/s |")
        print("|---|---|---|---|")
        print(f"| all-hits | {cache.get('hit_megabytes', 0.0):.2f} "
              f"| {cache.get('hit_busy_seconds', 0.0):.4f} "
              f"| {fmt(cache.get('hit_mb_per_s', 0.0))} |")
        print(f"| decoding | {cache.get('miss_megabytes', 0.0):.2f} "
              f"| {cache.get('miss_busy_seconds', 0.0):.4f} "
              f"| {fmt(cache.get('miss_mb_per_s', 0.0))} |")
        print()

    # Fault injection: present only when the run was driven with --chaos.
    # Validation already enforced the accounting invariant, so this section
    # is pure reporting — how much abuse the run absorbed and where it went.
    chaos = current.get("chaos")
    if chaos:
        print("## Injected faults & recovery — chaos run "
              f"(rate {chaos.get('rate', 0.0):.4f}, "
              f"seed {chaos.get('seed', '?')})")
        print()
        print("| counter | value |")
        print("|---|---|")
        print(f"| faults injected | {chaos.get('injected', 0)} |")
        print(f"| detected (request errored) | {chaos.get('detected', 0)} |")
        print(f"| recovered (request served clean) "
              f"| {chaos.get('recovered', 0)} |")
        print(f"| deadline timeouts | {chaos.get('timeouts', 0)} |")
        print(f"| worker panics injected "
              f"| {chaos.get('panics_injected', 0)} |")
        print(f"| worker panics absorbed per-job "
              f"| {chaos.get('panics_absorbed', 0)} |")
        print(f"| unexplained errors | {chaos.get('unexplained_errors', 0)} |")
        print()
        print("Invariant held: injected == detected + recovered, every "
              "injected panic absorbed, zero unexplained errors.")
        print()


def gate_rows(baseline, current):
    """Yield (label, metric, before, after) tuples the gate compares."""
    if kind(current) == "load":
        base_rows = {v["variant"]: v for v in baseline.get("variants", [])}
        for v in current.get("variants", []):
            b = base_rows.get(v["variant"])
            if b is None:
                continue  # new variant: no baseline to regress against
            yield (v["variant"], "mb_per_s_per_core",
                   b.get("mb_per_s_per_core"), v["mb_per_s_per_core"])
    else:
        base_rows = {t["compressor"]: t for t in baseline.get("throughput", [])}
        for t in current.get("throughput", []):
            b = base_rows.get(t["compressor"])
            if b is None:
                continue
            for metric in ("compress_mb_per_s", "decompress_mb_per_s"):
                yield (t["compressor"], metric, b.get(metric), t[metric])
        # Per-kernel dispatched throughput is gated like codec throughput:
        # losing a SIMD fast path (or a detection regression that silently
        # drops the run to scalar) shows up here as a throughput cliff.
        base_kernels = {k["kernel"]: k for k in baseline.get("kernels", [])}
        for k in current.get("kernels", []):
            b = base_kernels.get(k["kernel"])
            if b is None:
                continue
            yield (k["kernel"], "simd_mb_per_s",
                   b.get("simd_mb_per_s"), k["simd_mb_per_s"])


def apply_gate(baseline, current, pct):
    """Print the PASS/FAIL gate table; return the number of breaches."""
    floor = 1.0 - pct / 100.0
    breaches = 0
    print(f"## Perf gate — fail below {pct:.0f}% of baseline")
    print()
    print("| row | metric | baseline | current | of baseline | verdict |")
    print("|---|---|---|---|---|---|")
    for label, metric, before, after in gate_rows(baseline, current):
        if not before or before <= 0.0:
            verdict, frac = "PASS (no baseline)", None
        elif after >= before * floor:
            verdict, frac = "PASS", after / before
        else:
            verdict, frac = "**FAIL**", after / before
            breaches += 1
        of_base = f"{frac * 100:.0f}%" if frac is not None else "n/a"
        print(f"| {label} | {metric} | {fmt(before)} | {fmt(after)} "
              f"| {of_base} | {verdict} |")
    print()
    if breaches:
        print(f"Gate: {breaches} metric(s) regressed more than {pct:.0f}% — "
              f"failing the job. If the regression is intended, regenerate "
              f"the committed baseline (see README 'Load harness & CI "
              f"gates').")
    else:
        print(f"Gate: all metrics within {pct:.0f}% of baseline.")
    return breaches


def compare(baseline_path, current_path, gate_pct):
    baseline, current = load(baseline_path), load(current_path)
    if kind(baseline) != kind(current):
        raise TableError(
            f"report kinds differ: {baseline_path} is '{kind(baseline)}', "
            f"{current_path} is '{kind(current)}'")
    if kind(current) == "load":
        check_required(current, current_path, REQUIRED_LOAD_VARIANTS,
                       "variant", "variants")
        render_load(baseline, current)
    else:
        check_required(
            current, current_path, REQUIRED_VARIANTS
            + [f"{n}+framed" for n in REQUIRED_VARIANTS]
            + REQUIRED_REGION_ROWS,
            "compressor", "throughput")
        check_required(current, current_path, REQUIRED_KERNELS,
                       "kernel", "kernels")
        render_sweep(baseline, current)
    if gate_pct is not None:
        print()
        if apply_gate(baseline, current, gate_pct):
            raise TableError("perf gate breached")


# ---------------------------------------------------------------------------
# Self-test: synthetic inputs that must make the gate fail (and pass).

def synth_sweep(scale, kernel_scale=None):
    throughput = []
    for name in REQUIRED_VARIANTS + [f"{n}+framed" for n in REQUIRED_VARIANTS]:
        throughput.append({
            "compressor": name,
            "compress_mb_per_s": 200.0 * scale,
            "decompress_mb_per_s": 600.0 * scale,
            "compression_ratio": 10.0,
        })
    for name in REQUIRED_REGION_ROWS:
        # Region rows are read paths: the compress side is structurally
        # zero, so only decompress throughput is gate-comparable.
        throughput.append({
            "compressor": name,
            "compress_mb_per_s": 0.0,
            "decompress_seconds": 0.001,
            "decompress_mb_per_s": 900.0 * scale,
            "compression_ratio": 10.0,
        })
    kernel_scale = scale if kernel_scale is None else kernel_scale
    kernels = [{
        "kernel": name,
        "megabytes": 8.0,
        "scalar_mb_per_s": 400.0,
        "simd_mb_per_s": 800.0 * kernel_scale,
        "speedup": 2.0 * kernel_scale,
    } for name in REQUIRED_KERNELS]
    return {"bench": "sweep", "label": "self-test", "simd_level": "avx2",
            "throughput": throughput, "kernels": kernels,
            "stages": [{"stage": "s", "seconds": 1.0}], "total_seconds": 1.0}


def synth_chaos(**overrides):
    """A chaos block whose accounting holds; overrides break it on demand."""
    chaos = {"enabled": True, "seed": 42, "rate": 0.02, "injected": 40,
             "detected": 29, "recovered": 11, "timeouts": 1,
             "panics_injected": 6, "panics_absorbed": 6,
             "unexplained_errors": 0}
    chaos.update(overrides)
    return chaos


def synth_load(scale, chaos=None):
    variants = []
    for name in REQUIRED_LOAD_VARIANTS:
        region = name.startswith("region_")
        variants.append({
            "variant": name, "requests": 100, "errors": 0,
            "megabytes": 3.2, "busy_seconds": 0.1,
            "mb_per_s_per_core": 32.0 * scale,
            "compression_ratio": 0.0 if region else 10.0,
            "tiles": 400 if region else 0,
            "tiles_from_cache": 300 if region else 0,
            "p50_us": 200.0, "p90_us": 300.0, "p99_us": 400.0,
            "max_us": 500.0,
        })
    return {"bench": "load", "label": "self-test", "workers": 4,
            "duration_seconds": 1.0, "total_requests": 1200,
            "total_errors": 0, "total_megabytes": 38.4, "mb_per_s": 38.4,
            "mb_per_s_per_core": 9.6, "allocs_per_request": None,
            "tile_cache": {"hits": 900, "misses": 300, "evictions": 0,
                           "entries": 300, "bytes": 9830400,
                           "budget_bytes": 8000000, "hit_rate": 0.75,
                           "hit_megabytes": 29.5, "hit_busy_seconds": 0.01,
                           "hit_mb_per_s": 2950.0, "miss_megabytes": 9.8,
                           "miss_busy_seconds": 0.04,
                           "miss_mb_per_s": 245.0},
            "chaos": chaos,
            "variants": variants}


def expect(condition, what):
    if not condition:
        raise TableError(f"self-test failed: {what}")


def run_gate_quietly(baseline, current, pct):
    """Run apply_gate with stdout suppressed; return the breach count."""
    import contextlib
    import io
    with contextlib.redirect_stdout(io.StringIO()):
        return apply_gate(baseline, current, pct)


def self_test():
    # A 50% regression must breach the default 25% gate, for both kinds.
    expect(run_gate_quietly(synth_sweep(1.0), synth_sweep(0.5),
                            DEFAULT_GATE_PCT) > 0,
           "gate passed a 50% sweep regression")
    expect(run_gate_quietly(synth_load(1.0), synth_load(0.5),
                            DEFAULT_GATE_PCT) > 0,
           "gate passed a 50% load regression")
    # A 10% dip rides inside the default 25% threshold.
    expect(run_gate_quietly(synth_sweep(1.0), synth_sweep(0.9),
                            DEFAULT_GATE_PCT) == 0,
           "gate failed a 10% sweep wobble")
    expect(run_gate_quietly(synth_load(1.0), synth_load(1.2),
                            DEFAULT_GATE_PCT) == 0,
           "gate failed an improvement")
    # A tighter threshold catches the 10% dip.
    expect(run_gate_quietly(synth_sweep(1.0), synth_sweep(0.9), 5.0) > 0,
           "5% gate passed a 10% regression")
    # A lost SIMD fast path (kernel rows halved, codec rows steady) breaches
    # the gate on the kernel rows alone.
    expect(run_gate_quietly(synth_sweep(1.0), synth_sweep(1.0, 0.5),
                            DEFAULT_GATE_PCT) > 0,
           "gate passed a kernel-only SIMD regression")
    # Missing kernel rows in a current sweep report are caught.
    no_kernels = synth_sweep(1.0)
    no_kernels["kernels"] = []
    try:
        check_required(no_kernels, "<synthetic>", REQUIRED_KERNELS,
                       "kernel", "kernels")
    except TableError:
        pass
    else:
        raise TableError("self-test failed: missing kernel rows accepted")
    # Malformed JSON surfaces as TableError, not a traceback.
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        fh.write('{"bench": "sweep", "throughput": [truncated')
        fh.flush()
        try:
            load(fh.name)
        except TableError:
            pass
        else:
            raise TableError("self-test failed: malformed JSON was accepted")
    # Schema violations are caught too.
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        fh.write('{"bench": "load", "variants": [{"variant": "sz"}]}')
        fh.flush()
        try:
            load(fh.name)
        except TableError:
            pass
        else:
            raise TableError("self-test failed: schema violation accepted")
    # An encode-layer row without its timings is one as well.
    bad_layers = synth_sweep(1.0)
    bad_layers["encode_layers"] = [
        {"compressor": "sz", "layers": [{"layer": "entropy"}]}]
    try:
        validate(bad_layers, "<synthetic>")
    except TableError:
        pass
    else:
        raise TableError("self-test failed: malformed encode layer accepted")
    # So is a fallback count without its base.
    bad_fallback = synth_sweep(1.0)
    bad_fallback["rans8_huffman_fallback"] = {"fallback": 1}
    try:
        validate(bad_fallback, "<synthetic>")
    except TableError:
        pass
    else:
        raise TableError("self-test failed: malformed fallback count accepted")
    # Missing registry variants are caught.
    crippled = synth_sweep(1.0)
    crippled["throughput"] = crippled["throughput"][:3]
    try:
        check_required(
            crippled, "<synthetic>", REQUIRED_VARIANTS, "compressor",
            "throughput")
    except TableError:
        pass
    else:
        raise TableError("self-test failed: missing variants accepted")
    # Dropping ONLY the rans8 sweep rows (a report from a binary without
    # the rANS backend) must fail the variant check.
    no_rans8 = synth_sweep(1.0)
    no_rans8["throughput"] = [t for t in no_rans8["throughput"]
                              if "rans8" not in t["compressor"]]
    try:
        check_required(no_rans8, "<synthetic>", REQUIRED_VARIANTS,
                       "compressor", "throughput")
    except TableError:
        pass
    else:
        raise TableError("self-test failed: missing rans8 sweep rows accepted")
    # Dropping ONLY the rans8_decode kernel row must fail the kernel check.
    no_rans8_kernel = synth_sweep(1.0)
    no_rans8_kernel["kernels"] = [k for k in no_rans8_kernel["kernels"]
                                  if k["kernel"] != "rans8_decode"]
    try:
        check_required(no_rans8_kernel, "<synthetic>", REQUIRED_KERNELS,
                       "kernel", "kernels")
    except TableError:
        pass
    else:
        raise TableError("self-test failed: missing rans8_decode row accepted")
    # Dropping ONLY the checksummed-frame load rows must fail the load
    # variant check — the XXH64 verify cost cannot silently vanish.
    no_ck = synth_load(1.0)
    no_ck["variants"] = [v for v in no_ck["variants"]
                         if not v["variant"].endswith("+framed+ck")]
    try:
        check_required(no_ck, "<synthetic>", REQUIRED_LOAD_VARIANTS,
                       "variant", "variants")
    except TableError:
        pass
    else:
        raise TableError("self-test failed: missing +framed+ck rows accepted")
    # Dropping ONLY the region sweep rows (a bench_sweep binary that
    # predates the archive) must fail the sweep row check.
    no_region_sweep = synth_sweep(1.0)
    no_region_sweep["throughput"] = [
        t for t in no_region_sweep["throughput"]
        if not t["compressor"].startswith("region_")]
    try:
        check_required(no_region_sweep, "<synthetic>",
                       REQUIRED_VARIANTS + REQUIRED_REGION_ROWS,
                       "compressor", "throughput")
    except TableError:
        pass
    else:
        raise TableError("self-test failed: missing region sweep rows "
                         "accepted")
    # Dropping ONLY the region load rows must fail the load variant check —
    # region-read latency is a gated serving metric, not an optional extra.
    no_region_load = synth_load(1.0)
    no_region_load["variants"] = [
        v for v in no_region_load["variants"]
        if not v["variant"].startswith("region_")]
    try:
        check_required(no_region_load, "<synthetic>", REQUIRED_LOAD_VARIANTS,
                       "variant", "variants")
    except TableError:
        pass
    else:
        raise TableError("self-test failed: missing region load rows "
                         "accepted")
    # Chaos accounting: a coherent block passes validation, every way the
    # invariant can break must be rejected with a clean one-line error.
    validate_chaos(None, "<synthetic>")          # chaos off: fine
    validate_chaos(synth_chaos(), "<synthetic>")  # coherent block: fine
    for label, broken in [
        ("an unbalanced injected count", synth_chaos(injected=41)),
        ("a swallowed worker panic", synth_chaos(panics_absorbed=5)),
        ("an unexplained request failure", synth_chaos(unexplained_errors=2)),
        ("a chaos block missing its counters", {"enabled": True}),
    ]:
        try:
            validate_chaos(broken, "<synthetic>")
        except TableError:
            pass
        else:
            raise TableError(f"self-test failed: {label} was accepted")
    # The same enforcement must fire through the full load() path, so a
    # broken BENCH_load.json fails --check-only, not just direct calls.
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        json.dump(synth_load(1.0, chaos=synth_chaos(recovered=0)), fh)
        fh.flush()
        try:
            load(fh.name)
        except TableError:
            pass
        else:
            raise TableError("self-test failed: load() accepted a report "
                             "with broken chaos accounting")
    # And a chaos run whose books balance renders (and gates) like any
    # other load report.
    expect(run_gate_quietly(synth_load(1.0),
                            synth_load(1.0, chaos=synth_chaos()),
                            DEFAULT_GATE_PCT) == 0,
           "gate failed a clean chaos run")
    # A halved region-read decompress rate must breach the gate even though
    # the region rows' compress side is structurally zero.
    slow_regions = synth_sweep(1.0)
    for t in slow_regions["throughput"]:
        if t["compressor"].startswith("region_"):
            t["decompress_mb_per_s"] *= 0.5
    expect(run_gate_quietly(synth_sweep(1.0), slow_regions,
                            DEFAULT_GATE_PCT) > 0,
           "gate passed a region-read-only regression")
    print("bench_table.py --self-test: all checks passed "
          "(gate fails on synthetic regression, clean errors on malformed "
          "input)")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--gate", type=float, metavar="PCT", default=None,
                        help="fail if any gated metric regresses more than "
                             f"PCT percent (suggested: {DEFAULT_GATE_PCT:.0f})")
    parser.add_argument("--check-only", action="store_true",
                        help="validate report files and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in gate/error-handling checks")
    parser.add_argument("files", nargs="*",
                        help="BASELINE CURRENT (or FILE... with --check-only)")
    args = parser.parse_args()

    try:
        if args.self_test:
            self_test()
        elif args.check_only:
            if not args.files:
                raise TableError("--check-only needs at least one file")
            for path in args.files:
                load(path)
                print(f"{path}: OK ({kind(load(path))} report)")
        else:
            if len(args.files) != 2:
                parser.error("expected exactly two files: BASELINE CURRENT")
            compare(args.files[0], args.files[1], args.gate)
    except TableError as e:
        print(f"bench_table.py: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
