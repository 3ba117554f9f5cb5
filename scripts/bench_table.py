#!/usr/bin/env python3
"""Validate BENCH_sweep.json reports and render one as a markdown table.

Usage:
  bench_table.py FILE
      Render the report as GitHub-flavoured markdown (the CI step summary).

  bench_table.py --check-only FILE [FILE ...]
      Validate that each file parses and matches its report schema. A
      malformed or truncated artifact fails with a one-line message (never
      a stack trace), so CI steps surface the real problem.

Sweep reports (written by bench_sweep) carry the paper-scale stage
seconds, per-codec MB/s and ratio, the encode layers and the variogram's
cost. They are not compared against anything: throughput, latency,
allocation and cache numbers come from benchmarks/e2e.
"""

import argparse
import itertools
import json
import sys

class TableError(Exception):
    """A user-facing failure: printed as one line, never a traceback."""


def load(path):
    """Parse and validate a report file."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except OSError as e:
        raise TableError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise TableError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(report, dict):
        raise TableError(f"{path}: expected a JSON object at top level")
    kind = report.get("bench")
    if kind != "sweep":
        raise TableError(f"{path}: unknown report kind {kind!r}")
    validate_sweep(report, path)
    return report


def rows_with(report, path, section, keys):
    """The `section` array of `report`, every row carrying all of `keys`."""
    rows = report.get(section)
    if not isinstance(rows, list):
        raise TableError(f"{path}: report has no '{section}' array")
    for row in rows:
        missing = [k for k in keys if not isinstance(row, dict) or k not in row]
        if missing:
            raise TableError(
                f"{path}: a '{section}' row is missing '{missing[0]}'")
    return rows


def validate_sweep(report, path):
    rows_with(report, path, "stages", ("stage", "seconds"))
    rows_with(report, path, "throughput",
              ("compressor", "compress_mb_per_s", "decompress_mb_per_s",
               "compression_ratio"))
    for entry in rows_with(report, path, "encode_layers",
                           ("compressor", "layers")):
        rows_with(entry, f"{path}: {entry['compressor']}", "layers",
                  ("layer", "min_seconds", "median_seconds"))
    fallback = report.get("rans8_huffman_fallback")
    if fallback is not None and not (
            isinstance(fallback, dict)
            and all(isinstance(fallback.get(k), int)
                    for k in ("streams", "fallback"))):
        raise TableError(f"{path}: 'rans8_huffman_fallback' needs integer "
                         "'streams' and 'fallback'")


def table(header, rows):
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for row in rows:
        print("| " + " | ".join(str(cell) for cell in row) + " |")
    print()


def render_sweep(report):
    print(f"## bench_sweep — {report.get('label', '?')}, "
          f"SIMD {report.get('simd_level') or 'unrecorded'}")
    print()
    table(["compressor", "compress MB/s", "decompress MB/s", "ratio"],
          [(t["compressor"], f"{t['compress_mb_per_s']:.1f}",
            f"{t['decompress_mb_per_s']:.1f}", f"{t['compression_ratio']:.2f}")
           for t in report["throughput"]])
    # One table per codec family: `sz*` and `mgard*` name their middle
    # layers differently. Min of the repetitions, median in brackets.
    for names, entries in itertools.groupby(
            report["encode_layers"],
            key=lambda e: [l["layer"] for l in e["layers"]]):
        rows = []
        for entry in entries:
            fixed = entry.get("tile_fixed_cost_us")
            frac = entry.get("tile_table_bytes_frac")
            rows.append(
                [entry["compressor"]]
                + [f"{l['min_seconds'] * 1e3:.2f} [{l['median_seconds'] * 1e3:.2f}]"
                   for l in entry["layers"]]
                + [f"{sum(l['min_seconds'] for l in entry['layers']) * 1e3:.2f}",
                   "—" if fixed is None else f"{fixed:.1f}",
                   "—" if frac is None else f"{frac * 100:.1f} %"])
        print("Encode layers (ms: min [median])")
        print()
        table(["compressor"] + names
              + ["layers sum", "per-tile fixed us", "table bytes"], rows)
    fallback = report.get("rans8_huffman_fallback")
    if fallback:
        print(f"{fallback['fallback']} of {fallback['streams']} `*-rans8` "
              "streams overflowed the 12-bit rANS table and carry "
              "Huffman-mode codes: the row of such a stream measures Huffman.")
        print()
    table(["stage", "seconds"],
          [(s["stage"], f"{s['seconds']:.3f}") for s in report["stages"]])
    if "variogram_pairs" in report:
        print(f"Global variogram: {report['variogram_pairs']} pairs, "
              f"{report['variogram_ns_per_pair']:.3f} ns/pair at one thread, "
              f"parallel efficiency {report['variogram_parallel_eff']:.2f} at "
              f"{report['variogram_threads']} threads.")
        print()
    cost = report.get("predictor_cost_over_codec_cost")
    if cost is not None:
        print("Predictor cost / codec cost (correlation_statistics_compute ÷ "
              f"compress_sz): {cost:.2f}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check-only", action="store_true",
                        help="validate report files and exit")
    parser.add_argument("files", nargs="+", help="BENCH_sweep.json report(s)")
    args = parser.parse_args()
    try:
        if args.check_only:
            for path in args.files:
                print(f"{path}: OK ({load(path)['bench']} report)")
        elif len(args.files) != 1:
            parser.error("expected exactly one report to render")
        else:
            render_sweep(load(args.files[0]))
    except TableError as e:
        print(f"bench_table.py: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
