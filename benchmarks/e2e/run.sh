#!/usr/bin/env bash
# The repo's end-to-end benchmark: builds benchmarks/e2e and runs it.
#
#   run.sh                       every workload, untraced; every end-to-end metric
#   run.sh --trace               every workload, traced; every per-layer metric,
#                                and trace_<workload>.json beside the results
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                                one run; the last line of output is its result
#   run.sh --self-test           proves that a bound violation and an error
#                                return are counted as failures
#   run.sh --calibrate           spread of every metric over 5 runs of one seed
#   run.sh --smoke               2 s of every workload, untraced and traced
#
# --seed, --seconds and --threads may be added to every form; any other flag
# is an error. T, the number of threads in total, is min(nproc, 4) unless
# LCC_THREADS or --threads says otherwise. Results and traces go to
# <target dir>/e2e/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

cpus="$(nproc)"
export LCC_THREADS="${LCC_THREADS:-$((cpus < 4 ? cpus : 4))}"
export LCC_E2E_RUSTC="$(rustc --version)"
export LCC_E2E_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"

mode=all
trace=0
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) mode=one; pass+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
    --trace)
      # With a value it belongs to one run; bare, it asks for the traced runs.
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --self-test) mode=self-test; shift ;;
    --calibrate) mode=calibrate; shift ;;
    --smoke) mode=smoke; shift ;;
    --seed|--seconds|--threads) pass+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 64 ;;
  esac
done

# Cargo reports on stderr, so stdout holds the benchmark's lines only.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target"
bin="$target/release/lcc-e2e"
out="$target/e2e"

workloads=(select codec region ingest)

case "$mode" in
  one)
    exec "$bin" --trace "$trace" --out-dir "$out" ${pass[@]+"${pass[@]}"}
    ;;
  all)
    for w in "${workloads[@]}"; do
      "$bin" --workload "$w" --trace "$trace" --out-dir "$out" ${pass[@]+"${pass[@]}"}
    done
    ;;
  calibrate)
    exec "$bin" --calibrate --trace "$trace" ${pass[@]+"${pass[@]}"}
    ;;
  smoke)
    for w in "${workloads[@]}"; do
      for t in 0 1; do
        "$bin" --workload "$w" --trace "$t" ${pass[@]+"${pass[@]}"} --seconds 2 | tail -n 1
      done
    done
    ;;
  self-test)
    # The run must count both injected faults and exit with the code of a
    # run whose requests failed.
    set +e
    log="$("$bin" --workload codec --self-test ${pass[@]+"${pass[@]}"} --seconds 2)"
    code=$?
    set -e
    echo "$log"
    if [ "$code" -eq 2 ] && grep -q '^self-test: injected 2 faults, counted 2$' <<<"$log" \
      && grep -q '"correct": false' <<<"$log"; then
      echo "self-test passed: both faults were counted and the run exited with code 2"
    else
      echo "self-test FAILED: exit code $code" >&2
      exit 1
    fi
    ;;
esac
