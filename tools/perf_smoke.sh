#!/usr/bin/env bash
# Perf smoke: assert that perf_probe's events/sec has not regressed more
# than AEQ_PERF_TOLERANCE percent (default 5) against the committed
# baseline in tools/perf_baseline_ci.txt.
#
# Four modes, four baseline keys in the same file:
#   default               tracing disabled (events_per_sec_millions) — guards
#                         the null-recorder branch on every emission site
#   AEQ_PERF_TELEMETRY=1  full windowed telemetry on (timeseries + watchdog +
#                         flight recorder; events_per_sec_millions_telemetry)
#                         — guards the enabled-path cost of the pipeline
#   AEQ_PERF_SHARDED=1    2-shard conservative-PDES run on the calendar
#                         backend (events_per_sec_millions_sharded) — guards
#                         the barrier/handoff overhead. This is a throughput
#                         floor, not a speedup check (it must hold even on a
#                         single-core CI runner, where the two shard workers
#                         time-slice); speedup is recorded and gated by
#                         tools/bench_hotpath.sh + validate_trace.py, which
#                         know the core count.
#   AEQ_PERF_PROF=1       execution profiler on (--prof, obs/prof;
#                         events_per_sec_millions_prof) — guards the
#                         enabled-path cost of the region instrumentation.
#                         The committed baseline is set within 5% of the
#                         unprofiled one, so this floor doubles as a cap on
#                         profiling overhead: if instrumentation gets more
#                         expensive, this mode regresses first.
#
# The baselines are absolute events/sec numbers and therefore machine
# dependent. Refresh on the reference machine with:
#
#   AEQ_PERF_UPDATE_BASELINE=1 [AEQ_PERF_TELEMETRY=1|AEQ_PERF_SHARDED=1|AEQ_PERF_PROF=1] tools/perf_smoke.sh <build-dir>
#
# Usage: tools/perf_smoke.sh [build-dir]   (default: build)
set -euo pipefail

build_dir=${1:-build}
probe="$build_dir/bench/perf_probe"
baseline_file="$(dirname "$0")/perf_baseline_ci.txt"
tolerance_pct=${AEQ_PERF_TOLERANCE:-5}

if [[ ! -x "$probe" ]]; then
  echo "perf_smoke: $probe not found (build the bench targets first)" >&2
  exit 1
fi

key=events_per_sec_millions
telemetry=0
sharded=0
prof=0
if [[ "${AEQ_PERF_TELEMETRY:-0}" == "1" ]]; then
  key=events_per_sec_millions_telemetry
  telemetry=1
  scratch=$(mktemp -d)
  trap 'rm -rf "$scratch"' EXIT
elif [[ "${AEQ_PERF_SHARDED:-0}" == "1" ]]; then
  key=events_per_sec_millions_sharded
  sharded=1
elif [[ "${AEQ_PERF_PROF:-0}" == "1" ]]; then
  key=events_per_sec_millions_prof
  prof=1
  scratch=$(mktemp -d)
  trap 'rm -rf "$scratch"' EXIT
fi

# Prints the best backend's events/sec for one probe iteration. Telemetry
# mode runs the backends separately: the bench --timeseries/--watchdog
# flags attach to exactly one experiment (trace-point 0, the first), so a
# single --backend=both invocation would leave the second backend untraced
# and measure the wrong thing.
measure_once() {
  local parse='s/.*= \([0-9.]*\)M events\/sec.*/\1/p'
  if [[ "$telemetry" == "1" ]]; then
    local backend rate best_rate=0
    for backend in heap calendar; do
      rate=$("$probe" --warmup-ms=2 --run-ms=4 --backend="$backend" \
        --timeseries "$scratch/$backend-ts" \
        --watchdog "$scratch/$backend-watchdog.log" \
        --flight-recorder "$scratch/$backend-flight.json" |
        sed -n "$parse")
      [[ -n "$rate" ]] || return 1
      best_rate=$(awk -v a="$best_rate" -v b="$rate" \
        'BEGIN { print (b > a) ? b : a }')
    done
    echo "$best_rate"
  elif [[ "$sharded" == "1" ]]; then
    "$probe" --warmup-ms=2 --run-ms=4 --backend=calendar --shards=2 |
      sed -n "$parse"
  elif [[ "$prof" == "1" ]]; then
    # The probe's stdout is byte-identical with profiling on (the report
    # goes to files and stderr), so the same parse works.
    "$probe" --warmup-ms=2 --run-ms=4 --backend=calendar \
      --prof="$scratch/prof.json" 2>/dev/null |
      sed -n "$parse"
  else
    "$probe" --warmup-ms=2 --run-ms=4 --backend=both |
      sed -n "$parse" | sort -g | tail -1
  fi
}

# Best-of-3 to damp scheduler noise; the workload itself is deterministic
# (the probe prints identical event counts every run).
best=0
for _ in 1 2 3; do
  rate=$(measure_once) ||
    { echo "perf_smoke: could not parse events/sec" >&2; exit 1; }
  [[ -n "$rate" ]] || { echo "perf_smoke: could not parse events/sec" >&2; exit 1; }
  best=$(awk -v a="$best" -v b="$rate" 'BEGIN { print (b > a) ? b : a }')
done

if [[ "${AEQ_PERF_UPDATE_BASELINE:-0}" == "1" ]]; then
  # Replace this mode's key, keep the other one and the header comments.
  grep -v "^${key}=" "$baseline_file" > "$baseline_file.tmp" 2>/dev/null || true
  echo "${key}=$best" >> "$baseline_file.tmp"
  mv "$baseline_file.tmp" "$baseline_file"
  echo "perf_smoke: $key baseline updated to ${best}M events/sec"
  exit 0
fi

baseline=$(sed -n "s/^${key}=//p" "$baseline_file")
[[ -n "$baseline" ]] || { echo "perf_smoke: no baseline in $baseline_file" >&2; exit 1; }

floor=$(awk -v b="$baseline" -v t="$tolerance_pct" 'BEGIN { print b * (1 - t / 100) }')
echo "perf_smoke: measured ${best}M events/sec, baseline ${baseline}M," \
  "floor ${floor}M (tolerance ${tolerance_pct}%)"
awk -v m="$best" -v f="$floor" 'BEGIN { exit !(m >= f) }' || {
  echo "perf_smoke: REGRESSION — ${best}M < ${floor}M events/sec" >&2
  exit 1
}
echo "perf_smoke: OK"
