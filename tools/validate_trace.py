#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file produced by obs::ChromeTraceSink.

Stdlib-only (no jsonschema dependency): checks the JSON Object Format of
the trace_event spec -- a top-level object with a `traceEvents` array --
and, per event, the fields each phase type requires:

  M (metadata)        name, pid, args.name
  X (complete span)   ts, dur >= 0, pid, tid
  i (instant)         ts, s in {t, p, g}, pid, tid
  C (counter)         ts, pid, numeric args

Exits non-zero on the first malformed event. With --expect-spans it also
requires at least one RPC span and one counter sample, which is what a
traced fig/abl run must contain.

The sink streams one event object per line, and traced runs easily reach
tens of gigabytes, so the validator streams too: each line is parsed and
checked independently and memory use stays flat. If the file does not
match the one-event-per-line layout it falls back to a whole-document
json.load.

It also understands the windowed telemetry outputs of obs::TimeseriesSink
(--timeseries-csv / --timeseries-json): per-window schema checks plus the
cross-row invariants the pipeline promises -- window starts strictly
monotonic, window end after start, per-window QoS byte shares summing to
one (or all zero), RNL percentiles ordered p50 <= p90 <= p99, and rates
(slo_compliance, byte_share, p_admit) inside [0, 1]. A flight-recorder
dump is an ordinary Chrome trace and goes through the positional TRACE
path.

--prof-json checks an execution-profile report (`--prof=PATH`, written by
obs::prof::write_json, DESIGN.md §14): the aeq-prof-v1 schema plus the
invariants the profiler promises by construction -- per-region self time
never exceeding total time, histogram counts summing to the call count,
self shares over the run denominator summing to at most 1, and (for
sharded runs) monotonically non-decreasing executive epochs, backoff
windows bounded by the window count, barrier stall share inside [0, 1]
and a load-imbalance factor of at least 1. Each is negative-tested in CI
by mangling a fresh report and expecting a non-zero exit.

Finally, --bench-json checks the committed speed artifact
(BENCH_hotpath.json, written by tools/bench_hotpath.sh): schema version,
one perf_probe result per backend x telemetry combination with positive
events/sec, matching event counts across backends for the same telemetry
mode (the two schedulers must dispatch the identical event sequence),
a sharded section covering shard counts 1/2/4 whose event counts agree
exactly (a sharded run must reproduce the serial event sequence) with a
speedup floor at 4 shards when the recording machine had >= 4 cores,
well-formed micro_core entries, and a profile section (schema v3) that
breaks the headline events/sec down by component and by shard, with the
same share/stall/imbalance invariants as --prof-json. CI runs it against
both the committed file and a freshly generated one, so a schema drift in
either direction fails.

Usage: tools/validate_trace.py [TRACE.json] [--expect-spans]
           [--timeseries-csv TS.csv] [--timeseries-json TS.json]
           [--bench-json BENCH.json] [--prof-json PROF.json]
"""

import argparse
import collections
import json
import numbers
import sys

PROLOGUE = '{"displayTimeUnit":"ms","traceEvents":['

TIMESERIES_HEADER = (
    "window_start_us,window_end_us,scope,completed,terminated,slo_met,"
    "slo_compliance,rnl_p50_us,rnl_p90_us,rnl_p99_us,bytes,byte_share,"
    "p_admit_mean,p_admit_min,admits,downgrades,admission_drops,"
    "packet_drops,enqueued,dequeued,qlen_max_bytes,qlen_mean_bytes"
)
# The sink renders ratios with %.6g, so a sum of rounded shares can be off
# by a few ULPs of the sixth significant digit.
SHARE_TOLERANCE = 1e-4

ALLOWED_PHASES = {"M", "X", "i", "C"}
INSTANT_SCOPES = {"t", "p", "g"}


def fail(index, event, why):
    snippet = json.dumps(event)[:200]
    sys.exit(f"traceEvents[{index}]: {why}\n  {snippet}")


def require(event, index, key, types):
    if key not in event:
        fail(index, event, f"missing required key '{key}'")
    if not isinstance(event[key], types):
        fail(index, event, f"key '{key}' has type {type(event[key]).__name__}")
    return event[key]


def validate_event(event, index):
    if not isinstance(event, dict):
        fail(index, event, "event is not an object")
    phase = require(event, index, "ph", str)
    if phase not in ALLOWED_PHASES:
        fail(index, event, f"unknown phase '{phase}'")
    pid = require(event, index, "pid", int)
    if pid < 0:
        fail(index, event, "negative pid")
    require(event, index, "name", str)

    if phase == "M":
        args = require(event, index, "args", dict)
        if event["name"] == "process_name" and not isinstance(
            args.get("name"), str
        ):
            fail(index, event, "process_name metadata without args.name")
        return

    ts = require(event, index, "ts", numbers.Real)
    if ts < 0:
        fail(index, event, "negative timestamp")
    if phase == "X":
        dur = require(event, index, "dur", numbers.Real)
        if dur < 0:
            fail(index, event, "negative span duration")
        require(event, index, "tid", int)
    elif phase == "i":
        scope = require(event, index, "s", str)
        if scope not in INSTANT_SCOPES:
            fail(index, event, f"instant scope '{scope}' not in t/p/g")
        require(event, index, "tid", int)
    elif phase == "C":
        args = require(event, index, "args", dict)
        if not args:
            fail(index, event, "counter event with empty args")
        for key, value in args.items():
            if not isinstance(value, numbers.Real):
                fail(index, event, f"counter series '{key}' is not numeric")


def iter_events_streaming(handle):
    """Yields event objects from the sink's one-event-per-line layout.

    Raises ValueError if the file deviates from that layout; the caller
    falls back to a whole-document parse.
    """
    first = handle.readline().rstrip("\n")
    if first != PROLOGUE:
        raise ValueError("unexpected prologue")
    closed = False
    for line in handle:
        line = line.rstrip("\n")
        if line == "]}":
            closed = True
            continue
        if closed:
            raise ValueError("content after the closing brackets")
        if line.endswith(","):
            line = line[:-1]
        yield json.loads(line)
    if not closed:
        raise ValueError("trace not closed (missing flush?)")


def iter_events_document(path):
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            sys.exit(f"{path}: not valid JSON: {err}")
    if not isinstance(doc, dict) or not isinstance(
        doc.get("traceEvents"), list
    ):
        sys.exit(f"{path}: missing top-level traceEvents array")
    unit = doc.get("displayTimeUnit", "ms")
    if unit not in ("ms", "ns"):
        sys.exit(f"{path}: invalid displayTimeUnit '{unit}'")
    yield from doc["traceEvents"]


def ts_fail(path, where, why):
    sys.exit(f"{path}: {where}: {why}")


def ts_float(path, where, name, text):
    try:
        return float(text)
    except ValueError:
        ts_fail(path, where, f"{name} '{text}' is not numeric")


def check_unit(path, where, name, value):
    if not 0.0 <= value <= 1.0 + SHARE_TOLERANCE:
        ts_fail(path, where, f"{name}={value} outside [0, 1]")


def check_percentiles(path, where, p50, p90, p99):
    if not p50 <= p90 <= p99:
        ts_fail(
            path,
            where,
            f"percentiles not ordered: p50={p50} p90={p90} p99={p99}",
        )


def check_window_bounds(path, where, start, end, prev_start):
    if end <= start:
        ts_fail(path, where, f"window end {end} not after start {start}")
    if prev_start is not None and start <= prev_start:
        ts_fail(
            path,
            where,
            f"window start {start} not after previous {prev_start}",
        )


def check_share_sum(path, where, shares):
    total = sum(shares)
    if total > SHARE_TOLERANCE and abs(total - 1.0) > SHARE_TOLERANCE:
        ts_fail(path, where, f"qos byte shares sum to {total}, not 1")


def validate_timeseries_csv(path):
    """Streams the long-format CSV: one global row per window, then qos
    rows, then active-port rows, all sharing the window's start/end."""
    windows = 0
    prev_start = None
    shares = []
    share_where = None
    with open(path) as handle:
        header = handle.readline().rstrip("\n")
        if header != TIMESERIES_HEADER:
            ts_fail(path, "line 1", "unexpected timeseries CSV header")
        for lineno, line in enumerate(handle, start=2):
            where = f"line {lineno}"
            fields = line.rstrip("\n").split(",")
            if len(fields) != len(TIMESERIES_HEADER.split(",")):
                ts_fail(path, where, f"expected 22 columns, got {len(fields)}")
            start = ts_float(path, where, "window_start_us", fields[0])
            end = ts_float(path, where, "window_end_us", fields[1])
            scope = fields[2]
            if scope == "global":
                check_window_bounds(path, where, start, end, prev_start)
                prev_start = start
                check_share_sum(path, share_where, shares)
                shares = []
                share_where = where
                windows += 1
                for name, text in (
                    ("p_admit_mean", fields[12]),
                    ("p_admit_min", fields[13]),
                ):
                    check_unit(path, where, name, ts_float(path, where, name, text))
            elif scope.startswith("qos"):
                if prev_start is None or start != prev_start:
                    ts_fail(path, where, "qos row outside its global window")
                compliance = ts_float(
                    path, where, "slo_compliance", fields[6]
                )
                check_unit(path, where, "slo_compliance", compliance)
                p50 = ts_float(path, where, "rnl_p50_us", fields[7])
                p90 = ts_float(path, where, "rnl_p90_us", fields[8])
                p99 = ts_float(path, where, "rnl_p99_us", fields[9])
                check_percentiles(path, where, p50, p90, p99)
                share = ts_float(path, where, "byte_share", fields[11])
                check_unit(path, where, "byte_share", share)
                shares.append(share)
            elif scope.startswith("port:"):
                if prev_start is None or start != prev_start:
                    ts_fail(path, where, "port row outside its global window")
                drops = ts_float(path, where, "packet_drops", fields[17])
                enq = ts_float(path, where, "enqueued", fields[18])
                deq = ts_float(path, where, "dequeued", fields[19])
                if enq == 0 and deq == 0 and drops == 0:
                    ts_fail(path, where, "idle port row should be omitted")
            elif scope.startswith("gauge:"):
                # Admission-controller gauge rows (fleet mean / fleet min
                # in the p_admit_mean / p_admit_min columns).
                if prev_start is None or start != prev_start:
                    ts_fail(path, where, "gauge row outside its global window")
                mean = ts_float(path, where, "gauge mean", fields[12])
                low = ts_float(path, where, "gauge min", fields[13])
                # Both render with %.6g, so equal values can round apart.
                if low > mean * (1.0 + SHARE_TOLERANCE) + SHARE_TOLERANCE:
                    ts_fail(path, where, f"gauge min {low} exceeds mean {mean}")
            else:
                ts_fail(path, where, f"unknown scope '{scope}'")
    check_share_sum(path, share_where, shares)
    if windows == 0:
        ts_fail(path, "EOF", "no windows in timeseries CSV")
    print(f"{path}: OK — {windows} windows (CSV)")


def validate_timeseries_json(path):
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            sys.exit(f"{path}: not valid JSON: {err}")
    if not isinstance(doc, dict) or not isinstance(doc.get("windows"), list):
        ts_fail(path, "top level", "missing windows array")
    width = doc.get("window_width_us")
    if not isinstance(width, numbers.Real) or width <= 0:
        ts_fail(path, "top level", f"bad window_width_us {width!r}")
    prev_start = None
    for index, window in enumerate(doc["windows"]):
        where = f"windows[{index}]"
        if not isinstance(window, dict):
            ts_fail(path, where, "window is not an object")
        start = window.get("window_start_us")
        end = window.get("window_end_us")
        if not isinstance(start, numbers.Real) or not isinstance(
            end, numbers.Real
        ):
            ts_fail(path, where, "missing window bounds")
        check_window_bounds(path, where, start, end, prev_start)
        prev_start = start
        universe = window.get("global")
        if not isinstance(universe, dict):
            ts_fail(path, where, "missing global aggregates")
        for name in ("p_admit_mean", "p_admit_min"):
            check_unit(path, where, name, universe.get(name, 0.0))
        qos_list = window.get("qos")
        if not isinstance(qos_list, list) or not qos_list:
            ts_fail(path, where, "missing qos array")
        shares = []
        for qos in qos_list:
            check_unit(path, where, "slo_compliance", qos["slo_compliance"])
            check_percentiles(
                path,
                where,
                qos["rnl_p50_us"],
                qos["rnl_p90_us"],
                qos["rnl_p99_us"],
            )
            check_unit(path, where, "byte_share", qos["byte_share"])
            shares.append(qos["byte_share"])
        check_share_sum(path, where, shares)
        if not isinstance(window.get("ports"), list):
            ts_fail(path, where, "missing ports array")
        gauges = window.get("gauges", [])
        if not isinstance(gauges, list):
            ts_fail(path, where, "gauges is not an array")
        for gauge in gauges:
            if not isinstance(gauge, dict) or not isinstance(
                gauge.get("name"), str
            ):
                ts_fail(path, where, "gauge entry without a name")
            mean = gauge.get("mean")
            low = gauge.get("min")
            if not isinstance(mean, numbers.Real) or not isinstance(
                low, numbers.Real
            ):
                ts_fail(path, where, f"gauge '{gauge['name']}' not numeric")
            if low > mean * (1.0 + SHARE_TOLERANCE) + SHARE_TOLERANCE:
                ts_fail(
                    path,
                    where,
                    f"gauge '{gauge['name']}' min {low} exceeds mean {mean}",
                )
    if not doc["windows"]:
        ts_fail(path, "top level", "no windows in timeseries JSON")
    print(f"{path}: OK — {len(doc['windows'])} windows (JSON)")


PROF_SCHEMA = "aeq-prof-v1"


def prof_fail(path, where, why):
    sys.exit(f"{path}: {where}: {why}")


def prof_number(path, where, name, value, minimum=None):
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        prof_fail(path, where, f"{name} is not numeric: {value!r}")
    if minimum is not None and value < minimum:
        prof_fail(path, where, f"{name}={value} below {minimum}")
    return value


def check_prof_regions(path, where, regions):
    """Validates one regions array; returns the sum of its self shares."""
    if not isinstance(regions, list):
        prof_fail(path, where, "regions is not an array")
    share_sum = 0.0
    names = set()
    for index, region in enumerate(regions):
        rwhere = f"{where}.regions[{index}]"
        if not isinstance(region, dict):
            prof_fail(path, rwhere, "region is not an object")
        name = region.get("name")
        if not isinstance(name, str) or not name:
            prof_fail(path, rwhere, f"bad region name {name!r}")
        if name in names:
            prof_fail(path, rwhere, f"duplicate region {name!r}")
        names.add(name)
        calls = prof_number(path, rwhere, "calls", region.get("calls"), 1)
        sampled = prof_number(
            path, rwhere, "sampled_calls", region.get("sampled_calls"), 1
        )
        # calls is the sample-scaled estimate; it can never undercut the
        # raw number of timed calls it was scaled up from.
        if calls < sampled:
            prof_fail(
                path,
                rwhere,
                f"calls {calls} below sampled_calls {sampled}",
            )
        total = prof_number(
            path, rwhere, "total_cycles", region.get("total_cycles"), 0
        )
        self_cycles = prof_number(
            path, rwhere, "self_cycles", region.get("self_cycles"), 0
        )
        if self_cycles > total:
            prof_fail(
                path,
                rwhere,
                f"self_cycles {self_cycles} exceeds total_cycles {total}",
            )
        share = prof_number(
            path, rwhere, "self_share", region.get("self_share"), 0
        )
        if share > 1.0 + SHARE_TOLERANCE:
            prof_fail(path, rwhere, f"self_share {share} above 1")
        share_sum += share
        hist = region.get("hist")
        if not isinstance(hist, list):
            prof_fail(path, rwhere, "missing hist array")
        hist_count = 0
        prev_bucket = -1
        for pair in hist:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(v, int) for v in pair)
            ):
                prof_fail(path, rwhere, f"bad hist pair {pair!r}")
            bucket, bucket_count = pair
            if bucket <= prev_bucket:
                prof_fail(path, rwhere, "hist buckets not strictly increasing")
            prev_bucket = bucket
            hist_count += bucket_count
        # The histogram only holds timed (sampled) calls.
        if hist_count != sampled:
            prof_fail(
                path,
                rwhere,
                f"hist counts sum to {hist_count}, "
                f"sampled_calls is {sampled}",
            )
    return share_sum


def check_prof_executive(path, executive, num_shards):
    where = "executive"
    if not isinstance(executive, dict):
        prof_fail(path, where, "executive is not an object")
    windows = prof_number(path, where, "windows", executive.get("windows"), 1)
    backoff = prof_number(
        path, where, "backoff_windows", executive.get("backoff_windows"), 0
    )
    if backoff > windows:
        prof_fail(
            path, where, f"backoff_windows {backoff} exceeds windows {windows}"
        )
    epochs = executive.get("epochs")
    if not isinstance(epochs, list) or not epochs:
        prof_fail(path, where, "missing epochs array")
    prev = None
    for epoch in epochs:
        prof_number(path, where, "epoch", epoch, 0)
        if prev is not None and epoch < prev:
            prof_fail(path, where, f"epochs not monotonic: {epochs}")
        prev = epoch
    if epochs[-1] != windows:
        prof_fail(
            path,
            where,
            f"final epoch {epochs[-1]} does not match windows {windows}",
        )
    prof_number(
        path, where, "barrier_cycles", executive.get("barrier_cycles"), 0
    )
    stall = prof_number(
        path,
        where,
        "barrier_stall_share",
        executive.get("barrier_stall_share"),
        0,
    )
    if stall > 1.0 + SHARE_TOLERANCE:
        prof_fail(path, where, f"barrier_stall_share {stall} above 1")
    imbalance = prof_number(
        path, where, "load_imbalance", executive.get("load_imbalance"), 0
    )
    # max/mean over shards is at least 1 whenever cycles were measured; 0 is
    # the sentinel for "nothing measured".
    if imbalance != 0 and imbalance < 1.0 - SHARE_TOLERANCE:
        prof_fail(path, where, f"load_imbalance {imbalance} below 1")
    if imbalance > num_shards + SHARE_TOLERANCE:
        prof_fail(
            path,
            where,
            f"load_imbalance {imbalance} above the shard count {num_shards}",
        )
    for name in ("mailbox_depth_hwm", "cross_shard_packets"):
        prof_number(path, where, name, executive.get(name), 0)
    hist = executive.get("window_hist")
    if not isinstance(hist, list):
        prof_fail(path, where, "missing window_hist array")
    hist_count = sum(
        pair[1]
        for pair in hist
        if isinstance(pair, list) and len(pair) == 2
    )
    if hist_count != windows:
        prof_fail(
            path,
            where,
            f"window_hist counts sum to {hist_count}, windows is {windows}",
        )
    return windows


def validate_prof_json(path):
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            sys.exit(f"{path}: not valid JSON: {err}")
    if not isinstance(doc, dict):
        prof_fail(path, "top level", "document is not an object")
    if doc.get("schema") != PROF_SCHEMA:
        prof_fail(
            path,
            "top level",
            f"schema {doc.get('schema')!r}, expected {PROF_SCHEMA!r}",
        )
    prof_number(path, "top level", "events_processed",
                doc.get("events_processed"), 1)
    prof_number(path, "top level", "elapsed_seconds",
                doc.get("elapsed_seconds"), 0)
    prof_number(path, "top level", "events_per_sec",
                doc.get("events_per_sec"), 0)
    prof_number(path, "top level", "cycles_per_second",
                doc.get("cycles_per_second"), 1)
    num_shards = doc.get("num_shards")
    if not isinstance(num_shards, int) or num_shards < 1:
        prof_fail(path, "top level", f"bad num_shards {num_shards!r}")
    sample_period = doc.get("sample_period")
    if not isinstance(sample_period, int) or sample_period < 1:
        prof_fail(path, "top level", f"bad sample_period {sample_period!r}")
    prof_number(path, "top level", "denominator_cycles",
                doc.get("denominator_cycles"), 1)

    # The aggregate regions are the headline view; its shares are over the
    # whole-run denominator and must sum to at most 1.
    share_sum = check_prof_regions(path, "top level", doc.get("regions"))
    if share_sum > 1.0 + SHARE_TOLERANCE:
        prof_fail(
            path,
            "top level",
            f"region self shares sum to {share_sum}, above 1",
        )

    threads = doc.get("threads")
    if not isinstance(threads, list) or not threads:
        prof_fail(path, "top level", "missing threads array")
    expected = (
        [f"shard{k}" for k in range(num_shards)] + ["coordinator"]
        if num_shards > 1
        else ["serial"]
    )
    labels = [
        t.get("label") if isinstance(t, dict) else None for t in threads
    ]
    if labels != expected:
        prof_fail(
            path, "threads", f"labels {labels}, expected {expected}"
        )
    for index, thread in enumerate(threads):
        where = f"threads[{index}]"
        prof_number(path, where, "events", thread.get("events"), 0)
        prof_number(path, where, "busy_cycles", thread.get("busy_cycles"), 0)
        prof_number(path, where, "wait_cycles", thread.get("wait_cycles"), 0)
        prof_number(
            path, where, "sampled_trees", thread.get("sampled_trees"), 0
        )
        # roots_entered / roots_sampled >= 1 whenever anything was timed.
        prof_number(
            path, where, "sample_scale", thread.get("sample_scale"), 1
        )
        check_prof_regions(path, where, thread.get("regions"))

    executive = doc.get("executive")
    if num_shards > 1:
        if executive is None:
            prof_fail(path, "top level", "sharded report without executive")
        check_prof_executive(path, executive, num_shards)
    elif executive is not None:
        prof_fail(path, "top level", "serial report with an executive key")

    print(
        f"{path}: OK — {num_shards} shard(s), "
        f"{len(doc['regions'])} regions, "
        f"self shares sum {share_sum:.3f}"
    )


BENCH_SCHEMA_VERSION = 3
BENCH_BACKENDS = {"heap", "calendar"}
BENCH_SHARD_COUNTS = [1, 2, 4]
# Speedup floor at 4 shards, applied only when the recording machine had at
# least that many cores (on fewer cores shard workers time-slice and the
# sharded section measures overhead, not speedup).
BENCH_SPEEDUP_FLOOR_4_SHARDS = 3.0


def bench_fail(path, where, why):
    sys.exit(f"{path}: {where}: {why}")


def bench_positive(path, where, name, value):
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        bench_fail(path, where, f"{name} is not numeric: {value!r}")
    if value <= 0:
        bench_fail(path, where, f"{name}={value} not positive")
    return value


def validate_bench_json(path):
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            sys.exit(f"{path}: not valid JSON: {err}")
    if not isinstance(doc, dict):
        bench_fail(path, "top level", "document is not an object")
    if doc.get("schema_version") != BENCH_SCHEMA_VERSION:
        bench_fail(
            path,
            "top level",
            f"schema_version {doc.get('schema_version')!r}, expected "
            f"{BENCH_SCHEMA_VERSION}",
        )
    if doc.get("benchmark") != "hotpath":
        bench_fail(path, "top level", f"benchmark {doc.get('benchmark')!r}")

    probe = doc.get("perf_probe")
    if not isinstance(probe, dict) or not isinstance(
        probe.get("results"), list
    ):
        bench_fail(path, "perf_probe", "missing results array")
    if not isinstance(probe.get("command"), str):
        bench_fail(path, "perf_probe", "missing command string")
    seen = {}
    events = {}
    for index, result in enumerate(probe["results"]):
        where = f"perf_probe.results[{index}]"
        if not isinstance(result, dict):
            bench_fail(path, where, "result is not an object")
        backend = result.get("backend")
        if backend not in BENCH_BACKENDS:
            bench_fail(path, where, f"unknown backend {backend!r}")
        telemetry = result.get("telemetry")
        if not isinstance(telemetry, bool):
            bench_fail(path, where, "telemetry is not a bool")
        combo = (backend, telemetry)
        if combo in seen:
            bench_fail(path, where, f"duplicate combination {combo}")
        seen[combo] = where
        bench_positive(path, where, "events", result.get("events"))
        bench_positive(
            path,
            where,
            "events_per_sec_millions",
            result.get("events_per_sec_millions"),
        )
        # Both backends must dispatch the identical event sequence for the
        # same workload; a count mismatch means determinism broke.
        events.setdefault(telemetry, {})[backend] = result["events"]
    for backend in BENCH_BACKENDS:
        for telemetry in (False, True):
            if (backend, telemetry) not in seen:
                bench_fail(
                    path,
                    "perf_probe.results",
                    f"missing combination ({backend}, telemetry="
                    f"{telemetry})",
                )
    for telemetry, by_backend in events.items():
        if len(set(by_backend.values())) != 1:
            bench_fail(
                path,
                "perf_probe.results",
                f"event counts diverge across backends (telemetry="
                f"{telemetry}): {by_backend}",
            )

    sharded = doc.get("sharded")
    if not isinstance(sharded, dict) or not isinstance(
        sharded.get("results"), list
    ):
        bench_fail(path, "sharded", "missing results array")
    if not isinstance(sharded.get("command"), str):
        bench_fail(path, "sharded", "missing command string")
    cores = sharded.get("cores")
    if not isinstance(cores, int) or isinstance(cores, bool) or cores < 1:
        bench_fail(path, "sharded", f"bad core count {cores!r}")
    shard_counts = []
    shard_events = set()
    for index, result in enumerate(sharded["results"]):
        where = f"sharded.results[{index}]"
        if not isinstance(result, dict):
            bench_fail(path, where, "result is not an object")
        shards = result.get("shards")
        if not isinstance(shards, int) or isinstance(shards, bool):
            bench_fail(path, where, f"bad shard count {shards!r}")
        shard_counts.append(shards)
        bench_positive(path, where, "events", result.get("events"))
        shard_events.add(result["events"])
        bench_positive(
            path,
            where,
            "events_per_sec_millions",
            result.get("events_per_sec_millions"),
        )
        speedup = bench_positive(
            path, where, "speedup_vs_serial", result.get("speedup_vs_serial")
        )
        if shards == 1 and abs(speedup - 1.0) > 1e-9:
            bench_fail(path, where, f"serial speedup {speedup} != 1.0")
        if shards >= 4 and cores >= shards:
            if speedup < BENCH_SPEEDUP_FLOOR_4_SHARDS:
                bench_fail(
                    path,
                    where,
                    f"speedup {speedup} below the {shards}-shard floor "
                    f"{BENCH_SPEEDUP_FLOOR_4_SHARDS} on a {cores}-core "
                    "machine",
                )
    if shard_counts != BENCH_SHARD_COUNTS:
        bench_fail(
            path,
            "sharded.results",
            f"shard counts {shard_counts}, expected {BENCH_SHARD_COUNTS}",
        )
    # A sharded run must dispatch the exact serial event sequence; a count
    # mismatch means the conservative-PDES determinism guarantee broke.
    if len(shard_events) != 1:
        bench_fail(
            path,
            "sharded.results",
            f"event counts diverge across shard counts: {shard_events}",
        )

    micro = doc.get("micro_core")
    if not isinstance(micro, dict) or not isinstance(
        micro.get("results"), list
    ):
        bench_fail(path, "micro_core", "missing results array")
    if not micro["results"]:
        bench_fail(path, "micro_core", "empty results array")
    names = set()
    for index, result in enumerate(micro["results"]):
        where = f"micro_core.results[{index}]"
        if not isinstance(result, dict):
            bench_fail(path, where, "result is not an object")
        name = result.get("name")
        if not isinstance(name, str) or not name:
            bench_fail(path, where, f"bad benchmark name {name!r}")
        if name in names:
            bench_fail(path, where, f"duplicate benchmark {name!r}")
        names.add(name)
        bench_positive(path, where, "cpu_ns_per_op", result.get("cpu_ns_per_op"))
        if "items_per_second" in result:
            bench_positive(
                path, where, "items_per_second", result["items_per_second"]
            )

    # Schema v3: the profile section breaks the headline events/sec down by
    # component (obs/prof regions) and, for the sharded run, by shard.
    profile = doc.get("profile")
    if not isinstance(profile, dict):
        bench_fail(path, "profile", "missing profile section (schema v3)")
    if not isinstance(profile.get("command"), str):
        bench_fail(path, "profile", "missing command string")
    profile_events = {}
    for mode in ("serial", "sharded"):
        section = profile.get(mode)
        where = f"profile.{mode}"
        if not isinstance(section, dict):
            bench_fail(path, where, "missing section")
        profile_events[mode] = bench_positive(
            path, where, "events", section.get("events")
        )
        bench_positive(
            path,
            where,
            "events_per_sec_millions",
            section.get("events_per_sec_millions"),
        )
        regions = section.get("regions")
        if not isinstance(regions, list) or not regions:
            bench_fail(path, where, "missing regions array")
        share_sum = 0.0
        for index, region in enumerate(regions):
            rwhere = f"{where}.regions[{index}]"
            if not isinstance(region, dict) or not isinstance(
                region.get("name"), str
            ):
                bench_fail(path, rwhere, "region without a name")
            bench_positive(path, rwhere, "calls", region.get("calls"))
            share = region.get("self_share")
            if not isinstance(share, numbers.Real) or not (
                0.0 <= share <= 1.0 + SHARE_TOLERANCE
            ):
                bench_fail(path, rwhere, f"self_share {share!r} outside [0, 1]")
            share_sum += share
            bench_positive(path, rwhere, "ns_per_call", region.get("ns_per_call"))
        if share_sum > 1.0 + SHARE_TOLERANCE:
            bench_fail(
                path, where, f"region self shares sum to {share_sum}, above 1"
            )
    # The profiled runs use the hotpath workload, so the sharded run must
    # dispatch exactly the serial event sequence.
    if profile_events["serial"] != profile_events["sharded"]:
        bench_fail(
            path,
            "profile",
            f"profiled event counts diverge: {profile_events}",
        )
    psharded = profile["sharded"]
    nshards = psharded.get("shards")
    if not isinstance(nshards, int) or nshards < 2:
        bench_fail(path, "profile.sharded", f"bad shard count {nshards!r}")
    bench_positive(path, "profile.sharded", "windows", psharded.get("windows"))
    stall = psharded.get("barrier_stall_share")
    if not isinstance(stall, numbers.Real) or not (
        0.0 <= stall <= 1.0 + SHARE_TOLERANCE
    ):
        bench_fail(
            path,
            "profile.sharded",
            f"barrier_stall_share {stall!r} outside [0, 1]",
        )
    imbalance = psharded.get("load_imbalance")
    if not isinstance(imbalance, numbers.Real) or not (
        1.0 - SHARE_TOLERANCE <= imbalance <= nshards + SHARE_TOLERANCE
    ):
        bench_fail(
            path,
            "profile.sharded",
            f"load_imbalance {imbalance!r} outside [1, {nshards}]",
        )
    per_shard = psharded.get("per_shard")
    if not isinstance(per_shard, list) or len(per_shard) != nshards:
        bench_fail(
            path,
            "profile.sharded",
            f"per_shard must list all {nshards} shards",
        )
    busy_sum = 0.0
    for index, shard in enumerate(per_shard):
        where = f"profile.sharded.per_shard[{index}]"
        if not isinstance(shard, dict) or shard.get("label") != f"shard{index}":
            bench_fail(path, where, "missing or out-of-order shard label")
        bench_positive(path, where, "events", shard.get("events"))
        busy = shard.get("busy_share")
        if not isinstance(busy, numbers.Real) or not (
            0.0 <= busy <= 1.0 + SHARE_TOLERANCE
        ):
            bench_fail(path, where, f"busy_share {busy!r} outside [0, 1]")
        busy_sum += busy
    if busy_sum > 1.0 + SHARE_TOLERANCE:
        bench_fail(
            path,
            "profile.sharded",
            f"per-shard busy shares sum to {busy_sum}, above 1",
        )

    pre = doc.get("pre_overhaul")
    if not isinstance(pre, dict):
        bench_fail(path, "pre_overhaul", "missing reference numbers")
    for name in (
        "heap_events_per_sec_millions",
        "calendar_events_per_sec_millions",
    ):
        bench_positive(path, "pre_overhaul", name, pre.get(name))

    print(
        f"{path}: OK — {len(probe['results'])} perf_probe results, "
        f"{len(sharded['results'])} sharded results ({cores} cores), "
        f"{len(micro['results'])} micro_core results, profile over "
        f"{len(profile['serial']['regions'])} regions"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "trace",
        nargs="?",
        help="path to a trace_event JSON file (incl. flight-recorder dumps)",
    )
    parser.add_argument(
        "--expect-spans",
        action="store_true",
        help="require at least one RPC span and one counter sample",
    )
    parser.add_argument(
        "--timeseries-csv",
        help="validate a TimeseriesSink CSV timeline",
    )
    parser.add_argument(
        "--timeseries-json",
        help="validate a TimeseriesSink JSON timeline",
    )
    parser.add_argument(
        "--bench-json",
        help="validate a BENCH_hotpath.json speed artifact",
    )
    parser.add_argument(
        "--prof-json",
        help="validate an execution-profile report (--prof=PATH output)",
    )
    opts = parser.parse_args()
    if not any(
        (
            opts.trace,
            opts.timeseries_csv,
            opts.timeseries_json,
            opts.bench_json,
            opts.prof_json,
        )
    ):
        parser.error(
            "nothing to validate: pass TRACE, --timeseries-*, --bench-json, "
            "or --prof-json"
        )

    if opts.timeseries_csv:
        validate_timeseries_csv(opts.timeseries_csv)
    if opts.timeseries_json:
        validate_timeseries_json(opts.timeseries_json)
    if opts.bench_json:
        validate_bench_json(opts.bench_json)
    if opts.prof_json:
        validate_prof_json(opts.prof_json)
    if not opts.trace:
        return

    phases = collections.Counter()
    count = 0
    try:
        with open(opts.trace) as handle:
            for event in iter_events_streaming(handle):
                validate_event(event, count)
                phases[event["ph"]] += 1
                count += 1
    except (ValueError, json.JSONDecodeError):
        # Not the sink's line layout (hand-edited or third-party trace):
        # validate the whole document in memory instead.
        phases.clear()
        count = 0
        for event in iter_events_document(opts.trace):
            validate_event(event, count)
            phases[event["ph"]] += 1
            count += 1

    if count == 0:
        sys.exit(f"{opts.trace}: trace contains no events")
    if opts.expect_spans and (phases["X"] == 0 or phases["C"] == 0):
        sys.exit(
            f"{opts.trace}: expected RPC spans and counter samples, got "
            f"{dict(phases)}"
        )

    summary = ", ".join(f"{k}={v}" for k, v in sorted(phases.items()))
    print(f"{opts.trace}: OK — {count} events ({summary})")


if __name__ == "__main__":
    main()
