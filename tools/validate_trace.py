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

Usage: tools/validate_trace.py [TRACE.json] [--expect-spans]
           [--timeseries-csv TS.csv] [--timeseries-json TS.json]
           [--prof-json PROF.json]
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
        "--prof-json",
        help="validate an execution-profile report (--prof=PATH output)",
    )
    opts = parser.parse_args()
    if not any(
        (
            opts.trace,
            opts.timeseries_csv,
            opts.timeseries_json,
            opts.prof_json,
        )
    ):
        parser.error(
            "nothing to validate: pass TRACE, --timeseries-* or --prof-json"
        )

    if opts.timeseries_csv:
        validate_timeseries_csv(opts.timeseries_csv)
    if opts.timeseries_json:
        validate_timeseries_json(opts.timeseries_json)
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
