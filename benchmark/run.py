#!/usr/bin/env python3
"""Benchmark of the Aequitas simulator: time-to-result, CPU and memory on
four workloads, with golden-checked outputs and a profiled per-layer round.

Builds benchmark/aeq_bench from the repository's sources (into
.bench_build/, or $CARGO_TARGET_DIR when set), then runs one process per
repetition ("rep"). See benchmark/README.md for workloads and metrics.

  python3 benchmark/run.py [--seed=S] [--reps=N] [--out=R.json]
      All four workloads, N interleaved reps each plus one traced round;
      prints every metric with its unit, median, quartiles and n.
  python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1
      One workload for T seconds; the last stdout line is one JSON object
      with the end-to-end metrics (--trace 0) or per-layer metrics (1).
  python3 benchmark/run.py compare A.json B.json
      Applies BENCHMARK.json's bounds to two --out files.
  python3 benchmark/run.py --smoke     every workload at 1/10 span, < 20 s
  python3 benchmark/run.py --verify    4 shards == 1 shard, calendar == heap
  python3 benchmark/run.py --write-golden   regenerate benchmark/golden.json
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
BUILD = ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
SPEC = ROOT / "BENCHMARK.json"
GOLDEN = BENCH / "golden.json"

WORKLOADS = ("star33_bulk", "star33_rpc4k_telemetry", "prod576_shards4",
             "shootout33_jobs4")
DEFAULT_SEED = 1
CORES = 4                # shards and sweep jobs the workloads use
REP_TIMEOUT_S = 150
SMOKE_SPAN = 0.1
SETUP_FLOOR_S = 0.002    # compare: set-up may always worsen by 2 ms
# The outputs that must not change when only the executive changes.
VERIFY = (("prod576_shards4", "--shards=1"), ("star33_bulk", "--backend=heap"))

# Per-layer time from the profiler (src/obs/prof): metric prefix -> region
# name prefix. "queue/" covers every queue discipline.
LAYERS = {
    "sim.dispatch": "engine/dispatch",
    "net.port_tx": "port/tx",
    "net.queue": "queue/",
    "net.switch_route": "switch/route",
    "transport.rx": "transport/rx",
    "transport.tx": "transport/tx",
    "policy.admit": "admission/admit",
    "workload.arrival": "workload/arrival",
    "obs.emit": "telemetry/emit",
}
EXECUTIVE = {
    "sim.barrier_stall_share": "barrier_stall_share",
    "sim.load_imbalance": "load_imbalance",
    "sim.mailbox_depth_hwm": "mailbox_depth_hwm",
    "sim.backoff_windows": "backoff_windows",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def spec():
    return json.loads(SPEC.read_text())


def cores():
    count = len(os.sched_getaffinity(0))
    if count < CORES:
        log(f"warning: {count} cores available; the workloads run "
            f"{CORES} threads, so times are not comparable")
    return count


def build():
    """Configures (once) and builds aeq_bench; exits 1 on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      f"-DCMAKE_PROJECT_aequitas_INCLUDE={BENCH}/build.cmake"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "aeq_bench",
                  "-j", str(CORES)])
    build_log = BUILD / "build.log"
    with open(build_log, "w") as out:
        for command in steps:
            if subprocess.run(command, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.exit(f"build failed: {' '.join(command)}; "
                         f"see {build_log}")
    return BUILD / "aeq_bench"


def quantiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def samples(dicts):
    """{metric: [value of each rep]} from one {metric: value} per rep."""
    return {key: [d[key] for d in dicts] for key in dicts[0]}


def end_to_end(plain):
    return samples([{m: rep[m] for m in ("setup_s", "run_s", "cpu_s",
                                          "peak_rss_mb")} for rep in plain])


def counted(rep):
    """Per-layer work counts of one untraced rep."""
    c, run_s = rep["counts"], rep["run_s"]
    return {
        "sim.events": c["events"],
        "sim.events_per_s": c["events"] / run_s,
        "sim.windows": c["windows"],
        "sim.events_per_window":
            c["events"] / c["windows"] if c["windows"] else 0.0,
        "net.pkts_offered": c["pkts_offered"],
        "net.drop_ratio": c["pkts_dropped"] / c["pkts_offered"],
        "rpc.completed": c["rpcs_completed"],
        "rpc.completed_per_s": c["rpcs_completed"] / run_s,
        "policy.downgrades": c["downgrades"],
        "policy.drop_bytes_share": (c["bytes_requested"]
                                    - c["bytes_admitted"])
                                   / c["bytes_requested"],
        "runner.sweep_efficiency":
            sum(rep["point_run_s"]) / (run_s * rep["jobs"]),
        "runner.slowest_point_s": max(rep["point_run_s"]),
    }


def timed(rep):
    """Per-layer self time of one traced rep, over all its profiles."""
    profiles = rep["profiles"]
    denominator = sum(p["denominator_cycles"] for p in profiles)
    out = {}
    for metric, prefix in LAYERS.items():
        regions = [r for p in profiles for r in p["regions"]
                   if r["name"].startswith(prefix)]
        calls = sum(r["calls"] for r in regions)
        out[metric + "_ns"] = (1e9 * sum(r["self_seconds"] for r in regions)
                               / calls if calls else 0.0)
        out[metric + "_share"] = (sum(r["self_cycles"] for r in regions)
                                  / denominator)
    out["trace.unattributed_share"] = 1.0 - sum(
        out[metric + "_share"] for metric in LAYERS)
    executive = next((p["executive"] for p in profiles if "executive" in p),
                     {})
    for metric, key in EXECUTIVE.items():
        out[metric] = executive.get(key, 0)
    return out


def per_layer(plain, traced):
    """Counts from the untraced reps, times from the traced ones."""
    out = samples([counted(rep) for rep in plain])
    out.update(samples([timed(rep) for rep in traced]))
    out["trace.overhead"] = [
        statistics.median(rep["run_s"] for rep in traced)
        / statistics.median(rep["run_s"] for rep in plain) - 1.0]
    return out


def sanity_problems(rep):
    problems = []
    for i, out in enumerate(rep["outputs"]):
        if sum(out["completed"]) == 0:
            problems.append(f"point {i}: no RPC completed")
        for q in range(len(out["completed"])):
            p50, p99, p999 = (float.fromhex(out[k][q])
                              for k in ("rnl_p50", "rnl_p99", "rnl_p999"))
            if not 0.0 <= p50 <= p99 <= p999:
                problems.append(f"point {i} QoS {q}: percentiles out of order")
    return problems


class Runner:
    """Runs reps as child processes and checks their simulated outputs.

    At the golden seed and full span every rep must equal
    benchmark/golden.json; otherwise every rep of a workload must equal the
    first one. A rep that aborts or differs counts as failed.
    """

    def __init__(self, exe, seed, span=1.0, use_golden=True):
        self.exe, self.seed, self.span = exe, seed, span
        golden = (json.loads(GOLDEN.read_text()) if use_golden
                  else {"seed": None})
        self.reference = (dict(golden["workloads"])
                          if seed == golden["seed"] and span == 1.0 else {})
        self.attempted = dict.fromkeys(WORKLOADS, 0)
        self.failed = dict.fromkeys(WORKLOADS, 0)

    def rep(self, workload, traced=False, extra=()):
        self.attempted[workload] += 1
        rep = self._launch(workload, traced, extra)
        if rep is None:
            problems = ["aborted"]
        else:
            problems = sanity_problems(rep)
            expected = self.reference.setdefault(workload, rep["outputs"])
            if rep["outputs"] != expected:
                problems.append("simulated outputs differ from the reference")
        if problems:
            self.failed[workload] += 1
            log(f"{workload} rep failed: {'; '.join(problems)}")
            return None
        return rep

    def _launch(self, workload, traced, extra):
        tmp = BUILD / "tmp" / str(os.getpid())
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        command = [str(self.exe), f"--workload={workload}",
                   f"--seed={self.seed}", f"--span={self.span!r}",
                   f"--tmp={tmp}", *extra]
        if traced:
            command.append(f"--prof={tmp}/prof.json")
        try:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=REP_TIMEOUT_S)
            if proc.returncode != 0:
                log(proc.stderr[-2000:])
                return None
            rep = json.loads(proc.stdout.strip().splitlines()[-1])
            if traced:
                points = len(rep["outputs"])
                paths = ([tmp / "prof.json"] if points == 1 else
                         [tmp / f"prof.json.point{i}" for i in range(points)])
                rep["profiles"] = [json.loads(p.read_text()) for p in paths]
            return rep
        except subprocess.TimeoutExpired:
            log(f"{workload} rep exceeded {REP_TIMEOUT_S} s")
            return None
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def run_for(runner, workload, seconds, trace):
    """Reps of one workload until the next would pass `seconds`; with
    `trace`, untraced and traced reps alternate (at least one of each)."""
    start = time.monotonic()
    plain, traced, longest, count = [], [], 0.0, 0
    while True:
        profiled = trace and count % 2 == 1
        rep_start = time.monotonic()
        rep = runner.rep(workload, traced=profiled)
        longest = max(longest, time.monotonic() - rep_start)
        count += 1
        if rep is not None:
            (traced if profiled else plain).append(rep)
        enough = count >= (2 if trace else 1)
        if enough and time.monotonic() - start + longest > seconds:
            return plain, traced


def workload_mode(args):
    declared = spec()
    runner = Runner(build(), args.seed)
    cores()
    seconds = args.seconds or declared["run_seconds"]
    plain, traced = run_for(runner, args.workload, seconds, args.trace)
    metrics = {}
    if plain and (traced or not args.trace):
        kind = "per_layer" if args.trace else "end_to_end"
        values = per_layer(plain, traced) if args.trace else end_to_end(plain)
        metrics = {m["name"]: {"value": statistics.median(values[m["name"]]),
                               "unit": m["unit"]}
                   for m in declared[kind]}
    failed = runner.failed[args.workload]
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": runner.attempted[args.workload],
                      "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


def summary(values, unit):
    q1, median, q3 = quantiles(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def full_mode(args):
    declared = spec()
    exe = build()
    runner = Runner(exe, args.seed)
    plain = {w: [] for w in WORKLOADS}
    for round_index in range(args.reps):
        order = WORKLOADS if round_index % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            rep = runner.rep(workload)
            if rep is not None:
                plain[workload].append(rep)
        log(f"round {round_index + 1}/{args.reps} done")
    traced = {w: [r for r in [runner.rep(w, traced=True)] if r]
              for w in WORKLOADS}
    results = {}
    for workload in WORKLOADS:
        attempted = runner.attempted[workload]
        entry = {"attempted": attempted, "failed": runner.failed[workload],
                 "failed_share": runner.failed[workload] / attempted}
        if plain[workload]:
            values = end_to_end(plain[workload])
            entry["end_to_end"] = {m["name"]: summary(values[m["name"]],
                                                      m["unit"])
                                   for m in declared["end_to_end"]}
        if plain[workload] and traced[workload]:
            values = per_layer(plain[workload], traced[workload])
            entry["per_layer"] = {m["name"]: summary(values[m["name"]],
                                                     m["unit"])
                                  for m in declared["per_layer"]}
        results[workload] = entry
    report = {"commit": commit(), "cores": cores(), "seed": args.seed,
              "reps": args.reps, "results": results}
    print_report(report)
    if args.out:
        Path(args.out).write_text(dump_report(report))
    return 0 if all(r["failed"] == 0 and "per_layer" in r
                    for r in results.values()) else 1


def dump_report(report):
    """The --out file, one metric summary per line so that files diff."""
    workloads = []
    for workload, entry in report["results"].items():
        fields = [f'  "{key}": {json.dumps(entry[key])}'
                  for key in ("attempted", "failed", "failed_share")]
        for kind in ("end_to_end", "per_layer"):
            if kind in entry:
                metrics = ",\n".join(f'   "{name}": {json.dumps(s)}'
                                     for name, s in entry[kind].items())
                fields.append(f'  "{kind}": {{\n{metrics}\n  }}')
        workloads.append(f' "{workload}": {{\n' + ",\n".join(fields) + "\n }")
    head = json.dumps({key: report[key]
                       for key in ("commit", "cores", "seed", "reps")})
    return (head[:-1] + ', "results": {\n' + ",\n".join(workloads)
            + "\n}}\n")


def commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def print_report(report):
    print(f"cores {report['cores']}  seed {report['seed']}  "
          f"reps {report['reps']}  commit {report['commit']}")
    print(f"{'workload':24} {'metric':28} {'unit':6} {'median':>13} "
          f"{'q1':>13} {'q3':>13} {'n':>3}")
    for workload, entry in report["results"].items():
        print(f"{workload:24} {'failed_share':28} {'ratio':6} "
              f"{entry['failed_share']:13.6g} {'':>13} {'':>13} "
              f"{entry['attempted']:3}")
        for kind in ("end_to_end", "per_layer"):
            for name, s in entry.get(kind, {}).items():
                print(f"{workload:24} {name:28} {s['unit']:6} "
                      f"{s['median']:13.6g} {s['q1']:13.6g} {s['q3']:13.6g} "
                      f"{s['n']:3}")


def verdict(a, b, bound, lower_is_better, floor=0.0):
    """ok / worse / unresolved for B against A under the choosing-metrics
    rule: unresolved when A's quartile spread exceeds the bound, unless
    every run of B beats every run of A."""
    sign = 1.0 if lower_is_better else -1.0
    if (a["q3"] - a["q1"]) / a["median"] > bound:
        beats = (max(b["values"]) < min(a["values"]) if lower_is_better
                 else min(b["values"]) > max(a["values"]))
        return "ok" if beats else "unresolved"
    allowed = max(bound * a["median"], floor)
    return "worse" if sign * (b["median"] - a["median"]) > allowed else "ok"


def compare_mode(path_a, path_b):
    a_results = json.loads(Path(path_a).read_text())["results"]
    b_results = json.loads(Path(path_b).read_text())["results"]
    declared = spec()["end_to_end"]
    worse = 0
    print(f"{'workload':24} {'metric':14} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in WORKLOADS:
        a, b = a_results[workload], b_results[workload]
        result = "worse" if b["failed_share"] > a["failed_share"] else "ok"
        worse += result == "worse"
        print(f"{workload:24} {'failed_share':14} {a['failed_share']:12.6g} "
              f"{b['failed_share']:12.6g} {'':>8} {'0':>6}  {result}")
        for metric in declared:
            name = metric["name"]
            if name not in a.get("end_to_end", {}) or \
                    name not in b.get("end_to_end", {}):
                result, change, am, bm = "unresolved", "", "-", "-"
            else:
                sa, sb = a["end_to_end"][name], b["end_to_end"][name]
                result = verdict(sa, sb, metric["bound"],
                                 metric["better"] == "lower",
                                 SETUP_FLOOR_S if name == "setup_s" else 0.0)
                am, bm = f"{sa['median']:.6g}", f"{sb['median']:.6g}"
                change = f"{100 * (sb['median'] / sa['median'] - 1):+.1f}%"
            worse += result == "worse"
            print(f"{workload:24} {name:14} {am:>12} {bm:>12} {change:>8} "
                  f"{metric['bound']:6.2f}  {result}")
    return 1 if worse else 0


def smoke_mode(seed):
    """1/10 span, one untraced and one traced rep per workload; checks that
    every declared metric is emitted and profiling left outputs unchanged."""
    declared = spec()
    start = time.monotonic()
    runner = Runner(build(), seed, span=SMOKE_SPAN)
    cores()
    missing = []
    for workload in WORKLOADS:
        plain, traced = runner.rep(workload), runner.rep(workload, traced=True)
        if plain is None or traced is None:
            missing.append(f"{workload}: rep failed")
            continue
        emitted = set(plain) | set(per_layer([plain], [traced]))
        missing += [f"{workload}: {m['name']}"
                    for kind in ("end_to_end", "per_layer")
                    for m in declared[kind] if m["name"] not in emitted]
    for problem in missing:
        log(f"smoke: missing {problem}")
    print(f"smoke {'FAILED' if missing else 'ok'} in "
          f"{time.monotonic() - start:.1f} s")
    return 1 if missing else 0


def verify_mode(seed):
    runner = Runner(build(), seed)
    ok = True
    for workload, variant in VERIFY:
        for extra in ((), (variant,)):
            passed = runner.rep(workload, extra=extra) is not None
            ok &= passed
            print(f"verify {workload} {' '.join(extra) or 'default'}: "
                  f"{'ok' if passed else 'FAILED'}")
    return 0 if ok else 1


def write_golden():
    runner = Runner(build(), DEFAULT_SEED, use_golden=False)
    golden = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        rep = runner.rep(workload)
        if rep is None:
            return 1
        golden["workloads"][workload] = rep["outputs"]
    # One line per simulated point, so a diff names the point that moved.
    lines = ",\n".join(
        f' "{w}": [\n  ' + ",\n  ".join(json.dumps(p) for p in points) + "\n ]"
        for w, points in golden["workloads"].items())
    GOLDEN.write_text(
        f'{{"seed": {DEFAULT_SEED}, "workloads": {{\n{lines}\n}}}}\n')
    return 0


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        return compare_mode(sys.argv[2], sys.argv[3])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke_mode(args.seed)
    if args.verify:
        return verify_mode(args.seed)
    if args.write_golden:
        return write_golden()
    if args.workload:
        return workload_mode(args)
    return full_mode(args)


if __name__ == "__main__":
    sys.exit(main())
