#!/usr/bin/env python3
"""Repository benchmark: builds the engine and shark_perfbench from source,
runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/ there, and
so do the raw results, the Chrome trace and the query log of each run. The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. See perfbench/NOTES.md for what each one means.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("olap_cached", "serving_point", "load_refresh")

# name -> (unit, better). The order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_ms_p50": ("ms", "lower"),
    "throughput_ops_s": ("1/s", "higher"),
    "cpu_ms_per_op": ("ms", "lower"),
    "virtual_s_total": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Op types of each workload; sql.exec_ms_p50.<type> exists for every one.
OP_TYPES = {
    "olap_cached": ("selection", "agg_coarse", "agg_fine", "join"),
    "serving_point": ("point", "range"),
    "load_refresh": ("refresh", "point", "agg", "agg_old"),
}
SQL_OP_TYPES = ("selection", "agg_coarse", "agg_fine", "join", "point",
                "range", "agg", "agg_old")
# Span names whose self time is reported per traced op.
SPAN_NAMES = ("op", "sql.parse", "sql.explain", "sql.exec", "check",
              "server.roundtrip", "load.drop", "load.dfs_write", "load.cache",
              "load.analyze", "load.index")

PER_LAYER = {
    "op_ms_p99": ("ms", "lower"),
    "sql.parse_us_p50": ("us", "lower"),
    "sql.plan_us_p50": ("us", "lower"),
    **{"sql.exec_ms_p50." + t: ("ms", "lower") for t in SQL_OP_TYPES},
    "rdd.tasks_per_op": ("count", "lower"),
    "rdd.stages_per_op": ("count", "lower"),
    "rdd.shuffle_net_mb_per_op": ("MB", "lower"),
    "rdd.shuffle_resident_mb": ("MB", "lower"),
    "rdd.cache_hit_frac": ("frac", "higher"),
    "rdd.cache_evicted_mb": ("MB", "lower"),
    "mem.spill_mb": ("MB", "lower"),
    "mem.reservations_denied": ("count", "lower"),
    "sql.pruned_frac": ("frac", "higher"),
    "sql.replans": ("count", "lower"),
    "columnar.load_ms_per_mb": ("ms/MB", "lower"),
    "columnar.bytes_per_user_byte": ("ratio", "lower"),
    "dfs.write_ms_per_mb": ("ms/MB", "lower"),
    "stats.analyze_ms": ("ms", "lower"),
    "index.build_ms": ("ms", "lower"),
    "index.plan_hit_frac": ("frac", "higher"),
    "job_manager.handoff_ms_p50": ("ms", "lower"),
    "job_manager.queued_frac": ("frac", "lower"),
    "server.overhead_ms_p50": ("ms", "lower"),
    "loadgen.late_ms_p99": ("ms", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    **{"self_ms_per_op." + n: ("ms", "lower") for n in SPAN_NAMES},
}

# Per-layer metrics a workload cannot measure, with the reason; they are
# reported as 0 and named on a "not measured" line.
SERVER_ONLY = ("job_manager.handoff_ms_p50", "job_manager.queued_frac",
               "server.overhead_ms_p50", "loadgen.late_ms_p99")
NOT_MEASURED = {
    "olap_cached": {
        **{m: "no server on this workload" for m in SERVER_ONLY},
        "index.plan_hit_frac": "no point lookups on this workload",
        "index.build_ms": "no index is built on this workload",
    },
    "serving_point": {},
    "load_refresh": {m: "no server on this workload" for m in SERVER_ONLY},
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- statistics helpers (self-tested in test_run.py) -------------------------

def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n, candidates=(99, 95, 90, 75)):
    """Highest candidate percentile with at least ten samples beyond it, or
    None when even the lowest has fewer (the tail is not resolvable)."""
    for p in candidates:
        if samples_beyond(n, p) >= 10:
            return p
    return None


def geomean(values):
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def type_tail(groups, notes):
    """Geometric mean across op types of each type's tail percentile: the
    highest one with ten samples beyond it in every type, or the median
    when no tail is resolvable."""
    counts = {t: len(v) for t, v in groups.items()}
    tail = tail_percentile(min(counts.values()))
    if tail is None:
        notes.append("op_ms_p99: too few ops per type for a tail with ten "
                     "samples beyond it; reporting the median (%s)" % counts)
        return geomean(statistics.median(v) for v in groups.values())
    notes.append("op_ms_p99: per-type p%d (samples per type %s)" %
                 (tail, counts))
    return geomean(percentile(v, tail) for v in groups.values())


def by_type(types, values):
    groups = {}
    for t, v in zip(types, values):
        groups.setdefault(t, []).append(v)
    return groups


def valid_name(name):
    return bool(NAME_RE.match(name))


def check_result(result, trace, spec=None):
    """Returns a list of problems with one final result object: its keys,
    its counts, and, with the BENCHMARK.json spec, its metric set."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(key + " is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    for name, m in result["metrics"].items():
        if not valid_name(name):
            problems.append("bad metric name " + name)
        if set(m) != {"value", "unit"}:
            problems.append(name + " keys are %s" % sorted(m))
            continue
        if not isinstance(m["value"], (int, float)) or \
                isinstance(m["value"], bool) or not math.isfinite(m["value"]):
            problems.append(name + " value is not a finite number")
        if not UNIT_RE.match(str(m["unit"])):
            problems.append(name + " has a bad unit")
    if spec is not None:
        listed = spec["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in listed}
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if want != got:
            problems.append("metrics differ from BENCHMARK.json: missing %s, "
                            "extra %s, unit mismatch %s" % (
                                sorted(set(want) - set(got)),
                                sorted(set(got) - set(want)),
                                sorted(k for k in set(want) & set(got)
                                       if want[k] != got[k])))
    return problems


# -- end-to-end metrics -------------------------------------------------------

def end_to_end(raw, notes):
    ops = len(raw["op_type"])
    groups = by_type(raw["op_type"], raw["op_ms"])
    counts = {t: len(v) for t, v in groups.items()}
    p50 = geomean(statistics.median(v) for v in groups.values())
    notes.append("op_ms_p50: per-type median (samples per type %s)" % counts)
    if not raw["virtual_deterministic"]:
        notes.append("virtual_s_total: sum of server-reported virtual "
                     "seconds; interleaving follows host timing, so it is "
                     "not bit-reproducible on this workload")
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "op_ms_p50": p50,
        "throughput_ops_s": ops / raw["window_s"],
        "cpu_ms_per_op": raw["cpu_s"] * 1e3 / ops,
        "virtual_s_total": raw["virtual_s_total"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


# -- per-layer metrics from the span log ----------------------------------------

def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    for e in events:
        a = e["args"]
        spans[a["id"]] = {"name": e["name"], "start": e["ts"],
                          "end": e["ts"] + e["dur"], "parent": a["parent"],
                          "op": a["op"]}
    return spans


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = {}
    for sid, s in spans.items():
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for sid, s in spans.items():
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(sid, []), key=lambda c: c["start"]):
            lo = max(cursor, c["start"])
            hi = min(s["end"], c["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (s["end"] - s["start"]) - covered
    return out


def per_layer(raw, out_dir, notes):
    workload = raw["workload"]
    layer = {name: 0.0 for name in PER_LAYER}
    for name, value in raw["layer"].items():
        if name in layer:
            layer[name] = value

    spans = load_spans(os.path.join(out_dir, "trace.json"))
    op_type = raw["op_type"]
    # Root spans ("op", or "replay" for the serving in-process replay) and
    # their direct children by name.
    roots = {}
    for sid, s in spans.items():
        if s["parent"] < 0 and s["op"] >= 0 and s["name"] in ("op", "replay"):
            roots[sid] = {"op": s["op"], "kids": {}}
    for sid, s in spans.items():
        if s["parent"] in roots:
            roots[s["parent"]]["kids"][s["name"]] = s["end"] - s["start"]

    parse = [r["kids"]["sql.parse"] for r in roots.values()
             if "sql.parse" in r["kids"]]
    plan = [r["kids"]["sql.explain"] - r["kids"]["sql.parse"]
            for r in roots.values()
            if "sql.explain" in r["kids"] and "sql.parse" in r["kids"]]
    if parse:
        layer["sql.parse_us_p50"] = statistics.median(parse)
    if plan:
        layer["sql.plan_us_p50"] = statistics.median(plan)
    exec_ms = {}
    exec_by_op = {}
    for r in roots.values():
        k = r["kids"]
        if "sql.exec" in k and "sql.explain" in k:
            ms = (k["sql.exec"] - k["sql.explain"]) / 1e3
            exec_ms.setdefault(op_type[r["op"]], []).append(ms)
        if "sql.exec" in k:
            exec_by_op[r["op"]] = k["sql.exec"] / 1e3
    for t, v in exec_ms.items():
        layer["sql.exec_ms_p50." + t] = statistics.median(v)

    selfs = self_times(spans)
    traced_ops = {s["op"] for s in spans.values() if s["op"] >= 0}
    for name in SPAN_NAMES:
        total = sum(selfs[sid] for sid, s in spans.items()
                    if s["name"] == name and s["op"] >= 0)
        if traced_ops:
            layer["self_ms_per_op." + name] = total / 1e3 / len(traced_ops)

    traced = by_type([t for t, tr in zip(op_type, raw["op_traced"]) if tr],
                     [m for m, tr in zip(raw["op_ms"], raw["op_traced"]) if tr])
    untraced = by_type(
        [t for t, tr in zip(op_type, raw["op_traced"]) if not tr],
        [m for m, tr in zip(raw["op_ms"], raw["op_traced"]) if not tr])
    if untraced:
        layer["op_ms_p99"] = type_tail(untraced, notes)
    common = sorted(set(traced) & set(untraced))
    if common:
        layer["trace.overhead_frac"] = geomean(
            statistics.median(traced[t]) / statistics.median(untraced[t])
            for t in common) - 1.0

    if workload == "serving_point":
        host_ms = {}
        qlog = os.path.join(out_dir, "query_log.jsonl")
        with open(qlog) as f:
            for line in f:
                entry = json.loads(line)
                host_ms[entry["query_id"]] = entry["host_ms"]
        roundtrip = {s["op"]: (s["end"] - s["start"]) / 1e3
                     for s in spans.values() if s["name"] == "server.roundtrip"}
        handoff, overhead = [], []
        for op, rt in roundtrip.items():
            qid = raw["query_ids"][op]
            if qid not in host_ms:
                continue
            overhead.append(rt - host_ms[qid])
            if op in exec_by_op:
                handoff.append(host_ms[qid] - exec_by_op[op])
        if handoff:
            layer["job_manager.handoff_ms_p50"] = statistics.median(handoff)
        if overhead:
            layer["server.overhead_ms_p50"] = statistics.median(overhead)
        if raw["late_ms"]:
            layer["loadgen.late_ms_p99"] = percentile(raw["late_ms"], 99)

    skipped = dict(NOT_MEASURED[workload])
    for t in SQL_OP_TYPES:
        if t not in OP_TYPES[workload]:
            skipped["sql.exec_ms_p50." + t] = "no %s ops on this workload" % t
    if skipped:
        notes.append("not measured (reported as 0): " + "; ".join(
            "%s: %s" % (k, v) for k, v in sorted(skipped.items())))
    for name in skipped:
        layer[name] = 0.0
    return layer


# -- command line ---------------------------------------------------------------

def counters_digest(counters):
    """Short hash of the engine counter deltas; on the closed-loop workloads
    it repeats exactly for a seed."""
    text = json.dumps(sorted(counters.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build():
    """Configures (once) and builds shark_perfbench; returns its path or
    None when the engine sources are missing or the build fails."""
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src",
                                       "CMakeLists.txt")):
        print("error: engine sources not found next to %s" % BENCH_DIR,
              file=sys.stderr)
        return None
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return None
    b = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                        "--target", "shark_perfbench"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if b.returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "shark_perfbench")


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except OSError:
        return None


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in 1..600")

    binary = build()
    if binary is None:
        print("error: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(BUILD_DIR, "runs", "%s-%d-%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("error: %s timed out" % args.workload, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print("error: shark_perfbench exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    with open(os.path.join(out_dir, "raw.json")) as f:
        raw = json.load(f)

    notes = ["op_seq_hash %s; counters_digest %s; virtual_s_total %r" % (
        raw["op_seq_hash"], counters_digest(raw["counters"]),
        raw["virtual_s_total"])]
    attempted = len(raw["op_ok"])
    failed = sum(1 for ok in raw["op_ok"] if not ok)
    for e in raw["errors"]:
        notes.append("error: " + e)
    if args.trace:
        values = per_layer(raw, out_dir, notes)
        units = PER_LAYER
        notes.append("trace: " + os.path.join(out_dir, "trace.json"))
    else:
        values = end_to_end(raw, notes)
        units = END_TO_END
    notes.append("error_frac %.6f frac (%d failed of %d attempted)" % (
        failed / attempted if attempted else 1.0, failed, attempted))
    notes.append("peak_rss_mb %.1f of %s MB guard" % (
        raw["peak_rss_mb"], raw["info"].get("rss_limit_mb", "?")))
    for n in notes:
        print(n)
    for name in units:
        print("%-34s %14.6f %s" % (name, values[name], units[name][0]))

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name][0]}
                    for name in units},
    }
    problems = check_result(result, args.trace, load_spec())
    if problems:
        for p in problems:
            print("error: " + p, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
