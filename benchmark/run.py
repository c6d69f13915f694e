"""The dyckgram benchmark: seeded workloads driven through the CLI.

    python3 benchmark/run.py --workload verify|census|deep --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; dyckgram is imported from its ``src``.
Each run starts fresh interpreters (workers, see worker.py), so module
caches start cold as in one CLI or pytest process.  Every operation's
output is checked here, against reference values computed by the
benchmark itself (workloads.py).

--trace 0  time-boxed closed-loop run, one client, one worker process;
           prints the end-to-end metrics.
--trace 1  the first TRACE_OPS[workload] operations, once traced and once
           untraced in fresh workers; prints the per-layer metrics.

Details (op count, tail percentile and sample count, cache-hit share,
Python version, nproc, seed, commit) go to the line before the result
and to ``.bench_out/``; the traced run also writes its spans there.
The last stdout line is the result object.  Exit status: 0 when every
operation checked out, 1 when any failed, 2 when the checkout is unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402  (imports dyckgram lazily, for the deep set)
from worker import plan_digest  # noqa: E402

SETUP_PROBES = 6          # fresh interpreters per run timed for setup_s, the worker included
RUN_LIMIT_S = 170         # whole run, all workers included
TRACE_OPS = {"verify": 10, "census": 24, "deep": 16}
# op_tail_s percentile: the highest that leaves at least 10 samples beyond
# it in one run at the baseline op counts; fixed so commits compare alike
TAIL_PERCENTILE = {"verify": 60, "census": 80, "deep": 60}
# peak_rss_mb is read after this many operations (or the last, if fewer
# ran), so that a faster or slower phase of the machine, which changes how
# many operations fit in the time box, does not change how much the
# oracle-word cache holds when RSS is read
RSS_OPS = 20
# Times are reported at the speed at which worker.SpeedProbe's loop takes
# this long: its unhindered time on the 2-vCPU machine of the baseline.
# Measured over three 30 s deep runs: latency / loop time varies by 5.8%
# between repeats of one operation, where latency alone varies by 19%.
PROBE_REF_S = 270e-6
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metric -> (unit, how it is read from the traced worker)
PER_LAYER = {
    "oracle.enumerate_paths.calls": ("count", ("counts", "oracle.enumerate_paths.calls")),
    "oracle.enumerate_paths.s": ("s", ("incl_s", "oracle.enumerate_paths")),
    "oracle.enumerate_paths.self_s": ("s", ("self_s", "oracle.enumerate_paths")),
    "oracle.enumerate_paths.paths_out": ("count", ("counts", "oracle.enumerate_paths.paths_out")),
    "paths.satisfies.calls": ("count", ("counts", "paths.satisfies.calls")),
    "paths.satisfies.s": ("s", ("incl_s", "paths.satisfies")),
    "paths.satisfies.kept_ratio": ("ratio", None),
    "paths.from_text.calls": ("count", ("counts", "paths.from_text.calls")),
    "intsets.contains.calls": ("count", ("counts", "intsets.contains.calls")),
    "grammar.words.s": ("s", ("incl_s", "grammar.words")),
    "grammar.words.self_s": ("s", ("self_s", "grammar.words")),
    "grammar.words.out": ("count", ("counts", "grammar.words.out")),
    "grammar.check_unambiguous.s": ("s", ("incl_s", "grammar.check_unambiguous")),
    "grammar.check_equation.s": ("s", ("incl_s", "grammar.check_equation")),
    "grammar.check_equation.self_s": ("s", ("self_s", "grammar.check_equation")),
    "grammar.oracle_cache.hits": ("count", ("cache", "hits")),
    "grammar.oracle_cache.misses": ("count", ("cache", "misses")),
    "grammar.oracle_cache.currsize": ("count", ("cache", "currsize")),
    "grammar.lower.s": ("s", ("incl_s", "grammar.lower")),
    "oracle.count_brute.s": ("s", ("incl_s", "oracle.count_brute")),
    "oracle.count_brute.leaves": ("count", ("counts", "oracle.count_brute.leaves")),
    "oracle.count_dp.calls": ("count", ("counts", "oracle.count_dp.calls")),
    "oracle.count_dp.s": ("s", ("incl_s", "oracle.count_dp")),
    "series.solve.calls": ("count", ("counts", "series.solve.calls")),
    "series.solve.s": ("s", ("incl_s", "series.solve")),
    "series.solve.self_s": ("s", ("self_s", "series.solve")),
    "series.poly_eval.calls": ("count", ("counts", "series.poly_eval.calls")),
    "series.mul.calls": ("count", ("counts", "series.mul.calls")),
    "series.mul.s": ("s", ("incl_s", "series.mul")),
    "bijection.verify_counts.s": ("s", ("incl_s", "bijection.verify_counts")),
    "verify.verify_family.s": ("s", ("incl_s", "verify.verify_family")),
    "verify.verify_family.self_s": ("s", ("self_s", "verify.verify_family")),
    "cli.main.self_s": ("s", ("self_s", "cli.main")),
    "sequences.reference.s": ("s", ("incl_s", "sequences.reference")),
    "families.build.s": ("s", ("incl_s", "families.build")),
    "trace.overhead_ratio": ("ratio", None),
    "trace.unattributed_s": ("s", None),
}


class RunError(Exception):
    """The run could not produce a result (worker crash, timeout, plan drift)."""


def _spawn(workload, seed, seconds, deadline, *extra) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("run time limit reached")
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker exceeded the {RUN_LIMIT_S} s run limit")
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def check_records(workload: str, seed: int, result: dict) -> tuple[list, list[dict]]:
    """Redraw the operations the worker ran and check each output.

    Returns the operations and one entry per failure."""
    stream = workloads.ops(workload, seed)
    ops = [next(stream) for _ in result["records"]]
    if plan_digest([op["argv"] for op in ops]) != result["plan_digest"]:
        raise RunError("the worker drew a different operation stream for this seed")
    failures = []
    earlier = None
    for i, (op, rec) in enumerate(zip(ops, result["records"])):
        reason = rec["error"] if rec["error"] and rec["rc"] is None else \
            workloads.check(op, rec["rc"], rec["stdout"], earlier)
        if reason is not None:
            failures.append({"op": i, "name": op["name"], "argv": op["argv"],
                             "reason": reason})
        earlier = None
        if op["kind"] == "deep_count" and reason is None:
            earlier = json.loads(rec["stdout"])
    return ops, failures


def tail(latencies, percentile: float) -> tuple[float, int]:
    """(nearest-rank value at the percentile, samples beyond it)."""
    xs = sorted(latencies)
    k = max(math.ceil(percentile / 100 * len(xs)) - 1, 0)
    return xs[k], len(xs) - 1 - k


def _source_id() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _scaled_latencies(res) -> list[float]:
    """Each latency rescaled to the reference speed by the probe loop
    times taken while the operation ran."""
    return [r["latency_s"] * PROBE_REF_S / r["loop_s"] for r in res["records"]]


def _untraced(args, deadline) -> tuple[dict, dict, list]:
    runs = [_spawn(args.workload, args.seed, args.seconds, deadline, "--setup-only")
            for _ in range(SETUP_PROBES - 1)]
    res = _spawn(args.workload, args.seed, args.seconds, deadline)
    runs.append(res)
    ops, failures = check_records(args.workload, args.seed, res)
    setups = [r["setup_s"] * PROBE_REF_S / r["setup_loop_s"] for r in runs]
    lat = _scaled_latencies(res)
    tail_pct = TAIL_PERCENTILE[args.workload]
    tail_s, beyond = tail(lat, tail_pct)
    metrics = {"setup_s": statistics.median(setups),
               "ops_per_s": len(lat) / sum(lat),
               "op_p50_s": statistics.median(lat),
               "op_tail_s": tail_s,
               "peak_rss_mb": res["records"][:RSS_OPS][-1]["rss_kb"] / 1024}
    raw = [r["latency_s"] for r in res["records"]]
    hits = [r["cache_hit"] for r in res["records"]]
    ops_log = [[op["name"], r["latency_s"], r["loop_s"]] for op, r in zip(ops, res["records"])]
    detail = {"ops": len(lat), "elapsed_s": res["elapsed_s"],
              "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
              "mean_slowdown": statistics.fmean(r["loop_s"] for r in res["records"]) / PROBE_REF_S,
              "unscaled": {"setup_s": statistics.median(r["setup_s"] for r in runs),
                           "ops_per_s": len(raw) / res["elapsed_s"],
                           "op_p50_s": statistics.median(raw),
                           "op_tail_s": tail(raw, tail_pct)[0]},
              "setup_samples_s": setups,
              "oracle_cache_hit_ops": None if None in hits else sum(hits),
              "oracle_cache_hit_base": len(hits),
              "oracle_cache": res["oracle_cache"], "ops_log": ops_log}
    return metrics, detail, failures


def _traced(args, deadline) -> tuple[dict, dict, list]:
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    limit = str(TRACE_OPS[args.workload])
    # the time box is a safety stop only: a slow commit ends early
    safety = str(3 * args.seconds)
    traced = _spawn(args.workload, args.seed, safety, deadline, "--max-ops", limit,
                    "--spans", str(spans))
    n = len(traced["records"])
    plain = _spawn(args.workload, args.seed, safety, deadline, "--max-ops", str(n))
    failures = check_records(args.workload, args.seed, traced)[1] + \
        check_records(args.workload, args.seed, plain)[1]
    if len(plain["records"]) != n:
        raise RunError("the untraced replay ran fewer operations than the traced run")
    t = traced["trace"]
    t["cache"] = traced["oracle_cache"] or {}
    op_wall = sum(r["latency_s"] for r in traced["records"])
    overhead = sum(_scaled_latencies(traced)) / sum(_scaled_latencies(plain))
    metrics = {}
    for name, (_, source) in PER_LAYER.items():
        if source is not None:
            table, key = source
            metrics[name] = t[table].get(key, 0)
    calls = t["counts"].get("paths.satisfies.calls", 0)
    metrics["paths.satisfies.kept_ratio"] = \
        t["counts"].get("paths.satisfies.kept", 0) / calls if calls else 0.0
    metrics["trace.overhead_ratio"] = overhead
    self_total = sum(t["self_s"].values())
    metrics["trace.unattributed_s"] = op_wall - self_total
    absent = list(t["missing"]) + ([] if traced["oracle_cache"] else ["grammar.oracle_cache"])
    detail = {"ops": n, "ops_limit": int(limit), "traced_op_wall_s": op_wall,
              "self_s_total": self_total,
              "absent": absent, "computed": ["oracle.count_brute.leaves"],
              "spans_file": spans.relative_to(ROOT).as_posix(),
              "layers": {"incl_s": t["incl_s"], "self_s": t["self_s"], "counts": t["counts"]}}
    return metrics, detail, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "dyckgram" / "__init__.py").is_file():
        print(f"error: no dyckgram sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    try:
        metrics, detail, failures = (_traced if args.trace else _untraced)(args, deadline)
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    units = dict(END_TO_END) if not args.trace else {k: u for k, (u, _) in PER_LAYER.items()}
    bad = [name for name in metrics if not METRIC_NAME.fullmatch(name)]
    if bad or set(metrics) != set(units):
        print(f"error: metric names {sorted(set(metrics) ^ set(units)) + bad}", file=sys.stderr)
        return 1
    attempted = detail["ops"] if not args.trace else 2 * detail["ops"]
    detail.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "python": sys.version.split()[0],
                   "nproc": os.cpu_count(), **_source_id(),
                   "attempted": attempted, "failed": len(failures),
                   "fail_ratio": len(failures) / attempted if attempted else 1.0,
                   "failures": failures[:20]})
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": {k: v for k, v in detail.items()
                                 if k not in ("layers", "ops_log")}}))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
