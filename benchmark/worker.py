"""Closed-loop client in a fresh interpreter: one dyckgram command at a time.

Started by run.py, never by hand.  It imports dyckgram from the
checkout's ``src``, draws the workload's operation stream from the seed,
then calls ``dyckgram.cli.main(argv)`` in-process for each operation,
issuing the next one when the previous returns, until the time box or
the operation limit is reached.  It prints one JSON document: the
per-operation latencies, machine-speed samples, peak RSS so far and
outputs, and, when traced, the layer times and counts.  Checking the outputs
is left to run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def plan_digest(argvs) -> str:
    return hashlib.sha256(json.dumps(argvs).encode()).hexdigest()


def _cache_info(grammar):
    info = getattr(getattr(grammar, "_oracle_words", None), "cache_info", None)
    return info() if info is not None else None


class SpeedProbe:
    """Times a fixed pure-Python loop every PERIOD_S seconds, from SIGALRM.

    Other tenants of a shared host slow this machine by up to 1.6x, in
    phases lasting from a fraction of a second to tens of seconds, so a
    latency alone says little.  The loop's time while an operation ran
    gives the machine's speed during that operation; run.py rescales
    each latency by it.  The handler's own time is kept apart so it can
    be taken out of the latencies.

    The loop mixes integer arithmetic with dict updates on tuple keys.
    On deep operations, log latency against log loop time measured a
    slope of 1.5 for arithmetic alone, 0.85 for dict updates alone and
    1.14 for this even mix (correlation 0.96), the closest to 1.
    """

    PERIOD_S = 0.02   # each tick takes about 0.3 ms: 1.5% of the time

    def __init__(self):
        self.loops: list[float] = []
        self.own_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        s = 0
        for i in range(3000):
            s += i * i
        d = {}
        for i in range(750):
            k = (i & 63, i >> 6)
            d[k] = d.get(k, 0) + i
        t1 = time.perf_counter()
        self.loops.append(t1 - t0)
        self.own_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> tuple[int, float]:
        return len(self.loops), self.own_s

    def since(self, mark) -> tuple[float, float]:
        """(probe seconds, mean loop seconds) since the mark; the latest
        loop time when no tick fell inside."""
        n, own = mark
        loops = self.loops[n:] or self.loops[-1:]
        return self.own_s - own, sum(loops) / len(loops) if loops else 0.0


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    setup_mark = probe.mark()
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--max-ops", type=int, default=0, help="0 = until the time box ends")
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() in the parent just before the spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="traced run: write the spans to this file")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import dyckgram
    import dyckgram.cli
    import dyckgram.grammar
    if not Path(dyckgram.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"dyckgram imported from {dyckgram.__file__}, not the checkout", file=sys.stderr)
        return 2
    import workloads

    stream = workloads.ops(args.workload, args.seed)
    op = next(stream)
    ready = time.monotonic()
    own, setup_loop = probe.since(setup_mark)
    result = {"setup_s": ready - args.spawned - own, "setup_loop_s": setup_loop}
    if args.setup_only:
        probe.stop()
        print(json.dumps(result))
        return 0

    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer(probe_s=lambda: probe.own_s)
        tracer.install()

    records, argvs = [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        argvs.append(op["argv"])
        if tracer:
            tracer.op = len(records)
        info = _cache_info(dyckgram.grammar)
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            mark = probe.mark()
            t0 = time.perf_counter()
            try:
                rc = dyckgram.cli.main(op["argv"])
            except SystemExit as e:
                rc = e.code
            except Exception as e:  # a crash is a failed operation, not a failed run
                error = repr(e)
            latency = time.perf_counter() - t0
            own, loop = probe.since(mark)
        after = _cache_info(dyckgram.grammar)
        records.append({"latency_s": latency - own, "loop_s": loop, "rc": rc,
                        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                        "stdout": out.getvalue(), "error": error or err.getvalue()[-500:],
                        "cache_hit": None if info is None else after.hits > info.hits})
        if len(records) == args.max_ops or time.perf_counter() >= deadline:
            break
        op = next(stream)
    elapsed = time.perf_counter() - start
    probe.stop()

    info = _cache_info(dyckgram.grammar)
    result.update({"elapsed_s": elapsed, "records": records,
                   "plan_digest": plan_digest(argvs),
                   "oracle_cache": None if info is None else info._asdict()})
    if tracer:
        incl, self_s = tracer.layer_times()
        result["trace"] = {"incl_s": incl, "self_s": self_s,
                           "counts": dict(tracer.counts), "missing": tracer.missing}
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
