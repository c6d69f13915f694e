"""Time ``verify.verify_family`` over the 81 verify-pool instances at
max_len = 20, n_max = 10, and count the oracle work it does.

    PYTHONPATH=src python3 scripts/verify_layer.py

The pool is ``dyckgram.families.verify_pool()``: F1-F3 plus the 48
run-progression instances of acceptance criterion 05 and the 30 short-run
instances of criterion 06, 15 grammars and 66 equations.  dyckgram is
imported from PYTHONPATH, so pointing it at another checkout's ``src``
times that checkout with the same script.  Prints one JSON object: the
time of all instances, the number of ``oracle.joins`` passes and of
``oracle.walk`` calls one pass over them makes, and a digest of every
report's check names, verdicts, details and counts, so that two
checkouts can be compared for equal reports as well as for speed and
work; then the time of each of three groups, the heavy equations (F6,
F8), the light ones (F9-F11) and the grammars.  A time is the sum over
the instances of each one's best of five wall times; the calls are
counted in a separate, untimed pass, which ``tracemalloc`` follows:
``peak_mb`` is the most memory it saw allocated at once, in MiB, so the
word engine's memory shows next to its time.
"""

import hashlib
import json
import platform
import time
import tracemalloc

from dyckgram import oracle, verify
from dyckgram.families import build, verify_pool
from dyckgram.verify import verify_family

MAX_LEN = 20
N_MAX = 10
REPEATS = 5

GROUPS = (("heavy equations (F6, F8)", ("F6", "F8")),
          ("light equations (F9-F11)", ("F9", "F10", "F11")),
          ("grammars", ("F1", "F2", "F3", "F5", "F7")))


def _report(inst, max_len, n_max):
    report = verify_family(inst, max_len=max_len, n_max=n_max)
    return ([(c.name, c.passed, c.detail) for c in report.checks],
            sorted(report.counts.items()))


def oracle_work(instances, max_len, n_max) -> dict:
    """``oracle.joins`` and ``oracle.walk`` calls made by one
    ``verify_family`` call on each instance, and the peak of traced memory
    over them."""
    work = {"joins_calls": 0, "walks": 0}

    def counting(key, fn):
        def counted(*args):
            work[key] += 1
            return fn(*args)
        return counted

    saved = oracle.joins, verify.joins, oracle.walk
    oracle.joins = verify.joins = counting("joins_calls", saved[0])
    oracle.walk = counting("walks", saved[2])
    tracemalloc.start()
    try:
        for inst in instances:
            verify_family(inst, max_len=max_len, n_max=n_max)
        work["peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 3)
    finally:
        tracemalloc.stop()
        oracle.joins, verify.joins, oracle.walk = saved
    return work


def _row(instances, max_len, n_max, repeats=REPEATS):
    """Each instance's best time and report, and the pass's total row."""
    times = {str(i): [] for i in instances}
    for _ in range(repeats):
        results = {}
        for inst in instances:
            t0 = time.perf_counter()
            results[str(inst)] = _report(inst, max_len, n_max)
            times[str(inst)].append(time.perf_counter() - t0)
    best = {name: min(ts) for name, ts in times.items()}
    digest = hashlib.sha256(repr(sorted(results.items())).encode())
    return best, {"instances": len(instances), "max_len": max_len, "n_max": n_max,
                  "best_s": round(sum(best.values()), 3),
                  **oracle_work(instances, max_len, n_max),
                  "reports_sha256": digest.hexdigest()[:16]}


def main() -> None:
    best, row = _row([build(f, **p) for f, p in verify_pool()], MAX_LEN, N_MAX)
    rows = [row]
    for group, families in GROUPS:
        names = [n for n in best if n.split("(")[0] in families]
        rows.append({"group": group, "instances": len(names),
                     "best_s": round(sum(best[n] for n in names), 3)})
    print(json.dumps({"python": platform.python_version(), "repeats": REPEATS,
                      "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
