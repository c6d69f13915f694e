"""What the layer scripts share: their fixed sets, one best-of timer, one
counting and memory-tracing context, one runner of child interpreters,
the digest and the JSON printer.

A script is run from the root of a checkout as

    PYTHONPATH=src python3 scripts/<name>.py

dyckgram is imported from PYTHONPATH, so pointing it at another
checkout's ``src`` times that checkout with the same script.  Each script
prints one JSON object: the Python version, then its rows.  A row's time
is the sum over its calls (one per quad, instance or set) of each call's
best of five wall times, the calls interleaved pass by pass, so that on a
shared host a slow phase costs one call one run, not a whole pass.  A
row's digest is 16 hex digits of the SHA-256 of its results, so that two
checkouts can be compared for equal results as well as for speed.  Work
counts (calls of the names a script lists, and the ``tracemalloc`` peak)
come from one more, untimed pass, and repeat exactly.

The sets: the 81 verify-pool instances (``dyckgram.families.verify_pool()``:
F1-F3 plus the 48 run-progression instances of acceptance criterion 05 and
the 30 short-run instances of criterion 06, 15 grammars and 66
equations), the 8 instances of the benchmark's ``deep`` workload
(``dyckgram.families.deep_set()``) and :func:`census_quads`.
"""

import hashlib
import json
import platform
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager

from dyckgram.intsets import RestrictionQuad

REPEATS = 5
CENSUS_SEED = 9129

# the verify pool's instances by family, so that a change that speeds up
# the large multisets but slows the cheap instances shows
GROUPS = (("heavy equations (F6, F8)", ("F6", "F8")),
          ("light equations (F9-F11)", ("F9", "F10", "F11")),
          ("grammars", ("F1", "F2", "F3", "F5", "F7")))


def census_quads(count: int = 24, seed: int = CENSUS_SEED):
    """Seeded census-style quads, as in the benchmark's ``census``
    workload: every avoid-set holds one or two atoms."""
    rng = random.Random(seed)

    def atom():
        kind = rng.randrange(3)
        if kind == 0:
            return str(rng.randint(1, 8))
        if kind == 1:
            lo = rng.randint(1, 6)
            return f"{lo}..{lo + rng.randint(0, 5)}"
        return f"ap({rng.randint(1, 4)},{rng.randint(1, 6)})"

    return [RestrictionQuad.parse(**{k: ",".join(atom() for _ in range(rng.randint(1, 2)))
                                     for k in ("peaks", "valleys", "up_runs", "down_runs")})
            for _ in range(count)]


def best_of(calls: dict, repeats: int = REPEATS) -> tuple[dict, dict]:
    """Each named call's least wall time over ``repeats`` interleaved
    passes, and its result of the last pass."""
    best = dict.fromkeys(calls, float("inf"))
    results = {}
    for _ in range(repeats):
        for name, call in calls.items():
            t0 = time.perf_counter()
            results[name] = call()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best, results


def group_rows(best: dict) -> list[dict]:
    """The summed best time of each of :data:`GROUPS`, from times keyed by
    instance name."""
    rows = []
    for group, families in GROUPS:
        names = [n for n in best if n.split("(")[0] in families]
        rows.append({"group": group, "instances": len(names),
                     "best_s": round(sum(best[n] for n in names), 3)})
    return rows


@contextmanager
def measured(targets=(), letters: bool = False):
    """Count calls while the body runs, and trace its memory.

    ``targets`` lists (module, attribute, key): each call of that name adds
    1 to ``key`` (targets may share one), and with ``letters`` the length
    of its first argument to ``"letters"``.  Yields the counts, which on a
    normal exit also hold ``"peak_bytes"``, the most memory ``tracemalloc``
    saw allocated at once.  Every patched name is restored on exit, also
    when the body raises."""
    work = dict.fromkeys((key for _, _, key in targets), 0)
    if letters:
        work["letters"] = 0
    saved = [(module, name, getattr(module, name)) for module, name, _ in targets]

    def counting(key, fn):
        def counted(*args, **kwargs):
            work[key] += 1
            if letters:
                work["letters"] += len(args[0])
            return fn(*args, **kwargs)
        return counted

    try:
        for (module, name, fn), (_, _, key) in zip(saved, targets):
            setattr(module, name, counting(key, fn))
        tracemalloc.start()
        yield work
        work["peak_bytes"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        for module, name, fn in saved:
            setattr(module, name, fn)


# appended to a child's code: the child prints, as its last line, its peak
# resident set in KiB, or 0 where there is no /proc
_PEAK = ("\nimport os\n"
         "print(next((l.split()[1] for l in open('/proc/self/status') if l[:6] == 'VmHWM:'),"
         " 0) if os.path.exists('/proc/self/status') else 0)\n")


def child(code: str, *args: str, env: dict | None = None) -> tuple[float, str, float]:
    """Run ``python -c code args`` in a fresh interpreter, which must exit
    0: its wall seconds, spawn to exit, its stdout and its own peak RSS in
    MiB, the ``VmHWM`` it reads as it exits (``ru_maxrss`` keeps, across
    the ``exec``, the peak of the process that spawned the child)."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code + _PEAK, *args], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    seconds = time.perf_counter() - t0
    cut = out.rstrip("\n").rfind("\n") + 1  # the start of the peak's line
    return seconds, out[:cut], int(out[cut:]) / 1024


def digest(texts) -> str:
    """16 hex digits of the SHA-256 of the texts, one after another."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()[:16]


def report(**fields) -> None:
    """Print the Python version and ``fields`` as one JSON object."""
    print(json.dumps({"python": platform.python_version(), **fields}, indent=1))
