"""Time ``verify.verify_family`` over the 81 verify-pool instances at
max_len = 20, n_max = 10, and count the oracle work it does.

    PYTHONPATH=src python3 scripts/verify_layer.py

Prints the summed best times of the instances, the number of
``oracle.joins`` passes and of ``oracle.walk`` calls one untimed pass
over them makes, with that pass's ``tracemalloc`` peak in MiB
(``peak_mb``, so the word engine's memory shows next to its time), and a
digest of every report's check names, verdicts, details and counts; then
the time of each group of ``harness.GROUPS``.
"""

from functools import partial

from dyckgram import oracle, verify
from dyckgram.families import build, verify_pool
from dyckgram.verify import verify_family
from harness import REPEATS, best_of, digest, group_rows, measured, report

MAX_LEN = 20
N_MAX = 10


def _report(inst, max_len, n_max):
    family = verify_family(inst, max_len=max_len, n_max=n_max)
    return ([(c.name, c.passed, c.detail) for c in family.checks],
            sorted(family.counts.items()))


def oracle_work(instances, max_len, n_max) -> dict:
    """``oracle.joins`` and ``oracle.walk`` calls made by one
    ``verify_family`` call on each instance, and the peak of traced memory
    over them."""
    with measured([(oracle, "joins", "joins_calls"), (verify, "joins", "joins_calls"),
                   (oracle, "walk", "walks")]) as work:
        for inst in instances:
            verify_family(inst, max_len=max_len, n_max=n_max)
    work["peak_mb"] = round(work.pop("peak_bytes") / 2 ** 20, 3)
    return work


def _row(instances, max_len, n_max, repeats=REPEATS):
    """Each instance's best time, and the pass's total row."""
    best, results = best_of({str(i): partial(_report, i, max_len, n_max)
                             for i in instances}, repeats)
    return best, {"instances": len(instances), "max_len": max_len, "n_max": n_max,
                  "best_s": round(sum(best.values()), 3),
                  **oracle_work(instances, max_len, n_max),
                  "reports_sha256": digest([repr(sorted(results.items()))])}


def main() -> None:
    best, row = _row([build(f, **p) for f, p in verify_pool()], MAX_LEN, N_MAX)
    report(repeats=REPEATS, rows=[row, *group_rows(best)])


if __name__ == "__main__":
    main()
