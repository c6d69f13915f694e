"""The benchmark's own checks.

    python3 benchmark/selfcheck.py

1. The seeded operation streams are deterministic: the same seed draws
   the same operations, and another seed draws others.
2. A wrong reference value counts as a failed operation, and makes the
   benchmark command exit nonzero.
3. Metric names match [A-Za-z0-9_.-]+ and agree with BENCHMARK.json.
4. The tracer replaces every name it wraps, and self times plus the
   unattributed remainder add up to the traced operation time.

Takes a few seconds.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from itertools import islice

import run
import workloads

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def _names(stream_ops):
    return [op["argv"] for op in stream_ops]


def check_determinism() -> None:
    for w in workloads.WORKLOADS:
        a = _names(islice(workloads.ops(w, 7), 60))
        b = _names(islice(workloads.ops(w, 7), 60))
        c = _names(islice(workloads.ops(w, 8), 60))
        expect(a == b, f"{w}: seed 7 draws the same 60 operations twice")
        expect(a != c, f"{w}: seeds 7 and 8 draw different operations")
    pool = workloads.verify_pool()
    expect(len(pool) == 81 and len(set(map(str, pool))) == 81,
           "verify pool: 78 sweep instances plus F1-F3, no repeats")


def _cli(argv) -> str:
    import dyckgram.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = dyckgram.cli.main(argv)
    assert rc == 0, argv
    return out.getvalue()


def check_wrong_reference() -> None:
    op = {"kind": "verify", "name": "F3()", "ref": ["F3", []],
          "argv": ["verify", "--family", "F3", "--max-len", "12", "--n-max",
                   str(workloads.VERIFY_N_MAX), "--json"]}
    stdout = _cli(op["argv"])
    expect(workloads.check(op, 0, stdout) is None, "F3 verify output passes its check")
    key = ("F3", ())
    right = workloads.REFERENCES[key]
    workloads.REFERENCES[key] = lambda n: right(n) + (n == 7)
    try:
        expect(workloads.check(op, 0, stdout) is not None,
               "a wrong Motzkin reference fails the F3 operation")
    finally:
        workloads.REFERENCES[key] = right

    # the whole command, with the Catalan bound every count is held to made wrong
    right_catalan = workloads.catalan
    workloads.catalan = lambda n: right_catalan(n) - 1
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = run.main(["--workload", "census", "--seed", "1", "--seconds", "0.5"])
        result = json.loads(out.getvalue().splitlines()[-1])
        expect(rc != 0 and result["failed"] >= 1 and not result["correct"],
               f"a wrong reference makes the command exit nonzero (exit {rc})")
    finally:
        workloads.catalan = right_catalan


def check_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ours = dict(run.END_TO_END) | {k: u for k, (u, _) in run.PER_LAYER.items()}
    expect(all(run.METRIC_NAME.fullmatch(n) for n in ours),
           f"all {len(ours)} metric names match {run.METRIC_NAME.pattern}")
    expect(declared == ours, "BENCHMARK.json declares exactly the metrics run.py emits")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads run.py knows")


def check_tracer() -> None:
    import dyckgram
    import dyckgram.cli
    from time import perf_counter
    from tracer import TARGETS, Tracer

    originals = {}
    for layer, module_name, attr, _, _ in TARGETS:
        owner_name, _, name = attr.rpartition(".")
        owner = sys.modules[module_name]
        owner = getattr(owner, owner_name) if owner_name else owner
        originals[layer] = vars(owner)[name]
    tracer = Tracer()
    tracer.install()
    expect(not tracer.missing, f"every traced name exists ({tracer.missing or 'none missing'})")
    left = [f"{m.__name__}.{k}" for m in list(sys.modules.values())
            if m is not None and m.__name__.startswith("dyckgram")
            for k, v in vars(m).items() if any(v is o for o in originals.values())]
    expect(not left, f"no dyckgram module keeps an unwrapped name ({left[:3]})")

    wall = 0.0
    for i, argv in enumerate((["verify", "--family", "F6", "--param", "A=1,B=3",
                               "--max-len", "12", "--n-max", "6", "--json"],
                              ["count", "--n-max", "8", "--valleys", "2", "--json"])):
        tracer.op = i
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            dyckgram.cli.main(argv)
            wall += perf_counter() - t0
    incl, self_s = tracer.layer_times()
    attributed = sum(self_s.values())
    expect(0 <= wall - attributed < 0.05 * wall,
           f"self times {attributed:.4f} s + unattributed {wall - attributed:.5f} s "
           f"= traced wall {wall:.4f} s")
    expect(abs(incl["cli.main"] - attributed) < 1e-9 * len(tracer.spans) + 1e-6,
           "the cli.main spans cover every other self time")


def main() -> int:
    check_determinism()
    check_metric_names()
    check_wrong_reference()
    check_tracer()
    print(f"{len(failures)} failed" if failures else "all benchmark self-checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
