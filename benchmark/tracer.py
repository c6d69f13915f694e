"""In-memory spans around the public functions of every dyckgram module.

The tracer patches names from outside the package: each wrapped
function is replaced in every ``dyckgram`` module that imported it, and
methods are replaced on their class.  Three wrapper kinds keep the cost
proportionate to how often a function runs:

* span   -- one record (id, name, start, end, parent span, operation id,
            probe seconds) per call; used for calls that run at most a
            few hundred times per operation;
* hot    -- timed, but aggregated per (enclosing span, chain of hot
            callers), so a function called ~10^5 times per operation
            adds counters, not records;
* count  -- call count only; its time stays in the caller's self time.

Self time is derived afterwards from the records: a span's duration minus
its child spans and its direct hot children, and a hot node's total
minus its hot children.  Hot functions must not call span functions.
Durations leave out the time the worker's speed probe (a signal handler)
ran inside them, read from ``probe_s``, a callable returning the probe's
running total.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from math import comb
from time import perf_counter


def _catalan_sum(n_max: int) -> int:
    return sum(comb(2 * n, n) // (n + 1) for n in range(n_max + 1))


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# (layer, module, attribute, kind, hook); "Class.attr" patches a method.
# A hook receives (tracer, args, kwargs, result) and adds work counts.
TARGETS = (
    ("cli.main", "dyckgram.cli", "main", "span", None),
    ("families.build", "dyckgram.families", "build", "span", None),
    ("verify.verify_family", "dyckgram.verify", "verify_family", "span", None),
    ("verify.count_comparison", "dyckgram.verify", "count_comparison", "span", None),
    ("oracle.enumerate_paths", "dyckgram.oracle", "enumerate_paths", "span",
     lambda t, a, k, r: t.add("oracle.enumerate_paths.paths_out", len(r))),
    ("oracle.count_brute", "dyckgram.oracle", "count_brute", "span",
     lambda t, a, k, r: t.add("oracle.count_brute.leaves",
                              _catalan_sum(_arg(a, k, 0, "n_max")))),
    ("oracle.count_dp", "dyckgram.oracle", "count_dp", "span", None),
    ("grammar.words", "dyckgram.grammar", "words", "span",
     lambda t, a, k, r: t.add("grammar.words.out", r.total())),
    ("grammar.check_unambiguous", "dyckgram.grammar", "check_unambiguous", "span", None),
    ("grammar.check_equation", "dyckgram.grammar", "check_equation", "span", None),
    ("grammar.lower", "dyckgram.grammar", "lower", "span", None),
    ("series.solve", "dyckgram.series", "solve", "span", None),
    ("sequences.reference", "dyckgram.sequences", "reference", "span", None),
    ("bijection.verify_counts", "dyckgram.bijection", "verify_counts", "span", None),
    ("paths.satisfies", "dyckgram.paths", "satisfies", "hot",
     lambda t, a, k, r: t.add("paths.satisfies.kept", 1 if r else 0)),
    ("series.mul", "dyckgram.series", "TruncatedSeries.__mul__", "hot", None),
    ("paths.from_text", "dyckgram.paths", "DyckPath.from_text", "count", None),
    ("intsets.contains", "dyckgram.intsets", "IntSet.contains", "count", None),
    ("series.poly_eval", "dyckgram.series", "Poly.eval", "count", None),
)


class Tracer:
    def __init__(self, probe_s=lambda: 0.0):
        self.op = None
        self.probe_s = probe_s
        self.spans: list[list] = []   # [id, name, start, end, parent, op, probe_s]
        self.hot: dict[tuple, list] = {}  # (span id, hot chain) -> [calls, total_s]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[tuple] = [(None, ())]  # (enclosing span id, hot chain)

    def add(self, key: str, n: int) -> None:
        self.counts[key] += n

    def span(self, name, fn, hook):
        spans, stack, counts, probe_s = self.spans, self._stack, self.counts, self.probe_s

        def wrapper(*args, **kwargs):
            rec = [len(spans), name, 0.0, 0.0, stack[-1][0], self.op, 0.0]
            spans.append(rec)
            stack.append((rec[0], ()))
            p0 = probe_s()
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                rec[6] = probe_s() - p0
                stack.pop()
            counts[name + ".calls"] += 1
            if hook:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def hot_call(self, name, fn, hook):
        hot, stack, counts, probe_s = self.hot, self._stack, self.counts, self.probe_s

        def wrapper(*args, **kwargs):
            sid, chain = stack[-1]
            key = (sid, chain + (name,))
            stack.append(key)
            p0 = probe_s()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0 - (probe_s() - p0)
                stack.pop()
                agg = hot.get(key)
                if agg is None:
                    agg = hot[key] = [0, 0.0]
                agg[0] += 1
                agg[1] += dt
            counts[name + ".calls"] += 1
            if hook:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def count_call(self, name, fn, hook):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dyckgram" or n.startswith("dyckgram."))]
        make = {"span": self.span, "hot": self.hot_call, "count": self.count_call}
        for layer, module_name, attr, kind, hook in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(method) if owner is not None else None
            if raw is None:
                self.missing.append(layer)
                continue
            if owner_name:
                is_cm = isinstance(raw, classmethod)
                new = make[kind](layer, raw.__func__ if is_cm else raw, hook)
                setattr(owner, method, classmethod(new) if is_cm else new)
                continue
            new = make[kind](layer, raw, hook)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is raw:
                        setattr(m, k, new)

    # --- derived figures --------------------------------------------------

    def layer_times(self) -> tuple[dict, dict]:
        """(inclusive seconds, self seconds) per layer name."""
        incl: Counter = Counter()
        self_s: Counter = Counter()
        covered: Counter = Counter()
        for sid, name, start, end, parent, _, probe in self.spans:
            incl[name] += end - start - probe
            if parent is not None:
                covered[parent] += end - start - probe
        hot_cover: Counter = Counter()
        for (sid, chain), (_, total) in self.hot.items():
            incl[chain[-1]] += total
            if len(chain) == 1:
                if sid is not None:
                    covered[sid] += total
            else:
                hot_cover[(sid, chain[:-1])] += total
        for sid, name, start, end, _, _, probe in self.spans:
            self_s[name] += end - start - probe - covered[sid]
        for key, (_, total) in self.hot.items():
            self_s[key[1][-1]] += total - hot_cover[key]
        return dict(incl), dict(self_s)

    def write(self, path) -> None:
        """All spans and hot aggregates, one JSON object a line."""
        with open(path, "w") as f:
            for sid, name, start, end, parent, op, probe in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op, "probe_s": probe}) + "\n")
            for (sid, chain), (calls, total) in self.hot.items():
                f.write(json.dumps({"hot": list(chain), "span": sid,
                                    "calls": calls, "total_s": total}) + "\n")
