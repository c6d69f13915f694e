"""Command-line front end.

Subcommands: enumerate, count, series, verify, identify, bijection.
Exit status: 0 on success / all checks passed, 1 when a verification
check fails (the failure witness is in the output, machine-readable
under --json), 2 for usage or parse errors.

With --json every command emits a single JSON object; numeric values are
decimal strings so arbitrarily large counts survive any JSON reader, and
re-emitting a parsed object reproduces the bytes exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .bijection import verify_counts
from .families import BadParams, FAMILY_IDS, build
from .grammar import lower
from .intsets import (BadProgression, NonPositiveValue, RestrictionQuad,
                      SetSyntaxError, parse_set)
from .oracle import DEFAULT_ENUMERATION_CAP, ResourceLimit, language
from .sequences import identify
from .series import DEFAULT_ORDER, solve
from .verify import (DEFAULT_MAX_LEN, DEFAULT_N_MAX, count_comparison,
                     first_mismatch, row, verify_family)

DEFAULT_BIJECTION_MAX = 8


def _set_arg(text: str):
    try:
        return parse_set(text)
    except (SetSyntaxError, NonPositiveValue, BadProgression) as e:
        raise argparse.ArgumentTypeError(f"bad set {text!r}: {e}")


def _ascii_int(text: str) -> int | None:
    # an optional '-' and then ASCII digits only: int() alone also reads
    # '1_0', '+5', ' 8' and other scripts' digits, such as '٣' or '１２'
    digits = text.removeprefix("-")
    return int(text) if digits.isascii() and digits.isdigit() else None


def _params_arg(text: str) -> dict[str, int]:
    if not text:
        return {}
    out = {}
    for piece in text.split(","):
        name, sep, value = piece.partition("=")
        if not sep or (value := _ascii_int(value)) is None:
            raise argparse.ArgumentTypeError(f"bad parameter {piece!r}, want NAME=INT")
        name = name.strip()
        if name in out:
            raise argparse.ArgumentTypeError(f"parameter {name!r} given twice")
        out[name] = value
    return out


def _int_arg(text: str) -> int:
    if (value := _ascii_int(text)) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _terms_arg(text: str) -> list[int]:
    try:
        return [_int_arg(t) for t in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"bad terms {text!r}, want INT,INT,...")


def _quad_from(args) -> RestrictionQuad:
    return RestrictionQuad(args.peaks, args.valleys, args.upruns, args.downruns)


def _quad_json(quad: RestrictionQuad) -> dict:
    return {"peaks": str(quad.peaks), "valleys": str(quad.valleys),
            "up_runs": str(quad.up_runs), "down_runs": str(quad.down_runs)}


# Each command returns (payload, text lines) and ``main`` prints one of
# them.  The lines are iterated only for text, so a generator builds no
# line under --json.

def _cmd_enumerate(args):
    quad = _quad_from(args)
    paths = language(args.n, quad, args.cap)
    return {"command": "enumerate", "n": str(args.n),
            "quad": _quad_json(quad), "paths": paths}, paths


def _cmd_count(args):
    quad = _quad_from(args)
    methods = ("brute", "dp") if args.method == "both" else (args.method,)
    counts = count_comparison(args.n_max, quad, methods, args.cap)
    mismatch = first_mismatch(counts)
    payload = {"command": "count", "n_max": str(args.n_max),
               "quad": _quad_json(quad), "methods": list(methods),
               "counts": {m: [str(c) for c in counts[m]] for m in methods},
               "passed": mismatch is None,
               "witness": None if mismatch is None else {
                   "n": str(mismatch),
                   **{m: str(c) for m, c in zip(methods, row(counts, mismatch))}}}

    def lines():
        yield "n\t" + "\t".join(methods)
        for n in range(args.n_max + 1):
            yield f"{n}\t" + "\t".join(str(c) for c in row(counts, n))
        if mismatch is not None:
            yield f"FAIL: methods disagree at n={mismatch}"
    return payload, lines()


def _cmd_series(args):
    instance = build(args.family, **args.param)
    system = lower(instance.body)
    solution = solve(system, args.order)
    coeffs = {name: solution[name].require_counts().coeffs
              for name in system.unknowns}
    payload = {"command": "series", "family": instance.family,
               "params": {k: str(v) for k, v in instance.params.items()},
               "order": str(args.order),
               "system": str(system).splitlines(),
               "coefficients": {n: [str(c) for c in cs] for n, cs in coeffs.items()}}
    if args.dump_grammar:
        payload["body"] = instance.body.to_text().splitlines()

    def lines():
        if args.dump_grammar:
            yield from payload["body"]
            yield ""
        yield from payload["system"]
        for name, cs in payload["coefficients"].items():
            yield f"{name}: " + ", ".join(cs)
    return payload, lines()


def _cmd_verify(args):
    instance = build(args.family, **args.param)
    report = verify_family(instance, max_len=args.max_len, n_max=args.n_max,
                           cap=args.cap)
    failed = next((c for c in report.checks if not c.passed), None)
    payload = {"command": "verify", "family": instance.family,
               "params": {k: str(v) for k, v in instance.params.items()},
               "max_len": str(args.max_len), "n_max": str(args.n_max),
               "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                          for c in report.checks],
               "counts": {m: [str(c) for c in cs]
                          for m, cs in report.counts.items()},
               "passed": report.passed,
               "witness": None if failed is None else {
                   "check": failed.name, "detail": failed.detail}}

    def lines():
        yield f"{str(instance)}: {instance.quad}"
        for c in report.checks:
            yield (("PASS " if c.passed else "FAIL ") + c.name
                   + (f" ({c.detail})" if c.detail else ""))
        yield "PASS" if report.passed else "FAIL"
    return payload, lines()


def _cmd_identify(args):
    matches = [sid.value for sid in identify(args.terms)]
    return {"command": "identify",
            "terms": [str(t) for t in args.terms], "matches": matches}, matches


def _cmd_bijection(args):
    report = verify_counts(args.semilength, cap=args.cap)
    payload = {"command": "bijection", "max_semilength": str(args.semilength),
               "rows": [{"semilength": str(r.semilength),
                         "paths": str(r.path_count), "walks": str(r.walk_count),
                         "expected": str(r.expected),
                         "round_trip": r.round_trip_ok} for r in report.rows],
               "passed": report.passed}
    lines = [f"m={r.semilength}\tpaths={r.path_count}\twalks={r.walk_count}"
             f"\texpected={r.expected}\troundtrip={'ok' if r.round_trip_ok else 'BAD'}"
             for r in report.rows]
    return payload, lines + ["PASS" if report.passed else "FAIL"]


@lru_cache(maxsize=1)  # built on first use, then reused by every main() call
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyckgram",
        description="Exact enumeration and generating functions for restricted Dyck paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--json", action="store_true", help="emit one JSON object")

    quad = argparse.ArgumentParser(add_help=False)
    empty = parse_set("")
    quad.add_argument("--peaks", type=_set_arg, default=empty,
                      help="peak heights to avoid, e.g. 'ap(2,3)' or '2,5..7'")
    quad.add_argument("--valleys", type=_set_arg, default=empty,
                      help="valley heights to avoid")
    quad.add_argument("--upruns", type=_set_arg, default=empty,
                      help="up-run lengths to avoid, e.g. '3..'")
    quad.add_argument("--downruns", type=_set_arg, default=empty,
                      help="down-run lengths to avoid")
    quad.add_argument("--cap", type=_int_arg, default=DEFAULT_ENUMERATION_CAP,
                      help="enumeration cap on the semilength")

    p = sub.add_parser("enumerate", parents=[flags, quad],
                       help="list satisfying paths of one semilength")
    p.add_argument("-n", type=_int_arg, required=True, help="semilength")
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("count", parents=[flags, quad],
                       help="count satisfying paths for each semilength")
    p.add_argument("--n-max", type=_int_arg, required=True)
    p.add_argument("--method", choices=("brute", "dp", "both"), default="both")
    p.set_defaults(run=_cmd_count)

    fam = argparse.ArgumentParser(add_help=False)
    fam.add_argument("--family", required=True, choices=FAMILY_IDS)
    fam.add_argument("--param", type=_params_arg, default={},
                     help="family parameters, e.g. 'A=2,B=1'")

    p = sub.add_parser("series", parents=[flags, fam],
                       help="lower a family and solve its series system")
    p.add_argument("--order", type=_int_arg, default=DEFAULT_ORDER)
    p.add_argument("--dump-grammar", action="store_true",
                   help="also print the grammar or equation")
    p.set_defaults(run=_cmd_series)

    p = sub.add_parser("verify", parents=[flags, fam],
                       help="run every cross-check for a family instance")
    p.add_argument("--max-len", type=_int_arg, default=DEFAULT_MAX_LEN,
                   help="word-check length bound")
    p.add_argument("--n-max", type=_int_arg, default=DEFAULT_N_MAX,
                   help="count-check semilength bound")
    p.add_argument("--cap", type=_int_arg, default=DEFAULT_ENUMERATION_CAP,
                   help="brute-force and enumeration cap on the semilength")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("identify", parents=[flags],
                       help="match a count prefix against the reference sequences")
    p.add_argument("--terms", type=_terms_arg, required=True,
                   help="at least 4 leading terms, e.g. '1,1,2,5,14'")
    p.set_defaults(run=_cmd_identify)

    p = sub.add_parser("bijection", parents=[flags],
                       help="certify the walk correspondence by full enumeration")
    p.add_argument("--semilength", type=_int_arg, default=DEFAULT_BIJECTION_MAX)
    p.add_argument("--cap", type=_int_arg, default=DEFAULT_ENUMERATION_CAP)
    p.set_defaults(run=_cmd_bijection)

    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines = args.run(args)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
    except BadParams as e:  # a usage error, reported as argparse reports one
        parser.error(str(e))
    except (ResourceLimit, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if payload.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
