"""Hash what the CLI writes for a fixed set of command lines.

    PYTHONPATH=src python3 scripts/cli_bytes.py

Each command line runs in-process through ``dyckgram.cli.main``, and its
stdout, stderr and exit status are captured.  The groups: ``verify`` and
``series --dump-grammar``, each as text and with ``--json``, on the 81
instances of ``dyckgram.families.verify_pool()``; ``count --method both
--n-max 12``, as text and with ``--json``, on the 24 seeded quads of
``harness.census_quads()``; ``deep``, the two command lines of the
benchmark's ``deep`` workload (``count --method dp --n-max 64`` on the
instance's quad and ``series --order 128``), each as text and with
``--json``, on the 8 instances of ``dyckgram.families.deep_set()``;
``bijection``, the certifier at its default semilength and at
``--semilength 10`` and ``12``, each as text and with ``--json``; a
dozen command lines that exit 2; and ``help``, ``--help`` for the top
level and for each of the six subcommands, wrapped at ``COLUMNS=80``,
which ``main`` sets for the script's own process.
Prints the number of runs, and for each group its runs and a digest of
every (argv, stdout, stderr, exit status), so that two checkouts can be
compared for equal output byte for byte (see ``harness.py``).
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout

from dyckgram import cli
from dyckgram.families import build, deep_set, verify_pool
from harness import census_quads, digest, report

CENSUS_N_MAX = 12
DEEP_N_MAX = 64
DEEP_ORDER = 128

EXIT_2 = [
    [],
    ["count", "--method", "dp"],
    ["count", "--n-max", "abc"],
    ["count", "--n-max", "3", "--peaks", "5..3"],
    ["enumerate", "-n", "30"],
    ["series", "--family", "F5", "--param", "A=1,B=2"],
    ["series", "--family", "F6", "--param", "A=1,A=2"],
    ["verify", "--family", "F1", "--n-max", "-1"],
    ["verify", "--family", "F3", "--max-len", "-2"],
    ["verify", "--family", "F3", "--max-len", "80"],
    ["identify", "--terms", "1,x,2"],
    ["bijection", "--semilength", "10", "--cap", "5"],
]

BIJECTION = [["bijection"], ["bijection", "--semilength", "10"],
             ["bijection", "--semilength", "12"]]

HELP = [["--help"]] + [[command, "--help"] for command in (
    "enumerate", "count", "series", "verify", "identify", "bijection")]


def run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return out.getvalue(), err.getvalue(), code


def _family_args(family: str, params: dict) -> list[str]:
    joined = ",".join(f"{k}={v}" for k, v in params.items())
    return ["--family", family] + (["--param", joined] if joined else [])


def _quad_args(quad) -> list[str]:
    return ["--peaks", str(quad.peaks), "--valleys", str(quad.valleys),
            "--upruns", str(quad.up_runs), "--downruns", str(quad.down_runs)]


def groups(instances, quads, deep) -> dict[str, list[list[str]]]:
    """The command lines of each group; ``instances`` and ``deep`` are
    (family, params) pairs, as ``dyckgram.families`` lists them."""
    families = [_family_args(*pair) for pair in instances]
    counts = [["count", "--method", "both", "--n-max", str(CENSUS_N_MAX)]
              + _quad_args(quad) for quad in quads]
    deep_runs = [argv for family, params in deep for argv in (
        ["count", "--method", "dp", "--n-max", str(DEEP_N_MAX)]
        + _quad_args(build(family, **params).quad),
        ["series", *_family_args(family, params), "--order", str(DEEP_ORDER)])]
    out = {}
    for suffix in ("", " --json"):
        extra = suffix.split()
        out["verify" + suffix] = [["verify", *f, *extra] for f in families]
        out["series --dump-grammar" + suffix] = [
            ["series", "--dump-grammar", *f, *extra] for f in families]
        out["count --method both" + suffix] = [c + extra for c in counts]
    out["deep"] = [argv + extra for extra in ([], ["--json"]) for argv in deep_runs]
    out["bijection"] = [argv + extra for extra in ([], ["--json"]) for argv in BIJECTION]
    out["exit 2"] = EXIT_2
    out["help"] = HELP
    return out


def digests(named: dict[str, list[list[str]]]) -> dict:
    return {name: {"runs": len(argvs),
                   "sha256": digest(repr((argv, run(argv))) for argv in argvs)}
            for name, argvs in named.items()}


def main() -> None:
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    rows = digests(groups(verify_pool(), census_quads(), deep_set()))
    report(runs=sum(r["runs"] for r in rows.values()), groups=rows)


if __name__ == "__main__":
    main()
