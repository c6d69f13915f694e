"""The runtime imports nothing outside the standard library, and
importing it loads no more of the standard library than it needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dyckgram"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_stdlib():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = [f"{path.name}: {name}" for path in sources
               for name in _absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not foreign


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a child interpreter with src/ alone on PYTHONPATH; what the bare
    # interpreter already holds (site imports some modules) does not count
    code = ("import sys; bare = set(sys.modules); import dyckgram.cli; "
            "print(*sorted(set(sys.modules) - bare))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    added = set(done.stdout.split())
    assert (done.returncode, done.stderr) == (0, "")
    assert "dyckgram.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_no_source_is_compiled_at_run_time():
    sources = sorted(SRC.glob("*.py"))
    calls = [f"{path.name}: {node.func.id}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("exec", "eval", "compile")]
    assert not calls
