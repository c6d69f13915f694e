"""The runtime imports nothing outside the standard library."""

import ast
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
