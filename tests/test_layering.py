"""The production modules keep clear of the brute-force oracles: only
`oracles.py` (where every enumerator and its guard live), `cli.py` (whose
audit runs them) and the package's `__init__.py` (which re-exports them)
import from `.oracles` or import `guard_limit`, and no other module words
a guard refusal of its own."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dpe_codec"
EXEMPT = {"oracles.py", "cli.py", "__init__.py"}
PRODUCTION = sorted(p for p in PACKAGE.glob("*.py") if p.name not in EXEMPT)
# bench/tracing.py traces decode_exhaustive under berlekamp, so it stays bound there
ALLOWED = {"berlekamp.py": [("oracles", "decode_exhaustive")]}


def _oracle_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of every import of the oracles or of guard_limit."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("dpe_codec").lstrip(".")
            for alias in node.names:
                if module == "oracles" or alias.name in ("oracles", "guard_limit"):
                    found.append((module, alias.name))
        elif isinstance(node, ast.Import):
            found += [(a.name, "") for a in node.names if a.name.endswith("oracles")]
    return found


def test_there_are_production_modules():
    assert {"berlekamp.py", "basemath.py", "core.py", "hamming.py"} <= {p.name for p in PRODUCTION}


@pytest.mark.parametrize("path", PRODUCTION, ids=lambda p: p.name)
def test_imports_no_oracle_and_no_guard(path):
    assert _oracle_imports(path.read_text()) == ALLOWED.get(path.name, [])


@pytest.mark.parametrize("path", PRODUCTION, ids=lambda p: p.name)
def test_words_no_guard_refusal(path):
    assert "exceeds the guard" not in path.read_text()
