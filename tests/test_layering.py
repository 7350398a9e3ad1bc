"""The production modules keep clear of the brute-force oracles: only
`oracles.py` (where every enumerator and its guard live), `cli.py` (whose
audit runs them) and the package's `__init__.py` (which re-exports them)
import from `.oracles` or import `guard_limit`, and no other module words
a guard refusal of its own.  The scheme modules keep to the one decode
pipeline in `core`, and only `core` and the oracles call `gfp_solve`."""

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


# A systematic encoder fills its tail through `core.CheckMatrix.tail`, the
# one linear solve of the production code; the oracles solve for their own.
SOLVERS = {"core.py", "oracles.py"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_gfp_solve_is_called_only_in_core_and_the_oracles(path):
    calls = [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "gfp_solve"]
    assert bool(calls) == (path.name in SOLVERS), path.name


# The decode pipeline is written once, as core.decode_read.  Each scheme
# class's own decode is one call into it, and a read is admitted only in
# the syndrome hook: `read_syndromes`, or the `syndromes` that the
# double-error schemes' hook calls.
SCHEME_MODULES = ["single.py", "double.py", "multi.py", "hamming.py"]
SCHEME_CLASSES = {
    "ParityDetectScheme", "SingleErrorScheme", "SecDedScheme", "DoubleErrorScheme",
    "TripleDetectScheme", "RecursiveScheme", "LargeAlphabetScheme", "HammingScheme",
}
WRAPPERS = {"ShortenedScheme"}  # widens the read for its base's decode
SYNDROME_HOOKS = {"read_syndromes", "syndromes"}


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text())


def _decoders() -> dict[str, ast.FunctionDef]:
    found = {}
    for name in SCHEME_MODULES:
        for node in _tree(name).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "decode":
                        found[node.name] = item
    return found


def test_every_scheme_decode_is_one_pipeline_call():
    decoders = _decoders()
    assert set(decoders) == SCHEME_CLASSES | WRAPPERS
    for cls in SCHEME_CLASSES:
        (statement,) = decoders[cls].body
        assert ast.dump(statement) == ast.dump(
            ast.parse("return decode_read(self, y)").body[0]), cls


@pytest.mark.parametrize("name", SCHEME_MODULES)
def test_reads_are_admitted_only_in_the_syndrome_hook(name):
    for function in ast.walk(_tree(name)):
        if not isinstance(function, ast.FunctionDef):
            continue
        calls = [node for node in ast.walk(function) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute) and node.func.attr == "admit"]
        if calls:
            assert function.name in SYNDROME_HOOKS, (name, function.name)


@pytest.mark.parametrize("name", SCHEME_MODULES)
def test_only_the_pipeline_corrects(name):
    names = {node.id for node in ast.walk(_tree(name)) if isinstance(node, ast.Name)}
    assert "corrected" not in names


# Every name a module imports is used in it.  `__init__.py` re-exports, and
# two bindings stay for bench/tracing.py, which traces them by name.
UNUSED_ALLOWED = {("berlekamp.py", "decode_exhaustive"), ("hamming.py", "gfp_solve")}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":  # from __future__ import annotations
                    imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = {(path.name, name) for name in _unused_imports(ast.parse(path.read_text()))}
    assert unused <= UNUSED_ALLOWED, sorted(unused - UNUSED_ALLOWED)
