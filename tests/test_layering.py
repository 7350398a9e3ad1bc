"""The production modules keep clear of the brute-force oracles: only
`oracles.py` (where every enumerator, reference and guard lives), `cli.py`
(whose audit runs them) and the package's `__init__.py` (which re-exports
them) import from `.oracles` or import `guard_limit`, and no other module
words a guard refusal of its own.  The production modules hold only what
the schemes run: every member they define is used.  The scheme modules
keep to the one decode pipeline in `core`, only `core` and the oracles
call `gfp_solve`, and only `gfpoly` calls the root scan `scan_pairs`."""

import ast
import importlib
from pathlib import Path

import pytest

import dpe_codec as api
from dpe_codec import core

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dpe_codec"
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


# A locator's points come from gfpoly.locator_points, which alone scans.
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_root_finders_are_called_only_in_gfpoly(path):
    calls = [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in {"scan_pairs"}]
    assert bool(calls) == (path.name == "gfpoly.py"), path.name


# The decode pipeline is written once, as core.decode_read.  Each scheme
# class binds it as its own decode (bench/tracing.py wraps each class's
# binding), and a read is admitted only in the syndrome hook:
# `read_syndromes`, or the `syndromes` that the double-error schemes' hook
# calls.
SCHEME_MODULES = ["single.py", "double.py", "multi.py", "hamming.py"]
SCHEME_CLASSES = {
    "ParityDetectScheme", "SingleErrorScheme", "SecDedScheme", "DoubleErrorScheme",
    "TripleDetectScheme", "RecursiveScheme", "LargeAlphabetScheme", "HammingScheme",
}
WRAPPERS = {"ShortenedScheme"}  # widens the read for its base's decode
SYNDROME_HOOKS = {"read_syndromes", "syndromes"}


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text())


def test_every_scheme_decode_is_the_pipeline():
    bound = {}
    for name in SCHEME_MODULES:
        module = importlib.import_module(f"dpe_codec.{name.removesuffix('.py')}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                if "decode" in cls.__dict__:
                    bound[cls.__name__] = cls.__dict__["decode"]
    assert set(bound) == SCHEME_CLASSES | WRAPPERS
    for cls in SCHEME_CLASSES:
        assert bound[cls] is core.decode_read, cls
    for cls in WRAPPERS:
        assert bound[cls] is not core.decode_read, cls


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


# References and enumerators that no scheme runs live in the oracles; the
# package still exports the five it always has.
MOVED = {"iter_l1_errors", "compositions", "base_q_digits", "digit_planes", "base_q_value",
         "mixed_radix_digits", "syndrome_matrix", "digit_split"}
REEXPORTED = {"base_q_digits", "base_q_value", "mixed_radix_digits", "syndrome_matrix",
              "digit_split"}


def _members(tree: ast.Module):
    """Every function and class a module defines at its top level, and
    every method (properties included) of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (item for item in node.body if isinstance(item, ast.FunctionDef))


def test_references_live_in_the_oracles():
    assert MOVED <= {node.name for node in _members(_tree("oracles.py"))}
    for path in PRODUCTION:
        assert not MOVED & {node.name for node in _members(ast.parse(path.read_text()))}, path.name
    for name in REEXPORTED:
        assert getattr(api, name) is getattr(api.oracles, name) and name in api.__all__


def _identifiers(tree: ast.AST, strings: bool = False):
    """(name, line, attribute) of every name, attribute and imported name
    in a tree, and with `strings` every string constant, with `attribute`
    true for an attribute or a string (tracing.py names methods in
    strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno, False
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, True


def test_every_production_member_is_used():
    """A member is used where it is named in the package outside its own
    definition, named in bench/, or exported; a method only where it is
    named as an attribute or a string, as a local variable of the same name
    is no use of it.  Dunder methods are called by Python itself."""
    package = {path.name: list(_identifiers(ast.parse(path.read_text())))
               for path in PACKAGE.glob("*.py")}
    package["bench/"] = [ident for path in (ROOT / "bench").glob("*.py")
                         for ident in _identifiers(ast.parse(path.read_text()), strings=True)]
    unused = []
    for path in PRODUCTION:
        tree = ast.parse(path.read_text())
        methods = {item for cls in tree.body if isinstance(cls, ast.ClassDef) for item in cls.body}
        for node in _members(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in api.__all__:
                continue
            if not any(used == name and (attribute or node not in methods) and
                       (module != path.name or not node.lineno <= line <= node.end_lineno)
                       for module, names in package.items()
                       for used, line, attribute in names):
                unused.append(f"{path.name}:{name}")
    assert unused == []
