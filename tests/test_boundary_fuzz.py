"""Arbitrary JSON in every file the CLI reads (information matrix, read
vector, scheme sidecar, fault spec): `main` exits 0, 1 or 2 and raises
nothing.

Each document is either arbitrary JSON or a valid document with some fields
replaced by arbitrary JSON, so that examples also reach scheme building,
fault injection and decoding.  Integers stay in [-3, 64], which keeps every
scheme a document can ask for small enough to build at once.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dpe_codec.cli import SCHEME_NAMES, build_scheme, main, make_parser, scheme_sidecar

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

KEYS = (
    "q", "rows", "cols", "data", "erasures", "scheme", "ell", "k", "n", "p", "tau", "theta",
    "sigma", "rho", "variant", "locators", "trimmed", "inner", "m", "modulus", "suffix_kind",
    "alpha", "allow_suffix_ambiguity", "kind", "t", "seed", "count", "magnitude", "deltas",
    "erase",
)
WORDS = SCHEME_NAMES + (
    "parity", "odd_q", "even_q", "trimmed", "powers", "fseq", "l1_drift", "symbol_flip",
    "short_column", "manual",
)

SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 64) | st.floats() | st.sampled_from(WORDS)
    | st.text(max_size=4)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=6),
    max_leaves=24,
)

# the schemes of the CLI round trips, by their params
SCHEME_ARGS = [
    ["--scheme", "sec", "--q", "2", "--n", "15", "--ell", "3"],
    ["--scheme", "sec-ded", "--q", "3", "--n", "8", "--ell", "2"],
    ["--scheme", "dec", "--q", "2", "--p", "31", "--ell", "2"],
    ["--scheme", "dec-ted", "--q", "3", "--p", "13", "--ell", "2"],
    ["--scheme", "recursive", "--q", "2", "--p", "31", "--tau", "1", "--ell", "2"],
    ["--scheme", "large-alphabet", "--q", "8", "--n", "3", "--tau", "1", "--ell", "2"],
    ["--scheme", "hamming", "--q", "2", "--ell", "2", "--tau", "2", "--theta", "2",
     "--rho", "1", "--n", "16"],
]


def _sidecar(args):
    parsed = make_parser().parse_args(["params", *args])
    return scheme_sidecar(build_scheme(parsed), parsed.scheme)


SIDECARS = [_sidecar(args) for args in SCHEME_ARGS]


def _edited(base):
    """`base` with some of its fields (or any known key) set to arbitrary JSON."""
    return st.dictionaries(st.sampled_from(tuple(base) + KEYS), JSON, max_size=3).map(
        lambda change: {**base, **change}
    )


def _document(bases):
    return JSON | st.sampled_from(bases).flatmap(_edited)


MATRIX = {"q": 2, "rows": 3, "cols": 10, "data": [1, 0, 1] * 10}
VECTORS = [
    {"q": side["q_out"], "rows": 1, "cols": side["n"], "data": [0] * side["n"], "erasures": []}
    for side in SIDECARS
]
SPECS = [
    {"kind": "l1_drift", "t": 1, "seed": 0},
    {"kind": "symbol_flip", "count": 1, "magnitude": 1, "seed": 0},
    {"kind": "short_column", "count": 1, "seed": 0},
    {"kind": "manual", "deltas": [[0, 1]], "erase": [1]},
]


def _run(argv_of, **documents):
    """Write each document to a file, run `main` on the paths, and return
    its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in documents.items():
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        paths["out"] = Path(tmp) / "out.json"
        return main([str(arg) for arg in argv_of(paths)])


@SETTINGS
@given(_document(VECTORS), _document(SIDECARS))
def test_decode(vector, sidecar):
    rc = _run(lambda f: ["decode", "--in", f["vector"], "--sidecar", f["sidecar"]],
              vector=vector, sidecar=sidecar)
    assert rc in (0, 1, 2)


@SETTINGS
@given(_document(VECTORS), _document(SPECS))
def test_inject(vector, spec):
    rc = _run(lambda f: ["inject", "--in", f["vector"], "--faults", f["spec"], "--out", f["out"]],
              vector=vector, spec=spec)
    assert rc in (0, 1, 2)


@SETTINGS
@given(_document([MATRIX]))
def test_encode_and_compute(matrix):
    rc = _run(lambda f: ["encode", *SCHEME_ARGS[0], "--in", f["matrix"], "--out", f["out"]],
              matrix=matrix)
    assert rc in (0, 1)
    rc = _run(lambda f: ["compute", "--in", f["matrix"], "--u", "1,0,1", "--out", f["out"]],
              matrix=matrix)
    assert rc in (0, 1)
