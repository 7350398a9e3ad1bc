"""The traced benchmark wraps functions and methods of the package by name
(``bench/tracing.py``).  A rename or a move that loses one of those names
would break the traced run, so this test installs the tracer, runs one
encode and one faulty read per scheme, and checks every hook, once with
instances on Python ints and once with instances above the read kernel's
cut."""

import importlib.util
from pathlib import Path

import pytest

import dpe_codec as api
from dpe_codec import cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

SCHEMES = {
    "sec": lambda: api.SingleErrorScheme(2, 15, 2),
    "sec-ded": lambda: api.SecDedScheme(3, 8, 2),
    "dec": lambda: api.DoubleErrorScheme(2, 31, 2),
    "dec-ted": lambda: api.TripleDetectScheme(3, 13, 2),
    "recursive": lambda: api.RecursiveScheme(2, 2, 1, 13),
    "hamming": lambda: api.HammingScheme(2, 2, 4, 1),
    "large-alphabet": lambda: api.LargeAlphabetScheme(8, 3, 1, 2),
}
KERNEL_SCHEMES = {
    "sec": lambda: api.SingleErrorScheme(2, 100, 2),
    "sec-ded": lambda: api.SecDedScheme(3, 100, 2),
    "dec": lambda: api.DoubleErrorScheme(2, 211, 2),
    "dec-ted": lambda: api.TripleDetectScheme(3, 211, 2),
    "recursive": lambda: api.RecursiveScheme(2, 2, 2, 211),
    "hamming": lambda: api.HammingScheme(2, 2, 100, 1),
    "large-alphabet": lambda: api.LargeAlphabetScheme(257, 100, 1, 2),
}

# spans that one faulty read per scheme must reach; decode_double_error,
# decode_exhaustive, gfp_solve, hamming.pack and hamming.rs_decode are
# wrapped, but production decoders no longer call them
REACHED = {
    "locators.build", "single.checksum", "single.locate_unit_error", "single.encode_row",
    "berlekamp.systematic_encode", "berlekamp.syndrome",
    "simulate.compute_clean", "simulate.inject", "core.check_alphabet",
    "core.qmatrix_validate", "double.syndromes", "hamming.rs_syndromes",
} | {f"{scheme}.decode" for scheme in SCHEMES}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scheme_table_matches(tracing):
    assert set(tracing.SCHEME_CLASSES) == set(SCHEMES)
    assert set(cli.SCHEME_NAMES) == set(tracing.SCHEME_CLASSES)
    for scheme, cls in tracing.SCHEME_CLASSES.items():
        assert type(SCHEMES[scheme]()).__name__ == cls
        assert cli.SCHEMES[scheme].cls.__name__ == cls


def _trace_faulty_reads(tracing, schemes, vector):
    """Trace one encode and one faulty read per scheme and check the hooks."""
    tracer = tracing.Tracer()
    undo = tracer.install()  # raises if a wrapped name is missing
    try:
        outcomes = {}
        for scheme, build in schemes.items():
            s = build()
            assert s.vector == vector, scheme
            rows = [[(i + 3 * j) % s.q for j in range(s.k)] for i in range(s.ell)]
            encoded = s.encode(api.QMatrix.from_lists(s.q, rows))
            clean = api.compute_clean([1] * s.ell, encoded)
            report = api.inject(clean, api.FaultModel.l1_drift(1, seed=3), s.q_out)
            outcomes[scheme] = (s.decode(report.read).prefix, tuple(clean[: s.k]))
    finally:
        tracer.uninstall(undo)
    for scheme, (prefix, clean) in outcomes.items():
        assert prefix == clean, scheme
    # every function is rebound in its own module, every method on its class
    rebound = {(owner.__name__, attr) for owner, attr, _ in undo}
    for _, module, attr in tracing.FUNCTIONS:
        assert (f"dpe_codec.{module}", attr) in rebound
    for _, cls_name, attr in tracing.METHODS:
        assert (cls_name, attr) in rebound
    assert ("dpe_codec.hamming", "gfp_solve") in rebound
    summary = tracer.summary()
    assert summary["nesting_errors"] == 0
    assert REACHED <= set(summary["per_name"]), REACHED - set(summary["per_name"])
    # uninstall restored every original
    for owner, attr, original in undo:
        assert getattr(owner, attr) is original


def test_every_hook_is_found_and_reached(tracing):
    _trace_faulty_reads(tracing, SCHEMES, vector=False)


def test_kernel_path_reaches_every_hook(tracing):
    _trace_faulty_reads(tracing, KERNEL_SCHEMES, vector=True)
