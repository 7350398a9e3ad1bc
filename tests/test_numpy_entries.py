"""Reads whose entries are numpy integers or bools decode as their
plain-int twins.

`check_alphabet` accepts numpy integers, and on the Python-int path the
check matrix multiplies them as they are; its syndromes must still be
Python ints, or the locate step's `pow` refuses them.  The prefix holds
the read's own entry objects, so it compares equal to the twin's prefix.
A bool is read as 0 or 1, as `operator.index` reads it.
"""

import numpy as np
import pytest

import dpe_codec as api
from dpe_codec.core import KERNEL_MIN_LENGTH, CheckMatrix, ReadVector


# name -> (scheme, drifted positions, erased positions)
CASES = {
    "dec p=31": (lambda: api.DoubleErrorScheme(2, 31, 8), lambda s: [2], ()),
    "dec-ted p=61": (lambda: api.TripleDetectScheme(3, 61, 8), lambda s: [1, 5], ()),
    "large-alphabet 257/24/3": (
        lambda: api.LargeAlphabetScheme(257, 24, 3, 8), lambda s: [0, 3, 9], ()),
    # Q > 2^61: numpy products would wrap in int64 and miscorrect
    "large-alphabet past int64": (
        lambda: api.LargeAlphabetScheme(2**31, 6, 1, 1), lambda s: [1], ()),
    # one head error, and copy 0 of the tail disturbed: the median puts
    # numpy values into CheckMatrix.less
    "recursive (2, 2, 1, 13)": (
        lambda: api.RecursiveScheme(2, 2, 1, 13), lambda s: [1, s.n + s.ntilde], ()),
    "hamming with erasures": (
        lambda: api.HammingScheme(2, 2, 4, 1, rho_max=1), lambda s: [2], (0,)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_numpy_read_decodes_as_its_plain_twin(case):
    build, drifted, erased = CASES[case]
    scheme = build()
    assert not scheme.vector  # the Python-int path
    rng = np.random.default_rng(7)
    rows = rng.integers(0, scheme.q, (scheme.ell, scheme.k)).tolist()
    u = rng.integers(0, scheme.q, scheme.ell).tolist()
    clean = api.compute_clean(u, scheme.encode(api.QMatrix.from_lists(scheme.q, rows)))
    y = list(clean)
    for j in drifted(scheme):
        y[j] += 1 if y[j] + 1 < scheme.q_out else -1
    plain = ReadVector.with_erasures(y, erased)
    numpy_read = ReadVector.with_erasures([np.int64(v) for v in y], erased)
    syn = scheme.read_syndromes(numpy_read)
    assert any(syn) and all(type(s) is int for s in syn)
    assert syn == scheme.read_syndromes(plain)
    expect = scheme.decode(plain)
    assert expect.prefix == tuple(clean[: scheme.k])
    # the prefix holds the read's numpy entries, equal to the plain ones
    assert scheme.decode(numpy_read) == expect


# Q = 2 on both sides of the kernel cut: a read of bools is a read of 0s and 1s
@pytest.mark.parametrize("n", [15, 127], ids=["python", "kernel"])
def test_bool_read_decodes_as_its_int_twin(n):
    scheme = api.SingleErrorScheme(2, n, 1)
    assert scheme.q_out == 2 and scheme.vector == (n >= KERNEL_MIN_LENGTH)
    rng = np.random.default_rng(n)
    row = rng.integers(0, 2, (1, scheme.k)).tolist()
    clean = api.compute_clean([1], scheme.encode(api.QMatrix.from_lists(2, row)))
    drifted = list(clean)
    drifted[3] = 1 - drifted[3]
    for y in (clean, drifted):
        plain = ReadVector.exact(y)
        bools = ReadVector.exact([bool(v) for v in y])
        assert scheme.read_syndromes(bools) == scheme.read_syndromes(plain)
        outcome = scheme.decode(bools)
        assert outcome == scheme.decode(plain)
        assert outcome.prefix == tuple(clean[: scheme.k])
    # a clean read's prefix is the read's own entries
    assert all(type(v) is bool for v in scheme.decode(ReadVector.exact(map(bool, clean))).prefix)


def test_check_matrix_returns_python_ints():
    check = CheckMatrix([(1, 2, 3), (4, 5, 6)], (7, 11), 9)
    assert not check.vector
    syn = check([np.int64(1), np.int64(8), np.int64(2)])
    assert syn == [(1 + 16 + 6) % 7, (4 + 40 + 12) % 11]
    assert all(type(s) is int for s in syn)
    less = check.less(syn, [(1, np.int64(3)), (2, np.int8(0))])
    assert less == check([1, 5, 2]) and all(type(s) is int for s in less)
