"""The int64 read kernel: the path choice, the int64 bound, the type check
of read entries on both paths, and agreement of every syndrome function
between a tuple of Python ints and the read's int64 array."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpe_codec as api
from dpe_codec import core
from dpe_codec.core import INT64_BOUND, KERNEL_MIN_LENGTH, CheckMatrix, ReadVector, kernel_fits
from dpe_codec.single import checksum

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

# one instance per decoder below the length constant (Python path) and one
# above it (int64 kernel)
SMALL = {
    "sec": lambda: api.SingleErrorScheme(2, 15, 2),
    "sec-ded": lambda: api.SecDedScheme(3, 8, 2),
    "dec": lambda: api.DoubleErrorScheme(2, 31, 2),
    "dec-ted": lambda: api.TripleDetectScheme(3, 13, 2),
    "recursive": lambda: api.RecursiveScheme(2, 2, 2, 31),
    "hamming": lambda: api.HammingScheme(2, 2, 4, 1),
    "large-alphabet": lambda: api.LargeAlphabetScheme(8, 3, 1, 2),
}
LARGE = {
    "sec": lambda: api.SingleErrorScheme(2, 100, 2),
    "sec-ded": lambda: api.SecDedScheme(3, 100, 2),
    "dec": lambda: api.DoubleErrorScheme(2, 211, 2),
    "dec-ted": lambda: api.TripleDetectScheme(3, 211, 2),
    "recursive": lambda: api.RecursiveScheme(2, 2, 2, 211),
    "hamming": lambda: api.HammingScheme(2, 2, 100, 1),
    "large-alphabet": lambda: api.LargeAlphabetScheme(257, 100, 1, 2),
}


class TestPathChoice:
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_small_instances_stay_on_python_ints(self, name):
        assert not SMALL[name]().vector

    @pytest.mark.parametrize("name", sorted(LARGE))
    def test_large_instances_take_the_kernel(self, name):
        assert LARGE[name]().vector

    def test_bound(self):
        n = KERNEL_MIN_LENGTH
        assert not kernel_fits(n - 1, 9, 1031)
        assert kernel_fits(n, 9, 1031)
        # n * (Q - 1) * (M - 1) must stay below 2^63
        m = (INT64_BOUND - 1) // (n * 8) + 1
        assert kernel_fits(n, 9, m)
        assert not kernel_fits(n, 9, m + 1)

    def test_past_the_bound_large_alphabet(self):
        # n * (Q - 1) * (p - 1) is about 1.5e22: Python ints at any n
        assert not api.LargeAlphabetScheme(2**21, 200, 2, 8).vector


class TestCheckMatrix:
    def test_exact_at_the_int64_bound(self):
        n = KERNEL_MIN_LENGTH
        top = (INT64_BOUND - 1) // (n * 8)  # the largest check entry allowed
        assert kernel_fits(n, 9, top + 1)
        rows = [[top] * n, [top - j for j in range(n)]]
        kernel = CheckMatrix(rows, (top + 1, top + 1))
        values = [8] * n
        expect = [sum(v * r for v, r in zip(values, row)) % (top + 1) for row in rows]
        assert kernel(np.array(values, np.int64)) == expect
        assert all(type(s) is int for s in kernel(np.array(values, np.int64)))

    def test_rows_reduced_by_their_moduli(self):
        kernel = CheckMatrix([[-1, 5, 7], [3, 3, 3]], (5, 2))
        assert kernel.matrix.T.tolist() == [[4, 0, 2], [1, 1, 1]]
        assert kernel(np.array([1, 2, 3], np.int64)) == [(4 + 6) % 5, 0]


class TestEntryTypes:
    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize(
        "bad,message",
        [(1.5, "entry 2 = 1.5 is not an integer"), ("3", "entry 2 = '3' is not an integer"),
         (None, "entry 2 = None is not an integer"),
         (2**70, f"entry 2 = {2**70} is outside the read alphabet [0, 9)")],
    )
    def test_check_alphabet(self, vector, bad, message):
        with pytest.raises(ValueError) as info:
            ReadVector.exact([0, 1, bad, 1]).check_alphabet(9, vector)
        assert str(info.value) == message

    def test_erased_placeholder_is_not_read(self):
        ReadVector((0, None, 1), (False, True, False)).check_alphabet(4)

    @pytest.mark.parametrize("table", [SMALL, LARGE], ids=["python", "kernel"])
    @pytest.mark.parametrize("name", sorted(SMALL))
    @pytest.mark.parametrize("bad", [1.5, "3", None, 2**70])
    def test_every_decoder(self, table, name, bad):
        scheme = table[name]()
        entries = [0] * getattr(scheme, "total_length", scheme.n)
        entries[1] = bad
        with pytest.raises(ValueError) as info:
            scheme.decode(ReadVector.exact(entries))
        if bad == 2**70:
            assert str(info.value) == (
                f"entry 1 = {bad} is outside the read alphabet [0, {scheme.q_out})")
        else:
            assert str(info.value) == f"entry 1 = {bad!r} is not an integer"


# production sizes: the kernel instances of the read-stream benchmark
SEC = api.SingleErrorScheme(2, 1023, 8)
SEC_DED = api.SecDedScheme(3, 1023, 8)
SEC_DED_PARITY = api.SecDedScheme(2, 1023, 8)
LARGE_ALPHABET = api.LargeAlphabetScheme(1031, 250, 3, 8)
RECURSIVE = api.RecursiveScheme(2, 8, 2, 1031)
HAMMING = api.HammingScheme(2, 8, 256, 2)


def _entries(seed, n, bound):
    """n entries in [0, bound), about a third of them at each end of the range."""
    rng = random.Random(seed)
    return tuple(rng.choice((0, bound - 1, rng.randrange(bound))) for _ in range(n))


def _array(values):
    return np.array(values, np.int64)


def _python(build, monkeypatch):
    """The same scheme built with the kernel switched off."""
    monkeypatch.setattr(core, "KERNEL_MIN_LENGTH", 10**9)
    scheme = build()
    monkeypatch.undo()
    assert not scheme.vector
    return scheme


SEEDS = st.integers(0, 2**32)


class TestSyndromesAgree:
    @SETTINGS
    @given(SEEDS)
    def test_checksum(self, seed):
        for scheme in (SEC, SEC_DED, SEC_DED_PARITY):
            assert scheme.vector
            y = _entries(seed, scheme.n, scheme.q_out)
            assert checksum(_array(y), scheme.loc, scheme.kernel) == checksum(y, scheme.loc)

    @pytest.mark.parametrize(
        "build",
        [lambda: api.DoubleErrorScheme(2, 1031, 8), lambda: api.TripleDetectScheme(4, 1031, 8),
         lambda: api.TripleDetectScheme(2, 1031, 8)],
        ids=["dec", "dec-ted", "dec-ted-parity"],
    )
    def test_double_syndromes(self, build, monkeypatch):
        vector, python = build(), _python(build, monkeypatch)
        assert vector.vector

        @SETTINGS
        @given(SEEDS)
        def agree(seed):
            y = _entries(seed, vector.n, vector.q_out)
            assert vector.syndromes(ReadVector.exact(y)) == python.syndromes(ReadVector.exact(y))

        agree()

    @SETTINGS
    @given(SEEDS)
    def test_berlekamp_syndrome(self, seed):
        for code, bound in ((LARGE_ALPHABET.code, LARGE_ALPHABET.q_out),
                            (RECURSIVE.checker, RECURSIVE.q_out)):
            y = _entries(seed, code.n, bound)
            syn = code.syndrome(_array(y))
            assert syn == code.syndrome(y)
            assert all(type(s) is int for s in syn)

    @SETTINGS
    @given(SEEDS)
    def test_hamming_pack(self, seed):
        y = _entries(seed, HAMMING.n, HAMMING.q_out)
        symbols, erased = HAMMING.pack(_array(y))
        assert isinstance(symbols, np.ndarray)
        assert (symbols.tolist(), erased) == HAMMING.pack(y)

    @SETTINGS
    @given(SEEDS, st.lists(st.integers(0, HAMMING.ntilde - 1), max_size=HAMMING.inner.d - 1))
    def test_reed_solomon(self, seed, erased):
        rs = HAMMING.inner
        symbols = _entries(seed, rs.length, rs.field.p)
        assert rs.syndromes(_array(symbols)) == rs.syndromes(list(symbols))
        assert (rs.decode_errors_erasures(_array(symbols), erased, HAMMING.tau)
                == rs.decode_errors_erasures(list(symbols), erased, HAMMING.tau))
