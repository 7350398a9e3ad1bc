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

    def test_hamming_decides_on_its_symbols(self, monkeypatch):
        # the read alphabet Q is about 2^65, but the packed symbols lie in
        # [0, 103): int64 reads below 2^63, Python ints above, same prefixes
        build = lambda: api.HammingScheme(2**32, 2, 100, 1, theta=1)
        vector, python = build(), _python(build, monkeypatch)
        assert vector.vector and vector.q_out > 2**64
        rng = random.Random(5)
        for top in (2**30, 2**32):
            rows = [[rng.randrange(top) for _ in range(vector.k)] for _ in range(2)]
            encoded = vector.encode(api.QMatrix.from_lists(vector.q, rows))
            clean = api.compute_clean([rng.randrange(top) for _ in range(2)], encoded)
            for j in (0, 50, vector.n - 1):
                y = list(clean)
                y[j] += 1
                for scheme in (vector, python):
                    assert scheme.decode(ReadVector.exact(y)).prefix == tuple(clean[: vector.k])
            y = list(clean)
            y[7] = -1
            for scheme in (vector, python):
                with pytest.raises(ValueError, match="entry 7 = -1 is outside the read alphabet"):
                    scheme.decode(ReadVector.exact(y))


class TestCheckMatrix:
    def test_exact_at_the_int64_bound(self):
        n = KERNEL_MIN_LENGTH
        top = (INT64_BOUND - 1) // (n * 8)  # the largest check entry allowed
        assert kernel_fits(n, 9, top + 1)
        rows = [[top] * n, [top - j for j in range(n)]]
        check = CheckMatrix(rows, (top + 1, top + 1), 9)
        assert check.vector
        values = [8] * n
        expect = [sum(v * r for v, r in zip(values, row)) % (top + 1) for row in rows]
        assert check(np.array(values, np.int64)) == expect == check(values)
        assert all(type(s) is int for s in check(np.array(values, np.int64)))

    def test_rows_reduced_by_their_moduli(self, monkeypatch):
        monkeypatch.setattr(core, "KERNEL_MIN_LENGTH", 3)
        check = CheckMatrix([[-1, 5, 7], [3, 3, 3]], (5, 2), 9)
        assert check.vector
        assert check.rows == ((4, 0, 2), (1, 1, 1))
        expect = [(4 + 6) % 5, 0]
        assert check(np.array([1, 2, 3], np.int64)) == expect == check((1, 2, 3))

    def test_decides_from_its_own_rows(self):
        assert not CheckMatrix([[1] * (KERNEL_MIN_LENGTH - 1)], (7,), 9).vector
        assert CheckMatrix([[1] * KERNEL_MIN_LENGTH], (7,), 9).vector
        # the largest modulus and the read bound enter the int64 bound
        assert not CheckMatrix([[1] * KERNEL_MIN_LENGTH] * 2, (2, 2**60), 9).vector


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


def _odd_powers(y, beta, tau, p):
    """The odd-power checksums written out entry by entry."""
    return tuple(sum(v * pow(b, 2 * i + 1, p) for v, b in zip(y, beta)) % p for i in range(tau))


def _double_reference(scheme, v):
    """The double schemes' syndromes written out entry by entry: the linear
    and cubed checksums of the n1-prefix, the cubed one less the digit
    block, then the parities."""
    triple = isinstance(scheme, api.TripleDetectScheme)
    if triple and scheme.variant == "parity":
        return _double_reference(scheme.base, v[: scheme.base.n]) + (sum(v) % 2,)
    alpha, n1, m = scheme.loc.alpha, scheme.n1, scheme.m
    if triple:  # odd locators modulo 2p
        modulus, weights = 2 * scheme.p, scheme.loc.suffix_weights()
    else:
        modulus, weights = scheme.p, [scheme.q**j for j in range(m)]
    s1 = sum(v[j] * alpha[j] for j in range(n1)) % modulus
    s2 = (
        sum(v[j] * alpha[j] ** 3 for j in range(n1))
        - sum(v[n1 + j] * weights[j] for j in range(m))
    ) % modulus
    if triple:
        return s1, s2
    return s1, s2, sum(v[n1 + j] for j in range(m + 1)) % 2


class TestSyndromesAgree:
    @SETTINGS
    @given(SEEDS)
    def test_checksum(self, seed):
        for scheme in (SEC, SEC_DED, SEC_DED_PARITY):
            assert scheme.vector
            y = _entries(seed, scheme.n, scheme.q_out)
            loc = scheme.loc
            expect = [sum(v * a for v, a in zip(y, loc.alpha)) % loc.modulus]
            if scheme is SEC_DED_PARITY:
                expect.append(sum(y) % 2)
            assert checksum(_array(y), scheme.check) == checksum(y, scheme.check) == expect

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
            syn = vector.syndromes(ReadVector.exact(y))
            assert syn == python.syndromes(ReadVector.exact(y)) == _double_reference(vector, y)

        agree()

    @SETTINGS
    @given(SEEDS)
    def test_berlekamp_syndrome(self, seed):
        for code, bound in ((LARGE_ALPHABET.code, LARGE_ALPHABET.q_out),
                            (RECURSIVE.checker, RECURSIVE.q_out)):
            y = _entries(seed, code.n, bound)
            syn = code.syndrome(_array(y))
            assert syn == code.syndrome(y) == _odd_powers(y, code.beta, code.tau, code.field.p)
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
        p = rs.field.p
        symbols = _entries(seed, rs.length, p)
        expect = [sum(v * pow(g, i + 1, p) for v, g in zip(symbols, rs.gamma)) % p
                  for i in range(rs.d - 1)]
        assert rs.syndromes(_array(symbols)) == rs.syndromes(list(symbols)) == expect
        assert (rs.decode_errors_erasures(_array(symbols), erased, HAMMING.tau)
                == rs.decode_errors_erasures(list(symbols), erased, HAMMING.tau))
