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

# one instance per decoder below the kernel cut (product size rows * n;
# Python path) and one above it (numpy kernel)
SMALL = {
    "sec": lambda: api.SingleErrorScheme(2, 15, 2),
    "sec-ded": lambda: api.SecDedScheme(3, 8, 2),
    "dec": lambda: api.DoubleErrorScheme(2, 31, 2),
    "dec-ted": lambda: api.TripleDetectScheme(3, 13, 2),
    "recursive": lambda: api.RecursiveScheme(2, 2, 1, 13),
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

    def test_cut_by_product_size(self):
        # the cut counts rows * n multiplications; the int64 bound stays per row
        rows = 6
        n = -(-KERNEL_MIN_LENGTH // rows)  # the shortest row that reaches the cut
        assert kernel_fits(n, 9, 1031, rows) and not kernel_fits(n - 1, 9, 1031, rows)
        m = (INT64_BOUND - 1) // (n * 8) + 1
        assert kernel_fits(n, 9, m, rows) and not kernel_fits(n, 9, m + 1, rows)

    def test_multi_error_hamming_and_large_alphabet(self):
        # multi-error hamming: 6 rows of 68 entries take the kernel; the
        # large-alphabet instance, 3 rows of 24, stays on Python ints
        hamming = api.HammingScheme(2, 8, 32, 3)
        assert hamming.n < KERNEL_MIN_LENGTH <= len(hamming.check.rows) * hamming.n
        assert hamming.vector
        large = api.LargeAlphabetScheme(257, 24, 3, 8)
        assert len(large.code.check.rows) * large.n < KERNEL_MIN_LENGTH
        assert not large.vector

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
        # and the row count the product's size
        half = -(-KERNEL_MIN_LENGTH // 2)
        assert CheckMatrix([[1] * half] * 2, (7, 7), 9).vector
        assert not CheckMatrix([[1] * (half - 1)] * 2, (7, 7), 9).vector

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_an_array_on_both_sides_of_the_cut(self, dtype):
        # below the cut an array takes the Python path as Python ints (a
        # uint8 entry times a check entry would wrap in uint8)
        for n in (KERNEL_MIN_LENGTH - 1, KERNEL_MIN_LENGTH):
            rows = [[(7 * j + 1) % 251 for j in range(n)]]
            check = CheckMatrix(rows, (251,), 256)
            assert check.vector == (n == KERNEL_MIN_LENGTH)
            values = _entries(n, n, 256)
            got = check(np.array(values, dtype))
            assert got == check(values)
            assert all(type(s) is int for s in got)

    @pytest.mark.parametrize("kernel", [False, True], ids=["python", "kernel"])
    def test_codes_take_an_array_on_both_sides_of_the_cut(self, kernel):
        # the docstrings of syndromes, syndrome and decode_errors_erasures
        # accept arrays; below the cut these once raised AttributeError
        p, n = (211, 100) if kernel else (13, 6)
        rs = api.ReedSolomonCode(api.PrimeField(p), n, n // 3)
        lee = api.BerlekampCode(api.PrimeField(p), tuple(range(1, n + 1)), 2)
        assert rs.check.vector == lee.check.vector == kernel
        y = list(_entries(p, n, p))
        assert rs.syndromes(_array(y)) == rs.syndromes(y)
        assert lee.syndrome(_array(y)) == lee.syndrome(y)
        for erased in ([], [0]):
            assert (rs.decode_errors_erasures(_array(y), erased, 2)
                    == rs.decode_errors_erasures(y, erased, 2))

    @pytest.mark.parametrize("bound", [2, 9, 256])
    def test_multiplies_a_byte_read(self, bound):
        n = KERNEL_MIN_LENGTH
        rows = [[(7 * j + r) % 1031 for j in range(n)] for r in range(3)]
        check = CheckMatrix(rows, (1031, 1031, 2), bound)
        values = _entries(bound, n, bound)
        read = ReadVector.exact(values).admit(n, bound, vector=check.vector)
        assert read.dtype == np.uint8
        assert check(read) == check(_array(values)) == check(values)


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
        ReadVector((0, None, 1), (1,)).check_alphabet(4)

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


class TestBytePacking:
    """A read whose alphabet fits a byte is packed one byte per entry; the
    packing's refusals fall to the per-entry loop, so every message is the
    one the int64 packing gave."""

    @pytest.mark.parametrize("bound", [2, 9, 73, 256])
    def test_byte_read_for_a_small_alphabet(self, bound):
        entries = _entries(bound, 100, bound)
        array = ReadVector.exact(entries).admit(100, bound, vector=True)
        assert array.dtype == np.uint8 and not array.flags.writeable
        assert array.tolist() == list(entries)

    def test_int64_read_past_a_byte(self):
        entries = _entries(257, 100, 257)
        array = ReadVector.exact(entries).admit(100, 257, vector=True)
        assert array.dtype == np.int64 and not array.flags.writeable
        assert array.tolist() == list(entries)

    def test_python_path_returns_the_entries(self):
        for bound in (9, 257):
            read = ReadVector.exact(_entries(bound, 100, bound))
            assert read.admit(100, bound) is read.entries

    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("byte_bound", [core.BYTE_BOUND, 0], ids=["bytes", "int64"])
    @pytest.mark.parametrize(
        "bad,message",
        [(1.5, "entry 2 = 1.5 is not an integer"), ("a", "entry 2 = 'a' is not an integer"),
         (None, "entry 2 = None is not an integer"),
         (-1, "entry 2 = -1 is outside the read alphabet [0, 9)"),
         (256, "entry 2 = 256 is outside the read alphabet [0, 9)"),
         (9, "entry 2 = 9 is outside the read alphabet [0, 9)"),
         (2**70, f"entry 2 = {2**70} is outside the read alphabet [0, 9)")],
    )
    def test_same_refusals_on_both_packings(self, monkeypatch, vector, byte_bound, bad, message):
        # byte_bound 0 sends a bound of 9 through the int64 packing
        monkeypatch.setattr(core, "BYTE_BOUND", byte_bound)
        with pytest.raises(ValueError) as info:
            ReadVector.exact([0, 1, bad, 1]).check_alphabet(9, vector)
        assert str(info.value) == message

    @pytest.mark.parametrize("vector", [False, True])
    def test_bool_and_numpy_ints_accepted(self, monkeypatch, vector):
        entries = (True, np.int64(3), np.uint8(8), 0)
        read = ReadVector(entries)
        byte = read.check_alphabet(9, vector)
        monkeypatch.setattr(core, "BYTE_BOUND", 0)
        wide = ReadVector(entries).check_alphabet(9, vector)
        if vector:
            assert byte.tolist() == wide.tolist() == [1, 3, 8, 0]
        else:
            assert byte is read.entries and list(wide) == list(entries)

    def test_an_erasure_read_packs_with_0_at_its_erased_entries(self):
        read = ReadVector((0, None, 1, -1), (1, 3))
        packed = read.check_alphabet(9, True)
        assert packed.dtype == np.uint8 and packed.tolist() == [0, 0, 1, 0]


# every scheme whose read alphabet fits a byte, above the kernel cut; the
# last Hamming instance has Q = 253 > p = 103, so its byte read is reduced
# mod p before the product
BYTE_SCHEMES = {
    "sec": (lambda: api.SingleErrorScheme(2, 100, 8), 1),
    "sec-ded": (lambda: api.SecDedScheme(3, 100, 8), 1),
    "sec-ded-parity": (lambda: api.SecDedScheme(2, 100, 8), 1),
    "dec": (lambda: api.DoubleErrorScheme(2, 61, 8), 2),
    "dec-ted": (lambda: api.TripleDetectScheme(4, 131, 8), 2),
    "recursive": (lambda: api.RecursiveScheme(2, 8, 2, 31), 2),
    "hamming": (lambda: api.HammingScheme(2, 8, 32, 3), 3),
    "hamming-q-above-p": (lambda: api.HammingScheme(4, 28, 100, 1, theta=1), 1),
    "shortened": (lambda: api.ShortenedScheme(api.SingleErrorScheme(2, 120, 8), 9), 1),
}


@pytest.mark.parametrize("name", sorted(BYTE_SCHEMES))
def test_byte_int64_and_python_paths_agree(name, monkeypatch):
    build, tau = BYTE_SCHEMES[name]
    scheme = build()
    with monkeypatch.context() as off:
        off.setattr(core, "KERNEL_MIN_LENGTH", 10**9)
        python = build()
    kernel = lambda s: getattr(s, "base", s).vector  # a shortened scheme decodes by its base
    assert kernel(scheme) and not kernel(python) and scheme.q_out <= core.BYTE_BOUND
    rng = random.Random(name)
    rows = [[rng.randrange(scheme.q) for _ in range(scheme.k)] for _ in range(scheme.ell)]
    encoded = scheme.encode(api.QMatrix.from_lists(scheme.q, rows))
    clean = [api.compute_clean([rng.randrange(scheme.q) for _ in range(scheme.ell)], encoded)
             for _ in range(3)]
    n = len(clean[0])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2), st.integers(0, tau + 1), st.data())
    def agree(which, t, data):
        y = list(clean[which])
        for j in data.draw(st.lists(st.integers(0, n - 1), min_size=t, max_size=t, unique=True)):
            y[j] += 1 if y[j] < scheme.q_out - 1 else -1
        read = ReadVector.exact(y)
        byte = scheme.decode(read)
        with monkeypatch.context() as wide:
            wide.setattr(core, "BYTE_BOUND", 0)
            assert scheme.decode(ReadVector.exact(y)) == byte
        assert python.decode(ReadVector.exact(y)) == byte
        if t <= tau:
            assert byte.prefix == tuple(clean[which][: scheme.k])

    agree()


# production sizes: the kernel instances of the read-stream benchmark
SEC = api.SingleErrorScheme(2, 1023, 8)
SEC_DED = api.SecDedScheme(3, 1023, 8)
SEC_DED_PARITY = api.SecDedScheme(2, 1023, 8)
LARGE_ALPHABET = api.LargeAlphabetScheme(1031, 250, 3, 8)
RECURSIVE = api.RecursiveScheme(2, 8, 2, 1031)
HAMMING = api.HammingScheme(2, 8, 256, 2)
HAMMING_WIDE = api.HammingScheme(2**32, 2, 100, 1, theta=1)


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
        dec = api.DoubleErrorScheme(scheme.q, scheme.p, scheme.ell, scheme.loc.allow_suffix_ambiguity)
        return _double_reference(dec, v[: dec.n]) + (sum(v) % 2,)
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

    @pytest.mark.parametrize("table", [SMALL, LARGE], ids=["python", "kernel"])
    def test_hamming_fold(self, table):
        # the folded check matrix on a read equals the inner checks on its
        # packed symbols; an int64 read is reduced mod p first
        scheme = table["hamming"]()
        assert scheme.check.n == scheme.n and len(scheme.check.rows) == scheme.d - 1

        @SETTINGS
        @given(SEEDS)
        def fold(seed):
            y = _entries(seed, scheme.n, scheme.q_out)
            expect = scheme.inner.syndromes(scheme.pack(y)[0])
            assert scheme.check(y) == expect
            if scheme.vector:
                assert scheme.check(_array(y) % scheme.p) == expect

        fold()

    @SETTINGS
    @given(SEEDS)
    def test_hamming_fold_past_int64(self, seed):
        # Q is about 2^65: Python ints on the whole alphabet, the int64
        # product on reads below 2^63 reduced mod p
        scheme = HAMMING_WIDE
        assert scheme.vector and scheme.q_out > 2**64
        for bound in (scheme.q_out, INT64_BOUND):
            y = _entries(seed, scheme.n, bound)
            expect = scheme.inner.syndromes(scheme.pack(y)[0])
            assert scheme.check(y) == expect
            if bound == INT64_BOUND:
                assert scheme.check(_array(y) % scheme.p) == expect

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


@pytest.mark.parametrize("k", [4, 100], ids=["python", "kernel"])
def test_hamming_decodes_without_the_packing_map(k, monkeypatch):
    # every Hamming read is one product with the folded check matrix; the
    # packing map and the packed-symbol decoder stay only as references
    scheme = api.HammingScheme(2, 2, k, 1, rho_max=1)
    assert scheme.vector == (k == 100)

    def refuse(*args, **kwargs):
        raise AssertionError("the decoder packed the read")

    monkeypatch.setattr(api.HammingScheme, "pack", refuse)
    monkeypatch.setattr(api.ReedSolomonCode, "decode_errors_erasures", refuse)
    rng = random.Random(k)
    rows = [[rng.randrange(2) for _ in range(k)] for _ in range(2)]
    clean = api.compute_clean([1, 1], scheme.encode(api.QMatrix.from_lists(2, rows)))
    prefix = tuple(clean[:k])
    dirty = list(clean)
    dirty[k // 2] = (dirty[k // 2] + 1) % scheme.q_out
    for y in (ReadVector.exact(clean), ReadVector.exact(dirty),
              ReadVector.with_erasures(clean, [1]), ReadVector.with_erasures(dirty, [scheme.n - 1])):
        assert scheme.decode(y).prefix == prefix
