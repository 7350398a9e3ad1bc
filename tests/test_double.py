import random

import numpy as np
import pytest

from dpe_codec.core import QMatrix, ReadVector, Scheme
from dpe_codec.double import DoubleErrorScheme, ShortenedScheme, TripleDetectScheme
from dpe_codec.oracles import iter_l1_errors

A_PRIME_3x10 = QMatrix.from_lists(
    2,
    [
        [1, 0, 1, 1, 0, 1, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 1, 1, 0, 0, 1],
        [0, 1, 0, 0, 0, 1, 0, 1, 1, 1],
    ],
)

ENCODED_3x21 = [
    [1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0],
    [0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 0],
]

# u = (1,1,1) times the encoded matrix; the last six entries follow from the
# matrix columns and are confirmed by the syndrome (29, 8, 0) below.
C21 = (1, 1, 1, 2, 0, 3, 1, 1, 2, 2, 1, 1, 2, 1, 2, 1, 1, 2, 2, 3, 1)
Y21 = (1, 1, 1, 2, 0, 2, 1, 1, 2, 2, 1, 1, 2, 2, 2, 1, 1, 2, 2, 3, 1)

# q=4, p=101 instance: information rows and the full encoded rows
Q4_A_PRIME = [
    [1, 2, 3, 0, 1, 2] + [0] * 40,
    [0, 3, 0, 1, 2, 3] + [0] * 40,
    [2, 1, 1, 3, 2, 0] + [0] * 40,
]
Q4_SUFFIXES = [
    [2, 1, 0, 2, 0, 1, 3, 2],
    [3, 3, 2, 1, 1, 2, 2, 3],
    [2, 3, 0, 2, 2, 0, 0, 2],
]
Q4_CODEWORD = tuple(
    [4, 14, 7, 6, 10, 13] + [0] * 40 + [15, 14, 6, 9] + [5, 8, 12, 15]
)


@pytest.fixture
def d2_scheme():
    return DoubleErrorScheme(q=2, p=31, ell=3)


def _product(u, matrix):
    return [sum(u[i] * matrix.rows[i][j] for i in range(len(u))) for j in range(matrix.ncols)]


class TestDoubleEncode:
    def test_golden_matrix(self, d2_scheme):
        assert d2_scheme.n == 21 and d2_scheme.k == 10
        encoded = d2_scheme.encode(A_PRIME_3x10)
        assert [list(r) for r in encoded.rows] == ENCODED_3x21

    def test_zero(self, d2_scheme):
        zero = QMatrix.from_lists(2, [[0] * 10] * 3)
        assert all(v == 0 for row in d2_scheme.encode(zero).rows for v in row)

    def test_row_congruences(self, d2_scheme):
        rng = random.Random(1)
        alpha = d2_scheme.loc.alpha
        for _ in range(20):
            a = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(10)] for _ in range(3)])
            for row in d2_scheme.encode(a).rows:
                linear = sum(row[j] * alpha[j] for j in range(15)) % 31
                cubes = sum(row[j] * alpha[j] ** 3 for j in range(15)) % 31
                encoded_value = sum(row[15 + j] * 2**j for j in range(5)) % 31
                assert linear == 0
                assert cubes == encoded_value
                assert sum(row[15:21]) % 2 == 0


class TestDoubleDecode:
    def test_worked_example(self, d2_scheme):
        encoded = d2_scheme.encode(A_PRIME_3x10)
        c = _product([1, 1, 1], encoded)
        assert tuple(c) == C21
        rv = ReadVector.exact(Y21)
        assert d2_scheme.syndromes(rv) == (29, 8, 0)
        assert d2_scheme.decode(rv).prefix == C21[:10]

    def test_clean(self, d2_scheme):
        assert d2_scheme.decode(ReadVector.exact(C21)).prefix == C21[:10]

    def test_exhaustive_weight_two(self, d2_scheme):
        rng = random.Random(9)
        for _ in range(4):
            a = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(10)] for _ in range(3)])
            u = [rng.randrange(2) for _ in range(3)]
            c = _product(u, d2_scheme.encode(a))
            prefix = tuple(c[:10])
            for e in iter_l1_errors(21, 2):
                y = [v + d for v, d in zip(c, e)]
                if not all(0 <= v < d2_scheme.q_out for v in y):
                    continue
                outcome = d2_scheme.decode(ReadVector.exact(y))
                assert outcome.prefix == prefix, e

    def test_erasures_rejected(self, d2_scheme):
        with pytest.raises(ValueError):
            d2_scheme.decode(ReadVector.with_erasures(C21, [0]))

    def test_small_prime_rejected(self):
        with pytest.raises(ValueError, match="smallest workable prime"):
            DoubleErrorScheme(q=2, p=7, ell=2)


PRIMES_BELOW_400 = [p for p in range(5, 400) if all(p % d for d in range(2, p))]
DOUBLE_BUILDERS = {
    "dec": lambda q, p, allow: DoubleErrorScheme(q, p, 1, allow_suffix_ambiguity=allow),
    "dec-ted-parity": lambda q, p, allow: TripleDetectScheme(q, p, 1, "parity", allow),
    "dec-ted-mod2p": lambda q, p, allow: TripleDetectScheme(q, p, 1, None, allow),
}


@pytest.mark.parametrize("name", sorted(DOUBLE_BUILDERS))
def test_every_suggested_prime_builds(name):
    """Every prime below 400 that the prime check refuses names a prime
    that builds, or is refused only for a digit-weight collision (and
    builds with the opt-in); no prime it passes is refused for want of
    information columns."""
    build = DOUBLE_BUILDERS[name]
    suggested = set()
    for q in range(3 if name == "dec-ted-mod2p" else 2, 17):
        for p in PRIMES_BELOW_400:
            try:
                build(q, p, False)
            except ValueError as refusal:
                message = str(refusal)
                if "smallest workable prime is " in message:
                    suggested.add((q, int(message.rsplit(" ", 1)[1])))
                else:  # a digit-weight collision, never a length too short
                    assert "allow_suffix_ambiguity=True" in message, (q, p, message)
    assert suggested
    for q, p in sorted(suggested):
        try:
            build(q, p, False)
        except ValueError as refusal:
            assert "allow_suffix_ambiguity=True" in str(refusal), (q, p, str(refusal))
            build(q, p, True)


class TestTripleDetectModulus2p:
    def test_even_q_golden_matrix(self):
        scheme = TripleDetectScheme(q=4, p=101, ell=3)
        assert (scheme.n, scheme.k, scheme.m) == (54, 46, 4)
        encoded = scheme.encode(QMatrix.from_lists(4, Q4_A_PRIME))
        for row, aprime, suffix in zip(encoded.rows, Q4_A_PRIME, Q4_SUFFIXES):
            assert list(row[:46]) == aprime
            assert list(row[46:]) == suffix

    def test_even_q_codeword(self):
        scheme = TripleDetectScheme(q=4, p=101, ell=3)
        encoded = scheme.encode(QMatrix.from_lists(4, Q4_A_PRIME))
        c = _product([2, 3, 1], encoded)
        assert tuple(c) == Q4_CODEWORD
        assert scheme.decode(ReadVector.exact(c)).prefix == Q4_CODEWORD[:46]

    @pytest.mark.parametrize("q,p,ell", [(3, 13, 2), (4, 13, 2)])
    def test_sweeps(self, q, p, ell):
        ambiguous = q == 4  # weight 13 = 2*6+1 is its own partner mod 26
        scheme = TripleDetectScheme(q=q, p=p, ell=ell, allow_suffix_ambiguity=ambiguous)
        rng = random.Random(q + p)
        a = QMatrix.from_lists(
            q, [[rng.randrange(q) for _ in range(scheme.k)] for _ in range(ell)]
        )
        u = [rng.randrange(q) for _ in range(ell)]
        c = _product(u, scheme.encode(a))
        prefix = tuple(c[: scheme.k])
        for e in iter_l1_errors(scheme.n, 3, include_zero=True):
            y = [v + d for v, d in zip(c, e)]
            if not all(0 <= v < scheme.q_out for v in y):
                continue
            outcome = scheme.decode(ReadVector.exact(y))
            weight = sum(abs(d) for d in e)
            if weight <= 2:
                assert outcome.prefix == prefix, e
            else:
                assert outcome.failed or outcome.prefix == prefix, e


class TestTripleDetectParity:
    def test_geometry(self):
        scheme = TripleDetectScheme(q=2, p=11, ell=2)
        assert scheme.variant == "parity"
        assert scheme.n == DoubleErrorScheme(q=2, p=11, ell=2).n + 1

    def test_is_the_dec_layout_plus_a_total_parity(self):
        scheme = TripleDetectScheme(q=2, p=11, ell=2)
        dec = DoubleErrorScheme(q=2, p=11, ell=2)
        assert not any(isinstance(v, Scheme) for v in vars(scheme).values())
        # the dec rows padded by one zero column, plus an all-ones row
        rows = np.pad(dec.check.array, ((0, 0), (0, 1))).tolist() + [[1] * scheme.n]
        assert scheme.check.array.tolist() == rows
        assert scheme.check.moduli == dec.check.moduli + (2,)

    def test_sweeps(self):
        scheme = TripleDetectScheme(q=2, p=11, ell=2)
        rng = random.Random(4)
        for _ in range(3):
            a = QMatrix.from_lists(
                2, [[rng.randrange(2) for _ in range(scheme.k)] for _ in range(2)]
            )
            u = [rng.randrange(2) for _ in range(2)]
            c = _product(u, scheme.encode(a))
            prefix = tuple(c[: scheme.k])
            for e in iter_l1_errors(scheme.n, 3, include_zero=True):
                y = [v + d for v, d in zip(c, e)]
                if not all(0 <= v < scheme.q_out for v in y):
                    continue
                outcome = scheme.decode(ReadVector.exact(y))
                weight = sum(abs(d) for d in e)
                if weight <= 2:
                    assert outcome.prefix == prefix, e
                else:
                    assert outcome.failed or outcome.prefix == prefix, e

    def test_encode_has_even_row_sums(self):
        scheme = TripleDetectScheme(q=2, p=11, ell=2)
        rng = random.Random(12)
        a = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(scheme.k)] for _ in range(2)])
        for row in scheme.encode(a).rows:
            assert sum(row) % 2 == 0


class TestSuffixAmbiguity:
    # Built with the suffix-ambiguity opt-in, the schemes have two suffix
    # columns whose locators negate mod p (1 and 16 mod 17; 1 and 40 mod
    # 41).  The pair code keeps only the first, so a +-1 error at the other
    # reads as the opposite error at the first, and the prefix still
    # decodes.
    @pytest.mark.parametrize("build", [
        lambda: DoubleErrorScheme(2, 17, 1, allow_suffix_ambiguity=True),
        lambda: TripleDetectScheme(3, 41, 1, allow_suffix_ambiguity=True),
    ], ids=["dec", "dec-ted"])
    def test_every_weight_two_error_decodes_the_prefix(self, build):
        scheme = build()
        residues = {a % scheme.p for a in scheme.loc.alpha}
        assert any(scheme.p - r in residues for r in residues)
        beta = set(scheme.ber.beta)
        assert not any(scheme.p - b in beta for b in beta)
        rng = random.Random(scheme.p)
        a = QMatrix.from_lists(
            scheme.q, [[rng.randrange(scheme.q) for _ in range(scheme.k)] for _ in range(scheme.ell)]
        )
        c = _product([rng.randrange(scheme.q) for _ in range(scheme.ell)], scheme.encode(a))
        prefix = tuple(c[: scheme.k])
        for e in iter_l1_errors(scheme.n, 2, include_zero=True):
            y = [v + d for v, d in zip(c, e)]
            if all(0 <= v < scheme.q_out for v in y):
                assert scheme.decode(ReadVector.exact(y)).prefix == prefix, e


class TestShortened:
    def test_roundtrip_and_correction(self):
        base = DoubleErrorScheme(q=2, p=31, ell=2)
        scheme = ShortenedScheme(base, drop=4)
        assert scheme.k == base.k - 4 and scheme.n == base.n - 4
        rng = random.Random(2)
        a = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(scheme.k)] for _ in range(2)])
        encoded = scheme.encode(a)
        assert encoded.ncols == scheme.n
        u = [1, 1]
        c = _product(u, encoded)
        prefix = tuple(c[: scheme.k])
        assert scheme.decode(ReadVector.exact(c)).prefix == prefix
        for e in iter_l1_errors(scheme.n, 2):
            y = [v + d for v, d in zip(c, e)]
            if not all(0 <= v < scheme.q_out for v in y):
                continue
            assert scheme.decode(ReadVector.exact(y)).prefix == prefix

    def test_bad_drop(self):
        base = DoubleErrorScheme(q=2, p=31, ell=2)
        with pytest.raises(ValueError):
            ShortenedScheme(base, drop=base.k)
