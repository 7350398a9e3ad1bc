import random

import pytest

from dpe_codec.core import DECODE_FAILURE, QMatrix, ReadVector, parity_extend
from dpe_codec.locators import build_locators_basic
from dpe_codec.single import (
    ParityDetectScheme,
    SecDedScheme,
    SingleErrorScheme,
    encode_row,
    redundancy_lower_bound,
)

A_PRIME_3x10 = QMatrix.from_lists(
    2,
    [
        [1, 0, 1, 1, 0, 1, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 1, 1, 0, 0, 1],
        [0, 1, 0, 0, 0, 1, 0, 1, 1, 1],
    ],
)

ENCODED_3x15 = [
    [1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1],
    [0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1],
    [0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0],
]

C_VECTOR = (1, 1, 1, 2, 0, 3, 1, 1, 2, 2, 1, 1, 2, 1, 2)


@pytest.fixture
def sec_scheme():
    return SingleErrorScheme(q=2, n=15, ell=3)


class TestEncode:
    def test_golden_matrix(self, sec_scheme):
        encoded = sec_scheme.encode(A_PRIME_3x10)
        assert [list(r) for r in encoded.rows] == ENCODED_3x15

    def test_redundancy_suffixes(self, sec_scheme):
        encoded = sec_scheme.encode(A_PRIME_3x10)
        assert [list(r[10:]) for r in encoded.rows] == [
            [1, 1, 1, 0, 1],
            [0, 0, 1, 0, 1],
            [0, 0, 0, 1, 0],
        ]

    def test_zero_matrix(self, sec_scheme):
        zero = QMatrix.from_lists(2, [[0] * 10] * 3)
        encoded = sec_scheme.encode(zero)
        assert all(v == 0 for row in encoded.rows for v in row)

    def test_systematic(self, sec_scheme):
        encoded = sec_scheme.encode(A_PRIME_3x10)
        assert tuple(tuple(r[:10]) for r in encoded.rows) == A_PRIME_3x10.rows

    def test_row_congruence_random_q3(self):
        # q=3, k=5 forces n=8 (m=3), modulus 17
        scheme = SingleErrorScheme(q=3, n=8, ell=2)
        assert scheme.k == 5
        rng = random.Random(11)
        for _ in range(40):
            row = [rng.randrange(3) for _ in range(5)]
            full = encode_row(row, scheme.loc)
            weighted = sum(v * scheme.loc.alpha[j] for j, v in enumerate(full))
            assert weighted % 17 == 0

    def test_row_congruence_all_rows(self, sec_scheme):
        encoded = sec_scheme.encode(A_PRIME_3x10)
        for row in encoded.rows:
            assert sum(v * a for v, a in zip(row, sec_scheme.loc.alpha)) % 31 == 0


class TestLinearity:
    def test_products_have_zero_checksum(self, sec_scheme):
        encoded = sec_scheme.encode(A_PRIME_3x10)
        for u0 in range(2):
            for u1 in range(2):
                for u2 in range(2):
                    c = [
                        u0 * encoded.rows[0][j] + u1 * encoded.rows[1][j] + u2 * encoded.rows[2][j]
                        for j in range(15)
                    ]
                    assert sum(v * a for v, a in zip(c, sec_scheme.loc.alpha)) % 31 == 0


class TestDecode:
    def test_golden_pipeline(self, sec_scheme):
        encoded = sec_scheme.encode(A_PRIME_3x10)
        c = [sum(encoded.rows[i][j] for i in range(3)) for j in range(15)]
        assert tuple(c) == C_VECTOR
        y = list(c)
        y[5] -= 1
        rv = ReadVector.exact(y)
        assert sec_scheme.syndrome(rv) == 21
        outcome = sec_scheme.decode(rv)
        assert outcome.prefix == C_VECTOR[:10]

    def test_error_free(self, sec_scheme):
        rv = ReadVector.exact(C_VECTOR)
        assert sec_scheme.syndrome(rv) == 0
        assert sec_scheme.decode(rv).prefix == C_VECTOR[:10]

    def test_exhaustive_unit_errors(self, sec_scheme):
        rng = random.Random(5)
        encoded = sec_scheme.encode(A_PRIME_3x10)
        for trial in range(10):
            u = [rng.randrange(2) for _ in range(3)]
            c = [sum(u[i] * encoded.rows[i][j] for i in range(3)) for j in range(15)]
            for j in range(15):
                for sign in (1, -1):
                    y = list(c)
                    y[j] += sign
                    if not 0 <= y[j] < sec_scheme.q_out:
                        continue
                    outcome = sec_scheme.decode(ReadVector.exact(y))
                    assert outcome.prefix == tuple(c[:10]), (trial, j, sign)

    def test_suffix_ambiguous_instance_still_corrects(self):
        # q=2, n=8 carries an unavoidable collision between weights 1 and 16;
        # the confusion is confined to redundancy columns.
        scheme = SingleErrorScheme(q=2, n=8, ell=2, allow_suffix_ambiguity=True)
        rng = random.Random(3)
        for _ in range(20):
            aprime = QMatrix.from_lists(
                2, [[rng.randrange(2) for _ in range(scheme.k)] for _ in range(2)]
            )
            encoded = scheme.encode(aprime)
            u = [rng.randrange(2) for _ in range(2)]
            c = [sum(u[i] * encoded.rows[i][j] for i in range(2)) for j in range(8)]
            for j in range(8):
                for sign in (1, -1):
                    y = list(c)
                    y[j] += sign
                    if not 0 <= y[j] < scheme.q_out:
                        continue
                    assert scheme.decode(ReadVector.exact(y)).prefix == tuple(c[: scheme.k])

    def test_erasures_rejected(self, sec_scheme):
        rv = ReadVector.with_erasures(C_VECTOR, [2])
        with pytest.raises(ValueError):
            sec_scheme.decode(rv)

    def test_out_of_range_correction_fails(self):
        scheme = SingleErrorScheme(q=2, n=15, ell=1)
        encoded = scheme.encode(QMatrix.from_lists(2, [[0] * 10]))
        # all-zero codeword, error +1 at position 0: corrected value would be -1
        # only if decoded wrongly; the true correction is 0. Instead push a
        # syndrome that asks to decrement a zero entry: error -1 anywhere is
        # impossible to apply (entry would be -1), so inject +1 and check the
        # decode result stays in range.
        y = [0] * 15
        y[0] = 1
        outcome = scheme.decode(ReadVector.exact(y))
        assert outcome.prefix == (0,) * 10


class TestParityDetect:
    def test_known_matrix(self):
        scheme = ParityDetectScheme(q=2, k=3, ell=3)
        a = QMatrix.from_lists(2, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        encoded = scheme.encode(a)
        assert [list(r) for r in encoded.rows] == [
            [1, 0, 0, 1],
            [0, 1, 0, 1],
            [1, 1, 0, 0],
        ]
        assert tuple(parity_extend(row) for row in a.rows) == encoded.rows

    def test_detects_single_error(self):
        scheme = ParityDetectScheme(q=2, k=3, ell=3)
        encoded = scheme.encode(QMatrix.from_lists(2, [[1, 0, 0], [0, 1, 0], [1, 1, 0]]))
        u = [1, 1, 1]
        c = [sum(u[i] * encoded.rows[i][j] for i in range(3)) for j in range(4)]
        assert scheme.decode(ReadVector.exact(c)).prefix == tuple(c[:3])
        for j in range(4):
            for sign in (1, -1):
                y = list(c)
                y[j] += sign
                if not 0 <= y[j] < scheme.q_out:
                    continue
                assert scheme.decode(ReadVector.exact(y)).failed


def _product(u, matrix):
    return [sum(u[i] * matrix.rows[i][j] for i in range(len(u))) for j in range(matrix.ncols)]


class TestSecDed:
    @pytest.mark.parametrize(
        "q,n,ell,variant,ambiguous",
        [
            (2, 16, 3, "parity", False),
            (8, 13, 2, "even_q", False),
            (3, 8, 2, "odd_q", False),
            (5, 8, 2, "odd_q", False),
            (5, 7, 2, "odd_q", True),  # weights 5 + 25 = 30: suffix-confined collision
            (4, 9, 2, "even_q", False),
        ],
    )
    def test_corrects_one_flags_two(self, q, n, ell, variant, ambiguous):
        scheme = SecDedScheme(q=q, n=n, ell=ell, variant=variant, allow_suffix_ambiguity=ambiguous)
        rng = random.Random(q * n)
        aprime = QMatrix.from_lists(
            q, [[rng.randrange(q) for _ in range(scheme.k)] for _ in range(ell)]
        )
        encoded = scheme.encode(aprime)
        assert encoded.ncols == n
        u = [rng.randrange(q) for _ in range(ell)]
        c = _product(u, encoded)
        prefix = tuple(c[: scheme.k])

        assert scheme.decode(ReadVector.exact(c)).prefix == prefix

        for j in range(n):
            for sign in (1, -1):
                y = list(c)
                y[j] += sign
                if not 0 <= y[j] < scheme.q_out:
                    continue
                outcome = scheme.decode(ReadVector.exact(y))
                assert outcome.prefix == prefix, (j, sign)

        # every L1-weight-2 pattern: never a wrong prefix
        for j1 in range(n):
            for s1 in (1, -1):
                for j2 in range(j1, n):
                    for s2 in (1, -1):
                        y = list(c)
                        y[j1] += s1
                        y[j2] += s2
                        if not all(0 <= v < scheme.q_out for v in y):
                            continue
                        outcome = scheme.decode(ReadVector.exact(y))
                        assert outcome.failed or outcome.prefix == prefix, (j1, s1, j2, s2)

    def test_variant_autoselect(self):
        assert SecDedScheme(2, 16, 2).variant == "parity"
        assert SecDedScheme(3, 8, 2).variant == "odd_q"
        assert SecDedScheme(8, 13, 2).variant == "even_q"

    def test_even_q_zero_suffix(self):
        scheme = SecDedScheme(q=8, n=13, ell=2)
        zero = QMatrix.from_lists(8, [[0] * scheme.k] * 2)
        encoded = scheme.encode(zero)
        assert all(v == 0 for row in encoded.rows for v in row)

    def test_even_q_row_congruence(self):
        scheme = SecDedScheme(q=8, n=13, ell=2)
        rng = random.Random(8)
        for _ in range(30):
            a = QMatrix.from_lists(8, [[rng.randrange(8) for _ in range(scheme.k)] for _ in range(2)])
            for row in scheme.encode(a).rows:
                assert sum(v * a_ for v, a_ in zip(row, scheme.loc.alpha)) % 54 == 0

    def test_redundancy_counts(self):
        assert SecDedScheme(8, 13, 2).m == 2
        assert SecDedScheme(2, 16, 2).m == SingleErrorScheme(2, 15, 2).m + 1


class TestRedundancyBound:
    def test_values(self):
        assert redundancy_lower_bound(2, 15) == 4
        assert redundancy_lower_bound(8, 13) == 2
        for q in (2, 3, 8):
            assert redundancy_lower_bound(q, q - 1) == 1

    def test_achieved_within_reach(self):
        assert SingleErrorScheme(2, 15, 3).m == 5  # bound is 4
