"""The array-native programming path: `QMatrix.array`, block products with
a `CheckMatrix` and its `tail`, digit expansion, and every encoder's block
path against its one-row form; plus the admission of inner-code symbols
and the refusal of Lee codes with a budget above their length."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpe_codec as api
from dpe_codec.basemath import base_q_digits, is_prime, jacobsthal_weights, mixed_radix_digits
from dpe_codec.core import INT64_BOUND, CheckMatrix, QMatrix, radix_digits
from dpe_codec.oracles import LinearInnerCode
from dpe_codec.single import encode_row

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**32)

BIG_PRIME = 2**31 + 11
HUGE_PRIME = 2**64 + 13


def _rows(rng, q, ell, k):
    return tuple(tuple(rng.randrange(q) for _ in range(k)) for _ in range(ell))


class TestQMatrixArray:
    @pytest.mark.parametrize(
        "q,dtype", [(2, np.uint8), (256, np.uint8), (257, np.int64), (INT64_BOUND, np.int64),
                    (INT64_BOUND + 1, object)])
    def test_packing_by_alphabet(self, q, dtype):
        rows = ((0, q - 1, 1), (q - 1, 0, 0))
        matrix = QMatrix(q, rows)
        assert matrix.array.dtype == dtype
        assert matrix.array.shape == (2, 3)
        assert matrix.array.tolist() == [list(row) for row in rows]
        assert not matrix.array.flags.writeable

    @pytest.mark.parametrize("q", [2, 9, 256, 257, 1031, BIG_PRIME])
    def test_array_rows_equal_tuple_rows(self, q):
        rows = _rows(random.Random(q), q, 3, 50)
        for dtype in (np.int64, np.uint64, np.int32 if q < 2**31 else np.int64):
            matrix = QMatrix(q, np.array(rows, dtype))
            assert matrix == QMatrix(q, rows)
            assert matrix.rows == rows
            assert all(type(v) is int for row in matrix.rows for v in row)
            assert matrix.array.dtype == QMatrix(q, rows).array.dtype
            assert not matrix.array.flags.writeable

    def test_keeps_no_view_of_the_given_array(self):
        given_rows = np.array([[1, 2], [3, 0]], np.int64)
        matrix = QMatrix(4, given_rows)
        given_rows[0, 0] = 3
        assert given_rows.flags.writeable
        assert matrix.rows == ((1, 2), (3, 0))
        assert matrix.array[0, 0] == 1

    @pytest.mark.parametrize(
        "array,message",
        [
            (np.array([[0, 1], [1, 0]], bool), "matrix entries must be integers, got dtype bool"),
            (np.array([[0.0, 1.0]]), "matrix entries must be integers, got dtype float64"),
            (np.array([[0, 1], [2, 4]]), r"entry (1,1) = 4 is outside [0, 4)"),
            (np.array([[0, -1], [2, 3]]), r"entry (0,1) = -1 is outside [0, 4)"),
            (np.array([[0, 1], [2, 3]], np.uint64) + np.uint64(2**63),
             f"entry (0,0) = {2**63} is outside [0, 4)"),
            (np.array([0, 1]), "matrix array must have 2 dimensions, got 1"),
            (np.zeros((0, 3), np.int64), "matrix needs at least one row"),
        ],
    )
    def test_array_refusals(self, array, message):
        with pytest.raises(ValueError) as err:
            QMatrix(4, array)
        assert str(err.value) == message

    def test_object_array_reads_as_its_rows(self):
        array = np.array([[0, 1], [2, 1.5]], object)
        with pytest.raises(ValueError, match=r"^entry \(1,1\) = 1.5 is not an integer$"):
            QMatrix(4, array)
        assert QMatrix(4, np.array([[0, 1], [2, 3]], object)).rows == ((0, 1), (2, 3))

    # The list path keeps its messages on both packings: the type test
    # before the byte or int64 packing, then the range.
    @pytest.mark.parametrize("q", [200, 70_000])
    @pytest.mark.parametrize(
        "bad,message",
        [
            (1.5, "entry (2,3) = 1.5 is not an integer"),
            (True, "entry (2,3) = True is not an integer"),
            (np.int64(1), "entry (2,3) = np.int64(1) is not an integer"),
            (-1, "entry (2,3) = -1 is outside [0, {q})"),
            ("q", "entry (2,3) = {q} is outside [0, {q})"),
            (2**64, "entry (2,3) = {big} is outside [0, {q})"),
        ],
    )
    def test_list_refusals_either_packing(self, q, bad, message):
        bad = q if bad == "q" else bad
        rows = [list(row) for row in _rows(random.Random(1), q, 4, 20)]
        rows[2][3] = bad
        with pytest.raises(ValueError) as err:
            QMatrix.from_lists(q, rows)
        assert str(err.value) == message.format(q=q, big=2**64)

    def test_row_length_before_a_later_bad_entry(self):
        with pytest.raises(ValueError, match="^row 1 has length 1, expected 2$"):
            QMatrix(4, ((0, 1), (2,), (9, 9)))
        with pytest.raises(ValueError, match=r"^entry \(0,1\) = 9 is outside \[0, 4\)$"):
            QMatrix(4, ((0, 9), (2,)))


def _block_and_rows(seed, ell, n, bound):
    rng = random.Random(seed)
    rows = [[rng.choice((0, bound - 1, rng.randrange(bound))) for _ in range(n)]
            for _ in range(ell)]
    dtype = np.uint8 if bound <= 256 else np.int64 if bound <= INT64_BOUND else object
    return np.array(rows, dtype), rows


class TestBlockProducts:
    # (rows, moduli, bound): a narrow product and one past the int64 bound
    CHECKS = {
        "narrow": ([[3, 5, 7, 11] * 5, [1, 4, 9, 16] * 5], [31, 31], 9),
        "byte": ([list(range(1, 41)), [1] * 40], [83, 2], 256),
        "wide": ([[2**40 + j for j in range(6)], [7] * 6], [2**45 + 59, 2**45 + 59], 2**30),
        "huge-moduli": ([[j + 1 for j in range(5)]], [2**70 + 25], 2**40),
    }

    @SETTINGS
    @given(SEEDS, st.integers(1, 9))
    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_block_equals_rows(self, name, seed, ell):
        rows, moduli, bound = self.CHECKS[name]
        check = CheckMatrix(rows, moduli, bound)
        assert check._wide == (name in ("wide", "huge-moduli"))
        block, plain = _block_and_rows(seed, ell, check.n, bound)
        syn = check(block)
        assert syn.shape == (ell, len(rows))
        assert syn.dtype == (object if max(moduli) > INT64_BOUND else np.int64)
        assert syn.tolist() == [check(row) for row in plain]
        assert all(type(s) is int for s in syn.tolist()[0])

    def test_block_width_refused(self):
        check = CheckMatrix([[1, 2, 3]], [7], 7)
        with pytest.raises(ValueError, match="need 3 entries, got 2"):
            check(np.zeros((4, 2), np.int64))

    @SETTINGS
    @given(SEEDS, st.integers(1, 9))
    @pytest.mark.parametrize("p", [13, 211, 3_037_000_453, HUGE_PRIME])
    def test_tail_block_equals_rows(self, p, seed, ell):
        # r * (p - 1)^2 passes 2^63 for the two large primes: Python ints
        assert is_prime(p)
        check = CheckMatrix([[1, 2, 3, 4, 5], [1, 4, 9, 16, 25]], [p, p], p)
        rng = random.Random(seed)
        syn = [[rng.randrange(p) for _ in range(2)] for _ in range(ell)]
        dtype = np.int64 if p <= INT64_BOUND else object
        tails = check.tail(np.array(syn, dtype))
        assert tails.tolist() == [check.tail(s) for s in syn]


class TestRadixDigits:
    @SETTINGS
    @given(SEEDS)
    def test_base_q_and_mixed_radix(self, seed):
        rng = random.Random(seed)
        for q, m in ((2, 10), (3, 7), (300, 2)):
            values = [rng.randrange(q**m) for _ in range(5)]
            digits = radix_digits(np.array(values), [q**j for j in range(m)], q)
            assert digits.tolist() == [base_q_digits(v, q, m) for v in values]
        for q, m in ((4, 6), (260, 2)):
            weights = jacobsthal_weights(q, m)
            values = [rng.randrange((q - 1) * sum(weights) + 1) for _ in range(5)]
            digits = radix_digits(np.array(values), weights, q)
            assert digits.tolist() == [mixed_radix_digits(v, weights, q) for v in values]

    def test_plane_major_per_row(self):
        digits = radix_digits(np.array([[5, 7], [1, 8]]), [1, 3], 3)
        assert digits.tolist() == [[2, 1, 1, 2], [1, 2, 0, 2]]
        assert api.basemath.digit_planes([5, 7], 3, 2) == [2, 1, 1, 2]

    @pytest.mark.parametrize(
        "weights,bad", [([1, 3], 9), ([1, 3], -1), ([1, 5], 13), ([1, 5], -1)])
    def test_refuses_what_the_digits_cannot_hold(self, weights, bad):
        with pytest.raises(ValueError, match=f"^{bad} is not representable"):
            radix_digits(np.array([[0, bad], [1, 2]]), weights, 3)


class TestEncodersAgreeWithTheirRows:
    def test_encode_row_block(self):
        scheme = api.SecDedScheme(4, 40, 2)
        rows = _rows(random.Random(3), 4, 5, scheme.k)
        block = encode_row(np.array(rows, np.uint8), scheme.loc)
        assert block.tolist() == [list(encode_row(row, scheme.loc)) for row in rows]
        assert type(encode_row(list(rows[0]), scheme.loc)) is tuple

    def test_one_row_is_checked(self):
        loc = api.SingleErrorScheme(3, 8, 1).loc
        with pytest.raises(ValueError, match="row length 4 != dimension 5"):
            encode_row([0, 1, 2, 0], loc)
        with pytest.raises(ValueError, match=r"entry \(0,1\) = 3 is outside \[0, 3\)"):
            encode_row([0, 3, 2, 0, 1], loc)

    @pytest.mark.parametrize("p,n,tau", [(31, 15, 2), (1031, 250, 3), (BIG_PRIME, 30, 2)])
    def test_systematic_encode_block(self, p, n, tau):
        code = api.BerlekampCode(api.PrimeField(p), tuple(range(1, n + 1)), tau)
        rows = _rows(random.Random(p), p, 4, code.dimension)
        words = api.systematic_encode(code, np.array(rows, np.int64))
        assert words.tolist() == [api.systematic_encode(code, list(row)) for row in rows]

    @pytest.mark.parametrize("kind", ["rs", "linear"])
    def test_inner_code_encode_block(self, kind):
        rs = api.ReedSolomonCode(api.PrimeField(11), 8, 3)
        code = rs if kind == "rs" else LinearInnerCode(api.PrimeField(11), rs.check.rows, rs.d)
        rows = _rows(random.Random(4), 40, 5, 3)  # symbols past p are reduced
        words = code.encode(np.array(rows, np.uint8))
        assert words.tolist() == [code.encode(list(row)) for row in rows]
        assert code.syndromes(words).tolist() == [[0] * 5] * 5

    def test_past_the_int64_bound(self):
        # every product of the large-alphabet encode leaves int64: Python ints
        scheme = api.LargeAlphabetScheme(BIG_PRIME, 30, 2, 8)
        assert scheme.code.check._wide
        rows = _rows(random.Random(5), scheme.q, 8, scheme.k)
        encoded = scheme.encode(QMatrix(scheme.q, rows))
        expect = tuple(row + tuple(api.systematic_encode(scheme.code, list(row))[scheme.k :])
                       for row in rows)
        assert encoded.rows == expect
        assert encoded.array.dtype == np.int64

    def test_alphabet_past_int64(self):
        # q > 2^63: the packed matrix holds Python ints, and so does every step
        assert is_prime(HUGE_PRIME)
        scheme = api.LargeAlphabetScheme(HUGE_PRIME, 12, 2, 2)
        rows = _rows(random.Random(6), scheme.q, 2, scheme.k)
        encoded = scheme.encode(QMatrix(scheme.q, rows))
        assert encoded.array.dtype == object
        assert encoded.rows == tuple(
            row + tuple(api.systematic_encode(scheme.code, list(row))[scheme.k :]) for row in rows)
        clean = api.compute_clean([1, 1], encoded)
        assert scheme.decode(api.ReadVector.exact(clean)).prefix == tuple(clean[: scheme.k])


    @pytest.mark.parametrize("build", [
        lambda: api.SingleErrorScheme(HUGE_PRIME, 20, 2),
        lambda: api.SecDedScheme(HUGE_PRIME + 1, 20, 2),  # even q: mixed radix
        lambda: api.TripleDetectScheme(HUGE_PRIME + 1, 31, 2),
        lambda: api.RecursiveScheme(HUGE_PRIME, 2, 2, 31),
        lambda: api.HammingScheme(HUGE_PRIME, 2, 6, 1, theta=3),
        lambda: api.ParityDetectScheme(HUGE_PRIME, 5, 2),
    ])
    def test_every_level_past_int64(self, build):
        # digits, checksums and output all stay Python ints; a clean product
        # decodes to its prefix
        scheme = build()
        rows = _rows(random.Random(8), scheme.q, 2, scheme.k)
        encoded = scheme.encode(QMatrix(scheme.q, rows))
        assert encoded.array.dtype == object
        assert tuple(row[: scheme.k] for row in encoded.rows) == rows
        clean = api.compute_clean([1, 1], encoded)
        assert scheme.decode(api.ReadVector.exact(clean)).prefix == tuple(clean[: scheme.k])


class TestInnerCodeSymbols:
    RS = api.ReedSolomonCode(api.PrimeField(7), 6, 2)

    def _codes(self):
        return (self.RS, LinearInnerCode(api.PrimeField(7), self.RS.check.rows, self.RS.d))

    @pytest.mark.parametrize("bad", [1.5, None, True, "2", np.int64(2)])
    def test_refuses_a_symbol_that_is_not_an_int(self, bad):
        for code in self._codes():
            message = f"^word symbol {re.escape(repr(bad))} is not an integer$"
            with pytest.raises(ValueError, match=message):
                code.decode_errors_erasures([bad, 2, 3, 4, 5, 6], [], 2)
            with pytest.raises(ValueError, match=message):
                code.syndromes([1, 2, bad, 4, 5, 6])

    def test_refuses_a_float_array(self):
        for code in self._codes():
            with pytest.raises(ValueError, match="^word symbols must be integers, got dtype float64$"):
                code.syndromes(np.array([1.5, 2, 3, 4, 5, 6]))

    def test_erasure_index_before_any_value(self):
        for code in self._codes():
            with pytest.raises(ValueError, match=r"^erasure index 9 is outside \[0, 6\)$"):
                code.decode_errors_erasures([None] * 6, [9], 2)

    def test_word_length(self):
        for code in self._codes():
            with pytest.raises(ValueError, match="^word length 5 != 6$"):
                code.syndromes([1, 2, 3, 4, 5])


class TestLeeSymbols:
    """`BerlekampCode.syndrome` admits its word as the inner codes'
    `syndromes` do (`core.field_symbols`): ints only, reduced mod p."""

    CODE = api.BerlekampCode(api.PrimeField(7), (1, 2, 3), 1)

    @pytest.mark.parametrize("bad", [1.5, True, np.float64(1.0)])
    def test_refuses_a_symbol_that_is_not_an_int(self, bad):
        # 1.5 once truncated to (1,), which locate_bounded then "corrected"
        message = f"^word symbol {re.escape(repr(bad))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            self.CODE.syndrome([bad, 0, 0])

    def test_refuses_a_float_array(self):
        with pytest.raises(ValueError, match="^word symbols must be integers, got dtype float64$"):
            self.CODE.syndrome(np.array([1.5, 0, 0]))

    def test_word_length(self):
        with pytest.raises(ValueError, match="^word length 2 != 3$"):
            self.CODE.syndrome([1, 0])

    def test_ints_and_integer_arrays(self):
        assert self.CODE.syndrome([1, 0, 0]) == (1,) == self.CODE.syndrome(np.array([8, 0, 0]))
        assert self.CODE.syndrome([-1, 7, 2**70]) == ((-1 + 2 * 7 + 3 * 2**70) % 7,)
        block = self.CODE.syndrome(np.array([[1, 0, 0], [0, 1, 1]]))
        assert block.tolist() == [[1], [5]]

    def test_large_alphabet_reads_are_admitted_once(self):
        scheme = api.LargeAlphabetScheme(257, 24, 3, 2)
        encoded = scheme.encode(QMatrix(257, _rows(random.Random(9), 257, 2, scheme.k)))
        clean = api.compute_clean([2, 3], encoded)
        assert scheme.decode(api.ReadVector.exact(clean)).prefix == tuple(clean[: scheme.k])
        with pytest.raises(ValueError, match="^entry 0 = 1.5 is not an integer$"):
            scheme.decode(api.ReadVector.exact([1.5] + list(clean[1:])))


class TestLeeBudget:
    def test_budget_above_the_length_is_refused(self):
        with pytest.raises(ValueError, match="^error budget 2 exceeds the code length 1$"):
            api.BerlekampCode(api.PrimeField(11), (1,), tau=2)
        assert api.BerlekampCode(api.PrimeField(11), (1, 2), tau=2).dimension == 0

    def test_a_check_only_code_may_be_shorter(self):
        code = api.BerlekampCode(api.PrimeField(11), (1,), tau=2, check_only=True)
        assert api.berlekamp.locate_bounded(code, code.syndrome([2])) == ((0, 2),)

    def test_trimmed_recursive_with_one_plane_column(self):
        # q >= p gives m = 1 and one plane column for tau = 2: its tail code
        # is shorter than its budget, and still corrects
        scheme = api.RecursiveScheme(300, 2, 2, 31, trimmed=True)
        assert scheme.tail_checker.n == 1 < scheme.tail_checker.tau
        sec = api.SingleErrorScheme(300, scheme.n, 2)
        rows = _rows(random.Random(7), 300, 2, sec.k)
        encoded = scheme.encode(sec.encode(QMatrix(300, rows)))
        clean = api.compute_clean([3, 5], encoded)
        for seed in range(20):
            read = api.inject(clean, api.FaultModel.l1_drift(2, seed=seed), scheme.q_out).read
            assert scheme.decode(read).prefix == tuple(clean[: scheme.k])
