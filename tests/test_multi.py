import random

import pytest

from dpe_codec.basemath import PrimeField
from dpe_codec.berlekamp import BerlekampCode
from dpe_codec.cli import main
from dpe_codec.core import QMatrix, ReadVector
from dpe_codec.locators import build_locators_basic
from dpe_codec.multi import LargeAlphabetScheme, RecursiveScheme
from dpe_codec.oracles import digit_split, iter_l1_errors, syndrome_matrix
from dpe_codec.single import SingleErrorScheme, encode_row


def _product(u, matrix):
    return [sum(u[i] * matrix.rows[i][j] for i in range(len(u))) for j in range(matrix.ncols)]


class TestSyndromeMatrix:
    def test_encoded_rows_have_zero_first_column(self):
        loc = build_locators_basic(2, 15)
        code = BerlekampCode(PrimeField(31), loc.alpha, tau=2)
        rng = random.Random(0)
        rows = []
        for _ in range(3):
            rows.append(encode_row([rng.randrange(2) for _ in range(loc.k)], loc))
        S = syndrome_matrix(QMatrix.from_lists(2, rows), code)
        assert all(row[0] == 0 for row in S)

    def test_zero_matrix(self):
        code = BerlekampCode(PrimeField(11), (1, 2, 3, 4, 5), tau=2)
        S = syndrome_matrix(QMatrix.from_lists(2, [[0] * 5] * 2), code)
        assert S == [[0, 0], [0, 0]]

    def test_product_syndrome_identity(self):
        # checksum of u*A equals u times the checksum matrix, mod p
        code = BerlekampCode(PrimeField(11), (1, 2, 3, 4, 5), tau=2)
        rng = random.Random(5)
        for _ in range(20):
            matrix = QMatrix.from_lists(
                3, [[rng.randrange(3) for _ in range(5)] for _ in range(2)]
            )
            S = syndrome_matrix(matrix, code)
            u = [rng.randrange(3) for _ in range(2)]
            c = _product(u, matrix)
            expect = tuple(
                sum(u[i] * S[i][v] for i in range(2)) % 11 for v in range(2)
            )
            assert code.syndrome(c) == expect


class TestDigitSplit:
    def test_zero(self):
        planes = digit_split([[0, 0], [0, 0]], 2, 5)
        assert all(v == 0 for plane in planes for row in plane for v in row)

    def test_known_cell(self):
        planes = digit_split([[23]], 2, 5)
        assert [planes[j][0][0] for j in range(5)] == [1, 1, 1, 0, 1]

    def test_reconstruction(self):
        rng = random.Random(1)
        S = [[rng.randrange(31) for _ in range(2)] for _ in range(3)]
        planes = digit_split(S, 2, 5)
        rebuilt = [
            [sum(2**j * planes[j][i][v] for j in range(5)) for v in range(2)]
            for i in range(3)
        ]
        assert rebuilt == S


class TestRecursiveScheme:
    def test_widths(self):
        scheme = RecursiveScheme(q=2, ell=3, tau=1, p=31)
        # appended width: tau*m + (2*tau+1)*tau*mtilde
        assert scheme.m == 5 and scheme.ntilde == 5
        assert scheme.ptilde == 11 and scheme.mtilde == 4
        assert scheme.redundancy == 1 * 5 + 3 * 1 * 4
        assert scheme.total_length == 15 + 17

    def test_redundancy_formula(self):
        for q, tau, p in [(2, 1, 31), (2, 2, 31), (3, 2, 23), (4, 3, 29)]:
            scheme = RecursiveScheme(q=q, ell=2, tau=tau, p=p)
            assert scheme.redundancy == tau * scheme.m + (2 * tau + 1) * tau * scheme.mtilde

    def test_zero_matrix(self):
        scheme = RecursiveScheme(q=2, ell=3, tau=1, p=31)
        encoded = scheme.encode(QMatrix.from_lists(2, [[0] * 15] * 3))
        assert all(v == 0 for row in encoded.rows for v in row)

    def test_tau1_appended_block_matches_syndrome_planes(self):
        scheme = RecursiveScheme(q=2, ell=3, tau=1, p=31)
        rng = random.Random(2)
        matrix = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(15)] for _ in range(3)])
        encoded = scheme.encode(matrix)
        S = syndrome_matrix(matrix, scheme.checker)
        planes = digit_split(S, 2, 5)
        for i in range(3):
            block = list(encoded.rows[i][15:20])
            assert block == [planes[j][i][0] for j in range(5)]

    def test_appended_planes_reconstruct_product_checksum(self):
        # u times the digit planes rebuilds the checksum of u times the matrix
        scheme = RecursiveScheme(q=2, ell=3, tau=2, p=31)
        rng = random.Random(9)
        matrix = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(15)] for _ in range(3)])
        encoded = scheme.encode(matrix)
        for u in [(1, 1, 1), (1, 0, 1), (0, 1, 1)]:
            full = _product(list(u), encoded)
            head, block = full[:15], full[15 : 15 + scheme.ntilde]
            rebuilt = [
                sum(2**j * block[j * scheme.tau + v] for j in range(scheme.m)) % 31
                for v in range(scheme.tau)
            ]
            assert tuple(rebuilt) == scheme.checker.syndrome(head)

    def test_tau1_exhaustive_unit_errors(self):
        scheme = RecursiveScheme(q=2, ell=3, tau=1, p=31)
        rng = random.Random(3)
        matrix = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(15)] for _ in range(3)])
        encoded = scheme.encode(matrix)
        u = [1, 0, 1]
        c = _product(u, encoded)
        clean = tuple(c[:15])
        assert scheme.decode(ReadVector.exact(c)).prefix == clean
        for j in range(len(c)):
            for sign in (1, -1):
                y = list(c)
                y[j] += sign
                if not 0 <= y[j] < scheme.q_out:
                    continue
                assert scheme.decode(ReadVector.exact(y)).prefix == clean, (j, sign)

    def test_tau2_exhaustive_weight_two(self):
        scheme = RecursiveScheme(q=2, ell=2, tau=2, p=31)
        rng = random.Random(4)
        matrix = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(15)] for _ in range(2)])
        encoded = scheme.encode(matrix)
        u = [1, 1]
        c = _product(u, encoded)
        clean = tuple(c[:15])
        for e in iter_l1_errors(len(c), 2):
            y = [v + d for v, d in zip(c, e)]
            if not all(0 <= v < scheme.q_out for v in y):
                continue
            assert scheme.decode(ReadVector.exact(y)).prefix == clean

    def test_trimmed_mode(self):
        # trimmed input rows must be single-error encoded already
        sec = SingleErrorScheme(q=2, n=15, ell=2)
        scheme = RecursiveScheme(q=2, ell=2, tau=2, p=31, trimmed=True)
        assert scheme.ntilde == scheme.m  # one plane column instead of two
        rng = random.Random(6)
        aprime = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(sec.k)] for _ in range(2)])
        inner = sec.encode(aprime)
        encoded = scheme.encode(inner)
        assert encoded.ncols < RecursiveScheme(q=2, ell=2, tau=2, p=31).total_length
        u = [1, 1]
        c = _product(u, encoded)
        clean = tuple(c[:15])
        for e in iter_l1_errors(len(c), 2):
            y = [v + d for v, d in zip(c, e)]
            if not all(0 <= v < scheme.q_out for v in y):
                continue
            assert scheme.decode(ReadVector.exact(y)).prefix == clean

    def test_trimmed_rejects_raw_rows(self):
        scheme = RecursiveScheme(q=2, ell=2, tau=2, p=31, trimmed=True)
        raw = QMatrix.from_lists(2, [[1] + [0] * 14, [0] * 15])
        with pytest.raises(ValueError, match="zero linear checksum"):
            scheme.encode(raw)

    def test_rejects_bad_prime(self):
        with pytest.raises(ValueError):
            RecursiveScheme(q=2, ell=2, tau=3, p=7)

    @pytest.mark.parametrize("q", [2, 4])
    def test_tau3_suffix_ambiguous(self, q, capsys):
        # p = 17 makes the suffix weights 1 and 16 negate each other, and
        # every head column is data: the instance is refused, by the
        # library and by the CLI even when the opt-in is given
        with pytest.raises(ValueError, match="allow_suffix_ambiguity"):
            RecursiveScheme(q=q, ell=2, tau=3, p=17)
        args = ["params", "--scheme", "recursive", "--q", str(q), "--p", "17",
                "--tau", "3", "--ell", "2", "--allow-suffix-ambiguity"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--allow-suffix-ambiguity does not apply" in captured.err


class TestLargeAlphabetScheme:
    def test_parameters(self):
        scheme = LargeAlphabetScheme(q=8, n=3, tau=1, ell=2)
        assert scheme.p == 7 and scheme.k == 2
        assert scheme.redundancy == 1

    def test_no_prime(self):
        with pytest.raises(ValueError, match="no prime"):
            LargeAlphabetScheme(q=8, n=3, tau=4, ell=2)

    def test_length_guard(self):
        with pytest.raises(ValueError, match="extension-field"):
            LargeAlphabetScheme(q=8, n=5, tau=1, ell=2)

    def test_zero(self):
        scheme = LargeAlphabetScheme(q=8, n=3, tau=1, ell=2)
        encoded = scheme.encode(QMatrix.from_lists(8, [[0, 0]] * 2))
        assert all(v == 0 for row in encoded.rows for v in row)

    def test_mod_p_closure(self):
        scheme = LargeAlphabetScheme(q=8, n=3, tau=2, ell=2)
        rng = random.Random(7)
        for _ in range(25):
            a = QMatrix.from_lists(8, [[rng.randrange(8) for _ in range(scheme.k)] for _ in range(2)])
            encoded = scheme.encode(a)
            for u0 in range(8):
                for u1 in range(8):
                    c = _product([u0, u1], encoded)
                    assert scheme.code.syndrome(c) == (0, 0)

    @pytest.mark.parametrize("tau", [1, 2])
    def test_exhaustive_sweeps(self, tau):
        scheme = LargeAlphabetScheme(q=8, n=3, tau=tau, ell=2)
        rng = random.Random(tau)
        for _ in range(5):
            a = QMatrix.from_lists(8, [[rng.randrange(8) for _ in range(scheme.k)] for _ in range(2)])
            encoded = scheme.encode(a)
            u = [rng.randrange(8) for _ in range(2)]
            c = _product(u, encoded)
            clean = tuple(c[: scheme.k])
            for e in iter_l1_errors(3, tau, include_zero=True):
                y = [v + d for v, d in zip(c, e)]
                if not all(0 <= v < scheme.q_out for v in y):
                    continue
                assert scheme.decode(ReadVector.exact(y)).prefix == clean, e

    def test_tau3_uses_key_equation(self):
        scheme = LargeAlphabetScheme(q=16, n=6, tau=3, ell=2)
        assert scheme.p == 13
        rng = random.Random(10)
        a = QMatrix.from_lists(16, [[rng.randrange(16) for _ in range(scheme.k)] for _ in range(2)])
        encoded = scheme.encode(a)
        u = [5, 9]
        c = _product(u, encoded)
        clean = tuple(c[: scheme.k])
        for e in [[1, -1, 1, 0, 0, 0], [0, 3, 0, 0, 0, 0], [0, 0, -2, 0, 1, 0]]:
            y = [v + d for v, d in zip(c, e)]
            assert all(0 <= v < scheme.q_out for v in y)
            assert scheme.decode(ReadVector.exact(y)).prefix == clean
