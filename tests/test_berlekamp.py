import itertools
import random
from collections import defaultdict
from types import SimpleNamespace

import pytest

from dpe_codec.basemath import PrimeField, signed_value
from dpe_codec.berlekamp import (
    BerlekampCode,
    decode_double_error,
    decode_exhaustive,
    locate_key_equation,
    systematic_encode,
)
from dpe_codec.core import CheckMatrix, error_vector
from dpe_codec.oracles import SyndromeAmbiguityError, iter_l1_errors

ALPHA15 = (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 1, 2, 4, 8, 16)


def lee_weight(vec, field):
    return sum(abs(signed_value(v % field.p, field)) for v in vec)


@pytest.fixture
def code31_tau1():
    return BerlekampCode(PrimeField(31), ALPHA15, tau=1)


@pytest.fixture
def code31_tau2():
    return BerlekampCode(PrimeField(31), ALPHA15, tau=2)


class TestConstruction:
    def test_rejects_bad_locators(self):
        f = PrimeField(11)
        with pytest.raises(ValueError):
            BerlekampCode(f, (1, 2, 2), tau=1)
        with pytest.raises(ValueError):
            BerlekampCode(f, (1, 2, 0), tau=1)
        with pytest.raises(ValueError):
            BerlekampCode(f, (2, 9), tau=1)  # 2 + 9 = 11
        with pytest.raises(ValueError):
            BerlekampCode(f, (1, 2, 3), tau=6)  # 2*tau >= p
        for beta in ((2, True), (1, 2.0)):  # a bool would be taken as 1
            with pytest.raises(ValueError, match="locators must be integers"):
                BerlekampCode(f, beta, tau=1)

    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_refuses_a_negating_pair_at_every_budget(self, tau):
        for p, beta, pair in ((11, (2, 9, 1), "2 and 9"), (13, (1, 2, 3, 4, 5, 8), "5 and 8")):
            with pytest.raises(ValueError, match=f"^locators {pair} negate each other$"):
                BerlekampCode(PrimeField(p), beta, tau)

    def test_encode_rejected(self):
        with pytest.raises(ValueError, match="locators must be integers"):
            BerlekampCode(PrimeField(3), [(1, 0), (0, 1)], tau=1)

    def test_takes_no_validate_and_no_budget(self, code31_tau2):
        with pytest.raises(TypeError):
            BerlekampCode(PrimeField(11), (1, 2, 3), 1, validate=False)
        with pytest.raises(TypeError):
            locate_key_equation(code31_tau2, (1, 1), 2)


class TestSyndrome:
    def test_zero_for_codewords(self, code31_tau2):
        message = [5, 1, 0, 30, 2, 7, 8, 9, 10, 11, 12, 13, 14]
        cw = systematic_encode(code31_tau2, message)
        assert code31_tau2.syndrome(cw) == (0, 0)

    def test_known_read_vector(self, code31_tau1):
        y = (1, 1, 1, 2, 0, 2, 1, 1, 2, 2, 1, 1, 2, 1, 2)
        assert code31_tau1.syndrome(y) == (21,)

    def test_known_error_pattern(self, code31_tau2):
        e = [0] * 15
        e[5], e[13] = -1, 1
        assert code31_tau2.syndrome(e) == (29, 8)

    def test_linearity(self, code31_tau2):
        import random

        rng = random.Random(7)
        p = 31
        for _ in range(50):
            x = [rng.randrange(-5, 6) for _ in range(15)]
            y = [rng.randrange(-5, 6) for _ in range(15)]
            a, b = rng.randrange(p), rng.randrange(p)
            combo = [a * xi + b * yi for xi, yi in zip(x, y)]
            sx, sy = code31_tau2.syndrome(x), code31_tau2.syndrome(y)
            expect = tuple((a * u + b * v) % p for u, v in zip(sx, sy))
            assert code31_tau2.syndrome(combo) == expect


class TestSingleErrorDecoding:
    """tau = 1 codes decode through the key-equation decoder."""

    def test_zero(self, code31_tau1):
        assert locate_key_equation(code31_tau1, (0,)) == ()

    def test_known_location(self, code31_tau1):
        e = error_vector(15, locate_key_equation(code31_tau1, (10,)))
        expected = [0] * 15
        expected[5] = 1
        assert e == expected

    def test_exhaustive_inversion(self, code31_tau1):
        for j in range(15):
            for sign in (1, -1):
                e = [0] * 15
                e[j] = sign
                syn = code31_tau1.syndrome(e)
                assert error_vector(15, locate_key_equation(code31_tau1, syn)) == e

    def test_unmatched(self):
        # shortened code: locators (1..5) mod 13 leave 6 and 7 uncovered
        code = BerlekampCode(PrimeField(13), (1, 2, 3, 4, 5), tau=1)
        assert locate_key_equation(code, (6,)) is None
        assert locate_key_equation(code, (7,)) is None


class TestDoubleErrorDecoding:
    def test_worked_pair(self, code31_tau2):
        e = decode_double_error(code31_tau2, (29, 8))
        expected = [0] * 15
        expected[13], expected[5] = 1, -1
        assert e == expected

    def test_zero(self, code31_tau2):
        assert decode_double_error(code31_tau2, (0, 0)) == [0] * 15

    def test_s1_zero_nonzero_s2(self, code31_tau2):
        assert decode_double_error(code31_tau2, (0, 5)) is None

    def test_exhaustive_inversion_and_oracle_agreement(self, code31_tau2):
        for e in iter_l1_errors(15, 2):
            syn = code31_tau2.syndrome(e)
            assert decode_double_error(code31_tau2, syn) == e
            assert decode_exhaustive(code31_tau2, syn) == e

    def test_oracle_agreement_on_worked_example(self, code31_tau2):
        assert decode_exhaustive(code31_tau2, (29, 8)) == decode_double_error(
            code31_tau2, (29, 8)
        )

    def test_oracle_agreement_second_code(self):
        code = BerlekampCode(PrimeField(13), (1, 2, 3, 4, 5, 6), tau=2)
        for e in iter_l1_errors(6, 2, include_zero=True):
            syn = code.syndrome(e)
            assert decode_double_error(code, syn) == decode_exhaustive(code, syn) == e


class TestExhaustiveDecoder:
    def test_overweight_syndrome(self):
        code = BerlekampCode(PrimeField(11), (1, 2, 3, 4, 5), tau=1)
        e = [0] * 5
        e[0], e[2] = 1, 1  # weight 2 on a distance-3 code
        syn = code.syndrome(e)
        got = decode_exhaustive(code, syn)
        # either no weight-1 match, or a wrong weight-1 vector; never e itself
        assert got != e

    def test_ambiguity_detection(self):
        # a stand-in for a Lee code over GF(11) whose locators 2 and 9
        # negate, which BerlekampCode refuses: +1 at 2 and -1 at 9 share a
        # syndrome
        code = SimpleNamespace(tau=1, n=3, zero_syndrome=lambda: (0,),
                               syndrome=lambda e: ((2 * e[0] + 9 * e[1] + e[2]) % 11,))
        with pytest.raises(SyndromeAmbiguityError):
            decode_exhaustive(code, (2,))

    def test_guard(self):
        code = BerlekampCode(PrimeField(101), tuple(range(1, 51)), tau=2)
        with pytest.raises(ValueError, match="guard"):
            decode_exhaustive(code, (1, 1), budget=9)


class TestSystematicEncode:
    def test_zero_message(self, code31_tau2):
        assert systematic_encode(code31_tau2, [0] * 13) == [0] * 15

    def test_unit_messages(self, code31_tau2):
        for i in range(13):
            msg = [0] * 13
            msg[i] = 1
            cw = code31_tau2.syndrome(systematic_encode(code31_tau2, msg))
            assert cw == (0, 0)

    def test_random_messages(self, code31_tau2):
        import random

        rng = random.Random(3)
        for _ in range(25):
            msg = [rng.randrange(31) for _ in range(13)]
            cw = systematic_encode(code31_tau2, msg)
            assert cw[:13] == msg
            assert code31_tau2.syndrome(cw) == (0, 0)

    def test_redundancy_is_tau(self, code31_tau2):
        cw = systematic_encode(code31_tau2, [1] * 13)
        assert len(cw) - 13 == code31_tau2.tau

    def test_singular_tail_block(self):
        # valid locators never give a singular tail; the check of the
        # negating locators 3 and 10 mod 13 does: its last two columns are
        # the block [[3, 10], [1, 12]], whose determinant 36 - 10 = 26 is 0
        check = CheckMatrix([[1, 2, 3, 10], [1, 8, 1, 12]], (13, 13), 13)
        with pytest.raises(ValueError, match="singular"):
            check.tail([1, 2])

    @pytest.mark.parametrize("bad", [1.5, True, "1", None])
    def test_refuses_a_symbol_that_is_not_an_int(self, code31_tau2, bad):
        with pytest.raises(ValueError, match="is not an integer"):
            systematic_encode(code31_tau2, [bad] + [2] * 12)

    def test_refuses_a_message_of_another_length(self, code31_tau2):
        with pytest.raises(ValueError, match="message length 12 != 13"):
            systematic_encode(code31_tau2, [1] * 12)


def _min_lee_distance(code: BerlekampCode) -> int:
    """Enumerate the whole code through its systematic encoder."""
    import itertools

    p = code.field.p
    k = code.dimension
    best = None
    for msg in itertools.product(range(p), repeat=k):
        if all(v == 0 for v in msg):
            continue
        w = lee_weight(systematic_encode(code, list(msg)), code.field)
        best = w if best is None else min(best, w)
    return best


class TestMinimumDistance:
    @pytest.mark.parametrize(
        "p,n,tau",
        [(5, 2, 1), (7, 3, 1), (11, 5, 2), (13, 5, 2), (13, 6, 2)],
    )
    def test_designed_distance(self, p, n, tau):
        code = BerlekampCode(PrimeField(p), tuple(range(1, n + 1)), tau=tau)
        assert _min_lee_distance(code) >= 2 * tau + 1


class TestDispatch:
    def test_bounded_dispatch(self, code31_tau1, code31_tau2):
        e = [0] * 15
        e[3] = 1
        assert error_vector(15, locate_key_equation(code31_tau1, code31_tau1.syndrome(e))) == e
        e[7] = -1
        assert error_vector(15, locate_key_equation(code31_tau2, code31_tau2.syndrome(e))) == e

    def test_bounded_tau3_uses_key_equation(self):
        code = BerlekampCode(PrimeField(23), tuple(range(1, 9)), tau=3)
        for e in ([0, 1, 0, -1, 0, 0, 1, 0], [0, 0, 3, 0, 0, 0, 0, 0]):
            syn = code.syndrome(e)
            assert error_vector(8, locate_key_equation(code, syn)) == e


class TestKeyEquationDecoder:
    @pytest.mark.parametrize(
        "p,beta,tau",
        [(31, range(1, 16), 1), (31, range(1, 16), 2), (31, range(1, 16), 3),
         (31, ALPHA15, 3), (23, range(1, 12), 3), (13, range(1, 7), 3), (17, range(1, 9), 4)],
    )
    def test_inverts_every_in_budget_error(self, p, beta, tau):
        code = BerlekampCode(PrimeField(p), tuple(beta), tau=tau)
        for e in iter_l1_errors(code.n, tau, include_zero=True):
            assert error_vector(code.n, locate_key_equation(code, code.syndrome(e))) == e

    @pytest.mark.parametrize("p,n,tau", [(23, 11, 3), (13, 6, 3), (17, 8, 4), (31, 15, 2)])
    def test_random_syndromes_match_oracle(self, p, n, tau):
        # most random syndromes lie beyond the budget: None, or the oracle's error
        code = BerlekampCode(PrimeField(p), tuple(range(1, n + 1)), tau=tau)
        rng = random.Random(p * n + tau)
        for _ in range(60):
            syn = tuple(rng.randrange(p) for _ in range(tau))
            got = error_vector(n, locate_key_equation(code, syn))
            assert got == decode_exhaustive(code, syn)


def _l1_table(code):
    """Every error of L1 weight <= tau by its syndrome."""
    table = defaultdict(list)
    for e in iter_l1_errors(code.n, code.tau, include_zero=True):
        table[code.syndrome(e)].append(e)
    return table


class TestEverySyndrome:
    """locate_key_equation on every syndrome in GF(p)^tau, against a table
    of every error within the budget tau: the error a syndrome has is
    returned, no error gives None, and no two errors share a syndrome."""

    CODES = [(13, range(1, 7)), (23, range(1, 12)), (31, range(1, 16))]

    @pytest.mark.parametrize("p,beta", CODES)
    def test_matches_the_l1_table(self, p, beta):
        code = BerlekampCode(PrimeField(p), tuple(beta), tau=3)
        table = _l1_table(code)
        for syn in itertools.product(range(p), repeat=3):
            errors = table.get(syn, [])
            got = error_vector(code.n, locate_key_equation(code, syn))
            if len(errors) == 1:
                assert got == errors[0], syn
            else:
                assert not errors and got is None, syn

    @pytest.mark.parametrize("p,beta", CODES)
    def test_tau2_matches_the_l1_table(self, p, beta):
        # errors of weight <= 2 are read off S_1 and S_3 with no key
        # equation
        code = BerlekampCode(PrimeField(p), tuple(beta), tau=2)
        table = _l1_table(code)
        for syn in itertools.product(range(p), repeat=2):
            errors = table.get(syn, [])
            got = error_vector(code.n, locate_key_equation(code, syn))
            if len(errors) == 1:
                assert got == errors[0], syn
            else:
                assert not errors and got is None, syn


class TestLocateBoundary:
    # each budget's decoder once read only its leading components (or raised
    # IndexError); a syndrome without one component per check is refused
    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_refuses_a_short_syndrome(self, tau):
        code = BerlekampCode(PrimeField(23), tuple(range(1, 12)), tau=tau)
        syn = (1,) * (tau - 1)
        with pytest.raises(ValueError, match=f"need {tau} syndrome components, got {tau - 1}"):
            locate_key_equation(code, syn)

    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_refuses_a_long_syndrome(self, tau):
        code = BerlekampCode(PrimeField(23), tuple(range(1, 12)), tau=tau)
        with pytest.raises(ValueError, match=f"need {tau} syndrome components, got {tau + 1}"):
            locate_key_equation(code, tuple(range(1, tau + 2)))

    def test_double_error_vector_refuses_a_syndrome_of_the_wrong_length(self, code31_tau2):
        with pytest.raises(ValueError, match="need 2 syndrome components, got 1"):
            decode_double_error(code31_tau2, (1,))
        with pytest.raises(ValueError, match="need 2 syndrome components, got 3"):
            decode_double_error(code31_tau2, (1, 1, 7))
