import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpe_codec.basemath import (
    PrimeField,
    ceil_log,
    gfp_inv,
    gfp_quadratic_roots,
    gfp_solve,
    gfp_sqrt,
    hamming_dist,
    is_prime,
    jacobsthal_weight,
    jacobsthal_weights,
    l1_norm,
    next_prime,
    signed_value,
    sphere_volume_l1,
    _tonelli_shanks,
)
from dpe_codec.oracles import (
    base_q_digits,
    base_q_value,
    compositions,
    digit_planes,
    iter_l1_errors,
    mixed_radix_digits,
)


def mixed_radix_value(digits, weights):
    return sum(d * w for d, w in zip(digits, weights, strict=True))


def lee_abs(z, field):
    """Lee absolute value: min(z, p - z)."""
    return abs(signed_value(z % field.p, field))


class TestDigits:
    def test_known_expansions(self):
        assert base_q_digits(23, 2, 5) == [1, 1, 1, 0, 1]
        assert base_q_digits(0, 7, 3) == [0, 0, 0]
        assert base_q_digits(29, 2, 5) == [1, 0, 1, 1, 1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            base_q_digits(32, 2, 5)
        with pytest.raises(ValueError):
            base_q_digits(-1, 2, 5)

    @pytest.mark.parametrize("q,m", [(2, 10), (3, 7), (5, 5), (10, 4)])
    def test_roundtrip_exhaustive(self, q, m):
        for x in range(q**m):
            assert base_q_value(base_q_digits(x, q, m), q) == x

    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=10**6))
    def test_roundtrip_random(self, q, x):
        m = ceil_log(q, x + 1) + 1
        assert base_q_value(base_q_digits(x, q, m), q) == x

    def test_digit_planes_are_plane_major(self):
        # 5 = 12 and 7 = 21 in base 3: the low digits first, then the high
        assert digit_planes([5, 7], 3, 2) == [2, 1, 1, 2]
        assert digit_planes([], 3, 2) == []
        with pytest.raises(ValueError):
            digit_planes([9], 3, 2)


class TestMixedRadix:
    def test_known_weights(self):
        assert jacobsthal_weight(8, 1) == 7
        assert jacobsthal_weight(8, 2) == 57
        assert jacobsthal_weights(4, 5) == [1, 3, 13, 51, 205]

    @pytest.mark.parametrize("q", [4, 6, 8, 10])
    def test_weights_odd_and_recurrent(self, q):
        weights = jacobsthal_weights(q, 8)
        assert weights[0] == 1
        for j, w in enumerate(weights):
            assert w % 2 == 1
            if j > 0:
                assert w == (q - 1) * sum(weights[:j]) + (1 if j % 2 == 0 else 0)

    def test_rejects_odd_base(self):
        with pytest.raises(ValueError):
            jacobsthal_weight(3, 1)
        with pytest.raises(ValueError):
            jacobsthal_weight(2, 1)

    def test_zero(self):
        assert mixed_radix_digits(0, (1, 7), 8) == [0, 0]

    def test_two_digit_case_against_search(self):
        # independent oracle: exhaustive search over all digit pairs
        matches = [
            (b0, b1)
            for b0 in range(8)
            for b1 in range(8)
            if b0 * 1 + b1 * 7 == 55
        ]
        assert matches == [(6, 7)]
        assert mixed_radix_digits(55, (1, 7), 8) == [6, 7]

    def test_four_digit_case_against_search(self):
        weights = (1, 3, 13, 51)
        digits = mixed_radix_digits(202, weights, 4)
        assert all(0 <= d < 4 for d in digits)
        assert mixed_radix_value(digits, weights) == 202
        solutions = [
            (b0, b1, b2, b3)
            for b0 in range(4)
            for b1 in range(4)
            for b2 in range(4)
            for b3 in range(4)
            if b0 + 3 * b1 + 13 * b2 + 51 * b3 == 202
        ]
        assert tuple(digits) in solutions

    @pytest.mark.parametrize("q,m", [(4, 4), (8, 3)])
    def test_total_range_roundtrip(self, q, m):
        weights = jacobsthal_weights(q, m)
        top = (q - 1) * sum(weights)
        for x in range(top + 1):
            digits = mixed_radix_digits(x, weights, q)
            assert all(0 <= d < q for d in digits)
            assert mixed_radix_value(digits, weights) == x
        with pytest.raises(ValueError):
            mixed_radix_digits(top + 1, weights, q)


class TestMetrics:
    def test_l1(self):
        assert l1_norm((0, 0, 0)) == 0
        assert l1_norm((1, -1, 0)) == 2
        pattern = [0] * 15
        pattern[5], pattern[13] = -1, 1
        assert l1_norm(pattern) == 2

    def test_hamming(self):
        assert hamming_dist((1, 2, 3), (1, 2, 3)) == 0
        assert hamming_dist((0, 0, 0), (0, 5, 0)) == 1
        with pytest.raises(ValueError):
            hamming_dist((1, 2), (1, 2, 3))


class TestSphereVolume:
    def test_radius_one(self):
        for n in (1, 2, 3, 10, 50):
            assert sphere_volume_l1(n, 1) == 2 * n + 1

    def test_radius_zero(self):
        assert sphere_volume_l1(5, 0) == 1

    def test_three_two(self):
        # enumerate v in {-2..2}^3 with |v|_1 <= 2
        count = sum(
            1
            for a in range(-2, 3)
            for b in range(-2, 3)
            for c in range(-2, 3)
            if abs(a) + abs(b) + abs(c) <= 2
        )
        assert count == 25
        assert sphere_volume_l1(3, 2) == 25

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [0, 1, 2, 3])
    def test_matches_enumeration(self, n, t):
        patterns = sum(1 for _ in iter_l1_errors(n, t)) if t else 0
        assert sphere_volume_l1(n, t) == patterns + 1

    def test_compositions(self):
        assert sorted(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
        assert list(compositions(3, 3)) == [(1, 1, 1)]


class TestPrimes:
    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101, 4999}
        for n in range(2, 200):
            assert is_prime(n) == all(n % d for d in range(2, n)) or n in primes
        assert is_prime(2**31 - 1)
        assert not is_prime(2**32 - 1)

    def test_next_prime(self):
        assert next_prime(21) == 23
        assert next_prime(23) == 23
        assert next_prime(1) == 2


class TestPrimeField:
    def test_rejects_bad_modulus(self):
        for bad in (1, 2, 4, 9, 15):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_inverse_known(self):
        f31 = PrimeField(31)
        assert gfp_inv(29, f31) == 15
        assert gfp_inv(3, f31) == 21
        assert gfp_inv(1, PrimeField(101)) == 1
        with pytest.raises(ZeroDivisionError):
            gfp_inv(0, f31)

    @pytest.mark.parametrize("p", [3, 5, 31, 101])
    def test_inverse_exhaustive(self, p):
        field = PrimeField(p)
        for a in range(1, p):
            assert a * gfp_inv(a, field) % p == 1

    def test_quadratic_known(self):
        f31 = PrimeField(31)
        assert gfp_quadratic_roots(2, 13, f31) == {8, 21}
        assert gfp_quadratic_roots(0, 0, PrimeField(7)) == {0}
        # x^2 = -1 has no root mod 31 (31 = 3 mod 4)
        brute = {x for x in range(31) if (x * x + 1) % 31 == 0}
        assert brute == set()
        assert gfp_quadratic_roots(0, 1, f31) == set()

    def test_quadratic_matches_exhaustive(self):
        # every (b, c) pair for odd primes through 31
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            field = PrimeField(p)
            for b in range(p):
                for c in range(p):
                    brute = {x for x in range(p) if (x * x + b * x + c) % p == 0}
                    assert gfp_quadratic_roots(b, c, field) == brute
        # strided coverage for the remaining primes through 101
        for p in (37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101):
            field = PrimeField(p)
            for b in range(0, p, 5):
                for c in range(0, p, 7):
                    brute = {x for x in range(p) if (x * x + b * x + c) % p == 0}
                    assert gfp_quadratic_roots(b, c, field) == brute

    @pytest.mark.parametrize("p", [13, 101, 9973, 31, 1031])
    def test_sqrt_paths_agree(self, p):
        field = PrimeField(p)
        for a in range(1, p, max(1, p // 60)):
            exhaustive = next((x for x in range(p) if x * x % p == a), None)
            fast = _tonelli_shanks(a, p) if exhaustive is not None else None
            got = gfp_sqrt(a, field)
            if exhaustive is None:
                assert got is None
            else:
                assert got is not None and got * got % p == a
                assert fast * fast % p == a

    def test_sqrt_large_modulus(self):
        p = next_prime(10_001)
        field = PrimeField(p)
        for a in (2, 123, 4567):
            sq = a * a % p
            root = gfp_sqrt(sq, field)
            assert root is not None and root * root % p == sq

    def test_signed_value_known(self):
        f31 = PrimeField(31)
        assert signed_value(21, f31) == -10
        assert signed_value(0, PrimeField(7)) == 0
        assert signed_value(8, f31) == 8

    @pytest.mark.parametrize("p", [3, 5, 31, 101])
    def test_signed_value_bijection(self, p):
        field = PrimeField(p)
        images = {signed_value(z, field) for z in range(p)}
        assert images == set(range(-(p - 1) // 2, (p - 1) // 2 + 1))
        for z in range(p):
            assert abs(signed_value(z, field)) == min(z, p - z) == lee_abs(z, field)


class TestLinearSolve:
    def test_known_system(self):
        # over GF(7): x + 2y = 5, 3x + y = 4  ->  x=3, y=1? check: 3+2=5 ok, 9+1=10=3 no.
        # solve honestly instead: verify by substitution.
        sol = gfp_solve([[1, 2], [3, 1]], [5, 4], 7)
        assert sol is not None
        x, y = sol
        assert (x + 2 * y) % 7 == 5
        assert (3 * x + y) % 7 == 4

    def test_singular(self):
        assert gfp_solve([[1, 2], [2, 4]], [1, 0], 5) is None

    @given(st.integers(min_value=0, max_value=10))
    @settings(max_examples=25)
    def test_random_roundtrip(self, seed):
        import random

        rng = random.Random(seed)
        p = 13
        size = rng.randint(1, 4)
        matrix = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
        x = [rng.randrange(p) for _ in range(size)]
        rhs = [sum(matrix[i][j] * x[j] for j in range(size)) % p for i in range(size)]
        sol = gfp_solve(matrix, rhs, p)
        if sol is not None:
            back = [sum(matrix[i][j] * sol[j] for j in range(size)) % p for i in range(size)]
            assert back == rhs


class TestIterL1Errors:
    def test_counts(self):
        for n, t in [(1, 3), (3, 2), (4, 3)]:
            seen = list(tuple(e) for e in iter_l1_errors(n, t))
            assert len(seen) == len(set(seen))
            assert len(seen) == sphere_volume_l1(n, t) - 1
            assert all(1 <= l1_norm(e) <= t for e in seen)
