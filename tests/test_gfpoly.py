import itertools
import random

from dpe_codec.basemath import PrimeField
from dpe_codec.gfpoly import (
    inverses,
    locator_points,
    pair_table,
    poly_eval,
    poly_mul,
    poly_trim,
    scan_pairs,
    solve_key_equation,
)
from dpe_codec.oracles import poly_divmod

P = 13


def _random_poly(rng, degree):
    return poly_trim([rng.randrange(P) for _ in range(degree)] + [rng.randrange(1, P)])


def test_divmod_inverts_mul():
    rng = random.Random(1)
    for _ in range(100):
        a, b = _random_poly(rng, rng.randrange(6)), _random_poly(rng, rng.randrange(4))
        r = [rng.randrange(P) for _ in range(len(b) - 1)]
        product = poly_mul(a, b, P) + [0, 0]  # an untrimmed dividend
        dividend = [(x + (r[i] if i < len(r) else 0)) % P for i, x in enumerate(product)]
        assert poly_divmod(dividend, b, P) == (a, poly_trim(r))


def _locator(points):
    """prod (1 - x z) over the points, a multiset: the roots are 1/x."""
    lam = [1]
    for x in points:
        lam = poly_mul(lam, [1, -x % P], P)
    return lam


FIELD = PrimeField(P)
TABLE = pair_table(dict.fromkeys(range(1, P)), P)


def _full_table():
    return TABLE


def test_roots_with_multiplicity():
    # (1 - 2z)^3 (1 - 5z) (1 - 11z): the scan finds 2, 5 and 11, each is
    # divided out once, and the quotient (1 - 2z)^2 is a double root
    lam = _locator((2, 2, 2, 5, 11))
    assert locator_points(lam, _full_table, FIELD) == {2: 3, 5: 1, 11: 1}
    assert all(poly_eval(lam[::-1], x, P) == 0 for x in (2, 5, 11))
    # 5 and 7 outside the table (its pairs are +-2 and +-3): each scan
    # finds only 2, once, until the quotient (1 - 5z) (1 - 7z) is a
    # quadratic, solved outright; the caller looks 5 and 7 up
    table = pair_table({2, 3}, P)
    assert locator_points(_locator((2, 2, 2, 5, 7)), lambda: table, FIELD) == {2: 3, 5: 1, 7: 1}
    # a cubic with one point in the table: the quotient's two are its roots
    assert locator_points(_locator((5, 7, 2)), lambda: pair_table({5}, P), FIELD) == {
        5: 1, 7: 1, 2: 1}
    # no point in the table
    assert locator_points(_locator((5, 7, 2)), lambda: pair_table({4}, P), FIELD) is None
    assert locator_points([1], _full_table, FIELD) == {}


def test_key_equation_congruence_and_stop():
    rng = random.Random(2)
    modulus = [0] * 6 + [1]
    for _ in range(100):
        h = [rng.randrange(P) for _ in range(6)]
        t, r = solve_key_equation(modulus, h, 3, P)
        assert len(r) - 1 < 3
        assert poly_divmod(poly_mul(t, h, P), modulus, P)[1] == r


def _euclid_by_division(modulus, h, stop, p):
    """Extended Euclid spelled out with poly_divmod and poly_mul."""
    r0, r1 = modulus, poly_trim(list(h))
    t0, t1 = [], [1]
    while len(r1) > stop:
        quot, rem = poly_divmod(r0, r1, p)
        step = poly_mul(quot, t1, p)
        width = max(len(t0), len(step))
        t_next = [
            ((t0[i] if i < len(t0) else 0) - (step[i] if i < len(step) else 0)) % p
            for i in range(width)
        ]
        r0, r1, t0, t1 = r1, rem, t1, poly_trim(t_next)
    return t1, r1


def test_key_equation_in_place_matches_division():
    # every shape the decoders use: x^m against h of degree < m, any stop,
    # and h with zero top coefficients
    rng = random.Random(3)
    for _ in range(400):
        m = rng.randrange(1, 9)
        modulus = [0] * m + [1]
        h = [rng.randrange(P) for _ in range(m)]
        if rng.random() < 0.3:
            cut = rng.randrange(m)
            h[cut:] = [0] * (m - cut)
        stop = rng.randrange(0, m + 1)
        assert solve_key_equation(modulus, h, stop, P) == _euclid_by_division(modulus, h, stop, P)


def test_inverses():
    assert inverses(range(1, P), P) == [pow(x, -1, P) for x in range(1, P)]
    assert inverses([5, 5, 12], P) == [8, 8, 12]
    assert inverses([], P) == []


def test_pair_table_has_one_entry_per_pair():
    # 1 and 12 negate mod 13, so 1 stands for both; 11 stands for 2
    table = pair_table({3: 0, 12: 1, 1: 2, 11: 3}, P)
    assert [v for v, _, _ in table] == [3, 1, 11]
    for v, u, w in table:
        assert v * w % P == 1 and u == w * w % P


def _split(lam):
    return lam[0::2], lam[1::2]


def test_scan_pairs_finds_the_roots_of_the_reciprocals():
    rng = random.Random(5)
    table = pair_table(dict.fromkeys(range(1, P)), P)
    for _ in range(200):
        points = rng.sample(range(1, P), rng.randrange(1, 5))
        lam = [1]  # prod (1 - x_i z): roots 1/x_i
        for x in points:
            lam = poly_mul(lam, [1, -x % P], P)
        found = scan_pairs(*_split(lam), table, P, P)
        assert sorted(found) == sorted(points)
        # both signs of a pair are reported, v before p - v
        count = rng.randrange(len(points) + 1)
        assert scan_pairs(*_split(lam), table, count, P) == found[:count]


def test_scan_pairs_reports_both_signs_of_a_pair():
    lam = poly_mul([1, P - 4], [1, 4], P)  # points 4 and 9 = 13 - 4
    assert scan_pairs(*_split(lam), pair_table({4, 9}, P), 2, P) == [4, 9]


def test_locator_points_finds_every_multiset_of_points():
    """Every multiset of up to five nonzero points mod 13 (a point may
    repeat up to five times, and both signs of a pair may appear) comes
    back exactly, over the full pair table."""
    for size in range(1, 6):
        for points in itertools.combinations_with_replacement(range(1, P), size):
            want = {}
            for x in points:
                want[x] = want.get(x, 0) + 1
            assert locator_points(_locator(points), _full_table, FIELD) == want, points


def test_locator_points_refuses_an_irreducible_quadratic_factor():
    # z^2 - 2 has no root mod 13 (2 is a non-residue), so neither does its
    # reciprocal 1 - 2 z^2, whatever it is multiplied by
    irreducible = [1, 0, P - 2]
    assert locator_points(irreducible, _full_table, FIELD) is None
    for size in range(1, 4):
        for points in itertools.combinations_with_replacement(range(1, P), size):
            lam = poly_mul(irreducible, _locator(points), P)
            assert locator_points(lam, _full_table, FIELD) is None, points
