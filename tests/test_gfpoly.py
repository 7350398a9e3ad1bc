import random

from dpe_codec.gfpoly import (
    inverses,
    pair_table,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_roots,
    poly_trim,
    scan_pairs,
    solve_key_equation,
)

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


def test_roots_with_multiplicity():
    # (x - 2)^3 (x - 5) (x - 11)
    a = [1]
    for root in (2, 2, 2, 5, 11):
        a = poly_mul(a, [-root % P, 1], P)
    assert poly_roots(a, range(P), P) == {2: 3, 5: 1, 11: 1}
    assert all(poly_eval(a, x, P) == 0 for x in (2, 5, 11))
    # 5 and 11 outside the candidates: only 11, the last linear factor, is read off
    assert poly_roots(a, [2, 3], P) is None
    assert poly_roots(poly_mul([-5 % P, 1], [-11 % P, 1], P), [5], P) == {5: 1, 11: 1}
    assert poly_roots([3], range(P), P) == {}


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
