import random

from dpe_codec.gfpoly import (
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_roots,
    poly_trim,
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
