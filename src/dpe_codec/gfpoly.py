"""Polynomials over GF(p).

A polynomial is a list of ints in [0, p), lowest degree first, trimmed so
that its last coefficient is nonzero; the zero polynomial is the empty
list, of degree -1.  The Lee-metric decoder in ``berlekamp`` and the
Reed-Solomon decoder in ``hamming`` share these helpers.  A Lee code
with tau <= 3, and a Reed-Solomon read with no erasures and radius <= 3,
find their locator in closed form, so Euclid (`solve_key_equation`)
serves only Lee codes with tau >= 4 (past the errors of weight <= 2 they
read off) and Reed-Solomon reads with erasures or a radius past 3.

The two decoders' locate steps run on small polynomials (degree at most
the error budget) read by read, so they stay in pure Python: Euclid on
the key equation divides in place, and both decoders find a locator's
points with one function, `locator_points`, chosen by degree: read off,
the roots of a quadratic, or past that a scan (`scan_pairs`, over the
`pair_table` a code builds on its first scan) whose points are divided
out, the rest of the locator found the same way by its degree.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Callable, Iterable, Sequence

from .basemath import PrimeField, gfp_quadratic_roots


def poly_trim(a: list[int]) -> list[int]:
    """Drop trailing zero coefficients in place; returns `a`."""
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim([v % p for v in out])


def poly_eval(a: Sequence[int], x: int, p: int) -> int:
    """a(x) mod p by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def solve_key_equation(
    modulus: list[int], h: list[int], stop: int, p: int
) -> tuple[list[int], list[int]]:
    """Extended Euclid on (modulus, h), halted at the first remainder r of
    degree < stop; returns (t, r) with r == t * h mod modulus.

    Any (t', r') with r' == t' * h mod modulus, deg r' < stop and
    deg t' <= deg modulus - stop is then a polynomial multiple of (t, r)
    (Roth, Introduction to Coding Theory, ch. 6).

    Each step divides the older remainder by the newer one in place and,
    term by term of the quotient, subtracts the same multiple of the newer
    t from the older t, so no quotient or product is built.
    """
    r0, r1 = list(modulus), poly_trim([v % p for v in h])
    t0, t1 = [], [1]
    while len(r1) > stop:  # deg r1 >= stop
        deg = len(r1) - 1
        lead = pow(r1[-1], -1, p)
        shift = len(r0) - len(r1)
        t0 += [0] * (shift + len(t1) - len(t0))
        for i in range(shift, -1, -1):  # Python ints: reduce once per step
            coef = r0[i + deg] * lead % p
            if coef:
                for j in range(deg):  # r0[i + deg] cancels: it is dropped below
                    r0[i + j] -= coef * r1[j]
                for j, y in enumerate(t1):
                    t0[i + j] -= coef * y
        r0, r1 = r1, poly_trim([v % p for v in r0[:deg]])
        t0, t1 = t1, poly_trim([v % p for v in t0])
    return t1, r1


def inverses(xs: Iterable[int], p: int) -> list[int]:
    """The inverses mod p of nonzero xs, by one `pow` and running
    products (Montgomery's trick)."""
    xs = list(xs)
    prefix = [1]
    for x in xs:
        prefix.append(prefix[-1] * x % p)
    inv = pow(prefix[-1], -1, p)
    out = [0] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * xs[i] % p
    return out


def pair_table(points: dict | set, p: int) -> tuple[tuple[int, int, int], ...]:
    """The scan table of nonzero points mod p (a set, or a dict keyed by
    them): one entry (v, 1/v^2, 1/v) per pair +-v that holds a point, in
    the points' order, the smaller of two negating points standing for
    both."""
    pairs = [v for v in points if v and not (p - v < v and p - v in points)]
    return tuple((v, w * w % p, w) for v, w in zip(pairs, inverses(pairs, p)))


def scan_pairs(
    a: Sequence[int], b: Sequence[int], table: Sequence[tuple[int, int, int]], count: int, p: int
) -> list[int]:
    """The first `count` points x = +-v over the entries of a `pair_table`
    (all of them, if fewer; v before p - v) with Lambda(1/x) = 0, for
    Lambda = A(x^2) + x B(x^2).

    With u = 1/v^2 and w = 1/v, Lambda(+-1/v) = A(u) +- w B(u): one Horner
    loop over the paired coefficients (A_i, B_i), from the top pair, tests
    both signs."""
    terms = list(zip_longest(a, b, fillvalue=0))
    top_a, top_b = terms.pop()
    terms.reverse()
    points: list[int] = []
    for v, u, w in table:
        x, y = top_a, top_b
        for c, d in terms:
            x = x * u + c
            y = y * u + d
        x %= p
        y = y * w % p
        if x == y:  # Lambda(-1/v) = 0
            if not x:  # and Lambda(1/v) = 0
                points.append(v)
            points.append(p - v)
        elif x + y == p:  # Lambda(1/v) = 0
            points.append(v)
        else:
            continue
        if len(points) >= count:
            return points[:count]
    return points


def locator_points(
    lam: list[int], table: Callable[[], Sequence[tuple[int, int, int]]], field: PrimeField
) -> dict[int, int] | None:
    """The points of the locator Lambda (trimmed, Lambda(0) = 1), the
    reciprocals of its roots, with their multiplicities, or None where they
    fall short of its degree D.  They are the roots of the monic
    z^D Lambda(1/z): a linear Lambda's is -Lambda_1, a quadratic's are those
    of z^2 + Lambda_1 z + Lambda_2 (a double root counted twice).  Past
    that, `scan_pairs` over the code's pair table (`table()`, called only
    here) finds up to D - 1 distinct points, Lambda is divided by
    (1 - x z) once for each, and they are added to the quotient's points,
    found the same way by its degree; None where the scan finds none.  A
    point not scanned need not be a locator: the caller looks each one up."""
    p, degree = field.p, len(lam) - 1
    if degree < 2:
        return {-lam[1] % p: 1} if degree else {}
    if degree == 2:
        roots = gfp_quadratic_roots(lam[1], lam[2], field)
        if len(roots) == 1:
            return {roots.pop(): 2}
        return dict.fromkeys(roots, 1) if roots else None
    found = scan_pairs(lam[0::2], lam[1::2], table(), degree - 1, p)
    if not found:
        return None
    # Lambda / prod (1 - x z) over the distinct roots found is exact, so
    # only the quotient's own coefficients are needed: for each x in turn,
    # q_0 = 1 and q_i = Lambda_i + x q_(i-1), in place.
    quot = lam[: len(lam) - len(found)]
    steps = range(1, len(quot))
    for x in found:
        for i in steps:
            quot[i] = (quot[i] + x * quot[i - 1]) % p
    points = locator_points(quot, table, field)
    if points is not None:
        for x in found:
            points[x] = points.get(x, 0) + 1
    return points
