"""Polynomials over GF(p).

A polynomial is a list of ints in [0, p), lowest degree first, trimmed so
that its last coefficient is nonzero; the zero polynomial is the empty
list, of degree -1.  The Lee-metric decoder in ``berlekamp``, the
Reed-Solomon decoder in ``hamming`` and the extension-field arithmetic in
``basemath`` share these helpers.
"""

from __future__ import annotations

from typing import Iterable, Sequence


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


def poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero trimmed b."""
    lead = pow(b[-1], -1, p)
    rem = [v % p for v in a]
    shift = len(rem) - len(b)
    if shift < 0:
        return [], poly_trim(rem)
    quot = [0] * (shift + 1)
    for i in range(shift, -1, -1):
        coef = rem[i + len(b) - 1] * lead % p
        if coef:
            quot[i] = coef
            for j, y in enumerate(b):
                rem[i + j] = (rem[i + j] - coef * y) % p
    return poly_trim(quot), poly_trim(rem[: len(b) - 1])


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
    """
    r0, r1 = modulus, poly_trim(list(h))
    t0, t1 = [], [1]
    while len(r1) > stop:  # deg r1 >= stop
        quot, rem = poly_divmod(r0, r1, p)
        step = poly_mul(quot, t1, p)
        width = max(len(t0), len(step))
        t_next = [
            ((t0[i] if i < len(t0) else 0) - (step[i] if i < len(step) else 0)) % p
            for i in range(width)
        ]
        r0, r1, t0, t1 = r1, rem, t1, poly_trim(t_next)
    return t1, r1


def poly_roots(a: list[int], candidates: Iterable[int], p: int) -> dict[int, int] | None:
    """Roots of the nonzero polynomial a with their multiplicities.

    Scans `candidates` and divides out each root found.  Once a single
    linear factor is left, its root is read off without scanning, so the
    caller must check that root belongs to its candidate set.  Returns None
    when the roots found do not account for the whole degree of a.
    """
    roots: dict[int, int] = {}
    for x in candidates:
        if len(a) <= 2:
            break
        while len(a) > 1 and poly_eval(a, x, p) == 0:
            a, _ = poly_divmod(a, [-x % p, 1], p)
            roots[x] = roots.get(x, 0) + 1
    if len(a) == 2:
        x = -a[0] * pow(a[1], -1, p) % p
        roots[x] = roots.get(x, 0) + 1
    elif len(a) > 2:
        return None
    return roots
