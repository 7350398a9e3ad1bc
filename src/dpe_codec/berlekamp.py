"""Lee-metric linear codes over GF(p) checked at odd locator powers.

A code instance is the right kernel of the tau x n check matrix whose rows
are beta_j, beta_j^3, ..., beta_j^(2*tau-1).  Its locators beta must be
nonzero, distinct and pairwise non-negating, so the minimum Lee distance
is at least 2*tau + 1.  The decoder, `locate_key_equation`, returns the
error it found as sparse hits (`core.Hits`): `(position, signed value)`
pairs with each value the nonzero Lee-lifted error, each position once,
() for a zero syndrome, or None for an uncorrectable one.
`decode_double_error` alone also writes its hits out as a length-n error
vector; no read goes through it.

Every code is decoded algebraically at its full budget by one decoder,
`locate_key_equation` (Roth & Siegel, "Lee-metric BCH codes and their
application to constrained and partial-response channels", IEEE Trans.
IT, 1994).  An error of Lee weight <= 2, or <= 3 on a tau = 3 code, needs
no key equation: its locator is read off S_1, S_3 and S_5 in closed form
by Newton's identities (`_read_off`; Peterson, IRE Trans. IT, 1960), so
no read of a code with tau <= 3 solves a key equation, and a read with
one or two errors never scans.  A larger code goes to the key equation.
Either locator's points come from `gfpoly.locator_points`.  Every point
maps to a hit through `core.unit_error`, and one helper (`_hits`) checks
only the components the points do not meet by construction: none, on a
code with tau <= 3.  The exhaustive decoder, the ground truth it is
checked against, lives in `oracles`.

A code is built as whole arrays: its locators reduced mod p at once and
tested on a sorted copy, its power columns one running product (beta,
then times beta^2 mod p), int64 while p^2 < 2^63, else Python ints.  What
the decoders touch (`beta` and the value index) is Python ints.
The checks form one `core.CheckMatrix` (`BerlekampCode.check`), built on
first use for the alphabet of the vectors it checks: the double-error
schemes' pair code, whose two components meet any point read off them,
never builds it.
The large-alphabet scheme's reads multiply it directly, in the int64
kernel where it decides so, and the recursive scheme folds its codes'
checks into one matrix of its own.  `syndrome` admits a word of ints or
an integer array (`core.field_symbols`) and multiplies it.
`systematic_encode` fills a codeword's tau redundancy symbols from its
head's syndromes (`CheckMatrix.tail`), for one message or for a block of
them in one product.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from operator import countOf, mul
from typing import Sequence

import numpy as np

from .basemath import PrimeField
from .core import (
    INT64_BOUND,
    CheckMatrix,
    Hits,
    error_vector,
    field_symbols,
    int_dtype,
    require_int,
    systematic_word,
    unit_error,
)
from .gfpoly import inverses, locator_points, pair_table, poly_trim, solve_key_equation
# decode_exhaustive stays bound here: bench/tracing.py traces it under this module.
from .oracles import decode_exhaustive


class BerlekampCode:
    """Check-matrix data for one code instance.

    Locators are ints, a sequence or an integer array, taken mod p; they
    must be nonzero, distinct and pairwise non-negating, and a refusal
    names the first locator, in order, whose negation is another.  `check`
    holds the checks for vectors with entries in [0, bound) (by default
    field elements, bound p; a scheme passes its read alphabet).  A budget
    tau above the length n leaves no codeword but 0 and is refused, unless
    the code serves only for its checks and locate step (`check_only`).
    """

    def __init__(
        self,
        field: PrimeField,
        beta: Sequence[int] | np.ndarray,
        tau: int,
        bound: int | None = None,
        check_only: bool = False,
    ):
        if require_int("tau", tau) < 1:
            raise ValueError(f"error budget must be >= 1, got {tau}")
        if 2 * tau >= field.p:
            raise ValueError(f"need 2*tau < p, got tau={tau}, p={field.p}")
        self.field = field
        self.tau = tau
        self.n = len(beta)
        if self.n < 1:
            raise ValueError("code length must be >= 1")
        if tau > self.n and not check_only:
            raise ValueError(f"error budget {tau} exceeds the code length {self.n}")
        if isinstance(beta, np.ndarray) and beta.dtype != object:
            integers = beta.dtype.kind in "iu"  # the dtype stands for the type test
            fits = beta.dtype != np.uint64
        else:
            integers = countOf(map(type, beta), int) == self.n
            fits = integers and -INT64_BOUND <= min(beta) and max(beta) < INT64_BOUND
        if not integers:
            raise ValueError("locators must be integers")
        p = field.p
        self._bound = p if bound is None else bound
        # the residues in int64 while a product of two fits (p^2 < 2^63)
        self._dtype = int_dtype(p * p)
        beta = np.asarray(beta, self._dtype if fits else object) % p
        self._beta = beta.astype(self._dtype, copy=False)
        refusal = _locator_refusal(self._beta, p)
        if refusal:
            raise ValueError(refusal)
        self.beta = tuple(self._beta.tolist())
        self._index = dict(zip(self.beta, range(self.n)))
        # The scan table over the locators (an error puts b or -b in the
        # locator), built on the first call: `gfpoly.locator_points` calls it
        # only for a locator of degree >= 3, so a tau <= 2 code never builds it.
        self._pairs = cache(partial(pair_table, self._index, p))
        # The weight-3 read-off divides by 3 (p >= 7 at tau = 3); Newton's
        # recursion in the key-equation decoder multiplies by -2/m for
        # m = 1 .. 2tau-1.
        self._third = pow(3, -1, p) if tau == 3 else 0
        self._newton = [-2 * v % p for v in inverses(range(1, 2 * tau), p)]

    @cached_property
    def check(self) -> CheckMatrix:
        """The tau odd-power checks for vectors with entries in [0, bound):
        row v holds beta_j^(2v+1) mod p, one running product over the
        locators (beta, then times beta^2).  Built on first use, so the
        locate step of a code with tau <= 3, whose read-offs meet every
        component, never builds it."""
        p = self.field.p
        powers = np.empty((self.tau, self.n), self._dtype)
        powers[0] = self._beta
        square = self._beta * self._beta % p
        for v in range(1, self.tau):
            powers[v] = powers[v - 1] * square % p
        return CheckMatrix(powers, (p,) * self.tau, self._bound)

    @property
    def dimension(self) -> int:
        return self.n - self.tau

    def syndrome(self, y: Sequence[int] | np.ndarray) -> tuple | np.ndarray:
        """Components (s_1, s_2, ..) of a word of n ints (a bool is not one)
        or an integer array against the odd-power checks; an l x n array
        gives the l x tau array of its words' components.  The word is
        admitted and reduced mod p by `core.field_symbols`."""
        syn = self.check(field_symbols(y, self.n, self.field.p, "word"))
        return syn if isinstance(syn, np.ndarray) else tuple(syn)

    def zero_syndrome(self) -> tuple:
        return (0,) * self.tau


def _locator_refusal(beta: np.ndarray, p: int) -> str | None:
    """Why locators reduced mod p fail to be nonzero, distinct and pairwise
    non-negating, from sorted copies; None if they pass.  A negating pair
    is named by the first locator, in order, whose negation is another."""
    ordered = np.sort(beta)
    if ordered[0] == 0 or (ordered[1:] == ordered[:-1]).any():
        return "locators must be nonzero and distinct"
    negated = p - beta
    at = np.minimum(np.searchsorted(ordered, negated), len(beta) - 1)
    hit = np.flatnonzero(ordered[at] == negated)
    if len(hit):
        b = int(beta[hit[0]])
        return f"locators {b} and {p - b} negate each other"
    return None


def decode_double_error(code: BerlekampCode, syn: Sequence[int]) -> list[int] | None:
    """`locate_key_equation` on a tau = 2 code, as a length-n error vector."""
    if code.tau != 2:
        raise ValueError("double-error decoding needs a base-field tau=2 code")
    return error_vector(code.n, locate_key_equation(code, syn))


def locate_key_equation(code: BerlekampCode, syn: Sequence[int]) -> Hits | None:
    """The hits of the unique error of L1 weight <= tau with syndrome `syn`,
    or None.

    The error puts beta_j into a locator polynomial Lambda e_j times when
    e_j > 0, and -beta_j |e_j| times when e_j < 0, so the odd syndromes are
    the odd power sums of Lambda's points.  An error of weight <= 2, or
    <= 3 on a tau = 3 code, is read off S_1, S_3 and S_5 first
    (`_read_off`); where that finds none, a code with tau <= 3 gives None.
    A larger code solves the key equation: the power sums fix
    Lambda(x) / Lambda(-x) = exp(-2 * sum_{k odd} S_k x^k / k) mod x^(2*tau),
    which, splitting Lambda = A(x^2) + x B(x^2), turns into the Pade
    problem B = A * H mod z^tau, solved by Euclid.  Euclid's A and B share
    no factor but a power of z, so Lambda never has both 1/beta and -1/beta
    as roots.  Scaled to Lambda(0) = 1, it goes to `_hits`, which checks
    every component.
    """
    if len(syn) != code.tau:
        raise ValueError(f"need {code.tau} syndrome components, got {len(syn)}")
    t, p = code.tau, code.field.p
    syn = [s % p for s in syn]
    if not any(syn):
        return ()
    hits = _read_off(code, syn)
    if hits is not None or t <= 3:
        return hits
    # Psi = Lambda(x) / Lambda(-x) through x^(2t-1): Psi' = f' Psi gives
    # m psi_m = -2 * sum_{k odd <= m} S_k psi_(m-k).
    psi = [1]
    for m, factor in enumerate(code._newton, 1):
        psi.append(sum(map(mul, syn, psi[m - 1 :: -2])) * factor % p)
    # The odd part of Lambda(x) = Psi(x) Lambda(-x) reads B (1 + Psi_even)
    # = A Psi_odd, so H = Psi_odd / (1 + Psi_even), whose constant term is 2.
    odd, even = psi[1::2], psi[0::2]
    even[0] = 2
    half = (p + 1) // 2
    h: list[int] = []
    for i in range(t):
        h.append((odd[i] - sum(map(mul, even[1:], h[::-1]))) * half % p)
    a, b = solve_key_equation([0] * t + [1], h, (t + 1) // 2, p)
    if not a or a[0] == 0:
        return None
    lam = [0] * (2 * max(len(a), len(b)))
    lam[0 : 2 * len(a) : 2] = a
    lam[1 : 2 * len(b) : 2] = b
    scale = pow(a[0], -1, p)
    return _hits(code, syn, poly_trim([c * scale % p for c in lam]), 0)


def _read_off(code: BerlekampCode, syn: list[int]) -> Hits | None:
    """The hits of an error of Lee weight <= 2, or <= 3 on a tau = 3 code,
    whose locator is read off the reduced, nonzero syndrome's S_1, S_3 and
    S_5 in closed form (Peterson, IRE Trans. IT, 1960), or None.

    Points with elementary symmetric functions e_1, e_2, e_3 have, by
    Newton's identities, S_1 = e_1, S_3 = S_1^3 + 3c for c = e_3 - e_1 e_2,
    and S_5 = S_1^5 + 5 S_1^2 c - 5 c e_2, where the e_2^2 terms cancel.
    - c = 0 (S_3 = S_1^3) leaves one point, S_1: two points with c = 0
      negate each other, and so do two of three, which no error puts in
      Lambda.  A code with S_5 tests S_5 = S_1^5 in O(1); a tau = 1 code
      has no S_3 and takes this branch.
    - On a tau = 3 code, e_2 = (S_1^2 (S_3 + 2c) - S_5) / (5c) and
      e_3 = c + S_1 e_2 (zero for two points) give
      Lambda = 1 - e_1 x + e_2 x^2 - e_3 x^3.  As 2 tau < p, p >= 7, so 3
      and 5 are invertible, and 1/3 is cached per code.
    - Otherwise two points x, y (equal for a +-2 error) have S_1 = x + y
      and D = S_1^3 - S_3 = 3 S_1 xy, so Lambda = 1 - S_1 x + D/(3 S_1) x^2;
      S_1 = 0 would make x = -y.  A code past tau = 3 first tests their
      S_5 = S_1^5 - 5 S_1^3 xy + 5 S_1 (xy)^2 free of inverses:
      9 S_1 (S_5 - S_1^5) + (15 S_1^3 - 5 D) D = 0.

    The hits need no check of S_1, S_3 or S_5: `gfpoly.locator_points`
    returns points only where they account for Lambda's degree D with
    multiplicity (D - 1 distinct roots found force the last, read off
    their sum), so their elementary symmetric functions are Lambda's
    coefficients, and by Newton's identities their power sums are the S_1,
    S_3 and S_5 that Lambda was read off or tested against.  A hit +-1 at
    +-x adds x^(2v+1) to S_(2v+1) either way, so the hits meet those
    components.  `_hits` checks only the components past S_5: none where
    tau <= 3, and there one point is `core.unit_error`'s hit as it stands.
    """
    p = code.field.p
    s1 = syn[0]
    cube = s1 * s1 % p * s1 % p
    if len(syn) == 1 or syn[1] == cube:  # c = 0: one point, S_1
        if len(syn) < 3 or len(syn) == 3 and syn[2] == pow(s1, 5, p):
            hit = unit_error(code._index, p, s1)  # nothing past S_5 to check
            return None if hit is None else (hit,)
        if len(syn) == 3 or syn[2] != pow(s1, 5, p):
            return None
        lam = [1, -s1 % p]
    elif len(syn) == 3:
        c = (syn[1] - cube) * code._third % p
        e2 = (s1 * s1 % p * (syn[1] + 2 * c) - syn[2]) * pow(5 * c, -1, p) % p
        lam = poly_trim([1, -s1 % p, e2, -(c + s1 * e2) % p])
    else:
        d = cube - syn[1]
        gate = len(syn) > 3 and (9 * s1 * (syn[2] - pow(s1, 5, p)) + (15 * cube - 5 * d) * d) % p
        if not s1 or gate:
            return None
        lam = [1, -s1 % p, d * pow(3 * s1, -1, p) % p]
    return _hits(code, syn, lam, 3)


def _hits(code: BerlekampCode, syn: list[int], lam: list[int], known: int) -> Hits | None:
    """The hits that put the points of the locator `lam` (trimmed,
    Lambda(0) = 1; `gfpoly.locator_points`) in Lambda, each point's through
    `core.unit_error`, or None where the points fall short of its degree, a
    point is no locator's, or the hits leave a syndrome component past the
    first `known`, which the points meet by construction."""
    index, p = code._index, code.field.p
    points = locator_points(lam, code._pairs, code.field)
    if points is None:
        return None
    hits = []
    for x, mult in points.items():
        hit = unit_error(index, p, x)
        if hit is None:
            return None
        hits.append((hit[0], hit[1] * mult))
    if len(syn) > known and any(code.check.less(syn, hits)[known:]):
        return None
    return tuple(hits)


def systematic_encode(code: BerlekampCode, message: Sequence[int] | np.ndarray):
    """Extend a length-(n - tau) message of ints to a zero-syndrome
    codeword, reduced mod p: the tau redundancy symbols fill the tail
    (`CheckMatrix.tail`), whose block of the last tau locators' powers is
    never singular, as no two of those locators are equal or negate.  An
    l x (n - tau) integer array of messages gives the l x n array of
    codewords (`core.systematic_word`, with the head's components from
    `BerlekampCode.syndrome`)."""
    return systematic_word(code.check, message, code.dimension, code.syndrome)
