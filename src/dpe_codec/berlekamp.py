"""Lee-metric linear codes over GF(p) checked at odd locator powers.

A code instance is the right kernel of the tau x n check matrix whose rows
are beta_j, beta_j^3, ..., beta_j^(2*tau-1); with nonzero, distinct,
pairwise non-negating locators beta the minimum Lee distance is at least
2*tau + 1.  Each decoder, a `locate_*` function, returns the error it
found as sparse hits (`core.Hits`): `(position, signed value)` pairs with
each value the nonzero Lee-lifted error, each position once, () for a
zero syndrome, or None for an uncorrectable one.  `decode_double_error`
alone also writes its hits out as a length-n error vector; no read goes
through it.

The codes are decoded algebraically at any budget by two decoders.  The
key-equation decoder serves every budget, tau = 1 included (Roth &
Siegel, "Lee-metric BCH codes and their application to constrained and
partial-response channels", IEEE Trans. IT, 1994); a closed form serves
tau = 2 at the full budget, solving a quadratic built from the two
syndrome components; `locate_bounded` picks between them.  The
key-equation locate step scans each pair of points +-beta once, from
inverses each code keeps, and reads the last point off the sum of the
others, so a single error (a linear locator) needs no scan.  The
exhaustive decoder, the ground truth these are checked against, lives in
`oracles`.

A code is built as whole arrays: its locators reduced mod p at once and
tested on a sorted copy, its power columns one running product (beta,
then times beta^2 mod p), int64 while p^2 < 2^63, else Python ints.  What
the decoders touch (`beta`, the value index, `power_cols`) is Python ints.
The checks form one `core.CheckMatrix` (`BerlekampCode.check`), built on
first use for the alphabet of the vectors it checks: the double-error
schemes' pair code, which only the closed form decodes, never builds it.
The large-alphabet scheme's reads multiply it directly, in the int64
kernel where it decides so, and the recursive scheme folds its codes'
checks into one matrix of its own.  `syndrome` admits a word of ints or
an integer array (`core.field_symbols`) and multiplies it.
`systematic_encode` fills a codeword's tau redundancy symbols from its
head's syndromes (`CheckMatrix.tail`), for one message or for a block of
them in one product.
"""

from __future__ import annotations

from functools import cached_property
from operator import countOf, mul
from typing import Sequence

import numpy as np

from .basemath import PrimeField, gfp_inv, gfp_quadratic_roots
from .core import (
    INT64_BOUND,
    CheckMatrix,
    Hits,
    error_vector,
    field_symbols,
    int_dtype,
    systematic_word,
)
from .gfpoly import inverses, poly_roots, poly_trim, solve_key_equation
# decode_exhaustive stays bound here: bench/tracing.py traces it under this module.
from .oracles import decode_exhaustive


class BerlekampCode:
    """Check-matrix data for one code instance.

    Locators are ints, a sequence or an integer array, taken mod p; with
    `validate` they must be nonzero, distinct and pairwise non-negating,
    and a refusal names the first locator, in order, whose negation is
    another.  `check` holds the checks for vectors with entries in
    [0, bound) (by default field elements, bound p; a scheme passes its
    read alphabet).  A budget tau above the length n leaves no codeword but
    0 and is refused, unless the code serves only for its checks and locate
    step (`check_only`).
    """

    def __init__(
        self,
        field: PrimeField,
        beta: Sequence[int] | np.ndarray,
        tau: int,
        validate: bool = True,
        bound: int | None = None,
        check_only: bool = False,
    ):
        if tau < 1:
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
        if validate:
            refusal = _locator_refusal(self._beta, p)
            if refusal:
                raise ValueError(refusal)
        self.beta = tuple(self._beta.tolist())
        self._index = dict(zip(self.beta, range(self.n)))
        # Newton's recursion in the key-equation decoder multiplies by
        # -2/m for m = 1 .. 2tau-1.
        self._newton = [-2 * v % p for v in inverses(range(1, 2 * tau), p)]

    @cached_property
    def check(self) -> CheckMatrix:
        """The tau odd-power checks for vectors with entries in [0, bound):
        row v holds beta_j^(2v+1) mod p, one running product over the
        locators (beta, then times beta^2).  Built on first use, so a code
        that only the closed form decodes never builds it."""
        p = self.field.p
        powers = np.empty((self.tau, self.n), self._dtype)
        powers[0] = self._beta
        square = self._beta * self._beta % p
        for v in range(1, self.tau):
            powers[v] = powers[v - 1] * square % p
        return CheckMatrix(powers, (p,) * self.tau, self._bound)

    @cached_property
    def power_cols(self) -> list[tuple[int, ...]]:
        """power_cols[v][j] = beta_j^(2v+1) mod p, Python ints."""
        return list(self.check.rows)

    @cached_property
    def _scan(self) -> tuple[tuple[int, int, int], ...]:
        """The key-equation decoder's scan table: each pair of points +-b
        an error can put in the locator once (the smaller of two negating
        locators stands for both), with 1/b^2 and 1/b.  Built on the first
        scan, so codes that only the closed form decodes never build it."""
        p = self.field.p
        pairs = [b for b in self._index if b and not (p - b < b and p - b in self._index)]
        return tuple((b, w * w % p, w) for b, w in zip(pairs, inverses(pairs, p)))

    @property
    def redundancy(self) -> int:
        return self.tau  # the check matrix has full rank tau

    @property
    def dimension(self) -> int:
        return self.n - self.tau

    def locator_index(self, value: int) -> int | None:
        return self._index.get(value % self.field.p)

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


def _unit_error(code: BerlekampCode, x: int) -> tuple[int, int] | None:
    """(position, +-1) of the locator x or -x, if either is one."""
    j = code.locator_index(x)
    if j is not None:
        return j, 1
    j = code.locator_index(code.field.p - x)
    if j is not None:
        return j, -1
    return None


def _check_components(code: BerlekampCode, syn: Sequence[int]) -> None:
    if len(syn) != code.tau:
        raise ValueError(f"need {code.tau} syndrome components, got {len(syn)}")


def locate_double_error(code: BerlekampCode, syn: Sequence[int]) -> Hits | None:
    """The hits of an error of Lee weight <= 2 (tau = 2 codes).

    Hypotheses tried in turn: no error; one +-1 error (s2 == s1^3); a +-2
    error at one position; +-1 errors at two positions via the quadratic
    whose roots are the signed locator contributions.  The weight classes
    have disjoint syndrome sets, so the order does not matter.
    """
    if code.tau != 2:
        raise ValueError("double-error decoding needs a base-field tau=2 code")
    _check_components(code, syn)
    p = code.field.p
    field = code.field
    s1, s2 = syn[0] % p, syn[1] % p
    if s1 == 0 and s2 == 0:
        return ()
    if s1 == 0:
        # A weight <= 2 error always leaves a nonzero first component.
        return None

    if s2 == pow(s1, 3, p):
        hit = _unit_error(code, s1)
        if hit is not None:
            return (hit,)

    half = gfp_inv(2, field)
    g = s1 * half % p
    j = code.locator_index(g)
    if j is not None and s2 == 2 * pow(g, 3, p) % p:
        return ((j, 2),)
    j = code.locator_index(p - g)
    if j is not None and s2 == (-2) * pow(p - g, 3, p) % p:
        return ((j, -2),)

    # Two distinct positions: x^2 - s1*x + (s1^2 - s2/s1)/3 has roots
    # e_i*beta_i and e_j*beta_j.
    c0 = (s1 * s1 - s2 * gfp_inv(s1, field)) % p * gfp_inv(3, field) % p
    roots = gfp_quadratic_roots(-s1, c0, field)
    if not roots:
        return None

    if len(roots) == 1:
        # Double root: only consistent with a pair of locators negating
        # each other (possible only in suffix-ambiguous embeddings).
        (r,) = roots
        i = code.locator_index(r)
        j = code.locator_index(p - r)
        if i is None or j is None or i == j:
            return None
        return ((i, 1), (j, -1))

    r1, r2 = sorted(roots)
    hit1, hit2 = _unit_error(code, r1), _unit_error(code, r2)
    if hit1 is None or hit2 is None or hit1[0] == hit2[0]:
        return None
    return hit1, hit2


def decode_double_error(code: BerlekampCode, syn: Sequence[int]) -> list[int] | None:
    """`locate_double_error` as a length-n error vector."""
    return error_vector(code.n, locate_double_error(code, syn))


def _scan_points(code: BerlekampCode, a: list[int], b: list[int], count: int) -> list[int] | None:
    """The first `count` points of Lambda = A(x^2) + x B(x^2) over the
    code's pairs +-beta (all of them, if fewer), or None where both signs
    of a pair are points: no error puts both in Lambda."""
    p = code.field.p
    a, b = a[::-1], b[::-1]  # Horner's order
    points = []
    for beta, u, w in code._scan:
        x = y = 0
        for c in a:
            x = x * u + c
        for c in b:
            y = y * u + c
        x %= p
        y = y * w % p
        if x == y:  # Lambda(-1/beta) = 0
            if not x:
                return None
            points.append(p - beta)
        elif x + y == p:  # Lambda(1/beta) = 0
            points.append(beta)
        else:
            continue
        if len(points) == count:
            break
    return points


def locate_key_equation(
    code: BerlekampCode, syn: Sequence[int], budget: int | None = None
) -> Hits | None:
    """The hits of the unique error of L1 weight <= budget with syndrome
    `syn`, or None.

    The error puts beta_j into a locator polynomial Lambda e_j times when
    e_j > 0, and -beta_j |e_j| times when e_j < 0, so the odd syndromes are
    the odd power sums of Lambda's points and fix
    Lambda(x) / Lambda(-x) = exp(-2 * sum_{k odd} S_k x^k / k) mod x^(2*budget).
    Splitting Lambda = A(x^2) + x B(x^2) turns this into the Pade problem
    B = A * H mod z^budget, solved by Euclid.

    The points are the reciprocals of Lambda's roots, and they sum to
    -B(0)/A(0) with multiplicity.  The scan takes each pair +-beta once:
    with u = 1/beta^2 and w = 1/beta from the code's table,
    Lambda(+-1/beta) = A(u) +- w B(u), so two short Horner evaluations test
    both signs.  It stops at deg Lambda - 1 points, and the last is read off
    from the sum; a linear Lambda's one point is read off with no scan.
    Only when the scan falls short are multiplicities found by deflating
    at the points it found.  The error is checked against every syndrome
    component.  A point shared by two negating locators (codes built
    without validation) leaves the error undetermined: None.
    """
    _check_components(code, syn)
    t = code.tau if budget is None else budget
    if not 1 <= t <= code.tau:
        raise ValueError(f"budget must be in [1, {code.tau}], got {t}")
    p = code.field.p
    syn = [s % p for s in syn]
    if not any(syn):
        return ()
    # Psi = Lambda(x) / Lambda(-x) through x^(2t-1): Psi' = f' Psi gives
    # m psi_m = -2 * sum_{k odd <= m} S_k psi_(m-k).
    psi = [1]
    for m, factor in enumerate(code._newton[: 2 * t - 1], 1):
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
    degree = max(2 * len(a) - 2, 2 * len(b) - 1)
    if degree == 0:
        return None  # no point, but a nonzero syndrome
    points = _scan_points(code, a, b, degree - 1) if degree > 1 else []
    if points is None:
        return None
    if len(points) == degree - 1:
        # The points sum to -b0/a0 with multiplicity: read the last one off.
        roots = dict.fromkeys(points, 1)
        last = (-(b[0] if b else 0) * pow(a[0], -1, p) - sum(points)) % p
        roots[last] = roots.get(last, 0) + 1
    else:
        # Lambda up to a constant factor; the points are the roots of the
        # reversed polynomial.
        lam = [0] * (2 * max(len(a), len(b)))
        lam[0 : 2 * len(a) : 2] = a
        lam[1 : 2 * len(b) : 2] = b
        roots = poly_roots(poly_trim(lam)[::-1], points, p)
        if roots is None:
            return None
    hits: dict[int, int] = {}
    for x, mult in roots.items():
        j, negated = code._index.get(x), code._index.get(p - x)
        if (j is None) == (negated is None):
            return None  # not a point, or one that two negating locators share
        if j is None:
            j, mult = negated, -mult
        hits[j] = mult
    if any(code.check.less(syn, hits.items())):
        return None
    return tuple(hits.items())


def locate_bounded(code: BerlekampCode, syn: Sequence[int], budget: int | None = None) -> Hits | None:
    """The closed form for a tau = 2 code at its full budget, else the
    key-equation decoder; each refuses a syndrome without one component
    per check."""
    if code.tau == 2 and budget in (None, 2):
        return locate_double_error(code, syn)
    return locate_key_equation(code, syn, budget)


def systematic_encode(code: BerlekampCode, message: Sequence[int] | np.ndarray):
    """Extend a length-(n - tau) message of ints to a zero-syndrome
    codeword, reduced mod p: the tau redundancy symbols fill the tail
    (`CheckMatrix.tail`), which raises ValueError where the last tau
    locators give a singular block.  An l x (n - tau) integer array of
    messages gives the l x n array of codewords (`core.systematic_word`,
    with the head's components from `BerlekampCode.syndrome`)."""
    return systematic_word(code.check, message, code.dimension, code.syndrome)
