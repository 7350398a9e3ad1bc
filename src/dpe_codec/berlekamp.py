"""Lee-metric linear codes over GF(p) checked at odd locator powers.

A code instance is the right kernel of the tau x n check matrix whose rows
are beta_j, beta_j^3, ..., beta_j^(2*tau-1); with nonzero, distinct,
pairwise non-negating locators beta the minimum Lee distance is at least
2*tau + 1.  Decoders return *signed integer* error vectors (each entry is
the Lee-lifted error value) or None for an uncorrectable syndrome.

Base-field codes are decoded algebraically at any budget: closed forms
serve tau = 1 and tau = 2 (the tau = 2 case solves a quadratic built from
the two syndrome components), and the key-equation decoder serves every
budget (Roth & Siegel, "Lee-metric BCH codes and their application to
constrained and partial-response channels", IEEE Trans. IT, 1994).  The
exhaustive decoder enumerates the L1 sphere; it is the ground-truth oracle
for cross-checking and the only decoder over extension fields.  Only tests
and the oracles call it, so its enumeration guard (raisable through
DPE_CODEC_GUARD_OVERRIDE) never refuses a production read.

A base-field code holds its checks as one `core.CheckMatrix`
(`BerlekampCode.check`), built for the alphabet of the vectors it checks.
A scheme passes its read alphabet, so that matrix also decides whether the
scheme's reads take the int64 kernel; `syndrome` multiplies either form.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .basemath import (
    ExtField,
    PrimeField,
    gfp_inv,
    gfp_quadratic_roots,
    gfp_solve,
    iter_l1_errors,
    sphere_volume_l1,
)
from .core import CheckMatrix, guard_limit
from .gfpoly import poly_roots, poly_trim, solve_key_equation

# Exhaustive decoding refuses to enumerate spheres larger than this.
ORACLE_VOLUME_GUARD = 10_000_000


class SyndromeAmbiguityError(RuntimeError):
    """Two distinct in-budget errors share a syndrome (contradicts the
    designed minimum distance); raised by the exhaustive decoder."""


class BerlekampCode:
    """Check-matrix data for one code instance.

    For the base-field case (ext is None) locators are ints in [1, p), and
    `check` holds the checks for vectors with entries in [0, bound) (by
    default field elements, bound p); a scheme passes its read alphabet.
    Over an extension field, locators are coefficient tuples and only
    syndrome computation and exhaustive decoding are supported.
    """

    def __init__(
        self,
        field: PrimeField,
        beta: Sequence,
        tau: int,
        ext: ExtField | None = None,
        validate: bool = True,
        bound: int | None = None,
    ):
        if tau < 1:
            raise ValueError(f"error budget must be >= 1, got {tau}")
        if 2 * tau >= field.p:
            raise ValueError(f"need 2*tau < p, got tau={tau}, p={field.p}")
        self.field = field
        self.tau = tau
        self.ext = ext
        self.n = len(beta)
        if self.n < 1:
            raise ValueError("code length must be >= 1")
        p = field.p
        if ext is None:
            self.beta = tuple(b % p for b in beta)
            if validate:
                if len(set(self.beta)) != self.n or 0 in self.beta:
                    raise ValueError("locators must be nonzero and distinct")
                values = set(self.beta)
                for b in self.beta:
                    if (p - b) % p in values:
                        raise ValueError(f"locators {b} and {p - b} negate each other")
            # power_cols[v][j] = beta_j ** (2v+1) mod p
            self.power_cols = [
                tuple(pow(b, 2 * v + 1, p) for b in self.beta) for v in range(tau)
            ]
            self._index = {b: j for j, b in enumerate(self.beta)}
            # every point an error can put in the locator: +beta_j, -beta_j
            self._signed_points = tuple(x for b in self.beta for x in (b, p - b))
            self._encoder_rows: list[list[int]] | None = None
            self.check = CheckMatrix(self.power_cols, (p,) * tau, p if bound is None else bound)
        else:
            if ext.p != p:
                raise ValueError("extension field characteristic must match")
            self.beta = tuple(ext.element(b) for b in beta)
            if validate:
                if len(set(self.beta)) != self.n or ext.zero in self.beta:
                    raise ValueError("locators must be nonzero and distinct")
                values = set(self.beta)
                for b in self.beta:
                    if ext.neg(b) in values:
                        raise ValueError("two locators negate each other")
            self.power_cols = [
                tuple(ext.power(b, 2 * v + 1) for b in self.beta) for v in range(tau)
            ]

    @property
    def redundancy(self) -> int:
        return self.tau  # base-field case: check matrix has full rank tau

    @property
    def dimension(self) -> int:
        return self.n - self.tau

    def locator_index(self, value: int) -> int | None:
        return self._index.get(value % self.field.p)

    def syndrome(self, y: Sequence[int]) -> tuple:
        """Components (s_1, s_2, ..) of y against the odd-power checks; over
        the base field, y may be an int64 array where `check.vector` holds."""
        if len(y) != self.n:
            raise ValueError(f"vector length {len(y)} != code length {self.n}")
        if self.ext is None:
            return tuple(self.check(y))
        p = self.field.p
        ext = self.ext
        out = []
        for col in self.power_cols:
            acc = ext.zero
            for j, v in enumerate(y):
                acc = ext.add(acc, ext.scale(v % p, col[j]))
            out.append(acc)
        return tuple(out)

    def zero_syndrome(self) -> tuple:
        if self.ext is None:
            return (0,) * self.tau
        return (self.ext.zero,) * self.tau


def _unit_error(code: BerlekampCode, x: int) -> tuple[int, int] | None:
    """(position, +-1) of the locator x or -x, if either is one."""
    j = code.locator_index(x)
    if j is not None:
        return j, 1
    j = code.locator_index(code.field.p - x)
    if j is not None:
        return j, -1
    return None


def _error_vector(n: int, hits: Iterable[tuple[int, int]]) -> list[int]:
    error = [0] * n
    for j, e in hits:
        error[j] = e
    return error


def decode_single_error(code: BerlekampCode, syn: Sequence[int] | int) -> list[int] | None:
    """Invert the syndrome of at most one +-1 error (tau = 1 codes)."""
    if code.tau != 1 or code.ext is not None:
        raise ValueError("single-error decoding needs a base-field tau=1 code")
    s = syn[0] if not isinstance(syn, int) else syn
    s %= code.field.p
    if s == 0:
        return [0] * code.n
    hit = _unit_error(code, s)
    return None if hit is None else _error_vector(code.n, (hit,))


def decode_double_error(code: BerlekampCode, syn: Sequence[int]) -> list[int] | None:
    """Invert the syndrome of an error of Lee weight <= 2 (tau = 2 codes).

    Hypotheses tried in turn: no error; one +-1 error (s2 == s1^3); a +-2
    error at one position; +-1 errors at two positions via the quadratic
    whose roots are the signed locator contributions.  The weight classes
    have disjoint syndrome sets, so the order does not matter.
    """
    if code.tau != 2 or code.ext is not None:
        raise ValueError("double-error decoding needs a base-field tau=2 code")
    p = code.field.p
    field = code.field
    s1, s2 = syn[0] % p, syn[1] % p
    if s1 == 0 and s2 == 0:
        return [0] * code.n
    if s1 == 0:
        # A weight <= 2 error always leaves a nonzero first component.
        return None

    if s2 == pow(s1, 3, p):
        hit = _unit_error(code, s1)
        if hit is not None:
            return _error_vector(code.n, (hit,))

    half = gfp_inv(2, field)
    g = s1 * half % p
    j = code.locator_index(g)
    if j is not None and s2 == 2 * pow(g, 3, p) % p:
        return _error_vector(code.n, ((j, 2),))
    j = code.locator_index(p - g)
    if j is not None and s2 == (-2) * pow(p - g, 3, p) % p:
        return _error_vector(code.n, ((j, -2),))

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
        return _error_vector(code.n, ((i, 1), (j, -1)))

    r1, r2 = sorted(roots)
    hit1, hit2 = _unit_error(code, r1), _unit_error(code, r2)
    if hit1 is None or hit2 is None or hit1[0] == hit2[0]:
        return None
    return _error_vector(code.n, (hit1, hit2))


def decode_exhaustive(
    code: BerlekampCode, syn: Sequence, budget: int | None = None
) -> list[int] | None:
    """Ground-truth decoder: enumerate every error with L1 weight <= budget
    and return the unique one matching the syndrome.

    Raises SyndromeAmbiguityError if two in-budget errors match, which
    would contradict the code's designed minimum distance.
    """
    budget = code.tau if budget is None else budget
    volume = sphere_volume_l1(code.n, budget)
    limit = guard_limit(ORACLE_VOLUME_GUARD)
    if volume > limit:
        raise ValueError(
            f"enumeration of {volume} error patterns exceeds the guard ({limit}); "
            "set DPE_CODEC_GUARD_OVERRIDE to raise it"
        )
    target = tuple(syn)
    if target == code.zero_syndrome():
        return [0] * code.n
    match: list[int] | None = None
    for e in iter_l1_errors(code.n, budget):
        if code.syndrome(e) == target:
            if match is not None:
                raise SyndromeAmbiguityError(
                    f"errors {match} and {e} share syndrome {target}"
                )
            match = list(e)
    return match


def decode_key_equation(
    code: BerlekampCode, syn: Sequence[int], budget: int | None = None
) -> list[int] | None:
    """The unique error of L1 weight <= budget with syndrome `syn`, or None.

    The error puts beta_j into a locator polynomial Lambda e_j times when
    e_j > 0, and -beta_j |e_j| times when e_j < 0, so the odd syndromes are
    the odd power sums of Lambda's points and fix
    Lambda(x) / Lambda(-x) = exp(-2 * sum_{k odd} S_k x^k / k) mod x^(2*budget).
    Splitting Lambda = A(x^2) + x B(x^2) turns this into the Pade problem
    B = A * H mod z^budget, solved by Euclid.  The points are then found
    by a root scan with deflation, and the error is checked against every
    syndrome component.  A point shared by two negating locators (codes
    built without validation) leaves the error undetermined: None.
    """
    if code.ext is not None:
        raise ValueError("key-equation decoding needs a base-field code")
    t = code.tau if budget is None else budget
    if not 1 <= t <= code.tau:
        raise ValueError(f"budget must be in [1, {code.tau}], got {t}")
    p = code.field.p
    syn = [s % p for s in syn]
    if not any(syn):
        return [0] * code.n
    # Psi = Lambda(x) / Lambda(-x) through x^(2t-1): Psi' = f' Psi gives
    # m psi_m = -2 * sum_{k odd <= m} S_k psi_(m-k).
    psi = [1]
    for m in range(1, 2 * t):
        acc = sum(syn[k // 2] * psi[m - k] for k in range(1, m + 1, 2))
        psi.append(-2 * acc * pow(m, -1, p) % p)
    # The odd part of Lambda(x) = Psi(x) Lambda(-x) reads B (1 + Psi_even)
    # = A Psi_odd, so H = Psi_odd / (1 + Psi_even), whose constant term is 2.
    odd, even = psi[1::2], psi[0::2]
    even[0] = 2
    half = pow(2, -1, p)
    h: list[int] = []
    for i in range(t):
        acc = odd[i] - sum(even[j] * h[i - j] for j in range(1, i + 1))
        h.append(acc * half % p)
    a, b = solve_key_equation([0] * t + [1], h, (t + 1) // 2, p)
    if not a or a[0] == 0:
        return None
    # Lambda up to a constant factor; its points are the roots of the
    # reversed polynomial.
    lam = [0] * (2 * max(len(a), len(b)))
    lam[0 : 2 * len(a) : 2] = a
    lam[1 : 2 * len(b) : 2] = b
    poly_trim(lam)
    roots = poly_roots(lam[::-1], code._signed_points, p)
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
    for v, col in enumerate(code.power_cols):
        if sum(e * col[j] for j, e in hits.items()) % p != syn[v]:
            return None
    return _error_vector(code.n, hits.items())


def decode_bounded(code: BerlekampCode, syn: Sequence, budget: int | None = None) -> list[int] | None:
    """Dispatch to the closed forms for budgets 1 and 2, else to the
    key-equation decoder."""
    budget = code.tau if budget is None else budget
    if code.ext is None and budget == code.tau:
        if code.tau == 1:
            return decode_single_error(code, syn)
        if code.tau == 2:
            return decode_double_error(code, syn)
    return decode_key_equation(code, syn, budget)


def systematic_encode(code: BerlekampCode, message: Sequence[int]) -> list[int]:
    """Extend a length-(n - tau) message to a zero-syndrome codeword.

    The tau redundancy symbols occupy the last positions; the linear system
    they satisfy is solvable whenever the locators meet the code conditions.
    """
    if code.ext is not None:
        raise ValueError("systematic encoding is supported over the base field only")
    k = code.dimension
    if len(message) != k:
        raise ValueError(f"message length {len(message)} != dimension {k}")
    p = code.field.p
    if code._encoder_rows is None:
        matrix = [[code.power_cols[v][k + t] for t in range(code.tau)] for v in range(code.tau)]
        identity = [[1 if r == c else 0 for c in range(code.tau)] for r in range(code.tau)]
        inverse = []
        for col in range(code.tau):
            sol = gfp_solve(matrix, [identity[r][col] for r in range(code.tau)], p)
            if sol is None:
                raise ValueError("redundancy locator submatrix is singular")
            inverse.append(sol)
        # inverse[c][r]: column c of M^-1
        code._encoder_rows = [[inverse[c][r] for c in range(code.tau)] for r in range(code.tau)]
    rhs = [
        (-sum(message[j] * code.power_cols[v][j] for j in range(k))) % p
        for v in range(code.tau)
    ]
    redundancy = [
        sum(code._encoder_rows[r][v] * rhs[v] for v in range(code.tau)) % p
        for r in range(code.tau)
    ]
    codeword = [m % p for m in message] + redundancy
    return codeword


