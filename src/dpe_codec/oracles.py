"""Brute-force ground truth: enumerate every product vector a scheme can
emit, audit the minimum distance over distinct data prefixes, decode by
nearest-codeword search, decode a Lee-metric code by enumerating its L1
sphere (`decode_exhaustive`, also for extension-field locators through
`ExtField` and `ExtLeeCode`), decode Reed-Solomon errors and erasures by
a scan over error supports, and decode any linear inner code by
enumerating its codewords (`LinearInnerCode`).  These are the reference
answers the production decoders are checked against.  Every enumeration
is refused above a guard (raisable through DPE_CODEC_GUARD_OVERRIDE;
`check_guard` words most refusals), so they stay at desk scale, and they
never sample.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Callable, Iterable, Sequence

from .basemath import (
    PrimeField,
    gfp_solve,
    hamming_dist,
    iter_l1_errors,
    l1_dist,
    sphere_volume_l1,
)
from .core import (
    DECODE_FAILURE,
    CheckMatrix,
    DecodeOutcome,
    Hits,
    QMatrix,
    check_locate_input,
    decoded,
    erasure_indices,
    error_vector,
    field_symbols,
    systematic_word,
)
from .gfpoly import poly_divmod, poly_eval, poly_mul

# Hard feasibility constants (raisable via DPE_CODEC_GUARD_OVERRIDE).
ENUMERATION_GUARD = 1_000_000
DISTANCE_PAIR_GUARD = 20_000_000
SUPPORT_SCAN_GUARD = 1_000_000
# reads decoded in an audit's sweep times the codewords each one scans
SWEEP_GUARD = 5_000_000
# error patterns in the L1 sphere that decode_exhaustive enumerates
ORACLE_VOLUME_GUARD = 10_000_000

METRICS = {"l1": l1_dist, "hamming": hamming_dist}


def guard_limit(default: int) -> int:
    """Feasibility guard for exhaustive enumeration, raisable (never lowered)
    via the DPE_CODEC_GUARD_OVERRIDE environment variable."""
    raw = os.environ.get("DPE_CODEC_GUARD_OVERRIDE", "")
    if not raw:
        return default
    try:
        return max(default, int(raw))
    except ValueError:
        raise ValueError(f"DPE_CODEC_GUARD_OVERRIDE must be an integer, got {raw!r}")


def check_guard(count: int, default: int, what: str) -> None:
    """Refuse an enumeration of `count` items past the guard `default`
    (as raised by DPE_CODEC_GUARD_OVERRIDE); `what` names it, with `{}`
    standing for the count."""
    limit = guard_limit(default)
    if count > limit:
        raise ValueError(
            f"{what.format(count)} exceeds the guard ({limit}); "
            "set DPE_CODEC_GUARD_OVERRIDE to raise it"
        )


def linear_codewords(code, what: str = "codewords"):
    """Every codeword of a linear code over GF(p) (its `field`, `k` and
    `encode`), message by message; refused before the first past
    ENUMERATION_GUARD, named `what` in the refusal."""
    p = code.field.p
    check_guard(p**code.k, ENUMERATION_GUARD, "enumerating {} " + what)
    return (code.encode(list(msg)) for msg in itertools.product(range(p), repeat=code.k))


class PrefixDisagreementError(RuntimeError):
    """Codewords inside one decoding sphere disagree on their data prefix,
    contradicting the audited minimum distance."""


def enumerate_induced_code(
    encode: Callable[[QMatrix], QMatrix], ell: int, k: int, q: int
) -> list[tuple[int, ...]]:
    """All distinct products u * encode(A') over every matrix and input."""
    check_guard(q ** (ell * k) * q**ell, ENUMERATION_GUARD, "enumerating {} products")
    codewords: set[tuple[int, ...]] = set()
    for flat in itertools.product(range(q), repeat=ell * k):
        rows = [flat[i * k : (i + 1) * k] for i in range(ell)]
        encoded = encode(QMatrix(q, tuple(rows)))
        for u in itertools.product(range(q), repeat=ell):
            codewords.add(
                tuple(
                    sum(u[i] * encoded.rows[i][j] for i in range(ell))
                    for j in range(encoded.ncols)
                )
            )
    return sorted(codewords)


def induced_min_distance(
    codewords: Sequence[tuple[int, ...]], k: int, metric: str = "l1"
) -> int | None:
    """Smallest distance between codewords with different k-prefixes; None
    when fewer than two prefixes occur (distance undefined)."""
    dist = METRICS[metric]
    if len(codewords) ** 2 > guard_limit(DISTANCE_PAIR_GUARD):
        raise ValueError(
            f"{len(codewords)}^2 pairs exceed the guard; "
            "set DPE_CODEC_GUARD_OVERRIDE to raise it"
        )
    if len({c[:k] for c in codewords}) < 2:
        return None
    best = None
    for i, a in enumerate(codewords):
        for b in codewords[i + 1 :]:
            if a[:k] == b[:k]:
                continue
            d = dist(a, b)
            if best is None or d < best:
                best = d
    return best


def nearest_prefix_decode(
    y: Sequence[int],
    codewords: Iterable[tuple[int, ...]],
    k: int,
    tau: int,
    metric: str = "l1",
) -> DecodeOutcome:
    """Prefix of any codeword within distance tau of y, or the failure mark.

    All in-radius codewords must agree on their prefix; a disagreement
    falsifies the distance audit and raises.
    """
    dist = METRICS[metric]
    prefixes = {c[:k] for c in codewords if dist(y, c) <= tau}
    if not prefixes:
        return DECODE_FAILURE
    if len(prefixes) > 1:
        raise PrefixDisagreementError(
            f"radius-{tau} sphere around {list(y)} holds prefixes {sorted(prefixes)}"
        )
    return decoded(prefixes.pop())


def puncture(codewords: Iterable[tuple[int, ...]], positions: Sequence[int]):
    """Delete the given coordinates from every codeword (erasure audits)."""
    drop = set(positions)
    return [
        tuple(v for j, v in enumerate(c) if j not in drop) for c in codewords
    ]


def scan_errors_erasures(code, values: Sequence[int], erased: Sequence[int], radius: int):
    """Reference errors-and-erasures decoder for a ReedSolomonCode: the
    same contract as its decode_errors_erasures, by a scan over error
    supports.

    Every square locator submatrix of an MDS check matrix is invertible, so
    each candidate support (the erasures plus up to `radius` free
    positions, smallest first) is solved directly and kept when it meets
    every syndrome with nonzero values on the free positions.
    """
    p = code.field.p
    erased = sorted(set(erased))
    rho = len(erased)
    if rho >= code.d:
        return None
    t_max = min(radius, (code.d - 1 - rho) // 2)
    free = [j for j in range(code.length) if j not in erased]
    count = sum(math.comb(len(free), t) for t in range(t_max + 1))
    check_guard(count, SUPPORT_SCAN_GUARD, "scanning {} error supports")
    powers = code.check.rows
    filled = [0 if j in erased else values[j] % p for j in range(code.length)]
    syn = code.syndromes(filled)
    for t in range(t_max + 1):
        for support in itertools.combinations(free, t):
            positions = sorted(erased + list(support))
            width = len(positions)
            if width == 0:
                if any(syn):
                    continue
                return [0] * code.length
            matrix = [[powers[v][j] for j in positions] for v in range(width)]
            sol = gfp_solve(matrix, syn[:width], p)
            if sol is None:
                raise AssertionError("MDS locator submatrix cannot be singular")
            if any(
                sum(sol[i] * powers[v][j] for i, j in enumerate(positions)) % p != syn[v]
                for v in range(width, code.d - 1)
            ):
                continue
            if any(sol[positions.index(j)] == 0 for j in support):
                continue  # a zero "error" there means a smaller support
            error = [0] * code.length
            for value, j in zip(sol, positions):
                error[j] = value
            return error
    return None


class LinearInnerCode:
    """Any linear code from an explicit parity-check matrix over GF(p),
    systematic on its tail, decoded by enumerating all codewords; it can
    stand in for the Reed-Solomon inner code of a HammingScheme."""

    def __init__(self, field: PrimeField, check_matrix: Sequence[Sequence[int]], distance: int):
        p = field.p
        self.field = field
        r = len(check_matrix)
        self.check = CheckMatrix(check_matrix, (p,) * r, p)
        self.length = self.check.n
        self.k = self.length - r
        self.d = distance
        if self.k < 1:
            raise ValueError("check matrix leaves no message symbols")
        self.check.tail([0] * r)  # refuses a singular tail block now, not at encode

    def syndromes(self, values: Sequence[int]) -> list[int]:
        """The word's syndromes mod p, as `ReedSolomonCode.syndromes`."""
        return self.check(field_symbols(values, self.length, self.field.p, "word"))

    def encode(self, message: Sequence[int]) -> list[int]:
        """Systematic: the message passes through and `check.tail` fills
        the r check symbols; a block of messages as for the Reed-Solomon
        code."""
        return systematic_word(self.check, message, self.k, self.syndromes)

    def decode_errors_erasures(
        self, values: Sequence[int], erased: Sequence[int], radius: int
    ) -> list[int] | None:
        """The contract of ReedSolomonCode.decode_errors_erasures:
        `locate_syndromes` on the syndromes of the zero-filled input, as a
        full error vector (`values` may be an integer array; the error
        vector is Python ints)."""
        erased = erasure_indices(erased, self.length)
        syn = self.check.less(self.syndromes(values), ((j, values[j]) for j in erased))
        return error_vector(self.length, self.locate_syndromes(syn, erased, radius))

    def locate_syndromes(
        self, syn: Sequence[int], erased: Sequence[int], radius: int
    ) -> Hits | None:
        """The contract of ReedSolomonCode.locate_syndromes, by enumeration:
        a word w with these syndromes (zero message, the tail solved), then
        the first codeword c within the radius of w on the symbols that are
        not erased; the hits are the nonzero entries of w - c."""
        p = self.field.p
        erased = set(check_locate_input(self.check, syn, erased))
        rho = len(erased)
        if rho >= self.d:
            return None
        t_max = min(radius, (self.d - 1 - rho) // 2)
        word = [0] * self.k + [-t % p for t in self.check.tail(syn)]
        kept = [j for j in range(self.length) if j not in erased]
        for cw in linear_codewords(self):
            if sum(1 for j in kept if word[j] != cw[j]) <= t_max:
                error = [(w - c) % p for w, c in zip(word, cw)]
                return tuple((j, e) for j, e in enumerate(error) if e)
        return None


class ExtField:
    """GF(p^h) as polynomials over GF(p) modulo a monic irreducible of degree h.

    Elements are tuples of h coefficients, lowest degree first.  Only the
    operations needed for syndrome evaluation and exhaustive decoding are
    provided; h == 1 instances are rejected (use PrimeField directly).
    """

    def __init__(self, p: int, h: int, modulus_poly: Sequence[int] | None = None):
        if h < 2:
            raise ValueError("extension degree must be >= 2")
        self.base = PrimeField(p)
        self.p = p
        self.h = h
        if modulus_poly is None:
            modulus_poly = self._find_irreducible(p, h)
        if len(modulus_poly) != h + 1 or modulus_poly[-1] != 1:
            raise ValueError("modulus polynomial must be monic of degree h")
        if not self._is_irreducible(tuple(modulus_poly), p):
            raise ValueError("modulus polynomial is reducible")
        self.modulus_poly = tuple(v % p for v in modulus_poly)
        self.zero = (0,) * h
        self.one = (1,) + (0,) * (h - 1)

    @classmethod
    def _is_irreducible(cls, mod: tuple[int, ...], p: int) -> bool:
        # Degree <= 3 suffices for our use: irreducible iff no roots in GF(p)
        # (plus squarefree-by-roots argument does not extend past 3, so guard).
        deg = len(mod) - 1
        if deg > 3:
            raise ValueError("irreducibility check supports degree <= 3")
        return all(poly_eval(mod, x, p) for x in range(p))

    @classmethod
    def _find_irreducible(cls, p: int, h: int) -> tuple[int, ...]:
        if h > 3:
            raise ValueError("automatic modulus search supports degree <= 3")
        for tail in itertools.product(range(p), repeat=h):
            cand = tuple(tail) + (1,)
            if cls._is_irreducible(cand, p):
                return cand
        raise AssertionError("no irreducible polynomial found")  # unreachable

    def element(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        if len(coeffs) > self.h:
            raise ValueError("too many coefficients")
        vals = [v % self.p for v in coeffs] + [0] * (self.h - len(coeffs))
        return tuple(vals)

    def from_int(self, n: int) -> tuple[int, ...]:
        """Embed a base-field integer as a constant polynomial."""
        return (n % self.p,) + (0,) * (self.h - 1)

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((-x) % self.p for x in a)

    def scale(self, c: int, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(c * x % self.p for x in a)

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        _, rem = poly_divmod(poly_mul(a, b, self.p), self.modulus_poly, self.p)
        return tuple(rem + [0] * (self.h - len(rem)))

    def power(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def all_elements(self):
        for coeffs in itertools.product(range(self.p), repeat=self.h):
            yield tuple(coeffs)


class ExtLeeCode:
    """The odd-power Lee checks of `berlekamp.BerlekampCode` with locators
    in GF(p^h) (coefficient tuples of `ext`): syndromes only, for
    `decode_exhaustive`."""

    def __init__(self, ext: ExtField, beta: Sequence, tau: int):
        if tau < 1:
            raise ValueError(f"error budget must be >= 1, got {tau}")
        if 2 * tau >= ext.p:
            raise ValueError(f"need 2*tau < p, got tau={tau}, p={ext.p}")
        self._ext = ext
        self.tau = tau
        self.n = len(beta)
        if self.n < 1:
            raise ValueError("code length must be >= 1")
        beta = tuple(ext.element(b) for b in beta)
        if len(set(beta)) != self.n or ext.zero in beta:
            raise ValueError("locators must be nonzero and distinct")
        if any(ext.neg(b) in beta for b in beta):
            raise ValueError("two locators negate each other")
        self._power_cols = [tuple(ext.power(b, 2 * v + 1) for b in beta) for v in range(tau)]

    def syndrome(self, y: Sequence[int]) -> tuple:
        if len(y) != self.n:
            raise ValueError(f"vector length {len(y)} != code length {self.n}")
        ext = self._ext
        out = []
        for col in self._power_cols:
            acc = ext.zero
            for v, b in zip(y, col):
                acc = ext.add(acc, ext.scale(v, b))
            out.append(acc)
        return tuple(out)

    def zero_syndrome(self) -> tuple:
        return (self._ext.zero,) * self.tau


class SyndromeAmbiguityError(RuntimeError):
    """Two distinct in-budget errors share a syndrome (contradicts the
    designed minimum distance); raised by the exhaustive decoder."""


def decode_exhaustive(code, syn: Sequence, budget: int | None = None) -> list[int] | None:
    """Ground-truth decoder for a Lee-metric code (a `BerlekampCode` or an
    `ExtLeeCode`): enumerate every error with L1 weight <= budget and
    return the unique one matching the syndrome.

    Raises SyndromeAmbiguityError if two in-budget errors match, which
    would contradict the code's designed minimum distance.
    """
    budget = code.tau if budget is None else budget
    check_guard(
        sphere_volume_l1(code.n, budget), ORACLE_VOLUME_GUARD, "enumeration of {} error patterns"
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
