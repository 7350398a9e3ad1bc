"""Brute-force ground truth: enumerate every product vector a scheme can
emit, audit the minimum distance over distinct data prefixes, decode by
nearest-codeword search, decode a Lee-metric code by enumerating its L1
sphere (`iter_l1_errors`, `decode_exhaustive`), decode Reed-Solomon errors
and erasures by a scan over error supports, and decode a linear code given
by its check matrix by enumerating its codewords (`LinearInnerCode`, the
Reed-Solomon decoder's reference).  These are the
reference answers the production decoders are checked against.  Every
enumeration is refused above a guard (raisable through
DPE_CODEC_GUARD_OVERRIDE; `check_guard` words most refusals), so they stay
at desk scale, and they never sample.

The scalar references the array code is checked against live here too:
base-q and mixed-radix digits one value at a time (`base_q_digits`,
`base_q_value`, `digit_planes`, `mixed_radix_digits`, against
`core.radix_digits`), a matrix's checksums and their digit planes row
by row (`syndrome_matrix`, `digit_split`, against the recursive scheme's
block encoder), and polynomial long division over GF(p) (`poly_divmod`,
against the in-place Euclid of `gfpoly.solve_key_equation`).
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Callable, Iterable, Sequence

from .basemath import PrimeField, gfp_solve, hamming_dist, l1_dist, sphere_volume_l1
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
from .gfpoly import poly_trim

# Hard feasibility constants (raisable via DPE_CODEC_GUARD_OVERRIDE).
ENUMERATION_GUARD = 1_000_000
DISTANCE_PAIR_GUARD = 20_000_000
SUPPORT_SCAN_GUARD = 1_000_000
# reads decoded in an audit's sweep times the codewords each one scans
SWEEP_GUARD = 5_000_000
# error patterns in the L1 sphere that decode_exhaustive enumerates
ORACLE_VOLUME_GUARD = 10_000_000

METRICS = {"l1": l1_dist, "hamming": hamming_dist}


def base_q_digits(x: int, q: int, m: int) -> list[int]:
    """Base-q expansion of x with exactly m digits, least significant first."""
    if q < 2:
        raise ValueError(f"base must be >= 2, got {q}")
    if m < 0:
        raise ValueError(f"digit count must be >= 0, got {m}")
    if not 0 <= x < q**m:
        raise ValueError(f"{x} is not representable with {m} base-{q} digits")
    digits = []
    for _ in range(m):
        digits.append(x % q)
        x //= q
    return digits


def digit_planes(values: Sequence[int], q: int, m: int) -> list[int]:
    """The m-digit base-q expansions of `values`, laid out plane-major:
    digit j of values[v] at j * len(values) + v."""
    digits = [base_q_digits(x, q, m) for x in values]
    return [column[j] for j in range(m) for column in digits]


def base_q_value(digits: Sequence[int], q: int) -> int:
    """Inverse of base_q_digits: sum of digits[j] * q**j."""
    value = 0
    for d in reversed(digits):
        if not 0 <= d < q:
            raise ValueError(f"digit {d} out of range for base {q}")
        value = value * q + d
    return value


def mixed_radix_digits(x: int, weights: Sequence[int], q: int) -> list[int]:
    """Digits (b_0..b_{m-1}) with b_j in [0,q) and sum b_j*weights[j] == x.

    Greedy most-significant-first extraction; weights must be increasing
    positive ints (as produced by basemath.jacobsthal_weights).
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    digits = [0] * len(weights)
    rest = x
    for j in range(len(weights) - 1, -1, -1):
        digits[j] = min(q - 1, rest // weights[j])
        rest -= digits[j] * weights[j]
    if rest != 0:
        raise ValueError(f"{x} is not representable with weights {list(weights)} base {q}")
    return digits


def syndrome_matrix(matrix: QMatrix, code) -> list[list[int]]:
    """Row-wise odd-power checksums of a matrix against a
    `berlekamp.BerlekampCode`, entries in [0, p)."""
    return [list(code.syndrome(row)) for row in matrix.rows]


def digit_split(S: list[list[int]], q: int, m: int) -> list[list[list[int]]]:
    """Entry-wise base-q expansion of a matrix into m digit planes."""
    planes = [[[0] * len(S[0]) for _ in S] for _ in range(m)]
    for i, row in enumerate(S):
        for v, value in enumerate(row):
            for j, digit in enumerate(base_q_digits(value, q, m)):
                planes[j][i][v] = digit
    return planes


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


def compositions(total: int, parts: int):
    """All tuples of `parts` positive ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def iter_l1_errors(n: int, max_weight: int, include_zero: bool = False):
    """All integer vectors of length n with L1 norm in [1, max_weight].

    Enumerates supports, positive magnitude splits, and signs; the count
    equals sphere_volume_l1(n, max_weight) - 1.
    """
    if include_zero:
        yield [0] * n
    for weight in range(1, max_weight + 1):
        for r in range(1, min(weight, n) + 1):
            for positions in itertools.combinations(range(n), r):
                for magnitudes in compositions(weight, r):
                    for signs in itertools.product((1, -1), repeat=r):
                        e = [0] * n
                        for pos, mag, sign in zip(positions, magnitudes, signs):
                            e[pos] = sign * mag
                        yield e


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
    systematic on its tail, decoded by enumerating all codewords: the
    reference that `hamming.ReedSolomonCode`, built from the same check
    rows, is checked against."""

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


class SyndromeAmbiguityError(RuntimeError):
    """Two distinct in-budget errors share a syndrome (contradicts the
    designed minimum distance); raised by the exhaustive decoder."""


def decode_exhaustive(code, syn: Sequence, budget: int | None = None) -> list[int] | None:
    """Ground-truth decoder for a `BerlekampCode`: enumerate every error
    with L1 weight <= budget and return the unique one matching the
    syndrome.

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
