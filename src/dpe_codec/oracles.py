"""Brute-force ground truth: enumerate every product vector a scheme can
emit, audit the minimum distance over distinct data prefixes, decode by
nearest-codeword search, decode Reed-Solomon errors and erasures by a
scan over error supports, and decode any linear inner code by enumerating
its codewords (`LinearInnerCode`).  These are the reference answers the
production decoders are checked against; guards keep them at desk scale
and they never sample.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Sequence

from .basemath import PrimeField, gfp_solve, hamming_dist, l1_dist
from .core import DECODE_FAILURE, CheckMatrix, DecodeOutcome, QMatrix, decoded, guard_limit

# Hard feasibility constants (raisable via DPE_CODEC_GUARD_OVERRIDE).
ENUMERATION_GUARD = 1_000_000
DISTANCE_PAIR_GUARD = 20_000_000
SUPPORT_SCAN_GUARD = 1_000_000

METRICS = {"l1": l1_dist, "hamming": hamming_dist}


class PrefixDisagreementError(RuntimeError):
    """Codewords inside one decoding sphere disagree on their data prefix,
    contradicting the audited minimum distance."""


def enumerate_induced_code(
    encode: Callable[[QMatrix], QMatrix], ell: int, k: int, q: int
) -> list[tuple[int, ...]]:
    """All distinct products u * encode(A') over every matrix and input."""
    total = q ** (ell * k) * q**ell
    limit = guard_limit(ENUMERATION_GUARD)
    if total > limit:
        raise ValueError(
            f"enumerating {total} products exceeds the guard ({limit}); "
            "set DPE_CODEC_GUARD_OVERRIDE to raise it"
        )
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
    limit = guard_limit(SUPPORT_SCAN_GUARD)
    if count > limit:
        raise ValueError(
            f"scanning {count} error supports exceeds the guard ({limit}); "
            "set DPE_CODEC_GUARD_OVERRIDE to raise it"
        )
    powers = code._powers
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
        rows = self.check.rows
        self.length = len(rows[0])
        self.k = self.length - r
        self.d = distance
        if self.k < 1:
            raise ValueError("check matrix leaves no message symbols")
        tail = [[rows[v][self.k + t] for t in range(r)] for v in range(r)]
        self._encoder_cols = []
        for j in range(self.k):
            rhs = [(-rows[v][j]) % p for v in range(r)]
            col = gfp_solve(tail, rhs, p)
            if col is None:
                raise ValueError("check matrix tail is singular; reorder columns")
            self._encoder_cols.append(col)

    def encode(self, message: Sequence[int]) -> list[int]:
        if len(message) != self.k:
            raise ValueError(f"message length {len(message)} != {self.k}")
        p = self.field.p
        msg = [v % p for v in message]
        redundancy = [
            sum(self._encoder_cols[j][t] * msg[j] for j in range(self.k)) % p
            for t in range(self.length - self.k)
        ]
        return msg + redundancy

    def decode_errors_erasures(
        self, values: Sequence[int], erased: Sequence[int], radius: int
    ) -> list[int] | None:
        """The contract of ReedSolomonCode.decode_errors_erasures, by
        enumeration (`values` may be an int64 array where `check.vector`
        holds; the error vector is Python ints)."""
        p = self.field.p
        erased = sorted(set(erased))
        rho = len(erased)
        if rho >= self.d:
            return None
        t_max = min(radius, (self.d - 1 - rho) // 2)
        count = p**self.k
        limit = guard_limit(ENUMERATION_GUARD)
        if count > limit:
            raise ValueError(
                f"enumerating {count} codewords exceeds the guard ({limit}); "
                "set DPE_CODEC_GUARD_OVERRIDE to raise it"
            )
        filled = [0 if j in erased else int(values[j]) % p for j in range(self.length)]
        for msg in itertools.product(range(p), repeat=self.k):
            cw = self.encode(list(msg))
            dist = sum(
                1 for j in range(self.length) if j not in erased and filled[j] != cw[j]
            )
            if dist <= t_max:
                return [(filled[j] - cw[j]) % p for j in range(self.length)]
        return None
