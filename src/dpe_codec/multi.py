"""Multiple-error schemes: syndrome re-encoding with a short recursion, and
direct systematic encoding when the alphabet holds a big enough prime.

Recursive scheme: a matrix A gets its tau-component checksum matrix S
(odd-power checks mod p = 2n+1) split into base-q digit planes and appended
as columns.  The product u * (A | planes) then carries u's own checksum in
its tail, so the decoder can reconstruct it, cancel it against the
checksum of the read prefix, and correct up to tau errors there.  The
appended planes are protected the same way once more (over a smaller
prime), and that second tail is protected by plain (2*tau+1)-fold
repetition, decoded by coordinate-wise median.  Both checksums are
written plane-major (`basemath.digit_planes`).

Large-alphabet scheme: when some prime p with 2*tau < p <= q exists, each
row reduced mod p is systematically extended to a zero-checksum word, and
the decoder works directly on the read vector reduced mod p.

Both program a matrix through `core.encode_matrix` in block products.
The recursive encoder takes every row's checksums in one product with
its code's checks, expands them into digit planes (`core.radix_digits`),
and takes the planes' checksums in one more product; the large-alphabet
encoder hands the whole block to `berlekamp.systematic_encode`.

Both decode through `core.decode_read`; each syndrome hook is the admitted
read times one `core.CheckMatrix`.  The large-alphabet matrix is its
code's checks over the whole read, and `locate` is a zero test, then
`berlekamp.locate_bounded`.  The recursive matrix spans the whole widened
read, in 2*tau rows: mod p, the head's checks less the checksum its digit
planes record; mod p~, the planes' checks less the checksum the first
tail copy records.  Its `locate` corrects those syndromes sparsely
(`CheckMatrix.less`): the median in place of copy 0 where the copies
disagree, then the planes' located error, before it locates in the head.
"""

from __future__ import annotations

import numpy as np

from .basemath import PrimeField, base_q_digits, ceil_log, is_prime, next_prime
from .berlekamp import BerlekampCode, locate_bounded, systematic_encode
from .core import (
    CheckMatrix,
    DecodeOutcome,
    Hits,
    QMatrix,
    ReadVector,
    decode_read,
    encode_matrix,
    int_dtype,
    output_alphabet,
    radix_digits,
)
from .locators import build_locators_basic


def syndrome_matrix(matrix: QMatrix, code: BerlekampCode) -> list[list[int]]:
    """Row-wise odd-power checksums of a matrix, entries in [0, p)."""
    return [list(code.syndrome(row)) for row in matrix.rows]


def digit_split(S: list[list[int]], q: int, m: int) -> list[list[list[int]]]:
    """Entry-wise base-q expansion of a matrix into m digit planes."""
    planes = [[[0] * len(S[0]) for _ in S] for _ in range(m)]
    for i, row in enumerate(S):
        for v, value in enumerate(row):
            for j, digit in enumerate(base_q_digits(value, q, m)):
                planes[j][i][v] = digit
    return planes


def _median(values: list[int]) -> int:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


class RecursiveScheme:
    """Correct tau L1 errors anywhere in the widened product vector.

    Protects a full l x n matrix (every column is information).  With
    `trimmed`, input rows must already have a zero linear checksum (the
    single-error encoding), whose known-zero checksum column is then not
    transmitted.  Every locator sits on a data column, so no locator
    collision is tolerated.
    """

    def __init__(self, q: int, ell: int, tau: int, p: int, trimmed: bool = False):
        if tau < 1:
            raise ValueError(f"error budget must be >= 1, got {tau}")
        if not is_prime(p) or p <= 2 * tau:
            raise ValueError(f"need a prime p > 2*tau, got p={p}, tau={tau}")
        self.q = q
        self.ell = ell
        self.tau = tau
        self.p = p
        self.trimmed = trimmed
        self.n = (p - 1) // 2
        self.loc = build_locators_basic(q, self.n)
        assert self.loc.modulus == p
        self.m = self.loc.m
        self.q_out = output_alphabet(q, ell)
        self.checker = BerlekampCode(PrimeField(p), self.loc.array, tau, bound=self.q_out)
        self.plane_cols = tau - 1 if trimmed else tau
        self.ntilde = self.plane_cols * self.m
        self.rep = 2 * tau + 1
        if self.ntilde > 0:
            self.ptilde = next_prime(max(2 * self.ntilde + 1, 2 * tau + 1))
            self.mtilde = ceil_log(q, self.ptilde)
            # fewer plane columns than tau (trimmed, m = 1) leave a code
            # with no codeword but 0, used only for its checks and locate
            self.tail_checker = BerlekampCode(
                PrimeField(self.ptilde), np.arange(1, self.ntilde + 1), tau, check_only=True
            )
        else:
            self.ptilde = None
            self.mtilde = 0
            self.tail_checker = None
        self.k = self.n  # every input column is information
        self.check = CheckMatrix(*self._check_rows(), self.q_out)
        self.vector = self.check.vector

    @property
    def redundancy(self) -> int:
        return self.ntilde + self.rep * self.tau * self.mtilde

    @property
    def total_length(self) -> int:
        return self.n + self.redundancy

    def _check_rows(self) -> tuple[np.ndarray, list[int]]:
        """The 2*tau check rows over the whole widened read, in one array.
        Level 1, mod p: the head's odd-power checks, less the checksum that
        the digit planes record.  Level 2, mod p~: the block's checks, less
        the checksum that the first tail copy records; the other copies
        weigh nothing."""
        n, tau, q = self.n, self.tau, self.q
        moduli = [self.p] * tau + ([self.ptilde] * tau if self.ntilde > 0 else [])
        rows = np.zeros((len(moduli), self.total_length), int_dtype(max(moduli)))
        rows[:tau, :n] = self.checker.check.array
        start, width = tau - self.plane_cols, self.plane_cols
        levels = np.arange(start, tau)
        for j in range(self.m):  # plane j of check v at n + j * width + v - start
            rows[levels, n + j * width + levels - start] = -(q**j)
        if self.ntilde > 0:
            tail = n + self.ntilde
            rows[tau:, n:tail] = self.tail_checker.check.array
            levels = np.arange(tau)
            for j in range(self.mtilde):  # digit j of check v at tail + j * tau + v
                rows[tau + levels, tail + j * tau + levels] = -(q**j)
        return rows, moduli

    def encode(self, matrix: QMatrix) -> QMatrix:
        return encode_matrix(self, matrix)

    def encode_array(self, block: np.ndarray) -> np.ndarray:
        """Each row, its checksums' digit planes, and the planes' own
        checksum digits repeated: one product per checksum level."""
        syn = self.checker.check(block)
        if self.trimmed and syn[:, 0].any():
            raise ValueError(
                "trimmed mode needs rows with a zero linear checksum "
                "(single-error-encoded input)"
            )
        q = self.q
        planes = radix_digits(syn[:, self.tau - self.plane_cols :], [q**j for j in range(self.m)], q)
        parts = [block, planes]
        if self.ntilde > 0:
            # digits may reach q > p~: reduced, they stay inside the check's bound
            tail_syn = self.tail_checker.check(planes % self.ptilde)
            parts += [radix_digits(tail_syn, [q**j for j in range(self.mtilde)], q)] * self.rep
        return np.hstack(parts)

    def read_syndromes(self, y: ReadVector) -> tuple[list[int], tuple[int, ...]]:
        """Admit the widened read; its 2*tau syndromes, and its entries."""
        return self.check(y.admit(self.total_length, self.q_out, vector=self.vector)), y.entries

    def locate(self, syn: list[int], y: ReadVector) -> Hits | None:
        entries, n, tau = y.entries, self.n, self.tau
        if self.ntilde > 0:
            # Level 3: the median over the repeated copies recovers the
            # digits of the block's checksum exactly (at most tau copies
            # disturbed).  The product weighed copy 0: where the copies
            # differ, put the median in its place.
            start = n + self.ntilde
            width = tau * self.mtilde
            tail = entries[start:]
            copy0 = tail[:width]
            if tail != copy0 * self.rep:
                syn = self.check.less(syn, (
                    (start + t, copy0[t] - _median(tail[t::width])) for t in range(width)))
            # Level 2: the block's syndrome against that checksum; the
            # corrected planes must stay in the read alphabet.
            if any(syn[tau:]):
                hits = locate_bounded(self.tail_checker, syn[tau:])
                if hits is None or not all(0 <= entries[n + j] - e < self.q_out for j, e in hits):
                    return None
                syn = self.check.less(syn, ((n + j, e) for j, e in hits))
        # Level 1: the head's syndrome against the checksum in the planes.
        if not any(syn[:tau]):
            return ()
        return locate_bounded(self.checker, syn[:tau])

    def decode(self, y: ReadVector) -> DecodeOutcome:
        return decode_read(self, y)


class LargeAlphabetScheme:
    """Correct tau L1 errors using a prime p with 2*tau < p <= q."""

    def __init__(self, q: int, n: int, tau: int, ell: int):
        if tau < 1:
            raise ValueError(f"error budget must be >= 1, got {tau}")
        p = q
        while p > 2 * tau and not is_prime(p):
            p -= 1
        if p <= 2 * tau:
            raise ValueError(f"no prime in (2*tau, q] = ({2 * tau}, {q}]")
        self.p = p
        if n > (p - 1) // 2:
            raise ValueError(
                f"length {n} exceeds (p-1)/2 = {(p - 1) // 2}; longer codes need "
                "extension-field locators, which only the exhaustive decoder serves"
            )
        if n <= tau:
            raise ValueError(f"length {n} leaves no information columns")
        self.q = q
        self.n = n
        self.tau = tau
        self.ell = ell
        self.k = n - tau
        self.q_out = output_alphabet(q, ell)
        self.code = BerlekampCode(PrimeField(p), np.arange(1, n + 1), tau, bound=self.q_out)
        self.vector = self.code.check.vector

    @property
    def redundancy(self) -> int:
        return self.tau

    def encode(self, aprime: QMatrix) -> QMatrix:
        return encode_matrix(self, aprime)

    def encode_array(self, block: np.ndarray) -> np.ndarray:
        """Each row, then the tau symbols of its systematic codeword."""
        return np.hstack((block, systematic_encode(self.code, block)[:, self.k :]))

    def read_syndromes(self, y: ReadVector) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Admit the read; its code syndrome, and its entries."""
        values = y.admit(self.n, self.q_out, vector=self.vector)
        return tuple(self.code.check(values)), y.entries

    def locate(self, syn: tuple[int, ...], y: ReadVector) -> Hits | None:
        if not any(syn):
            return ()  # in range: the alphabet check bounds it
        return locate_bounded(self.code, syn)

    def decode(self, y: ReadVector) -> DecodeOutcome:
        return decode_read(self, y)
