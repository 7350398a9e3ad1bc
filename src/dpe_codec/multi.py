"""Multiple-error schemes: syndrome re-encoding with a short recursion, and
direct systematic encoding when the alphabet holds a big enough prime.

Recursive scheme: a matrix A gets its tau-component checksum matrix S
(odd-power checks mod p = 2n+1) split into base-q digit planes and appended
as columns.  The product u * (A | planes) then carries u's own checksum in
its tail, so the decoder can reconstruct it, cancel it against the
checksum of the read prefix, and correct up to tau errors there.  The
appended planes are protected the same way once more (over a smaller
prime), and that second tail is protected by plain (2*tau+1)-fold
repetition, decoded by coordinate-wise median.

Large-alphabet scheme: when some prime p with 2*tau < p <= q exists, each
row reduced mod p is systematically extended to a zero-checksum word, and
the decoder works directly on the read vector reduced mod p.

The checksum of the checked part of the read (the head, or the whole
read) is one product with the code's `core.CheckMatrix`, built for the read
alphabet, on the values `ReadVector.admit` returns; the repetition tail,
the planes and every correction stay on Python ints.
"""

from __future__ import annotations

from .basemath import PrimeField, base_q_digits, ceil_log, is_prime, next_prime
from .berlekamp import BerlekampCode, decode_bounded, systematic_encode
from .core import (
    DECODE_FAILURE,
    DecodeOutcome,
    QMatrix,
    ReadVector,
    check_input,
    corrected,
    decoded,
    output_alphabet,
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
        self.checker = BerlekampCode(PrimeField(p), self.loc.alpha, tau, bound=self.q_out)
        self.plane_cols = tau - 1 if trimmed else tau
        self.ntilde = self.plane_cols * self.m
        self.rep = 2 * tau + 1
        if self.ntilde > 0:
            self.ptilde = next_prime(max(2 * self.ntilde + 1, 2 * tau + 1))
            self.mtilde = ceil_log(q, self.ptilde)
            self.tail_checker = BerlekampCode(
                PrimeField(self.ptilde), tuple(range(1, self.ntilde + 1)), tau
            )
        else:
            self.ptilde = None
            self.mtilde = 0
            self.tail_checker = None
        self.k = self.n  # every input column is information
        self.vector = self.checker.check.vector

    @property
    def redundancy(self) -> int:
        return self.ntilde + self.rep * self.tau * self.mtilde

    @property
    def total_length(self) -> int:
        return self.n + self.redundancy

    def _plane_block(self, syndrome: tuple) -> list[int]:
        """Digit planes of one row's checksum, laid out plane-major."""
        start = self.tau - self.plane_cols
        digits = [base_q_digits(syndrome[v], self.q, self.m) for v in range(start, self.tau)]
        return [column[j] for j in range(self.m) for column in digits]

    def encode(self, matrix: QMatrix) -> QMatrix:
        check_input(matrix, self.q, self.n)
        rows = []
        for row in matrix.rows:
            syn = self.checker.syndrome(row)
            if self.trimmed and syn[0] != 0:
                raise ValueError(
                    "trimmed mode needs rows with a zero linear checksum "
                    "(single-error-encoded input)"
                )
            block = self._plane_block(syn)
            tail: list[int] = []
            if self.ntilde > 0:
                syn2 = self.tail_checker.syndrome(block)
                digits = [base_q_digits(s, self.q, self.mtilde) for s in syn2]
                tail = [column[j] for j in range(self.mtilde) for column in digits]
            rows.append(tuple(row) + tuple(block) + tuple(tail) * self.rep)
        return QMatrix(self.q, tuple(rows))

    def decode(self, y: ReadVector) -> DecodeOutcome:
        values = y.admit(self.total_length, self.q_out, vector=self.vector)
        head = y.entries[: self.n]
        block = y.entries[self.n : self.n + self.ntilde]

        if self.ntilde > 0:
            # Level 3: median over the repeated copies recovers the digits
            # of the block's checksum exactly (at most tau copies disturbed).
            tail_width = self.tau * self.mtilde
            tail = y.entries[self.n + self.ntilde :]
            medians = [
                _median([tail[r * tail_width + t] for r in range(self.rep)])
                for t in range(tail_width)
            ]
            syn2 = tuple(
                sum(
                    self.q**j * medians[j * self.tau + v] for j in range(self.mtilde)
                )
                % self.ptilde
                for v in range(self.tau)
            )
            # Level 2: cancel it against the read block's checksum.
            block_syn = self.tail_checker.syndrome(block)
            err_syn = tuple((a - b) % self.ptilde for a, b in zip(block_syn, syn2))
            block_err = decode_bounded(self.tail_checker, err_syn)
            if block_err is None:
                return DECODE_FAILURE
            fixed = corrected(block, self.ntilde, enumerate(block_err), self.q_out)
            if fixed.failed:
                return fixed
            block = fixed.prefix

        # Level 1: rebuild the head's checksum from the corrected planes.
        start = self.tau - self.plane_cols
        syn1 = [0] * self.tau
        for v in range(start, self.tau):
            syn1[v] = (
                sum(
                    self.q**j * block[j * self.plane_cols + (v - start)]
                    for j in range(self.m)
                )
                % self.p
            )
        head_syn = self.checker.syndrome(values[: self.n])
        err_syn = tuple((a - b) % self.p for a, b in zip(head_syn, syn1))
        head_err = decode_bounded(self.checker, err_syn)
        if head_err is None:
            return DECODE_FAILURE
        if not any(err_syn):
            return decoded(head)  # a zero syndrome decodes to no error
        return corrected(head, self.n, enumerate(head_err), self.q_out)


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
        self.code = BerlekampCode(PrimeField(p), tuple(range(1, n + 1)), tau, bound=self.q_out)
        self.vector = self.code.check.vector

    @property
    def redundancy(self) -> int:
        return self.tau

    def encode(self, aprime: QMatrix) -> QMatrix:
        check_input(aprime, self.q, self.k)
        rows = []
        for row in aprime.rows:
            codeword = systematic_encode(self.code, [v % self.p for v in row])
            rows.append(tuple(row) + tuple(codeword[self.k :]))
        return QMatrix(self.q, tuple(rows))

    def decode(self, y: ReadVector) -> DecodeOutcome:
        syn = self.code.syndrome(y.admit(self.n, self.q_out, vector=self.vector))
        if not any(syn):
            return decoded(y.entries[: self.k])  # in range: the alphabet check bounds it
        err = decode_bounded(self.code, syn)
        if err is None:
            return DECODE_FAILURE
        return corrected(y.entries, self.k, enumerate(err), self.q_out)
