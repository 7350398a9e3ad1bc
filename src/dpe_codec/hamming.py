"""Hamming-metric protection: pack each row's redundancy digits into
GF(p) symbols that extend the (mod-p) data row to an inner-code codeword.

With p chosen above twice the worst per-entry error magnitude, reducing an
output entry mod p loses nothing: the packing map is a homomorphism, it
never increases Hamming weight, and the inner code's bounded-distance
decoder recovers the error symbols, whose signed lifts fix the data prefix.
Erasures (unreadable columns) erase the single packed symbol they feed and
are passed to the inner decoder as known-location unknowns.

The inner code is a Reed-Solomon code in parity-check form (checks at
consecutive powers of distinct nonzero points), decoded for errors and
erasures from its syndromes by Euclid on the key equation with Forney's
values (Roth, Introduction to Coding Theory, ch. 6).  Its locate step
reads a linear locator's one point off and otherwise scans the points'
inverses until one point is left to read off their sum; it returns sparse
hits (`core.Hits`, values mod p).  The code encodes systematically, its
d - 1 check symbols filled from the head's syndromes (`CheckMatrix.tail`),
one message or a block of them in one product.  `syndromes` admits its
symbols (`core.field_symbols`): ints only, reduced mod p.  The code is
built as whole arrays: its points tested distinct and in range on a sorted
copy, and its check rows as one running product of the points (int64
while p^2 < 2^63, else Python ints).
Any linear code over GF(p) with a `check` matrix, an `encode` that also
takes an l x k block of messages, and `locate_syndromes` can stand in,
such as ``oracles.LinearInnerCode``; ``oracles`` also holds the
support-scan decoder the Reed-Solomon decoder is checked against.

The scheme programs a matrix through `core.encode_matrix`: the inner code
encodes the whole packed block, and the check symbols become base-q digit
planes (`core.radix_digits`).

The scheme decodes through `core.decode_read`.  The packing map is linear
mod p, so its syndrome hook is one product with the scheme's
`core.CheckMatrix`: the inner check rows folded over the n read columns (a
digit column weighs its symbol's inner column by q^j mod p), in one array
product of the digit weights and the inner check array, built for
entries in [0, p).  An admitted array read lies in [0, Q) and is reduced
mod p first when Q > p, so the product stays exact.  The hook admits
erasures within the budget and sets erased entries to 0, both for the
product and in the entries the prefix is taken from.  `locate` reads a
zero syndrome as clean; otherwise the inner code's `locate_syndromes`,
told which symbols the erased columns feed, gives hits whose data
positions, lifted to signed values, correct the prefix.  `pack` stays as
the reference the fold is tested against.
"""

from __future__ import annotations

import operator
from itertools import compress
from typing import Sequence

import numpy as np

# gfp_solve stays bound here: bench/tracing.py traces it under this module.
from .basemath import PrimeField, ceil_log, gfp_solve, is_prime, signed_value
from .core import (
    INT64_BOUND,
    CheckMatrix,
    DecodeOutcome,
    Hits,
    QMatrix,
    ReadVector,
    check_locate_input,
    decode_read,
    encode_matrix,
    erasure_indices,
    error_vector,
    field_symbols,
    int_dtype,
    output_alphabet,
    radix_digits,
    systematic_word,
)
from .gfpoly import inverses, poly_eval, poly_mul, solve_key_equation


class ReedSolomonCode:
    """[n, k, n-k+1] code over GF(p) with checks at gamma^1 .. gamma^(d-1)."""

    def __init__(self, field: PrimeField, length: int, k: int, points: Sequence[int] | None = None):
        if not 1 <= k < length:
            raise ValueError(f"need 1 <= k < length, got k={k}, length={length}")
        if length > field.p - 1:
            raise ValueError(
                f"length {length} exceeds p - 1 = {field.p - 1} distinct nonzero points"
            )
        self.field = field
        self.length = length
        self.k = k
        self.d = length - k + 1
        self.gamma = tuple(points) if points is not None else tuple(range(1, length + 1))
        if operator.countOf(map(type, self.gamma), int) != len(self.gamma):
            raise ValueError("points must be integers")
        p = field.p
        dtype = int_dtype(p * p)  # a product of two residues
        low, high = min(self.gamma, default=0), max(self.gamma, default=0)
        gamma = np.array(self.gamma, dtype if -INT64_BOUND <= low <= high < INT64_BOUND else object)
        ordered = np.sort(gamma)
        if len(gamma) != length or (ordered[1:] == ordered[:-1]).any():
            raise ValueError("points must be distinct")
        if not (0 < ordered[0] and ordered[-1] < p):
            raise ValueError("points must be nonzero field elements")
        # row v holds gamma_j^(v+1) mod p: one running product
        powers = np.empty((self.d - 1, length), dtype)
        powers[0] = gamma
        for v in range(1, self.d - 1):
            powers[v] = powers[v - 1] * gamma % p
        self._position = dict(zip(self.gamma, range(length)))
        self.check = CheckMatrix(powers, (p,) * (self.d - 1), p)
        # 1/gamma_j: the scan's points and Forney's
        self._inverse_points = inverses(self.gamma, p)

    def syndromes(self, values: Sequence[int] | np.ndarray) -> list[int] | np.ndarray:
        """S_v = sum_j values_j gamma_j^(v+1) mod p, for a word of `length`
        ints (a bool is not one) or an integer array; an l x length array
        gives one row of syndromes per word (`core.field_symbols`)."""
        return self.check(field_symbols(values, self.length, self.field.p, "word"))

    def encode(self, message: Sequence[int] | np.ndarray) -> list[int] | np.ndarray:
        """Systematic: the message of ints passes through (mod p) and
        `check.tail` fills the d - 1 check symbols; an l x k integer array
        of messages gives the l x length array of codewords."""
        return systematic_word(self.check, message, self.k, self.syndromes)

    def decode_errors_erasures(
        self, values: Sequence[int], erased: Sequence[int], radius: int
    ) -> list[int] | None:
        """Return the full error vector (values mod p, erased entries counted
        as errors against the zero-filled input) or None: `locate_syndromes`
        on the syndromes of the zero-filled input, written out.  `values`
        may be an integer array, as for `syndromes`; the error vector is
        Python ints.  An erased index outside [0, length) is refused before
        any value is read.
        """
        erased = erasure_indices(erased, self.length)
        syn = self.check.less(self.syndromes(values), ((j, values[j]) for j in erased))
        return error_vector(self.length, self.locate_syndromes(syn, erased, radius))

    def _scan_locators(self, lam: list[int], count: int) -> list[int]:
        """The first `count` positions j with Lambda(1/gamma_j) = 0 (all of
        them, if fewer), by Horner's rule at each inverse point."""
        p = self.field.p
        lam = lam[::-1]
        positions = []
        for j, x in enumerate(self._inverse_points):
            value = 0
            for c in lam:
                value = value * x + c
            if not value % p:
                positions.append(j)
                if len(positions) == count:
                    break
        return positions

    def locate_syndromes(
        self, syn: Sequence[int], erased: Sequence[int], radius: int
    ) -> Hits | None:
        """The hits of a word whose erased symbols hold 0, from its
        syndromes S_v = sum_j e_j gamma_j^(v+1), or None: its nonzero
        error symbols mod p, an erased symbol's among them.

        Corrects up to `radius` errors alongside the given erasures whenever
        2*radius + len(erased) < d, and returns None when the closest
        codeword needs more than `radius` errors.  Refuses (ValueError) a
        syndrome without d - 1 entries and an erased index outside
        [0, length).

        With locators X_j = gamma_j and values e_j * gamma_j, Euclid on the
        erasure-modified syndrome Gamma * S mod x^(d-1) gives the error
        locator Lambda and the evaluator Omega (with no erasures, Gamma = 1
        and S itself).  The scan evaluates Lambda at each 1/X_j from the
        code's table of inverses until deg Lambda - 1 roots are found; the
        locators sum to -Lambda_1/Lambda_0, which gives the last (a linear
        Lambda's one, with no scan).  Each error value is
        e_j = -Omega(1/X_j) / Psi'(1/X_j) for the full locator
        Psi = Lambda * Gamma, with 1/X_j from the same table.
        """
        erased = check_locate_input(self.check, syn, erased)
        if len(erased) >= self.d:
            return None
        p = self.field.p
        if not any(syn):
            return ()
        modified, erasure_locator = syn, None
        if erased:
            erasure_locator = [1]
            for j in erased:
                erasure_locator = poly_mul(erasure_locator, [1, -self.gamma[j] % p], p)
            modified = poly_mul(erasure_locator, syn, p)[: self.d - 1]
        stop = (self.d + len(erased)) // 2  # deg Omega < (d - 1 + rho) / 2
        lam, omega = solve_key_equation([0] * (self.d - 1) + [1], modified, stop, p)
        degree = len(lam) - 1
        if not lam or lam[0] == 0 or degree > radius:
            return None
        # Both come from Euclid up to one common factor, which cancels in
        # the values.  The locators are the reciprocals of Lambda's roots,
        # and they sum to -lam[1]/lam[0]: the scan stops one short of
        # deg Lambda and the last is read off (a linear Lambda's, unscanned).
        positions = self._scan_locators(lam, degree - 1) if degree > 1 else []
        if degree:
            if len(positions) < degree - 1:
                return None
            last = -lam[1] * pow(lam[0], -1, p) - sum(self.gamma[j] for j in positions)
            positions.append(self._position.get(last % p))
            if positions[-1] in positions[:-1]:
                return None  # a repeated root
        if None in positions or not set(erased).isdisjoint(positions):
            return None
        psi = lam if erasure_locator is None else poly_mul(lam, erasure_locator, p)
        slope = [i * c % p for i, c in enumerate(psi)][1:]
        support = erased + positions
        values = []
        for j in support:
            x = self._inverse_points[j]
            values.append(-poly_eval(omega, x, p) * pow(poly_eval(slope, x, p), -1, p) % p)
        if not all(values[len(erased) :]):
            return None
        hits = tuple((j, e) for j, e in zip(support, values) if e)
        if any(self.check.less(syn, hits)):
            return None
        return hits


def smallest_inner_prime(theta: int, length: int) -> int:
    """Smallest prime exceeding 2*theta that offers `length` distinct
    nonzero evaluation points."""
    p = max(2 * theta + 1, length + 1)
    while not is_prime(p):
        p += 1
    return p


class HammingScheme:
    """Correct tau position errors of magnitude <= theta; optional extra
    detection (sigma) and erasure budget (rho_max) widen the inner code."""

    def __init__(
        self,
        q: int,
        ell: int,
        k: int,
        tau: int,
        theta: int | None = None,
        sigma: int = 0,
        rho_max: int = 0,
        p: int | None = None,
        inner=None,
    ):
        self.q_out, self.theta, self.d = self._budget(q, ell, tau, theta, sigma, rho_max)
        self.q = q
        self.ell = ell
        self.k = k
        self.tau = tau
        self.sigma = sigma
        self.rho_max = rho_max
        self.ntilde = k + self.d - 1
        if p is None:
            p = smallest_inner_prime(self.theta, self.ntilde)
        else:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p <= 2 * self.theta:
                raise ValueError(f"need p > 2*theta = {2 * self.theta}, got {p}")
            if inner is None and p - 1 < self.ntilde:
                raise ValueError(
                    f"p = {p} offers only {p - 1} evaluation points but the inner "
                    f"code needs length {self.ntilde}; next usable prime is "
                    f"{smallest_inner_prime(self.theta, self.ntilde)}"
                )
        if rho_max > 0 and p < self.q_out:
            raise ValueError(
                f"erasure recovery of data columns needs p >= Q = {self.q_out}, got {p}"
            )
        self.p = p
        self.field = PrimeField(p)
        self.m = ceil_log(q, p)
        self.n = self._length(q, k, self.d, p)
        self.inner = inner if inner is not None else ReedSolomonCode(self.field, self.ntilde, k)
        if self.inner.field.p != p:
            raise ValueError(
                f"inner code is over GF({self.inner.field.p}), but the scheme's "
                f"symbols are mod p = {p}"
            )
        if self.inner.length != self.ntilde or self.inner.k != k or self.inner.d < self.d:
            raise ValueError("inner code does not match the scheme parameters")
        if sigma == 0 and rho_max == 0:
            assert self.n - self.k <= self.redundancy_bound()
        self._digit_weights = [q**j % p for j in range(self.m)]
        self.check = CheckMatrix(self._check_rows(), self.inner.check.moduli, p)
        self.vector = self.check.vector
        # An admitted array read already lies in [0, Q); only Q > p needs
        # the reduction that keeps the product in int64.  A uint8 read
        # stays exact under it, since p < Q <= 256 fits a byte.
        self._reduce = self.vector and self.q_out > p

    @staticmethod
    def _budget(q, ell, tau, theta, sigma, rho_max) -> tuple[int, int, int]:
        """Output alphabet Q, theta (by default Q - 1) and inner distance
        d = 2*tau + sigma + rho_max + 1, checked; none of them depends on k."""
        if tau < 1:
            raise ValueError(f"error budget must be >= 1, got {tau}")
        if min(sigma, rho_max) < 0:
            raise ValueError("sigma and rho_max must be >= 0")
        q_out = output_alphabet(q, ell)
        theta = q_out - 1 if theta is None else theta
        if not 1 <= theta <= q_out - 1:
            raise ValueError(f"theta must be in [1, {q_out - 1}], got {theta}")
        return q_out, theta, 2 * tau + sigma + rho_max + 1

    @staticmethod
    def _length(q: int, k: int, d: int, p: int) -> int:
        """Total length: the k data columns and m = ceil(log_q p) digit
        planes of the d - 1 inner check symbols."""
        return k + ceil_log(q, p) * (d - 1)

    @classmethod
    def dimension(cls, n, q, ell, tau, theta=None, sigma=0, rho_max=0, p=None) -> int | None:
        """The one k in [1, n) at which these arguments give total length
        n, or None.  The inner prime (p, else the smallest one for theta and
        the inner length k + d - 1) never falls as k grows, so the length
        strictly increases with k and bisection finds that k.  Whether a
        scheme builds there is for the constructor to say."""
        _, theta, d = cls._budget(q, ell, tau, theta, sigma, rho_max)

        def length(k: int) -> int:
            return cls._length(q, k, d, smallest_inner_prime(theta, k + d - 1) if p is None else p)

        lo, hi = 1, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if length(mid) < n:
                lo = mid + 1
            else:
                hi = mid
        return lo if lo < n and length(lo) == n else None

    def redundancy_bound(self) -> int:
        """Upper bound on n - k when the inner code is from the BCH family."""
        p, tau = self.p, self.tau
        first = (p + (p - 1) * (2 * tau - 1) + p - 1) // p  # ceil(1 + (p-1)(2tau-1)/p)
        return first * ceil_log(p, self.ntilde) * ceil_log(self.q, p)

    # -- the packing map ----------------------------------------------------

    def _check_rows(self) -> np.ndarray:
        """The inner checks folded through the packing map, one row over the
        n read columns per inner check row: data column j keeps inner column
        j, and digit column k + b + j*block weighs inner column k + b by
        q^j mod p."""
        k, checks = self.k, self.inner.check.array
        dtype = int_dtype(self.p * self.p)  # a weight times a residue
        weights = np.array(self._digit_weights, dtype)[:, None]
        digits = weights * checks[:, None, k:].astype(dtype)  # check row x plane x block
        return np.hstack((checks[:, :k].astype(dtype), digits.reshape(len(checks), -1)))

    def _erased_symbols(self, erased: Sequence[bool]) -> set[int]:
        """The packed symbols that the flagged columns feed: a data column
        its own symbol, a digit column the check symbol of its plane
        position."""
        block = self.ntilde - self.k
        return {
            col if col < self.k else self.k + (col - self.k) % block
            for col in compress(range(self.n), erased)
        }

    def pack(self, values: Sequence[int], erased: Sequence[bool] | None = None):
        """Map n output columns to ntilde field symbols (the row-level
        homomorphism); returns (symbols, erased symbol indices).

        An int64 array packs into an int64 array of symbols: the redundancy
        columns, as an m x block matrix of digit planes reduced mod p, times
        the digit weights.  The decoder does not pack; the map is the
        reference that `check`, the inner checks folded through it, is
        tested against."""
        if len(values) != self.n:
            raise ValueError(f"need {self.n} values, got {len(values)}")
        p = self.p
        block = self.ntilde - self.k
        if isinstance(values, np.ndarray):
            reduced = values % p
            planes = reduced[self.k :].reshape(self.m, block)
            weights = np.array(self._digit_weights, np.int64)
            symbols = np.concatenate((reduced[: self.k], weights @ planes % p))
        else:
            symbols = [values[v] % p for v in range(self.k)]
            for v in range(block):
                symbols.append(
                    sum(values[self.k + v + j * block] * self.q**j for j in range(self.m)) % p
                )
        return symbols, self._erased_symbols(erased) if erased is not None else set()

    # -- encode / decode -----------------------------------------------------

    def encode(self, aprime: QMatrix) -> QMatrix:
        return encode_matrix(self, aprime)

    def encode_array(self, block: np.ndarray) -> np.ndarray:
        """Each row, then the digit planes of its inner check symbols."""
        checks = self.inner.encode(block)[:, self.k :]
        planes = radix_digits(checks, [self.q**j for j in range(self.m)], self.q)
        return np.hstack((block, planes))

    def read_syndromes(self, y: ReadVector) -> tuple[list[int], Sequence[int]]:
        """Admit the read; its inner syndromes and entries, erased ones as 0."""
        values = y.admit(self.n, self.q_out, erasures=True, vector=self.vector)
        entries = y.entries
        if y.has_erasures:  # erased entries are placeholders: count them as 0
            erased = self._erased_symbols(y.erased)
            if len(erased) > self.rho_max:
                raise ValueError(f"{len(erased)} erased symbols exceed the budget {self.rho_max}")
            values = entries = [0 if gone else v for v, gone in zip(entries, y.erased)]
        elif self._reduce and isinstance(values, np.ndarray):
            values = values % self.p  # the symbols' range keeps the product in int64
        return self.check(values), entries

    def locate(self, syn: list[int], y: ReadVector) -> Hits | None:
        if not any(syn):
            return ()
        erased = self._erased_symbols(y.erased) if y.has_erasures else ()
        hits = self.inner.locate_syndromes(syn, erased, self.tau)
        if hits is None:
            return None
        # An erased entry holds 0 and its symbol was solved outright: its
        # error is minus its value c mod p, which is c since p >= Q.
        return [(j, -(-e % self.p) if y.erased[j] else signed_value(e, self.field))
                for j, e in hits if j < self.k]

    def decode(self, y: ReadVector) -> DecodeOutcome:
        return decode_read(self, y)
