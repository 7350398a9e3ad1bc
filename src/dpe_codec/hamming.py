"""Hamming-metric protection: pack each row's redundancy digits into
GF(p) symbols that extend the (mod-p) data row to an inner-code codeword.

With p chosen above twice the worst per-entry error magnitude, reducing an
output entry mod p loses nothing: the packing map is a homomorphism, it
never increases Hamming weight, and the inner code's bounded-distance
decoder recovers the error symbols, whose signed lifts fix the data prefix.
Erasures (unreadable columns) erase the single packed symbol they feed and
are passed to the inner decoder as known-location unknowns.

The inner code here is a Reed-Solomon code in parity-check form (checks at
consecutive powers of distinct nonzero points, an MDS construction),
decoded for errors and erasures by Euclid's algorithm on the key equation
with Forney's error values (Roth, Introduction to Coding Theory, ch. 6).
Any linear code with a `check` matrix and `decode_errors_erasures` can
stand in, such as ``oracles.LinearInnerCode``, which decodes by codeword
enumeration; the support-scan decoder in ``oracles`` is the reference the
Reed-Solomon decoder is checked against.

The scheme's check matrix is the inner code's (`core.CheckMatrix`, over
symbols in [0, p)), and it decides the int64 kernel.  On that path a read
without erasures is packed from its int64 array (every entry reduced mod p
first, then the digit planes as one reshape times the digit weights), so
the product stays exact for any read alphabet; reads with erasures and the
correction stay on Python ints.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# gfp_solve stays bound here: bench/tracing.py traces it under this module.
from .basemath import PrimeField, base_q_digits, ceil_log, gfp_solve, is_prime, signed_value
from .core import (
    DECODE_FAILURE,
    CheckMatrix,
    DecodeOutcome,
    QMatrix,
    ReadVector,
    check_input,
    decoded,
    output_alphabet,
)
from .gfpoly import poly_eval, poly_mul, poly_roots, solve_key_equation


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
        if len(self.gamma) != length or len(set(self.gamma)) != length:
            raise ValueError("points must be distinct")
        if any(not 0 < g < field.p for g in self.gamma):
            raise ValueError("points must be nonzero field elements")
        p = field.p
        self._powers = [
            tuple(pow(g, v + 1, p) for g in self.gamma) for v in range(self.d - 1)
        ]
        self._position = {g: j for j, g in enumerate(self.gamma)}
        self.check = CheckMatrix(self._powers, (p,) * (self.d - 1), p)

    def syndromes(self, values: Sequence[int]) -> list[int]:
        """S_v = sum_j values_j gamma_j^(v+1) mod p; `values` may be an
        int64 array of symbols in [0, p) where `check.vector` holds."""
        return self.check(values)

    def encode(self, message: Sequence[int]) -> list[int]:
        """Systematic: message passes through, redundancy fills the tail.

        The redundancy is recovered as d - 1 erasures of the zero-filled
        tail."""
        if len(message) != self.k:
            raise ValueError(f"message length {len(message)} != {self.k}")
        p = self.field.p
        word = [v % p for v in message] + [0] * (self.d - 1)
        tail = range(self.k, self.length)
        error = self._locate(self.syndromes(word), tail, 0)
        return word[: self.k] + [-error[j] % p for j in tail]

    def decode_errors_erasures(
        self, values: Sequence[int], erased: Sequence[int], radius: int
    ) -> list[int] | None:
        """Return the full error vector (values mod p, erased entries counted
        as errors against the zero-filled input) or None.

        Corrects up to `radius` errors alongside the given erasures whenever
        2*radius + len(erased) < d, and returns None when the closest
        codeword needs more than `radius` errors.  `values` may be an int64
        array of symbols in [0, p), as for `syndromes`; the error vector is
        Python ints.
        """
        p = self.field.p
        erased = sorted(set(erased))
        if len(erased) >= self.d:
            return None
        syn = self.syndromes(values)
        if erased:  # count the erased symbols as 0
            syn = [
                (s - sum(int(values[j]) * row[j] for j in erased)) % p
                for s, row in zip(syn, self._powers)
            ]
        return self._locate(syn, erased, radius)

    def _locate(self, syn: list[int], erased: Sequence[int], radius: int) -> list[int] | None:
        """Errors and erasures from the syndromes S_v = sum_j e_j gamma_j^(v+1).

        With locators X_j = gamma_j and values e_j * gamma_j, Euclid on the
        erasure-modified syndrome Gamma * S mod x^(d-1) gives the error
        locator Lambda and the evaluator Omega.  Lambda's roots are scanned
        over the points, and each error value is e_j = -Omega(1/X_j) /
        Psi'(1/X_j) for the full locator Psi = Lambda * Gamma.
        """
        p = self.field.p
        if not any(syn):
            return [0] * self.length
        erasure_locator = [1]
        for j in erased:
            erasure_locator = poly_mul(erasure_locator, [1, -self.gamma[j] % p], p)
        modified = poly_mul(erasure_locator, syn, p)[: self.d - 1]
        stop = (self.d + len(erased)) // 2  # deg Omega < (d - 1 + rho) / 2
        lam, omega = solve_key_equation([0] * (self.d - 1) + [1], modified, stop, p)
        if not lam or lam[0] == 0 or len(lam) - 1 > radius:
            return None
        # Both come from Euclid up to one common factor, which cancels in
        # the values.  The locators are the roots of the reversed Lambda.
        roots = poly_roots(lam[::-1], self.gamma, p)
        if roots is None:
            return None
        positions = [self._position.get(x) for x in roots]
        if None in positions or set(positions) & set(erased) or any(m > 1 for m in roots.values()):
            return None
        psi = poly_mul(lam, erasure_locator, p)
        slope = [i * c % p for i, c in enumerate(psi)][1:]
        support = list(erased) + positions
        error = [0] * self.length
        for j in support:
            x = pow(self.gamma[j], -1, p)
            error[j] = -poly_eval(omega, x, p) * pow(poly_eval(slope, x, p), -1, p) % p
        if not all(error[j] for j in positions):
            return None
        for v, row in enumerate(self._powers):
            if sum(error[j] * row[j] for j in support) % p != syn[v]:
                return None
        return error


def smallest_inner_prime(theta: int, length: int) -> int:
    """Smallest prime exceeding 2*theta that offers `length` distinct
    nonzero evaluation points."""
    p = 2 * theta + 1
    while True:
        if is_prime(p) and p - 1 >= length:
            return p
        p += 1


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
        if tau < 1:
            raise ValueError(f"error budget must be >= 1, got {tau}")
        if min(sigma, rho_max) < 0:
            raise ValueError("sigma and rho_max must be >= 0")
        self.q = q
        self.ell = ell
        self.k = k
        self.tau = tau
        self.sigma = sigma
        self.rho_max = rho_max
        self.q_out = output_alphabet(q, ell)
        self.theta = self.q_out - 1 if theta is None else theta
        if not 1 <= self.theta <= self.q_out - 1:
            raise ValueError(
                f"theta must be in [1, {self.q_out - 1}], got {self.theta}"
            )
        self.d = 2 * tau + sigma + rho_max + 1
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
        self.n = k + self.m * (self.ntilde - k)
        self.inner = inner if inner is not None else ReedSolomonCode(self.field, self.ntilde, k)
        if self.inner.length != self.ntilde or self.inner.k != k or self.inner.d < self.d:
            raise ValueError("inner code does not match the scheme parameters")
        if sigma == 0 and rho_max == 0:
            assert self.n - self.k <= self.redundancy_bound()
        self.vector = self.inner.check.vector
        self._digit_weights = np.array([q**j % p for j in range(self.m)], np.int64)

    def redundancy_bound(self) -> int:
        """Upper bound on n - k when the inner code is from the BCH family."""
        p, tau = self.p, self.tau
        first = (p + (p - 1) * (2 * tau - 1) + p - 1) // p  # ceil(1 + (p-1)(2tau-1)/p)
        return first * ceil_log(p, self.ntilde) * ceil_log(self.q, p)

    # -- the packing map ----------------------------------------------------

    def pack(self, values: Sequence[int], erased: Sequence[bool] | None = None):
        """Map n output columns to ntilde field symbols (the row-level
        homomorphism); returns (symbols, erased symbol indices).

        An int64 array (a read of a scheme whose `vector` holds) packs into
        an int64 array of symbols: the redundancy columns, as an m x block
        matrix of digit planes reduced mod p, times the digit weights."""
        if len(values) != self.n:
            raise ValueError(f"need {self.n} values, got {len(values)}")
        p = self.p
        block = self.ntilde - self.k
        if isinstance(values, np.ndarray):
            reduced = values % p
            planes = reduced[self.k :].reshape(self.m, block)
            symbols = np.concatenate((reduced[: self.k], self._digit_weights @ planes % p))
        else:
            symbols = [values[v] % p for v in range(self.k)]
            for v in range(block):
                symbols.append(
                    sum(values[self.k + v + j * block] * self.q**j for j in range(self.m)) % p
                )
        erased_symbols: set[int] = set()
        if erased is not None:
            for col, gone in enumerate(erased):
                if not gone:
                    continue
                if col < self.k:
                    erased_symbols.add(col)
                else:
                    erased_symbols.add(self.k + (col - self.k) % block)
        return symbols, erased_symbols

    # -- encode / decode -----------------------------------------------------

    def encode(self, aprime: QMatrix) -> QMatrix:
        check_input(aprime, self.q, self.k)
        block = self.ntilde - self.k
        rows = []
        for row in aprime.rows:
            cw = self.inner.encode([v % self.p for v in row])
            digits = [base_q_digits(cw[self.k + v], self.q, self.m) for v in range(block)]
            tail = [digits[v][j] for j in range(self.m) for v in range(block)]
            rows.append(tuple(row) + tuple(tail))
        return QMatrix(self.q, tuple(rows))

    def decode(self, y: ReadVector) -> DecodeOutcome:
        values = y.admit(self.n, self.q_out, erasures=True, vector=self.vector)
        symbols, erased_symbols = self.pack(values, y.erased if y.has_erasures else None)
        if len(erased_symbols) > self.rho_max:
            raise ValueError(
                f"{len(erased_symbols)} erased symbols exceed the budget {self.rho_max}"
            )
        err = self.inner.decode_errors_erasures(symbols, erased_symbols, self.tau)
        if err is None:
            return DECODE_FAILURE
        if not any(err):
            # erased entries hold 0, which is then their value
            return decoded(y.entries[: self.k])
        prefix = []
        for j in range(self.k):
            if y.erased[j]:
                # the symbol was solved outright: c mod p, unique since p >= Q
                value = (-err[j]) % self.p
            else:
                value = y.entries[j] - signed_value(err[j], self.field)
            if not 0 <= value < self.q_out:
                return DECODE_FAILURE
            prefix.append(value)
        return decoded(prefix)
