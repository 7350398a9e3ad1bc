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
values (Roth, Introduction to Coding Theory, ch. 6).  A syndrome with no
erasures that is geometric (S_1^2 = S_0 S_2, an O(1) gate) is first read
as one error, its point S_1/S_0 looked up and checked against every
syndrome, so a one-error read skips Euclid and the scan.  With no
erasures and radius <= 3, the locator of three or two errors is solved
from its Hankel system by Cramer's rule (Peterson, IRE Trans. IT, 1960),
so only erasure reads and radii past 3 go to Euclid.  Either locator's
points come from `gfpoly.locator_points`, the Lee decoder's root finder
(two errors' are a quadratic's roots), and the locate step returns sparse
hits (`core.Hits`, values mod p).  The code encodes systematically, its
d - 1 check symbols filled from the head's syndromes (`CheckMatrix.tail`),
one message or a block of them in one product.  `syndromes` admits its
symbols (`core.field_symbols`): ints only, reduced mod p.  The code is
built as whole arrays: its points tested distinct and in range on a
sorted copy, and its check rows as one running product of the points
(int64 while p^2 < 2^63, else Python ints); it takes no inverse until it
decodes.

The scheme is a `core.Scheme`.  Its `encode_array` has the inner code
encode the whole packed block, and the check symbols become base-q digit
planes (`core.radix_digits`).

The packing map is linear mod p, so the read's syndromes are one product
with the scheme's `check`: the inner check rows folded over the n read
columns (a digit column weighs its symbol's inner column by q^j mod p), in
one array product of the digit weights and the inner check array, built
for entries in [0, p).  An admitted array read lies in [0, Q) and is
reduced mod p first when Q > p, so the product stays exact.  Its own
`read_syndromes` admits erasures within the budget; the read holds 0 at
each erased entry (`core.ReadVector`), so the product and the prefix read
it as any other read.  `locate` reads a zero syndrome as clean; otherwise
the inner code's `locate_syndromes`, told which symbols the erased
columns feed, gives hits whose data positions, lifted to signed values,
correct the prefix.  `pack` stays as the reference the fold is tested
against.
"""

from __future__ import annotations

import operator
from functools import cache, cached_property, partial
from typing import Iterable, Sequence

import numpy as np

# gfp_solve stays bound here: bench/tracing.py traces it under this module.
from .basemath import PrimeField, ceil_log, gfp_solve, is_prime, signed_value
from .core import (
    INT64_BOUND,
    CheckMatrix,
    Hits,
    ReadVector,
    Scheme,
    check_locate_input,
    decode_read,
    erasure_indices,
    error_vector,
    field_symbols,
    int_dtype,
    radix_digits,
    read_alphabet,
    require_int,
    systematic_word,
)
from .gfpoly import (
    inverses,
    locator_points,
    pair_table,
    poly_eval,
    poly_mul,
    poly_trim,
    solve_key_equation,
)


class ReedSolomonCode:
    """[n, k, n-k+1] code over GF(p) with checks at gamma^1 .. gamma^(d-1)."""

    def __init__(self, field: PrimeField, length: int, k: int, points: Sequence[int] | None = None):
        if not 1 <= require_int("k", k) < require_int("length", length):
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
        # the scan table over the points, built on the first scan
        self._pairs = cache(partial(pair_table, self._position, p))
        self.check = CheckMatrix(powers, (p,) * (self.d - 1), p)

    @cached_property
    def _inverses(self) -> list[int]:
        """1/gamma_j, Forney's point for position j, built on first use."""
        return inverses(self.gamma, self.field.p)

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

    def locate_syndromes(
        self, syn: Sequence[int], erased: Sequence[int], radius: int
    ) -> Hits | None:
        """The hits of a word whose erased symbols hold 0, from its
        syndromes S_v = sum_j e_j gamma_j^(v+1), or None: its nonzero
        error symbols mod p, an erased symbol's among them.

        With no erasures and radius >= 1, one error e at gamma is read off
        first: its syndromes S_v = e gamma^(v+1) pass the gate
        S_1^2 = S_0 S_2, gamma = S_1/S_0 is looked up among the points, and
        e = S_0/gamma is returned if it reproduces all d - 1 syndromes;
        this skips the locator and the scan.  Any syndrome it does not
        explain takes the path below.

        Corrects up to `radius` errors alongside the given erasures whenever
        2*radius + len(erased) < d, and returns None when the closest
        codeword needs more than `radius` errors.  Refuses (ValueError) a
        syndrome without d - 1 entries and an erased index outside
        [0, length).

        With locators X_j = gamma_j and values e_j * gamma_j, the syndromes
        are S_v = sum_j (e_j gamma_j) X_j^v.  With no erasures and
        radius <= 3, the error locator Lambda of three or two errors solves
        its Hankel system by Cramer's rule (`_hankel_locator`, no Euclid),
        and the evaluator is Omega = Lambda S mod x^deg Lambda.  Otherwise
        Euclid on the erasure-modified syndrome Gamma * S mod x^(d-1) gives
        Lambda and Omega (with no erasures, Gamma = 1 and S itself), scaled
        together to Lambda(0) = 1.  The locators X_j, the reciprocals of
        Lambda's roots, come from `gfpoly.locator_points`: read off for one
        error, the roots of a quadratic for two, a scan past that (both
        signs can be roots: errors at gamma and p - gamma).  A repeated
        locator is refused.  Each error value is
        e_j = -Omega(1/X_j) / Psi'(1/X_j) for the full locator
        Psi = Lambda * Gamma, with 1/X_j from the code's table of inverses.
        """
        erased = check_locate_input(self.check, syn, erased)
        if len(erased) >= self.d:
            return None
        p = self.field.p
        if not erased and radius >= 1 and len(syn) > 1 and syn[0] % p:
            s0, s1 = syn[0] % p, syn[1] % p
            if len(syn) == 2 or s1 * s1 % p == s0 * syn[2] % p:
                j = self._position.get(s1 * pow(s0, -1, p) % p)
                if j is not None:
                    hit = (j, s0 * self._inverses[j] % p)
                    if not any(self.check.less(syn, (hit,))):
                        return (hit,)
        syn = [s % p for s in syn]
        if not any(syn):
            return ()
        erasure_locator = None
        if not erased and radius <= 3:
            lam = _hankel_locator(syn, min(radius, (self.d - 1) // 2), p)
            if lam is None:
                return None
            # Omega = Lambda S mod x^deg Lambda
            omega = [sum(map(operator.mul, lam[: k + 1], syn[k::-1])) % p
                     for k in range(len(lam) - 1)]
        else:
            modified = syn
            if erased:
                erasure_locator = [1]
                for j in erased:
                    erasure_locator = poly_mul(erasure_locator, [1, -self.gamma[j] % p], p)
                modified = poly_mul(erasure_locator, syn, p)[: self.d - 1]
            stop = (self.d + len(erased)) // 2  # deg Omega < (d - 1 + rho) / 2
            lam, omega = solve_key_equation([0] * (self.d - 1) + [1], modified, stop, p)
            if not lam or lam[0] == 0 or len(lam) - 1 > radius:
                return None
            scale = pow(lam[0], -1, p)  # Euclid's pair shares a constant factor
            lam, omega = [c * scale % p for c in lam], [c * scale % p for c in omega]
        points = locator_points(lam, self._pairs, self.field)
        if points is None or len(points) < len(lam) - 1:
            return None  # Lambda does not split into distinct points
        positions = [self._position.get(x) for x in points]
        if None in positions or not set(erased).isdisjoint(positions):
            return None
        psi = lam if erasure_locator is None else poly_mul(lam, erasure_locator, p)
        slope = [i * c % p for i, c in enumerate(psi)][1:]
        support = erased + positions
        values = []
        for j in support:
            x = self._inverses[j]
            values.append(-poly_eval(omega, x, p) * pow(poly_eval(slope, x, p), -1, p) % p)
        if not all(values[len(erased) :]):
            return None
        hits = tuple((j, e) for j, e in zip(support, values) if e)
        if any(self.check.less(syn, hits)):
            return None
        return hits


def _hankel_locator(syn: list[int], t: int, p: int) -> list[int] | None:
    """The locator Lambda = 1 + Lambda_1 x + .. (trimmed) of w = 3 or 2 <= t
    errors from the reduced syndromes, by Cramer's rule on the Hankel
    system S_v + Lambda_1 S_(v-1) + .. + Lambda_w S_(v-w) = 0,
    v = w .. 2w - 1: w = 3 where t >= 3 and its determinant is nonzero,
    else w = 2 where t >= 2 and its determinant is, else None.  The
    system's matrix is V D V^T for the Vandermonde matrix V of w locators,
    so it is singular for fewer than w errors and never for w."""
    if t < 2:
        return None
    s0, s1, s2, s3 = syn[:4]
    minor = s0 * s2 - s1 * s1  # the 2 x 2 determinant
    if t >= 3:
        s4, s5 = syn[4], syn[5]
        # the adjugate of the symmetric [[S0, S1, S2], [S1, S2, S3], [S2, S3, S4]]
        a00, a01, a02 = s2 * s4 - s3 * s3, s2 * s3 - s1 * s4, s1 * s3 - s2 * s2
        a11, a12 = s0 * s4 - s2 * s2, s1 * s2 - s0 * s3
        det = (s0 * a00 + s1 * a01 + s2 * a02) % p
        if det:
            inv = -pow(det, -1, p)
            return poly_trim([1, (a02 * s3 + a12 * s4 + minor * s5) * inv % p,
                              (a01 * s3 + a11 * s4 + a12 * s5) * inv % p,
                              (a00 * s3 + a01 * s4 + a02 * s5) * inv % p])
    if minor % p:
        inv = pow(minor, -1, p)
        return poly_trim([1, (s1 * s2 - s0 * s3) * inv % p, (s1 * s3 - s2 * s2) * inv % p])
    return None


def smallest_inner_prime(theta: int, length: int) -> int:
    """Smallest prime exceeding 2*theta that offers `length` distinct
    nonzero evaluation points."""
    p = max(2 * theta + 1, length + 1)
    while not is_prime(p):
        p += 1
    return p


class HammingScheme(Scheme):
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
    ):
        super().__init__(q, ell)
        self.theta, self.d = self._budget(q, ell, tau, theta, sigma, rho_max, p)
        self.k = require_int("k", k)
        self.tau = tau
        self.sigma = sigma
        self.rho_max = rho_max
        self.ntilde = k + self.d - 1
        if p is None:
            p = smallest_inner_prime(self.theta, self.ntilde)
        else:
            if p <= 2 * self.theta:
                raise ValueError(f"need p > 2*theta = {2 * self.theta}, got {p}")
            if p - 1 < self.ntilde:
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
        self.inner = ReedSolomonCode(self.field, self.ntilde, k)
        if sigma == 0 and rho_max == 0:
            assert self.n - self.k <= self.redundancy_bound()
        self._digit_weights = [q**j % p for j in range(self.m)]
        self.check = CheckMatrix(self._check_rows(), self.inner.check.moduli, p)
        # An admitted array read already lies in [0, Q); only Q > p needs
        # the reduction that keeps the product in int64.  A uint8 read
        # stays exact under it, since p < Q <= 256 fits a byte.
        self._reduce = self.check.vector and self.q_out > p

    @staticmethod
    def _budget(q, ell, tau, theta, sigma, rho_max, p) -> tuple[int, int]:
        """theta (by default Q - 1) and inner distance
        d = 2*tau + sigma + rho_max + 1, with q, ell and whether a given p
        is a prime, checked; none of them depends on k."""
        q_out = read_alphabet(q, ell)
        if require_int("tau", tau) < 1:
            raise ValueError(f"error budget must be >= 1, got {tau}")
        if min(require_int("sigma", sigma), require_int("rho_max", rho_max)) < 0:
            raise ValueError("sigma and rho_max must be >= 0")
        theta = q_out - 1 if theta is None else require_int("theta", theta)
        if not 1 <= theta <= q_out - 1:
            raise ValueError(f"theta must be in [1, {q_out - 1}], got {theta}")
        if p is not None and not is_prime(require_int("p", p)):
            raise ValueError(f"{p} is not prime")
        return theta, 2 * tau + sigma + rho_max + 1

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
        require_int("n", n)
        theta, d = cls._budget(q, ell, tau, theta, sigma, rho_max, p)

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

    def _erased_symbols(self, erased: Iterable[int]) -> set[int]:
        """The packed symbols that the erased columns feed: a data column
        its own symbol, a digit column the check symbol of its plane
        position."""
        k, block = self.k, self.ntilde - self.k
        return {c if c < k else k + (c - k) % block for c in erased}

    def pack(self, values: Sequence[int], erased: Iterable[int] = ()):
        """Map n output columns to ntilde field symbols (the row-level
        homomorphism); returns (symbols, the indices of the symbols that
        the `erased` columns feed).

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
        return symbols, self._erased_symbols(erasure_indices(erased, self.n))

    # -- encode / decode -----------------------------------------------------

    def encode_array(self, block: np.ndarray) -> np.ndarray:
        """Each row, then the digit planes of its inner check symbols."""
        checks = self.inner.encode(block)[:, self.k :]
        planes = radix_digits(checks, [self.q**j for j in range(self.m)], self.q)
        return np.hstack((block, planes))

    def read_syndromes(self, y: ReadVector) -> list[int]:
        """Admit the read, erasures within the budget; its inner syndromes."""
        check = self.check
        values = y.admit(check.n, self.q_out, erasures=True, vector=check.vector)
        if y.erased:
            count = len(self._erased_symbols(y.erased))
            if count > self.rho_max:
                raise ValueError(f"{count} erased symbols exceed the budget {self.rho_max}")
        if self._reduce and isinstance(values, np.ndarray):
            values = values % self.p  # the symbols' range keeps the product in int64
        return check(values)

    def locate(self, syn: list[int], y: ReadVector) -> Hits | None:
        if not any(syn):
            return ()
        erased = self._erased_symbols(y.erased) if y.erased else ()
        hits = self.inner.locate_syndromes(syn, erased, self.tau)
        if hits is None:
            return None
        # An erased entry holds 0 and its symbol was solved outright: its
        # error is minus its value c mod p, which is c since p >= Q.
        return [(j, -(-e % self.p) if j in y.erased else signed_value(e, self.field))
                for j, e in hits if j < self.k]

    decode = decode_read
