"""Row-wise encoders whose output matrices keep every dot-product result
decodable after one L1 error (optionally detecting a second).

The base scheme appends m digit columns so that every row, weighted by the
code locators, sums to 0 modulo 2n+1.  Any output vector y = uA + e with
one +-1 error then has syndrome +-alpha_j, identifying position and sign.

Three variants buy double-error detection: an extra parity column (any q,
and the only choice for q = 2), or odd locators modulo 4n+2 where the
syndrome's parity counts the errors (odd q directly; even q > 2 after
swapping digit weights for the odd mixed-radix sequence).  `detect_variant`
picks and checks the variant here and for the double-error schemes.

Each decoder admits its read (`ReadVector.admit`), computes the syndrome
and dispatches on it; a located +-1 error is applied by `correct_unit`,
which the double-error schemes share, over `core.corrected`.  The syndrome
is the product of the admitted read with the scheme's `core.CheckMatrix`:
the locator row, and in the parity variant of sec-ded an all-ones row mod
2 whose value counts the errors mod 2.
"""

from __future__ import annotations

from typing import Sequence

from .basemath import base_q_digits, ceil_log, mixed_radix_digits
from .core import (
    DECODE_FAILURE,
    CheckMatrix,
    DecodeOutcome,
    QMatrix,
    ReadVector,
    check_input,
    corrected,
    decoded,
    output_alphabet,
    parity_extend,
)
from .locators import (
    SUFFIX_FSEQ,
    Locators,
    build_locators_basic,
    build_locators_ded,
)

VARIANT_PARITY = "parity"
VARIANT_ODD_Q = "odd_q"
VARIANT_EVEN_Q = "even_q"


def redundancy_lower_bound(q: int, n: int) -> int:
    """Sphere-packing floor on the redundancy of any single-error scheme."""
    return ceil_log(q, n + 1)


def redundancy_digits(residue: int, loc: Locators) -> list[int]:
    if loc.suffix_kind == SUFFIX_FSEQ:
        return mixed_radix_digits(residue, loc.suffix_weights(), loc.q)
    return base_q_digits(residue, loc.q, loc.m)


def encode_row(row: Sequence[int], loc: Locators) -> tuple[int, ...]:
    """Append the digit suffix that zeroes the row's locator checksum."""
    if len(row) != loc.k:
        raise ValueError(f"row length {len(row)} != dimension {loc.k}")
    residue = (-sum(a * loc.alpha[j] for j, a in enumerate(row))) % loc.modulus
    return tuple(row) + tuple(redundancy_digits(residue, loc))


def checksum(values: Sequence[int], check: CheckMatrix) -> list[int]:
    """The syndromes of a single-error scheme's read: its check rows times
    the values `ReadVector.admit` returned for it."""
    return check(values)


def locate_unit_error(s: int, loc: Locators) -> tuple[int, int] | None:
    """Map a nonzero syndrome to (position, error value +-1), if possible."""
    j = loc.index_of(s)
    if j is not None:
        return j, 1
    j = loc.index_of(loc.modulus - s)
    if j is not None:
        return j, -1
    return None


def correct_unit(
    values: Sequence[int], k: int, s: int, loc: Locators, bound: int
) -> DecodeOutcome:
    """Correct the lone +-1 error that syndrome s locates, or fail."""
    hit = locate_unit_error(s, loc)
    if hit is None:
        return DECODE_FAILURE
    return corrected(values, k, (hit,), bound)


def detect_variant(q: int, variant: str | None) -> str:
    """The detect variant: the given one, checked against q, or by default
    parity for q = 2, odd locators for odd q and mixed radix for even q."""
    if variant is None:
        return VARIANT_PARITY if q == 2 else (VARIANT_ODD_Q if q % 2 else VARIANT_EVEN_Q)
    if variant not in (VARIANT_PARITY, VARIANT_ODD_Q, VARIANT_EVEN_Q):
        raise ValueError(
            f"unknown detect variant {variant!r}; expected "
            f"{VARIANT_PARITY}, {VARIANT_ODD_Q} or {VARIANT_EVEN_Q}"
        )
    if variant == VARIANT_ODD_Q and (q < 3 or q % 2 == 0):
        raise ValueError("odd-locator variant needs odd q >= 3")
    if variant == VARIANT_EVEN_Q and (q < 4 or q % 2 == 1):
        raise ValueError("mixed-radix variant needs even q >= 4")
    return variant


class ParityDetectScheme:
    """Minimal scheme: one parity column, detects a single L1 error."""

    def __init__(self, q: int, k: int, ell: int):
        if k < 1:
            raise ValueError("dimension must be >= 1")
        self.q = q
        self.k = k
        self.n = k + 1
        self.ell = ell
        self.q_out = output_alphabet(q, ell)

    def encode(self, aprime: QMatrix) -> QMatrix:
        check_input(aprime, self.q, self.k)
        return QMatrix(self.q, tuple(parity_extend(row) for row in aprime.rows))

    def decode(self, y: ReadVector) -> DecodeOutcome:
        y.admit(self.n, self.q_out)
        if sum(y.entries) % 2:
            return DECODE_FAILURE
        return decoded(y.entries[: self.k])


class SingleErrorScheme:
    """Correct one L1 error (no extra detection): redundancy ceil(log_q(2n+1))."""

    def __init__(self, q: int, n: int, ell: int, allow_suffix_ambiguity: bool = False):
        self.loc = build_locators_basic(q, n, allow_suffix_ambiguity)
        self.q = q
        self.n = n
        self.ell = ell
        self.m = self.loc.m
        self.k = self.loc.k
        self.modulus = self.loc.modulus
        self.q_out = output_alphabet(q, ell)
        self.check = CheckMatrix([self.loc.alpha], [self.modulus], self.q_out)
        self.vector = self.check.vector

    def encode(self, aprime: QMatrix) -> QMatrix:
        check_input(aprime, self.q, self.k)
        return QMatrix(self.q, tuple(encode_row(row, self.loc) for row in aprime.rows))

    def syndrome(self, y: ReadVector) -> int:
        """Admit the read; its locator checksum."""
        (s,) = checksum(y.admit(self.n, self.q_out, vector=self.vector), self.check)
        return s

    def decode(self, y: ReadVector) -> DecodeOutcome:
        s = self.syndrome(y)
        if s == 0:
            return decoded(y.entries[: self.k])
        return correct_unit(y.entries, self.k, s, self.loc, self.q_out)


class SecDedScheme:
    """Correct one L1 error and detect two (induced distance >= 4)."""

    def __init__(
        self,
        q: int,
        n: int,
        ell: int,
        variant: str | None = None,
        allow_suffix_ambiguity: bool = False,
    ):
        self.variant = variant = detect_variant(q, variant)
        self.q = q
        self.n = n
        self.ell = ell
        self.q_out = output_alphabet(q, ell)
        if variant == VARIANT_PARITY:
            self.loc = build_locators_basic(q, n - 1, allow_suffix_ambiguity)
            self.m = self.loc.m + 1
        else:
            self.loc = build_locators_ded(q, n, allow_suffix_ambiguity)
            self.m = self.loc.m
        self.k = self.n - self.m
        self.modulus = self.loc.modulus
        if variant == VARIANT_PARITY:
            rows, moduli = [self.loc.alpha + (0,), (1,) * n], [self.modulus, 2]
        else:
            rows, moduli = [self.loc.alpha], [self.modulus]
        self.check = CheckMatrix(rows, moduli, self.q_out)
        self.vector = self.check.vector

    def encode(self, aprime: QMatrix) -> QMatrix:
        check_input(aprime, self.q, self.k)
        rows = tuple(encode_row(row, self.loc) for row in aprime.rows)
        if self.variant == VARIANT_PARITY:
            rows = tuple(parity_extend(row) for row in rows)
        return QMatrix(self.q, rows)

    def decode(self, y: ReadVector) -> DecodeOutcome:
        syn = checksum(y.admit(self.n, self.q_out, vector=self.vector), self.check)
        s = syn[0]
        if s == 0:
            return decoded(y.entries[: self.k])  # clean, or (parity) the parity column hit
        if self.variant == VARIANT_PARITY:
            # Row sums are even, so the all-ones row counts the errors mod 2.
            if syn[1]:
                return correct_unit(y.entries, self.k, s, self.loc, self.q_out)
            return DECODE_FAILURE  # an even, nonzero pattern: two errors
        # Odd locators modulo 4n+2: the syndrome parity counts the errors.
        if s % 2 == 1:
            return correct_unit(y.entries, self.k, s, self.loc, self.q_out)
        return DECODE_FAILURE
