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

Each scheme programs a matrix through `core.encode_matrix`: its
`encode_array` hook runs `encode_row` on the whole packed block, one
product for the locator checksums of all rows, and the parity variants
append their column to the block (`core.parity_extend`).

Each scheme decodes through `core.decode_read`.  Its syndrome hook admits
the read and multiplies it by the scheme's `core.CheckMatrix` (`checksum`):
the locator row, and in the parity variant of sec-ded an all-ones row mod
2 whose value counts the errors mod 2.  Its `locate` reads a zero locator
syndrome as clean, and otherwise the lone +-1 error that `unit_hits`
finds, which the double-error schemes share.  The parity detector's check
is the all-ones row mod 2 alone; an odd sum is detected, never located.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .basemath import ceil_log
from .core import (
    CheckMatrix,
    DecodeOutcome,
    Hits,
    QMatrix,
    ReadVector,
    decode_read,
    encode_matrix,
    output_alphabet,
    parity_extend,
    radix_digits,
)
from .locators import Locators, build_locators_basic, build_locators_ded

VARIANT_PARITY = "parity"
VARIANT_ODD_Q = "odd_q"
VARIANT_EVEN_Q = "even_q"


def redundancy_lower_bound(q: int, n: int) -> int:
    """Sphere-packing floor on the redundancy of any single-error scheme."""
    return ceil_log(q, n + 1)


def redundancy_digits(residues: np.ndarray, loc: Locators) -> np.ndarray:
    """One row of the m suffix digits per residue, weighted as the suffix
    locators: powers of q, or the odd mixed-radix weights."""
    return radix_digits(residues, loc.suffix_weights(), loc.q)


def encode_row(row: Sequence[int] | np.ndarray, loc: Locators) -> tuple[int, ...] | np.ndarray:
    """Append the digit suffix that zeroes the row's locator checksum (over
    alpha's k-prefix, `Locators.prefix_check`).  An l x k integer array of
    rows (`QMatrix.array`) takes one product for all of them and gives the
    l x n array; a row of k ints is packed and checked as a one-row
    `QMatrix` first."""
    if not isinstance(row, np.ndarray):
        if len(row) != loc.k:
            raise ValueError(f"row length {len(row)} != dimension {loc.k}")
        return tuple(encode_row(QMatrix(loc.q, (tuple(row),)).array, loc)[0].tolist())
    if row.shape[1] != loc.k:
        raise ValueError(f"row length {row.shape[1]} != dimension {loc.k}")
    residues = -loc.prefix_check(row)[:, 0] % loc.modulus
    return np.hstack((row, redundancy_digits(residues, loc)))


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


def unit_hits(s: int, loc: Locators) -> Hits | None:
    """The hit of the lone +-1 error that syndrome s locates, or None."""
    hit = locate_unit_error(s, loc)
    return None if hit is None else (hit,)


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
        self.check = CheckMatrix([(1,) * self.n], [2], self.q_out)
        self.vector = self.check.vector

    def encode(self, aprime: QMatrix) -> QMatrix:
        return encode_matrix(self, aprime)

    def encode_array(self, block: np.ndarray) -> np.ndarray:
        return parity_extend(block)

    def read_syndromes(self, y: ReadVector) -> tuple[list[int], tuple[int, ...]]:
        """Admit the read; its entry sum mod 2, and its entries."""
        return self.check(y.admit(self.n, self.q_out, vector=self.vector)), y.entries

    def locate(self, syn: list[int], y: ReadVector) -> Hits | None:
        return None if syn[0] else ()  # an odd sum is detected, never located

    def decode(self, y: ReadVector) -> DecodeOutcome:
        return decode_read(self, y)


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
        self.check = CheckMatrix(self.loc.array[None], [self.modulus], self.q_out)
        self.vector = self.check.vector

    def encode(self, aprime: QMatrix) -> QMatrix:
        return encode_matrix(self, aprime)

    def encode_array(self, block: np.ndarray) -> np.ndarray:
        return encode_row(block, self.loc)

    def read_syndromes(self, y: ReadVector) -> tuple[list[int], tuple[int, ...]]:
        """Admit the read; its locator checksum, and its entries."""
        return checksum(y.admit(self.n, self.q_out, vector=self.vector), self.check), y.entries

    def syndrome(self, y: ReadVector) -> int:
        """Admit the read; its locator checksum."""
        return self.read_syndromes(y)[0][0]

    def locate(self, syn: list[int], y: ReadVector) -> Hits | None:
        (s,) = syn
        return unit_hits(s, self.loc) if s else ()

    def decode(self, y: ReadVector) -> DecodeOutcome:
        return decode_read(self, y)


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
            # the locators and a 0 for the parity column, then all ones
            rows = np.ones((2, n), self.loc.array.dtype)
            rows[0] = np.append(self.loc.array, 0)
            moduli = [self.loc.modulus, 2]
        else:
            self.loc = build_locators_ded(q, n, allow_suffix_ambiguity)
            self.m = self.loc.m
            rows, moduli = self.loc.array[None], [self.loc.modulus]
        self.k = self.n - self.m
        self.modulus = self.loc.modulus
        self.check = CheckMatrix(rows, moduli, self.q_out)
        self.vector = self.check.vector

    def encode(self, aprime: QMatrix) -> QMatrix:
        return encode_matrix(self, aprime)

    def encode_array(self, block: np.ndarray) -> np.ndarray:
        rows = encode_row(block, self.loc)
        return parity_extend(rows) if self.variant == VARIANT_PARITY else rows

    def read_syndromes(self, y: ReadVector) -> tuple[list[int], tuple[int, ...]]:
        """Admit the read; its checksum (and entry sum mod 2), and entries."""
        return checksum(y.admit(self.n, self.q_out, vector=self.vector), self.check), y.entries

    def locate(self, syn: list[int], y: ReadVector) -> Hits | None:
        s = syn[0]
        if s == 0:
            return ()  # clean, or (parity) the parity column hit
        # The error count mod 2, from the all-ones row (row sums are even)
        # or the syndrome's parity (odd locators): even here is two errors.
        odd = syn[1] if self.variant == VARIANT_PARITY else s % 2
        return unit_hits(s, self.loc) if odd else None

    def decode(self, y: ReadVector) -> DecodeOutcome:
        return decode_read(self, y)
