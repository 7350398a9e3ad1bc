"""Shared value types for the coding schemes: matrices over a digit
alphabet, read vectors with erasure flags, and decode outcomes; and the
check matrix, which computes a read's syndromes in int64 or on Python ints.

Every syndrome is a fixed integer check matrix times the read, reduced by
a modulus.  Each scheme holds its check rows as one `CheckMatrix`, which
decides once (`kernel_fits`) whether reads over the scheme's alphabet take
the int64 kernel.  `ReadVector.admit` then hands back the values to
multiply: the read as an int64 array (`ReadVector.int64`, range-checked by
one reduction) on that path, the tuple of Python ints otherwise.  The
check matrix multiplies either form, so no decoder branches on the path.
Prefixes, locate steps and corrections always use the Python ints of
`ReadVector.entries`.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Sequence

import numpy as np

# Shortest check-matrix product that takes the int64 kernel.  Below it
# numpy's fixed cost per call outweighs what the kernel saves (measured
# crossover: see CHANGES.md and the README).
KERNEL_MIN_LENGTH = 96

INT64_BOUND = 2**63


def output_alphabet(q: int, ell: int) -> int:
    """Size Q of the output alphabet: an ell-row product entry is < Q."""
    return ell * (q - 1) ** 2 + 1


def kernel_fits(n: int, bound: int, modulus: int) -> bool:
    """Whether a product of n read entries in [0, bound) with check entries
    in [0, modulus) takes the int64 kernel: n reaches KERNEL_MIN_LENGTH,
    and no such dot product can leave int64."""
    return n >= KERNEL_MIN_LENGTH and n * (bound - 1) * (modulus - 1) < INT64_BOUND


class CheckMatrix:
    """Check rows, each reduced by its modulus, for reads with entries in
    [0, bound).

    `vector` is the kernel decision (`kernel_fits` for the row length, the
    bound and the largest modulus); only then is the int64 matrix built.
    A call gives the syndrome of each row as Python ints, for an int64
    array (one product) or for a sequence of ints."""

    def __init__(self, rows: Iterable[Sequence[int]], moduli: Sequence[int], bound: int):
        self.moduli = tuple(moduli)
        self.rows = tuple(tuple(x % m for x in row) for row, m in zip(rows, self.moduli))
        self.n = len(self.rows[0])
        self.vector = kernel_fits(self.n, bound, max(self.moduli))
        if self.vector:
            self._matrix = np.array(self.rows, np.int64).T
            self._moduli = np.array(self.moduli, np.int64)

    def __call__(self, values: Sequence[int]) -> list[int]:
        if len(values) != self.n:
            raise ValueError(f"need {self.n} entries, got {len(values)}")
        if isinstance(values, np.ndarray):
            return ((values @ self._matrix) % self._moduli).tolist()
        return [sum(map(operator.mul, values, row)) % m for row, m in zip(self.rows, self.moduli)]


@cache
def _int64_packer(n: int):
    """Packs n integers as int64 bytes (one packer per read length); raises
    struct.error for an entry that is not an integer or lies outside int64."""
    return struct.Struct(f"{n}q").pack


def guard_limit(default: int) -> int:
    """Feasibility guard for exhaustive enumeration, raisable (never lowered)
    via the DPE_CODEC_GUARD_OVERRIDE environment variable."""
    import os

    raw = os.environ.get("DPE_CODEC_GUARD_OVERRIDE", "")
    if not raw:
        return default
    try:
        return max(default, int(raw))
    except ValueError:
        raise ValueError(f"DPE_CODEC_GUARD_OVERRIDE must be an integer, got {raw!r}")


@dataclass(frozen=True)
class DecodeOutcome:
    """Either a recovered prefix or the failure mark ``"e"``."""

    prefix: tuple[int, ...] | None = None

    @property
    def failed(self) -> bool:
        return self.prefix is None

    def __repr__(self) -> str:
        if self.failed:
            return 'DecodeOutcome("e")'
        return f"DecodeOutcome({list(self.prefix)})"


DECODE_FAILURE = DecodeOutcome(None)


def decoded(values: Iterable[int]) -> DecodeOutcome:
    return DecodeOutcome(tuple(values))


@dataclass(frozen=True)
class QMatrix:
    """Integer matrix with entries in [0, q)."""

    q: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        q = self.q
        if type(q) is not int:
            raise ValueError(f"alphabet size must be an integer, got {q!r}")
        if q < 2:
            raise ValueError(f"alphabet size must be >= 2, got {q}")
        if not self.rows:
            raise ValueError("matrix needs at least one row")
        width = len(self.rows[0])
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {i} has length {len(row)}, expected {width}")
            if set(map(type, row)) <= {int} and (not row or 0 <= min(row) and max(row) < q):
                continue
            for j, v in enumerate(row):
                if type(v) is not int:
                    raise ValueError(f"entry ({i},{j}) = {v!r} is not an integer")
                if not 0 <= v < q:
                    raise ValueError(f"entry ({i},{j}) = {v} is outside [0, {q})")

    @classmethod
    def from_lists(cls, q: int, rows: Sequence[Sequence[int]]) -> "QMatrix":
        return cls(q, tuple(tuple(r) for r in rows))

    @property
    def ell(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)


@dataclass(frozen=True)
class ReadVector:
    """A (possibly faulty) DPE output row: values plus per-entry erasure flags.

    Erased entries hold a 0 placeholder and must not be read as data.
    """

    entries: tuple[int, ...]
    erased: tuple[bool, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.erased:
            object.__setattr__(self, "erased", (False,) * len(self.entries))
            object.__setattr__(self, "has_erasures", False)  # known: no scan needed
        if len(self.erased) != len(self.entries):
            raise ValueError("erasure flags must match entry count")

    @classmethod
    def exact(cls, values: Sequence[int]) -> "ReadVector":
        return cls(tuple(values))

    @classmethod
    def with_erasures(cls, values: Sequence[int], erased_at: Iterable[int]) -> "ReadVector":
        erased_at = set(erased_at)
        if not erased_at:
            return cls(tuple(values))
        for j in erased_at:
            if not (isinstance(j, int) and 0 <= j < len(values)):
                raise ValueError(f"erasure index {j!r} is outside [0, {len(values)})")
        vals = tuple(0 if j in erased_at else v for j, v in enumerate(values))
        flags = tuple(j in erased_at for j in range(len(values)))
        return cls(vals, flags)

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def has_erasures(self) -> bool:
        return any(self.erased)

    @cached_property
    def int64(self) -> np.ndarray:
        """The entries as a read-only int64 array; raises struct.error for
        an entry that is not an integer or lies outside int64."""
        return np.frombuffer(_int64_packer(len(self.entries))(*self.entries), np.int64)

    def erased_positions(self) -> list[int]:
        return [j for j, f in enumerate(self.erased) if f]

    def admit(
        self, n: int, bound: int, erasures: bool = False, vector: bool = False
    ) -> Sequence[int]:
        """The prologue of every decoder: refuse erasures (unless the
        decoder takes them), a length other than n, and an entry that is
        not an integer or lies outside the read alphabet [0, bound).
        Returns the values the decoder multiplies (`check_alphabet`); pass
        `vector` from the scheme's `CheckMatrix`."""
        if not erasures and self.has_erasures:
            raise ValueError("erasures are outside this decoder's contract")
        if self.n != n:
            raise ValueError(f"read vector length {self.n} != {n}")
        return self.check_alphabet(bound, vector)

    def check_alphabet(self, bound: int, vector: bool = False) -> Sequence[int]:
        """Refuse the first entry that is not an integer or lies outside
        [0, bound); erased entries are placeholders and are not read.
        Returns `int64` where `vector` holds and the read has no erasures,
        and `entries` otherwise.

        The fast pass packs the entries into int64, which refuses floats,
        strings and None.  On the int64 path one reduction checks the range
        (a negative entry wraps to 2^63 or more as uint64); otherwise min
        and max bound the tuple.  A read that fails the fast pass (or has
        erasures) is checked entry by entry, for the message."""
        entries = self.entries
        if not self.has_erasures:
            try:
                if vector and entries:
                    if self.int64.view(np.uint64).max() < min(bound, INT64_BOUND):
                        return self.int64
                else:
                    _int64_packer(len(entries))(*entries)
                    if not entries or 0 <= min(entries) and max(entries) < bound:
                        return entries
            except struct.error:
                pass
        for j, (v, gone) in enumerate(zip(entries, self.erased)):
            if gone:
                continue
            try:
                operator.index(v)
            except TypeError:
                raise ValueError(f"entry {j} = {v!r} is not an integer") from None
            if not 0 <= v < bound:
                raise ValueError(f"entry {j} = {v} is outside the read alphabet [0, {bound})")
        return entries


def check_input(matrix: QMatrix, q: int, k: int) -> None:
    """Refuse a matrix to encode unless it has alphabet q and k columns."""
    if matrix.q != q or matrix.ncols != k:
        raise ValueError("matrix does not match the scheme parameters")


def parity_extend(row: tuple[int, ...]) -> tuple[int, ...]:
    """Append one entry making the row's entry sum even."""
    return row + (sum(row) % 2,)


def corrected(
    values: Sequence[int], k: int, errors: Iterable[tuple[int, int]], bound: int
) -> DecodeOutcome:
    """The k-prefix of `values` minus the `(position, value)` error pairs,
    or DECODE_FAILURE when a corrected entry leaves [0, bound).

    Pairs at positions >= k and zero values change nothing.  The entries
    no pair touches are taken as in range already (`ReadVector.admit`).
    """
    prefix = list(values[:k])
    for j, e in errors:
        if e and j < k:
            prefix[j] -= e
            if not 0 <= prefix[j] < bound:
                return DECODE_FAILURE
    return decoded(prefix)
