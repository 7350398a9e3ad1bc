"""Shared value types for the coding schemes: matrices over a digit
alphabet, read vectors with erasure flags, and decode outcomes; the check
matrix, which computes a read's syndromes in numpy or on Python ints; and
`decode_read`, the one decode pipeline every scheme runs.

The pipeline admits the read, computes its syndromes, locates the errors,
corrects the data prefix and checks its range.  A scheme supplies two
hooks.  `read_syndromes(y)` admits the read (`ReadVector.admit`), takes
one product with the scheme's `CheckMatrix`, and returns the syndromes and
the entries the prefix is taken from.  `locate(syn, y)` holds the clean
test: it returns () for a prefix that needs no correction, the `(read
column, signed value)` hits to subtract (`Hits`), or None to give up; only
a read with hits pays for `corrected`.  The prefix holds the read's own
entry objects, so numpy integers in a read stay numpy integers.

A `CheckMatrix` decides once (`kernel_fits`) whether reads over the
scheme's alphabet take the numpy kernel: the product must be large enough
and exact in int64.  There, `ReadVector.admit` packs the read one byte per
entry when its bound is at most 256, else into int64; the packing refuses
non-integers and one reduction checks the range.  Otherwise it hands back
the tuple of entries.  The check matrix multiplies either form and returns
Python ints, so no decoder branches on the path.  Every systematic encoder
over GF(p) fills its redundancy with `CheckMatrix.tail`.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Sequence

import numpy as np

from .basemath import gfp_solve

# Smallest check-matrix product, rows times read length, that takes the
# numpy kernel.  Below it numpy's fixed cost per call outweighs the
# multiplications it saves (measured crossover: see CHANGES.md and the
# README).
KERNEL_MIN_LENGTH = 96

# Largest read alphabet packed one byte per entry.
BYTE_BOUND = 256

INT64_BOUND = 2**63

# What a locate step finds: one `(position, value)` pair per error, each
# position once and each value nonzero; () for a zero syndrome.
Hits = Sequence[tuple[int, int]]


def output_alphabet(q: int, ell: int) -> int:
    """Size Q of the output alphabet: an ell-row product entry is < Q."""
    return ell * (q - 1) ** 2 + 1


def kernel_fits(n: int, bound: int, modulus: int, rows: int = 1) -> bool:
    """Whether `rows` check rows of n entries in [0, modulus), times a read
    of n entries in [0, bound), take the numpy kernel: the product's size
    rows * n reaches KERNEL_MIN_LENGTH, and no dot product can leave int64."""
    return rows * n >= KERNEL_MIN_LENGTH and n * (bound - 1) * (modulus - 1) < INT64_BOUND


class CheckMatrix:
    """Check rows, each reduced by its modulus, for reads with entries in
    [0, bound).

    `vector` is the kernel decision (`kernel_fits` for the row length, the
    bound, the largest modulus and the row count); only then is the int64
    matrix built.  A call gives each row's syndrome as a Python int, for a
    uint8 or int64 array (one product where `vector` holds, else as Python
    ints) or any sequence of integers (numpy ones as Python ints where
    int64 wraps)."""

    def __init__(self, rows: Iterable[Sequence[int]], moduli: Sequence[int], bound: int):
        self.moduli = tuple(moduli)
        self.rows = tuple(tuple(x % m for x in row) for row, m in zip(rows, self.moduli))
        self.n = len(self.rows[0])
        self.vector = kernel_fits(self.n, bound, max(self.moduli), len(self.rows))
        self._wide = self.n * (bound - 1) * (max(self.moduli) - 1) >= INT64_BOUND
        if self.vector:
            self._matrix = np.array(self.rows, np.int64).T
            self._moduli = np.array(self.moduli, np.int64)

    def __call__(self, values: Sequence[int]) -> list[int]:
        if len(values) != self.n:
            raise ValueError(f"need {self.n} entries, got {len(values)}")
        if isinstance(values, np.ndarray):
            if self.vector:
                return ((values @ self._matrix) % self._moduli).tolist()
            values = values.tolist()
        elif self._wide:  # numpy integer entries would wrap in int64
            values = [int(v) for v in values]
        checks = zip(self.rows, self.moduli)
        return [int(sum(map(operator.mul, values, row)) % m) for row, m in checks]

    def less(self, syn: Sequence[int], errors: Iterable[tuple[int, int]]) -> list[int]:
        """The syndromes (Python ints) of a read less the `(position, value)`
        errors, from the read's syndromes `syn`; zero values change nothing."""
        syn = list(syn)
        for j, e in errors:
            if e:
                e = int(e)
                for r, row in enumerate(self.rows):
                    syn[r] -= row[j] * e
        return [s % m for s, m in zip(syn, self.moduli)]

    def tail(self, syn: Sequence[int]) -> list[int]:
        """For a word whose last r = len(rows) symbols are 0 and whose
        syndromes are `syn`, the r symbols that cancel them in that place:
        -T^-1 syn mod p, for the block T of the last r columns, where every
        row's modulus is the prime p.  Raises ValueError where T is singular."""
        p = self.moduli[0]
        return [-sum(map(operator.mul, row, syn)) % p for row in self._tail_inverse]

    @cached_property
    def _tail_inverse(self) -> list[tuple[int, ...]]:
        """The rows of T^-1 mod p, from one `gfp_solve` per unit vector."""
        r, p = len(self.rows), self.moduli[0]
        block = [row[self.n - r :] for row in self.rows]
        columns = [gfp_solve(block, [int(i == c) for i in range(r)], p) for c in range(r)]
        if None in columns:
            raise ValueError("check matrix tail is singular; reorder columns")
        return list(zip(*columns))


@cache
def _int64_packer(n: int):
    """Packs n integers as int64 bytes (one packer per read length); raises
    struct.error for an entry that is not an integer or lies outside int64."""
    return struct.Struct(f"{n}q").pack


@cache
def _byte_alphabet(bound: int) -> bytes:
    """The bytes [0, bound): deleting them from a packed read leaves the
    entries outside the alphabet."""
    return bytes(range(bound))


@cache
def _no_erasures(n: int) -> tuple[bool, ...]:
    """The flags of an n-entry read without erasures, shared by every such
    read."""
    return (False,) * n


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
        # Fast pass per row: the type test first (bytearray takes bools and
        # numpy integers), then the range as for a read (`check_alphabet`).
        alphabet = _byte_alphabet(q) if q <= BYTE_BOUND else None
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {i} has length {len(row)}, expected {width}")
            if set(map(type, row)) <= {int}:
                if alphabet is None:
                    if not row or 0 <= min(row) and max(row) < q:
                        continue
                else:
                    try:
                        if not bytearray(row).translate(None, alphabet):
                            continue
                    except ValueError:  # an int outside [0, 256)
                        pass
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
    has_erasures: bool = field(init=False, repr=False, compare=False)
    _int64: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.erased:
            object.__setattr__(self, "erased", _no_erasures(len(self.entries)))
            object.__setattr__(self, "has_erasures", False)  # known: no scan needed
            return
        if len(self.erased) != len(self.entries):
            raise ValueError("erasure flags must match entry count")
        object.__setattr__(self, "has_erasures", any(self.erased))

    @classmethod
    def exact(cls, values: Sequence[int]) -> "ReadVector":
        return cls(tuple(values))

    @classmethod
    def with_erasures(cls, values: Sequence[int], erased_at: Iterable[int]) -> "ReadVector":
        erased_at = set(erased_at)
        if not erased_at:
            return cls(tuple(values))
        for j in erased_at:
            if not (type(j) is int and 0 <= j < len(values)):
                raise ValueError(f"erasure index {j!r} is outside [0, {len(values)})")
        vals = tuple(0 if j in erased_at else v for j, v in enumerate(values))
        flags = tuple(j in erased_at for j in range(len(values)))
        return cls(vals, flags)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def int64(self) -> np.ndarray:
        """The entries as a read-only int64 array, packed on first use and
        kept; raises struct.error for an entry that is not an integer or
        lies outside int64."""
        if self._int64 is None:
            array = np.frombuffer(_int64_packer(len(self.entries))(*self.entries), np.int64)
            object.__setattr__(self, "_int64", array)
        return self._int64

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
        Where `vector` holds and the read has no erasures, returns the
        entries as a read-only numpy array: uint8 for a bound of at most
        BYTE_BOUND, `int64` otherwise.  Returns `entries` in every other
        case.

        The fast pass packs the entries, and the packing refuses floats,
        strings and None.  A bound of at most BYTE_BOUND packs them into a
        bytearray, which also refuses negative ints and ints of 256 or more;
        deleting the bytes [0, bound) must then leave nothing.  A wider
        bound packs them into int64.  On the kernel path one reduction
        checks the range (a negative entry wraps to 2^63 or more as uint64);
        otherwise min and max bound the tuple.  A read that fails the fast
        pass (or has erasures) is checked entry by entry, for the message."""
        entries = self.entries
        if not self.has_erasures:
            try:
                if bound <= BYTE_BOUND:
                    packed = bytearray(entries)
                    if not packed.translate(None, _byte_alphabet(bound)):
                        if vector and packed:
                            return np.frombuffer(bytes(packed), np.uint8)
                        return entries
                elif vector and entries:
                    array = self.int64
                    if array.view(np.uint64).max() < min(bound, INT64_BOUND):
                        return array
                else:
                    _int64_packer(len(entries))(*entries)
                    if not entries or 0 <= min(entries) and max(entries) < bound:
                        return entries
            except (TypeError, ValueError, struct.error):
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


def check_locate_input(check: CheckMatrix, syn: Sequence[int], erased: Iterable[int]) -> list[int]:
    """The boundary of an inner code's locate step: refuse a syndrome
    without one entry per row of its `check`, and an erased index that is
    not an int in [0, check.n).  Returns the erased indices, sorted and
    distinct."""
    if len(syn) != len(check.rows):
        raise ValueError(f"need {len(check.rows)} syndromes, got {len(syn)}")
    erased = set(erased)
    for j in erased:
        if not (type(j) is int and 0 <= j < check.n):
            raise ValueError(f"erasure index {j!r} is outside [0, {check.n})")
    return sorted(erased)


def check_input(matrix: QMatrix, q: int, k: int) -> None:
    """Refuse a matrix to encode unless it has alphabet q and k columns."""
    if matrix.q != q or matrix.ncols != k:
        raise ValueError("matrix does not match the scheme parameters")


def message_symbols(message: Sequence[int], k: int, p: int) -> list[int]:
    """The k symbols of a message to encode systematically, reduced mod p;
    refuses another length and any symbol that is not an int (a bool too)."""
    if len(message) != k:
        raise ValueError(f"message length {len(message)} != {k}")
    for v in message:
        if type(v) is not int:
            raise ValueError(f"message symbol {v!r} is not an integer")
    return [v % p for v in message]


def parity_extend(row: tuple[int, ...]) -> tuple[int, ...]:
    """Append one entry making the row's entry sum even."""
    return row + (sum(row) % 2,)


def error_vector(n: int, hits: Hits | None) -> list[int] | None:
    """The length-n error vector that holds each hit's value at its
    position and 0 elsewhere; None for None."""
    if hits is None:
        return None
    error = [0] * n
    for j, e in hits:
        error[j] = e
    return error


def corrected(
    values: Sequence[int], k: int, errors: Iterable[tuple[int, int]], bound: int
) -> DecodeOutcome:
    """The k-prefix of `values` minus the `(position, value)` error pairs,
    or DECODE_FAILURE when a corrected entry leaves [0, bound).

    Pairs at positions >= k and zero values change nothing.  The entries
    no pair touches are taken as in range already (`ReadVector.admit`).
    """
    prefix = list(values)  # the one copy; the entries past k are dropped below
    for j, e in errors:
        if e and j < k:
            prefix[j] -= e
            if not 0 <= prefix[j] < bound:
                return DECODE_FAILURE
    del prefix[k:]
    return DecodeOutcome(tuple(prefix))


def decode_read(scheme, y: ReadVector) -> DecodeOutcome:
    """Decode y through the scheme's `read_syndromes` and `locate` hooks:
    the corrected k-prefix of its entries, or DECODE_FAILURE."""
    syn, entries = scheme.read_syndromes(y)
    hits = scheme.locate(syn, y)
    if hits is None:
        return DECODE_FAILURE
    if not hits:
        return decoded(entries[: scheme.k])
    return corrected(entries, scheme.k, hits, scheme.q_out)
