"""Shared value types for the coding schemes: matrices over a digit
alphabet, read vectors with erased positions, and decode outcomes; the check
matrix, which computes syndromes in numpy or on Python ints; `Scheme`, the
contract every scheme class inherits; `decode_read`, the one decode
pipeline every scheme runs; and `encode_matrix`, the one programming
pipeline.

A `Scheme` checks its alphabet q and row count ell once, holds the output
alphabet `q_out`, reads `vector` off its `check` and programs a matrix
through `encode_matrix`.  A scheme class supplies its `check` (a
`CheckMatrix` over the whole read), `encode_array` and `locate`.

A read's erasures are positions (`ReadVector.erased`), and its
constructor sets each erased entry to 0, once; no decoder fills or skips
a placeholder after that.

The pipeline admits the read, computes its syndromes, locates the errors,
corrects the data prefix and checks its range.  `read_syndromes(y)` admits
the read (`ReadVector.admit`) at `check.n` over `q_out`, takes one product
with `check`, and returns the syndromes; `Scheme` supplies it, and a
scheme writes its own only where its read differs (the Hamming read
admits erasures).  `locate(syn, y)` holds the clean test: it returns ()
for a prefix that needs no correction, the `(read column, signed value)`
hits to subtract (`Hits`), or None to give up; only a read with hits pays
for `corrected`.  The prefix is taken from the read's entries, so numpy
integers and bools in a read stay as they are.  `unit_error` is the one
lookup of a lone +-1 error by its point.

`pack_block` is the one packer of matrices and reads.  It takes what
`operator.index` takes: a matrix given as rows refuses bools and numpy
integers before it packs, and a read takes them as their ints.  A
`CheckMatrix` decides once (`kernel_fits`) whether reads over the
scheme's alphabet take the numpy kernel: the product must be large enough
and exact in int64.  There `ReadVector.admit` returns the packed read,
else the checked tuple of entries; the check matrix multiplies either
form and returns Python ints, so no decoder branches on the path.

Programming is array-native.  `QMatrix` keeps the packing its validation
makes (`QMatrix.array`), and a scheme's `encode_array(block)` hook turns
that l x k block into the l x n encoded block: each checksum level is one
block product with a `CheckMatrix` (int64 where the products fit, else
Python ints), and `radix_digits` expands the residues into digit columns.
`encode_matrix` checks the shape, runs the hook and admits the output,
every entry's range checked once in one vectorised pass.  Every systematic
encoder over GF(p) fills its redundancy with `CheckMatrix.tail`
(`systematic_word`).
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .basemath import gfp_solve, require_int

# Smallest check-matrix product, rows times read length, that takes the
# numpy kernel.  Below it numpy's fixed cost per call outweighs the
# multiplications it saves (measured crossover: see CHANGES.md and the
# README).  `pack_block` takes the same cut for its int64 range check: a
# shorter sequence is checked by Python's max, a longer one by one numpy
# reduction (measured crossover about 100 entries).
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


def _require_alphabet(q: int) -> None:
    """Refuse an alphabet size q that is not an int (a bool is not) >= 2."""
    require_int("alphabet size", q)
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")


def read_alphabet(q: int, ell: int) -> int:
    """The output alphabet Q of ell rows over [0, q), for q an int >= 2
    and ell an int >= 1; refuses any other."""
    _require_alphabet(q)
    require_int("row count ell", ell)
    if ell < 1:
        raise ValueError(f"row count ell must be >= 1, got {ell}")
    return output_alphabet(q, ell)


def kernel_fits(n: int, bound: int, modulus: int, rows: int = 1) -> bool:
    """Whether `rows` check rows of n entries in [0, modulus), times a read
    of n entries in [0, bound), take the numpy kernel: the product's size
    rows * n reaches KERNEL_MIN_LENGTH, and no dot product can leave int64."""
    return rows * n >= KERNEL_MIN_LENGTH and n * (bound - 1) * (modulus - 1) < INT64_BOUND


class CheckMatrix:
    """Check rows, each reduced by its modulus, for vectors with entries in
    [0, bound).

    `rows` is a 2-D integer array, int64 or an object array of Python ints
    (any other sequence of rows is read as an object array); it is reduced
    once by the moduli into `array`, read-only: int64 where every modulus
    fits, else Python ints.  The attribute `rows` holds the same residues
    as tuples of Python ints, from one `tolist` on first use: a check whose
    reads all take the kernel never needs them.

    `vector` is the kernel decision for one read (`kernel_fits` for the row
    length, the bound, the largest modulus and the row count).  A call
    gives each row's syndrome as a Python int, for a uint8 or int64 array
    (one product where `vector` holds, else as Python ints) or any sequence
    of integers (numpy ones as Python ints where int64 wraps).

    A call on an l x n integer array (a block, such as `QMatrix.array`)
    gives the l x r array of its rows' syndromes: one int64 product unless
    n * (bound - 1) * (largest modulus - 1) reaches 2^63, else row by row in
    Python ints; the result is int64 where the moduli fit, else Python ints
    (an object array)."""

    def __init__(
        self, rows: np.ndarray | Sequence[Sequence[int]], moduli: Sequence[int], bound: int
    ):
        self.moduli = tuple(moduli)
        top = max(self.moduli)
        array = rows if isinstance(rows, np.ndarray) else np.array(rows, object)
        array = array % np.array(self.moduli, int_dtype(top + 1))[:, None]
        if array.dtype == object and top <= INT64_BOUND:
            array = array.astype(np.int64)
        array.flags.writeable = False
        self.array = array
        self.n = array.shape[1]
        self.vector = kernel_fits(self.n, bound, top, len(self.moduli))
        self._wide = self.n * (bound - 1) * (top - 1) >= INT64_BOUND
        if not self._wide:
            self._matrix = array.T
            self._moduli = np.array(self.moduli, np.int64)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))

    def __call__(self, values: Sequence[int] | np.ndarray) -> list[int] | np.ndarray:
        if isinstance(values, np.ndarray):
            if values.ndim == 2:
                return self._block(values)
            if len(values) == self.n and self.vector:
                return ((values @ self._matrix) % self._moduli).tolist()
            values = values.tolist()
        elif self._wide and len(values) == self.n:  # numpy integers would wrap in int64
            values = [int(v) for v in values]
        if len(values) != self.n:
            raise ValueError(f"need {self.n} entries, got {len(values)}")
        checks = zip(self.rows, self.moduli)
        return [int(sum(map(operator.mul, values, row)) % m) for row, m in checks]

    def _block(self, values: np.ndarray) -> np.ndarray:
        """The syndromes of each row of an l x n array, as an l x r array."""
        if values.shape[1] != self.n:
            raise ValueError(f"need {self.n} entries, got {values.shape[1]}")
        if self._wide:
            rows = [self(row) for row in values.tolist()]
            return _int_array(rows, max(self.moduli)).reshape(len(values), len(self.moduli))
        return (values @ self._matrix) % self._moduli

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

    def tail(self, syn: Sequence[int] | np.ndarray) -> list[int] | np.ndarray:
        """For a word whose last r = len(rows) symbols are 0 and whose
        syndromes are `syn`, the r symbols that cancel them in that place:
        -T^-1 syn mod p, for the block T of the last r columns, where every
        row's modulus is the prime p.  An l x r array of syndromes, each
        reduced mod p, gives the l x r array of their tails: one int64
        product where r * (p - 1)^2 < 2^63, else row by row in Python ints.
        Raises ValueError where T is singular."""
        p = self.moduli[0]
        if isinstance(syn, np.ndarray) and syn.ndim == 2:
            if len(self.moduli) * (p - 1) ** 2 < INT64_BOUND:
                return -(syn @ self._tail_matrix) % p
            return _int_array([self.tail(row) for row in syn.tolist()], p).reshape(syn.shape)
        return [-sum(map(operator.mul, row, syn)) % p for row in self._tail_inverse]

    @cached_property
    def _tail_inverse(self) -> list[tuple[int, ...]]:
        """The rows of T^-1 mod p, from one `gfp_solve` per unit vector."""
        r, p = len(self.moduli), self.moduli[0]
        block = self.array[:, self.n - r :].tolist()
        columns = [gfp_solve(block, [int(i == c) for i in range(r)], p) for c in range(r)]
        if None in columns:
            raise ValueError("check matrix tail is singular; reorder columns")
        return list(zip(*columns))

    @cached_property
    def _tail_matrix(self) -> np.ndarray:
        """(T^-1)^T in int64: a block of syndromes times it is the block's
        T^-1 syn."""
        return np.array(self._tail_inverse, np.int64).T


def int_dtype(bound: int):
    """The dtype of an array whose entries, and every intermediate taken
    from them, lie in (-bound, bound): int64 where bound <= 2^63, else
    object, which keeps them Python ints."""
    return np.int64 if bound <= INT64_BOUND else object


def _int_array(rows: list, bound: int) -> np.ndarray:
    """Rows of Python ints in [0, bound) as an array: int64 where bound fits,
    else an object array that keeps them Python ints."""
    return np.array(rows, int_dtype(bound))


@cache
def _uint64_packer(n: int):
    """Packs n integers as unsigned 64-bit bytes (one packer per length);
    raises struct.error for an entry that is not an integer or lies outside
    [0, 2^64)."""
    return struct.Struct(f"{n}Q").pack


@cache
def _byte_alphabet(bound: int) -> bytes:
    """The bytes [0, bound): deleting them from packed bytes leaves the
    entries outside the alphabet."""
    return bytes(range(bound))


def pack_block(bound: int, values: Sequence[int] | np.ndarray) -> np.ndarray | None:
    """`values`, a flat sequence or an integer ndarray of any shape (dtype
    kind b, i or u), as a read-only array: uint8 for bound <= BYTE_BOUND,
    int64 for bound <= 2^63, Python ints (an object array) above; None
    where an entry is not an integer or lies outside [0, bound).

    A sequence takes what `operator.index` takes (numpy integers, and bools
    as 0 and 1).  A bytearray refuses non-integers and ints outside
    [0, 256), and deleting the bytes [0, bound) must leave nothing; struct
    refuses non-integers and ints outside [0, 2^64), and the largest entry
    must lie below the bound (Python's max below KERNEL_MIN_LENGTH
    entries, else one numpy reduction).  An ndarray is checked in one pass
    and cast to a copy."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "biu" or (
            values.size and not 0 <= int(values.min()) <= int(values.max()) < bound
        ):
            return None
        array = values.astype(np.uint8 if bound <= BYTE_BOUND else int_dtype(bound))
    elif bound <= BYTE_BOUND:
        try:
            packed = bytearray(values)
        except (TypeError, ValueError):  # a non-integer, or an int outside [0, 256)
            return None
        if packed.translate(None, _byte_alphabet(bound)):
            return None
        return np.frombuffer(bytes(packed), np.uint8)
    elif bound <= INT64_BOUND:
        try:
            array = np.frombuffer(_uint64_packer(len(values))(*values), np.int64)
        except struct.error:
            return None
        if len(values) < KERNEL_MIN_LENGTH:
            top = max(values, default=0)
        else:
            top = array.view(np.uint64).max()
        return array if top < bound else None
    else:
        try:
            entries = list(map(operator.index, values))
        except TypeError:
            return None
        if entries and not (0 <= min(entries) and max(entries) < bound):
            return None
        array = np.array(entries, object)
    array.flags.writeable = False
    return array


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
    """Integer matrix with entries in [0, q).

    `rows` holds tuples of Python ints, each an `int` (a bool or a numpy
    integer is not) and each row as long as the first; `pack_block` packs
    each row.  The constructor also takes a 2-D integer ndarray (dtype kind
    i or u; bools and floats are refused) as `rows`, packed in one pass; an
    object array is read as its rows of Python objects, as a tuple would be.

    `array` keeps the packing: the rows as a read-only l x width array in
    `pack_block`'s storage for q.
    """

    q: int
    rows: tuple[tuple[int, ...], ...]
    array: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = self.q
        _require_alphabet(q)
        rows = self.rows
        if isinstance(rows, np.ndarray):
            if rows.ndim != 2:
                raise ValueError(f"matrix array must have 2 dimensions, got {rows.ndim}")
            if rows.dtype.kind not in "iuO":
                raise ValueError(f"matrix entries must be integers, got dtype {rows.dtype}")
            if rows.dtype == object:
                rows = rows.tolist()
        if not len(rows):
            raise ValueError("matrix needs at least one row")
        if isinstance(rows, np.ndarray):
            array = pack_block(q, rows)
            if array is None:
                _refuse_entry(q, rows.tolist())
            rows = _tuple_rows(array)
        else:
            rows = tuple(map(tuple, rows))
            width = len(rows[0])
            packed = [
                pack_block(q, row)
                if len(row) == width and operator.countOf(map(type, row), int) == width
                else None
                for row in rows
            ]
            if any(block is None for block in packed):
                _refuse_entry(q, rows)
            array = np.concatenate(packed).reshape(len(rows), width)
            array.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "array", array)

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


def _refuse_entry(q: int, rows: Sequence[Sequence[int]]) -> None:
    """Raise for the first row of another length or entry that is not an
    int or lies outside [0, q), in row-major order."""
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i} has length {len(row)}, expected {width}")
        for j, v in enumerate(row):
            if type(v) is not int:
                raise ValueError(f"entry ({i},{j}) = {v!r} is not an integer")
            if not 0 <= v < q:
                raise ValueError(f"entry ({i},{j}) = {v} is outside [0, {q})")
    raise AssertionError("no entry to refuse")


def _tuple_rows(array: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The rows of a 2-D array as tuples of Python ints (a byte array's
    straight from its bytes)."""
    if array.dtype != np.uint8:
        return tuple(map(tuple, array.tolist()))
    packed, width = array.tobytes(), array.shape[1]
    return tuple(tuple(packed[i * width : (i + 1) * width]) for i in range(len(array)))


@dataclass(frozen=True)
class ReadVector:
    """A (possibly faulty) DPE output row: its entries, and the positions of
    its erased (unreadable) entries.

    Both are stored as tuples.  `erased` is sorted and distinct
    (`erasure_indices` refuses an index that is not an int in [0, n)), and
    each erased entry is set to 0: its value is unknown.  An entry may be
    any integer `operator.index` takes, a numpy integer or a bool (as 0 or
    1; refusing bools would cost a type pass over every clean read).  A
    decoded prefix holds the read's own entry objects, each equal to its
    int.
    """

    entries: tuple[int, ...]
    erased: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        entries, erased = tuple(self.entries), tuple(self.erased)
        if erased:
            erased = tuple(erasure_indices(erased, len(entries)))
            entries = list(entries)
            for j in erased:
                entries[j] = 0
            entries = tuple(entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "erased", erased)

    @classmethod
    def exact(cls, values: Sequence[int]) -> "ReadVector":
        return cls(tuple(values))

    @classmethod
    def with_erasures(cls, values: Sequence[int], erased_at: Iterable[int]) -> "ReadVector":
        return cls(tuple(values), tuple(erased_at))

    @property
    def n(self) -> int:
        return len(self.entries)

    def admit(
        self, n: int, bound: int, erasures: bool = False, vector: bool = False
    ) -> Sequence[int]:
        """The prologue of every decoder: refuse erasures (unless the
        decoder takes them), a length other than n, and an entry that is
        not an integer or lies outside the read alphabet [0, bound).
        Returns the values the decoder multiplies (`check_alphabet`); pass
        `vector` from the scheme's `CheckMatrix`."""
        if not erasures and self.erased:
            raise ValueError("erasures are outside this decoder's contract")
        if self.n != n:
            raise ValueError(f"read vector length {self.n} != {n}")
        return self.check_alphabet(bound, vector)

    def check_alphabet(self, bound: int, vector: bool = False) -> Sequence[int]:
        """Refuse the first entry that is not an integer or lies outside
        [0, bound).  Returns the entries as `pack_block` packs them where
        `vector` holds, else `entries`.  A read that the packer refuses is
        checked entry by entry, for the message."""
        entries = self.entries
        packed = pack_block(bound, entries)
        if packed is not None:
            return packed if vector else entries
        for j, v in enumerate(entries):
            try:
                operator.index(v)
            except TypeError:
                raise ValueError(f"entry {j} = {v!r} is not an integer") from None
            if not 0 <= v < bound:
                raise ValueError(f"entry {j} = {v} is outside the read alphabet [0, {bound})")
        return entries


def erasure_indices(erased: Iterable[int], n: int) -> list[int]:
    """The erased indices of an n-symbol word, sorted and distinct; refuses
    one that is not an int in [0, n), before a set could merge a bool or a
    float into the int it equals."""
    erased = tuple(erased)
    for j in erased:
        if not (type(j) is int and 0 <= j < n):
            raise ValueError(f"erasure index {j!r} is outside [0, {n})")
    return sorted(set(erased))


def unit_error(index: dict, modulus: int, x: int) -> tuple[int, int] | None:
    """The lone +-1 error whose syndrome is x, from a point-to-position
    `index`: (position, +1) where x is a point, else (position, -1) where
    modulus - x is one, else None."""
    j = index.get(x)
    if j is not None:
        return j, 1
    j = index.get(modulus - x)
    if j is not None:
        return j, -1
    return None


def check_locate_input(check: CheckMatrix, syn: Sequence[int], erased: Iterable[int]) -> list[int]:
    """The boundary of an inner code's locate step: refuse a syndrome
    without one entry per row of its `check`, and an erased index that is
    not an int in [0, check.n).  Returns the erased indices, sorted and
    distinct."""
    if len(syn) != len(check.moduli):
        raise ValueError(f"need {len(check.moduli)} syndromes, got {len(syn)}")
    return erasure_indices(erased, check.n)


def field_symbols(
    values: Sequence[int] | np.ndarray, n: int, p: int, what: str = "message"
) -> list[int] | np.ndarray:
    """The n symbols of a `what` (a message to encode, a word to check)
    reduced mod p; refuses another length and any symbol that is not an
    int (a bool too).  An integer array, one word or one word per row, is
    reduced as an array (int64 where p fits, else Python ints); its dtype
    stands for the type test, and an object array is tested entry by
    entry."""
    array = isinstance(values, np.ndarray)
    length = values.shape[-1] if array else len(values)
    if length != n:
        raise ValueError(f"{what} length {length} != {n}")
    if array and values.dtype.kind not in "iuO":
        raise ValueError(f"{what} symbols must be integers, got dtype {values.dtype}")
    if not array or values.dtype == object:
        for v in values.flat if array else values:
            if type(v) is not int:
                raise ValueError(f"{what} symbol {v!r} is not an integer")
    if not array:
        return [v % p for v in values]
    if p > INT64_BOUND or values.dtype == np.uint64:
        values = values.astype(object)
    if values.dtype == object:
        values = values % p
        return values if p > INT64_BOUND else values.astype(np.int64)
    return values.astype(np.int64) % p


def systematic_word(
    check: CheckMatrix, message: Sequence[int] | np.ndarray, k: int, syndromes: Callable
) -> list[int] | np.ndarray:
    """The systematic codeword over GF(p), p = check.moduli[0], of a
    message of k ints: the message reduced mod p (`field_symbols`), then
    the n - k symbols that `check.tail` solves from the `syndromes` of the
    word with those symbols at 0.  An l x k integer array of messages gives
    the l x n array of their codewords."""
    word = field_symbols(message, k, check.moduli[0])
    if isinstance(word, np.ndarray):
        zeros = np.zeros(word.shape[:-1] + (check.n - k,), word.dtype)
        word = np.concatenate((word, zeros), axis=-1)
        word[..., k:] = check.tail(syndromes(word))
    else:
        word += [0] * (check.n - k)
        word[k:] = check.tail(syndromes(word))
    return word


def radix_digits(values: np.ndarray, weights: Sequence[int], q: int) -> np.ndarray:
    """The digits in [0, q) whose sum weighted by `weights` is each entry of
    an array of non-negative integers, one row of digits per row of
    `values`: for c entries per row, digit j of entry v at j * c + v
    (plane-major, as `oracles.digit_planes`; a 1-D array has one entry per
    row).  Powers of q give the base-q expansion (`oracles.base_q_digits`),
    all digits at once; other weights, such as the odd mixed-radix ones,
    are taken greedily from the largest (`oracles.mixed_radix_digits`).
    Raises ValueError for an entry those digits cannot represent."""
    m = len(weights)
    dtype = object if q > INT64_BOUND or values.dtype == object else np.int64
    values = values.astype(dtype)
    powers = [q**j for j in range(m)]
    if list(weights) == powers:
        digits = values[..., None] // np.array(powers, dtype) % q
        bad = (values < 0) | (values >= q**m)
    else:
        rest, digits = values, []
        for w in reversed(weights):
            digit = np.minimum(rest // w, q - 1)
            rest = rest - digit * w
            digits.append(digit)
        digits = np.stack(digits[::-1], axis=-1)
        bad = (rest != 0) | (values < 0)
    if bad.any():
        value = values.flat[np.flatnonzero(bad)[0]]
        raise ValueError(f"{value} is not representable with weights {list(weights)} base {q}")
    width = m * (values.shape[1] if values.ndim == 2 else 1)
    return np.moveaxis(digits, -1, 1).reshape(len(values), width)


def encode_matrix(scheme, matrix: QMatrix) -> QMatrix:
    """Program `matrix` through the scheme's `encode_array` hook: refuse a
    matrix without the scheme's alphabet q and k columns, encode its packed
    rows (`QMatrix.array`) as one block, and admit the encoded block."""
    if matrix.q != scheme.q or matrix.ncols != scheme.k:
        raise ValueError("matrix does not match the scheme parameters")
    return QMatrix(scheme.q, scheme.encode_array(matrix.array))


def parity_extend(rows: tuple[int, ...] | np.ndarray) -> tuple[int, ...] | np.ndarray:
    """Append one entry making the row's entry sum even; to each row of an
    l x n array, as one more column."""
    if isinstance(rows, np.ndarray):
        parity = rows.sum(axis=1, keepdims=True) % 2
        return np.hstack((rows, parity.astype(rows.dtype)))
    return rows + (sum(rows) % 2,)


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


class Scheme:
    """The contract every scheme class inherits: ell rows over the
    alphabet [0, q) give reads over [0, q_out).  A subclass calls
    `__init__` first, then sets `check`, its `CheckMatrix` over the whole
    read, and `k`; it supplies `encode_array(block)` and
    `locate(syn, y)`."""

    check: CheckMatrix
    k: int

    def __init__(self, q: int, ell: int):
        self.q_out = read_alphabet(q, ell)
        self.q = q
        self.ell = ell

    @property
    def vector(self) -> bool:
        """Whether reads take the numpy kernel (`CheckMatrix.vector`)."""
        return self.check.vector

    def encode(self, matrix: QMatrix) -> QMatrix:
        return encode_matrix(self, matrix)

    def read_syndromes(self, y: ReadVector) -> list[int]:
        """Admit the read at check.n over [0, q_out); its syndromes."""
        check = self.check
        return check(y.admit(check.n, self.q_out, vector=check.vector))


def decode_read(scheme, y: ReadVector) -> DecodeOutcome:
    """Decode y through the scheme's `read_syndromes` and `locate` hooks:
    the corrected k-prefix of its entries, or DECODE_FAILURE."""
    hits = scheme.locate(scheme.read_syndromes(y), y)
    if hits is None:
        return DECODE_FAILURE
    if not hits:
        return decoded(y.entries[: scheme.k])
    return corrected(y.entries, scheme.k, hits, scheme.q_out)
