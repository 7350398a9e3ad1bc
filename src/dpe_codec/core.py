"""Shared value types for the coding schemes: matrices over a digit
alphabet, read vectors with erasure flags, and decode outcomes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


def output_alphabet(q: int, ell: int) -> int:
    """Size Q of the output alphabet: an ell-row product entry is < Q."""
    return ell * (q - 1) ** 2 + 1


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
        if len(self.erased) != len(self.entries):
            raise ValueError("erasure flags must match entry count")

    @classmethod
    def exact(cls, values: Sequence[int]) -> "ReadVector":
        return cls(tuple(values))

    @classmethod
    def with_erasures(cls, values: Sequence[int], erased_at: Iterable[int]) -> "ReadVector":
        erased_at = set(erased_at)
        for j in erased_at:
            if not (isinstance(j, int) and 0 <= j < len(values)):
                raise ValueError(f"erasure index {j!r} is outside [0, {len(values)})")
        vals = tuple(0 if j in erased_at else v for j, v in enumerate(values))
        flags = tuple(j in erased_at for j in range(len(values)))
        return cls(vals, flags)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def has_erasures(self) -> bool:
        return any(self.erased)

    def erased_positions(self) -> list[int]:
        return [j for j, f in enumerate(self.erased) if f]

    def admit(self, n: int, bound: int, erasures: bool = False) -> None:
        """The prologue of every decoder: refuse erasures (unless the
        decoder takes them), a length other than n, and an entry outside
        the read alphabet [0, bound)."""
        if not erasures and self.has_erasures:
            raise ValueError("erasures are outside this decoder's contract")
        if self.n != n:
            raise ValueError(f"read vector length {self.n} != {n}")
        self.check_alphabet(bound)

    def check_alphabet(self, bound: int) -> None:
        entries = self.entries
        if entries and not any(self.erased) and 0 <= min(entries) and max(entries) < bound:
            return
        for j, (v, gone) in enumerate(zip(self.entries, self.erased)):
            if not gone and not 0 <= v < bound:
                raise ValueError(f"entry {j} = {v} is outside the read alphabet [0, {bound})")


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
