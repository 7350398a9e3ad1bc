"""Code-locator vectors: distinct nonzero column weights whose pairwise
sums avoid the working modulus, with a fixed digit-weight suffix.

A locator vector alpha of length n has a k-entry prefix of free weights and
an m-entry suffix pinned to digit weights (powers of q, or the odd
mixed-radix weights for even q).  The defining constraints are:

  * entries are nonzero, distinct, below the modulus M (M = 2n+1, or 4n+2
    for the detect-enhanced variants, where entries must also be odd);
  * no two entries (including an entry with itself) sum to M;
  * the suffix entries equal the digit weights, so a row's redundancy
    digits weigh themselves in their own checksum.

Some (q, n) combinations force a sum-to-M collision *inside the suffix*
(e.g. two digit weights summing to M, or the last weight equal to M/2).
Such collisions only ever confuse error locations within the redundancy
suffix, never the data prefix, so builders accept them behind the explicit
``allow_suffix_ambiguity`` opt-in and validation records them as notes.

Construction is array-native: each builder picks its prefix with one mask
over the candidate values, and validation tests every entry in one
vectorised pass over a value table of size M, walking the entries one by
one only to name the first violation.  `Locators.alpha` and the value
index stay Python ints.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .basemath import ceil_log, jacobsthal_weight, jacobsthal_weights
from .core import CheckMatrix, int_dtype

SUFFIX_POWERS = "powers_of_q"
SUFFIX_FSEQ = "f_sequence"


@dataclass(frozen=True)
class Locators:
    q: int
    n: int
    m: int
    modulus: int
    suffix_kind: str
    alpha: tuple[int, ...]
    allow_suffix_ambiguity: bool = False
    _index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.alpha) != self.n:
            raise ValueError(f"alpha has length {len(self.alpha)}, expected {self.n}")
        if not 1 <= self.m < self.n:
            raise ValueError(f"need 1 <= m < n, got m={self.m}, n={self.n}")
        object.__setattr__(self, "_index", dict(zip(self.alpha, range(self.n))))

    @property
    def k(self) -> int:
        return self.n - self.m

    def index_of(self, value: int) -> int | None:
        """Column index carrying this locator value (None if absent)."""
        return self._index.get(value)

    @cached_property
    def array(self) -> np.ndarray:
        """alpha as a read-only array: int64 where the modulus fits, else
        Python ints.  Raises OverflowError for an entry outside int64."""
        array = np.fromiter(self.alpha, int_dtype(self.modulus), self.n)
        array.flags.writeable = False
        return array

    @cached_property
    def prefix_check(self) -> CheckMatrix:
        """The locator checksum over alpha's k-prefix, for rows with entries
        in [0, q): what the suffix digits cancel."""
        return CheckMatrix(self.array[None, : self.k], [self.modulus], self.q)

    def suffix(self) -> tuple[int, ...]:
        return self.alpha[self.k :]

    def suffix_weights(self) -> list[int]:
        if self.suffix_kind == SUFFIX_POWERS:
            return [self.q**j for j in range(self.m)]
        if self.suffix_kind == SUFFIX_FSEQ:
            return jacobsthal_weights(self.q, self.m)
        raise ValueError(f"unknown suffix kind {self.suffix_kind!r}")

    def to_json(self) -> dict:
        out = {
            "q": self.q,
            "n": self.n,
            "m": self.m,
            "modulus": self.modulus,
            "suffix_kind": self.suffix_kind,
            "alpha": list(self.alpha),
        }
        if self.allow_suffix_ambiguity:
            out["allow_suffix_ambiguity"] = True
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Locators":
        """The locators `to_json` wrote.  A missing field, or one of another
        JSON type (a bool is not an integer), raises ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError(f"locators must be a JSON object, got {type(data).__name__}")

        def checked(key: str, valid, kind: str):
            if key not in data:
                raise ValueError(f"locators: missing field {key!r}")
            if not valid(data[key]):
                raise ValueError(f"locators: {key} must be {kind}, got {data[key]!r}")
            return data[key]

        def is_int(value) -> bool:
            return type(value) is int

        flag = data.get("allow_suffix_ambiguity", False)
        if type(flag) is not bool:
            raise ValueError(
                f"locators: allow_suffix_ambiguity must be true or false, got {flag!r}"
            )
        return cls(
            q=checked("q", is_int, "an integer"),
            n=checked("n", is_int, "an integer"),
            m=checked("m", is_int, "an integer"),
            modulus=checked("modulus", is_int, "an integer"),
            suffix_kind=checked("suffix_kind", lambda v: isinstance(v, str), "a string"),
            alpha=tuple(checked(
                "alpha", lambda v: isinstance(v, list) and all(map(is_int, v)), "a list of integers"
            )),
            allow_suffix_ambiguity=flag,
        )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: str | None = None
    notes: tuple[str, ...] = ()


def basic_redundancy(q: int, n: int) -> int:
    """Digit count needed to write any residue below 2n+1 in base q."""
    return ceil_log(q, 2 * n + 1)


def ded_redundancy(q: int, n: int) -> int:
    """Digit count for the modulus-(4n+2) variants (q >= 3).

    Odd q: digits in base q.  Even q: smallest m whose next mixed-radix
    weight f_m reaches 4n+2+(-1)^m, so every residue below 4n+2 is writable
    with m digits.
    """
    if q < 3:
        raise ValueError("the odd-locator variants need q >= 3")
    if q % 2 == 1:
        return ceil_log(q, 4 * n + 2)
    m = 1
    while jacobsthal_weight(q, m) < 4 * n + 2 + (-1) ** m:
        m += 1
    return m


def validate_locators(loc: Locators) -> ValidationReport:
    """Check every locator constraint; report the first violation.

    One vectorised pass tests the entries: ints (a bool is not one), in
    (0, modulus), odd under 4n+2, and distinct, from a table of size modulus
    that maps each value to an index holding it.  Only a vector that
    fails it is walked entry by entry, for the first violation in index
    order.  The suffix weights come next.  Distinct entries give each entry
    at most one partner summing to the modulus, so the sum test is one
    lookup of modulus - alpha in the same table: a partner at j >= i
    (j == i for modulus/2) is the pair (i, j), and the pairs are read in
    the order (i, j) of a scan over all i <= j.

    Suffix-confined sum collisions are accepted (and noted) only when the
    vector was built with allow_suffix_ambiguity.
    """
    modulus = loc.modulus
    primed = modulus == 4 * loc.n + 2
    if not primed and modulus != 2 * loc.n + 1:
        return ValidationReport(False, f"modulus {modulus} matches neither 2n+1 nor 4n+2")

    alpha = loc.alpha
    index = _value_index(loc, primed)
    if index is None:
        return ValidationReport(False, _first_entry_violation(alpha, modulus, primed))

    weights = loc.suffix_weights()
    for j in range(loc.m):
        if alpha[loc.k + j] != weights[j]:
            return ValidationReport(
                False,
                f"suffix entry at index {loc.k + j} is {alpha[loc.k + j]}, "
                f"expected weight {weights[j]}",
            )

    notes = []
    partners = index[modulus - loc.array]
    for i in np.flatnonzero(partners >= np.arange(loc.n)).tolist():
        v = alpha[i]
        w = modulus - v
        if i >= loc.k and loc.allow_suffix_ambiguity:  # j >= i is in the suffix too
            if partners[i] == i:
                notes.append(f"suffix entry {v} equals modulus/2")
            else:
                notes.append(f"suffix entries {v} + {w} sum to the modulus")
            continue
        return ValidationReport(False, f"entries {v} + {w} sum to the modulus")
    return ValidationReport(True, None, tuple(notes))


def _value_index(loc: Locators, primed: bool) -> np.ndarray | None:
    """The table over [0, modulus) of the index holding each value (-1 for
    none), or None unless every entry is an int in (0, modulus), distinct,
    and odd when `primed`."""
    modulus = loc.modulus
    if operator.countOf(map(type, loc.alpha), int) != loc.n:
        return None
    try:
        values = loc.array
    except OverflowError:  # an entry outside int64, so outside (0, modulus)
        return None
    if values.min() <= 0 or values.max() >= modulus:
        return None
    positions = np.arange(loc.n)
    index = np.full(modulus, -1, np.int64)
    index[values] = positions  # a repeated value keeps one index: the others miss it
    if not (index[values] == positions).all() or primed and (values % 2 == 0).any():
        return None
    return index


def _first_entry_violation(alpha: Sequence[int], modulus: int, primed: bool) -> str:
    """The first entry, in index order, that is not an int, lies outside
    (0, modulus), repeats an earlier one or (under 4n+2) is even."""
    seen: set[int] = set()
    for j, v in enumerate(alpha):
        if type(v) is not int:
            return f"entry {v!r} at index {j} is not an integer"
        if not 0 < v < modulus:
            return f"entry {v} at index {j} is outside (0, {modulus})"
        if v in seen:
            return f"duplicate entry {v}"
        if primed and v % 2 == 0:
            return f"entry {v} at index {j} is even"
        seen.add(v)
    raise AssertionError("no entry to refuse")


def build_locators_basic(q: int, n: int, allow_suffix_ambiguity: bool = False) -> Locators:
    """Locators for the single-error scheme: modulus 2n+1, suffix (1, q, ...).

    Uses {1..n} when q^(m-1) <= n; otherwise swaps q^(m-1) in for the one
    value whose sum with it would hit 2n+1.  When that value is itself a
    suffix weight the swap is impossible; the largest non-suffix value is
    dropped instead, leaving a suffix-confined collision (opt-in).  The
    prefix is one mask over 1..n.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    m = basic_redundancy(q, n)
    if n <= m:
        raise ValueError(f"length {n} leaves no information columns (redundancy {m})")
    modulus = 2 * n + 1
    suffix = [q**j for j in range(m)]
    top = suffix[-1]
    # one mask over 1..n: the prefix is every value that is not a weight
    keep = np.ones(n, bool)
    keep[[s - 1 for s in suffix if s <= n]] = False
    if top > n:
        drop = modulus - top  # top's partner
        if drop in suffix:
            if not allow_suffix_ambiguity:
                raise ValueError(
                    f"digit weights {drop} and {top} sum to {modulus}; no strictly "
                    "valid locators exist (retry with allow_suffix_ambiguity=True)"
                )
            drop = np.flatnonzero(keep)[-1] + 1  # the largest value that is not a weight
        keep[drop - 1] = False
    prefix = (np.flatnonzero(keep) + 1).tolist()
    loc = Locators(
        q=q,
        n=n,
        m=m,
        modulus=modulus,
        suffix_kind=SUFFIX_POWERS,
        alpha=tuple(prefix + suffix),
        allow_suffix_ambiguity=allow_suffix_ambiguity,
    )
    report = validate_locators(loc)
    if not report.ok:
        raise ValueError(f"construction failed: {report.violation}")
    return loc


def build_locators_ded(q: int, n: int, allow_suffix_ambiguity: bool = False) -> Locators:
    """Locators for the detect-enhanced variants: modulus 4n+2, odd entries.

    The suffix is (1, q, ..) for odd q and the odd mixed-radix weights for
    even q > 2; the prefix takes the smallest admissible odd values in
    ascending order, by one mask over the odd values below 2n+1: all of
    them but the digit weights and their partners.  No admissible value
    lies above 2n+1, since its partner below is taken or excluded.  For
    q = 2 there is no odd-locator trick and the basic construction (plus a
    scheme-level parity column) is returned instead.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if q == 2:
        return build_locators_basic(q, n, allow_suffix_ambiguity)
    modulus = 4 * n + 2
    m = ded_redundancy(q, n)
    if n <= m:
        raise ValueError(f"length {n} leaves no information columns (redundancy {m})")
    if q % 2 == 1:
        suffix = [q**j for j in range(m)]
    else:
        suffix = jacobsthal_weights(q, m)

    half = modulus // 2  # = 2n+1, its own sum partner
    banned = [modulus - s for s in suffix]
    suffix_self_collisions = [s for s in suffix if s == half]
    suffix_pair_collisions = [s for s in suffix if modulus - s in suffix and s != half]
    if (suffix_self_collisions or suffix_pair_collisions) and not allow_suffix_ambiguity:
        culprit = (suffix_self_collisions + suffix_pair_collisions)[0]
        raise ValueError(
            f"digit weight {culprit} collides with the modulus {modulus}; no strictly "
            "valid locators exist (retry with allow_suffix_ambiguity=True)"
        )

    # Below half, an odd value is admissible unless it is a suffix weight or
    # a weight's partner; picking it bans only its partner, above half.
    # Nothing above half is ever admissible: its partner below was picked,
    # or is a weight (banning it) or a weight's partner (making it a weight).
    odd = np.arange(1, half, 2)
    admissible = odd[~np.isin(odd, suffix + banned)]
    if len(admissible) < n - m:
        raise ValueError(
            f"only {len(admissible)} admissible odd locators below {modulus}, need {n - m}"
        )
    prefix = admissible[: n - m].tolist()
    loc = Locators(
        q=q,
        n=n,
        m=m,
        modulus=modulus,
        suffix_kind=SUFFIX_POWERS if q % 2 == 1 else SUFFIX_FSEQ,
        alpha=tuple(prefix + suffix),
        allow_suffix_ambiguity=allow_suffix_ambiguity,
    )
    report = validate_locators(loc)
    if not report.ok:
        raise ValueError(f"construction failed: {report.violation}")
    return loc
