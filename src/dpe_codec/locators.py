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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .basemath import ceil_log, jacobsthal_weight, jacobsthal_weights
from .core import CheckMatrix

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
        object.__setattr__(self, "_index", {v: j for j, v in enumerate(self.alpha)})

    @property
    def k(self) -> int:
        return self.n - self.m

    def index_of(self, value: int) -> int | None:
        """Column index carrying this locator value (None if absent)."""
        return self._index.get(value)

    @cached_property
    def prefix_check(self) -> CheckMatrix:
        """The locator checksum over alpha's k-prefix, for rows with entries
        in [0, q): what the suffix digits cancel."""
        return CheckMatrix([self.alpha[: self.k]], [self.modulus], self.q)

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

    Range, parity and distinctness are checked entry by entry, then the
    suffix weights.  Distinct entries give each entry at most one partner
    summing to the modulus, so the sum test is one pass: entry i looks its
    partner modulus - alpha[i] up in the locators' value index, and a
    partner at j >= i (j == i for modulus/2) is the pair (i, j).  Pairs are
    thus met in the order (i, j) of a scan over all i <= j.

    Suffix-confined sum collisions are accepted (and noted) only when the
    vector was built with allow_suffix_ambiguity.
    """
    modulus = loc.modulus
    primed = modulus == 4 * loc.n + 2
    if not primed and modulus != 2 * loc.n + 1:
        return ValidationReport(False, f"modulus {modulus} matches neither 2n+1 nor 4n+2")

    seen: set[int] = set()
    for j, v in enumerate(loc.alpha):
        if not 0 < v < modulus:
            return ValidationReport(False, f"entry {v} at index {j} is outside (0, {modulus})")
        if v in seen:
            return ValidationReport(False, f"duplicate entry {v}")
        if primed and v % 2 == 0:
            return ValidationReport(False, f"entry {v} at index {j} is even")
        seen.add(v)

    weights = loc.suffix_weights()
    for j in range(loc.m):
        if loc.alpha[loc.k + j] != weights[j]:
            return ValidationReport(
                False,
                f"suffix entry at index {loc.k + j} is {loc.alpha[loc.k + j]}, "
                f"expected weight {weights[j]}",
            )

    notes = []
    index = loc._index
    for i, v in enumerate(loc.alpha):
        w = modulus - v
        j = index.get(w)
        if j is None or j < i:
            continue
        if i >= loc.k and loc.allow_suffix_ambiguity:  # j >= i is in the suffix too
            if i == j:
                notes.append(f"suffix entry {v} equals modulus/2")
            else:
                notes.append(f"suffix entries {v} + {w} sum to the modulus")
            continue
        return ValidationReport(False, f"entries {v} + {w} sum to the modulus")
    return ValidationReport(True, None, tuple(notes))


def build_locators_basic(q: int, n: int, allow_suffix_ambiguity: bool = False) -> Locators:
    """Locators for the single-error scheme: modulus 2n+1, suffix (1, q, ...).

    Uses {1..n} when q^(m-1) <= n; otherwise swaps q^(m-1) in for the one
    value whose sum with it would hit 2n+1.  When that value is itself a
    suffix weight the swap is impossible; the largest non-suffix value is
    dropped instead, leaving a suffix-confined collision (opt-in).
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    m = basic_redundancy(q, n)
    if n <= m:
        raise ValueError(f"length {n} leaves no information columns (redundancy {m})")
    modulus = 2 * n + 1
    suffix = [q**j for j in range(m)]
    top = suffix[-1]
    if top <= n:
        entries = set(range(1, n + 1))
    else:
        partner = modulus - top
        entries = set(range(1, n + 1))
        if partner in suffix:
            if not allow_suffix_ambiguity:
                raise ValueError(
                    f"digit weights {partner} and {top} sum to {modulus}; no strictly "
                    "valid locators exist (retry with allow_suffix_ambiguity=True)"
                )
            drop = max(v for v in entries if v not in suffix)
            entries.discard(drop)
        else:
            entries.discard(partner)
        entries.add(top)
    prefix = sorted(entries - set(suffix))
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
    ascending order.  For q = 2 there is no odd-locator trick and the basic
    construction (plus a scheme-level parity column) is returned instead.
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
    banned = {modulus - s for s in suffix}
    suffix_self_collisions = [s for s in suffix if s == half]
    suffix_pair_collisions = [s for s in suffix if modulus - s in suffix and s != half]
    if (suffix_self_collisions or suffix_pair_collisions) and not allow_suffix_ambiguity:
        culprit = (suffix_self_collisions + suffix_pair_collisions)[0]
        raise ValueError(
            f"digit weight {culprit} collides with the modulus {modulus}; no strictly "
            "valid locators exist (retry with allow_suffix_ambiguity=True)"
        )

    prefix: list[int] = []
    used = set(suffix)
    candidate = 1
    while len(prefix) < n - m and candidate < modulus:
        if candidate not in used and candidate not in banned and candidate != half:
            prefix.append(candidate)
            used.add(candidate)
            banned.add(modulus - candidate)
        candidate += 2
    if len(prefix) < n - m:
        raise ValueError(
            f"only {len(prefix)} admissible odd locators below {modulus}, need {n - m}"
        )
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
