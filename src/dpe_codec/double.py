"""Double-error correction: a three-part redundancy suffix and a locate
step that dispatches on which parts look damaged.

The encoder composes three stages per row (all on top of the single-error
stage run modulo a prime p = 2*n1 + 1):

  1. the single-error digit suffix, zeroing the locator checksum mod p;
  2. m more digits recording the *cubed*-locator checksum mod p;
  3. one parity symbol over those m digits.

A read vector splits as y = (y1 | y2) with y1 the n1-prefix.  Its
syndromes are s1 (linear checksum of y1), s2 (cubed checksum of y1 minus
the digit-encoded value in y2), and the parity of y2.  Depending on the
split, either y1 is clean, or the pair (s1, s2) is a weight-2 Lee syndrome
of a tau = 2 code, whose points its decoder reads off a quadratic, or a lone
error in y1 is located from s1.
The triple-detecting code is built from this one in either of two ways:
the same layout plus one overall parity column (mandatory for q = 2), or
both checksums modulo 2p over odd locators, where the parities of s1 and
s2 replace the parity columns.

Each scheme is a `core.Scheme`, laid out by `_lay_out`: its prime check,
locators, lengths, pair code and check rows, for all three layouts.  Its
`encode_array` works in block products: `single.encode_row` on the packed
block, then one product with the scheme's own check matrix for every
row's cubed checksum (`cubes_digits`).  Its read takes its product through
`syndromes`.  Its `locate` (picked per variant at construction) is the
dispatch table and nothing else: a lone error's hit comes from
`single.unit_hits`, a pair's from `pair_hits`, which maps
`berlekamp.locate_key_equation`'s sparse hits to read columns.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .basemath import PrimeField, is_prime, next_prime
from .berlekamp import BerlekampCode, locate_key_equation
from .core import (
    CheckMatrix,
    DecodeOutcome,
    Hits,
    QMatrix,
    ReadVector,
    Scheme,
    decode_read,
    decoded,
    encode_matrix,
    int_dtype,
    parity_extend,
    require_int,
)
from .locators import (
    Locators,
    basic_redundancy,
    build_locators_basic,
    build_locators_ded,
    ded_redundancy,
)
from .single import (
    VARIANT_PARITY,
    detect_variant,
    encode_row,
    redundancy_digits,
    unit_hits,
)


def _check_prime(q: int, p: int, redundancy: Callable[[int, int], int]) -> None:
    """Refuse p unless it is a prime > 3 whose n1 = (p - 1)/2 columns keep
    an information column beside the `redundancy(q, n1)` digits of its
    locators; name the smallest prime above p that does."""
    if require_int("p", p) <= 3 or not is_prime(p):
        raise ValueError(f"need a prime p > 3, got {p}")

    def workable(prime: int) -> bool:
        n1 = (prime - 1) // 2
        return n1 > redundancy(q, n1)

    if not workable(p):
        suggestion = next_prime(p + 1)
        while not workable(suggestion):
            suggestion = next_prime(suggestion + 1)
        raise ValueError(
            f"p = {p} leaves no information columns for q = {q}; "
            f"smallest workable prime is {suggestion}"
        )


def _pair_code(loc: Locators, p: int) -> tuple[BerlekampCode, list[int]]:
    """Embed locators into GF(p) for the weight-2 decoder: the positions
    whose residue is nonzero, keeping the first of each two whose residues
    negate.

    Both kinds of dropped position occur only under the suffix-ambiguity
    opt-in, and only in the redundancy suffix.  An error at a vanishing
    locator is invisible to the mod-p syndrome; one at the later of two
    negating locators reads as the opposite error at the first, also a
    suffix column, so the data prefix decodes the same.
    """
    residues = loc.array % p
    _, first = np.unique(np.minimum(residues, p - residues), return_index=True)
    positions = np.sort(first[residues[first] != 0])
    return BerlekampCode(PrimeField(p), residues[positions], tau=2), positions.tolist()


def _lay_out(scheme: Scheme, p: int, parities: int, allow_suffix_ambiguity: bool) -> None:
    """Lay out a double-error code of prime p on `scheme`: n1 = (p - 1)/2
    locator columns, the m digits of the cubed checksum, then `parities`
    parity columns: 1 for dec (the digit block's), 2 for the parity variant
    of dec-ted (and the total), 0 for its odd locators modulo 2p.

    Sets p, n1, loc, m, k, n, the pair code (`ber`, `ber_positions`) and
    `check`, whose rows are filled in one array: the linear and cubed
    checksums modulo the locators' modulus M (a * a mod M * a mod M, int64
    while M^2 fits, with the digit weights negated after them), then the
    digit block's parity row and the all-ones row, each mod 2."""
    odd = parities == 0
    _check_prime(scheme.q, p, ded_redundancy if odd else basic_redundancy)
    n1 = (p - 1) // 2
    build = build_locators_ded if odd else build_locators_basic
    loc = build(scheme.q, n1, allow_suffix_ambiguity)
    m = loc.m
    scheme.p, scheme.n1, scheme.loc, scheme.m = p, n1, loc, m
    scheme.k = n1 - m
    scheme.n = n = n1 + m + parities
    scheme.ber, scheme.ber_positions = _pair_code(loc, p)
    modulus = loc.modulus
    alpha = loc.array[:n1].astype(int_dtype(modulus * modulus))
    rows = np.zeros((2 + parities, n), alpha.dtype)
    rows[0, :n1] = alpha
    rows[1, :n1] = alpha * alpha % modulus * alpha % modulus
    rows[1, n1 : n1 + m] = [-w for w in loc.suffix_weights()]
    rows[2:, n1 : n1 + m + 1] = 1  # the digit block and its parity column
    rows[3:] = 1
    scheme.check = CheckMatrix(rows, (modulus, modulus) + (2,) * parities, scheme.q_out)


def cubes_digits(inner: np.ndarray, check: CheckMatrix, loc: Locators) -> np.ndarray:
    """The digits of each row's cubed-locator checksum, modulo the
    locators', for an l x n1 block of single-error codewords: the second
    syndrome of the scheme's `check` (`_lay_out`) on each row with the
    columns after n1 at 0."""
    word = np.zeros((len(inner), check.n), inner.dtype)
    word[:, : inner.shape[1]] = inner
    return redundancy_digits(check(word)[:, 1], loc)


def pair_hits(code: BerlekampCode, positions: list[int], syn: tuple[int, int]) -> Hits | None:
    """The hits of the Lee-weight-2 error whose mod-p syndromes are `syn`,
    or None; the pair code's coordinate i is read column positions[i]."""
    hits = locate_key_equation(code, syn)
    return None if hits is None else [(positions[i], e) for i, e in hits]


class DoubleErrorScheme(Scheme):
    """Correct any two L1 errors (induced distance >= 5)."""

    def __init__(self, q: int, p: int, ell: int, allow_suffix_ambiguity: bool = False):
        super().__init__(q, ell)
        _lay_out(self, p, 1, allow_suffix_ambiguity)

    def encode_array(self, block: np.ndarray) -> np.ndarray:
        inner = encode_row(block, self.loc)
        return np.hstack((inner, parity_extend(cubes_digits(inner, self.check, self.loc))))

    def syndromes(self, y: ReadVector) -> tuple[int, ...]:
        """Admit the read; its (s1, s2, digit-block parity), with the total
        parity after them in the parity variant of dec-ted, else (s1, s2)
        modulo 2p there."""
        check = self.check
        return tuple(check(y.admit(check.n, self.q_out, vector=check.vector)))

    def read_syndromes(self, y: ReadVector) -> tuple[int, ...]:
        return self.syndromes(y)

    def locate(self, syn: tuple[int, int, int], y: ReadVector) -> Hits | None:
        s1, s2, s2_hat = syn
        if s1 == 0:
            return ()  # the n1-prefix is clean
        if s2_hat == 0:
            return pair_hits(self.ber, self.ber_positions, (s1, s2))
        return unit_hits(s1, self.loc)

    decode = decode_read


class TripleDetectScheme(Scheme):
    """Correct two L1 errors and detect three (induced distance >= 6).

    The parity variant is the dec layout plus a total-parity column (an
    all-ones check row mod 2); the others are odd locators modulo 2p."""

    def __init__(
        self,
        q: int,
        p: int,
        ell: int,
        variant: str | None = None,
        allow_suffix_ambiguity: bool = False,
    ):
        super().__init__(q, ell)
        self.variant = variant = detect_variant(q, variant)
        parity = variant == VARIANT_PARITY
        _lay_out(self, p, 2 if parity else 0, allow_suffix_ambiguity)
        self.locate = self._locate_parity if parity else self._locate_mod2p

    # -- encoding ---------------------------------------------------------

    def encode_array(self, block: np.ndarray) -> np.ndarray:
        if self.variant == VARIANT_PARITY:
            return parity_extend(DoubleErrorScheme.encode_array(self, block))
        inner = encode_row(block, self.loc)
        return np.hstack((inner, cubes_digits(inner, self.check, self.loc)))

    # -- decoding ---------------------------------------------------------

    syndromes = DoubleErrorScheme.syndromes
    read_syndromes = DoubleErrorScheme.read_syndromes

    def _locate_parity(self, syn: tuple[int, int, int, int], y: ReadVector) -> Hits | None:
        s1, s2, s2_hat, total_parity = syn
        if s1 == 0:
            # Only an all-prefix triple with a vanishing checksum is unsafe
            # here: odd total parity, even block parity and a nonzero s2.
            return None if total_parity == 1 and s2_hat == 0 and s2 != 0 else ()
        if s2_hat == 1:
            # an odd total: three errors split 2+1 or 1+1+1
            return None if total_parity == 1 else unit_hits(s1, self.loc)
        if total_parity == 0:
            return pair_hits(self.ber, self.ber_positions, (s1, s2))
        # Odd count, clean-looking digit block: only a lone error whose two
        # checksums agree may be corrected; anything else is a triple.
        return unit_hits(s1, self.loc) if s2 == pow(s1, 3, self.p) else None

    def _locate_mod2p(self, syn: tuple[int, int], y: ReadVector) -> Hits | None:
        s1, s2 = syn
        if s1 == 0:
            return ()
        if s2 % 2 == 0:
            if s1 % 2 == 0:
                return pair_hits(self.ber, self.ber_positions, (s1 % self.p, s2 % self.p))
            return unit_hits(s1, self.loc)
        # An odd s2: only a lone error whose two checksums agree.
        return unit_hits(s1, self.loc) if s1 % 2 and (s2 - s1**3) % self.p == 0 else None

    decode = decode_read


class ShortenedScheme:
    """Fix leading information columns of a base scheme to zero and drop
    them, freeing the choice of dimension from the base's parameter grid."""

    def __init__(self, base, drop: int):
        if not 0 < require_int("drop", drop) < base.k:
            raise ValueError(f"drop must be in (0, {base.k}), got {drop}")
        self.base = base
        self.drop = drop
        self.q = base.q
        self.ell = base.ell
        self.q_out = base.q_out
        self.k = base.k - drop
        self.n = base.n - drop

    def encode(self, aprime: QMatrix) -> QMatrix:
        return encode_matrix(self, aprime)

    def encode_array(self, block: np.ndarray) -> np.ndarray:
        """The base scheme's rows for the block behind `drop` zero columns,
        without those columns."""
        zeros = np.zeros((len(block), self.drop), block.dtype)
        return self.base.encode_array(np.hstack((zeros, block)))[:, self.drop :]

    def decode(self, y: ReadVector) -> DecodeOutcome:
        if y.n != self.n:
            raise ValueError(f"read vector length {y.n} != {self.n}")
        erased = tuple(j + self.drop for j in y.erased)
        full = ReadVector((0,) * self.drop + y.entries, erased)
        outcome = self.base.decode(full)
        if outcome.failed:
            return outcome
        return decoded(outcome.prefix[self.drop :])
