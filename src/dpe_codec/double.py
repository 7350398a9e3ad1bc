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
handled by the quadratic decoder, or a lone error in y1 is located from s1.
The triple-detecting variants either add one more overall parity column
(mandatory for q = 2) or run both checksums modulo 2p over odd locators,
where the parities of s1 and s2 replace the parity column.

Each scheme programs a matrix through `core.encode_matrix`, in block
products: `single.encode_row` on the packed block, then one product with
the scheme's own check matrix for every row's cubed checksum
(`cubes_digits`).

Each scheme decodes through `core.decode_read`.  Its syndrome hook calls
`syndromes`: the admitted read times one `core.CheckMatrix`.  Its `locate`
(picked per variant at construction) is the dispatch table and nothing
else: a lone error's hit comes from `single.unit_hits`, a pair's from
`pair_hits`, which maps `berlekamp.locate_double_error`'s sparse hits to
read columns.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .basemath import PrimeField, ceil_log, is_prime
from .berlekamp import BerlekampCode, locate_double_error
from .core import (
    CheckMatrix,
    DecodeOutcome,
    Hits,
    QMatrix,
    ReadVector,
    decode_read,
    decoded,
    encode_matrix,
    int_dtype,
    output_alphabet,
    parity_extend,
)
from .locators import Locators, build_locators_basic, build_locators_ded
from .single import (
    VARIANT_PARITY,
    detect_variant,
    encode_row,
    redundancy_digits,
    unit_hits,
)


def _suggest_prime(q: int, p: int) -> int:
    candidate = p + 1
    while True:
        if is_prime(candidate) and (candidate - 1) // 2 - ceil_log(q, candidate) >= 1:
            return candidate
        candidate += 1


def _check_prime(q: int, p: int) -> None:
    if p <= 3 or not is_prime(p):
        raise ValueError(f"need a prime p > 3, got {p}")
    n1 = (p - 1) // 2
    if n1 - ceil_log(q, p) < 1:
        raise ValueError(
            f"p = {p} leaves no information columns for q = {q}; "
            f"smallest workable prime is {_suggest_prime(q, p)}"
        )


def _pair_code(loc: Locators, p: int) -> tuple[BerlekampCode, list[int]]:
    """Embed locators into GF(p) for the weight-2 decoder.

    Positions whose locator vanishes mod p (possible only under the
    suffix-ambiguity opt-in) are excluded: their errors are invisible to
    the mod-p syndrome and sit in redundancy columns.
    """
    residues = loc.array % p
    positions = np.flatnonzero(residues)
    code = BerlekampCode(
        PrimeField(p), residues[positions], tau=2, validate=not loc.allow_suffix_ambiguity
    )
    return code, positions.tolist()


def cubes_digits(inner: np.ndarray, check: CheckMatrix, loc: Locators) -> np.ndarray:
    """The digits of each row's cubed-locator checksum, modulo the
    locators', for an l x n1 block of single-error codewords: the second
    syndrome of the scheme's `check` (`checksum_rows`) on each row with the
    columns after n1 at 0."""
    word = np.zeros((len(inner), check.n), inner.dtype)
    word[:, : inner.shape[1]] = inner
    return redundancy_digits(check(word)[:, 1], loc)


def checksum_rows(loc: Locators, n1: int, weights: Sequence[int], n: int) -> np.ndarray:
    """The linear and cubed checksum rows over a read of length n, as a
    2 x n array: locators on the n1-prefix, and their cubes modulo the
    locators' modulus M (a * a mod M * a mod M, int64 while M^2 fits) with
    the cubed row's digit weights negated after them."""
    modulus = loc.modulus
    alpha = loc.array[:n1].astype(int_dtype(modulus * modulus))
    rows = np.zeros((2, n), alpha.dtype)
    rows[0, :n1] = alpha
    rows[1, :n1] = alpha * alpha % modulus * alpha % modulus
    rows[1, n1 : n1 + len(weights)] = [-w for w in weights]
    return rows


def pair_hits(code: BerlekampCode, positions: list[int], syn: tuple[int, int]) -> Hits | None:
    """The hits of the Lee-weight-2 error whose mod-p syndromes are `syn`,
    or None; the pair code's coordinate i is read column positions[i]."""
    hits = locate_double_error(code, syn)
    return None if hits is None else [(positions[i], e) for i, e in hits]


class DoubleErrorScheme:
    """Correct any two L1 errors (induced distance >= 5)."""

    def __init__(self, q: int, p: int, ell: int, allow_suffix_ambiguity: bool = False):
        _check_prime(q, p)
        self.q = q
        self.p = p
        self.ell = ell
        self.n1 = (p - 1) // 2
        self.loc = build_locators_basic(q, self.n1, allow_suffix_ambiguity)
        assert self.loc.modulus == p
        self.m = self.loc.m
        self.k = self.n1 - self.m
        self.n2 = self.n1 + self.m
        self.n = self.n2 + 1
        self.q_out = output_alphabet(q, ell)
        self.ber, self.ber_positions = _pair_code(self.loc, p)
        digits = [self.q**j for j in range(self.m)]
        rows = checksum_rows(self.loc, self.n1, digits, self.n)
        parity = np.zeros((1, self.n), rows.dtype)  # over the digit block and its parity
        parity[0, self.n1 :] = 1
        self.check = CheckMatrix(np.vstack((rows, parity)), (p, p, 2), self.q_out)
        self.vector = self.check.vector

    def encode(self, aprime: QMatrix) -> QMatrix:
        return encode_matrix(self, aprime)

    def encode_array(self, block: np.ndarray) -> np.ndarray:
        inner = encode_row(block, self.loc)
        return np.hstack((inner, parity_extend(cubes_digits(inner, self.check, self.loc))))

    def syndromes(self, y: ReadVector) -> tuple[int, int, int]:
        """Admit the read; its (s1, s2, digit-block parity)."""
        return tuple(self.check(y.admit(self.n, self.q_out, vector=self.vector)))

    def read_syndromes(self, y: ReadVector) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.syndromes(y), y.entries

    def locate(self, syn: tuple[int, int, int], y: ReadVector) -> Hits | None:
        s1, s2, s2_hat = syn
        if s1 == 0:
            return ()  # the n1-prefix is clean
        if s2_hat == 0:
            return pair_hits(self.ber, self.ber_positions, (s1, s2))
        return unit_hits(s1, self.loc)

    def decode(self, y: ReadVector) -> DecodeOutcome:
        return decode_read(self, y)


class TripleDetectScheme:
    """Correct two L1 errors and detect three (induced distance >= 6)."""

    def __init__(
        self,
        q: int,
        p: int,
        ell: int,
        variant: str | None = None,
        allow_suffix_ambiguity: bool = False,
    ):
        self.variant = variant = detect_variant(q, variant)
        self.q = q
        self.p = p
        self.ell = ell
        self.q_out = output_alphabet(q, ell)
        if variant == VARIANT_PARITY:
            self.base = DoubleErrorScheme(q, p, ell, allow_suffix_ambiguity)
            self.loc = self.base.loc
            self.n1 = self.base.n1
            self.m = self.base.m
            self.k = self.base.k
            self.n = self.base.n + 1
            self.ber = self.base.ber
            self.ber_positions = self.base.ber_positions
            # the base scheme's rows widened by the parity column, and the
            # total parity as an all-ones row
            base = self.base.check
            rows = np.pad(base.array, ((0, 1), (0, 1)))
            rows[-1] = 1
            self.check = CheckMatrix(rows, base.moduli + (2,), self.q_out)
        else:
            _check_prime(q, p)
            self.n1 = (p - 1) // 2
            self.loc = build_locators_ded(q, self.n1, allow_suffix_ambiguity)
            assert self.loc.modulus == 2 * p
            self.m = self.loc.m
            self.k = self.n1 - self.m
            if self.k < 1:
                raise ValueError(
                    f"p = {p} leaves no information columns for q = {q} "
                    "in the modulus-2p variant"
                )
            self.n = self.n1 + self.m
            self.ber, self.ber_positions = _pair_code(self.loc, p)
            rows = checksum_rows(self.loc, self.n1, self.loc.suffix_weights(), self.n)
            self.check = CheckMatrix(rows, (2 * p, 2 * p), self.q_out)
        self.vector = self.check.vector
        self.locate = self._locate_parity if variant == VARIANT_PARITY else self._locate_mod2p

    # -- encoding ---------------------------------------------------------

    def encode(self, aprime: QMatrix) -> QMatrix:
        return encode_matrix(self, aprime)

    def encode_array(self, block: np.ndarray) -> np.ndarray:
        if self.variant == VARIANT_PARITY:
            return parity_extend(self.base.encode_array(block))
        inner = encode_row(block, self.loc)
        return np.hstack((inner, cubes_digits(inner, self.check, self.loc)))

    # -- decoding ---------------------------------------------------------

    def syndromes(self, y: ReadVector) -> tuple[int, int] | tuple[int, int, int, int]:
        """Admit the read; its (s1, s2, digit-block parity, total parity) in
        the parity variant, else (s1, s2) modulo 2p."""
        return tuple(self.check(y.admit(self.n, self.q_out, vector=self.vector)))

    def read_syndromes(self, y: ReadVector) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.syndromes(y), y.entries

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

    def decode(self, y: ReadVector) -> DecodeOutcome:
        return decode_read(self, y)


class ShortenedScheme:
    """Fix leading information columns of a base scheme to zero and drop
    them, freeing the choice of dimension from the base's parameter grid."""

    def __init__(self, base, drop: int):
        if not 0 < drop < base.k:
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
        # A read without erasures keeps the shared all-False flags.
        erased = (False,) * self.drop + y.erased if y.has_erasures else ()
        full = ReadVector((0,) * self.drop + y.entries, erased)
        outcome = self.base.decode(full)
        if outcome.failed:
            return outcome
        return decoded(outcome.prefix[self.drop :])
