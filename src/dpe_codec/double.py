"""Double-error correction: a three-part redundancy suffix and a decoder
that dispatches on which parts look damaged.

The encoder composes three stages per row (all on top of the single-error
stage run modulo a prime p = 2*n1 + 1):

  1. the single-error digit suffix, zeroing the locator checksum mod p;
  2. m more digits recording the *cubed*-locator checksum mod p;
  3. one parity symbol over those m digits.

A read vector splits as y = (y1 | y2) with y1 the n1-prefix.  The decoder
computes s1 (linear checksum of y1), s2 (cubed checksum of y1 minus the
digit-encoded value in y2), and the parity of y2.  Depending on the
split, either y1 is clean, or the pair (s1, s2) is a weight-2 Lee syndrome
handled by the quadratic decoder, or a lone error in y1 is located from s1.

The triple-detecting variants either add one more overall parity column
(mandatory for q = 2) or run both checksums modulo 2p over odd locators,
where the parities of s1 and s2 replace the parity column (Table-driven
dispatch; see decode).

Each decoder is that dispatch table and nothing else: `syndromes` admits
the read (`ReadVector.admit`) and multiplies it by the scheme's check rows
(one `core.CheckMatrix`: both checksums, and the parity rows mod 2), a
lone error is corrected by `single.correct_unit` and a pair by
`correct_pair`, both through `core.corrected`.
"""

from __future__ import annotations

from typing import Sequence

from .basemath import PrimeField, ceil_log, is_prime
from .berlekamp import BerlekampCode, decode_double_error
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
from .locators import Locators, build_locators_basic, build_locators_ded
from .single import (
    VARIANT_PARITY,
    correct_unit,
    detect_variant,
    encode_row,
    redundancy_digits,
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
    positions = [j for j in range(loc.n) if loc.alpha[j] % p != 0]
    beta = [loc.alpha[j] % p for j in positions]
    code = BerlekampCode(
        PrimeField(p), beta, tau=2, validate=not loc.allow_suffix_ambiguity
    )
    return code, positions


def cubes_digits(row: tuple[int, ...], loc: Locators) -> tuple[int, ...]:
    """Digits of a row's cubed-locator checksum, modulo the locators'."""
    cubes = sum(v * loc.alpha[j] ** 3 for j, v in enumerate(row)) % loc.modulus
    return tuple(redundancy_digits(cubes, loc))


def checksum_rows(loc: Locators, n1: int, weights: Sequence[int], n: int) -> list[list[int]]:
    """The linear and cubed checksum rows over a read of length n: locators
    on the n1-prefix, and the cubed row's digit weights negated after it."""
    alpha = loc.alpha[:n1]
    pad = [0] * (n - n1 - len(weights))
    return [
        list(alpha) + [0] * (n - n1),
        [a**3 for a in alpha] + [-w for w in weights] + pad,
    ]


def correct_pair(
    values: Sequence[int],
    k: int,
    syn: tuple[int, int],
    code: BerlekampCode,
    positions: list[int],
    bound: int,
) -> DecodeOutcome:
    """Correct the Lee-weight-2 error whose mod-p syndromes are `syn`; the
    pair code's coordinate i is read column positions[i]."""
    sub = decode_double_error(code, syn)
    if sub is None:
        return DECODE_FAILURE
    return corrected(values, k, zip(positions, sub), bound)


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
        parity = [0] * self.n1 + [1] * (self.m + 1)
        rows = checksum_rows(self.loc, self.n1, digits, self.n) + [parity]
        self.check = CheckMatrix(rows, (p, p, 2), self.q_out)
        self.vector = self.check.vector

    def encode(self, aprime: QMatrix) -> QMatrix:
        check_input(aprime, self.q, self.k)
        rows = []
        for row in aprime.rows:
            inner = encode_row(row, self.loc)
            rows.append(inner + parity_extend(cubes_digits(inner, self.loc)))
        return QMatrix(self.q, tuple(rows))

    def syndromes(self, y: ReadVector) -> tuple[int, int, int]:
        """Admit the read; its (s1, s2, digit-block parity)."""
        return tuple(self.check(y.admit(self.n, self.q_out, vector=self.vector)))

    def decode(self, y: ReadVector) -> DecodeOutcome:
        s1, s2, s2_hat = self.syndromes(y)
        if s1 == 0:
            return decoded(y.entries[: self.k])  # the n1-prefix is clean
        if s2_hat == 0:
            syn = (s1, s2)
            return correct_pair(y.entries, self.k, syn, self.ber, self.ber_positions, self.q_out)
        return correct_unit(y.entries, self.k, s1, self.loc, self.q_out)


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
            rows = [row + (0,) for row in base.rows] + [(1,) * self.n]
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

    # -- encoding ---------------------------------------------------------

    def encode(self, aprime: QMatrix) -> QMatrix:
        check_input(aprime, self.q, self.k)
        if self.variant == VARIANT_PARITY:
            inner = self.base.encode(aprime)
            return QMatrix(self.q, tuple(parity_extend(row) for row in inner.rows))
        rows = []
        for row in aprime.rows:
            inner = encode_row(row, self.loc)
            rows.append(inner + cubes_digits(inner, self.loc))
        return QMatrix(self.q, tuple(rows))

    # -- decoding ---------------------------------------------------------

    def syndromes(self, y: ReadVector) -> tuple[int, int] | tuple[int, int, int, int]:
        """Admit the read; its (s1, s2, digit-block parity, total parity) in
        the parity variant, else (s1, s2) modulo 2p."""
        return tuple(self.check(y.admit(self.n, self.q_out, vector=self.vector)))

    def _decode_parity(self, y: ReadVector) -> DecodeOutcome:
        s1, s2, s2_hat, total_parity = self.syndromes(y)
        prefix = decoded(y.entries[: self.k])
        if s1 == 0:
            # Only an all-prefix triple with a vanishing checksum is unsafe
            # here; it shows up as odd total parity, even digit-block parity
            # and a nonzero cubes checksum.
            if total_parity == 1 and s2_hat == 0 and s2 != 0:
                return DECODE_FAILURE
            return prefix
        if s2_hat == 1:
            if total_parity == 1:
                return DECODE_FAILURE  # three errors split 2+1 or 1+1+1
            return correct_unit(y.entries, self.k, s1, self.loc, self.q_out)
        if total_parity == 0:
            syn = (s1, s2)
            return correct_pair(y.entries, self.k, syn, self.ber, self.ber_positions, self.q_out)
        # Odd count, clean-looking digit block: only a lone error whose two
        # checksums agree may be corrected; anything else is a triple.
        if s2 == pow(s1, 3, self.p):
            return correct_unit(y.entries, self.k, s1, self.loc, self.q_out)
        return DECODE_FAILURE

    def _decode_mod2p(self, y: ReadVector) -> DecodeOutcome:
        s1, s2 = self.syndromes(y)
        if s1 == 0:
            return decoded(y.entries[: self.k])
        odd1, odd2 = s1 % 2 == 1, s2 % 2 == 1
        if not odd1 and not odd2:
            syn = (s1 % self.p, s2 % self.p)
            return correct_pair(y.entries, self.k, syn, self.ber, self.ber_positions, self.q_out)
        if odd1 and not odd2:
            return correct_unit(y.entries, self.k, s1, self.loc, self.q_out)
        if not odd1 and odd2:
            return DECODE_FAILURE
        if (s2 - s1**3) % self.p == 0:
            return correct_unit(y.entries, self.k, s1, self.loc, self.q_out)
        return DECODE_FAILURE

    def decode(self, y: ReadVector) -> DecodeOutcome:
        if self.variant == VARIANT_PARITY:
            return self._decode_parity(y)
        return self._decode_mod2p(y)


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
        check_input(aprime, self.q, self.k)
        padded = QMatrix(self.q, tuple((0,) * self.drop + row for row in aprime.rows))
        full = self.base.encode(padded)
        return QMatrix(self.q, tuple(row[self.drop :] for row in full.rows))

    def decode(self, y: ReadVector) -> DecodeOutcome:
        full = ReadVector(
            (0,) * self.drop + y.entries, (False,) * self.drop + y.erased
        )
        outcome = self.base.decode(full)
        if outcome.failed:
            return outcome
        return decoded(outcome.prefix[self.drop :])
