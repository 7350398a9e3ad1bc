"""Exact integer arithmetic helpers: primes, exact logarithms, the odd
mixed-radix weights, L1/Hamming metrics, Manhattan sphere volume, and
prime-field GF(p) arithmetic (inverse, solve, square root, quadratic
roots, signed lifting).

Everything works on plain Python ints, so there is no overflow to guard
against; values are exact at any size.  The scalar digit references and
the L1-sphere enumerator live in `oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def require_int(what: str, value) -> int:
    """`value` itself, if it is an int (a bool is not); else refuse it,
    named `what`.  The one exact-int check of the library boundary."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin, exact for n < 3.3e24)."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in small:
        return True
    if any(n % s == 0 for s in small):
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    c = max(n, 2)
    while not is_prime(c):
        c += 1
    return c


def ceil_log(base: int, x: int) -> int:
    """Smallest m >= 0 with base**m >= x (exact, no float)."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    m = 0
    power = 1
    while power < x:
        power *= base
        m += 1
    return m


def jacobsthal_weight(q: int, j: int) -> int:
    """j-th mixed-radix weight (q^(j+1) + (-1)^j) / (q+1) for even q > 2.

    These weights are all odd, start at 1, and generalize the Jacobsthal
    sequence; m of them represent every integer in [0, (q-1)*sum(weights)]
    with digits in [0, q).
    """
    if require_int("q", q) <= 2 or q % 2 != 0:
        raise ValueError(f"weights are defined for even bases > 2, got {q}")
    if require_int("j", j) < 0:
        raise ValueError(f"index must be >= 0, got {j}")
    num = q ** (j + 1) + (-1) ** j
    assert num % (q + 1) == 0
    return num // (q + 1)


def jacobsthal_weights(q: int, m: int) -> list[int]:
    """First m mixed-radix weights for even base q."""
    return [jacobsthal_weight(q, j) for j in range(m)]


def l1_norm(e: Iterable[int]) -> int:
    """Manhattan weight: sum of absolute values."""
    return sum(abs(v) for v in e)


def l1_dist(x: Sequence[int], y: Sequence[int]) -> int:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(abs(a - b) for a, b in zip(x, y))


def hamming_dist(x: Sequence[int], y: Sequence[int]) -> int:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(1 for a, b in zip(x, y) if a != b)


def sphere_volume_l1(n: int, t: int) -> int:
    """Number of integer vectors of length n with L1 norm <= t."""
    if require_int("n", n) < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    if require_int("t", t) < 0:
        raise ValueError(f"radius must be >= 0, got {t}")
    return sum(2**i * math.comb(n, i) * math.comb(t, i) for i in range(min(t, n) + 1))


def gfp_solve(matrix: Sequence[Sequence[int]], rhs: Sequence[int], p: int) -> list[int] | None:
    """Solve a square linear system over GF(p); None if the matrix is singular."""
    size = len(matrix)
    aug = [[v % p for v in row] + [rhs[i] % p] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] % p != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(v - factor * w) % p for v, w in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for an odd prime p.  Elements are ints in [0, p)."""

    p: int

    def __post_init__(self) -> None:
        if require_int("p", self.p) < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError(f"modulus must be an odd prime >= 3, got {self.p}")


def gfp_inv(a: int, field: PrimeField) -> int:
    """Multiplicative inverse of a modulo p."""
    a %= field.p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return pow(a, field.p - 2, field.p)


@cache
def _tonelli_shanks_setup(p: int) -> tuple[int, int, int]:
    """(q, s, z^q mod p) for p - 1 = q 2^s with q odd and the least
    quadratic non-residue z: what Tonelli-Shanks needs of p alone, found
    once per p."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return q, s, pow(z, q, p)


def _tonelli_shanks(a: int, p: int) -> int:
    # Assumes a is a nonzero quadratic residue mod p.
    q, s, c = _tonelli_shanks_setup(p)
    m, t, r = s, pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def gfp_sqrt(a: int, field: PrimeField) -> int | None:
    """A square root of a modulo p, or None if a is a non-residue.  For
    p = 3 mod 4 the one candidate a^((p+1)/4) decides: its square is a
    exactly when a is a residue, and -a otherwise."""
    p = field.p
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        root = pow(a, (p + 1) // 4, p)
        return root if root * root % p == a else None
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    return _tonelli_shanks(a, p)


def gfp_quadratic_roots(b: int, c: int, field: PrimeField) -> set[int]:
    """All x in GF(p) with x^2 + b*x + c == 0."""
    p = field.p
    b %= p
    c %= p
    disc = (b * b - 4 * c) % p
    root = gfp_sqrt(disc, field)
    if root is None:
        return set()
    half = (p + 1) // 2  # 1/2 mod the odd p
    return {(-b + root) * half % p, (-b - root) * half % p}


def signed_value(z: int, field: PrimeField) -> int:
    """Lift z in GF(p) to the signed representative in [-(p-1)/2, (p-1)/2]."""
    p = field.p
    if not 0 <= z < p:
        raise ValueError(f"{z} is not in [0, {p})")
    return z if z <= (p - 1) // 2 else z - p
