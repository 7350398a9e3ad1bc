"""Scheme construction against a reference that builds every artefact one
Python int at a time: the check rows and moduli of every scheme's
`CheckMatrix` with its kernel and width decisions, the locators, the
Lee codes' locators, power columns and value index, the Reed-Solomon
points and powers, and every refusal.  The reference is the per-entry
construction that the array-native one replaced: `pow` per power, `%`
per entry, a set per distinctness test and a candidate loop for the odd
locators.

The instances cover every CLI scheme in its variants, the parity
detector, shortened schemes, the suffix-ambiguity opt-in, and fields on
both sides of the int64 bound (p^2 past 2^63, and p past 2^64), where the
construction keeps its arrays as Python ints.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpe_codec as api
from dpe_codec.basemath import ceil_log, jacobsthal_weight, jacobsthal_weights
from dpe_codec.core import INT64_BOUND, kernel_fits
from dpe_codec.locators import (
    Locators,
    build_locators_basic,
    build_locators_ded,
    validate_locators,
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
BIG_PRIME = 2**31 + 11  # every read product past int64, p^2 still inside
WIDE_PRIME = 3_037_000_507  # the first prime with p^2 past 2^63: powers on Python ints
HUGE_PRIME = 2**64 + 13  # p past 2^64: every array holds Python ints


# -- the per-entry reference --------------------------------------------------


def ref_check(rows, moduli, bound):
    """The check rows reduced entry by entry, the moduli, and the kernel and
    width decisions."""
    moduli = tuple(moduli)
    rows = tuple(tuple(x % m for x in row) for row, m in zip(rows, moduli))
    n, top = len(rows[0]), max(moduli)
    wide = n * (bound - 1) * (top - 1) >= INT64_BOUND
    return rows, moduli, kernel_fits(n, bound, top, len(rows)), wide


def ref_validate(n, m, modulus, alpha, allow, weights):
    """The first violation of a locator vector with suffix `weights`, by
    sets and a dict: None if it passes."""
    primed = modulus == 4 * n + 2
    seen = set()
    for j, v in enumerate(alpha):
        if not 0 < v < modulus:
            return f"entry {v} at index {j} is outside (0, {modulus})"
        if v in seen:
            return f"duplicate entry {v}"
        if primed and v % 2 == 0:
            return f"entry {v} at index {j} is even"
        seen.add(v)
    for j in range(m):
        if alpha[n - m + j] != weights[j]:
            return (f"suffix entry at index {n - m + j} is {alpha[n - m + j]}, "
                    f"expected weight {weights[j]}")
    index = {v: j for j, v in enumerate(alpha)}
    for i, v in enumerate(alpha):
        j = index.get(modulus - v)
        if j is not None and j >= i and not (i >= n - m and allow):
            return f"entries {v} + {modulus - v} sum to the modulus"
    return None


def ref_basic(q, n, allow):
    """(alpha, m, modulus) of the single-error locators, or the refusal."""
    if q < 2:
        return f"alphabet size must be >= 2, got {q}"
    m = ceil_log(q, 2 * n + 1)
    if n <= m:
        return f"length {n} leaves no information columns (redundancy {m})"
    modulus = 2 * n + 1
    suffix = [q**j for j in range(m)]
    top = suffix[-1]
    entries = set(range(1, n + 1))
    if top > n:
        partner = modulus - top
        if partner in suffix:
            if not allow:
                return (
                    f"digit weights {partner} and {top} sum to {modulus}; no strictly "
                    "valid locators exist (retry with allow_suffix_ambiguity=True)"
                )
            entries.discard(max(v for v in entries if v not in suffix))
        else:
            entries.discard(partner)
        entries.add(top)
    alpha = tuple(sorted(entries - set(suffix)) + suffix)
    violation = ref_validate(n, m, modulus, alpha, allow, suffix)
    return f"construction failed: {violation}" if violation else (alpha, m, modulus)


def ref_ded(q, n, allow):
    """(alpha, m, modulus) of the odd locators modulo 4n+2, by the candidate
    loop over every odd value below the modulus, or the refusal."""
    if q < 2:
        return f"alphabet size must be >= 2, got {q}"
    if q == 2:
        return ref_basic(q, n, allow)
    modulus = 4 * n + 2
    if q % 2:
        m = ceil_log(q, modulus)
    else:
        m = 1
        while jacobsthal_weight(q, m) < modulus + (-1) ** m:
            m += 1
    if n <= m:
        return f"length {n} leaves no information columns (redundancy {m})"
    suffix = [q**j for j in range(m)] if q % 2 else jacobsthal_weights(q, m)
    half = modulus // 2
    banned = {modulus - s for s in suffix}
    collisions = [s for s in suffix if s == half]
    collisions += [s for s in suffix if modulus - s in suffix and s != half]
    if collisions and not allow:
        return (
            f"digit weight {collisions[0]} collides with the modulus {modulus}; no strictly "
            "valid locators exist (retry with allow_suffix_ambiguity=True)"
        )
    prefix, used, candidate = [], set(suffix), 1
    while len(prefix) < n - m and candidate < modulus:
        if candidate not in used and candidate not in banned and candidate != half:
            prefix.append(candidate)
            used.add(candidate)
            banned.add(modulus - candidate)
        candidate += 2
    if len(prefix) < n - m:
        return f"only {len(prefix)} admissible odd locators below {modulus}, need {n - m}"
    alpha = tuple(prefix + suffix)
    violation = ref_validate(n, m, modulus, alpha, allow, suffix)
    return f"construction failed: {violation}" if violation else (alpha, m, modulus)


def ref_lee(p, beta, tau, validate=True, bound=None):
    """A Lee code's locators reduced mod p, power columns by `pow`, value
    index and check, or the refusal."""
    if not all(type(b) is int for b in beta):
        return "locators must be integers"
    beta = tuple(b % p for b in beta)
    if validate:
        if len(set(beta)) != len(beta) or 0 in beta:
            return "locators must be nonzero and distinct"
        values = set(beta)
        for b in beta:
            if (p - b) % p in values:
                return f"locators {b} and {p - b} negate each other"
    power_cols = [tuple(pow(b, 2 * v + 1, p) for b in beta) for v in range(tau)]
    return {
        "beta": beta,
        "power_cols": power_cols,
        "_index": {b: j for j, b in enumerate(beta)},
        "check": ref_check(power_cols, (p,) * tau, p if bound is None else bound),
    }


def ref_rs(p, length, k, points=None):
    """A Reed-Solomon code's points, powers by `pow` and position index, or
    the refusal."""
    gamma = tuple(points) if points is not None else tuple(range(1, length + 1))
    if not all(type(g) is int for g in gamma):
        return "points must be integers"
    if len(gamma) != length or len(set(gamma)) != length:
        return "points must be distinct"
    if any(not 0 < g < p for g in gamma):
        return "points must be nonzero field elements"
    d = length - k + 1
    powers = [tuple(pow(g, v + 1, p) for g in gamma) for v in range(d - 1)]
    return {
        "gamma": gamma,
        "_position": {g: j for j, g in enumerate(gamma)},
        "check": ref_check(powers, (p,) * (d - 1), p),
    }


def ref_checksum_rows(alpha, n1, weights, n):
    """The linear and cubed checksum rows of the double-error schemes, cubes
    unreduced."""
    alpha = alpha[:n1]
    pad = [0] * (n - n1 - len(weights))
    return [list(alpha) + [0] * (n - n1), [a**3 for a in alpha] + [-w for w in weights] + pad]


def _suffix_weights(q, m, modulus, n):
    if modulus == 4 * n + 2 and q % 2 == 0:
        return jacobsthal_weights(q, m)
    return [q**j for j in range(m)]


def ref_pair_code(alpha, p, allow):
    positions = [j for j in range(len(alpha)) if alpha[j] % p != 0]
    return ref_lee(p, [alpha[j] % p for j in positions], 2, validate=not allow), positions


# -- the reference per scheme ---------------------------------------------------
# Each takes a built scheme for the parameters that the unchanged parameter
# checks derive, and gives its artefacts: "loc" (alpha, m, modulus), "check"
# (rows, moduli, vector, wide), and the Lee or Reed-Solomon codes it holds.


def ref_parity_detect(s):
    return {"check": ref_check([(1,) * s.n], [2], s.q_out)}


def ref_sec(s):
    allow = s.loc.allow_suffix_ambiguity
    loc = ref_basic(s.q, s.n, allow)
    return {"loc": loc, "check": ref_check([loc[0]], [loc[2]], s.q_out)}


def ref_sec_ded(s):
    allow = s.loc.allow_suffix_ambiguity
    if s.variant == "parity":
        loc = ref_basic(s.q, s.n - 1, allow)
        rows, moduli = [loc[0] + (0,), (1,) * s.n], [loc[2], 2]
    else:
        loc = ref_ded(s.q, s.n, allow)
        rows, moduli = [loc[0]], [loc[2]]
    return {"loc": loc, "check": ref_check(rows, moduli, s.q_out)}


def _dec_rows(s):
    allow = s.loc.allow_suffix_ambiguity
    loc = ref_basic(s.q, s.n1, allow)
    alpha, m, _ = loc
    rows = ref_checksum_rows(alpha, s.n1, [s.q**j for j in range(m)], s.n1 + m + 1)
    rows.append([0] * s.n1 + [1] * (m + 1))
    return loc, rows, allow


def ref_dec(s):
    loc, rows, allow = _dec_rows(s)
    ber, positions = ref_pair_code(loc[0], s.p, allow)
    return {"loc": loc, "check": ref_check(rows, (s.p, s.p, 2), s.q_out), "ber": ber,
            "ber_positions": positions}


def ref_dec_ted(s):
    allow = s.loc.allow_suffix_ambiguity
    if s.variant == "parity":
        loc, rows, _ = _dec_rows(s)
        rows = [row + [0] for row in rows] + [[1] * s.n]
        check = ref_check(rows, (s.p, s.p, 2, 2), s.q_out)
    else:
        loc = ref_ded(s.q, s.n1, allow)
        alpha, m, modulus = loc
        weights = _suffix_weights(s.q, m, modulus, s.n1)
        check = ref_check(ref_checksum_rows(alpha, s.n1, weights, s.n), (2 * s.p, 2 * s.p), s.q_out)
    ber, positions = ref_pair_code(loc[0], s.p, allow)
    return {"loc": loc, "check": check, "ber": ber, "ber_positions": positions}


def ref_recursive(s):
    loc = ref_basic(s.q, s.n, False)
    n, tau, q, m = s.n, s.tau, s.q, loc[1]
    checker = ref_lee(s.p, loc[0], tau, bound=s.q_out)
    out = {"loc": loc, "checker": checker}
    total = n + s.ntilde + s.rep * tau * s.mtilde
    zeros = [0] * total
    start = tau - s.plane_cols
    rows = []
    for v in range(tau):
        row = list(checker["power_cols"][v]) + zeros[n:]
        if v >= start:
            for j in range(m):
                row[n + j * s.plane_cols + v - start] = -(q**j)
        rows.append(row)
    moduli = [s.p] * tau
    if s.ntilde > 0:
        tail_checker = ref_lee(s.ptilde, tuple(range(1, s.ntilde + 1)), tau)
        out["tail_checker"] = tail_checker
        tail = n + s.ntilde
        for v in range(tau):
            row = zeros[:n] + list(tail_checker["power_cols"][v]) + zeros[tail:]
            for j in range(s.mtilde):
                row[tail + j * tau + v] = -(q**j)
            rows.append(row)
        moduli += [s.ptilde] * tau
    out["check"] = ref_check(rows, moduli, s.q_out)
    return out


def ref_hamming(s):
    inner = ref_rs(s.p, s.ntilde, s.k)
    k, block = s.k, s.ntilde - s.k
    weights = [s.q**j % s.p for j in range(s.m)]
    rows = [
        row[:k] + tuple(w * row[k + b] for w in weights for b in range(block))
        for row in inner["check"][0]
    ]
    return {"inner": inner, "check": ref_check(rows, inner["check"][1], s.p)}


def ref_large_alphabet(s):
    return {"code": ref_lee(s.p, tuple(range(1, s.n + 1)), s.tau, bound=s.q_out)}


REFERENCE = {
    api.ParityDetectScheme: ref_parity_detect,
    api.SingleErrorScheme: ref_sec,
    api.SecDedScheme: ref_sec_ded,
    api.DoubleErrorScheme: ref_dec,
    api.TripleDetectScheme: ref_dec_ted,
    api.RecursiveScheme: ref_recursive,
    api.HammingScheme: ref_hamming,
    api.LargeAlphabetScheme: ref_large_alphabet,
}

SCHEMES = {
    "parity-detect": lambda: api.ParityDetectScheme(3, 20, 1),
    "sec": lambda: api.SingleErrorScheme(2, 15, 1),
    "sec-kernel": lambda: api.SingleErrorScheme(2, 1023, 8),
    "sec-wide": lambda: api.SingleErrorScheme(300, 120, 8),
    "sec-ambiguous": lambda: api.SingleErrorScheme(2, 8, 1, allow_suffix_ambiguity=True),
    "sec-huge": lambda: api.SingleErrorScheme(HUGE_PRIME, 20, 2),
    "sec-ded-odd": lambda: api.SecDedScheme(3, 8, 1),
    "sec-ded-odd-kernel": lambda: api.SecDedScheme(3, 1023, 8),
    "sec-ded-odd-ambiguous": lambda: api.SecDedScheme(3, 13, 1, allow_suffix_ambiguity=True),
    "sec-ded-parity": lambda: api.SecDedScheme(2, 20, 8),
    "sec-ded-parity-kernel": lambda: api.SecDedScheme(2, 100, 1),
    "sec-ded-parity-odd-q": lambda: api.SecDedScheme(3, 40, 1, variant="parity"),
    "sec-ded-even": lambda: api.SecDedScheme(4, 20, 8),
    "sec-ded-even-kernel": lambda: api.SecDedScheme(4, 300, 1),
    "sec-ded-even-wide": lambda: api.SecDedScheme(260, 120, 8),
    "sec-ded-even-huge": lambda: api.SecDedScheme(HUGE_PRIME + 1, 20, 2),
    "dec": lambda: api.DoubleErrorScheme(2, 31, 8),
    "dec-kernel": lambda: api.DoubleErrorScheme(2, 1031, 8),
    "dec-wide": lambda: api.DoubleErrorScheme(300, 211, 1),
    "dec-ambiguous": lambda: api.DoubleErrorScheme(2, 17, 1, allow_suffix_ambiguity=True),
    "dec-ted-odd": lambda: api.TripleDetectScheme(3, 13, 1),
    "dec-ted-odd-kernel": lambda: api.TripleDetectScheme(3, 211, 8),
    # weights 1 + 81 = 2p
    "dec-ted-odd-ambiguous": lambda: api.TripleDetectScheme(
        3, 41, 1, allow_suffix_ambiguity=True),
    "dec-ted-parity": lambda: api.TripleDetectScheme(2, 31, 8),
    "dec-ted-parity-kernel": lambda: api.TripleDetectScheme(2, 211, 1),
    "dec-ted-even": lambda: api.TripleDetectScheme(4, 61, 8),
    "dec-ted-even-kernel": lambda: api.TripleDetectScheme(4, 1031, 8),
    "dec-ted-even-wide": lambda: api.TripleDetectScheme(258, 211, 1),
    "dec-ted-even-huge": lambda: api.TripleDetectScheme(HUGE_PRIME + 1, 31, 2),
    "recursive": lambda: api.RecursiveScheme(2, 1, 1, 13),
    "recursive-tau2": lambda: api.RecursiveScheme(2, 8, 2, 31),
    "recursive-trimmed": lambda: api.RecursiveScheme(2, 2, 2, 31, trimmed=True),
    "recursive-trimmed-tau1": lambda: api.RecursiveScheme(2, 2, 1, 31, trimmed=True),
    "recursive-one-plane": lambda: api.RecursiveScheme(300, 2, 2, 31, trimmed=True),
    "recursive-kernel": lambda: api.RecursiveScheme(2, 8, 2, 1031),
    "recursive-wide": lambda: api.RecursiveScheme(300, 8, 3, 211),
    "recursive-huge": lambda: api.RecursiveScheme(HUGE_PRIME, 2, 2, 31),
    "hamming": lambda: api.HammingScheme(2, 1, 4, 1),
    "hamming-sigma": lambda: api.HammingScheme(2, 3, 8, 2, sigma=1, rho_max=2),
    "hamming-kernel": lambda: api.HammingScheme(2, 8, 256, 2),
    "hamming-wide": lambda: api.HammingScheme(300, 8, 40, 2),
    "hamming-big-prime": lambda: api.HammingScheme(2**20, 1, 6, 1),  # p^2 past 2^63
    "hamming-huge-prime": lambda: api.HammingScheme(2**33, 1, 4, 1),  # p past 2^64
    "large-alphabet": lambda: api.LargeAlphabetScheme(257, 24, 3, 8),
    "large-alphabet-small": lambda: api.LargeAlphabetScheme(8, 3, 1, 1),
    "large-alphabet-kernel": lambda: api.LargeAlphabetScheme(1031, 250, 3, 8),
    "large-alphabet-big-prime": lambda: api.LargeAlphabetScheme(BIG_PRIME, 30, 3, 8),
    "large-alphabet-wide-prime": lambda: api.LargeAlphabetScheme(WIDE_PRIME, 30, 3, 8),
    "large-alphabet-huge-prime": lambda: api.LargeAlphabetScheme(HUGE_PRIME, 30, 3, 2),
    "shortened-sec": lambda: api.ShortenedScheme(api.SingleErrorScheme(2, 24, 1), 5),
    "shortened-sec-ded-parity": lambda: api.ShortenedScheme(api.SecDedScheme(2, 110, 8), 7),
    "shortened-dec-kernel": lambda: api.ShortenedScheme(api.DoubleErrorScheme(2, 211, 8), 10),
    "shortened-dec-ted-parity": lambda: api.ShortenedScheme(api.TripleDetectScheme(2, 31, 1), 3),
}


def _python_ints(value) -> bool:
    """Whether every number in nested tuples, lists and dicts is an int."""
    if isinstance(value, dict):
        return _python_ints(list(value.items()))
    if isinstance(value, (tuple, list)):
        return all(map(_python_ints, value))
    return type(value) is int


def _assert_check(check, expected):
    rows, moduli, vector, wide = expected
    assert check.rows == rows
    assert check.moduli == moduli
    assert check.vector == vector
    assert check._wide == wide
    assert _python_ints(check.rows) and _python_ints(check.moduli)


def _assert_lee(code, expected):
    assert code.beta == expected["beta"]
    assert code.power_cols == expected["power_cols"]
    assert code._index == expected["_index"]
    _assert_check(code.check, expected["check"])
    assert _python_ints(code.beta) and _python_ints(code.power_cols) and _python_ints(code._index)


def _assert_locators(loc, expected):
    alpha, m, modulus = expected
    assert (loc.alpha, loc.m, loc.modulus) == (alpha, m, modulus)
    assert loc._index == {v: j for j, v in enumerate(alpha)}
    assert _python_ints(loc.alpha) and _python_ints(loc._index)
    _assert_check(loc.prefix_check, ref_check([alpha[: loc.k]], [modulus], loc.q))


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_scheme_matches_the_reference(name):
    scheme = SCHEMES[name]()
    if isinstance(scheme, api.ShortenedScheme):
        scheme = scheme.base
    expected = REFERENCE[type(scheme)](scheme)
    if "check" in expected:  # the large-alphabet scheme reads with its code's
        _assert_check(scheme.check, expected["check"])
    if "loc" in expected:
        _assert_locators(scheme.loc, expected["loc"])
    for attr in ("ber", "checker", "tail_checker", "code"):
        if attr in expected:
            _assert_lee(getattr(scheme, attr), expected[attr])
    if "ber_positions" in expected:
        assert scheme.ber_positions == expected["ber_positions"]
        assert _python_ints(scheme.ber_positions)
    if "inner" in expected:
        inner = expected["inner"]
        assert scheme.inner.gamma == inner["gamma"]
        assert scheme.inner._position == inner["_position"]
        _assert_check(scheme.inner.check, inner["check"])
        assert _python_ints(scheme.inner._position)


def test_both_dtype_sides_are_covered():
    """The instances reach int64 arrays, Python-int powers under int64
    moduli, and Python ints throughout."""
    for name, powers, check in (("kernel", "int64", "int64"), ("big-prime", "int64", "int64"),
                                ("wide-prime", object, "int64"), ("huge-prime", object, object)):
        code = SCHEMES[f"large-alphabet-{name}"]().code
        assert (code._beta.dtype, code.check.array.dtype) == (powers, check), name
    assert SCHEMES["hamming-huge-prime"]().check.array.dtype == object


@pytest.mark.parametrize("builder", [build_locators_basic, build_locators_ded])
def test_locator_builders_match_the_reference(builder):
    """Vectors and refusals over q = 2..12, n = 2..160 and both settings of
    the opt-in; for build_locators_ded the mask against the candidate loop."""
    reference = ref_basic if builder is build_locators_basic else ref_ded
    outcomes = set()
    for q in range(1, 13):
        for n in range(2, 161):
            for allow in (False, True):
                expected = reference(q, n, allow)
                try:
                    loc = builder(q, n, allow)
                except ValueError as err:
                    assert str(err) == expected, (q, n, allow)
                    outcomes.add(str(err).split()[0])
                    continue
                _assert_locators(loc, expected)
                assert validate_locators(loc).ok
                outcomes.add(True)
    assert {True, "alphabet", "length", "digit"} <= outcomes


def test_ded_builder_at_scale():
    for q, n in ((4, 50_001), (3, 100_000), (7, 65_537)):
        _assert_locators(build_locators_ded(q, n), ref_ded(q, n, False))


PRIMES = (7, 11, 13, 31, 257, BIG_PRIME, WIDE_PRIME, HUGE_PRIME)


def _locator_lists(max_size):
    return st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(
        st.just(p),
        st.lists(st.one_of(
            st.integers(-2 * p, 3 * p),
            st.integers(1, 6),
            st.integers(p - 6, p - 1),
            st.integers(-(2**70), 2**70),
        ), min_size=1, max_size=max_size),
    ))


@SETTINGS
@given(_locator_lists(14), st.integers(1, 3))
def test_lee_code_refusals_match_the_reference(case, tau):
    """Random locator lists: the same refusal, the first negating pair
    named the same, or the same code."""
    p, beta = case
    tau = min(tau, len(beta), (p - 1) // 2)
    expected = ref_lee(p, beta, tau)
    try:
        code = api.BerlekampCode(api.PrimeField(p), beta, tau)
    except ValueError as err:
        assert str(err) == expected
        return
    _assert_lee(code, expected)


@SETTINGS
@given(st.sampled_from(PRIMES), st.lists(st.integers(1, 40), min_size=2, max_size=14))
def test_negating_pairs_are_named_in_order(p, values):
    """Lists built to hold negating pairs: the parent's first pair."""
    beta = [v if i % 3 else p - v for i, v in enumerate(values)]
    expected = ref_lee(p, beta, 1)
    try:
        code = api.BerlekampCode(api.PrimeField(p), beta, 1)
    except ValueError as err:
        assert str(err) == expected
        return
    _assert_lee(code, expected)


def test_unvalidated_lee_code_matches_the_reference():
    beta = (1, 2, 3, 5, 6, 3)  # 1 and 6 negate mod 7, 3 repeats
    code = api.BerlekampCode(api.PrimeField(7), beta, 2, validate=False)
    _assert_lee(code, ref_lee(7, beta, 2, validate=False))


def test_lee_code_refuses_non_integers():
    for beta in ((1, 2.0, 3), (1, True, 3)):
        with pytest.raises(ValueError, match="^locators must be integers$"):
            api.BerlekampCode(api.PrimeField(7), beta, 1)


@pytest.mark.parametrize("points", [
    None, (3, 1, 2, 5, 4, 6), (1, 2, 3, 4, 5, 5), (1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5),
    (1, 2, 3, 4, 5, 13), (1, 2, 3, 4, 5, -1), (1, 2, 3, 4, 5, 2**70), (1, 2, 3, 4, 5, 2.0),
    (1, 2, 3, 4, 5, True), (2**70, 2**70, 1, 2, 3, 4),
])
def test_reed_solomon_matches_the_reference(points):
    expected = ref_rs(13, 6, 2, points)
    try:
        code = api.ReedSolomonCode(api.PrimeField(13), 6, 2, points)
    except ValueError as err:
        assert str(err) == expected
        return
    assert code.gamma == expected["gamma"]
    assert code._position == expected["_position"]
    _assert_check(code.check, expected["check"])


@pytest.mark.parametrize("p", [BIG_PRIME, WIDE_PRIME, HUGE_PRIME])
def test_reed_solomon_past_the_int64_bound(p):
    points = (1, 5, p - 1, p // 2, 3, 2**20 + 7)
    code = api.ReedSolomonCode(api.PrimeField(p), 6, 3, points)
    expected = ref_rs(p, 6, 3, points)
    assert code.gamma == expected["gamma"]
    _assert_check(code.check, expected["check"])


def test_validation_of_edited_vectors_matches_the_reference():
    """Edited copies of built vectors: the same first violation (the
    pairwise scan in test_locators pins the same on more of them)."""
    rng = random.Random(5)
    for builder, q, n in ((build_locators_basic, 2, 100), (build_locators_ded, 4, 100),
                          (build_locators_ded, 3, 100)):
        loc = builder(q, n)
        for _ in range(300):
            alpha = list(loc.alpha)
            for _ in range(rng.randint(1, 3)):
                alpha[rng.randrange(n)] = rng.randrange(-2, loc.modulus + 2)
            edited = Locators(q, n, loc.m, loc.modulus, loc.suffix_kind, tuple(alpha))
            expected = ref_validate(n, loc.m, loc.modulus, alpha, False, loc.suffix_weights())
            assert validate_locators(edited).violation == expected


def test_validation_refuses_entries_that_are_not_ints():
    loc = build_locators_basic(2, 15)
    for bad in (3.0, True):
        alpha = (bad,) + loc.alpha[1:]
        edited = Locators(2, 15, loc.m, loc.modulus, loc.suffix_kind, alpha)
        assert validate_locators(edited).violation == f"entry {bad!r} at index 0 is not an integer"
