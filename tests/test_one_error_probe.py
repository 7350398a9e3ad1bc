"""The few-error probes: a syndrome that is exactly a few errors' is read
off before the key equation, in `berlekamp.locate_key_equation` (an error
of Lee weight <= 2) and in `ReedSolomonCode.locate_syndromes` (one error of
any value, no erasures).  At production sizes every one-error syndrome
returns exactly that hit; a near miss (a later component changed) returns
None or hits that reproduce it within the budget; and no read with one
or two errors of a scheme that decodes through either function solves a
key equation or scans for roots."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpe_codec as api
from dpe_codec import berlekamp, gfpoly, hamming
from dpe_codec.basemath import PrimeField
from dpe_codec.berlekamp import BerlekampCode, locate_key_equation
from dpe_codec.core import QMatrix, ReadVector

P = 1031
LEE_CODES = {tau: BerlekampCode(PrimeField(P), tuple(range(1, 516)), tau) for tau in (1, 2, 3, 6)}
# the inner code of HammingScheme(2, 8, 256, 3), and of the same scheme
# with an erasure budget
INNER = {rho: api.HammingScheme(2, 8, 256, 3, rho_max=rho).inner for rho in (0, 2)}


def _lee_unit(code, j, sign):
    beta = code.beta[j]
    return [sign * pow(beta, 2 * v + 1, P) % P for v in range(code.tau)]


def _rs_one(rs, j, e):
    p, gamma = rs.field.p, rs.gamma[j]
    return [e * pow(gamma, v + 1, p) % p for v in range(rs.d - 1)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(LEE_CODES)), st.integers(0, 514), st.sampled_from((1, -1)))
def test_lee_unit_error_is_read_off_exactly(tau, j, sign):
    code = LEE_CODES[tau]
    assert locate_key_equation(code, _lee_unit(code, j, sign)) == ((j, sign),)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((3, 6)), st.integers(0, 514), st.sampled_from((1, -1)), st.data())
def test_lee_near_miss_is_refused_or_reproduced(tau, j, sign, data):
    # S_1 and S_3 of a unit error, a later component changed
    code = LEE_CODES[tau]
    syn = _lee_unit(code, j, sign)
    v = data.draw(st.integers(2, tau - 1))
    syn[v] = (syn[v] + data.draw(st.integers(1, P - 1))) % P
    hits = locate_key_equation(code, syn)
    assert hits != ((j, sign),)
    if hits is not None:
        assert sum(abs(e) for _, e in hits) <= tau and not any(code.check.less(syn, hits))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(INNER)), st.integers(0, 260), st.integers(1, 262), st.data())
def test_rs_one_error_is_read_off_exactly(rho, j, e, data):
    rs = INNER[rho]
    syn = _rs_one(rs, j, e)
    for radius in (1, 2, 3):
        assert rs.locate_syndromes(syn, (), radius) == ((j, e),)
    if rho:  # the erasures take the key-equation path, to the same hit
        erased = data.draw(st.lists(st.integers(0, rs.length - 1), max_size=rho, unique=True))
        assert rs.locate_syndromes(syn, erased, 3) == ((j, e),)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(INNER)), st.integers(0, 260), st.integers(1, 262), st.data())
def test_rs_near_miss_is_refused_or_reproduced(rho, j, e, data):
    # S_0, S_1, S_2 geometric, a later syndrome changed
    rs = INNER[rho]
    p = rs.field.p
    syn = _rs_one(rs, j, e)
    v = data.draw(st.integers(3, rs.d - 2))
    syn[v] = (syn[v] + data.draw(st.integers(1, p - 1))) % p
    for radius in (1, 2, 3):
        hits = rs.locate_syndromes(syn, (), radius)
        assert hits != ((j, e),)
        if hits is not None:
            assert len(hits) <= radius and not any(rs.check.less(syn, hits))


def test_syndromes_are_the_ones_the_codes_compute():
    # the hand-made syndromes above are the codes' own
    code = LEE_CODES[6]
    error = [0] * code.n
    error[7] = -1
    assert list(code.syndrome([x % P for x in error])) == _lee_unit(code, 7, -1)
    rs = INNER[2]
    word = [0] * rs.length
    word[200] = 5
    assert list(rs.syndromes(word)) == _rs_one(rs, 200, 5)


# -- no read with few errors solves a key equation -------------------------


def refuse_key_equation(monkeypatch):
    """Make `solve_key_equation` raise in every module that binds it, and
    the root scan `scan_pairs` in `gfpoly`, whose `locator_points` is the
    one caller."""
    for name, owners in (("solve_key_equation", {berlekamp, hamming}), ("scan_pairs", {gfpoly})):
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"a read with few errors called {name}")

        bound = [m for key, m in sys.modules.items()
                 if key.startswith("dpe_codec.") and name in m.__dict__]
        assert owners <= set(bound)
        for module in bound:
            monkeypatch.setattr(module, name, refuse)


def _few_error_reads(scheme, columns, theta, errors, seed, count=30):
    """(read, clean prefix) pairs, each read with `errors` errors of
    magnitude <= theta at distinct columns drawn from `columns`, kept inside
    the alphabet."""
    rng = random.Random(seed)
    rows = [[rng.randrange(scheme.q) for _ in range(scheme.k)] for _ in range(scheme.ell)]
    encoded = scheme.encode(QMatrix.from_lists(scheme.q, rows))
    for _ in range(count):
        clean = api.compute_clean([rng.randrange(scheme.q) for _ in range(scheme.ell)], encoded)
        y = list(clean)
        for j in rng.sample(columns, errors):
            up, down = scheme.q_out - 1 - y[j], y[j]
            sign = rng.choice([s for s, room in ((1, up), (-1, down)) if room])
            y[j] += sign * rng.randint(1, min(theta, up if sign > 0 else down))
        yield ReadVector.exact(y), tuple(clean[: scheme.k])


def _recursive():
    return api.RecursiveScheme(2, 8, 3, P)


# (name, scheme, columns, theta, error counts).  The Lee codes read an
# error of weight <= 2 off S_1 and S_3; two Reed-Solomon errors in the
# hamming inner code solve their Hankel system for a quadratic locator,
# whose points are its roots.
CASES = [
    ("large-alphabet", lambda: api.LargeAlphabetScheme(P, 250, 3, 8), lambda s: range(s.n), 1,
     (1, 2)),
    ("recursive-head", _recursive, lambda s: range(s.n), 1, (1, 2)),
    ("recursive-plane", _recursive, lambda s: range(s.n, s.n + s.ntilde), 1, (1, 2)),
    ("recursive-tau2", lambda: api.RecursiveScheme(2, 8, 2, P), lambda s: range(s.n + s.ntilde),
     1, (1, 2)),
    ("dec", lambda: api.DoubleErrorScheme(2, P, 8), lambda s: range(s.n), 1, (1, 2)),
    ("dec-ted", lambda: api.TripleDetectScheme(4, P, 8), lambda s: range(s.n), 1, (1, 2)),
    ("hamming", lambda: api.HammingScheme(2, 8, 256, 2), lambda s: range(s.n), 8, (1, 2)),
]
READS = [(*case[:4], errors) for case in CASES for errors in case[4]]


@pytest.mark.parametrize("name,build,columns,theta,errors", READS,
                         ids=[f"{r[0]}-{r[4]}" for r in READS])
def test_one_error_reads_skip_the_key_equation(monkeypatch, name, build, columns, theta, errors):
    scheme = build()
    refuse_key_equation(monkeypatch)
    reads = _few_error_reads(scheme, list(columns(scheme)), theta, errors, f"{name}-{errors}")
    for read, prefix in reads:
        assert scheme.decode(read).prefix == prefix
    if name.startswith("dec"):  # the pair code reads its errors off with no check or scan
        assert "check" not in scheme.ber.__dict__
        assert scheme.ber._pairs.cache_info().currsize == 0
