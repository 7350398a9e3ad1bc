"""The weight-3 read-offs: no erasure-free read of a Lee code with tau <= 3,
or of a Reed-Solomon code at radius <= 3, solves a key equation.

With `solve_key_equation` made to raise in every module that binds it,
every error of Lee weight <= 3 of a tau = 3 Lee code at p = 31, and every
error of Hamming weight <= 3 of the d = 7 Reed-Solomon code over GF(11),
is located exactly, and reads with exactly tau errors of the production
schemes that decode through either code still decode.  The same patch
trips on a weight-4 error of a tau = 4 Lee code and on a Reed-Solomon read
with one erasure: those reads still solve the key equation.  The Lee
read-offs check no syndrome component: with `CheckMatrix.less` made to
raise, every error of Lee weight <= 3 of the tau = 3 code still locates
exactly, while the weight-4 error of the tau = 4 code still reaches it."""

import itertools
import random
import sys

import pytest

import dpe_codec as api
from dpe_codec import berlekamp, hamming
from dpe_codec.basemath import PrimeField
from dpe_codec.berlekamp import BerlekampCode, locate_key_equation
from dpe_codec.core import CheckMatrix, QMatrix, ReadVector
from dpe_codec.hamming import ReedSolomonCode

LEE = BerlekampCode(PrimeField(31), tuple(range(1, 16)), 3)
RS = ReedSolomonCode(PrimeField(11), length=10, k=4)


@pytest.fixture
def refused(monkeypatch):
    """Make `solve_key_equation` raise in every module that binds it."""

    def refuse(*args, **kwargs):
        raise AssertionError("the read solved a key equation")

    bound = [m for key, m in sys.modules.items()
             if key.startswith("dpe_codec.") and "solve_key_equation" in m.__dict__]
    assert {berlekamp, hamming} <= set(bound)
    for module in bound:
        monkeypatch.setattr(module, "solve_key_equation", refuse)


def _lee_errors(n, weight):
    """Every error of Lee weight 1 .. `weight` over n positions, as sorted
    (position, signed value) hits."""
    for t in range(1, weight + 1):
        for support in itertools.combinations(range(n), t):
            for mags in itertools.product(range(1, weight + 1), repeat=t):
                if sum(mags) <= weight:
                    for signs in itertools.product((1, -1), repeat=t):
                        yield tuple((j, s * m) for j, s, m in zip(support, signs, mags))


def _lee_syndrome(code, hits):
    p = code.field.p
    return [sum(e * pow(code.beta[j], 2 * v + 1, p) for j, e in hits) % p
            for v in range(code.tau)]


RS_POWERS = [[pow(g, v + 1, 11) for v in range(RS.d - 1)] for g in RS.gamma]


def _rs_syndrome(hits):
    return [sum(e * RS_POWERS[j][v] for j, e in hits) % 11 for v in range(RS.d - 1)]


def test_every_lee_error_within_three_is_read_off(refused):
    count = 0
    for hits in _lee_errors(LEE.n, 3):
        assert tuple(sorted(locate_key_equation(LEE, _lee_syndrome(LEE, hits)))) == hits
        count += 1
    assert count == 30 + (105 * 4 + 15 * 2) + (455 * 8 + 210 * 4 + 15 * 2)


@pytest.fixture
def unchecked(monkeypatch):
    """Make `CheckMatrix.less`, the check of syndrome components against
    hits, raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("the locate step checked a syndrome component")

    monkeypatch.setattr(CheckMatrix, "less", refuse)


def test_lee_read_offs_check_no_component(unchecked):
    # a read-off locator's points meet S_1, S_3 and S_5 by construction
    for hits in _lee_errors(LEE.n, 3):
        assert tuple(sorted(locate_key_equation(LEE, _lee_syndrome(LEE, hits)))) == hits


def test_a_weight_four_lee_error_still_checks_its_components(unchecked):
    code = BerlekampCode(PrimeField(31), tuple(range(1, 16)), 4)
    with pytest.raises(AssertionError, match="checked a syndrome component"):
        locate_key_equation(code, _lee_syndrome(code, ((0, 1), (3, -1), (7, 1), (12, 1))))


def test_every_rs_error_within_three_is_read_off(refused):
    for t in range(1, 4):
        for support in itertools.combinations(range(RS.length), t):
            for values in itertools.product(range(1, 11), repeat=t):
                hits = tuple(zip(support, values))
                assert tuple(sorted(RS.locate_syndromes(_rs_syndrome(hits), (), 3))) == hits


def test_a_weight_four_lee_error_still_solves_the_key_equation(refused):
    code = BerlekampCode(PrimeField(31), tuple(range(1, 16)), 4)
    with pytest.raises(AssertionError, match="key equation"):
        locate_key_equation(code, _lee_syndrome(code, ((0, 1), (3, -1), (7, 1), (12, 1))))


def test_an_rs_read_with_an_erasure_still_solves_the_key_equation(refused):
    syn = _rs_syndrome(((2, 5), (6, 3)))
    with pytest.raises(AssertionError, match="key equation"):
        RS.locate_syndromes(syn, [2], 3)


def _exact_tau_reads(scheme, columns, lee, seed, count=20):
    """(read, clean prefix) pairs, each read with exactly tau errors inside
    the alphabet: Lee weight tau over distinct columns (a part of 2 or 3
    puts a repeated point in the locator), or tau distinct columns moved
    to another symbol."""
    rng = random.Random(seed)
    rows = [[rng.randrange(scheme.q) for _ in range(scheme.k)] for _ in range(scheme.ell)]
    encoded = scheme.encode(QMatrix.from_lists(scheme.q, rows))
    top = scheme.q_out - 1
    for i in range(count):
        clean = api.compute_clean([rng.randrange(scheme.q) for _ in range(scheme.ell)], encoded)
        y = list(clean)
        parts = [(1, 1, 1), (2, 1), (3,)][i % 3] if lee else (1,) * scheme.tau
        for j, part in zip(rng.sample(columns, len(parts)), parts):
            if lee:  # the drift turned around where it would leave [0, q_out)
                drift = rng.choice((part, -part))
                y[j] += drift if 0 <= y[j] + drift <= top else -drift
            else:
                y[j] = (y[j] + rng.randint(1, top)) % (top + 1)
        yield ReadVector.exact(y), tuple(clean[: scheme.k])


@pytest.mark.parametrize("name,build,lee", [
    ("large-alphabet", lambda: api.LargeAlphabetScheme(1031, 250, 3, 8), True),
    ("recursive", lambda: api.RecursiveScheme(2, 8, 3, 1031), True),
    ("hamming", lambda: api.HammingScheme(2, 8, 256, 3), False),
])
def test_tau_error_reads_of_production_schemes_decode(refused, name, build, lee):
    scheme = build()
    columns = list(range(getattr(scheme, "total_length", scheme.n)))
    for read, prefix in _exact_tau_reads(scheme, columns, lee, name):
        assert scheme.decode(read).prefix == prefix
