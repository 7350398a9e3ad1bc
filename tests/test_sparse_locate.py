"""The sparse locate contract: every locate step returns its errors as
`(position, value)` hits (each value nonzero, each position once; () for a
zero syndrome, None on failure), and no dirty read of any scheme goes
through a length-n error vector."""

import itertools
import random
import sys

import pytest

import dpe_codec as api
from dpe_codec import core
from dpe_codec.basemath import PrimeField
from dpe_codec.berlekamp import BerlekampCode, locate_key_equation
from dpe_codec.core import QMatrix, ReadVector
from dpe_codec.hamming import ReedSolomonCode
from dpe_codec.oracles import LinearInnerCode

# the codes of test_berlekamp.py's TestEverySyndrome
SMALL_CODES = [(13, range(1, 7)), (23, range(1, 12)), (31, range(1, 16))]


def assert_hits(hits):
    """`hits` are None or `(position, value)` pairs, each position once and
    each value nonzero."""
    if hits is None:
        return
    positions = [j for j, _ in hits]
    assert len(set(positions)) == len(positions)
    assert all(e for _, e in hits)


class TestLeeCores:
    @pytest.mark.parametrize("p,beta", SMALL_CODES)
    def test_every_syndrome_of_the_small_codes(self, p, beta):
        field = PrimeField(p)
        code = BerlekampCode(field, tuple(beta), tau=3)
        for syn in itertools.product(range(p), repeat=3):
            assert_hits(locate_key_equation(code, syn))
        pair = BerlekampCode(field, tuple(beta), tau=2)
        for syn in itertools.product(range(p), repeat=2):
            assert_hits(locate_key_equation(pair, syn))
        single = BerlekampCode(field, tuple(beta), tau=1)
        for s in range(p):
            assert_hits(locate_key_equation(single, (s,)))

    @pytest.mark.parametrize("tau", [1, 2, 3, 6])
    def test_random_syndromes_at_p_1031(self, tau):
        # for tau >= 2 most random syndromes lie beyond the budget: None
        code = BerlekampCode(PrimeField(1031), tuple(range(1, 516)), tau)
        rng = random.Random(tau)
        found = 0
        for trial in range(600):
            if trial % 2:
                syn = [rng.randrange(1031) for _ in range(tau)]
            else:  # an error within the budget
                error = [0] * code.n
                for j in rng.sample(range(code.n), rng.randint(1, tau)):
                    error[j] = rng.choice([-1, 1])
                syn = code.syndrome([e % 1031 for e in error])
            hits = locate_key_equation(code, syn)
            assert_hits(hits)
            found += hits is not None
        assert found >= 300

    def test_zero_syndrome_gives_no_hits(self):
        field = PrimeField(31)
        for tau in (1, 2, 3):
            code = BerlekampCode(field, tuple(range(1, 16)), tau)
            assert locate_key_equation(code, (0,) * tau) == ()

    def test_refusals_name_the_component_count(self):
        code = BerlekampCode(PrimeField(23), tuple(range(1, 12)), tau=3)
        for syn in ((1,), (1, 2, 3, 4)):
            with pytest.raises(ValueError, match=f"need 3 syndrome components, got {len(syn)}"):
                locate_key_equation(code, syn)


class TestInnerCores:
    @pytest.mark.parametrize("p,length,k", [(7, 6, 1), (7, 6, 2), (11, 8, 3)])
    def test_syndromes_with_erasures(self, p, length, k):
        rs = ReedSolomonCode(PrimeField(p), length=length, k=k)
        generic = LinearInnerCode(PrimeField(p), rs.check.rows, distance=rs.d)
        rng = random.Random(p * length + k)
        for trial in range(150):
            erased = rng.sample(range(length), rng.randrange(rs.d + 1))
            radius = rng.randrange(rs.d)
            if trial % 3:
                syn = [rng.randrange(p) for _ in range(rs.d - 1)]
            else:  # a word with erased zeros and a few errors
                error = [0] * length
                for j in rng.sample(range(length), rng.randrange(1, rs.d)):
                    error[j] = rng.randrange(1, p)
                syn = rs.syndromes(error)
            for code in (rs, generic):
                assert_hits(code.locate_syndromes(syn, erased, radius))

    def test_an_erased_zero_is_no_hit(self):
        # the erased symbol holds its true value 0: no error there
        rs = ReedSolomonCode(PrimeField(7), length=6, k=1)
        cw = rs.encode([0])
        assert cw == [0] * 6
        y = list(cw)
        y[3] = 5
        syn = rs.syndromes(y)
        for code in (rs, LinearInnerCode(PrimeField(7), rs.check.rows, distance=rs.d)):
            assert code.locate_syndromes(syn, [0], 2) == ((3, 5),)


# (name, build, tau, theta, erasures): one or more instances per scheme
SCHEMES = [
    ("sec", lambda: api.SingleErrorScheme(2, 15, 2), 1, 1, 0),
    ("sec-ded", lambda: api.SecDedScheme(3, 8, 2), 1, 1, 0),
    ("dec", lambda: api.DoubleErrorScheme(2, 31, 2), 2, 1, 0),
    ("dec-ted", lambda: api.TripleDetectScheme(3, 13, 2), 2, 1, 0),
    ("dec-ted-parity", lambda: api.TripleDetectScheme(2, 31, 2), 2, 1, 0),
    ("recursive", lambda: api.RecursiveScheme(2, 2, 2, 31), 2, 1, 0),
    ("recursive-tau3", lambda: api.RecursiveScheme(2, 2, 3, 31), 3, 1, 0),
    ("hamming", lambda: api.HammingScheme(2, 2, 8, 2), 2, 2, 0),
    ("hamming-erasures", lambda: api.HammingScheme(2, 2, 6, 1, theta=2, rho_max=1), 1, 2, 1),
    ("hamming-k1-p7", lambda: api.HammingScheme(2, 2, 1, 1, theta=1, p=7), 1, 1, 0),
    ("large-alphabet", lambda: api.LargeAlphabetScheme(8, 3, 1, 2), 1, 1, 0),
    ("large-alphabet-tau2", lambda: api.LargeAlphabetScheme(31, 12, 2, 2), 2, 1, 0),
    ("large-alphabet-tau3", lambda: api.LargeAlphabetScheme(31, 12, 3, 2), 3, 1, 0),
]

DENSE = ("decode_double_error", "error_vector")


def refuse_dense(monkeypatch):
    """Make every dense decoder and `core.error_vector` raise, wherever
    the package binds them."""
    def refuse(*args, **kwargs):
        raise AssertionError("a dirty read went through a dense error vector")

    modules = [m for key, m in sys.modules.items() if key == "dpe_codec" or key.startswith("dpe_codec.")]
    for name in DENSE:
        original = getattr(core if name == "error_vector" else api, name)
        for module in modules:
            if module.__dict__.get(name) is original:
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(ReedSolomonCode, "decode_errors_erasures", refuse)


def _dirty(rng, clean, weight, theta, q_out):
    """`clean` with `weight` errors of magnitude <= theta at distinct
    positions, each kept inside the read alphabet."""
    y = list(clean)
    for j in rng.sample(range(len(y)), weight):
        e = rng.randint(1, theta)
        moves = [v for v in (y[j] + e, y[j] - e) if 0 <= v < q_out]
        y[j] = rng.choice(moves or [y[j] + 1 if y[j] + 1 < q_out else y[j] - 1])
    return y


@pytest.mark.parametrize("kernel", [False, True], ids=["python", "kernel"])
@pytest.mark.parametrize("name,build,tau,theta,erasures", SCHEMES, ids=[s[0] for s in SCHEMES])
def test_dirty_reads_never_build_a_dense_vector(monkeypatch, kernel, name, build, tau, theta,
                                                 erasures):
    refuse_dense(monkeypatch)
    monkeypatch.setattr(core, "KERNEL_MIN_LENGTH", 1 if kernel else 10**9)
    scheme = build()
    assert scheme.vector == kernel
    rng = random.Random(name)
    rows = [[rng.randrange(scheme.q) for _ in range(scheme.k)] for _ in range(scheme.ell)]
    if getattr(scheme, "trimmed", False):
        rows = [[0] * scheme.k for _ in rows]
    encoded = scheme.encode(QMatrix.from_lists(scheme.q, rows))
    for trial in range(30):
        u = [rng.randrange(scheme.q) for _ in range(scheme.ell)]
        clean = api.compute_clean(u, encoded)
        for weight in range(1, tau + 1):
            y = _dirty(rng, clean, weight, theta, scheme.q_out)
            assert scheme.decode(ReadVector.exact(y)).prefix == tuple(clean[: scheme.k])
        if erasures:
            y = _dirty(rng, clean, tau, theta, scheme.q_out)
            read = ReadVector.with_erasures(y, rng.sample(range(scheme.n), erasures))
            assert scheme.decode(read).prefix == tuple(clean[: scheme.k])
