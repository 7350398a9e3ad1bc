import itertools

import pytest

from dpe_codec.core import QMatrix, ReadVector
from dpe_codec.double import DoubleErrorScheme
from dpe_codec.oracles import (
    PrefixDisagreementError,
    enumerate_induced_code,
    induced_min_distance,
    iter_l1_errors,
    nearest_prefix_decode,
    puncture,
    scan_errors_erasures,
)
from dpe_codec.single import ParityDetectScheme, SecDedScheme, SingleErrorScheme


def _codewords(scheme):
    return enumerate_induced_code(scheme.encode, scheme.ell, scheme.k, scheme.q)


class TestEnumeration:
    def test_tiny_parity_code(self):
        scheme = ParityDetectScheme(q=2, k=1, ell=1)
        words = _codewords(scheme)
        # 2 matrices x 2 inputs -> at most 4 products
        assert all(len(c) == 2 for c in words)
        assert all(sum(c) % 2 == 0 for c in words)

    def test_parity_code_even_sums(self):
        scheme = ParityDetectScheme(q=2, k=2, ell=2)
        for c in _codewords(scheme):
            assert sum(c) % 2 == 0

    def test_guard(self):
        scheme = SingleErrorScheme(q=2, n=15, ell=3)
        with pytest.raises(ValueError, match="guard"):
            enumerate_induced_code(scheme.encode, 3, scheme.k, 2)

    def test_support_scan_guard(self):
        from dpe_codec.basemath import PrimeField
        from dpe_codec.hamming import ReedSolomonCode

        rs = ReedSolomonCode(PrimeField(257), length=60, k=20)
        with pytest.raises(ValueError, match="guard"):
            scan_errors_erasures(rs, [0] * 60, [], 20)

    def test_guard_override_env(self, monkeypatch):
        from dpe_codec.oracles import guard_limit

        monkeypatch.delenv("DPE_CODEC_GUARD_OVERRIDE", raising=False)
        assert guard_limit(100) == 100
        monkeypatch.setenv("DPE_CODEC_GUARD_OVERRIDE", "5000")
        assert guard_limit(100) == 5000
        assert guard_limit(10**6) == 10**6  # the override never lowers a guard
        monkeypatch.setenv("DPE_CODEC_GUARD_OVERRIDE", "junk")
        with pytest.raises(ValueError, match="DPE_CODEC_GUARD_OVERRIDE"):
            guard_limit(1)


class TestMinDistance:
    def test_parity_detects_one(self):
        scheme = ParityDetectScheme(q=2, k=2, ell=2)
        assert induced_min_distance(_codewords(scheme), k=2) >= 2

    def test_single_error_scheme_distance_3(self):
        scheme = SingleErrorScheme(q=2, n=6, ell=2)
        assert scheme.k == 2
        assert induced_min_distance(_codewords(scheme), k=2) >= 3

    def test_ded_distance_4(self):
        scheme = SecDedScheme(q=2, n=7, ell=2, variant="parity")
        assert scheme.k == 2
        assert induced_min_distance(_codewords(scheme), k=scheme.k) >= 4

    def test_ded_oddq_distance_4(self):
        scheme = SecDedScheme(q=3, n=5, ell=2, variant="odd_q")
        assert scheme.k == 2
        assert induced_min_distance(_codewords(scheme), k=scheme.k) >= 4

    def test_double_scheme_distance_5(self):
        scheme = DoubleErrorScheme(q=2, p=11, ell=2)
        assert scheme.k == 1
        assert induced_min_distance(_codewords(scheme), k=1) >= 5

    def test_triple_detect_distance_6(self):
        from dpe_codec.double import TripleDetectScheme

        scheme = TripleDetectScheme(q=2, p=11, ell=2)
        assert scheme.k == 1
        assert induced_min_distance(_codewords(scheme), k=1) >= 6

    def test_single_prefix_undefined(self):
        words = [(0, 0), (0, 1)]  # same 1-prefix
        assert induced_min_distance(words, k=1) is None


class TestNearestPrefixDecode:
    def test_exact_codeword(self):
        scheme = SingleErrorScheme(q=2, n=6, ell=2)
        words = _codewords(scheme)
        for c in words[:10]:
            assert nearest_prefix_decode(c, words, k=2, tau=1).prefix == c[:2]

    def test_within_radius(self):
        scheme = SingleErrorScheme(q=2, n=6, ell=2)
        words = _codewords(scheme)
        c = words[3]
        y = list(c)
        y[0] += 1
        outcome = nearest_prefix_decode(y, words, k=2, tau=1)
        assert outcome.prefix == c[:2]

    def test_correction_and_detection_conditions(self):
        # distance audit implies the decoder contract: check it exhaustively
        scheme = SingleErrorScheme(q=2, n=6, ell=2)
        words = _codewords(scheme)
        d = induced_min_distance(words, k=2)
        tau = (d - 1) // 2
        for c in words:
            for e in iter_l1_errors(6, tau, include_zero=True):
                y = [v + w for v, w in zip(c, e)]
                assert nearest_prefix_decode(y, words, k=2, tau=tau).prefix == c[:2]

    def test_detection_condition_with_sigma(self):
        scheme = SecDedScheme(q=2, n=7, ell=2, variant="parity")
        words = _codewords(scheme)
        d = induced_min_distance(words, k=scheme.k)
        assert d >= 4
        tau, sigma = 1, d - 1 - 2  # 2*tau + sigma < d
        for c in words[:12]:
            for e in iter_l1_errors(7, tau + sigma):
                y = [v + w for v, w in zip(c, e)]
                outcome = nearest_prefix_decode(y, words, k=scheme.k, tau=tau)
                assert outcome.failed or outcome.prefix == c[: scheme.k]

    def test_disagreement_raises(self):
        words = [(0, 0, 0), (1, 0, 0)]  # distance 1, distinct prefixes
        with pytest.raises(PrefixDisagreementError):
            nearest_prefix_decode((0, 0, 0), words, k=1, tau=1)


class TestProductionDecodersAgreeWithOracle:
    def test_single_error_scheme(self):
        scheme = SingleErrorScheme(q=2, n=6, ell=2)
        words = _codewords(scheme)
        for c in words:
            for e in iter_l1_errors(6, 1, include_zero=True):
                y = [v + w for v, w in zip(c, e)]
                if not all(0 <= v < scheme.q_out for v in y):
                    continue
                oracle = nearest_prefix_decode(y, words, k=scheme.k, tau=1)
                production = scheme.decode(ReadVector.exact(y))
                assert production.prefix == oracle.prefix

    def test_double_scheme(self):
        scheme = DoubleErrorScheme(q=2, p=11, ell=2)
        words = _codewords(scheme)
        for c in words:
            for e in iter_l1_errors(scheme.n, 2, include_zero=True):
                y = [v + w for v, w in zip(c, e)]
                if not all(0 <= v < scheme.q_out for v in y):
                    continue
                oracle = nearest_prefix_decode(y, words, k=scheme.k, tau=2)
                production = scheme.decode(ReadVector.exact(y))
                assert production.prefix == oracle.prefix


class TestPuncture:
    def test_erasure_resilience_audit(self):
        # deleting rho coordinates costs at most rho in Hamming distance
        scheme = SecDedScheme(q=2, n=7, ell=2, variant="parity")
        words = _codewords(scheme)
        d = induced_min_distance(words, k=scheme.k, metric="hamming")
        for positions in itertools.combinations(range(7), 1):
            shortened = puncture(words, positions)
            d_after = induced_min_distance(shortened, k=scheme.k, metric="hamming")
            assert d_after >= d - 1
