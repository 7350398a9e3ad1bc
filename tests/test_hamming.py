import itertools
import random

import numpy as np
import pytest

from dpe_codec import core, hamming
from dpe_codec.basemath import PrimeField, hamming_dist
from dpe_codec.core import QMatrix, ReadVector, error_vector
from dpe_codec.hamming import HammingScheme, ReedSolomonCode, smallest_inner_prime
from dpe_codec.oracles import LinearInnerCode, scan_errors_erasures


def _product(u, matrix):
    return [sum(u[i] * matrix.rows[i][j] for i in range(len(u))) for j in range(matrix.ncols)]


class TestReedSolomon:
    def test_encode_systematic_and_zero_syndromes(self):
        rs = ReedSolomonCode(PrimeField(7), length=6, k=1)
        for msg in range(7):
            cw = rs.encode([msg])
            assert cw[0] == msg
            assert rs.syndromes(cw) == [0] * 5

    def test_mds_distance_by_enumeration(self):
        # ntilde <= 6, p <= 7 instances, full codebook scan
        for p, length, k in [(7, 6, 1), (7, 5, 2), (5, 4, 2)]:
            rs = ReedSolomonCode(PrimeField(p), length=length, k=k)
            words = [rs.encode(list(msg)) for msg in itertools.product(range(p), repeat=k)]
            best = min(
                hamming_dist(a, b) for a in words for b in words if a != b
            )
            assert best == rs.d == length - k + 1

    def test_length_bound(self):
        with pytest.raises(ValueError, match="points"):
            ReedSolomonCode(PrimeField(5), length=5, k=1)

    @pytest.mark.parametrize("points", [(1.0, 2, 3), (True, 2, 3), (1, 2, np.int64(3))])
    def test_points_must_be_integers(self, points):
        # a bool would be taken as 1, and a float once escaped as a TypeError
        with pytest.raises(ValueError, match="points must be integers"):
            ReedSolomonCode(PrimeField(7), length=3, k=1, points=points)

    @pytest.mark.parametrize("bad", [1.5, True, np.int64(1), "1", None])
    def test_encoders_refuse_a_symbol_that_is_not_an_int(self, bad):
        rs = ReedSolomonCode(PrimeField(7), length=4, k=2)
        generic = LinearInnerCode(PrimeField(7), rs.check.rows, distance=rs.d)
        for code in (rs, generic):
            with pytest.raises(ValueError, match="is not an integer"):
                code.encode([2, bad])
            with pytest.raises(ValueError, match="message length 1 != 2"):
                code.encode([2])

    def test_decode_errors_only(self):
        rs = ReedSolomonCode(PrimeField(11), length=8, k=4)  # d = 5, tau = 2
        rng = random.Random(0)
        for _ in range(40):
            msg = [rng.randrange(11) for _ in range(4)]
            cw = rs.encode(msg)
            positions = rng.sample(range(8), 2)
            y = list(cw)
            for pos in positions:
                y[pos] = (y[pos] + rng.randrange(1, 11)) % 11
            err = rs.decode_errors_erasures(y, [], 2)
            assert err is not None
            assert [(v - e) % 11 for v, e in zip(y, err)] == cw

    def test_decode_errors_and_erasures(self):
        rs = ReedSolomonCode(PrimeField(11), length=8, k=3)  # d = 6
        rng = random.Random(1)
        for _ in range(40):
            msg = [rng.randrange(11) for _ in range(3)]
            cw = rs.encode(msg)
            erased = rng.sample(range(8), 1)
            y = list(cw)
            y[erased[0]] = 0
            free = [j for j in range(8) if j not in erased]
            for pos in rng.sample(free, 2):
                y[pos] = (y[pos] + rng.randrange(1, 11)) % 11
            err = rs.decode_errors_erasures(y, erased, 2)
            assert err is not None
            assert [(v - e) % 11 for v, e in zip(y, err)] == cw

    def test_decode_flags_overweight(self):
        rs = ReedSolomonCode(PrimeField(11), length=8, k=4)  # tau = 2
        cw = rs.encode([1, 2, 3, 4])
        y = list(cw)
        for pos in (0, 2, 5):
            y[pos] = (y[pos] + 1) % 11
        err = rs.decode_errors_erasures(y, [], 2)
        # three errors on a distance-5 code: either flagged or a different
        # codeword within radius 2; never silently the sent one
        if err is not None:
            assert [(v - e) % 11 for v, e in zip(y, err)] != cw


    @pytest.mark.parametrize(
        "p,length,k", [(7, 6, 1), (7, 5, 2), (11, 8, 4), (11, 8, 3), (13, 12, 5), (17, 10, 2)]
    )
    def test_matches_support_scan_oracle(self, p, length, k):
        # codewords with errors, and random words (mostly beyond the radius),
        # under random erasures and radii
        rs = ReedSolomonCode(PrimeField(p), length=length, k=k)
        rng = random.Random(p * length + k)
        for trial in range(150):
            erased = rng.sample(range(length), rng.randrange(rs.d))
            radius = rng.randrange(rs.d)
            if trial % 2:
                y = [rng.randrange(p) for _ in range(length)]
            else:
                y = rs.encode([rng.randrange(p) for _ in range(k)])
                free = [j for j in range(length) if j not in erased]
                count = min(len(free), rng.randrange((rs.d - 1 - len(erased)) // 2 + 2))
                for pos in rng.sample(free, count):
                    y[pos] = (y[pos] + rng.randrange(1, p)) % p
            expect = scan_errors_erasures(rs, y, erased, radius)
            assert rs.decode_errors_erasures(y, erased, radius) == expect

    def test_full_erasure_budget(self):
        rs = ReedSolomonCode(PrimeField(11), length=8, k=3)
        cw = rs.encode([4, 0, 9])
        erased = [0, 2, 4, 6, 7]  # d - 1 erasures, no room for errors
        y = [0 if j in erased else v for j, v in enumerate(cw)]
        err = rs.decode_errors_erasures(y, erased, 2)
        assert [(v - e) % 11 for v, e in zip(y, err)] == cw
        assert rs.decode_errors_erasures(y, erased + [1], 2) is None

    @pytest.mark.parametrize("g", range(1, 7))
    def test_errors_at_a_point_and_its_negation(self, g):
        # gamma and 13 - gamma are both roots of one entry of the scan's pair
        # table: the scan reports both signs
        rs = ReedSolomonCode(PrimeField(13), 12, 6)
        cw = rs.encode([3, 1, 4, 1, 5, 9])
        error = [0] * 12
        error[g - 1], error[12 - g] = 5, 11  # points g and 13 - g
        y = [(v + e) % 13 for v, e in zip(cw, error)]
        assert rs.decode_errors_erasures(y, [], 3) == error
        hits = rs.locate_syndromes(rs.syndromes(y), [], 3)
        assert sorted(hits) == [(g - 1, 5), (12 - g, 11)]


class TestLinearInnerCode:
    def test_matches_rs_on_same_checks(self):
        rs = ReedSolomonCode(PrimeField(7), length=6, k=1)
        generic = LinearInnerCode(PrimeField(7), rs.check.rows, distance=rs.d)
        for msg in range(7):
            assert generic.encode([msg]) == rs.encode([msg])
        cw = rs.encode([3])
        y = list(cw)
        y[0] = (y[0] + 2) % 7
        y[4] = (y[4] + 6) % 7
        assert generic.decode_errors_erasures(y, [], 2) == rs.decode_errors_erasures(y, [], 2)

    def test_refuses_a_singular_tail_at_construction(self):
        # the last two columns, (1, 2) twice, are dependent mod 7
        with pytest.raises(ValueError, match="check matrix tail is singular; reorder columns"):
            LinearInnerCode(PrimeField(7), [[1, 1, 1], [3, 2, 2]], distance=2)

    def test_erasures(self):
        rs = ReedSolomonCode(PrimeField(7), length=6, k=1)
        generic = LinearInnerCode(PrimeField(7), rs.check.rows, distance=rs.d)
        cw = rs.encode([5])
        y = list(cw)
        y[1] = 0
        y[3] = (y[3] + 1) % 7
        err = generic.decode_errors_erasures(y, [1], 2)
        assert err is not None
        assert [(v - e) % 7 for v, e in zip(y, err)] == cw


class TestDecodeSyndromes:
    @pytest.mark.parametrize("p,length,k", [(7, 6, 1), (7, 5, 2), (11, 8, 3), (11, 7, 2)])
    def test_three_decoders_agree(self, p, length, k):
        # the syndromes are those of the zero-filled word; the erased symbols
        # of the read hold nonzero values, which no decoder may read
        rs = ReedSolomonCode(PrimeField(p), length=length, k=k)
        generic = LinearInnerCode(PrimeField(p), rs.check.rows, distance=rs.d)
        rng = random.Random(p * length + k)
        for trial in range(120):
            erased = rng.sample(range(length), rng.randrange(rs.d))
            radius = rng.randrange(rs.d)
            if trial % 3 == 0:
                y = [rng.randrange(p) for _ in range(length)]
            else:
                y = rs.encode([rng.randrange(p) for _ in range(k)])
                free = [j for j in range(length) if j not in erased]
                count = min(len(free), rng.randrange((rs.d - 1 - len(erased)) // 2 + 2))
                for pos in rng.sample(free, count):
                    y[pos] = (y[pos] + rng.randrange(1, p)) % p
            for j in erased:
                y[j] = rng.randrange(1, p)
            syn = rs.syndromes([0 if j in erased else v for j, v in enumerate(y)])
            expect = scan_errors_erasures(rs, y, erased, radius)
            for code in (rs, generic):
                got = code.locate_syndromes(syn, erased, radius)
                assert error_vector(length, got) == expect
            assert rs.decode_errors_erasures(y, erased, radius) == expect
            assert generic.decode_errors_erasures(y, erased, radius) == expect

    def test_too_many_erasures(self):
        rs = ReedSolomonCode(PrimeField(7), length=6, k=2)  # d = 5
        generic = LinearInnerCode(PrimeField(7), rs.check.rows, distance=rs.d)
        for code in (rs, generic):
            assert code.locate_syndromes([1, 0, 0, 0], [0, 1, 2, 3, 4], 0) is None
            assert code.locate_syndromes([0] * 4, [0, 1, 2, 3], 0) == ()


class TestEverySyndrome:
    @pytest.mark.parametrize("p,length,k", [(5, 4, 1), (7, 4, 2)])
    def test_matches_enumeration(self, p, length, k):
        # every syndrome, with every erasure set below d, at every radius
        # that can matter (past (d-1)//2 a radius allows nothing more)
        rs = ReedSolomonCode(PrimeField(p), length=length, k=k)
        generic = LinearInnerCode(PrimeField(p), rs.check.rows, distance=rs.d)
        erasure_sets = [
            erased for rho in range(rs.d) for erased in itertools.combinations(range(length), rho)
        ]
        for syn in itertools.product(range(p), repeat=rs.d - 1):
            for erased in erasure_sets:
                for radius in range((rs.d - 1) // 2 + 1):
                    expect = generic.locate_syndromes(syn, erased, radius)
                    got = rs.locate_syndromes(syn, erased, radius)
                    assert error_vector(length, got) == error_vector(length, expect), (
                        syn, erased, radius)

    @pytest.mark.parametrize("erased", [(), (4,), (0, 3)])
    def test_matches_the_error_table(self, erased):
        # d = 5, where a locator of degree 2 is scanned for one root and the
        # other read off: every syndrome against a table of every error
        # within the radius the erasures leave (unique, the code being MDS)
        p, length = 7, 6
        rs = ReedSolomonCode(PrimeField(p), length=length, k=2)
        t_max = (rs.d - 1 - len(erased)) // 2
        free = [j for j in range(length) if j not in erased]
        table = {}
        for held in itertools.product(range(p), repeat=len(erased)):
            for t in range(t_max + 1):
                for support in itertools.combinations(free, t):
                    for values in itertools.product(range(1, p), repeat=t):
                        e = [0] * length
                        for j, v in zip(erased + support, held + values):
                            e[j] = v
                        table[tuple(rs.syndromes(e))] = (t, e)
        for syn in itertools.product(range(p), repeat=rs.d - 1):
            weight, e = table.get(syn, (None, None))
            for radius in range(t_max + 1):
                expect = e if weight is not None and weight <= radius else None
                got = error_vector(length, rs.locate_syndromes(syn, erased, radius))
                assert got == expect, (syn, radius)


def _error_table(rs, weight):
    """{syndrome: hits} for every error of Hamming weight 1 .. `weight`,
    each error's (position, value) hits sorted."""
    p = rs.field.p
    columns = rs.check.array.T.astype(np.int64)
    table = {}
    for t in range(1, weight + 1):
        values = np.array(list(itertools.product(range(1, p), repeat=t)), np.int64)
        for support in itertools.combinations(range(rs.length), t):
            for v, syn in zip(values.tolist(), (values @ columns[list(support)] % p).tolist()):
                table[tuple(syn)] = tuple(zip(support, v))
    return table


class TestWeightThreeReadOff:
    """d = 7, where an erasure-free read of up to three errors is read off
    its Hankel system (`hamming._hankel_locator`): TestEverySyndrome stops
    at d = 5, where no locator has degree 3."""

    RS = ReedSolomonCode(PrimeField(11), length=10, k=4)

    def test_every_error_within_three_is_located_exactly(self):
        rs = self.RS
        assert rs.d == 7
        table = _error_table(rs, 3)
        assert len(table) == 10 * 10 + 45 * 10**2 + 120 * 10**3  # no two share a syndrome
        for syn, hits in table.items():
            for radius in (2, 3):
                got = rs.locate_syndromes(syn, (), radius)
                expect = hits if len(hits) <= radius else None
                assert (got if got is None else tuple(sorted(got))) == expect, (syn, radius)

    def test_random_syndromes_outside_the_table_give_none(self):
        rs = self.RS
        table = _error_table(rs, 3)
        rng = random.Random(7)
        tried = 0
        while tried < 20_000:
            syn = tuple(rng.randrange(11) for _ in range(6))
            if syn in table or not any(syn):
                continue
            tried += 1
            for radius in (2, 3):
                assert rs.locate_syndromes(syn, (), radius) is None, (syn, radius)


class TestHankelCheck:
    """After a Hankel locator of w errors, `locate_syndromes` checks only
    the syndromes past S_(2w-1), which its points and the values read off
    S_0 .. S_(w-1) do not meet by construction.  At the k = 32, tau = 3 inner code
    (d - 1 = 6), a three-error read checks none, and a two-error read
    still checks S_4 and S_5.  The one-error probe, which checks a single
    hit before the locator is built, runs unpatched."""

    RS = HammingScheme(2, 8, 32, 3).inner

    def _reads(self, weight, count):
        rs, rng = self.RS, random.Random(weight)
        for _ in range(count):
            support = sorted(rng.sample(range(rs.length), weight))
            hits = tuple((j, rng.randrange(1, rs.field.p)) for j in support)
            yield hits, rs.syndromes(error_vector(rs.length, hits))

    def _patch(self, monkeypatch):
        """Patch `CheckMatrix.less` to record how many hits each call gets."""
        less, calls = core.CheckMatrix.less, []

        def counted(check, syn, errors):
            errors = tuple(errors)
            calls.append(len(errors))
            return less(check, syn, errors)

        monkeypatch.setattr(core.CheckMatrix, "less", counted)
        return calls

    def test_three_errors_locate_without_a_check(self, monkeypatch):
        assert self.RS.d - 1 == 6
        calls = self._patch(monkeypatch)
        for hits, syn in self._reads(3, 1000):
            got = self.RS.locate_syndromes(syn, (), 3)
            assert tuple(sorted(got)) == hits, syn
        assert set(calls) <= {1}

    def test_two_errors_reach_the_check(self, monkeypatch):
        calls = self._patch(monkeypatch)
        for hits, syn in self._reads(2, 200):
            calls.clear()
            got = self.RS.locate_syndromes(syn, (), 3)
            assert tuple(sorted(got)) == hits, syn
            assert calls[-1] == 2, syn


class TestHankelValues:
    """A Hankel locator's values are read off S_0 .. S_(w-1) in closed
    form, with no evaluator: at production sizes every read within the
    budget decodes exactly, and only Euclid's branch evaluates Forney's
    formula (`poly_eval`)."""

    @staticmethod
    def _flipped_reads(scheme, flips, count, seed):
        """(read, exact prefix) pairs of an l = 8 product with `flips` flips
        of magnitude <= theta on distinct packed symbols, a check symbol's
        flip on one of its digit columns."""
        rng = random.Random(seed)
        block = scheme.ntilde - scheme.k
        a = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(scheme.k)] for _ in range(8)])
        encoded = scheme.encode(a)
        for _ in range(count):
            c = _product([rng.randrange(2) for _ in range(8)], encoded)
            y = list(c)
            for s in rng.sample(range(scheme.ntilde), flips):
                j = s if s < scheme.k else s + block * rng.randrange(scheme.m)
                y[j] = rng.choice([v for v in range(scheme.q_out)
                                   if v != y[j] and abs(v - y[j]) <= scheme.theta])
            yield ReadVector.exact(y), tuple(c[: scheme.k])

    @pytest.mark.parametrize("k", [32, 256])
    @pytest.mark.parametrize("flips", [1, 2, 3])
    def test_flips_within_the_budget_decode_exactly(self, k, flips):
        scheme = HammingScheme(2, 8, k, 3)
        assert (scheme.theta, scheme.q_out) == (8, 9)
        for y, prefix in self._flipped_reads(scheme, flips, 150, 31 * k + flips):
            assert scheme.decode(y).prefix == prefix, y.entries

    @pytest.mark.parametrize("weight", [2, 3])
    def test_errors_of_a_p_1031_code_locate_exactly(self, weight):
        rs = ReedSolomonCode(PrimeField(1031), length=300, k=290)  # d - 1 = 10
        rng = random.Random(weight)
        for _ in range(400):
            support = sorted(rng.sample(range(rs.length), weight))
            hits = tuple((j, rng.randrange(1, 1031)) for j in support)
            syn = rs.syndromes(error_vector(rs.length, hits))
            for radius in range(weight, 4):
                assert tuple(sorted(rs.locate_syndromes(syn, (), radius))) == hits, syn

    def test_only_euclid_evaluates_forney(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("poly_eval reached")

        rs = HammingScheme(2, 8, 32, 3).inner
        rng = random.Random(5)
        reads = []
        for weight in (1, 2, 3, 4):
            for _ in range(100):
                e = [0] * rs.length
                for j in rng.sample(range(rs.length), weight):
                    e[j] = rng.randrange(1, rs.field.p)
                reads.append((e, rs.syndromes(e)))
        reads += [(None, [rng.randrange(rs.field.p) for _ in range(6)]) for _ in range(400)]
        monkeypatch.setattr(hamming, "poly_eval", refuse)
        for e, syn in reads:
            for radius in (1, 2, 3):
                got = rs.locate_syndromes(syn, (), radius)
                weight = None if e is None else sum(map(bool, e))
                if weight is not None and weight <= radius:
                    assert error_vector(rs.length, got) == e
        e = [0] * rs.length
        e[3], e[20] = 7, 11
        with pytest.raises(AssertionError, match="poly_eval reached"):
            rs.locate_syndromes(rs.syndromes(e), (20,), 2)


class TestLocateBoundary:
    """Both inner codes refuse a syndrome of the wrong length and an erased
    index outside the code, in locate_syndromes and decode_errors_erasures."""

    RS = ReedSolomonCode(PrimeField(7), length=6, k=2)  # d = 5: 4 syndromes

    def _codes(self):
        return self.RS, LinearInnerCode(PrimeField(7), self.RS.check.rows, distance=self.RS.d)

    @pytest.mark.parametrize("syn", [[1, 0, 0], [1, 0, 0, 0, 0]])
    def test_refuses_a_syndrome_of_the_wrong_length(self, syn):
        for code in self._codes():
            with pytest.raises(ValueError, match=f"need 4 syndromes, got {len(syn)}"):
                code.locate_syndromes(syn, [], 2)

    @pytest.mark.parametrize(
        "erased,bad",
        [
            ([6], "6"),  # one past the end
            ([-1], "-1"),  # a Python index would alias symbol 5
            ([5, -1], "-1"),  # ... and erase symbol 5 twice
            ([2.0], "2.0"),
            ([True], "True"),
        ],
    )
    def test_refuses_an_erased_index_outside_the_code(self, erased, bad):
        y = self.RS.encode([1, 2])
        for code in self._codes():
            with pytest.raises(ValueError, match=rf"erasure index {bad} is outside \[0, 6\)"):
                code.locate_syndromes([1, 2, 3, 4], erased, 0)
            with pytest.raises(ValueError, match=rf"erasure index {bad} is outside \[0, 6\)"):
                code.decode_errors_erasures(y, erased, 0)


class TestSchemeConstruction:
    def test_builds_and_encodes_without_an_inverse(self, monkeypatch):
        # the scan table and Forney's inverses are built on the first decode
        def refuse(*args):
            raise AssertionError("construction took an inverse")

        monkeypatch.setattr(hamming, "inverses", refuse)
        monkeypatch.setattr(hamming, "pair_table", refuse)
        scheme = HammingScheme(2, 1, 2000, 3)
        encoded = scheme.encode(QMatrix.from_lists(2, [[1, 0] * 1000]))
        assert not any(scheme.read_syndromes(ReadVector.exact(encoded.rows[0])))

    def test_takes_no_inner_code_and_decodes_every_one_entry_drift(self):
        # an inner code decoded by enumeration would refuse every dirty read
        # here (23^20 codewords), so the scheme takes no inner code
        rs = ReedSolomonCode(PrimeField(23), length=22, k=20)
        generic = LinearInnerCode(PrimeField(23), rs.check.rows, distance=rs.d)
        with pytest.raises(TypeError):
            HammingScheme(2, 2, 20, 1, p=23, inner=generic)
        scheme = HammingScheme(2, 2, 20, 1, p=23)
        assert type(scheme.inner) is ReedSolomonCode
        rng = random.Random(20)
        a = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(20)] for _ in range(2)])
        c = _product([1, 1], scheme.encode(a))
        prefix = tuple(c[:20])
        assert scheme.decode(ReadVector.exact(c)).prefix == prefix
        for j in range(scheme.n):
            for value in range(scheme.q_out):
                if value != c[j]:
                    y = list(c)
                    y[j] = value
                    assert scheme.decode(ReadVector.exact(y)).prefix == prefix, (j, value)

    @pytest.mark.parametrize("args,kwargs", [
        ((2, 2, 8, 2), {}),
        ((2, 2, 20, 1), {"p": 23}),
        ((2, 2, 1, 2), {"theta": 2, "rho_max": 1}),
    ], ids=["default-p", "p23", "erasures"])
    def test_inner_code_is_the_reed_solomon_code_over_gf_p(self, args, kwargs):
        scheme = HammingScheme(*args, **kwargs)
        inner = scheme.inner
        assert type(inner) is ReedSolomonCode
        assert inner.field.p == scheme.p
        assert (inner.length, inner.k, inner.d) == (scheme.ntilde, scheme.k, scheme.d)
        assert set(inner.check.moduli) == {scheme.p}

    def test_prime_selection_rejects_small(self):
        with pytest.raises(ValueError, match="next usable prime is 7"):
            HammingScheme(q=2, ell=2, k=1, tau=2, theta=2, rho_max=1, p=5)

    def test_prime_autoselect(self):
        scheme = HammingScheme(q=2, ell=2, k=1, tau=2, theta=2, rho_max=1)
        assert scheme.p == 7
        assert scheme.d == 6 and scheme.ntilde == 6
        assert scheme.m == 3 and scheme.n == 16
        assert smallest_inner_prime(2, 6) == 7

    def test_theta_default_is_max_magnitude(self):
        scheme = HammingScheme(q=2, ell=3, k=2, tau=1)
        assert scheme.theta == scheme.q_out - 1

    def test_redundancy_bound_holds(self):
        for q, ell, k, tau in [(2, 2, 2, 1), (2, 2, 3, 2), (4, 2, 3, 1), (8, 3, 4, 2)]:
            scheme = HammingScheme(q=q, ell=ell, k=k, tau=tau)
            assert scheme.n - scheme.k <= scheme.redundancy_bound()

    def test_tau_zero_rejected(self):
        with pytest.raises(ValueError):
            HammingScheme(q=2, ell=2, k=1, tau=0)


class TestPackingMap:
    def test_zero(self):
        scheme = HammingScheme(q=2, ell=2, k=1, tau=2, theta=2, rho_max=1)
        symbols, erased = scheme.pack([0] * scheme.n)
        assert symbols == [0] * scheme.ntilde and not erased

    def test_encoded_rows_map_to_codewords(self):
        scheme = HammingScheme(q=2, ell=2, k=2, tau=1)
        rng = random.Random(3)
        for _ in range(10):
            a = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(2)] for _ in range(2)])
            encoded = scheme.encode(a)
            for row in encoded.rows:
                symbols, _ = scheme.pack(list(row))
                assert scheme.inner.syndromes(symbols) == [0] * (scheme.ntilde - scheme.k)

    def test_products_map_to_codewords(self):
        scheme = HammingScheme(q=2, ell=2, k=2, tau=1)
        rng = random.Random(4)
        for _ in range(10):
            a = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(2)] for _ in range(2)])
            encoded = scheme.encode(a)
            for u in itertools.product(range(2), repeat=2):
                c = _product(list(u), encoded)
                symbols, _ = scheme.pack(c)
                assert scheme.inner.syndromes(symbols) == [0] * (scheme.ntilde - scheme.k)

    def test_homomorphism(self):
        scheme = HammingScheme(q=2, ell=2, k=2, tau=1)
        rng = random.Random(5)
        p = scheme.p
        for _ in range(200):
            x1 = [rng.randrange(-9, 10) for _ in range(scheme.n)]
            x2 = [rng.randrange(-9, 10) for _ in range(scheme.n)]
            b1, b2 = rng.randrange(20), rng.randrange(20)
            combo = [b1 * a + b2 * b for a, b in zip(x1, x2)]
            s_combo, _ = scheme.pack(combo)
            s1, _ = scheme.pack(x1)
            s2, _ = scheme.pack(x2)
            assert s_combo == [(b1 * a + b2 * b) % p for a, b in zip(s1, s2)]

    def test_weight_never_increases(self):
        scheme = HammingScheme(q=2, ell=2, k=2, tau=1)
        rng = random.Random(6)
        for _ in range(100):
            e = [0] * scheme.n
            for pos in rng.sample(range(scheme.n), rng.randrange(4)):
                e[pos] = rng.randrange(1, 4)
            symbols, _ = scheme.pack(e)
            assert sum(1 for s in symbols if s) <= sum(1 for v in e if v)

    def test_erasure_mapping(self):
        scheme = HammingScheme(q=2, ell=2, k=1, tau=2, theta=2, rho_max=1)
        block = scheme.ntilde - scheme.k
        # data column 0 erases symbol 0
        _, erased = scheme.pack([0] * scheme.n, [0])
        assert erased == {0}
        # two digits of the same packed symbol cost one erasure
        _, erased = scheme.pack([0] * scheme.n, [scheme.k + 2, scheme.k + 2 + block])
        assert erased == {scheme.k + 2}


class TestOracleInnerCode:
    def test_scheme_locates_as_the_enumeration_decoder(self):
        # the scheme's inner code against the enumeration reference built
        # from the same check rows, on the syndromes of the scheme's reads
        scheme = HammingScheme(q=2, ell=2, k=1, tau=2, theta=2, rho_max=1)
        assert scheme.p == 7
        rs = scheme.inner
        oracle = LinearInnerCode(scheme.field, rs.check.rows, distance=rs.d)
        for msg in range(scheme.p):
            assert oracle.encode([msg]) == rs.encode([msg])
        a = QMatrix.from_lists(2, [[1], [0]])
        c = _product([1, 1], scheme.encode(a))
        prefix = tuple(c[:1])
        reads = []
        for j1, j2 in itertools.combinations(range(scheme.n), 2):
            for d1, d2 in itertools.product((-2, -1, 1, 2), repeat=2):
                y = list(c)
                y[j1] += d1
                y[j2] += d2
                if 0 <= y[j1] < scheme.q_out and 0 <= y[j2] < scheme.q_out:
                    reads.append(ReadVector.exact(y))
                    reads.append(ReadVector.with_erasures(y, [j1]))
        assert len(reads) > 100
        for read in reads:
            syn = scheme.read_syndromes(read)
            erased = sorted(scheme._erased_symbols(read.erased))
            expected = oracle.locate_syndromes(syn, erased, scheme.tau)
            assert expected is not None
            assert sorted(rs.locate_syndromes(syn, erased, scheme.tau)) == sorted(expected)
            assert scheme.decode(read).prefix == prefix


class TestMagnitudeLifting:
    def test_injective_within_theta(self):
        scheme = HammingScheme(q=2, ell=2, k=1, tau=2, theta=2, rho_max=1)
        from dpe_codec.basemath import signed_value

        for v in range(-scheme.theta, scheme.theta + 1):
            assert signed_value(v % scheme.p, scheme.field) == v


class TestDecode:
    def test_clean(self):
        scheme = HammingScheme(q=2, ell=2, k=2, tau=1)
        a = QMatrix.from_lists(2, [[1, 0], [1, 1]])
        encoded = scheme.encode(a)
        c = _product([1, 1], encoded)
        assert scheme.decode(ReadVector.exact(c)).prefix == tuple(c[:2])

    def test_single_position_any_magnitude(self):
        scheme = HammingScheme(q=2, ell=2, k=2, tau=1)
        rng = random.Random(7)
        a = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(2)] for _ in range(2)])
        encoded = scheme.encode(a)
        u = [1, 1]
        c = _product(u, encoded)
        prefix = tuple(c[:2])
        for j in range(scheme.n):
            for delta in range(-scheme.theta, scheme.theta + 1):
                if delta == 0:
                    continue
                y = list(c)
                y[j] += delta
                if not 0 <= y[j] < scheme.q_out:
                    continue
                assert scheme.decode(ReadVector.exact(y)).prefix == prefix, (j, delta)

    def test_erasure_budget_enforced(self):
        scheme = HammingScheme(q=2, ell=2, k=2, tau=1)  # rho_max = 0
        a = QMatrix.from_lists(2, [[1, 0], [1, 1]])
        c = _product([1, 1], scheme.encode(a))
        with pytest.raises(ValueError, match="erased symbols exceed"):
            scheme.decode(ReadVector.with_erasures(c, [0]))

    def test_sigma_detection_never_wrong(self):
        # correct 1, detect 2 (sigma = 1): weight-2 patterns never miscorrect
        scheme = HammingScheme(q=2, ell=2, k=1, tau=1, sigma=1, theta=2)
        a = QMatrix.from_lists(2, [[1], [0]])
        encoded = scheme.encode(a)
        u = [1, 1]
        c = _product(u, encoded)
        prefix = tuple(c[:1])
        for j1 in range(scheme.n):
            for j2 in range(j1 + 1, scheme.n):
                for d1 in (-1, 1, 2, -2):
                    for d2 in (-1, 1, 2, -2):
                        y = list(c)
                        y[j1] += d1
                        y[j2] += d2
                        if not all(0 <= v < scheme.q_out for v in y):
                            continue
                        outcome = scheme.decode(ReadVector.exact(y))
                        assert outcome.failed or outcome.prefix == prefix

    @pytest.mark.parametrize("kernel", [False, True], ids=["python", "kernel"])
    @pytest.mark.parametrize("placeholder", [0, 1, 5, -3, None, 2.5])
    @pytest.mark.parametrize("column", [0, 4, 15])
    def test_erased_placeholder_is_not_read(self, monkeypatch, kernel, placeholder, column):
        # an erased entry may hold anything, its true value included: the
        # decoder counts it as 0 and solves its symbol
        monkeypatch.setattr(core, "KERNEL_MIN_LENGTH", 1 if kernel else 10**9)
        scheme = HammingScheme(2, 2, 4, 1, rho_max=1)
        monkeypatch.undo()
        assert scheme.vector == kernel and scheme.n == 16
        c = _product([1, 1], scheme.encode(QMatrix.from_lists(2, [[1, 0, 1, 1], [0, 1, 1, 0]])))
        assert c[:4] == [1, 1, 2, 1]
        entries = list(c)
        entries[column] = placeholder
        erased = (column,)
        assert scheme.decode(ReadVector(tuple(entries), erased)).prefix == (1, 1, 2, 1)
        # and with one error besides: 2*tau + 1 erasure < d = 4
        entries[1] = 2
        assert scheme.decode(ReadVector(tuple(entries), erased)).prefix == (1, 1, 2, 1)

    @pytest.mark.parametrize("kernel", [False, True], ids=["python", "kernel"])
    def test_erased_data_entry_above_half_p(self, monkeypatch, kernel):
        # p = Q = 11: an erased data entry of 6..10 is its symbol itself,
        # which a signed lift would take for a negative error
        monkeypatch.setattr(core, "KERNEL_MIN_LENGTH", 1 if kernel else 10**9)
        scheme = HammingScheme(2, 10, 4, 1, theta=1, rho_max=1)
        monkeypatch.undo()
        assert scheme.vector == kernel and scheme.p == scheme.q_out == 11
        rng = random.Random(11)
        for _ in range(20):
            a = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(4)] for _ in range(10)])
            c = _product([1] * 10, scheme.encode(a))
            for j in range(4):
                assert scheme.decode(ReadVector.with_erasures(c, [j])).prefix == tuple(c[:4])
