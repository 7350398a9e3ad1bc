"""Acceptance suite: one test per criterion, each printing a PASS line
(run with -s to see them) and enforcing its stated runtime budget."""

import itertools
import json
import random
import shutil
import subprocess
import sys
import time

import pytest

from dpe_codec.basemath import (
    PrimeField,
    ceil_log,
    gfp_quadratic_roots,
    jacobsthal_weights,
    sphere_volume_l1,
)
from dpe_codec.berlekamp import decode_double_error
from dpe_codec.core import QMatrix, ReadVector
from dpe_codec.double import DoubleErrorScheme, TripleDetectScheme
from dpe_codec.hamming import HammingScheme
from dpe_codec.locators import build_locators_ded, validate_locators
from dpe_codec.multi import LargeAlphabetScheme, RecursiveScheme
from dpe_codec.oracles import enumerate_induced_code, induced_min_distance, iter_l1_errors
from dpe_codec.simulate import FaultModel, compute_clean, inject
from dpe_codec.single import SecDedScheme, SingleErrorScheme

A_PRIME_3x10 = QMatrix.from_lists(
    2,
    [
        [1, 0, 1, 1, 0, 1, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 1, 1, 0, 0, 1],
        [0, 1, 0, 0, 0, 1, 0, 1, 1, 1],
    ],
)

ENCODED_3x15 = [
    [1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1],
    [0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1],
    [0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0],
]

C15 = [1, 1, 1, 2, 0, 3, 1, 1, 2, 2, 1, 1, 2, 1, 2]

ENCODED_3x21 = [
    [1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0],
    [0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 0],
]

Q4_A_PRIME = [
    [1, 2, 3, 0, 1, 2] + [0] * 40,
    [0, 3, 0, 1, 2, 3] + [0] * 40,
    [2, 1, 1, 3, 2, 0] + [0] * 40,
]
Q4_SUFFIXES = [
    [2, 1, 0, 2, 0, 1, 3, 2],
    [3, 3, 2, 1, 1, 2, 2, 3],
    [2, 3, 0, 2, 2, 0, 0, 2],
]
Q4_CODEWORD = tuple([4, 14, 7, 6, 10, 13] + [0] * 40 + [15, 14, 6, 9, 5, 8, 12, 15])


def _product(u, matrix):
    return [sum(u[i] * matrix.rows[i][j] for i in range(len(u))) for j in range(matrix.ncols)]


def _coerce(values, bound):
    return [min(max(v, 0), bound - 1) for v in values]


def test_criterion_1_single_error_worked_example():
    start = time.perf_counter()
    scheme = SingleErrorScheme(q=2, n=15, ell=3)
    encoded = scheme.encode(A_PRIME_3x10)
    assert [list(r) for r in encoded.rows] == ENCODED_3x15
    c = compute_clean([1, 1, 1], encoded)
    assert c == C15
    report = inject(c, FaultModel.manual(deltas=[(5, -1)]), scheme.q_out)
    assert scheme.syndrome(report.read) == 21
    outcome = scheme.decode(report.read)
    assert outcome.prefix == tuple(C15[:10])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - single-error worked example, exact ({elapsed:.3f}s)")


def test_criterion_2_double_error_encoding():
    scheme = DoubleErrorScheme(q=2, p=31, ell=3)
    encoded = scheme.encode(A_PRIME_3x10)
    assert [list(r) for r in encoded.rows] == ENCODED_3x21
    # the three cubed-checksum values behind the digit block
    for row, expect in zip(encoded.rows, (16, 30, 29)):
        assert sum(row[15 + j] * 2**j for j in range(5)) == expect
    print("\nACCEPTANCE 2: PASS - double-error encoding matrix, exact")


def test_criterion_3_double_error_worked_decode():
    scheme = DoubleErrorScheme(q=2, p=31, ell=3)
    encoded = scheme.encode(A_PRIME_3x10)
    c = compute_clean([1, 1, 1], encoded)
    report = inject(c, FaultModel.manual(deltas=[(5, -1), (13, 1)]), scheme.q_out)
    assert scheme.syndromes(report.read) == (29, 8, 0)
    assert gfp_quadratic_roots(2, 13, PrimeField(31)) == {8, 21}
    err = decode_double_error(scheme.ber, (29, 8))
    expected = [0] * 15
    expected[13], expected[5] = 1, -1
    assert err == expected
    assert scheme.decode(report.read).prefix == tuple(c[:10])
    print("\nACCEPTANCE 3: PASS - double-error worked decode, exact")


def test_criterion_4_even_alphabet_locators():
    loc = build_locators_ded(8, 13)
    assert loc.m == 2
    assert loc.n - loc.k == 2
    assert loc.alpha == (3, 5, 9, 11, 13, 15, 17, 19, 21, 23, 25, 1, 7)
    report = validate_locators(loc)
    assert report.ok and not report.notes
    print("\nACCEPTANCE 4: PASS - even-alphabet locator construction, exact")


def test_criterion_5_mixed_radix_scheme():
    assert jacobsthal_weights(4, 5) == [1, 3, 13, 51, 205]
    scheme = TripleDetectScheme(q=4, p=101, ell=3)
    assert scheme.m == 4 and scheme.n == 54 and scheme.n - scheme.k == 8
    encoded = scheme.encode(QMatrix.from_lists(4, Q4_A_PRIME))
    for row, aprime, suffix in zip(encoded.rows, Q4_A_PRIME, Q4_SUFFIXES):
        assert list(row[:46]) == aprime and list(row[46:]) == suffix
    c = compute_clean([2, 3, 1], encoded)
    assert tuple(c) == Q4_CODEWORD
    print("\nACCEPTANCE 5: PASS - mixed-radix triple-detect scheme, exact")


def test_criterion_6_exhaustive_correction_sweeps():
    # single-error scheme: all 2n unit errors on 100 random inputs, < 10 s
    start = time.perf_counter()
    scheme = SingleErrorScheme(q=2, n=15, ell=3)
    rng = random.Random(2024)
    checked = 0
    for _ in range(100):
        a = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(10)] for _ in range(3)])
        u = [rng.randrange(2) for _ in range(3)]
        c = _product(u, scheme.encode(a))
        prefix = tuple(c[:10])
        for j in range(15):
            for sign in (1, -1):
                y = list(c)
                y[j] += sign
                y = _coerce(y, scheme.q_out)
                assert scheme.decode(ReadVector.exact(y)).prefix == prefix
                checked += 1
    sec_elapsed = time.perf_counter() - start
    assert sec_elapsed < 10.0 and checked == 100 * 30

    # double-error scheme at p = 31: every weight <= 2 pattern, 20 codewords, < 60 s
    start = time.perf_counter()
    d2 = DoubleErrorScheme(q=2, p=31, ell=3)
    rng = random.Random(31)
    patterns = list(iter_l1_errors(d2.n, 2))
    for _ in range(20):
        a = QMatrix.from_lists(2, [[rng.randrange(2) for _ in range(10)] for _ in range(3)])
        u = [rng.randrange(2) for _ in range(3)]
        c = _product(u, d2.encode(a))
        prefix = tuple(c[:10])
        for e in patterns:
            y = _coerce([v + w for v, w in zip(c, e)], d2.q_out)
            assert d2.decode(ReadVector.exact(y)).prefix == prefix
    d2_elapsed = time.perf_counter() - start
    assert d2_elapsed < 60.0

    # triple detection: every weight-3 pattern ends {correct, "e"}, never wrong
    miscorrections = 0
    total = 0
    for scheme_ted in (
        TripleDetectScheme(q=3, p=13, ell=2),
        TripleDetectScheme(q=2, p=11, ell=2),
    ):
        rng = random.Random(scheme_ted.p)
        a = QMatrix.from_lists(
            scheme_ted.q,
            [[rng.randrange(scheme_ted.q) for _ in range(scheme_ted.k)] for _ in range(2)],
        )
        u = [rng.randrange(scheme_ted.q) for _ in range(2)]
        c = _product(u, scheme_ted.encode(a))
        prefix = tuple(c[: scheme_ted.k])
        for e in iter_l1_errors(scheme_ted.n, 3):
            if sum(abs(w) for w in e) != 3:
                continue
            y = _coerce([v + w for v, w in zip(c, e)], scheme_ted.q_out)
            outcome = scheme_ted.decode(ReadVector.exact(y))
            total += 1
            if not outcome.failed and outcome.prefix != prefix:
                miscorrections += 1
    assert miscorrections == 0 and total > 1000
    print(
        f"\nACCEPTANCE 6: PASS - sweeps 100% ({checked} unit errors {sec_elapsed:.1f}s; "
        f"weight<=2 at p=31 {d2_elapsed:.1f}s; {total} weight-3 patterns, 0 miscorrections)"
    )


def test_criterion_7_oracle_distance_audits():
    start = time.perf_counter()

    def audit(scheme, metric="l1"):
        words = enumerate_induced_code(scheme.encode, scheme.ell, scheme.k, scheme.q)
        return induced_min_distance(words, k=scheme.k, metric=metric)

    assert audit(SingleErrorScheme(q=2, n=6, ell=2)) >= 3
    assert audit(SecDedScheme(q=2, n=7, ell=2, variant="parity")) >= 4
    assert audit(SecDedScheme(q=3, n=5, ell=2, variant="odd_q")) >= 4
    assert audit(SecDedScheme(q=4, n=5, ell=2, variant="even_q")) >= 4
    assert audit(DoubleErrorScheme(q=2, p=11, ell=2)) >= 5

    # inner code of the Hamming scheme: distance by construction and by scan
    scheme = HammingScheme(q=2, ell=2, k=1, tau=2, theta=2, rho_max=1)
    inner = scheme.inner
    assert inner.d >= 2 * scheme.tau + 1
    words = [tuple(inner.encode([m])) for m in range(scheme.p)]
    measured = min(
        sum(1 for x, y in zip(a, b) if x != y)
        for i, a in enumerate(words)
        for b in words[i + 1 :]
    )
    assert measured == inner.d == 6
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 7: PASS - distance audits (d>=3/4/5, inner d=6) in {elapsed:.1f}s")


def test_criterion_8_redundancy_formulas():
    for q, n in [(2, 15), (3, 8), (8, 13)]:
        scheme = SingleErrorScheme(q=q, n=n, ell=2)
        assert scheme.n - scheme.k == ceil_log(q, 2 * n + 1)

    d2 = DoubleErrorScheme(q=2, p=31, ell=3)
    assert d2.n - d2.k == 2 * d2.m + 1
    ted = TripleDetectScheme(q=4, p=101, ell=3)
    assert ted.n - ted.k == 2 * ted.m

    for q, tau, p in [(2, 1, 31), (2, 2, 31), (3, 2, 23)]:
        rec = RecursiveScheme(q=q, ell=2, tau=tau, p=p)
        assert rec.redundancy == tau * rec.m + (2 * tau + 1) * tau * rec.mtilde
        assert tau * rec.m == tau * ceil_log(q, 2 * rec.n + 1)  # leading term exact

    large = LargeAlphabetScheme(q=8, n=3, tau=2, ell=2)
    assert large.n - large.k == 2

    for n in (1, 2, 3, 4, 10, 25):
        assert sphere_volume_l1(n, 1) == 2 * n + 1
    for n in range(1, 5):
        for t in range(4):
            brute = sum(
                1
                for v in itertools.product(range(-t, t + 1), repeat=n)
                if sum(abs(x) for x in v) <= t
            )
            assert sphere_volume_l1(n, t) == brute
    print("\nACCEPTANCE 8: PASS - redundancy and sphere-volume formulas, exact")


def test_criterion_9_hamming_scheme_sweep():
    start = time.perf_counter()
    with pytest.raises(ValueError):
        HammingScheme(q=2, ell=2, k=1, tau=2, theta=2, rho_max=1, p=5)
    scheme = HammingScheme(q=2, ell=2, k=1, tau=2, theta=2, rho_max=1)
    assert scheme.p == 7 and scheme.n == 16

    rng = random.Random(7)
    a = QMatrix.from_lists(2, [[rng.randrange(2)] for _ in range(2)])
    u = [rng.randrange(2) for _ in range(2)]
    c = _product(u, scheme.encode(a))
    prefix = tuple(c[: scheme.k])
    deltas = [-2, -1, 1, 2]

    checked = 0
    for j1 in range(scheme.n):
        for d1 in deltas:
            y = list(c)
            y[j1] += d1
            if not 0 <= y[j1] < scheme.q_out:
                continue
            assert scheme.decode(ReadVector.exact(y)).prefix == prefix
            checked += 1
            for j2 in range(j1 + 1, scheme.n):
                for d2 in deltas:
                    yy = list(y)
                    yy[j2] += d2
                    if not 0 <= yy[j2] < scheme.q_out:
                        continue
                    assert scheme.decode(ReadVector.exact(yy)).prefix == prefix
                    checked += 1

    erasure_checked = 0
    for erased in range(scheme.n):
        positions = [j for j in range(scheme.n) if j != erased]
        for j1, j2 in itertools.combinations(positions, 2):
            for d1 in deltas:
                for d2 in deltas:
                    y = list(c)
                    y[j1] += d1
                    y[j2] += d2
                    if not all(0 <= v < scheme.q_out for v in (y[j1], y[j2])):
                        continue
                    rv = ReadVector.with_erasures(y, [erased])
                    assert scheme.decode(rv).prefix == prefix
                    erasure_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 9: PASS - {checked} bounded-magnitude patterns and "
        f"{erasure_checked} erasure+error patterns, 100% in {elapsed:.1f}s"
    )


def test_criterion_10_cli_determinism(tmp_path):
    from dpe_codec.formats import write_matrix

    runner = [shutil.which("dpe-codec")] if shutil.which("dpe-codec") else [
        sys.executable, "-m", "dpe_codec.cli"
    ]
    digests = []
    for tag in ("run1", "run2"):
        base = tmp_path / tag
        base.mkdir()
        write_matrix(base / "aprime.json", A_PRIME_3x10)
        cmds = [
            ["encode", "--scheme", "sec", "--q", "2", "--n", "15", "--ell", "3",
             "--in", str(base / "aprime.json"), "--out", str(base / "enc.json")],
            ["compute", "--in", str(base / "enc.json"), "--u", "1,1,1",
             "--out", str(base / "c.json")],
            ["inject", "--in", str(base / "c.json"),
             "--faults", json.dumps({"kind": "symbol_flip", "count": 2, "magnitude": 2, "seed": 5}),
             "--out", str(base / "y.json"), "--log", str(base / "log.json")],
        ]
        for cmd in cmds:
            proc = subprocess.run(runner + cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        digests.append({p.name: p.read_bytes() for p in base.iterdir() if p.is_file()})
    assert digests[0] == digests[1]
    print("\nACCEPTANCE 10: PASS - CLI outputs byte-identical across runs")
