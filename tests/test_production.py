"""Differential tests at production sizes: a random product with random
faults inside the design budget must decode to the clean product's exact
data prefix, of Python ints.  These sizes are far beyond what the
enumeration oracles reach; the reference is the clean product itself.
The closed-form instances, LARGE and HAMMING_KERNEL take the int64 read
kernel; PAST_BOUND lies past its int64 bound and runs on Python ints."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpe_codec import berlekamp
from dpe_codec import (
    DoubleErrorScheme,
    HammingScheme,
    LargeAlphabetScheme,
    QMatrix,
    ReadVector,
    RecursiveScheme,
    ReedSolomonCode,
    SecDedScheme,
    SingleErrorScheme,
    TripleDetectScheme,
    compute_clean,
)

ELL = 8
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _programmed(scheme, seed, ell=ELL):
    rng = random.Random(seed)
    rows = [[rng.randrange(scheme.q) for _ in range(scheme.k)] for _ in range(ell)]
    return scheme.encode(QMatrix.from_lists(scheme.q, rows))


def _apply_drifts(y, drifts, bound):
    """Apply signed drifts in turn, each turned around where it would leave
    [0, bound)."""
    for pos, drift in drifts:
        y[pos] += drift if 0 <= y[pos] + drift < bound else -drift
    return y


LARGE = LargeAlphabetScheme(1031, 250, 3, ELL)
LARGE_ENCODED = _programmed(LARGE, 1)
RECURSIVE = RecursiveScheme(2, ELL, 3, 131)
RECURSIVE_ENCODED = _programmed(RECURSIVE, 2)
HAMMING = HammingScheme(q=2, ell=ELL, k=64, tau=2, sigma=1, rho_max=2)
HAMMING_ENCODED = _programmed(HAMMING, 3)
HAMMING_KERNEL = HammingScheme(q=2, ell=ELL, k=128, tau=2, sigma=1, rho_max=2)
HAMMING_KERNEL_ENCODED = _programmed(HAMMING_KERNEL, 5)


# the closed-form schemes at the read-stream benchmark's sizes, each with
# its error budget
CLOSED_FORM = {
    "sec": (SingleErrorScheme(2, 1023, ELL), 1),
    "sec-ded": (SecDedScheme(3, 1023, ELL), 1),
    "sec-ded-parity": (SecDedScheme(2, 1023, ELL), 1),
    "dec": (DoubleErrorScheme(2, 1031, ELL), 2),
    "dec-ted": (TripleDetectScheme(4, 1031, ELL), 2),
    "dec-ted-parity": (TripleDetectScheme(2, 1031, ELL), 2),
}
CLOSED_FORM_ENCODED = {
    name: _programmed(scheme, seed)
    for seed, (name, (scheme, _)) in enumerate(sorted(CLOSED_FORM.items()), 10)
}
# n * (Q - 1) * (p - 1) far above 2^63: decoded on Python ints
PAST_BOUND = LargeAlphabetScheme(2**21, 10, 2, ELL)
PAST_BOUND_ENCODED = _programmed(PAST_BOUND, 4)


def _l1_case(scheme, width, tau=None):
    drift = st.tuples(st.integers(0, width - 1), st.sampled_from((1, -1)))
    return st.tuples(
        st.lists(st.integers(0, scheme.q - 1), min_size=ELL, max_size=ELL),
        st.lists(drift, max_size=scheme.tau if tau is None else tau),
    )


def _magnitude_case(scheme, width):
    """One column drifts by 2 .. tau, and unit drifts of either sign fill
    the rest of the budget: a locator with a repeated point."""
    return st.integers(2, scheme.tau).flatmap(lambda mag: st.tuples(
        st.lists(st.integers(0, scheme.q - 1), min_size=ELL, max_size=ELL),
        st.tuples(st.integers(0, width - 1), st.sampled_from((mag, -mag))),
        st.lists(
            st.tuples(st.integers(0, width - 1), st.sampled_from((1, -1))),
            max_size=scheme.tau - mag,
        ),
    ))


def _assert_exact(scheme, y, clean):
    prefix = scheme.decode(ReadVector.exact(y)).prefix
    assert prefix == tuple(clean[: scheme.k])
    assert all(type(v) is int for v in prefix)


@SETTINGS
@given(_l1_case(LARGE, LARGE.n))
def test_large_alphabet_tau3(case):
    u, drifts = case
    clean = compute_clean(u, LARGE_ENCODED)
    y = _apply_drifts(list(clean), drifts, LARGE.q_out)
    _assert_exact(LARGE, y, clean)


@SETTINGS
@given(_l1_case(RECURSIVE, RECURSIVE.total_length))
def test_recursive_tau3(case):
    u, drifts = case
    clean = compute_clean(u, RECURSIVE_ENCODED)
    y = _apply_drifts(list(clean), drifts, RECURSIVE.q_out)
    _assert_exact(RECURSIVE, y, clean)


@SETTINGS
@given(_magnitude_case(LARGE, LARGE.n))
def test_large_alphabet_tau3_magnitudes(case):
    u, big, drifts = case
    clean = compute_clean(u, LARGE_ENCODED)
    y = _apply_drifts(list(clean), [big] + drifts, LARGE.q_out)
    _assert_exact(LARGE, y, clean)


@SETTINGS
@given(_magnitude_case(RECURSIVE, RECURSIVE.total_length))
def test_recursive_tau3_magnitudes(case):
    # Q = 9 here: a drift of 3 that would leave [0, 9) fits turned around
    u, big, drifts = case
    clean = compute_clean(u, RECURSIVE_ENCODED)
    y = _apply_drifts(list(clean), [big] + drifts, RECURSIVE.q_out)
    _assert_exact(RECURSIVE, y, clean)


def test_single_errors_decode_without_a_scan(monkeypatch):
    """A read with one error has a linear locator, which is read off: with
    the scans and the deflation patched to raise, one-error reads of
    large-alphabet 1031/250/3 and hamming k=256 tau=2 still decode.  The
    read-stream benchmark's faulty reads are of this kind, so a scan there
    would run on each of them."""

    def refuse(*args):
        raise AssertionError("the locate step scanned a linear locator")

    monkeypatch.setattr(berlekamp, "_scan_points", refuse)
    monkeypatch.setattr(berlekamp, "poly_roots", refuse)
    monkeypatch.setattr(ReedSolomonCode, "_scan_locators", refuse)
    large = LargeAlphabetScheme(1031, 250, 3, ELL)
    hamming = HammingScheme(2, ELL, 256, 2)
    rng = random.Random(6)
    for scheme, theta in ((large, 1), (hamming, hamming.theta)):
        encoded = _programmed(scheme, 7)
        for _ in range(25):
            clean = compute_clean([rng.randrange(scheme.q) for _ in range(ELL)], encoded)
            y = list(clean)
            pos = rng.randrange(scheme.n)
            drift = rng.choice((1, -1)) * rng.randint(1, theta)
            y[pos] = min(max(y[pos] + drift, 0), scheme.q_out - 1)
            if y[pos] == clean[pos]:
                y[pos] -= drift // abs(drift)
            _assert_exact(scheme, y, clean)


@pytest.mark.parametrize("name", sorted(CLOSED_FORM))
def test_closed_form_schemes(name):
    scheme, tau = CLOSED_FORM[name]
    assert scheme.vector

    @SETTINGS
    @given(_l1_case(scheme, scheme.n, tau))
    def exact(case):
        u, drifts = case
        clean = compute_clean(u, CLOSED_FORM_ENCODED[name])
        _assert_exact(scheme, _apply_drifts(list(clean), drifts, scheme.q_out), clean)

    exact()


@SETTINGS
@given(_l1_case(PAST_BOUND, PAST_BOUND.n))
def test_large_alphabet_past_int64_bound(case):
    assert not PAST_BOUND.vector
    u, drifts = case
    clean = compute_clean(u, PAST_BOUND_ENCODED)
    y = _apply_drifts(list(clean), drifts, PAST_BOUND.q_out)
    _assert_exact(PAST_BOUND, y, clean)


def _hamming_case(scheme):
    return (
        st.lists(st.integers(0, 1), min_size=ELL, max_size=ELL),
        st.lists(
            st.tuples(st.integers(0, scheme.n - 1), st.integers(-scheme.theta, scheme.theta)),
            max_size=scheme.tau,
        ),
        st.lists(
            st.tuples(st.integers(0, scheme.ntilde - 1), st.integers(0, scheme.m - 1)),
            max_size=scheme.rho_max,
        ),
    )


def _check_hamming(scheme, encoded, u, flips, erasures):
    clean = compute_clean(u, encoded)
    y = list(clean)
    for pos, delta in flips:  # magnitude <= theta, clamped into the alphabet
        y[pos] = min(max(y[pos] + delta, 0), scheme.q_out - 1)
    block = scheme.ntilde - scheme.k
    # each erasure takes out one packed symbol through one of its columns
    erased = [s if s < scheme.k else s + block * digit for s, digit in erasures]
    prefix = scheme.decode(ReadVector.with_erasures(y, erased)).prefix
    assert prefix == tuple(clean[: scheme.k])
    assert all(type(v) is int for v in prefix)


@SETTINGS
@given(*_hamming_case(HAMMING))
def test_hamming_errors_and_erasures(u, flips, erasures):
    _check_hamming(HAMMING, HAMMING_ENCODED, u, flips, erasures)


@SETTINGS
@given(*_hamming_case(HAMMING_KERNEL))
def test_hamming_kernel_errors_and_erasures(u, flips, erasures):
    # reads without erasures take the kernel; reads with them, Python ints
    assert HAMMING_KERNEL.vector
    _check_hamming(HAMMING_KERNEL, HAMMING_KERNEL_ENCODED, u, flips, erasures)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SingleErrorScheme(2, 50_000, 1),
        lambda: SecDedScheme(3, 50_000, 1),
        lambda: DoubleErrorScheme(2, 100_003, 1),
        lambda: TripleDetectScheme(4, 100_003, 1),
        lambda: RecursiveScheme(2, 1, 3, 100_003),
        lambda: LargeAlphabetScheme(100_003, 50_000, 3, 1),
        lambda: HammingScheme(2, 1, 50_000, 3),
    ],
    ids=["sec", "sec-ded", "dec", "dec-ted", "recursive", "large-alphabet", "hamming"],
)
def test_builds_and_encodes_at_scale(build):
    # Construction is linear in n: a pairwise locator check here would
    # take about 1.25e9 sums per scheme.
    scheme = build()
    assert scheme.k > 49_000
    (row,) = _programmed(scheme, 4, ell=1).rows
    # the large-alphabet scheme reads with its code's checks
    check = scheme.code.check if isinstance(scheme, LargeAlphabetScheme) else scheme.check
    assert check(row) == [0] * len(check.rows)
    y = list(row)
    y[7] += 1 if y[7] == 0 else -1
    assert scheme.decode(ReadVector.exact(y)).prefix == row[: scheme.k]
