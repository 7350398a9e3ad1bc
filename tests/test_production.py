"""Differential tests at production sizes: a random product with random
faults inside the design budget must decode to the clean product's exact
data prefix.  These sizes are far beyond what the enumeration oracles
reach; the reference is the clean product itself."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dpe_codec import (
    HammingScheme,
    LargeAlphabetScheme,
    QMatrix,
    ReadVector,
    RecursiveScheme,
    compute_clean,
)

ELL = 8
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _programmed(scheme, seed):
    rng = random.Random(seed)
    rows = [[rng.randrange(scheme.q) for _ in range(scheme.k)] for _ in range(ELL)]
    return scheme.encode(QMatrix.from_lists(scheme.q, rows))


def _unit_drifts(y, drifts, bound):
    """Apply +-1 drifts in turn, each turned around where it would leave
    [0, bound)."""
    for pos, sign in drifts:
        y[pos] += sign if 0 <= y[pos] + sign < bound else -sign
    return y


LARGE = LargeAlphabetScheme(1031, 250, 3, ELL)
LARGE_ENCODED = _programmed(LARGE, 1)
RECURSIVE = RecursiveScheme(2, ELL, 3, 131)
RECURSIVE_ENCODED = _programmed(RECURSIVE, 2)
HAMMING = HammingScheme(q=2, ell=ELL, k=64, tau=2, sigma=1, rho_max=2)
HAMMING_ENCODED = _programmed(HAMMING, 3)


def _l1_case(scheme, width):
    drift = st.tuples(st.integers(0, width - 1), st.sampled_from((1, -1)))
    return st.tuples(
        st.lists(st.integers(0, scheme.q - 1), min_size=ELL, max_size=ELL),
        st.lists(drift, max_size=scheme.tau),
    )


@SETTINGS
@given(_l1_case(LARGE, LARGE.n))
def test_large_alphabet_tau3(case):
    u, drifts = case
    clean = compute_clean(u, LARGE_ENCODED)
    y = _unit_drifts(list(clean), drifts, LARGE.q_out)
    assert LARGE.decode(ReadVector.exact(y)).prefix == tuple(clean[: LARGE.k])


@SETTINGS
@given(_l1_case(RECURSIVE, RECURSIVE.total_length))
def test_recursive_tau3(case):
    u, drifts = case
    clean = compute_clean(u, RECURSIVE_ENCODED)
    y = _unit_drifts(list(clean), drifts, RECURSIVE.q_out)
    assert RECURSIVE.decode(ReadVector.exact(y)).prefix == tuple(clean[: RECURSIVE.k])


@SETTINGS
@given(
    st.lists(st.integers(0, 1), min_size=ELL, max_size=ELL),
    st.lists(
        st.tuples(st.integers(0, HAMMING.n - 1), st.integers(-HAMMING.theta, HAMMING.theta)),
        max_size=HAMMING.tau,
    ),
    st.lists(
        st.tuples(st.integers(0, HAMMING.ntilde - 1), st.integers(0, HAMMING.m - 1)),
        max_size=HAMMING.rho_max,
    ),
)
def test_hamming_errors_and_erasures(u, flips, erasures):
    clean = compute_clean(u, HAMMING_ENCODED)
    y = list(clean)
    for pos, delta in flips:  # magnitude <= theta, clamped into the alphabet
        y[pos] = min(max(y[pos] + delta, 0), HAMMING.q_out - 1)
    block = HAMMING.ntilde - HAMMING.k
    # each erasure takes out one packed symbol through one of its columns
    erased = [s if s < HAMMING.k else s + block * digit for s, digit in erasures]
    read = ReadVector.with_erasures(y, erased)
    assert HAMMING.decode(read).prefix == tuple(clean[: HAMMING.k])
