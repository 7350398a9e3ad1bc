"""The recursive decoder multiplies the whole widened read by one check
matrix (both levels' checks) and corrects those syndromes sparsely.  It is
checked here against the scheme decoded level by level, on both paths of
the read kernel: reads with faults in the head, the digit planes and the
repeated tail, copies of the tail that disagree, and reads past the
budget."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel import _python

import dpe_codec as api
from dpe_codec.berlekamp import locate_key_equation
from dpe_codec.core import (
    DECODE_FAILURE,
    KERNEL_MIN_LENGTH,
    QMatrix,
    ReadVector,
    corrected,
    decoded,
)

ELL = 8

BUILDS = {
    "p1031-tau2": (lambda: api.RecursiveScheme(2, ELL, 2, 1031), None),
    "p131-tau3": (lambda: api.RecursiveScheme(2, ELL, 3, 131), None),
    "p131-tau3-trimmed": (lambda: api.RecursiveScheme(2, ELL, 3, 131, trimmed=True),
                          lambda: api.SingleErrorScheme(2, 65, ELL)),
    "p31-tau1-trimmed": (lambda: api.RecursiveScheme(2, ELL, 1, 31, trimmed=True),
                         lambda: api.SingleErrorScheme(2, 15, ELL)),
}


def _median(values):
    return sorted(values)[len(values) // 2]


def _level_by_level(scheme, y):
    """The recursive scheme decoded one level at a time on Python ints: the
    median vote over the tail copies, the block corrected against the
    checksum the vote recovers, and the head against the checksum the
    corrected planes record."""
    y.admit(scheme.total_length, scheme.q_out)
    n, tau, q = scheme.n, scheme.tau, scheme.q
    head = y.entries[:n]
    block = y.entries[n : n + scheme.ntilde]
    if scheme.ntilde > 0:
        width = tau * scheme.mtilde
        tail = y.entries[n + scheme.ntilde :]
        medians = [_median([tail[r * width + t] for r in range(scheme.rep)])
                   for t in range(width)]
        syn2 = [sum(q**j * medians[j * tau + v] for j in range(scheme.mtilde)) % scheme.ptilde
                for v in range(tau)]
        block_syn = scheme.tail_checker.syndrome(block)
        hits = locate_key_equation(
            scheme.tail_checker, [(a - b) % scheme.ptilde for a, b in zip(block_syn, syn2)])
        if hits is None:
            return DECODE_FAILURE
        fixed = corrected(block, scheme.ntilde, hits, scheme.q_out)
        if fixed.failed:
            return fixed
        block = fixed.prefix
    start = tau - scheme.plane_cols
    syn1 = [0] * tau
    for v in range(start, tau):
        syn1[v] = sum(q**j * block[j * scheme.plane_cols + v - start]
                      for j in range(scheme.m)) % scheme.p
    head_syn = scheme.checker.syndrome(head)
    err_syn = [(a - b) % scheme.p for a, b in zip(head_syn, syn1)]
    hits = locate_key_equation(scheme.checker, err_syn)
    if hits is None:
        return DECODE_FAILURE
    if not any(err_syn):
        return decoded(head)
    return corrected(head, n, hits, scheme.q_out)


def _clean_read(scheme, inner, seed):
    rng = random.Random(seed)
    k = inner().k if inner else scheme.k
    rows = [[rng.randrange(scheme.q) for _ in range(k)] for _ in range(ELL)]
    matrix = QMatrix.from_lists(scheme.q, rows)
    if inner:
        matrix = inner().encode(matrix)
    encoded = scheme.encode(matrix)
    return api.compute_clean([rng.randrange(scheme.q) for _ in range(ELL)], encoded)


@st.composite
def _faults(draw, scheme):
    """(position, delta) faults: single entries of the head, the planes or
    the tail, and one tail column hit in several copies at once."""
    n, ntilde = scheme.n, scheme.ntilde
    regions = [(0, n)] + ([(n, n + ntilde), (n + ntilde, scheme.total_length)] if ntilde else [])
    faults = []
    for _ in range(draw(st.integers(0, scheme.tau + 2))):
        kind = draw(st.integers(0, len(regions)))
        delta = draw(st.sampled_from((-2, -1, 1, 2)))
        if kind < len(regions):
            lo, hi = regions[kind]
            faults.append((draw(st.integers(lo, hi - 1)), delta))
            continue
        if not ntilde:
            continue
        width = scheme.tau * scheme.mtilde
        t = draw(st.integers(0, width - 1))
        copies = draw(st.sets(st.integers(0, scheme.rep - 1), min_size=1, max_size=scheme.rep))
        faults += [(n + ntilde + r * width + t, delta) for r in sorted(copies)]
    return faults


@pytest.mark.parametrize("path", ["kernel", "python"])
@pytest.mark.parametrize("name", sorted(BUILDS))
def test_matches_level_by_level(name, path, monkeypatch):
    build, inner = BUILDS[name]
    scheme = build() if path == "kernel" else _python(build, monkeypatch)
    size = len(scheme.check.rows) * scheme.total_length
    assert scheme.vector == (path == "kernel" and size >= KERNEL_MIN_LENGTH)
    clean = {seed: _clean_read(scheme, inner, seed) for seed in range(3)}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 2), _faults(scheme))
    def agree(seed, faults):
        y = list(clean[seed])
        weight = 0
        for j, delta in faults:
            if 0 <= y[j] + delta < scheme.q_out:
                y[j] += delta
                weight += abs(delta)
        read = ReadVector.exact(y)
        outcome = scheme.decode(read)
        assert outcome == _level_by_level(scheme, read)
        if weight <= scheme.tau:
            assert outcome.prefix == tuple(clean[seed][: scheme.n])

    agree()


def test_disagreeing_copies_past_the_vote():
    # tau + 1 copies moved alike outvote the rest: the block is then
    # checked against a wrong checksum, and both decoders agree on it
    scheme = api.RecursiveScheme(2, ELL, 2, 1031)
    clean = _clean_read(scheme, None, 7)
    width = scheme.tau * scheme.mtilde
    start = scheme.n + scheme.ntilde
    for t in range(width):
        y = list(clean)
        for r in range(scheme.tau + 1):
            j = start + r * width + t
            y[j] += 1 if y[j] == 0 else -1
        read = ReadVector.exact(y)
        assert scheme.decode(read) == _level_by_level(scheme, read)


def test_tail_rows_weigh_copy_zero():
    # level 2 holds the block's checks less the digits of tail copy 0; the
    # other copies weigh nothing
    scheme = api.RecursiveScheme(2, ELL, 2, 1031)
    tau, start, width = scheme.tau, scheme.n + scheme.ntilde, scheme.tau * scheme.mtilde
    for v, (row, modulus) in enumerate(zip(scheme.check.rows[tau:], scheme.check.moduli[tau:])):
        assert modulus == scheme.ptilde
        assert not any(row[: scheme.n]) and not any(row[start + width :])
        assert row[scheme.n : start] == list(scheme.tail_checker.check.rows)[v]
        digits = [-x % scheme.ptilde for x in row[start : start + width]]
        assert digits == [scheme.q ** (t // tau) % scheme.ptilde if t % tau == v else 0
                          for t in range(width)]


def test_kernel_decision_covers_the_widened_read():
    # a 15-entry head, but 135 entries multiplied: the int64 kernel
    scheme = api.RecursiveScheme(2, ELL, 3, 31)
    assert scheme.n < KERNEL_MIN_LENGTH <= scheme.total_length == scheme.check.n
    assert scheme.vector
