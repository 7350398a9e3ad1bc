"""Every scheme decodes a fixed, seeded corpus of reads to a pinned digest.

For each scheme instance (the seven schemes in their variants, the parity
detector and two shortened schemes, on both sides of the read kernel's
cut) the corpus holds reads with 0 to tau + 2 unit drifts, uniformly
random reads, reads the decoder must refuse, and, for the Hamming schemes
with an erasure budget, reads with erased entries.  Each decode is written
down as the outcome's repr or the error's type and message, and the
SHA-256 of those lines is compared with the digest below.  A change to how
any read decodes, fails or is refused changes the digest.
"""

import hashlib
import random

import dpe_codec as api
from dpe_codec.core import ReadVector

# (label, builder, correction budget): the budget sets how many drifts the
# corpus draws (0 .. budget + 2)
SCHEMES = [
    ("parity", lambda: api.ParityDetectScheme(3, 20, 2), 0),
    ("parity-kernel", lambda: api.ParityDetectScheme(2, 200, 2), 0),
    ("sec", lambda: api.SingleErrorScheme(2, 15, 2), 1),
    ("sec-kernel", lambda: api.SingleErrorScheme(2, 100, 2), 1),
    ("sec-ded-odd", lambda: api.SecDedScheme(3, 8, 2), 1),
    ("sec-ded-parity", lambda: api.SecDedScheme(2, 20, 2), 1),
    ("sec-ded-even", lambda: api.SecDedScheme(4, 20, 2), 1),
    ("sec-ded-kernel", lambda: api.SecDedScheme(3, 100, 2), 1),
    ("sec-ded-parity-kernel", lambda: api.SecDedScheme(2, 100, 2), 1),
    ("dec", lambda: api.DoubleErrorScheme(2, 31, 8), 2),
    ("dec-kernel", lambda: api.DoubleErrorScheme(2, 211, 2), 2),
    ("dec-ted-odd", lambda: api.TripleDetectScheme(3, 13, 2), 2),
    ("dec-ted-parity", lambda: api.TripleDetectScheme(2, 31, 2), 2),
    ("dec-ted-even", lambda: api.TripleDetectScheme(4, 61, 2), 2),
    ("dec-ted-odd-61", lambda: api.TripleDetectScheme(3, 61, 8), 2),
    ("dec-ted-kernel", lambda: api.TripleDetectScheme(3, 211, 2), 2),
    ("dec-ted-parity-kernel", lambda: api.TripleDetectScheme(2, 211, 2), 2),
    ("recursive", lambda: api.RecursiveScheme(2, 2, 1, 13), 1),
    ("recursive-tau2", lambda: api.RecursiveScheme(2, 2, 2, 31), 2),
    ("recursive-trimmed", lambda: api.RecursiveScheme(2, 2, 2, 31, trimmed=True), 2),
    ("recursive-kernel", lambda: api.RecursiveScheme(2, 2, 2, 211), 2),
    ("hamming", lambda: api.HammingScheme(2, 2, 4, 1), 1),
    ("hamming-erasures", lambda: api.HammingScheme(2, 2, 4, 1, rho_max=1), 1),
    ("hamming-sigma", lambda: api.HammingScheme(2, 3, 8, 2, sigma=1, rho_max=2), 2),
    ("hamming-kernel", lambda: api.HammingScheme(2, 2, 100, 1), 1),
    ("hamming-kernel-erasures", lambda: api.HammingScheme(2, 2, 40, 2, rho_max=2), 2),
    ("large-alphabet", lambda: api.LargeAlphabetScheme(257, 24, 3, 8), 3),
    ("large-alphabet-small", lambda: api.LargeAlphabetScheme(8, 3, 1, 2), 1),
    ("large-alphabet-kernel", lambda: api.LargeAlphabetScheme(257, 100, 1, 2), 1),
    ("shortened-sec", lambda: api.ShortenedScheme(api.SingleErrorScheme(2, 24, 2), 5), 1),
    ("shortened-dec-kernel",
     lambda: api.ShortenedScheme(api.DoubleErrorScheme(2, 211, 2), 10), 2),
]

PRODUCTS = 4  # programmed inputs u per scheme
DRIFT_SEEDS = 8  # drift reads per input and per number of drifts
RANDOM_READS = 40

DIGEST = "a33e6db687767e1a70fd2a7a4621bf0eeeef0e8b2f3bcbbedd06a07c285cbd2b"


def _length(scheme) -> int:
    return getattr(scheme, "total_length", scheme.n)


def _matrix(rng: random.Random, label: str, scheme) -> api.QMatrix:
    """A random matrix to encode; the trimmed recursive scheme takes rows
    that already carry the single-error suffix."""
    if label == "recursive-trimmed":
        sec = api.SingleErrorScheme(scheme.q, scheme.n, scheme.ell)
        rows = [[rng.randrange(sec.q) for _ in range(sec.k)] for _ in range(scheme.ell)]
        return sec.encode(api.QMatrix.from_lists(sec.q, rows))
    rows = [[rng.randrange(scheme.q) for _ in range(scheme.k)] for _ in range(scheme.ell)]
    return api.QMatrix.from_lists(scheme.q, rows)


def _reads(rng: random.Random, label: str, scheme, budget: int):
    """The corpus of one scheme instance, as (tag, read) pairs."""
    n, q_out = _length(scheme), scheme.q_out
    encoded = scheme.encode(_matrix(rng, label, scheme))
    products = []
    for _ in range(PRODUCTS):
        u = [rng.randrange(scheme.q) for _ in range(scheme.ell)]
        products.append(api.compute_clean(u, encoded))
    for p, clean in enumerate(products):
        for t in range(budget + 3):
            for s in range(DRIFT_SEEDS):
                model = api.FaultModel.l1_drift(t, seed=rng.randrange(2**32))
                yield f"drift {p} {t} {s}", api.inject(clean, model, q_out).read
    for r in range(RANDOM_READS):
        yield f"random {r}", ReadVector.exact([rng.randrange(q_out) for _ in range(n)])
    clean = products[0]
    for tag, bad in [("above", q_out), ("negative", -1), ("float", 1.5), ("none", None),
                     ("string", "3"), ("huge", 2**70)]:
        entries = list(clean)
        entries[rng.randrange(n)] = bad
        yield f"refused {tag}", ReadVector.exact(entries)
    yield "refused short", ReadVector.exact(clean[:-1])
    yield "refused long", ReadVector.exact(list(clean) + [0])
    rho_max = getattr(scheme, "rho_max", 0)
    yield "erasure one" if rho_max else "refused erasure", ReadVector.with_erasures(
        clean, [rng.randrange(n)])
    if rho_max:
        for p, clean in enumerate(products):
            for rho in range(1, rho_max + 2):
                for t in range(budget + 2):
                    model = api.FaultModel.l1_drift(t, seed=rng.randrange(2**32))
                    y = list(api.inject(clean, model, q_out).read.entries)
                    erased = rng.sample(range(n), rho)
                    yield f"erased {p} {rho} {t}", ReadVector.with_erasures(y, erased)
                    # placeholders that are not 0, nor even integers
                    for placeholder in (7, None):
                        entries = [placeholder if j in erased else v for j, v in enumerate(y)]
                        yield (f"placeholder {p} {rho} {t} {placeholder!r}",
                               ReadVector(tuple(entries), tuple(erased)))


def _outcome(scheme, read: ReadVector) -> str:
    try:
        return repr(scheme.decode(read))
    except Exception as exc:  # the corpus pins refusals, messages included
        return f"{type(exc).__name__}: {exc}"


def corpus_lines():
    """One line per decoded read: label, tag and the outcome or refusal."""
    for index, (label, build, budget) in enumerate(SCHEMES):
        scheme = build()
        rng = random.Random(1000 + index)
        for tag, read in _reads(rng, label, scheme, budget):
            yield f"{label}|{tag}|{_outcome(scheme, read)}"


def test_corpus_covers_both_sides_of_the_kernel_cut():
    paths = {getattr(build(), "vector", None) for _, build, _ in SCHEMES}
    assert {True, False} <= paths


def test_corpus_digest():
    lines = list(corpus_lines())
    outcomes = [line.split("|", 2)[2] for line in lines]
    # the corpus exercises every kind of outcome
    assert any(o.startswith("DecodeOutcome([") for o in outcomes)
    assert 'DecodeOutcome("e")' in outcomes
    assert any(o.startswith("ValueError") for o in outcomes)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIGEST
