"""Every scheme encodes a fixed, seeded corpus of matrices to a pinned digest.

For each scheme instance (every CLI scheme in its variants, the parity
detector and shortened schemes; alphabets on both sides of the byte cut;
one row and eight; products below the numpy kernel's cut, above it, and
past the int64 bound) the corpus encodes a few random matrices, the
all-zero and the all-top-symbol matrix, and a few matrices the encoder
must refuse.  Each encode is written down as the rows of its output or the
error's type and message, and the SHA-256 of those lines is compared with
the digest below.  A change to any encoded row or refusal changes it.
"""

import hashlib
import random

import dpe_codec as api

BIG_PRIME = 2**31 + 11  # ell * (q - 1)^2 and every product past int64

# (label, builder)
SCHEMES = [
    ("parity", lambda: api.ParityDetectScheme(3, 20, 1)),
    ("parity-wide", lambda: api.ParityDetectScheme(300, 200, 8)),
    ("sec", lambda: api.SingleErrorScheme(2, 15, 1)),
    ("sec-8", lambda: api.SingleErrorScheme(2, 15, 8)),
    ("sec-kernel", lambda: api.SingleErrorScheme(2, 1023, 8)),
    ("sec-wide", lambda: api.SingleErrorScheme(300, 120, 8)),
    ("sec-ded-odd", lambda: api.SecDedScheme(3, 8, 1)),
    ("sec-ded-odd-kernel", lambda: api.SecDedScheme(3, 1023, 8)),
    ("sec-ded-parity", lambda: api.SecDedScheme(2, 20, 8)),
    ("sec-ded-parity-kernel", lambda: api.SecDedScheme(2, 100, 1)),
    ("sec-ded-even", lambda: api.SecDedScheme(4, 20, 8)),
    ("sec-ded-even-kernel", lambda: api.SecDedScheme(4, 300, 1)),
    ("sec-ded-even-wide", lambda: api.SecDedScheme(260, 120, 8)),
    ("dec", lambda: api.DoubleErrorScheme(2, 31, 8)),
    ("dec-kernel", lambda: api.DoubleErrorScheme(2, 1031, 8)),
    ("dec-wide", lambda: api.DoubleErrorScheme(300, 211, 1)),
    ("dec-ted-odd", lambda: api.TripleDetectScheme(3, 13, 1)),
    ("dec-ted-odd-kernel", lambda: api.TripleDetectScheme(3, 211, 8)),
    ("dec-ted-parity", lambda: api.TripleDetectScheme(2, 31, 8)),
    ("dec-ted-parity-kernel", lambda: api.TripleDetectScheme(2, 211, 1)),
    ("dec-ted-even", lambda: api.TripleDetectScheme(4, 61, 8)),
    ("dec-ted-even-kernel", lambda: api.TripleDetectScheme(4, 1031, 8)),
    ("dec-ted-even-wide", lambda: api.TripleDetectScheme(258, 211, 1)),
    ("recursive", lambda: api.RecursiveScheme(2, 1, 1, 13)),
    ("recursive-tau2", lambda: api.RecursiveScheme(2, 8, 2, 31)),
    ("recursive-trimmed", lambda: api.RecursiveScheme(2, 2, 2, 31, trimmed=True)),
    ("recursive-trimmed-tau1", lambda: api.RecursiveScheme(2, 2, 1, 31, trimmed=True)),
    ("recursive-kernel", lambda: api.RecursiveScheme(2, 8, 2, 1031)),
    ("recursive-wide", lambda: api.RecursiveScheme(300, 8, 3, 211)),
    ("hamming", lambda: api.HammingScheme(2, 1, 4, 1)),
    ("hamming-sigma", lambda: api.HammingScheme(2, 3, 8, 2, sigma=1, rho_max=2)),
    ("hamming-kernel", lambda: api.HammingScheme(2, 8, 256, 2)),
    ("hamming-wide", lambda: api.HammingScheme(300, 8, 40, 2)),
    ("large-alphabet", lambda: api.LargeAlphabetScheme(257, 24, 3, 8)),
    ("large-alphabet-small", lambda: api.LargeAlphabetScheme(8, 3, 1, 1)),
    ("large-alphabet-kernel", lambda: api.LargeAlphabetScheme(1031, 250, 3, 8)),
    ("large-alphabet-int64-bound", lambda: api.LargeAlphabetScheme(BIG_PRIME, 30, 2, 8)),
    ("shortened-sec", lambda: api.ShortenedScheme(api.SingleErrorScheme(2, 24, 1), 5)),
    ("shortened-sec-ded-parity",
     lambda: api.ShortenedScheme(api.SecDedScheme(2, 110, 8), 7)),
    ("shortened-dec-kernel",
     lambda: api.ShortenedScheme(api.DoubleErrorScheme(2, 211, 8), 10)),
    ("shortened-dec-ted-parity",
     lambda: api.ShortenedScheme(api.TripleDetectScheme(2, 31, 1), 3)),
]

MATRICES = 3  # random matrices per scheme

DIGEST = "d66b891a5631e0885a711724760853465e16fe08495e480f99b1636d08b052c7"


def _rows(rng: random.Random, label: str, scheme) -> list[list[int]]:
    """A random matrix to encode; the trimmed recursive scheme takes rows
    that already carry the single-error suffix."""
    if label.startswith("recursive-trimmed"):
        sec = api.SingleErrorScheme(scheme.q, scheme.n, scheme.ell)
        rows = [[rng.randrange(sec.q) for _ in range(sec.k)] for _ in range(scheme.ell)]
        return [list(row) for row in sec.encode(api.QMatrix.from_lists(sec.q, rows)).rows]
    return [[rng.randrange(scheme.q) for _ in range(scheme.k)] for _ in range(scheme.ell)]


def _inputs(rng: random.Random, label: str, scheme):
    """The corpus of one scheme instance, as (tag, rows) pairs."""
    q, k, ell = scheme.q, scheme.k, scheme.ell
    for r in range(MATRICES):
        yield f"random {r}", _rows(rng, label, scheme)
    if not label.startswith("recursive-trimmed"):
        yield "zeros", [[0] * k for _ in range(ell)]
        yield "top", [[q - 1] * k for _ in range(ell)]
    else:
        rows = _rows(rng, label, scheme)
        rows[-1][0] = (rows[-1][0] + 1) % q
        yield "refused checksum", rows
    yield "refused width", [[0] * (k + 1) for _ in range(ell)]


def _outcome(scheme, rows) -> str:
    try:
        encoded = scheme.encode(api.QMatrix.from_lists(scheme.q, rows))
    except Exception as exc:  # the corpus pins refusals, messages included
        return f"{type(exc).__name__}: {exc}"
    assert all(type(v) is int for row in encoded.rows for v in row)
    return repr(encoded.rows)


def corpus_lines():
    """One line per encoded matrix: label, tag and the rows or refusal."""
    for index, (label, build) in enumerate(SCHEMES):
        scheme = build()
        rng = random.Random(2000 + index)
        for tag, rows in _inputs(rng, label, scheme):
            yield f"{label}|{tag}|{_outcome(scheme, rows)}"


def test_corpus_covers_both_sides_of_each_cut():
    schemes = [build() for _, build in SCHEMES]
    assert {1, 8} <= {s.ell for s in schemes}
    assert min(s.q for s in schemes) <= 256 < max(s.q for s in schemes)
    checks = [s.check for s in schemes if hasattr(s, "check")]
    checks += [s.code.check for s in schemes if hasattr(s, "code")]
    assert {True, False} <= {c.vector for c in checks}
    assert any(c._wide for c in checks)


def test_corpus_digest():
    lines = list(corpus_lines())
    outcomes = [line.split("|", 2)[2] for line in lines]
    assert any(o.startswith("((") for o in outcomes)
    assert any(o.startswith("ValueError") for o in outcomes)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIGEST, digest
