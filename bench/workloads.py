"""Seeded inputs and closed-loop runners for the benchmark workloads.

Every workload runs in one process with one caller: the next read starts
only after the previous one returned.  Inputs come from a
``random.Random`` seeded with the run's seed, so a seed always yields the
same matrices, products and faults; how many of them a run gets through
depends only on how fast the program is.  Every read is a fresh product
u . A for a freshly drawn u, so no two reads share an object.

The library is always reached through attribute lookups on the
``dpe_codec`` package and its classes at call time, so the wrappers that
the traced run installs see every call.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import dpe_codec as api

ELL = 8  # rows programmed into every matrix
SETUP_REPS = 20  # timed set-ups, spread evenly over the run; median reported
STREAM_BLOCK = 40  # read-stream reads per scheme per block, 10% of them faulty
STRATA = 4  # multi-error support strata per scheme per block
THETA = ELL  # Hamming flip bound: Q - 1 = ell * (q - 1)^2 for q = 2
REFERENCE_NS = 100_000  # nominal time of one reference pass; see reference_ns


@dataclass(frozen=True)
class Case:
    """One scheme configuration.

    `tau` is the design budget in errors; `theta` > 1 marks the Hamming
    metric, where one error is a flip of magnitude <= theta.  `space` gives the positions the scheme's search
    decoder scans, as (count, map to read columns); None: the read itself.
    `per_stratum` is the scheme's multi-error reads per support stratum.
    """

    scheme: str
    build: Callable[[], object]
    tau: int
    theta: int = 1
    space: Callable[[object], tuple[int, Callable | None]] | None = None
    per_stratum: int = 1


def _sec():
    return api.SingleErrorScheme(2, 1023, ELL)


def _sec_ded():
    return api.SecDedScheme(3, 1023, ELL)  # odd q: the odd-locator variant


def _dec():
    return api.DoubleErrorScheme(2, 1031, ELL)


def _dec_ted():
    return api.TripleDetectScheme(4, 1031, ELL)  # even q > 2: mixed radix


def _recursive(p, tau):
    return lambda: api.RecursiveScheme(2, ELL, tau, p)


def _hamming(k, tau):
    return lambda: api.HammingScheme(2, ELL, k, tau)


def _large_alphabet(q, n, tau):
    return lambda: api.LargeAlphabetScheme(q, n, tau, ELL)


def _head_and_planes(scheme):
    """Recursive: the head and its checksum planes, where the search decoder
    runs; the repetition tail after them is decoded by a median vote."""
    return scheme.n + scheme.ntilde, None


def _packed_symbols(scheme):
    """Hamming: the decoder scans supports over the packed symbols.  Symbol
    k + v collects the redundancy columns k + v + j * (ntilde - k)."""
    block = scheme.ntilde - scheme.k

    def to_columns(rng, symbols):
        return [s if s < scheme.k else s + block * rng.randrange(scheme.m) for s in symbols]

    return scheme.ntilde, to_columns


# The production-size large-alphabet instance builds and encodes, but its
# decoder refuses every read at the enumeration guard; those refusals are
# counted as failures.
READ_STREAM = (
    Case("sec", _sec, 1),
    Case("sec-ded", _sec_ded, 1),
    Case("dec", _dec, 2),
    Case("dec-ted", _dec_ted, 2),
    Case("recursive", _recursive(1031, 2), 2),
    Case("hamming", _hamming(256, 2), 2, THETA),
    Case("large-alphabet", _large_alphabet(1031, 250, 3), 3),
)

# The closed-form decoders take three reads per stratum: they cost little,
# their rates then rest on more reads, and the pooled median latency falls
# inside their cluster instead of in its tail.
MULTI_ERROR = (
    Case("sec", _sec, 1, per_stratum=3),
    Case("sec-ded", _sec_ded, 1, per_stratum=3),
    Case("dec", _dec, 2, per_stratum=3),
    Case("dec-ted", _dec_ted, 2, per_stratum=3),
    Case("recursive", _recursive(31, 3), 3, space=_head_and_planes),
    Case("hamming", _hamming(32, 3), 3, THETA, space=_packed_symbols),
    Case("large-alphabet", _large_alphabet(257, 24, 3), 3),
)

# -- inputs ------------------------------------------------------------------


def random_rows(rng: random.Random, scheme) -> list[list[int]]:
    return [rng.choices(range(scheme.q), k=scheme.k) for _ in range(ELL)]


def random_input(rng: random.Random, scheme) -> list[int]:
    return rng.choices(range(scheme.q), k=ELL)


def unrank_support(rank: int, n: int, t: int) -> list[int]:
    """The `rank`-th t-subset of range(n) in lexicographic order."""
    support = []
    j = 0
    for remaining in range(t, 0, -1):
        while rank >= (below := math.comb(n - j - 1, remaining - 1)):
            rank -= below
            j += 1
        support.append(j)
        j += 1
    return support


def faulty_read(rng, clean, positions, scheme, case):
    """Inject one nonzero error per position, of magnitude <= theta, keeping
    each entry inside the output alphabet so the applied error is exact."""
    q_out = scheme.q_out
    deltas = []
    for pos in positions:
        sign = rng.choice((1, -1))
        if (q_out - 1 - clean[pos] if sign > 0 else clean[pos]) < 1:
            sign = -sign
        room = q_out - 1 - clean[pos] if sign > 0 else clean[pos]
        deltas.append((pos, sign * rng.randint(1, min(case.theta, room))))
    return api.inject(clean, api.FaultModel.manual(deltas), q_out).read


def fresh_product(rng: random.Random, stream: "Stream") -> tuple[list[int], tuple]:
    """The exact product u . A of a freshly drawn u, and its data prefix."""
    clean = api.compute_clean(random_input(rng, stream.scheme), stream.encoded)
    return clean, tuple(clean[: stream.scheme.k])


@dataclass
class Stream:
    """One scheme in a run: its programmed matrix and its decode tallies."""

    case: Case
    scheme: object = None
    refusal: str | None = None  # why the scheme could not be built or programmed
    encoded: object = None
    reads: int = 0
    decode_ns: int = 0
    block_ns: list = field(default_factory=list)  # scaled decode time of each block


def set_up(cases, seed: int) -> tuple[list[Stream], float]:
    """Build every scheme and program its matrix; return the streams and
    the time that took.  It starts after a garbage collection.  Random rows
    are inputs, so generating them is not timed."""
    gc.collect()
    rng = random.Random(seed)
    streams = []
    total = 0.0
    for case in cases:
        stream = Stream(case)
        streams.append(stream)
        try:
            t0 = time.perf_counter()
            stream.scheme = case.build()
            total += time.perf_counter() - t0
            rows = random_rows(rng, stream.scheme)
            t0 = time.perf_counter()
            stream.encoded = stream.scheme.encode(api.QMatrix.from_lists(stream.scheme.q, rows))
            total += time.perf_counter() - t0
        except Exception as exc:  # every read of a refused scheme then fails
            stream.refusal = f"{type(exc).__name__}: {exc}"
    return streams, total


# -- measurement ---------------------------------------------------------------

_REFERENCE_RNG = random.Random(0x5EF)
_REFERENCE_VALUES = [_REFERENCE_RNG.randrange(9) for _ in range(1023)]
_REFERENCE_WEIGHTS = [_REFERENCE_RNG.randrange(1, 1031) for _ in range(1023)]


def reference_ns() -> int:
    """Time one pass of a fixed pure-Python kernel shaped like a decode:
    a range check, a weighted sum mod p and a slice over 1023 entries.

    The shared host's speed drifts by up to half over minutes.  Every
    measured time is taken between two reference passes and scaled by
    REFERENCE_NS over their mean, so it reads as it would on a machine where
    one pass takes REFERENCE_NS.  The kernel is part of the benchmark, not
    of the library, so a change to the library moves the scaled times."""
    t0 = time.perf_counter_ns()
    if any(v < 0 or v > 8 for v in _REFERENCE_VALUES):
        raise AssertionError("reference data changed")
    sum(v * w for v, w in zip(_REFERENCE_VALUES, _REFERENCE_WEIGHTS)) % 1031
    tuple(_REFERENCE_VALUES[:256])
    return time.perf_counter_ns() - t0


def reference_median(passes: int = 9) -> float:
    return statistics.median(reference_ns() for _ in range(passes))


def scaled(ns: float, before: float, after: float) -> float:
    """`ns` measured between reference passes `before` and `after`, as it
    would read where a pass takes REFERENCE_NS."""
    return ns * 2 * REFERENCE_NS / (before + after)


def scaled_set_up(cases, seed: int) -> tuple[list[Stream], float]:
    """set_up with its time scaled by the reference medians around it."""
    before = reference_median()
    streams, took = set_up(cases, seed)
    return streams, scaled(took, before, reference_median())


@dataclass
class Tally:
    """Outcome counts and timings of one run."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # decodes that returned a wrong prefix within budget
    dirty: int = 0  # reads that carried a nonzero error
    latencies_ns: list = field(default_factory=list)  # scaled; correct decodes only
    references: list = field(default_factory=list)  # reference pass times, ns
    failures: dict = field(default_factory=dict)

    def fail(self, scheme: str, why: str, count: int = 1) -> None:
        self.failed += count
        entry = self.failures.setdefault(scheme, {"count": 0, "first": why[:200]})
        entry["count"] += count


def refuse(tally: Tally, stream: Stream, count: int) -> None:
    """Count `count` reads of a scheme that was refused at set-up."""
    stream.reads += count
    tally.attempted += count
    tally.fail(stream.case.scheme, stream.refusal, count)


def decode_timed(stream: Stream, read):
    """(outcome or exception, elapsed ns) of one decode call."""
    stream.reads += 1
    t0 = time.perf_counter_ns()
    try:
        out = stream.scheme.decode(read)
    except Exception as exc:  # a refusal or crash fails the read; the run goes on
        out = exc
    ns = time.perf_counter_ns() - t0
    stream.decode_ns += ns
    return out, ns


def check(tally: Tally, stream: Stream, out, expected, ns: float) -> None:
    """Tally one within-budget read's outcome against its expected prefix."""
    tally.attempted += 1
    if isinstance(out, Exception):
        tally.fail(stream.case.scheme, f"{type(out).__name__}: {out}")
    elif out.prefix != expected:
        tally.wrong += 1
        tally.fail(stream.case.scheme, f"wrong prefix {out!r}")
    else:
        tally.latencies_ns.append(ns)


def decode_batch(tally: Tally, stream: Stream, batch) -> None:
    """Decode and check one block's reads of a scheme back to back, each
    between two reference passes, and record the block's scaled decode time."""
    total = 0.0
    before = reference_ns()
    for read, expected in batch:
        out, ns = decode_timed(stream, read)
        after = reference_ns()
        ns = scaled(ns, before, after)
        before = after
        tally.references.append(after)
        total += ns
        check(tally, stream, out, expected, ns)
    stream.block_ns.append(total)


def stream_block(rng, streams: list[Stream], tally: Tally) -> None:
    """read-stream: per scheme, STREAM_BLOCK reads of which one in ten
    carries one within-budget fault (a unit drift, or a flip of magnitude
    <= theta for hamming).  Fault i of a block lands in the i-th equal slice
    of the read, so every block holds the same mix of work."""
    dirty = STREAM_BLOCK // 10
    for stream in streams:
        if stream.refusal:
            refuse(tally, stream, STREAM_BLOCK)
            continue
        slices = dict(zip(rng.sample(range(STREAM_BLOCK), dirty), range(dirty)))
        batch = []
        for i in range(STREAM_BLOCK):
            clean, expected = fresh_product(rng, stream)
            if i in slices:
                pos = (slices[i] * len(clean) + rng.randrange(len(clean))) // dirty
                read = faulty_read(rng, clean, [pos], stream.scheme, stream.case)
            else:
                read = api.ReadVector.exact(clean)
            batch.append((read, expected))
        tally.dirty += dirty
        decode_batch(tally, stream, batch)


def multi_error_block(rng, streams: list[Stream], tally: Tally) -> None:
    """multi-error: per scheme, `per_stratum` reads from each of STRATA
    strata, each with exactly tau errors at distinct positions; each
    scheme's reads are decoded back to back.
    Read i draws its support from the i-th of STRATA equal slices of all
    supports in lexicographic order, over the positions the scheme's decoder
    scans, so every block costs about the same; a search decoder's cost
    depends on where the support falls in its scan."""
    for stream in streams:
        case = stream.case
        if stream.refusal:
            refuse(tally, stream, STRATA * case.per_stratum)
            continue
        strata = list(range(STRATA))
        rng.shuffle(strata)
        batch = []
        for stratum in strata * case.per_stratum:
            clean, expected = fresh_product(rng, stream)
            n, to_columns = case.space(stream.scheme) if case.space else (len(clean), None)
            total = math.comb(n, case.tau)
            rank = min(int((stratum + rng.random()) * total / STRATA), total - 1)
            support = unrank_support(rank, n, case.tau)
            if to_columns:
                support = to_columns(rng, support)
            read = faulty_read(rng, clean, support, stream.scheme, case)
            batch.append((read, expected))
        tally.dirty += len(batch)
        decode_batch(tally, stream, batch)


WORKLOADS = {
    # name: (cases, block function, traced quota in blocks)
    "read-stream": (READ_STREAM, stream_block, 25),
    "multi-error": (MULTI_ERROR, multi_error_block, 2),
}


@dataclass
class Run:
    streams: list
    tally: Tally
    setup_s: list  # the timed set-ups, in seconds
    blocks: int
    loop_s: float


def run(name: str, seed: int, seconds: float, quota: int | None = None) -> Run:
    """Run one workload: time-bounded, or exactly `quota` blocks when given
    (the traced run, whose work counts must repeat exactly).

    A first, untimed set-up lets the process heap grow to size.  A timed
    run then sets up SETUP_REPS times, once at the start and then at even
    intervals between blocks, so its set-up time is sampled across the
    same stretch of machine time as its reads."""
    cases, block, _ = WORKLOADS[name]
    set_up(cases, seed)
    streams, first = scaled_set_up(cases, seed)
    setups = [first]
    warm = random.Random(seed ^ 0x5EED)
    for stream in streams:  # warm-up, untimed and uncounted
        if stream.refusal:
            continue
        try:
            stream.scheme.decode(api.ReadVector.exact(fresh_product(warm, stream)[0]))
        except Exception:  # counted when the measured reads hit it
            pass
    rng = random.Random(seed ^ 0xB10C)
    tally = Tally()
    blocks = 0
    start = time.perf_counter()
    while True:
        block(rng, streams, tally)
        blocks += 1
        if quota is not None:
            if blocks >= quota:
                break
            continue
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
        if len(setups) < SETUP_REPS and elapsed >= len(setups) * seconds / SETUP_REPS:
            setups.append(scaled_set_up(cases, seed)[1])
    return Run(streams, tally, setups, blocks, time.perf_counter() - start)


def percentiles(latencies_ns: list[float]) -> dict:
    """p50/p90/p99 of correct-decode latency in microseconds, each with the
    sample count and the number of samples beyond it."""
    cuts = statistics.quantiles(latencies_ns, n=100) if len(latencies_ns) > 1 else [0.0] * 99
    out = {}
    for p in (50, 90, 99):
        value = cuts[p - 1] / 1e3
        beyond = sum(1 for v in latencies_ns if v / 1e3 > value)
        out[f"read_us.p{p}"] = {"value": value, "samples": len(latencies_ns), "beyond": beyond}
    return out


def end_to_end(result: Run) -> tuple[dict, dict]:
    """(metrics for the result line, details with sample counts)."""
    metrics = {"setup_s": {"value": statistics.median(result.setup_s), "unit": "s"}}
    unscaled = {}
    for stream in result.streams:
        # every block gives a scheme the same reads, so the median block
        # stands for the run; one stalled block does not move it
        rate = (stream.reads / len(stream.block_ns) * 1e9 / statistics.median(stream.block_ns)
                if stream.block_ns else 0.0)
        metrics[f"{stream.case.scheme}.reads_per_s"] = {"value": rate, "unit": "1/s"}
        unscaled[stream.case.scheme] = stream.reads * 1e9 / stream.decode_ns if stream.decode_ns else 0.0
    tiles = percentiles(result.tally.latencies_ns)
    for key, entry in tiles.items():
        metrics[key] = {"value": entry["value"], "unit": "us"}
    details = {
        "blocks": result.blocks,
        "loop_s": result.loop_s,
        "setups": len(result.setup_s),
        "reference_us": {"nominal": REFERENCE_NS / 1e3, "median": statistics.median(
            result.tally.references) / 1e3 if result.tally.references else None},
        "unscaled_reads_per_s": unscaled,
        "reads": {s.case.scheme: s.reads for s in result.streams},
        "percentile_samples": {k: {"samples": v["samples"], "beyond": v["beyond"]}
                               for k, v in tiles.items()},
        "dirty_read_ratio": result.tally.dirty / max(result.tally.attempted, 1),
        "failures": result.tally.failures,
    }
    return metrics, details
