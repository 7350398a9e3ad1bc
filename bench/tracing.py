"""Span tracing around the public functions and methods of each layer.

The wrappers are installed from outside the package: every binding of a
traced function in the package's modules is replaced (``double`` and
``multi`` import several functions by name), and traced methods are
replaced on their classes.  Each call records one span (name, start, end,
parent) in memory; a span's self time is its duration minus the time of
its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import dpe_codec as api

SCHEME_CLASSES = {
    "sec": "SingleErrorScheme",
    "sec-ded": "SecDedScheme",
    "dec": "DoubleErrorScheme",
    "dec-ted": "TripleDetectScheme",
    "recursive": "RecursiveScheme",
    "hamming": "HammingScheme",
    "large-alphabet": "LargeAlphabetScheme",
}

# span name, defining module, function; rebound wherever the package binds it
FUNCTIONS = (
    ("locators.build", "locators", "build_locators_basic"),
    ("locators.build", "locators", "build_locators_ded"),
    ("single.checksum", "single", "checksum"),
    ("single.locate_unit_error", "single", "locate_unit_error"),
    ("single.encode_row", "single", "encode_row"),
    ("berlekamp.decode_double_error", "berlekamp", "decode_double_error"),
    ("berlekamp.decode_exhaustive", "berlekamp", "decode_exhaustive"),
    ("berlekamp.systematic_encode", "berlekamp", "systematic_encode"),
    ("simulate.compute_clean", "simulate", "compute_clean"),
    ("simulate.inject", "simulate", "inject"),
)

# span name, class, method
METHODS = (
    ("core.check_alphabet", "ReadVector", "check_alphabet"),
    ("core.qmatrix_validate", "QMatrix", "__post_init__"),
    ("double.syndromes", "DoubleErrorScheme", "syndromes"),
    ("double.syndromes", "TripleDetectScheme", "syndromes"),
    ("berlekamp.syndrome", "BerlekampCode", "syndrome"),
    ("hamming.pack", "HammingScheme", "pack"),
    ("hamming.rs_syndromes", "ReedSolomonCode", "syndromes"),
    ("hamming.rs_decode", "ReedSolomonCode", "decode_errors_erasures"),
) + tuple((f"{scheme}.decode", cls, "decode") for scheme, cls in SCHEME_CLASSES.items())


def _locate_hits(counts, args, kwargs, result) -> None:
    counts["single.locate_unit_error.hits"] += result is not None


def _exhaustive_patterns(counts, args, kwargs, result) -> None:
    """Patterns enumerated: the L1 sphere volume, for calls that searched."""
    code, syn = args[0], args[1]
    budget = args[2] if len(args) > 2 else kwargs.get("budget")
    if tuple(syn) != code.zero_syndrome():
        counts["berlekamp.decode_exhaustive.patterns"] += api.sphere_volume_l1(
            code.n, code.tau if budget is None else budget)


OBSERVERS = {
    "single.locate_unit_error": _locate_hits,
    "berlekamp.decode_exhaustive": _exhaustive_patterns,
}


class Tracer:
    """Spans in parallel arrays: names, start and end ns, parent index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        names, start, end, parent, stack = self.names, self.start, self.end, self.parent, self.stack
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> list[tuple[object, str, object]]:
        """Install every wrapper; returns the undo list for `uninstall`."""
        modules = [api] + [m for key, m in sorted(sys.modules.items())
                           if key.startswith("dpe_codec.")]
        undo = []
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[f"dpe_codec.{module}"], attr)
            wrapper = self.wrap(name, original)
            for owner in modules:
                if owner.__dict__.get(attr) is original:
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        # gfp_solve is traced where the Hamming decoder calls it only.
        hamming = sys.modules["dpe_codec.hamming"]
        undo.append((hamming, "gfp_solve", hamming.gfp_solve))
        hamming.gfp_solve = self.wrap("hamming.gfp_solve", hamming.gfp_solve)
        for name, cls_name, attr in METHODS:
            cls = getattr(api, cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, total and self ns; nesting violations; and
        the time of check_alphabet and checksum spans inside sec decodes."""
        n = len(self.names)
        child_ns = [0] * n
        root = [0] * n
        nesting_errors = 0
        names, start, end, parent = self.names, self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p < 0:
                root[i] = i
                continue
            root[i] = root[p]
            child_ns[p] += end[i] - start[i]
            if start[i] < start[p] or end[i] > end[p] or end[i] < start[i]:
                nesting_errors += 1
        per_name: dict[str, list[int]] = {}
        sec_total = sec_parts = 0
        for i in range(n):
            total = end[i] - start[i]
            if child_ns[i] > total:
                nesting_errors += 1
            entry = per_name.setdefault(names[i], [0, 0, 0])
            entry[0] += 1
            entry[1] += total
            entry[2] += total - child_ns[i]
            if names[root[i]] == "sec.decode":
                if i == root[i]:
                    sec_total += total
                elif names[i] in ("core.check_alphabet", "single.checksum"):
                    sec_parts += total
        return {
            "spans": n,
            "per_name": per_name,
            "nesting_errors": nesting_errors,
            "sec_share": sec_parts / sec_total if sec_total else 0.0,
        }


# per-layer metric -> (span name, field) for span-derived values
SPAN_METRICS = {
    "core.check_alphabet.calls": ("core.check_alphabet", "calls"),
    "core.check_alphabet.self_s": ("core.check_alphabet", "self_s"),
    "core.qmatrix_validate.calls": ("core.qmatrix_validate", "calls"),
    "core.qmatrix_validate.self_s": ("core.qmatrix_validate", "self_s"),
    "locators.build.calls": ("locators.build", "calls"),
    "locators.build.self_s": ("locators.build", "self_s"),
    "single.checksum.self_s": ("single.checksum", "self_s"),
    "single.locate_unit_error.calls": ("single.locate_unit_error", "calls"),
    "single.locate_unit_error.self_s": ("single.locate_unit_error", "self_s"),
    "single.encode_row.calls": ("single.encode_row", "calls"),
    "single.encode_row.self_s": ("single.encode_row", "self_s"),
    "double.syndromes.calls": ("double.syndromes", "calls"),
    "double.syndromes.self_s": ("double.syndromes", "self_s"),
    "berlekamp.syndrome.calls": ("berlekamp.syndrome", "calls"),
    "berlekamp.syndrome.self_s": ("berlekamp.syndrome", "self_s"),
    "berlekamp.decode_double_error.calls": ("berlekamp.decode_double_error", "calls"),
    "berlekamp.decode_double_error.self_s": ("berlekamp.decode_double_error", "self_s"),
    "berlekamp.decode_exhaustive.calls": ("berlekamp.decode_exhaustive", "calls"),
    "berlekamp.decode_exhaustive.self_s": ("berlekamp.decode_exhaustive", "self_s"),
    "berlekamp.systematic_encode.self_s": ("berlekamp.systematic_encode", "self_s"),
    "multi.recursive_decode.self_s": ("recursive.decode", "self_s"),
    "multi.large_alphabet_decode.self_s": ("large-alphabet.decode", "self_s"),
    "hamming.pack.self_s": ("hamming.pack", "self_s"),
    "hamming.rs_syndromes.self_s": ("hamming.rs_syndromes", "self_s"),
    "hamming.rs_decode.calls": ("hamming.rs_decode", "calls"),
    "hamming.rs_decode.self_s": ("hamming.rs_decode", "self_s"),
    "hamming.gfp_solve.calls": ("hamming.gfp_solve", "calls"),
    "simulate.compute_clean.calls": ("simulate.compute_clean", "calls"),
    "simulate.compute_clean.self_s": ("simulate.compute_clean", "self_s"),
    "simulate.inject.calls": ("simulate.inject", "calls"),
    "simulate.inject.self_s": ("simulate.inject", "self_s"),
    **{f"{scheme}.decode.self_s": (f"{scheme}.decode", "self_s") for scheme in SCHEME_CLASSES},
}


def per_layer(summary: dict, counts: Counter) -> dict:
    """The per-layer metrics of one traced run, each with its unit."""
    metrics = {}
    for key, (span, kind) in SPAN_METRICS.items():
        calls, _, self_ns = summary["per_name"].get(span, (0, 0, 0))
        if kind == "calls":
            metrics[key] = {"value": calls, "unit": "count"}
        else:
            metrics[key] = {"value": self_ns / 1e9, "unit": "s"}
    locate_calls = metrics["single.locate_unit_error.calls"]["value"]
    metrics["single.locate_unit_error.hit_ratio"] = {
        "value": counts["single.locate_unit_error.hits"] / locate_calls if locate_calls else 0.0,
        "unit": "ratio"}
    metrics["berlekamp.decode_exhaustive.patterns"] = {
        "value": counts["berlekamp.decode_exhaustive.patterns"], "unit": "count"}
    metrics["sec.check_alphabet_checksum_share"] = {"value": summary["sec_share"], "unit": "ratio"}
    metrics["trace.spans"] = {"value": summary["spans"], "unit": "count"}
    return metrics
