"""Arithmetic-level simulation of a dot-product engine read: the exact
product, plus configurable fault injection (unit drifts, bounded-magnitude
stuck cells, shorted columns read as erasures, or hand-placed faults).

Injected reads are always coerced back into the output alphabet; the
pre-coercion value is kept in the fault log.  Everything is deterministic
under the model's seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from .core import QMatrix, ReadVector, output_alphabet

KIND_DRIFT = "l1_drift"
KIND_FLIP = "symbol_flip"
KIND_SHORT = "short_column"
KIND_MANUAL = "manual"


def compute_clean(u: Sequence[int], matrix: QMatrix) -> list[int]:
    """Exact integer product of an input vector with the programmed matrix."""
    if len(u) != matrix.ell:
        raise ValueError(f"input length {len(u)} != row count {matrix.ell}")
    for v in u:
        if not 0 <= v < matrix.q:
            raise ValueError(f"input entry {v} is outside [0, {matrix.q})")
    bound = output_alphabet(matrix.q, matrix.ell)
    c = [
        sum(u[i] * matrix.rows[i][j] for i in range(matrix.ell))
        for j in range(matrix.ncols)
    ]
    assert all(0 <= v < bound for v in c)
    return c


def _require_int(what: str, value) -> int:
    """`value` itself, if it is an int (a bool is not)."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class FaultModel:
    kind: str
    seed: int = 0
    budget: int = 0
    count: int = 0
    magnitude: int = 0
    deltas: tuple[tuple[int, int], ...] = field(default=())
    erase: tuple[int, ...] = field(default=())

    @classmethod
    def l1_drift(cls, budget: int, seed: int = 0) -> "FaultModel":
        if budget < 0:
            raise ValueError("budget must be >= 0")
        return cls(KIND_DRIFT, seed=seed, budget=budget)

    @classmethod
    def symbol_flip(cls, count: int, magnitude: int, seed: int = 0) -> "FaultModel":
        if count < 0 or magnitude < 1:
            raise ValueError("need count >= 0 and magnitude >= 1")
        return cls(KIND_FLIP, seed=seed, count=count, magnitude=magnitude)

    @classmethod
    def short_column(cls, count: int, seed: int = 0) -> "FaultModel":
        if count < 0:
            raise ValueError("count must be >= 0")
        return cls(KIND_SHORT, seed=seed, count=count)

    @classmethod
    def manual(cls, deltas: Sequence[Sequence[int]] = (), erase: Sequence[int] = ()) -> "FaultModel":
        """Hand-placed faults: (position, delta) pairs and erased positions,
        each an int."""
        if not isinstance(deltas, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in deltas
        ):
            raise ValueError(f"deltas must be a list of [position, delta] pairs, got {deltas!r}")
        if not isinstance(erase, (list, tuple)):
            raise ValueError(f"erase must be a list of positions, got {erase!r}")
        for pos, delta in deltas:
            _require_int("fault position", pos)
            _require_int("fault delta", delta)
        for pos in erase:
            _require_int("erasure position", pos)
        return cls(KIND_MANUAL, deltas=tuple(map(tuple, deltas)), erase=tuple(erase))

    def to_json(self) -> dict:
        data: dict = {"kind": self.kind}
        if self.kind == KIND_DRIFT:
            data["t"] = self.budget
        elif self.kind == KIND_FLIP:
            data["count"] = self.count
            data["magnitude"] = self.magnitude
        elif self.kind == KIND_SHORT:
            data["count"] = self.count
        elif self.kind == KIND_MANUAL:
            data["deltas"] = [list(pair) for pair in self.deltas]
            data["erase"] = list(self.erase)
        if self.kind != KIND_MANUAL:
            data["seed"] = self.seed
        return data

    @classmethod
    def from_json(cls, data: dict) -> "FaultModel":
        """The model of a fault spec: a JSON object whose counts, seed,
        positions and deltas are ints."""
        if not isinstance(data, dict):
            raise ValueError(f"fault spec must be a JSON object, got {type(data).__name__}")

        def number(key: str, default: int | None = None) -> int:
            if key in data:
                return _require_int(f"fault spec: {key}", data[key])
            if default is None:
                raise ValueError(f"fault spec: missing field {key!r}")
            return default

        kind = data.get("kind")
        if kind == KIND_DRIFT:
            return cls.l1_drift(number("t"), number("seed", 0))
        if kind == KIND_FLIP:
            return cls.symbol_flip(number("count"), number("magnitude"), number("seed", 0))
        if kind == KIND_SHORT:
            return cls.short_column(number("count"), number("seed", 0))
        if kind == KIND_MANUAL:
            return cls.manual(data.get("deltas", ()), data.get("erase", ()))
        raise ValueError(f"unknown fault kind {kind!r}")


@dataclass(frozen=True)
class SimReport:
    clean: tuple[int, ...]
    error: tuple[int, ...]
    read: ReadVector
    log: tuple[dict, ...]


def inject(c: Sequence[int], model: FaultModel, alphabet: int) -> SimReport:
    """Apply a fault model to a clean output vector in Sigma_alphabet^n."""
    n = len(c)
    if any(not 0 <= v < alphabet for v in c):
        raise ValueError("clean vector is outside the output alphabet")
    y = list(c)
    log: list[dict] = []
    erased: set[int] = set()
    rng = random.Random(model.seed)

    if model.kind == KIND_DRIFT:
        for step in range(model.budget):
            pos = rng.randrange(n)
            delta = rng.choice((1, -1))
            if not 0 <= y[pos] + delta < alphabet:
                delta = -delta
            y[pos] += delta
            log.append({"fault": "drift", "step": step, "position": pos, "delta": delta})
    elif model.kind == KIND_FLIP:
        if model.count > n:
            raise ValueError(f"cannot flip {model.count} of {n} positions")
        for pos in sorted(rng.sample(range(n), model.count)):
            delta = rng.randrange(1, model.magnitude + 1) * rng.choice((1, -1))
            raw = y[pos] + delta
            y[pos] = min(max(raw, 0), alphabet - 1)
            log.append({"fault": "flip", "position": pos, "delta": delta, "raw": raw,
                        "applied": y[pos] - c[pos]})
    elif model.kind == KIND_SHORT:
        if model.count > n:
            raise ValueError(f"cannot short {model.count} of {n} columns")
        for pos in sorted(rng.sample(range(n), model.count)):
            erased.add(pos)
            log.append({"fault": "short", "position": pos})
    elif model.kind == KIND_MANUAL:
        for pos, delta in model.deltas:
            if not 0 <= pos < n:
                raise ValueError(f"fault position {pos} is outside [0, {n})")
            raw = y[pos] + delta
            y[pos] = min(max(raw, 0), alphabet - 1)
            log.append({"fault": "manual", "position": pos, "delta": delta, "raw": raw,
                        "applied": y[pos] - c[pos]})
        for pos in model.erase:
            if not 0 <= pos < n:
                raise ValueError(f"erasure position {pos} is outside [0, {n})")
            erased.add(pos)
            log.append({"fault": "erase", "position": pos})
    else:
        raise ValueError(f"unknown fault kind {model.kind!r}")

    error = tuple(0 if j in erased else y[j] - c[j] for j in range(n))
    read = ReadVector.with_erasures(y, erased)
    return SimReport(clean=tuple(c), error=error, read=read, log=tuple(log))
