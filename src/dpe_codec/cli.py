"""Command-line harness: build schemes, encode matrices, simulate reads,
decode, and run brute-force audits.

Exit codes: 0 success, 1 usage or input error, 2 decode failure ("e").
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .basemath import sphere_volume_l1
from .core import ReadVector, output_alphabet
from .double import DoubleErrorScheme, TripleDetectScheme
from .formats import read_json, read_matrix, read_vector, write_json, write_matrix, write_vector
from .hamming import HammingScheme
from .locators import Locators
from .multi import LargeAlphabetScheme, RecursiveScheme
from .oracles import (
    SWEEP_GUARD,
    enumerate_induced_code,
    guard_limit,
    induced_min_distance,
    iter_l1_errors,
    linear_codewords,
    nearest_prefix_decode,
)
from .simulate import FaultModel, compute_clean, inject
from .single import SecDedScheme, SingleErrorScheme

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DETECTED = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for "e" here.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme as the CLI builds, records and audits it.

    Fields are named as in the sidecar.  `args` lists the constructor's
    positional parameters, `needs` those a build cannot do without, and
    `params` the sidecar fields written after the common ones; the
    sidecar's `n` is the length of the scheme's reads, `check.n`.  The
    scheme corrects `correct` L1 errors (None: its own `tau`) and detects
    `extra_detect` more.
    """

    cls: type
    args: tuple[str, ...]
    needs: tuple[str, ...]
    params: tuple[str, ...]
    correct: int | None = None
    extra_detect: int = 0


_FLAG = "allow_suffix_ambiguity"
SCHEMES = {
    "sec": SchemeSpec(SingleErrorScheme, ("q", "n", "ell", _FLAG), ("q", "n", "ell"),
                      ("locators",), correct=1),
    "sec-ded": SchemeSpec(SecDedScheme, ("q", "n", "ell", "variant", _FLAG), ("q", "n", "ell"),
                          ("locators", "variant"), correct=1, extra_detect=1),
    "dec": SchemeSpec(DoubleErrorScheme, ("q", "p", "ell", _FLAG), ("q", "p", "ell"),
                      ("locators", "p"), correct=2),
    "dec-ted": SchemeSpec(TripleDetectScheme, ("q", "p", "ell", "variant", _FLAG),
                          ("q", "p", "ell"), ("locators", "variant", "p"),
                          correct=2, extra_detect=1),
    "recursive": SchemeSpec(RecursiveScheme, ("q", "ell", "tau", "p", "trimmed"),
                            ("q", "p", "ell", "tau"), ("locators", "p", "tau", "trimmed")),
    "large-alphabet": SchemeSpec(LargeAlphabetScheme, ("q", "n", "tau", "ell"),
                                 ("q", "n", "ell", "tau"), ("p", "tau")),
    "hamming": SchemeSpec(HammingScheme, ("q", "ell", "k", "tau", "theta", "sigma", "rho", "p"),
                          ("q", "ell", "tau"), ("p", "tau", "theta", "sigma", "rho", "inner")),
}
SCHEME_NAMES = tuple(SCHEMES)

# sidecar fields that a scheme does not hold under their own name
_SIDECAR_VALUES = {
    "locators": lambda s: s.loc.to_json(),
    "rho": lambda s: s.rho_max,
    "inner": lambda s: {"length": s.ntilde, "k": s.inner.k, "distance": s.inner.d},
}


def build(name: str, fields: dict):
    """The scheme `name` from `fields`, keyed by sidecar field; an absent
    field passes None.  The flags and a sidecar both build through here."""
    spec = SCHEMES[name]
    missing = [key for key in spec.needs if fields.get(key) is None]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join('--' + key for key in missing)}")
    if fields.get(_FLAG) and _FLAG not in spec.args:
        raise UsageError(
            f"{name} tolerates no locator collision; --allow-suffix-ambiguity does not apply"
        )
    if "k" in spec.args and fields.get("k") is None:
        return _build_at_length(name, fields)
    return spec.cls(*(fields.get(key) for key in spec.args))


def _build_at_length(name: str, fields: dict):
    """The Hamming scheme of total length --n: built once, at the only k
    whose length is n (`HammingScheme.dimension`); the constructor accepts
    or refuses that k.  A refusal of the parameters themselves passes
    through as it is; a refusal of that k is given with it."""
    n = fields.get("n")
    if n is None:
        raise UsageError(f"{name} needs --n (or an input matrix fixing the dimension)")
    k = HammingScheme.dimension(n, *(fields.get(key) for key in
                                     ("q", "ell", "tau", "theta", "sigma", "rho", "p")))
    no_fit = f"no dimension fits total length {n} for these parameters"
    if k is None:
        raise UsageError(no_fit)
    try:
        return build(name, {**fields, "k": k})
    except ValueError as err:
        raise UsageError(f"{no_fit}: at k = {k}, {err}") from None


def build_scheme(args, k_hint: int | None = None):
    """Construct a scheme from the CLI flags; `k_hint` (an input matrix's
    column count) fixes the dimension of a scheme built from it."""
    spec = SCHEMES[args.scheme]
    fields = {**vars(args), "k": k_hint, "variant": None, "sigma": 0, "trimmed": False}
    if args.variant is not None:
        if "variant" in spec.args:
            fields["variant"] = args.variant.replace("-", "_")
        elif "trimmed" not in spec.args:
            raise UsageError(f"--variant does not apply to {args.scheme}")
        elif args.variant != "trimmed":
            raise UsageError(f"unknown recursive variant {args.variant!r}; expected trimmed")
        else:
            fields["trimmed"] = True
    return build(args.scheme, fields)


def scheme_sidecar(scheme, name: str) -> dict:
    """The sidecar `encode` writes: the fields common to every scheme,
    then the scheme's own parameters."""
    spec = SCHEMES[name]
    data = {
        "scheme": name,
        "q": scheme.q,
        "ell": scheme.ell,
        "n": scheme.check.n,
        "k": scheme.k,
        "q_out": scheme.q_out,
    }
    for key in spec.params:
        data[key] = _SIDECAR_VALUES[key](scheme) if key in _SIDECAR_VALUES else getattr(scheme, key)
    return data


# sidecar fields that hold an integer when present
_SIDECAR_INTS = ("q", "ell", "n", "k", "p", "tau", "theta", "sigma", "rho")


def _check_sidecar(data) -> None:
    """Refuse a sidecar whose shape, scheme name or field types are not
    those `scheme_sidecar` writes."""
    if not isinstance(data, dict):
        raise UsageError(f"sidecar: expected a JSON object, got {type(data).__name__}")
    if data.get("scheme") not in SCHEME_NAMES:
        raise UsageError(f"sidecar: unknown scheme {data.get('scheme')!r}")
    for key in ("q", "ell", "n", "k", "q_out", *SCHEMES[data["scheme"]].params):
        if key not in data:
            raise UsageError(f"sidecar: missing field {key!r}")
    for key in _SIDECAR_INTS:
        if key in data and type(data[key]) is not int:
            raise UsageError(f"sidecar: {key} must be an integer, got {data[key]!r}")
    if not isinstance(data.get("variant", ""), str):
        raise UsageError(f"sidecar: variant must be a string, got {data['variant']!r}")
    if not isinstance(data.get("trimmed", False), bool):
        raise UsageError(f"sidecar: trimmed must be true or false, got {data['trimmed']!r}")
    if "locators" in data:
        if not isinstance(data["locators"], dict):
            raise UsageError("sidecar: locators must be a JSON object")
        try:
            Locators.from_json(data["locators"])
        except ValueError as err:
            raise UsageError(f"sidecar locators are malformed: {err}") from None


def scheme_from_sidecar(data: dict):
    """The scheme a sidecar records.  The sidecar must be exactly the one
    the rebuilt scheme writes, field for field and type for type."""
    _check_sidecar(data)
    name = data["scheme"]
    scheme = build(name, {**data, _FLAG: data.get("locators", {}).get(_FLAG, False)})
    rebuilt = scheme_sidecar(scheme, name)
    for key in sorted(data.keys() | rebuilt.keys()):
        given, written = (
            json.dumps(side[key], sort_keys=True) if key in side else "absent"
            for side in (data, rebuilt)
        )
        if given != written:
            raise UsageError(
                f"sidecar field {key!r} does not round-trip: {given} here, "
                f"{written} from the rebuilt scheme"
            )
    return scheme


# --------------------------------------------------------------------------
# subcommands


def cmd_params(args) -> int:
    scheme = build_scheme(args)
    print(json.dumps(scheme_sidecar(scheme, args.scheme), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_encode(args) -> int:
    matrix = read_matrix(args.infile)
    scheme = build_scheme(args, k_hint=matrix.ncols)
    if matrix.ncols != scheme.k:
        raise UsageError(
            f"input matrix has {matrix.ncols} columns but the scheme dimension is {scheme.k}"
        )
    if matrix.ell != scheme.ell:
        raise UsageError(f"input matrix has {matrix.ell} rows but --ell is {scheme.ell}")
    encoded = scheme.encode(matrix)
    write_matrix(args.out, encoded)
    sidecar_path = args.sidecar or _default_sidecar(args.out)
    write_json(sidecar_path, scheme_sidecar(scheme, args.scheme))
    print(f"wrote {args.out} and {sidecar_path}")
    return EXIT_OK


def _default_sidecar(out: str) -> str:
    path = Path(out)
    return str(path.with_suffix(".scheme.json") if path.suffix == ".json" else Path(str(path) + ".scheme.json"))


def cmd_compute(args) -> int:
    matrix = read_matrix(args.infile)
    try:
        u = [int(v) for v in args.u.split(",")]
    except ValueError:
        raise UsageError(f"--u must be a comma-separated integer list, got {args.u!r}")
    c = compute_clean(u, matrix)
    bound = output_alphabet(matrix.q, matrix.ell)
    write_vector(args.out, ReadVector.exact(c), bound)
    print(f"wrote {args.out}")
    return EXIT_OK


def _parse_faults(spec: str) -> FaultModel:
    text = spec.strip()
    if not text.startswith("{"):
        text = Path(text).read_text()
    return FaultModel.from_json(json.loads(text))


def cmd_inject(args) -> int:
    vector, bound = read_vector(args.infile)
    if vector.erased:
        raise UsageError("input vector already carries erasures")
    model = _parse_faults(args.faults)
    if args.seed is not None and model.kind != "manual":
        model = FaultModel.from_json({**model.to_json(), "seed": args.seed})
    report = inject(list(vector.entries), model, bound)
    write_vector(args.out, report.read, bound)
    if args.log:
        write_json(args.log, {"model": model.to_json(), "faults": list(report.log)})
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_decode(args) -> int:
    vector, _bound = read_vector(args.infile)
    scheme = scheme_from_sidecar(read_json(args.sidecar))
    outcome = scheme.decode(vector)
    if outcome.failed:
        print("e")
        return EXIT_DETECTED
    if args.out:
        write_vector(args.out, ReadVector.exact(outcome.prefix), scheme.q_out)
    print(json.dumps(list(outcome.prefix)))
    return EXIT_OK


# --------------------------------------------------------------------------
# audit


def _check(name: str, ok: bool | None, **detail) -> dict:
    """One audit check; `ok` None marks it skipped."""
    return {"name": name, "status": "skipped" if ok is None else "pass" if ok else "fail",
            "detail": detail}


def _audit_checks(scheme, name: str) -> list[dict]:
    spec = SCHEMES[name]
    correct = spec.correct or scheme.tau
    detect = correct + spec.extra_detect
    needed = correct + detect + 1
    if name == "hamming":
        inner = scheme.inner
        checks = [_check("inner-code distance by construction", inner.d >= needed,
                         distance=inner.d, needed=needed)]
        try:
            words = [tuple(w) for w in linear_codewords(inner, "inner codewords")]
            measured = induced_min_distance(words, inner.k, metric="hamming")
            checks.append(_check("inner-code distance by enumeration", measured >= needed,
                                 measured=measured))
        except (ValueError, MemoryError) as err:
            checks.append(_check("inner-code distance by enumeration", None, reason=str(err)))
        return checks

    try:
        words = enumerate_induced_code(scheme.encode, scheme.ell, scheme.k, scheme.q)
    except ValueError as err:
        return [_check("induced-code enumeration", None, reason=str(err))]
    checks = [_check("induced-code enumeration", True, codewords=len(words))]
    try:
        measured = induced_min_distance(words, k=scheme.k)
        if measured is None:
            raise ValueError("fewer than two distinct prefixes")
    except ValueError as err:
        checks.append(_check("induced minimum distance", None, reason=str(err)))
        return checks
    checks.append(_check("induced minimum distance", measured >= needed,
                         measured=measured, expected_at_least=needed))

    n = len(words[0])
    reads, limit = len(words) * sphere_volume_l1(n, detect), guard_limit(SWEEP_GUARD)
    if reads * len(words) > limit:
        checks.append(_check("exhaustive decode sweep", None, reason=(
            f"{reads} reads, each scanning {len(words)} codewords, exceed the guard "
            f"({limit}); set DPE_CODEC_GUARD_OVERRIDE to raise it")))
        return checks
    corrected = flagged = wrong = 0
    for c in words:
        for e in iter_l1_errors(n, detect, include_zero=True):
            y = [v + w for v, w in zip(c, e)]
            if not all(0 <= v < scheme.q_out for v in y):
                continue
            weight = sum(abs(w) for w in e)
            outcome = scheme.decode(ReadVector.exact(y))
            oracle = nearest_prefix_decode(y, words, k=scheme.k, tau=correct)
            target = oracle.prefix if not oracle.failed else c[: scheme.k]
            if outcome.failed:
                if weight <= correct:
                    wrong += 1  # must have corrected
                else:
                    flagged += 1
            elif outcome.prefix == target:
                corrected += 1
            else:
                wrong += 1
    checks.append(_check("exhaustive decode sweep", wrong == 0, corrected=corrected,
                         flagged=flagged, miscorrections=wrong, correct_budget=correct,
                         detect_budget=detect))
    return checks


def cmd_audit(args) -> int:
    scheme = build_scheme(args)
    checks = _audit_checks(scheme, args.scheme)
    report = {
        "scheme": args.scheme,
        "params": scheme_sidecar(scheme, args.scheme),
        "checks": checks,
        "all_pass": all(c["status"] != "fail" for c in checks),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK if report["all_pass"] else EXIT_USAGE


# --------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpe-codec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scheme_flags(p):
        p.add_argument("--scheme", required=True, choices=SCHEME_NAMES)
        p.add_argument("--q", type=int, help="matrix/input alphabet size")
        p.add_argument("--ell", type=int, help="number of matrix rows")
        p.add_argument("--p", type=int, help="prime parameter (dec/dec-ted/recursive; optional for hamming)")
        p.add_argument("--n", type=int, help="code length (sec/sec-ded/large-alphabet/hamming)")
        p.add_argument("--tau", type=int, help="correctable errors (recursive/large-alphabet/hamming)")
        p.add_argument("--theta", type=int, help="max error magnitude (hamming)")
        p.add_argument("--rho", type=int, default=0, help="erasure budget (hamming)")
        p.add_argument("--variant", help="sec-ded/dec-ted: parity|odd-q|even-q; recursive: trimmed")
        p.add_argument("--allow-suffix-ambiguity", action="store_true",
                       help="accept locator collisions confined to redundancy columns")

    p = sub.add_parser("params", help="print derived scheme parameters")
    add_scheme_flags(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("encode", help="encode an information matrix")
    add_scheme_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sidecar", help="default: <out>.scheme.json")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("compute", help="clean vector-matrix product")
    p.add_argument("--in", dest="infile", required=True, help="encoded matrix file")
    p.add_argument("--u", required=True, help="comma-separated input vector")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("inject", help="apply a fault model to a clean vector")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--faults", required=True, help="JSON fault spec or path to one")
    p.add_argument("--seed", type=int, help="override the model seed")
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="write the fault log here")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("decode", help="decode a read vector")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--sidecar", required=True, help="scheme sidecar from encode")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("audit", help="brute-force distance and decode audits")
    add_scheme_flags(p)
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
