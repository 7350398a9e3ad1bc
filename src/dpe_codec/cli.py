"""Command-line harness: build schemes, encode matrices, simulate reads,
decode, and run brute-force audits.

Exit codes: 0 success, 1 usage or input error, 2 decode failure ("e").
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from .basemath import hamming_dist, iter_l1_errors
from .core import QMatrix, ReadVector, output_alphabet
from .double import DoubleErrorScheme, TripleDetectScheme
from .formats import read_json, read_matrix, read_vector, write_json, write_matrix, write_vector
from .hamming import HammingScheme
from .locators import Locators
from .multi import LargeAlphabetScheme, RecursiveScheme
from .oracles import enumerate_induced_code, induced_min_distance, nearest_prefix_decode
from .simulate import FaultModel, compute_clean, inject
from .single import SecDedScheme, SingleErrorScheme

SCHEME_NAMES = ("sec", "sec-ded", "dec", "dec-ted", "recursive", "large-alphabet", "hamming")

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


def _require(args, *names):
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join('--' + n for n in missing)}")


def _variant(args) -> str | None:
    if args.variant is None:
        return None
    return args.variant.replace("-", "_")


def build_scheme(args, k_hint: int | None = None):
    """Construct a scheme object from CLI-level parameters."""
    name = args.scheme
    flag = bool(getattr(args, "allow_suffix_ambiguity", False))
    if args.variant is not None and name not in ("sec-ded", "dec-ted", "recursive"):
        raise UsageError(f"--variant does not apply to {name}")
    if name == "sec":
        _require(args, "q", "n", "ell")
        return SingleErrorScheme(args.q, args.n, args.ell, allow_suffix_ambiguity=flag)
    if name == "sec-ded":
        _require(args, "q", "n", "ell")
        return SecDedScheme(args.q, args.n, args.ell, _variant(args), allow_suffix_ambiguity=flag)
    if name == "dec":
        _require(args, "q", "p", "ell")
        return DoubleErrorScheme(args.q, args.p, args.ell, allow_suffix_ambiguity=flag)
    if name == "dec-ted":
        _require(args, "q", "p", "ell")
        return TripleDetectScheme(args.q, args.p, args.ell, _variant(args), allow_suffix_ambiguity=flag)
    if name == "recursive":
        _require(args, "q", "p", "ell", "tau")
        if flag:
            raise UsageError(
                "recursive puts every locator on a data column, where no collision "
                "is safe; --allow-suffix-ambiguity does not apply"
            )
        if args.variant not in (None, "trimmed"):
            raise UsageError(f"unknown recursive variant {args.variant!r}; expected trimmed")
        return RecursiveScheme(args.q, args.ell, args.tau, args.p, trimmed=args.variant is not None)
    if name == "large-alphabet":
        _require(args, "q", "n", "ell", "tau")
        return LargeAlphabetScheme(args.q, args.n, args.tau, args.ell)
    if name == "hamming":
        _require(args, "q", "ell", "tau")
        k = k_hint
        if k is None and args.n is not None:
            k = _hamming_dimension(args)
        if k is None:
            raise UsageError("hamming needs --n (or an input matrix fixing the dimension)")
        return HammingScheme(
            args.q, args.ell, k, args.tau, theta=args.theta,
            sigma=getattr(args, "sigma", 0) or 0, rho_max=args.rho, p=args.p,
        )
    raise UsageError(f"unknown scheme {name!r}")


def _hamming_dimension(args) -> int:
    """Solve k from the total length: n = k + m*(2*tau + rho)."""
    for k in range(1, args.n):
        try:
            scheme = HammingScheme(
                args.q, args.ell, k, args.tau, theta=args.theta, rho_max=args.rho, p=args.p
            )
        except ValueError:
            continue
        if scheme.n == args.n:
            return k
    raise UsageError(f"no dimension fits total length {args.n} for these parameters")


def scheme_sidecar(scheme, name: str) -> dict:
    data = {
        "scheme": name,
        "q": scheme.q,
        "ell": scheme.ell,
        "n": scheme.n if not isinstance(scheme, RecursiveScheme) else scheme.total_length,
        "k": scheme.k,
        "q_out": scheme.q_out,
    }
    if isinstance(scheme, (SingleErrorScheme, SecDedScheme, DoubleErrorScheme, TripleDetectScheme, RecursiveScheme)):
        data["locators"] = scheme.loc.to_json()
    if isinstance(scheme, (SecDedScheme, TripleDetectScheme)):
        data["variant"] = scheme.variant
    if isinstance(scheme, (DoubleErrorScheme, TripleDetectScheme)):
        data["p"] = scheme.p
    if isinstance(scheme, RecursiveScheme):
        data.update(p=scheme.p, tau=scheme.tau, trimmed=scheme.trimmed)
    if isinstance(scheme, LargeAlphabetScheme):
        data.update(p=scheme.p, tau=scheme.tau)
    if isinstance(scheme, HammingScheme):
        data.update(
            p=scheme.p,
            tau=scheme.tau,
            theta=scheme.theta,
            sigma=scheme.sigma,
            rho=scheme.rho_max,
            inner={"length": scheme.ntilde, "k": scheme.inner.k, "distance": scheme.inner.d},
        )
    return data


# sidecar fields that hold an integer when present
_SIDECAR_INTS = ("q", "ell", "n", "k", "p", "tau", "theta", "sigma", "rho")


def _check_sidecar(data) -> None:
    """Refuse a sidecar whose shape, scheme name or integer fields are not
    those `scheme_sidecar` writes."""
    if not isinstance(data, dict):
        raise UsageError(f"sidecar: expected a JSON object, got {type(data).__name__}")
    if data.get("scheme") not in SCHEME_NAMES:
        raise UsageError(f"sidecar: unknown scheme {data.get('scheme')!r}")
    for key in ("q", "ell", "k"):
        if key not in data:
            raise UsageError(f"sidecar: missing field {key!r}")
    for key in _SIDECAR_INTS:
        value = data.get(key)
        if value is not None and type(value) is not int:
            raise UsageError(f"sidecar: {key} must be an integer, got {value!r}")
    if not isinstance(data.get("variant", ""), str):
        raise UsageError(f"sidecar: variant must be a string, got {data['variant']!r}")
    if not isinstance(data.get("locators", {}), dict):
        raise UsageError("sidecar: locators must be a JSON object")


def scheme_from_sidecar(data: dict):
    _check_sidecar(data)
    name = data["scheme"]
    loc_json = data.get("locators")
    flag = bool(loc_json and loc_json.get("allow_suffix_ambiguity"))
    ns = argparse.Namespace(
        scheme=name,
        q=data["q"],
        ell=data["ell"],
        n=data.get("n"),
        p=data.get("p"),
        tau=data.get("tau"),
        theta=data.get("theta"),
        sigma=data.get("sigma", 0),
        rho=data.get("rho", 0),
        variant=(
            "trimmed"
            if data.get("trimmed")
            else (data.get("variant").replace("_", "-") if data.get("variant") else None)
        ),
        allow_suffix_ambiguity=flag,
    )
    scheme = build_scheme(ns, k_hint=data.get("k") if name == "hamming" else None)
    if scheme.k != data["k"]:
        raise UsageError(f"sidecar dimension {data['k']} != rebuilt dimension {scheme.k}")
    try:
        loc = None if loc_json is None else Locators.from_json(loc_json)
    except TypeError as err:
        raise UsageError(f"sidecar locators are malformed: {err}") from None
    if loc is not None and scheme.loc != loc:
        raise UsageError("sidecar locators do not match the rebuilt scheme")
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
    if vector.has_erasures:
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

_EXPECTED_DISTANCE = {
    "sec": 3,
    "sec-ded": 4,
    "dec": 5,
    "dec-ted": 6,
}


def _audit_checks(scheme, name: str) -> list[dict]:
    checks: list[dict] = []
    if name == "hamming":
        inner = scheme.inner
        checks.append(
            {
                "name": "inner-code distance by construction",
                "status": "pass" if inner.d >= 2 * scheme.tau + 1 else "fail",
                "detail": {"distance": inner.d, "needed": 2 * scheme.tau + 1},
            }
        )
        try:
            words = [
                tuple(inner.encode(list(msg)))
                for msg in itertools.product(range(scheme.p), repeat=inner.k)
            ]
            measured = min(
                hamming_dist(a, b) for i, a in enumerate(words) for b in words[i + 1 :]
            )
            checks.append(
                {
                    "name": "inner-code distance by enumeration",
                    "status": "pass" if measured >= 2 * scheme.tau + 1 else "fail",
                    "detail": {"measured": measured},
                }
            )
        except (ValueError, MemoryError) as err:
            checks.append(
                {"name": "inner-code distance by enumeration", "status": "skipped",
                 "detail": {"reason": str(err)}}
            )
        return checks

    tau = getattr(scheme, "tau", {"sec": 1, "sec-ded": 1, "dec": 2, "dec-ted": 2}.get(name, 1))
    sigma = {"sec-ded": 1, "dec-ted": 1}.get(name, 0)
    try:
        words = enumerate_induced_code(scheme.encode, scheme.ell, scheme.k, scheme.q)
    except ValueError as err:
        return [{"name": "induced-code enumeration", "status": "skipped",
                 "detail": {"reason": str(err)}}]
    checks.append(
        {"name": "induced-code enumeration", "status": "pass",
         "detail": {"codewords": len(words)}}
    )

    expected = _EXPECTED_DISTANCE.get(name, 2 * tau + 1)
    measured = induced_min_distance(words, k=scheme.k)
    if measured is None:
        checks.append(
            {"name": "induced minimum distance", "status": "skipped",
             "detail": {"reason": "fewer than two distinct prefixes"}}
        )
        return checks
    checks.append(
        {
            "name": "induced minimum distance",
            "status": "pass" if measured >= expected else "fail",
            "detail": {"measured": measured, "expected_at_least": expected},
        }
    )

    n = len(words[0])
    corrected = flagged = wrong = 0
    for c in words:
        for e in iter_l1_errors(n, tau + sigma, include_zero=True):
            y = [v + w for v, w in zip(c, e)]
            if not all(0 <= v < scheme.q_out for v in y):
                continue
            weight = sum(abs(w) for w in e)
            outcome = scheme.decode(ReadVector.exact(y))
            oracle = nearest_prefix_decode(y, words, k=scheme.k, tau=tau)
            target = oracle.prefix if not oracle.failed else c[: scheme.k]
            if outcome.failed:
                if weight <= tau:
                    wrong += 1  # must have corrected
                else:
                    flagged += 1
            elif outcome.prefix == target:
                corrected += 1
            else:
                wrong += 1
    checks.append(
        {
            "name": "exhaustive decode sweep",
            "status": "pass" if wrong == 0 else "fail",
            "detail": {"corrected": corrected, "flagged": flagged, "miscorrections": wrong,
                       "correct_budget": tau, "detect_budget": tau + sigma},
        }
    )
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
