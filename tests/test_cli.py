import hashlib
import json

import pytest

from dpe_codec.cli import main
from dpe_codec.core import QMatrix
from dpe_codec.formats import read_json, read_matrix, read_vector, write_matrix

A_PRIME_3x10 = QMatrix.from_lists(
    2,
    [
        [1, 0, 1, 1, 0, 1, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 1, 1, 0, 0, 1],
        [0, 1, 0, 0, 0, 1, 0, 1, 1, 1],
    ],
)

ENCODED_3x15 = [
    [1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1],
    [0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1],
    [0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0],
]


def _encode_example(tmp_path, scheme_args):
    src = tmp_path / "aprime.json"
    write_matrix(src, A_PRIME_3x10)
    out = tmp_path / "encoded.json"
    rc = main(
        ["encode", *scheme_args, "--in", str(src), "--out", str(out)]
    )
    assert rc == 0
    return out, tmp_path / "encoded.scheme.json"


SEC_ARGS = ["--scheme", "sec", "--q", "2", "--n", "15", "--ell", "3"]


class TestParams:
    def test_sec(self, capsys):
        assert main(["params", *SEC_ARGS]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["k"] == 10 and data["n"] == 15
        assert data["locators"]["alpha"][10:] == [1, 2, 4, 8, 16]

    def test_missing_flag(self, capsys):
        assert main(["params", "--scheme", "sec", "--q", "2"]) == 1
        assert "missing required" in capsys.readouterr().err

    def test_bad_scheme_flagged_by_argparse(self):
        with pytest.raises(SystemExit) as info:
            main(["params", "--scheme", "nope"])
        assert info.value.code == 1

    def test_hamming_total_length(self, capsys):
        rc = main(
            ["params", "--scheme", "hamming", "--q", "2", "--ell", "2", "--tau", "2",
             "--theta", "2", "--rho", "1", "--n", "16"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["k"] == 1 and data["p"] == 7

    @pytest.mark.parametrize("scheme", ["sec-ded", "dec-ted"])
    def test_unknown_detect_variant(self, capsys, scheme):
        size = ["--n", "8"] if scheme == "sec-ded" else ["--p", "13"]
        rc = main(["params", "--scheme", scheme, "--q", "3", *size, "--ell", "2",
                   "--variant", "trimmed"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown detect variant 'trimmed'" in captured.err

    def test_trimmed_recursive(self, capsys):
        rc = main(["params", "--scheme", "recursive", "--q", "2", "--p", "31", "--ell", "2",
                   "--tau", "2", "--variant", "trimmed"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["trimmed"] is True

    def test_unknown_recursive_variant(self, capsys):
        rc = main(["params", "--scheme", "recursive", "--q", "2", "--p", "31", "--ell", "2",
                   "--tau", "2", "--variant", "parity"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown recursive variant 'parity'" in captured.err

    @pytest.mark.parametrize(
        "args",
        [["--scheme", "sec", "--q", "2", "--n", "15", "--ell", "2"],
         ["--scheme", "dec", "--q", "2", "--p", "31", "--ell", "2"],
         ["--scheme", "large-alphabet", "--q", "8", "--n", "3", "--ell", "2", "--tau", "1"],
         ["--scheme", "hamming", "--q", "2", "--ell", "2", "--tau", "2", "--theta", "2",
          "--rho", "1", "--n", "16"]],
        ids=["sec", "dec", "large-alphabet", "hamming"],
    )
    def test_variant_refused_where_it_does_not_apply(self, capsys, args):
        assert main(["params", *args, "--variant", "even-q"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--variant does not apply to {args[1]}" in captured.err


class TestEncode:
    def test_golden(self, tmp_path):
        out, sidecar = _encode_example(tmp_path, SEC_ARGS)
        matrix = read_matrix(out)
        assert [list(r) for r in matrix.rows] == ENCODED_3x15
        meta = read_json(sidecar)
        assert meta["scheme"] == "sec" and meta["k"] == 10

    def test_dimension_mismatch(self, tmp_path, capsys):
        src = tmp_path / "aprime.json"
        write_matrix(src, A_PRIME_3x10)
        rc = main(
            ["encode", "--scheme", "sec", "--q", "2", "--n", "20", "--ell", "3",
             "--in", str(src), "--out", str(tmp_path / "x.json")]
        )
        assert rc == 1
        assert "columns" in capsys.readouterr().err


class TestPipeline:
    def test_example_roundtrip(self, tmp_path, capsys):
        out, sidecar = _encode_example(tmp_path, SEC_ARGS)
        c_path = tmp_path / "c.json"
        assert main(["compute", "--in", str(out), "--u", "1,1,1", "--out", str(c_path)]) == 0
        vector, bound = read_vector(c_path)
        assert list(vector.entries) == [1, 1, 1, 2, 0, 3, 1, 1, 2, 2, 1, 1, 2, 1, 2]
        assert bound == 4

        y_path = tmp_path / "y.json"
        faults = json.dumps({"kind": "manual", "deltas": [[5, -1]], "erase": []})
        log_path = tmp_path / "faults.json"
        assert main(
            ["inject", "--in", str(c_path), "--faults", faults, "--out", str(y_path),
             "--log", str(log_path)]
        ) == 0
        y, _ = read_vector(y_path)
        assert y.entries[5] == 2

        capsys.readouterr()
        w_path = tmp_path / "w.json"
        rc = main(["decode", "--in", str(y_path), "--sidecar", str(sidecar), "--out", str(w_path)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out.strip()) == [1, 1, 1, 2, 0, 3, 1, 1, 2, 2]

    def test_three_errors_flagged_by_dec_ted(self, tmp_path, capsys):
        scheme_args = ["--scheme", "dec-ted", "--q", "3", "--p", "13", "--ell", "2"]
        src = tmp_path / "aprime.json"
        write_matrix(src, QMatrix.from_lists(3, [[1, 2, 0], [0, 1, 1]]))
        out = tmp_path / "enc.json"
        assert main(["encode", *scheme_args, "--in", str(src), "--out", str(out)]) == 0
        c_path = tmp_path / "c.json"
        assert main(["compute", "--in", str(out), "--u", "2,1", "--out", str(c_path)]) == 0
        y_path = tmp_path / "y.json"
        # three unit faults in the information prefix
        faults = json.dumps({"kind": "manual", "deltas": [[0, 1], [1, 1], [2, 1]]})
        assert main(["inject", "--in", str(c_path), "--faults", faults, "--out", str(y_path)]) == 0
        capsys.readouterr()
        rc = main(["decode", "--in", str(y_path), "--sidecar", str(tmp_path / "enc.scheme.json")])
        assert rc == 2
        assert capsys.readouterr().out.strip() == "e"

    def test_erasure_input_rejected_by_l1_decoder(self, tmp_path, capsys):
        out, sidecar = _encode_example(tmp_path, SEC_ARGS)
        c_path = tmp_path / "c.json"
        main(["compute", "--in", str(out), "--u", "1,1,1", "--out", str(c_path)])
        y_path = tmp_path / "y.json"
        faults = json.dumps({"kind": "short_column", "count": 1, "seed": 0})
        main(["inject", "--in", str(c_path), "--faults", faults, "--out", str(y_path)])
        rc = main(["decode", "--in", str(y_path), "--sidecar", str(sidecar)])
        assert rc == 1


    @pytest.mark.parametrize(
        "erasures,message",
        [([99], "erasure index 99 is outside [0, 15)"),
         (5, "erasures must be a list"), ([[1]], "erasures must be a list"),
         (["a"], "erasures must be a list")],
    )
    def test_malformed_erasures(self, tmp_path, capsys, erasures, message):
        _, sidecar = _encode_example(tmp_path, SEC_ARGS)
        y_path = tmp_path / "y.json"
        y_path.write_text(json.dumps(
            {"q": 4, "rows": 1, "cols": 15, "erasures": erasures,
             "data": [1, 1, 1, 2, 0, 3, 1, 1, 2, 2, 1, 1, 2, 1, 2]}))
        capsys.readouterr()
        rc = main(["decode", "--in", str(y_path), "--sidecar", str(sidecar)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestMalformedFiles:
    """A malformed matrix or read file gives exit 1 and a message, never a
    traceback or an output file."""

    GOOD = [1, 0, 1, 1, 0, 1, 0, 0, 1, 0]

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"q": 2, "rows": 1, "cols": 10, "data": [1.0] + GOOD[1:]},
             "data entry 0 = 1.0 is not an integer"),
            ({"q": 2, "rows": 1, "cols": 10, "data": [True] + GOOD[1:]},
             "data entry 0 = True is not an integer"),
            ({"q": 2, "rows": 1, "cols": 10, "data": ["1"] + GOOD[1:]},
             "data entry 0 = '1' is not an integer"),
            ({"q": 2.0, "rows": 1, "cols": 10, "data": GOOD},
             "alphabet size must be an integer"),
            ({"q": 2, "rows": "1", "cols": 10, "data": GOOD}, "rows must be an integer"),
            ({"q": 2, "rows": 1, "cols": 10, "data": 5}, "data must be a list"),
            ([GOOD], "expected a JSON object, got list"),
        ],
    )
    def test_matrix(self, tmp_path, capsys, payload, message):
        src = tmp_path / "aprime.json"
        src.write_text(json.dumps(payload))
        out = tmp_path / "enc.json"
        args = ["--scheme", "sec", "--q", "2", "--n", "14", "--ell", "1"]
        assert main(["encode", *args, "--in", str(src), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"q": 4, "cols": 15, "data": ["1"] + [0] * 14},
             "data entry 0 = '1' is not an integer"),
            ({"q": 4, "cols": 15, "data": [0] * 14 + [1.5]},
             "data entry 14 = 1.5 is not an integer"),
            ({"q": 4, "cols": 15, "data": [False] + [0] * 14},
             "data entry 0 = False is not an integer"),
            ({"q": "4", "cols": 15, "data": [0] * 15}, "q must be an integer"),
            ([0] * 15, "expected a JSON object, got list"),
            ("y", "expected a JSON object, got str"),
            ({"q": 4, "cols": 15, "data": [0] * 15, "erasures": [True]},
             "erasures must be a list of column indices"),
        ],
    )
    def test_read_vector(self, tmp_path, capsys, payload, message):
        _, sidecar = _encode_example(tmp_path, SEC_ARGS)
        y_path = tmp_path / "y.json"
        y_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["decode", "--in", str(y_path), "--sidecar", str(sidecar)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda d: [d], "sidecar: expected a JSON object, got list"),
            (lambda d: {**d, "q": "2"}, "sidecar: q must be an integer, got '2'"),
            (lambda d: {**d, "k": 10.0}, "sidecar: k must be an integer, got 10.0"),
            (lambda d: {**d, "scheme": "nope"}, "sidecar: unknown scheme 'nope'"),
            (lambda d: {k: v for k, v in d.items() if k != "ell"}, "sidecar: missing field 'ell'"),
            (lambda d: {**d, "locators": [1]}, "sidecar: locators must be a JSON object"),
            (lambda d: {**d, "locators": {**d["locators"], "alpha": 5}},
             "sidecar locators are malformed"),
        ],
    )
    def test_sidecar(self, tmp_path, capsys, change, message):
        out, sidecar = _encode_example(tmp_path, SEC_ARGS)
        sidecar.write_text(json.dumps(change(read_json(sidecar))))
        y_path = tmp_path / "y.json"
        y_path.write_text(json.dumps({"q": 4, "cols": 15, "data": [0] * 15}))
        capsys.readouterr()
        assert main(["decode", "--in", str(y_path), "--sidecar", str(sidecar)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "spec,message",
        [
            ([1], "fault spec must be a JSON object, got list"),
            ({"kind": "manual", "deltas": 5},
             "deltas must be a list of [position, delta] pairs, got 5"),
            ({"kind": "l1_drift", "t": None}, "fault spec: t must be an integer, got None"),
            ({"kind": "l1_drift", "t": 2.9, "seed": 7}, "fault spec: t must be an integer, got 2.9"),
            ({"kind": "l1_drift", "t": 2, "seed": "7"},
             "fault spec: seed must be an integer, got '7'"),
            ({"kind": "symbol_flip", "count": True, "magnitude": 1},
             "fault spec: count must be an integer, got True"),
            ({"kind": "l1_drift"}, "fault spec: missing field 't'"),
            ({"kind": "manual", "deltas": [[1.5, -1]]}, "fault position must be an integer, got 1.5"),
            ({"kind": "manual", "deltas": [[1, 0.5]]}, "fault delta must be an integer, got 0.5"),
            ({"kind": "manual", "erase": ["3"]}, "erasure position must be an integer, got '3'"),
        ],
    )
    def test_fault_spec(self, tmp_path, capsys, spec, message):
        c_path = tmp_path / "c.json"
        c_path.write_text(json.dumps({"q": 4, "cols": 15, "data": [1] * 15}))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        y_path = tmp_path / "y.json"
        rc = main(["inject", "--in", str(c_path), "--faults", str(spec_path), "--out", str(y_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not y_path.exists()


# sha256 of the encoded matrix and of the sidecar that `encode` writes in
# each round trip below, pinning the CLI output byte for byte
ROUND_TRIP_SHA256 = {
    "sec": (
        "615ac60c5ddd2aeda154701346937dc8e3dff6864ed7ef3f6a3150902407a530",
        "fafde50e5a70d34dbe7ea519fb63e6552b8aeb392a6b0da75b74fdcc1f5647ce",
    ),
    "sec-ded": (
        "8727171ff498b33b61a3343865076c85b86c5febd8659e1a2210eadda6672e8c",
        "2d22fbf52cd8ac8406815ad856b9753e78cfb260a06b2416f332ae63668de119",
    ),
    "dec": (
        "4c0d80c4420f9ce2d2fb071839a852975225f020d6ca94cdba237c56be3fcf16",
        "4bc884ccd2efa7aa0f468d576d7a75dfb63d7e87a5e476fc198acf3165e28353",
    ),
    "dec-ted": (
        "6f5338d4f7f9bd23ac274ab9e80f4f7f3f86986396c46f444549e1226288782b",
        "5a53a40ae5610a8fe378ddbaed348be2c9b4fa559e67a35fe47189d83a528ef3",
    ),
    "recursive": (
        "f76b2bb91e6bca95ee102c77697dc60f5e28f60c68ede00410f420698f96bf04",
        "03d074e60537c012e9a2b62cdffe953e6c6bf4f6a003e41b5d9afe95ada4c5ba",
    ),
    "large-alphabet": (
        "9df040bf1313748e5529459f9b34c52017c2b42f66c1f3f7ca83cdde3b4dc238",
        "1a29def55b5db8016c15407681700d1249c3a137dd672876628005abd939b6a2",
    ),
    "hamming": (
        "717e2397ceee4ae071f2146d445edf7b47ed907ea11af6d119c5424a8ded54c1",
        "f517214aad46bbe3e455d4db274521c15dda74e6e52d2ea99bb1ccb644ef8b12",
    ),
}


class TestRoundTripAllSchemes:
    @pytest.mark.parametrize(
        "scheme_args,k,ell,q",
        [
            (["--scheme", "sec", "--q", "2", "--n", "15", "--ell", "3"], 10, 3, 2),
            (["--scheme", "sec-ded", "--q", "3", "--n", "8", "--ell", "2"], 4, 2, 3),
            (["--scheme", "dec", "--q", "2", "--p", "31", "--ell", "2"], 10, 2, 2),
            (["--scheme", "dec-ted", "--q", "3", "--p", "13", "--ell", "2"], 3, 2, 3),
            (["--scheme", "recursive", "--q", "2", "--p", "31", "--tau", "1", "--ell", "2"], 15, 2, 2),
            (["--scheme", "large-alphabet", "--q", "8", "--n", "3", "--tau", "1", "--ell", "2"], 2, 2, 8),
            (["--scheme", "hamming", "--q", "2", "--ell", "2", "--tau", "2",
              "--theta", "2", "--rho", "1"], 1, 2, 2),
        ],
    )
    def test_zero_fault_round_trip(self, tmp_path, capsys, scheme_args, k, ell, q):
        import random

        rng = random.Random(k * ell)
        a = QMatrix.from_lists(q, [[rng.randrange(q) for _ in range(k)] for _ in range(ell)])
        src = tmp_path / "a.json"
        write_matrix(src, a)
        enc = tmp_path / "enc.json"
        assert main(["encode", *scheme_args, "--in", str(src), "--out", str(enc)]) == 0
        encoded_sha256, sidecar_sha256 = ROUND_TRIP_SHA256[scheme_args[1]]
        assert hashlib.sha256(enc.read_bytes()).hexdigest() == encoded_sha256
        sidecar = (tmp_path / "enc.scheme.json").read_bytes()
        assert hashlib.sha256(sidecar).hexdigest() == sidecar_sha256
        u = ",".join(str(rng.randrange(q)) for _ in range(ell))
        c_path = tmp_path / "c.json"
        assert main(["compute", "--in", str(enc), "--u", u, "--out", str(c_path)]) == 0
        y_path = tmp_path / "y.json"
        faults = json.dumps({"kind": "l1_drift", "t": 0, "seed": 0})
        assert main(["inject", "--in", str(c_path), "--faults", faults, "--out", str(y_path)]) == 0
        capsys.readouterr()
        rc = main(["decode", "--in", str(y_path), "--sidecar", str(tmp_path / "enc.scheme.json")])
        assert rc == 0
        prefix = json.loads(capsys.readouterr().out.strip())
        c, _ = read_vector(c_path)
        assert prefix == list(c.entries[:k])


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            base = tmp_path / tag
            base.mkdir()
            src = base / "aprime.json"
            write_matrix(src, A_PRIME_3x10)
            enc = base / "enc.json"
            main(["encode", *SEC_ARGS, "--in", str(src), "--out", str(enc)])
            c_path = base / "c.json"
            main(["compute", "--in", str(enc), "--u", "1,1,1", "--out", str(c_path)])
            y_path = base / "y.json"
            faults = json.dumps({"kind": "l1_drift", "t": 2, "seed": 42})
            log = base / "log.json"
            main(["inject", "--in", str(c_path), "--faults", faults, "--out", str(y_path),
                  "--log", str(log)])
            outputs.append(
                tuple(
                    (p.name, p.read_bytes())
                    for p in sorted(base.iterdir())
                )
            )
        assert outputs[0] == outputs[1]

    def test_seed_override_applies(self, tmp_path):
        out, _ = _encode_example(tmp_path, SEC_ARGS)
        c_path = tmp_path / "c.json"
        main(["compute", "--in", str(out), "--u", "1,1,1", "--out", str(c_path)])
        faults = json.dumps({"kind": "l1_drift", "t": 3, "seed": 1})
        y1, y2 = tmp_path / "y1.json", tmp_path / "y2.json"
        log1, log2 = tmp_path / "log1.json", tmp_path / "log2.json"
        main(["inject", "--in", str(c_path), "--faults", faults, "--out", str(y1),
              "--log", str(log1)])
        main(["inject", "--in", str(c_path), "--faults", faults, "--seed", "9",
              "--out", str(y2), "--log", str(log2)])
        assert read_json(log1)["model"]["seed"] == 1
        assert read_json(log2)["model"]["seed"] == 9
        assert read_json(log1)["faults"] != read_json(log2)["faults"]


class TestAudit:
    def test_sec_tiny(self, tmp_path, capsys):
        rc = main(
            ["audit", "--scheme", "sec", "--q", "2", "--n", "6", "--ell", "2",
             "--out", str(tmp_path / "report.json")]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"]
        names = {c["name"]: c for c in report["checks"]}
        assert names["induced minimum distance"]["detail"]["measured"] >= 3
        assert names["exhaustive decode sweep"]["detail"]["miscorrections"] == 0

    def test_dec_tiny(self, capsys):
        rc = main(["audit", "--scheme", "dec", "--q", "2", "--p", "11", "--ell", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        names = {c["name"]: c for c in report["checks"]}
        assert names["induced minimum distance"]["detail"]["measured"] >= 5

    def test_guard_skip_not_fatal(self, capsys):
        rc = main(["audit", "--scheme", "sec", "--q", "2", "--n", "15", "--ell", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0]["status"] == "skipped"

    def test_hamming_inner_distance(self, capsys):
        rc = main(
            ["audit", "--scheme", "hamming", "--q", "2", "--ell", "2", "--tau", "2",
             "--theta", "2", "--rho", "1", "--n", "16"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        names = {c["name"]: c for c in report["checks"]}
        assert names["inner-code distance by enumeration"]["detail"]["measured"] == 6
