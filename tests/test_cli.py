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
