"""The `core.Scheme` contract: every scheme class inherits it, it alone
checks q and ell, sets `q_out` and `vector` and programs a matrix, and the
CLI's sidecar records the length of the scheme's reads, `check.n`."""

import ast
from pathlib import Path

import pytest

import dpe_codec as api
from dpe_codec import cli
from dpe_codec.core import CheckMatrix, Scheme, output_alphabet

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dpe_codec"

# each class built from (q, ell) and parameters it accepts
BUILDERS = {
    api.ParityDetectScheme: (3, lambda q, ell: api.ParityDetectScheme(q, 20, ell)),
    api.SingleErrorScheme: (2, lambda q, ell: api.SingleErrorScheme(q, 15, ell)),
    api.SecDedScheme: (3, lambda q, ell: api.SecDedScheme(q, 8, ell)),
    api.DoubleErrorScheme: (2, lambda q, ell: api.DoubleErrorScheme(q, 31, ell)),
    api.TripleDetectScheme: (3, lambda q, ell: api.TripleDetectScheme(q, 13, ell)),
    api.RecursiveScheme: (2, lambda q, ell: api.RecursiveScheme(q, ell, 1, 13)),
    api.LargeAlphabetScheme: (8, lambda q, ell: api.LargeAlphabetScheme(q, 3, 1, ell)),
    api.HammingScheme: (2, lambda q, ell: api.HammingScheme(q, ell, 4, 1)),
}
CONTRACT = {"encode", "vector", "q_out", "q", "ell"}


def test_every_scheme_class_is_a_scheme():
    classes = {spec.cls for spec in cli.SCHEMES.values()} | {api.ParityDetectScheme}
    assert classes == set(BUILDERS)
    for cls in classes:
        assert issubclass(cls, Scheme), cls.__name__
        assert not CONTRACT & set(cls.__dict__), cls.__name__


def _scheme_classes():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", None) == "Scheme" for base in node.bases
            ):
                yield node


def _targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []


def test_no_scheme_class_restates_the_contract():
    """No method named encode, no class attribute of a contract name, and
    no assignment to self.vector, self.q_out, self.q or self.ell."""
    found = set()
    for cls in _scheme_classes():
        found.add(cls.name)
        for node in cls.body:
            assert getattr(node, "name", None) != "encode", cls.name
            for target in _targets(node):
                assert getattr(target, "id", None) not in CONTRACT, cls.name
        for node in ast.walk(cls):
            for target in _targets(node):
                if isinstance(target, ast.Attribute) and getattr(target.value, "id", "") == "self":
                    assert target.attr not in CONTRACT, (cls.name, target.attr)
    assert found == {cls.__name__ for cls in BUILDERS}


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda c: c.__name__)
def test_holds_q_ell_and_the_output_alphabet(cls):
    q, build = BUILDERS[cls]
    scheme = build(q, 2)
    assert (scheme.q, scheme.ell, scheme.q_out) == (q, 2, output_alphabet(q, 2))
    assert scheme.vector == scheme.check.vector


REFUSALS = [
    ("float q", lambda q: (float(q), 2), "alphabet size must be an integer, got {q}.0"),
    ("q = 1", lambda q: (1, 2), "alphabet size must be >= 2, got 1"),
    ("ell = 0", lambda q: (q, 0), "row count ell must be >= 1, got 0"),
    ("ell = -2", lambda q: (q, -2), "row count ell must be >= 1, got -2"),
    ("ell = 1.5", lambda q: (q, 1.5), "row count ell must be an integer, got 1.5"),
    ("ell = True", lambda q: (q, True), "row count ell must be an integer, got True"),
]


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("case", REFUSALS, ids=lambda c: c[0])
def test_refuses_q_and_ell_with_one_message(cls, case):
    q, build = BUILDERS[cls]
    _, args, message = case
    with pytest.raises(ValueError) as info:
        build(*args(q))
    assert str(info.value) == message.format(q=q)


def test_cli_refuses_ell_0(capsys):
    assert cli.main(["params", "--scheme", "sec", "--q", "2", "--n", "15", "--ell", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "row count ell must be >= 1, got 0" in captured.err


# every CLI scheme in each of its variants, as sidecar fields
CLI_INSTANCES = [
    ("sec", {"q": 2, "n": 15, "ell": 2}),
    ("sec", {"q": 2, "n": 14, "ell": 1, "allow_suffix_ambiguity": True}),
    ("sec-ded", {"q": 2, "n": 20, "ell": 2, "variant": "parity"}),
    ("sec-ded", {"q": 3, "n": 8, "ell": 2, "variant": "odd_q"}),
    ("sec-ded", {"q": 4, "n": 20, "ell": 2, "variant": "even_q"}),
    ("dec", {"q": 2, "p": 31, "ell": 2}),
    ("dec-ted", {"q": 2, "p": 31, "ell": 2, "variant": "parity"}),
    ("dec-ted", {"q": 3, "p": 13, "ell": 2, "variant": "odd_q"}),
    ("dec-ted", {"q": 4, "p": 61, "ell": 2, "variant": "even_q"}),
    ("recursive", {"q": 2, "p": 31, "ell": 2, "tau": 2, "trimmed": False}),
    ("recursive", {"q": 2, "p": 31, "ell": 2, "tau": 2, "trimmed": True}),
    ("large-alphabet", {"q": 257, "n": 24, "ell": 8, "tau": 3}),
    ("hamming", {"q": 2, "ell": 2, "k": 4, "tau": 1, "sigma": 0, "rho": 0}),
    ("hamming", {"q": 2, "ell": 3, "k": 8, "tau": 2, "sigma": 1, "rho": 2}),
]


@pytest.mark.parametrize("name,fields", CLI_INSTANCES, ids=lambda v: v if isinstance(v, str) else "")
def test_sidecar_n_is_the_read_length(name, fields):
    scheme = cli.build(name, fields)
    read_length = scheme.total_length if name == "recursive" else scheme.n
    assert cli.scheme_sidecar(scheme, name)["n"] == scheme.check.n == read_length


def _base_sec():
    return api.SingleErrorScheme(2, 15, 2)


# each builder with the integer parameters it takes, by name, under an id
# of its own, so that a row added or removed renames no other case
INTEGER_PARAMETERS = [
    ("parity", api.ParityDetectScheme, {"q": 3, "k": 20, "ell": 2}, ["k"]),
    ("sec", api.SingleErrorScheme, {"q": 2, "n": 15, "ell": 2}, ["n"]),
    ("sec-ded", api.SecDedScheme, {"q": 3, "n": 8, "ell": 2}, ["n"]),
    ("dec", api.DoubleErrorScheme, {"q": 2, "p": 31, "ell": 2}, ["p"]),
    ("dec-ted-odd-q", api.TripleDetectScheme, {"q": 3, "p": 13, "ell": 2}, ["p"]),
    ("dec-ted-parity", api.TripleDetectScheme, {"q": 2, "p": 31, "ell": 2}, ["p"]),
    ("recursive", api.RecursiveScheme, {"q": 2, "ell": 2, "tau": 1, "p": 13}, ["tau", "p"]),
    ("large-alphabet", api.LargeAlphabetScheme, {"q": 8, "n": 3, "tau": 1, "ell": 2},
     ["n", "tau"]),
    ("hamming", api.HammingScheme,
     {"q": 2, "ell": 2, "k": 4, "tau": 1, "theta": 2, "sigma": 1, "rho_max": 1, "p": 11},
     ["k", "tau", "theta", "sigma", "rho_max", "p"]),
    ("hamming-dimension", api.HammingScheme.dimension,
     {"n": 20, "q": 2, "ell": 2, "tau": 1, "theta": 2, "sigma": 1, "rho_max": 1, "p": 11},
     ["n", "tau", "theta", "sigma", "rho_max", "p"]),
    ("shortened", lambda drop: api.ShortenedScheme(_base_sec(), drop), {"drop": 2}, ["drop"]),
    ("lee-code", lambda tau: api.BerlekampCode(api.PrimeField(13), [1, 2, 3, 4], tau),
     {"tau": 2}, ["tau"]),
    ("rs-code", lambda length, k: api.ReedSolomonCode(api.PrimeField(13), length, k),
     {"length": 6, "k": 2}, ["length", "k"]),
    ("prime-field", api.PrimeField, {"p": 7}, ["p"]),
    ("sphere-volume", api.sphere_volume_l1, {"n": 5, "t": 2}, ["n", "t"]),
    ("jacobsthal-weight", api.jacobsthal_weight, {"q": 4, "j": 1}, ["q", "j"]),
    ("locators-basic", api.build_locators_basic, {"q": 2, "n": 15}, ["q", "n"]),
    ("locators-ded-q3", api.build_locators_ded, {"q": 3, "n": 8}, ["q", "n"]),
    ("locators-ded-q2", api.build_locators_ded, {"q": 2, "n": 15}, ["n"]),
]
INTEGER_CASES = [
    pytest.param(build, fields, name, id=f"{row}-{name}")
    for row, build, fields, names in INTEGER_PARAMETERS for name in names
]


@pytest.mark.parametrize("build,fields,name", INTEGER_CASES)
@pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
def test_integer_parameters_refuse_what_is_not_an_int(build, fields, name, bad):
    assert build(**fields) is not None
    with pytest.raises(ValueError) as info:
        build(**{**fields, name: bad})
    assert str(info.value) == f"{name} must be an integer, got {bad!r}"


# inputs one past what each builder or check accepts, with the refusal they get
PARAMETER_REFUSALS = [
    ("rs-k-at-length", lambda: api.ReedSolomonCode(api.PrimeField(13), 6, 6),
     "need 1 <= k < length, got k=6, length=6"),
    # the modulus-2p locators need 3 redundancy digits of p = 7's 3 columns,
    # and of p = 5's 2; p = 11 leaves 2 information columns for q = 3 and 4
    ("dec-ted-mod2p-no-information", lambda: api.TripleDetectScheme(3, 7, 1),
     "p = 7 leaves no information columns for q = 3; smallest workable prime is 11"),
    ("dec-ted-mod2p-p5-odd-q", lambda: api.TripleDetectScheme(3, 5, 1),
     "p = 5 leaves no information columns for q = 3; smallest workable prime is 11"),
    ("dec-ted-mod2p-p5-even-q", lambda: api.TripleDetectScheme(4, 5, 1),
     "p = 5 leaves no information columns for q = 4; smallest workable prime is 11"),
    ("large-alphabet-n-at-tau", lambda: api.LargeAlphabetScheme(31, 3, 3, 1),
     "length 3 leaves no information columns"),
    ("recursive-tau-0", lambda: api.RecursiveScheme(2, 1, 0, 31),
     "error budget must be >= 1, got 0"),
    ("large-alphabet-tau-0", lambda: api.LargeAlphabetScheme(31, 12, 0, 1),
     "error budget must be >= 1, got 0"),
    ("check-short-word", lambda: CheckMatrix([[1, 2, 3]], (7,), 7)([1, 2]), "need 3 entries, got 2"),
    ("check-long-word", lambda: CheckMatrix([[1, 2, 3]], (7,), 7)([1, 2, 3, 4]),
     "need 3 entries, got 4"),
    # a shortened scheme (n = 13) names its own lengths, not its base's (n = 15)
    ("shortened-short-read",
     lambda: api.ShortenedScheme(api.SingleErrorScheme(2, 15, 1), 2).decode(
         api.ReadVector.exact((0,) * 5)),
     "read vector length 5 != 13"),
]


@pytest.mark.parametrize("build,message", [case[1:] for case in PARAMETER_REFUSALS],
                         ids=[case[0] for case in PARAMETER_REFUSALS])
def test_refuses_parameters_past_the_boundary(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
