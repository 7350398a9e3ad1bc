import pytest

from dpe_codec.basemath import jacobsthal_weights
from dpe_codec.locators import (
    SUFFIX_FSEQ,
    SUFFIX_POWERS,
    Locators,
    basic_redundancy,
    build_locators_basic,
    build_locators_ded,
    ded_redundancy,
    validate_locators,
)

EXAMPLE2_ALPHA = (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 1, 2, 4, 8, 16)
EXAMPLE4_ALPHA = (3, 5, 9, 11, 13, 15, 17, 19, 21, 23, 25, 1, 7)


def test_basic_q2_n15_matches_known_vector():
    loc = build_locators_basic(2, 15)
    assert loc.alpha == EXAMPLE2_ALPHA
    assert loc.m == 5 and loc.k == 10 and loc.modulus == 31
    assert validate_locators(loc).ok


def test_basic_q3_n4():
    loc = build_locators_basic(3, 4)
    assert loc.m == 2
    assert loc.suffix() == (1, 3)
    assert loc.alpha == (2, 4, 1, 3)
    report = validate_locators(loc)
    assert report.ok and not report.notes
    # direct condition checks
    assert len(set(loc.alpha)) == 4 and all(0 < a < 9 for a in loc.alpha)
    assert all(a + b != 9 for a in loc.alpha for b in loc.alpha)


def test_basic_rejects_degenerate_length():
    with pytest.raises(ValueError):
        build_locators_basic(2, 3)  # m = 3 leaves no information columns


def test_basic_forced_suffix_collision_is_opt_in():
    # n = 8, q = 2: weights 1 and 16 sum to 17, unavoidable.
    with pytest.raises(ValueError, match="allow_suffix_ambiguity"):
        build_locators_basic(2, 8)
    loc = build_locators_basic(2, 8, allow_suffix_ambiguity=True)
    assert loc.suffix() == (1, 2, 4, 8, 16)
    report = validate_locators(loc)
    assert report.ok
    assert any("sum to the modulus" in note for note in report.notes)


def test_ded_q8_n13_matches_known_vector():
    loc = build_locators_ded(8, 13)
    assert loc.m == 2
    assert loc.alpha == EXAMPLE4_ALPHA
    assert loc.modulus == 54
    assert loc.suffix_kind == SUFFIX_FSEQ
    assert validate_locators(loc).ok


def test_ded_q4_n50_matches_known_vector():
    loc = build_locators_ded(4, 50)
    assert loc.m == 4
    assert loc.suffix() == (1, 3, 13, 51)
    expected_prefix = [v for v in range(5, 100, 2) if v not in (13, 51)]
    assert loc.alpha[: loc.k] == tuple(expected_prefix)
    assert validate_locators(loc).ok


def test_ded_q2_falls_back_to_basic():
    loc = build_locators_ded(2, 15)
    assert loc.modulus == 31
    assert loc.suffix_kind == SUFFIX_POWERS


def test_ded_pair_sums_avoid_modulus():
    for q, n in [(3, 6), (5, 8), (8, 13), (4, 50)]:
        loc = build_locators_ded(q, n)
        modulus = 4 * n + 2
        assert all(a + b != modulus for a in loc.alpha for b in loc.alpha)
        assert all(a % 2 == 1 for a in loc.alpha)


def test_validate_flags_duplicates_and_sums():
    loc = Locators(2, 5, 3, 11, SUFFIX_POWERS, (3, 3, 1, 2, 4))
    report = validate_locators(loc)
    assert not report.ok and "duplicate" in report.violation

    # 3 + (2n-2) = 2n+1 with n = 5: entries 3 and 8
    loc = Locators(2, 5, 3, 11, SUFFIX_POWERS, (3, 8, 1, 2, 4))
    report = validate_locators(loc)
    assert not report.ok and "sum to the modulus" in report.violation

    loc = Locators(2, 5, 3, 11, SUFFIX_POWERS, (3, 5, 1, 2, 4))
    assert validate_locators(loc).ok


def test_validate_checks_suffix_weights():
    loc = Locators(2, 5, 3, 11, SUFFIX_POWERS, (3, 5, 1, 4, 2))
    report = validate_locators(loc)
    assert not report.ok and "suffix" in report.violation


def test_validate_checks_oddness_for_ded_modulus():
    # modulus 4n+2 = 22 with an even prefix entry
    loc = Locators(3, 5, 3, 22, SUFFIX_POWERS, (6, 5, 1, 3, 9))
    report = validate_locators(loc)
    assert not report.ok and "even" in report.violation


def _build_with_fallback(builder, q, n):
    try:
        return builder(q, n), False
    except ValueError as err:
        if "allow_suffix_ambiguity" not in str(err):
            raise
        return builder(q, n, allow_suffix_ambiguity=True), True


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_basic_builder_range(q):
    for n in range(2, 61):
        m = basic_redundancy(q, n)
        if n <= m:
            continue
        loc, flagged = _build_with_fallback(build_locators_basic, q, n)
        report = validate_locators(loc)
        assert report.ok, (q, n, report.violation)
        assert loc.suffix() == tuple(q**j for j in range(m))
        assert flagged == bool(report.notes)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_ded_builder_range(q):
    for n in range(2, 61):
        m = ded_redundancy(q, n)
        if n <= m:
            continue
        loc, flagged = _build_with_fallback(build_locators_ded, q, n)
        report = validate_locators(loc)
        assert report.ok, (q, n, report.violation)
        if q % 2 == 1:
            assert loc.suffix() == tuple(q**j for j in range(m))
        else:
            assert loc.suffix() == tuple(jacobsthal_weights(q, m))
        assert all(a % 2 == 1 for a in loc.alpha)
        assert flagged == bool(report.notes)


def test_footnote_case_needs_flag():
    # q = 8, n = 3: suffix weight 7 equals 2n+1, its own sum partner.
    with pytest.raises(ValueError, match="allow_suffix_ambiguity"):
        build_locators_ded(8, 3)
    loc = build_locators_ded(8, 3, allow_suffix_ambiguity=True)
    report = validate_locators(loc)
    assert report.ok
    assert any("modulus/2" in note for note in report.notes)


def test_json_roundtrip():
    loc = build_locators_ded(8, 13)
    data = loc.to_json()
    assert data["alpha"] == list(EXAMPLE4_ALPHA)
    assert Locators.from_json(data) == loc


@pytest.mark.parametrize(
    "change,message",
    [
        ({"allow_suffix_ambiguity": "no"}, "allow_suffix_ambiguity must be true or false"),
        ({"allow_suffix_ambiguity": 1}, "allow_suffix_ambiguity must be true or false"),
        ({"q": True}, "q must be an integer"),
        ({"n": 13.0}, "n must be an integer"),
        ({"m": "4"}, "m must be an integer"),
        ({"modulus": None}, "modulus must be an integer"),
        ({"alpha": 5}, "alpha must be a list of integers"),
        ({"alpha": [1.0] + list(EXAMPLE4_ALPHA[1:])}, "alpha must be a list of integers"),
        ({"suffix_kind": 3}, "suffix_kind must be a string"),
    ],
)
def test_json_refuses_bad_fields(change, message):
    data = {**build_locators_ded(8, 13).to_json(), **change}
    with pytest.raises(ValueError, match=message):
        Locators.from_json(data)


@pytest.mark.parametrize("key", ["q", "n", "m", "modulus", "suffix_kind", "alpha"])
def test_json_refuses_missing_field(key):
    data = build_locators_ded(8, 13).to_json()
    del data[key]
    with pytest.raises(ValueError, match=f"missing field '{key}'"):
        Locators.from_json(data)
