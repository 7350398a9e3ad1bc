import pytest

from dpe_codec.basemath import jacobsthal_weights
from dpe_codec.locators import (
    SUFFIX_FSEQ,
    SUFFIX_POWERS,
    Locators,
    ValidationReport,
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


def _pairwise_reference(loc):
    """The quadratic validator that `validate_locators` replaced: every pair
    i <= j is summed."""
    modulus = loc.modulus
    primed = modulus == 4 * loc.n + 2
    if not primed and modulus != 2 * loc.n + 1:
        return ValidationReport(False, f"modulus {modulus} matches neither 2n+1 nor 4n+2")
    seen = set()
    for j, v in enumerate(loc.alpha):
        if not 0 < v < modulus:
            return ValidationReport(False, f"entry {v} at index {j} is outside (0, {modulus})")
        if v in seen:
            return ValidationReport(False, f"duplicate entry {v}")
        if primed and v % 2 == 0:
            return ValidationReport(False, f"entry {v} at index {j} is even")
        seen.add(v)
    weights = loc.suffix_weights()
    for j in range(loc.m):
        if loc.alpha[loc.k + j] != weights[j]:
            return ValidationReport(
                False,
                f"suffix entry at index {loc.k + j} is {loc.alpha[loc.k + j]}, "
                f"expected weight {weights[j]}",
            )
    notes = []
    for i in range(loc.n):
        for j in range(i, loc.n):
            if loc.alpha[i] + loc.alpha[j] != modulus:
                continue
            if i >= loc.k and j >= loc.k and loc.allow_suffix_ambiguity:
                if i == j:
                    notes.append(f"suffix entry {loc.alpha[i]} equals modulus/2")
                else:
                    notes.append(
                        f"suffix entries {loc.alpha[i]} + {loc.alpha[j]} sum to the modulus"
                    )
                continue
            return ValidationReport(
                False, f"entries {loc.alpha[i]} + {loc.alpha[j]} sum to the modulus"
            )
    return ValidationReport(True, None, tuple(notes))


def _built_vectors():
    """Every vector both builders give for q = 2..9 and n = 2..60, with and
    without the suffix-ambiguity opt-in."""
    for builder in (build_locators_basic, build_locators_ded):
        for q in range(2, 10):
            for n in range(2, 61):
                for allow in (False, True):
                    try:
                        yield builder(q, n, allow)
                    except ValueError:
                        continue


def _mutants(loc):
    """`loc` with the opt-in flipped, and vectors one edit away from it."""
    alpha, k, modulus = list(loc.alpha), loc.k, loc.modulus

    def edited(i, v):
        return alpha[:i] + [v] + alpha[i + 1 :]

    vectors = [alpha]
    for i in sorted({0, k - 1}):
        vectors.append(edited(i, modulus - alpha[i]))  # swapped for its own partner
        vectors.append(edited(i, modulus - alpha[i + 1]))  # the next entry's partner
        vectors.append(edited(i, modulus - alpha[i - 1]))  # the previous (or last) one's
        vectors.append(edited(i, alpha[i + 1]))  # a duplicate
        vectors.append(edited(i, 0))  # out of range
        vectors.append(edited(i, modulus))
        vectors.append(edited(i, modulus // 2))  # its own partner when modulus is even
        vectors.append(edited(i, alpha[i] + 1))  # even under 4n+2
    vectors.append(edited(loc.n - 1, alpha[-1] + 1))  # a wrong suffix weight
    flag = loc.allow_suffix_ambiguity
    yield Locators(loc.q, loc.n, loc.m, modulus, loc.suffix_kind, loc.alpha, not flag)
    for vector in vectors:
        yield Locators(loc.q, loc.n, loc.m, modulus, loc.suffix_kind, tuple(vector), flag)


def test_partner_lookup_matches_pairwise_scan():
    built = list(_built_vectors())
    assert len(built) > 1000
    assert any(validate_locators(loc).notes for loc in built)  # suffix collisions met
    verdicts = set()
    for loc in built:
        for mutant in _mutants(loc):
            report = validate_locators(mutant)
            assert report == _pairwise_reference(mutant), mutant
            verdicts.add(report.ok or report.violation.split()[0])
    assert verdicts == {True, "entry", "entries", "duplicate", "suffix"}


def test_suffix_self_collision_is_noted_or_refused():
    # q = 3, n = 13, modulus 54: the digit weight 27 is its own partner.
    loc = build_locators_ded(3, 13, allow_suffix_ambiguity=True)
    assert loc.suffix()[-1] == 27
    assert validate_locators(loc).notes == ("suffix entry 27 equals modulus/2",)
    strict = Locators(3, 13, loc.m, 54, SUFFIX_POWERS, loc.alpha)
    assert validate_locators(strict) == ValidationReport(
        False, "entries 27 + 27 sum to the modulus"
    )
