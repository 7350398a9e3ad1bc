import operator
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpe_codec as api
from dpe_codec.core import (
    DECODE_FAILURE,
    QMatrix,
    ReadVector,
    corrected,
    decoded,
    pack_block,
    unit_error,
)
from dpe_codec.formats import read_vector, write_vector


class TestReadVector:
    def test_with_erasures(self):
        rv = ReadVector.with_erasures([4, 5, 6], [1])
        assert rv.entries == (4, 0, 6)
        assert rv.erased == (1,)

    @pytest.mark.parametrize("index", [3, -1, 99, "1", True])
    def test_erasure_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="erasure index"):
            ReadVector.with_erasures([4, 5, 6], [index])

    def test_erasure_index_message_is_erasure_indices(self):
        with pytest.raises(ValueError, match=r"^erasure index 3 is outside \[0, 3\)$"):
            ReadVector.with_erasures([4, 5, 6], [0, 3])

    def test_alphabet_accepts_in_range(self):
        ReadVector.exact([0, 3, 1]).check_alphabet(4)
        ReadVector.exact([]).check_alphabet(4)
        # an erased entry holds 0, whatever it was given
        ReadVector((0, 9, 1), (1,)).check_alphabet(4)

    @pytest.mark.parametrize(
        "entries,erased,bad",
        [((0, 4, 1), (), "entry 1 = 4"), ((0, 1, -1), (), "entry 2 = -1"),
         ((9, 5, 1), (0,), "entry 1 = 5")],
    )
    def test_alphabet_names_first_bad_entry(self, entries, erased, bad):
        with pytest.raises(ValueError, match=f"^{bad} is outside the read alphabet \\[0, 4\\)$"):
            ReadVector(entries, erased).check_alphabet(4)


class TestConstructorsStoreTuples:
    def test_a_read_given_lists(self):
        read = ReadVector([1, 2, 3], [])
        assert read.entries == (1, 2, 3) and read.erased == ()
        assert read == ReadVector((1, 2, 3)) and hash(read) == hash(ReadVector((1, 2, 3)))
        assert ReadVector([4, 5], [1]) == ReadVector((4, 0), (1,))

    def test_a_read_keeps_the_tuple_it_is_given(self):
        values = (0, 3, 1)
        read = ReadVector.exact(values)
        assert read.entries is values and read.admit(3, 4) is values

    def test_a_matrix_given_lists(self):
        matrix = QMatrix(2, [[0, 1], [1, 0]])
        assert matrix.rows == ((0, 1), (1, 0))
        assert matrix == QMatrix(2, ((0, 1), (1, 0)))
        assert hash(matrix) == hash(QMatrix(2, ((0, 1), (1, 0))))


class TestErasedPositions:
    def test_a_read_without_erasures(self):
        read = ReadVector.exact([0, 3, 1])
        assert read.erased == () and ReadVector.exact([]).erased == ()
        assert read == ReadVector((0, 3, 1), ()) == ReadVector.with_erasures([0, 3, 1], [])
        assert repr(read) == "ReadVector(entries=(0, 3, 1), erased=())"

    def test_positions_are_sorted_distinct_and_hold_0(self):
        read = ReadVector((4, 5, None, 7), (3, 2, 3))
        assert read.entries == (4, 5, 0, 0) and read.erased == (2, 3)
        assert read == ReadVector((4, 5, 0, 0), (2, 3))
        assert hash(read) == hash(ReadVector.with_erasures([4, 5, 6, 7], {3, 2}))
        assert repr(read) == "ReadVector(entries=(4, 5, 0, 0), erased=(2, 3))"

    @pytest.mark.parametrize(
        "erased", [(3,), (-1,), (1.0,), (True,), ("1",), (False, True), (True, False, False)])
    def test_refusals(self, erased):
        # a flags tuple is refused, never read as positions
        with pytest.raises(ValueError, match=r"^erasure index .+ is outside \[0, 3\)$"):
            ReadVector((0, 3, 1), erased)

    def test_shortened_scheme_shifts_the_positions(self, monkeypatch):
        scheme = api.ShortenedScheme(api.HammingScheme(2, 2, 6, 1, rho_max=1), 2)
        seen = []
        decode = scheme.base.decode
        monkeypatch.setattr(scheme.base, "decode", lambda y: seen.append(y) or decode(y))
        rows = [[1, 0, 1, 1], [0, 1, 1, 0]]
        clean = api.compute_clean([1, 1], scheme.encode(QMatrix.from_lists(2, rows)))
        assert scheme.decode(ReadVector.exact(clean)).prefix == tuple(clean[: scheme.k])
        assert scheme.decode(ReadVector.with_erasures(clean, [1])).prefix == tuple(clean[:4])
        plain, erased = seen
        assert plain.erased == () and plain.entries == (0,) * 2 + tuple(clean)
        assert erased.erased == (3,) and erased.entries[3] == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_read_holds_0_at_its_erased_positions(data):
    clean = data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=20))
    n = len(clean)
    erased = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    placeholders = st.one_of(st.integers(), st.none(), st.floats(), st.integers(max_value=-1))
    entries = list(clean)
    for j in erased:
        entries[j] = data.draw(placeholders)
    read = ReadVector(tuple(entries), tuple(erased))
    expect = [0 if j in erased else v for j, v in enumerate(clean)]
    assert read.entries == tuple(expect) and read.erased == tuple(sorted(set(erased)))
    packed = read.check_alphabet(9, True)
    assert packed.dtype == np.uint8 and packed.tolist() == expect
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "y.json"
        write_vector(path, read, 9)
        assert read_vector(path) == (read, 9)
    bad = data.draw(st.one_of(
        st.integers(max_value=-1), st.integers(min_value=n), st.booleans(), st.floats()))
    with pytest.raises(ValueError, match="erasure index"):
        ReadVector(tuple(entries), tuple(erased) + (bad,))


class TestAdmit:
    def test_accepts(self):
        ReadVector.exact([0, 3, 1]).admit(3, 4)
        ReadVector((0, 9, 1), (1,)).admit(3, 4, erasures=True)

    @pytest.mark.parametrize(
        "read,n,erasures,message",
        [
            # erasures are refused before the length is looked at
            (ReadVector((0, 1), (0,)), 3, False,
             "erasures are outside this decoder's contract"),
            (ReadVector.exact([0, 1]), 3, False, "read vector length 2 != 3"),
            (ReadVector((0, 1), (0,)), 3, True, "read vector length 2 != 3"),
            (ReadVector.exact([0, 1, 4]), 3, False,
             "entry 2 = 4 is outside the read alphabet [0, 4)"),
        ],
    )
    def test_messages(self, read, n, erasures, message):
        with pytest.raises(ValueError) as info:
            read.admit(n, 4, erasures=erasures)
        assert str(info.value) == message


class TestCorrected:
    def test_subtracts_pairs_from_prefix(self):
        assert corrected([3, 1, 2, 0], 3, [(0, 1), (2, -1)], 4) == decoded([2, 1, 3])

    @pytest.mark.parametrize("error", [(1, 2), (2, -2)])
    def test_range_escape_fails(self, error):
        assert corrected([3, 1, 2, 0], 3, [(0, 1), error], 4) == DECODE_FAILURE

    def test_position_past_prefix_ignored(self):
        # a corrected redundancy entry would leave the range, but is not data
        assert corrected([3, 1, 2, 0], 3, [(3, 1)], 4) == decoded([3, 1, 2])

    def test_zero_values_ignored(self):
        # an untouched entry is not re-checked: admit has bounded it
        assert corrected([5, 1, 2], 3, [(0, 0), (1, 1)], 4) == decoded([5, 0, 2])

    def test_prefix_is_a_tuple_and_the_values_are_not_changed(self):
        for values in ([3, 1, 2, 0], (3, 1, 2, 0)):
            outcome = corrected(values, 3, [(0, 1), (3, 1)], 4)
            assert type(outcome.prefix) is tuple and outcome.prefix == (2, 1, 2)
            assert list(values) == [3, 1, 2, 0]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(0, 8), min_size=1, max_size=20),
        st.data(),
    )
    def test_matches_a_fresh_list_of_the_prefix(self, values, data):
        # the reference: copy the k-prefix, subtract pair by pair, and fail
        # as soon as an entry leaves [0, 9)
        k = data.draw(st.integers(0, len(values)))
        errors = data.draw(st.lists(
            st.tuples(st.integers(0, len(values) - 1), st.integers(-9, 9)), max_size=4))
        prefix, expect = list(values[:k]), None
        for j, e in errors:
            if e and j < k:
                prefix[j] -= e
                if not 0 <= prefix[j] < 9:
                    expect = DECODE_FAILURE
                    break
        expect = expect or decoded(prefix)
        assert corrected(tuple(values), k, errors, 9) == expect


class TestQMatrixTypes:
    @pytest.mark.parametrize("q", [4.0, True, "4"])
    def test_alphabet_must_be_int(self, q):
        with pytest.raises(ValueError, match="alphabet size must be an integer"):
            QMatrix(q, ((0, 1),))

    @pytest.mark.parametrize("bad", [1.0, True, False, None, "1"])
    def test_entries_must_be_int(self, bad):
        with pytest.raises(ValueError, match=r"^entry \(1,2\) = .* is not an integer$"):
            QMatrix(4, ((0, 1, 2), (3, 0, bad)))

    def test_range_message(self):
        with pytest.raises(ValueError, match=r"^entry \(0,1\) = 4 is outside \[0, 4\)$"):
            QMatrix(4, ((0, 4, 2), (3, 0, 1)))

    # One bad entry in a wide row, on both sides of the byte cut (q <= 256
    # packs a row as bytes; bytearray would take True and np.int64(1), so
    # the type test must come first).  256 is refused at q = 2 and 256 by
    # the range alone, and admitted at q = 257.
    @pytest.mark.parametrize("q", [2, 256, 257])
    @pytest.mark.parametrize(
        "bad,message",
        [
            (True, "entry (1,7) = True is not an integer"),
            (np.int64(1), "entry (1,7) = np.int64(1) is not an integer"),
            (1.0, "entry (1,7) = 1.0 is not an integer"),
            (-1, "entry (1,7) = -1 is outside [0, {q})"),
            ("q", "entry (1,7) = {q} is outside [0, {q})"),
            (256, "entry (1,7) = 256 is outside [0, {q})"),
        ],
    )
    def test_refusals_either_side_of_the_byte_cut(self, q, bad, message):
        bad = q if isinstance(bad, str) else bad
        row = [v % q for v in range(300)]
        rows = (tuple(row), tuple(row[:7] + [bad] + row[8:]))
        if q == 257 and bad == 256:
            assert QMatrix(q, rows).rows == rows
            return
        with pytest.raises(ValueError) as err:
            QMatrix(q, rows)
        assert str(err.value) == message.format(q=q)

    @pytest.mark.parametrize("q", [2, 256, 257])
    def test_admits_the_top_symbol(self, q):
        rows = ((q - 1,) * 300, (0,) * 299 + (q - 1,))
        assert QMatrix(q, rows).rows == rows


# the storage cuts of pack_block: uint8 up to 256, int64 up to 2^63, then
# Python ints
PACK_BOUNDS = [2, 256, 257, 2**63, 2**63 + 1]


def _packed_by_hand(bound, values):
    """pack_block's contract written plainly: None unless every entry is an
    integer to `operator.index` in [0, bound), else the entries as ints in
    the storage dtype of `bound`."""
    try:
        entries = [operator.index(v) for v in values]
    except TypeError:
        return None
    if not all(0 <= v < bound for v in entries):
        return None
    return np.array(entries, np.uint8 if bound <= 256 else np.int64 if bound <= 2**63 else object)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_pack_block_matches_a_plain_reference(data):
    bound = data.draw(st.sampled_from(PACK_BOUNDS))
    good = st.one_of(
        st.integers(0, bound - 1), st.booleans(), st.integers(0, min(bound, 2**63) - 1).map(np.int64))
    values = data.draw(st.lists(good, max_size=12))
    if data.draw(st.booleans()):  # one bad entry: just past the bound, negative, past int64...
        bad = data.draw(st.one_of(
            st.integers(bound, bound + 300), st.integers(max_value=-1),
            st.integers(min_value=2**63), st.integers(max_value=-(2**63) - 1), st.floats(),
            st.none()))
        values.insert(data.draw(st.integers(0, len(values))), bad)
    expect = _packed_by_hand(bound, values)
    for given_values in (values, tuple(values)):
        packed = pack_block(bound, given_values)
        if expect is None:
            assert packed is None
            continue
        assert packed.dtype == expect.dtype and packed.shape == (len(values),)
        assert packed.tolist() == expect.tolist() and not packed.flags.writeable
    # an integer ndarray, in any shape, packs as its entries do
    if any(type(v) not in (int, bool, np.int64) for v in values):
        return
    ints = [int(v) for v in values]
    arrays = [np.array(ints, dtype) for dtype in (np.int64, np.uint64)
              if all(np.iinfo(dtype).min <= v <= np.iinfo(dtype).max for v in ints)]
    if all(type(v) is bool for v in values):
        arrays.append(np.array(values, bool))
    for array in arrays:
        if len(values) % 2 == 0:
            array = array.reshape(2, -1)
        packed = pack_block(bound, array)
        flat = pack_block(bound, array.ravel().tolist())
        if flat is None:
            assert packed is None
            continue
        assert packed.dtype == flat.dtype and packed.shape == array.shape
        assert packed.tolist() == flat.reshape(array.shape).tolist()
        assert not packed.flags.writeable and not np.shares_memory(packed, array)


def test_pack_block_refuses_a_non_integer_array():
    assert pack_block(9, np.array([1.0, 2.0])) is None
    assert pack_block(9, np.array([1, 2], object)) is None


def test_unit_error_looks_up_both_signs():
    index = {1: 0, 3: 1, 9: 2}
    assert unit_error(index, 11, 3) == (1, 1)
    assert unit_error(index, 11, 2) == (2, -1)  # 11 - 2 = 9
    assert unit_error(index, 11, 5) is None
