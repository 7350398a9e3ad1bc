import pytest

from dpe_codec.core import ReadVector


class TestReadVector:
    def test_with_erasures(self):
        rv = ReadVector.with_erasures([4, 5, 6], [1])
        assert rv.entries == (4, 0, 6)
        assert rv.erased_positions() == [1]

    @pytest.mark.parametrize("index", [3, -1, 99, "1"])
    def test_erasure_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="erasure index"):
            ReadVector.with_erasures([4, 5, 6], [index])

    def test_alphabet_accepts_in_range(self):
        ReadVector.exact([0, 3, 1]).check_alphabet(4)
        ReadVector.exact([]).check_alphabet(4)
        # an erased entry holds a placeholder that is never checked
        ReadVector((0, 9, 1), (False, True, False)).check_alphabet(4)

    @pytest.mark.parametrize(
        "entries,erased,bad",
        [((0, 4, 1), (), "entry 1 = 4"), ((0, 1, -1), (), "entry 2 = -1"),
         ((9, 5, 1), (True, False, False), "entry 1 = 5")],
    )
    def test_alphabet_names_first_bad_entry(self, entries, erased, bad):
        with pytest.raises(ValueError, match=f"^{bad} is outside the read alphabet \\[0, 4\\)$"):
            ReadVector(entries, erased).check_alphabet(4)
