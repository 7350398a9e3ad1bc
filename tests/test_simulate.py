import pytest

from dpe_codec.basemath import l1_norm
from dpe_codec.core import QMatrix
from dpe_codec.simulate import FaultModel, compute_clean, inject

A_EXAMPLE = QMatrix.from_lists(
    2,
    [
        [1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1],
        [0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1],
        [0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0],
    ],
)
C_EXAMPLE = [1, 1, 1, 2, 0, 3, 1, 1, 2, 2, 1, 1, 2, 1, 2]


class TestComputeClean:
    def test_known_product(self):
        assert compute_clean([1, 1, 1], A_EXAMPLE) == C_EXAMPLE

    def test_zero_input(self):
        assert compute_clean([0, 0, 0], A_EXAMPLE) == [0] * 15

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_clean([1, 1], A_EXAMPLE)

    def test_alphabet_check(self):
        with pytest.raises(ValueError):
            compute_clean([1, 2, 1], A_EXAMPLE)  # 2 outside Sigma_2

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, "a", None])
    def test_input_entries_must_be_int(self, bad):
        # a float used to pass through (0.5 gave a fractional product) and
        # a string escaped as a raw TypeError
        with pytest.raises(ValueError, match=rf"^input entry must be an integer, got {bad!r}$"):
            compute_clean([1, bad, 1], A_EXAMPLE)

    def test_product_of_a_wide_matrix(self):
        rows = [[(3 * i + j) % 5 for j in range(200)] for i in range(4)]
        u = [4, 0, 3, 1]
        expected = [sum(u[i] * rows[i][j] for i in range(4)) for j in range(200)]
        assert compute_clean(u, QMatrix.from_lists(5, rows)) == expected


class TestInject:
    def test_zero_budget_is_identity(self):
        report = inject(C_EXAMPLE, FaultModel.l1_drift(0, seed=1), 4)
        assert report.read.entries == tuple(C_EXAMPLE)
        assert report.read.erased == ()
        assert report.log == ()

    def test_drift_regression_seed7(self):
        # fixed-seed regression, recorded at first run
        report = inject(C_EXAMPLE, FaultModel.l1_drift(1, seed=7), 4)
        assert report.error == (0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert report.log == ({"fault": "drift", "step": 0, "position": 5, "delta": -1},)

    def test_drift_budget_bound(self):
        for seed in range(30):
            for t in (1, 2, 5):
                report = inject(C_EXAMPLE, FaultModel.l1_drift(t, seed=seed), 4)
                assert l1_norm(report.error) <= t
                assert all(0 <= v < 4 for v in report.read.entries)

    def test_flip_regression_seed5(self):
        report = inject(C_EXAMPLE, FaultModel.symbol_flip(2, 3, seed=5), 4)
        assert report.error == (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0)
        # clamping kept the raw pre-coercion values in the log
        assert report.log[0]["raw"] == -3 and report.log[0]["applied"] == 0

    def test_flip_invariants(self):
        for seed in range(25):
            report = inject(C_EXAMPLE, FaultModel.symbol_flip(3, 2, seed=seed), 4)
            assert sum(1 for v in report.error if v) <= 3
            assert max(abs(v) for v in report.error) <= 2
            assert all(0 <= v < 4 for v in report.read.entries)

    def test_short_column(self):
        report = inject(C_EXAMPLE, FaultModel.short_column(2, seed=3), 4)
        assert len(report.read.erased) == 2
        assert len(report.log) == 2

    def test_manual_placement(self):
        model = FaultModel.manual(deltas=[(5, -1)], erase=[2])
        report = inject(C_EXAMPLE, model, 4)
        assert report.read.entries[5] == 2
        assert report.read.erased == (2,)
        assert report.error[5] == -1

    def test_determinism(self):
        model = FaultModel.symbol_flip(3, 2, seed=11)
        a = inject(C_EXAMPLE, model, 4)
        b = inject(C_EXAMPLE, model, 4)
        assert a == b
        assert repr(a) == repr(b)

    def test_infeasible_budget(self):
        with pytest.raises(ValueError):
            inject(C_EXAMPLE, FaultModel.short_column(16, seed=0), 4)
        with pytest.raises(ValueError):
            inject(C_EXAMPLE, FaultModel.symbol_flip(16, 1, seed=0), 4)

    def test_manual_out_of_range_position(self):
        with pytest.raises(ValueError):
            inject(C_EXAMPLE, FaultModel.manual(deltas=[(15, 1)]), 4)


class TestIntegerInputs:
    """Counts, budgets, magnitudes, seeds, the clean vector and the
    alphabet are ints; each repro below used to pass or escape as a
    TypeError."""

    def test_float_clean_entries(self):
        # returned entries (2.5, 2.0, 0.0)
        with pytest.raises(ValueError, match=r"^clean entry must be an integer, got 1\.5$"):
            inject([1.5, 2.0, 0.0], FaultModel.l1_drift(1, seed=1), 4)

    @pytest.mark.parametrize("budget", [1.5, True])
    def test_drift_budget(self, budget):
        # True built a model whose to_json wrote "t": true
        with pytest.raises(ValueError, match=rf"^budget must be an integer, got {budget!r}$"):
            FaultModel.l1_drift(budget)

    def test_flip_count(self):
        # escaped as a TypeError from random.sample
        with pytest.raises(ValueError, match=r"^count must be an integer, got 1\.0$"):
            FaultModel.symbol_flip(1.0, 1)

    @pytest.mark.parametrize("build", [
        lambda: FaultModel.symbol_flip(1, 2.0), lambda: FaultModel.short_column(True),
        lambda: FaultModel.l1_drift(1, seed=1.5)])
    def test_every_count_magnitude_and_seed(self, build):
        with pytest.raises(ValueError, match="must be an integer"):
            build()

    def test_alphabet(self):
        with pytest.raises(ValueError, match=r"^alphabet must be an integer, got 4\.0$"):
            inject(C_EXAMPLE, FaultModel.l1_drift(1), 4.0)

    def test_range_message_is_kept(self):
        with pytest.raises(ValueError, match="^clean vector is outside the output alphabet$"):
            inject(C_EXAMPLE[:-1] + [4], FaultModel.l1_drift(1), 4)


class TestFaultModelJson:
    def test_roundtrip(self):
        models = [
            FaultModel.l1_drift(3, seed=9),
            FaultModel.symbol_flip(2, 4, seed=1),
            FaultModel.short_column(1, seed=2),
            FaultModel.manual(deltas=[(5, -1), (13, 1)], erase=[7]),
        ]
        for model in models:
            assert FaultModel.from_json(model.to_json()) == model

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultModel.from_json({"kind": "gamma_ray"})
