import numpy as np
import pytest

from blockecho import metrics as MT
from blockecho.errors import EvaluationError, SpecError, ValidationError
from blockecho.gan import BlockEchoConfig, train
from blockecho.masking import apply_mask
from blockecho.mf import pretrain


class TestNormalize:
    def test_minmax_column(self):
        x = np.array([[0.0], [5.0], [10.0]])
        out, _ = MT.normalize(x, np.ones((3, 1)))
        eps = MT.EPS_NORM
        assert np.allclose(out, [[eps], [eps + (1.0 - eps) * 0.5], [1.0]])

    def test_constant_column_maps_to_eps(self):
        x = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
        out, params = MT.normalize(x, np.ones((3, 2)))
        assert np.allclose(out[:, 0], MT.EPS_NORM)
        assert params.degenerate[0] and not params.degenerate[1]

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.random((20, 7)) * 100 - 30
        mask = np.ones((20, 7))
        out, params = MT.normalize(x, mask)
        assert np.max(np.abs(params.inverse(out) - x)) < 1e-12

    def test_roundtrip_with_degenerate_columns(self):
        x = np.array([[2.0, 1.0], [2.0, 4.0]])
        out, params = MT.normalize(x, np.ones((2, 2)))
        back = params.inverse(params.transform(x))
        assert np.max(np.abs(back - x)) < 1e-12

    def test_fully_missing_column_flagged(self):
        x = np.array([[1.0, 9.0], [2.0, 9.0]])
        mask = np.array([[1.0, 0.0], [1.0, 0.0]])
        _, params = MT.normalize(x, mask)
        assert params.degenerate[1]

    def test_observed_fit_only(self):
        # a huge value hidden behind the mask must not affect the scale
        x = np.array([[1.0], [2.0], [1e9]])
        mask = np.array([[1.0], [1.0], [0.0]])
        out, _ = MT.normalize(x, mask)
        assert out[0, 0] == MT.EPS_NORM and out[1, 0] == 1.0
        assert out[2, 0] == 0.0  # sentinel at missing

    def test_monotone_per_column(self):
        rng = np.random.default_rng(3)
        x = rng.random((15, 4))
        out, _ = MT.normalize(x, np.ones(x.shape))
        for j in range(4):
            order = np.argsort(x[:, j])
            assert np.all(np.diff(out[order, j]) >= 0)

    def test_empty_mask_rejected(self):
        with pytest.raises(SpecError):
            MT.normalize(np.ones((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("x, mask", [
        ([[1e308], [-1e308]], [[1.0], [1.0]]),                   # a column's own range
        ([[1e308, 1.0], [2.0, -1e308]], [[1.0, 1.0], [0.0, 1.0]]),  # the span a constant column takes
    ])
    def test_span_beyond_float64_rejected(self, x, mask):
        # finite values whose range overflows once warned in the subtraction
        # and left inf spans behind
        with pytest.raises(ValidationError, match="column 0's observed span overflows"):
            MT.normalize(np.array(x), np.array(mask))

    def test_missing_cells_are_never_read(self):
        # the missing cell's distance to the column minimum overflows float64
        x = np.array([[-1e308], [-9e307], [1e308]])
        out, _ = MT.normalize(x, np.array([[1.0], [1.0], [0.0]]))
        assert out.tolist() == [[MT.EPS_NORM], [1.0], [0.0]]

    @pytest.mark.parametrize("shape, seed", [((7, 3), 0), ((5, 1), 1), ((2, 2), 0)])
    def test_subnormal_data_stays_in_range(self, shape, seed):
        # on subnormal data the affine map once rounded a column maximum a
        # few ulp above 1, which gan.train then rejected as unnormalized
        x = np.random.default_rng(seed).random(shape) * 1e-310
        out, _ = MT.normalize(x, np.ones(shape))
        assert np.all((out >= MT.EPS_NORM) & (out <= 1.0))

    def test_subnormal_data_imputes(self):
        x = np.random.default_rng(0).random((7, 3)) * 1e-310
        mask = np.ones((7, 3))
        mask[3, 1] = 0.0
        out, _ = MT.normalize(x, mask)
        xm = apply_mask(out, mask)
        pre, _ = pretrain(xm, 1, max_iters=20)
        _, result = train(xm, pre, BlockEchoConfig(h=1, iters=3))
        assert np.all(np.isfinite(result.imputed))
        assert np.array_equal(result.imputed[mask > 0], out[mask > 0])


class TestRmse:
    def test_exact_gives_zero(self):
        x = np.random.default_rng(1).random((5, 5))
        mask = np.zeros((5, 5))
        mask[0, 0] = 1.0
        pair = MT.rmse_missing(x, x, mask)
        assert pair.standard == 0.0

    def test_hand_values(self):
        truth = np.zeros((1, 2))
        imputed = np.full((1, 2), 0.5)
        pair = MT.rmse_missing(imputed, truth, np.zeros((1, 2)))
        assert abs(pair.standard - 0.5) < 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        truth = rng.random((6, 6))
        err = rng.random((6, 6))
        mask = (rng.random((6, 6)) > 0.5).astype(float)
        mask[0, 0] = 0.0
        a = MT.rmse_missing(truth + err, truth, mask)
        b = MT.rmse_missing(truth + 3.0 * err, truth, mask)
        assert abs(b.standard - 3.0 * a.standard) < 1e-12

    def test_ignores_observed_cells(self):
        rng = np.random.default_rng(4)
        truth = rng.random((5, 5))
        imputed = truth.copy()
        mask = np.ones((5, 5))
        mask[2, 2] = 0.0
        imputed[2, 2] = 0.9
        base = MT.rmse_missing(imputed, truth, mask)
        imputed[0, 0] = 123.0  # observed cells, must not matter
        imputed[0, 1] = np.nan
        truth[1, 0] = np.inf
        assert MT.rmse_missing(imputed, truth, mask) == base

    def test_no_missing_cells(self):
        with pytest.raises(EvaluationError):
            MT.rmse_missing(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)))

    def test_overflow_is_evaluation_error(self):
        # once warned of overflow in multiply
        with pytest.raises(EvaluationError, match="overflows"):
            MT.rmse_missing([[1e200]], [[0.0]], [[0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("arg", [0, 1], ids=["imputed", "truth"])
    def test_non_finite_missing_cell_rejected(self, arg, bad):
        # a bad estimate once returned nan or inf
        args = [[[0.0, 0.5]], [[0.0, 0.5]], [[0.0, 0.0]]]
        args[arg] = [[bad, 0.5]]
        with pytest.raises(ValidationError, match="finite"):
            MT.rmse_missing(*args)


class TestWmape:
    def test_exact(self):
        x = np.array([[1.0, 2.0]])
        assert MT.wmape(x, x) == 0.0

    def test_hand_value(self):
        actual = np.array([[1.0, 2.0, 3.0]])
        pred = np.array([[1.1, 1.9, 3.3]])
        assert abs(MT.wmape(pred, actual) - 0.5 / 6.0) < 1e-12

    def test_zero_prediction_is_one(self):
        actual = np.array([[1.0, 2.0, 3.0]])
        assert MT.wmape(np.zeros((1, 3)), actual) == 1.0

    def test_all_zero_actual(self):
        with pytest.raises(EvaluationError):
            MT.wmape(np.ones((1, 2)), np.zeros((1, 2)))

    @pytest.mark.parametrize("pred, actual", [
        (np.ones((2, 2)), [[np.inf, 1.0], [1.0, 1.0]]),
        (np.ones((2, 2)), [[np.nan, 1.0], [1.0, 1.0]]),
        ([[1.0, -np.inf]], [[1.0, 1.0]]),
        ([[np.nan, 1.0]], [[1.0, 1.0]]),
    ], ids=["inf-actual", "nan-actual", "inf-pred", "nan-pred"])
    def test_non_finite_input_rejected(self, pred, actual):
        # once NaN with a RuntimeWarning, or NaN silently
        with pytest.raises(ValidationError, match="finite"):
            MT.wmape(pred, actual)

    @pytest.mark.parametrize("pred, actual", [
        ([[1e308, 1e308]], [[-1e308, 1e308]]),
        ([[1.0, 1.0]], [[1e308, 1e308]]),
        ([[1e300]], [[5e-324]]),
    ], ids=["error-sum", "actual-sum", "ratio"])
    def test_overflow_is_evaluation_error(self, pred, actual):
        with pytest.raises(EvaluationError, match="overflows"):
            MT.wmape(pred, actual)

    def test_large_finite_sums_still_score(self):
        assert MT.wmape([[1e307, 2e307]], [[2e307, 2e307]]) == 0.25
