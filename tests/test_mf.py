import math
import warnings

import numpy as np
import pytest

from blockecho import mf
from blockecho.errors import EvaluationError, ShapeError, SpecError, ValidationError
from blockecho.masking import MaskedMatrix, MaskSpec, apply_mask, generate_mask
from blockecho.metrics import normalize, rmse_missing


def random_instance(m, n, seed, missing=0.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 1.0, size=(m, n))
    if missing:
        mask = generate_mask(MaskSpec("scattered", missing, seed + 1), m, n)
    else:
        mask = np.ones((m, n))
    return x, mask


class TestKlLoss:
    def test_zero_when_equal(self):
        x, mask = random_instance(4, 5, 0)
        assert mf.kl_loss(x, x.copy(), mask) == 0.0

    def test_hand_value(self):
        val = mf.kl_loss([[2.0]], [[1.0]], [[1.0]])
        assert abs(val - (2.0 * np.log(2.0) - 1.0)) < 1e-12

    def test_zero_observed_limit(self):
        assert mf.kl_loss([[0.0]], [[0.5]], [[1.0]]) == 0.5

    def test_negative_observed_directs_to_normalize(self):
        with pytest.raises(ValidationError, match="normalize"):
            mf.kl_loss([[-1.0]], [[1.0]], [[1.0]])

    def test_masked_cells_ignored(self):
        x = np.array([[1.0, 50.0]])
        xhat = np.array([[1.0, 1.0]])
        mask = np.array([[1.0, 0.0]])
        assert mf.kl_loss(x, xhat, mask) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observed_value_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            mf.kl_loss([[bad, 0.5]], [[1.0, 1.0]], np.ones((1, 2)))

    def test_non_finite_value_in_masked_cell_ignored(self):
        assert mf.kl_loss([[1.0, np.nan]], [[1.0, 1.0]], [[1.0, 0.0]]) == 0.0

    def test_zero_observed_with_subnormal_estimate(self):
        # once overflowed in 1 / xhat on the way to the limit term
        assert mf.kl_loss([[0.0]], [[1e-310]], [[1.0]]) == 1e-310

    @pytest.mark.parametrize("x, xhat", [
        (1.0, 1e-310),   # x / xhat overflows
        (1e300, 1e-10),  # x / xhat overflows
        (1e-320, 1e10),  # x / xhat underflows to 0, whose log divided by zero
        (1e-300, 1e10),  # x / xhat is subnormal
    ])
    def test_ratio_outside_float64_range_gives_finite_loss(self, x, xhat):
        # filterwarnings = error turns a stray RuntimeWarning into a failure
        val = mf.kl_loss([[x]], [[xhat]], [[1.0]])
        ref = x * (math.log(x) - math.log(xhat)) - x + xhat
        assert math.isfinite(val)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_ratio_fallback_leaves_other_cells_bit_exact(self):
        x = np.array([[0.3, 1.0, 0.0, 0.7]])
        xhat = np.array([[0.5, 1e-310, 0.2, 0.9]])
        ones = np.ones((1, 4))
        split = mf.kl_loss(x[:, 1:2], xhat[:, 1:2], ones[:, :1])
        rest = np.array([[0.3, 0.0, 0.7]]), np.array([[0.5, 0.2, 0.9]])
        terms = rest[0] * np.log(np.where(rest[0] > 0, rest[0], rest[1]) / rest[1])
        terms += rest[1] - rest[0]
        expected = np.array([[terms[0, 0], split, terms[0, 1], terms[0, 2]]]).sum()
        assert mf.kl_loss(x, xhat, ones) == expected

    @pytest.mark.parametrize("x, xhat", [
        ([[1e308]], [[1e-308]]),                 # the ratio's fallback term overflows
        ([[1e308, 1e308]], [[1.0, 1.0]]),        # x * log(x / xhat) overflows
    ])
    def test_overflowing_loss_is_evaluation_error(self, x, xhat):
        # once warned of overflow in multiply and returned inf
        with pytest.raises(EvaluationError, match="overflows"):
            mf.kl_loss(x, xhat, np.ones_like(x))

    @pytest.mark.parametrize("x", [0.0, 0.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_estimate_rejected(self, x, bad):
        # inf once warned of a divide by zero in log, nan returned nan
        with pytest.raises(ValidationError, match="finite and strictly positive"):
            mf.kl_loss([[x, 0.5]], [[bad, 1.0]], np.ones((1, 2)))


class TestMuStep:
    def test_fixed_point_when_exact(self):
        # U @ V already reproduces x on the full mask -> multipliers are 1
        U = np.array([[1.0], [2.0]])
        V = np.array([[3.0, 4.0]])
        x = U @ V
        out = mf.mu_step(x, np.ones((2, 2)), mf.FactorPair(U, V))
        assert np.allclose(out.U, U) and np.allclose(out.V, V)

    def test_hand_multiplier_all_ones(self):
        # x all ones, full mask, h=1, U=V=1: xhat=1 so numer=denom -> unchanged
        f = mf.FactorPair(np.ones((2, 1)), np.ones((1, 2)))
        out = mf.mu_step(np.ones((2, 2)), np.ones((2, 2)), f)
        assert np.allclose(out.U, 1.0) and np.allclose(out.V, 1.0)

    def test_monotone_on_random_instances(self):
        for seed in range(30):
            x, mask = random_instance(20, 15, seed, missing=0.6)
            factors = mf.init_factors(x, mask, 3, seed)
            prev = mf.kl_loss(x, factors.U @ factors.V, mask)
            for _ in range(5):
                factors = mf.mu_step(x, mask, factors)
                cur = mf.kl_loss(x, factors.U @ factors.V, mask)
                assert cur <= prev + 1e-9
                prev = cur

    def test_unobserved_row_left_unchanged(self):
        x, _ = random_instance(5, 4, 2)
        mask = np.ones((5, 4))
        mask[1, :] = 0.0
        factors = mf.init_factors(x, mask, 2, 0)
        u_before = factors.U[1].copy()
        with pytest.warns(RuntimeWarning, match="rows"):
            out = mf.mu_step(x, mask, factors)
        assert np.array_equal(out.U[1], u_before)

    def test_positivity_floor(self):
        for seed in range(5):
            x, mask = random_instance(10, 8, seed, missing=0.4)
            factors = mf.init_factors(x, mask, 2, seed)
            for _ in range(20):
                factors = mf.mu_step(x, mask, factors)
            assert factors.U.min() >= mf.EPS_FLOOR and factors.V.min() >= mf.EPS_FLOOR

    def test_mask_locality(self):
        # changing a hidden cell changes neither the loss nor the update
        x, mask = random_instance(8, 6, 3, missing=0.5)
        factors = mf.init_factors(x, mask, 2, 1)
        x2 = x.copy()
        hidden = np.argwhere(mask == 0)[0]
        x2[hidden[0], hidden[1]] = 99.0
        assert mf.kl_loss(x, factors.U @ factors.V, mask) == mf.kl_loss(
            x2, factors.U @ factors.V, mask
        )
        a = mf.mu_step(x, mask, factors)
        b = mf.mu_step(x2, mask, factors)
        assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)


class TestMuStepValidation:
    # each of these was once accepted: negative data came back as factors
    # floored to EPS_FLOOR, and NaN data warned of dead columns
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_observed_value_rejected(self, bad):
        f = mf.FactorPair(np.ones((2, 2)), np.ones((2, 2)))
        x = np.ones((2, 2))
        x[0, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            mf.mu_step(x, np.ones((2, 2)), f)

    def test_negative_data_rejected(self):
        f = mf.FactorPair(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValidationError):
            mf.mu_step(-np.ones((2, 2)), np.ones((2, 2)), f)

    @pytest.mark.parametrize("entry", [0.5, 2.0, -1.0, np.nan])
    def test_non_binary_mask_rejected(self, entry):
        f = mf.FactorPair(np.ones((2, 2)), np.ones((2, 2)))
        mask = np.ones((2, 2))
        mask[1, 0] = entry
        with pytest.raises(ValidationError, match="exactly 0 or 1"):
            mf.mu_step(np.ones((2, 2)), mask, f)

    def test_invalid_value_in_masked_cell_ignored(self):
        x, _ = random_instance(6, 4, 1)
        mask = np.ones((6, 4))
        mask[2, 3] = 0.0
        factors = mf.init_factors(x, mask, 2, 0)
        a = mf.mu_step(x, mask, factors)
        x[2, 3] = np.nan
        b = mf.mu_step(x, mask, factors)
        assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)

    def test_dead_columns_counted_from_the_mask(self):
        x, _ = random_instance(5, 4, 2)
        mask = np.ones((5, 4))
        mask[:, [0, 2]] = 0.0
        factors = mf.init_factors(x, mask, 2, 0)
        with pytest.warns(RuntimeWarning, match="^2 columns"):
            out = mf.mu_step(x, mask, factors)
        assert np.array_equal(out.V[:, [0, 2]], factors.V[:, [0, 2]])


class TestShapeMismatch:
    # each of these once surfaced as numpy's ValueError or an IndexError,
    # or as a SpecError where every other module raises ShapeError
    @pytest.mark.parametrize("U_rows, mask_shape", [(5, (6, 4)), (6, (6, 3)), (6, (1, 4))],
                             ids=["factor-rows", "mask-columns", "mask-rows"])
    def test_mu_step(self, U_rows, mask_shape):
        f = mf.FactorPair(np.ones((U_rows, 2)), np.ones((2, 4)))
        with pytest.raises(ShapeError):
            mf.mu_step(np.ones((6, 4)), np.ones(mask_shape), f)

    def test_init_factors(self):
        with pytest.raises(ShapeError):
            mf.init_factors(np.ones((6, 4)), np.ones((6, 3)), 2, 0)

    def test_kl_loss(self):
        with pytest.raises(ShapeError):
            mf.kl_loss(np.ones((3, 3)), np.ones((3, 2)), np.ones((3, 3)))

    def test_factor_inner_dims(self):
        with pytest.raises(ShapeError, match="inner dims"):
            mf.FactorPair(np.ones((3, 2)), np.ones((3, 4)))


class TestPretrain:
    def test_rank1_exact_recovery(self):
        x = np.array([[1.0], [2.0]]) @ np.array([[3.0, 4.0]])
        xm = apply_mask(x, np.ones((2, 2)))
        factors, trace = mf.pretrain(xm, h=1, max_iters=500, tol=1e-14, seed=0)
        assert trace.losses[-1] < 1e-6

    def test_full_rank_drives_loss_down(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0.1, 1.0, size=(10, 8))
            xm = apply_mask(x, np.ones((10, 8)))
            _, trace = mf.pretrain(xm, h=8, max_iters=3000, tol=1e-14, seed=seed)
            assert trace.losses[-1] < 1e-4

    def test_trace_nonincreasing(self):
        x, mask = random_instance(20, 15, 7, missing=0.6)
        xm = apply_mask(x, mask)
        _, trace = mf.pretrain(xm, h=3, max_iters=200, seed=7)
        diffs = np.diff(trace.losses)
        assert np.all(diffs <= 1e-9)

    def test_deterministic(self):
        x, mask = random_instance(12, 9, 5, missing=0.3)
        xm = apply_mask(x, mask)
        f1, t1 = mf.pretrain(xm, h=2, max_iters=50, seed=3)
        f2, t2 = mf.pretrain(xm, h=2, max_iters=50, seed=3)
        assert np.array_equal(f1.U, f2.U) and np.array_equal(f1.V, f2.V)
        assert t1.losses == t2.losses

    @pytest.mark.parametrize("kw", [{"h": 2.5}, {"h": 2, "max_iters": 2.5}])
    def test_non_integer_size_rejected(self, kw):
        xm = apply_mask(*random_instance(5, 4, 0))
        with pytest.raises(SpecError, match="must be an integer"):
            mf.pretrain(xm, **kw)

    @pytest.mark.parametrize("kw, field", [
        ({"max_iters": -3}, "max_iters"),
        ({"tol": -1e-6}, "tol"), ({"tol": np.nan}, "tol"), ({"tol": np.inf}, "tol"),
        # these once surfaced as a stray TypeError
        ({"tol": "1"}, "tol"), ({"tol": None}, "tol"), ({"tol": False}, "tol"),
    ])
    def test_out_of_range_iterations_or_tolerance_rejected(self, kw, field):
        xm = apply_mask(*random_instance(5, 4, 0))
        with pytest.raises(SpecError, match=field):
            mf.pretrain(xm, 2, **kw)

    def test_numpy_integer_sizes_accepted(self):
        xm = apply_mask(*random_instance(5, 4, 0))
        factors, trace = mf.pretrain(xm, np.int64(2), max_iters=np.int32(3))
        assert factors.h == 2 and trace.iterations <= 3
        assert type(trace.iterations) is int

    def test_empty_mask_rejected(self):
        xm = MaskedMatrix(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(SpecError):
            mf.pretrain(xm, h=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observed_value_rejected(self, bad):
        x, mask = random_instance(6, 5, 8)
        xm = apply_mask(x, mask)
        xm.values[2, 3] = bad  # set after MaskedMatrix's own check
        with pytest.raises(ValidationError, match="finite"):
            mf.pretrain(xm, h=2, max_iters=5)

    def test_recovery_oracle_scattered(self):
        # rank <= 3 positive matrices, 60% scattered missing: RMSE on the
        # hidden cells, measured on the normalized scale, < 0.05 for at
        # least 8/10 seeds (exact factorizations exist, so recovery is
        # limited only by the optimizer's local optima)
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            r = int(rng.integers(1, 4))
            x = rng.uniform(0.3, 1.3, (30, r)) @ rng.uniform(0.3, 1.3, (r, 20))
            mask = generate_mask(MaskSpec("scattered", 0.6, seed), 30, 20)
            xm = apply_mask(x, mask)
            factors, _ = mf.pretrain(xm, h=r, max_iters=4000, tol=1e-12, seed=seed)
            _, params = normalize(x, mask)
            err = rmse_missing(
                params.transform(mf.mf_impute(factors)), params.transform(x), mask
            )
            if err.standard < 0.05:
                wins += 1
        assert wins >= 8


def reference_pretrain(xm, h, max_iters, tol, seed):
    """pretrain written as a loop over the public init_factors, mu_step and
    kl_loss, which compute every product and mask afresh on each call. The
    loss is evaluated on pretrain's cadence: after every CHECK_EVERY-th
    update and after the last one. Returns (factors, losses, converged,
    updates run)."""
    x, mask = xm.values, xm.mask
    factors = mf.init_factors(x, mask, h, seed)
    losses = [mf.kl_loss(x, factors.U @ factors.V, mask)]
    converged = False
    last_check = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for it in range(1, max_iters + 1):
            factors = mf.mu_step(x, mask, factors)
            if it % mf.CHECK_EVERY and it < max_iters:
                continue
            losses.append(mf.kl_loss(x, factors.U @ factors.V, mask))
            steps, last_check = it - last_check, it
            if losses[-2] <= 0 or (losses[-2] - losses[-1]) / losses[-2] < tol * steps:
                converged = True
                break
    dead_rows = mask.sum(axis=1) == 0
    dead_cols = mask.sum(axis=0) == 0
    if dead_rows.any():
        factors.U[dead_rows] = factors.U[~dead_rows].mean(axis=0)
    if dead_cols.any():
        factors.V[:, dead_cols] = factors.V[:, ~dead_cols].mean(axis=1, keepdims=True)
    return factors, losses, converged, last_check


def bit_exact_case(name):
    """(MaskedMatrix, h, max_iters, tol) of one named pretrain case."""
    x, mask = random_instance(20, 15, 11, missing=0.4)
    h, max_iters, tol = 3, 60, 0.0
    if name == "block":
        mask = generate_mask(MaskSpec("uniblock", 0.3, 12), 20, 15)
    elif name == "dead_row":
        mask[4, :] = 0.0
    elif name == "dead_col":
        mask[:, 7] = 0.0
    elif name == "observed_zeros":
        x[np.random.default_rng(13).random(x.shape) < 0.2] = 0.0
    elif name == "early_stop":
        max_iters, tol = 500, 1e-3
    elif name == "tiny":
        x, mask, h = np.array([[0.3, 0.9], [0.5, 0.0]]), np.array([[1.0, 1.0], [0.0, 1.0]]), 1
    return apply_mask(x, mask), h, max_iters, tol


BIT_EXACT_CASES = ["scattered", "block", "dead_row", "dead_col", "observed_zeros", "early_stop", "tiny"]


def plain_steps(xm, h, updates, seed):
    """init_factors followed by `updates` plain mu_step calls."""
    factors = mf.init_factors(xm.values, xm.mask, h, seed)
    for _ in range(updates):
        factors = mf.mu_step(xm.values, xm.mask, factors)
    return factors


class TestPretrainBitExact:
    @pytest.mark.parametrize("name", BIT_EXACT_CASES)
    def test_matches_public_step_loop(self, name):
        xm, h, max_iters, tol = bit_exact_case(name)
        factors, trace = mf.pretrain(xm, h, max_iters=max_iters, tol=tol, seed=5)
        ref, losses, converged, updates = reference_pretrain(xm, h, max_iters, tol, seed=5)
        assert np.array_equal(factors.U, ref.U) and np.array_equal(factors.V, ref.V)
        assert trace.losses == losses
        assert trace.converged == converged
        assert trace.iterations == updates
        if name == "early_stop":
            assert trace.converged and trace.iterations < max_iters
        if name == "observed_zeros":
            assert np.any((xm.values == 0) & (xm.mask > 0))

    @pytest.mark.parametrize("name", [c for c in BIT_EXACT_CASES if not c.startswith("dead_")])
    def test_factors_are_the_plain_updates_whatever_the_stop(self, name):
        xm, h, max_iters, tol = bit_exact_case(name)
        assert xm.mask.any(axis=1).all() and xm.mask.any(axis=0).all()
        factors, trace = mf.pretrain(xm, h, max_iters=max_iters, tol=tol, seed=5)
        plain = plain_steps(xm, h, trace.iterations, seed=5)
        assert np.array_equal(factors.U, plain.U) and np.array_equal(factors.V, plain.V)

    @pytest.mark.parametrize("name", BIT_EXACT_CASES)
    def test_one_loss_per_check_the_last_of_the_returned_factors(self, name):
        xm, h, max_iters, tol = bit_exact_case(name)
        factors, trace = mf.pretrain(xm, h, max_iters=max_iters, tol=tol, seed=5)
        assert len(trace.losses) == 1 + math.ceil(trace.iterations / mf.CHECK_EVERY)
        assert trace.losses[-1] == mf.kl_loss(xm.values, factors.U @ factors.V, xm.mask)

    def test_partial_final_window_is_checked(self):
        xm, h, _, _ = bit_exact_case("scattered")
        factors, trace = mf.pretrain(xm, h, max_iters=23, tol=0.0, seed=5)
        assert trace.iterations == 23 and not trace.converged
        assert len(trace.losses) == 4
        plain = plain_steps(xm, h, 23, seed=5)
        assert np.array_equal(factors.U, plain.U) and np.array_equal(factors.V, plain.V)
        assert trace.losses[-1] == mf.kl_loss(xm.values, plain.U @ plain.V, xm.mask)
        # the full windows before it are the checks of a 20-update run
        _, trace20 = mf.pretrain(xm, h, max_iters=20, tol=0.0, seed=5)
        assert trace.losses[:3] == trace20.losses

    def test_large_tol_stops_at_the_first_check(self):
        xm, h, _, _ = bit_exact_case("scattered")
        _, trace = mf.pretrain(xm, h, max_iters=500, tol=1.0, seed=5)
        assert trace.converged
        assert trace.iterations == mf.CHECK_EVERY
        assert len(trace.losses) == 2

    @pytest.mark.parametrize("name", BIT_EXACT_CASES)
    def test_negative_zero_in_missing_cells_changes_no_bit(self, name):
        # pretrain reads the values as given, -0.0 sentinels included
        xm, h, max_iters, tol = bit_exact_case(name)
        values = xm.values.copy()
        values[xm.mask == 0] = -0.0
        signed = MaskedMatrix(values, xm.mask.copy())
        assert np.signbit(signed.values[xm.mask == 0]).all()
        a, trace_a = mf.pretrain(xm, h, max_iters=max_iters, tol=tol, seed=5)
        b, trace_b = mf.pretrain(signed, h, max_iters=max_iters, tol=tol, seed=5)
        assert a.U.tobytes() == b.U.tobytes() and a.V.tobytes() == b.V.tobytes()
        assert np.array(trace_a.losses).tobytes() == np.array(trace_b.losses).tobytes()


class TestImputeAndIO:
    def test_hand_product(self):
        f = mf.FactorPair(np.array([[1.0], [2.0]]), np.array([[3.0, 4.0]]))
        assert np.array_equal(mf.mf_impute(f), [[3.0, 4.0], [6.0, 8.0]])

    @pytest.mark.parametrize("h", [2.5, "2"])
    def test_non_integer_rank_rejected_by_init_factors(self, h):
        # these once surfaced as a stray TypeError
        with pytest.raises(SpecError, match="h must be an integer"):
            mf.init_factors(np.ones((3, 3)), np.ones((3, 3)), h, 0)

    def test_zero_rank_rejected(self):
        with pytest.raises(SpecError):
            mf.FactorPair(np.ones((3, 0)), np.ones((0, 2)))
        with pytest.raises(SpecError):
            mf.init_factors(np.ones((3, 3)), np.ones((3, 3)), 0, 0)

    def test_nan_factor_rejected(self):
        # NaN compares false against the floor, so the check must be
        # written as "not >= EPS_FLOOR" to catch it
        U = np.ones((3, 2))
        U[1, 0] = np.nan
        with pytest.raises(ValidationError):
            mf.FactorPair(U, np.ones((2, 4)))
        with pytest.raises(ValidationError):
            mf.FactorPair(np.ones((2, 1)), np.array([[1.0, np.nan]]))

    def test_floor_factors(self):
        f = mf.FactorPair(
            np.full((2, 1), mf.EPS_FLOOR), np.full((1, 2), mf.EPS_FLOOR)
        )
        assert np.allclose(mf.mf_impute(f), mf.EPS_FLOOR**2)

