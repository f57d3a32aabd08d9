import math

import numpy as np
import pytest

from blockecho import mf
from blockecho.errors import EvaluationError, ShapeError, SpecError, ValidationError
from blockecho.kernel import make_rng
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


def init_factors(x, mask, h, seed):
    """pretrain's initial factors, written out: uniform [0.1, 1.1] draws
    rescaled so that mean(U @ V) is the mean of the observed values, then
    floored at EPS_FLOOR."""
    rng = make_rng(seed)
    m, n = np.shape(x)
    U = rng.uniform(0.1, 1.1, size=(m, h))
    V = rng.uniform(0.1, 1.1, size=(h, n))
    target = float(np.mean(np.asarray(x)[np.asarray(mask, dtype=bool)]))
    if target > 0:
        scale = np.sqrt(target / float(np.mean(U @ V)))
        U *= scale
        V *= scale
    return mf.FactorPair(np.maximum(U, mf.EPS_FLOOR), np.maximum(V, mf.EPS_FLOOR))


def kl(x, xhat, mask):
    """kl_loss of the observed cells of x against the same cells of xhat."""
    obs = np.asarray(mask, dtype=bool)
    return mf.kl_loss(np.asarray(x, dtype=float)[obs], np.asarray(xhat, dtype=float)[obs])


def step(x, mask, factors):
    """mu_step on arrays made afresh as pretrain makes them: x through
    apply_mask, the float64 mask and xhat = U @ V."""
    xm = apply_mask(x, mask)
    U, V = mf.mu_step(xm.values, xm.mask.astype(np.float64), factors.U, factors.V,
                      factors.U @ factors.V)
    return mf.FactorPair(U, V)


class TestKlLoss:
    def test_zero_when_equal(self):
        x, mask = random_instance(4, 5, 0)
        assert kl(x, x.copy(), mask) == 0.0

    def test_hand_value(self):
        val = mf.kl_loss(np.array([2.0]), np.array([1.0]))
        assert abs(val - (2.0 * np.log(2.0) - 1.0)) < 1e-12

    def test_zero_observed_limit(self):
        assert mf.kl_loss(np.array([0.0]), np.array([0.5])) == 0.5

    def test_masked_cells_ignored(self):
        x = np.array([[1.0, 50.0]])
        xhat = np.array([[1.0, 1.0]])
        mask = np.array([[1.0, 0.0]])
        assert kl(x, xhat, mask) == 0.0

    def test_non_finite_value_in_masked_cell_ignored(self):
        assert kl([[1.0, np.nan]], [[1.0, 1.0]], [[1.0, 0.0]]) == 0.0

    def test_zero_observed_with_subnormal_estimate(self):
        # once overflowed in 1 / xhat on the way to the limit term
        assert mf.kl_loss(np.array([0.0]), np.array([1e-310])) == 1e-310

    @pytest.mark.parametrize("x, xhat", [
        (1.0, 1e-310),   # x / xhat overflows
        (1e300, 1e-10),  # x / xhat overflows
        (1e-320, 1e10),  # x / xhat underflows to 0, whose log divided by zero
        (1e-300, 1e10),  # x / xhat is subnormal
    ])
    def test_ratio_outside_float64_range_gives_finite_loss(self, x, xhat):
        # filterwarnings = error turns a stray RuntimeWarning into a failure
        val = mf.kl_loss(np.array([x]), np.array([xhat]))
        ref = x * (math.log(x) - math.log(xhat)) - x + xhat
        assert math.isfinite(val)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_ratio_fallback_leaves_other_cells_bit_exact(self):
        x = np.array([0.3, 1.0, 0.0, 0.7])
        xhat = np.array([0.5, 1e-310, 0.2, 0.9])
        split = mf.kl_loss(x[1:2], xhat[1:2].copy())
        rest = np.array([0.3, 0.0, 0.7]), np.array([0.5, 0.2, 0.9])
        terms = rest[0] * np.log(np.where(rest[0] > 0, rest[0], rest[1]) / rest[1])
        terms += rest[1] - rest[0]
        expected = np.array([terms[0], split, terms[1], terms[2]]).sum()
        assert mf.kl_loss(x, xhat) == expected

    @pytest.mark.parametrize("x, xhat", [
        ([1e308], [1e-308]),                 # the ratio's fallback term overflows
        ([1e308, 1e308], [1.0, 1.0]),        # x * log(x / xhat) overflows
    ])
    def test_overflowing_loss_is_evaluation_error(self, x, xhat):
        # once warned of overflow in multiply and returned inf
        with pytest.raises(EvaluationError, match="overflows"):
            mf.kl_loss(np.array(x), np.array(xhat))

    @pytest.mark.parametrize("x", [0.0, 0.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_estimate_rejected(self, x, bad):
        # inf once warned of a divide by zero in log, nan returned nan
        with pytest.raises(ValidationError, match="finite and strictly positive"):
            mf.kl_loss(np.array([x, 0.5]), np.array([bad, 1.0]))


class TestMuStep:
    def test_fixed_point_when_exact(self):
        # U @ V already reproduces x on the full mask -> multipliers are 1
        U = np.array([[1.0], [2.0]])
        V = np.array([[3.0, 4.0]])
        x = U @ V
        out = step(x, np.ones((2, 2)), mf.FactorPair(U, V))
        assert np.allclose(out.U, U) and np.allclose(out.V, V)

    def test_hand_multiplier_all_ones(self):
        # x all ones, full mask, h=1, U=V=1: xhat=1 so numer=denom -> unchanged
        f = mf.FactorPair(np.ones((2, 1)), np.ones((1, 2)))
        out = step(np.ones((2, 2)), np.ones((2, 2)), f)
        assert np.allclose(out.U, 1.0) and np.allclose(out.V, 1.0)

    def test_monotone_on_random_instances(self):
        for seed in range(30):
            x, mask = random_instance(20, 15, seed, missing=0.6)
            factors = init_factors(x, mask, 3, seed)
            prev = kl(x, factors.U @ factors.V, mask)
            for _ in range(5):
                factors = step(x, mask, factors)
                cur = kl(x, factors.U @ factors.V, mask)
                assert cur <= prev + 1e-9
                prev = cur

    def test_unobserved_row_left_unchanged(self):
        x, _ = random_instance(5, 4, 2)
        mask = np.ones((5, 4))
        mask[1, :] = 0.0
        factors = init_factors(x, mask, 2, 0)
        u_before = factors.U[1].copy()
        out = step(x, mask, factors)
        assert np.array_equal(out.U[1], u_before)

    def test_positivity_floor(self):
        for seed in range(5):
            x, mask = random_instance(10, 8, seed, missing=0.4)
            factors = init_factors(x, mask, 2, seed)
            for _ in range(20):
                factors = step(x, mask, factors)
            assert factors.U.min() >= mf.EPS_FLOOR and factors.V.min() >= mf.EPS_FLOOR

    def test_mask_locality(self):
        # changing a hidden cell changes neither the loss nor the update
        x, mask = random_instance(8, 6, 3, missing=0.5)
        factors = init_factors(x, mask, 2, 1)
        x2 = x.copy()
        hidden = np.argwhere(mask == 0)[0]
        x2[hidden[0], hidden[1]] = 99.0
        assert kl(x, factors.U @ factors.V, mask) == kl(x2, factors.U @ factors.V, mask)
        a = step(x, mask, factors)
        b = step(x2, mask, factors)
        assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)


class TestShapeMismatch:
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

    def test_negative_observed_directs_to_normalize(self):
        # negative data once came back as factors floored to EPS_FLOOR
        x, mask = random_instance(6, 5, 8)
        x[2, 3] = -1.0
        with pytest.raises(ValidationError, match="nonnegative; run metrics.normalize first"):
            mf.pretrain(apply_mask(x, mask), h=2, max_iters=5)

    def test_runs_mu_step_once_per_update_and_kl_loss_once_per_check(self, monkeypatch):
        counts = {"mu_step": 0, "kl_loss": 0}
        for name in counts:
            original = getattr(mf, name)

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(mf, name, counted)
        xm, h, _, _ = bit_exact_case("scattered")
        _, trace = mf.pretrain(xm, h, max_iters=23, tol=0.0, seed=5)
        assert counts["mu_step"] == trace.iterations == 23
        assert counts["kl_loss"] == len(trace.losses) == 4

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
    """pretrain written as a loop over init_factors, step and kl above, which
    compute every product and mask afresh on each call. The loss is
    evaluated on pretrain's cadence: after every CHECK_EVERY-th update and
    after the last one. Returns (factors, losses, converged, updates run)."""
    x, mask = xm.values, xm.mask
    factors = init_factors(x, mask, h, seed)
    losses = [kl(x, factors.U @ factors.V, mask)]
    converged = False
    last_check = 0
    for it in range(1, max_iters + 1):
        factors = step(x, mask, factors)
        if it % mf.CHECK_EVERY and it < max_iters:
            continue
        losses.append(kl(x, factors.U @ factors.V, mask))
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
    """init_factors followed by `updates` plain step calls."""
    factors = init_factors(xm.values, xm.mask, h, seed)
    for _ in range(updates):
        factors = step(xm.values, xm.mask, factors)
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
        assert trace.losses[-1] == kl(xm.values, factors.U @ factors.V, xm.mask)

    def test_partial_final_window_is_checked(self):
        xm, h, _, _ = bit_exact_case("scattered")
        factors, trace = mf.pretrain(xm, h, max_iters=23, tol=0.0, seed=5)
        assert trace.iterations == 23 and not trace.converged
        assert len(trace.losses) == 4
        plain = plain_steps(xm, h, 23, seed=5)
        assert np.array_equal(factors.U, plain.U) and np.array_equal(factors.V, plain.V)
        assert trace.losses[-1] == kl(xm.values, plain.U @ plain.V, xm.mask)
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
    def test_non_integer_rank_rejected_by_pretrain(self, h):
        # these once surfaced as a stray TypeError
        with pytest.raises(SpecError, match="h must be an integer"):
            mf.pretrain(apply_mask(np.ones((3, 3)), np.ones((3, 3))), h)

    def test_zero_rank_rejected(self):
        with pytest.raises(SpecError):
            mf.FactorPair(np.ones((3, 0)), np.ones((0, 2)))
        with pytest.raises(SpecError):
            mf.pretrain(apply_mask(np.ones((3, 3)), np.ones((3, 3))), 0)

    @pytest.mark.parametrize("u_shape, v_shape", [((0, 2), (2, 3)), ((3, 2), (2, 0)),
                                                  ((0, 1), (1, 0))])
    def test_empty_pair_rejected(self, u_shape, v_shape):
        # np.min of an empty factor once raised numpy's ValueError
        with pytest.raises(ShapeError, match="no rows or no columns"):
            mf.FactorPair(np.ones(u_shape), np.ones(v_shape))

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



def textbook_step(x, mask, U, V):
    """One U-then-V update as the textbook formula, with plain strided
    products: U' = U * ((M*x/(U@V)) @ V.T) / (M @ V.T), then
    V' = V * (U'.T @ (M*x/(U'@V))) / (U'.T @ M); multiplier 1 where the
    denominator is 0 (a row or column with no observed cell), and both
    floored at EPS_FLOOR."""
    M = np.asarray(mask, dtype=np.float64)

    def multiplier(numer, denom):
        return np.divide(numer, denom, out=np.ones_like(numer), where=denom > 0)

    U2 = np.maximum(U * multiplier((M * x / (U @ V)) @ V.T, M @ V.T), mf.EPS_FLOOR)
    V2 = np.maximum(V * multiplier(U2.T @ (M * x / (U2 @ V)), U2.T @ M), mf.EPS_FLOOR)
    return U2, V2


# (m, n, h) from the smallest factorization up to mf-pretrain's shape;
# 48x16, h=4 is small-grid's
TEXTBOOK_SHAPES = [(2, 2, 1), (24, 12, 3), (48, 16, 4), (300, 20, 5), (720, 64, 16)]


def textbook_case(m, n, h, pattern, seed=3):
    """(x, bool mask, FactorPair) at m x n, rank h, under one mask pattern;
    "dead" blanks row 1 and column 1 of a scattered mask."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 1.0, size=(m, n))
    if pattern == "multiblock":
        mask = generate_mask(MaskSpec("multiblock", 0.3, seed, k=2), m, n)
    else:
        mask = generate_mask(MaskSpec("scattered", 0.3, seed), m, n)
    if pattern == "dead":
        mask[1, :] = False
        mask[:, 1] = False
    return x, mask, init_factors(x, mask, h, seed)


class TestTextbookFormula:
    # The updates multiply contiguous operands in the order OpenBLAS runs
    # fastest, which may sum in another order than the textbook's strided
    # products: equal to rounding, not bit for bit.
    # 2x2 fits no 4x4 block, and its dead row and column have their own test
    @pytest.mark.parametrize("m, n, h, pattern", [
        (m, n, h, pattern)
        for m, n, h in TEXTBOOK_SHAPES
        for pattern in ("scattered", "multiblock", "dead")
        if pattern == "scattered" or m > 2
    ])
    def test_one_mu_step(self, m, n, h, pattern):
        x, mask, factors = textbook_case(m, n, h, pattern)
        out = step(x, mask, factors)
        U2, V2 = textbook_step(x, mask, factors.U, factors.V)
        np.testing.assert_allclose(out.U, U2, rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.V, V2, rtol=1e-12, atol=0)
        if pattern == "dead":
            # multiplier 1, the factors of a dead row and column unchanged
            assert np.array_equal(out.U[1], factors.U[1])
            assert np.array_equal(out.V[:, 1], factors.V[:, 1])

    def test_two_by_two_dead_row_and_column(self):
        x = np.array([[0.3, 0.9], [0.5, 0.7]])
        mask = np.array([[True, False], [False, False]])
        factors = init_factors(x, mask, 1, 0)
        out = step(x, mask, factors)
        U2, V2 = textbook_step(x, mask, factors.U, factors.V)
        np.testing.assert_allclose(out.U, U2, rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.V, V2, rtol=1e-12, atol=0)
        assert out.U[1, 0] == factors.U[1, 0] and out.V[0, 1] == factors.V[0, 1]

    def test_200_pretrain_updates_at_mf_pretrain_shape(self):
        x, mask, factors = textbook_case(720, 64, 16, "scattered", seed=1)
        got, trace = mf.pretrain(apply_mask(x, mask), 16, max_iters=200, tol=0.0, seed=1)
        assert trace.iterations == 200
        U, V = factors.U, factors.V
        for _ in range(200):
            U, V = textbook_step(x, mask, U, V)
        np.testing.assert_allclose(got.U, U, rtol=1e-9, atol=0)
        np.testing.assert_allclose(got.V, V, rtol=1e-9, atol=0)


class TestLayoutContract:
    # the next update's U @ V and the U half's products are fastest on
    # C-contiguous factors, so every update hands them on in that layout
    @pytest.mark.parametrize("m, n, h", TEXTBOOK_SHAPES)
    def test_mu_update_returns_c_contiguous_and_reads_its_inputs_only(self, m, n, h):
        x, mask, factors = textbook_case(m, n, h, "scattered")
        x = np.where(mask, x, 0.0)
        fmask = mask.astype(np.float64)
        U, V = factors.U, factors.V
        before = [a.tobytes() for a in (x, fmask, U, V)]
        U2, V2 = mf.mu_step(x, fmask, U, V, U @ V)
        assert U2.flags.c_contiguous and V2.flags.c_contiguous
        assert U2.shape == U.shape and V2.shape == V.shape
        assert [a.tobytes() for a in (x, fmask, U, V)] == before

    @pytest.mark.parametrize("pattern", ["scattered", "dead"])
    def test_pretrain_returns_c_contiguous_factors(self, pattern):
        x, mask, _ = textbook_case(48, 16, 4, pattern)
        factors, _ = mf.pretrain(apply_mask(x, mask), 4, max_iters=20, seed=0)
        assert factors.U.flags.c_contiguous and factors.V.flags.c_contiguous
