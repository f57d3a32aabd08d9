import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockecho import gan, metrics
from blockecho import masking as M
from blockecho.data import SyntheticSpec, gen_synthetic
from blockecho.errors import ShapeError, SpecError, ValidationError
from blockecho.kernel import make_rng


def mask_of(pattern, m, n, rate, seed, k=0):
    return M.generate_mask(M.MaskSpec(pattern, rate, seed, k=k), m, n)


def block_bbox(mask):
    """Bounding box (inclusive) of the missing cells of a single-block mask."""
    zi, zj = np.where(mask == 0)
    return zi.min(), zj.min(), zi.max(), zj.max()


def assert_block(mask, i0, j0, i1, j1):
    """[i0..i1] x [j0..j1] is all missing and spans at least 4 rows and 4 columns."""
    assert i1 - i0 + 1 >= M.MIN_BLOCK and j1 - j0 + 1 >= M.MIN_BLOCK
    assert np.all(mask[i0 : i1 + 1, j0 : j1 + 1] == 0.0)


class TestScattered:
    def test_tiny_rate_rounds_to_all_observed(self):
        mask = mask_of("scattered", 10, 10, 0.004, 0)
        assert mask.sum() == 100

    def test_exact_count(self):
        mask = mask_of("scattered", 10, 10, 0.6, 1)
        assert (mask == 0).sum() == 60

    def test_deterministic(self):
        a, b = (mask_of("scattered", 20, 30, 0.4, 7) for _ in range(2))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("rate", [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    @pytest.mark.parametrize("shape", [(10, 10), (37, 53), (200, 41)])
    def test_count_exactness_grid(self, rate, shape):
        m, n = shape
        for seed in range(5):
            mask = mask_of("scattered", m, n, rate, seed)
            assert (mask == 0).sum() == round(rate * m * n)

    def test_bad_rate(self):
        with pytest.raises(SpecError):
            mask_of("scattered", 10, 10, 1.2, 0)

    def test_rate_blanking_everything(self):
        with pytest.raises(SpecError):
            mask_of("scattered", 2, 2, 0.9, 0)  # rounds to all 4 cells


def stable_argsort_mask(m, n, rate, seed):
    """The scattered pattern as written with a full stable sort of the scores."""
    target = round(rate * m * n)
    scores = make_rng(seed).random((m, n))
    order = np.argsort(scores, axis=None, kind="stable")
    mask = np.ones(m * n)
    mask[order[:target]] = 0.0
    return mask.reshape(m, n)


class TestScatteredSelection:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (48, 16), (720, 64)])
    def test_matches_stable_argsort(self, shape):
        m, n = shape
        for rate in (0.004, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            if round(rate * m * n) >= m * n:
                continue  # rejected, see test_rate_blanking_everything
            for seed in range(5):
                expected = stable_argsort_mask(m, n, rate, seed)
                assert np.array_equal(mask_of("scattered", m, n, rate, seed), expected)

    @pytest.mark.parametrize("m, n, target", [
        (1, 1, 0), (3, 2, 0), (3, 2, 5), (48, 16, 0), (48, 16, 767), (720, 64, 46079),
    ])
    def test_extreme_targets_match_stable_argsort(self, m, n, target):
        rate = target / (m * n) if target else 0.4 / (m * n)
        assert round(rate * m * n) == target
        for seed in range(3):
            mask = mask_of("scattered", m, n, rate, seed)
            assert (mask == 0).sum() == target
            assert np.array_equal(mask, stable_argsort_mask(m, n, rate, seed))

    def test_no_target_skips_the_partition(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("np.partition called")

        monkeypatch.setattr(np, "partition", fail)
        assert np.all(mask_of("scattered", 10, 10, 0.004, 0) == 1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_ties_go_to_the_lower_flat_index(self, seed):
        scores = np.random.default_rng(seed).integers(0, 4, 200).astype(float)
        order = np.argsort(scores, kind="stable")
        for target in range(201):
            chosen = M._lowest(scores, target)
            assert np.array_equal(np.flatnonzero(chosen), np.sort(order[:target]))

    def test_ties_in_a_matrix(self):
        scores = np.random.default_rng(7).integers(0, 3, (12, 5)).astype(float)
        order = np.argsort(scores, axis=None, kind="stable")
        for target in range(61):
            chosen = M._lowest(scores, target)
            assert chosen.shape == scores.shape
            assert np.array_equal(np.flatnonzero(chosen), np.sort(order[:target]))


class TestUniblock:
    def test_area_36_with_min_dims(self):
        for seed in range(10):
            mask = mask_of("uniblock", 10, 10, 0.36, seed)
            i0, j0, i1, j1 = block_bbox(mask)
            h, w = i1 - i0 + 1, j1 - j0 + 1
            assert h * w == 36 and h >= 4 and w >= 4
            assert (mask == 0).sum() == 36

    def test_rate_within_5_percent(self):
        for seed in range(10):
            mask = mask_of("uniblock", 20, 20, 0.6, seed)
            assert abs((mask == 0).sum() - 240) <= 0.05 * 240

    def test_complement_fully_observed(self):
        mask = mask_of("uniblock", 15, 12, 0.3, 3)
        i0, j0, i1, j1 = block_bbox(mask)
        outside = mask.copy()
        outside[i0 : i1 + 1, j0 : j1 + 1] = 1.0
        assert np.all(outside == 1.0)

    def test_generating_rect_is_block_region(self):
        for seed in range(20):
            mask = mask_of("uniblock", 30, 25, 0.4, seed)
            i0, j0, i1, j1 = block_bbox(mask)
            assert_block(mask, i0, j0, i1, j1)

    def test_infeasible_matrix(self):
        # generate_mask checks the size for both block patterns
        for pattern, k in (("uniblock", 0), ("multiblock", 2)):
            with pytest.raises(SpecError, match="no feasible block"):
                mask_of(pattern, 3, 10, 0.5, 0, k=k)

    @pytest.mark.parametrize("m, n, rate", [(4, 4, 0.5), (5, 5, 0.99), (6, 4, 0.9)])
    def test_whole_matrix_block_rejected(self, m, n, rate):
        # the closest-area block was the whole matrix, which came back all missing
        with pytest.raises(SpecError, match="blank the whole"):
            mask_of("uniblock", m, n, rate, 0)

    def test_deterministic(self):
        a, b = (mask_of("uniblock", 20, 20, 0.5, 9) for _ in range(2))
        assert np.array_equal(a, b)


class TestMultiblock:
    def test_three_disjoint_blocks(self):
        for seed in range(5):
            rects = M._place_blocks(30, 30, 0.3, 3, seed)
            assert len(rects) == 3
            for a in range(3):
                for b in range(a + 1, 3):
                    assert not M._rects_overlap(rects[a], rects[b])
            total = sum(h * w for _, _, h, w in rects)
            assert abs(total - 270) <= 0.05 * 270
            mask = mask_of("multiblock", 30, 30, 0.3, seed, k=3)
            assert (mask == 0).sum() == total

    def test_each_block_at_least_4x4(self):
        rects = M._place_blocks(40, 40, 0.25, 4, seed=2)
        assert all(h >= 4 and w >= 4 for _, _, h, w in rects)

    def test_k1_meets_uniblock_contract(self):
        # MaskSpec refuses k=1 for multiblock; the placement itself takes it
        (i0, j0, h, w), = M._place_blocks(12, 12, 0.3, 1, seed=5)
        assert h >= M.MIN_BLOCK and w >= M.MIN_BLOCK
        assert i0 + h <= 12 and j0 + w <= 12
        assert abs(h * w - 43) <= 0.05 * 43

    @pytest.mark.parametrize("m, n, rate, k, seed", [(720, 64, 0.3, 4, 1), (30, 30, 0.3, 3, 0)])
    def test_one_area_search_per_distinct_target(self, monkeypatch, m, n, rate, k, seed):
        targets = []
        search = M._closest_area_dims

        def counted(m, n, target):
            targets.append(target)
            return search(m, n, target)

        monkeypatch.setattr(M, "_closest_area_dims", counted)
        mask_of("multiblock", m, n, rate, seed, k=k)
        assert targets and len(targets) == len(set(targets))

    def test_blocks_never_tile_the_whole_matrix(self):
        # two 4x4 blocks covered a 4x8 matrix, within 5% of the 32-cell target
        with pytest.raises(SpecError):
            mask_of("multiblock", 4, 8, 0.99, 0, k=2)

    @pytest.mark.parametrize("m, n, rate, k", [
        (120, 64, 0.3, 200), (120, 64, 0.3, 1000), (30, 30, 0.01, 2), (8, 8, 0.4, 2),
    ])
    def test_infeasible_k_draws_no_rectangle(self, monkeypatch, m, n, rate, k):
        # k blocks of 16 cells overshoot the target by more than 5%, so no
        # placement can be accepted; the retries once took seconds at k=200
        draws = [0]
        sample = M._sample_rect

        def counted(*args):
            draws[0] += 1
            return sample(*args)

        monkeypatch.setattr(M, "_sample_rect", counted)
        with pytest.raises(SpecError, match="could not place"):
            mask_of("multiblock", m, n, rate, 0, k=k)
        assert draws[0] == 0

    def test_placement_failure(self):
        # a 9x9 grid fits at most four disjoint 4x4 blocks
        with pytest.raises(SpecError, match="lower the rate"):
            mask_of("multiblock", 9, 9, 0.9, 0, k=5)

    def test_deterministic(self):
        a = mask_of("multiblock", 30, 30, 0.2, 11, k=2)
        b = mask_of("multiblock", 30, 30, 0.2, 11, k=2)
        assert np.array_equal(a, b)


class TestApplyMask:
    def test_all_ones_keeps_values(self):
        x = np.arange(6.0).reshape(2, 3) + 1
        mm = M.apply_mask(x, np.ones((2, 3)))
        assert np.array_equal(mm.values, x)

    def test_all_zeros_all_sentinel(self):
        mm = M.apply_mask(np.ones((2, 2)), np.zeros((2, 2)))
        assert np.all(mm.values == M.SENTINEL)

    def test_mixed(self):
        mm = M.apply_mask([[1.0, 2.0], [3.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(mm.values, [[1.0, 0.0], [0.0, 4.0]])

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ValidationError):
            M.apply_mask(np.ones((2, 2)), np.full((2, 2), 0.5))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            M.apply_mask(np.ones((2, 2)), np.ones((3, 2)))

    def test_observed_bit_exact(self):
        rng = np.random.default_rng(0)
        x = rng.random((8, 8)) * 1e6
        mask = mask_of("scattered", 8, 8, 0.5, 1)
        mm = M.apply_mask(x, mask)
        obs = mask > 0
        assert np.array_equal(mm.values[obs], x[obs])


class TestMaskIsBool:
    """A mask is stored and generated as bool, one byte per cell."""

    @staticmethod
    def assert_bool_mask(mask, m, n):
        assert mask.dtype == bool and mask.nbytes == m * n

    @pytest.mark.parametrize("spec", [
        M.MaskSpec("scattered", 0.3, 1), M.MaskSpec("uniblock", 0.3, 1),
        M.MaskSpec("multiblock", 0.3, 1, k=3),
    ], ids=M.PATTERNS)
    def test_generate_mask(self, spec):
        self.assert_bool_mask(M.generate_mask(spec, 40, 24), 40, 24)

    @pytest.mark.parametrize("mask", [
        [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [[1, 0, 1], [0, 1, 1]],
        [[True, False, True], [False, True, True]],
    ], ids=["float", "int", "bool"])
    def test_apply_mask_and_masked_matrix(self, mask):
        x = np.arange(1.0, 7.0).reshape(2, 3)
        xm = M.apply_mask(x, mask)
        self.assert_bool_mask(xm.mask, 2, 3)
        assert np.array_equal(xm.mask, np.array(mask) > 0)
        built = M.MaskedMatrix(xm.values, mask)
        self.assert_bool_mask(built.mask, 2, 3)
        assert np.array_equal(built.mask, xm.mask)

    @pytest.mark.parametrize("dtype", [np.float64, bool])
    def test_apply_mask_holds_no_view_of_the_callers_mask(self, dtype):
        caller = np.ones((3, 4), dtype=dtype)
        xm = M.apply_mask(np.ones((3, 4)), caller)
        caller[1, 2] = 0
        assert xm.mask.all()
        built = M.MaskedMatrix(caller * 1.0, caller)
        caller[:] = 1
        assert not built.mask[1, 2]


def _bits(obj):
    """Every number in obj as raw bytes, for a bit-for-bit comparison; obj is
    an array, a float, a tuple or a dataclass of them."""
    if isinstance(obj, np.ndarray):
        return [obj.dtype.str, obj.shape, obj.tobytes()]
    if isinstance(obj, (float, np.floating)):
        return [np.float64(obj).tobytes()]
    if isinstance(obj, tuple):
        return [b for item in obj for b in _bits(item)]
    return _bits(tuple(vars(obj).values()))


_X = gen_synthetic(SyntheticSpec("periodic_traffic", 12, 8, seed=3)).values
_MASK = mask_of("scattered", 12, 8, 0.3, 2)


# every function that takes a mask, called on a mask shaped like _MASK
MASK_TAKERS = {
    "normalize": lambda mask: metrics.normalize(_X, mask),
    "rmse_missing": lambda mask: metrics.rmse_missing(_X[::-1], _X, mask),
    "build_hint": lambda mask: gan.build_hint(mask, make_rng(4)),
    "apply_mask": lambda mask: M.apply_mask(_X, mask),
    "MaskedMatrix": lambda mask: M.MaskedMatrix(np.where(_MASK, _X, M.SENTINEL), mask),
}


@pytest.mark.parametrize("name", MASK_TAKERS)
def test_bool_and_float_masks_give_identical_results(name):
    call = MASK_TAKERS[name]
    assert _MASK.dtype == bool
    assert _bits(call(_MASK)) == _bits(call(_MASK.astype(np.float64)))


@pytest.mark.parametrize("name", MASK_TAKERS)
class TestEveryMaskTakerChecksItsMask:
    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
    def test_non_binary_entry_rejected(self, name, bad):
        mask = _MASK.astype(np.float64)
        mask[0, 0] = bad
        with pytest.raises(ValidationError, match="exactly 0 or 1"):
            MASK_TAKERS[name](mask)

    def test_one_dimensional_bool_rejected(self, name):
        with pytest.raises(ShapeError, match="2-D"):
            MASK_TAKERS[name](_MASK[0])


# build_hint takes the shape of the mask it is given
@pytest.mark.parametrize("name", [name for name in MASK_TAKERS if name != "build_hint"])
@pytest.mark.parametrize("dtype", [bool, np.float64])
def test_mask_of_other_shape_rejected(name, dtype):
    with pytest.raises(ShapeError):
        MASK_TAKERS[name](_MASK[:-1].astype(dtype))


@pytest.mark.parametrize("name", ["MaskedMatrix", "rmse_missing"])
def test_bool_mask_read_without_a_float_copy(name):
    # a float64 copy of the mask alone takes 8 bytes per cell; both peaked
    # above that while every mask went through as_matrix
    m, n = 720, 64
    x = make_rng(0).random((m, n))
    mask = mask_of("scattered", m, n, 0.2, 0)
    values = np.where(mask, x, M.SENTINEL)
    call = {
        "MaskedMatrix": lambda: M.MaskedMatrix(values, mask),
        "rmse_missing": lambda: metrics.rmse_missing(x[::-1], x, mask),
    }[name]
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * n


class TestMaskSpecAndIO:
    def test_spec_validation(self):
        with pytest.raises(SpecError):
            M.MaskSpec("diagonal", 0.5, 0)
        with pytest.raises(SpecError):
            M.MaskSpec("scattered", 1.5, 0)
        with pytest.raises(SpecError):
            M.MaskSpec("multiblock", 0.3, 0, k=1)

    @pytest.mark.parametrize("make, field", [
        (lambda: M.MaskSpec("multiblock", 0.3, 0, k=2.5), "k"),
        (lambda: M.MaskSpec("scattered", "0.3", 0), "rate"),
        (lambda: M.MaskSpec("scattered", None, 0), "rate"),
        (lambda: M.generate_mask(M.MaskSpec("scattered", 0.3, 0), 2.5, 4), "m"),
        (lambda: M.generate_mask(M.MaskSpec("uniblock", 0.3, 0), 10, 10.5), "n"),
        (lambda: M.generate_mask(M.MaskSpec("multiblock", 0.3, 0, k=2.0), 20, 20), "k"),
    ], ids=[
        "spec-k", "spec-rate-str", "spec-rate-none", "scattered-m", "uniblock-n", "multiblock-k",
    ])
    def test_malformed_argument_names_itself(self, make, field):
        # each of these once surfaced as a stray TypeError
        with pytest.raises(SpecError, match=f"^{field} must be"):
            make()

    @pytest.mark.parametrize("make, message", [
        (lambda: M.generate_mask(M.MaskSpec("scattered", 0.3, 0), -1, -5),
         "m must be >= 1, got -1"),
        (lambda: M.generate_mask(M.MaskSpec("scattered", 0.5, 0), -4, -4),
         "m must be >= 1, got -4"),
        (lambda: M.generate_mask(M.MaskSpec("scattered", 0.3, 0), 0, 0), "m must be >= 1, got 0"),
        (lambda: M.generate_mask(M.MaskSpec("scattered", 0.5, 0), -2, 3), "m must be >= 1, got -2"),
        (lambda: M.generate_mask(M.MaskSpec("uniblock", 0.5, 0), 0, 5), "m must be >= 1, got 0"),
        (lambda: M.generate_mask(M.MaskSpec("multiblock", 0.3, 0, k=2), -8, -8),
         "m must be >= 1, got -8"),
    ], ids=[
        "scattered-negative", "scattered-negative-square", "scattered-zero",
        "scattered-negative-rows", "uniblock-zero-rows", "multiblock-negative",
    ])
    def test_empty_size_names_itself(self, make, message):
        # the negative sizes once surfaced as numpy's "negative dimensions"
        # ValueError, the others as a SpecError about blanking the matrix
        with pytest.raises(SpecError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("pattern, k", [("scattered", 1), ("uniblock", 3), ("uniblock", -1)])
    def test_k_of_a_pattern_without_blocks_rejected(self, pattern, k):
        # uniblock with k=3 once gave one block without a word
        # a negative k fails the check every count has
        match = "^k must be >= 0" if k < 0 else f"^{pattern} takes no k"
        with pytest.raises(SpecError, match=match):
            M.MaskSpec(pattern, 0.3, 1, k=k)

    def test_generate_dispatch(self):
        spec = M.MaskSpec("multiblock", 0.2, 3, k=2)
        mask = M.generate_mask(spec, 25, 25)
        assert abs((mask == 0).sum() - 125) <= 0.05 * 125

    def test_masked_matrix_invariants(self):
        with pytest.raises(ValidationError):
            M.MaskedMatrix(np.ones((2, 2)), np.zeros((2, 2)))  # values not sentinel

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observed_value_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            M.MaskedMatrix([[bad]], [[1.0]])
        with pytest.raises(ValidationError, match="finite"):
            M.apply_mask([[1.0, bad]], [[1.0, 1.0]])

    def test_non_finite_value_in_missing_cell_is_not_a_sentinel(self):
        with pytest.raises(ValidationError, match="sentinel"):
            M.MaskedMatrix([[1.0, np.nan]], [[1.0, 0.0]])
        # apply_mask replaces it
        assert M.apply_mask([[1.0, np.nan]], [[1.0, 0.0]]).values[0, 1] == M.SENTINEL


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pattern=st.sampled_from(M.PATTERNS), m=st.integers(1, 16), n=st.integers(1, 16),
       rate=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       k=st.integers(2, 3), seed=st.integers(0, 2**16))
@example(pattern="uniblock", m=4, n=4, rate=0.5, k=2, seed=0)
@example(pattern="multiblock", m=4, n=8, rate=0.99, k=2, seed=0)
def test_generate_mask_meets_its_rate_contract_or_raises_spec_error(pattern, m, n, rate, k,
                                                                    seed):
    spec = M.MaskSpec(pattern, rate, seed, k=k if pattern == "multiblock" else 0)
    try:
        mask = M.generate_mask(spec, m, n)
    except SpecError:
        return
    assert mask.shape == (m, n)
    assert np.all((mask == 0.0) | (mask == 1.0))
    assert mask.any()
    missing, target = int(np.sum(mask == 0.0)), round(rate * m * n)
    if pattern == "scattered":
        assert missing == target
    if pattern == "multiblock":
        assert abs(missing - target) <= 0.05 * target


# The benchmark's masks come from generate_mask: each pattern at the shapes
# of its workloads (12x8, 48x16 and 720x64), plus a few odd sizes. A change
# to any pattern's draws would silently change the benchmark's data.
@pytest.mark.parametrize("pattern, m, n, rate, k, digest", [
    ("scattered", 12, 8, 0.2, 0, "9e3ce1991472b75f"),
    ("uniblock", 12, 8, 0.2, 0, "cd5cb55b447a7def"),
    ("multiblock", 12, 8, 0.5, 2, "cb167689aaa14e13"),
    ("scattered", 48, 16, 0.3, 0, "524f4c0ae13f3ad0"),
    ("uniblock", 48, 16, 0.3, 0, "4e294bb98e6b3601"),
    ("multiblock", 48, 16, 0.3, 2, "df24cfca9a5e89c2"),
    ("scattered", 720, 64, 0.2, 0, "87facb328ed668dd"),
    ("uniblock", 720, 64, 0.3, 0, "b01551501586590c"),
    ("multiblock", 720, 64, 0.3, 4, "d1f42086ebb0728c"),
    ("scattered", 1, 1, 0.3, 0, "4bf5122f344554c5"),
    ("scattered", 5, 7, 0.5, 0, "bcd2f6a3e7052dfe"),
    ("uniblock", 4, 5, 0.5, 0, "fe665b496b82cd5a"),
    ("uniblock", 37, 53, 0.6, 0, "b0657d6237bf18fe"),
    ("multiblock", 9, 9, 0.5, 2, "5a9a3025c08522a4"),
    ("multiblock", 37, 53, 0.25, 3, "5348a1f8d8469ced"),
])
def test_generate_mask_golden_digest(pattern, m, n, rate, k, digest):
    mask = mask_of(pattern, m, n, rate, 2**31 + 5, k=k)
    assert mask.dtype == bool and mask.shape == (m, n)
    assert hashlib.sha256(mask.tobytes()).hexdigest()[:16] == digest
