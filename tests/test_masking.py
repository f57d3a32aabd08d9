import numpy as np
import pytest

from blockecho import masking as M
from blockecho.errors import ShapeError, SpecError, ValidationError


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
        mask = M.gen_scattered(10, 10, 0.004, seed=0)
        assert mask.sum() == 100

    def test_exact_count(self):
        mask = M.gen_scattered(10, 10, 0.6, seed=1)
        assert (mask == 0).sum() == 60

    def test_deterministic(self):
        assert np.array_equal(M.gen_scattered(20, 30, 0.4, 7), M.gen_scattered(20, 30, 0.4, 7))

    @pytest.mark.parametrize("rate", [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    @pytest.mark.parametrize("shape", [(10, 10), (37, 53), (200, 41)])
    def test_count_exactness_grid(self, rate, shape):
        m, n = shape
        for seed in range(5):
            mask = M.gen_scattered(m, n, rate, seed)
            assert (mask == 0).sum() == round(rate * m * n)

    def test_bad_rate(self):
        with pytest.raises(SpecError):
            M.gen_scattered(10, 10, 1.2, 0)

    def test_rate_blanking_everything(self):
        with pytest.raises(SpecError):
            M.gen_scattered(2, 2, 0.9, 0)  # rounds to all 4 cells


class TestUniblock:
    def test_area_36_with_min_dims(self):
        for seed in range(10):
            mask = M.gen_uniblock(10, 10, 0.36, seed)
            i0, j0, i1, j1 = block_bbox(mask)
            h, w = i1 - i0 + 1, j1 - j0 + 1
            assert h * w == 36 and h >= 4 and w >= 4
            assert (mask == 0).sum() == 36

    def test_rate_within_5_percent(self):
        for seed in range(10):
            mask = M.gen_uniblock(20, 20, 0.6, seed)
            assert abs((mask == 0).sum() - 240) <= 0.05 * 240

    def test_complement_fully_observed(self):
        mask = M.gen_uniblock(15, 12, 0.3, seed=3)
        i0, j0, i1, j1 = block_bbox(mask)
        outside = mask.copy()
        outside[i0 : i1 + 1, j0 : j1 + 1] = 1.0
        assert np.all(outside == 1.0)

    def test_generating_rect_is_block_region(self):
        for seed in range(20):
            mask = M.gen_uniblock(30, 25, 0.4, seed)
            i0, j0, i1, j1 = block_bbox(mask)
            assert_block(mask, i0, j0, i1, j1)

    def test_infeasible_matrix(self):
        with pytest.raises(SpecError):
            M.gen_uniblock(3, 10, 0.5, 0)

    def test_deterministic(self):
        assert np.array_equal(M.gen_uniblock(20, 20, 0.5, 9), M.gen_uniblock(20, 20, 0.5, 9))


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
            mask = M.gen_multiblock(30, 30, 0.3, 3, seed)
            assert (mask == 0).sum() == total

    def test_each_block_at_least_4x4(self):
        rects = M._place_blocks(40, 40, 0.25, 4, seed=2)
        assert all(h >= 4 and w >= 4 for _, _, h, w in rects)

    def test_k1_meets_uniblock_contract(self):
        mask = M.gen_multiblock(12, 12, 0.3, 1, seed=5)
        i0, j0, i1, j1 = block_bbox(mask)
        assert_block(mask, i0, j0, i1, j1)
        assert (mask == 0).sum() == (i1 - i0 + 1) * (j1 - j0 + 1)

    def test_placement_failure(self):
        # a 9x9 grid fits at most four disjoint 4x4 blocks
        with pytest.raises(SpecError, match="lower the rate"):
            M.gen_multiblock(9, 9, 0.9, 5, seed=0)

    def test_deterministic(self):
        a = M.gen_multiblock(30, 30, 0.2, 2, 11)
        b = M.gen_multiblock(30, 30, 0.2, 2, 11)
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
        mask = M.gen_scattered(8, 8, 0.5, 1)
        mm = M.apply_mask(x, mask)
        obs = mask > 0
        assert np.array_equal(mm.values[obs], x[obs])


class TestMaskSpecAndIO:
    def test_spec_validation(self):
        with pytest.raises(SpecError):
            M.MaskSpec("diagonal", 0.5, 0)
        with pytest.raises(SpecError):
            M.MaskSpec("scattered", 1.5, 0)
        with pytest.raises(SpecError):
            M.MaskSpec("multiblock", 0.3, 0, k=1)

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
