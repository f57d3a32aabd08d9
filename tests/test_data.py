import hashlib

import numpy as np
import pytest

from blockecho import data as D
from blockecho import kernel as K
from blockecho.errors import EvaluationError, ParseError, SpecError, ValidationError
from blockecho.masking import SENTINEL, MaskSpec, generate_mask


class TestLoadCsv:
    def test_plain_2x2(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3,4\n")
        xm = D.load_csv(p)
        assert np.array_equal(xm.values, [[1.0, 2.0], [3.0, 4.0]])
        assert np.all(xm.mask == 1.0)

    def test_empty_cell_marks_missing(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("1,,2\n3,4,5\n")
        xm = D.load_csv(p)
        assert xm.mask[0, 1] == 0.0
        assert xm.mask.sum() == 5

    def test_nan_token_marks_missing(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,NaN\n2,3\n")
        assert D.load_csv(p).mask[0, 1] == 0.0

    def test_ragged_row_rejected_with_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,,\n3,4,5\n1,2\n")
        with pytest.raises(ParseError, match="line 3"):
            D.load_csv(p)

    def test_non_numeric_cell_coordinates(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1,2\n3,x\n")
        with pytest.raises(ParseError, match="line 2, column 2"):
            D.load_csv(p)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.random((12, 7)) * 1e3
        mask = generate_mask(MaskSpec("uniblock", 0.3, 1), 12, 7)
        p = tmp_path / "f.csv"
        lines = (",".join(f"{v:.17g}" if k else "" for v, k in zip(row, keep))
                 for row, keep in zip(x, mask))
        p.write_text("\n".join(lines) + "\n")
        xm = D.load_csv(p)
        assert np.array_equal(xm.mask, mask)
        obs = mask > 0
        assert np.array_equal(xm.values[obs], x[obs])

    def test_header_only_has_no_data_rows(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("s1,s2\n")
        with pytest.raises(ParseError, match="no data rows"):
            D.load_csv(p, header=True)

    @pytest.mark.parametrize("text, header", [("r0\nr1\n", False), ("id\nr0\nr1\n", True)])
    def test_rows_of_index_cells_only_rejected(self, tmp_path, text, header):
        p = tmp_path / "labels.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match="labels.csv"):
            D.load_csv(p, header=header, index=True)

    def test_non_utf8_is_parse_error(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("1,2\n3,\u00e9\n".encode("latin-1"))
        with pytest.raises(ParseError, match="latin1.csv"):
            D.load_csv(p)

    def test_missing_file(self, tmp_path):
        # once a stray FileNotFoundError
        with pytest.raises(ParseError, match="absent.csv: cannot read"):
            D.load_csv(tmp_path / "absent.csv")

    def test_directory_is_parse_error(self, tmp_path):
        # once a stray IsADirectoryError
        d = tmp_path / "dir.csv"
        d.mkdir()
        with pytest.raises(ParseError, match="dir.csv: cannot read"):
            D.load_csv(d)

    def test_header_and_index(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("id,s1,s2\nr0,1,2\nr1,3,4\n")
        xm = D.load_csv(p, header=True, index=True)
        assert np.array_equal(xm.values, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text, index", [
        ("id\nr0,1,2\nr1,3,4\n", True),  # once loaded: the header names 0 data columns
        ("s1\n1,2\n3,4\n", False),
        ("id,s1,s2,s3\nr0,1,2\nr1,3,4\n", True),
    ])
    def test_header_width_must_match_data(self, tmp_path, text, index):
        p = tmp_path / "header.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match="header.csv: header names"):
            D.load_csv(p, header=True, index=index)

    def test_masked_blanks_empty_nan_and_inf_cells(self, tmp_path):
        # a loaded file is the imputer's input: every non-finite
        # cell is missing and holds the sentinel, the rest are copied as is
        p = tmp_path / "m.csv"
        p.write_text("0.1,,2.5e-3\nnan,7,inf\n-3,1e300,-inf\n")
        xm = D.load_csv(p)
        assert xm.mask.dtype == bool and xm.mask.nbytes == 3 * 3
        assert np.array_equal(xm.mask, [[1, 0, 1], [0, 1, 0], [1, 1, 0]])
        assert np.all(xm.values[xm.mask == 0] == SENTINEL)
        obs = xm.mask > 0
        expected = np.array([0.1, 2.5e-3, 7.0, -3.0, 1e300])
        assert np.array_equal(xm.values[obs].view(np.uint64), expected.view(np.uint64))


class TestSynthetic:
    # The benchmark's matrices come from gen_synthetic: each kind at the
    # shapes of its workloads (12x8, 48x16 and 720x64), plus two odd sizes.
    # The values are rounded to 6 decimals before hashing: the matrix
    # product and np.sin/np.exp may differ in the last bit between CPUs
    # and BLAS kernels, while a change to the draws or formulas moves
    # values far more than that.
    @pytest.mark.parametrize("kind, m, n, digest", [
        ("lowrank_poisson", 12, 8, "31f10dadfc6d85cc"),
        ("lowrank_poisson", 48, 16, "1bf54ea5bdc02b8a"),
        ("lowrank_poisson", 720, 64, "6f70ef72e0879d4f"),
        ("lowrank_poisson", 1, 1, "a462560fcc8551a6"),
        ("lowrank_poisson", 3, 50, "535552225a3059f4"),
        ("periodic_traffic", 12, 8, "2e1d4a1bea294bc5"),
        ("periodic_traffic", 48, 16, "d2be3365357bbf55"),
        ("periodic_traffic", 720, 64, "2287a27ba42a8478"),
        ("periodic_traffic", 1, 1, "d61ac60b0e49a29c"),
        ("periodic_traffic", 3, 50, "ce8911e643e1c4ad"),
        ("burst_epidemic", 12, 8, "3656879705a76900"),
        ("burst_epidemic", 48, 16, "c88f3ce131d96007"),
        ("burst_epidemic", 720, 64, "1e6fd7276058f0f8"),
        ("burst_epidemic", 1, 1, "dfd2c51515e38372"),
        ("burst_epidemic", 3, 50, "1ae9f7885f6a523e"),
    ])
    def test_golden_digest(self, kind, m, n, digest):
        x = D.gen_synthetic(D.SyntheticSpec(kind, m, n, seed=2**31 + 5)).values
        assert x.dtype == np.float64 and x.shape == (m, n)
        assert hashlib.sha256(np.round(x, 6).tobytes()).hexdigest()[:16] == digest

    def test_exact_rank_when_noiseless(self):
        ds = D.gen_synthetic(D.SyntheticSpec("lowrank_poisson", 40, 20, seed=0))
        s = np.linalg.svd(ds.values, compute_uv=False)
        assert D.SYNTHETIC_RANK == 4 and s[4] / s[0] < 1e-8

    def test_lowrank_matches_the_three_stream_factors(self):
        # the factors come from the first of the seed's spawned streams,
        # the same draws as when a third (noise) stream was spawned beside it
        for seed in (1, 2):
            factor_rng = K.spawn_rngs(seed, 3)[0]
            u = factor_rng.uniform(0.5, 1.5, size=(720, 4))
            v = factor_rng.uniform(0.5, 1.5, size=(4, 64))
            ds = D.gen_synthetic(D.SyntheticSpec("lowrank_poisson", 720, 64, seed=seed))
            assert np.array_equal(ds.values.view(np.uint64), (u @ v).view(np.uint64))

    @pytest.mark.parametrize("kind", D.SYNTHETIC_KINDS)
    def test_nonnegative_and_deterministic(self, kind):
        spec = D.SyntheticSpec(kind, 48, 10, seed=5)
        a = D.gen_synthetic(spec)
        b = D.gen_synthetic(spec)
        assert a.mask.dtype == bool and a.mask.nbytes == 48 * 10
        assert np.all(a.mask == 1.0)
        assert np.all(a.values > 0)
        assert np.array_equal(a.values, b.values)

    def test_periodic_has_daily_cycle(self):
        ds = D.gen_synthetic(D.SyntheticSpec("periodic_traffic", 96, 8, seed=3))
        x = ds.values
        # autocorrelation at one day lag beats a half-day lag
        col = x[:, 0] - x[:, 0].mean()
        day = np.corrcoef(col[:-24], col[24:])[0, 1]
        half = np.corrcoef(col[:-12], col[12:])[0, 1]
        assert day > 0.8 and day > half

    def test_infeasible_rank(self):
        # a side shorter than SYNTHETIC_RANK caps the rank instead of raising
        factor_rng = K.spawn_rngs(1, 2)[0]
        u = factor_rng.uniform(0.5, 1.5, size=(2, 2))
        v = factor_rng.uniform(0.5, 1.5, size=(2, 5))
        x = D.gen_synthetic(D.SyntheticSpec("lowrank_poisson", 2, 5, seed=1)).values
        assert np.array_equal(x, u @ v)
        for kind in D.SYNTHETIC_KINDS:
            y = D.gen_synthetic(D.SyntheticSpec(kind, 2, 5, seed=1)).values
            assert y.shape == (2, 5) and np.all(y > 0) and np.all(np.isfinite(y))

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            D.SyntheticSpec("fractal", 10, 5)


@pytest.mark.parametrize("make, field", [
    (lambda: D.SyntheticSpec("lowrank_poisson", 10.5, 8), "m"),
], ids=[
    "m",
])
def test_malformed_argument_names_itself(make, field):
    # once surfaced as a stray TypeError
    with pytest.raises(SpecError, match=f"^{field}"):
        make()


@pytest.mark.parametrize("m, n", [
    (0, 5), (3, 0), (-1, -5), (-2, 3), (2.5, 4), (4, "8"), (True, 4), (np.int64(0), 2),
])
def test_size_checked_as_generate_mask_checks_it(m, n):
    # both read the size through kernel.require_int: same class, same words
    with pytest.raises(SpecError) as spec_err:
        D.SyntheticSpec("lowrank_poisson", m, n)
    with pytest.raises(SpecError) as mask_err:
        generate_mask(MaskSpec("scattered", 0.3, 0), m, n)
    assert str(spec_err.value) == str(mask_err.value)
    assert str(spec_err.value).startswith(("m must", "n must"))


class TestForecast:
    def test_identical_rows(self):
        hist = np.tile([1.0, 2.0, 3.0], (D.KNN_K + 1, 1))
        assert np.array_equal(D.forecast_next(hist), [[1.0, 2.0, 3.0]])

    def test_exact_periodicity(self):
        # 6 full periods leave KNN_K exact matches of the last row before it
        base = np.random.default_rng(1).random((5, 4))
        hist = np.tile(base, (6, 1))[:-2]  # 28 rows, period 5
        pred = D.forecast_next(hist)
        true_next = base[(hist.shape[0]) % 5]
        assert np.allclose(pred, true_next)

    def test_k_all_rows_constant(self):
        hist = np.full((D.KNN_K + 1, 3), 2.5)
        assert np.allclose(D.forecast_next(hist), 2.5)

    def test_k_too_large(self):
        with pytest.raises(SpecError, match="too short"):
            D.forecast_next(np.ones((D.KNN_K, 2)))

    def test_missing_rejected(self):
        hist = np.ones((D.KNN_K + 1, 2))
        hist[1, 1] = np.nan
        with pytest.raises(ValidationError):
            D.forecast_next(hist)

    @pytest.mark.parametrize("scale", [1e308, -1e308])
    def test_overflow_is_evaluation_error(self, scale):
        # a finite history once warned of overflow and forecast [[inf, inf]]
        hist = np.random.default_rng(0).uniform(0.5, 1.0, (8, 2)) * scale
        with pytest.raises(EvaluationError, match="overflows"):
            D.forecast_next(hist)

    def test_overflowing_distances_are_evaluation_error(self):
        hist = np.ones((D.KNN_K + 2, 2))
        hist[::2] = -1e308
        hist[1::2] = 1e308
        with pytest.raises(EvaluationError, match="overflows"):
            D.forecast_next(hist)


class TestDownstream:
    def test_original_is_reference(self):
        ds = D.gen_synthetic(D.SyntheticSpec("periodic_traffic", 60, 6, seed=7))
        rep = D.eval_downstream(ds.values, [("original", ds.values)])
        assert list(rep) == ["wmape"] and list(rep["wmape"]) == ["original"]
        assert rep["wmape"]["original"] >= 0.0

    def test_identical_variant_matches_reference(self):
        ds = D.gen_synthetic(D.SyntheticSpec("periodic_traffic", 60, 6, seed=8))
        rep = D.eval_downstream(ds.values, [("original", ds.values), ("copy", ds.values.copy())])
        assert rep["wmape"]["original"] == rep["wmape"]["copy"]

    def test_overflow_is_evaluation_error(self):
        # once a wmape of nan
        x = np.random.default_rng(1).uniform(0.5, 1.0, (60, 2)) * 1e308
        with pytest.raises(EvaluationError, match="overflows"):
            D.eval_downstream(x, [("original", x)])

    def test_non_finite_original_rejected(self):
        x = D.gen_synthetic(D.SyntheticSpec("periodic_traffic", 60, 6, seed=7)).values
        bad = x.copy()
        bad[-1, 0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            D.eval_downstream(bad, [("imputed", x)])

    def test_bad_holdout(self):
        # 6 rows hold out 1, which leaves the first forecast only KNN_K rows
        with pytest.raises(SpecError, match="holdout"):
            D.eval_downstream(np.ones((6, 2)), [("o", np.ones((6, 2)))])
