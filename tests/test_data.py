import numpy as np
import pytest

from blockecho import data as D
from blockecho import kernel as K
from blockecho.errors import ParseError, SpecError, ValidationError
from blockecho.masking import SENTINEL, gen_uniblock


class TestLoadCsv:
    def test_plain_2x2(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3,4\n")
        ds = D.load_csv(p)
        assert np.array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0]])
        assert np.all(ds.inherent_mask == 1.0)

    def test_empty_cell_marks_missing(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("1,,2\n3,4,5\n")
        ds = D.load_csv(p)
        assert ds.inherent_mask[0, 1] == 0.0
        assert ds.inherent_mask.sum() == 5

    def test_nan_token_marks_missing(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,NaN\n2,3\n")
        assert D.load_csv(p).inherent_mask[0, 1] == 0.0

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
        mask = gen_uniblock(12, 7, 0.3, 1)
        p = tmp_path / "f.csv"
        lines = (",".join(f"{v:.17g}" if k else "" for v, k in zip(row, keep))
                 for row, keep in zip(x, mask))
        p.write_text("\n".join(lines) + "\n")
        ds = D.load_csv(p)
        assert np.array_equal(ds.inherent_mask, mask)
        obs = mask > 0
        assert np.array_equal(ds.values[obs], x[obs])

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
        with pytest.raises(FileNotFoundError):
            D.load_csv(tmp_path / "absent.csv")

    def test_header_and_index(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("id,s1,s2\nr0,1,2\nr1,3,4\n")
        ds = D.load_csv(p, header=True, index=True)
        assert ds.col_labels == ["s1", "s2"]
        assert ds.row_labels == ["r0", "r1"]
        assert np.array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_masked_blanks_empty_nan_and_inf_cells(self, tmp_path):
        # the bridge from a loaded file to the imputer: every non-finite
        # cell is missing and holds the sentinel, the rest are copied as is
        p = tmp_path / "m.csv"
        p.write_text("0.1,,2.5e-3\nnan,7,inf\n-3,1e300,-inf\n")
        xm = D.load_csv(p).masked()
        assert np.array_equal(xm.mask, [[1, 0, 1], [0, 1, 0], [1, 1, 0]])
        assert np.all(xm.values[xm.mask == 0] == SENTINEL)
        obs = xm.mask > 0
        expected = np.array([0.1, 2.5e-3, 7.0, -3.0, 1e300])
        assert np.array_equal(xm.values[obs].view(np.uint64), expected.view(np.uint64))


class TestSynthetic:
    def test_exact_rank_when_noiseless(self):
        ds = D.gen_synthetic(D.SyntheticSpec("lowrank_poisson", 40, 20, rank=3, seed=0))
        s = np.linalg.svd(ds.values, compute_uv=False)
        assert s[3] / s[0] < 1e-8

    @pytest.mark.parametrize("kind", D.SYNTHETIC_KINDS)
    def test_nonnegative_and_deterministic(self, kind):
        spec = D.SyntheticSpec(kind, 48, 10, rank=3, noise=0.1, seed=5)
        a = D.gen_synthetic(spec)
        b = D.gen_synthetic(spec)
        assert np.all(a.values >= 0)
        assert np.array_equal(a.values, b.values)

    def test_periodic_has_daily_cycle(self):
        ds = D.gen_synthetic(D.SyntheticSpec("periodic_traffic", 96, 8, rank=2, seed=3))
        x = ds.values
        # autocorrelation at one day lag beats a half-day lag
        col = x[:, 0] - x[:, 0].mean()
        day = np.corrcoef(col[:-24], col[24:])[0, 1]
        half = np.corrcoef(col[:-12], col[12:])[0, 1]
        assert day > 0.8 and day > half

    @pytest.mark.parametrize("kind, noise", [
        ("lowrank_poisson", 1e-30),
        ("lowrank_poisson", 1e-300),
        ("lowrank_poisson", 5e-324),
        ("periodic_traffic", 1e308),
        ("burst_epidemic", 1e308),
    ])
    def test_extreme_noise_names_itself(self, kind, noise):
        # once numpy's "lam value too large" ValueError, or an overflow warning
        spec = D.SyntheticSpec(kind, 24, 6, rank=2, noise=noise, seed=0)
        with pytest.raises(SpecError, match="^noise level"):
            D.gen_synthetic(spec)

    def test_poisson_noise_draws(self):
        spec = D.SyntheticSpec("lowrank_poisson", 30, 8, rank=2, noise=0.5, seed=4)
        factor_rng, _, noise_rng = K.spawn_rngs(4, 3)
        base = factor_rng.uniform(0.5, 1.5, (30, 2)) @ factor_rng.uniform(0.5, 1.5, (2, 8))
        assert np.array_equal(D.gen_synthetic(spec).values, noise_rng.poisson(base / 0.5) * 0.5)

    def test_infeasible_rank(self):
        with pytest.raises(SpecError):
            D.SyntheticSpec("lowrank_poisson", 10, 5, rank=6)

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            D.SyntheticSpec("fractal", 10, 5)


@pytest.mark.parametrize("make, field", [
    (lambda: D.SyntheticSpec("lowrank_poisson", 10, 8, rank=1.5), "rank"),
    (lambda: D.SyntheticSpec("lowrank_poisson", 10.5, 8), "m"),
    (lambda: D.SyntheticSpec("lowrank_poisson", 10, 8, noise="a"), "noise"),
    (lambda: D.SyntheticSpec("lowrank_poisson", 10, 8, noise=np.nan), "noise"),
    (lambda: D.SyntheticSpec("lowrank_poisson", 10, 8, noise=np.inf), "noise"),
], ids=[
    "rank", "m", "noise-str", "noise-nan", "noise-inf",
])
def test_malformed_argument_names_itself(make, field):
    # each of these once surfaced as a stray TypeError, or was accepted (NaN
    # or infinite noise, which makes Poisson draws warn and return NaN)
    with pytest.raises(SpecError, match=f"^{field}"):
        make()


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


class TestDownstream:
    def test_original_is_reference(self):
        ds = D.gen_synthetic(D.SyntheticSpec("periodic_traffic", 60, 6, rank=2, seed=7))
        rep = D.eval_downstream(ds.values, [("original", ds.values)])
        assert list(rep) == ["wmape"] and list(rep["wmape"]) == ["original"]
        assert rep["wmape"]["original"] >= 0.0

    def test_identical_variant_matches_reference(self):
        ds = D.gen_synthetic(D.SyntheticSpec("periodic_traffic", 60, 6, rank=2, seed=8))
        rep = D.eval_downstream(ds.values, [("original", ds.values), ("copy", ds.values.copy())])
        assert rep["wmape"]["original"] == rep["wmape"]["copy"]

    def test_bad_holdout(self):
        # 6 rows hold out 1, which leaves the first forecast only KNN_K rows
        with pytest.raises(SpecError, match="holdout"):
            D.eval_downstream(np.ones((6, 2)), [("o", np.ones((6, 2)))])
