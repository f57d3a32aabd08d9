import numpy as np
import pytest

from blockecho import data as D
from blockecho.errors import ParseError, SpecError, ValidationError
from blockecho.masking import gen_uniblock


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

    def test_infeasible_rank(self):
        with pytest.raises(SpecError):
            D.SyntheticSpec("lowrank_poisson", 10, 5, rank=6)

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            D.SyntheticSpec("fractal", 10, 5)


class TestForecast:
    def test_identical_rows(self):
        hist = np.tile([1.0, 2.0, 3.0], (6, 1))
        assert np.array_equal(D.forecast_next(hist, 2), [[1.0, 2.0, 3.0]])

    def test_exact_periodicity(self):
        base = np.random.default_rng(1).random((5, 4))
        hist = np.tile(base, (4, 1))[:-2]  # 18 rows, period 5
        pred = D.forecast_next(hist, 1)
        true_next = base[(hist.shape[0]) % 5]
        assert np.allclose(pred, true_next)

    def test_k_all_rows_constant(self):
        hist = np.full((7, 3), 2.5)
        assert np.allclose(D.forecast_next(hist, 6), 2.5)

    def test_k_too_large(self):
        with pytest.raises(SpecError):
            D.forecast_next(np.ones((4, 2)), 4)

    def test_missing_rejected(self):
        hist = np.ones((5, 2))
        hist[1, 1] = np.nan
        with pytest.raises(ValidationError):
            D.forecast_next(hist, 2)


class TestDownstream:
    def test_original_is_reference(self):
        ds = D.gen_synthetic(D.SyntheticSpec("periodic_traffic", 60, 6, rank=2, seed=7))
        rep = D.eval_downstream(ds.values, [("original", ds.values)], k=3, holdout=6)
        assert "original" in rep["wmape"]
        assert rep["wmape"]["original"] >= 0.0

    def test_identical_variant_matches_reference(self):
        ds = D.gen_synthetic(D.SyntheticSpec("periodic_traffic", 60, 6, rank=2, seed=8))
        rep = D.eval_downstream(
            ds.values,
            [("original", ds.values), ("copy", ds.values.copy())],
            k=3,
            holdout=6,
        )
        assert rep["wmape"]["original"] == rep["wmape"]["copy"]

    def test_config_hash_stable(self):
        ds = D.gen_synthetic(D.SyntheticSpec("lowrank_poisson", 40, 5, rank=2, seed=9))
        a = D.eval_downstream(ds.values, [("o", ds.values)], k=3, holdout=4)
        b = D.eval_downstream(ds.values, [("o", ds.values)], k=3, holdout=4)
        assert a["config_hash"] == b["config_hash"]

    def test_bad_holdout(self):
        with pytest.raises(SpecError):
            D.eval_downstream(np.ones((10, 2)), [("o", np.ones((10, 2)))], k=3, holdout=9)
