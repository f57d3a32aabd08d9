"""Self-tests of the benchmark harness (run with PYTHONPATH=src from the root)."""

import json
import re

import numpy as np
import pytest

import bench
import tracing

NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = bench.Workload(
    "tiny", 12, 8, ("uniblock",), 0.2,
    dict(h=2, pretrain_iters=5, iters=3, batch_rows=4),
    pool=3, adv_only=True,
)


@pytest.fixture
def mods():
    return bench.import_blockecho(fresh=False)


@pytest.fixture
def pool(mods):
    return bench.build_pool(mods, TINY, seed=7)


def _nrmse_of_column_means(inst):
    x, mask = inst.xm.values, inst.xm.mask
    fill = x.copy()
    for j in range(x.shape[1]):
        fill[mask[:, j] == 0, j] = x[mask[:, j] > 0, j].mean()
    miss = mask == 0
    return np.sqrt(np.mean((fill[miss] - inst.truth[miss]) ** 2)) / inst.truth.std()


class TestSpec:
    def test_metric_names(self):
        spec = bench.load_spec()
        groups = ("workloads", "end_to_end", "per_layer")
        names = [m["name"] for g in groups for m in spec[g]]
        names += list(bench.UNBOUNDED) + list(bench.MOVES) + list(bench.WORKLOADS)
        assert all(NAME.fullmatch(n) for n in names)
        for g in groups:
            assert len({m["name"] for m in spec[g]}) == len(spec[g])
        assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


class TestFailures:
    @pytest.mark.parametrize("exc, stray", [("ValidationError", False), ("ValueError", True)])
    def test_counted_and_scored_by_column_means(self, mods, pool, monkeypatch, exc, stray):
        cls = ValueError if stray else getattr(mods.errors, exc)

        def crash(*args, **kwargs):
            raise cls("stubbed")

        monkeypatch.setattr(mods.gan, "train", crash)
        run = bench.measure(mods, TINY, pool, seconds=0.0)
        assert len(run.seconds) == TINY.pool
        assert run.failed_instances == TINY.pool and not any(run.succeeded)
        assert (run.stray if stray else run.failures) == {exc: TINY.pool,
                                                          f"adv_only:{exc}": TINY.pool}
        assert not (run.failures if stray else run.stray)
        assert all(d == f"failed:{exc}" for d in run.digests.values())
        for inst, q in zip(pool, run.quality):
            want = _nrmse_of_column_means(inst)
            assert q["nrmse_blockecho"] == pytest.approx(want, rel=1e-12)
            assert q["nrmse_adv_only"] == pytest.approx(want, rel=1e-12)
            assert q["nrmse_mf"] != pytest.approx(want)  # pretraining still ran
        with pytest.raises(RuntimeError, match="no instance"):
            bench.end_to_end(TINY, run, [0.1])

    def test_fail_rate_counts_every_instance_of_the_pool(self, mods, pool, monkeypatch):
        train = mods.gan.train

        def crash_last(xm, pre, cfg):
            if cfg.seed == pool[-1].cfg.seed:
                raise mods.errors.ValidationError("stubbed")
            return train(xm, pre, cfg)

        monkeypatch.setattr(mods.gan, "train", crash_last)
        run = bench.measure(mods, TINY, pool, seconds=0.2)
        assert len(run.seconds) > TINY.pool  # the pool was repeated for timing
        assert run.succeeded[:TINY.pool] == [True] * (TINY.pool - 1) + [False]
        # repeats add timing only: the counts stay those of the distinct instances
        assert (len(run.quality), run.failed_instances) == (TINY.pool, 1)
        assert run.failures == {"ValidationError": 1, "adv_only:ValidationError": 1}
        assert bench.end_to_end(TINY, run, [0.1])["fail_rate"] == 1 / TINY.pool

    def test_column_mean_fill_of_an_empty_column(self, mods):
        x = np.array([[1.0, 5.0], [3.0, 7.0]])
        xm = mods.masking.apply_mask(x, np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert bench.column_mean_fill(xm).tolist() == [[1.0, 2.0], [3.0, 2.0]]

    def test_gate_flags_changed_observed_cell(self, mods, pool):
        a = bench.impute(mods, pool[0])
        a.imputed = a.imputed.copy()
        obs = np.argwhere(pool[0].xm.mask > 0)[0]
        a.imputed[tuple(obs)] = np.nextafter(a.imputed[tuple(obs)], 2.0)
        bench.gate(a, pool[0])
        assert a.error == "gate:observed"


class TestTracing:
    def test_wrappers_removed_before_untraced_run(self, mods, pool):
        originals = {name: getattr(mods.gan, name) for name in ("net_forward", "uniform", "as_matrix")}
        tracer = tracing.Tracer(mods)
        with pytest.raises(KeyError):
            with tracer.installed_for_run():
                assert tracing.wrapped_attributes(mods)
                with pytest.raises(RuntimeError, match="wrappers are installed"):
                    bench.measure(mods, TINY, pool, seconds=0.0)
                raise KeyError("leave the traced block early")
        assert tracing.wrapped_attributes(mods) == []
        assert all(getattr(mods.gan, k) is v for k, v in originals.items())
        bench.measure(mods, TINY, pool, seconds=0.0)

    def test_traced_run_keeps_outputs_and_names_every_layer(self, mods, pool):
        plain = bench.measure(mods, TINY, pool, seconds=0.0)
        tracer = tracing.Tracer(mods)
        with tracer.installed_for_run():
            traced = bench.measure(mods, TINY, pool, seconds=0.0, tracer=tracer)
        assert traced.digests == plain.digests
        assert traced.quality == plain.quality
        layers = tracer.layer_metrics(traced.mf_traces)
        assert set(layers) == set(bench.units(1)) == set(bench.MOVES)
        assert all(np.isfinite(v) for v in layers.values())
        for net in tracing.NETS:
            assert layers[f"kernel.forward_calls_per_iter.{net}"] == 2.0
        assert 0 < layers["mf.iterations"] <= 5


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 31)]
    level, value = bench.tail(samples)
    assert level == 66 and sum(s > value for s in samples) >= 10
    assert bench.tail(samples[:20]) is None


def test_stamp_names_versions_and_threads():
    s = bench.stamp(3)
    assert set(s) == {"commit", "python", "numpy", "blas", "blas_threads", "nproc", "seed"}
    assert s["seed"] == 3 and s["nproc"] >= 1
    json.dumps(s)
