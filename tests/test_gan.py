import dataclasses
import tracemalloc

import numpy as np
import pytest

from blockecho import data
from blockecho import gan as G
from blockecho import kernel as K
from blockecho import masking
from blockecho import mf
from blockecho.errors import SpecError, TrainingError, ValidationError
from blockecho.masking import MaskedMatrix, MaskSpec, apply_mask, generate_mask
from blockecho.metrics import EPS_NORM, normalize, rmse_missing
from oracles import fd_gradient, max_rel_error


def toy_instance(m=6, n=4, seed=0, missing=0.4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 1.0, size=(m, n))
    mask = generate_mask(MaskSpec("scattered", missing, seed + 1), m, n)
    return apply_mask(x, mask), x


def toy_setup(m=6, n=4, seed=0, missing=0.4, **cfg_kw):
    """A resolved config, pretrained factors and a built model on a toy instance."""
    xm, x = toy_instance(m, n, seed, missing)
    cfg = G.BlockEchoConfig(h=3, iters=0, seed=seed, pretrain_iters=50, **cfg_kw)
    rcfg = cfg.resolved(m, n)
    pre, _ = mf.pretrain(xm, rcfg.h, max_iters=50, seed=seed)
    model = G.build_model(rcfg, pre, K.make_rng(seed))
    return xm, x, rcfg, pre, model


@pytest.fixture
def calls(monkeypatch):
    """Records gan's kl_loss calls as "kl" and its net_forward calls as the
    net they ran; count one net's forwards with forwards(calls, net)."""
    seen = []
    kl_loss, net_forward = G.kl_loss, G.net_forward

    def counted_kl(*args):
        seen.append("kl")
        return kl_loss(*args)

    def counted_forward(net, x):
        seen.append(net)
        return net_forward(net, x)

    monkeypatch.setattr(G, "kl_loss", counted_kl)
    monkeypatch.setattr(G, "net_forward", counted_forward)
    return seen


def forwards(calls, net):
    return sum(c is net for c in calls)


def full_batch(xm, rcfg, pre, seed=0):
    """_g_objective's batch arguments over the whole toy matrix."""
    rng = K.make_rng(seed + 99)
    m, n = xm.shape
    return dict(
        x=xm.values,
        mask=xm.mask,
        z=K.uniform(rng, m, rcfg.h, G.NOISE_HIGH),
        hint=G.build_hint(xm.mask, rng),
        y=rng.random((m, 1)) < 0.5,
        u_p=pre.U,
    )


class TestConfig:
    def test_defaults_resolve(self):
        cfg = G.BlockEchoConfig().resolved(200, 50)
        assert cfg.h == min(16, -(-50 // 4))
        assert cfg.batch_rows == 128
        assert cfg.g_layers == (2 * 50 + cfg.h, 50, cfg.h)
        assert cfg.d1_layers == (cfg.h, cfg.h, 1)
        assert cfg.d2_layers == (100, 50, 50)
        assert cfg.mcl_layers == (1, 2, 1)

    def test_settable_fields_are_what_a_run_sets(self):
        # the architecture follows from the data and pretrain_tol is a constant
        init = [f.name for f in dataclasses.fields(G.BlockEchoConfig) if f.init]
        assert init == ["h", "alpha", "iters", "batch_rows", "seed", "pretrain_iters"]
        assert G.BlockEchoConfig.pretrain_tol == mf.DEFAULT_TOL
        with pytest.raises(TypeError):
            G.BlockEchoConfig(g_layers=(9, 4))

    @pytest.mark.parametrize("m, n, h", [(720, 64, 16), (6, 4, 3), (48, 16, None), (9, 1, 1)])
    def test_layer_sizes_are_the_built_nets(self, m, n, h):
        # perfbench's tracer names each net by these tuples
        rcfg = G.BlockEchoConfig(h=h).resolved(m, n)
        pre = mf.FactorPair(np.full((m, rcfg.h), 0.5), np.full((rcfg.h, n), 0.5))
        model = G.build_model(rcfg, pre, K.make_rng(0))
        for layers, net in [(rcfg.g_layers, model.generator), (rcfg.d1_layers, model.d1),
                            (rcfg.d2_layers, model.d2), (rcfg.mcl_layers, model.mcl)]:
            assert layers == tuple(net.sizes)

    def test_bad_alpha(self):
        with pytest.raises(SpecError):
            G.BlockEchoConfig(alpha=1.5).resolved(10, 10)

    @pytest.mark.parametrize("field", ["h", "iters", "batch_rows", "pretrain_iters"])
    def test_non_integer_size_rejected(self, field):
        with pytest.raises(SpecError, match=f"{field} must be an integer"):
            G.BlockEchoConfig(**{field: 2.5}).resolved(10, 10)

    def test_numpy_integer_sizes_accepted(self):
        cfg = G.BlockEchoConfig(h=np.int64(3), iters=np.int32(2), batch_rows=np.int64(4),
                                pretrain_iters=np.int64(5)).resolved(10, 10)
        assert (cfg.h, cfg.iters, cfg.batch_rows, cfg.pretrain_iters) == (3, 2, 4, 5)

    @pytest.mark.parametrize("field, bad", [
        ("pretrain_tol", -1e-6), ("pretrain_tol", np.nan), ("pretrain_tol", np.inf),
        # each of these once surfaced as a stray TypeError
        ("alpha", "0.5"), ("alpha", None), ("alpha", 0.5 + 0j), ("alpha", True),
        # and this one as an OverflowError from float()
        pytest.param("alpha", 10**400, id="alpha-int-beyond-float64"),
    ])
    def test_out_of_range_rate_or_tolerance_rejected(self, field, bad, monkeypatch):
        if field == "alpha":
            with pytest.raises(SpecError, match="alpha"):
                G.BlockEchoConfig(alpha=bad).resolved(10, 10)
            return
        # pretrain_tol is a class constant; a bad value is caught where the
        # config's tolerance is used, as perfbench's impute passes it on
        monkeypatch.setattr(G.BlockEchoConfig, "pretrain_tol", bad)
        cfg = G.BlockEchoConfig(h=2, pretrain_iters=3).resolved(8, 5)
        xm, _ = toy_instance(m=8, n=5, seed=4)
        with pytest.raises(SpecError, match="tol"):
            mf.pretrain(xm, cfg.h, max_iters=cfg.pretrain_iters, tol=cfg.pretrain_tol)

    def test_numpy_floats_resolve_to_python_floats(self):
        # a float32 alpha kept as is would run the loss arithmetic in float32
        rcfg = G.BlockEchoConfig(alpha=np.float32(0.25)).resolved(10, 10)
        assert type(rcfg.alpha) is float and rcfg.alpha == 0.25

    def test_numpy_integer_config_resolves_and_trains(self):
        i64 = np.int64
        cfg = G.BlockEchoConfig(h=i64(2), iters=np.int32(2), batch_rows=i64(4), seed=i64(3),
                                pretrain_iters=i64(5))
        rcfg = cfg.resolved(i64(8), i64(5))
        assert (rcfg.h, rcfg.iters, rcfg.batch_rows, rcfg.seed) == (2, 2, 4, 3)
        assert rcfg.g_layers == (12, 5, 2) and rcfg.d2_layers == (10, 5, 5)
        xm, _ = toy_instance(m=8, n=5, seed=3)
        pre, _ = mf.pretrain(xm, 2, max_iters=10, seed=3)
        _, result = G.train(xm, pre, cfg)
        _, plain = G.train(xm, pre, G.BlockEchoConfig(h=2, iters=2, batch_rows=4, seed=3))
        assert np.array_equal(result.imputed, plain.imputed)
        assert result.loss_trace == plain.loss_trace


class TestHint:
    def test_half_fraction_matches_rate(self):
        mask = np.ones((100, 100))
        hint = G.build_hint(mask, K.make_rng(3))
        frac_half = float((hint == 0.5).mean())
        assert abs(frac_half - (1.0 - G.HINT_RATE)) < 0.02
        assert set(np.unique(hint)) <= {0.0, 0.5, 1.0}

    def test_same_bits_and_draws_as_the_bernoulli_form(self):
        mask = generate_mask(MaskSpec("scattered", 0.4, 5), 40, 30)
        rng_new, rng_old = K.make_rng(8), K.make_rng(8)
        hint = G.build_hint(mask, rng_new)
        b = (rng_old.random((40, 30)) < G.HINT_RATE).astype(np.float64)
        old = b * mask + 0.5 * (1.0 - b)
        assert np.array_equal(hint.view(np.uint64), old.view(np.uint64))
        assert rng_new.random() == rng_old.random()


class TestGeneratorAndMcl:
    def test_zero_weight_generator_outputs_activated_bias(self):
        xm, _, rcfg, pre, model = toy_setup()
        for w in model.generator.weights:
            w[:] = 0.0
        model.generator.biases[-1][:] = 0.3
        z = np.zeros((xm.shape[0], rcfg.h))
        u, _ = K.net_forward(model.generator, np.hstack([xm.values, xm.mask, z]))
        sig = 1.0 / (1.0 + np.exp(-0.3))
        assert np.allclose(u, sig)

    def test_deterministic(self):
        xm, _, rcfg, pre, model = toy_setup()
        xz = np.hstack([xm.values, xm.mask, K.uniform(K.make_rng(5), xm.shape[0], rcfg.h)])
        a, _ = K.net_forward(model.generator, xz)
        b, _ = K.net_forward(model.generator, xz)
        assert np.array_equal(a, b)

    def test_row_independence(self):
        xm, _, rcfg, pre, model = toy_setup()
        z = K.uniform(K.make_rng(6), xm.shape[0], rcfg.h)
        base, _ = K.net_forward(model.generator, np.hstack([xm.values, xm.mask, z]))
        x2 = xm.values.copy()
        x2[2] += 0.05
        pert, _ = K.net_forward(model.generator, np.hstack([x2, xm.mask, z]))
        changed = np.any(base != pert, axis=1)
        assert changed[2] and not changed[[0, 1, 3, 4, 5]].any()

    def test_pointwise_property(self):
        # zero weights make G's output the constant sigmoid(0) on every row
        xm, _, rcfg, pre, model = toy_setup()
        for w in model.generator.weights:
            w[:] = 0.0
        model.V[:] = 0.2
        z = np.zeros((xm.shape[0], rcfg.h))
        _, out, _, _ = G._estimate(model, xm.values, xm.mask, z)
        assert np.allclose(out, out[0, 0])  # constant product -> constant output

    def test_fresh_head_is_near_identity(self):
        # the head must pass the warm-started product U @ V through, not
        # squash it to a constant, and keep its output inside [0, 1]
        _, _, _, _, model = toy_setup()
        p = np.linspace(0.1, 0.9, 801).reshape(-1, 1)
        out, _ = K.net_forward(model.mcl, p)
        assert np.max(np.abs(out - p)) < 0.025
        wide, _ = K.net_forward(model.mcl, np.linspace(-1.0, 3.0, 401).reshape(-1, 1))
        assert np.all((wide >= 0.0) & (wide <= 1.0))

    def test_head_is_the_clip_to_the_normalized_range(self):
        lo, hi = EPS_NORM, 1.0
        edges = [np.nextafter(lo, -np.inf), lo, np.nextafter(lo, np.inf),
                 np.nextafter(hi, -np.inf), hi, np.nextafter(hi, np.inf)]
        p = np.concatenate([[-1.0, 0.0, 3.0], edges, np.linspace(-1.0, 3.0, 4001)])
        head = G.init_head()
        out, cache = K.net_forward(head, p.reshape(-1, 1))
        assert np.array_equal(out.ravel(), np.clip(p, lo, hi))
        assert np.all((out >= lo) & (out <= hi))
        _, d_in = K.net_backward(head, cache, np.ones_like(out), params=False)
        inside = (p > lo) & (p < hi)
        outside = (p < lo) | (p > hi)
        assert np.all(d_in.ravel()[inside] == 1.0)
        assert np.all(d_in.ravel()[outside] == 0.0)
        # above 4 the two hinges cancel only to within rounding of p
        big = np.geomspace(4.0, 1e4, 1001)
        top, _ = K.net_forward(head, big.reshape(-1, 1))
        assert np.all(np.abs(top.ravel() - 1.0) <= 4 * np.spacing(big))
        # the hinges never cross, so the output stays >= EPS_NORM however
        # large p is: _g_objective's KL term relies on that and clamps nothing
        huge, _ = K.net_forward(head, np.geomspace(4.0, 1e300, 1001).reshape(-1, 1))
        assert np.all(huge >= lo)

    def test_estimate_is_the_clip_of_u_v(self):
        # zero weights make G's output sigmoid(0) = 1/2 on every row, so a V
        # whose first row is 2p and whose other rows are 0 gives u @ V = p;
        # the head alone leaves [EPS_NORM, 1] for some p > 4, _estimate does not
        lo, hi = EPS_NORM, 1.0
        edges = [np.nextafter(lo, -np.inf), lo, np.nextafter(lo, np.inf),
                 np.nextafter(hi, -np.inf), hi, np.nextafter(hi, np.inf), 2.0, 4.0]
        p = np.concatenate([edges, np.linspace(-1.0, 3.0, 4001),
                            np.geomspace(4.0, 1e300, 4001), -np.geomspace(4.0, 1e300, 11)])
        xm, _, rcfg, _, model = toy_setup()
        for w in model.generator.weights:
            w[:] = 0.0
        model.V = np.vstack([2.0 * p, np.zeros((rcfg.h - 1, p.size))])
        u, xhat, _, _ = G._estimate(model, xm.values, xm.mask, np.zeros((xm.shape[0], rcfg.h)))
        assert np.all(u == 0.5)
        assert np.array_equal(xhat, np.broadcast_to(np.clip(p, lo, hi), xhat.shape))


class TestAssembleAndMix:
    def test_all_observed(self):
        xm, x = toy_instance(missing=0.25)
        full = apply_mask(x, np.ones(x.shape))
        assert np.array_equal(G._assemble(full.values, full.mask, np.zeros(x.shape)), x)

    def test_all_missing(self):
        xhat = np.full((2, 2), 0.7)
        mm = MaskedMatrix(np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.array_equal(G._assemble(mm.values, mm.mask, xhat), xhat)

    def test_hand_case(self):
        mm = apply_mask([[1.0, 9.0], [9.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]])
        xhat = np.array([[9.0, 2.0], [3.0, 9.0]])
        assert np.array_equal(G._assemble(mm.values, mm.mask, xhat), [[1.0, 2.0], [3.0, 4.0]])

    def test_mix_all_ones(self):
        up = np.array([[1.0, 1.0], [3.0, 3.0]])
        u = np.array([[2.0, 2.0], [4.0, 4.0]])
        assert np.array_equal(G.mix_rows(up, u, np.ones((2, 1), dtype=bool)), up)
        assert np.array_equal(G.mix_rows(up, u, np.zeros((2, 1), dtype=bool)), u)

    def test_mix_hand_case(self):
        up = np.array([[1.0, 1.0], [3.0, 3.0]])
        u = np.array([[2.0, 2.0], [4.0, 4.0]])
        out = G.mix_rows(up, u, np.array([[True], [False]]))
        assert np.array_equal(out, [[1.0, 1.0], [4.0, 4.0]])


class TestDLosses:
    def test_d1_at_half(self):
        out = np.full((7, 1), 0.5)
        y = (K.make_rng(0).random((7, 1)) < 0.5).astype(np.float64)
        assert abs(G._bce_sum(G._clip_unit(out), y) - 7 * np.log(0.5)) < 1e-12

    def test_d1_perfect_discrimination_near_zero(self):
        y = np.array([[1.0], [0.0], [1.0]])
        out = np.where(y > 0, 1.0 - 1e-9, 1e-9)
        val = G._bce_sum(G._clip_unit(out), y)
        assert abs(val - 3 * np.log(1 - G.LOG_EPS)) < 1e-9

    def test_d1_single_term_monotone(self):
        y = np.ones((5, 1))
        vals = [G._bce_sum(G._clip_unit(np.full((5, 1), p)), y) for p in (0.2, 0.5, 0.8)]
        assert vals[0] < vals[1] < vals[2]
        assert abs(vals[1] - 5 * np.log(0.5)) < 1e-12

    def test_d2_at_half(self):
        mask = generate_mask(MaskSpec("scattered", 0.4, 2), 6, 5)
        assert abs(G._bce_sum(G._clip_unit(np.full((6, 5), 0.5)), mask) - 30 * np.log(0.5)) < 1e-12

    def test_d2_all_observed_pure_real_term(self):
        out = np.full((3, 4), 0.8)
        val = G._bce_sum(G._clip_unit(out), np.ones((3, 4)))
        assert abs(val - 12 * np.log(0.8)) < 1e-12


class TestCombinedLoss:
    def test_alpha_one_is_pure_kl(self, calls):
        xm, _, rcfg, pre, model = toy_setup(alpha=1.0)
        b = dict(full_batch(xm, rcfg, pre), hint=None, y=None)  # unread at alpha = 1
        total, recon, _ = G._g_objective(model, **b, alpha=1.0)
        assert calls.count("kl") == 1
        assert forwards(calls, model.d1) == 0 and forwards(calls, model.d2) == 0
        _, xhat, _, _ = G._estimate(model, b["x"], b["mask"], b["z"])
        expected = mf.kl_loss(b["x"][b["mask"]], xhat[b["mask"]])
        assert abs(total - expected) < 1e-12
        assert recon == total

    def test_alpha_zero_never_touches_kl(self, calls):
        xm, _, rcfg, pre, model = toy_setup(alpha=0.0)
        _, recon, _ = G._g_objective(model, **full_batch(xm, rcfg, pre), alpha=0.0)
        assert calls.count("kl") == 0 and recon == 0.0
        assert forwards(calls, model.d1) == 1 and forwards(calls, model.d2) == 1

    def test_convex_combination(self):
        # both the objective and its gradient are affine in alpha
        xm, _, rcfg, pre, model = toy_setup()
        b = full_batch(xm, rcfg, pre)
        adv, rec, mid = (G._g_objective(model, **b, alpha=a) for a in (0.0, 1.0, 0.5))
        assert abs(mid[0] - (0.5 * adv[0] + 0.5 * rec[0])) < 1e-9
        for k, g in mid[2].items():
            assert np.allclose(g, 0.5 * adv[2][k] + 0.5 * rec[2][k], rtol=1e-9, atol=1e-12), k

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_writes_none_of_its_arguments(self, alpha):
        xm, _, rcfg, pre, model = toy_setup(alpha=alpha)
        b = full_batch(xm, rcfg, pre)
        arrays = dict(b, **G._g_params(model), **K.net_params(model.d1, "d1"),
                      **K.net_params(model.d2, "d2"))
        before = {k: v.copy() for k, v in arrays.items()}
        G._g_objective(model, **b, alpha=alpha)
        for k, v in arrays.items():
            assert np.array_equal(v, before[k]), k


class TestGradients:
    def fd_check(self, seed, **cfg_kw):
        xm, _, rcfg, pre, model = toy_setup(m=4, n=4, seed=seed, missing=0.5, **cfg_kw)
        b = full_batch(xm, rcfg, pre, seed)
        _, _, analytic = G._g_objective(model, **b, alpha=rcfg.alpha)
        numeric = fd_gradient(lambda: G._g_objective(model, **b, alpha=rcfg.alpha)[0],
                              G._g_params(model))
        return max_rel_error(analytic, numeric)

    @pytest.mark.parametrize("seed", range(6))
    def test_full_path_matches_fd(self, seed):
        assert self.fd_check(seed) < 1e-4

    def test_kl_only_path(self):
        assert self.fd_check(52, alpha=1.0) < 1e-4


class TestTrain:
    def test_zero_iters_is_initial_assembly(self):
        xm, x = toy_instance(m=8, n=5, seed=1)
        cfg = G.BlockEchoConfig(h=2, iters=0, seed=4)
        pre, _ = mf.pretrain(xm, 2, max_iters=30, seed=4)
        model, result = G.train(xm, pre, cfg)
        obs = xm.mask > 0
        assert np.array_equal(result.imputed[obs], xm.values[obs])
        assert np.all((result.imputed >= 0) & np.isfinite(result.imputed))
        assert result.loss_trace["g_total"] == []

    def test_imputation_stays_in_the_normalized_range(self):
        # MF's estimate reaches 24.6 here; the head alone returned
        # 1.0000000000000004 for some of those cells
        x = data.gen_synthetic(data.SyntheticSpec("periodic_traffic", 24, 12, seed=0)).values
        mask = generate_mask(MaskSpec("scattered", 0.5, 0), 24, 12)
        xm = apply_mask(normalize(x, mask)[0], mask)
        pre, _ = mf.pretrain(xm, 3, max_iters=300, seed=0)
        _, result = G.train(xm, pre, G.BlockEchoConfig(h=3, iters=0, seed=0))
        assert np.all((result.imputed >= EPS_NORM) & (result.imputed <= 1.0))

    def test_observed_preserved_bit_exact(self):
        xm, x = toy_instance(m=10, n=6, seed=2, missing=0.5)
        cfg = G.BlockEchoConfig(h=2, iters=40, seed=0)
        pre, _ = mf.pretrain(xm, 2, max_iters=30, seed=0)
        _, result = G.train(xm, pre, cfg)
        obs = xm.mask > 0
        assert np.array_equal(result.imputed[obs], xm.values[obs])

    def test_factors_at_the_floor_survive_the_rescale(self):
        # U.max() < 0.95 makes train scale V down by c < 1: a V entry at the
        # floor must stay at it rather than fail FactorPair's validation
        xm, _ = toy_instance(m=8, n=5, seed=6, missing=0.4)
        rng = np.random.default_rng(6)
        U = rng.uniform(0.1, 0.5, size=(8, 2))
        V = rng.uniform(0.1, 1.0, size=(2, 5))
        V[1, 3] = mf.EPS_FLOOR
        pre = mf.FactorPair(U, V)
        _, result = G.train(xm, pre, G.BlockEchoConfig(h=2, iters=1, seed=6))
        obs = xm.mask > 0
        assert np.all(np.isfinite(result.imputed))
        assert np.array_equal(result.imputed[obs], xm.values[obs])

    def test_chunked_final_pass_matches_one_full_pass(self):
        # 50 rows in batches of 16 leave a short last chunk; the oracle runs
        # the returned model over every row at once on the same noise draw,
        # the one that follows the loop's `iters` batch draws
        xm, _ = toy_instance(m=50, n=6, seed=11, missing=0.4)
        pre, _ = mf.pretrain(xm, 2, max_iters=30, seed=11)
        cfg = G.BlockEchoConfig(h=2, iters=3, batch_rows=16, seed=11)
        model, result = G.train(xm, pre, cfg)
        noise_rng = K.spawn_rngs(cfg.seed, 5)[2]
        for _ in range(cfg.iters):
            K.uniform(noise_rng, cfg.batch_rows, cfg.h, G.NOISE_HIGH)
        z_full = K.uniform(noise_rng, 50, cfg.h, G.NOISE_HIGH)
        _, xhat, _, _ = G._estimate(model, xm.values, xm.mask, z_full)
        assert np.array_equal(result.imputed, G._assemble(xm.values, xm.mask, xhat))

    @pytest.mark.parametrize("alpha, per_iter", [(0.0, 2), (0.5, 2), (1.0, 1)])
    def test_every_forward_of_g_and_the_head_runs_in_estimate(self, alpha, per_iter,
                                                              monkeypatch):
        # 50 rows in batches of 16 make 4 final-pass chunks; the discriminator
        # phase runs only at alpha < 1
        estimate, net_forward = G._estimate, G.net_forward
        estimates, nets = [0], []
        inside = [False]

        def counted_estimate(*args):
            estimates[0] += 1
            inside[0] = True
            try:
                return estimate(*args)
            finally:
                inside[0] = False

        def counted_forward(net, x):
            nets.append((net, inside[0]))
            return net_forward(net, x)

        monkeypatch.setattr(G, "_estimate", counted_estimate)
        monkeypatch.setattr(G, "net_forward", counted_forward)
        xm, _ = toy_instance(m=50, n=6, seed=11, missing=0.4)
        pre, _ = mf.pretrain(xm, 2, max_iters=30, seed=11)
        per_run = []
        for iters in (0, 3):
            estimates[0] = 0
            nets.clear()
            model, _ = G.train(xm, pre, G.BlockEchoConfig(h=2, iters=iters, batch_rows=16,
                                                          alpha=alpha, seed=11))
            per_run.append(estimates[0])
            for part in (model.generator, model.mcl):
                runs = [within for net, within in nets if net is part]
                assert len(runs) == estimates[0] and all(runs)
        assert per_run[0] == 4
        assert per_run[1] - per_run[0] == 3 * per_iter

    def test_peak_memory_does_not_scale_with_cells_times_head_width(self):
        # a whole-matrix final pass held the head's hidden layer, 8 values
        # per cell, and peaked near 28 * m * n * 8 bytes at this size
        m, n = 3000, 32
        rng = np.random.default_rng(0)
        mask = generate_mask(MaskSpec("scattered", 0.3, 0), m, n)
        xm = apply_mask(rng.uniform(0.1, 1.0, (m, n)), mask)
        pre = mf.FactorPair(rng.uniform(0.1, 1.0, (m, 8)), rng.uniform(0.1, 1.0, (8, n)))
        tracemalloc.start()
        try:
            G.train(xm, pre, G.BlockEchoConfig(h=8, iters=3, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * m * n * 8

    def test_deterministic(self):
        xm, _ = toy_instance(m=10, n=6, seed=3, missing=0.5)
        cfg = G.BlockEchoConfig(h=2, iters=25, seed=7)
        pre, _ = mf.pretrain(xm, 2, max_iters=30, seed=7)
        _, r1 = G.train(xm, pre, cfg)
        _, r2 = G.train(xm, pre, cfg)
        assert np.array_equal(r1.imputed, r2.imputed)
        assert r1.loss_trace == r2.loss_trace

    def test_alpha_boundaries_short_circuit(self, calls):
        xm, _ = toy_instance(m=8, n=5, seed=4, missing=0.4)
        pre, _ = mf.pretrain(xm, 2, max_iters=30, seed=1)
        m_kl, _ = G.train(xm, pre, G.BlockEchoConfig(h=2, iters=10, alpha=1.0, seed=1))
        assert forwards(calls, m_kl.d1) == 0 and forwards(calls, m_kl.d2) == 0
        assert calls.count("kl") == 10
        calls.clear()
        m_adv, _ = G.train(xm, pre, G.BlockEchoConfig(h=2, iters=10, alpha=0.0, seed=1))
        assert calls.count("kl") == 0
        assert forwards(calls, m_adv.d1) > 0 and forwards(calls, m_adv.d2) > 0

    @pytest.mark.parametrize("alpha, per_iter", [(0.0, 2), (0.5, 2), (1.0, 0)])
    def test_mix_rows_builds_every_d1_input(self, alpha, per_iter, monkeypatch):
        # the discriminator phase and the generator's row term each mix once
        mix_rows, mixed = G.mix_rows, [0]

        def counted(*args):
            mixed[0] += 1
            return mix_rows(*args)

        monkeypatch.setattr(G, "mix_rows", counted)
        xm, _ = toy_instance(m=8, n=5, seed=4, missing=0.4)
        pre, _ = mf.pretrain(xm, 2, max_iters=30, seed=1)
        G.train(xm, pre, G.BlockEchoConfig(h=2, iters=5, alpha=alpha, seed=1))
        assert mixed[0] == 5 * per_iter

    def test_non_finite_generator_loss_names_the_iteration(self, monkeypatch):
        # at alpha = 1 the loss is the KL term alone, and an infinite loss
        # leaves the gradients finite, so only the loss check can stop it
        kl_loss, losses = G.kl_loss, []

        def inf_from_the_third(*args):
            losses.append(kl_loss(*args) if len(losses) < 2 else np.inf)
            return losses[-1]

        monkeypatch.setattr(G, "kl_loss", inf_from_the_third)
        xm, _ = toy_instance(m=8, n=5, seed=4, missing=0.4)
        pre, _ = mf.pretrain(xm, 2, max_iters=30, seed=1)
        with pytest.raises(TrainingError, match="at iteration 2; ") as err:
            G.train(xm, pre, G.BlockEchoConfig(h=2, iters=5, alpha=1.0, seed=1))
        assert len(losses) == 3
        assert f"d1=nan, d2=nan, g_total={losses[1]}" in str(err.value)

    def test_losses_traced(self):
        xm, _ = toy_instance(m=8, n=5, seed=5, missing=0.4)
        pre, _ = mf.pretrain(xm, 2, max_iters=30, seed=2)
        _, result = G.train(xm, pre, G.BlockEchoConfig(h=2, iters=15, seed=2))
        for key in ("d1", "d2", "mf_term", "g_total"):
            assert len(result.loss_trace[key]) == 15
        assert np.all(np.isfinite(result.loss_trace["g_total"]))

    def test_model_holds_the_trained_parts_only(self):
        # train holds the three Adam states itself; no caller read them
        names = [f.name for f in dataclasses.fields(G.EchoModel)]
        assert names == ["generator", "mcl", "V", "d1", "d2"]

    def test_head_is_not_trained(self):
        xm, _ = toy_instance(m=10, n=6, seed=9, missing=0.5)
        pre, _ = mf.pretrain(xm, 2, max_iters=30, seed=9)
        model, _ = G.train(xm, pre, G.BlockEchoConfig(h=2, iters=20, seed=9))
        fresh = G.init_head()
        assert model.mcl.activations == fresh.activations
        for a, b in zip(model.mcl.weights + model.mcl.biases, fresh.weights + fresh.biases):
            assert np.array_equal(a, b)

    def test_inputs_validated_once_not_per_iteration(self, monkeypatch):
        # the loop slices checked inputs and calls the kernel directly; the
        # per-iteration count was 32 while it went through the wrappers.
        # as_mask reads a non-bool mask through masking's as_matrix.
        counted = [0]
        for mod in (G, K, mf, masking):
            original = mod.as_matrix

            def counting(data, original=original):
                counted[0] += 1
                return original(data)

            monkeypatch.setattr(mod, "as_matrix", counting)
        xm, _ = toy_instance(m=10, n=6, seed=8, missing=0.5)
        pre, _ = mf.pretrain(xm, 2, max_iters=10, seed=8)
        per_run = []
        for iters in (0, 3):
            counted[0] = 0
            G.train(xm, pre, G.BlockEchoConfig(h=2, iters=iters, batch_rows=4, seed=8))
            per_run.append(counted[0])
        assert (per_run[1] - per_run[0]) / 3 <= 14

    def test_unnormalized_data_rejected(self):
        x = np.full((6, 4), 5.0)
        xm = apply_mask(x, generate_mask(MaskSpec("scattered", 0.3, 0), 6, 4))
        pre, _ = mf.pretrain(xm, 2, max_iters=10, seed=0)
        with pytest.raises(ValidationError, match="normalized"):
            G.train(xm, pre, G.BlockEchoConfig(h=2, iters=5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observed_value_rejected(self, bad):
        xm, _ = toy_instance(m=8, n=5, seed=7, missing=0.4)
        pre, _ = mf.pretrain(xm, 2, max_iters=10, seed=7)
        i, j = np.argwhere(xm.mask > 0)[0]
        xm.values[i, j] = bad  # set after MaskedMatrix's own check
        with pytest.raises(ValidationError, match="finite"):
            G.train(xm, pre, G.BlockEchoConfig(h=2, iters=2))

    @pytest.mark.parametrize("where", ["U", "V"])
    @pytest.mark.parametrize("entry", ["FactorPair", "train"])
    def test_infinite_factor_rejected(self, entry, where):
        # min >= EPS_FLOOR once let inf through, and train then raised a
        # stray RuntimeWarning
        xm, _ = toy_instance(m=8, n=5, seed=4)
        factors = {"U": np.full((8, 2), 0.5), "V": np.full((2, 5), 0.5)}
        factors[where][1, 1] = np.inf
        call = {
            "FactorPair": lambda: mf.FactorPair(**factors),
            "train": lambda: G.train(xm, mf.FactorPair(**factors), G.BlockEchoConfig(h=2, iters=2)),
        }[entry]
        with pytest.raises(ValidationError, match="finite"):
            call()

    def test_missing_pretrain_rejected(self):
        xm, _ = toy_instance()
        with pytest.raises(SpecError, match="pre-trained"):
            G.train(xm, None, G.BlockEchoConfig(h=2, iters=5))

    def test_full_beats_adv_only_on_block_missing(self):
        # paired runs on a rank-3 instance with a 40% block: the combined
        # objective should beat the pure-adversarial ablation most seeds
        wins = 0
        seeds = range(10)
        for seed in seeds:
            rng = np.random.default_rng(200 + seed)
            x = rng.uniform(0.3, 1.2, (24, 3)) @ rng.uniform(0.3, 1.2, (3, 12))
            mask = generate_mask(MaskSpec("uniblock", 0.4, seed), 24, 12)
            xn, params = normalize(x, mask)
            xm = MaskedMatrix(xn, mask)
            pre, _ = mf.pretrain(xm, 3, max_iters=300, seed=seed)
            truth_n = params.transform(x)

            cfg = G.BlockEchoConfig(h=3, iters=400, batch_rows=24, seed=seed)
            _, full = G.train(xm, pre, cfg)
            _, adv = G.train(xm, pre, dataclasses.replace(cfg, alpha=0.0))
            e_full = rmse_missing(full.imputed, truth_n, mask).standard
            e_adv = rmse_missing(adv.imputed, truth_n, mask).standard
            if e_full <= e_adv:
                wins += 1
        assert wins >= 8


class TestOptimalDiscriminator:
    def test_two_histogram_toy(self, histogram_discriminator):
        bins = np.linspace(0.1, 0.9, 8)
        t = np.arange(8)
        p_real = np.exp(0.4 * np.sin(2 * np.pi * t / 8))
        p_real /= p_real.sum()
        p_fake = np.exp(0.4 * np.cos(2 * np.pi * t / 8))
        p_fake /= p_fake.sum()
        d = histogram_discriminator(p_real, p_fake, bins)
        target = p_real / (p_real + p_fake)
        assert np.max(np.abs(d - target)) < 0.05

