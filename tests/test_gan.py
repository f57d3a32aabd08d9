import dataclasses
import json

import numpy as np
import pytest

from blockecho import gan as G
from blockecho import kernel as K
from blockecho import mf
from blockecho.errors import ShapeError, SpecError, ValidationError
from blockecho.masking import MaskedMatrix, apply_mask, gen_scattered, gen_uniblock
from blockecho.metrics import normalize, rmse_missing


def toy_instance(m=6, n=4, seed=0, missing=0.4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 1.0, size=(m, n))
    mask = gen_scattered(m, n, missing, seed + 1)
    return apply_mask(x, mask), x


def toy_setup(m=6, n=4, seed=0, missing=0.4, **cfg_kw):
    """A resolved config, pretrained factors and a built model on a toy instance."""
    xm, x = toy_instance(m, n, seed, missing)
    cfg = G.BlockEchoConfig(h=3, iters=0, seed=seed, pretrain_iters=50, **cfg_kw)
    rcfg = cfg.resolved(m, n)
    pre, _ = mf.pretrain(xm, rcfg.h, max_iters=50, seed=seed)
    model = G.build_model(rcfg, m, n, pre, K.make_rng(seed))
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


def full_gbatch(xm, rcfg, pre, seed=0):
    rng = K.make_rng(seed + 99)
    m, n = xm.shape
    return G.GBatch(
        x=xm.values,
        mask=xm.mask,
        z=K.uniform(rng, m, rcfg.h, 0.0, G.NOISE_HIGH),
        hint=G.build_hint(xm.mask, rcfg.hint_rate, rng),
        y=K.bernoulli(rng, m, 1, 0.5),
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

    def test_bad_alpha(self):
        with pytest.raises(SpecError):
            G.BlockEchoConfig(alpha=1.5).resolved(10, 10)

    def test_inconsistent_layers(self):
        with pytest.raises(SpecError):
            G.BlockEchoConfig(h=4, g_layers=(9, 4)).resolved(10, 10)

    @pytest.mark.parametrize("field", ["h", "iters", "batch_rows", "pretrain_iters"])
    def test_non_integer_size_rejected(self, field):
        with pytest.raises(SpecError, match=f"{field} must be an integer"):
            G.BlockEchoConfig(**{field: 2.5}).resolved(10, 10)

    def test_numpy_integer_sizes_accepted(self):
        cfg = G.BlockEchoConfig(h=np.int64(3), iters=np.int32(2), batch_rows=np.int64(4),
                                pretrain_iters=np.int64(5)).resolved(10, 10)
        assert (cfg.h, cfg.iters, cfg.batch_rows, cfg.pretrain_iters) == (3, 2, 4, 5)

    def test_dict_roundtrip(self):
        d = G.BlockEchoConfig(h=5, alpha=0.7, mcl_layers=(1, 4, 1)).to_dict()
        assert json.loads(json.dumps(d)) == d


class TestHint:
    def test_rate_one_returns_mask(self):
        mask = gen_scattered(10, 10, 0.5, 0)
        assert np.array_equal(G.build_hint(mask, 1.0, K.make_rng(1)), mask)

    def test_rate_zero_all_half(self):
        mask = gen_scattered(10, 10, 0.5, 0)
        assert np.all(G.build_hint(mask, 0.0, K.make_rng(1)) == 0.5)

    def test_half_fraction_matches_rate(self):
        mask = np.ones((100, 100))
        hint = G.build_hint(mask, 0.9, K.make_rng(3))
        frac_half = float((hint == 0.5).mean())
        assert abs(frac_half - 0.1) < 0.02
        assert set(np.unique(hint)) <= {0.0, 0.5, 1.0}


class TestGeneratorAndMcl:
    def test_zero_weight_generator_outputs_activated_bias(self):
        xm, _, rcfg, pre, model = toy_setup()
        for w in model.generator.weights:
            w[:] = 0.0
        model.generator.biases[-1][:] = 0.3
        z = np.zeros((xm.shape[0], rcfg.h))
        u = G.generator_forward(model, xm.values, xm.mask, z)
        sig = 1.0 / (1.0 + np.exp(-0.3))
        assert np.allclose(u, sig)

    def test_deterministic(self):
        xm, _, rcfg, pre, model = toy_setup()
        z = K.uniform(K.make_rng(5), xm.shape[0], rcfg.h)
        a = G.generator_forward(model, xm.values, xm.mask, z)
        b = G.generator_forward(model, xm.values, xm.mask, z)
        assert np.array_equal(a, b)

    def test_row_independence(self):
        xm, _, rcfg, pre, model = toy_setup()
        z = K.uniform(K.make_rng(6), xm.shape[0], rcfg.h)
        base = G.generator_forward(model, xm.values, xm.mask, z)
        x2 = xm.values.copy()
        x2[2] += 0.05
        pert = G.generator_forward(model, x2, xm.mask, z)
        changed = np.any(base != pert, axis=1)
        assert changed[2] and not changed[[0, 1, 3, 4, 5]].any()

    def test_identity_head_reduces_to_product(self):
        xm, _, rcfg, pre, model = toy_setup(mcl_layers=None)
        u = K.uniform(K.make_rng(7), 5, rcfg.h, 0.1, 0.9)
        assert np.array_equal(G.mcl_forward(model, u), u @ model.V)

    def test_pointwise_property(self):
        xm, _, rcfg, pre, model = toy_setup()
        u = np.full((3, rcfg.h), 0.4)
        model.V[:] = 0.2
        out = G.mcl_forward(model, u)
        assert np.allclose(out, out[0, 0])  # constant product -> constant output

    @pytest.mark.parametrize("layers", [(1, 8, 1), (1, 4, 8, 1)])
    def test_fresh_head_is_near_identity(self, layers):
        # the head must pass the warm-started product U @ V through, not
        # squash it to a constant, and keep its sigmoid bound
        _, _, _, _, model = toy_setup(mcl_layers=layers)
        p = np.linspace(0.1, 0.9, 801).reshape(-1, 1)
        out, _ = K.net_forward(model.mcl, p)
        assert np.max(np.abs(out - p)) < 0.025
        wide, _ = K.net_forward(model.mcl, np.linspace(-1.0, 3.0, 401).reshape(-1, 1))
        assert np.all((wide >= 0.0) & (wide <= 1.0))

    def test_noise_shape_checked(self):
        xm, _, rcfg, pre, model = toy_setup()
        with pytest.raises(ShapeError):
            G.generator_forward(model, xm.values, xm.mask, np.zeros((xm.shape[0], rcfg.h + 1)))


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
        assert np.array_equal(G.mix_rows(up, u, np.ones((2, 1))), up)
        assert np.array_equal(G.mix_rows(up, u, np.zeros((2, 1))), u)

    def test_mix_hand_case(self):
        up = np.array([[1.0, 1.0], [3.0, 3.0]])
        u = np.array([[2.0, 2.0], [4.0, 4.0]])
        out = G.mix_rows(up, u, np.array([[1.0], [0.0]]))
        assert np.array_equal(out, [[1.0, 1.0], [4.0, 4.0]])

    def test_mix_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            G.mix_rows(np.ones((2, 2)), np.ones((2, 2)), np.full((2, 1), 0.5))


class TestDLosses:
    def test_d1_at_half(self):
        out = np.full((7, 1), 0.5)
        y = K.bernoulli(K.make_rng(0), 7, 1, 0.5)
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
        mask = gen_scattered(6, 5, 0.4, 2)
        assert abs(G._bce_sum(G._clip_unit(np.full((6, 5), 0.5)), mask) - 30 * np.log(0.5)) < 1e-12

    def test_d2_all_observed_pure_real_term(self):
        out = np.full((3, 4), 0.8)
        val = G._bce_sum(G._clip_unit(out), np.ones((3, 4)))
        assert abs(val - 12 * np.log(0.8)) < 1e-12


class TestCombinedLoss:
    def test_alpha_one_is_pure_kl(self, calls):
        xm, _, rcfg, pre, model = toy_setup(alpha=1.0)
        gb = full_gbatch(xm, rcfg, pre)
        total = G._g_forward(model, gb, rcfg).total
        assert calls.count("kl") == 1
        assert forwards(calls, model.d1) == 0 and forwards(calls, model.d2) == 0
        xhat = G.mcl_forward(model, G.generator_forward(model, gb.x, gb.mask, gb.z))
        expected = mf.kl_loss(gb.x, np.maximum(xhat, G.LOG_EPS), gb.mask)
        assert abs(total - expected) < 1e-12

    def test_alpha_zero_never_touches_kl(self, calls):
        xm, _, rcfg, pre, model = toy_setup(alpha=0.0)
        gb = full_gbatch(xm, rcfg, pre)
        G._g_forward(model, gb, rcfg)
        assert calls.count("kl") == 0
        assert forwards(calls, model.d1) == 1 and forwards(calls, model.d2) == 1

    def test_convex_combination(self):
        xm, _, rcfg, pre, model = toy_setup()
        gb = full_gbatch(xm, rcfg, pre)
        adv = G._g_forward(model, gb, dataclasses.replace(rcfg, alpha=0.0)).total
        rec = G._g_forward(model, gb, dataclasses.replace(rcfg, alpha=1.0)).total
        mid = G._g_forward(model, gb, dataclasses.replace(rcfg, alpha=0.5)).total
        assert abs(mid - (0.5 * adv + 0.5 * rec)) < 1e-9


class TestGradients:
    def fd_check(self, seed, **cfg_kw):
        xm, _, rcfg, pre, model = toy_setup(m=4, n=4, seed=seed, missing=0.5, **cfg_kw)
        gb = full_gbatch(xm, rcfg, pre, seed)
        fw = G._g_forward(model, gb, rcfg)
        analytic = G._g_grads(model, gb, rcfg, fw)
        params = G._g_params(model)
        numeric = K.fd_gradient(lambda: G._g_forward(model, gb, rcfg).total, params)
        return K.max_rel_error(analytic, numeric)

    @pytest.mark.parametrize("seed", range(6))
    def test_full_path_matches_fd(self, seed):
        assert self.fd_check(seed) < 1e-4

    def test_identity_head_path(self):
        assert self.fd_check(50, mcl_layers=None) < 1e-4

    def test_kl_only_path(self):
        assert self.fd_check(52, alpha=1.0) < 1e-4

    def test_d2_gradient_blocked_at_observed_cells(self):
        # the element discriminator contributes no gradient through
        # observed cells of the estimate: assembly overwrites them
        xm, _, rcfg, pre, model = toy_setup(m=5, n=4, seed=3, alpha=0.0)
        gb = full_gbatch(xm, rcfg, pre, 3)
        fw = G._g_forward(model, gb, rcfg)
        inb = (fw.d2_out > G.LOG_EPS) & (fw.d2_out < 1 - G.LOG_EPS)
        d_out = np.where((gb.mask == 0) & inb, -1.0 / np.clip(fw.d2_out, G.LOG_EPS, 1 - G.LOG_EPS), 0.0)
        _, d_in = K.net_backward(model.d2, fw.d2_cache, d_out)
        d_xhat = d_in[:, : model.n] * (gb.mask == 0)
        assert np.all(d_xhat[gb.mask > 0] == 0.0)


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

    def test_losses_traced(self):
        xm, _ = toy_instance(m=8, n=5, seed=5, missing=0.4)
        pre, _ = mf.pretrain(xm, 2, max_iters=30, seed=2)
        _, result = G.train(xm, pre, G.BlockEchoConfig(h=2, iters=15, seed=2))
        for key in ("d1", "d2", "mf_term", "g_total"):
            assert len(result.loss_trace[key]) == 15
        assert np.all(np.isfinite(result.loss_trace["g_total"]))

    def test_ema_holds_no_share_of_the_initialization(self):
        # after one step the bias-corrected average is exactly that step's
        # weights, so it must impute as the run without averaging does
        xm, _ = toy_instance(m=10, n=6, seed=9, missing=0.5)
        pre, _ = mf.pretrain(xm, 2, max_iters=30, seed=9)
        cfg = G.BlockEchoConfig(h=2, iters=1, seed=9, ema_decay=0.998)
        _, averaged = G.train(xm, pre, cfg)
        _, plain = G.train(xm, pre, dataclasses.replace(cfg, ema_decay=0.0))
        assert np.allclose(averaged.imputed, plain.imputed, rtol=1e-12, atol=1e-12)

    def test_unnormalized_data_rejected(self):
        x = np.full((6, 4), 5.0)
        xm = apply_mask(x, gen_scattered(6, 4, 0.3, 0))
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

    def test_missing_pretrain_rejected(self):
        xm, _ = toy_instance()
        with pytest.raises(SpecError, match="pre-trained"):
            G.train(xm, None, G.BlockEchoConfig(h=2, iters=5))

    def test_gan_only_style_runs_without_row_discriminator(self, calls):
        xm, _ = toy_instance(m=10, n=6, seed=6, missing=0.5)
        pre, _ = mf.pretrain(xm, 2, max_iters=30, seed=3)
        cfg = G.BlockEchoConfig(h=2, iters=20, use_d1=False, seed=3)
        model, result = G.train(xm, pre, cfg)
        assert model.d1 is None and model.opt_d1 is None
        assert forwards(calls, model.d2) > 0
        assert np.all(np.isfinite(result.imputed))
        # V always starts from the pre-trained factors, so they stay required
        with pytest.raises(SpecError, match="pre-trained"):
            G.train(xm, None, cfg)

    def test_full_beats_adv_only_on_block_missing(self):
        # paired runs on a rank-3 instance with a 40% block: the combined
        # objective should beat the pure-adversarial ablation most seeds
        wins = 0
        seeds = range(10)
        for seed in seeds:
            rng = np.random.default_rng(200 + seed)
            x = rng.uniform(0.3, 1.2, (24, 3)) @ rng.uniform(0.3, 1.2, (3, 12))
            mask = gen_uniblock(24, 12, 0.4, seed)
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

