import copy
import re

import numpy as np
import pytest

from blockecho import data, gan, masking, metrics, mf
from blockecho import kernel as K
from blockecho.errors import ShapeError, SpecError, TrainingError, ValidationError
from oracles import fd_gradient, max_rel_error


def small_net(rng, sizes=(3, 4, 2), acts=("relu", "sigmoid")):
    return K.init_dense(list(sizes), list(acts), rng)


class TestForward:
    def test_zero_weights_give_activated_bias(self):
        net = small_net(K.make_rng(1), (3, 4, 2), ("relu", "relu"))
        for w in net.weights:
            w[:] = 0.0
        net.biases[0][:] = 0.0
        net.biases[1][:] = [[0.5, -1.5]]
        out, _ = K.net_forward(net, np.ones((5, 3)))
        assert np.array_equal(out, np.tile([0.5, 0.0], (5, 1)))

    def test_single_neuron(self):
        net = K.DenseNet([np.array([[2.0]])], [np.array([[1.0]])], ["relu"])
        out, _ = K.net_forward(net, [[3.0]])
        assert out[0, 0] == 7.0

    def test_sigmoid_of_zero_is_half(self):
        net = K.DenseNet([np.zeros((2, 3))], [np.zeros((1, 3))], ["sigmoid"])
        out, _ = K.net_forward(net, [[0.0, 0.0]])
        assert np.array_equal(out, np.full((1, 3), 0.5))

    def test_input_width_checked(self):
        net = small_net(K.make_rng(2))
        with pytest.raises(ShapeError):
            K.net_forward(net, np.ones((2, 5)))


class TestBackward:
    def test_zero_output_grad(self):
        net = small_net(K.make_rng(3))
        out, cache = K.net_forward(net, K.make_rng(4).random((6, 3)))
        grads, din = K.net_backward(net, cache, np.zeros_like(out))
        assert all(np.all(dw == 0) and np.all(db == 0) for dw, db in grads)
        assert np.all(din == 0)

    def test_single_neuron_hand_gradient(self):
        # y = relu(w*x + b) = 7 with loss = y: dL/dw = x = 3, dL/db = 1
        net = K.DenseNet([np.array([[2.0]])], [np.array([[1.0]])], ["relu"])
        _, cache = K.net_forward(net, [[3.0]])
        grads, _ = K.net_backward(net, cache, [[1.0]])
        assert grads[0][0][0, 0] == 3.0
        assert grads[0][1][0, 0] == 1.0

    def test_stale_cache_rejected(self):
        rng = K.make_rng(5)
        net_a, net_b = small_net(rng), small_net(rng)
        out, cache = K.net_forward(net_a, rng.random((2, 3)))
        with pytest.raises(ValidationError):
            K.net_backward(net_b, cache, np.zeros_like(out))

    @pytest.mark.parametrize("trial", range(100))
    def test_gradient_matches_finite_differences(self, trial):
        # random nets of <=3 layers / <=16 units against the FD oracle
        rng = K.make_rng(1000 + trial)
        n_layers = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 17)) for _ in range(n_layers + 1)]
        acts = [str(rng.choice(K.ACTIVATIONS)) for _ in range(n_layers)]
        net = K.init_dense(sizes, acts, rng)
        for b in net.biases:  # move away from exact relu kinks at z=0
            b += rng.standard_normal(b.shape) * 0.1
        x = rng.standard_normal((int(rng.integers(1, 5)), sizes[0]))
        w = rng.standard_normal((x.shape[0], sizes[-1]))  # random scalar loss sum(w*out)

        out, cache = K.net_forward(net, x)
        grads, _ = K.net_backward(net, cache, w)
        analytic = K.net_grads_dict(grads, "p")

        params = K.net_params(net, "p")

        def loss():
            o, _ = K.net_forward(net, x)
            return float(np.sum(w * o))

        numeric = fd_gradient(loss, params)
        assert max_rel_error(analytic, numeric) < 1e-4


def two_branch_sigmoid(z):
    """The sign-split sigmoid the kernel used before its branch-free form."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSigmoidBitExact:
    EDGES = [0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 745.0, -745.0,
             800.0, -800.0, np.inf, -np.inf]

    def test_edge_grid(self):
        z = np.array([self.EDGES])
        assert same_bits(K._sigmoid(z), two_branch_sigmoid(z))

    @pytest.mark.parametrize("shape", [(128, 64), (8192, 1), (3, 5)])
    def test_random_normals(self, shape):
        z = K.make_rng(sum(shape)).standard_normal(shape) * 30.0
        assert same_bits(K._sigmoid(z), two_branch_sigmoid(z))

    def test_nan_stays_nan(self):
        out = K._sigmoid(np.array([[np.nan, 0.0, -np.nan]]))
        assert np.isnan(out[0, 0]) and np.isnan(out[0, 2]) and out[0, 1] == 0.5


def reference_activation(name, z):
    return np.maximum(z, 0.0) if name == "relu" else two_branch_sigmoid(z)


def reference_activation_grad(name, z):
    """d act / d z from the pre-activation z, as the kernel once computed it."""
    if name == "relu":
        return z > 0.0
    s = two_branch_sigmoid(z)
    return s * (1.0 - s)


def batch_major_forward(net, x):
    """Reference: the row-wise pass, one (batch, features) array per layer,
    keeping each layer's pre-activation z next to its output."""
    inputs, pre, a = [x], [], x
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = a @ w
        z += b
        a = reference_activation(act, z)
        pre.append(z)
        inputs.append(a)
    return a, inputs, pre


def batch_major_backward(net, inputs, pre, out_grad):
    grads, d = [None] * len(net.weights), out_grad
    for i in range(len(net.weights) - 1, -1, -1):
        dz = d * reference_activation_grad(net.activations[i], pre[i])
        grads[i] = (inputs[i].T @ dz, dz.sum(axis=0, keepdims=True))
        d = dz @ net.weights[i].T
    return grads, d


class TestFeatureMajor:
    """The feature-major kernel against the batch-major formulas it replaced;
    sums run in another order, so results agree to rounding, not bits."""

    @pytest.mark.parametrize("sizes, acts, batch", [
        ((1, 8, 1), ("relu", "sigmoid"), 8192),
        ((1, 4, 8, 1), ("relu", "relu", "sigmoid"), 300),
        ((6, 6, 1), ("sigmoid", "sigmoid"), 128),
        ((16, 16, 1), ("sigmoid", "sigmoid"), 128),
        ((41, 20, 5), ("relu", "sigmoid"), 128),
        ((1, 1), ("relu",), 7),
        ((3, 1, 4), ("sigmoid", "relu"), 5),
        ((5, 3), ("sigmoid",), 1),
    ])
    def test_matches_batch_major_reference(self, sizes, acts, batch):
        rng = K.make_rng(sum(sizes) + batch)
        net = K.init_dense(list(sizes), list(acts), rng)
        for b in net.biases:
            b += rng.standard_normal(b.shape) * 0.1
        x = rng.standard_normal((batch, sizes[0]))
        d_out = rng.standard_normal((batch, sizes[-1]))

        out, cache = K.net_forward(net, x)
        grads, d_in = K.net_backward(net, cache, d_out)
        ref_out, inputs, pre = batch_major_forward(net, x)
        ref_grads, ref_d_in = batch_major_backward(net, inputs, pre, d_out)

        np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=0)
        np.testing.assert_allclose(d_in, ref_d_in, rtol=1e-12, atol=0)
        for (dw, db), (ref_dw, ref_db) in zip(grads, ref_grads):
            assert dw.shape == ref_dw.shape and db.shape == ref_db.shape
            np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=0)
            np.testing.assert_allclose(db, ref_db, rtol=1e-12, atol=0)
        assert out.shape == (batch, sizes[-1]) and out.flags.c_contiguous
        assert d_in.shape == x.shape and d_in.flags.c_contiguous

    @pytest.mark.parametrize("sizes", [(1, 8), (8, 1), (1, 1)])
    def test_broadcast_layers_match_rank1_product_bits(self, sizes):
        # a fan-in-1 or fan-out-1 product has no sum to reorder
        rng = K.make_rng(sizes[0] * 10 + sizes[1])
        # sigmoid: a relu's zero gradients keep their sign through the
        # broadcast product but come back +0.0 from a matrix product's sum
        net = K.init_dense(list(sizes), ["sigmoid"], rng)
        x = rng.standard_normal((200, sizes[0]))
        d_out = rng.standard_normal((200, sizes[1]))
        out, cache = K.net_forward(net, x)
        _, d_in = K.net_backward(net, cache, d_out)
        ref_out, inputs, pre = batch_major_forward(net, x)
        _, ref_d_in = batch_major_backward(net, inputs, pre, d_out)
        if sizes[0] == 1:
            assert same_bits(out, ref_out)
        if sizes[1] == 1:
            assert same_bits(d_in, ref_d_in)


class TestBackwardParts:
    @pytest.mark.parametrize("seed", range(5))
    def test_skipped_parts_are_none_and_the_rest_bit_equal(self, seed):
        rng = K.make_rng(50 + seed)
        sizes = [int(rng.integers(1, 9)) for _ in range(seed % 3 + 2)]
        acts = [str(rng.choice(K.ACTIVATIONS)) for _ in sizes[1:]]
        net = K.init_dense(sizes, acts, rng)
        out, cache = K.net_forward(net, rng.standard_normal((6, sizes[0])))
        d_out = rng.standard_normal(out.shape)
        grads, d_in = K.net_backward(net, cache, d_out)

        only_params, none_in = K.net_backward(net, cache, d_out, inputs=False)
        assert none_in is None
        assert len(only_params) == len(grads)
        for (dw, db), (dw2, db2) in zip(grads, only_params):
            assert same_bits(dw, dw2) and same_bits(db, db2)

        none_params, only_in = K.net_backward(net, cache, d_out, params=False)
        assert none_params is None
        assert same_bits(d_in, only_in)

        assert K.net_backward(net, cache, d_out, params=False, inputs=False) == (None, None)


class TestActivationCache:
    def test_relu_mask_from_output_equals_mask_from_pre_activation(self):
        # relu maps -0.0 to -0.0 and NaN to NaN, so a > 0 and z > 0 agree
        z = np.array([[-0.0, 0.0, np.nan, -np.nan, 1e-300, -1e-300, np.inf, -np.inf, 2.0]])
        a = K._apply_activation("relu", z.copy())
        assert np.array_equal(K._activation_grad("relu", a), z > 0.0)

    @pytest.mark.parametrize("sizes, acts", [
        ((3, 4, 2), ("relu", "relu")),
        ((3, 4, 2), ("relu", "sigmoid")),
        ((1, 4, 1), ("relu", "relu")),
        ((3, 2), ("relu",)),
        ((3, 4, 2), ("sigmoid", "relu")),
    ])
    def test_passes_leave_their_arguments_unchanged(self, sizes, acts):
        rng = K.make_rng(sum(sizes) + len(acts))
        net = K.init_dense(list(sizes), list(acts), rng)
        x = rng.standard_normal((7, sizes[0]))
        x[0, 0] = -0.0
        x_before = x.copy()
        out, cache = K.net_forward(net, x)
        out_before = out.copy()
        d_out = rng.standard_normal(out.shape)
        d_before = d_out.copy()
        first = K.net_backward(net, cache, d_out)
        second = K.net_backward(net, cache, d_out)
        assert same_bits(x, x_before)
        assert same_bits(out, out_before)
        assert same_bits(d_out, d_before)
        assert same_bits(first[1], second[1])
        for (dw, db), (dw2, db2) in zip(first[0], second[0]):
            assert same_bits(dw, dw2) and same_bits(db, db2)


def per_block_adam(state, params, grads):
    """Reference: Adam at AdamState's default settings, one moment array per block."""
    state["step"] += 1
    t = state["step"]
    c1 = 1.0 - 0.9 ** t
    c2 = 1.0 - 0.999 ** t
    for name, g in grads.items():
        m = state["m"].setdefault(name, np.zeros_like(g))
        v = state["v"].setdefault(name, np.zeros_like(g))
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        params[name] -= 1e-3 * (m / c1) / (np.sqrt(v / c2) + 1e-8)


class TestAdamFlatBitExact:
    SHAPES = {"a.w0": (7, 5), "a.b0": (1, 5), "a.w1": (5, 1), "a.b1": (1, 1), "v": (3, 4)}

    def test_matches_per_block_reference(self):
        rng = K.make_rng(21)
        p_flat = {k: rng.standard_normal(s) for k, s in self.SHAPES.items()}
        p_ref = {k: v.copy() for k, v in p_flat.items()}
        state, ref = K.AdamState(), {"step": 0, "m": {}, "v": {}}
        for step in range(6):
            grads = {k: rng.standard_normal(s) * 10.0 ** (step - 3) for k, s in self.SHAPES.items()}
            if step == 2:
                grads["a.b1"][0, 0] = 0.0
            K.adam_step(state, p_flat, grads)
            per_block_adam(ref, p_ref, grads)
            for k in self.SHAPES:
                assert same_bits(p_flat[k], p_ref[k]), (step, k)
        assert state.step == 6


class TestAdamGuard:
    def first_step(self):
        state = K.AdamState()
        params = {"w": np.zeros((2, 3)), "b": np.zeros((1, 3))}
        K.adam_step(state, params, {"w": np.ones((2, 3)), "b": np.ones((1, 3))})
        return state, params

    @pytest.mark.parametrize("grads", [
        {"w": np.ones((2, 3))},                                            # block missing
        {"w": np.ones((2, 3)), "b": np.ones((1, 3)), "c": np.ones((1, 1))},  # block added
        {"w": np.ones((2, 3)), "c": np.ones((1, 3))},                      # block renamed
    ])
    def test_block_set_must_match_the_first_step(self, grads):
        state, _ = self.first_step()
        with pytest.raises(ValidationError, match="first step"):
            K.adam_step(state, {k: np.zeros_like(g) for k, g in grads.items()}, grads)

    def test_block_shape_must_match_the_first_step(self):
        state, _ = self.first_step()
        with pytest.raises(ValidationError, match="first step"):
            K.adam_step(state, {"w": np.zeros((3, 2)), "b": np.zeros((1, 3))},
                        {"w": np.ones((3, 2)), "b": np.ones((1, 3))})

    def test_block_order_may_change(self):
        state, params = self.first_step()
        other, params2 = self.first_step()
        grads = {"w": np.full((2, 3), 0.5), "b": np.full((1, 3), -2.0)}
        K.adam_step(state, params, grads)
        K.adam_step(other, params2, dict(reversed(list(grads.items()))))
        assert all(same_bits(params[k], params2[k]) for k in params)

    @pytest.mark.parametrize("first", [True, False])
    def test_non_finite_gradient_leaves_the_state(self, first):
        if first:
            state, params = K.AdamState(), {"w": np.zeros((2, 3)), "b": np.zeros((1, 3))}
        else:
            state, params = self.first_step()
        before = copy.deepcopy((state, params))
        with pytest.raises(TrainingError, match="'b'"):
            K.adam_step(state, params, {"w": np.ones((2, 3)), "b": np.array([[1.0, np.inf, 0.0]])})
        assert state.step == before[0].step
        assert state.layout == before[0].layout
        for now, then in ((state.m, before[0].m), (state.v, before[0].v)):
            assert (now is None and then is None) or same_bits(now, then)
        assert all(same_bits(params[k], before[1][k]) for k in params)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = {"w": np.array([[1.0, -2.0]])}
        K.adam_step(K.AdamState(), p, {"w": np.zeros((1, 2))})
        assert np.array_equal(p["w"], [[1.0, -2.0]])

    def test_first_step_magnitude(self):
        p = {"w": np.array([[0.0]])}
        K.adam_step(K.AdamState(lr=1e-3), p, {"w": np.array([[1.0]])})
        # bias-corrected first step is lr/(1+eps)
        assert abs(p["w"][0, 0] + 1e-3) < 1e-9

    def test_deterministic_replay(self):
        rng = K.make_rng(7)
        g = {"w": rng.standard_normal((3, 2))}

        def run():
            state = K.AdamState()
            p = {"w": np.full((3, 2), 0.3)}
            for _ in range(5):
                K.adam_step(state, p, g)
            return p["w"]

        assert np.array_equal(run(), run())

    def test_step_count_increases(self):
        state = K.AdamState()
        p = {"w": np.zeros((1, 1))}
        K.adam_step(state, p, {"w": np.ones((1, 1))})
        K.adam_step(state, p, {"w": np.ones((1, 1))})
        assert state.step == 2

    def test_nonfinite_gradient_names_block(self):
        with pytest.raises(TrainingError, match="g.w0"):
            K.adam_step(K.AdamState(), {"g.w0": np.zeros((1, 1))}, {"g.w0": np.array([[np.nan]])})


class TestRng:
    def test_same_seed_same_stream(self):
        a = K.uniform(K.make_rng(42), 5, 5)
        b = K.uniform(K.make_rng(42), 5, 5)
        assert np.array_equal(a, b)

    def test_uniform_mean(self):
        vals = K.uniform(K.make_rng(11), 100, 100)
        assert abs(vals.mean() - 0.5) < 0.02

    def test_empty_draw_allowed(self):
        assert K.uniform(K.make_rng(0), 0, 3).shape == (0, 3)

    def test_draw_is_numpys_uniform_from_zero(self):
        a = K.uniform(K.make_rng(3), 4, 5, 0.01)
        b = K.make_rng(3).uniform(0.0, 0.01, size=(4, 5))
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    # -1.0 once raised numpy's ValueError, nan and inf an OverflowError,
    # and 0.0 and True drew quietly
    @pytest.mark.parametrize("high", [-1.0, np.nan, np.inf, 0.0, True, "1",
                                      pytest.param(10**400, id="int-beyond-float64")])
    def test_bad_high_rejected(self, high):
        with pytest.raises(SpecError, match="high must be"):
            K.uniform(K.make_rng(0), 2, 2, high)

    def test_spawned_streams_differ(self):
        r1, r2 = K.spawn_rngs(3, 2)
        assert not np.array_equal(r1.random(8), r2.random(8))


def _train_with_seed(seed):
    x = np.random.default_rng(0).uniform(0.1, 1.0, size=(8, 5))
    xm = masking.apply_mask(x, masking.generate_mask(masking.MaskSpec("scattered", 0.3, 1), 8, 5))
    pre, _ = mf.pretrain(xm, 2, max_iters=5, seed=0)
    gan.train(xm, pre, gan.BlockEchoConfig(h=2, iters=1, seed=seed))


def _pretrain_with_seed(seed):
    xm = masking.apply_mask(np.ones((4, 4)), np.ones((4, 4)))
    mf.pretrain(xm, 2, max_iters=5, seed=seed)


SEEDED_ENTRIES = pytest.mark.parametrize("entry", [
    _train_with_seed,
    _pretrain_with_seed,
    lambda seed: masking.generate_mask(masking.MaskSpec("uniblock", 0.3, seed), 8, 8),
    lambda seed: data.gen_synthetic(data.SyntheticSpec("lowrank_poisson", 8, 5, seed=seed)),
], ids=["gan.train", "mf.pretrain", "masking.generate_mask", "data.gen_synthetic"])


@SEEDED_ENTRIES
def test_negative_seed_is_spec_error(entry):
    entry(0)
    with pytest.raises(SpecError, match="seed must be >= 0"):
        entry(-1)


@SEEDED_ENTRIES
def test_non_integer_seed_is_spec_error(entry):
    entry(np.uint32(1))
    for bad in (1.7, 1.0, True):
        with pytest.raises(SpecError, match="seed must be an integer"):
            entry(bad)


def test_numpy_integer_seed_gives_the_int_stream():
    assert np.array_equal(K.make_rng(np.int64(7)).random(4), K.make_rng(7).random(4))
    for a, b in zip(K.spawn_rngs(np.uint64(7), 2), K.spawn_rngs(7, 2)):
        assert np.array_equal(a.random(4), b.random(4))


_XM4 = masking.apply_mask(np.ones((4, 4)), np.ones((4, 4)))


def _mask(m=8, n=8, seed=0):
    return masking.generate_mask(masking.MaskSpec("scattered", 0.3, seed), m, n)


def _resolve(field):
    return lambda v: gan.BlockEchoConfig(**{field: v}).resolved(10, 10)


# every argument that is a size, a count or a seed, as "taker.argument":
# (its lower bound, a call with the value v there). Each reads v through
# kernel.require_int. uniform(rng, -1, 2) once surfaced as numpy's
# ValueError, spawn_rngs(0, -1) as OverflowError and init_dense([2.5, 3])
# as TypeError, and init_dense([0, 3]) built a layer of 0 rows.
INT_TAKERS = {
    "MaskSpec.k": (0, lambda v: masking.MaskSpec("scattered", 0.3, 0, k=v)),
    "MaskSpec(multiblock).k": (2, lambda v: masking.MaskSpec("multiblock", 0.3, 0, k=v)),
    "generate_mask.m": (1, lambda v: _mask(m=v)),
    "generate_mask.n": (1, lambda v: _mask(n=v)),
    "generate_mask.seed": (0, lambda v: _mask(seed=v)),
    "SyntheticSpec.m": (1, lambda v: data.SyntheticSpec("lowrank_poisson", v, 5)),
    "SyntheticSpec.n": (1, lambda v: data.SyntheticSpec("lowrank_poisson", 5, v)),
    "gen_synthetic.seed": (
        0, lambda v: data.gen_synthetic(data.SyntheticSpec("lowrank_poisson", 5, 5, v))),
    "make_rng.seed": (0, K.make_rng),
    "spawn_rngs.seed": (0, lambda v: K.spawn_rngs(v, 2)),
    "spawn_rngs.n": (0, lambda v: K.spawn_rngs(0, v)),
    "uniform.rows": (0, lambda v: K.uniform(K.make_rng(0), v, 2)),
    "uniform.cols": (0, lambda v: K.uniform(K.make_rng(0), 2, v)),
    "init_dense.sizes[0]": (1, lambda v: K.init_dense([v, 3], ["relu"], K.make_rng(0))),
    "init_dense.sizes[1]": (1, lambda v: K.init_dense([3, v], ["relu"], K.make_rng(0))),
    "pretrain.h": (1, lambda v: mf.pretrain(_XM4, v, max_iters=2)),
    "pretrain.max_iters": (0, lambda v: mf.pretrain(_XM4, 2, max_iters=v)),
    "pretrain.seed": (0, lambda v: mf.pretrain(_XM4, 2, max_iters=2, seed=v)),
    "resolved.h": (1, _resolve("h")),
    "resolved.batch_rows": (1, _resolve("batch_rows")),
    "resolved.iters": (0, _resolve("iters")),
    "resolved.pretrain_iters": (0, _resolve("pretrain_iters")),
    "resolved.seed": (0, _resolve("seed")),
}


@pytest.mark.parametrize("name", INT_TAKERS)
class TestEveryIntTakerChecksIt:
    @pytest.mark.parametrize("kind", ["bool", "float", "str", "below"])
    def test_bad_value_names_the_argument(self, name, kind):
        low, call = INT_TAKERS[name]
        bad = {"bool": True, "float": float(low), "str": str(low), "below": low - 1}[kind]
        argument = re.escape(name.split(".", 1)[1])
        if kind == "below":
            match = f"^{argument} must be >= {low}, got {bad}$"
        else:
            match = f"^{argument} must be an integer"
        with pytest.raises(SpecError, match=match):
            call(bad)

    def test_the_bound_itself_passes(self, name):
        low, call = INT_TAKERS[name]
        call(low)
        call(np.int64(low))


class TestAsMatrix:
    # each of these once surfaced as numpy's ValueError or TypeError, and a
    # complex array as a ComplexWarning that drops the imaginary part
    @pytest.mark.parametrize("data", [
        "a",
        [[1, "a"]],
        [[1, 2], [3]],
        [[1j]],
        np.ones((2, 2), dtype=complex),
        np.array([[1.0, 2j]], dtype=object),
    ], ids=["text", "text-cell", "ragged", "complex-list", "complex-array", "complex-object"])
    def test_non_real_input_is_validation_error(self, data):
        with pytest.raises(ValidationError, match="^expected a matrix of real numbers"):
            K.as_matrix(data)

    @pytest.mark.parametrize("entry", [
        lambda d: masking.apply_mask(d, np.ones((2, 2))),
        lambda d: masking.MaskedMatrix(d, np.ones((2, 2))),
        lambda d: metrics.normalize(d, np.ones((2, 2))),
    ], ids=["apply_mask", "MaskedMatrix", "normalize"])
    def test_entry_points_inherit_it(self, entry):
        with pytest.raises(ValidationError):
            entry(np.full((2, 2), 1 + 1j))
        with pytest.raises(ValidationError):
            entry([[1, 2], [3]])

    def test_float64_array_passes_through(self):
        x = np.ones((3, 2))
        assert K.as_matrix(x) is x
        assert K.as_matrix(x.T).base is x

    def test_other_real_input_is_converted(self):
        out = K.as_matrix([[1, True], [np.float32(0.5), "2.5"]])
        assert out.dtype == np.float64
        assert np.array_equal(out, [[1.0, 1.0], [0.5, 2.5]])


class TestInit:
    def test_only_the_trained_activations_exist(self):
        assert K.ACTIVATIONS == ("relu", "sigmoid")
        with pytest.raises(ValidationError, match="unknown activation 'identity'"):
            K.DenseNet([np.ones((1, 1))], [np.zeros((1, 1))], ["identity"])

    def test_glorot_bounds_and_zero_bias(self):
        net = K.init_dense([8, 4], ["relu"], K.make_rng(9))
        limit = np.sqrt(6.0 / 12.0)
        assert np.all(np.abs(net.weights[0]) <= limit)
        assert np.all(net.biases[0] == 0.0)

    def test_layer_compat_enforced(self):
        with pytest.raises(ShapeError):
            K.DenseNet(
                [np.zeros((2, 3)), np.zeros((4, 1))],
                [np.zeros((1, 3)), np.zeros((1, 1))],
                ["relu", "sigmoid"],
            )

    def test_finite_outputs_on_finite_inputs(self):
        for seed in range(10):
            rng = K.make_rng(seed)
            net = small_net(rng, (6, 8, 3), ("relu", "sigmoid"))
            out, _ = K.net_forward(net, rng.standard_normal((4, 6)) * 50.0)
            assert np.all(np.isfinite(out))
