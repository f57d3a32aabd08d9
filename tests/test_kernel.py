import numpy as np
import pytest

from blockecho import kernel as K
from blockecho.errors import ShapeError, TrainingError, ValidationError


def small_net(rng, sizes=(3, 4, 2), acts=("relu", "sigmoid")):
    return K.init_dense(list(sizes), list(acts), rng)


class TestForward:
    def test_zero_weights_give_activated_bias(self):
        net = small_net(K.make_rng(1), (3, 4, 2), ("relu", "identity"))
        for w in net.weights:
            w[:] = 0.0
        net.biases[0][:] = 0.0
        net.biases[1][:] = [[0.5, -1.5]]
        out, _ = K.net_forward(net, np.ones((5, 3)))
        assert np.allclose(out, np.tile([0.5, -1.5], (5, 1)))

    def test_single_neuron(self):
        net = K.DenseNet([np.array([[2.0]])], [np.array([[1.0]])], ["identity"])
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
        # y = w*x + b with loss = y: dL/dw = x = 3, dL/db = 1
        net = K.DenseNet([np.array([[2.0]])], [np.array([[1.0]])], ["identity"])
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
        acts = [str(rng.choice(["relu", "sigmoid", "identity"])) for _ in range(n_layers)]
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

        numeric = K.fd_gradient(loss, params)
        assert K.max_rel_error(analytic, numeric) < 1e-4


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

    def test_bernoulli_extremes(self):
        rng = K.make_rng(0)
        assert np.all(K.bernoulli(rng, 10, 10, 0.0) == 0)
        assert np.all(K.bernoulli(rng, 10, 10, 1.0) == 1)

    def test_uniform_mean(self):
        vals = K.uniform(K.make_rng(11), 100, 100)
        assert abs(vals.mean() - 0.5) < 0.02

    def test_spawned_streams_differ(self):
        r1, r2 = K.spawn_rngs(3, 2)
        assert not np.array_equal(r1.random(8), r2.random(8))


class TestInit:
    def test_glorot_bounds_and_zero_bias(self):
        net = K.init_dense([8, 4], ["identity"], K.make_rng(9))
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
