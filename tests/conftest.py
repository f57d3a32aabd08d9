import numpy as np
import pytest

from blockecho import kernel as K


def train_histogram_discriminator(p_real, p_fake, bins, iters=3000, seed=0):
    """Fit a tiny sigmoid net to tell two known histograms apart.

    Trains on the exact expected log-likelihood sum_b p_real*log D(v_b) +
    p_fake*log(1-D(v_b)); the optimum is D(v_b) = p_real/(p_real+p_fake).
    """
    rng = K.make_rng(seed)
    net = K.init_dense([1, 32, 1], ["relu", "sigmoid"], rng)
    # spread the relu knots over (0, 1) so the 1-D fit is not initially affine
    knots = rng.uniform(0.0, 1.0, size=(1, 32))
    net.biases[0][:] = -net.weights[0] * knots
    params = K.net_params(net, "d")
    opt = K.AdamState()
    x = np.asarray(bins, dtype=float).reshape(-1, 1)
    wr = np.asarray(p_real, dtype=float).reshape(-1, 1)
    wf = np.asarray(p_fake, dtype=float).reshape(-1, 1)
    for _ in range(iters):
        out, cache = K.net_forward(net, x)
        p = np.clip(out, 1e-7, 1 - 1e-7)
        d_out = -(wr / p - wf / (1.0 - p))
        grads, _ = K.net_backward(net, cache, d_out)
        K.adam_step(opt, params, K.net_grads_dict(grads, "d"))
    out, _ = K.net_forward(net, x)
    return out.ravel()


@pytest.fixture
def histogram_discriminator():
    return train_histogram_discriminator
