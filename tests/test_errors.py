"""Input checks that no other test reaches: each call below is refused with
its BlockEchoError subclass and message, before any work is done."""

import numpy as np
import pytest

from blockecho import data, gan, kernel, metrics, mf
from blockecho.errors import ShapeError, SpecError, ValidationError
from blockecho.masking import MaskedMatrix, apply_mask


def _net():
    return kernel.init_dense([3, 2, 1], ["relu", "sigmoid"], kernel.make_rng(0))


def _backward_with_grad_of_shape(shape):
    net = _net()
    _, cache = kernel.net_forward(net, np.ones((4, 3)))
    kernel.net_backward(net, cache, np.ones(shape))


def _adam(grads):
    kernel.adam_step(kernel.AdamState(), {"w": np.ones((2, 2))}, grads)


def _params():
    return metrics.normalize(np.arange(12.0).reshape(4, 3), np.ones((4, 3)))[1]


def _train(xm, pre):
    gan.train(xm, pre, gan.BlockEchoConfig(h=2, iters=1))


_PRE = mf.FactorPair(np.ones((6, 2)), np.ones((2, 4)))

# id: (error class, start of its message, the refused call)
REFUSED = {
    "as_matrix-1d": (ShapeError, "expected a 2-D matrix, got ndim=1",
                     lambda: kernel.as_matrix(np.ones(3))),
    "as_matrix-3d": (ShapeError, "expected a 2-D matrix, got ndim=3",
                     lambda: kernel.as_matrix(np.ones((2, 2, 2)))),
    "resolved-batch-rows-above-m": (SpecError, "batch_rows 7 outside 1..6",
                                    lambda: gan.BlockEchoConfig(batch_rows=7).resolved(6, 4)),
    "train-no-observed-cell": (SpecError, "cannot train on a matrix with no observed entries",
                               lambda: _train(MaskedMatrix(np.zeros((6, 4)), np.zeros((6, 4))),
                                              _PRE)),
    "train-factors-of-other-rank": (
        ShapeError, "pre-trained factors (6, 3)/(3, 4) do not match data 6x4 at rank 2",
        lambda: _train(apply_mask(np.full((6, 4), 0.5), np.ones((6, 4))),
                       mf.FactorPair(np.ones((6, 3)), np.ones((3, 4))))),
    "net_backward-grad-shape": (ShapeError, "output grad (4, 2) != output (4, 1)",
                                lambda: _backward_with_grad_of_shape((4, 2))),
    "transform-columns": (ShapeError, "matrix has 2 columns, params have 3",
                          lambda: _params().transform(np.ones((4, 2)))),
    "inverse-columns": (ShapeError, "matrix has 4 columns, params have 3",
                        lambda: _params().inverse(np.ones((4, 4)))),
    "normalize-non-finite-observed": (
        ValidationError, "observed entries must be finite",
        lambda: metrics.normalize([[1.0, np.inf], [2.0, 3.0]], np.ones((2, 2)))),
    "rmse_missing-shapes": (ShapeError, "imputed (2, 3) != truth (3, 2)",
                            lambda: metrics.rmse_missing(np.ones((2, 3)), np.ones((3, 2)),
                                                         np.zeros((2, 3)))),
    "wmape-shapes": (ShapeError, "pred (2, 3) != actual (3, 2)",
                     lambda: metrics.wmape(np.ones((2, 3)), np.ones((3, 2)))),
    "eval_downstream-shapes": (
        ShapeError, "variant 'short' is (19, 3), expected (20, 3)",
        lambda: data.eval_downstream(np.ones((20, 3)), [("short", np.ones((19, 3)))])),
    "DenseNet-unaligned": (ShapeError, "weights, biases and activations must align per layer",
                           lambda: kernel.DenseNet([np.ones((3, 2))], [], ["relu"])),
    "DenseNet-bias-shape": (ShapeError, "layer 0: weight (3, 2) and bias (1, 3) mismatch",
                            lambda: kernel.DenseNet([np.ones((3, 2))], [np.ones((1, 3))],
                                                    ["relu"])),
    "DenseNet-layer-sizes": (
        ShapeError, "layer 0 output 2 != layer 1 input 3",
        lambda: kernel.DenseNet([np.ones((3, 2)), np.ones((3, 1))],
                                [np.ones((1, 2)), np.ones((1, 1))], ["relu", "sigmoid"])),
    "init_dense-one-size": (ShapeError, "need at least an input and an output size",
                            lambda: kernel.init_dense([3], [], kernel.make_rng(0))),
    "init_dense-activations": (ShapeError, "one activation per layer required",
                               lambda: kernel.init_dense([3, 2, 1], ["relu"],
                                                         kernel.make_rng(0))),
    "adam_step-unknown-block": (ValidationError, "gradient for unknown parameter block 'b'",
                                lambda: _adam({"b": np.ones((2, 2))})),
    "adam_step-grad-shape": (ShapeError, "block 'w': param (2, 2) != grad (2, 3)",
                             lambda: _adam({"w": np.ones((2, 3))})),
}


@pytest.mark.parametrize("name", REFUSED)
def test_refused_with_its_error(name):
    error, message, call = REFUSED[name]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value).startswith(message)
