"""Minimal dense numeric kernel.

Matrices are float64 numpy arrays, batch-major at the API: one row per
sample. On top of them this module provides small fully connected networks
with exact reverse-mode gradients, an Adam optimizer and seedable PCG64
random streams, and require_int, the check of every integer argument of
the package (a size, a count or a seed) against its lower bound.

Inside a network pass the activations are held feature-major, as
(features, batch), so bias adds and activations sweep the long batch axis
and a layer with fan-in or fan-out 1 is a broadcast product instead of a
rank-1 matrix product. Outputs and input gradients come back C-contiguous
as (batch, features). A forward pass keeps one array per layer, its
output: every activation's derivative is read from the output alone, relu
runs in place on the layer's pre-activation, and the backward pass scales
its own running gradient in place. Neither pass writes to an array the
caller passed in.

Everything here is deterministic given explicit inputs and RNG state.
"""

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SpecError, TrainingError, ValidationError

# Adam's learning rate, moment decays and denominator floor, for every optimizer
LR, BETA1, BETA2, ADAM_EPS = 1e-3, 0.9, 0.999, 1e-8


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else.

    Input numpy cannot read as real numbers (text, ragged rows, complex
    values) raises ValidationError; a float64 array passes through as is.
    """
    try:
        # the dtype is read before the cast, which would drop an imaginary part
        dtype = np.asarray(data).dtype
        if dtype.kind == "c":
            raise TypeError(f"dtype {dtype} is complex")
        a = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"expected a matrix of real numbers: {exc}") from None
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def _sigmoid(z):
    # exp(-|z|) never overflows: 1 / (1 + e) for z >= 0, e / (1 + e) below,
    # the same operations per element as splitting z by sign
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    out /= 1.0 + e
    return out


# name -> (activation, its derivative d act / d z read from the output a
# alone). relu overwrites z, always the pass's own pre-activation; its
# derivative is the bool mask a > 0, which a product with a float array reads
# as 0.0/1.0, and equals z > 0 for every z, -0.0 and NaN included, since relu
# maps those to -0.0 and NaN.
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a: a > 0.0),
    "sigmoid": (_sigmoid, lambda a: a * (1.0 - a)),
}


@dataclass
class DenseNet:
    """A stack of fully connected layers: x -> act(x @ W + b) per layer.

    weights[i] has shape (sizes[i], sizes[i+1]); biases[i] is a (1, sizes[i+1])
    row broadcast over the batch.
    """

    weights: list
    biases: list
    activations: list

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ShapeError("weights, biases and activations must align per layer")
        if not self.weights:
            raise ShapeError("a network needs at least one layer")
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            # an unhashable name would make the table lookup raise TypeError
            if not isinstance(act, str) or act not in ACTIVATIONS:
                raise ValidationError(f"layer {i}: unknown activation '{act}'")
            if w.ndim != 2 or b.shape != (1, w.shape[1]):
                raise ShapeError(f"layer {i}: weight {w.shape} and bias {b.shape} mismatch")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ShapeError(
                    f"layer {i - 1} output {self.weights[i - 1].shape[1]} "
                    f"!= layer {i} input {w.shape[0]}"
                )

    @property
    def in_size(self):
        return self.weights[0].shape[0]

    @property
    def sizes(self):
        return [self.in_size] + [w.shape[1] for w in self.weights]


def init_dense(sizes, activations, rng) -> DenseNet:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases; DenseNet
    checks that there is one activation per layer and at least one layer."""
    require_int(1, **{f"sizes[{i}]": size for i, size in enumerate(sizes)})
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros((1, fan_out)))
    return DenseNet(weights, biases, list(activations))


@dataclass
class ForwardCache:
    """What net_backward needs of a net_forward call: each layer's output.

    outputs are feature-major, (features, batch): outputs[0] is the
    transposed input batch and outputs[i + 1] the output of layer i, the
    input of layer i + 1. No pre-activation is kept.
    """

    net_id: int
    outputs: list


def net_forward(net: DenseNet, x):
    """Forward pass of a (batch, in_size) batch; returns (output, cache).

    Each row is mapped on its own; the output is C-contiguous (batch, sizes[-1]).
    """
    x = as_matrix(x)
    if x.shape[1] != net.in_size:
        raise ShapeError(f"input has {x.shape[1]} columns, network expects {net.in_size}")
    a = x.T
    outputs = [a]
    for w, b, act in zip(net.weights, net.biases, net.activations):
        # with fan-in 1 the product is a rank-1 outer product: the broadcast
        # gives the same bits without a K=1 matrix product
        z = w.T * a if w.shape[0] == 1 else w.T @ a
        z += b.T
        a = ACTIVATIONS[act][0](z)
        outputs.append(a)
    return np.ascontiguousarray(a.T), ForwardCache(id(net), outputs)


def net_backward(net: DenseNet, cache: ForwardCache, out_grad, *, params=True, inputs=True):
    """Exact gradients for the scalar loss whose d(loss)/d(output) is out_grad.

    Returns (per-layer [(dW, db), ...], d(loss)/d(input)); a part not asked
    for (params=False or inputs=False) is not computed and comes back None.
    The input gradient is C-contiguous (batch, in_size).
    """
    last = len(net.weights) - 1
    if cache.net_id != id(net) or len(cache.outputs) != last + 2:
        raise ValidationError("forward cache does not belong to this network")
    out_grad = as_matrix(out_grad)
    out_shape = cache.outputs[-1].shape[::-1]
    if out_grad.shape != out_shape:
        raise ShapeError(f"output grad {out_grad.shape} != output {out_shape}")
    grads = [None] * len(net.weights) if params else None
    d = out_grad.T
    for i in range(last, -1, -1):
        w = net.weights[i]
        act_grad = ACTIVATIONS[net.activations[i]][1](cache.outputs[i + 1])
        # below the last layer d is this pass's own array, so it is scaled
        # in place; the caller's out_grad is never written
        d = d * act_grad if i == last else np.multiply(d, act_grad, out=d)
        if params:
            grads[i] = (cache.outputs[i] @ d.T, d.sum(axis=1).reshape(1, -1))
        if i or inputs:
            d = w * d if w.shape[1] == 1 else w @ d
    return grads, np.ascontiguousarray(d.T) if inputs else None


def net_params(net: DenseNet, prefix: str) -> dict:
    """Named views of the network parameters (arrays are shared, not copied)."""
    return net_grads_dict(zip(net.weights, net.biases), prefix)


def net_grads_dict(grads, prefix: str) -> dict:
    """{prefix}.w{i} and {prefix}.b{i} for each layer's (w, b) pair in grads."""
    out = {}
    for i, (dw, db) in enumerate(grads):
        out[f"{prefix}.w{i}"] = dw
        out[f"{prefix}.b{i}"] = db
    return out


@dataclass
class AdamState:
    """Adaptive moment estimation state for a named group of parameters.

    The first step fixes the group: the moments m and v are one flat buffer
    each, holding that step's blocks end to end in the order it lists them
    (layout holds (name, shape, start, stop) per block), and every later
    step must bring the same block names and shapes. The learning rate, the
    moment decays and the denominator floor are the module constants LR,
    BETA1, BETA2 and ADAM_EPS.
    """

    step: int = 0
    layout: tuple = ()
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def _layout(grads) -> tuple:
    blocks, start = [], 0
    for name, g in grads.items():
        blocks.append((name, g.shape, start, start + g.size))
        start += g.size
    return tuple(blocks)


def adam_step(state: AdamState, params: dict, grads: dict) -> dict:
    """One bias-corrected Adam update, applied in place to the param arrays.

    Every check runs before the state or a parameter changes.
    """
    for name, g in grads.items():
        if name not in params:
            raise ValidationError(f"gradient for unknown parameter block '{name}'")
        if params[name].shape != g.shape:
            raise ShapeError(f"block '{name}': param {params[name].shape} != grad {g.shape}")
    layout = state.layout if state.m is not None else _layout(grads)
    if len(grads) != len(layout) or any(
        name not in grads or grads[name].shape != shape for name, shape, _, _ in layout
    ):
        raise ValidationError(
            f"gradient blocks {[(k, g.shape) for k, g in grads.items()]} differ from "
            f"the first step's {[(name, shape) for name, shape, _, _ in layout]}"
        )
    g = np.concatenate([grads[name].reshape(-1) for name, _, _, _ in layout] or [np.zeros(0)])
    if not np.isfinite(g).all():
        for name, _, start, stop in layout:
            if not np.isfinite(g[start:stop]).all():
                raise TrainingError(f"non-finite gradient in parameter block '{name}'")
    if state.m is None:
        state.layout, state.m, state.v = layout, np.zeros_like(g), np.zeros_like(g)
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    scratch = (1.0 - BETA2) * g
    scratch *= g
    v += scratch
    # step = LR * (m / c1) / (sqrt(v / c2) + eps), built in g
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    np.divide(m, c1, out=g)
    g *= LR
    g /= scratch
    for name, shape, start, stop in layout:
        params[name] -= g[start:stop].reshape(shape)
    return params


def require_int(low, **values):
    """SpecError unless every value is a Python or numpy integer (bool is
    not) and at least low: the one check of every size, count and seed."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise SpecError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise SpecError(f"{name} must be >= {low}, got {value}")


def require_real(**values):
    """SpecError unless every value is a Python or numpy real number (bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise SpecError(f"{name} must be a real number, got {value!r}")


# ---------------------------------------------------------------------------
# Random streams (PCG64 behind numpy's Generator).

def make_rng(seed) -> np.random.Generator:
    require_int(0, seed=seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed, n) -> list:
    """n independent child streams of one seed, for per-component use."""
    require_int(0, seed=seed, n=n)
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def uniform(rng, rows, cols, high=1.0) -> np.ndarray:
    """A rows x cols draw, uniform on [0, high); high is a finite real > 0."""
    require_int(0, rows=rows, cols=cols)
    require_real(high=high)
    # Python compares an int beyond float64's range exactly, and NaN fails too
    if not 0.0 < high <= sys.float_info.max:
        raise SpecError(f"high must be finite and > 0, got {high}")
    return rng.uniform(0.0, high, size=(rows, cols))
