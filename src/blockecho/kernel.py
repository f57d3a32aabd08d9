"""Minimal dense numeric kernel.

Matrices are float64 numpy arrays, batch-major at the API: one row per
sample. On top of them this module provides small fully connected networks
with exact reverse-mode gradients, an Adam optimizer and seedable PCG64
random streams.

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
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SpecError, TrainingError, ValidationError

ACTIVATIONS = ("relu", "sigmoid", "identity")
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


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


def _apply_activation(name, z):
    """act(z); relu overwrites z, which must be the caller's own array."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "sigmoid":
        return _sigmoid(z)
    if name == "identity":
        return z
    raise ValidationError(f"unknown activation '{name}'")


def _activation_grad(name, a):
    """d activation / d z from the output a alone, or None for identity.

    relu's is the boolean mask a > 0, which a product with a float array
    reads as 0.0/1.0; it equals z > 0 for every z, -0.0 and NaN included,
    since relu maps those to -0.0 and NaN.
    """
    if name == "relu":
        return a > 0.0
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "identity":
        return None
    raise ValidationError(f"unknown activation '{name}'")


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
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if act not in ACTIVATIONS:
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
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    if len(sizes) < 2:
        raise ShapeError("need at least an input and an output size")
    if len(activations) != len(sizes) - 1:
        raise ShapeError("one activation per layer required")
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
        a = _apply_activation(act, z)
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
        act_grad = _activation_grad(net.activations[i], cache.outputs[i + 1])
        if act_grad is not None:
            # below the last layer d is this pass's own array, so it is
            # scaled in place; the caller's out_grad is never written
            d = d * act_grad if i == last else np.multiply(d, act_grad, out=d)
        if params:
            grads[i] = (cache.outputs[i] @ d.T, d.sum(axis=1).reshape(1, -1))
        if i or inputs:
            d = w * d if w.shape[1] == 1 else w @ d
    return grads, np.ascontiguousarray(d.T) if inputs else None


def net_params(net: DenseNet, prefix: str) -> dict:
    """Named views of the network parameters (arrays are shared, not copied)."""
    out = {}
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        out[f"{prefix}.w{i}"] = w
        out[f"{prefix}.b{i}"] = b
    return out


def net_grads_dict(grads, prefix: str) -> dict:
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
    step must bring the same block names and shapes. The moment decays and
    the denominator floor are the module constants BETA1, BETA2 and ADAM_EPS.
    """

    lr: float = 1e-3
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
    # step = lr * (m / c1) / (sqrt(v / c2) + eps), built in g
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    np.divide(m, c1, out=g)
    g *= state.lr
    g /= scratch
    for name, shape, start, stop in layout:
        params[name] -= g[start:stop].reshape(shape)
    return params


def require_int(**values):
    """SpecError unless every value is a Python or numpy integer (bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise SpecError(f"{name} must be an integer, got {value!r}")


def require_real(**values):
    """SpecError unless every value is a Python or numpy real number (bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise SpecError(f"{name} must be a real number, got {value!r}")


# ---------------------------------------------------------------------------
# Random streams (PCG64 behind numpy's Generator).

def _seed(seed) -> int:
    require_int(seed=seed)
    seed = int(seed)
    if seed < 0:
        raise SpecError(f"seed must be >= 0, got {seed}")
    return seed


def make_rng(seed) -> np.random.Generator:
    return np.random.default_rng(_seed(seed))


def spawn_rngs(seed, n: int) -> list:
    """n independent child streams of one seed, for per-component use."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(_seed(seed)).spawn(n)]


def _require_dims(rows, cols):
    require_int(rows=rows, cols=cols)
    if rows < 0 or cols < 0:
        raise SpecError(f"draw size {rows}x{cols} is negative")


def uniform(rng, rows, cols, low=0.0, high=1.0) -> np.ndarray:
    _require_dims(rows, cols)
    return rng.uniform(low, high, size=(rows, cols))
