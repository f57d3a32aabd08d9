"""Minimal dense numeric kernel.

Matrices are plain float64 C-order numpy arrays. On top of them this module
provides small fully connected networks with exact reverse-mode gradients,
an Adam optimizer, a finite-difference gradient oracle that is independent
of the analytic backward pass, and seedable PCG64 random streams.

Everything here is deterministic given explicit inputs and RNG state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SpecError, TrainingError, ValidationError

ACTIVATIONS = ("relu", "sigmoid", "identity")


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    a = np.asarray(data, dtype=np.float64)
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
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return _sigmoid(z)
    if name == "identity":
        return z
    raise ValidationError(f"unknown activation '{name}'")


def _activation_grad(name, z, a):
    """d activation / d z, expressed from pre-activation z and output a."""
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "identity":
        return np.ones_like(z)
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
    def out_size(self):
        return self.weights[-1].shape[1]

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
    """Activations recorded by net_forward, sufficient for exact backprop."""

    net_id: int
    inputs: list   # layer inputs, inputs[0] is the batch
    pre: list      # pre-activation z per layer
    out: np.ndarray


def net_forward(net: DenseNet, x):
    """Row-wise forward pass; returns (output, cache)."""
    x = as_matrix(x)
    if x.shape[1] != net.in_size:
        raise ShapeError(f"input has {x.shape[1]} columns, network expects {net.in_size}")
    inputs, pre = [x], []
    a = x
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = a @ w
        z += b
        a = _apply_activation(act, z)
        pre.append(z)
        inputs.append(a)
    return a, ForwardCache(id(net), inputs, pre, a)


def net_backward(net: DenseNet, cache: ForwardCache, out_grad, *, params=True, inputs=True):
    """Exact gradients for the scalar loss whose d(loss)/d(output) is out_grad.

    Returns (per-layer [(dW, db), ...], d(loss)/d(input)); a part not asked
    for (params=False or inputs=False) is not computed and comes back None.
    """
    if cache.net_id != id(net) or len(cache.pre) != len(net.weights):
        raise ValidationError("forward cache does not belong to this network")
    out_grad = as_matrix(out_grad)
    if out_grad.shape != cache.out.shape:
        raise ShapeError(f"output grad {out_grad.shape} != output {cache.out.shape}")
    grads = [None] * len(net.weights) if params else None
    d = out_grad
    for i in range(len(net.weights) - 1, -1, -1):
        dz = d * _activation_grad(net.activations[i], cache.pre[i], cache.inputs[i + 1])
        if params:
            grads[i] = (cache.inputs[i].T @ dz, dz.sum(axis=0, keepdims=True))
        d = dz @ net.weights[i].T if i or inputs else None
    return grads, d


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
    step must bring the same block names and shapes.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    scratch = (1.0 - state.beta2) * g
    scratch *= g
    v += scratch
    # step = lr * (m / c1) / (sqrt(v / c2) + eps), built in g
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.eps
    np.divide(m, c1, out=g)
    g *= state.lr
    g /= scratch
    for name, shape, start, stop in layout:
        params[name] -= g[start:stop].reshape(shape)
    return params


def fd_gradient(f, arrays: dict, step: float = 1e-5) -> dict:
    """Central finite differences of scalar f() w.r.t. every entry of arrays.

    f must read the given arrays by reference; this is the independent
    oracle used to verify net_backward and the composite training losses.
    """
    out = {}
    for name, a in arrays.items():
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f()
            flat[i] = orig - step
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        out[name] = g
    return out


def max_rel_error(analytic: dict, numeric: dict, floor: float = 1e-3) -> float:
    """Largest |a-n| / max(|a|, |n|, floor) over all parameter entries."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


# ---------------------------------------------------------------------------
# Random streams (PCG64 behind numpy's Generator).

def require_int(**values):
    """SpecError unless every value is a Python or numpy integer (bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise SpecError(f"{name} must be an integer, got {value!r}")


def _seed(seed) -> int:
    seed = int(seed)
    if seed < 0:
        raise SpecError(f"seed must be >= 0, got {seed}")
    return seed


def make_rng(seed) -> np.random.Generator:
    return np.random.default_rng(_seed(seed))


def spawn_rngs(seed, n: int) -> list:
    """n independent child streams of one seed, for per-component use."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(_seed(seed)).spawn(n)]


def uniform(rng, rows, cols, low=0.0, high=1.0) -> np.ndarray:
    return rng.uniform(low, high, size=(rows, cols))


def bernoulli(rng, rows, cols, p) -> np.ndarray:
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"bernoulli probability {p} outside [0, 1]")
    return (rng.random((rows, cols)) < p).astype(np.float64)
