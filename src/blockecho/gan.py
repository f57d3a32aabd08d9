"""Adversarial imputation trainer fusing matrix factorization with a GAN.

The model has four trainable parts, each sized by the data (n columns)
and the rank h alone, with one relu hidden layer and a sigmoid output:

* a generator G mapping each data row (zero-imputed values | mask row |
  noise) to a row embedding: 2n+h -> n -> h;
* a trainable column embedding V (h x n), warm-started from the
  pre-trained factorization;
* two discriminators: a row-level one (D1, h -> h -> 1) that tells
  generator embeddings from pre-trained factorization embeddings (mixed
  row-wise by mix_rows under a random bool vector, in both training
  phases), and an element-level one (D2, 2n -> n -> n) that, given the
  assembled matrix and a hint copy of the mask with a fraction
  1 - HINT_RATE of entries blanked to 1/2, scores each cell as observed
  or imputed. Both always take part unless alpha = 1.

The estimate is U @ V clipped entrywise to [EPS_NORM, 1], the range of
normalized data, by a fixed completion head (see init_head): the low-rank
structure passes through unchanged and a factorization that blows up is
capped at 1. The head has no trainable weights. _estimate is the one
forward of G and the head, which each training phase and the final pass call.

Training alternates discriminator ascent on their log-likelihood
objectives (_d_step) with generator descent on

    (1 - alpha) * adversarial terms  +  alpha * masked reconstruction,

where the reconstruction term is mf.kl_loss, the generalized KL divergence,
of the observed cells through the completion head; train checks those
cells once, on entry. _g_objective writes this objective and its exact
reverse-mode gradient once: each discriminator term's forward,
loss and backward side by side, then the KL term, then the backward passes
of the head and G; the test suite checks it against central finite
differences. All three optimizers are Adam at the one learning rate LR.
The final imputation runs from the weights the last Adam step wrote,
batch_rows rows at a time: of its arrays only the noise draw and the
imputed matrix have a row per data row. ImputationResult holds the
imputed matrix and loss_trace, the losses per iteration.
"""

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .errors import ShapeError, SpecError, TrainingError, ValidationError
from .kernel import (
    AdamState,
    DenseNet,
    adam_step,
    as_matrix,  # noqa: F401  not called here, but perfbench's tracer patches gan.as_matrix
    init_dense,
    net_backward,
    net_forward,
    net_grads_dict,
    net_params,
    require_int,
    require_real,
    spawn_rngs,
    uniform,
)
from .masking import MaskedMatrix, as_mask
from .metrics import EPS_NORM
from .mf import DEFAULT_TOL, EPS_FLOOR, FactorPair, kl_loss

LOG_EPS = 1e-7     # clamp inside every log term
NOISE_HIGH = 0.01  # generator noise is uniform in [0, NOISE_HIGH]

ACTS = ("relu", "sigmoid")  # every trained net: one relu hidden layer, a sigmoid output
HINT_RATE = 0.9    # share of D2's hint cells that show the true mask entry
LR = 1e-3          # Adam learning rate of G (with V), D1 and D2


@dataclass(frozen=True)
class BlockEchoConfig:
    """Everything the combined objective leaves free.

    ``None`` fields are resolved against the data size: h defaults to
    min(16, ceil(min(m, n)/4)) and batch_rows to min(m, 128). The
    architecture is derived from the data, not set: resolved() records it
    in the non-init *_layers fields (see the module docstring), after
    checking every integer field with kernel.require_int: h and batch_rows
    are at least 1 (batch_rows at most m too), iters, pretrain_iters and
    seed at least 0, so a bad seed fails here and not inside train. The hint
    rate, the learning rate and pretrain_tol (read by mf.pretrain's
    callers) are constants fixed at the values every run used: a setting
    no run changes only keeps an untested code path alive.
    """

    h: int | None = None
    alpha: float = 0.5
    iters: int = 5000
    batch_rows: int | None = None
    seed: int = 0
    pretrain_iters: int = 2000
    g_layers: tuple | None = field(default=None, init=False)
    d1_layers: tuple | None = field(default=None, init=False)
    d2_layers: tuple | None = field(default=None, init=False)
    mcl_layers: tuple | None = field(default=None, init=False)
    pretrain_tol: ClassVar[float] = DEFAULT_TOL

    def resolved(self, m, n) -> "BlockEchoConfig":
        """Fill size-dependent defaults and validate against an m x n matrix."""
        h = self.h if self.h is not None else min(16, -(-min(m, n) // 4))
        batch = self.batch_rows if self.batch_rows is not None else min(m, 128)
        require_int(1, h=h, batch_rows=batch)
        require_int(0, iters=self.iters, pretrain_iters=self.pretrain_iters, seed=self.seed)
        if batch > m:
            raise SpecError(f"batch_rows {batch} outside 1..{m}")
        require_real(alpha=self.alpha)
        if not 0.0 <= self.alpha <= 1.0:
            raise SpecError(f"alpha must lie in [0, 1], got {self.alpha}")
        # a numpy float alpha would run the loss arithmetic in its own precision
        out = replace(self, h=h, alpha=float(self.alpha), batch_rows=batch)
        for name, sizes in (("g_layers", (2 * n + h, n, h)), ("d1_layers", (h, h, 1)),
                            ("d2_layers", (2 * n, n, n)), ("mcl_layers", (1, 2, 1))):
            object.__setattr__(out, name, sizes)
        return out


@dataclass
class EchoModel:
    generator: DenseNet
    mcl: DenseNet
    V: np.ndarray
    d1: DenseNet
    d2: DenseNet


@dataclass
class ImputationResult:
    imputed: np.ndarray
    loss_trace: dict      # lists per iteration: d1, d2, mf_term, g_total


def build_hint(mask, rng) -> np.ndarray:
    """Copy of the mask with each entry kept with probability HINT_RATE and
    otherwise blanked to 1/2."""
    mask = as_mask(mask, np.shape(mask))
    return np.where(rng.random(mask.shape) < HINT_RATE, mask, 0.5)


def mix_rows(u_p, u, y) -> np.ndarray:
    """D1's input: row i is u_p's row where y_i is True, else u's row; y is
    the bool (rows, 1) draw of the loop, read unchecked."""
    return np.where(y, u_p, u)


def _clip_unit(p):
    return np.clip(p, LOG_EPS, 1.0 - LOG_EPS)


def _bce_sum(p, target) -> float:
    """sum of target*log p + (1-target)*log(1-p) for p already clipped."""
    return float(np.sum(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)))


def _assemble(values, mask, xhat):
    return np.where(mask, values, xhat)


def _estimate(model, x, mask, z):
    """(u, xhat, G's cache, the head's cache) of one batch, unchecked: G maps
    each row (x | mask | z) to its embedding u, and the estimate xhat is the
    completion head, clip to [EPS_NORM, 1], applied entrywise to u @ V."""
    u, g_cache = net_forward(model.generator, np.hstack([x, mask, z]))
    p = u @ model.V
    xhat, mcl_cache = net_forward(model.mcl, p.reshape(-1, 1))
    return u, xhat.reshape(p.shape), g_cache, mcl_cache


# ---------------------------------------------------------------------------
# The generator's combined objective and its exact gradient.


def _g_params(model):
    params = net_params(model.generator, "g")
    params["v"] = model.V
    return params


def _in_range(out):
    """Where a discriminator score lies strictly inside the log clamp."""
    return (out > LOG_EPS) & (out < 1.0 - LOG_EPS)


def _g_objective(model, x, mask, z, hint, y, u_p, alpha):
    """(total, recon, grads) of the generator's objective on one batch.

    mask and y (D1's real/fake row indicator) are bool; hint (D2's) and y
    are read only when alpha < 1. grads is the exact gradient of total,
    keyed as _g_params names the arrays. No argument is written.
    """
    u, xhat, g_cache, mcl_cache = _estimate(model, x, mask, z)
    d_xhat, d_u = np.zeros_like(xhat), np.zeros_like(u)
    adv1 = adv2 = recon = 0.0

    # Generator-side adversarial terms. The row term uses the non-saturating
    # surrogate (maximize log D on fake rows): that game is fair, since the
    # generator can genuinely reach the pre-trained embedding distribution.
    # The element term keeps the minimax form (minimize log(1-D) on fake
    # cells): its gradient scales with D and dies out once the element
    # discriminator is confidently right, which stops it from dragging
    # unobserved cells along the reconstruction loss's null space forever.
    if alpha < 1.0:
        fake = ~mask
        out, cache = net_forward(model.d2, np.hstack([_assemble(x, mask, xhat), hint]))
        p = _clip_unit(out)
        adv2 = float(np.sum(fake * np.log(1.0 - p)))
        d_out = np.where(fake & _in_range(out), -(1.0 - alpha) / (1.0 - p), 0.0)
        _, d_in = net_backward(model.d2, cache, d_out, params=False)
        # assembly blocks the observed cells, so only mask=0 cells pass through
        d_xhat += d_in[:, : model.V.shape[1]] * fake

        fake = ~y
        out, cache = net_forward(model.d1, mix_rows(u_p, u, y))
        p = _clip_unit(out)
        adv1 = -float(np.sum(fake * np.log(p)))
        d_out = np.where(fake & _in_range(out), -(1.0 - alpha) / p, 0.0)
        _, d_ud = net_backward(model.d1, cache, d_out, params=False)
        # rows mixed from the pre-trained factors are constants
        d_u += d_ud * fake

    if alpha > 0.0:
        # kl_loss and the division need xhat > 0: the head's floor is EPS_NORM;
        # train checked the observed values on entry
        recon = kl_loss(x[mask], xhat[mask])
        d_xhat += alpha * np.where(mask, 1.0 - x / xhat, 0.0)

    _, d_flat = net_backward(model.mcl, mcl_cache, d_xhat.reshape(-1, 1), params=False)
    d_p = d_flat.reshape(xhat.shape)
    d_u += d_p @ model.V.T
    g_grads, _ = net_backward(model.generator, g_cache, d_u, inputs=False)
    grads = net_grads_dict(g_grads, "g")
    grads["v"] = u.T @ d_p
    total = (1.0 - alpha) * (adv1 + adv2) + alpha * recon
    return total, recon, grads


def _d_step(net, opt, prefix, inp, target):
    """One Adam ascent step of a discriminator on the BCE sum of its scores
    against the bool target (True = real, read as 1.0); returns that sum
    before the step."""
    out, cache = net_forward(net, inp)
    p = _clip_unit(out)
    val = _bce_sum(p, target)
    d_out = np.where(_in_range(out), -(target / p - (1.0 - target) / (1.0 - p)), 0.0)
    grads, _ = net_backward(net, cache, d_out, inputs=False)
    adam_step(opt, net_params(net, prefix), net_grads_dict(grads, prefix))
    return val


# ---------------------------------------------------------------------------
# Model construction and the training loop.


def init_head() -> DenseNet:
    """The fixed completion head 1 -> 2 -> 1: EPS_NORM + relu(p - EPS_NORM)
    - relu(p - 1), which is clip(p, EPS_NORM, 1).

    It equals np.clip bit for bit for every p <= 4; above that the two
    hinges cancel only to within rounding, a few ulp(p). Rounding is
    monotone, so the first hinge is never below the second and the output
    pre-activation is at least EPS_NORM: the output relu passes it
    unchanged, with derivative 1. Its input gradient passes through: 1
    strictly inside the range, 0 outside it. No optimizer holds its weights.
    """
    return DenseNet([np.ones((1, 2)), np.array([[1.0], [-1.0]])],
                    [np.array([[-EPS_NORM, -1.0]]), np.array([[EPS_NORM]])],
                    ["relu", "relu"])


def build_model(cfg: BlockEchoConfig, pre: FactorPair, rng) -> EchoModel:
    """Networks and the trainable V (a copy of pre.V); cfg resolved."""
    g, d1, d2 = (init_dense(list(sizes), ACTS, rng)
                 for sizes in (cfg.g_layers, cfg.d1_layers, cfg.d2_layers))
    return EchoModel(generator=g, mcl=init_head(), V=pre.V.copy(), d1=d1, d2=d2)


def _last_finite(seq):
    for v in reversed(seq):
        if np.isfinite(v):
            return v
    return float("nan")


def train(xm: MaskedMatrix, pre: FactorPair, cfg: BlockEchoConfig):
    """Alternating optimization of the discriminators and the generator.

    Per iteration: sample batch rows, ascend the element discriminator on
    the assembled matrix and its hint, ascend the row discriminator on the
    mixed embeddings, then descend the generator (with V) on the combined
    objective; the completion head stays fixed. Afterwards a deterministic
    forward pass over every row, from the weights the last Adam step wrote
    and with one fresh noise draw for the whole matrix, produces the
    imputation; it runs in chunks of batch_rows rows, so its temporaries
    are batch-sized.
    The factors pre (mf.pretrain at rank cfg.h) anchor D1 and warm-start V.

    Returns (EchoModel, ImputationResult); deterministic per seed.
    """
    values, obs = xm.values, xm.mask
    m, n = values.shape
    cfg = cfg.resolved(m, n)
    if not obs.any():
        raise SpecError("cannot train on a matrix with no observed entries")
    ov = values[obs]
    # written so that NaN fails it too
    if not np.all((ov > 0.0) & (ov <= 1.0)):
        raise ValidationError("training expects finite data normalized to (0, 1]")
    if pre is None:
        raise SpecError("pre-trained factors are required")
    if pre.U.shape != (m, cfg.h) or pre.V.shape != (cfg.h, n):
        raise ShapeError(
            f"pre-trained factors {pre.U.shape}/{pre.V.shape} do not match "
            f"data {m}x{n} at rank {cfg.h}"
        )
    # rescale (U/c, c*V): the product is unchanged but the row embeddings
    # land inside the generator's sigmoid range, so the row game is fair;
    # c > 0 since FactorPair holds U >= EPS_FLOOR
    c = float(pre.U.max()) / 0.95
    pre = FactorPair(np.maximum(pre.U / c, EPS_FLOOR), np.maximum(pre.V * c, EPS_FLOOR))

    init_rng, batch_rng, noise_rng, hint_rng, y_rng = spawn_rngs(cfg.seed, 5)
    model = build_model(cfg, pre, init_rng)
    opt_g, opt_d1, opt_d2 = (AdamState(lr=LR) for _ in range(3))
    trace = {"d1": [], "d2": [], "mf_term": [], "g_total": []}
    g_params = _g_params(model)  # the arrays themselves, which Adam updates in place

    for it in range(cfg.iters):
        rows = np.sort(batch_rng.choice(m, size=cfg.batch_rows, replace=False))
        xb = values[rows]
        ob = obs[rows]
        zb = uniform(noise_rng, cfg.batch_rows, cfg.h, NOISE_HIGH)
        upb = pre.U[rows]
        hb = yb = None
        d1_val = d2_val = float("nan")

        # the batch is sliced from checked inputs and y is a bool draw, so
        # the loop calls the kernel directly
        if cfg.alpha < 1.0:
            u, xhat, _, _ = _estimate(model, xb, ob, zb)
            hb = build_hint(ob, hint_rng)
            xbar = np.hstack([_assemble(xb, ob, xhat), hb])
            d2_val = _d_step(model.d2, opt_d2, "d2", xbar, ob)
            yb = y_rng.random((cfg.batch_rows, 1)) < 0.5
            d1_val = _d_step(model.d1, opt_d1, "d1", mix_rows(upb, u, yb), yb)

        g_total, recon, grads = _g_objective(model, xb, ob, zb, hb, yb, upb, cfg.alpha)
        adam_step(opt_g, g_params, grads)
        trace["d1"].append(d1_val)
        trace["d2"].append(d2_val)
        trace["mf_term"].append(recon if cfg.alpha > 0.0 else float("nan"))
        trace["g_total"].append(g_total)
        if not np.isfinite(g_total):
            raise TrainingError(
                f"non-finite generator loss at iteration {it}; last finite losses: "
                f"d1={_last_finite(trace['d1'])}, d2={_last_finite(trace['d2'])}, "
                f"g_total={_last_finite(trace['g_total'][:-1])}"
            )

    # one noise draw for the whole matrix, consumed batch_rows rows at a
    # time: rows are mapped independently, so only z_full and imputed have m
    # rows, and the head's (width, cells) temporaries stay batch-sized
    z_full = uniform(noise_rng, m, cfg.h, NOISE_HIGH)
    imputed = np.empty_like(values)
    for start in range(0, m, cfg.batch_rows):
        r = slice(start, start + cfg.batch_rows)
        _, xhat, _, _ = _estimate(model, values[r], obs[r], z_full[r])
        imputed[r] = _assemble(values[r], obs[r], xhat)
    return model, ImputationResult(imputed, trace)

