"""Adversarial imputation trainer fusing matrix factorization with a GAN.

The model has four trainable parts:

* a generator G mapping each data row (zero-imputed values | mask row |
  noise) to a row embedding of width h;
* a trainable column embedding V (h x n), warm-started from the
  pre-trained factorization;
* a completion head that turns embeddings into values as
  pointwise_net(U @ V), a shared scalar network applied entrywise so the
  low-rank structure is kept while mild nonlinearities become learnable.
  It starts close to the identity on [0, 1] (see init_head), so the first
  estimates are the warm-started product itself rather than a constant;
  its sigmoid output keeps every estimate in [0, 1] even where the
  factorization blows up;
* two discriminators: a row-level one that tells generator embeddings from
  pre-trained factorization embeddings (mixed row-wise by a random 0/1
  vector), and an element-level one that, given the assembled matrix and a
  hint copy of the mask with a fraction of entries blanked to 1/2, scores
  each cell as observed or imputed.

Training alternates discriminator ascent on their log-likelihood
objectives with generator descent on

    (1 - alpha) * adversarial terms  +  alpha * masked reconstruction,

where the reconstruction term is the generalized KL divergence of observed
cells through the completion head.
The generator's adversarial part uses the non-saturating surrogate
(maximize log D on fake rows/cells), which shares fixed points with the
minimax form but keeps gradients alive early in training.

All gradients are exact reverse-mode compositions of the kernel's layers;
the whole path is verified against central finite differences in the test
suite.
"""

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ShapeError, SpecError, TrainingError, ValidationError
from .kernel import (
    AdamState,
    DenseNet,
    adam_step,
    as_matrix,
    bernoulli,
    init_dense,
    net_backward,
    net_forward,
    net_grads_dict,
    net_params,
    require_int,
    spawn_rngs,
    uniform,
)
from .masking import MaskedMatrix
from .mf import EPS_FLOOR, FactorPair, kl_loss

LOG_EPS = 1e-7     # clamp inside every log term
NOISE_HIGH = 0.01  # generator noise is uniform in [0, NOISE_HIGH]

HEAD_CLIP = 0.01   # the completion head starts as logit(clip(p, HEAD_CLIP, 1 - HEAD_CLIP))


@dataclass(frozen=True)
class BlockEchoConfig:
    """Everything the combined objective leaves free.

    ``None`` fields are resolved against the data size: h defaults to
    min(16, ceil(min(m, n)/4)), the generator to [2n+h, n, h], the row
    discriminator to [h, h, 1], the element discriminator to [2n, n, n]
    and batch_rows to min(m, 128). ``mcl_layers=None`` (or an empty list)
    switches the completion head to the identity, reducing the estimate to
    the plain product U @ V. Otherwise the head (relu hidden layers, sigmoid
    output) is not drawn at random: at any depth and width it starts as a
    sigmoid-bounded piecewise-linear interpolation of the identity on
    [0, 1] (see init_head), so that training starts from the pre-trained
    product instead of a near-constant map.
    """

    h: int | None = None
    alpha: float = 0.5
    hint_rate: float = 0.9
    g_layers: tuple | None = None
    d1_layers: tuple | None = None
    d2_layers: tuple | None = None
    mcl_layers: tuple | None = (1, 8, 1)
    lr_g: float = 1e-3
    lr_d: float = 1e-3
    iters: int = 5000
    batch_rows: int | None = None
    seed: int = 0
    use_d1: bool = True
    use_d2: bool = True
    ema_decay: float = 0.998
    pretrain_iters: int = 2000
    pretrain_tol: float = 1e-6

    def resolved(self, m, n) -> "BlockEchoConfig":
        """Fill size-dependent defaults and validate against an m x n matrix."""
        h = self.h if self.h is not None else min(16, -(-min(m, n) // 4))
        batch = self.batch_rows if self.batch_rows is not None else min(m, 128)
        require_int(h=h, iters=self.iters, batch_rows=batch, pretrain_iters=self.pretrain_iters)
        if not 0.0 <= self.alpha <= 1.0:
            raise SpecError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 <= self.hint_rate <= 1.0:
            raise SpecError(f"hint_rate must lie in [0, 1], got {self.hint_rate}")
        if self.iters < 0:
            raise SpecError(f"iters must be >= 0, got {self.iters}")
        if not 0.0 <= self.ema_decay < 1.0:
            raise SpecError(f"ema_decay must lie in [0, 1), got {self.ema_decay}")
        if h < 1:
            raise SpecError(f"rank h must be at least 1, got {h}")
        if not 1 <= batch <= m:
            raise SpecError(f"batch_rows {batch} outside 1..{m}")
        g = tuple(self.g_layers) if self.g_layers else (2 * n + h, n, h)
        d1 = tuple(self.d1_layers) if self.d1_layers else (h, h, 1)
        d2 = tuple(self.d2_layers) if self.d2_layers else (2 * n, n, n)
        mcl = tuple(self.mcl_layers) if self.mcl_layers else None
        if g[0] != 2 * n + h or g[-1] != h:
            raise SpecError(f"generator layers {g} must map 2n+h={2 * n + h} -> h={h}")
        if d1[0] != h or d1[-1] != 1:
            raise SpecError(f"row-discriminator layers {d1} must map h={h} -> 1")
        if d2[0] != 2 * n or d2[-1] != n:
            raise SpecError(f"element-discriminator layers {d2} must map 2n={2 * n} -> n={n}")
        if mcl is not None and (mcl[0] != 1 or mcl[-1] != 1):
            raise SpecError(f"completion-head layers {mcl} must map 1 -> 1")
        return replace(
            self, h=h, batch_rows=batch, g_layers=g, d1_layers=d1, d2_layers=d2,
            mcl_layers=mcl,
        )

    def to_dict(self) -> dict:
        out = asdict(self)
        for key in ("g_layers", "d1_layers", "d2_layers", "mcl_layers"):
            if out[key] is not None:
                out[key] = list(out[key])
        return out


@dataclass
class EchoModel:
    generator: DenseNet
    mcl: DenseNet | None
    V: np.ndarray
    d1: DenseNet | None
    d2: DenseNet | None
    opt_g: AdamState
    opt_d1: AdamState | None
    opt_d2: AdamState | None
    h: int
    n: int


@dataclass
class ImputationResult:
    imputed: np.ndarray
    loss_trace: dict      # lists per iteration: d1, d2, mf_term, g_total
    config: dict
    wall_time: float


@dataclass
class GBatch:
    """One minibatch view: rows of the zero-imputed data and mask, fresh
    noise, and (when the corresponding paths are active) hint rows, the
    real/fake row indicator and the matching pre-trained embeddings."""

    x: np.ndarray
    mask: np.ndarray
    z: np.ndarray
    hint: np.ndarray | None = None
    y: np.ndarray | None = None
    u_p: np.ndarray | None = None


def build_hint(mask, hint_rate, rng) -> np.ndarray:
    """Copy of the mask with entries blanked to 1/2 where B=0, P(B=1)=hint_rate."""
    mask = as_matrix(mask)
    if not 0.0 <= hint_rate <= 1.0:
        raise SpecError(f"hint_rate must lie in [0, 1], got {hint_rate}")
    b = bernoulli(rng, mask.shape[0], mask.shape[1], hint_rate)
    return b * mask + 0.5 * (1.0 - b)


def mix_rows(u_p, u, y) -> np.ndarray:
    """Row i of the result is u_p's row where y_i = 1, else u's row."""
    u_p = as_matrix(u_p)
    u = as_matrix(u)
    y = as_matrix(y)
    if u_p.shape != u.shape:
        raise ShapeError(f"embedding shapes differ: {u_p.shape} vs {u.shape}")
    if y.shape != (u.shape[0], 1):
        raise ShapeError(f"indicator must be {(u.shape[0], 1)}, got {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValidationError("row indicator entries must be exactly 0 or 1")
    return np.where(y > 0, u_p, u)


def _clip_unit(p):
    return np.clip(p, LOG_EPS, 1.0 - LOG_EPS)


def _bce_sum(p, target) -> float:
    """sum of target*log p + (1-target)*log(1-p) for p already clipped."""
    return float(np.sum(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)))


def _assemble(values, mask, xhat):
    return np.where(mask > 0, values, xhat)


def generator_forward(model: EchoModel, x0, mask, z) -> np.ndarray:
    """Row embeddings U for a batch of (zero-imputed values, mask, noise) rows."""
    u, _ = _gen_forward(model, x0, mask, z)
    return u


def _gen_forward(model, x0, mask, z):
    x0 = as_matrix(x0)
    mask = as_matrix(mask)
    z = as_matrix(z)
    if x0.shape != mask.shape:
        raise ShapeError(f"values {x0.shape} != mask {mask.shape}")
    if z.shape != (x0.shape[0], model.h):
        raise ShapeError(f"noise must be {(x0.shape[0], model.h)}, got {z.shape}")
    return net_forward(model.generator, np.hstack([x0, mask, z]))


def mcl_forward(model: EchoModel, u) -> np.ndarray:
    """Estimate matrix: pointwise_net(u @ V), or u @ V when the head is identity."""
    xhat, _, _ = _mcl_forward(model, u)
    return xhat


def _mcl_forward(model, u):
    u = as_matrix(u)
    if u.shape[1] != model.h:
        raise ShapeError(f"embeddings have width {u.shape[1]}, expected {model.h}")
    p = u @ model.V
    if model.mcl is None:
        return p, p, None
    flat = p.reshape(-1, 1)
    out, cache = net_forward(model.mcl, flat)
    return out.reshape(p.shape), p, cache


# ---------------------------------------------------------------------------
# Forward/backward of the generator's combined objective.


class _GForward:
    """All intermediates of one generator-side forward pass."""

    __slots__ = (
        "u", "g_cache", "p", "xhat", "mcl_cache", "xbar",
        "d1_out", "d1_cache", "ud", "d2_out", "d2_cache",
        "adv1", "adv2", "recon", "total",
    )


def _g_forward(model, gb: GBatch, cfg) -> _GForward:
    fw = _GForward()
    fw.u, fw.g_cache = _gen_forward(model, gb.x, gb.mask, gb.z)
    fw.xhat, fw.p, fw.mcl_cache = _mcl_forward(model, fw.u)
    fw.xbar = _assemble(gb.x, gb.mask, fw.xhat)
    fw.adv1 = fw.adv2 = fw.recon = 0.0
    fw.d1_out = fw.d2_out = fw.d1_cache = fw.d2_cache = fw.ud = None

    # Generator-side adversarial terms. The row term uses the non-saturating
    # surrogate (maximize log D on fake rows): that game is fair, since the
    # generator can genuinely reach the pre-trained embedding distribution.
    # The element term keeps the minimax form (minimize log(1-D) on fake
    # cells): its gradient scales with D and dies out once the element
    # discriminator is confidently right, which stops it from dragging
    # unobserved cells along the reconstruction loss's null space forever.
    if cfg.alpha < 1.0:
        if cfg.use_d2:
            if gb.hint is None:
                raise ValidationError("element-discriminator path needs a hint matrix")
            fw.d2_out, fw.d2_cache = net_forward(model.d2, np.hstack([fw.xbar, gb.hint]))
            p = _clip_unit(fw.d2_out)
            fw.adv2 = float(np.sum((gb.mask == 0) * np.log(1.0 - p)))
        if cfg.use_d1:
            if gb.y is None or gb.u_p is None:
                raise ValidationError("row-discriminator path needs y and pre-trained rows")
            fw.ud = mix_rows(gb.u_p, fw.u, gb.y)
            fw.d1_out, fw.d1_cache = net_forward(model.d1, fw.ud)
            p = _clip_unit(fw.d1_out)
            fw.adv1 = -float(np.sum((gb.y == 0) * np.log(p)))

    if cfg.alpha > 0.0:
        fw.recon = kl_loss(gb.x, np.maximum(fw.xhat, LOG_EPS), gb.mask)

    fw.total = (1.0 - cfg.alpha) * (fw.adv1 + fw.adv2) + cfg.alpha * fw.recon
    return fw


def _g_params(model):
    params = net_params(model.generator, "g")
    if model.mcl is not None:
        params.update(net_params(model.mcl, "mcl"))
    params["v"] = model.V
    return params


def _g_grads(model, gb: GBatch, cfg, fw: _GForward):
    """Exact gradients of fw.total w.r.t. generator, completion head and V."""
    one_m_alpha = 1.0 - cfg.alpha
    d_xhat = np.zeros_like(fw.xhat)
    d_u = np.zeros_like(fw.u)

    if cfg.alpha < 1.0 and cfg.use_d2:
        inb = (fw.d2_out > LOG_EPS) & (fw.d2_out < 1.0 - LOG_EPS)
        d_out = np.where(
            (gb.mask == 0) & inb, -one_m_alpha / (1.0 - _clip_unit(fw.d2_out)), 0.0
        )
        _, d_in = net_backward(model.d2, fw.d2_cache, d_out, params=False)
        # assembly blocks the observed cells, so only mask=0 cells pass through
        d_xhat += d_in[:, : model.n] * (gb.mask == 0)

    if cfg.alpha < 1.0 and cfg.use_d1:
        inb = (fw.d1_out > LOG_EPS) & (fw.d1_out < 1.0 - LOG_EPS)
        d_out = np.where((gb.y == 0) & inb, -one_m_alpha / _clip_unit(fw.d1_out), 0.0)
        _, d_ud = net_backward(model.d1, fw.d1_cache, d_out, params=False)
        # rows mixed from the pre-trained factors are constants
        d_u += d_ud * (gb.y == 0)

    if cfg.alpha > 0.0:
        xhat_c = np.maximum(fw.xhat, LOG_EPS)
        d_recon = np.where((gb.mask > 0) & (fw.xhat >= LOG_EPS), 1.0 - gb.x / xhat_c, 0.0)
        d_xhat += cfg.alpha * d_recon

    if model.mcl is not None:
        mcl_grads, d_flat = net_backward(model.mcl, fw.mcl_cache, d_xhat.reshape(-1, 1))
        d_p = d_flat.reshape(fw.p.shape)
    else:
        mcl_grads, d_p = None, d_xhat

    d_v = fw.u.T @ d_p
    d_u += d_p @ model.V.T
    g_grads, _ = net_backward(model.generator, fw.g_cache, d_u, inputs=False)

    grads = net_grads_dict(g_grads, "g")
    if mcl_grads is not None:
        grads.update(net_grads_dict(mcl_grads, "mcl"))
    grads["v"] = d_v
    return grads


def _g_step(model, gb: GBatch, cfg):
    fw = _g_forward(model, gb, cfg)
    grads = _g_grads(model, gb, cfg, fw)
    adam_step(model.opt_g, _g_params(model), grads)
    return fw.total, fw.recon


def _d_step(net, opt, prefix, inp, target):
    """One Adam ascent step of a discriminator on the BCE sum of its scores
    against the 0/1 target; returns that sum before the step."""
    out, cache = net_forward(net, inp)
    p = _clip_unit(out)
    val = _bce_sum(p, target)
    inb = (out > LOG_EPS) & (out < 1.0 - LOG_EPS)
    d_out = np.where(inb, -(target / p - (1.0 - target) / (1.0 - p)), 0.0)
    grads, _ = net_backward(net, cache, d_out, inputs=False)
    adam_step(opt, net_params(net, prefix), net_grads_dict(grads, prefix))
    return val


# ---------------------------------------------------------------------------
# Model construction and the training loop.


def _hidden_acts(sizes, final):
    return ["relu"] * (len(sizes) - 2) + [final]


def init_head(sizes) -> DenseNet:
    """A completion head that starts close to the identity on [0, 1].

    Every hidden layer of width w holds relu knots at 0, 1/w, ..., (w-1)/w:
    the first reads p directly, a later one reads its predecessor's first
    unit, which equals p for p >= 0. The sigmoid output layer then sums
    those hinges so that its logit interpolates logit(p) linearly between
    the knots of the last hidden layer (0 alone when there is none) and 1,
    with p clipped to [HEAD_CLIP, 1 - HEAD_CLIP] so the ends stay finite.
    Deterministic: no random draws.
    """
    weights, biases = [], []
    for fan_in, width in zip(sizes[:-2], sizes[1:-1]):
        w = np.zeros((fan_in, width))
        w[0] = 1.0
        weights.append(w)
        biases.append(-np.arange(width).reshape(1, -1) / width)
    knots = np.arange(sizes[-2] + 1) / sizes[-2]
    q = np.clip(knots, HEAD_CLIP, 1.0 - HEAD_CLIP)
    logit = np.log(q / (1.0 - q))
    slopes = np.diff(logit) / np.diff(knots)
    weights.append(np.diff(slopes, prepend=0.0).reshape(-1, 1))
    biases.append(logit[:1].reshape(1, 1))
    return DenseNet(weights, biases, _hidden_acts(sizes, "sigmoid"))


def build_model(cfg: BlockEchoConfig, m, n, pre: FactorPair, rng) -> EchoModel:
    """Networks, the trainable V (a copy of pre.V) and optimizer states; cfg resolved."""
    g = init_dense(list(cfg.g_layers), _hidden_acts(cfg.g_layers, "sigmoid"), rng)
    mcl = init_head(cfg.mcl_layers) if cfg.mcl_layers is not None else None
    d1 = d2 = opt_d1 = opt_d2 = None
    if cfg.use_d1:
        d1 = init_dense(list(cfg.d1_layers), _hidden_acts(cfg.d1_layers, "sigmoid"), rng)
        opt_d1 = AdamState(lr=cfg.lr_d)
    if cfg.use_d2:
        d2 = init_dense(list(cfg.d2_layers), _hidden_acts(cfg.d2_layers, "sigmoid"), rng)
        opt_d2 = AdamState(lr=cfg.lr_d)
    return EchoModel(
        generator=g, mcl=mcl, V=pre.V.copy(), d1=d1, d2=d2,
        opt_g=AdamState(lr=cfg.lr_g), opt_d1=opt_d1, opt_d2=opt_d2,
        h=cfg.h, n=n,
    )


def _last_finite(seq):
    for v in reversed(seq):
        if np.isfinite(v):
            return v
    return float("nan")


def train(xm: MaskedMatrix, pre: FactorPair, cfg: BlockEchoConfig):
    """Alternating optimization of the discriminators and the generator.

    Per iteration: sample batch rows, ascend the element discriminator on
    the assembled matrix and its hint, ascend the row discriminator on the
    mixed embeddings, then descend the generator (with the completion head
    and V) on the combined objective. Afterwards one deterministic
    full-matrix forward pass with fresh noise produces the imputation.
    The factors pre (mf.pretrain at rank cfg.h) anchor D1 and warm-start V.

    Returns (EchoModel, ImputationResult); deterministic per seed.
    """
    t0 = time.perf_counter()
    values, mask = xm.values, xm.mask
    m, n = values.shape
    cfg = cfg.resolved(m, n)
    obs = mask > 0
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
    model = build_model(cfg, m, n, pre, init_rng)
    trace = {"d1": [], "d2": [], "mf_term": [], "g_total": []}
    # Polyak average of the generator-side weights: the final imputation pass
    # runs from these, which removes the snapshot noise of adversarial steps.
    # It starts at zero and is divided by 1 - decay**iters at the end (the
    # bias correction of Adam), so it weighs only trained weights and none
    # of the initialization.
    ema = {k: np.zeros_like(v) for k, v in _g_params(model).items()} if cfg.ema_decay > 0 else None

    for it in range(cfg.iters):
        rows = np.sort(batch_rng.choice(m, size=cfg.batch_rows, replace=False))
        xb = values[rows]
        mb = mask[rows]
        zb = uniform(noise_rng, cfg.batch_rows, cfg.h, 0.0, NOISE_HIGH)
        upb = pre.U[rows]
        hb = yb = None
        d1_val = d2_val = float("nan")

        if cfg.alpha < 1.0:
            u = generator_forward(model, xb, mb, zb)
            xhat = mcl_forward(model, u)
            if cfg.use_d2:
                hb = build_hint(mb, cfg.hint_rate, hint_rng)
                xbar = np.hstack([_assemble(xb, mb, xhat), hb])
                d2_val = _d_step(model.d2, model.opt_d2, "d2", xbar, mb)
            if cfg.use_d1:
                yb = bernoulli(y_rng, cfg.batch_rows, 1, 0.5)
                d1_val = _d_step(model.d1, model.opt_d1, "d1", mix_rows(upb, u, yb), yb)

        g_total, recon = _g_step(model, GBatch(xb, mb, zb, hb, yb, upb), cfg)
        if ema is not None:
            for k, v in _g_params(model).items():
                ema[k] *= cfg.ema_decay
                ema[k] += (1.0 - cfg.ema_decay) * v
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

    if ema is not None and cfg.iters > 0:
        correction = 1.0 - cfg.ema_decay ** cfg.iters
        for k, v in _g_params(model).items():
            v[:] = ema[k] / correction
    z_full = uniform(noise_rng, m, cfg.h, 0.0, NOISE_HIGH)
    u_full = generator_forward(model, values, mask, z_full)
    imputed = _assemble(values, mask, mcl_forward(model, u_full))
    result = ImputationResult(
        imputed=imputed,
        loss_trace=trace,
        config=cfg.to_dict(),
        wall_time=time.perf_counter() - t0,
    )
    return model, result

