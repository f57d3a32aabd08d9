"""Masked nonnegative matrix factorization under KL divergence.

Approximates the observed cells of X by U @ V with U (m x h) and V (h x n)
strictly positive, minimizing

    F = sum over observed (i,j) of  x*log(x/xhat) - x + xhat,

the generalized KL divergence (the x = 0 term is taken at its limit, xhat).
Factors are fitted by alternating multiplicative updates

    u_ia <- u_ia * (sum_j m_ij v_aj x_ij / xhat_ij) / (sum_j m_ij v_aj)

and symmetrically for V. Each half-update minimizes an auxiliary upper
bound of F that is tight at the current iterate, so F never increases; the
loss trace of every run is checked against that guarantee in the tests.

This pre-training stage produces the anchor embeddings consumed by the
adversarial imputer, and doubles as the plain matrix factorization
baseline (impute with U @ V directly).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SpecError, ValidationError
from .kernel import as_matrix, make_rng, require_int
from .masking import MaskedMatrix

EPS_FLOOR = 1e-8  # positivity floor keeping KL and the updates defined

DEFAULT_MAX_ITERS = 2000
DEFAULT_TOL = 1e-6


@dataclass
class FactorPair:
    """Row embeddings U (m x h) and column embeddings V (h x n), entries >= EPS_FLOOR."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.U = as_matrix(self.U)
        self.V = as_matrix(self.V)
        if self.U.shape[1] != self.V.shape[0]:
            raise SpecError(f"U is {self.U.shape}, V is {self.V.shape}: inner dims differ")
        if self.U.shape[1] < 1:
            raise SpecError("rank h must be at least 1")
        # written so that NaN fails it too
        if not (np.min(self.U) >= EPS_FLOOR and np.min(self.V) >= EPS_FLOOR):
            raise ValidationError(f"factor entries must be >= {EPS_FLOOR}")

    @property
    def h(self):
        return self.U.shape[1]


@dataclass
class MfTrace:
    losses: list        # loss before any update, then after each full (U, V) update
    iterations: int
    converged: bool


def kl_loss(x, xhat, mask) -> float:
    """Generalized KL divergence over observed cells (x = 0 contributes xhat)."""
    x = as_matrix(x)
    xhat = as_matrix(xhat)
    mask = as_matrix(mask)
    if not x.shape == xhat.shape == mask.shape:
        raise SpecError(f"shape mismatch: x {x.shape}, xhat {xhat.shape}, mask {mask.shape}")
    obs = mask > 0
    xv = x[obs]
    # written so that NaN fails it too
    if not np.all((xv >= 0) & (xv < np.inf)):
        raise ValidationError(
            "observed values must be finite and nonnegative; run metrics.normalize first"
        )
    return _kl_sum(xv, xhat[obs], *_zeros_to_one(xv))


def _zeros_to_one(xv):
    """xv with its zeros set to 1, and the index of those zeros."""
    zero = np.flatnonzero(xv == 0)
    xs = xv.copy()
    xs[zero] = 1.0
    return xs, zero


def _kl_sum(xv, xh, xs, zero) -> float:
    """KL of observed values xv against their estimates xh, both gathered in
    the same order; xh is overwritten. (xs, zero) is _zeros_to_one(xv): xs
    keeps the log finite where x = 0, a cell that contributes its limit xh."""
    if np.any(xh <= 0):
        raise ValidationError("estimates must be strictly positive for the KL loss")
    terms = np.divide(xs, xh)
    np.log(terms, out=terms)
    terms *= xv
    xh -= xv
    terms += xh
    terms[zero] = xh[zero]
    return float(terms.sum())


def _dead_axis_warning(kind, count):
    warnings.warn(
        f"{count} {kind} have no observed entries; their factors are left unchanged",
        RuntimeWarning,
        stacklevel=3,
    )


def mu_step(x, mask, factors: FactorPair) -> FactorPair:
    """One alternating multiplicative update of U then V on observed cells.

    Rows/columns without any observed entry have a zero update denominator;
    those factor rows are left unchanged (and flagged with a warning).
    """
    x = as_matrix(x)
    mask = as_matrix(mask)
    U, V = factors.U, factors.V
    xo = np.where(mask > 0, x, 0.0)
    U2, V2, live_u, live_v = _mu_update(xo, mask, U, V, U @ V)
    dead_rows = int(np.sum(~live_u.any(axis=1)))
    if dead_rows:
        _dead_axis_warning("rows", dead_rows)
    dead_cols = int(np.sum(~live_v.any(axis=0)))
    if dead_cols:
        _dead_axis_warning("columns", dead_cols)
    return FactorPair(U2, V2)


def _mu_update(xo, mask, U, V, xhat):
    """Both half-updates of mu_step from xhat = U @ V, which is overwritten;
    xo is x with its unobserved cells set to 0. Returns (U', V', live_u,
    live_v), where live_* marks the nonzero update denominators.

    xo / xhat is already 0 off the mask, since xhat >= EPS_FLOOR**2 > 0.
    """
    numer = np.divide(xo, xhat, out=xhat) @ V.T
    denom = mask @ V.T
    live_u = denom > 0
    mult = np.divide(numer, denom, out=np.ones_like(numer), where=live_u)
    U2 = np.maximum(U * mult, EPS_FLOOR)

    np.matmul(U2, V, out=xhat)
    numer = U2.T @ np.divide(xo, xhat, out=xhat)
    denom = U2.T @ mask
    live_v = denom > 0
    mult = np.divide(numer, denom, out=np.ones_like(numer), where=live_v)
    V2 = np.maximum(V * mult, EPS_FLOOR)
    return U2, V2, live_u, live_v


def init_factors(x, mask, h, seed) -> FactorPair:
    """Uniform [0.1, 1.1] factors rescaled so mean(U @ V) matches the observed
    mean, which puts the first update multipliers near 1."""
    x = as_matrix(x)
    mask = as_matrix(mask)
    if h < 1:
        raise SpecError(f"rank h must be at least 1, got {h}")
    rng = make_rng(seed)
    m, n = x.shape
    U = rng.uniform(0.1, 1.1, size=(m, h))
    V = rng.uniform(0.1, 1.1, size=(h, n))
    obs = mask > 0
    target = float(np.mean(x[obs])) if obs.any() else 1.0
    current = float(np.mean(U @ V))
    if target > 0 and current > 0:
        scale = np.sqrt(target / current)
        U *= scale
        V *= scale
    return FactorPair(np.maximum(U, EPS_FLOOR), np.maximum(V, EPS_FLOOR))


def pretrain(xm: MaskedMatrix, h, max_iters=DEFAULT_MAX_ITERS, tol=DEFAULT_TOL, seed=0):
    """Run mu_step until relative loss improvement < tol or max_iters.

    Rows or columns without a single observed entry receive no updates, so
    after the loop their factors are replaced by the average live embedding:
    the factorization then predicts the average row/column profile there
    instead of its random initialization. Returns (FactorPair, MfTrace);
    deterministic for a given seed.
    """
    require_int(h=h, max_iters=max_iters)
    x, mask = xm.values, xm.mask
    obs = mask > 0
    if not obs.any():
        raise SpecError("cannot factorize: the mask has no observed entries")
    idx = np.flatnonzero(obs)
    xv = x.ravel()[idx]
    if not np.all(np.isfinite(xv)) or np.any(xv < 0):
        raise ValidationError("observed values must be finite and nonnegative; normalize first")
    xs, zero = _zeros_to_one(xv)
    xo = np.where(obs, x, 0.0)
    factors = init_factors(x, mask, h, seed)
    # xhat = U @ V of the current factors: the loss reads it, then the next
    # update starts from it and reuses its memory for the update ratios
    xhat = factors.U @ factors.V
    losses = [_kl_sum(xv, xhat.ravel()[idx], xs, zero)]
    converged = False
    for _ in range(max_iters):
        # rows and columns without observed cells are dealt with after the loop
        U, V, _, _ = _mu_update(xo, mask, factors.U, factors.V, xhat)
        factors = FactorPair(U, V)
        np.matmul(factors.U, factors.V, out=xhat)
        losses.append(_kl_sum(xv, xhat.ravel()[idx], xs, zero))
        prev, cur = losses[-2], losses[-1]
        if prev <= 0 or (prev - cur) / prev < tol:
            converged = True
            break
    dead_rows = mask.sum(axis=1) == 0
    dead_cols = mask.sum(axis=0) == 0
    if dead_rows.any() and not dead_rows.all():
        factors.U[dead_rows] = factors.U[~dead_rows].mean(axis=0)
    if dead_cols.any() and not dead_cols.all():
        factors.V[:, dead_cols] = factors.V[:, ~dead_cols].mean(axis=1, keepdims=True)
    return factors, MfTrace(losses, iterations=len(losses) - 1, converged=converged)


def mf_impute(factors: FactorPair) -> np.ndarray:
    """The plain factorization estimate U @ V (the MF baseline's output)."""
    return factors.U @ factors.V

