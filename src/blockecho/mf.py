"""Masked nonnegative matrix factorization under KL divergence.

Approximates the observed cells of X by U @ V with U (m x h) and V (h x n)
strictly positive, minimizing

    F = sum over observed (i,j) of  x*log(x/xhat) - x + xhat,

the generalized KL divergence (the x = 0 term is taken at its limit, xhat).
Factors are fitted by alternating multiplicative updates

    u_ia <- u_ia * (sum_j m_ij v_aj x_ij / xhat_ij) / (sum_j m_ij v_aj)

and symmetrically for V, on x with 0 in its unobserved cells; a row or
column without observed cells has a zero denominator and keeps its factors.
Each half-update minimizes an auxiliary upper bound of F that is tight at
the current iterate, so F never increases; the loss trace of every run is
checked against that guarantee in the tests.

F feeds only the stopping test. Evaluated after every update it took about
30 % of pretrain's time, so pretrain evaluates it after every CHECK_EVERY-th
update and after the last one, as scikit-learn's NMF does. It stops once
the mean relative decrease per update since the previous check falls below
tol.

This pre-training stage produces the anchor embeddings consumed by the
adversarial imputer, and doubles as the plain matrix factorization
baseline (impute with U @ V directly).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ShapeError, SpecError, ValidationError
from .kernel import as_matrix, make_rng, require_int, require_real
from .masking import MaskedMatrix, apply_mask

EPS_FLOOR = 1e-8  # positivity floor keeping KL and the updates defined

DEFAULT_MAX_ITERS = 2000
DEFAULT_TOL = 1e-6
CHECK_EVERY = 10  # updates between two loss evaluations in pretrain


@dataclass
class FactorPair:
    """Row embeddings U (m x h) and column embeddings V (h x n), entries >= EPS_FLOOR."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.U = as_matrix(self.U)
        self.V = as_matrix(self.V)
        if self.U.shape[1] != self.V.shape[0]:
            raise ShapeError(f"U is {self.U.shape}, V is {self.V.shape}: inner dims differ")
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
    losses: list        # loss before any update, then at each check: after every
                        # CHECK_EVERY-th full (U, V) update and after the last one
    iterations: int     # full (U, V) updates run
    converged: bool


def kl_loss(x, xhat, mask) -> float:
    """Generalized KL divergence over observed cells (x = 0 contributes xhat)."""
    x = as_matrix(x)
    xhat = as_matrix(xhat)
    mask = as_matrix(mask)
    if not x.shape == xhat.shape == mask.shape:
        raise ShapeError(f"shape mismatch: x {x.shape}, xhat {xhat.shape}, mask {mask.shape}")
    obs = mask > 0
    return _kl_sum(_check_observed(x[obs]), xhat[obs])


def _check_observed(xv):
    """xv, the observed values, or ValidationError unless all are finite and >= 0."""
    # written so that NaN fails it too
    if not np.all((xv >= 0) & (xv < np.inf)):
        raise ValidationError(
            "observed values must be finite and nonnegative; run metrics.normalize first"
        )
    return xv


def _kl_sum(xv, xh) -> float:
    """KL of observed values xv against their estimates xh, both gathered in
    the same order; xh is overwritten. Where x = 0 the log's ratio is xh / xh
    = 1, so the cell contributes its limit xh. Where the ratio x / xhat
    leaves the float64 range its log is inf or -inf, and the cell takes
    log x - log xhat instead. EvaluationError if the loss overflows."""
    # written so that NaN fails it too
    if not np.all((xh > 0) & (xh < np.inf)):
        raise ValidationError("estimates must be finite and strictly positive for the KL loss")
    terms = np.where(xv > 0, xv, xh)
    with np.errstate(over="ignore", divide="ignore"):
        terms /= xh
        np.log(terms, out=terms)
    lost = np.isinf(terms)
    if lost.any():
        terms[lost] = np.log(xv[lost]) - np.log(xh[lost])
    with np.errstate(over="ignore"):
        terms *= xv
        xh -= xv
        terms += xh
        total = float(terms.sum())
    if not np.isfinite(total):
        raise EvaluationError("the KL loss overflows float64 at this scale")
    return total


def _dead_axis_warning(kind, count):
    warnings.warn(
        f"{count} {kind} have no observed entries; their factors are left unchanged",
        RuntimeWarning,
        stacklevel=3,
    )


def mu_step(x, mask, factors: FactorPair) -> FactorPair:
    """One alternating multiplicative update of U then V on observed cells.

    The mask must be binary and the observed values finite and >= 0, as in
    pretrain. Rows/columns without any observed entry have a zero update
    denominator; those factor rows are left unchanged (and flagged with a
    warning).
    """
    # checks the shapes, the binary mask and finite observed values; the
    # unobserved cells get the sentinel 0.0, as _mu_update's x needs
    xm = apply_mask(x, mask)
    U, V = factors.U, factors.V
    if xm.shape != (U.shape[0], V.shape[1]):
        raise ShapeError(f"data {xm.shape} and factors {U.shape}/{V.shape} differ")
    obs = xm.mask
    _check_observed(xm.values[obs])
    U2, V2 = _mu_update(xm.values, obs.astype(np.float64), U, V, U @ V)
    for kind, axis in (("rows", 1), ("columns", 0)):
        dead = int(np.sum(~obs.any(axis=axis)))
        if dead:
            _dead_axis_warning(kind, dead)
    return FactorPair(U2, V2)


def _mu_update(x, mask, U, V, xhat):
    """Both half-updates of mu_step from xhat = U @ V, which is overwritten;
    x holds 0 in its unobserved cells, and mask is a float64 0.0/1.0 copy
    of the bool mask, which mu_step and pretrain each make once per call.
    Returns (U', V').

    Since every factor entry is >= EPS_FLOOR, an update denominator is
    positive exactly on a row or column with an observed cell; the other
    factor rows keep multiplier 1. x / xhat is already 0 off the mask, since
    xhat >= EPS_FLOOR**2 > 0.
    """
    numer = np.divide(x, xhat, out=xhat) @ V.T
    denom = mask @ V.T
    mult = np.divide(numer, denom, out=np.ones_like(numer), where=denom > 0)
    mult *= U
    U2 = np.maximum(mult, EPS_FLOOR, out=mult)

    np.matmul(U2, V, out=xhat)
    numer = U2.T @ np.divide(x, xhat, out=xhat)
    denom = U2.T @ mask
    mult = np.divide(numer, denom, out=np.ones_like(numer), where=denom > 0)
    mult *= V
    return U2, np.maximum(mult, EPS_FLOOR, out=mult)


def init_factors(x, mask, h, seed) -> FactorPair:
    """Uniform [0.1, 1.1] factors rescaled so mean(U @ V) matches the observed
    mean, which puts the first update multipliers near 1."""
    x = as_matrix(x)
    mask = as_matrix(mask)
    if x.shape != mask.shape:
        raise ShapeError(f"data {x.shape} != mask {mask.shape}")
    require_int(h=h)
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
    """Run mu_step until the loss converges or max_iters updates have run.

    The loss is evaluated before the first update, then after every
    CHECK_EVERY-th update and after the last one. The run converges at the
    first check whose loss cur, against the previous check's prev over the
    steps updates between them, satisfies (prev - cur) / prev < tol * steps:
    the mean relative decrease per update has fallen below tol.

    Rows or columns without a single observed entry receive no updates, so
    after the loop their factors are replaced by the average live embedding:
    the factorization then predicts the average row/column profile there
    instead of its random initialization. Returns (FactorPair, MfTrace);
    deterministic for a given seed.
    """
    require_int(h=h, max_iters=max_iters)
    require_real(tol=tol)
    if max_iters < 0:
        raise SpecError(f"max_iters must be >= 0, got {max_iters}")
    if not 0.0 <= tol < np.inf:  # written so that NaN fails it too
        raise SpecError(f"tol must be finite and >= 0, got {tol}")
    max_iters = int(max_iters)  # so that MfTrace.iterations is a Python int
    x, obs = xm.values, xm.mask
    if not obs.any():
        raise SpecError("cannot factorize: the mask has no observed entries")
    # loss checks gather by flat index, 5x faster than by obs at 720x64
    idx = np.flatnonzero(obs)
    xv = _check_observed(x.ravel()[idx])
    mask = obs.astype(np.float64)  # the updates' products read 0.0/1.0
    # the updates floor U and V at EPS_FLOOR, so FactorPair checks them once, at return
    init = init_factors(x, mask, h, seed)
    U, V = init.U, init.V
    # xhat = U @ V of the current factors: a check reads it, then the next
    # update starts from it and reuses its memory for the update ratios
    xhat = U @ V
    losses = [_kl_sum(xv, xhat.ravel()[idx])]
    converged = False
    iterations = 0
    while iterations < max_iters:
        steps = min(CHECK_EVERY, max_iters - iterations)
        for _ in range(steps):
            # rows and columns without observed cells are dealt with after the loop
            U, V = _mu_update(x, mask, U, V, xhat)
            np.matmul(U, V, out=xhat)
        iterations += steps
        losses.append(_kl_sum(xv, xhat.ravel()[idx]))
        prev, cur = losses[-2], losses[-1]
        if prev <= 0 or (prev - cur) / prev < tol * steps:
            converged = True
            break
    dead_rows, dead_cols = ~obs.any(axis=1), ~obs.any(axis=0)
    if dead_rows.any() and not dead_rows.all():
        U[dead_rows] = U[~dead_rows].mean(axis=0)
    if dead_cols.any() and not dead_cols.all():
        V[:, dead_cols] = V[:, ~dead_cols].mean(axis=1, keepdims=True)
    return FactorPair(U, V), MfTrace(losses, iterations=iterations, converged=converged)


def mf_impute(factors: FactorPair) -> np.ndarray:
    """The plain factorization estimate U @ V (the MF baseline's output)."""
    return factors.U @ factors.V

