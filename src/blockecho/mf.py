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

Each product of an update has a contiguous right operand, which OpenBLAS's
small-matrix kernels run fastest (times in mu_step). At some shapes, as
48x16 at h=4, that rounds apart from the textbook's strided products.

pretrain is the checked entry point: it checks its inputs once, then runs
the two primitives, mu_step for one update and kl_loss for one loss
evaluation, on the arrays it prepared, which they read unchecked.

This pre-training stage produces the anchor embeddings consumed by the
adversarial imputer, and doubles as the plain matrix factorization
baseline (impute with U @ V directly).
"""

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ShapeError, SpecError, ValidationError
from .kernel import as_matrix, make_rng, require_int, require_real
from .masking import MaskedMatrix

EPS_FLOOR = 1e-8  # positivity floor keeping KL and the updates defined

DEFAULT_MAX_ITERS = 2000
DEFAULT_TOL = 1e-6
CHECK_EVERY = 10  # updates between two loss evaluations in pretrain


@dataclass
class FactorPair:
    """Row embeddings U (m x h) and column embeddings V (h x n), entries
    finite and >= EPS_FLOOR."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.U = as_matrix(self.U)
        self.V = as_matrix(self.V)
        if self.U.shape[1] != self.V.shape[0]:
            raise ShapeError(f"U is {self.U.shape}, V is {self.V.shape}: inner dims differ")
        require_int(1, h=self.U.shape[1])
        if not (self.U.size and self.V.size):
            raise ShapeError(f"U is {self.U.shape}, V is {self.V.shape}: no rows or no columns")
        # written so that NaN fails it too
        for f in (self.U, self.V):
            if not (np.min(f) >= EPS_FLOOR and np.max(f) < np.inf):
                raise ValidationError(f"factor entries must be finite and >= {EPS_FLOOR}")

    @property
    def h(self):
        return self.U.shape[1]


@dataclass
class MfTrace:
    losses: list        # loss before any update, then at each check: after every
                        # CHECK_EVERY-th full (U, V) update and after the last one
    iterations: int     # full (U, V) updates run
    converged: bool


def kl_loss(xv, xh) -> float:
    """Generalized KL divergence of observed values xv against their
    estimates xh, both gathered in the same order; xh is overwritten. xv is
    read as given: pretrain checks it once, train checks its data on entry.
    Where x = 0 the log's ratio is xh / xh = 1, so the cell contributes its
    limit xh. Where the ratio x / xhat leaves the float64 range its log is
    inf or -inf, and the cell takes log x - log xhat instead.
    EvaluationError if the loss overflows."""
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


def mu_step(x, mask, U, V, xhat):
    """One alternating multiplicative update of U then V on observed cells,
    from xhat = U @ V, which is overwritten. x holds 0 in its unobserved
    cells and mask is a float64 0.0/1.0 copy of the bool mask, both made
    once by pretrain, which checks them. Returns C-contiguous (U', V'),
    leaving x, mask, U and V as they were.

    Every factor entry is >= EPS_FLOOR, so a denominator is positive exactly
    on a row or column with an observed cell; other rows keep multiplier 1,
    so their factors are left unchanged.
    x / xhat is already 0 off the mask, since xhat >= EPS_FLOOR**2 > 0.

    With r = x / xhat at 720x64, h=16 on one BLAS thread, r @ V.T took 44 us
    and r @ Vt 25 us, Vt a contiguous copy of V.T, and U2.T @ r 42 us against
    27 us for r.T @ U2. So the U half multiplies by Vt, and the V half is
    computed as its n x h transpose, then copied back for the next U @ V.
    """
    Vt = np.ascontiguousarray(V.T)
    numer = np.divide(x, xhat, out=xhat) @ Vt
    denom = mask @ Vt
    mult = np.divide(numer, denom, out=np.ones_like(numer), where=denom > 0)
    mult *= U
    U2 = np.maximum(mult, EPS_FLOOR, out=mult)

    np.matmul(U2, V, out=xhat)
    numer = np.divide(x, xhat, out=xhat).T @ U2
    denom = mask.T @ U2
    mult = np.divide(numer, denom, out=np.ones_like(numer), where=denom > 0)
    mult *= Vt
    return U2, np.ascontiguousarray(np.maximum(mult, EPS_FLOOR, out=mult).T)


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
    require_int(1, h=h)
    require_int(0, max_iters=max_iters)
    require_real(tol=tol)
    if not 0.0 <= tol < np.inf:  # written so that NaN fails it too
        raise SpecError(f"tol must be finite and >= 0, got {tol}")
    max_iters = int(max_iters)  # so that MfTrace.iterations is a Python int
    x, obs = xm.values, xm.mask
    if not obs.any():
        raise SpecError("cannot factorize: the mask has no observed entries")
    # loss checks gather by flat index, 5x faster than by obs at 720x64
    idx = np.flatnonzero(obs)
    xv = x.ravel()[idx]
    # written so that NaN fails it too
    if not np.all((xv >= 0) & (xv < np.inf)):
        raise ValidationError(
            "observed values must be finite and nonnegative; run metrics.normalize first"
        )
    mask = obs.astype(np.float64)  # the updates' products read 0.0/1.0
    # uniform [0.1, 1.1] factors rescaled so that mean(U @ V) matches the
    # observed mean, which puts the first update multipliers near 1
    rng = make_rng(seed)
    m, n = x.shape
    U = rng.uniform(0.1, 1.1, size=(m, h))
    V = rng.uniform(0.1, 1.1, size=(h, n))
    target = float(np.mean(xv))
    if target > 0:
        scale = np.sqrt(target / float(np.mean(U @ V)))
        U *= scale
        V *= scale
    # the updates keep U and V >= EPS_FLOOR, so FactorPair checks them once, at return
    U, V = np.maximum(U, EPS_FLOOR), np.maximum(V, EPS_FLOOR)
    # xhat = U @ V of the current factors: a check reads it, then the next
    # update starts from it and reuses its memory for the update ratios
    xhat = U @ V
    losses = [kl_loss(xv, xhat.ravel()[idx])]
    converged = False
    iterations = 0
    while iterations < max_iters:
        steps = min(CHECK_EVERY, max_iters - iterations)
        for _ in range(steps):
            # rows and columns without observed cells are dealt with after the loop
            U, V = mu_step(x, mask, U, V, xhat)
            np.matmul(U, V, out=xhat)
        iterations += steps
        losses.append(kl_loss(xv, xhat.ravel()[idx]))
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

