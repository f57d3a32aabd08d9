"""Normalization and evaluation metrics.

Data is min-max scaled into [EPS_NORM, 1] using observed cells only, per
column, since columns typically carry different units. Imputation error is
the RMSE over the missing cells, sqrt(sum(err^2) / count).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, ShapeError, SpecError, ValidationError
from .kernel import as_matrix
from .masking import SENTINEL, _check_binary

EPS_NORM = 1e-3  # lower edge of the normalized range; keeps KL away from 0


@dataclass
class NormParams:
    """Affine column maps fitted on observed cells; invertible where max > min.

    Degenerate columns (constant or fully missing) fall back to the global
    observed span so transform/inverse stay bijective; their observed values
    land exactly on EPS_NORM.
    """

    col_min: np.ndarray
    col_span: np.ndarray          # per-column max - min, with fallback applied
    degenerate: np.ndarray        # bool per column

    def transform(self, x) -> np.ndarray:
        x = as_matrix(x)
        if x.shape[1] != self.col_min.size:
            raise ShapeError(f"matrix has {x.shape[1]} columns, params have {self.col_min.size}")
        return EPS_NORM + (1.0 - EPS_NORM) * (x - self.col_min) / self.col_span

    def inverse(self, xn) -> np.ndarray:
        xn = as_matrix(xn)
        if xn.shape[1] != self.col_min.size:
            raise ShapeError(f"matrix has {xn.shape[1]} columns, params have {self.col_min.size}")
        return self.col_min + (xn - EPS_NORM) * self.col_span / (1.0 - EPS_NORM)


def normalize(x, mask):
    """Map observed entries into [EPS_NORM, 1]; returns (matrix, NormParams).

    Each column's range is taken over its observed cells. The observed
    output is capped at 1: on subnormal data the affine map can round a
    column maximum a few ulp above it. Missing cells of the returned matrix
    hold masking.SENTINEL.
    """
    x = as_matrix(x)
    mask = as_matrix(mask)
    if x.shape != mask.shape:
        raise ShapeError(f"data {x.shape} != mask {mask.shape}")
    _check_binary(mask)
    obs = mask > 0
    if not obs.any():
        raise SpecError("cannot normalize a matrix with no observed entries")
    if not np.all(np.isfinite(x[obs])):
        raise ValidationError("observed entries must be finite")

    # a column with no observed cells keeps min = inf and max = -inf
    col_min = np.where(obs, x, np.inf).min(axis=0)
    col_max = np.where(obs, x, -np.inf).max(axis=0)
    gmin = float(col_min.min())
    gmax = float(col_max.max())
    degenerate = ~(col_max > col_min)
    col_min = np.where(col_min == np.inf, gmin, col_min)
    # finite values can span more than float64 holds: such a span is
    # rejected below rather than left to warn and spread inf and NaN
    with np.errstate(over="ignore"):
        gspan = gmax - gmin if gmax > gmin else 1.0
        span = np.where(degenerate, gspan, col_max - col_min)
    if not np.all(np.isfinite(span)):
        j = int(np.argmin(np.isfinite(span)))
        raise ValidationError(
            f"column {j}'s observed span overflows float64 (a constant or empty column "
            "takes the span of all observed values)"
        )

    params = NormParams(col_min, span, degenerate)
    # missing cells enter as col_min, and whatever they held is never read
    out = np.minimum(params.transform(np.where(obs, x, col_min)), 1.0)
    return np.where(obs, out, SENTINEL), params


class RmsePair(NamedTuple):
    standard: float


def rmse_missing(imputed, truth, mask) -> RmsePair:
    """The RMSE over the missing (mask == 0) cells.

    Both inputs must be finite on those cells; EvaluationError if the sum
    of squares overflows float64.
    """
    imputed = as_matrix(imputed)
    truth = as_matrix(truth)
    mask = as_matrix(mask)
    if not imputed.shape == truth.shape == mask.shape:
        raise ShapeError(
            f"shape mismatch: imputed {imputed.shape}, truth {truth.shape}, mask {mask.shape}"
        )
    miss = mask == 0
    count = int(miss.sum())
    if count == 0:
        raise EvaluationError("no missing cells to evaluate")
    # a non-finite input or an overflow leaves the sum inf or NaN; the two
    # are told apart only then, so a finite sum costs no extra pass
    with np.errstate(over="ignore", invalid="ignore"):
        err = imputed[miss] - truth[miss]
        total = float(np.sum(err * err))
    if not total < np.inf:
        if not (np.all(np.isfinite(imputed[miss])) and np.all(np.isfinite(truth[miss]))):
            raise ValidationError("imputed and truth must be finite on the missing cells")
        raise EvaluationError("RMSE overflows float64 at this scale")
    return RmsePair(np.sqrt(total / count))


def wmape(pred, actual) -> float:
    """Sum of absolute errors over sum of absolute actuals.

    Both inputs must be finite; EvaluationError if a sum or the ratio
    overflows float64.
    """
    pred = as_matrix(pred)
    actual = as_matrix(actual)
    if pred.shape != actual.shape:
        raise ShapeError(f"pred {pred.shape} != actual {actual.shape}")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(actual))):
        raise ValidationError("pred and actual must be finite")
    with np.errstate(over="ignore"):
        numer = float(np.sum(np.abs(pred - actual)))
        denom = float(np.sum(np.abs(actual)))
    if denom == 0.0:
        raise EvaluationError("reference values are all zero; WMAPE undefined")
    ratio = numer / denom
    # written so that an infinite numerator fails it too: inf / inf is NaN
    if not (denom < np.inf and ratio < np.inf):
        raise EvaluationError("WMAPE overflows float64 at this scale")
    return ratio
