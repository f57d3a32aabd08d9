"""CSV ingestion, synthetic corpora and the downstream forecasting task.

A matrix with missing cells is a masking.MaskedMatrix: load_csv marks its
empty, NaN and infinite cells missing, and gen_synthetic returns a fully
observed one.

Synthetic generators mimic three data regimes at desk scale, each built
from a kind, a size and a seed alone: plain low-rank matrices, traffic-style
matrices (low-rank base, a daily cycle over the row/time axis with
per-column phase offsets, and a saturating response), and epidemic-style
matrices (smooth bumps plus sparse multiplicative bursts). The rank is
min(SYNTHETIC_RANK, m, n), and no noise is added.

The downstream task forecasts the next row of a fully observed matrix with
a nearest-neighbor regressor over whole rows: find the KNN_K historical rows
closest to the current one and average their successors. It forecasts the
last max(1, t // 10) of the t rows, one step at a time. A deterministic
forecaster with fixed settings keeps the imputation-quality comparison
reproducible and dependency-free.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ParseError, ShapeError, SpecError, ValidationError
from .kernel import as_matrix, require_int, spawn_rngs
from .masking import MaskedMatrix, apply_mask
from .metrics import wmape

# "lowrank_poisson" names the plain low-rank kind; it draws no Poisson noise
SYNTHETIC_KINDS = ("lowrank_poisson", "periodic_traffic", "burst_epidemic")
SYNTHETIC_RANK = 4  # rank of the factors, capped at min(m, n)

DAY_PERIOD = 24  # rows per synthetic "day"
KNN_K = 5  # neighbors the downstream forecaster averages


@dataclass(frozen=True)
class SyntheticSpec:
    kind: str
    m: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SYNTHETIC_KINDS:
            raise SpecError(f"unknown synthetic kind '{self.kind}'")
        require_int(1, m=self.m, n=self.n)


def gen_synthetic(spec: SyntheticSpec) -> MaskedMatrix:
    """Deterministic positive synthetic matrix for the requested regime, of
    rank min(SYNTHETIC_RANK, m, n) before any saturation or bursts, with
    every cell observed."""
    factor_rng, shape_rng = spawn_rngs(spec.seed, 2)
    m, n = spec.m, spec.n
    r = min(SYNTHETIC_RANK, m, n)
    u = factor_rng.uniform(0.5, 1.5, size=(m, r))
    v = factor_rng.uniform(0.5, 1.5, size=(r, n))
    base = u @ v

    if spec.kind == "lowrank_poisson":
        x = base
    elif spec.kind == "periodic_traffic":
        phase = shape_rng.uniform(0.0, 2.0 * np.pi, size=n)
        hours = 2.0 * np.pi * np.arange(m)[:, None] / DAY_PERIOD
        cycle = 1.0 + 0.6 * np.sin(hours + phase[None, :])
        # saturating response: throughput flattens as the load grows
        load = base * cycle
        x = 2.0 / (1.0 + np.exp(-load / (0.7 * np.mean(load)))) - 1.0
    else:  # burst_epidemic
        t = np.arange(m, dtype=float)
        curves = np.empty((m, r))
        for k in range(r):
            center = shape_rng.uniform(0.0, m)
            width = shape_rng.uniform(m / 10.0, m / 3.0)
            amp = shape_rng.uniform(0.5, 1.5)
            curves[:, k] = amp * np.exp(-0.5 * ((t - center) / width) ** 2) + 0.05
        x = curves @ v
        n_bursts = max(1, (m * n) // 200)
        for _ in range(n_bursts):
            i0 = int(shape_rng.integers(m))
            span = int(shape_rng.integers(2, 7))
            j = int(shape_rng.integers(n))
            x[i0 : i0 + span, j] *= shape_rng.uniform(2.0, 5.0)

    return MaskedMatrix(x, np.ones((m, n), dtype=bool))


# ---------------------------------------------------------------------------
# CSV ingestion. RFC-4180-style, '.' decimal separator; an empty cell, the
# token NaN (any case) or an infinite value marks a missing cell.

def _parse_cell(token, line_no, col_no):
    token = token.strip()
    if token == "" or token.lower() == "nan":
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise ParseError(
            f"non-numeric cell at line {line_no}, column {col_no}: '{token}'"
        ) from None


def load_csv(path, header=False, index=False) -> MaskedMatrix:
    """Rectangular numeric CSV -> MaskedMatrix whose missing cells are the
    empty, NaN and infinite ones. header skips the first row, index the
    first column; ragged rows are rejected. A file that cannot be opened
    or read as UTF-8 text raises ParseError naming the path."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except OSError as exc:  # a missing file, a directory, no permission
        raise ParseError(f"{path}: cannot read ({exc.strerror})") from None
    # the data columns the header names; the index column's cell is not one
    named = len(rows.pop(0)[1]) - bool(index) if header and rows else None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    data = []
    width = None
    for line_no, row in rows:
        if index:
            row = row[1:]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"ragged row at line {line_no}: expected {width} cells, got {len(row)}")
        data.append([_parse_cell(tok, line_no, j + 1) for j, tok in enumerate(row)])
    if not width:
        raise ParseError(f"{path}: rows hold no data cells")
    if named is not None and named != width:
        raise ParseError(f"{path}: header names {named} data columns for {width}")
    values = as_matrix(data)
    return apply_mask(values, np.isfinite(values))


# ---------------------------------------------------------------------------
# Downstream forecasting.

def forecast_next(history) -> np.ndarray:
    """Predict the row after the last one: average the successors of the
    KNN_K historical rows nearest (Euclidean) to the last row.

    EvaluationError if a distance or the average overflows float64.
    """
    history = as_matrix(history)
    t = history.shape[0]
    if t <= KNN_K:
        raise SpecError(f"a history of {t} rows is too short: KNN_K = {KNN_K} needs {KNN_K + 1}")
    if not np.all(np.isfinite(history)):
        raise ValidationError("history must be fully observed; impute first")
    query = history[-1]
    candidates = history[:-1]
    with np.errstate(over="ignore"):
        dist = np.sqrt(np.sum((candidates - query) ** 2, axis=1))
        nearest = np.argsort(dist, kind="stable")[:KNN_K]
        pred = history[nearest + 1].mean(axis=0, keepdims=True)
    if not (np.all(np.isfinite(dist)) and np.all(np.isfinite(pred))):
        raise EvaluationError("the forecast overflows float64 at this scale")
    return pred


def eval_downstream(original, variants) -> dict:
    """Rolling one-step forecasts over the last max(1, t // 10) of the t rows
    for every variant matrix; the error of each is the WMAPE against the
    original's actual rows.
    """
    original = as_matrix(original)
    t = original.shape[0]
    holdout = max(1, t // 10)
    if holdout >= t - KNN_K:
        raise SpecError(f"holdout {holdout} infeasible for {t} rows with KNN_K = {KNN_K}")
    report = {"wmape": {}}
    for name, matrix in variants:
        matrix = as_matrix(matrix)
        if matrix.shape != original.shape:
            raise ShapeError(f"variant '{name}' is {matrix.shape}, expected {original.shape}")
        preds = [forecast_next(matrix[:step]) for step in range(t - holdout, t)]
        report["wmape"][name] = wmape(np.vstack(preds), original[t - holdout :])
    return report
