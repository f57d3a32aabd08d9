"""Dataset ingestion, synthetic corpora and the downstream forecasting task.

Synthetic generators mimic three data regimes at desk scale: plain
low-rank matrices with Poisson jitter, traffic-style matrices (low-rank
base, a daily cycle over the row/time axis with per-column phase offsets,
and a saturating response), and epidemic-style matrices (smooth bumps plus
sparse multiplicative bursts).

The downstream task forecasts the next row of a fully observed matrix with
a k-nearest-neighbor regressor over whole rows: find the k historical rows
closest to the current one and average their successors. A deterministic
forecaster keeps the imputation-quality comparison reproducible and
dependency-free.
"""

import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeError, SpecError, ValidationError
from .kernel import as_matrix, spawn_rngs
from .masking import MaskedMatrix, apply_mask
from .metrics import wmape

SYNTHETIC_KINDS = ("lowrank_poisson", "periodic_traffic", "burst_epidemic")

DAY_PERIOD = 24  # rows per synthetic "day"


@dataclass
class Dataset:
    """A value matrix with labels; NaN entries are inherently missing."""

    values: np.ndarray
    row_labels: list
    col_labels: list

    def __post_init__(self):
        self.values = as_matrix(self.values)
        m, n = self.values.shape
        if len(self.row_labels) != m or len(self.col_labels) != n:
            raise ValidationError(
                f"label counts ({len(self.row_labels)}, {len(self.col_labels)}) "
                f"do not match matrix {m}x{n}"
            )

    @property
    def shape(self):
        return self.values.shape

    @property
    def inherent_mask(self) -> np.ndarray:
        return np.isfinite(self.values).astype(np.float64)

    def masked(self) -> MaskedMatrix:
        return apply_mask(np.nan_to_num(self.values, nan=0.0), self.inherent_mask)


@dataclass(frozen=True)
class SyntheticSpec:
    kind: str
    m: int
    n: int
    rank: int = 4
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SYNTHETIC_KINDS:
            raise SpecError(f"unknown synthetic kind '{self.kind}'")
        if self.m < 1 or self.n < 1:
            raise SpecError(f"matrix size {self.m}x{self.n} is empty")
        if not 1 <= self.rank <= min(self.m, self.n):
            raise SpecError(f"rank {self.rank} infeasible for {self.m}x{self.n}")
        if self.noise < 0:
            raise SpecError(f"noise level must be >= 0, got {self.noise}")


def _default_labels(m, n):
    return [f"t{i:04d}" for i in range(m)], [f"c{j:03d}" for j in range(n)]


def gen_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic nonnegative synthetic matrix for the requested regime."""
    factor_rng, shape_rng, noise_rng = spawn_rngs(spec.seed, 3)
    m, n, r = spec.m, spec.n, spec.rank
    u = factor_rng.uniform(0.5, 1.5, size=(m, r))
    v = factor_rng.uniform(0.5, 1.5, size=(r, n))
    base = u @ v

    if spec.kind == "lowrank_poisson":
        x = base
        if spec.noise > 0:
            # Poisson draws at rate base/noise, scaled back: mean-preserving jitter
            x = noise_rng.poisson(base / spec.noise) * spec.noise
    elif spec.kind == "periodic_traffic":
        phase = shape_rng.uniform(0.0, 2.0 * np.pi, size=n)
        hours = 2.0 * np.pi * np.arange(m)[:, None] / DAY_PERIOD
        cycle = 1.0 + 0.6 * np.sin(hours + phase[None, :])
        # saturating response: throughput flattens as the load grows
        load = base * cycle
        x = 2.0 / (1.0 + np.exp(-load / (0.7 * np.mean(load)))) - 1.0
        if spec.noise > 0:
            x = x * (1.0 + spec.noise * noise_rng.standard_normal((m, n)))
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
        if spec.noise > 0:
            x = x * (1.0 + spec.noise * noise_rng.standard_normal((m, n)))

    x = np.maximum(x, 0.0)
    rows, cols = _default_labels(m, n)
    return Dataset(x, rows, cols)


# ---------------------------------------------------------------------------
# CSV ingestion. RFC-4180-style, '.' decimal separator; an empty cell or the
# token NaN (any case) marks an inherently missing value.

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


def load_csv(path, header=False, index=False) -> Dataset:
    """Rectangular numeric CSV -> Dataset. Ragged rows are rejected."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    col_labels = None
    if header and rows:
        col_labels = [c.strip() for c in rows.pop(0)[1]]
        if index and col_labels:
            col_labels = col_labels[1:]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    row_labels = []
    data = []
    width = None
    for line_no, row in rows:
        if index:
            row_labels.append(row[0].strip())
            row = row[1:]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"ragged row at line {line_no}: expected {width} cells, got {len(row)}")
        data.append([_parse_cell(tok, line_no, j + 1) for j, tok in enumerate(row)])
    values = as_matrix(data)
    m, n = values.shape
    if not row_labels:
        row_labels = _default_labels(m, n)[0]
    if not col_labels:
        col_labels = _default_labels(m, n)[1]
    if len(col_labels) != n:
        raise ParseError(f"header has {len(col_labels)} labels for {n} columns")
    return Dataset(values, row_labels, col_labels)


# ---------------------------------------------------------------------------
# Downstream forecasting.

def forecast_next(history, k) -> np.ndarray:
    """Predict the row after the last one: average the successors of the k
    historical rows nearest (Euclidean) to the last row."""
    history = as_matrix(history)
    t = history.shape[0]
    if k < 1 or k >= t:
        raise SpecError(f"k must lie in 1..{t - 1} for a history of {t} rows")
    if not np.all(np.isfinite(history)):
        raise ValidationError("history must be fully observed; impute first")
    query = history[-1]
    candidates = history[:-1]
    dist = np.sqrt(np.sum((candidates - query) ** 2, axis=1))
    nearest = np.argsort(dist, kind="stable")[:k]
    return history[nearest + 1].mean(axis=0, keepdims=True)


def eval_downstream(original, variants, k=5, holdout=None) -> dict:
    """Rolling one-step forecasts over the last `holdout` rows for every
    variant matrix; the error of each is the WMAPE against the original's
    actual rows. All variants share the identical forecaster settings,
    recorded as a config hash in the report.
    """
    original = as_matrix(original)
    t, n = original.shape
    if holdout is None:
        holdout = max(1, t // 10)
    if not 1 <= holdout < t - k:
        raise SpecError(f"holdout {holdout} infeasible for {t} rows with k={k}")
    report = {"k": int(k), "holdout": int(holdout), "wmape": {}}
    digest = hashlib.sha256(f"knn:k={k}:holdout={holdout}:".encode())
    digest.update(original.tobytes())
    report["config_hash"] = digest.hexdigest()[:16]
    for name, matrix in variants:
        matrix = as_matrix(matrix)
        if matrix.shape != original.shape:
            raise ShapeError(f"variant '{name}' is {matrix.shape}, expected {original.shape}")
        preds = []
        actuals = []
        for step in range(t - holdout, t):
            preds.append(forecast_next(matrix[:step], k))
            actuals.append(original[step : step + 1])
        report["wmape"][name] = wmape(np.vstack(preds), np.vstack(actuals))
    return report
