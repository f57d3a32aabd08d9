"""Mask generation and masked-matrix assembly.

A mask is an m x n matrix of exact {0, 1} values, 1 = observed. Three
missingness patterns are supported: scattered cells, a single contiguous
block, and k separate blocks. Blocks are rectangles of at least 4x4 cells
(the minimum extent that counts as block-wise rather than scattered).

Missing entries of a masked matrix hold a 0.0 sentinel so they can be fed
to networks directly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SpecError, ValidationError
from .kernel import as_matrix, make_rng

PATTERNS = ("scattered", "uniblock", "multiblock")
MIN_BLOCK = 4  # minimum block height and width
SENTINEL = 0.0


@dataclass(frozen=True)
class MaskSpec:
    """What to generate: pattern, target missing rate, seed (k for multiblock)."""

    pattern: str
    rate: float
    seed: int
    k: int = 0

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise SpecError(f"unknown pattern '{self.pattern}' (choose from {PATTERNS})")
        _check_rate(self.rate)
        if self.pattern == "multiblock" and self.k < 2:
            raise SpecError(f"multiblock needs k >= 2, got {self.k}")


@dataclass
class MaskedMatrix:
    """Finite observed values plus their binary mask; missing cells hold the sentinel."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = as_matrix(self.values)
        self.mask = as_matrix(self.mask)
        if self.values.shape != self.mask.shape:
            raise ShapeError(f"values {self.values.shape} != mask {self.mask.shape}")
        _check_binary(self.mask)
        if not np.all(self.values[self.mask == 0] == SENTINEL):
            raise ValidationError("missing entries must hold the sentinel value")
        # missing cells hold the finite sentinel, so this checks observed ones
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("observed values must be finite")

    @property
    def shape(self):
        return self.values.shape


def _check_binary(mask):
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ValidationError("mask entries must be exactly 0 or 1")


def _check_rate(rate):
    if not 0.0 < rate < 1.0:
        raise SpecError(f"rate must lie in (0, 1), got {rate}")


def gen_scattered(m, n, rate, seed) -> np.ndarray:
    """Exactly round(rate*m*n) missing cells, placed by ranking a seeded
    random matrix."""
    _check_rate(rate)
    target = round(rate * m * n)
    if target >= m * n:
        raise SpecError(f"rate {rate} would blank the whole {m}x{n} matrix")
    scores = make_rng(seed).random((m, n))
    order = np.argsort(scores, axis=None, kind="stable")
    mask = np.ones(m * n)
    mask[order[:target]] = 0.0
    return mask.reshape(m, n)


def _closest_area_dims(m, n, target):
    """All (height, width) pairs with dims >= MIN_BLOCK whose area is closest
    to target among rectangles that fit in m x n."""
    hs = np.arange(MIN_BLOCK, m + 1)
    ws = np.arange(MIN_BLOCK, n + 1)
    diff = np.abs(np.outer(hs, ws) - target)
    best = diff.min()
    idx = np.argwhere(diff == best)
    return [(int(hs[i]), int(ws[j])) for i, j in idx]


def _sample_rect(m, n, target, rng):
    """One rectangle of near-target area: (i0, j0, height, width)."""
    pairs = _closest_area_dims(m, n, target)
    h, w = pairs[rng.integers(len(pairs))]
    i0 = int(rng.integers(m - h + 1))
    j0 = int(rng.integers(n - w + 1))
    return i0, j0, h, w


def gen_uniblock(m, n, rate, seed) -> np.ndarray:
    """One contiguous missing rectangle with dims >= 4, area as close as
    possible to round(rate*m*n)."""
    _check_rate(rate)
    if m < MIN_BLOCK or n < MIN_BLOCK:
        raise SpecError(
            f"no feasible block: need at least {MIN_BLOCK}x{MIN_BLOCK}, matrix is {m}x{n}"
        )
    target = round(rate * m * n)
    i0, j0, h, w = _sample_rect(m, n, target, make_rng(seed))
    mask = np.ones((m, n))
    mask[i0 : i0 + h, j0 : j0 + w] = 0.0
    return mask


def _rects_overlap(a, b):
    # half-open rectangles; touching edges is allowed
    ai, aj, ah, aw = a
    bi, bj, bh, bw = b
    return ai < bi + bh and bi < ai + ah and aj < bj + bw and bj < aj + aw


def _place_blocks(m, n, rate, k, seed, attempts=200, placements=60):
    """k disjoint rectangles totalling about rate*m*n cells, or SpecError."""
    if m < MIN_BLOCK or n < MIN_BLOCK:
        raise SpecError(f"no feasible block in a {m}x{n} matrix")
    if k < 1:
        raise SpecError(f"need at least one block, got k={k}")
    target_total = round(rate * m * n)
    rng = make_rng(seed)
    for _ in range(attempts):
        rects = []
        remaining = target_total
        for b in range(k):
            per_block = max(MIN_BLOCK * MIN_BLOCK, round(remaining / (k - b)))
            placed = False
            for _ in range(placements):
                rect = _sample_rect(m, n, per_block, rng)
                if not any(_rects_overlap(rect, r) for r in rects):
                    rects.append(rect)
                    remaining -= rect[2] * rect[3]
                    placed = True
                    break
            if not placed:
                break
        if len(rects) != k:
            continue
        total = sum(h * w for _, _, h, w in rects)
        if abs(total - target_total) <= 0.05 * target_total:
            return rects
    raise SpecError(
        f"could not place {k} disjoint blocks at rate {rate} in {m}x{n}; "
        "lower the rate or the block count"
    )


def gen_multiblock(m, n, rate, k, seed) -> np.ndarray:
    """k disjoint missing rectangles, each >= 4x4, total within 5% of target."""
    _check_rate(rate)
    mask = np.ones((m, n))
    for i0, j0, h, w in _place_blocks(m, n, rate, k, seed):
        mask[i0 : i0 + h, j0 : j0 + w] = 0.0
    return mask


def generate_mask(spec: MaskSpec, m, n) -> np.ndarray:
    if spec.pattern == "scattered":
        return gen_scattered(m, n, spec.rate, spec.seed)
    if spec.pattern == "uniblock":
        return gen_uniblock(m, n, spec.rate, spec.seed)
    return gen_multiblock(m, n, spec.rate, spec.k, spec.seed)


def apply_mask(x, mask) -> MaskedMatrix:
    """Copy observed entries bit-exactly, put the sentinel elsewhere."""
    x = as_matrix(x)
    mask = as_matrix(mask)
    if x.shape != mask.shape:
        raise ShapeError(f"data {x.shape} != mask {mask.shape}")
    _check_binary(mask)
    values = np.where(mask > 0, x, SENTINEL)
    return MaskedMatrix(values, mask.copy())

