"""Mask generation and masked-matrix assembly.

A mask is an m x n bool matrix, True = observed: one byte per cell. Every
function that takes a mask checks it with as_mask, which also accepts
exact {0, 1} numbers and reads them as False/True. Being bool, a mask does
not negate with -mask (that raises; use ~mask), and 1 - mask is an int
array. generate_mask builds every mask from a MaskSpec, in one of three
patterns: scattered cells, a single contiguous block, and k separate blocks.
Blocks are rectangles of at least 4x4 cells (the minimum extent that counts
as block-wise rather than scattered).

Missing entries of a masked matrix hold a 0.0 sentinel so they can be fed
to networks directly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SpecError, ValidationError
from .kernel import as_matrix, make_rng, require_int, require_real

PATTERNS = ("scattered", "uniblock", "multiblock")
MIN_BLOCK = 4  # minimum block height and width
SENTINEL = 0.0
PLACE_ATTEMPTS = 200  # fresh starts of _place_blocks's placement
PLACE_TRIES = 60      # random positions tried per block within one start


@dataclass(frozen=True)
class MaskSpec:
    """What to generate: pattern, target missing rate, seed, and k, the
    block count of multiblock (at least 2; 0 for the other patterns)."""

    pattern: str
    rate: float
    seed: int
    k: int = 0

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise SpecError(f"unknown pattern '{self.pattern}' (choose from {PATTERNS})")
        require_int(2 if self.pattern == "multiblock" else 0, k=self.k)
        require_real(rate=self.rate)
        if not 0.0 < self.rate < 1.0:
            raise SpecError(f"rate must lie in (0, 1), got {self.rate}")
        if self.pattern != "multiblock" and self.k != 0:
            raise SpecError(f"{self.pattern} takes no k, got {self.k}")


@dataclass
class MaskedMatrix:
    """Finite observed values plus their mask; missing cells hold the sentinel.

    The mask is read by as_mask and stored as a copy, so the caller's array
    is never held.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = as_matrix(self.values)
        self.mask = as_mask(self.mask, self.values.shape).copy()
        if not np.all(self.values[~self.mask] == SENTINEL):
            raise ValidationError("missing entries must hold the sentinel value")
        # missing cells hold the finite sentinel, so this checks observed ones
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("observed values must be finite")

    @property
    def shape(self):
        return self.values.shape


def as_mask(mask, shape) -> np.ndarray:
    """mask as a bool matrix of the given shape, True = observed.

    A bool array is returned as is, without a copy. Anything else goes
    through as_matrix and must hold exact 0/1 numbers. The shape is checked
    before the entries: np.where would broadcast a mask of another shape.
    """
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool):
        mask = as_matrix(mask)
    if mask.ndim != 2 or mask.shape != shape:
        raise ShapeError(f"mask is {mask.shape}, expected a 2-D {shape}")
    if mask.dtype != bool:
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise ValidationError("mask entries must be exactly 0 or 1")
        mask = mask > 0
    return mask


def _lowest(scores, target):
    """True at the target lowest scores, 0 <= target <= scores.size.

    Among equal scores the lower flat index wins, so the True cells are those
    of np.argsort(scores, axis=None, kind="stable")[:target], found in linear
    time: every score up to the target-th smallest, less the last ties.
    """
    if target == 0:
        return np.zeros(scores.shape, dtype=bool)
    cut = np.partition(scores, target - 1, axis=None)[target - 1]
    chosen = scores <= cut
    extra = np.count_nonzero(chosen) - target
    if extra:
        ties = np.flatnonzero(scores == cut)
        chosen.reshape(-1)[ties[ties.size - extra :]] = False
    return chosen


def _scattered(m, n, rate, seed):
    """Exactly round(rate*m*n) missing cells: those with the lowest scores in
    a seeded random m x n matrix, the lower flat index winning a tie."""
    target = round(rate * m * n)
    if target >= m * n:
        raise SpecError(f"rate {rate} would blank the whole {m}x{n} matrix")
    return ~_lowest(make_rng(seed).random((m, n)), target)


def _closest_area_dims(m, n, target):
    """All (height, width) pairs with dims >= MIN_BLOCK whose area is closest
    to target among rectangles that fit in m x n."""
    hs = np.arange(MIN_BLOCK, m + 1)
    ws = np.arange(MIN_BLOCK, n + 1)
    diff = np.abs(np.outer(hs, ws) - target)
    best = diff.min()
    idx = np.argwhere(diff == best)
    return [(int(hs[i]), int(ws[j])) for i, j in idx]


def _sample_rect(m, n, pairs, rng):
    """One rectangle (i0, j0, height, width) with its dims drawn from pairs,
    a _closest_area_dims result."""
    h, w = pairs[rng.integers(len(pairs))]
    i0 = int(rng.integers(m - h + 1))
    j0 = int(rng.integers(n - w + 1))
    return i0, j0, h, w


def _one_block(m, n, rate, seed):
    """One rectangle (i0, j0, height, width) with dims >= 4, area as close as
    possible to round(rate*m*n); SpecError if the whole matrix is one of the
    closest rectangles."""
    pairs = _closest_area_dims(m, n, round(rate * m * n))
    if (m, n) in pairs:
        raise SpecError(f"rate {rate} would blank the whole {m}x{n} matrix")
    return _sample_rect(m, n, pairs, make_rng(seed))


def _rects_overlap(a, b):
    # half-open rectangles; touching edges is allowed
    ai, aj, ah, aw = a
    bi, bj, bh, bw = b
    return ai < bi + bh and bi < ai + ah and aj < bj + bw and bj < aj + aw


def _place_blocks(m, n, rate, k, seed):
    """k disjoint rectangles totalling within 5% of round(rate*m*n) cells and
    leaving at least one cell uncovered, or SpecError."""
    target_total = round(rate * m * n)
    rng = make_rng(seed)
    dims = {}  # per-block target -> its _closest_area_dims, computed once
    # no placement is accepted if k blocks of the least area overshoot by > 5%
    feasible = k * MIN_BLOCK * MIN_BLOCK - target_total <= 0.05 * target_total
    for _ in range(PLACE_ATTEMPTS if feasible else 0):
        rects = []
        remaining = target_total
        for b in range(k):
            per_block = max(MIN_BLOCK * MIN_BLOCK, round(remaining / (k - b)))
            if per_block not in dims:
                dims[per_block] = _closest_area_dims(m, n, per_block)
            placed = False
            for _ in range(PLACE_TRIES):
                rect = _sample_rect(m, n, dims[per_block], rng)
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
        if abs(total - target_total) <= 0.05 * target_total and total < m * n:
            return rects
    raise SpecError(
        f"could not place {k} disjoint blocks at rate {rate} in {m}x{n}; "
        "lower the rate or the block count"
    )


def generate_mask(spec: MaskSpec, m, n) -> np.ndarray:
    """An m x n bool mask (True = observed) with at least one observed cell.

    The missing share follows spec.rate, target = round(rate*m*n) cells:
    scattered blanks exactly target cells; uniblock blanks one rectangle of
    dims >= 4 whose area is the closest to target; multiblock blanks k
    disjoint such rectangles totalling within 5% of target. MaskSpec checks
    the pattern, the rate and k, and this function m and n, each once; the
    seed is checked where its stream is made. A request that cannot be met
    (an empty matrix, a block that does not fit, a mask that would blank
    every cell, blocks that cannot land within 5%) raises SpecError.
    """
    require_int(1, m=m, n=n)
    if spec.pattern == "scattered":
        return _scattered(m, n, spec.rate, spec.seed)
    if m < MIN_BLOCK or n < MIN_BLOCK:
        raise SpecError(
            f"no feasible block: need at least {MIN_BLOCK}x{MIN_BLOCK}, matrix is {m}x{n}"
        )
    if spec.pattern == "uniblock":
        rects = [_one_block(m, n, spec.rate, spec.seed)]
    else:
        rects = _place_blocks(m, n, spec.rate, spec.k, spec.seed)
    mask = np.ones((m, n), dtype=bool)
    for i0, j0, h, w in rects:
        mask[i0 : i0 + h, j0 : j0 + w] = False
    return mask


def apply_mask(x, mask) -> MaskedMatrix:
    """Copy observed entries bit-exactly, put the sentinel elsewhere."""
    x = as_matrix(x)
    mask = as_mask(mask, x.shape)
    return MaskedMatrix(np.where(mask, x, SENTINEL), mask)

