"""Mask generation and masked-matrix assembly.

A mask is an m x n bool matrix, True = observed: one byte per cell. Every
function that takes a mask checks it with as_mask, which also accepts
exact {0, 1} numbers and reads them as False/True. Being bool, a mask does
not negate with -mask (that raises; use ~mask), and 1 - mask is an int
array. Three missingness patterns are supported: scattered cells, a single
contiguous block, and k separate blocks. Blocks are rectangles of at least
4x4 cells (the minimum extent that counts as block-wise rather than
scattered).

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
PLACE_ATTEMPTS = 200  # fresh starts of gen_multiblock's block placement
PLACE_TRIES = 60      # random positions tried per block within one start


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
        _check_rate(self.rate, k=self.k)
        if self.pattern == "multiblock" and self.k < 2:
            raise SpecError(f"multiblock needs k >= 2, got {self.k}")


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


def _check_rate(rate, **ints):
    """SpecError unless rate is a real number in (0, 1) and every other value an integer."""
    require_int(**ints)
    require_real(rate=rate)
    if not 0.0 < rate < 1.0:
        raise SpecError(f"rate must lie in (0, 1), got {rate}")


def _check_args(m, n, rate, **ints):
    """_check_rate, plus SpecError unless m x n has at least one cell."""
    _check_rate(rate, m=m, n=n, **ints)
    if m < 1 or n < 1:
        raise SpecError(f"matrix size {m}x{n} is empty")


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


def gen_scattered(m, n, rate, seed) -> np.ndarray:
    """Exactly round(rate*m*n) missing cells: those with the lowest scores in
    a seeded random m x n matrix, the lower flat index winning a tie."""
    _check_args(m, n, rate)
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


def gen_uniblock(m, n, rate, seed) -> np.ndarray:
    """One contiguous missing rectangle with dims >= 4, area as close as
    possible to round(rate*m*n); SpecError if the whole matrix is one of the
    closest rectangles."""
    _check_args(m, n, rate)
    if m < MIN_BLOCK or n < MIN_BLOCK:
        raise SpecError(
            f"no feasible block: need at least {MIN_BLOCK}x{MIN_BLOCK}, matrix is {m}x{n}"
        )
    pairs = _closest_area_dims(m, n, round(rate * m * n))
    if (m, n) in pairs:
        raise SpecError(f"rate {rate} would blank the whole {m}x{n} matrix")
    i0, j0, h, w = _sample_rect(m, n, pairs, make_rng(seed))
    mask = np.ones((m, n), dtype=bool)
    mask[i0 : i0 + h, j0 : j0 + w] = False
    return mask


def _rects_overlap(a, b):
    # half-open rectangles; touching edges is allowed
    ai, aj, ah, aw = a
    bi, bj, bh, bw = b
    return ai < bi + bh and bi < ai + ah and aj < bj + bw and bj < aj + aw


def _place_blocks(m, n, rate, k, seed):
    """k disjoint rectangles totalling within 5% of round(rate*m*n) cells and
    leaving at least one cell uncovered, or SpecError."""
    if m < MIN_BLOCK or n < MIN_BLOCK:
        raise SpecError(f"no feasible block in a {m}x{n} matrix")
    if k < 1:
        raise SpecError(f"need at least one block, got k={k}")
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


def gen_multiblock(m, n, rate, k, seed) -> np.ndarray:
    """k disjoint missing rectangles, each >= 4x4, total within 5% of target."""
    _check_args(m, n, rate, k=k)
    mask = np.ones((m, n), dtype=bool)
    for i0, j0, h, w in _place_blocks(m, n, rate, k, seed):
        mask[i0 : i0 + h, j0 : j0 + w] = False
    return mask


def generate_mask(spec: MaskSpec, m, n) -> np.ndarray:
    """An m x n bool mask (True = observed) with at least one observed cell.

    The missing share follows spec.rate, target = round(rate*m*n) cells:
    scattered blanks exactly target cells; uniblock blanks one rectangle of
    dims >= 4 whose area is the closest to target; multiblock blanks k
    disjoint such rectangles totalling within 5% of target. A request that
    cannot be met (a block that does not fit, a mask that would blank every
    cell, blocks that cannot land within 5%) raises SpecError.
    """
    if spec.pattern == "scattered":
        return gen_scattered(m, n, spec.rate, spec.seed)
    if spec.pattern == "uniblock":
        return gen_uniblock(m, n, spec.rate, spec.seed)
    return gen_multiblock(m, n, spec.rate, spec.k, spec.seed)


def apply_mask(x, mask) -> MaskedMatrix:
    """Copy observed entries bit-exactly, put the sentinel elsewhere."""
    x = as_matrix(x)
    mask = as_mask(mask, x.shape)
    return MaskedMatrix(np.where(mask, x, SENTINEL), mask)

