"""Robustness contract of normalize -> pretrain -> train.

On any valid input the pipeline either imputes a finite matrix whose
observed cells are bit-exact copies of the normalized data, or raises a
BlockEchoError subclass; any other exception is a bug.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockecho import gan, mf
from blockecho.data import SYNTHETIC_KINDS, SyntheticSpec, gen_synthetic
from blockecho.errors import BlockEchoError, SpecError
from blockecho.masking import PATTERNS, MaskedMatrix, MaskSpec, generate_mask
from blockecho.metrics import normalize


def build_mask(pattern, m, n, rate, seed):
    """The requested pattern where it fits, else scattered, else all missing:
    the pipeline must cope with each (the last by raising)."""
    k = 2 if pattern == "multiblock" else 0
    try:
        return generate_mask(MaskSpec(pattern, rate, seed, k=k), m, n)
    except SpecError:
        pass
    try:
        return generate_mask(MaskSpec("scattered", rate, seed), m, n)
    except SpecError:
        return np.zeros((m, n))


@st.composite
def instances(draw):
    m = draw(st.integers(1, 14))
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(SYNTHETIC_KINDS))
    seed = draw(st.integers(0, 2**16))
    x = gen_synthetic(SyntheticSpec(kind, m, n, seed=seed)).values
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        x[:, j] = draw(st.sampled_from([0.0, 1.0, 7.5]))  # constant column
    pattern = draw(st.sampled_from(PATTERNS))
    rate = draw(st.floats(0.05, 0.97))
    mask = build_mask(pattern, m, n, rate, seed)
    mask[draw(st.lists(st.integers(0, m - 1), max_size=2))] = 0.0  # dead rows
    mask[:, draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0  # dead columns
    batch = draw(st.sampled_from([None, 1, m]))
    cfg = gan.BlockEchoConfig(
        iters=draw(st.integers(0, 3)), batch_rows=batch, seed=seed,
        alpha=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    return x, mask, cfg, draw(st.integers(1, 4))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(instances())
def test_pipeline_imputes_or_raises_a_toolkit_error(case):
    x, mask, cfg, pretrain_iters = case
    try:
        xn, _ = normalize(x, mask)
        xm = MaskedMatrix(xn, mask)
        h = cfg.resolved(*x.shape).h
        pre, _ = mf.pretrain(xm, h, max_iters=pretrain_iters, seed=cfg.seed)
        _, result = gan.train(xm, pre, cfg)
    except BlockEchoError:
        return
    obs = mask > 0
    assert np.all(np.isfinite(result.imputed))
    assert np.array_equal(result.imputed[obs], xn[obs])
