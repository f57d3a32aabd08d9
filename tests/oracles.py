"""Gradient oracles for the tests, independent of the analytic backward pass."""

import numpy as np


def fd_gradient(f, arrays: dict, step: float = 1e-5) -> dict:
    """Central finite differences of scalar f() w.r.t. every entry of arrays.

    f must read the given arrays by reference; the tests check net_backward
    and the composite training losses against it.
    """
    out = {}
    for name, a in arrays.items():
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f()
            flat[i] = orig - step
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        out[name] = g
    return out


def max_rel_error(analytic: dict, numeric: dict, floor: float = 1e-3) -> float:
    """Largest |a-n| / max(|a|, |n|, floor) over all parameter entries."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
