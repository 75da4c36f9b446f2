"""One-dimensional minimization: coarse grid scan plus golden-section refinement.

The variance curves being minimized are cheap, smooth and unimodal except
for oscillatory shoulders at large ancilla dimension, which the grid scan
guards against.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = ["minimize_scalar"]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 32


def minimize_scalar(f, lower: float, upper: float, tol: float = 1e-6):
    """Minimize ``f`` on ``[lower, upper]``; returns ``(argmin, min_value)``.

    A 32-point scan (log-spaced when the bracket is positive) picks the
    bracketing interval, golden-section refines it to ``tol`` in argument
    units.  Non-finite values raise; a refinement that fails to beat the
    grid falls back to the best grid point with a warning.
    """
    if not lower < upper:
        raise ValueError("need lower < upper")
    if lower > 0:
        grid = np.geomspace(lower, upper, _GRID_POINTS)
    else:
        grid = np.linspace(lower, upper, _GRID_POINTS)
    vals = np.array([f(x) for x in grid], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("objective returned a non-finite value on the scan grid")
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, _GRID_POINTS - 1)]

    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if not (math.isfinite(fc) and math.isfinite(fd)):
            raise ValueError("objective returned a non-finite value during refinement")
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    fx = f(x)
    if fx > vals[i]:
        warnings.warn("golden-section refinement did not improve on the grid scan; "
                      "objective may not be unimodal", stacklevel=2)
        return float(grid[i]), float(vals[i])
    return float(x), float(fx)
