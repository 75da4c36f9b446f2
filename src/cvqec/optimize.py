"""One-dimensional minimization: coarse grid scan plus golden-section refinement.

It serves the one optimum without a closed form, the qudit scheme's drive
strength (``protocol.optimize_qudit_alpha``).  That variance curve is
cheap, smooth and unimodal except for oscillatory shoulders at large
ancilla dimension, which the grid scan guards against.  The objective
takes the whole scan grid as one array, then one scalar per step.
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
    units, or to 1e-12 of the bracket's upper end where the float spacing
    there is wider than ``tol``.  ``f`` maps the scan grid, one 1-D array,
    to its values in one call; every later call passes one scalar.
    Non-finite values raise; a refinement that fails to beat the grid
    falls back to the best grid point with a warning.
    """
    if not lower < upper:
        raise ValueError("need lower < upper")
    if lower > 0:
        grid = np.geomspace(lower, upper, _GRID_POINTS)
    else:
        grid = np.linspace(lower, upper, _GRID_POINTS)
    vals = np.asarray(f(grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("objective returned a non-finite value on the scan grid")
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, _GRID_POINTS - 1)]

    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > max(tol, 1e-12 * abs(b)):
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
