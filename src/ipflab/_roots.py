"""The root layer, the only module that imports scipy: every root ipflab
solves is refined by scipy's bisect or brentq, re-exported from here."""

import math

from scipy.optimize import bisect, brentq

__all__ = ["bisect", "brentq", "first_bracket"]


def first_bracket(f, grid):
    """First cell (grid[k], grid[k+1]) whose ends are finite and of strictly
    opposite sign, or None.  f is called in grid order and never past the
    cell returned.  Signs are compared rather than multiplied, so an
    underflowing product cannot hide a sign change."""
    lo, f_lo = grid[0], f(grid[0])
    for hi in grid[1:]:
        f_hi = f(hi)
        if math.isfinite(f_lo) and math.isfinite(f_hi) and (f_lo < 0 < f_hi or f_hi < 0 < f_lo):
            return lo, hi
        lo, f_lo = hi, f_hi
    return None
