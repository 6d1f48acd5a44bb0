"""The root layer: every root ipflab solves is refined here.

`bisect` is a straight port of scipy's C bisection
(`scipy/optimize/Zeros/bisect.c`) together with the checks of its Python
wrapper in `scipy.optimize`, at scipy's default `rtol` and `maxiter`.  It
does the same float operations in the same order, so every root it refines
has the bits `scipy.optimize.bisect(f, a, b, xtol=xtol)` gives it;
`tests/test_roots.py` compares the two directly.  `first_bracket` is the one
bracket scan.  Keeping them here keeps scipy, and its import time, off
ipflab's import path.
"""

import math
import sys

__all__ = ["bisect", "first_bracket"]

_RTOL = 4 * sys.float_info.epsilon      # scipy's default and smallest rtol
_MAXITER = 100                          # scipy's default iteration cap


def _negative(x):
    """C's signbit: compared instead of multiplied, so no product underflows."""
    return math.copysign(1.0, x) < 0


def bisect(f, a, b, xtol):
    """Root of f in [a, b] by bisection, as scipy.optimize.bisect."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def g(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xa, xb, xtol = float(a), float(b), float(xtol)
    fa, fb = g(xa), g(xb)
    if fa == 0:
        return xa
    if fb == 0:
        return xb
    if _negative(fa) == _negative(fb):
        raise ValueError("f(a) and f(b) must have different signs")
    dm = xb - xa
    for _ in range(_MAXITER):
        dm *= 0.5
        xm = xa + dm
        fm = g(xm)
        if _negative(fm) == _negative(fa):
            xa = xm
        if fm == 0 or abs(dm) < xtol + _RTOL * abs(xm):
            return xm
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")


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
