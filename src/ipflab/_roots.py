"""The root layer: every root ipflab solves is refined here.

`bisect` and `brentq` are straight ports of scipy's C solvers
(`scipy/optimize/Zeros/bisect.c` and `brentq.c`, the latter after Brent,
"Algorithms for Minimization without Derivatives", 1973) together with the
checks of their Python wrappers in `scipy.optimize`.  They do the same float
operations in the same order, so every root keeps the bits scipy gives it;
`tests/test_roots.py` compares them with scipy directly.  Keeping them here
keeps scipy, and its import time, off ipflab's import path.
"""

import math
import sys

__all__ = ["bisect", "brentq", "first_bracket"]

_XTOL = 2e-12
_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100


def _checked(f, args, xtol, rtol, maxiter):
    """f(x, *args) as a float, raising on NaN; refuses scipy's bad tolerances."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def g(x):
        fx = float(f(x, *args))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    return g


def _negative(x):
    """C's signbit: compared instead of multiplied, so no product underflows."""
    return math.copysign(1.0, x) < 0


def bisect(f, a, b, args=(), xtol=_XTOL, rtol=_RTOL, maxiter=_MAXITER):
    """Root of f in [a, b] by bisection, as scipy.optimize.bisect."""
    f = _checked(f, args, xtol, rtol, maxiter)
    xa, xb, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    fa, fb = f(xa), f(xb)
    if fa == 0:
        return xa
    if fb == 0:
        return xb
    if _negative(fa) == _negative(fb):
        raise ValueError("f(a) and f(b) must have different signs")
    dm = xb - xa
    for _ in range(maxiter):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if _negative(fm) == _negative(fa):
            xa = xm
        if fm == 0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def brentq(f, a, b, args=(), xtol=_XTOL, rtol=_RTOL, maxiter=_MAXITER):
    """Root of f in [a, b] by Brent's method, as scipy.optimize.brentq."""
    f = _checked(f, args, xtol, rtol, maxiter)
    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _negative(fpre) == _negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _negative(fpre) != _negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                q = dblk * dpre * (fblk - fpre)
                # q underflows to 0 only for tiny slopes; C then gets an
                # inf or nan stry, which never passes for a short step
                stry = -fcur * (fblk * dblk - fpre * dpre) / q if q else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry         # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


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
