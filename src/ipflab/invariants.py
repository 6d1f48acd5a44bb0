"""Transcendental invariants of the extremal segments.

Everything here is a scalar consequence of the pair of equations

    2(sin(g*ao) + g*cos(g*ao)) - g*exp(ao) = 0
    a = ao exp(-ao) (1-g^2)^{1/2} (4 - 4 exp(-ao) cos(g*ao) + exp(-2ao))^{-1/2}

where g is the imaginary-to-real eigenvalue ratio.  The first equation is
solved on its negative branch; the magnitude |ao| feeds every downstream
formula.  The deviation of the balance ao - a - ao^2 from zero defines the
dimensionless defect d* and the irreversible lifetime d* * T_rev.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from ._roots import bisect, first_bracket
from .diffusion import LN2, Record, require_finite, require_int
from .errors import InputError, NonFiniteOutputError, NoRootError

# admissible ratio window; evaluation outside it is allowed for diagnostics
GAMMA_DIAPASON = (0.00718, 0.8)

# at g = 0.5 the coupled accounting chain closes only with this tabulated
# value of a, not with the direct formula value ~0.195; both are reported
A_REFERENCE_HALF = 0.252


def _ao_residual(ao: float, gamma: float) -> float:
    if gamma == 0.0:
        # first-order form of the equation as g -> 0: 2(ao + 1) = exp(ao)
        return 2.0 * (ao + 1.0) - math.exp(ao)
    return 2.0 * (math.sin(gamma * ao) + gamma * math.cos(gamma * ao)) - gamma * math.exp(ao)


def solve_ao(gamma: float) -> float:
    """Signed negative-branch root of the boundary-moment equation.

    Bisection to 1e-12 on [-3, -1e-6] if the residual changes sign across
    it, else on the first sign-change cell of 3001 points walking in from
    -1e-6 (the root nearest zero).  gamma >= 0, and at most max/4, where
    the residual's terms are still floats."""
    require_finite(gamma, "gamma", lo=0.0, hi=sys.float_info.max / 4, shape=())
    f = lambda ao: _ao_residual(ao, gamma)
    lo, hi = -3.0, -1e-6
    if f(lo) * f(hi) > 0:
        cell = first_bracket(f, np.linspace(hi, lo, 3001))
        if cell is None:
            raise NoRootError(f"no sign change on [-3, -1e-6] for gamma={gamma}")
        hi, lo = cell
    return bisect(f, lo, hi, xtol=1e-12)


def invariant_a(gamma: float, ao_abs: float) -> float:
    """Companion invariant from the magnitude |ao|; zero at gamma = 1."""
    require_finite(gamma, "gamma", lo=0.0, hi=1.0, shape=())
    require_finite(ao_abs, "ao_abs", shape=())
    if gamma == 1.0:
        return 0.0
    # a Python float, whose -2 ao overflows to -inf without a warning
    ao = abs(float(ao_abs))
    denom = math.sqrt(4.0 - 4.0 * math.exp(-ao) * math.cos(gamma * ao) + math.exp(-2.0 * ao))
    return ao * math.exp(-ao) * math.sqrt(1.0 - gamma * gamma) / denom


def delta_star(ao_abs: float, a: float) -> float:
    """Relative defect of the segment balance, |ao - a - ao^2| / ao^2, for
    ao_abs in [1e-6, 3], the bracket solve_ao searches, and |a| <= 3, which
    keep it finite."""
    require_finite(ao_abs, "ao_abs", lo=1e-6, hi=3.0, shape=())
    require_finite(a, "a", lo=-3.0, hi=3.0, shape=())
    return abs(ao_abs - a - ao_abs * ao_abs) / (ao_abs * ao_abs)


def balance_defect(ao_abs: float, a: float) -> float:
    """Absolute defect d* * ao^2 in nats."""
    return delta_star(ao_abs, a) * ao_abs * ao_abs


def lifetime_ratio(delta: float, t_intervals) -> dict:
    """Reversible segment time and the irreversible remainder it implies."""
    require_finite(delta, "delta", shape=())
    t_intervals = require_finite(t_intervals, "t_intervals")
    with np.errstate(over="ignore"):
        t_rev = float(np.sum(t_intervals))
    out = {"T_rev": t_rev, "T_irr": float(delta) * t_rev}
    require_finite(list(out.values()), "the lifetimes", error=NonFiniteOutputError)
    return out


def _gamma2_of_gamma1(gamma1: float, a: float) -> float:
    denom = gamma1 - 2.0 * a * (gamma1 - 1.0)
    if denom == 0.0:
        raise InputError("gamma2 relation degenerates at this gamma1")
    return 1.0 + (gamma1 - 1.0) / denom

def _ratio_residual(gamma1: float, a: float) -> float:
    """gamma1 - (e^{a g1 g2} - e^a/2) / (e^{a g2} - e^a/2) with g2 = g2(g1).

    Where an exponent is past exp's range, |num/den| exceeds e^15 for every
    gamma1 >= 1.02, far from any root: the residual is then +-inf, never NaN,
    with the sign it has (num > 0 iff a g1 g2 > a - ln 2, den likewise)."""
    try:
        gamma2 = _gamma2_of_gamma1(gamma1, a)
    except InputError:      # gamma1 on gamma2's pole
        return math.inf
    p, r = a * gamma1 * gamma2, a * gamma2
    try:
        ea = math.exp(a)
        return gamma1 - (math.exp(p) - 0.5 * ea) / (math.exp(r) - 0.5 * ea)
    except OverflowError:
        q = a - LN2
        return math.inf if (p > q) != (r > q) else -math.inf


def _ratio_poles(a: float) -> list:
    """gamma1 > 1 where gamma2 blows up (a > 1/2) and where the residual's
    denominator e^{a g2} - e^a/2 vanishes (a (2 ln 2 - 1) > ln 2), ascending:
    the residual changes sign across each without a root."""
    c = a * (2.0 * LN2 - 1.0)
    return sorted(([2.0 * a / (2.0 * a - 1.0)] if a > 0.5 else [])
                  + ([c / (c - LN2)] if c > LN2 else []))


def gamma_ratios(a: float) -> dict:
    """Simultaneous eigenvalue-ratio pair and its equation residuals.

    The second relation gives gamma2 explicitly in terms of gamma1; the
    remaining one-dimensional root problem is bisected on the first
    sign-change cell of 1400 points on [1.02, 8], skipping the cells around
    the residual's poles.  gamma1 = gamma2 = 1 always satisfies the system;
    the nontrivial root (if any) is reported together with the residuals of
    both equations at the reference ratio gamma1 = 3.896 (as given by the
    ranged spectrum) so a failed fit is visible instead of forced.  At
    a = 3.896 / (2 * 2.896) the reference ratio sits on gamma2's pole,
    where the second relation is undefined; both reference residuals are
    then None, and the first one is also None next to that pole, where the
    equation's exponent is past exp's range.  0 < a <= ln(float max), where e^a is still a float.
    """
    require_finite(a, "a", positive=True, hi=math.log(sys.float_info.max),
                   shape=())
    f = lambda g: _ratio_residual(g, a)
    grid = np.linspace(1.02, 8.0, 1400)
    cells = (first_bracket(f, part)
             for part in np.split(grid, np.searchsorted(grid, _ratio_poles(a)))
             if len(part) > 1)
    cell = next((c for c in cells if c is not None), None)
    g1 = None if cell is None else bisect(f, *cell, xtol=1e-12)
    g1_ref = 3.896
    try:
        g2_ref = _gamma2_of_gamma1(g1_ref, a)
    except InputError:      # g1_ref on gamma2's pole
        g2_ref = None
    eq1_ref = None if g2_ref is None else _ratio_residual(g1_ref, a)
    if eq1_ref is not None and not math.isfinite(eq1_ref):
        eq1_ref = None      # past exp's range, next to gamma2's pole
    return {"gamma1": g1,
            "gamma2": None if g1 is None else _gamma2_of_gamma1(g1, a),
            "converged": g1 is not None,
            "residuals": {
                "eq1_at_solution": None if g1 is None else _ratio_residual(g1, a),
                "gamma2_from_gamma1_ref": g2_ref,
                "eq1_at_reference": eq1_ref}}


def optimal_spectrum(n: int, alpha1: float) -> np.ndarray:
    """Ranged eigenvalue spectrum alpha_{i+1} = 0.2567^i 0.4514^{1-i} alpha_1.

    Refused where an entry is 0: for alpha1 = 0, for a tiny alpha1, and for
    n > 548, as 0.2567^548 underflows."""
    require_int(n, "n", lo=1, hi=548)
    require_finite(alpha1, "alpha1", shape=())
    i = np.arange(n, dtype=float)
    spec = np.empty(n)
    spec[0] = alpha1
    if n > 1:
        ii = i[1:]
        spec[1:] = (0.2567 ** ii) * (0.4514 ** (1.0 - ii)) * alpha1
    if not np.all(spec != 0):
        raise InputError(f"the spectrum of n={n}, alpha1={alpha1} has an entry of 0")
    return spec


@dataclass(frozen=True)
class InvariantSet(Record):
    """Complete scalar invariant record at one ratio gamma.

    a_formula is the direct evaluation of the companion equation; a is the
    value used by the downstream accounting (at gamma = 0.5 these differ,
    and the tabulated 0.252 is the one that closes the balance chain to
    the quoted defect 0.044465455, so it takes precedence there).

    The record checks its fields once, when it is built: every float field
    must be a finite number, and ao_abs must lie in [1e-6, 3], the bracket
    solve_ao searches, where delta_star is finite.  Each is refused by
    name, so a reader trusts them and checks only its own domain.
    """

    gamma: float
    ao_signed: float
    ao_abs: float
    a: float
    a_formula: float
    b_o: float
    b: float
    delta_star: float
    defect: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float":
                bounds = (1e-6, 3.0) if f.name == "ao_abs" else (None, None)
                require_finite(getattr(self, f.name), f.name, *bounds, shape=())


def invariant_set(gamma: float) -> InvariantSet:
    """Solve and assemble every invariant at the given ratio, 0 <= gamma <= 1
    (refused by solve_ao and invariant_a otherwise)."""
    ao_signed = solve_ao(gamma)
    ao = abs(ao_signed)
    a_formula = invariant_a(gamma, ao)
    prov = {"ao": "solved", "a": "solved", "b_o": "derived-by-ratio",
            "b": "derived-by-ratio", "delta_star": "solved"}
    a = a_formula
    if abs(gamma - 0.5) < 1e-12:
        a = A_REFERENCE_HALF
        prov["a"] = "tabulated"
    return InvariantSet(gamma=gamma, ao_signed=ao_signed, ao_abs=ao,
                        a=a, a_formula=a_formula,
                        b_o=gamma * ao, b=gamma * a,
                        delta_star=delta_star(ao, a),
                        defect=balance_defect(ao, a), provenance=prov)
