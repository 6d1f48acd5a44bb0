"""Hierarchical information network: triplet nodes, accounting, and code.

Triplet accounting at ratio g follows the two-interval timing chain: the
first interval ratio is g13 = 1 + ao(0)/a (the post-needle segment is
real, so it carries the maximal real invariant ao at g = 0), the second
follows from the eigenvalue-ratio relation, each delivery d = a(g-1) is
consumed through the renovation map |x e^x (2 - e^x)^{-1}| at x = -d (the
eigenchain's renovated eigenvalue after a unit segment at -d), and the
doublet balance closes on ao^2 up to twice the defect.  Networks chain
these triplets: the first three ranged eigenvalues form node 1; every
later node joins the running node with the next two entries.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .control import SegmentSchedule
from .diffusion import LN2, Record, require_finite, require_int
from .eigenchain import eigen_step
from .errors import InputError, NonFiniteOutputError
from .invariants import InvariantSet, _gamma2_of_gamma1, invariant_set, optimal_spectrum, solve_ao

# bit mapping of the switch letters: A = regular step switch (0),
# B = needle consolidation (1)
LETTER_REGULAR = "A"
LETTER_NEEDLE = "B"


@dataclass(frozen=True)
class TripletReport(Record):
    gamma: float
    ao_abs: float
    a: float
    delta_star: float
    gamma13: float
    gamma23: float
    total_nats: float
    total_bits: float
    node_transfer_nats: float
    node_bits: float
    balance_residual: float
    contributions: dict


def triplet_accounting(inv: InvariantSet) -> TripletReport:
    """Information ledger of one triplet built from a complete invariant
    set, whose a must be in (0, 3]."""
    require_finite(inv.a, "a", positive=True, hi=3.0)
    ao = inv.ao_abs
    a = inv.a
    ao_real = abs(solve_ao(0.0))
    gamma13 = 1.0 + ao_real / a
    gamma23 = _gamma2_of_gamma1(gamma13, a)
    require_finite([gamma13, gamma23], f"the interval ratios at a={a}",
                   error=NonFiniteOutputError)
    deliver1 = a * (gamma13 - 1.0)
    deliver2 = a * (gamma23 - 1.0)
    consumed1 = abs(eigen_step(-deliver1, 1.0))
    consumed2 = abs(eigen_step(-deliver2, 1.0))
    defect = inv.defect
    closure = consumed1 + consumed2 + 2.0 * defect
    total = 4.0 * ao * ao + 3.0 * a
    node_transfer = ao * ao + a - defect
    return TripletReport(
        gamma=inv.gamma, ao_abs=ao, a=a, delta_star=inv.delta_star,
        gamma13=gamma13, gamma23=gamma23,
        contributions={"deliver1": deliver1, "deliver2": deliver2,
                       "consumed1": consumed1, "consumed2": consumed2,
                       "defect": defect, "closure": closure},
        total_nats=total, total_bits=total / LN2,
        node_transfer_nats=node_transfer, node_bits=node_transfer / LN2,
        balance_residual=closure - ao * ao)


@dataclass(frozen=True)
class InfoNetwork(Record):
    nodes: list            # per node: level, members, alpha_joined, t_r, info
    code: str
    totals: dict
    flags: list = field(default_factory=list)

    def to_outline(self) -> str:
        lines = []
        for node in self.nodes:
            pad = "  " * (node["level"] - 1)
            lines.append(f"{pad}node {node['level']}: alpha_r3={node['alpha_r3']:.6g} "
                         f"t_r={node['t_r']:.6g} info_bits={node['info_bits']:.6g}")
            for m in node["members"]:
                lines.append(f"{pad}  member alpha={m:.6g}")
        lines.append(f"code: {self.code}")
        return "\n".join(lines)


def build_in(n: int, gamma: float, alpha1: float) -> InfoNetwork:
    """Assemble the triplet hierarchy from the ranged spectrum.

    Node 1 joins the first three spectrum entries; each later node joins
    the running node with the next pair.  The joined eigenvalue of a node
    is 3 * (a/ao) * (magnitude of its last member), its cooperation time
    is ao over that value, and the per-node information is the triplet
    node transfer.  An even n leaves one entry over; it is attached to
    the last node and flagged.
    """
    require_int(n, "n", lo=1)
    require_finite(gamma, "gamma", lo=0.0, hi=1.0, shape=())
    require_finite(alpha1, "alpha1", shape=())
    flags = []
    if n < 3:
        warnings.warn("fewer than three eigenvalues: no cooperation possible")
        return InfoNetwork(nodes=[], code="", flags=["no-cooperation"],
                           totals={"total_nats": 0.0, "total_bits": 0.0,
                                   "node_count": 0})
    inv = invariant_set(gamma)
    report = triplet_accounting(inv)
    # an alpha_r3 of at least this keeps t_r = |ao| / alpha_r3 finite:
    # |ao| / max is rounded, so the next float up bounds it from above
    min_alpha_r3 = math.nextafter(inv.ao_abs / sys.float_info.max, math.inf)
    # node 1's alpha_r3 is below 3 (a/ao) |alpha1|: an alpha1 too small for
    # that is refused here, before its spectrum underflows to 0
    if not 3.0 * (inv.a / inv.ao_abs) * abs(alpha1) >= min_alpha_r3:
        raise InputError(f"alpha1={alpha1} is too close to 0: the cooperation "
                         f"time of node 1 overflows")
    spectrum = optimal_spectrum(n, alpha1)

    nodes = []
    idx = 3
    members = list(spectrum[:3])
    level = 1
    while True:
        ending = members[-1]
        alpha_jt = (inv.a / inv.ao_abs) * abs(ending)
        alpha_r3 = 3.0 * alpha_jt
        if not alpha_r3 >= min_alpha_r3:
            raise InputError(f"alpha1={alpha1} is too close to 0: the cooperation "
                             f"time of node {level} overflows")
        nodes.append({
            "level": level,
            "members": [float(m) for m in members],
            "alpha_jt": alpha_jt,
            "alpha_r3": alpha_r3,
            "t_r": inv.ao_abs / alpha_r3,
            "info_nats": report.node_transfer_nats,
            "info_bits": report.node_bits,
        })
        if idx + 2 <= n:
            members = [alpha_r3, float(spectrum[idx]), float(spectrum[idx + 1])]
            idx += 2
            level += 1
        else:
            break
    if idx < n:
        # even n: one unpaired entry left over
        nodes[-1]["members"].append(float(spectrum[idx]))
        nodes[-1]["leftover_attached"] = True
        flags.append("even-n-leftover-attached")

    code = "".join(LETTER_REGULAR * 3 + LETTER_NEEDLE for _ in nodes)
    total_nats = report.node_transfer_nats * len(nodes)
    return InfoNetwork(nodes=nodes, code=code, flags=flags,
                       totals={"total_nats": total_nats,
                               "total_bits": total_nats / LN2,
                               "node_count": len(nodes)})


def emit_code(obj) -> str:
    """Letter sequence of the control switches.

    For a network the code is already formed (four letters per node).  For
    a segment schedule every regular switch contributes one letter and
    every needle event with a nonzero jump contributes another.
    """
    if isinstance(obj, InfoNetwork):
        return obj.code
    if isinstance(obj, SegmentSchedule):
        letters = []
        needles = {round(e.tau, 12): e for e in obj.needle_events}
        for seg in obj.segments:
            letters.append(LETTER_REGULAR)
            e = needles.get(round(seg.t_end, 12))
            if e is not None and np.linalg.norm(np.atleast_1d(e.delta_v)) > 0:
                letters.append(LETTER_NEEDLE)
        return "".join(letters)
    raise InputError("emit_code expects a SegmentSchedule or InfoNetwork")


def max_ratio_check(n: int) -> dict:
    """Spread of the ranged spectrum against the quoted growth formula;
    the ratio and the gap are None for n < 1, which has no spectrum."""
    require_int(n, "n")
    # first, as it refuses the n past the float range
    spec = optimal_spectrum(n, 1.0) if n >= 1 else None
    formula = 2.21 * 3.89 ** (n / 2.0)
    if spec is None:
        return {"spectrum_ratio": None, "formula_value": formula,
                "relative_gap": None}
    ratio = abs(spec[0] / spec[-1])
    gap = abs(ratio - formula) / formula
    return {"spectrum_ratio": ratio, "formula_value": formula,
            "relative_gap": gap}
