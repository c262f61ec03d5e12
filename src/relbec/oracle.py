"""Finite-volume oracle: the thermal charge density as a discrete sum over
periodic-box momentum modes, plus the isolated zero-momentum condensate
mode.

Modes live on k = (2 pi / L) n with integer vector n != 0. Degenerate
modes are grouped by |n|^2, so a direct sum costs one occupation
evaluation per lattice shell. Boxes with mode_cutoff <= 64 are summed
directly, truncated at |n| <= mode_cutoff. Cutoff 65, the largest BoxSpec
takes, makes the split box: it sums every n != 0 by splitting the Bose
occupation into a Boltzmann head and a remainder,

    1/(e^x - 1) = sum_{j=1..J} e^{-j x} + e^{-J x}/(e^x - 1),

and summing the head over the whole lattice in its winding-number
(Poisson) form, in which every term but the first few windings is
negligible; the remainder dies out within a few hundred shells. Both
charges share one remainder pass, weighted by one float64 table of shell
degeneracies. A split box's work depends on t and L alone. modes_used
counts 0 < |n| <= mode_cutoff without a pass of its own: a direct box
adds up the degeneracies it weighs its shells with, and the split box
takes the one count at cutoff 65.
"""
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import k0e, k1e

from .errors import (BudgetExceeded, DivergentCondensateMode, InvalidArgument,
                     TailTooLarge)
from .limits import zeta_int
from .quadrature import _MEASURE
from .statistics import _bose, _gap
from .types import (_SPLIT_CUTOFF, BoxSpec, PhasePoint, require_finite,
                    require_real, require_temperature)

# Boxes with mode_cutoff^2 up to this many shells, cutoffs below the split
# box's, are summed directly and truncated at the cutoff; the split box
# takes the split sum over every n != 0.
_DIRECT_SHELLS = (_SPLIT_CUTOFF - 1) ** 2
# Boltzmann terms in the head per unit of t*L: J = floor(_SPLIT t L) keeps
# beta = j/t <= _SPLIT L. There the n != 0 part of the lattice sum of
# e^{-beta E_n} is not small next to the n = 0 term subtracted from it:
# about one digit is lost at L ~ 1, none for L >> 1.
_SPLIT = 1.0
# Every winding shell and every remainder shell left out is below e^{-40}
# of the largest term of its sum.
_MARGIN = 40.0
# Work budgets of one mode sum, checked before anything is allocated, each
# ~0.15 s at its budget on 2 vCPUs: lattice shells with counted
# degeneracies (r3), and Boltzmann terms J * (winding shells + 1) (~0.14 us
# each).
_MAX_SHELLS = 200_000
_MAX_TERMS = 1 << 20


@dataclass(frozen=True)
class ModeSumResult:
    """Finite-volume densities with truncation diagnostics (see mode_sum);
    modes_used counts 0 < |n| <= mode_cutoff, also for the split box, whose
    sum does not stop there: 1149650 at cutoff 65. A split box's
    tail_bound bounds what its margins leave out, not the ~1 ulp rounding
    of the returned doubles."""

    q_tilde_fv: float
    n1_fv: float
    n2_fv: float
    modes_used: int
    tail_bound: float


def _shell_counts(max_m: int) -> np.ndarray:
    """r3[m] = number of integer lattice vectors with |n|^2 = m, m <= max_m,
    by direct shift-and-add convolutions. The table is float64, as its
    callers weigh doubles with it; every entry and partial sum is an integer
    below 2^53, so each is exact. Each shift adds a doubled copy of the
    source row in place."""
    n_sq = math.isqrt(max_m)
    r1 = np.zeros(max_m + 1)
    r1[0] = 1.0
    r1[np.arange(1, n_sq + 1) ** 2] = 2.0
    table = r1
    for _ in range(2):  # r1 -> r2 -> r3
        doubled = 2.0 * table
        for z in range(1, n_sq + 1):
            table[z * z:] += doubled[:max_m + 1 - z * z]
    return table


def _excess_factor(gap0: float, offset: float, t: float) -> float:
    """c = 1/(1 - e^{-x_min}), x_min = (gap0 + offset)/t, so that
    1/(e^x - 1) <= c e^{-x} for every x >= x_min. offset = 1 -+ mu comes
    whole, not as 1 and -+mu, so that it is 0 at |mu| = 1 however small
    gap0 is."""
    return 1.0 / -math.expm1(-(gap0 + offset) / t)


def _tail_bound(phase: PhasePoint, box: BoxSpec) -> float:
    """Analytic bound on the density carried by modes with |n| > cutoff.

    The lattice tail is bounded by the integral of the exponential
    envelope k^2 e^{-(k -+ mu)/t} from one mode-spacing inside the cutoff,
    using 1/(e^x - 1) <= c e^{-x} with c = 1/(1 - e^{-x_min}). The two
    exponentials are taken as one, e^{(+-mu - k0)/t}, since each alone
    leaves the double range once t < ~1e-3; past e^709 the bound is inf.
    Where that exponential underflows to 0 its term is 0, also where the
    envelope, through (k0/t)^2, has overflowed.
    """
    t, mu = phase.t, phase.mu
    dk = 2.0 * math.pi / box.box_length
    k0 = dk * max(box.mode_cutoff - 1, 1)
    x = k0 / t
    envelope = t ** 3 * (x * x + 2.0 * x + 2.0)
    gap0 = _gap(k0 * k0)
    total = 0.0
    for sgn in (+1.0, -1.0):
        c = _excess_factor(gap0, 1.0 - sgn * mu, t)
        exponent = (sgn * mu - k0) / t
        decay = math.exp(exponent) if exponent < 709.0 else math.inf
        if decay:  # a zero factor makes a zero term, also against inf
            total += _MEASURE * c * envelope * decay
    return total


def _density_floor(phase: PhasePoint, box: BoxSpec) -> float:
    """Lower bound on n1 + n2 summed over every mode n != 0 of the box.

    Each occupation is at least e^{-(1 -+ mu)/t} e^{-(E - 1)/t}, and
    E - 1 <= min(k^2/2, k). With k^2/2 the lattice sum is theta(a)^3 - 1,
    a = 2 pi^2/(L^2 t), theta(a) = sum_n e^{-a n^2}, summed directly for
    a >= pi and by Poisson summation below. With k it is at least a
    quarter of the integral over |n| >= sqrt(3): every n != 0 outweighs
    the unit cube beyond it in each of the at most 4 octants holding it.
    Each series is cut after 3 terms, which only lowers the bound. Powers
    are written as products and quotients, which saturate at 0 or inf
    where ** would raise.
    """
    t, length = phase.t, box.box_length
    weight = (math.exp(-(1.0 - phase.mu) / t)
              + math.exp(-(1.0 + phase.mu) / t))
    p = 0.5 * length * length * t  # pi^2 / a
    if p <= math.pi:
        a = math.pi ** 2 / p if p > 0.0 else math.inf
        u = 2.0 * sum(math.exp(-a * n * n) for n in (1, 2, 3))
        gauss = u * (3.0 + u * (3.0 + u)) / length / length / length
    else:
        r = math.sqrt(t / (2.0 * math.pi)) * (
            1.0 + 2.0 * sum(math.exp(-p * w * w) for w in (1, 2, 3)))
        gauss = r * r * r - 1.0 / length / length / length
    # past y = 1e3, e^{-y} is 0 and y^2 would make inf * 0
    y = min(2.0 * math.pi * math.sqrt(3.0) / length / t, 1e3)
    octant = (0.25 * _MEASURE * t * t * t * (y * y + 2.0 * y + 2.0)
              * math.exp(-y))
    return weight * max(gauss, octant)


def suggest_cutoff(phase: PhasePoint, box_length: float,
                   tail_rel_tol: float = 1e-5) -> int:
    """Smallest mode cutoff up to 64 whose tail bound is below tail_rel_tol
    times a scale of the summed densities: the UR estimate
    2 zeta(3) t^3/pi^2, capped at 9 times _density_floor. With the default
    tolerances the box then passes mode_sum's own check, whose 1e-4 is ten
    times looser. Where no cutoff up to 64 reaches it, 65, the cutoff of
    the split box, which mode_sum sums over every n != 0.

    The bound falls monotonically with the cutoff, so the search probes 64
    and then bisects: at most 7 bound evaluations.
    """
    t = phase.t
    box = BoxSpec(box_length, 2)
    box_length = box.box_length
    _require_scales("suggest_cutoff", phase, box_length)
    tail_rel_tol = _require_tolerance("suggest_cutoff", phase, box_length,
                                      tail_rel_tol)
    scale = min(2.0 * zeta_int(3) * t ** 3 / math.pi ** 2,
                9.0 * _density_floor(phase, box))
    limit = tail_rel_tol * scale

    def above(cutoff):
        return _tail_bound(phase, BoxSpec(box_length, cutoff)) > limit

    lo, hi = 1, _SPLIT_CUTOFF - 1  # cutoffs 1 and 2 share a bound
    if above(hi):
        return _SPLIT_CUTOFF
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _require_scales(operation: str, phase: PhasePoint, length: float):
    """Raise InvalidArgument unless the density scale t^3 and the volume
    L^3 are normal doubles, the range in which the oracle's sums and
    bounds neither overflow nor divide by zero."""
    t = phase.t
    if not all(sys.float_info.min <= v * v * v <= sys.float_info.max
               for v in (t, length)):
        raise InvalidArgument(
            f"{operation} at t = {t}, mu = {phase.mu}, L = {length}: t^3 and "
            f"L^3 must lie within the normal doubles")


def _require_tolerance(operation: str, phase: PhasePoint, length: float,
                       tail_rel_tol: float) -> float:
    """tail_rel_tol as a Python float; raise InvalidArgument unless it is
    >= 0 (inf included): a NaN limit would pass every tail check and a
    negative one none."""
    tail_rel_tol = require_real("tail_rel_tol", tail_rel_tol)
    if not tail_rel_tol >= 0.0:
        raise InvalidArgument(
            f"{operation} at t = {phase.t}, mu = {phase.mu}, L = {length}: "
            f"tail_rel_tol must be >= 0, got {tail_rel_tol}")
    return tail_rel_tol


def _plan(phase: PhasePoint, box: BoxSpec):
    """(J, direct shells, winding shells) of one box, within the budgets.

    The remainder e^{-J x}/(e^x - 1) falls like e^{-(J + 1) gap/t}, so
    shells whose gap exceeds the first shell's by _MARGIN t/(J + 1) are
    left out. Winding w weighs e^{-(rho_w - beta)} against w = 0, with
    rho_w = sqrt(beta^2 + L^2 |w|^2), so shells with rho_w - beta >
    _MARGIN at the largest beta = J/t are left out: shell m is kept
    exactly when L^2 m <= (beta + _MARGIN)^2 - beta^2. Every quantity is
    clamped before it is rounded, so no input overflows the plan.
    """
    t = phase.t
    length, cutoff = box.box_length, box.mode_cutoff
    max_m = cutoff * cutoff
    if max_m <= _DIRECT_SHELLS:
        return 0, max_m, 0
    j_max = math.floor(min(_SPLIT * t * length, _MAX_TERMS + 1.0))
    k1 = 2.0 * math.pi / length
    gap = float(_gap(k1 * k1)) + _MARGIN * t / (j_max + 1)
    half = length / (2.0 * math.pi)
    m_direct = math.ceil(min(_MAX_SHELLS + 1.0,
                             gap * (gap + 2.0) * half * half))
    lw2 = (2.0 * j_max / t + _MARGIN) * _MARGIN if j_max else 0.0
    m_wind = math.floor(min(_MAX_SHELLS + 1.0, lw2 / length / length))
    if (max(m_direct, m_wind) > _MAX_SHELLS
            or j_max * (m_wind + 1) > _MAX_TERMS):
        raise BudgetExceeded(
            f"mode_sum at t = {t}, mu = {phase.mu}, L = {length} with "
            f"cutoff {cutoff}: needs J = {j_max}, {m_direct} direct and "
            f"{m_wind} winding shells; the budgets are {_MAX_SHELLS} shells "
            f"and {_MAX_TERMS} terms J * (winding shells + 1)")
    return j_max, m_direct, m_wind


def _k2e(x: np.ndarray) -> np.ndarray:
    """K2(x) e^x, by the recurrence K2 = K0 + (2/x) K1 (DLMF 10.29.1) from
    the scaled K0 and K1: within 2e-15 of scipy's kve(2, x) for x in
    [1e-6, 1e5], at about a third of its cost."""
    return k0e(x) + 2.0 * k1e(x) / x


def _boltzmann_head(t: float, length: float, j_max: int,
                    shells: np.ndarray) -> np.ndarray:
    """(1/L^3) sum over n != 0 of e^{-j (E_n - 1)/t}, for j = 1..J, from
    the degeneracies shells[m] = r3[m] of the winding shells m kept.

    Poisson summation turns the lattice sum into windings w:
    (1/L^3) sum_n e^{-beta E_n} = sum_w beta K2(rho_w) / (2 pi^2 rho_w^2),
    with beta = j/t and rho_w = sqrt(beta^2 + L^2 |w|^2). The n = 0 term
    e^{-beta}/L^3 is subtracted. Both sides carry e^{beta}, so K2 enters
    scaled, _k2e(rho) e^{-(rho - beta)}.
    """
    beta = np.arange(1, j_max + 1)[:, None] / t
    lw2 = length * length * np.arange(len(shells), dtype=float)
    rho = np.sqrt(beta * beta + lw2)
    terms = _k2e(rho) * np.exp(-lw2 / (rho + beta)) / (rho * rho)
    terms *= shells
    return _MEASURE * beta[:, 0] * terms.sum(axis=1) - 1.0 / length ** 3


def _lattice_tail(radius: float, rate: float) -> float:
    """Bound on the sum of f(|n|) over integer vectors |n| >= radius >= 1,
    in units of f(radius), for a falling f <= f(radius) e^{-rate (r -
    radius)}: summed by parts against the volume radius - h <= |x| <= r + h,
    h = sqrt(3)/2, which holds the unit cubes of radius <= |n| <= r."""
    h = 0.5 * math.sqrt(3.0)
    a = radius + h
    return 4.0 * math.pi * ((a * a * a - (radius - h) ** 3) / 3.0
                            + (a * a + (2.0 * a + 2.0 / rate) / rate) / rate)


def _cut_bound(phase: PhasePoint, length: float, plan, weights, heads):
    """Bound on the n1 + n2 that a split box's two _MARGIN cuts leave out.

    Remainder shells past m_direct, from |n| = R: e^{-J x}/(e^x - 1) <=
    c e^{-(J + 1) x}, c = _excess_factor there, and the convex gap is at
    least its tangent at k0 = R dk, of slope k0/(gap0 + 1). Windings past
    m_wind, from |w| = R_w: K2(x) sqrt(x) e^x decreases, so a term is at
    most e^{-(rho_w - beta)} times the w = 0 one of its j, which the head
    plus its n = 0 term bounds; rho_w - beta falls with beta, so J/t bounds
    every j, and it is convex in |w|, of slope L^2 R_w/rho_w at R_w.
    """
    t, (j_max, m_direct, m_wind) = phase.t, plan
    dk = 2.0 * math.pi / length
    radius = math.sqrt(m_direct + 1.0)
    k0 = dk * radius
    gap0 = float(_gap(k0 * k0))
    shells = _lattice_tail(radius, (j_max + 1) / t * dk * k0 / (gap0 + 1.0))
    beta, lr = j_max / t, length * math.sqrt(m_wind + 1.0)
    rho = math.hypot(beta, lr)
    windings = (math.exp(-lr * lr / (rho + beta))
                * _lattice_tail(lr / length, length * lr / rho))
    vol = length ** 3
    return sum(_excess_factor(gap0, offset, t) * shells / vol
               * math.exp(-(j_max + 1) * (gap0 + offset) / t)
               + windings * (h + float(w.sum()) / vol)
               for offset, w, h in zip((1.0 - phase.mu, 1.0 + phase.mu),
                                       weights, heads))


def mode_sum(phase: PhasePoint, box: BoxSpec,
             tail_rel_tol: float = 1e-4) -> ModeSumResult:
    """Finite-volume thermal densities by lattice mode summation.

    Boxes with mode_cutoff^2 <= _DIRECT_SHELLS return the Bose occupations
    summed over 0 < |n| <= mode_cutoff, divided by L^3. The split box,
    cutoff 65, returns the sum over all n != 0 (the Boltzmann head by
    windings, the remainder by shells). tail_bound bounds the distance
    from the returned n1 + n2 to the sum over every n != 0, rounding
    aside: the modes past the cutoff (_tail_bound) or past the two margins
    (_cut_bound), which can be far below the split sum's ~1 ulp rounding.
    modes_used counts 0 < |n| <= mode_cutoff: the sum of the direct box's
    shell degeneracies, exact as each partial sum is an integer below
    2^53, or the split box's constant. Fails with
    TailTooLarge when the bound exceeds tail_rel_tol relative to the
    summed densities, with BudgetExceeded, before allocating, when the box
    needs more terms or shells than the budgets allow, and with
    InvalidArgument where t^3 or L^3 is not a normal double. Terms are
    summed in a fixed order, so results repeat
    bit for bit. n1 and n2 are the two rows of one pass whose rows differ
    only in the sign of mu, summed by one numpy reduction in the same
    order whatever the row or the BLAS kernel, so q_tilde_fv is exactly
    odd in mu.
    """
    t, mu = phase.t, phase.mu
    length, cutoff = box.box_length, box.mode_cutoff
    _require_scales("mode_sum", phase, length)
    tail_rel_tol = _require_tolerance("mode_sum", phase, length,
                                      tail_rel_tol)
    j_max, m_direct, m_wind = _plan(phase, box)
    shells = _shell_counts(max(m_direct, m_wind))
    head = _boltzmann_head(t, length, j_max, shells[:m_wind + 1])
    # row 0 is the particles' 1 - mu, row 1 the antiparticles' 1 + mu: the
    # remainder e^{-J x}/(e^x - 1) over the direct shells and the weights
    # e^{-j (1 -+ mu)/t} of the head, x = (gap + 1 -+ mu)/t
    offset = np.array([[1.0 - mu], [1.0 + mu]])
    k = 2.0 * math.pi / length * np.sqrt(np.arange(1, m_direct + 1,
                                                   dtype=float))
    energy = _gap(k * k) + offset
    del k  # the (2, m) rows of the remainder pass are the peak
    rest = _bose(energy / t)
    rest *= np.exp(-j_max / t * energy)
    weights = np.exp(-offset / t * np.arange(1, j_max + 1))
    counts, vol = shells[1:m_direct + 1], length ** 3
    # each sum is one numpy reduction over both rows, whose order is the
    # same for both, not a BLAS dot per row, whose order may follow the
    # row's alignment
    heads = np.add.reduce(weights * head, axis=-1).tolist()
    rest *= counts
    n1_fv, n2_fv = (h + r / vol for h, r in
                    zip(heads, np.add.reduce(rest, axis=-1).tolist()))
    direct = cutoff * cutoff <= _DIRECT_SHELLS
    tail = (_tail_bound(phase, box) if direct else
            _cut_bound(phase, length, (j_max, m_direct, m_wind), weights,
                       heads))
    if tail > tail_rel_tol * max(n1_fv + n2_fv, 1e-300):
        # the split box sums every mode: its bound is the margins', which no
        # cutoff moves
        raise TailTooLarge(
            f"mode_sum at t = {t}, mu = {mu}, L = {length} with cutoff "
            f"{cutoff}: tail bound {tail:.3e} above {tail_rel_tol:.1e} of the "
            f"summed density {n1_fv + n2_fv:.3e}; "
            + ("raise mode_cutoff" if direct else "raise tail_rel_tol"))
    # the lattice vectors 0 < |n| <= 65
    modes = int(counts.sum()) if direct else 1_149_650
    return ModeSumResult(q_tilde_fv=n1_fv - n2_fv, n1_fv=n1_fv, n2_fv=n2_fv,
                         modes_used=modes, tail_bound=tail)


def condensate_mode(mu: float, t: float):
    """Occupations of the isolated k = 0 mode:
    n1_0 = 1/(e^{(1-mu)/t} - 1), n2_0 = 1/(e^{(1+mu)/t} - 1), and their
    difference q0_occ. Diverges (macroscopic occupation) at |mu| = 1;
    InvalidArgument where an occupation, about t/(1 -+ mu), is past the
    doubles."""
    mu = require_finite("mu", mu)
    t = require_temperature(t)
    if abs(mu) >= 1.0:
        raise DivergentCondensateMode(
            f"|mu| = {abs(mu)} >= 1: zero-mode occupation diverges")
    n1_0, n2_0 = _bose(np.array([(1.0 - mu) / t, (1.0 + mu) / t])).tolist()
    if not max(n1_0, n2_0) < math.inf:
        raise InvalidArgument(
            f"condensate_mode at mu = {mu}, t = {t}: an occupation is not a "
            f"finite double")
    return n1_0, n2_0, n1_0 - n2_0
