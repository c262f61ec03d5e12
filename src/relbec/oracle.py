"""Finite-volume oracle: the thermal charge density as a discrete sum over
periodic-box momentum modes, plus the isolated zero-momentum condensate
mode.

Modes live on k = (2 pi / L) n with integer vector n != 0. Degenerate
modes are grouped by |n|^2, so a direct sum costs one occupation
evaluation per lattice shell. Boxes with few shells are summed directly,
truncated at |n| <= mode_cutoff. Larger boxes split the Bose occupation
into a Boltzmann head and a remainder,

    1/(e^x - 1) = sum_{j=1..J} e^{-j x} + e^{-J x}/(e^x - 1),

and sum the head over the whole lattice in its winding-number (Poisson)
form, in which every term but the first few windings is negligible; the
remainder dies out within a few hundred shells. No array grows with the
number of shells within the cutoff. Only the exact count of modes_used,
taken over one of the ball's 48 symmetric copies, costs O(mode_cutoff^2)
time, in O(mode_cutoff) memory: ~5.5 ms of a ~6 ms sum at cutoff 2606.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kve

from .errors import BudgetExceeded, DivergentCondensateMode, TailTooLarge
from .limits import zeta_int
from .quadrature import _MEASURE
from .statistics import _bose, _gap
from .types import (BoxSpec, PhasePoint, require_finite,
                    require_temperature)

# Boxes with mode_cutoff^2 up to this many shells are summed directly and
# truncated at the cutoff; larger ones take the split sum.
_DIRECT_SHELLS = 4096
# Boltzmann terms in the head per unit of t*L: J = floor(_SPLIT t L) keeps
# beta = j/t <= _SPLIT L. There the n != 0 part of the lattice sum of
# e^{-beta E_n} is not small next to the n = 0 term subtracted from it:
# about one digit is lost at L ~ 1, none for L >> 1.
_SPLIT = 1.0
# Every winding shell and every remainder shell left out is below e^{-40}
# of the largest term of its sum.
_MARGIN = 40.0
# Work budgets of one mode sum, checked before anything is allocated:
# lattice shells with counted degeneracies (r3 costs ~0.25 s at 2e5),
# Bessel terms J * (winding shells + 1), and the mode cutoff, since
# counting modes_used takes ~5.5e-10 c^2 s (~0.15 s at the budget).
_MAX_SHELLS = 200_000
_MAX_TERMS = 1 << 20
_MAX_CUTOFF = 1 << 14
# The modes_used count takes its square roots in rectangles of lattice
# rows, one numpy call each rather than one per row: up to _COUNT_ROWS
# rows and about _COUNT_CHUNK radicands (a 0.5 MB buffer; 2^18 is no
# faster).
_COUNT_CHUNK = 1 << 16
_COUNT_ROWS = 64


@dataclass(frozen=True)
class ModeSumResult:
    """Finite-volume densities with truncation diagnostics."""

    q_tilde_fv: float
    n1_fv: float
    n2_fv: float
    modes_used: int
    tail_bound: float


def _shell_counts(max_m: int) -> np.ndarray:
    """r3[m] = number of integer lattice vectors with |n|^2 = m, m <= max_m,
    by direct shift-and-add convolutions in exact integer arithmetic."""
    n_sq = math.isqrt(max_m)
    r1 = np.zeros(max_m + 1, dtype=np.int64)
    r1[0] = 1
    r1[np.arange(1, n_sq + 1) ** 2] = 2
    r2 = r1.copy()  # z = 0
    for z in range(1, n_sq + 1):
        r2[z * z:] += 2 * r1[:max_m + 1 - z * z]
    r3 = r2.copy()
    for z in range(1, n_sq + 1):
        r3[z * z:] += 2 * r2[:max_m + 1 - z * z]
    return r3


def _floor_root_sum(radicands: np.ndarray) -> int:
    """Sum of floor(sqrt(r)) over an array of integer radicands r < 2^52,
    computed in place. The float sqrt is exact under floor there, and the
    partial sums are integers below 2^53."""
    np.sqrt(radicands, out=radicands)
    np.floor(radicands, out=radicands)
    return int(radicands.sum())


def _lattice_points(cutoff: int) -> int:
    """Integer vectors n with 0 < |n| <= cutoff, counted over one of the
    48 copies of the ball under sign changes and permutations.

    modes_used = 6 c + 12 Q + 8 (6 D + 3 E + F): 6 c vectors on the axes;
    Q vectors (x, y) with x, y >= 1 in each quarter of the three
    coordinate discs; and, with x, y, z >= 1, F patterns {a, a, a},
    E patterns {a, a, b} with b != a and D vectors with x > y > z. D is
    the sum of floor(sqrt(r)) - y, r = c^2 - y^2 - z^2, over z < y <=
    Y(z) = isqrt((c^2 - z^2) // 2), which is empty for z > F. It is taken
    over rectangles of up to _COUNT_ROWS rows z, each spanning the y-range
    of its first and longest row, about _COUNT_CHUNK radicands in all.
    Outside the wedge, r is set to 0 where y <= z and is below y^2 where
    y > Y(z); raised to y^2, each such entry adds exactly y, and the
    rectangle's sum of y is subtracted in closed form.
    """
    c2 = cutoff * cutoff
    sq = np.arange(cutoff + 1, dtype=float) ** 2
    a = math.isqrt(c2 // 2)
    f = math.isqrt(c2 // 3)
    q = 2 * _floor_root_sum(c2 - sq[1:a + 1]) - a * a
    e = _floor_root_sum(c2 - 2.0 * sq[1:a + 1]) - f
    below = np.tri(_COUNT_ROWS, _COUNT_ROWS, -1, dtype=bool)
    buf = np.empty(max(_COUNT_CHUNK, cutoff))
    d = 0
    z = 1
    while True:
        w = math.isqrt((c2 - z * z) // 2) - z
        if w <= 0:
            break
        k = min(_COUNT_ROWS, max(_COUNT_CHUNK // w, 1), f + 1 - z)
        y2 = sq[z + 1:z + 1 + w]
        r = buf[:k * w].reshape(k, w)
        np.subtract(c2 - sq[z:z + k, None], y2, out=r)
        r[:, :k][below[:k, :min(k, w)]] = 0.0
        np.maximum(r, y2, out=r)
        d += _floor_root_sum(r) - k * w * (2 * z + w + 1) // 2
        z += k
    return 6 * cutoff + 12 * q + 8 * (6 * d + 3 * e + f)


def _tail_bound(phase: PhasePoint, box: BoxSpec) -> float:
    """Analytic bound on the density carried by modes with |n| > cutoff.

    The lattice tail is bounded by the integral of the exponential
    envelope k^2 e^{-(k -+ mu)/t} from one mode-spacing inside the cutoff,
    using 1/(e^x - 1) <= c e^{-x} with c = 1/(1 - e^{-x_min}). The two
    exponentials are taken as one, e^{(+-mu - k0)/t}, since each alone
    leaves the double range once t < ~1e-3; past e^709 the bound is inf.
    """
    t, mu = phase.t, phase.mu
    dk = 2.0 * math.pi / box.box_length
    k0 = dk * max(box.mode_cutoff - 1, 1)
    x = k0 / t
    envelope = t ** 3 * (x * x + 2.0 * x + 2.0)
    gap0 = _gap(k0 * k0)
    total = 0.0
    for sgn in (+1.0, -1.0):
        c = 1.0 / -math.expm1(-(gap0 + (1.0 - sgn * mu)) / t)
        exponent = (sgn * mu - k0) / t
        total += _MEASURE * c * envelope * (
            math.exp(exponent) if exponent < 709.0 else math.inf)
    return total


def suggest_cutoff(phase: PhasePoint, box_length: float,
                   tail_rel_tol: float = 1e-5) -> int:
    """Smallest mode cutoff whose tail bound is below tail_rel_tol times a
    crude scale of the summed densities."""
    # scale estimate: UR n1+n2 ~ 2 zeta(3) t^3/pi^2, floored for small t
    t = phase.t
    scale = max(2.0 * zeta_int(3) * t ** 3 / math.pi ** 2, 1e-3)
    lo, hi = 1, 2
    while _tail_bound(phase, BoxSpec(box_length, hi)) > tail_rel_tol * scale:
        lo, hi = hi, hi * 2
        if hi > 10 ** 7:
            raise TailTooLarge(
                f"suggest_cutoff at t = {t}, mu = {phase.mu}, L = "
                f"{box_length}: no affordable cutoff reaches the tolerance; "
                f"the tail bound at cutoff {lo} is still above "
                f"{tail_rel_tol:.1e} of the density scale {scale:.3e}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_bound(phase, BoxSpec(box_length, mid)) > tail_rel_tol * scale:
            lo = mid
        else:
            hi = mid
    return hi


def _plan(phase: PhasePoint, box: BoxSpec):
    """(J, direct shells, winding shells) of one box, within the budgets.

    The remainder e^{-J x}/(e^x - 1) falls like e^{-(J + 1) gap/t}, so
    shells whose gap exceeds the first shell's by _MARGIN t/(J + 1) are
    left out. Winding w weighs e^{-(rho_w - beta)} against w = 0, with
    rho_w = sqrt(beta^2 + L^2 |w|^2), so shells with rho_w - beta >
    _MARGIN at the largest beta = J/t are left out. Every quantity is
    clamped before it is rounded, so no input overflows the plan.
    """
    t = phase.t
    length, cutoff = box.box_length, box.mode_cutoff
    max_m = cutoff * cutoff
    if max_m <= _DIRECT_SHELLS:
        return 0, max_m, 0
    j_max = math.floor(min(_SPLIT * t * length, _MAX_TERMS + 1.0))
    k1 = 2.0 * math.pi / length
    gap = _gap(k1 * k1) + _MARGIN * t / (j_max + 1)
    half = length / (2.0 * math.pi)
    m_direct = math.ceil(min(max_m, gap * (gap + 2.0) * half * half))
    lw2 = (2.0 * j_max / t + _MARGIN) * _MARGIN if j_max else 0.0
    m_wind = math.ceil(min(_MAX_SHELLS + 1.0, lw2 / length / length))
    if (cutoff > _MAX_CUTOFF or max(m_direct, m_wind) > _MAX_SHELLS
            or j_max * (m_wind + 1) > _MAX_TERMS):
        raise BudgetExceeded(
            f"mode_sum at t = {t}, mu = {phase.mu}, L = {length} with "
            f"cutoff {cutoff}: needs J = {j_max}, {m_direct} direct and "
            f"{m_wind} winding shells; the budgets are cutoff "
            f"{_MAX_CUTOFF}, {_MAX_SHELLS} shells and {_MAX_TERMS} terms "
            f"J * (winding shells + 1)")
    return j_max, m_direct, m_wind


def _boltzmann_head(t: float, length: float, j_max: int,
                    m_wind: int) -> np.ndarray:
    """(1/L^3) sum over n != 0 of e^{-j (E_n - 1)/t}, for j = 1..J.

    Poisson summation turns the lattice sum into windings w:
    (1/L^3) sum_n e^{-beta E_n} = sum_w beta K2(rho_w) / (2 pi^2 rho_w^2),
    with beta = j/t and rho_w = sqrt(beta^2 + L^2 |w|^2). The n = 0 term
    e^{-beta}/L^3 is subtracted. Both sides carry e^{beta}, so K2 enters
    scaled, kve(2, rho) e^{-(rho - beta)}.
    """
    beta = np.arange(1, j_max + 1)[:, None] / t
    lw2 = length * length * np.arange(m_wind + 1, dtype=float)
    rho = np.sqrt(beta * beta + lw2)
    terms = kve(2, rho) * np.exp(-lw2 / (rho + beta)) / (rho * rho)
    terms *= _shell_counts(m_wind)
    return _MEASURE * beta[:, 0] * terms.sum(axis=1) - 1.0 / length ** 3


def _density(s: float, t: float, vol: float, head: np.ndarray,
             gap: np.ndarray, counts: np.ndarray) -> float:
    """(1/L^3) sum over n != 0 of 1/(e^{x_n} - 1), x_n = (gap_n + 1 - s)/t:
    the Boltzmann head e^{-j (1 - s)/t} head[j - 1], j <= J = len(head),
    plus the remainder e^{-J x}/(e^x - 1) over the direct shells."""
    energy = gap + (1.0 - s)
    rest = _bose(energy / t) * np.exp(-len(head) / t * energy)
    weights = np.exp(-(1.0 - s) / t * np.arange(1, len(head) + 1))
    return float(np.dot(weights, head)) + float(np.dot(counts, rest)) / vol


def mode_sum(phase: PhasePoint, box: BoxSpec,
             tail_rel_tol: float = 1e-4) -> ModeSumResult:
    """Finite-volume thermal densities by lattice mode summation.

    Boxes with mode_cutoff^2 <= _DIRECT_SHELLS return the Bose occupations
    summed over 0 < |n| <= mode_cutoff, divided by L^3. Larger boxes
    return the sum over all n != 0 (the Boltzmann head by windings, the
    remainder by shells), which differs from the truncated sum by less
    than tail_bound. Either way tail_bound is the analytic bound on the
    modes beyond the cutoff, and modes_used counts 0 < |n| <= mode_cutoff.
    Fails with TailTooLarge when the bound exceeds tail_rel_tol relative
    to the summed densities, and with BudgetExceeded, before allocating,
    when the box needs more terms, shells or modes than the budgets allow.
    Terms are summed in a fixed order, so results repeat bit for bit, and
    n1 and n2 come from one function at +mu and -mu, so q_tilde_fv is
    exactly odd in mu.
    """
    t, mu = phase.t, phase.mu
    length, cutoff = box.box_length, box.mode_cutoff
    j_max, m_direct, m_wind = _plan(phase, box)
    head = _boltzmann_head(t, length, j_max, m_wind)
    m = np.arange(1, m_direct + 1, dtype=float)
    counts = _shell_counts(m_direct)[1:].astype(float)
    k = 2.0 * math.pi / length * np.sqrt(m)
    gap = _gap(k * k)
    vol = length ** 3
    n1_fv = _density(mu, t, vol, head, gap, counts)
    n2_fv = _density(-mu, t, vol, head, gap, counts)
    tail = _tail_bound(phase, box)
    if tail > tail_rel_tol * max(n1_fv + n2_fv, 1e-300):
        raise TailTooLarge(
            f"mode_sum at t = {t}, mu = {mu}, L = {length} with cutoff "
            f"{cutoff}: tail bound {tail:.3e} above {tail_rel_tol:.1e} of the "
            f"summed density {n1_fv + n2_fv:.3e}; raise mode_cutoff",
            tail_bound=tail)
    return ModeSumResult(q_tilde_fv=n1_fv - n2_fv, n1_fv=n1_fv, n2_fv=n2_fv,
                         modes_used=_lattice_points(cutoff),
                         tail_bound=tail)


def condensate_mode(mu: float, t: float):
    """Occupations of the isolated k = 0 mode:
    n1_0 = 1/(e^{(1-mu)/t} - 1), n2_0 = 1/(e^{(1+mu)/t} - 1), and their
    difference q0_occ. Diverges (macroscopic occupation) at |mu| = 1."""
    require_finite("mu", mu)
    require_temperature(t)
    if abs(mu) >= 1.0:
        raise DivergentCondensateMode(
            f"|mu| = {abs(mu)} >= 1: zero-mode occupation diverges")
    n1_0, n2_0 = _bose(np.array([(1.0 - mu) / t, (1.0 + mu) / t])).tolist()
    return n1_0, n2_0, n1_0 - n2_0
