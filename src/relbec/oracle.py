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
remainder dies out within a few hundred shells. Both charges share one
remainder pass, weighted by one float64 table of shell degeneracies. No
array grows with the number of shells within the cutoff. Only the exact
count of modes_used, taken over one of the ball's 48 symmetric copies,
costs O(mode_cutoff^2) time, in O(mode_cutoff) memory: ~0.79 ms of a
~0.93 ms sum at cutoff 2606, where the head, 1000 terms of one winding
shell, takes ~0.06 ms and the shell table ~28 us. Up to cutoff 4096 the
count takes its square roots in float32, exactly.
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
from .types import (BoxSpec, PhasePoint, require_finite, require_real,
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
# Work budgets of one mode sum, checked before anything is allocated, each
# ~0.15 s at its budget on 2 vCPUs: lattice shells with counted
# degeneracies (r3), Boltzmann terms J * (winding shells + 1) (~0.14 us
# each), and the mode cutoff, since counting modes_used takes
# ~1.6e-10 c^2 s there in float64 (~2.4e-10 c^2 s just above 4096; the
# float32 count below takes ~1.5-1.8e-10 c^2 s at c = 2600-4096).
_MAX_SHELLS = 200_000
_MAX_TERMS = 1 << 20
_MAX_CUTOFF = 30_000
# suggest_cutoff takes cutoffs up to _SEARCH_CAP = 2^23, the last power of
# two below 10^7; its first probe comes from _GUESS_STEPS steps towards the
# continuous inverse of the tail bound (4 leave it right or off by one).
_SEARCH_CAP = 1 << 23
_GUESS_STEPS = 4
# The modes_used count takes its square roots in rectangles of lattice
# rows, one numpy call each rather than one per row: up to _COUNT_ROWS
# rows and about _COUNT_CHUNK radicands (a 0.25 MB float32 or 0.5 MB
# float64 buffer; 2^18 was no faster in float64). _BELOW masks the
# entries x <= y of a rectangle whose columns start at its first row's
# y + 1.
_COUNT_CHUNK = 1 << 16
_COUNT_ROWS = 64
_BELOW = np.tri(_COUNT_ROWS, _COUNT_ROWS, -1, dtype=bool)


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


def _floor_root_sum(radicands: np.ndarray) -> int:
    """Sum of floor(sqrt(r)) over an array of integer radicands, r < 2^52
    in float64 or r <= 2^24 in float32, computed in place. The correctly
    rounded sqrt is exact under floor there (see _lattice_points), and the
    sum is accumulated in float64, whose partial sums are exact integers
    below 2^53; float32 ones would not be above 2^24."""
    np.sqrt(radicands, out=radicands)
    np.floor(radicands, out=radicands)
    return int(radicands.sum(dtype=np.float64))


def _lattice_points(cutoff: int) -> int:
    """Integer vectors n with 0 < |n| <= cutoff, counted over one of the
    48 copies of the ball under sign changes and permutations.

    modes_used = 6 c + 12 Q + 8 (6 D + 3 E + F): 6 c vectors on the axes;
    Q vectors (x, y) with x, y >= 1 in each quarter of the three
    coordinate discs; and, with x, y, z >= 1, F patterns {a, a, a},
    E patterns {a, a, b} with b != a and D vectors with x > y > z.

    D is summed along the short axis z: each pair x > y >= 2 adds
    min(y - 1, floor(sqrt(r))), r = c^2 - x^2 - y^2 (0 where r < 0).
    Row y adds y - 1 for every x <= X_full(y) = isqrt(c^2 - y^2 -
    (y - 1)^2) and 0 past X_end(y) = isqrt(c^2 - y^2 - 1), so only the
    band in between takes square roots, about 0.055 c^2 of them. The
    rows 2 <= y <= y_end, the last row with X_end(y) > y, are taken in
    rectangles of up to _COUNT_ROWS rows and about _COUNT_CHUNK
    radicands. Below y_cap, the first row with X_full(y) <= y, a
    rectangle spans the band from its left end in its last row to its
    right end in its first; with r clamped to [0, (y - 1)^2] every entry
    adds its exact value, and the pairs left of it add y - 1 each,
    summed in closed form. From y_cap on the band starts at x = y + 1, so
    a rectangle starts at its first row's y + 1 and _BELOW zeroes its
    entries x <= y; the others have r < (y - 1)^2 already.
    Only the rectangles' corners take integer square roots: no array or
    loop runs over the rows.

    Up to c = 4096 the radicands are float32, half the bytes of float64,
    and the count is still exact. Every radicand (c^2 - x^2, c^2 - 2 x^2,
    c^2 - x^2 - y^2) and clamp bound (y - 1)^2 is then an integer of
    magnitude <= c^2 <= 2^24, as are the squares, differences, minima and
    maxima they come from, so float32 holds each exactly. For an integer
    r < 2^24 with k = isqrt(r) <= 4095, (k + 1) - sqrt(r) > 1/(2 (k + 1))
    >= 2^-13, which is at least half an ulp below k + 1 <= 2^12; so the
    correctly rounded float32 sqrt(r) lies in [k, k + 1) and its floor is
    k on every SIMD dispatch. Above 4096 that margin fails, and float64,
    exact for r < 2^52, is kept.
    """
    c2 = cutoff * cutoff
    dtype = np.float32 if c2 <= 1 << 24 else np.float64
    sq = np.arange(cutoff + 1, dtype=dtype) ** 2
    a = math.isqrt(c2 // 2)
    f = math.isqrt(c2 // 3)
    q = 2 * _floor_root_sum(c2 - sq[1:a + 1]) - a * a
    e = _floor_root_sum(c2 - 2.0 * sq[1:a + 1]) - f
    buf = np.empty(max(_COUNT_CHUNK, cutoff), dtype=dtype)
    y_cap = math.isqrt(max(c2 - 2, 0) // 3) + 1
    y_end = (math.isqrt(max(2 * c2 - 3, 0)) - 1) // 2
    d = 0
    y = 2
    while y <= y_end:
        cap = y >= y_cap
        last = y_end if cap else y_cap - 1
        k = min(_COUNT_ROWS, last + 1 - y)
        x_end = math.isqrt(c2 - y * y - 1)
        while True:
            yl = y + k - 1
            xs = y + 1 if cap else math.isqrt(c2 - yl * yl - (yl - 1) ** 2) + 1
            w = x_end + 1 - xs
            if k * w <= _COUNT_CHUNK or k == 1:
                break
            k = max(_COUNT_CHUNK // w, 1)
        r = buf[:k * w].reshape(k, w)
        np.subtract(c2 - sq[y:y + k, None], sq[xs:xs + w], out=r)
        if cap:
            r[:, :k][_BELOW[:k, :min(k, w)]] = 0.0
        else:
            np.minimum(r, sq[y - 1:yl, None], out=r)
            # row y has xs - 1 - y pairs left of the rectangle, y - 1 each:
            # sum u (xs - 2 - u) over u = y - 1 from lo to hi
            lo, hi = y - 1, yl - 1
            d += ((xs - 2) * (lo + hi) * k // 2
                  - (hi * (hi + 1) * (2 * hi + 1)
                     - (lo - 1) * lo * (2 * lo - 1)) // 6)
        np.maximum(r, 0.0, out=r)
        d += _floor_root_sum(r)
        y += k
    return 6 * cutoff + 12 * q + 8 * (6 * d + 3 * e + f)


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
        total += _MEASURE * c * envelope * (
            math.exp(exponent) if exponent < 709.0 else math.inf)
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


def _cutoff_guess(t: float, mu: float, dk: float, limit: float) -> int:
    """The cutoff at which _tail_bound meets limit, from its continuous
    inverse: a first probe for suggest_cutoff, right or off by one.

    With k0 = dk (cutoff - 1), x = k0/t and a = |mu|/t, the bound is
    _MEASURE t^3 p e^{a - x} w, p = x^2 + 2 x + 2, w = c_near + c_far
    e^{-2 a}, where c_near and c_far are _tail_bound's _excess_factor for
    the sign of mu and the other. So the root of h(x) = lead + log(p w) - x,
    lead = log(_MEASURE t^3 / limit) + a, is wanted. h falls and is
    concave in x (w aside), so one fixed-point step from k0 = dk lands left
    of the root and Newton steps with h' = -x^2/p then close in from the
    right. Each step is clamped to the cutoffs 2 to _SEARCH_CAP, so x stays
    finite. A limit of 0 is taken as the smallest double, where the bound
    underflows.
    """
    if not 0.0 <= limit < math.inf:
        return 2
    a = abs(mu) / t
    lead = (math.log(_MEASURE) + 3.0 * math.log(t)
            - math.log(max(limit, 5e-324)) + a)
    x_min = x = dk / t
    x_max = (_SEARCH_CAP - 1) * x_min
    for step in range(_GUESS_STEPS):
        k0 = x * t
        gap0 = float(_gap(k0 * k0))
        w = (_excess_factor(gap0, 1.0 - abs(mu), t)
             + math.exp(-2.0 * a) * _excess_factor(gap0, 1.0 + abs(mu), t))
        p = x * x + 2.0 * x + 2.0
        h = lead + math.log(p * w) - x
        x = min(max(x + (h * p / x / x if step else h), x_min), x_max)
    return min(math.ceil(x / x_min + 1.0), _SEARCH_CAP)


def suggest_cutoff(phase: PhasePoint, box_length: float,
                   tail_rel_tol: float = 1e-5) -> int:
    """Smallest mode cutoff whose tail bound is below tail_rel_tol times a
    scale of the summed densities: the UR estimate 2 zeta(3) t^3/pi^2,
    capped at 9 times _density_floor. With the default tolerances the box
    then passes mode_sum's own check, whose 1e-4 is ten times looser.

    The bound falls monotonically with the cutoff, so the search gallops
    from _cutoff_guess towards the answer and bisects the last step: two
    bound evaluations when the guess is right. Cutoffs above _SEARCH_CAP
    are not considered.
    """
    t, mu = phase.t, phase.mu
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

    guess = _cutoff_guess(t, mu, 2.0 * math.pi / box_length, limit)
    if above(guess):
        lo, step = guess, 1
        while lo < _SEARCH_CAP:
            hi = min(lo + step, _SEARCH_CAP)
            if not above(hi):
                break
            lo, step = hi, 2 * step
        else:
            raise TailTooLarge(
                f"suggest_cutoff at t = {t}, mu = {mu}, L = "
                f"{box_length}: no affordable cutoff reaches the tolerance; "
                f"the tail bound at cutoff {lo} is still above "
                f"{tail_rel_tol:.1e} of the density scale {scale:.3e}")
    else:
        hi, step = guess, 1
        while True:
            if hi == 2:  # cutoffs 1 and 2 share one bound
                return 2
            lo = max(hi - step, 2)
            if above(lo):
                break
            hi, step = lo, 2 * step
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
    gap = _gap(k1 * k1) + _MARGIN * t / (j_max + 1)
    half = length / (2.0 * math.pi)
    m_direct = math.ceil(min(max_m, gap * (gap + 2.0) * half * half))
    lw2 = (2.0 * j_max / t + _MARGIN) * _MARGIN if j_max else 0.0
    m_wind = math.floor(min(_MAX_SHELLS + 1.0, lw2 / length / length))
    if (cutoff > _MAX_CUTOFF or max(m_direct, m_wind) > _MAX_SHELLS
            or j_max * (m_wind + 1) > _MAX_TERMS):
        raise BudgetExceeded(
            f"mode_sum at t = {t}, mu = {phase.mu}, L = {length} with "
            f"cutoff {cutoff}: needs J = {j_max}, {m_direct} direct and "
            f"{m_wind} winding shells; the budgets are cutoff "
            f"{_MAX_CUTOFF}, {_MAX_SHELLS} shells and {_MAX_TERMS} terms "
            f"J * (winding shells + 1)")
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
    to the summed densities, with BudgetExceeded, before allocating, when
    the box needs more terms, shells or modes than the budgets allow, and
    with InvalidArgument where t^3 or L^3 is not a normal double. Terms
    are summed in a fixed order, so results repeat bit for bit. n1 and n2
    are the two rows of one pass whose rows differ only in the sign of mu,
    each summed by its own dot products, so q_tilde_fv is exactly odd in
    mu.
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
    n1_fv, n2_fv = (float(np.dot(w, head)) + float(np.dot(counts, r)) / vol
                    for w, r in zip(weights, rest))
    tail = _tail_bound(phase, box)
    if tail > tail_rel_tol * max(n1_fv + n2_fv, 1e-300):
        raise TailTooLarge(
            f"mode_sum at t = {t}, mu = {mu}, L = {length} with cutoff "
            f"{cutoff}: tail bound {tail:.3e} above {tail_rel_tol:.1e} of the "
            f"summed density {n1_fv + n2_fv:.3e}; raise mode_cutoff")
    return ModeSumResult(q_tilde_fv=n1_fv - n2_fv, n1_fv=n1_fv, n2_fv=n2_fv,
                         modes_used=_lattice_points(cutoff),
                         tail_bound=tail)


def condensate_mode(mu: float, t: float):
    """Occupations of the isolated k = 0 mode:
    n1_0 = 1/(e^{(1-mu)/t} - 1), n2_0 = 1/(e^{(1+mu)/t} - 1), and their
    difference q0_occ. Diverges (macroscopic occupation) at |mu| = 1."""
    mu = require_finite("mu", mu)
    t = require_temperature(t)
    if abs(mu) >= 1.0:
        raise DivergentCondensateMode(
            f"|mu| = {abs(mu)} >= 1: zero-mode occupation diverges")
    n1_0, n2_0 = _bose(np.array([(1.0 - mu) / t, (1.0 + mu) / t])).tolist()
    return n1_0, n2_0, n1_0 - n2_0
