"""Equation-of-state inversion: chemical potential from charge, critical
temperature from the |mu| = m condition, and condensed-phase solutions.

All inversions exploit strict monotonicity of the thermal charge density
q_tilde(t, mu): increasing in mu at fixed t, and (at mu = 1) increasing
in t. Negative charge is handled everywhere by conjugation symmetry
q -> -q, mu -> -mu.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import (AboveCritical, BelowCritical, InvalidArgument,
                     NonConvergence)
from .limits import _ZETA_3_2
from .quadrature import QuadratureConfig, thermal_charge_density
from .types import (ChargeDensities, CriticalPoint, PhasePoint,
                    require_count, require_finite, require_positive,
                    require_real, require_temperature)

# Brent's method cannot narrow a bracket below a few ulps of the root
_MIN_RTOL = 4.0 * np.finfo(float).eps
# Evaluations of the EOS one Brent search may take
_MAX_ITERS = 200


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances of the EOS inversions: mu_tol relative on mu, t_tol
    relative on T_c, each finite, not below 4 ulps and below 1.

    The charge at the returned mu is off by about mu_tol * mu *
    dln(q_tilde)/dmu relative: at low t, where q_tilde ~ e^{(mu - 1)/t},
    by up to ~mu_tol/t (1e-5 at t = 1e-5 with the default mu_tol). quad
    sets the tolerances of every EOS evaluation (rel_tol 1e-10 on each
    density by default), which bound how well a root is located at all.
    """

    mu_tol: float = 1e-10
    t_tol: float = 1e-8
    quad: QuadratureConfig = QuadratureConfig()

    def __post_init__(self):
        for name, tol in (("mu_tol", self.mu_tol), ("t_tol", self.t_tol)):
            if not _MIN_RTOL <= tol < 1.0:
                raise InvalidArgument(
                    f"{name} must be >= {_MIN_RTOL:.3g} and below 1, got "
                    f"{tol}")


@dataclass(frozen=True)
class GasSolution:
    """Full state below (or at) the transition: thermal densities plus the
    condensate charge q0 and the squared order parameter |Phi|^2 = q0/2."""

    phase: PhasePoint
    densities: ChargeDensities
    q0: float
    order_param_sq: float


def _brent(f, a: float, b: float, fa: float, fb: float, xtol: float,
           rtol: float, max_iters: int, operation: str) -> float:
    """Root of f bracketed by a and b, given fa = f(a) and fb = f(b) of
    opposite signs (or one of them zero).

    Brent's zeroin (Algorithms for Minimization without Derivatives, 1973,
    ch. 4) step for step as scipy.optimize.brentq takes it, so it returns
    the same double; the root it returns is always a or b or a point it
    evaluated f at. Stops once the bracket is narrower than
    xtol + rtol |x|; raises NonConvergence, naming operation, after
    max_iters evaluations of f.
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(max_iters):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # where denom underflows to 0, brentq's C code gets inf or
                # nan here, fails the test below and bisects
                stry = (-fcur * (fblk * dblk - fpre * dpre) / denom
                        if denom != 0.0 else math.inf)
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise NonConvergence(f"{operation} did not converge in {max_iters} "
                         f"iterations; last iterate {xcur!r}")


def _invert(q: float, phase_at, bracket, residuals, found: dict,
            rtol: float, config: SolverConfig, operation: str):
    """(x, densities at phase_at(x)) with q_tilde(phase_at(x)) = q, x in
    bracket = (a, b) with residuals = (q_tilde - q at a, at b), to rtol
    relative. found maps x to the densities at phase_at(x): those the
    caller has, then every point integrated here. The root is integrated
    only if it is a bracket end with no densities in found (mu = 0).
    """
    def residual(x):
        found[x] = thermal_charge_density(phase_at(x), config.quad)
        return found[x].q_tilde - q

    x = _brent(residual, *bracket, *residuals, 1e-300, rtol, _MAX_ITERS,
               operation)
    if x not in found:
        residual(x)
    return x, found[x]


def _thermal_state(q: float, t: float, config: SolverConfig):
    """(mu, thermal densities at (t, mu), condensed) for any finite q and
    t > 0: the one place that decides whether the gas is condensed.

    Above T_c(|q|) mu solves q_tilde(t, mu) = q and condensed is False; at
    or below it mu = sign(q), the thermal cloud is the one at that point
    and condensed is True (mu alone cannot tell: Brent may return exactly
    1.0 for a state just above T_c). q = 0 integrates once, at mu = 0;
    q < 0 is solved as |q| and conjugated.
    """
    q = require_finite("q", q)
    t = require_temperature(t)
    if q == 0.0:
        phase = PhasePoint(t, 0.0)
        return 0.0, thermal_charge_density(phase, config.quad), False
    if q < 0.0:
        # exact under mu -> -mu: n1 and n2 swap places
        mu, d, condensed = _thermal_state(-q, t, config)
        return -mu, ChargeDensities(d.n2, d.n1, -d.q_tilde), condensed
    top = thermal_charge_density(PhasePoint(t, 1.0), config.quad)
    if q >= top.q_tilde:
        return 1.0, top, True
    # q_tilde(t, 0) = 0 exactly
    mu, densities = _invert(q, lambda mu: PhasePoint(t, mu), (0.0, 1.0),
                            (-q, top.q_tilde - q), {1.0: top}, config.mu_tol,
                            config, f"solve_mu at q = {q}, t = {t}")
    return mu, densities, False


def solve_mu(q: float, t: float,
             config: SolverConfig = SolverConfig()) -> float:
    """Chemical potential mu with q_tilde(t, mu) = q, for t above T_c(|q|).

    mu is found to config.mu_tol relative (see SolverConfig): q_tilde at
    the returned mu can miss q by up to ~mu_tol/t relative at low t.

    Raises BelowCritical when |q| meets or exceeds the maximal thermal
    charge q_tilde(t, mu=1): the state is condensed and mu is pinned at
    sign(q).
    """
    mu, densities, condensed = _thermal_state(q, t, config)
    if condensed:
        raise BelowCritical(
            f"q = {abs(q)} >= q_tilde(t, mu=1) = {abs(densities.q_tilde)}: "
            "condensed phase")
    return mu


def _tc_bracket(q: float):
    """Bracket on T_c(q > 0): half the smaller and twice the larger of the
    NR 2 pi (q/zeta(3/2))^(2/3) and UR sqrt(3 q) closed forms."""
    t_nr = 2.0 * math.pi * (q / _ZETA_3_2) ** (2.0 / 3.0)
    t_ur = math.sqrt(3.0 * q)
    return 0.5 * min(t_nr, t_ur), 2.0 * max(t_nr, t_ur)


def _critical_point(q: float, config: SolverConfig):
    """(T_c, densities at (T_c, 1)) for finite q > 0."""
    operation = f"critical_temperature at q = {q}"
    lo, hi = _tc_bracket(q)
    ends = {t: thermal_charge_density(PhasePoint(t, 1.0), config.quad)
            for t in (lo, hi)}
    if not ends[lo].q_tilde <= q <= ends[hi].q_tilde:
        raise NonConvergence(
            f"{operation}: q_tilde(t, 1) on the bracket [{lo}, {hi}] "
            f"spans [{ends[lo].q_tilde}, {ends[hi].q_tilde}], missing q")
    return _invert(q, lambda t: PhasePoint(t, 1.0), (lo, hi),
                   (ends[lo].q_tilde - q, ends[hi].q_tilde - q), ends,
                   config.t_tol, config, operation)


def critical_temperature(q: float,
                         config: SolverConfig = SolverConfig()) -> float:
    """BEC transition temperature: the t with q_tilde(t, mu=1) = q.

    q = 0 is the degenerate no-condensation case, defined as T_c = 0.
    The bracket is _tc_bracket's closed form; should it miss the root,
    NonConvergence names q.
    """
    q = require_finite("q", q)
    if q < 0.0:
        raise InvalidArgument(
            f"q must be >= 0 (use conjugation for q < 0), got {q}")
    if q == 0.0:
        return 0.0
    return _critical_point(q, config)[0]


def condensed_solution(q: float, t: float,
                       config: SolverConfig = SolverConfig()) -> GasSolution:
    """State below the transition: mu = 1, condensate charge q0 = q - q_tilde.

    q0 is clamped to >= 0 to absorb quadrature noise at t -> T_c.
    """
    q = require_positive("q", q)
    phase = PhasePoint(t, 1.0)
    densities = thermal_charge_density(phase, config.quad)
    if densities.q_tilde > q * (1.0 + 100.0 * config.t_tol):
        raise AboveCritical(
            f"t = {t} is above T_c(q = {q}): thermal charge "
            f"{densities.q_tilde} already exceeds q")
    q0 = max(q - densities.q_tilde, 0.0)
    return GasSolution(phase=phase, densities=densities, q0=q0,
                       order_param_sq=0.5 * q0)


def density_ratio(q: float, t: float,
                  config: SolverConfig = SolverConfig()) -> float:
    """Antiparticle fraction n2/n1 at fixed net charge q > 0.

    Above the transition mu is solved from q; at or below it the thermal
    gas sits at mu = 1 and the ratio is that of the thermal clouds.
    """
    q = require_positive("q", q)
    return _thermal_state(q, t, config)[1].ratio


def universal_curves(q_min: float, q_max: float, points: int,
                     config: SolverConfig = SolverConfig()):
    """Mass-independent transition line: log-spaced q grid with T_c and
    the antiparticle ratio at the transition for each point."""
    q_min, q_max = require_real("q_min", q_min), require_real("q_max", q_max)
    if not (0.0 < q_min < q_max < math.inf):
        raise InvalidArgument("require 0 < q_min < q_max < inf")
    points = require_count("points", points, 2)
    out = []
    for q in np.geomspace(q_min, q_max, points):
        q = float(q)
        t_c, densities = _critical_point(q, config)
        out.append(CriticalPoint(q=q, t_c=t_c, ratio=densities.ratio))
    return out
