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
                    require_finite, require_temperature)

# Brent's method cannot narrow a bracket below a few ulps of the root
_MIN_RTOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration budget for the EOS inversions."""

    mu_tol: float = 1e-10
    t_tol: float = 1e-8
    max_iters: int = 200
    quad: QuadratureConfig = QuadratureConfig()

    def __post_init__(self):
        if not (self.mu_tol > 0.0 and self.t_tol > 0.0):
            raise InvalidArgument("tolerances must be positive")
        if self.t_tol < _MIN_RTOL:
            raise InvalidArgument(
                f"t_tol must be >= {_MIN_RTOL:.3g}, got {self.t_tol}")
        if self.max_iters < 10:
            raise InvalidArgument("max_iters must be >= 10")


@dataclass(frozen=True)
class GasSolution:
    """Full state below (or at) the transition: thermal densities plus the
    condensate charge q0 and the squared order parameter |Phi|^2 = q0/2."""

    phase: PhasePoint
    densities: ChargeDensities
    q0: float
    order_param_sq: float

    @property
    def condensed_fraction(self) -> float:
        return self.q0 / (self.q0 + self.densities.q_tilde)


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
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
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


def _solve_mu(q: float, t: float, config: SolverConfig):
    """(mu, densities at (t, mu)) with q_tilde(t, mu) = q, for finite
    q > 0 and t > 0; raises BelowCritical carrying the densities at mu = 1.
    """
    top = thermal_charge_density(PhasePoint(t, 1.0), config.quad)
    if q >= top.q_tilde:
        raise BelowCritical(
            f"q = {q} >= q_tilde(t, mu=1) = {top.q_tilde}: condensed phase",
            q_tilde_max=top.q_tilde, densities=top)
    found = {1.0: top}

    def f(mu):
        found[mu] = thermal_charge_density(PhasePoint(t, mu), config.quad)
        return found[mu].q_tilde - q

    # q_tilde(t, 0) = 0 exactly
    mu = _brent(f, 0.0, 1.0, -q, top.q_tilde - q, config.mu_tol, 8.9e-16,
                config.max_iters, f"solve_mu at q = {q}, t = {t}")
    if mu not in found:  # mu = 0, for q below mu_tol's worth of charge
        f(mu)
    return mu, found[mu]


def solve_mu(q: float, t: float,
             config: SolverConfig = SolverConfig()) -> float:
    """Chemical potential mu with q_tilde(t, mu) = q, for t above T_c(|q|).

    Raises BelowCritical when |q| meets or exceeds the maximal thermal
    charge q_tilde(t, mu=1): the state is condensed and mu is pinned at
    sign(q).
    """
    require_finite("q", q)
    require_temperature(t)
    if q == 0.0:
        return 0.0
    return math.copysign(_solve_mu(abs(q), t, config)[0], q)


def _solve_state(q: float, t: float, config: SolverConfig):
    """(mu, densities at (t, mu)) for any finite q: solve_mu's root and the
    densities found there, conjugated for q < 0 (n1 and n2 swap places
    exactly under mu -> -mu); q = 0 integrates once, at mu = 0. Raises
    BelowCritical as solve_mu does, carrying the densities at mu = 1."""
    require_finite("q", q)
    require_temperature(t)
    if q == 0.0:
        return 0.0, thermal_charge_density(PhasePoint(t, 0.0), config.quad)
    mu, found = _solve_mu(abs(q), t, config)
    if q > 0.0:
        return mu, found
    return -mu, ChargeDensities(n1=found.n2, n2=found.n1,
                                q_tilde=-found.q_tilde)


def _critical_point(q: float, config: SolverConfig):
    """(T_c, densities at (T_c, 1)) for finite q > 0."""
    t_nr = 2.0 * math.pi * (q / _ZETA_3_2) ** (2.0 / 3.0)
    t_ur = math.sqrt(3.0 * q)
    lo = 0.5 * min(t_nr, t_ur)
    hi = 2.0 * max(t_nr, t_ur)
    found = {}

    def g(t):
        found[t] = thermal_charge_density(PhasePoint(t, 1.0), config.quad)
        return found[t].q_tilde - q

    expansions = 0
    g_lo = g(lo)
    while g_lo > 0.0:
        lo *= 0.5
        expansions += 1
        if expansions > 60:
            raise NonConvergence(
                f"no lower bracket for critical temperature at q = {q}")
        g_lo = g(lo)
    g_hi = g(hi)
    while g_hi < 0.0:
        hi *= 2.0
        expansions += 1
        if expansions > 60:
            raise NonConvergence(
                f"no upper bracket for critical temperature at q = {q}")
        g_hi = g(hi)
    t_c = _brent(g, lo, hi, g_lo, g_hi, 1e-300, config.t_tol,
                 config.max_iters, f"critical_temperature at q = {q}")
    return t_c, found[t_c]


def critical_temperature(q: float,
                         config: SolverConfig = SolverConfig()) -> float:
    """BEC transition temperature: the t with q_tilde(t, mu=1) = q.

    q = 0 is the degenerate no-condensation case, defined as T_c = 0.
    The initial bracket spans the non-relativistic estimate
    2 pi (q/zeta(3/2))^(2/3) and twice the ultra-relativistic estimate
    sqrt(3 q), expanded by doubling if the root escapes.
    """
    require_finite("q", q)
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
    require_finite("q", q)
    if not (q > 0.0):
        raise InvalidArgument(f"q must be > 0, got {q}")
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
    if not (q > 0.0):
        raise InvalidArgument(f"q must be > 0, got {q}")
    require_finite("q", q)
    require_temperature(t)
    try:
        densities = _solve_mu(q, t, config)[1]
    except BelowCritical as exc:
        densities = exc.densities
    return densities.ratio


def universal_curves(q_min: float, q_max: float, points: int,
                     config: SolverConfig = SolverConfig()):
    """Mass-independent transition line: log-spaced q grid with T_c and
    the antiparticle ratio at the transition for each point."""
    if not (0.0 < q_min < q_max < math.inf):
        raise InvalidArgument("require 0 < q_min < q_max < inf")
    if points < 2:
        raise InvalidArgument("need at least 2 points")
    out = []
    for q in np.geomspace(q_min, q_max, points):
        q = float(q)
        t_c, densities = _critical_point(q, config)
        out.append(CriticalPoint(q=q, t_c=t_c, ratio=densities.ratio))
    return out
