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
from scipy.optimize import brentq

from .errors import (AboveCritical, BelowCritical, InvalidArgument,
                     NonConvergence)
from .quadrature import QuadratureConfig, thermal_charge_density
from .types import (ChargeDensities, CriticalPoint, PhasePoint,
                    require_finite, require_temperature)

_ZETA_3_2 = 2.6123753486854883


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


def _q_tilde(t: float, mu: float, config: SolverConfig) -> float:
    return thermal_charge_density(PhasePoint(t, mu), config.quad).q_tilde


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
    if q < 0.0:
        return -solve_mu(-q, t, config)
    q_max = _q_tilde(t, 1.0, config)
    if q >= q_max:
        raise BelowCritical(
            f"q = {q} >= q_tilde(t, mu=1) = {q_max}: condensed phase",
            q_tilde_max=q_max)
    try:
        return brentq(lambda mu: _q_tilde(t, mu, config) - q, 0.0, 1.0,
                      xtol=config.mu_tol, rtol=8.9e-16,
                      maxiter=config.max_iters)
    except RuntimeError as exc:
        raise NonConvergence(f"solve_mu did not converge: {exc}") from exc


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
    t_nr = 2.0 * math.pi * (q / _ZETA_3_2) ** (2.0 / 3.0)
    t_ur = math.sqrt(3.0 * q)
    lo = 0.5 * min(t_nr, t_ur)
    hi = 2.0 * max(t_nr, t_ur)

    def g(t):
        return _q_tilde(t, 1.0, config) - q

    expansions = 0
    while g(lo) > 0.0:
        lo *= 0.5
        expansions += 1
        if expansions > 60:
            raise NonConvergence("no lower bracket for critical temperature")
    while g(hi) < 0.0:
        hi *= 2.0
        expansions += 1
        if expansions > 60:
            raise NonConvergence("no upper bracket for critical temperature")
    try:
        return brentq(g, lo, hi, rtol=config.t_tol, xtol=1e-300,
                      maxiter=config.max_iters)
    except RuntimeError as exc:
        raise NonConvergence(
            f"critical_temperature did not converge: {exc}") from exc


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
    try:
        mu = solve_mu(q, t, config)
    except BelowCritical:
        mu = 1.0
    return thermal_charge_density(PhasePoint(t, mu), config.quad).ratio


def universal_curves(q_min: float, q_max: float, points: int,
                     config: SolverConfig = SolverConfig()):
    """Mass-independent transition line: log-spaced q grid with T_c and
    the antiparticle ratio at the transition for each point."""
    if not (0.0 < q_min < q_max):
        raise InvalidArgument("require 0 < q_min < q_max")
    if points < 2:
        raise InvalidArgument("need at least 2 points")
    out = []
    for q in np.geomspace(q_min, q_max, points):
        q = float(q)
        t_c = critical_temperature(q, config)
        densities = thermal_charge_density(PhasePoint(t_c, 1.0), config.quad)
        out.append(CriticalPoint(q=q, t_c=t_c, ratio=densities.ratio))
    return out
