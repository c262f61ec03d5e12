"""Numerical equation of state for the relativistic ideal charged Bose
gas: thermal particle/antiparticle densities, chemical-potential and
critical-temperature inversion, condensed fractions, and closed-form
ultra-relativistic / d-dimensional limits. All quantities are scaled by
the boson mass (T/m, mu/m, k/m, densities in m^3)."""

from .errors import (AboveCritical, AsymptoteOutOfRange, BelowCritical,
                     BudgetExceeded, DivergentCondensateMode,
                     InvalidArgument, NonConvergence, NonPositiveTemperature,
                     RelBecError, TailTooLarge, UnphysicalMu,
                     UnsupportedDimension)
from .types import (BoxSpec, ChargeDensities, CriticalPoint, MomentumProfile,
                    PhasePoint)
from .statistics import charge_integrand, momentum_profile
from .quadrature import QuadratureConfig, thermal_charge_density
from .solver import (GasSolution, SolverConfig, condensed_solution,
                     critical_temperature, density_ratio, solve_mu,
                     universal_curves)
from .limits import (Dimension, ddim_critical_temperature, density_of_states,
                     gamma_half, low_t_condensate_antiparticles,
                     low_t_mu_asymptote, ur_condensed_fraction,
                     ur_critical_temperature, ur_densities, ur_density_ratio,
                     zeta_int)

__version__ = "0.1.0"

_ORACLE = ("ModeSumResult", "condensate_mode", "mode_sum", "suggest_cutoff")


def __getattr__(name):
    # the finite-volume oracle is the one module that needs scipy; it is
    # loaded on first use (PEP 562), so the rest imports numpy only
    if name in _ORACLE:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AboveCritical", "AsymptoteOutOfRange", "BelowCritical", "BoxSpec",
    "BudgetExceeded", "ChargeDensities", "CriticalPoint", "Dimension",
    "DivergentCondensateMode", "GasSolution", "InvalidArgument",
    "ModeSumResult", "MomentumProfile", "NonConvergence",
    "NonPositiveTemperature", "PhasePoint", "QuadratureConfig",
    "RelBecError", "SolverConfig", "TailTooLarge", "UnphysicalMu",
    "UnsupportedDimension",
    "charge_integrand", "condensate_mode", "condensed_solution",
    "critical_temperature", "ddim_critical_temperature", "density_of_states",
    "density_ratio", "gamma_half",
    "low_t_condensate_antiparticles", "low_t_mu_asymptote", "mode_sum",
    "momentum_profile", "solve_mu", "suggest_cutoff", "thermal_charge_density",
    "universal_curves", "ur_condensed_fraction", "ur_critical_temperature",
    "ur_densities", "ur_density_ratio", "zeta_int",
]
