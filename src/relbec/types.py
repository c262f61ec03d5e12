"""Scaled-unit value types shared by all modules.

Every quantity is dimensionless: temperatures, chemical potentials and
momenta are measured in units of the boson mass m, densities in units of
m^3 (natural units, hbar = c = k_B = 1). The mass itself never appears as
a runtime parameter.
"""
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NonPositiveTemperature, UnphysicalMu


def require_real(name: str, value) -> float:
    """value as a Python float: a numpy scalar would carry its own precision
    and promotion rules into the arithmetic, so every entry point takes its
    real arguments through here once. Raise InvalidArgument, naming the
    argument, unless value is a real number (Python or numpy) within the
    doubles; inf and nan pass."""
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidArgument(f"{name} must be a real double, got {value!r}")


def require_finite(name: str, value) -> float:
    """value as a Python float; raise InvalidArgument, naming the argument,
    if it is nan or infinite."""
    if type(value) is not float:
        value = require_real(name, value)
    if not math.isfinite(value):
        raise InvalidArgument(f"{name} must be finite, got {value}")
    return value


def require_positive(name: str, value) -> float:
    """value as a Python float; raise InvalidArgument, naming the argument,
    unless it is finite and > 0."""
    value = require_finite(name, value)
    if not (value > 0.0):
        raise InvalidArgument(f"{name} must be > 0, got {value}")
    return value


# Largest sample or grid count: a profile of 10**6 samples holds ~40 MB
# of arrays, and `relbec profile` prints it with a peak RSS of ~0.5 GB
_MAX_COUNT = 10 ** 6


def require_count(name: str, value, least: int) -> int:
    """value as a Python int; raise InvalidArgument, naming the argument,
    unless it is an integer (Python or numpy) from least to _MAX_COUNT =
    10**6, before anything of that size is allocated."""
    if not (isinstance(value, numbers.Integral)
            and least <= value <= _MAX_COUNT):
        raise InvalidArgument(
            f"{name} must be an integer from {least} to {_MAX_COUNT}, "
            f"got {value}")
    return int(value)


def require_temperature(t) -> float:
    """t as a Python float; raise unless it is a finite temperature > 0."""
    t = require_finite("t", t)
    if not (t > 0.0):
        raise NonPositiveTemperature(f"temperature must be > 0, got t = {t}")
    return t


@dataclass(frozen=True)
class PhasePoint:
    """A thermodynamic state (T/m, mu/m) of the uniform gas.

    |mu| = 1 is accepted: it is the condensation point, not a pathology.
    """

    t: float
    mu: float

    def __post_init__(self):
        # t and mu are stored as Python floats; the check on type keeps
        # float inputs, the common case, off the coercion
        if type(self.t) is not float or type(self.mu) is not float:
            object.__setattr__(self, "t", require_real("t", self.t))
            object.__setattr__(self, "mu", require_real("mu", self.mu))
        require_temperature(self.t)
        if not (abs(self.mu) <= 1.0):
            raise UnphysicalMu(
                f"|mu| <= 1 required for positive occupations, got mu = {self.mu}")


@dataclass(frozen=True)
class ChargeDensities:
    """Thermal particle density n1, antiparticle density n2 and their
    difference q_tilde, all in units of m^3.

    thermal_charge_density integrates q_tilde directly from the
    cancellation-free difference integrand, so it agrees with n1 - n2 to
    the quadrature tolerance and keeps its own relative precision where
    n1 - n2 cancels.
    """

    n1: float
    n2: float
    q_tilde: float

    @property
    def ratio(self) -> float:
        """Antiparticle fraction n2/n1; InvalidArgument where n1 = 0."""
        if self.n1 == 0.0:
            raise InvalidArgument(
                f"n2/n1 is undefined at n1 = 0 (n2 = {self.n2}): q or t "
                "lies below the range where n1 is a nonzero double")
        return self.n2 / self.n1


@dataclass(frozen=True)
class CriticalPoint:
    """One point (q/m^3, T_c/m, n2/n1 at transition) on the BEC line."""

    q: float
    t_c: float
    ratio: float


@dataclass(frozen=True)
class MomentumProfile:
    """k^2-weighted occupation curves n1(k), n2(k) on an ascending grid."""

    k_grid: np.ndarray
    n1_of_k: np.ndarray
    n2_of_k: np.ndarray

    def __post_init__(self):
        if not (len(self.k_grid) == len(self.n1_of_k) == len(self.n2_of_k)):
            raise InvalidArgument("profile arrays must share length")


# The split box's cutoff and the largest mode_cutoff; cutoffs 1 to 64 make
# direct boxes. The split sum covers every n != 0, so a larger cutoff would
# sum the same doubles
_SPLIT_CUTOFF = 65


@dataclass(frozen=True)
class BoxSpec:
    """Periodic cubic box for the finite-volume mode sum.

    box_length is L*m; mode_cutoff is an integer from 1 to 65. A cutoff up
    to 64 makes a direct box, whose sum runs over 0 < |n| <= mode_cutoff;
    65 makes the split box, summed over every n != 0. A larger cutoff
    raises InvalidArgument here, before any work. Whether the cutoff is
    adequate for a given phase point is checked by the mode sum itself,
    which carries an analytic tail bound.
    """

    box_length: float
    mode_cutoff: int

    def __post_init__(self):
        # stored as a Python float and int, as PhasePoint's fields are
        object.__setattr__(self, "box_length",
                           require_positive("box_length", self.box_length))
        if not (isinstance(self.mode_cutoff, numbers.Integral)
                and 1 <= self.mode_cutoff <= _SPLIT_CUTOFF):
            raise InvalidArgument(
                f"mode_cutoff must be an integer from 1 to {_SPLIT_CUTOFF}, "
                f"got {self.mode_cutoff}")
        object.__setattr__(self, "mode_cutoff", int(self.mode_cutoff))
