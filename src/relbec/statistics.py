"""Pointwise kernels: dispersions, Bose-Einstein occupations and the
charge-density integrand, all at a single scaled momentum.

Particles carry energy omega = sqrt(k^2+1) - mu, antiparticles
omega_bar = sqrt(k^2+1) + mu. The gap omega is evaluated through the
cancellation-free form (1 - mu) + k^2/(sqrt(k^2+1) + 1), which stays
accurate as mu -> 1 and k -> 0.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import GaplessMode
from .types import MomentumProfile, PhasePoint

# Beyond this exponent expm1 overflows; occupation is then e^{-x} exactly
# to double precision.
_OVERFLOW_X = 700.0
# Below this exponent e^x - 1 loses digits; switch to the Laurent series
# 1/x - 1/2 + x/12.
_SERIES_X = 1e-8
# Smallest normal double: an exponent below it means the gap has underflowed.
_TINY = 2.2250738585072014e-308


@dataclass(frozen=True)
class DispersionPair:
    """Particle and antiparticle energies at one momentum."""

    omega: float
    omega_bar: float


def dispersions(k: float, mu: float) -> DispersionPair:
    """Energies of the particle and antiparticle branches at momentum k."""
    e = math.sqrt(k * k + 1.0)
    gap = k * k / (e + 1.0)  # e - 1 without cancellation
    return DispersionPair(omega=gap + (1.0 - mu), omega_bar=gap + (1.0 + mu))


def occupation(energy: float, t: float) -> float:
    """Bose-Einstein occupation 1/(e^{energy/t} - 1).

    energy = 0 is rejected: the divergent zero mode is the condensate and
    must be accounted for separately.
    """
    if energy == 0.0:
        raise GaplessMode("zero-energy mode: handle the condensate separately")
    x = energy / t
    if x > _OVERFLOW_X:
        return math.exp(-x)
    if abs(x) < _SERIES_X:
        return 1.0 / x - 0.5 + x / 12.0
    return 1.0 / math.expm1(x)


def _occupation_array(energy: np.ndarray, t: float) -> np.ndarray:
    """Vectorized occupation for strictly positive energies."""
    x = np.asarray(energy, dtype=float) / t
    with np.errstate(divide="ignore", over="ignore"):
        out = 1.0 / np.expm1(x)
    _fix_branches(x, out)
    return out


def _fix_branches(x: np.ndarray, out: np.ndarray) -> None:
    """Overwrite 1/(e^x - 1) in out where x is below _SERIES_X (Laurent
    series) or above _OVERFLOW_X (e^{-x})."""
    if x.min() < _SERIES_X:
        small = x < _SERIES_X
        xs = x[small]
        with np.errstate(divide="ignore", over="ignore"):
            out[small] = 1.0 / xs - 0.5 + xs / 12.0
    if x.max() > _OVERFLOW_X:
        big = x > _OVERFLOW_X
        out[big] = np.exp(-x[big])


def charge_integrand(k, phase: PhasePoint):
    """k^2 [n1(k) - n2(k)], the integrand of the thermal charge density.

    Accepts a scalar or an ndarray of momenta. At the condensation point
    mu = +-1 the particle branch has the finite limit k^2 n -> 2t as
    k -> 0, so the integrand tends to +-2t rather than 0*inf.
    """
    out = _weighted_occupations(np.atleast_1d(k), phase)[2]
    return out.reshape(np.shape(k)) if np.ndim(k) else float(out[0])


def _weighted_occupations(k: np.ndarray, phase: PhasePoint) -> np.ndarray:
    """Rows k^2 n1(k), k^2 n2(k) and k^2 [n1(k) - n2(k)] on an array of
    momenta, as one (3, len(k)) array.

    Where the exponent (gap + 1 -+ mu)/t has underflowed, which happens
    only at mu = +-1 as k -> 0 (the gap k^2/(E + 1) vanishes with k^2),
    k^2 n takes its limit t(E + 1) = 2t; that also covers momenta whose
    k^2 underflows to 0 while the occupation is infinite.

    The difference row is formed without cancellation: with the branch of
    the smaller gap as n_> and the other as n_<,
    n_> - n_< = n_> (1 + n_<) (1 - e^{-2|mu|/t}), where 1 + n_< =
    1/(1 - e^{-omega_</t}) is at most 1/(1 - e^{-1/t}). Every factor is
    finite at any (t, mu), so the row keeps full relative precision where
    n1 - n2 would cancel (high t, small mu) and never overflows.
    """
    k = np.asarray(k, dtype=float)
    ksq = k * k
    e = np.sqrt(ksq + 1.0)
    gap = ksq / (e + 1.0)
    t, mu = phase.t, phase.mu
    x = gap + np.array([[1.0 - mu], [1.0 + mu]])
    x /= t
    out = np.empty((3,) + k.shape)
    occ = out[:2]
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, np.expm1(x), out=occ)
    _fix_branches(x, occ)
    with np.errstate(invalid="ignore"):
        occ *= ksq
    if x.min() < _TINY:
        occ[x < _TINY] = 2.0 * t
    larger, x_smaller = (occ[0], x[1]) if mu >= 0.0 else (occ[1], x[0])
    damping = math.copysign(-math.expm1(-2.0 * abs(mu) / t), mu)
    np.multiply(larger, damping, out=out[2])
    out[2] /= -np.expm1(-x_smaller)
    return out


def momentum_profile(phase: PhasePoint, k_max: float, samples: int) -> MomentumProfile:
    """Sampled k^2-weighted occupation profiles on a uniform grid [0, k_max].

    The difference of the two curves integrates (with the 1/2pi^2 measure)
    to the thermal charge density. No 1/2pi^2 prefactor is applied to the
    emitted curves.
    """
    if not (k_max > 0.0):
        raise ValueError(f"k_max must be > 0, got {k_max}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    k = np.linspace(0.0, k_max, samples)
    n1, n2, _ = _weighted_occupations(k, phase)
    return MomentumProfile(k_grid=k, n1_of_k=n1, n2_of_k=n2)
