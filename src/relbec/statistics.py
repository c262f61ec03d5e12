"""The Bose kernel: the dispersion gap, the Bose-Einstein occupation and
the k^2-weighted occupations of both branches on arrays of momenta.

Particles carry energy omega = sqrt(k^2+1) - mu, antiparticles
omega_bar = sqrt(k^2+1) + mu: the two branches share the gap
sqrt(k^2+1) - 1 and differ only in the sign of mu. The gap is evaluated
through the cancellation-free form k^2/(sqrt(k^2+1) + 1), which stays
accurate as k -> 0, so omega = (1 - mu) + gap stays accurate as mu -> 1.
"""
import contextlib
import math

import numpy as np

from .errors import InvalidArgument
from .types import MomentumProfile, PhasePoint, require_count

# Beyond this exponent expm1 overflows; occupation is then e^{-x} exactly
# to double precision.
_OVERFLOW_X = 700.0
# Below this exponent e^x - 1 loses digits; switch to the Laurent series
# 1/x - 1/2 + x/12.
_SERIES_X = 1e-8
# Smallest normal double: an exponent below it means the gap has underflowed.
_TINY = 2.2250738585072014e-308


def _gap(ksq):
    """The gap sqrt(k^2 + 1) - 1 from ksq = k^2, without cancellation;
    for a float or an array."""
    return ksq / (np.sqrt(ksq + 1.0) + 1.0)


def _bose(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Bose-Einstein occupation 1/(e^x - 1) on an array of exponents
    x >= 0, written into out when given (x = 0 gives inf). Below
    _SERIES_X it takes the Laurent series, above _OVERFLOW_X e^{-x}.

    expm1 takes a slow path where it overflows, so its input is clamped
    at _OVERFLOW_X (those entries are overwritten by e^{-x}), and it is
    skipped when every x is above that. 1/x overflows or divides by zero
    only for x below the smallest normal double, so only then are those
    warnings silenced.
    """
    x_min = np.minimum.reduce(x, axis=None)
    if x_min > _OVERFLOW_X:
        out = np.negative(x, out=out)
        return np.exp(out, out=out)
    x_max = np.maximum.reduce(x, axis=None)
    arg = x
    if x_max > _OVERFLOW_X:
        arg = out = np.minimum(x, _OVERFLOW_X, out=out)
    with (np.errstate(divide="ignore", over="ignore") if x_min < _TINY
          else contextlib.nullcontext()):
        out = np.expm1(arg, out=out)
        np.divide(1.0, out, out=out)
        if x_min < _SERIES_X:
            small = x < _SERIES_X
            xs = x[small]
            out[small] = 1.0 / xs - 0.5 + xs / 12.0
    if x_max > _OVERFLOW_X:
        big = x > _OVERFLOW_X
        out[big] = np.exp(-x[big])
    return out


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
    t, mu = phase.t, phase.mu
    out = np.empty((3,) + k.shape)
    # out[2] holds k^2 until the difference row overwrites it
    ksq = np.multiply(k, k, out=out[2])
    gap = _gap(ksq)
    x = np.empty((2,) + k.shape)
    np.add(gap, 1.0 - mu, out=x[0])
    np.add(gap, 1.0 + mu, out=x[1])
    x /= t
    occ = _bose(x, out=out[:2])
    # x >= (1 - |mu|)/t, since the gap is >= 0: only where that bound
    # underflows can some n be inf, which would make k^2 n = 0 * inf
    if (1.0 - abs(mu)) / t < _TINY and x.min() < _TINY:
        under = x < _TINY
        occ[under] = 0.0
        occ *= ksq
        occ[under] = 2.0 * t
    else:
        occ *= ksq
    larger, x_smaller = (occ[0], x[1]) if mu >= 0.0 else (occ[1], x[0])
    damping = math.copysign(-math.expm1(-2.0 * abs(mu) / t), mu)
    # n_> (-damping) / expm1(-x_<) is exactly n_> damping / (-expm1(-x_<)):
    # the sign goes into the scalar instead of a pass over the row
    np.multiply(larger, -damping, out=out[2])
    np.negative(x_smaller, out=x_smaller)
    out[2] /= np.expm1(x_smaller, out=x_smaller)
    return out


def momentum_profile(phase: PhasePoint, k_max: float, samples: int) -> MomentumProfile:
    """Sampled k^2-weighted occupation profiles on a uniform grid [0, k_max].

    The difference of the two curves integrates (with the 1/2pi^2 measure)
    to the thermal charge density. No 1/2pi^2 prefactor is applied to the
    emitted curves.
    """
    if not (k_max > 0.0 and k_max * k_max < math.inf):
        raise InvalidArgument(
            f"k_max must be > 0 with k_max^2 a finite double, got {k_max}")
    require_count("samples", samples, 2)
    k = np.linspace(0.0, k_max, samples)
    n1, n2, _ = _weighted_occupations(k, phase)
    return MomentumProfile(k_grid=k, n1_of_k=n1, n2_of_k=n2)
