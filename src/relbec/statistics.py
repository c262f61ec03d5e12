"""The Bose kernel: the dispersion gap, the Bose-Einstein occupation and
the k^2-weighted occupations of both branches on arrays of momenta.

Particles carry energy omega = sqrt(k^2+1) - mu, antiparticles
omega_bar = sqrt(k^2+1) + mu: the two branches share the gap
sqrt(k^2+1) - 1 and differ only in the sign of mu. The gap is evaluated
through the cancellation-free form k^2/(sqrt(k^2+1) + 1), which stays
accurate as k -> 0, so omega = (1 - mu) + gap stays accurate as mu -> 1.

The occupation 1/(e^x - 1) is one formula at every x >= 0,
e^{-x}/(1 - e^{-x}) with the denominator -expm1(-x): neither factor can
overflow, so large x needs no clamp, and expm1 keeps full precision as
x -> 0, so small x needs no series.
"""
import math
import sys

import numpy as np

from .errors import InvalidArgument
from .types import MomentumProfile, PhasePoint, require_count

# Smallest normal double: an exponent below it means the gap has underflowed.
_TINY = 2.2250738585072014e-308
# Above this exponent np.exp(-x) is 0.0 and np.expm1(-x) is -1.0 (e^-746 is
# below half the smallest subnormal): a branch whose exponents all exceed
# it has k^2 n = 0.0 at every finite k^2.
_DEAD_X = 746.0
# Largest momentum whose square is a finite double
_MAX_K = math.sqrt(sys.float_info.max)


def _gap(ksq):
    """The gap sqrt(k^2 + 1) - 1 from ksq = k^2, without cancellation;
    for a float or an array."""
    return ksq / (np.sqrt(ksq + 1.0) + 1.0)


def _negated_bose(neg_x: np.ndarray, out=None) -> np.ndarray:
    """-1/(e^x - 1) = e^{-x}/expm1(-x) from an array neg_x = -x <= 0, into
    out when given, by one exp and one expm1 pass; neg_x is left holding
    expm1(-x), the negated denominator of 1 + n = 1/(1 - e^{-x})."""
    out = np.exp(neg_x, out=out)
    return np.divide(out, np.expm1(neg_x, out=neg_x), out=out)


def _bose(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Bose-Einstein occupation 1/(e^x - 1) = e^{-x}/(1 - e^{-x}) on an
    array of exponents x >= 0, written into out when given (x = 0 gives
    inf): within 2 ulp of the exact value where that is a normal double
    (test_occupation_matches_mpmath). The quotient overflows or divides by
    zero only where x is below the smallest normal double, so those
    warnings are silenced."""
    with np.errstate(divide="ignore", over="ignore"):
        out = _negated_bose(np.negative(x), out)
    return np.negative(out, out=out)


def charge_integrand(k, phase: PhasePoint):
    """k^2 [n1(k) - n2(k)], the integrand of the thermal charge density.

    Accepts a scalar or an ndarray of momenta. At the condensation point
    mu = +-1 the particle branch has the finite limit k^2 n -> 2t as
    k -> 0, so the integrand tends to +-2t rather than 0*inf. Raises
    InvalidArgument where k^2 is not a finite double (|k| above ~1.34e154,
    inf or nan).
    """
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    squarable = np.abs(ks) <= _MAX_K
    if not squarable.all():
        raise InvalidArgument(
            f"charge_integrand: k^2 must be a finite double, got k = "
            f"{ks[~squarable][0]}")
    out = _weighted_occupations(ks, phase)[2]
    return out.reshape(np.shape(k)) if np.ndim(k) else float(out[0])


def _weighted_occupations(k: np.ndarray, phase: PhasePoint) -> np.ndarray:
    """Rows k^2 n1(k), k^2 n2(k) and k^2 [n1(k) - n2(k)] on an array of
    momenta whose squares are finite, as one (3, len(k)) array.

    The exponents x = (gap + 1 -+ mu)/t of the live rows are built as their
    exact negation ((mu - 1, -1 - mu) - gap)/t, -gap = k^2/(-1 -
    sqrt(k^2 + 1)), for _negated_bose; weighting by -k^2 undoes its sign.

    Where the exponent has underflowed, which happens only at mu = +-1 as
    k -> 0 (the gap k^2/(E + 1) vanishes with k^2), k^2 n takes its limit
    t(E + 1) = 2t; that also covers momenta whose k^2 underflows to 0
    while the occupation is infinite.

    The difference row is formed without cancellation: with the branch of
    the smaller gap as n_> and the other as n_<,
    n_> - n_< = n_> (1 + n_<) (1 - e^{-2|mu|/t}), where 1 + n_< =
    1/(1 - e^{-omega_</t}) is at most 1/(1 - e^{-1/t}) and comes from the
    expm1 pass already made. Every factor is finite at any (t, mu), so the
    row keeps full relative precision where n1 - n2 would cancel (high t,
    small mu) and never overflows.

    Every exponent of n_< is at least (1 + |mu|)/t. Where that exceeds
    _DEAD_X, n_< is 0.0 and 1 + n_< is 1.0 at every node, so only n_> is
    evaluated: its row is the same double as in the pass over both, the
    n_< row is 0.0 and the difference row is n_> (1 - e^{-2|mu|/t}).
    """
    k = np.asarray(k, dtype=float)
    t, mu = phase.t, phase.mu
    out = np.empty((3,) + k.shape)
    # out[2] holds -k^2 until the difference row overwrites it
    ksq = np.multiply(k, k, out=out[2])
    neg_gap = ksq / (-1.0 - np.sqrt(ksq + 1.0))
    neg_ksq = np.negative(ksq, out=ksq)
    # row of n_>: particles for mu >= 0, antiparticles below; the n_< row
    # is skipped where all its exponents, >= (1 + |mu|)/t, exceed _DEAD_X
    larger = 0 if mu >= 0.0 else 1
    smaller_dead = (1.0 + abs(mu)) / t > _DEAD_X
    rows = slice(larger, larger + 1) if smaller_dead else slice(0, 2)
    neg_x = np.add.outer((mu - 1.0, -1.0 - mu)[rows], neg_gap)
    neg_x /= t
    # x >= (1 - |mu|)/t, since the gap is >= 0: only where that bound
    # underflows can n overflow; there x is set to inf meanwhile
    under = None
    if (1.0 - abs(mu)) / t < _TINY:
        under = neg_x > -_TINY
        neg_x[under] = -math.inf
    occ = _negated_bose(neg_x, out=out[rows])
    occ *= neg_ksq
    if under is not None:
        occ[under] = 2.0 * t
    damping = math.copysign(-math.expm1(-2.0 * abs(mu) / t), mu)
    if smaller_dead:
        out[1 - larger] = 0.0
        # n_> (-damping) / expm1(-x_<) with expm1(-x_<) = -1.0
        np.multiply(out[larger], damping, out=out[2])
        return out
    # n_> damping / (1 - e^{-x_<}) as n_> (-damping) / expm1(-x_<)
    np.multiply(out[larger], -damping, out=out[2])
    out[2] /= neg_x[1 - larger]
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
