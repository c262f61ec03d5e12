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
x -> 0, so small x needs no series. The exponents of the two branches
differ by the constant 2|mu|/t at every k, so the kernel makes its exp
and expm1 passes over one branch and derives the other by a multiply.
"""
import math
import sys

import numpy as np

from .errors import InvalidArgument
from .types import MomentumProfile, PhasePoint, require_count, require_real

# Smallest normal double: an exponent below it means the gap has underflowed.
_TINY = 2.2250738585072014e-308
# Above this exponent np.exp(-x) is 0.0 and np.expm1(-x) is -1.0 (e^-746 is
# below half the smallest subnormal): a branch whose exponents all exceed
# it has k^2 n = 0.0 at every finite k^2, and the EOS skips a phase point
# where both branches do.
_DEAD_X = 746.0
# Largest momentum whose square is a finite double
_MAX_K = math.sqrt(sys.float_info.max)


def _gap(ksq):
    """The gap sqrt(k^2 + 1) - 1 from ksq = k^2, without cancellation;
    for a float or an array."""
    return ksq / (np.sqrt(ksq + 1.0) + 1.0)


def _bose(x: np.ndarray) -> np.ndarray:
    """Bose-Einstein occupation 1/(e^x - 1) = e^{-x}/(-expm1(-x)) on an
    array of exponents x >= 0, by one exp and one expm1 pass (x = 0 gives
    inf): within 2 ulp of the exact value where that is a normal double
    (test_occupation_matches_mpmath). The quotient overflows or divides by
    zero only where x is below the smallest normal double, so those
    warnings are silenced."""
    neg_x = np.negative(x)
    out = np.exp(neg_x)
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(out, np.negative(np.expm1(neg_x, out=neg_x),
                                          out=neg_x), out=out)


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
    # at a subnormal t an exponent (gap + 1 -+ mu)/t can overflow to inf,
    # whose occupation 0.0 is the exact limit
    with np.errstate(over="ignore"):
        out = _weighted_occupations(ks, phase)[2]
    return out.reshape(np.shape(k)) if np.ndim(k) else float(out[0])


def _weighted_occupations(k: np.ndarray, phase: PhasePoint) -> np.ndarray:
    """Rows k^2 n1(k), k^2 n2(k) and k^2 [n1(k) - n2(k)] on an array of
    momenta whose squares are finite, as one (3, len(k)) array.

    The branch of the smaller gap, n_> (particles for mu >= 0), has the
    exponents x_> = (gap + 1 - |mu|)/t, built as their exact negation
    ((|mu| - 1) - gap)/t, -gap = k^2/(-1 - sqrt(k^2 + 1)). The other
    branch, n_<, has x_< = x_> + d, d = 2|mu|/t, so one exp and one expm1
    pass give both: e^{-x_<} = e^{-x_>} e^{-d} and expm1(-x_<) =
    expm1(-x_>) e^{-d} + expm1(-d), a sum of two terms <= 0 that cannot
    cancel; e^{-d} and expm1(-d) are corrected for the rounding of d. Both
    rows are then e^{-x}/expm1(-x), weighted by -k^2. Where x_< > 746 the
    product e^{-x_<}, and so the n_< row, underflows to 0.0 by itself.

    Where x_> has underflowed, which happens only at mu = +-1 as k -> 0
    (the gap k^2/(E + 1) vanishes with k^2), k^2 n_> takes its limit
    t(E + 1) = 2t and the n_< pair is (e^{-d}, expm1(-d)); that also
    covers momenta whose k^2 underflows to 0 while the occupation is
    infinite.

    The difference row is formed without cancellation:
    n_> - n_< = n_> (1 + n_<) (1 - e^{-d}), where 1 + n_< =
    1/(1 - e^{-x_<}) is at most 1/(1 - e^{-1/t}) and comes from the
    expm1 row already made. Every factor is finite at any (t, mu), so the
    row keeps full relative precision where n1 - n2 would cancel (high t,
    small mu) and never overflows.
    """
    k = np.asarray(k, dtype=float)
    t, mu = phase.t, phase.mu
    near, far = (0, 1) if mu >= 0.0 else (1, 0)
    # rows k^2 n1, k^2 n2, k^2 (n1 - n2) (-k^2 until then), expm1(-x_1)
    # and expm1(-x_2) (-1 - sqrt(k^2 + 1) and -x_> until then)
    buf = np.empty((5,) + k.shape)
    ksq = np.multiply(k, k, out=buf[2])
    m_near, m_far = buf[3 + near], buf[3 + far]
    np.sqrt(np.add(ksq, 1.0, out=m_far), out=m_far)
    neg_x = np.divide(ksq, np.subtract(-1.0, m_far, out=m_far), out=m_near)
    neg_x += abs(mu) - 1.0
    neg_x /= t
    neg_ksq = np.negative(ksq, out=ksq)
    # x_> >= (1 - |mu|)/t, since the gap is >= 0: only where that bound
    # underflows can n_> overflow; there it is 0 meanwhile, then 2t
    under = neg_x > -_TINY if (1.0 - abs(mu)) / t < _TINY else None
    d = 2.0 * abs(mu) / t
    e_d, m_d = math.exp(-d), math.expm1(-d)
    if e_d:  # d's rounding error r from a long double quotient, if any
        r = float(np.longdouble(2.0 * abs(mu)) / t - d)
        e_d, m_d = e_d - e_d * r, m_d - e_d * r
    n_near = np.exp(neg_x, out=buf[near])
    np.expm1(neg_x, out=neg_x)
    # (e^{-x_<}, expm1(-x_<)) from (e^{-x_>}, expm1(-x_>))
    np.multiply(buf[near::3], e_d, out=buf[far::3])
    m_far += m_d
    if under is not None:
        neg_x[under] = -math.inf
    occ = np.divide(buf[:2], buf[3:], out=buf[:2])
    occ *= neg_ksq
    if under is not None:
        n_near[under] = 2.0 * t
    # sign(mu) n_> (1 - e^{-d})/(1 - e^{-x_<}), with 1 - e^{-d} = -expm1(-d)
    diff = np.multiply(n_near, -math.copysign(m_d, mu), out=neg_ksq)
    diff /= m_far
    return buf[:3]


def momentum_profile(phase: PhasePoint, k_max: float, samples: int) -> MomentumProfile:
    """Sampled k^2-weighted occupation profiles on a uniform grid [0, k_max].

    The difference of the two curves integrates (with the 1/2pi^2 measure)
    to the thermal charge density. No 1/2pi^2 prefactor is applied to the
    emitted curves. Every row is at most t (E + 1) at k_max, since
    k^2 n <= k^2 t/gap; InvalidArgument where that is not a finite double.
    """
    k_max = require_real("k_max", k_max)
    if not (k_max > 0.0 and k_max * k_max < math.inf):
        raise InvalidArgument(
            f"k_max must be > 0 with k_max^2 a finite double, got {k_max}")
    if not phase.t * (math.sqrt(k_max * k_max + 1.0) + 1.0) < math.inf:
        raise InvalidArgument(
            f"momentum_profile at t = {phase.t}, mu = {phase.mu}, k_max = "
            f"{k_max}: the rows reach t (sqrt(k_max^2 + 1) + 1), which is "
            f"not a finite double")
    samples = require_count("samples", samples, 2)
    k = np.linspace(0.0, k_max, samples)
    with np.errstate(over="ignore"):  # as in charge_integrand
        n1, n2, _ = _weighted_occupations(k, phase)
    return MomentumProfile(k_grid=k, n1_of_k=n1, n2_of_k=n2)
