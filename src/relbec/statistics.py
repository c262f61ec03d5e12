"""The Bose kernel: the dispersion gap, the Bose-Einstein occupation and
the weighted occupations of both branches, on arrays of momenta k or of
the EOS variable v = sqrt(gap/t).

Particles carry energy omega = sqrt(k^2+1) - mu, antiparticles
omega_bar = sqrt(k^2+1) + mu: the two branches share the gap
sqrt(k^2+1) - 1 and differ only in the sign of mu. The gap is evaluated
through the cancellation-free form k^2/(sqrt(k^2+1) + 1), which stays
accurate as k -> 0, so omega = (1 - mu) + gap stays accurate as mu -> 1.
In v the gap is v^2 t exactly, and a branch's exponent omega/t is
v^2 + (1 -+ mu)/t: a scalar shift of one row -v^2 shared by both
branches and every t.

The occupation 1/(e^x - 1) is one formula at every x >= 0,
e^{-x}/(1 - e^{-x}) with the denominator -expm1(-x): neither factor can
overflow, so large x needs no clamp, and expm1 keeps full precision as
x -> 0, so small x needs no series. The exponents of the two branches
differ by the constant 2|mu|/t at every k, so the kernel takes one exp
and one expm1 row, over the near branch in k or over -v^2 in v, and
forms both branches from them and a few scalars (_rows). A scalar shift
a = p/t enters as the pair (e^{-a}, expm1(-a)), corrected for the
rounding of a by an exact remainder in plain doubles (Dekker's
two-product), so no node's exponent carries a rounding of a.

The EOS front end returns the branch factors e^{-a} and e^{-(a + d)}
apart from its rows, which so stay normal doubles. It takes its rows v^2,
v^2 e^{-v^2} and expm1(-v^2) from libm (math.exp, math.expm1) node by
node, so they are the same doubles at every SIMD level numpy dispatches.
They depend on v alone: nodes that carry them (_Nodes, the EOS's level-0
layout) hand them to every call.
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
# 2^{2/3}, the double nearest it: the EOS weight's b is 2^{2/3}/(t + 2)
_CBRT_4 = 1.5874010519681996
# Below this factor e^{-x}, -expm1(-x) is 1.0 and e^{-x} D' (0 <= D' <= 1)
# below half its ulp: _rows adds 0.0 instead, so no product is subnormal
_FLUSH = 2.0 ** -60
# Largest momentum whose square is a finite double
_MAX_K = math.sqrt(sys.float_info.max)
# Dekker's splitter 2^27 + 1: with c = _SPLIT x, x_hi = c - (c - x) and
# x_lo = x - x_hi are two halves of x whose products are exact doubles
_SPLIT = 134217729.0
# Largest t whose split _SPLIT t is finite. Above it (t > 1.3e300) the
# shift a = p/t <= 2/t leaves e^{-a} = 1.0, and its residual is dropped.
_SPLIT_MAX = sys.float_info.max / _SPLIT
# Below this shift numerator the two-product's low parts could underflow;
# _shift takes such a numerator scaled by _UP, which is exact
_SMALL_P = 2.0 ** -800
_UP = 2.0 ** 600


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


def _shift(p: float, q: float, t: float):
    """(e^{-a}, expm1(-a)) at the shift a = (p + q)/t, for an exact sum
    p + q >= 0 with |q| at most half an ulp of p: the pair at the double
    a0 = p/t, corrected to first order (e^{-r} = 1 - r) for the residual
    r = (p + q)/t - a0. Without it every exponent shifted by a would
    carry a's rounding, up to 1.1e-16 a: a relative error of the rows of
    that size.

    r is (p - a0 t + q)/t, where the remainder p - a0 t is the exact
    (p - hi) - lo of the Dekker two-product a0 t = hi + lo, taken on p, q
    and a0 scaled by 2^600 where p < _SMALL_P, so that no partial product
    underflows; where q = 0 the residual is correctly rounded. Where
    t >= _SPLIT_MAX, or e^{-a0} is 0.0, r is dropped.
    """
    a = p / t
    e, m = math.exp(-a), math.expm1(-a)
    if e and t < _SPLIT_MAX:
        scale = 1.0
        if p < _SMALL_P:
            p, q, a, scale = p * _UP, q * _UP, a * _UP, 1.0 / _UP
        hi, lo = _two_product(a, t)
        r = e * ((p - hi - lo + q) / t * scale)
        e, m = e - r, m - r
    return e, m


def _two_product(a: float, b: float):
    """(hi, lo) with hi the double a b and hi + lo = a b exactly, by
    Dekker's split of a and b by _SPLIT; for a, b and their halves'
    products neither overflowing nor underflowing."""
    hi = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return hi, a_hi * b_hi - hi + a_hi * b_lo + a_lo * b_hi + a_lo * b_lo


def _rows(buf, near, m_y, e_a, m_a, shift_d, mu, under=None, limit=0.0):
    """The three rows, as buf[:3], from a (5, n) buffer holding
    P = w e^{-y} in buf[2], and the row m_y = expm1(-y), which may be
    buf[3 + near] itself, for weights w >= 0 and the near branch's
    exponents x_> = y + a, where the near branch is the one of the
    smaller gap (particles for mu >= 0); the other has x_< = x_> + d.
    (e_a, m_a) and shift_d = (e^{-d}, expm1(-d)) are _shift's pairs at a
    and at d = 2|mu|/t.

    A branch's row is its w n over its factor, e^{-a} or e^{-(a + d)}:
    P/D, D = 1 - e^{-x}, with D_> = -expm1(-y) e^{-a} - expm1(-a) and
    D_< = e^{-d} D_> - expm1(-d), sums of terms >= 0 at every d.

    At the nodes of the mask `under`, where x_> has underflowed, the near
    row takes `limit`.

    The difference row, of factor e^{-a}, is formed without cancellation
    as sign(mu) (P/D_>) (1 - e^{-d})/D_<: it keeps full relative precision
    where n1 - n2 would cancel (high t, small mu) and never overflows.
    """
    e_d, m_d = shift_d
    d_near = np.multiply(m_y, -e_a if e_a > _FLUSH else 0.0,
                         out=buf[3 + near])
    d_near -= m_a
    d_far = np.multiply(d_near, e_d if e_d > _FLUSH else 0.0,
                        out=buf[4 - near])
    d_far -= m_d
    if under is not None:
        d_near[under] = math.inf
    np.divide(buf[2], buf[3:], out=buf[:2])
    if under is not None:
        buf[near][under] = limit
    diff = np.multiply(buf[near], math.copysign(-m_d, mu), out=buf[2])
    diff /= d_far
    return buf[:3]


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
        out = _momentum_occupations(ks, phase)[2]
    return out.reshape(np.shape(k)) if np.ndim(k) else float(out[0])


def _momentum_occupations(k: np.ndarray, phase: PhasePoint) -> np.ndarray:
    """Rows k^2 n1(k), k^2 n2(k) and k^2 [n1(k) - n2(k)] on an array of
    momenta whose squares are finite, as one (3, len(k)) array.

    The branch of the smaller gap, n_> (particles for mu >= 0), has the
    exponents x_> = (gap + 1 - |mu|)/t, built as their exact negation
    ((|mu| - 1) - gap)/t, -gap = k^2/(-1 - sqrt(k^2 + 1)); _rows, with no
    shift (y = x_>), derives the other branch and the difference, and the
    far row is multiplied by its factor e^{-d}.

    Where x_> has underflowed, which happens only at mu = +-1 as k -> 0
    (the gap k^2/(E + 1) vanishes with k^2), k^2 n_> takes its limit
    t(E + 1) = 2t; that also covers momenta whose k^2 underflows to 0
    while the occupation is infinite.
    """
    k = np.asarray(k, dtype=float)
    t, mu = phase.t, phase.mu
    near = 0 if mu >= 0.0 else 1
    # rows k^2 n1, k^2 n2 (-1 - sqrt(k^2 + 1) and -x_> until then),
    # k^2 e^{-x_>} (k^2 until then), and expm1(-x_>) in the near branch's
    # row of the last two
    buf = np.empty((5,) + k.shape)
    ksq = np.multiply(k, k, out=buf[2])
    root, neg_x = buf[1 - near], buf[near]
    np.sqrt(np.add(ksq, 1.0, out=root), out=root)
    np.divide(ksq, np.subtract(-1.0, root, out=root), out=neg_x)
    neg_x += abs(mu) - 1.0
    neg_x /= t
    # x_> >= (1 - |mu|)/t, since the gap is >= 0: only where that bound
    # underflows can n_> overflow; there it is 0 meanwhile, then 2t
    under = neg_x > -_TINY if (1.0 - abs(mu)) / t < _TINY else None
    m_y = np.expm1(neg_x, out=buf[3 + near])
    ksq *= np.exp(neg_x, out=neg_x)
    shift_d = _shift(2.0 * abs(mu), 0.0, t)
    rows = _rows(buf, near, m_y, 1.0, 0.0, shift_d, mu, under, 2.0 * t)
    rows[1 - near] *= shift_d[0]
    return rows


def _v_rows(v: np.ndarray) -> np.ndarray:
    """The rows v^2, v^2 e^{-v^2} and expm1(-v^2) of the EOS front end on
    an array of v, as one (3, len(v)) array: e^{-v^2} and expm1(-v^2) by
    libm's math.exp and math.expm1 node by node, the products by numpy,
    correctly rounded on every loop, so that no row depends on numpy's
    SIMD dispatch."""
    rows = np.empty((3, len(v)))
    y = np.multiply(v, v, out=rows[0])
    neg_y = np.negative(y).tolist()
    rows[1] = list(map(math.exp, neg_y))
    rows[1] *= y
    rows[2] = list(map(math.expm1, neg_y))
    return rows


class _Nodes(np.ndarray):
    """A read-only array of EOS nodes v that carries its _v_rows(v), also
    read-only, as .rows: the kernel takes them instead of making them. A
    view or a result of arithmetic carries none (rows is None)."""

    rows = None


def _with_rows(v: np.ndarray) -> _Nodes:
    """v, made read-only, as a _Nodes carrying its rows."""
    rows = _v_rows(v)
    v.flags.writeable = rows.flags.writeable = False
    nodes = v.view(_Nodes)
    nodes.rows = rows
    return nodes


def _weighted_occupations(v: np.ndarray, phase: PhasePoint):
    """The EOS rows on an array of v > 0, v = sqrt(gap/t), as one
    (3, len(v)) array, and their three factors: a row's integral over v
    times its factor is that of k^2 n1, k^2 n2 or k^2 (n1 - n2) over k,
    divided by sigma(t) = (t (t + 2))^{3/2}.

    With g = v^2 t the gap, k^2 dk = 2 v t (g + 1) sqrt(g (g + 2)) dv, so
    the weight is w = 2 v^2 (g + 1) sqrt(g + 2)/(t + 2)^{3/2}: about v^2
    at t << 1 and 2 v^5 at t >> 1, finite wherever the EOS runs.

    A branch's exponent is v^2 + a, with a = (1 - |mu|)/t on the branch
    of the smaller gap, and v^2 + a + d on the other, d = 2|mu|/t: the
    rows v^2 e^{-v^2} and expm1(-v^2) of _v_rows (those v carries, if it
    is a _Nodes), and _shift's corrected (e^{-a}, expm1(-a)), with
    1 - |mu| taken exactly as a two-term sum; _rows derives both branches
    and the difference, rows that are normal doubles wherever the EOS
    runs, while their factors, e^{-a} and e^{-a} e^{-d}, may be subnormal.
    At mu = +-1 the near exponent is v^2 alone, a normal double on every
    node of the EOS pass (v >= 3.8e-15 there), so no limit is needed;
    v = 0 is the pole of that branch and must not be passed.
    """
    t, mu = phase.t, phase.mu
    m = abs(mu)
    near = 0 if mu >= 0.0 else 1
    p = 1.0 - m
    e_a, m_a = _shift(p, 1.0 - p - m, t)
    shift_d = _shift(2.0 * m, 0.0, t)
    # w = v^2 B sqrt(B + b), B = b (g + 1), b^{3/2} = 2/(t + 2)^{3/2}
    b = _CBRT_4 / (t + 2.0)
    rows = getattr(v, "rows", None)
    y, y_e, m_y = _v_rows(v) if rows is None else rows
    # rows w n1, w n2 (sqrt(B + b) in the second until then),
    # P = w e^{-v^2}, and the two branches' D (_rows)
    buf = np.empty((5,) + v.shape)
    w = np.multiply(y, b * t, out=buf[2])
    w += b
    root = np.add(w, b, out=buf[1])
    np.sqrt(root, out=root)
    w *= root
    w *= y_e
    far = e_a * shift_d[0]
    factors = (far, e_a, e_a) if near else (e_a, far, e_a)
    return _rows(buf, near, m_y, e_a, m_a, shift_d, mu), factors


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
        n1, n2, _ = _momentum_occupations(k, phase)
    return MomentumProfile(k_grid=k, n1_of_k=n1, n2_of_k=n2)
