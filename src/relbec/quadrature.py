"""Semi-infinite quadrature for the charge-density integrand family, and
the EOS front end of the Bose kernel, in v = sqrt(gap/t).

Strategy: a vector-valued, level-synchronous adaptive Gauss-Kronrod
(G7/K15) scheme over v = sqrt(gap/t) in [0, V], where gap =
sqrt(k^2 + 1) - 1 and the cutoff V = sqrt(50) is where the gap is 50 t.
The integrand returns one or more rows and a scalar factor per row
(thermal_charge_density integrates its three rows together); every
component, its sum times the caller's scale and then its factor, must
meet rel_tol * |value| + 1e-14 on its own.

In v the gap is v^2 t exactly, and a Bose branch's exponent is
v^2 + (1 -+ mu)/t: a scalar shift of one row -v^2 shared by both branches
and every t. So the scales of the integrand sit at the same v at every
(t, mu), and so does the level-0 layout. Below v = 1, the thermal
momentum, its panels shrink geometrically toward v = 0 down to 1e-12,
which resolves the sqrt((1 - |mu|)/t)-wide peak as |mu| -> 1 and the mass
scale v ~ 1/sqrt(t) when t >> 1. Above v = 1 they grow in steps of gap/t,
after the e^{-v^2} Boltzmann tail, out to V. The 38 level-0 panels, their
half-widths and their 571 nodes (570 Kronrod nodes and V) are module
constants, built at import by the code that builds every refinement
level, so a level-0 pass builds no layout. Each level sends all of its
nodes to the integrand in one call, keeps the panels within their share
of the remaining error budget and bisects the rest; at the default
tolerances the level-0 panels meet it at every (t, mu) in one call.

The tail beyond V is bounded in closed form. Past V an integrand's ratio
to its value at V must be at most (v/V)^5 e^{-(v^2 - V^2)}; its tail is
then at most |f(V)| (V^4 + 2 V^2 + 2)/(2 V^5) = 0.0736 |f(V)|, an
incomplete Gamma of order 3. Where that bound is not below the tolerance
the pass raises NonConvergence.

Every level is the same pass, and its number of numpy calls does not grow
with the number of panels: the nodes of all panels and V go to the
integrand in one buffer, each component's Kronrod sum K and Kronrod-minus-
Gauss sum K - G come from one matrix product, a panel's error estimate is
|K - G|, and the running totals, the tail bound and the tolerance test are
one Python loop over the few components. The estimate asks nothing of the
integrand's sign.

thermal_charge_density integrates the EOS kernel's rows in v
(_weighted_occupations): k^2 n dk/dv over sigma(t) = (t (t + 2))^{3/2},
which keeps every row below 2 v^5 at any t, with sigma multiplied back
into the three sums. Since k^2 dk = 2 v t (g + 1) sqrt(g (g + 2)) dv,
g = v^2 t, those rows meet the tail contract, and the measure row is the
only work that depends on t alone. The kernel's rows of v alone, v^2,
v^2 e^{-v^2} and expm1(-v^2), come from libm (math.exp, math.expm1) node
by node, so they are the same doubles at every SIMD level numpy
dispatches (_v_rows). Those of the level-0 nodes are made once, at
import (_LEVEL0_ROWS), and the kernel takes them when it is handed
_LEVEL0_NODES itself; a refined level's nodes get theirs from the same
row function at each call. The kernel returns its rows apart from their
branch factors (statistics._rows), so the rows stay normal doubles where
a density is subnormal; _levels multiplies the factors into the sums
last, as it does sigma.
At the default tolerances thermal_charge_density is one such pass over
571 nodes at every (t, mu) with (1 - |mu|)/t at most _DEAD_X, and no pass
above it, where every k^2 n of both branches underflows to 0.0.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NonConvergence
from .statistics import _rows, _shift
# charge_integrand is looked up here as well by bench/tracing.py, which
# counts kernel calls at this module's boundary.
from .statistics import charge_integrand  # noqa: F401
from .types import ChargeDensities, PhasePoint

# K15 nodes on [-1, 1] (positive half; symmetric) and weights; the G7
# subset sits at the odd indices. Each is the double nearest the true value
# (test_kronrod_constants_are_double_roundings derives them at 40 digits).
_XK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
    0.20778495500789848, 0.0,
])
_WK = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782,
])
_WG = np.array([
    0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
    0.4179591836734694,
])

_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])  # ascending, 15 nodes
# (h, mid) @ _NODE_MAP gives a panel's nodes h x + mid, each the double
# h * x + mid gives elementwise: every level holds at least two panels.
_NODE_MAP = np.stack([_NODES, np.ones(15)])
# Columns: Kronrod weights over the 15 ascending nodes, and Kronrod minus
# Gauss weights (the Gauss rule uses the odd nodes) for the error estimate.
_WEIGHTS = np.zeros((15, 2))
_WEIGHTS[:, 0] = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS[1::2, 1] = -np.concatenate([_WG[:-1], _WG[::-1]])
_WEIGHTS[:, 1] += _WEIGHTS[:, 0]

# Level-0 edges below v = 1: 12 panels halving toward v = 0, then panels
# shrinking by 4 down to 1e-12. The halving panels hold nearly all of the
# integral; any singularity near the origin (the branch point of the
# measure at v = i sqrt(2/t), seen from t >> 1, or the Bose pole at
# v = i sqrt((1 - |mu|)/t)) leaves G7 an error well below 1e-10 on them.
# Below 1e-12 the rows, at most ~v^2/(v^2 + (1 - |mu|)/t) <= 1 at t <= 1,
# add less than 1e-12 of the integral.
_BELOW = np.concatenate([[0.0], 2.0 ** -12 * 4.0 ** -np.arange(14, 0, -1.0),
                         2.0 ** -np.arange(12, -1, -1.0)])
# Above v = 1, edges at gap/t = _TAIL_U, v = sqrt(u): steps in gap/t grow
# from 1 by 1.3 each, matching the e^{-v^2} decay of the integrand, up to
# 43.6 below the cutoff's 50.
# Python floats, since numpy's power loop rounds otherwise on other SIMD
# levels.
_TAIL_U = np.array([1.0 + (1.3 ** i - 1.0) / 0.3 for i in range(1, 11)])
# Cutoff V, where the gap is _CUT_EFOLDINGS t: the Boltzmann tail beyond
# it is below e^-50 of each density.
_CUT_EFOLDINGS = 50.0
_V_CUT = math.sqrt(_CUT_EFOLDINGS)
# The integral of (v/V)^5 e^{-(v^2 - V^2)} over [V, inf), (V^4 + 2 V^2 +
# 2)/(2 V^5): |f(V)| times it bounds the tail of an integrand within that
# envelope past V
_TAIL_FACTOR = ((_CUT_EFOLDINGS + 2.0) * _CUT_EFOLDINGS + 2.0) / (
    2.0 * _CUT_EFOLDINGS ** 2 * _V_CUT)
# Absolute floor of every component's tolerance, rel_tol |value| + _ABS_TOL
_ABS_TOL = 1e-14
# Refinement gives up after this many bisection levels, or when a level
# would hold more panels than _MAX_PANELS.
_MAX_LEVELS = 60
_MAX_PANELS = 4000
# Above this exponent np.exp(-x) is 0.0 and np.expm1(-x) is -1.0 (e^-746 is
# below half the smallest subnormal): a branch whose exponents all exceed
# it has k^2 n = 0.0 at every finite k^2, and the EOS skips a phase point
# where both branches do.
_DEAD_X = 746.0
# 2^{2/3}, the double nearest it: the EOS weight's b is 2^{2/3}/(t + 2)
_CBRT_4 = 1.5874010519681996


@dataclass(frozen=True)
class QuadratureConfig:
    """Relative tolerance of the adaptive scheme, on each component:
    finite, above 0 and below 1."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise InvalidArgument(
                f"rel_tol must be above 0 and below 1, got {self.rel_tol}")


def _layout(a: np.ndarray, b: np.ndarray):
    """The half-widths h and midpoints mid of the panels [a, b], as one
    (2, n) array, and their 15 n Kronrod nodes followed by _V_CUT, the
    node of the tail bound, as one array."""
    n = len(a)
    half = np.empty((2, n))
    h, mid = half
    np.subtract(b, a, out=h)
    np.add(a, b, out=mid)
    half *= 0.5
    nodes = np.empty(15 * n + 1)
    np.matmul(half.T, _NODE_MAP, out=nodes[:-1].reshape(n, 15))
    nodes[-1] = _V_CUT
    return half, nodes


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


# The level-0 panels at every (t, mu): 28 edges below v = 1, 10 above it
# and V; 38 panels, 571 nodes, and the kernel's rows of v alone on them.
# Read-only, since every pass shares them.
_EDGES = np.concatenate([_BELOW, np.sqrt(_TAIL_U), [_V_CUT]])
_LEVEL0_HALF, _LEVEL0_NODES = _layout(_EDGES[:-1], _EDGES[1:])
_LEVEL0_ROWS = _v_rows(_LEVEL0_NODES)
for _array in (_EDGES, _LEVEL0_HALF, _LEVEL0_NODES, _LEVEL0_ROWS):
    _array.flags.writeable = False
del _array


def _weighted_occupations(v: np.ndarray, phase: PhasePoint):
    """The EOS rows on an array of v > 0, v = sqrt(gap/t), as one
    (3, len(v)) array, and their three factors (statistics._rows): a row's
    integral over v times its factor is that of k^2 n1, k^2 n2 or
    k^2 (n1 - n2) over k, divided by sigma(t) = (t (t + 2))^{3/2}.

    With g = v^2 t the gap, k^2 dk = 2 v t (g + 1) sqrt(g (g + 2)) dv, so
    the weight is w = 2 v^2 (g + 1) sqrt(g + 2)/(t + 2)^{3/2}: about v^2
    at t << 1 and 2 v^5 at t >> 1, finite wherever the EOS runs.

    The near branch's exponent is v^2 + a, a = (1 - |mu|)/t: _rows takes
    the rows v^2 e^{-v^2} and expm1(-v^2) of _v_rows (_LEVEL0_ROWS where v
    is _LEVEL0_NODES itself) and _shift's corrected (e^{-a}, expm1(-a)),
    with 1 - |mu| taken exactly as a two-term sum. The rows are normal
    doubles wherever the EOS runs; their factors may be subnormal.
    At mu = +-1 the near exponent is v^2 alone, a normal double on every
    node of the EOS pass (v >= 3.8e-15 there), so no limit is needed;
    v = 0 is the pole of that branch and must not be passed.
    """
    t, m = phase.t, abs(phase.mu)
    p = 1.0 - m
    e_a, m_a = _shift(p, 1.0 - p - m, t)
    # w = v^2 B sqrt(B + b), B = b (g + 1), b^{3/2} = 2/(t + 2)^{3/2}
    b = _CBRT_4 / (t + 2.0)
    y, y_e, m_y = _LEVEL0_ROWS if v is _LEVEL0_NODES else _v_rows(v)
    # rows w n1, w n2 (sqrt(B + b) in the second until then),
    # P = w e^{-v^2}, and the two branches' D (_rows)
    buf = np.empty((5,) + v.shape)
    w = np.multiply(y, b * t, out=buf[2])
    w += b
    root = np.add(w, b, out=buf[1])
    np.sqrt(root, out=root)
    w *= root
    w *= y_e
    return _rows(buf, m_y, e_a, m_a, phase)


def _gauss_kronrod(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Kronrod values K and error estimates |K - G| of panels with
    half-widths h from integrand values y[component, panel, node], as
    out[0] and out[1] of one (2, component, panel) array. G is the G7
    rule embedded in K15's nodes."""
    out = np.multiply((y @ _WEIGHTS).transpose(2, 0, 1), h, order="C")
    np.abs(out[1], out=out[1])
    return out


def _levels(f, config: QuadratureConfig, scale: float):
    """(value, error) of the integrals over v in [0, inf) of the rows f
    returns, a (component, node) float array, with their factors, each
    times scale, then times its factor (the only rounding into a
    subnormal first-level value), as lists of floats; the tolerance test
    is on these values. A row may change sign,
    and past _V_CUT its ratio to its value at _V_CUT must be at most
    (v/V)^5 e^{-(v^2 - V^2)}. NonConvergence where a tail bound is not
    below its tolerance, or the refinement budget runs out. The loop over
    the components runs on Python floats, which take the same IEEE steps
    as numpy's float64 arithmetic."""
    a, b = _EDGES[:-1], _EDGES[1:]
    half, nodes = _LEVEL0_HALF, _LEVEL0_NODES
    bound = _TAIL_FACTOR * scale
    done = done_err = None
    for level in range(_MAX_LEVELS + 1):
        n = len(a)
        rows, factors = f(nodes)
        panels = _gauss_kronrod(rows[:, :-1].reshape(-1, n, 15), half[0])
        sums, err_sums = np.add.reduce(panels, axis=-1).tolist()
        if done is None:
            done = done_err = [0.0] * len(sums)
        # one pass over the components: totals, tail bound, tolerance test
        value, error, tail, tol = [], [], [], []
        converged = True
        for v, e, c, d, d_err, x in zip(sums, err_sums, rows[:, -1].tolist(),
                                        done, done_err, factors):
            v = v * scale * x + d
            c = abs(c) * bound * x
            e = e * scale * x + d_err + c
            t = config.rel_tol * abs(v) + _ABS_TOL
            value.append(v)
            error.append(e)
            tail.append(c)
            tol.append(t)
            converged &= e <= t
        if converged:
            return value, error
        panels *= scale
        panels *= np.array(factors)[:, None]
        kron, err = panels
        limit = np.array([(t - d - c) / n
                          for t, d, c in zip(tol, done_err, tail)])
        over = (err > limit[:, None]).any(axis=0)
        if not (over.any() and all(c < t for c, t in zip(tail, tol))):
            # a nan tail bound (f(V) nan, or 0 times an infinite factor)
            # also fails c < t
            raise NonConvergence(
                f"quadrature error above tolerance at level {level}, with a "
                f"tail bound not below its tolerance or no panel left to "
                f"refine: tail bounds {tail}, tolerances {tol} past v = "
                f"{_V_CUT}")
        keep = ~over
        done = [d + v for d, v in
                zip(done, kron[:, keep].sum(axis=-1).tolist())]
        done_err = [d + v for d, v in
                    zip(done_err, err[:, keep].sum(axis=-1).tolist())]
        mid = half[1][over]
        a = np.concatenate([a[over], mid])
        b = np.concatenate([mid, b[over]])
        if level == _MAX_LEVELS or len(a) > _MAX_PANELS:
            break
        half, nodes = _layout(a, b)
    raise NonConvergence(
        f"quadrature error {max(e - t for e, t in zip(error, tol)):.3e} "
        f"above tolerance with refinement budget exhausted ({len(a)} panels "
        f"at level {level})")


_MEASURE = 1.0 / (2.0 * math.pi ** 2)
# Largest t at which every sum of the pass is a finite double: the integral
# of k^2 n1, 2 zeta(3) t^3 at high t, overflows from t ~ 4.2e102
_MAX_T = 4e102


def thermal_charge_density(phase: PhasePoint,
                           config: QuadratureConfig = QuadratureConfig()
                           ) -> ChargeDensities:
    """Thermal densities n1, n2 and q_tilde = n1 - n2 at a phase point.

    One adaptive pass integrates the rows k^2 n1, k^2 n2 and the
    cancellation-free k^2 (n1 - n2) in v = sqrt(gap/t) on shared nodes;
    each meets the tolerance on its own. q_tilde is the integral of the
    direct difference, not n1 - n2, so it keeps its relative precision
    where n1 and n2 nearly cancel (high t, small mu). Where (1 - |mu|)/t
    exceeds _DEAD_X every k^2 n of both branches is 0.0, and so are the
    three densities, without a pass. Raises InvalidArgument above
    t = _MAX_T.
    """
    t = phase.t
    if t > _MAX_T:
        raise InvalidArgument(
            f"thermal_charge_density at t = {t}, mu = {phase.mu}: t must be "
            f"<= {_MAX_T:.3g}, above which the densities overflow")
    if (1.0 - abs(phase.mu)) / t > _DEAD_X:
        return ChargeDensities(n1=0.0, n2=0.0, q_tilde=0.0)
    (i1, i2, iq), _ = _levels(
        lambda v: _weighted_occupations(v, phase), config,
        (t * (t + 2.0)) ** 1.5)
    return ChargeDensities(n1=_MEASURE * i1, n2=_MEASURE * i2,
                           q_tilde=_MEASURE * iq)
