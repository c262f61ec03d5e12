"""Semi-infinite quadrature for the charge-density integrand family.

Strategy: a vector-valued, level-synchronous adaptive Gauss-Kronrod
(G7/K15) scheme on [0, k_cut]. The integrand may return several
components per node (thermal_charge_density integrates k^2 n1, k^2 n2 and
k^2 (n1 - n2) together); every component must meet
rel_tol * |value| + 1e-14 on its own.

The initial panels follow the physical scales of a Bose integrand with
temperature s and dispersion sqrt(k^2 + 1). Below the thermal
momentum p = sqrt(s (s + 2)), where the gap sqrt(k^2 + 1) - 1
equals s, they shrink geometrically toward k = 0 down to 1e-12 p, which
resolves the sqrt(2 (1 - |mu|))-wide peak as |mu| -> 1 at any t, and the
mass scale k ~ 1 when t >> 1. Above p they grow in steps of gap/s, after
the e^{-gap/s} Boltzmann tail, out to the fixed cutoff k_cut where the gap
is 50 s. Each level sends all of its panels to the integrand in one call,
keeps the panels within their share of the remaining error budget and
bisects the rest; at the default tolerances the initial panels meet it at
every (t, mu) in one call. The tail beyond k_cut is bounded in closed form
from the integrand at k_cut (an incomplete Gamma of order 3); where that
bound is not below the tolerance the pass raises NonConvergence.

Every level is the same pass, and its number of numpy calls does not grow
with the number of panels: the nodes of all panels and k_cut go to the
integrand in one buffer, each component's Kronrod and Kronrod-minus-Gauss
sums come from one matrix product, the QUADPACK error estimate (Piessens
et al., QUADPACK, 1983) is a few elementwise calls on the panels, and the
running totals, the tail bound and the tolerance test are one Python loop
over the few components. At the default tolerances thermal_charge_density
is one such pass over 571 nodes at every (t, mu) with (1 - |mu|)/t at most
statistics._DEAD_X, and no pass above it, where every k^2 n of both
branches underflows to 0.0.

Every component must keep one sign on [0, inf): the error estimate takes
a panel's integral of |f| as |Kronrod sum|, exact only then. The kernel's
rows keep it: test_statistics.test_weighted_occupations_keep_one_sign.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NonConvergence
from .statistics import _DEAD_X, _TINY, _weighted_occupations
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
# Columns: Kronrod weights over the 15 ascending nodes, and 200 times
# Kronrod minus Gauss weights (the Gauss rule uses the odd nodes) for the
# error estimate.
_WEIGHTS = np.zeros((15, 2))
_WEIGHTS[:, 0] = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS[1::2, 1] = -np.concatenate([_WG[:-1], _WG[::-1]])
_WEIGHTS[:, 1] += _WEIGHTS[:, 0]
_WEIGHTS[:, 1] *= 200.0

# Initial mesh below the thermal momentum p, relative to p: 12 panels
# halving toward k = 0, then panels shrinking by 4 down to 1e-12. The
# halving panels hold nearly all of the integral; any singularity near the
# origin (the branch point of sqrt(k^2 + 1) at k = i, seen from k >> 1, or
# the Bose pole at k = i sqrt(1 - mu^2)) leaves G7 an error well below
# 1e-10 on them. Below 1e-12 p the integrand, at most 2t, adds less than
# 1e-12 of the integral.
_BELOW = np.concatenate([[0.0], 2.0 ** -12 * 4.0 ** -np.arange(14, 0, -1.0),
                         2.0 ** -np.arange(12, -1, -1.0)])
# Above p, edges at gap/s = _TAIL_U: panel widths grow from 1 by 1.3 each,
# matching the e^{-gap/s} decay of the integrand, up to 43.6 below the
# cutoff's 50.
_TAIL_U = (1.0 + (1.3 ** np.arange(1, 11) - 1.0) / 0.3).tolist()
# Cutoff where the gap is _CUT_EFOLDINGS * s: the Boltzmann tail beyond it
# is below e^-50 of each density.
_CUT_EFOLDINGS = 50.0
# Absolute floor of every component's tolerance, rel_tol |value| + _ABS_TOL
_ABS_TOL = 1e-14
# Refinement gives up after this many bisection levels, or when a level
# would hold more panels than _MAX_PANELS.
_MAX_LEVELS = 60
_MAX_PANELS = 4000


@dataclass(frozen=True)
class QuadratureConfig:
    """Relative tolerance of the adaptive scheme, on each component:
    finite, above 0 and below 1."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise InvalidArgument(
                f"rel_tol must be above 0 and below 1, got {self.rel_tol}")


def _momentum(us: float) -> float:
    """The momentum whose gap sqrt(k^2 + 1) - 1 equals us."""
    return math.sqrt(us * (us + 2.0))


def _initial_edges(k_cut: float, s: float) -> np.ndarray:
    """The 39 panel edges on [0, k_cut], k_cut = _momentum(_CUT_EFOLDINGS
    s), from the scales of a Bose integrand at temperature s: geometric
    toward 0 below the thermal momentum, growing steps in gap/s above it."""
    # the momenta whose gap is u s, with _momentum's float steps inline
    tail = [math.sqrt(u * s * (u * s + 2.0)) for u in _TAIL_U]
    nb = len(_BELOW)
    edges = np.empty(nb + len(tail) + 1)
    np.multiply(_BELOW, _momentum(s), out=edges[:nb])
    edges[nb:-1] = tail
    edges[-1] = k_cut
    return edges


def _gauss_kronrod(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Kronrod values and error estimates of panels with half-widths h
    from integrand values y[component, panel, node], as out[0] and out[1]
    of one (2, component, panel) array.

    The error estimate is QUADPACK's resabs min(1, (200 |K - G|/resabs)^1.5),
    written as min(resabs, e sqrt(e/resabs)) with e = 200 |K - G|. resabs,
    the integral of |y| on the panel, is taken as |K|, which is exact for
    a component of one sign; resabs = 0 means y = 0 on the panel and a
    zero error."""
    sums = y @ _WEIGHTS
    out = np.multiply(sums.transpose(2, 0, 1), h, order="C")
    resabs, e = np.abs(out)
    err = out[1]
    np.divide(e, np.maximum(resabs, _TINY), out=err)
    np.sqrt(err, out=err)
    err *= e
    np.minimum(err, resabs, out=err)
    return out


def _tail_factor(k_cut: float, s: float) -> float:
    """l c of the closed-form bound |f(k_cut)| l c on |integral over
    [k_cut, inf)| for integrands dominated by (k/k_cut)^2 e^{-(k - k_cut)/l}
    times |f(k_cut)|, with l = s sqrt(k_cut^2 + 1)/k_cut the decay length
    of e^{-sqrt(k^2+1)/s} at k_cut (at least s), r = l/k_cut and
    c = 1 + 2 r + 2 r^2."""
    ell = s * math.sqrt(k_cut * k_cut + 1.0) / k_cut
    r = ell / k_cut
    return ell * (1.0 + 2.0 * r + 2.0 * r * r)


def _levels(f, config: QuadratureConfig, s: float):
    """(value, error) of the integral of f over [0, inf), as lists of
    floats, one per row of f's output; each row keeps one sign and decays
    at least like e^{-gap/s} beyond the fixed cutoff k_cut =
    _momentum(_CUT_EFOLDINGS * s). NonConvergence where a tail bound is
    not below its tolerance, or the refinement budget runs out. The loop
    over the components runs on Python floats, which take the same IEEE
    steps as numpy's float64 arithmetic."""
    k_cut = _momentum(_CUT_EFOLDINGS * s)
    bound = _tail_factor(k_cut, s)
    edges = _initial_edges(k_cut, s)
    a, b = edges[:-1], edges[1:]
    done = done_err = None
    for level in range(_MAX_LEVELS + 1):
        n = len(a)
        half = np.empty((2, n))
        h, mid = half
        np.subtract(b, a, out=h)
        np.add(a, b, out=mid)
        half *= 0.5
        nodes = np.empty(15 * n + 1)
        np.matmul(half.T, _NODE_MAP, out=nodes[:-1].reshape(n, 15))
        nodes[-1] = k_cut
        y = np.asarray(f(nodes), dtype=float)
        rows = y.reshape(-1, len(nodes))
        panels = _gauss_kronrod(rows[:, :-1].reshape(-1, n, 15), h)
        sums, err_sums = np.add.reduce(panels, axis=-1).tolist()
        if done is None:
            done = done_err = [0.0] * len(sums)
        # one pass over the components: totals, tail bound, tolerance test
        value, error, tail, tol = [], [], [], []
        converged = True
        for v, e, c, d, d_err in zip(sums, err_sums, rows[:, -1].tolist(),
                                     done, done_err):
            v += d
            c = abs(c) * bound
            e = e + d_err + c
            t = config.rel_tol * abs(v) + _ABS_TOL
            value.append(v)
            error.append(e)
            tail.append(c)
            tol.append(t)
            converged &= e <= t
        if converged:
            return value, error
        kron, err = panels
        limit = np.array([(t - d - c) / n
                          for t, d, c in zip(tol, done_err, tail)])
        over = (err > limit[:, None]).any(axis=0)
        if not (over.any() and all(c < t for c, t in zip(tail, tol))):
            # a tail bound that is nan (0 * inf, where f(k_cut) = 0 and the
            # tail factor overflows) also fails c < t
            raise NonConvergence(
                f"quadrature error above tolerance at level {level}, with a "
                f"tail bound not below its tolerance or no panel left to "
                f"refine: tail bounds {tail}, tolerances {tol} at k_cut = "
                f"{k_cut}")
        keep = ~over
        done = [d + v for d, v in
                zip(done, kron[:, keep].sum(axis=-1).tolist())]
        done_err = [d + v for d, v in
                    zip(done_err, err[:, keep].sum(axis=-1).tolist())]
        mid = mid[over]
        a = np.concatenate([a[over], mid])
        b = np.concatenate([mid, b[over]])
        if level == _MAX_LEVELS or len(a) > _MAX_PANELS:
            break
    raise NonConvergence(
        f"quadrature error {max(e - t for e, t in zip(error, tol)):.3e} "
        f"above tolerance with refinement budget exhausted ({len(a)} panels "
        f"at level {level})")


_MEASURE = 1.0 / (2.0 * math.pi ** 2)
# Largest t at which one pass stays finite and free of overflow warnings,
# which begin at t ~ 4.2e102
_MAX_T = 4e102


def thermal_charge_density(phase: PhasePoint,
                           config: QuadratureConfig = QuadratureConfig()
                           ) -> ChargeDensities:
    """Thermal densities n1, n2 and q_tilde = n1 - n2 at a phase point.

    One adaptive pass integrates k^2 n1, k^2 n2 and the cancellation-free
    k^2 (n1 - n2) on shared nodes; each meets the tolerance on its own.
    q_tilde is the integral of the direct difference, not n1 - n2, so it
    keeps its relative precision where n1 and n2 nearly cancel (high t,
    small mu). Where (1 - |mu|)/t exceeds _DEAD_X every k^2 n of both
    branches is 0.0, and so are the three densities, without a pass.
    Raises InvalidArgument above t = _MAX_T.
    """
    t = phase.t
    if t > _MAX_T:
        raise InvalidArgument(
            f"thermal_charge_density at t = {t}, mu = {phase.mu}: t must be "
            f"<= {_MAX_T:.3g}, above which the densities overflow")
    if (1.0 - abs(phase.mu)) / t > _DEAD_X:
        return ChargeDensities(n1=0.0, n2=0.0, q_tilde=0.0)
    (i1, i2, iq), _ = _levels(
        lambda k: _weighted_occupations(k, phase), config, t)
    return ChargeDensities(n1=_MEASURE * i1, n2=_MEASURE * i2,
                           q_tilde=_MEASURE * iq)
