"""Semi-infinite quadrature for the charge-density integrand family.

Strategy: a vector-valued, level-synchronous adaptive Gauss-Kronrod
(G7/K15) scheme on [0, k_cut]. The integrand may return several
components per node (thermal_charge_density integrates k^2 n1, k^2 n2 and
k^2 (n1 - n2) together); every component must meet
rel_tol * |value| + abs_tol on its own.

The initial panels follow the physical scales of a Bose integrand with
temperature s = decay_scale and dispersion sqrt(k^2 + 1). Below the
thermal momentum p = sqrt(s (s + 2)), where the gap sqrt(k^2 + 1) - 1
equals s, they shrink geometrically toward k = 0 down to 1e-12 p, which
resolves the sqrt(2 (1 - |mu|))-wide peak as |mu| -> 1 at any t, and the
mass scale k ~ 1 when t >> 1. Above p they grow in steps of gap/s, after
the e^{-gap/s} Boltzmann tail, out to k_cut. Each level sends all of its
panels to the integrand in one call, keeps the panels within their share
of the remaining error budget and bisects the rest; at the default
tolerances the initial panels meet it at every (t, mu) in one call. The
tail beyond k_cut is bounded in closed form from the integrand at k_cut
(an incomplete Gamma of order 3); while that bound is above half the
tolerance the cutoff is doubled.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NonConvergence
# charge_integrand is looked up here as well by bench/tracing.py, which
# counts kernel calls at this module's boundary.
from .statistics import (_TINY, _gap, _weighted_occupations,  # noqa: F401
                         charge_integrand)
from .types import ChargeDensities, PhasePoint

# K15 nodes on [-1, 1] (positive half; symmetric) and weights; the G7
# subset sits at the odd indices.
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])  # ascending, 15 nodes
# Columns: Kronrod weights over the 15 ascending nodes, and Kronrod minus
# Gauss weights (the Gauss rule uses the odd nodes) for the error estimate.
_WEIGHTS = np.zeros((15, 2))
_WEIGHTS[:, 0] = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS[1::2, 1] = -np.concatenate([_WG[:-1], _WG[::-1]])
_WEIGHTS[:, 1] += _WEIGHTS[:, 0]

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
# matching the e^{-gap/s} decay of the integrand.
_TAIL_U = 1.0 + (1.3 ** np.arange(1, 31) - 1.0) / 0.3
# Refinement gives up when a level would hold more panels than this.
_MAX_PANELS = 4000


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and refinement budget for the adaptive scheme."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 60

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise InvalidArgument("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise InvalidArgument("max_subdivisions must be >= 1")


def _momentum(u: np.ndarray, s: float) -> np.ndarray:
    """The momentum whose gap sqrt(k^2 + 1) - 1 equals u * s."""
    us = u * s
    return np.sqrt(us * (us + 2.0))


def _initial_edges(k_cut: float, s: float) -> np.ndarray:
    """Panel edges on [0, k_cut] from the scales of a Bose integrand at
    temperature s: geometric toward 0 below the thermal momentum, growing
    steps in gap/s above it."""
    p = min(_momentum(1.0, s), k_cut)
    u_cut = _gap(k_cut * k_cut) / s
    u = _TAIL_U[_TAIL_U < 0.9 * u_cut]
    edges = np.concatenate([_BELOW * p, _momentum(u, s), [k_cut]])
    return edges if p < k_cut else edges[:-1]


def _gauss_kronrod(y: np.ndarray, h: np.ndarray):
    """Kronrod values and error estimates of panels with half-widths h
    from integrand values y[..., panel, node]."""
    sums = y @ _WEIGHTS
    kron = h * sums[..., 0]
    resabs = h * (np.abs(y) @ _WEIGHTS[:, 0])
    # QUADPACK-style sharpening of the raw difference; resabs = 0 means
    # y = 0 on the panel and a zero error
    ratio = 200.0 * h * np.abs(sums[..., 1]) / np.maximum(resabs, _TINY)
    return kron, resabs * np.minimum(1.0, ratio * np.sqrt(ratio))


def _tail_bound(f_cut: np.ndarray, k_cut: float, s: float) -> np.ndarray:
    """Closed-form bound on |integral over [k_cut, inf)| for integrands
    dominated by (k/k_cut)^2 e^{-(k - k_cut)/l} times |f(k_cut)|, with
    l = s sqrt(k_cut^2 + 1)/k_cut the decay length of e^{-sqrt(k^2+1)/s}
    at k_cut (at least s)."""
    ell = s * math.sqrt(k_cut * k_cut + 1.0) / k_cut
    r = ell / k_cut
    return np.abs(f_cut) * ell * (1.0 + 2.0 * r + 2.0 * r * r)


def integrate_semi_infinite(f, config: QuadratureConfig,
                            k_cut: float | None = None,
                            decay_scale: float = 1.0):
    """Integrate f over [0, inf); returns (value, error_estimate).

    f must accept a 1-d ndarray of abscissas and return either an array of
    the same length or an array of shape (m, len(k)) for m components, and
    decay at least like e^{-k/decay_scale} beyond k_cut. Value and error
    come back as floats or as arrays of length m. k_cut defaults to
    max(10*decay_scale, 10) and is doubled while the analytic tail bound
    is above its share of the tolerance.
    """
    s = decay_scale
    if k_cut is None:
        k_cut = max(10.0 * s, 10.0)
    edges = _initial_edges(k_cut, s)
    a, b = edges[:-1], edges[1:]
    done = done_err = 0.0
    for level in range(config.max_subdivisions + 1):
        h = 0.5 * (b - a)
        k = (0.5 * (a + b))[:, None] + h[:, None] * _NODES
        y = np.asarray(f(np.append(k.ravel(), k_cut)), dtype=float)
        tail = _tail_bound(y[..., -1], k_cut, s)
        kron, err = _gauss_kronrod(y[..., :-1].reshape(y.shape[:-1] + k.shape),
                                   h)
        value = done + kron.sum(axis=-1)
        error = done_err + err.sum(axis=-1) + tail
        tol = config.rel_tol * np.abs(value) + config.abs_tol
        if np.all(error <= tol):
            return value, error
        extend = np.any(tail > 0.5 * tol)
        budget = tol - done_err - (0.0 if extend else tail)
        over = (err > (budget / len(h))[..., None]).reshape(-1, len(h))
        over = over.any(axis=0)
        done = done + kron[..., ~over].sum(axis=-1)
        done_err = done_err + err[..., ~over].sum(axis=-1)
        mid = 0.5 * (a[over] + b[over])
        a = np.concatenate([a[over], mid])
        b = np.concatenate([mid, b[over]])
        if extend:
            a = np.append(a, k_cut)
            k_cut *= 2.0
            b = np.append(b, k_cut)
        if level == config.max_subdivisions or len(a) > _MAX_PANELS:
            break
    raise NonConvergence(
        f"quadrature error {np.max(error - tol):.3e} above tolerance with "
        f"refinement budget exhausted ({len(a)} panels at level {level})")


_MEASURE = 1.0 / (2.0 * math.pi ** 2)
# Cutoff where the gap is _CUT_EFOLDINGS * t: the Boltzmann tail beyond it
# is below e^-50 of each density.
_CUT_EFOLDINGS = 50.0


def thermal_charge_density(phase: PhasePoint,
                           config: QuadratureConfig = QuadratureConfig()
                           ) -> ChargeDensities:
    """Thermal densities n1, n2 and q_tilde = n1 - n2 at a phase point.

    One adaptive pass integrates k^2 n1, k^2 n2 and the cancellation-free
    k^2 (n1 - n2) on shared nodes; each meets the tolerance on its own.
    q_tilde is the integral of the direct difference, not n1 - n2, so it
    keeps its relative precision where n1 and n2 nearly cancel (high t,
    small mu).
    """
    t = phase.t
    k_cut = float(_momentum(_CUT_EFOLDINGS, t))
    (i1, i2, iq), _ = integrate_semi_infinite(
        lambda k: _weighted_occupations(k, phase), config, k_cut=k_cut,
        decay_scale=t)
    return ChargeDensities(n1=float(_MEASURE * i1), n2=float(_MEASURE * i2),
                           q_tilde=float(_MEASURE * iq))
