"""Independent references for the relbec benchmark checks.

Nothing here imports relbec. The thermal densities come from
scipy.integrate.quad with breakpoints at the physical scales sqrt(t) and
t; the non-relativistic closed form (the large-argument expansion of the
Bessel-K2 series) and the Bessel-K2 series itself are used where they
converge; closed forms of the d-dimensional limit come from mpmath. Everything is
computed afresh in each run; the only stored values are the golden T_c
file of the test suite, an independent 30-digit computation.
"""
import json
import math
import pathlib
import warnings

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import kve

# quad warns when 1e-13 is beyond what roundoff allows; the references are
# cross-checked against closed forms and the golden T_c file instead
warnings.filterwarnings("ignore", category=IntegrationWarning)

MEASURE = 1.0 / (2.0 * math.pi ** 2)
# The program's stated quadrature tolerances (QuadratureConfig defaults)
# are rel 1e-10 and abs 1e-14 on the integral; the checks allow 100x the
# relative one and exactly the absolute one, carried to density units.
DENSITY_RTOL = 1e-8
DENSITY_ATOL = 1e-14 * MEASURE

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE.parent / "tests" / "golden" / "critical_temperatures.json"

_ZETA = {s: float(mpmath.zeta(s)) for s in (1.5, 2.5, 3.5, 4.5)}


def _k_max(t):
    # E - 1 = 60 t: the Bose factor is below e^-60 there, in both limits
    return math.sqrt((1.0 + 60.0 * t) ** 2 - 1.0)


def _breakpoints(t, k_max):
    return sorted({p for p in (math.sqrt(t), 4.0 * math.sqrt(t), t, 10.0 * t)
                   if 0.0 < p < k_max})


def _integrate(f, t):
    k_max = _k_max(t)
    value, _ = quad(f, 0.0, k_max, points=_breakpoints(t, k_max),
                    epsabs=0.0, epsrel=1e-13, limit=500)
    return MEASURE * value


def density(t, mu, sign=+1):
    """n1 (sign=+1) or n2 (sign=-1): (1/2pi^2) Int k^2/(e^{(E -+ mu)/t}-1)."""
    m = sign * mu

    def f(k):
        e = math.sqrt(k * k + 1.0)
        x = (k * k / (e + 1.0) + (1.0 - m)) / t
        if x == 0.0:
            return 2.0 * t
        if x > 700.0:
            return k * k * math.exp(-x)
        return k * k / math.expm1(x)

    return _integrate(f, t)


def q_tilde(t, mu):
    """n1 - n2 from the cancellation-free difference integrand
    k^2 (a - b)/((1 - a)(1 - b)), a = e^{-(E-mu)/t}, b = e^{-(E+mu)/t}."""
    if mu < 0.0:
        return -q_tilde(t, -mu)
    if mu == 0.0:
        return 0.0

    def f(k):
        e = math.sqrt(k * k + 1.0)
        gap = k * k / (e + 1.0)
        xa = (gap + (1.0 - mu)) / t
        xb = (gap + (1.0 + mu)) / t
        if xa > 700.0:
            return k * k * math.exp(-xa) * -math.expm1(-2.0 * mu / t)
        if xa == 0.0:
            return 2.0 * t
        num = math.exp(-xa) * -math.expm1(-2.0 * mu / t)
        return k * k * num / (-math.expm1(-xa) * -math.expm1(-xb))

    return _integrate(f, t)


def nr_density_at_condensation(t):
    """n1(t, mu=1) from the large-argument expansion of the K2 series:
    (t/2pi)^{3/2} [z(3/2) + 15t/8 z(5/2) + 105t^2/128 z(7/2)
    - 315t^3/1024 z(9/2)], exact to O(t^4) relative."""
    c = (_ZETA[1.5] + 15.0 / 8.0 * t * _ZETA[2.5]
         + 105.0 / 128.0 * t * t * _ZETA[3.5]
         - 315.0 / 1024.0 * t ** 3 * _ZETA[4.5])
    return (t / (2.0 * math.pi)) ** 1.5 * c


def bessel_density(t, mu, j_max=200000):
    """n1 = (t/2pi^2) sum_j e^{j(mu-1)/t} K2e(j/t)/j, summed until the terms
    drop below 1e-17 of the total; None when it does not converge."""
    j = np.arange(1, j_max + 1, dtype=float)
    terms = np.exp(j * (mu - 1.0) / t) * kve(2, j / t) / j
    total = np.cumsum(terms)
    done = np.nonzero(terms < 1e-17 * total)[0]
    if len(done) == 0:
        return None
    return t * MEASURE * float(total[done[0]])


def critical_temperature(q):
    """Reference T_c: the root of q_tilde(t, 1) = q, bracketed by the NR
    and UR estimates and refined to 1e-13 relative."""
    t_nr = 2.0 * math.pi * (q / _ZETA[1.5]) ** (2.0 / 3.0)
    t_ur = math.sqrt(3.0 * q)
    lo, hi = 0.25 * min(t_nr, t_ur), 4.0 * max(t_nr, t_ur)
    return brentq(lambda t: q_tilde(t, 1.0) - q, lo, hi, rtol=1e-13,
                  xtol=1e-300)


def solve_mu(q, t):
    """Reference chemical potential, or 1.0 when q is at or above the
    maximal thermal charge q_tilde(t, 1) (condensed phase)."""
    if q == 0.0:
        return 0.0
    if q < 0.0:
        return -solve_mu(-q, t)
    if q >= q_tilde(t, 1.0):
        return 1.0
    return brentq(lambda mu: q_tilde(t, mu) - q, 0.0, 1.0, xtol=1e-14,
                  rtol=1e-15)


def ratio(t, mu):
    return density(t, mu, -1) / density(t, mu, +1)


def ddim_critical_temperature(q, d):
    """UR T_c in d dimensions, in 30-digit arithmetic."""
    mpmath.mp.dps = 30
    pref = (2 * mpmath.pi) ** d * mpmath.gamma(mpmath.mpf(d) / 2) / (
        4 * mpmath.pi ** (mpmath.mpf(d) / 2) * mpmath.gamma(d)
        * mpmath.zeta(d - 1))
    return float((pref * mpmath.mpf(q)) ** (mpmath.mpf(1) / (d - 1)))


def weighted_occupation(k, mu, t):
    """k^2/(e^{(E - mu)/t} - 1) in 30-digit arithmetic, with its k = 0
    limit 2t at mu = 1 and 0 otherwise."""
    mpmath.mp.dps = 30
    if k == 0.0:
        return 2.0 * t if mu == 1.0 else 0.0
    k = mpmath.mpf(k)
    x = (mpmath.sqrt(k * k + 1) - mpmath.mpf(mu)) / t
    return float(k * k / mpmath.expm1(x))


def lattice_points(cutoff):
    """Integer vectors n with 0 < |n|^2 <= cutoff^2, counted column by
    column: for each (x, y), 2 floor(sqrt(c^2 - x^2 - y^2)) + 1 values of z."""
    c2 = cutoff * cutoff
    y = np.arange(-cutoff, cutoff + 1, dtype=np.int64)
    total = 0
    for x in range(-cutoff, cutoff + 1):
        rest = c2 - x * x - y * y
        rest = rest[rest >= 0]
        z = np.floor(np.sqrt(rest.astype(float))).astype(np.int64)
        z -= (z * z > rest)          # correct a sqrt rounded up
        z += ((z + 1) ** 2 <= rest)  # or down
        total += int(np.sum(2 * z + 1))
    return total - 1


def golden_critical_temperatures():
    values = json.loads(GOLDEN.read_text())["values"]
    return {float(q): tc for q, tc in values.items()}

