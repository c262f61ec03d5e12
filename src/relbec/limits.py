"""Closed-form limits: ultra-relativistic expansions, the d-dimensional
critical temperature, and low-temperature condensate asymptotics.

These are independent cross-validation targets for the quadrature and
solver modules; the CLI also reports them as they are (ddim-tc and the
UR columns of universal), next to the numerical results.
"""
import math
import numbers
from dataclasses import dataclass

from .errors import AsymptoteOutOfRange, InvalidArgument, UnsupportedDimension
from .types import (ChargeDensities, require_finite, require_positive,
                    require_real, require_temperature)

_ZETA_TABLE = {
    2: math.pi ** 2 / 6.0,
    3: 1.2020569031595943,
    4: math.pi ** 4 / 90.0,
}
# zeta(3/2), the constant of the non-relativistic critical density
_ZETA_3_2 = 2.6123753486854883


def zeta_int(n: int) -> float:
    """Riemann zeta at integer n >= 2.

    Common values are tabulated; larger n use the direct series with an
    Euler-Maclaurin tail, accurate to ~1e-15.
    """
    if not (isinstance(n, numbers.Integral) and n >= 2):
        raise InvalidArgument(f"zeta_int needs an integer n >= 2, got {n}")
    n = int(n)
    if n in _ZETA_TABLE:
        return _ZETA_TABLE[n]
    big_n = 400
    s = math.fsum(j ** (-float(n)) for j in range(1, big_n + 1))
    # Euler-Maclaurin tail: integral + half endpoint + first correction
    s += big_n ** (1 - n) / (n - 1) - 0.5 * big_n ** (-n) \
        + (n / 12.0) * big_n ** (-n - 1)
    return s


def gamma_half(x: float) -> float:
    """Gamma function at positive integer or half-integer x, by upward
    recursion from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi); inf from
    x = 172 on, where Gamma(x) is past the largest double."""
    x = require_finite("x", x)
    whole = x.is_integer()
    if x <= 0.0 or not (whole or (2.0 * x).is_integer()):
        raise InvalidArgument(
            f"gamma_half needs a positive integer or half-integer, got {x}")
    if x > 171.5:
        return math.inf
    if whole:
        val, arg = 1.0, 1.0
    else:
        val, arg = math.sqrt(math.pi), 0.5
    while arg < x - 0.5:
        val *= arg
        arg += 1.0
    return val


@dataclass(frozen=True)
class Dimension:
    """Spatial dimension; homogeneous BEC needs d > 2."""

    d: int

    def __post_init__(self):
        if not (isinstance(self.d, numbers.Integral) and self.d >= 3):
            raise UnsupportedDimension(
                f"need integer spatial dimension d >= 3, got {self.d}")
        object.__setattr__(self, "d", int(self.d))  # a Python int


def _dimension(dim) -> Dimension:
    """dim as a Dimension: a plain integer is checked as Dimension(dim)
    checks it."""
    return dim if isinstance(dim, Dimension) else Dimension(dim)


def ur_densities(t: float, mu: float) -> ChargeDensities:
    """First-order-in-mu ultra-relativistic densities:
    n1,2 = zeta(3) t^3/pi^2 +- mu t^2/6, q_tilde = mu t^2/3, taken as 2 b
    rather than n1 - n2, which cancels at high t. InvalidArgument where t^3
    overflows (t above ~5.6e102)."""
    t = require_temperature(t)
    mu = require_finite("mu", mu)
    cube = _power(lambda: t ** 3)
    if cube == math.inf:
        raise InvalidArgument(
            f"ur_densities at t = {t}, mu = {mu}: t^3 is not a finite double")
    a = zeta_int(3) * cube / math.pi ** 2
    b = mu * t ** 2 / 6.0
    return ChargeDensities(n1=a + b, n2=a - b, q_tilde=2.0 * b)


def _power(evaluate) -> float:
    """evaluate(), or inf where a float ** in it overflows, which Python
    raises as OverflowError rather than returning inf."""
    try:
        return evaluate()
    except OverflowError:
        return math.inf


def _require_prefactor(operation: str, pref: float, dim: Dimension,
                       detail: str) -> None:
    """Raise UnsupportedDimension, naming d, unless the prefactor of a
    d-dimensional formula (for T_c, its (d-1)-th root) is a positive
    finite double: past d ~ 150 the density of states' Gammas and powers
    leave the double range, past d ~ 1.8e308 d itself does."""
    if not 0.0 < pref < math.inf:
        raise UnsupportedDimension(
            f"{operation} at {detail}, d = {dim.d}: the prefactor is {pref}, "
            f"not a positive finite double at this dimension")


def ur_critical_temperature(q_over_m: float) -> float:
    """Ultra-relativistic critical temperature sqrt(3 q/m) (Kapusta form);
    in fully scaled units T_c/m = sqrt(3 q/m^3), a finite double at every
    q/m > 0."""
    q_over_m = require_positive("q", q_over_m)
    triple = 3.0 * q_over_m
    # where 3 q overflows, sqrt(4 x) = 2 sqrt(x) exactly
    return (math.sqrt(triple) if triple < math.inf
            else 2.0 * math.sqrt(0.75 * q_over_m))


def ur_density_ratio(t_c: float) -> float:
    """UR antiparticle ratio at the transition, where mu = 1.

    Valid only deep in the UR regime; as t_c -> 0 it tends to -1, a
    documented failure of the expansion (the true ratio stays in (0, 1)).
    """
    return ur_densities(t_c, 1.0).ratio


def density_of_states(eps: float, dim: Dimension) -> float:
    """Relativistic single-particle density of states per unit volume,
    (2 pi^{d/2} / ((2 pi)^d Gamma(d/2))) eps (eps^2 - 1)^{(d-2)/2},
    for scaled energy eps >= 1. UnsupportedDimension where the prefactor
    is not a positive finite double, InvalidArgument where the value
    overflows."""
    eps = require_finite("eps", eps)
    if eps < 1.0:
        raise InvalidArgument(f"energy below the mass gap: eps = {eps}")
    dim = _dimension(dim)
    d = dim.d
    pref = _power(lambda: 2.0 * math.pi ** (d / 2.0)
                  / ((2.0 * math.pi) ** d * gamma_half(d / 2.0)))
    _require_prefactor("density_of_states", pref, dim, f"eps = {eps}")
    dos = _power(lambda: pref * eps * (eps * eps - 1.0) ** ((d - 2) / 2.0))
    if dos == math.inf:
        raise InvalidArgument(
            f"density_of_states at eps = {eps}, d = {d}: the density of "
            f"states is not a finite double")
    return dos


def _log_gamma_half(x: float) -> float:
    """ln Gamma(x) at a positive integer or half-integer x: the log of
    gamma_half where that is finite, math.lgamma past it."""
    gamma = gamma_half(x)
    return math.log(gamma) if gamma < math.inf else math.lgamma(x)


def ddim_critical_temperature(q_over_m: float, dim: Dimension) -> float:
    """UR critical temperature of the d-dimensional gas,
    [ (2 pi)^d Gamma(d/2) / (4 pi^{d/2} Gamma(d) zeta(d-1)) * q/m ]^{1/(d-1)}.

    At d = 3 ur_critical_temperature, sqrt(3 q/m). Elsewhere the product
    of the prefactor's root, taken from its log (so its Gammas and powers
    may leave the double range, as they do from d ~ 155), and
    (q/m)^{1/(d-1)}: a positive finite double at every q/m > 0.
    UnsupportedDimension where d is past the doubles (d > 1.8e308).
    """
    q_over_m = require_positive("q", q_over_m)
    dim = _dimension(dim)
    d = dim.d
    if d == 3:
        return ur_critical_temperature(q_over_m)
    try:
        root = math.exp(math.fsum([
            d * math.log(2.0 * math.pi), _log_gamma_half(d / 2.0),
            -math.log(4.0), -d / 2.0 * math.log(math.pi),
            -_log_gamma_half(float(d)), -math.log(zeta_int(d - 1))])
            / (d - 1))
    except OverflowError:
        root = math.inf
    _require_prefactor("ddim_critical_temperature", root, dim,
                       f"q = {q_over_m}")
    return root * q_over_m ** (1.0 / (d - 1))


def ur_condensed_fraction(t: float, t_c: float, dim: Dimension) -> float:
    """UR condensed fraction 1 - (t/t_c)^{d-1}; an inverted parabola at d=3."""
    t_c = require_positive("t_c", t_c)
    t = require_real("t", t)
    if not (0.0 <= t <= t_c):
        raise InvalidArgument(f"need 0 <= t <= t_c, got t = {t}, t_c = {t_c}")
    return 1.0 - (t / t_c) ** (_dimension(dim).d - 1)


def low_t_mu_asymptote(q0_occ: float, t: float) -> float:
    """T -> 0 chemical potential at fixed condensate occupation:
    mu ~ 1 - t ln((q0+1)/q0) in scaled units. Where 1/q0 overflows
    (q0 below ~5.6e-309) the log is taken as -ln q0, its value to within
    q0."""
    q0_occ = require_positive("condensate occupation", q0_occ)
    t = require_temperature(t)
    inverse = 1.0 / q0_occ
    log_ratio = (math.log1p(inverse) if inverse < math.inf
                 else -math.log(q0_occ))
    return 1.0 - t * log_ratio


def low_t_condensate_antiparticles(q0_occ: float, t: float) -> float:
    """T -> 0 condensate antiparticle occupation
    (q0+1) / (q0 (e^{2/t} - 1) - 1), implemented verbatim.

    Evaluated through e^{-2/t} so it stays finite for small t; outside the
    validity region the denominator turns non-positive and the call fails.
    """
    q0_occ = require_positive("condensate occupation", q0_occ)
    t = require_temperature(t)
    x = 2.0 / t
    emx = math.exp(-x) if x < 745.0 else 0.0
    # (q0+1)/(q0 (e^x - 1) - 1) * e^{-x}/e^{-x}
    denom = q0_occ * (1.0 - emx) - emx
    if denom <= 0.0:
        raise AsymptoteOutOfRange(
            f"asymptotic formula invalid at t = {t}, q0 = {q0_occ}")
    return (q0_occ + 1.0) * emx / denom
