import math

import numpy as np
import pytest

from conftest import run_python
from relbec import (AsymptoteOutOfRange, Dimension, InvalidArgument,
                    NonPositiveTemperature, UnsupportedDimension,
                    ddim_critical_temperature, density_of_states, gamma_half,
                    low_t_condensate_antiparticles, low_t_mu_asymptote,
                    ur_condensed_fraction, ur_critical_temperature,
                    ur_densities, ur_density_ratio, zeta_int)

ZETA3 = 1.2020569031595943


def test_zeta_basel():
    assert zeta_int(2) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)


def test_zeta_three_two_series_routes():
    # cross-check the tabulated value against two independent series:
    # plain Dirichlet sum with Euler-Maclaurin tail, and the eta series
    n = 3
    big = 400
    direct = sum(j ** (-n) for j in range(1, big + 1)) \
        + big ** (1 - n) / (n - 1) - 0.5 * big ** (-n) \
        + (n / 12.0) * big ** (-n - 1)
    eta = sum((-1) ** (j + 1) * j ** (-n) for j in range(1, 20_001))
    from_eta = eta / (1.0 - 2.0 ** (1 - n))
    assert zeta_int(3) == pytest.approx(direct, abs=1e-14)
    assert zeta_int(3) == pytest.approx(from_eta, abs=1e-12)


def test_zeta_uncommon_order():
    assert zeta_int(5) == pytest.approx(1.0369277551433699, rel=1e-14)
    with pytest.raises(ValueError):
        zeta_int(1)


def test_gamma_half_values():
    assert gamma_half(1.5) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-15)
    assert gamma_half(1.0) == 1.0
    assert gamma_half(4.0) == 6.0
    assert gamma_half(2.5) == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-15)
    with pytest.raises(ValueError):
        gamma_half(0.3)


@pytest.mark.parametrize("x", [172.0, 172.5, 1e9, 1e308])
def test_gamma_half_past_the_doubles_is_inf(x):
    assert gamma_half(x) == math.inf


def test_gamma_half_returns_where_the_recursion_step_stalls():
    # above 2^53, arg + 1.0 is arg: a recursion up to 1e17 never ends, so
    # it runs in a fresh interpreter that a timeout can stop
    out = run_python(
        "-c", "from relbec import gamma_half; print(gamma_half(1e17))",
        check=True, capture_output=True, text=True, timeout=60)
    assert out.stdout == "inf\n"


def test_ur_densities_symmetric():
    d = ur_densities(2.0, 0.0)
    assert d.n1 == d.n2 == pytest.approx(ZETA3 * 8.0 / math.pi ** 2, rel=1e-14)
    assert d.q_tilde == 0.0


def test_ur_charge_direct():
    assert ur_densities(1.0, 1.0).q_tilde == pytest.approx(1.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("t", [1e6, 1e12, 1e16, 1e100, 5e102])
@pytest.mark.parametrize("mu", [1e-3, 0.5, -1.0])
def test_ur_charge_does_not_cancel(t, mu):
    # n1 - n2 loses q_tilde to cancellation at high t (exactly 0.0 from
    # t ~ 1e16); q_tilde = 2 b keeps it, and n1, n2 keep their sums
    d = ur_densities(t, mu)
    b = mu * t ** 2 / 6.0
    assert d.q_tilde == 2.0 * b
    assert d.q_tilde == pytest.approx(mu * t * t / 3.0, rel=1e-15)
    a = ZETA3 * t ** 3 / math.pi ** 2
    assert (d.n1, d.n2) == (a + b, a - b)


@pytest.mark.parametrize("call", [lambda: ur_densities(1e103, 0.5),
                                  lambda: ur_density_ratio(1e103)],
                         ids=["ur_densities", "ur_density_ratio"])
def test_ur_cube_overflow_raises(call):
    # t ** 3 overflows from t ~ 5.6e102, where Python raises OverflowError
    with pytest.raises(InvalidArgument,
                       match=r"^ur_densities at t = 1e\+103, .*t\^3"):
        call()


def test_ur_critical_temperature_values():
    assert ur_critical_temperature(3.0) == pytest.approx(3.0, rel=1e-15)
    assert ur_critical_temperature(1.0 / 3.0) == pytest.approx(1.0, rel=1e-15)
    assert ur_critical_temperature(100.0) == pytest.approx(17.3205080757,
                                                           rel=1e-10)


def test_ur_density_ratio_limits():
    assert ur_density_ratio(1e6) == pytest.approx(1.0, abs=1e-5)
    # the expansion's documented failure mode: ratio -> -1 as t_c -> 0
    assert ur_density_ratio(1e-4) == pytest.approx(-1.0, abs=1e-3)


def test_ur_density_ratio_one_third_point():
    # numerator/denominator = (a - b)/(a + b) with a = 2b at this t_c
    t_c = math.pi ** 2 / (3.0 * ZETA3)
    a = ZETA3 * t_c ** 3 / math.pi ** 2
    b = t_c ** 2 / 6.0
    assert a == pytest.approx(2.0 * b, rel=1e-13)
    assert ur_density_ratio(t_c) == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_density_of_states_gap_edge():
    assert density_of_states(1.0, Dimension(3)) == 0.0


def test_density_of_states_reference():
    val = density_of_states(math.sqrt(2.0), Dimension(3))
    assert val == pytest.approx(math.sqrt(2.0) / (2.0 * math.pi ** 2), rel=1e-14)
    with pytest.raises(ValueError):
        density_of_states(0.5, Dimension(3))


def test_density_of_states_jacobian_identity():
    # rho(eps) deps = k^2/(2 pi^2) dk at eps = sqrt(k^2+1), d = 3
    rng = np.random.default_rng(42)
    for k in rng.uniform(0.05, 10.0, size=20):
        eps = math.sqrt(k * k + 1.0)
        jac = k / eps  # dk/deps inverse
        lhs = density_of_states(eps, Dimension(3))
        rhs = k * k / (2.0 * math.pi ** 2) / jac
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ddim_reduces_to_ur_at_three():
    rng = np.random.default_rng(7)
    for q in rng.uniform(1e-3, 1e3, size=100):
        assert ddim_critical_temperature(q, Dimension(3)) == pytest.approx(
            ur_critical_temperature(q), rel=1e-12)


def test_ddim_four_dimensions():
    # closed form [2 pi^2 / (3 zeta(3))]^(1/3)
    expected = (2.0 * math.pi ** 2 / (3.0 * ZETA3)) ** (1.0 / 3.0)
    got = ddim_critical_temperature(1.0, Dimension(4))
    assert got == pytest.approx(expected, rel=1e-13)
    assert got == pytest.approx(1.7623594292442, rel=1e-12)


def test_ddim_is_positive_and_finite_below_the_prefactor_range():
    for d in range(3, 155):
        assert 0.0 < ddim_critical_temperature(1.0, Dimension(d)) < math.inf


def ddim_reference(q, d):
    """T_c of the d-dimensional UR gas in 30-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        pref = (2 * mpmath.pi) ** d * mpmath.gamma(mpmath.mpf(d) / 2) / (
            4 * mpmath.pi ** (mpmath.mpf(d) / 2) * mpmath.gamma(d)
            * mpmath.zeta(d - 1))
        return float((pref * mpmath.mpf(q)) ** (mpmath.mpf(1) / (d - 1)))


@pytest.mark.parametrize("d", [155, 171, 200, 400])
def test_ddim_where_the_prefactor_leaves_the_doubles(d):
    # the prefactor underflows to 0 (d = 155, 171), is inf over inf (200)
    # or overflows (400); its root, and T_c, are ordinary doubles
    assert ddim_critical_temperature(1.0, Dimension(d)) == pytest.approx(
        ddim_reference(1.0, d), rel=1e-14)


@pytest.mark.parametrize("q, d", [(1e308, 3), (1e308, 4), (1e-308, 100),
                                  (5e-324, 3), (5e-324, 4)])
def test_ddim_at_the_ends_of_the_double_range(q, d):
    # 3 q overflows at (1e308, 3), and pref q at (1e308, 4) or at the
    # smallest q; T_c is a finite double at each
    got = ddim_critical_temperature(q, Dimension(d))
    if d == 3:  # sqrt(3 q), as 2 sqrt(3 q/4) where 3 q overflows
        assert got == (math.sqrt(3.0 * q) if q < 1e300
                       else 2.0 * math.sqrt(0.75 * q))
    assert got == pytest.approx(ddim_reference(q, d), rel=1e-13)


def test_ddim_past_the_double_dimensions_raises():
    with pytest.raises(UnsupportedDimension, match="q = 2.0, d = 1"):
        ddim_critical_temperature(2.0, Dimension(10 ** 309))


def test_ddim_matches_the_30_digit_form():
    # seeded (q, d) over the whole range of q and up to d = 2000
    rng = np.random.default_rng(819)
    for _ in range(200):
        d = int(rng.integers(4, 2000))
        q = 10.0 ** rng.uniform(-300.0, 300.0)
        assert ddim_critical_temperature(q, Dimension(d)) == pytest.approx(
            ddim_reference(q, d), rel=1e-13), (q, d)


@pytest.mark.parametrize("call", [
    lambda dim: ddim_critical_temperature(2.0, dim),
    lambda dim: ur_condensed_fraction(0.5, 1.0, dim),
    lambda dim: density_of_states(1.5, dim)],
    ids=["ddim_critical_temperature", "ur_condensed_fraction",
         "density_of_states"])
def test_plain_int_dimension_is_a_dimension(call):
    assert call(4) == call(Dimension(4))
    with pytest.raises(UnsupportedDimension, match="got 2"):
        call(2)


def test_ur_critical_temperature_where_3q_overflows():
    # 3 q overflows from q ~ 6e307, but sqrt(3 q) is a finite double; below
    # it and above, T_c is the correctly rounded root, and the d = 3 T_c is
    # the same function
    mpmath = pytest.importorskip("mpmath")
    for q in (5.9e307, 6e307, 1e308):
        with mpmath.workdps(40):
            want = float(mpmath.sqrt(3 * mpmath.mpf(q)))
        assert ur_critical_temperature(q) == want
        assert ddim_critical_temperature(q, Dimension(3)) == want
    assert ur_critical_temperature(6e307) == 1.3416407864998738e154


@pytest.mark.parametrize("d", [200, 400])
def test_density_of_states_prefactor_out_of_range_raises(d):
    with pytest.raises(UnsupportedDimension, match=f"eps = 2.0, d = {d}"):
        density_of_states(2.0, Dimension(d))


def test_density_of_states_overflow_raises():
    # eps^2 overflows at d = 3; the power overflows at d = 10
    for eps, d in ((1e200, 3), (1e100, 10)):
        with pytest.raises(InvalidArgument, match=f"d = {d}: the density"):
            density_of_states(eps, Dimension(d))


def test_dimension_two_rejected():
    with pytest.raises(UnsupportedDimension):
        Dimension(2)


def test_ur_condensed_fraction_values():
    assert ur_condensed_fraction(1.0, 1.0, Dimension(3)) == 0.0
    assert ur_condensed_fraction(0.5, 1.0, Dimension(3)) == pytest.approx(0.75)
    assert ur_condensed_fraction(0.5, 1.0, Dimension(4)) == pytest.approx(0.875)
    with pytest.raises(ValueError):
        ur_condensed_fraction(2.0, 1.0, Dimension(3))


def test_low_t_mu_asymptote():
    assert low_t_mu_asymptote(1e12, 0.1) == pytest.approx(1.0, abs=1e-10)
    assert low_t_mu_asymptote(1.0, 0.01) == pytest.approx(
        1.0 - 0.01 * math.log(2.0), rel=1e-14)


def test_low_t_mu_asymptote_where_the_inverse_occupation_overflows():
    # 1/q0 is inf below ~5.6e-309, so log1p(1/q0) would make mu -inf;
    # -ln q0 is the log to within q0
    assert low_t_mu_asymptote(5e-324, 0.5) == pytest.approx(
        1.0 + 0.5 * math.log(5e-324), rel=1e-15)
    assert low_t_mu_asymptote(5e-324, 0.5) == pytest.approx(-371.2, abs=0.1)
    # on either side of the overflow the two forms agree
    below = 1.0 / math.nextafter(math.inf, 0.0)
    for q0 in (math.nextafter(below, 0.0), math.nextafter(below, 1.0)):
        assert low_t_mu_asymptote(q0, 1.0) == pytest.approx(
            1.0 + math.log(q0), rel=1e-15)


def test_low_t_condensate_antiparticles():
    assert low_t_condensate_antiparticles(1.0, 0.5) == pytest.approx(
        2.0 / (math.exp(4.0) - 2.0), rel=1e-13)
    assert low_t_condensate_antiparticles(1.0, 0.01) == pytest.approx(0.0,
                                                                      abs=1e-80)
    with pytest.raises(AsymptoteOutOfRange):
        low_t_condensate_antiparticles(0.5, 5.0)


# every entry point rejects a nan or infinite argument, and a temperature
# must be > 0, instead of returning nan or inf
NON_FINITE_CALLS = {
    "ur_densities": [lambda: ur_densities(math.inf, 0.3),
                     lambda: ur_densities(1.0, math.nan)],
    "ur_density_ratio": [lambda: ur_density_ratio(math.inf)],
    "ur_critical_temperature": [lambda: ur_critical_temperature(math.inf)],
    "ddim_critical_temperature": [
        lambda: ddim_critical_temperature(math.inf, Dimension(3))],
    "ur_condensed_fraction": [
        lambda: ur_condensed_fraction(0.5, math.inf, Dimension(3))],
    "density_of_states": [lambda: density_of_states(math.nan, Dimension(3))],
    "gamma_half": [lambda: gamma_half(math.inf), lambda: gamma_half(math.nan)],
    "low_t_mu_asymptote": [lambda: low_t_mu_asymptote(1.0, math.inf),
                           lambda: low_t_mu_asymptote(math.inf, 0.1)],
    "low_t_condensate_antiparticles": [
        lambda: low_t_condensate_antiparticles(1.0, math.nan),
        lambda: low_t_condensate_antiparticles(math.inf, 0.1)],
}


@pytest.mark.parametrize("entry", sorted(NON_FINITE_CALLS))
def test_non_finite_arguments_raise(entry):
    for call in NON_FINITE_CALLS[entry]:
        with pytest.raises(InvalidArgument, match="must be finite"):
            call()


@pytest.mark.parametrize("call, name", [
    (lambda: ur_critical_temperature(0.0), "q"),
    (lambda: ur_critical_temperature(-1.0), "q"),
    (lambda: ur_condensed_fraction(0.0, 0.0, Dimension(3)), "t_c"),
    (lambda: ur_condensed_fraction(0.0, -1.0, Dimension(3)), "t_c"),
    (lambda: low_t_mu_asymptote(0.0, 0.1), "condensate occupation"),
    (lambda: low_t_mu_asymptote(-1.0, 0.1), "condensate occupation"),
    (lambda: low_t_condensate_antiparticles(0.0, 0.1),
     "condensate occupation"),
    (lambda: low_t_condensate_antiparticles(-1.0, 0.1),
     "condensate occupation"),
])
def test_non_positive_arguments_raise(call, name):
    with pytest.raises(InvalidArgument, match=f"^{name} must be > 0, got"):
        call()


@pytest.mark.parametrize("call", [
    lambda: ur_densities(0.0, 0.3),
    lambda: ur_density_ratio(-1.0),
    lambda: low_t_mu_asymptote(1.0, 0.0),
    lambda: low_t_condensate_antiparticles(1.0, -0.1),
])
def test_non_positive_temperature_raises(call):
    with pytest.raises(NonPositiveTemperature):
        call()


def test_ur_convergence_to_quadrature():
    # |UR - quadrature| / quadrature shrinks monotonically with t
    from relbec import PhasePoint, thermal_charge_density
    devs = []
    for t in (10.0, 30.0, 100.0):
        q = thermal_charge_density(PhasePoint(t, 0.3)).q_tilde
        devs.append(abs(ur_densities(t, 0.3).q_tilde - q) / q)
    assert devs[0] > devs[1] > devs[2]
