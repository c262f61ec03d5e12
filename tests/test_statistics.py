import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relbec import (InvalidArgument, PhasePoint, charge_integrand,
                    momentum_profile, quadrature, statistics)
from relbec.statistics import _TINY, _bose, _gap, _weighted_occupations

# high-precision scalar evaluation of k^2 [n1(k) - n2(k)] at
# k = 1, t = 1, mu = 0.5 (frozen from a 30-digit evaluation)
CI_REF = 0.496017838297


def test_gap_condensation_point():
    # omega = gap + 1 - mu vanishes at k = 0, mu = 1; omega_bar = 2
    assert _gap(0.0) + (1.0 - 1.0) == 0.0
    assert _gap(0.0) + (1.0 + 1.0) == 2.0


def test_gap_symmetric_at_zero_mu():
    assert _gap(0.0) + 1.0 == 1.0


def test_gap_exact_sqrt():
    # k = sqrt(3): sqrt(k^2 + 1) - 1 = 1, so omega = 1.5, omega_bar = 2.5
    k = math.sqrt(3.0)
    gap = _gap(k * k)
    assert gap + (1.0 - 0.5) == pytest.approx(1.5, abs=1e-14)
    assert gap + (1.0 + 0.5) == pytest.approx(2.5, abs=1e-14)


def test_gap_without_cancellation():
    # sqrt(k^2 + 1) - 1 would round to 0 here; the gap keeps k^2/2
    assert _gap(1e-20) == 5e-21
    ksq = np.array([0.0, 1e-20, 3.0, 1e6])
    np.testing.assert_array_equal(_gap(ksq), [_gap(v) for v in ksq])


@given(k=st.floats(0.0, 50.0), mu=st.floats(-1.0, 1.0))
def test_dispersion_identity(k, mu):
    omega = _gap(k * k) + (1.0 - mu)
    omega_bar = _gap(k * k) + (1.0 + mu)
    assert omega * omega_bar == pytest.approx(k * k + 1.0 - mu * mu,
                                              rel=1e-12, abs=1e-12)
    assert omega + omega_bar == pytest.approx(2.0 * math.sqrt(k * k + 1.0),
                                              rel=1e-13)


def test_occupation_log2():
    x = np.array([2.0 * math.log(2.0)]) / 2.0
    assert _bose(x)[0] == pytest.approx(1.0, rel=1e-14)


def test_occupation_unit_energy():
    assert _bose(np.array([1.0]))[0] == pytest.approx(1.0 / (math.e - 1.0),
                                                      rel=1e-14)


def test_occupation_tiny_energy_series():
    # e^{-x}/(-expm1(-x)) keeps full precision as x -> 0 with no series:
    # at x = 3e-9 it is the same double as the Laurent series
    # 1/x - 1/2 + x/12
    assert _bose(np.array([1e-12]))[0] == pytest.approx(1e12 - 0.5,
                                                        rel=1e-12)
    x = 3e-9
    assert _bose(np.array([x]))[0] == 1.0 / x - 0.5 + x / 12.0


def test_occupation_huge_exponent():
    assert _bose(np.array([800.0]))[0] == math.exp(-800.0)


def test_occupation_writes_in_place():
    # x = 0 -> inf, tiny, moderate and large exponents, written into out
    x = np.array([[0.0, 1e-12, 1.0], [30.0, 650.0, 720.0]])
    out = np.empty_like(x)
    assert _bose(x, out=out) is out
    expected = [[math.inf, 1e12 - 0.5, 1.0 / math.expm1(1.0)],
                [1.0 / math.expm1(30.0), 1.0 / math.expm1(650.0),
                 math.exp(-720.0)]]
    np.testing.assert_allclose(out, expected, rtol=1e-14)


def test_occupation_all_above_overflow():
    # exponents beyond the overflow of e^x, down to subnormal and zero
    # results: the same doubles as where the array also holds small ones
    x = np.array([[700.5, 720.0, 745.0], [746.0, 2000.0, 1e6]])
    out = np.empty_like(x)
    assert _bose(x, out=out) is out
    mixed = _bose(np.append(x.ravel(), 1.0))
    np.testing.assert_array_equal(out.ravel(), mixed[:-1])
    assert out[0, 2] > 0.0 and out[1, 2] == 0.0


# Largest distance in ulp of _bose from the exact occupation where that is
# a normal double: 2, measured on 100000 log-uniform x with numpy's
# AVX-512, AVX2 and baseline exp/expm1 loops
OCCUPATION_ULP = 2


def test_occupation_matches_mpmath():
    # seeded x over [5e-324, 1e3] plus the edges where a naive form fails:
    # e^x - 1 loses digits below 1e-8, e^x nears overflow from 700, the
    # results are subnormal from 708 to 745 and 0.0 from 746
    rng = np.random.default_rng(2002)
    x = np.concatenate([
        [0.0, 5e-324, 1e-8, math.nextafter(1e-8, 0.0), 700.0, 746.0,
         2000.0],
        np.arange(708.0, 746.0), rng.uniform(708.0, 746.0, 100),
        np.exp(rng.uniform(math.log(5e-324), math.log(1e3), 4000))])
    got = _bose(x)
    assert got[0] == math.inf
    bits = got.view(np.int64)
    smallest = mpmath.mpf(2) ** -1074
    with mpmath.workdps(40):
        for xi, g, gbits in zip(x[1:].tolist(), got[1:].tolist(),
                                bits[1:].tolist()):
            exact = 1 / mpmath.expm1(mpmath.mpf(xi))
            ref = float(exact)
            if exact < smallest / 2:
                assert g == 0.0, xi
            elif ref == math.inf:
                assert g == math.inf, xi
            elif ref >= _TINY:
                ulps = abs(gbits - int(np.float64(ref).view(np.int64)))
                assert ulps <= OCCUPATION_ULP, (xi, g, ref)
            else:  # subnormal: within one unit of the smallest subnormal
                assert abs(g - ref) <= 5e-324, (xi, g, ref)


def test_charge_integrand_vanishes_at_zero_mu():
    assert charge_integrand(1.0, PhasePoint(1.0, 0.0)) == 0.0


def test_charge_integrand_reference_point():
    assert charge_integrand(1.0, PhasePoint(1.0, 0.5)) == pytest.approx(
        CI_REF, rel=1e-11)


def test_charge_integrand_limit_at_condensation_point():
    # k^2 n1(k) -> 2t as k -> 0 when mu = 1; confirmed by extrapolation
    f = PhasePoint(0.5, 1.0)
    at_zero = charge_integrand(0.0, f)
    assert at_zero == 2.0 * f.t
    v3 = charge_integrand(1e-3, f)
    v4 = charge_integrand(1e-4, f)
    # Richardson in k^2: limit = v4 + (v4 - v3) * h4/(h3 - h4)
    extrap = v4 + (v4 - v3) * 1e-8 / (1e-6 - 1e-8)
    assert extrap == pytest.approx(at_zero, rel=1e-6)


@pytest.mark.parametrize("k, named", [
    (1e200, "1e+200"), (-1e200, "-1e+200"), (math.inf, "inf"),
    (math.nan, "nan"), (np.array([1.0, 2e154, 3.0]), "2e+154"),
    (np.array([[0.5], [-math.inf]]), "-inf")])
def test_charge_integrand_rejects_momenta_without_finite_square(k, named):
    # k^2 overflowed (a RuntimeWarning) or was nan, and the integrand nan
    message = f"k^2 must be a finite double, got k = {named}"
    with pytest.raises(InvalidArgument, match=re.escape(message) + "$"):
        charge_integrand(k, PhasePoint(1.0, 0.5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_charge_integrand_at_the_largest_squarable_momenta():
    for k in (1.3e154, -1.3e154, statistics._MAX_K):
        assert math.isfinite(charge_integrand(k, PhasePoint(1.0, 0.5)))
    above = math.nextafter(statistics._MAX_K, math.inf)
    assert math.isinf(above * above)
    with pytest.raises(InvalidArgument):
        charge_integrand(above, PhasePoint(1.0, 0.5))
    values = charge_integrand(np.array([0.0, 1.0, 1.3e154]),
                              PhasePoint(1.0, 0.5))
    assert np.isfinite(values).all()


@pytest.mark.parametrize("mu", [1.0, -1.0])
@pytest.mark.parametrize("k", [2.77e-295, 1e-155, 5e-324])
def test_charge_integrand_gapless_underflow(k, mu):
    # k^2 (or the gap k^2/(E + 1)) underflows while the occupation is
    # infinite: the integrand still takes its limit +-2t
    t = 1.0
    assert charge_integrand(k, PhasePoint(t, mu)) == pytest.approx(
        math.copysign(2.0 * t, mu), rel=1e-12)


@pytest.mark.parametrize("t", [1e-9, 1.0, 1e6])
def test_weighted_occupations_gapless_underflow(t):
    k = np.array([0.0, 5e-324, 2.77e-295, 1e-155, 1e-3, 1.0, 30.0])
    rows = _weighted_occupations(k, PhasePoint(t, 1.0))
    assert rows.shape == (3, len(k))
    assert np.all(np.isfinite(rows))
    np.testing.assert_allclose(rows[0, :4], 2.0 * t, rtol=1e-12)
    np.testing.assert_allclose(rows[2], rows[0] - rows[1], rtol=1e-12,
                               atol=1e-300)
    mirror = _weighted_occupations(k, PhasePoint(t, -1.0))
    np.testing.assert_array_equal(mirror[0], rows[1])
    np.testing.assert_array_equal(mirror[1], rows[0])
    np.testing.assert_array_equal(mirror[2], -rows[2])


def eos_nodes(t):
    """k = 0, the panel edges and the Kronrod nodes of the first level of
    thermal_charge_density at temperature t."""
    edges = quadrature._initial_edges(
        quadrature._momentum(quadrature._CUT_EFOLDINGS * t), t)
    half = np.stack([edges[1:] - edges[:-1], edges[1:] + edges[:-1]]) / 2.0
    nodes = half.T @ quadrature._NODE_MAP
    return np.concatenate([[0.0], edges, nodes.ravel()])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weighted_occupations_keep_one_sign():
    # the quadrature's error estimate takes a panel's integral of |f| as
    # |Kronrod sum|, exact only for rows of one sign: k^2 n1, k^2 n2 >= 0
    # and k^2 (n1 - n2) of the sign of mu, at every t the EOS accepts
    rng = np.random.default_rng(1717)
    ts = [1e-12, quadrature._MAX_T] + (10.0 ** rng.uniform(
        -12.0, math.log10(quadrature._MAX_T), 2000)).tolist()
    fixed = [1.0, -1.0, 0.0, -0.0, 1.0 - 1e-16, -(1.0 - 1e-16)]
    for t in ts:
        k = eos_nodes(t)
        for mu in fixed + rng.uniform(-1.0, 1.0, 6).tolist():
            rows = _weighted_occupations(k, PhasePoint(t, mu))
            assert np.isfinite(rows).all(), (t, mu)
            assert (rows[:2] >= 0.0).all(), (t, mu)
            assert (rows[2] * math.copysign(1.0, mu) >= 0.0).all(), (t, mu)
            if mu == 0.0:
                assert not rows[2].any(), t


@settings(max_examples=200)
@given(k=st.floats(0.0, 30.0), t=st.floats(0.05, 20.0),
       mu=st.floats(0.0, 1.0))
def test_charge_integrand_antisymmetric_in_mu(k, t, mu):
    plus = charge_integrand(k, PhasePoint(t, mu))
    minus = charge_integrand(k, PhasePoint(t, -mu))
    assert minus == pytest.approx(-plus, rel=1e-13, abs=1e-300)


@given(k=st.floats(0.01, 20.0), t=st.floats(0.1, 10.0),
       mu=st.floats(-0.99, 0.97))
def test_charge_integrand_monotone_in_mu(k, t, mu):
    lo = charge_integrand(k, PhasePoint(t, mu))
    hi = charge_integrand(k, PhasePoint(t, mu + 0.02))
    assert hi > lo


@settings(max_examples=200)
@given(k=st.floats(0.0, 30.0), t=st.floats(0.05, 10.0),
       mu=st.floats(0.01, 1.0))
# k^2 is subnormal here: the rows are the correctly rounded 2.9781e-319
# and 1.5e-323, whose ratio 5.0e-5 is above the bound 4.54e-5
@example(k=9.866775989168195e-157, t=0.05, mu=0.25)
def test_pointwise_ratio_bound(k, t, mu):
    # n2/n1 = occ(omega_bar)/occ(omega) <= e^{-2 mu / t}
    n1, n2, _ = _weighted_occupations(np.array([k]), PhasePoint(t, mu))[:, 0]
    if n1 == 0.0:  # k^2 = 0: both rows vanish
        return
    if n2 < _TINY:
        # a subnormal k^2 n2 keeps too few bits for a relative bound
        assert 0.0 <= n2 <= n1
    else:
        assert n2 / n1 <= math.exp(-2.0 * mu / t) * (1.0 + 1e-12)


def test_momentum_profile_symmetric_at_zero_mu():
    prof = momentum_profile(PhasePoint(1.0, 0.0), 10.0, 64)
    np.testing.assert_array_equal(prof.n1_of_k, prof.n2_of_k)


def test_momentum_profile_particles_dominate():
    # mu solving q/m^3 = 0.1 at t = 1.5 (frozen from the EOS inversion)
    prof = momentum_profile(PhasePoint(1.5, 0.185192516853), 10.0, 256)
    inner = slice(1, None)
    assert np.all(prof.n1_of_k[inner] > prof.n2_of_k[inner])
    # both curves peak at intermediate momentum
    for curve in (prof.n1_of_k, prof.n2_of_k):
        peak = int(np.argmax(curve))
        assert 0 < peak < len(curve) - 1


def test_momentum_profile_ratio_grows_with_temperature():
    # same q = 0.1, hotter gas: antiparticle fraction larger at every k
    cold = momentum_profile(PhasePoint(1.0, 0.467493666505), 8.0, 128)
    hot = momentum_profile(PhasePoint(2.0, 0.0960086659727), 8.0, 128)
    inner = slice(1, None)
    assert np.all(hot.n2_of_k[inner] / hot.n1_of_k[inner]
                  > cold.n2_of_k[inner] / cold.n1_of_k[inner])


def test_momentum_profile_validation():
    with pytest.raises(ValueError):
        momentum_profile(PhasePoint(1.0, 0.0), -1.0, 16)
    with pytest.raises(ValueError):
        momentum_profile(PhasePoint(1.0, 0.0), 1.0, 1)


@pytest.mark.parametrize("k_max", [math.inf, math.nan, 1e200])
def test_momentum_profile_rejects_k_max_without_finite_square(k_max):
    # k_max^2 = inf would give nan rows
    with pytest.raises(InvalidArgument, match="k_max must be"):
        momentum_profile(PhasePoint(1.0, 0.1), k_max, 3)


@pytest.mark.parametrize("samples", [2.5, 3.0, "3"])
def test_momentum_profile_takes_an_integer_count(samples):
    with pytest.raises(InvalidArgument, match="samples must be an integer"):
        momentum_profile(PhasePoint(1.0, 0.1), 4.0, samples)
    assert len(momentum_profile(PhasePoint(1.0, 0.1), 4.0,
                                np.int64(3)).k_grid) == 3
