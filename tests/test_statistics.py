import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relbec import (GaplessMode, PhasePoint, charge_integrand, dispersions,
                    momentum_profile, occupation)
from relbec.statistics import _weighted_occupations

# high-precision scalar evaluation of k^2 [n1(k) - n2(k)] at
# k = 1, t = 1, mu = 0.5 (frozen from a 30-digit evaluation)
CI_REF = 0.496017838297


def test_dispersions_condensation_point():
    d = dispersions(0.0, 1.0)
    assert d.omega == 0.0
    assert d.omega_bar == 2.0


def test_dispersions_symmetric_at_zero_mu():
    d = dispersions(0.0, 0.0)
    assert d.omega == 1.0 and d.omega_bar == 1.0


def test_dispersions_exact_sqrt():
    d = dispersions(math.sqrt(3.0), 0.5)
    assert d.omega == pytest.approx(1.5, abs=1e-14)
    assert d.omega_bar == pytest.approx(2.5, abs=1e-14)


@given(k=st.floats(0.0, 50.0), mu=st.floats(-1.0, 1.0))
def test_dispersion_identity(k, mu):
    d = dispersions(k, mu)
    assert d.omega * d.omega_bar == pytest.approx(k * k + 1.0 - mu * mu,
                                                  rel=1e-12, abs=1e-12)
    assert d.omega + d.omega_bar == pytest.approx(2.0 * math.sqrt(k * k + 1.0),
                                                  rel=1e-13)


def test_occupation_log2():
    assert occupation(2.0 * math.log(2.0), 2.0) == pytest.approx(1.0, rel=1e-14)


def test_occupation_unit_energy():
    assert occupation(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)


def test_occupation_gapless_rejected():
    with pytest.raises(GaplessMode):
        occupation(0.0, 1.0)


def test_occupation_tiny_energy_series():
    # Laurent branch: t/e - 1/2 + e/(12 t) without catastrophic cancellation
    e, t = 1e-12, 1.0
    assert occupation(e, t) == pytest.approx(1.0 / e - 0.5, rel=1e-12)


def test_occupation_huge_exponent():
    assert occupation(800.0, 1.0) == math.exp(-800.0)


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
def test_pointwise_ratio_bound(k, t, mu):
    # occ(omega_bar)/occ(omega) <= e^{-2 mu / t}
    d = dispersions(k, mu)
    if d.omega == 0.0:
        return
    ratio = occupation(d.omega_bar, t) / occupation(d.omega, t)
    assert ratio <= math.exp(-2.0 * mu / t) * (1.0 + 1e-12)


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
