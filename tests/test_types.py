import pytest
from hypothesis import given, strategies as st

from relbec import (BoxSpec, ChargeDensities, InvalidArgument,
                    NonPositiveTemperature, PhasePoint, UnphysicalMu,
                    thermal_charge_density)


def test_phase_point_passthrough():
    p = PhasePoint(1.0, 0.5)
    assert p.t == 1.0 and p.mu == 0.5


def test_phase_point_rejects_large_mu():
    with pytest.raises(UnphysicalMu):
        PhasePoint(1.0, 1.2)


def test_phase_point_rejects_zero_temperature():
    with pytest.raises(NonPositiveTemperature):
        PhasePoint(0.0, 0.0)


def test_condensation_point_mu_accepted():
    assert PhasePoint(2.0, 1.0).mu == 1.0
    assert PhasePoint(2.0, -1.0).mu == -1.0


@given(t=st.floats(1e-3, 1e3), mu=st.floats(-1.0, 1.0))
def test_construction_round_trip(t, mu):
    p = PhasePoint(t, mu)
    again = PhasePoint(p.t, p.mu)
    assert again == p


@given(t=st.floats(1e-3, 1e3), mu=st.floats(-2.0, 2.0))
def test_sign_symmetry_of_validation(t, mu):
    def ok(m):
        try:
            PhasePoint(t, m)
            return True
        except UnphysicalMu:
            return False
    assert ok(mu) == ok(-mu)


def test_charge_densities_difference_by_construction():
    # the caller constructs the difference; it is stored as given, not
    # recomputed from n1 - n2 (0.3 - 0.1 rounds to 0.19999999999999998)
    d = ChargeDensities(n1=0.3, n2=0.1, q_tilde=0.2)
    assert (d.n1, d.n2, d.q_tilde) == (0.3, 0.1, 0.2)


def test_ratio_where_n1_underflows_raises():
    # at t = 1e-12 every occupation at mu = 0 is below the doubles
    densities = thermal_charge_density(PhasePoint(1e-12, 0.0))
    assert densities.n1 == 0.0
    with pytest.raises(InvalidArgument, match="n1 = 0"):
        densities.ratio


def test_box_spec_validation():
    BoxSpec(10.0, 4)
    with pytest.raises(ValueError):
        BoxSpec(-1.0, 4)
    with pytest.raises(ValueError):
        BoxSpec(10.0, 0)
