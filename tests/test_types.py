import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

import relbec
from relbec import (BoxSpec, ChargeDensities, Dimension, InvalidArgument,
                    MomentumProfile, NonPositiveTemperature, PhasePoint,
                    UnphysicalMu, thermal_charge_density)


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


@pytest.mark.parametrize("lengths", [(3, 3, 2), (3, 2, 3), (2, 3, 3)])
def test_momentum_profile_rejects_unequal_lengths(lengths):
    with pytest.raises(InvalidArgument, match="share length"):
        MomentumProfile(*(np.zeros(n) for n in lengths))


def test_box_spec_validation():
    BoxSpec(10.0, 4)
    assert BoxSpec(10.0, np.int64(65)).mode_cutoff == 65
    with pytest.raises(ValueError):
        BoxSpec(-1.0, 4)
    with pytest.raises(ValueError):
        BoxSpec(10.0, 0)
    # 65 is the split box, the largest cutoff
    with pytest.raises(InvalidArgument, match="^mode_cutoff must be an "
                       "integer from 1 to 65, got 66$"):
        BoxSpec(10.0, 66)


def _phase(call):
    """call with its first two arguments made a PhasePoint (t, mu)."""
    return lambda t, mu, *rest: call(PhasePoint(t, mu), *rest)


def _dim(call):
    """call with its last argument made a Dimension."""
    return lambda *args: call(*args[:-1], Dimension(args[-1]))


# entry point: (call, arguments with floats, arguments all integers)
ENTRY_POINTS = {
    "thermal_charge_density": (_phase(relbec.thermal_charge_density),
                               (0.3, 0.5), (2, 1)),
    "solve_mu": (relbec.solve_mu, (0.05, 1.3), (1, 3)),
    "critical_temperature": (relbec.critical_temperature, (0.7,), (3,)),
    "density_ratio": (relbec.density_ratio, (0.05, 1.3), (1, 3)),
    "condensed_solution": (relbec.condensed_solution, (1.3, 0.7), (5, 1)),
    "universal_curves": (lambda lo, hi: relbec.universal_curves(lo, hi, 3),
                         (0.1, 10.0), (1, 10)),
    "momentum_profile": (_phase(lambda phase, k_max: relbec.momentum_profile(
        phase, k_max, 16)), (1.5, 0.3, 8.0), (2, 1, 8)),
    "charge_integrand": (lambda k, t, mu: relbec.charge_integrand(
        k, PhasePoint(t, mu)), (1.5, 0.7, 0.5), (2, 1, 1)),
    "mode_sum": (_phase(lambda phase, length, cutoff, tol: relbec.mode_sum(
        phase, BoxSpec(length, cutoff), tol)),
        (1.0, 0.3, 33.3, 65, 1e-4), (1, 0, 50, 65, 1)),
    "suggest_cutoff": (_phase(relbec.suggest_cutoff),
                       (1.0, 0.3, 33.3, 1e-5), (1, 0, 50, 1)),
    "condensate_mode": (relbec.condensate_mode, (0.5, 1.0), (0, 2)),
    "ddim_critical_temperature": (_dim(relbec.ddim_critical_temperature),
                                  (1.0, 4), (1, 4)),
    "ur_critical_temperature": (relbec.ur_critical_temperature, (0.7,),
                                (3,)),
    "ur_densities": (relbec.ur_densities, (2.0, 0.4), (2, 1)),
    "ur_density_ratio": (relbec.ur_density_ratio, (2.0,), (3,)),
    "ur_condensed_fraction": (_dim(relbec.ur_condensed_fraction),
                              (0.5, 1.5, 3), (1, 2, 3)),
    "density_of_states": (_dim(relbec.density_of_states), (1.5, 3), (2, 3)),
    "gamma_half": (relbec.gamma_half, (2.5,), (4,)),
    "zeta_int": (relbec.zeta_int, (5,), (5,)),
    "low_t_mu_asymptote": (relbec.low_t_mu_asymptote, (2.0, 0.05), (2, 1)),
    "low_t_condensate_antiparticles": (relbec.low_t_condensate_antiparticles,
                                       (2.0, 0.05), (2, 1)),
}


def _numbers(result):
    """The numbers in an entry point's result, as one flat list."""
    if isinstance(result, (list, tuple)):
        return [v for item in result for v in _numbers(item)]
    if dataclasses.is_dataclass(result):
        return _numbers([getattr(result, f.name)
                         for f in dataclasses.fields(result)])
    if isinstance(result, np.ndarray):
        assert result.dtype == np.float64
        return result.tolist()
    return [result]


@pytest.mark.parametrize("scalar", [np.float32, np.float64, np.int64],
                         ids=["float32", "float64", "int64"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_numpy_scalar_inputs_give_the_python_results(name, scalar):
    # a numpy scalar is taken as the Python number of its value: a float32
    # L or t no longer turns the densities into float32, nor warns of an
    # overflowing cast where t is compared with a bound
    call, floats, ints = ENTRY_POINTS[name]
    if scalar is np.int64:
        python, numpy = ints, [scalar(v) for v in ints]
    else:
        python = [float(scalar(v)) if type(v) is float else v for v in floats]
        numpy = [scalar(v) if type(v) is float else v for v in floats]
    got, want = _numbers(call(*numpy)), _numbers(call(*python))
    assert [type(v) for v in got] == [type(v) for v in want]
    assert all(type(v) in (float, int) for v in want)
    assert got == want


@pytest.mark.parametrize("call", [
    lambda: PhasePoint("1.0", 0.5), lambda: PhasePoint(1.0, None),
    lambda: BoxSpec(complex(1.0, 0.0), 4), lambda: relbec.gamma_half("2"),
    lambda: relbec.critical_temperature(10 ** 400)],
    ids=["str-t", "none-mu", "complex-length", "str-x", "huge-int-q"])
def test_non_real_arguments_are_invalid(call):
    with pytest.raises(InvalidArgument, match="must be a real double"):
        call()
