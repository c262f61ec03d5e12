import math

import numpy as np
import pytest
from scipy.optimize import brentq

from relbec import (AboveCritical, BelowCritical, ChargeDensities,
                    InvalidArgument, NonConvergence, NonPositiveTemperature,
                    PhasePoint, RelBecError, SolverConfig, condensed_solution,
                    critical_temperature, density_ratio, solve_mu,
                    thermal_charge_density, universal_curves)
from relbec import solver
from relbec.solver import _brent

# critical temperatures pinned by 30-digit forward quadrature
TC_GOLDEN = {
    0.01: 0.14071245594878,
    0.1: 0.52730656292931,
    1.0: 1.7248333861983,
    10.0: 5.4749162748552,
    100.0: 17.319776949145,
}


def test_solve_mu_zero_charge():
    assert solve_mu(0.0, 1.0) == 0.0


def test_solve_mu_round_trip():
    q = thermal_charge_density(PhasePoint(1.0, 0.5)).q_tilde
    assert solve_mu(q, 1.0) == pytest.approx(0.5, abs=1e-10)


def test_solve_mu_ultra_relativistic():
    # UR inversion mu = 3 q / T^2; forward residual below 1 percent
    mu = solve_mu(250.0, 50.0)
    assert mu == pytest.approx(0.3, rel=0.01)
    assert mu == pytest.approx(0.302746705617, rel=1e-8)


def test_solve_mu_charge_conjugation():
    cfg = SolverConfig()
    for q, t in [(0.05, 1.0), (0.3, 2.0)]:
        assert solve_mu(-q, t, cfg) == pytest.approx(-solve_mu(q, t, cfg),
                                                     abs=cfg.mu_tol)


def test_solve_mu_resolves_small_mu():
    # UR regime, mu ~ 3 q / t^2 = 3e-11: the relative tolerance resolves it
    mu = solve_mu(1e-9, 10.0)
    assert mu == pytest.approx(3.1479e-11, rel=1e-4)
    q_back = thermal_charge_density(PhasePoint(10.0, mu)).q_tilde
    assert q_back == pytest.approx(1e-9, rel=1e-9)


def test_solve_mu_below_critical_rejected():
    with pytest.raises(BelowCritical):
        solve_mu(10.0, 1.0)


@pytest.mark.parametrize("q", sorted(TC_GOLDEN))
def test_critical_temperature_golden(q):
    assert critical_temperature(q) == pytest.approx(TC_GOLDEN[q], rel=1e-7)


def test_critical_temperature_degenerate_zero():
    assert critical_temperature(0.0) == 0.0


def test_critical_temperature_rejects_negative():
    with pytest.raises(ValueError):
        critical_temperature(-1.0)


@pytest.mark.parametrize("call", [
    lambda: solve_mu(math.nan, 1.0),
    lambda: solve_mu(0.1, math.inf),
    lambda: solve_mu(math.inf, 1.0),
    lambda: critical_temperature(math.inf),
    lambda: critical_temperature(math.nan),
    lambda: condensed_solution(math.nan, 0.5),
    lambda: condensed_solution(1.0, math.nan),
    lambda: density_ratio(math.inf, 1.0),
    lambda: thermal_charge_density(PhasePoint(math.inf, 0.5)),
])
def test_non_finite_arguments_raise_typed_error(call):
    # typed, and still a ValueError like every argument error
    with pytest.raises(InvalidArgument) as exc:
        call()
    assert isinstance(exc.value, ValueError)
    assert "finite" in str(exc.value)


@pytest.mark.parametrize("call", [
    lambda: solve_mu(0.1, 0.0),
    lambda: solve_mu(0.1, -1.0),
    lambda: condensed_solution(1.0, 0.0),
    lambda: condensed_solution(1.0, -2.0),
])
def test_non_positive_temperature_raises_typed_error(call):
    with pytest.raises(NonPositiveTemperature):
        call()


@pytest.mark.parametrize("q", [1e-12, 1e-10])
def test_critical_temperature_non_relativistic_anchor(q):
    # T_c << 1: the relativistic correction is of order T_c itself
    t_nr = 2.0 * math.pi * (q / 2.6123753486854883) ** (2.0 / 3.0)
    assert critical_temperature(q) == pytest.approx(t_nr, rel=1e-3)


def test_critical_temperature_ur_anchor():
    assert critical_temperature(100.0) == pytest.approx(math.sqrt(300.0),
                                                        rel=0.01)


def test_condensed_solution_at_transition():
    q = 1.0
    tc = critical_temperature(q)
    sol = condensed_solution(q, tc)
    assert sol.q0 == pytest.approx(0.0, abs=1e-6)
    assert sol.phase.mu == 1.0


def test_condensed_solution_deep_cold():
    sol = condensed_solution(1.0, 0.05)
    # thermal remnant at mu = m scales as zeta(3/2) (t / 2 pi)^{3/2}
    remnant = 2.6123753486854883 * (0.05 / (2.0 * math.pi)) ** 1.5
    assert sol.q0 / 1.0 == pytest.approx(1.0 - remnant, abs=1e-4)
    assert sol.order_param_sq == sol.q0 / 2.0


def test_condensed_solution_charge_conservation():
    q = 1.0
    tc = critical_temperature(q)
    for t in np.linspace(0.2 * tc, 0.95 * tc, 5):
        sol = condensed_solution(q, float(t))
        assert sol.q0 + sol.densities.q_tilde == pytest.approx(q, rel=1e-9)


def test_condensed_fraction_monotone_decreasing():
    q = 1.0
    tc = critical_temperature(q)
    fracs = [condensed_solution(q, f * tc).q0 / q
             for f in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
    assert all(a > b for a, b in zip(fracs, fracs[1:]))
    assert fracs[0] > 0.98
    assert fracs[-1] == pytest.approx(0.0, abs=1e-6)


def test_condensed_solution_above_critical_rejected():
    tc = critical_temperature(1.0)
    with pytest.raises(AboveCritical):
        condensed_solution(1.0, 2.0 * tc)


def test_ur_condensed_fraction_parabola():
    q = 100.0
    tc = critical_temperature(q)
    frac = condensed_solution(q, tc / 2.0).q0 / q
    assert frac == pytest.approx(0.75, rel=0.02)


def test_transition_continuity_of_mu():
    # mu(t) -> 1 continuously as t -> T_c from above
    q = 1.0
    tc = critical_temperature(q)
    mus = [solve_mu(q, tc * (1.0 + eps)) for eps in (1e-2, 1e-4, 1e-6)]
    assert all(a < b < 1.0 for a, b in zip(mus, mus[1:]))
    assert mus[-1] == pytest.approx(1.0, abs=1e-4)


def test_density_ratio_non_relativistic_suppression():
    r = density_ratio(0.1, 0.2)
    assert r == pytest.approx(2.025942913e-5, rel=1e-7)
    assert r < math.exp(-2.0 / 0.2)


def test_density_ratio_ur_approaches_one():
    assert density_ratio(0.1, 50.0) > 0.999


def test_density_ratio_at_transition_matches_universal_curve():
    q = 1.0
    tc = critical_temperature(q)
    r = density_ratio(q, tc)
    assert r == pytest.approx(0.223414551847, rel=1e-6)


def test_universal_curves_monotone():
    pts = universal_curves(0.05, 50.0, 6)
    tcs = [p.t_c for p in pts]
    ratios = [p.ratio for p in pts]
    assert all(a < b for a, b in zip(tcs, tcs[1:]))
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(0.0 < p.ratio < 1.0 for p in pts)


def test_universal_curves_ur_tail():
    from relbec import ur_critical_temperature, ur_density_ratio
    (pt,) = universal_curves(400.0, 500.0, 2)[1:]
    assert pt.t_c == pytest.approx(ur_critical_temperature(pt.q), rel=0.01)
    assert pt.ratio == pytest.approx(ur_density_ratio(pt.t_c), rel=0.01)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu_tol=0.0)
    # below 4 ulps no bracket can meet the tolerance
    with pytest.raises(InvalidArgument):
        SolverConfig(t_tol=1e-20)
    with pytest.raises(InvalidArgument, match="mu_tol"):
        SolverConfig(mu_tol=1e-20)
    with pytest.raises(InvalidArgument):
        SolverConfig(mu_tol=math.nan)
    # a tolerance of 1 or more stops Brent at its first bracket
    for name in ("mu_tol", "t_tol"):
        for tol in (math.inf, -math.inf, 1.0, 2.0):
            with pytest.raises(InvalidArgument, match=f"^{name} must be"):
                SolverConfig(**{name: tol})


@pytest.mark.parametrize("points", [2.5, 1, "3"])
def test_universal_curves_takes_an_integer_count(points):
    with pytest.raises(InvalidArgument, match="points must be an integer"):
        universal_curves(0.1, 10.0, points)


# (f, a, b): smooth roots inside the bracket, a root at either bracket end,
# a flat triple root, a kink, a steep front and values near underflow
BRENT_CASES = [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 10.0, 0.0, 5.0),
    (lambda x: math.tanh(10.0 * (x - 0.3)), -1.0, 1.0),
    (lambda x: x - 0.5, 0.5, 1.0),
    (lambda x: x - 0.5, -1.0, 0.5),
    (lambda x: (x - 1.0 / 3.0) ** 3, 0.0, 1.0),
    (lambda x: abs(x - 0.7) - 0.1, 0.65, 2.0),
    (lambda x: 1e-170 * (x - 0.3), 0.0, 1.0),
    (lambda x: math.expm1(-x) + 1e-12, 0.0, 40.0),
]
BRENT_TOLERANCES = [(1e-300, 8.9e-16), (1e-12, 8.9e-16), (1e-10, 8.9e-16),
                    (1e-300, 1e-8), (1e-6, 1e-3), (0.1, 1e-8)]


@pytest.mark.parametrize("case", range(len(BRENT_CASES)))
@pytest.mark.parametrize("xtol, rtol", BRENT_TOLERANCES)
def test_brent_matches_scipy_brentq(case, xtol, rtol):
    f, a, b = BRENT_CASES[case]
    expected = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=200)
    assert _brent(f, a, b, f(a), f(b), xtol, rtol, 200, "test") == expected


def test_brent_matches_scipy_brentq_on_power_laws():
    # sign(x - r) |x - r|^p (1 + c x): flat, kinked and skewed roots that
    # take every branch of the step choice
    rng = np.random.default_rng(7)
    for r, p, c in zip(rng.uniform(0.05, 0.95, 3000),
                       rng.uniform(0.2, 3.0, 3000),
                       rng.uniform(-1.0, 1.0, 3000)):
        def f(x):
            return math.copysign(abs(x - r) ** p, x - r) * (1.0 + c * x)
        for xtol, rtol in [(1e-3, 1e-3), (1e-6, 8.9e-16), (0.05, 1e-8)]:
            assert _brent(f, 0.0, 1.0, f(0.0), f(1.0), xtol, rtol, 100,
                          "test") == brentq(f, 0.0, 1.0, xtol=xtol,
                                            rtol=rtol, maxiter=100)


@pytest.mark.parametrize("case", range(len(BRENT_CASES)))
def test_brent_exhausts_its_iterations_where_brentq_does(case):
    # with too few iterations brentq reports failure and _brent raises;
    # with enough, both return the same root
    f, a, b = BRENT_CASES[case]
    for max_iters in range(0, 40):
        root, info = brentq(f, a, b, xtol=1e-300, rtol=8.9e-16,
                            maxiter=max_iters, full_output=True, disp=False)
        if info.converged:
            assert _brent(f, a, b, f(a), f(b), 1e-300, 8.9e-16, max_iters,
                          "test") == root
        else:
            with pytest.raises(NonConvergence, match="test did not converge"):
                _brent(f, a, b, f(a), f(b), 1e-300, 8.9e-16, max_iters,
                       "test")


def _outcome(call):
    """("ok", call()), or the type and message of the RelBecError it
    raised; any other exception fails the test."""
    try:
        return "ok", call()
    except RelBecError as exc:
        return type(exc), str(exc)


def _contract_states():
    """About 300 seeded (q, t), q = 0 and +-10^U(-12, 9), t = 10^U(-6, 6),
    plus each of 30 charges at its own T_c, where Brent can return mu = 1.0
    exactly for a state that is not condensed."""
    rng = np.random.default_rng(13)
    qs = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-12.0, 9.0, 300)
    qs[::25] = 0.0
    states = list(zip(qs.tolist(), (10.0 ** rng.uniform(-6.0, 6.0, 300))
                      .tolist()))
    states += [(float(q), critical_temperature(float(q)))
               for q in np.geomspace(1e-12, 1e9, 30)]
    return states


def test_thermal_state_is_the_one_condensation_decision():
    cfg = SolverConfig()
    kinds = set()
    for q, t in _contract_states():
        kind, state = _outcome(lambda: solver._thermal_state(q, t, cfg))
        mu_kind, mu = _outcome(lambda: solve_mu(q, t, cfg))
        if kind != "ok":
            # a failed solve fails solve_mu the same way
            assert (mu_kind, mu) == (kind, state)
            continue
        mu_state, densities, condensed = state
        # the thermal charge has the sign of q: conjugated for q < 0
        assert densities.q_tilde * q >= 0.0
        if condensed:
            assert mu_kind is BelowCritical
            assert mu_state == math.copysign(1.0, q)
            assert abs(q) >= abs(densities.q_tilde)
        else:
            assert mu_kind == "ok" and repr(mu) == repr(mu_state)
        kinds.add((condensed, mu_state == 1.0))
        if q > 0.0:
            assert _outcome(lambda: density_ratio(q, t, cfg)) == \
                ("ok", densities.ratio)
    # condensed and uncondensed states, and mu = 1.0 without condensation
    assert {(True, True), (False, False), (False, True)} <= kinds


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_charge_round_trip_over_the_stated_range():
    # every uncondensed state returns densities whose charge is q, to 1e-6
    # plus the low-t conditioning of the relative mu_tol, ~mu_tol/t
    cfg = SolverConfig()
    uncondensed = 0
    for size in np.geomspace(1e-12, 1e9, 22).tolist():
        for q in (size, -size):
            for t in np.geomspace(1e-6, 1e6, 19).tolist():
                kind, state = _outcome(lambda: solver._thermal_state(q, t,
                                                                     cfg))
                assert kind == "ok", state
                mu, densities, condensed = state
                mu_kind, _ = _outcome(lambda: solve_mu(q, t, cfg))
                assert (mu_kind is BelowCritical) == condensed
                if not condensed:
                    uncondensed += 1
                    tol = (1e-6 + 2.0 * cfg.mu_tol / t) * abs(q)
                    assert abs(densities.q_tilde - q) <= tol, (q, t, mu)
    assert uncondensed == 480


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_critical_temperature_bracket_holds_the_root():
    # the closed-form bracket holds T_c for all q whose densities are doubles
    for q in np.geomspace(1e-300, 1e100, 300).tolist():
        lo, hi = solver._tc_bracket(q)
        assert (thermal_charge_density(PhasePoint(lo, 1.0)).q_tilde <= q
                <= thermal_charge_density(PhasePoint(hi, 1.0)).q_tilde), q


def no_antiparticles(q):
    """Densities of a thermal charge q carried by particles alone."""
    return ChargeDensities(n1=q, n2=0.0, q_tilde=q)


def test_critical_temperature_bracket_failure_names_the_charge(monkeypatch):
    # a thermal charge that never reaches q leaves no root in the bracket
    monkeypatch.setattr(
        solver, "thermal_charge_density",
        lambda phase, config: no_antiparticles(0.5))
    with pytest.raises(NonConvergence) as exc:
        critical_temperature(1.0)
    message = str(exc.value)
    assert "critical_temperature" in message and "q = 1.0" in message


def test_density_ratio_where_n1_underflows_raises():
    # at t = 1e-100 the thermal densities underflow to 0 at every mu < 1
    with pytest.raises(InvalidArgument, match="n1 = 0"):
        density_ratio(1e-300, 1e-100)


@pytest.mark.parametrize("case", range(len(BRENT_CASES)))
def test_brent_bisects_where_the_inverse_quadratic_step_underflows(case):
    # residuals scaled to ~1e-110 make dblk * dpre * (fblk - fpre)
    # underflow to 0; brentq gets inf or nan there and bisects
    g, a, b = BRENT_CASES[case]

    def f(x):
        return 1e-110 * g(x)

    expected = brentq(f, a, b, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    assert _brent(f, a, b, f(a), f(b), 1e-300, 8.9e-16, 200,
                  "test") == expected


@pytest.mark.parametrize("call", [
    lambda: solve_mu(1e-200, 1e-3),
    lambda: density_ratio(1e-120, 1e-6),
    lambda: critical_temperature(1e-300),
], ids=["solve_mu", "density_ratio", "critical_temperature"])
def test_charges_far_below_the_range_stay_in_contract(call):
    # their residuals are so small that Brent's inverse quadratic step
    # underflowed and raised ZeroDivisionError
    kind, value = _outcome(call)
    assert kind != "ok" or math.isfinite(value)


@pytest.fixture
def eos_points(monkeypatch):
    """Every (t, mu) the solver integrates at, in call order."""
    seen = []
    real = solver.thermal_charge_density

    def recording(phase, config):
        seen.append((phase.t, phase.mu))
        return real(phase, config)

    monkeypatch.setattr(solver, "thermal_charge_density", recording)
    return seen


def _distinct_points(eos_points, call):
    eos_points.clear()
    try:
        call()
    except BelowCritical:
        pass
    assert eos_points
    assert len(set(eos_points)) == len(eos_points)
    return len(eos_points)


@pytest.mark.parametrize("q, t", [(0.5, 2.0), (-0.5, 2.0), (1e-30, 1.0),
                                  (1e-19, 0.02), (1e6, 1e3), (10.0, 1.0)])
def test_solve_mu_and_density_ratio_integrate_each_point_once(eos_points,
                                                              q, t):
    mu_calls = _distinct_points(eos_points, lambda: solve_mu(q, t))
    assert _distinct_points(eos_points, lambda: solver._thermal_state(
        q, t, SolverConfig())) == mu_calls
    # the ratio comes from the densities found at the root
    ratio_calls = _distinct_points(eos_points,
                                   lambda: density_ratio(abs(q), t))
    assert ratio_calls == mu_calls


@pytest.mark.parametrize("q", [1e-12, 0.01, 1.0, 1e9])
def test_critical_temperature_integrates_each_point_once(eos_points, q):
    _distinct_points(eos_points, lambda: critical_temperature(q))


def test_density_ratio_at_transition_integrates_each_point_once(eos_points):
    tc = critical_temperature(1.0)
    _distinct_points(eos_points, lambda: density_ratio(1.0, tc))


def test_universal_curves_integrate_each_point_once(eos_points):
    qs = [float(q) for q in np.geomspace(0.01, 100.0, 5)]
    tc_calls = sum(_distinct_points(eos_points,
                                    lambda: critical_temperature(q))
                   for q in qs)
    # the ratio at T_c comes from the densities found at the root
    assert _distinct_points(
        eos_points, lambda: universal_curves(0.01, 100.0, 5)) == tc_calls


def test_solve_mu_non_convergence_names_the_point(monkeypatch):
    # at t = 0.02 q_tilde rises like e^{-(1 - mu)/t}: 10 steps are too few
    monkeypatch.setattr(solver, "_MAX_ITERS", 10)
    with pytest.raises(NonConvergence) as exc:
        solve_mu(-1e-19, 0.02)
    message = str(exc.value)
    assert "solve_mu" in message
    assert "q = 1e-19" in message and "t = 0.02" in message


def test_critical_temperature_non_convergence_names_the_charge(monkeypatch):
    # a thermal charge that jumps at t = 1.2345 leaves Brent bisecting
    monkeypatch.setattr(
        solver, "thermal_charge_density",
        lambda phase, config: no_antiparticles(
            2.0 if phase.t > 1.2345 else 0.5))
    monkeypatch.setattr(solver, "_MAX_ITERS", 10)
    with pytest.raises(NonConvergence) as exc:
        critical_temperature(1.0)
    message = str(exc.value)
    assert "critical_temperature" in message and "q = 1.0" in message
