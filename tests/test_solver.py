import math

import numpy as np
import pytest

from relbec import (AboveCritical, BelowCritical, PhasePoint, SolverConfig,
                    condensed_solution, critical_temperature, density_ratio,
                    solve_mu, thermal_charge_density, universal_curves)

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
    with pytest.raises(ValueError):
        SolverConfig(max_iters=5)
