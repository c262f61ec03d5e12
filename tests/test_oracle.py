import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from relbec import (BoxSpec, BudgetExceeded, DivergentCondensateMode,
                    InvalidArgument, NonPositiveTemperature, PhasePoint,
                    TailTooLarge, condensate_mode, low_t_mu_asymptote,
                    mode_sum, suggest_cutoff,
                    thermal_charge_density)
from relbec.oracle import _DIRECT_SHELLS, _lattice_points, _shell_counts

# 20-digit finite-volume reference (t=1, mu=0.5, L=20, |n| <= 15)
FV_N1_REF = 0.13717411487013
FV_N2_REF = 0.043976902989337


def brute_force_sum(phase, box):
    """Ungrouped triple-loop lattice sum; deliberately naive."""
    n = box.mode_cutoff
    dk = 2.0 * math.pi / box.box_length
    s1 = s2 = 0.0
    for nx in range(-n, n + 1):
        for ny in range(-n, n + 1):
            for nz in range(-n, n + 1):
                m2 = nx * nx + ny * ny + nz * nz
                if m2 == 0 or m2 > n * n:
                    continue
                e = math.sqrt((dk * dk) * m2 + 1.0)
                s1 += 1.0 / math.expm1((e - phase.mu) / phase.t)
                s2 += 1.0 / math.expm1((e + phase.mu) / phase.t)
    vol = box.box_length ** 3
    return s1 / vol, s2 / vol


def explicit_shell_sum(phase, box):
    """Bose occupations summed over every lattice vector 0 < |n| <= cutoff,
    one x-slab at a time, without grouping into shells."""
    c = box.mode_cutoff
    dk = 2.0 * math.pi / box.box_length
    y, z = np.meshgrid(np.arange(-c, c + 1), np.arange(-c, c + 1))
    yz = (y * y + z * z).ravel()
    s1 = s2 = 0.0
    for x in range(-c, c + 1):
        m2 = x * x + yz
        m2 = m2[(m2 > 0) & (m2 <= c * c)].astype(float)
        ksq = dk * dk * m2
        gap = ksq / (np.sqrt(ksq + 1.0) + 1.0)
        s1 += np.sum(1.0 / np.expm1((gap + 1.0 - phase.mu) / phase.t))
        s2 += np.sum(1.0 / np.expm1((gap + 1.0 + phase.mu) / phase.t))
    vol = box.box_length ** 3
    return s1 / vol, s2 / vol


def test_shell_counts_small():
    counts = _shell_counts(9)
    # r3(0..9) = 1, 6, 12, 8, 6, 24, 24, 0, 12, 30
    assert counts.tolist() == [1, 6, 12, 8, 6, 24, 24, 0, 12, 30]


def test_split_sum_within_tail_bound_of_truncated_sum():
    # a box above the direct budget whose tail is not negligible: the split
    # sum takes every mode, the explicit sum stops at the cutoff
    phase = PhasePoint(1.0, 0.5)
    box = BoxSpec(20.0, 79)
    assert box.mode_cutoff ** 2 > _DIRECT_SHELLS
    res = mode_sum(phase, box)
    truncated = explicit_shell_sum(phase, box)
    for split, trunc in zip((res.n1_fv, res.n2_fv), truncated):
        assert 0.0 < split - trunc <= res.tail_bound


@pytest.mark.parametrize("t, mu, length, cutoff", [
    (1.0, 1.0, 10.0, 75), (0.5, -1.0, 20.0, 75), (2.0, -0.4, 6.0, 89),
    (0.8, 0.95, 15.0, 90)])
def test_split_sum_matches_explicit_shell_sum(t, mu, length, cutoff):
    phase = PhasePoint(t, mu)
    box = BoxSpec(length, cutoff)
    assert cutoff ** 2 > _DIRECT_SHELLS
    # the tail beyond the cutoff is below 1e-16 of the densities
    res = mode_sum(phase, box, tail_rel_tol=1e-16)
    n1, n2 = explicit_shell_sum(phase, box)
    assert res.n1_fv == pytest.approx(n1, rel=1e-12)
    assert res.n2_fv == pytest.approx(n2, rel=1e-12)
    assert res.q_tilde_fv == res.n1_fv - res.n2_fv


def test_split_sum_odd_in_mu():
    box = BoxSpec(40.0, 300)
    for mu in (0.37, 0.9, 1.0):
        plus = mode_sum(PhasePoint(2.0, mu), box)
        minus = mode_sum(PhasePoint(2.0, -mu), box)
        assert minus.q_tilde_fv == -plus.q_tilde_fv
        assert (minus.n1_fv, minus.n2_fv) == (plus.n2_fv, plus.n1_fv)


def test_modes_used_matches_independent_count():
    for cutoff in (65, 128, 300):
        c2 = cutoff * cutoff
        count = sum(2 * math.isqrt(c2 - x * x - y * y) + 1
                    for x in range(-cutoff, cutoff + 1)
                    for y in range(-cutoff, cutoff + 1)
                    if x * x + y * y <= c2) - 1
        res = mode_sum(PhasePoint(5.0, 0.3), BoxSpec(50.0, cutoff),
                       tail_rel_tol=1e6)
        assert res.modes_used == count
    # and against the shell degeneracies, on both sides of the budget
    for cutoff in (1, 2, 7, 64, 65, 447):
        assert _lattice_points(cutoff) == \
            int(_shell_counts(cutoff * cutoff)[1:].sum())


def test_lattice_points_matches_shell_counts_for_every_cutoff():
    # one convolution up to 300^2, independent of the wedge count
    enclosed = np.cumsum(_shell_counts(300 ** 2))
    for cutoff in range(1, 301):
        assert _lattice_points(cutoff) == enclosed[cutoff * cutoff] - 1


@pytest.mark.parametrize("cutoff, count", [
    (2606, 74133019436), (5210, 592381811972),
    (16384, 18422493908316)])
def test_lattice_points_large_cutoffs(cutoff, count):
    assert _lattice_points(cutoff) == count


def test_lattice_points_memory_does_not_grow_with_cutoff_squared():
    tracemalloc.start()
    try:
        _lattice_points(1 << 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_mode_sum_memory_at_criterion_7_box():
    phase = PhasePoint(5.0, 0.9)
    box = BoxSpec(400.0, suggest_cutoff(phase, 400.0))
    tracemalloc.start()
    try:
        res = mode_sum(phase, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20
    q_quad = thermal_charge_density(phase).q_tilde
    assert abs(res.q_tilde_fv - q_quad) < 1e-3 * abs(q_quad)


@pytest.mark.parametrize("t, length, cutoff", [
    (100.0, 1000.0, 260_152),  # cutoff above the mode-count budget
    (1e4, 1000.0, 10_000),     # too many Boltzmann terms
    (50.0, 0.05, 1000)])       # too many winding shells
def test_mode_sum_over_budget_raises_before_allocating(t, length, cutoff):
    # the error names its operation and its point
    match = "^" + re.escape(f"mode_sum at t = {t}, mu = 0.5, L = {length} "
                            f"with cutoff {cutoff}: needs J = ")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=match):
            mode_sum(PhasePoint(t, 0.5), BoxSpec(length, cutoff))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_condensate_mode_rejects_bad_temperature():
    with pytest.raises(NonPositiveTemperature):
        condensate_mode(0.5, 0.0)
    with pytest.raises(InvalidArgument):
        condensate_mode(0.5, math.nan)
    with pytest.raises(InvalidArgument):
        condensate_mode(math.nan, 1.0)


def test_mode_sum_zero_mu_cancels_exactly():
    res = mode_sum(PhasePoint(1.0, 0.0), BoxSpec(15.0, 40), tail_rel_tol=1.0)
    assert res.q_tilde_fv == 0.0
    assert res.n1_fv == res.n2_fv > 0.0


def test_mode_sum_reference_box():
    res = mode_sum(PhasePoint(1.0, 0.5), BoxSpec(20.0, 15), tail_rel_tol=10.0)
    assert res.n1_fv == pytest.approx(FV_N1_REF, rel=1e-12)
    assert res.n2_fv == pytest.approx(FV_N2_REF, rel=1e-12)
    assert res.q_tilde_fv == res.n1_fv - res.n2_fv


def test_mode_sum_matches_brute_force():
    phase = PhasePoint(0.8, 0.6)
    box = BoxSpec(9.0, 6)
    res = mode_sum(phase, box, tail_rel_tol=10.0)
    n1, n2 = brute_force_sum(phase, box)
    assert res.n1_fv == pytest.approx(n1, rel=1e-12)
    assert res.n2_fv == pytest.approx(n2, rel=1e-12)


def test_mode_sum_counts_modes():
    res = mode_sum(PhasePoint(1.0, 0.0), BoxSpec(9.0, 2), tail_rel_tol=1e6)
    # shells 1..4: 6 + 12 + 8 + 6 = 32 lattice vectors
    assert res.modes_used == 32


def test_mode_sum_tail_guard():
    # the error names its operation and its point
    with pytest.raises(TailTooLarge, match=r"^mode_sum at t = 1\.0, "
                       r"mu = 0\.5, L = 50\.0 with cutoff 8: tail bound"):
        mode_sum(PhasePoint(1.0, 0.5), BoxSpec(50.0, 8))


def test_suggest_cutoff_error_names_its_point():
    # at L = 1e8 even cutoff 2^23 leaves modes below k ~ 0.5 out
    with pytest.raises(TailTooLarge, match=r"^suggest_cutoff at t = 1\.0, "
                       r"mu = 0\.5, L = 100000000\.0: no affordable cutoff.*"
                       r"at cutoff 8388608 "):
        suggest_cutoff(PhasePoint(1.0, 0.5), 1e8)


def test_low_temperature_tail_bound_does_not_overflow():
    # e^{mu/t} alone leaves the double range below t ~ 1.4e-3
    phase = PhasePoint(1e-3, 1.0)
    res = mode_sum(phase, BoxSpec(50.0, suggest_cutoff(phase, 50.0)))
    assert 0.0 < res.tail_bound < 1e-4 * (res.n1_fv + res.n2_fv)
    # a cutoff inside the occupied modes: an infinite bound, a typed error
    with pytest.raises(TailTooLarge):
        mode_sum(PhasePoint(1e-3, 0.9), BoxSpec(50.0, 2))


def test_mode_sum_monotone_in_mu():
    box = BoxSpec(12.0, 30)
    qs = [mode_sum(PhasePoint(1.0, mu), box, tail_rel_tol=1.0).q_tilde_fv
          for mu in (-0.5, 0.0, 0.4, 0.8)]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_mode_sum_charge_conjugation():
    box = BoxSpec(12.0, 30)
    plus = mode_sum(PhasePoint(1.0, 0.7), box, tail_rel_tol=1.0)
    minus = mode_sum(PhasePoint(1.0, -0.7), box, tail_rel_tol=1.0)
    assert minus.q_tilde_fv == -plus.q_tilde_fv
    assert minus.n1_fv == plus.n2_fv


def test_thermodynamic_limit_convergence():
    phase = PhasePoint(1.0, 0.5)
    q_exact = thermal_charge_density(phase).q_tilde
    devs = []
    for length in (50.0, 100.0, 200.0):
        cutoff = suggest_cutoff(phase, length)
        res = mode_sum(phase, BoxSpec(length, cutoff))
        devs.append(abs(res.q_tilde_fv - q_exact))
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] / abs(q_exact) < 1e-3


def test_condensate_mode_symmetry():
    n1_0, n2_0, q0 = condensate_mode(0.0, 1.0)
    assert n1_0 == n2_0 == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
    assert q0 == 0.0


def test_condensate_mode_cold_limit():
    # at fixed mu the particle mode freezes into the condensate
    mu = low_t_mu_asymptote(2.0, 0.05)
    n1_0, n2_0, q0 = condensate_mode(mu, 0.05)
    assert q0 == pytest.approx(2.0, abs=1e-10)
    assert n2_0 < 1e-15


def test_condensate_mode_divergence_guard():
    with pytest.raises(DivergentCondensateMode):
        condensate_mode(1.0, 1.0)


def test_condensate_mode_exact_solve_matches_asymptote():
    # invert the two-term zero-mode equation for mu and compare with the
    # low-T closed form; agreement degrades only like t e^{-2/t}
    for t in (0.2, 0.1):
        q0_target = 1.0

        def resid(mu):
            n1_0, n2_0, q0 = condensate_mode(mu, t)
            return q0 - q0_target

        mu_exact = brentq(resid, 0.01, 0.999999, xtol=1e-15)
        mu_asym = low_t_mu_asymptote(q0_target, t)
        assert abs(mu_exact - mu_asym) < 50.0 * t * math.exp(-2.0 / t)
