"""Work counts as Tier-1 gates: EOS evaluations per inversion and per
default sweep, kernel calls and nodes per EOS, kernel nodes per EOS at
tight tolerances, and the oracle's tail-bound probes, terms and shells per
suggested box.

Timings drift with the machine and its load; these counts do not. They
are taken through the names the benchmark's tracer wraps:
solver.thermal_charge_density for EOS calls and
quadrature._weighted_occupations for kernel calls; the oracle's through
its cutoff search's tail bound, its plan and its Bessel evaluations.
Each count is asserted to be at most its recorded value. A change that
lowers a count lowers its bound here; one that raises a count says why.
The seeded inputs are mapped from numpy's uniforms by math.exp and float
powers, so they do not depend on which loops numpy dispatches.
"""
import math

import numpy as np
import pytest

from relbec import cli, oracle, quadrature, solver, statistics
from relbec.types import BoxSpec, PhasePoint

# q bands of the inversion counts, with 20 seeded draws each; solve_mu
# runs at t from 1.12 to 10 times T_c(q)
BANDS = [(1e-12, 1e-6), (1e-6, 1e-3), (1e-3, 1.0), (1.0, 1e3), (1e3, 1e9)]
DRAWS = 20
BAND_IDS = [f"q{lo:g}-{hi:g}" for lo, hi in BANDS]
# per band: (total, max) EOS over the draws
TC_EOS = [(177, 9), (160, 8), (168, 9), (196, 10), (200, 10)]
# Brent's steps follow the last bits of q_tilde: the EOS in v moved three
# bands' totals by one or two (280, 148, 106 before it), its libm rows
# bands 4 and 5 by one (108, 87), and the branch factors taken out of
# the rows band 2 by one (279 before; band 5 fell to 87)
MU_EOS = [(475, 29), (280, 17), (147, 11), (107, 7), (88, 5)]
# EOS per default sweep; ratio-sweep's Brent steps moved with the EOS in v
# (1040 before it) and with its libm rows (1048)
SWEEP_EOS = {"universal": 228, "fraction-sweep": 236, "ratio-sweep": 1049}
# Kronrod nodes of the one level-0 pass: 38 panels of 15, and V
NODES_PER_EOS = 571
# Kernel nodes per EOS at tight tolerances, where the error estimate
# rather than the initial panels decides how many levels a pass takes:
# (total, max) over TIGHT_DRAWS seeded (t, mu); in v only points near
# |mu| = 1 bisect (the layout in k took 158488, 692 and 167358, 812)
TIGHT_DRAWS = 500
TIGHT_NODES = {1e-12: (157391, 662), 1e-13: (159002, 722)}

# The benchmark's oracle boxes, each at its suggested cutoff, and summed
# over them: tail-bound probes of suggest_cutoff; J, direct shells and
# winding shells of the plans; Bessel pairs, J (winding shells + 1). Every
# box is the split box: one probe at cutoff 64
ORACLE_BOXES = [(t, mu, length) for t in (0.5, 1.0, 5.0)
                for mu in (-0.9, 0.0, 0.9) for length in (50.0, 100.0, 200.0)]
ORACLE_PROBES = 27
ORACLE_PLANS = (6825, 7449, 18)
ORACLE_BESSEL_PAIRS = 8775


@pytest.fixture
def eos_calls(monkeypatch):
    """One (phase, node counts of its kernel calls) entry per EOS call
    made through the solver."""
    calls = []
    eos = solver.thermal_charge_density
    kernel = quadrature._weighted_occupations

    def counting_eos(phase, *args, **kwargs):
        calls.append((phase, []))
        return eos(phase, *args, **kwargs)

    def counting_kernel(k, phase):
        calls[-1][1].append(len(k))
        return kernel(k, phase)

    monkeypatch.setattr(solver, "thermal_charge_density", counting_eos)
    monkeypatch.setattr(quadrature, "_weighted_occupations",
                        counting_kernel)
    return calls


def dead_eos(calls):
    """The number of EOS calls where both branches are dead, after
    checking that each other one made one kernel call of 571 nodes and
    each of those none."""
    dead = 0
    for phase, nodes in calls:
        both_dead = (1.0 - abs(phase.mu)) / phase.t > statistics._DEAD_X
        assert nodes == ([] if both_dead else [NODES_PER_EOS]), phase
        dead += both_dead
    return dead


def band_draws(band):
    """Seeded (q, t/T_c) draws of one band."""
    rng = np.random.default_rng(2100 + BANDS.index(band))
    lo, hi = band
    qs = [math.exp(u) for u in
          rng.uniform(math.log(lo), math.log(hi), DRAWS).tolist()]
    return list(zip(qs, rng.uniform(1.12, 10.0, DRAWS).tolist()))


@pytest.mark.parametrize("band, recorded", zip(BANDS, TC_EOS), ids=BAND_IDS)
def test_eos_per_critical_temperature(eos_calls, band, recorded):
    counts = []
    for q, _ in band_draws(band):
        eos_calls.clear()
        solver.critical_temperature(q)
        assert dead_eos(eos_calls) == 0
        counts.append(len(eos_calls))
    total, most = recorded
    assert sum(counts) <= total and max(counts) <= most


@pytest.mark.parametrize("band, recorded", zip(BANDS, MU_EOS), ids=BAND_IDS)
def test_eos_per_solve_mu(eos_calls, band, recorded):
    counts, dead = [], 0
    for q, above in band_draws(band):
        t = above * solver.critical_temperature(q)
        eos_calls.clear()
        solver.solve_mu(q, t)
        dead += dead_eos(eos_calls)
        counts.append(len(eos_calls))
    total, most = recorded
    assert sum(counts) <= total and max(counts) <= most
    if band[1] <= 1e-6:
        # at t <~ 1e-5 Brent's first steps land where both branches are
        # dead, and those EOS make no kernel call
        assert dead > 0


@pytest.mark.parametrize("sweep", sorted(SWEEP_EOS))
def test_eos_per_default_sweep(eos_calls, capsys, sweep):
    assert cli.main([sweep]) == 0
    capsys.readouterr()
    assert len(eos_calls) <= SWEEP_EOS[sweep]
    assert dead_eos(eos_calls) == 0


def tight_draws():
    """Seeded (t, mu) over t from 1e-12 to 1e6: four in five with mu
    uniform in (-1, 1), the rest within 1e-16 to 1e-1 of |mu| = 1."""
    rng = np.random.default_rng(2300)
    ts = [10.0 ** u for u in rng.uniform(-12.0, 6.0, TIGHT_DRAWS).tolist()]
    mus = rng.uniform(-1.0, 1.0, TIGHT_DRAWS).tolist()
    near = TIGHT_DRAWS // 5
    mus[:near] = [math.copysign(1.0 - 10.0 ** u, mu) for mu, u in
                  zip(mus, rng.uniform(-16.0, -1.0, near).tolist())]
    return list(zip(ts, mus))


@pytest.mark.parametrize("rel_tol", sorted(TIGHT_NODES))
def test_kernel_nodes_per_eos_at_tight_tolerance(monkeypatch, rel_tol):
    nodes = []
    kernel = quadrature._weighted_occupations

    def counting_kernel(k, phase):
        nodes[-1] += len(k)
        return kernel(k, phase)

    monkeypatch.setattr(quadrature, "_weighted_occupations",
                        counting_kernel)
    config = quadrature.QuadratureConfig(rel_tol=rel_tol)
    for t, mu in tight_draws():
        nodes.append(0)
        quadrature.thermal_charge_density(PhasePoint(t, mu), config)
    total, most = TIGHT_NODES[rel_tol]
    assert sum(nodes) <= total and max(nodes) <= most


def test_oracle_work_per_suggested_box(monkeypatch):
    plans, sizes = [], {"probes": 0, "bessel": 0}
    tail_bound, plan, k2e = oracle._tail_bound, oracle._plan, oracle._k2e

    def counting_tail_bound(phase, box):
        sizes["probes"] += 1
        return tail_bound(phase, box)

    def counting_plan(phase, box):
        plans.append(plan(phase, box))
        return plans[-1]

    def counting_k2e(x):
        sizes["bessel"] += x.size
        return k2e(x)

    monkeypatch.setattr(oracle, "_tail_bound", counting_tail_bound)
    monkeypatch.setattr(oracle, "_plan", counting_plan)
    monkeypatch.setattr(oracle, "_k2e", counting_k2e)
    for t, mu, length in ORACLE_BOXES:
        phase = PhasePoint(t, mu)
        res = oracle.mode_sum(phase, BoxSpec(
            length, oracle.suggest_cutoff(phase, length)))
        # the split box's lattice points 0 < |n| <= 65, counted by no pass
        assert res.modes_used == 1149650
    # a split box's mode_sum makes no probe
    assert sizes["probes"] <= ORACLE_PROBES
    assert len(plans) == len(ORACLE_BOXES)
    totals = [sum(p[i] for p in plans) for i in range(3)]
    assert all(n <= most for n, most in zip(totals, ORACLE_PLANS)), totals
    pairs = sum(j_max * (m_wind + 1) for j_max, _, m_wind in plans)
    assert sizes["bessel"] == pairs <= ORACLE_BESSEL_PAIRS
