"""Workload inputs, made from the seed alone.

Each workload is a list of operations that one round runs in order; every
round of a run repeats the same list. The operations that fail because of
the low-temperature quadrature fault (see README.md) sit in every list
whatever the seed, so the failed share of a run is fixed.
"""
import numpy as np

import refs

DEFAULT_SEED = 1

# --- eos-grid: one thermal_charge_density(PhasePoint(t, mu)) per operation
EOS_T_LADDER = [10.0 ** e for e in range(-9, 7)]
EOS_MU_SET = [-1.0, -0.9, 0.0, 0.5, 0.999, 1.0]
# Seeded draws: one in each cell of an 8 x 4 grid over log t in [-6, 3)
# and mu in (-0.999, 0.999), so every seed has the same mix of cheap and
# dear points. The range stays below t = 1e3: between 1.4e3 and 2e4
# thermal_charge_density raises NonConvergence at some (t, mu) (see the
# FOUND line in CHANGES.md), which would make the failed share depend on
# the seed.
EOS_LOG_T_CELLS = np.linspace(-6.0, 3.0, 9)
EOS_MU_CELLS = np.linspace(-0.999, 0.999, 5)


def eos_fault(t, mu):
    """The fixed panels of integrate_semi_infinite miss the sqrt(t)-wide
    peak at the condensation point: mu = +-1 with t <= 1e-7."""
    return abs(mu) == 1.0 and t <= 1e-7


def eos_grid(seed):
    rng = np.random.default_rng([seed, 1])
    points = [(t, mu) for t in EOS_T_LADDER for mu in EOS_MU_SET]
    for lo, hi in zip(EOS_LOG_T_CELLS, EOS_LOG_T_CELLS[1:]):
        for mlo, mhi in zip(EOS_MU_CELLS, EOS_MU_CELLS[1:]):
            points.append((float(10.0 ** rng.uniform(lo, hi)),
                           float(rng.uniform(mlo, mhi))))
    order = rng.permutation(len(points))
    points = [points[i] for i in order]
    return [{"t": t, "mu": mu, "fault": eos_fault(t, mu)} for t, mu in points]


# --- cli-figures: one `relbec ...` invocation in a fresh process
# The CLI's default arguments, which the figure sweeps run with.
DEFAULT_Q_FAMILY = [0.01, 0.1, 1.0, 10.0]
RATIO_T_GRID = [float(t) for t in np.linspace(0.1, 20.0, 50)]
UNIVERSAL_Q_GRID = [float(q) for q in np.geomspace(0.01, 100.0, 25)]
FRACTION_POINTS = 50
PROFILE_K_GRID = [float(k) for k in np.linspace(0.0, 10.0, 256)]

# tc at q = 1e-12 and 1e-10 lands on the quadrature fault; seeded rungs
# start at 1e-9, whose T_c (3.3e-6) is clear of it.
TC_FAULT_Q = [1e-12, 1e-10]
TC_RUNGS = [-9.0, -6.0, -3.0, 0.0, 3.0, 6.0]
# documented as `relbec tc --q Q [Q ...]`; the parser takes one value
TC_MULTI = ["tc", "--q", "0.01", "0.1", "1", "10"]


def cli_figures(seed):
    rng = np.random.default_rng([seed, 2])
    ops = [{"kind": "tc", "q": q, "fault": True} for q in TC_FAULT_Q]
    for lo in TC_RUNGS:
        q = float(10.0 ** (lo + rng.uniform(0.0, 3.0)))
        ops.append({"kind": "tc", "q": q, "fault": False})
    ops.append({"kind": "tc-multi", "fault": True})
    for _ in range(2):
        # a state above T_c: draw (t, mu) and ask for the mu back from q
        t = float(10.0 ** rng.uniform(-1.0, 1.0))
        mu = float(rng.uniform(-0.95, 0.95))
        ops.append({"kind": "mu", "q": refs.q_tilde(t, mu), "t": t,
                    "mu": mu, "fault": False})
    ops.append({"kind": "ddim-tc", "q": float(10.0 ** rng.uniform(-3, 3)),
                "dim": int(rng.integers(3, 9)), "fault": False})
    ops.append({"kind": "profile", "q": float(10.0 ** rng.uniform(-2, 1)),
                "t": float(rng.uniform(0.2, 5.0)), "fault": False})
    for kind in ("universal", "fraction-sweep", "ratio-sweep"):
        ops.append({"kind": kind, "fault": False})
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def cli_argv(op):
    kind = op["kind"]
    if kind == "tc":
        return ["tc", "--q", repr(op["q"])]
    if kind == "tc-multi":
        return list(TC_MULTI)
    if kind == "mu":
        # `--q=` form: argparse takes "--q -9.5e-05" for an option (FOUND
        # line in CHANGES.md), and half of the drawn charges are negative
        return ["--format", "json", "mu", f"--q={op['q']!r}",
                f"--t={op['t']!r}"]
    if kind == "ddim-tc":
        return ["ddim-tc", "--q-over-m", repr(op["q"]),
                "--dim", str(op["dim"])]
    if kind == "profile":
        return ["profile", "--q", repr(op["q"]), "--t", repr(op["t"])]
    return [kind]


# --- oracle: one phase point's box ladder in a fresh process
ORACLE_T = [0.5, 1.0, 5.0]
ORACLE_MU = [-0.9, 0.0, 0.9]
ORACLE_BOXES = [50.0, 100.0, 200.0]


# Two passes, each in its own seeded order: with one pass the median
# latency is a single t = 1 ladder, which jitters by +-30% on its own.
ORACLE_PASSES = 2


def oracle(seed):
    rng = np.random.default_rng([seed, 3])
    points = [(t, mu) for t in ORACLE_T for mu in ORACLE_MU]
    return [{"t": points[i][0], "mu": points[i][1], "boxes": ORACLE_BOXES,
             "fault": False}
            for _ in range(ORACLE_PASSES) for i in rng.permutation(len(points))]


# The acceptance suite's CLI cases: the traced run replays them for the
# layers a workload does not reach itself.
PROBE_CASES = [
    ["mu", "--q", "0.05", "--t", "1"],
    ["tc", "--q", "1"],
    ["ddim-tc", "--q-over-m", "1", "--dim", "4"],
    ["ratio-sweep", "--q", "0.1", "1", "--t-min", "0.5", "--t-max", "3",
     "--points", "4"],
    ["profile", "--q", "0.1", "--t", "1.5", "--k-max", "8", "--samples", "32"],
    ["fraction-sweep", "--q", "1", "--points", "5"],
    ["universal", "--q-min", "0.1", "--q-max", "10", "--points", "3"],
    ["oracle-check", "--q", "0.1", "--t", "1", "--box-lengths", "20", "40"],
]

WORKLOADS = {"eos-grid": eos_grid, "cli-figures": cli_figures,
             "oracle": oracle}


def make(workload, seed):
    return WORKLOADS[workload](seed)

