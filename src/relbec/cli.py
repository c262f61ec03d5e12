"""Command-line front end: point evaluations and the sweeps behind the
density-ratio, momentum-profile, transition-line and condensed-fraction
figures, emitted as CSV or JSON.

Output is deterministic: floats are printed with 17 significant digits in
lowercase scientific notation, rows in grid order.
"""
import argparse
import contextlib
import gc
import math
import re
import sys

import numpy as np

from .errors import RelBecError
from .limits import Dimension, ddim_critical_temperature, ur_critical_temperature, ur_density_ratio
from .quadrature import QuadratureConfig
# this module calls no thermal_charge_density itself, but bench/tracing.py
# wraps it under this module's name
from .quadrature import thermal_charge_density  # noqa: F401
from .solver import (SolverConfig, _critical_point, _thermal_state,
                     critical_temperature, condensed_solution, density_ratio,
                     solve_mu, universal_curves)
from .statistics import momentum_profile
from .types import (BoxSpec, PhasePoint, require_count, require_finite,
                    require_positive)

DEFAULT_Q_FAMILY = [0.01, 0.1, 1.0, 10.0]
# argparse's own pattern for a negative number has no exponent, so it reads
# "--q -9.5e-05" as a missing value followed by an option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _ArgumentParser(argparse.ArgumentParser):
    """ArgumentParser that takes every negative decimal literal as a value;
    its subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.16e}"
    return str(v)


def _emit(columns, rows, fmt, out_path):
    """Write the table to out_path, or to stdout when it is None. CSV goes
    out row by row as each row is formatted; JSON is one json.dumps of the
    whole list of records."""
    with (contextlib.nullcontext(sys.stdout) if out_path is None
          else open(out_path, "w")) as fh:
        if fmt == "csv":
            fh.write(",".join(columns) + "\n")
            fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)
        else:
            import json  # only JSON output and error records load it
            payload = [dict(zip(columns, row)) for row in rows]
            fh.write(json.dumps(payload, indent=2) + "\n")


def __getattr__(name):
    # mode_sum and suggest_cutoff stay names of this module only for the
    # lookups of bench/tracing.py (BOUNDARIES); _cmd_oracle_check imports
    # them from .oracle. The oracle, the one user of scipy, is loaded on
    # first use (PEP 562)
    if name in ("mode_sum", "suggest_cutoff"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _configs(args):
    return SolverConfig(mu_tol=args.tol_mu, t_tol=args.tol_tc,
                        quad=QuadratureConfig(rel_tol=args.tol_quad))


# Each _cmd_* returns (columns, rows): the column names, then an iterable of
# one tuple of values per row in that order.
def _cmd_mu(args):
    mu = solve_mu(args.q, args.t, _configs(args))
    return ("q_over_m3", "t_over_m", "mu_over_m"), [(args.q, args.t, mu)]


def _cmd_tc(args):
    solver = _configs(args)
    return ("q_over_m3", "tc_over_m"), [
        (q, critical_temperature(q, solver)) for q in args.q]


def _cmd_ddim_tc(args):
    tc = ddim_critical_temperature(args.q_over_m, Dimension(args.dim))
    return ("q_over_m", "dim", "tc_over_m"), [(args.q_over_m, args.dim, tc)]


def _cmd_ratio_sweep(args):
    # --points 0 leaves each series its T_c row alone
    require_count("points", args.points, 0)
    require_finite("t_min", args.t_min)
    require_finite("t_max", args.t_max)
    solver = _configs(args)
    rows = []
    for q in args.q:
        require_positive("q", q)
        # each series starts (ends) at the transition, whose ratio comes
        # from the densities the T_c solve found there
        tc, at_tc = _critical_point(q, solver)
        grid = [float(t) for t in np.linspace(args.t_min, args.t_max,
                                              args.points) if t > tc]
        rows.append((q, tc, at_tc.ratio))
        rows.extend((q, t, density_ratio(q, t, solver)) for t in grid)
    return ("q_over_m3", "t_over_m", "n2_over_n1"), rows


def _cmd_profile(args):
    # condensed, the thermal cloud sits at the condensation point sign(q)
    mu = _thermal_state(args.q, args.t, _configs(args))[0]
    prof = momentum_profile(PhasePoint(args.t, mu), args.k_max, args.samples)
    return ("k_over_m", "n1_k", "n2_k"), zip(
        prof.k_grid.tolist(), prof.n1_of_k.tolist(), prof.n2_of_k.tolist())


def _grid_top(tc, n):
    """The top of the grid t_i = top * i / n: T_c itself when top * n / n
    gives T_c back, else the next double above T_c that does (about one T_c
    in eight misses by an ulp), so that the last row is always the top."""
    top = tc
    while top * n / n != top:
        top = math.nextafter(top, math.inf)
    return top


def _cmd_fraction_sweep(args):
    require_count("points", args.points, 1)
    solver = _configs(args)
    rows = []
    for q in args.q:
        top = _grid_top(critical_temperature(q, solver), args.points)
        for i in range(1, args.points + 1):
            t = top * i / args.points
            rows.append((q, t, condensed_solution(q, t, solver).q0 / q))
    return ("q_over_m3", "t_over_m", "q0_over_q"), rows


def _cmd_universal(args):
    curves = universal_curves(args.q_min, args.q_max, args.points,
                              _configs(args))
    return ("q_over_m3", "tc_over_m", "n2_over_n1", "tc_ur", "ratio_ur"), [
        (pt.q, pt.t_c, pt.ratio, ur_critical_temperature(pt.q),
         ur_density_ratio(pt.t_c)) for pt in curves]


def _cmd_oracle_check(args):
    from .oracle import mode_sum, suggest_cutoff
    solver = _configs(args)
    # q_quad comes from the densities the solve found, not a new integral
    mu, densities, _ = _thermal_state(args.q, args.t, solver)
    phase = PhasePoint(args.t, mu)
    q_quad = densities.q_tilde
    rows = []
    for length in args.box_lengths:
        cutoff = suggest_cutoff(phase, length)
        res = mode_sum(phase, BoxSpec(length, cutoff))
        dev = abs(res.q_tilde_fv - q_quad) / max(abs(q_quad), 1e-300)
        rows.append((length, cutoff, res.q_tilde_fv, q_quad, dev))
    return ("box_length", "mode_cutoff", "q_tilde_fv", "q_tilde_quad",
            "rel_deviation"), rows


def build_parser():
    p = _ArgumentParser(
        prog="relbec",
        allow_abbrev=False,
        description="Equation of state of the relativistic ideal charged "
                    "Bose gas (scaled units: T/m, mu/m, q/m^3)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--tol-quad", type=float, default=1e-10,
                   help="quadrature relative tolerance")
    p.add_argument("--tol-mu", type=float, default=1e-10,
                   help="relative tolerance on mu/m")
    p.add_argument("--tol-tc", type=float, default=1e-8,
                   help="relative tolerance on T_c/m")
    sub = p.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("mu", help="chemical potential from charge and T")
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--t", type=float, required=True)
    s.set_defaults(func=_cmd_mu)

    s = sub.add_parser("tc", help="BEC critical temperature from charge")
    s.add_argument("--q", type=float, nargs="+", required=True)
    s.set_defaults(func=_cmd_tc)

    s = sub.add_parser("ddim-tc", help="UR critical temperature in d dims")
    s.add_argument("--q-over-m", type=float, required=True)
    s.add_argument("--dim", type=int, required=True)
    s.set_defaults(func=_cmd_ddim_tc)

    s = sub.add_parser("ratio-sweep",
                       help="antiparticle ratio vs T at fixed charges")
    s.add_argument("--q", type=float, nargs="+", default=DEFAULT_Q_FAMILY)
    s.add_argument("--t-min", type=float, default=0.1)
    s.add_argument("--t-max", type=float, default=20.0)
    s.add_argument("--points", type=int, default=50)
    s.set_defaults(func=_cmd_ratio_sweep)

    s = sub.add_parser("profile", help="momentum-space occupation profiles")
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--k-max", type=float, default=10.0)
    s.add_argument("--samples", type=int, default=256)
    s.set_defaults(func=_cmd_profile)

    s = sub.add_parser("fraction-sweep",
                       help="condensed fraction vs T below T_c")
    s.add_argument("--q", type=float, nargs="+", default=DEFAULT_Q_FAMILY)
    s.add_argument("--points", type=int, default=50)
    s.set_defaults(func=_cmd_fraction_sweep)

    s = sub.add_parser("universal", help="transition-line universal curves")
    s.add_argument("--q-min", type=float, default=0.01)
    s.add_argument("--q-max", type=float, default=100.0)
    s.add_argument("--points", type=int, default=25)
    s.set_defaults(func=_cmd_universal)

    s = sub.add_parser("oracle-check",
                       help="finite-volume mode sum vs quadrature")
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--box-lengths", type=float, nargs="+",
                   default=[50.0, 100.0, 200.0])
    s.set_defaults(func=_cmd_oracle_check)

    return p


def _error_record(exc, args) -> int:
    """Write exc as the JSON error record on stderr; returns exit code 1."""
    record = {"error": type(exc).__name__,
              "operation": args.subcommand,
              "message": str(exc)}
    import json
    sys.stderr.write(json.dumps(record) + "\n")
    return 1


def main(argv=None) -> int:
    if argv is None:
        # A program run: everything the imports made lives until exit, so
        # no collection should walk it again, the ones the interpreter
        # makes at shutdown included. In-process callers pass argv and keep
        # a collectable heap.
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        columns, rows = args.func(args)
    except RelBecError as exc:
        return _error_record(exc, args)
    try:
        _emit(columns, rows, args.format, args.out)
    except OSError as exc:  # an --out path that cannot be written
        return _error_record(exc, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
