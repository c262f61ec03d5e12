"""Checks of every output against independent references and properties.

Each check_* function takes the operations of one round and what they
produced, and returns one entry per operation: None when the output holds,
else the reason it does not. They run outside the timed region.
"""
import csv
import functools
import io
import json
import math

import refs
import workloads as wl

TC_RTOL = 1e-7      # program: brentq rtol 1e-8 on T_c
MU_ATOL = 1e-8      # program: xtol 1e-10 on mu
RATIO_RTOL = 1e-7
FRACTION_ATOL = 1e-8
MU_SLACK = 1e-9     # mu uncertainty carried into the profile check


def _close(x, ref, rtol, atol=0.0):
    return abs(x - ref) <= rtol * abs(ref) + atol


def _density_refs(t, mu):
    n1 = refs.density(t, mu, +1)
    n2 = refs.density(t, mu, -1)
    if abs(mu) == 1.0 and t <= 1e-4:
        # the closed form is exact to O(t^4) there: it decides the fault
        nr = refs.nr_density_at_condensation(t)
        n1, n2 = (nr, n2) if mu > 0 else (n1, nr)
    return n1, n2


def check_eos(ops, values):
    out = []
    for op, val in zip(ops, values):
        t, mu = op["t"], op["mu"]
        if isinstance(val, str):
            out.append(f"raised {val}")
            continue
        n1, n2, q = val
        r1, r2 = _density_refs(t, mu)
        rq = refs.q_tilde(t, mu)
        atol = refs.DENSITY_ATOL
        reason = None
        if not _close(n1, r1, refs.DENSITY_RTOL, atol):
            reason = f"n1 {n1!r} vs {r1!r}"
        elif not _close(n2, r2, refs.DENSITY_RTOL, atol):
            reason = f"n2 {n2!r} vs {r2!r}"
        elif not _close(q, rq, refs.DENSITY_RTOL,
                        1e-9 * (r1 + r2) + 2.0 * atol):
            reason = f"q_tilde {q!r} vs {rq!r}"
        elif (n1 - n2) * mu < 0.0 or min(n1, n2) < 0.0:
            reason = "densities out of order for the sign of mu"
        elif t >= 100.0 and mu != 0.0 and abs(3.0 * q / (mu * t * t) - 1) > 1 / t:
            reason = "q_tilde off the UR limit mu t^2/3 by more than 1/t"
        elif 0.05 <= t <= 20.0 and abs(mu) < 1.0:
            rb = refs.bessel_density(t, mu)
            if rb is not None and not _close(n1, rb, refs.DENSITY_RTOL, atol):
                reason = f"n1 {n1!r} vs Bessel-K2 series {rb!r}"
        out.append(reason)
    return out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


def _tc_ref(q):
    return refs.golden_critical_temperatures().get(q) \
        or refs.critical_temperature(q)


def _check_tc_rows(qs, text):
    header, rows = parse_csv(text)
    if header != ["q_over_m3", "tc_over_m"] or len(rows) != len(qs):
        return f"expected {len(qs)} tc rows, got {header} {len(rows)}"
    for q, (q_out, tc) in zip(qs, rows):
        ref = _tc_ref(q)
        if q_out != q:
            return f"q echoed as {q_out!r}"
        if not _close(tc, ref, TC_RTOL):
            return f"T_c({q!r}) = {tc!r} vs {ref!r}"
        if not _close(refs.q_tilde(tc, 1.0), q, 3.0 * TC_RTOL):
            return f"q_tilde(T_c, 1) != q at q = {q!r}"
    return None


def _check_mu(op, text):
    rows = json.loads(text)
    if len(rows) != 1 or set(rows[0]) != {"q_over_m3", "t_over_m", "mu_over_m"}:
        return f"unexpected mu record {rows!r}"
    row = rows[0]
    if row["q_over_m3"] != op["q"] or row["t_over_m"] != op["t"]:
        return "inputs not echoed"
    if abs(row["mu_over_m"] - op["mu"]) > MU_ATOL:
        return f"mu {row['mu_over_m']!r} vs {op['mu']!r}"
    return None


def _check_ddim(op, text):
    header, rows = parse_csv(text)
    if header != ["q_over_m", "dim", "tc_over_m"] or len(rows) != 1:
        return "unexpected ddim-tc table"
    q, dim, tc = rows[0]
    ref = refs.ddim_critical_temperature(op["q"], op["dim"])
    if q != op["q"] or dim != op["dim"] or not _close(tc, ref, 1e-12):
        return f"ddim T_c {tc!r} vs {ref!r}"
    if op["dim"] == 3 and not _close(tc, math.sqrt(3.0 * q), 1e-12):
        return "d = 3 does not reduce to sqrt(3 q)"
    return None


def _occupation_slack(k, mu, t, value):
    """|d value / d mu| * MU_SLACK for value = k^2/(e^x - 1)."""
    if k == 0.0 or value == 0.0:
        return 0.0
    return value * (1.0 + value / (k * k)) / t * MU_SLACK


def _check_profile(op, text):
    header, rows = parse_csv(text)
    if header != ["k_over_m", "n1_k", "n2_k"] or len(rows) != len(wl.PROFILE_K_GRID):
        return f"expected {len(wl.PROFILE_K_GRID)} profile rows, got {len(rows)}"
    mu = refs.solve_mu(op["q"], op["t"])
    t = op["t"]
    for (k, n1, n2), k_ref in zip(rows, wl.PROFILE_K_GRID):
        if k != k_ref:
            return f"k grid {k!r} vs {k_ref!r}"
        for val, m in ((n1, mu), (n2, -mu)):
            ref = refs.weighted_occupation(k, m, t)
            if not _close(val, ref, 1e-8, _occupation_slack(k, m, t, ref)):
                return f"occupation at k = {k!r}: {val!r} vs {ref!r}"
        if (n1 - n2) * mu < 0.0:
            return "particle and antiparticle curves out of order"
    return None


def _rising(values):
    return all(a < b for a, b in zip(values, values[1:]))


def _check_universal(text):
    header, rows = parse_csv(text)
    if header != ["q_over_m3", "tc_over_m", "n2_over_n1", "tc_ur", "ratio_ur"] \
            or len(rows) != len(wl.UNIVERSAL_Q_GRID):
        return f"expected {len(wl.UNIVERSAL_Q_GRID)} universal rows, got {len(rows)}"
    for (q, tc, r, tc_ur, r_ur), q_ref in zip(rows, wl.UNIVERSAL_Q_GRID):
        if q != q_ref:
            return f"q grid {q!r} vs {q_ref!r}"
        if not _close(tc, _tc_ref(q), TC_RTOL):
            return f"T_c({q!r}) = {tc!r}"
        if not _close(r, refs.ratio(tc, 1.0), RATIO_RTOL):
            return f"n2/n1 at T_c({q!r}) = {r!r}"
        if not _close(tc_ur, math.sqrt(3.0 * q), 1e-14):
            return f"tc_ur {tc_ur!r}"
        a = 1.2020569031595943 * tc ** 3 / math.pi ** 2
        b = tc ** 2 / 6.0
        if not _close(r_ur, (a - b) / (a + b), 1e-12):
            return f"ratio_ur {r_ur!r}"
        if not 0.0 <= r < 1.0:
            return f"n2/n1 = {r!r} outside [0, 1)"
    if not _rising([row[2] for row in rows]):
        return "n2/n1 at T_c does not rise with T_c"
    return None


def _series(rows, qs):
    """Split rows by their q column, in the order of qs."""
    out = {q: [] for q in qs}
    for row in rows:
        if row[0] not in out:
            return None
        out[row[0]].append(row)
    if [r[0] for r in rows] != [q for q in qs for _ in out[q]]:
        return None
    return out


def _check_fraction(text):
    header, rows = parse_csv(text)
    n = wl.FRACTION_POINTS
    qs = wl.DEFAULT_Q_FAMILY
    if header != ["q_over_m3", "t_over_m", "q0_over_q"] or len(rows) != n * len(qs):
        return f"expected {n * len(qs)} fraction rows, got {len(rows)}"
    series = _series(rows, qs)
    if series is None or any(len(s) != n for s in series.values()):
        return "rows not grouped by charge"
    for q, s in series.items():
        tc = s[-1][1]
        if not _close(tc, _tc_ref(q), TC_RTOL):
            return f"T_c({q!r}) = {tc!r}"
        for i, (_, t, frac) in enumerate(s, start=1):
            if t != tc * i / n:
                return f"t grid at i = {i}: {t!r}"
            ref = max(1.0 - refs.q_tilde(t, 1.0) / q, 0.0)
            if abs(frac - ref) > FRACTION_ATOL or not 0.0 <= frac <= 1.0:
                return f"q0/q at (q, t) = ({q!r}, {t!r}): {frac!r} vs {ref!r}"
        fracs = [row[2] for row in s]
        if not _rising(fracs[::-1]) or fracs[-1] > FRACTION_ATOL:
            return f"q0/q does not fall to 0 at T_c for q = {q!r}"
    return None


def _check_ratio_sweep(text):
    header, rows = parse_csv(text)
    qs = wl.DEFAULT_Q_FAMILY
    if header != ["q_over_m3", "t_over_m", "n2_over_n1"]:
        return "unexpected ratio-sweep header"
    series = _series(rows, qs)
    if series is None:
        return "rows not grouped by charge"
    for q, s in series.items():
        if not s:
            return f"no rows for q = {q!r}"
        tc = s[0][1]
        if not _close(tc, _tc_ref(q), TC_RTOL):
            return f"T_c({q!r}) = {tc!r}"
        if not _close(s[0][2], refs.ratio(tc, 1.0), RATIO_RTOL):
            return f"n2/n1 at T_c({q!r}) = {s[0][2]!r}"
        ts = [t for t in wl.RATIO_T_GRID if t > tc]
        if [row[1] for row in s[1:]] != ts:
            return f"t grid for q = {q!r} has {len(s) - 1} rows, not {len(ts)}"
        for _, t, r in s[1:]:
            if not _close(r, refs.ratio(t, refs.solve_mu(q, t)), RATIO_RTOL):
                return f"n2/n1 at (q, t) = ({q!r}, {t!r}): {r!r}"
        ratios = [row[2] for row in s]
        if not _rising(ratios) or not all(0.0 <= r < 1.0 for r in ratios):
            return f"n2/n1 not in [0, 1) and rising with t for q = {q!r}"
    return None


def check_cli(ops, results):
    """results: (exit code, stdout, stderr) per operation."""
    out = []
    for op, (code, stdout, stderr) in zip(ops, results):
        kind = op["kind"]
        if code != 0:
            out.append(f"exit {code}: {stderr.strip()[-200:]}")
            continue
        try:
            if kind == "tc":
                reason = _check_tc_rows([op["q"]], stdout)
            elif kind == "tc-multi":
                reason = _check_tc_rows([float(x) for x in wl.TC_MULTI[2:]],
                                        stdout)
            elif kind == "mu":
                reason = _check_mu(op, stdout)
            elif kind == "ddim-tc":
                reason = _check_ddim(op, stdout)
            elif kind == "profile":
                reason = _check_profile(op, stdout)
            elif kind == "universal":
                reason = _check_universal(stdout)
            elif kind == "fraction-sweep":
                reason = _check_fraction(stdout)
            else:
                reason = _check_ratio_sweep(stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"malformed output: {exc!r}"
        out.append(reason)
    return out


# a round asks for the same cutoffs in every pass
_lattice_points = functools.cache(refs.lattice_points)


def check_oracle(ops, results):
    """results: the box-ladder rows per operation."""
    out = []
    q_fv = {}
    for op, rows in zip(ops, results):
        t, mu = op["t"], op["mu"]
        q_ref = refs.q_tilde(t, mu)
        scale = refs.density(t, mu, +1) + refs.density(t, mu, -1)
        reason = None
        if [r["box_length"] for r in rows] != op["boxes"]:
            reason = "box ladder not as asked"
        for r in rows if reason is None else []:
            if r["modes_used"] != _lattice_points(r["mode_cutoff"]):
                reason = (f"modes_used {r['modes_used']} at cutoff "
                          f"{r['mode_cutoff']}, counted "
                          f"{_lattice_points(r['mode_cutoff'])}")
            elif r["q_tilde_fv"] != r["n1_fv"] - r["n2_fv"]:
                reason = "q_tilde_fv != n1_fv - n2_fv"
            elif r["tail_bound"] > 1e-4 * (r["n1_fv"] + r["n2_fv"]):
                reason = "tail bound above mode_sum's 1e-4 tolerance"
            if reason:
                break
        if reason is None:
            devs = [abs(r["q_tilde_fv"] - q_ref) for r in rows]
            if any(a < b for a, b in zip(devs, devs[1:])):
                reason = f"deviation from the continuum grows with L: {devs}"
            elif devs[-1] > 1e-3 * scale:
                reason = f"deviation {devs[-1]:.3e} at L = {rows[-1]['box_length']}"
        q_fv[(t, mu)] = [r["q_tilde_fv"] for r in rows]
        out.append(reason)
    for i, op in enumerate(ops):
        mirror = q_fv.get((op["t"], -op["mu"]))
        if out[i] is None and mirror is not None \
                and mirror != [-x for x in q_fv[(op["t"], op["mu"])]]:
            out[i] = "q_tilde_fv not odd in mu"
    return out
