"""Self-test of the benchmark's checks: each must reject a perturbed result.

    python3 bench/selftest.py

Makes a small set of genuine outputs with relbec in this process, shows
that the checks accept them (and flag the known low-t fault), then
perturbs one value at a time -- n1 by 1e-6 relative, T_c by 1e-6
relative, a dropped CSV row, and so on -- and shows that each is
rejected. Exits 1 if any perturbation passes. Takes about 30 s.
"""
import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from worker import cli_in_process, oracle_ladder  # noqa: E402

EOS_OPS = [{"t": 1.0, "mu": 0.5}, {"t": 1e-3, "mu": 1.0},
           {"t": 10.0, "mu": -0.9}, {"t": 1e4, "mu": 0.5},
           {"t": 1e-8, "mu": 1.0}]
EOS_FAULT = 4
CLI_OPS = [
    {"kind": "tc", "q": 1.0},
    {"kind": "tc", "q": 1e-4},
    {"kind": "mu", "q": None, "t": 2.0, "mu": 0.3},
    {"kind": "ddim-tc", "q": 1.0, "dim": 4},
    {"kind": "ddim-tc", "q": 2.0, "dim": 3},
    {"kind": "profile", "q": 0.1, "t": 1.5},
    {"kind": "universal"},
    {"kind": "fraction-sweep"},
    {"kind": "ratio-sweep"},
]
ORACLE_OPS = [{"t": 0.5, "mu": mu, "boxes": wl.ORACLE_BOXES}
              for mu in (0.9, -0.9)]


def scale_field(text, row, col, factor=1.0, shift=0.0):
    """CSV text with one field scaled and shifted, rewritten as %.16e."""
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[col] = f"{float(fields[col]) * factor + shift:.16e}"
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def drop_row(text, row):
    lines = text.splitlines()
    del lines[row]
    return "\n".join(lines) + "\n"


def main():
    import refs
    import relbec.cli
    from relbec import BoxSpec, PhasePoint, oracle, thermal_charge_density

    failures = []

    def expect(name, reasons, index, rejected=True):
        ok = (reasons[index] is not None) == rejected
        print(f"{'ok    ' if ok else 'FAILED'} {name}: {reasons[index]}")
        if not ok:
            failures.append(name)

    # --- eos-grid
    values = []
    for op in EOS_OPS:
        r = thermal_charge_density(PhasePoint(op["t"], op["mu"]))
        values.append([r.n1, r.n2, r.q_tilde])
    reasons = checks.check_eos(EOS_OPS, values)
    for i in range(len(EOS_OPS)):
        expect(f"eos genuine output {EOS_OPS[i]}", reasons, i,
               rejected=(i == EOS_FAULT))
    for name, i, j, factor in (("eos n1 x (1 + 1e-6)", 0, 0, 1 + 1e-6),
                               ("eos n2 x (1 + 1e-6)", 2, 1, 1 + 1e-6),
                               ("eos q_tilde x (1 + 1e-6)", 0, 2, 1 + 1e-6),
                               ("eos NR-regime n1 x (1 + 1e-6)", 1, 0, 1 + 1e-6)):
        bad = copy.deepcopy(values)
        bad[i][j] *= factor
        expect(name, checks.check_eos(EOS_OPS, bad), i)

    # --- cli-figures
    ops = copy.deepcopy(CLI_OPS)
    ops[2]["q"] = refs.q_tilde(ops[2]["t"], ops[2]["mu"])
    results = [cli_in_process(relbec.cli.main, wl.cli_argv(op)) for op in ops]
    reasons = checks.check_cli(ops, results)
    for i, op in enumerate(ops):
        expect(f"cli genuine output {op['kind']}", reasons, i, rejected=False)
    multi = cli_in_process(relbec.cli.main, wl.TC_MULTI)
    expect("cli multi-value tc (known parser fault)",
           checks.check_cli([{"kind": "tc-multi"}], [multi]), 0)

    def perturbed(name, i, text):
        bad = list(results)
        bad[i] = (results[i][0], text, results[i][2])
        expect(name, checks.check_cli(ops, bad), i)

    out = [r[1] for r in results]
    perturbed("tc T_c x (1 + 1e-6)", 0, scale_field(out[0], 1, 1, 1 + 1e-6))
    perturbed("tc (live reference) T_c x (1 + 1e-6)", 1,
              scale_field(out[1], 1, 1, 1 + 1e-6))
    perturbed("tc dropped row", 0, drop_row(out[0], 1))
    record = json.loads(out[2])
    record[0]["mu_over_m"] += 1e-6
    perturbed("mu + 1e-6", 2, json.dumps(record))
    perturbed("ddim-tc T_c x (1 + 1e-9)", 3, scale_field(out[3], 1, 2, 1 + 1e-9))
    perturbed("profile n1_k x (1 + 1e-6)", 5, scale_field(out[5], 40, 1, 1 + 1e-6))
    perturbed("profile dropped row", 5, drop_row(out[5], 100))
    perturbed("universal T_c x (1 + 1e-6)", 6, scale_field(out[6], 5, 1, 1 + 1e-6))
    perturbed("universal n2/n1 x (1 + 1e-6)", 6, scale_field(out[6], 5, 2, 1 + 1e-6))
    perturbed("universal dropped row", 6, drop_row(out[6], 7))
    perturbed("fraction-sweep q0/q + 1e-6", 7, scale_field(out[7], 20, 2, shift=1e-6))
    perturbed("fraction-sweep dropped row", 7, drop_row(out[7], 20))
    perturbed("fraction-sweep T_c x (1 + 1e-6)", 7,
              scale_field(out[7], 50, 1, 1 + 1e-6))
    perturbed("ratio-sweep n2/n1 x (1 + 1e-6)", 8, scale_field(out[8], 10, 2, 1 + 1e-6))
    perturbed("ratio-sweep transition row T_c x (1 + 1e-6)", 8,
              scale_field(out[8], 1, 1, 1 + 1e-6))
    perturbed("ratio-sweep dropped row", 8, drop_row(out[8], 10))

    # --- oracle
    rows = [oracle_ladder(oracle, PhasePoint, BoxSpec, op) for op in ORACLE_OPS]
    reasons = checks.check_oracle(ORACLE_OPS, rows)
    expect("oracle genuine output", reasons, 0, rejected=False)
    bad = copy.deepcopy(rows)
    bad[0][1]["modes_used"] += 1
    expect("oracle modes_used + 1", checks.check_oracle(ORACLE_OPS, bad), 0)
    bad = copy.deepcopy(rows)
    for key in ("q_tilde_fv", "n1_fv", "n2_fv"):
        bad[0][2][key] = rows[0][0][key]  # L = 200 as far off as L = 50
    expect("oracle deviation growing with L",
           checks.check_oracle(ORACLE_OPS, bad), 0)
    bad = copy.deepcopy(rows)
    bad[1][0]["n1_fv"] *= 1 + 1e-12
    bad[1][0]["q_tilde_fv"] = bad[1][0]["n1_fv"] - bad[1][0]["n2_fv"]
    expect("oracle q_tilde_fv not odd in mu",
           checks.check_oracle(ORACLE_OPS, bad), 0)

    print(f"{len(failures)} check(s) failed the self-test" if failures
          else "every perturbation was rejected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
