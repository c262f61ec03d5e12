import gc
import json
import math
import pathlib
import tracemalloc

import pytest

import relbec
from relbec import (BelowCritical, PhasePoint, cli, solver, solve_mu,
                    thermal_charge_density)
from relbec.cli import main
from relbec.statistics import momentum_profile
from conftest import run_python
from test_golden import CLI_CASES, CLI_DIR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mu_zero_charge(capsys):
    code, out, _ = run_cli(capsys, "mu", "--q", "0", "--t", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q_over_m3,t_over_m,mu_over_m"
    assert float(lines[1].split(",")[2]) == 0.0


def test_tc_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "tc", "--q", "3")
    assert code == 0
    (row,) = json.loads(out)
    assert row["q_over_m3"] == 3.0
    # UR anchor: T_c close to sqrt(3 q) = 3
    assert row["tc_over_m"] == pytest.approx(3.0, rel=0.05)


def test_ddim_tc(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "ddim-tc",
                           "--q-over-m", "1", "--dim", "3")
    assert code == 0
    (row,) = json.loads(out)
    assert row["tc_over_m"] == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_profile_columns(capsys):
    code, out, _ = run_cli(capsys, "profile", "--q", "0.1", "--t", "1.5",
                           "--k-max", "6", "--samples", "16")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k_over_m,n1_k,n2_k"
    assert len(lines) == 17
    for line in lines[2:]:
        k, n1, n2 = map(float, line.split(","))
        assert n1 > n2 > 0.0


def test_fraction_sweep_endpoints(capsys):
    code, out, _ = run_cli(capsys, "fraction-sweep", "--q", "100",
                           "--points", "8")
    assert code == 0
    lines = out.strip().split("\n")[1:]
    first = float(lines[0].split(",")[2])
    last = float(lines[-1].split(",")[2])
    assert first > 0.95
    assert last == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("tc", [1.7248333845655348, 1.7248333845655346])
def test_fraction_sweep_grid_ends_at_tc(capsys, monkeypatch, tc):
    # 1.7248333845655348 * 50 / 50 is not 1.7248333845655348; ...346 is
    import relbec.cli
    monkeypatch.setattr(relbec.cli, "critical_temperature",
                        lambda q, config: tc)
    n = 50
    code, out, _ = run_cli(capsys, "fraction-sweep", "--q", "1",
                           "--points", str(n))
    assert code == 0
    ts = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    top = ts[-1]
    # the grid is top * i / n for every row, the last one included
    assert ts == [top * i / n for i in range(1, n + 1)]
    if tc * n / n == tc:
        assert top == tc
    else:
        assert top == math.nextafter(tc, math.inf)


def test_tc_several_charges(capsys):
    golden = json.loads((pathlib.Path(__file__).parent / "golden" /
                         "critical_temperatures.json").read_text())["values"]
    code, out, _ = run_cli(capsys, "tc", "--q", "0.01", "0.1", "1", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q_over_m3,tc_over_m"
    assert len(lines) == 5
    for line, key in zip(lines[1:], ["0.01", "0.1", "1", "10"]):
        q, tc = map(float, line.split(","))
        assert q == float(key)
        assert tc == pytest.approx(golden[key], rel=1e-6)
    # one charge prints the header and that charge's row alone
    code, single, _ = run_cli(capsys, "tc", "--q", "1")
    assert code == 0
    assert single == "\n".join([lines[0], lines[3]]) + "\n"


def test_ratio_sweep_terminates_at_tc(capsys):
    code, out, _ = run_cli(capsys, "ratio-sweep", "--q", "1",
                           "--t-min", "0.5", "--t-max", "4", "--points", "6")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    ts = [float(r[1]) for r in rows]
    # first row is the transition itself; no rows below it
    assert ts[0] == pytest.approx(1.7248333861983, rel=1e-6)
    assert all(t >= ts[0] for t in ts)


def test_ratio_sweep_without_grid_points_keeps_the_tc_rows(capsys):
    code, out, _ = run_cli(capsys, "ratio-sweep", "--q", "1", "10",
                           "--points", "0")
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().split("\n")] == [
        "q_over_m3", "1.0000000000000000e+00", "1.0000000000000000e+01"]


def test_universal_has_analytic_columns(capsys):
    code, out, _ = run_cli(capsys, "universal", "--q-min", "50",
                           "--q-max", "100", "--points", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q_over_m3,tc_over_m,n2_over_n1,tc_ur,ratio_ur"
    for line in lines[1:]:
        q, tc, ratio, tc_ur, ratio_ur = map(float, line.split(","))
        assert tc == pytest.approx(tc_ur, rel=0.02)
        assert ratio == pytest.approx(ratio_ur, rel=0.05)


def test_oracle_check_converges(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--q", "0.1", "--t", "1",
                           "--box-lengths", "25", "50")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    devs = [float(r[4]) for r in rows]
    assert devs[1] < devs[0]


def test_oracle_check_values(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--q", "0.1", "--t", "5")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [int(r[1]) for r in rows] == [652, 1302, 2603]
    q_fv = [float(r[2]) for r in rows]
    assert q_fv == pytest.approx([9.9998945544280460e-02,
                                  9.9999868193037855e-02,
                                  9.9999983524133640e-02], rel=1e-12)


@pytest.mark.parametrize("q, t", [(0.1, 5.0), (-0.1, 5.0), (10.0, 1.0),
                                  (-10.0, 1.0), (0.0, 1.0)])
def test_oracle_check_integrates_each_point_once(capsys, monkeypatch, q, t):
    seen = []

    def recording(phase, config):
        seen.append((phase.t, phase.mu))
        return thermal_charge_density(phase, config)

    for module in (solver, cli):
        monkeypatch.setattr(module, "thermal_charge_density", recording)
    code, out, _ = run_cli(capsys, "oracle-check", "--q", repr(q),
                           "--t", repr(t), "--box-lengths", "20")
    assert code == 0
    assert seen and len(set(seen)) == len(seen)
    # q_tilde_quad is the density at the state, as integrated there
    monkeypatch.undo()
    try:
        mu = solve_mu(q, t)
    except BelowCritical:
        mu = math.copysign(1.0, q)
    q_quad = float(out.strip().split("\n")[1].split(",")[3])
    assert q_quad == thermal_charge_density(PhasePoint(t, mu)).q_tilde


def _csv_rows(out):
    return [line.split(",") for line in out.strip().split("\n")[1:]]


def test_condensed_profile_takes_the_sign_of_q(capsys):
    # below T_c the thermal cloud sits at mu = sign(q): for q < 0 the
    # antiparticles carry the peak at k = 0, the mirror image of q > 0
    argv = ("--t", "1", "--k-max", "4", "--samples", "16")
    _, plus, _ = run_cli(capsys, "profile", "--q", "10", *argv)
    _, minus, _ = run_cli(capsys, "profile", "--q", "-10", *argv)
    plus, minus = _csv_rows(plus), _csv_rows(minus)
    assert [float(v) for v in plus[0]] == [0.0, 2.0, 0.0]
    assert minus == [[k, n2, n1] for k, n1, n2 in plus]


def test_condensed_oracle_check_takes_the_sign_of_q(capsys):
    argv = ("--t", "1", "--box-lengths", "20", "50")
    _, plus, _ = run_cli(capsys, "oracle-check", "--q", "10", *argv)
    _, minus, _ = run_cli(capsys, "oracle-check", "--q", "-10", *argv)
    plus, minus = _csv_rows(plus), _csv_rows(minus)
    assert float(plus[0][3]) == thermal_charge_density(
        PhasePoint(1.0, 1.0)).q_tilde > 0.0
    # q_tilde_fv and q_tilde_quad flip sign; cutoffs and deviations stay
    for p, m in zip(plus, minus):
        assert m[:2] == p[:2] and m[4] == p[4]
        assert [float(v) for v in m[2:4]] == [-float(v) for v in p[2:4]]


def _python(*args):
    """The finished run of `python args` in a fresh interpreter that
    imports the same relbec as this one, with stdout and stderr as bytes."""
    return run_python(*args, capture_output=True)


def _fresh_interpreter(code):
    """stdout of code run by a fresh interpreter that imports the same
    relbec as this one."""
    run = _python("-c", code)
    assert run.returncode == 0, run.stderr.decode()
    return run.stdout.decode()


@pytest.mark.parametrize("statement", ["import relbec", "import relbec.cli"])
def test_import_loads_no_scipy(statement):
    # nor json, which only JSON output and error records need
    loaded = _fresh_interpreter(
        f"import sys\n{statement}\nprint(*sys.modules)").split()
    assert "relbec.solver" in loaded
    assert [m for m in loaded
            if m.split(".")[0] in ("scipy", "json")] == []


@pytest.mark.parametrize("name", ["tc", "tc-json"])
def test_program_run_matches_golden(name):
    # through `python -m relbec.cli`, i.e. sys.exit(main()) with no argv
    run = _python("-m", "relbec.cli", *CLI_CASES[name])
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == (CLI_DIR / f"{name}.txt").read_bytes()


def test_program_run_error_is_a_record_and_exit_code_1(capsys):
    argv = ["tc", "--q", "-1"]
    run = _python("-m", "relbec.cli", *argv)
    assert (run.returncode, run.stdout) == (1, b"")
    record = json.loads(run.stderr)
    assert (record["error"], record["operation"]) == ("InvalidArgument", "tc")
    assert run.stderr.decode() == run_cli(capsys, *argv)[2]


def test_in_process_main_leaves_the_heap_collectable(capsys):
    before = gc.get_freeze_count()
    assert run_cli(capsys, "tc", "--q", "1")[0] == 0
    assert run_cli(capsys, "tc", "--q", "-1")[0] == 1
    assert gc.get_freeze_count() == before


def test_program_run_freezes_the_import_heap():
    out = _fresh_interpreter(
        "import gc, sys\n"
        "import relbec.cli\n"
        "assert gc.get_freeze_count() == 0\n"
        "sys.argv = ['relbec', 'ddim-tc', '--q-over-m', '1', '--dim', '3']\n"
        "code = relbec.cli.main()\n"
        "print(code, gc.get_freeze_count())\n")
    code, frozen = out.splitlines()[-1].split()
    assert code == "0" and int(frozen) > 0


def test_oracle_names_resolve_on_first_use():
    out = _fresh_interpreter(
        "import sys\n"
        "import relbec.cli\n"
        "assert 'relbec.oracle' not in sys.modules\n"
        "assert relbec.cli.mode_sum is relbec.mode_sum\n"
        "from relbec import *\n"
        "from relbec import oracle\n"
        "assert mode_sum is oracle.mode_sum\n"
        "assert suggest_cutoff is relbec.cli.suggest_cutoff\n"
        "assert condensate_mode is oracle.condensate_mode\n"
        "assert ModeSumResult is oracle.ModeSumResult\n"
        "assert not hasattr(relbec, 'no_such_name')\n"
        "assert not hasattr(relbec.cli, 'no_such_name')\n"
        "print('scipy.special' in sys.modules)\n")
    assert out.strip() == "True"


def test_negative_charge_in_exponent_form(capsys):
    code, spaced, err = run_cli(capsys, "mu", "--q", "-9.5e-05", "--t", "1")
    assert code == 0, err
    _, joined, _ = run_cli(capsys, "mu", "--q=-9.5e-05", "--t", "1")
    assert spaced == joined
    assert float(spaced.strip().split("\n")[1].split(",")[2]) < 0.0


def test_oracle_check_over_budget_is_an_error_record(capsys):
    # at t = 100 the L = 1000 box needs a cutoff of ~2.6e5, past the budget
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "oracle-check", "--q", "0.1",
                                 "--t", "100", "--box-lengths", "1000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "BudgetExceeded"
    assert record["operation"] == "oracle-check"
    assert peak < 2 ** 20


@pytest.mark.parametrize("argv", [
    ["profile", "--q", "nan", "--t", "1"],
    ["oracle-check", "--q", "nan", "--t", "1", "--box-lengths", "20"],
    ["oracle-check", "--q", "0.1", "--t", "1", "--box-lengths", "-20"],
    ["ddim-tc", "--q-over-m", "-1", "--dim", "3"],
    ["--tol-quad", "-1", "tc", "--q", "1"],
    ["--tol-tc", "1e-20", "tc", "--q", "1"],
    ["profile", "--q", "0.1", "--t", "1", "--k-max", "-1"],
    ["ddim-tc", "--q-over-m", "inf", "--dim", "3"],
    ["--tol-mu", "1e-20", "mu", "--q", "0.1", "--t", "1"],
    ["--tol-tc", "inf", "tc", "--q", "1"],
    ["--tol-mu", "inf", "mu", "--q", "0.5", "--t", "2"],
    ["--tol-quad", "inf", "tc", "--q", "1"],
    ["--tol-quad", "1", "mu", "--q", "0.5", "--t", "2"],
    ["profile", "--q", "0.1", "--t", "1", "--k-max", "inf", "--samples", "3"],
    ["ddim-tc", "--q-over-m", "1e308", "--dim", "3"],
    ["ratio-sweep", "--q", "1", "--points", "-1"],
    ["ratio-sweep", "--q", "1", "--t-min", "nan", "--points", "3"],
    ["ratio-sweep", "--q", "1", "--t-max", "nan"],
    ["fraction-sweep", "--q", "1", "--points", "0"],
    ["fraction-sweep", "--q", "1", "--points", "-2"],
    ["ratio-sweep", "--q", "0"],
    ["ratio-sweep", "--q", "-1"],
    ["ratio-sweep", "--q", "nan"],
    ["ratio-sweep", "--q", "inf"],
    # counts above types._MAX_COUNT, rejected before any allocation
    ["profile", "--q", "1", "--t", "2", "--samples", str(10 ** 6 + 1)],
    ["profile", "--q", "1", "--t", "2", "--samples", str(10 ** 13)],
    ["universal", "--points", str(10 ** 6 + 1)],
    ["universal", "--points", str(10 ** 13)],
    ["ratio-sweep", "--q", "1", "--points", str(10 ** 6 + 1)],
    ["ratio-sweep", "--q", "1", "--points", str(10 ** 13)],
])
def test_invalid_argument_is_an_error_record(capsys, argv):
    # a value out of its domain is reported, not a traceback; only a
    # condensed state falls back to mu = 1
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "InvalidArgument"


@pytest.mark.parametrize("option,value", [("--t-min", "nan"),
                                          ("--t-max", "nan"),
                                          ("--t-max", "inf")])
def test_ratio_sweep_names_a_non_finite_bound(capsys, option, value):
    code, out, err = run_cli(capsys, "ratio-sweep", "--q", "1", option,
                             value, "--points", "3")
    assert code == 1
    assert out == ""
    field = option[2:].replace("-", "_")
    assert json.loads(err)["message"] == f"{field} must be finite, got {value}"


@pytest.mark.parametrize("dim", ["171", "200", "400"])
def test_ddim_tc_beyond_the_double_range_is_an_error_record(capsys, dim):
    code, out, err = run_cli(capsys, "ddim-tc", "--q-over-m", "1",
                             "--dim", dim)
    assert code == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "UnsupportedDimension"
    assert f"d = {dim}" in record["message"]


def test_error_record_on_condensed_state(capsys):
    code, out, err = run_cli(capsys, "mu", "--q", "10", "--t", "0.5")
    assert code == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "BelowCritical"
    assert record["operation"] == "mu"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tc", "--nope"])
    assert exc.value.code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "--out", str(target), "mu",
                           "--q", "0", "--t", "1")
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("q_over_m3,")


def test_unwritable_output_path_is_an_error_record(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(capsys, "--out", str(target), "tc", "--q", "1")
    assert code == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "FileNotFoundError"
    assert record["operation"] == "tc"
    assert str(target) in record["message"]


def test_profile_output_is_written_row_by_row(tmp_path):
    target = tmp_path / "profile.csv"
    tracemalloc.start()
    try:
        code = main(["--out", str(target), "profile", "--q", "1", "--t", "2",
                     "--samples", "100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # formatted whole, this 6.9 MB of text peaked at 40.9 MB
    assert peak <= 40.9e6 / 2
    prof = momentum_profile(PhasePoint(2.0, solve_mu(1.0, 2.0)), 10.0, 100000)
    assert target.read_text() == "k_over_m,n1_k,n2_k\n" + "".join(
        f"{k:.16e},{n1:.16e},{n2:.16e}\n" for k, n1, n2 in zip(
            prof.k_grid.tolist(), prof.n1_of_k.tolist(),
            prof.n2_of_k.tolist()))


def test_determinism_single_command(capsys):
    _, first, _ = run_cli(capsys, "profile", "--q", "0.1", "--t", "2",
                          "--samples", "16")
    _, second, _ = run_cli(capsys, "profile", "--q", "0.1", "--t", "2",
                           "--samples", "16")
    assert first == second


def test_float_format_is_scientific(capsys):
    _, out, _ = run_cli(capsys, "mu", "--q", "0.01", "--t", "1")
    value = out.strip().split("\n")[1].split(",")[2]
    assert "e" in value
    mantissa = value.split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) == 17
