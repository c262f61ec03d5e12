import json
import math
import pathlib

import pytest

from relbec.cli import main


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
