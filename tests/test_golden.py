"""Byte-level goldens: thermal_charge_density doubles and CLI stdout.

The recorded files pin what a refactor of the quadrature or the solver
must keep: every default-tolerance (n1, n2, q_tilde) as float.hex, and the
stdout of a set of relbec invocations byte for byte. A change that moves
them on purpose regenerates them,

    PYTHONPATH=src python tests/test_golden.py

and names the moved outputs in CHANGES.md.
"""
import contextlib
import ctypes
import io
import json
import math
import pathlib
import platform

import numpy as np
import pytest

from relbec import PhasePoint, QuadratureConfig, cli, thermal_charge_density

GOLDEN = pathlib.Path(__file__).parent / "golden"
EOS_FILE = GOLDEN / "eos_doubles.json"
CLI_DIR = GOLDEN / "cli"

# The tight tolerance bisects some initial panels, so its doubles follow
# the refinement decisions; they are pinned to within TIGHT_TOL relative.
TIGHT_TOL = 1e-13

# relbec argv per recorded stdout file, tests/golden/cli/<name>.txt
CLI_CASES = {
    "mu": ["mu", "--q", "0.05", "--t", "1"],
    "tc": ["tc", "--q", "1e-12", "1e-10", "0.01", "0.1", "1", "10", "1e9"],
    "tc-json": ["--format", "json", "tc", "--q", "3"],
    "ddim-tc": ["ddim-tc", "--q-over-m", "1", "--dim", "3"],
    "ratio-sweep": ["ratio-sweep", "--q", "0.1", "1", "--points", "5"],
    "profile": ["profile", "--q", "0.1", "--t", "1.5", "--k-max", "6",
                "--samples", "16"],
    "fraction-sweep": ["fraction-sweep"],
    "universal-small": ["universal", "--q-min", "0.1", "--q-max", "10",
                        "--points", "5"],
    "oracle-check": ["oracle-check", "--q", "0.5", "--t", "2",
                     "--box-lengths", "20", "40"],
    "universal": ["universal"],
    "universal-json": ["--format", "json", "universal"],
}


def eos_points():
    """(t, mu): a t ladder from 1e-12 to the largest allowed t at the
    condensation points, next to them and at 0, then seeded draws."""
    ladder = [1e-12, 1e-6, 1e-2, 10.0, 1e6, 4e102]
    near = 1.0 - 1e-9
    points = [(t, mu) for t in ladder for mu in (1.0, -1.0, near, -near, 0.0)]
    rng = np.random.default_rng(20021)
    for _ in range(10):
        points.append((float(10.0 ** rng.uniform(-12.0, math.log10(4e102))),
                       float(rng.uniform(-1.0, 1.0))))
    return points


def dispatch():
    """numpy's enabled SIMD dispatch targets and the OpenBLAS core, which
    decide the last bits of exp, expm1 and the matrix products; None
    where this numpy does not expose them."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
        targets = [name for name in __cpu_dispatch__
                   if __cpu_features__.get(name)]
    except ImportError:
        targets = None
    core = None
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        core = corename().decode()
        break
    return {"numpy_dispatch": targets, "openblas_core": core}


def eos_hex(t, mu, config):
    d = thermal_charge_density(PhasePoint(t, mu), config)
    return [d.n1.hex(), d.n2.hex(), d.q_tilde.hex()]


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def record():
    rows = [{"t": t.hex(), "mu": mu.hex(),
             "default": eos_hex(t, mu, QuadratureConfig()),
             "tight": eos_hex(t, mu, QuadratureConfig(rel_tol=TIGHT_TOL))}
            for t, mu in eos_points()]
    EOS_FILE.write_text(json.dumps({
        "comment": "float.hex of (n1, n2, q_tilde) from thermal_charge_density "
                   "at the default rel_tol (default) and at rel_tol = "
                   f"{TIGHT_TOL:g} (tight)",
        "recorded_with": {"numpy": np.__version__,
                          "python": platform.python_version(),
                          "platform": platform.platform(),
                          **dispatch()},
        "points": rows}, indent=1) + "\n")
    CLI_DIR.mkdir(exist_ok=True)
    for name, argv in CLI_CASES.items():
        (CLI_DIR / f"{name}.txt").write_text(cli_stdout(argv))


def row_id(row):
    return f"{float.fromhex(row['t']):.3g},{float.fromhex(row['mu']):.10g}"


EOS_RECORD = json.loads(EOS_FILE.read_text()) if EOS_FILE.exists() else {}
EOS_ROWS = EOS_RECORD.get("points", [])


def dispatch_note():
    """The dispatch the goldens were recorded with and the running one,
    for a failure message: a mismatch under another dispatch may be the
    dispatch's, not the code's."""
    recorded = {key: EOS_RECORD.get("recorded_with", {}).get(key)
                for key in ("numpy_dispatch", "openblas_core")}
    return f"recorded with {recorded}, running {dispatch()}"


@pytest.mark.parametrize("row", EOS_ROWS, ids=row_id)
def test_eos_doubles_at_default_tolerance(row):
    t, mu = float.fromhex(row["t"]), float.fromhex(row["mu"])
    assert eos_hex(t, mu, QuadratureConfig()) == row["default"], \
        dispatch_note()


@pytest.mark.parametrize("row", EOS_ROWS, ids=row_id)
def test_eos_doubles_at_tight_tolerance(row):
    t, mu = float.fromhex(row["t"]), float.fromhex(row["mu"])
    d = thermal_charge_density(PhasePoint(t, mu),
                               QuadratureConfig(rel_tol=TIGHT_TOL))
    for got, want in zip((d.n1, d.n2, d.q_tilde), row["tight"]):
        assert got == pytest.approx(float.fromhex(want), rel=TIGHT_TOL,
                                    abs=0.0), dispatch_note()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_matches_golden(name):
    assert cli_stdout(CLI_CASES[name]) == (
        CLI_DIR / f"{name}.txt").read_text(), dispatch_note()


if __name__ == "__main__":
    record()
