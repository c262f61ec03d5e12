"""The byte goldens, the exact work-count bounds, the 30-digit EOS
reference with its rule for subnormal densities, and the oracle's exact
oddness in mu on a narrower numpy SIMD level: the EOS doubles, and with
them the CLI bytes and Brent's steps, do not depend on which loops numpy
dispatches, and the mode sum's two charge rows stay mirror images."""
import pytest

from conftest import TESTS, run_python

# runs pytest in the child after checking that X86_V4 is off there
CHILD = ("import sys, pytest\n"
         "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
         "assert not f['X86_V4']\n"
         "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[1:]]))")


def test_goldens_and_work_counts_with_x86_v4_off():
    features = pytest.importorskip(
        "numpy._core._multiarray_umath").__cpu_features__
    if not features.get("X86_V4"):
        pytest.skip("X86_V4 is not dispatched on this machine")
    oddness = [f"{TESTS}/test_oracle.py::test_{name}" for name in (
        "split_sum_odd_in_mu", "mode_sum_charge_conjugation",
        "mode_sum_matches_the_per_sign_formula_bit_for_bit")]
    reference = (f"{TESTS}/test_quadrature.py::"
                 f"test_eos_matches_the_30_digit_reference")
    out = run_python("-c", CHILD, f"{TESTS}/test_golden.py",
                     f"{TESTS}/test_work_counts.py", reference, *oddness,
                     env={"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
                     capture_output=True, text=True)
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-2000:]
