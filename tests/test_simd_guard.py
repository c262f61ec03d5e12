"""The byte goldens and the exact work-count bounds on a narrower numpy
SIMD level: the EOS doubles, and with them the CLI bytes and Brent's
steps, do not depend on which loops numpy dispatches."""
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
    out = run_python("-c", CHILD, f"{TESTS}/test_golden.py",
                     f"{TESTS}/test_work_counts.py",
                     env={"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
                     capture_output=True, text=True)
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-2000:]
