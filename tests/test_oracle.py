import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import kve

from conftest import run_python
from relbec import (BoxSpec, BudgetExceeded, DivergentCondensateMode,
                    InvalidArgument, NonPositiveTemperature, PhasePoint,
                    TailTooLarge, condensate_mode, low_t_mu_asymptote,
                    mode_sum, suggest_cutoff,
                    thermal_charge_density)
from relbec import oracle
from relbec.limits import zeta_int
from relbec.oracle import (_DIRECT_SHELLS, _MARGIN, _MAX_CUTOFF, _MAX_SHELLS,
                           _boltzmann_head, _density_floor, _k2e,
                           _lattice_points, _plan, _shell_counts, _tail_bound)
from relbec.statistics import _bose, _gap

# 20-digit finite-volume reference (t=1, mu=0.5, L=20, |n| <= 15)
FV_N1_REF = 0.13717411487013
FV_N2_REF = 0.043976902989337


def wedge_count(cutoff):
    """Lattice vectors 0 < |n| <= cutoff, counted over the 1/48 wedge with
    one square root per pair y > z >= 1 of the points x > y > z: an
    independent reference for _lattice_points, which projects along z.

    modes = 6 c + 12 Q + 8 (6 D + 3 E + F) as there; D sums
    floor(sqrt(c^2 - y^2 - z^2)) - y over z < y <= isqrt((c^2 - z^2) // 2),
    in rectangles of rows z. Entries outside the wedge are raised to y^2,
    so each adds exactly y, and the rectangle's sum of y is subtracted in
    closed form.
    """
    rows, chunk = 64, 1 << 16

    def floor_root_sum(r):
        return int(np.floor(np.sqrt(r)).sum())

    c2 = cutoff * cutoff
    sq = np.arange(cutoff + 1, dtype=float) ** 2
    a = math.isqrt(c2 // 2)
    f = math.isqrt(c2 // 3)
    q = 2 * floor_root_sum(c2 - sq[1:a + 1]) - a * a
    e = floor_root_sum(c2 - 2.0 * sq[1:a + 1]) - f
    below = np.tri(rows, rows, -1, dtype=bool)
    d = 0
    z = 1
    while True:
        w = math.isqrt((c2 - z * z) // 2) - z
        if w <= 0:
            break
        k = min(rows, max(chunk // w, 1), f + 1 - z)
        y2 = sq[z + 1:z + 1 + w]
        r = np.subtract(c2 - sq[z:z + k, None], y2)
        r[:, :k][below[:k, :min(k, w)]] = 0.0
        np.maximum(r, y2, out=r)
        d += floor_root_sum(r) - k * w * (2 * z + w + 1) // 2
        z += k
    return 6 * cutoff + 12 * q + 8 * (6 * d + 3 * e + f)


def boundary_cutoffs(top):
    """Cutoffs c <= top whose c^2/2 or c^2/3 lies within 1 of a perfect
    square: where a, F and the rows of the band and the cap change."""
    out = []
    for c in range(1, top + 1):
        for div in (2, 3):
            s = math.isqrt(c * c // div)
            if min(abs(c * c - div * s * s),
                   abs(c * c - div * (s + 1) ** 2)) <= div:
                out.append(c)
                break
    return out


def brute_force_sum(phase, box):
    """Ungrouped triple-loop lattice sum; deliberately naive."""
    n = box.mode_cutoff
    dk = 2.0 * math.pi / box.box_length
    s1 = s2 = 0.0
    for nx in range(-n, n + 1):
        for ny in range(-n, n + 1):
            for nz in range(-n, n + 1):
                m2 = nx * nx + ny * ny + nz * nz
                if m2 == 0 or m2 > n * n:
                    continue
                e = math.sqrt((dk * dk) * m2 + 1.0)
                s1 += 1.0 / math.expm1((e - phase.mu) / phase.t)
                s2 += 1.0 / math.expm1((e + phase.mu) / phase.t)
    vol = box.box_length ** 3
    return s1 / vol, s2 / vol


def explicit_shell_sum(phase, box):
    """Bose occupations summed over every lattice vector 0 < |n| <= cutoff,
    one x-slab at a time, without grouping into shells."""
    c = box.mode_cutoff
    dk = 2.0 * math.pi / box.box_length
    y, z = np.meshgrid(np.arange(-c, c + 1), np.arange(-c, c + 1))
    yz = (y * y + z * z).ravel()
    s1 = s2 = 0.0
    for x in range(-c, c + 1):
        m2 = x * x + yz
        m2 = m2[(m2 > 0) & (m2 <= c * c)].astype(float)
        ksq = dk * dk * m2
        gap = ksq / (np.sqrt(ksq + 1.0) + 1.0)
        s1 += np.sum(1.0 / np.expm1((gap + 1.0 - phase.mu) / phase.t))
        s2 += np.sum(1.0 / np.expm1((gap + 1.0 + phase.mu) / phase.t))
    vol = box.box_length ** 3
    return s1 / vol, s2 / vol


def head_by_modes(t, length, j_max):
    """(1/L^3) sum over n != 0 of e^{-j (E_n - 1)/t}, j = 1..J, summed mode
    by mode over a cube that holds every term above e^{-45} of the n = 0
    term."""
    dk = 2.0 * math.pi / length
    # E - 1 >= k - 1, so terms with k > 1 + 45 t are below e^{-45}
    n_max = math.ceil((1.0 + 45.0 * t) / dk)
    axis = np.arange(-n_max, n_max + 1, dtype=float)
    ksq = dk * dk * (axis[:, None, None] ** 2 + axis[None, :, None] ** 2
                     + axis[None, None, :] ** 2).ravel()
    ksq = ksq[ksq > 0.0]
    excess = ksq / (np.sqrt(ksq + 1.0) + 1.0)  # E - 1
    return np.array([np.exp(-j / t * excess).sum() / length ** 3
                     for j in range(1, j_max + 1)])


def doubling_cutoff(phase, length, tol):
    """The cutoff search suggest_cutoff replaced: double from 2 until the
    tail bound meets the limit, then bisect. None where the doubling passes
    10^7."""
    t = phase.t
    scale = min(2.0 * zeta_int(3) * t ** 3 / math.pi ** 2,
                9.0 * _density_floor(phase, BoxSpec(length, 2)))
    lo, hi = 1, 2
    while _tail_bound(phase, BoxSpec(length, hi)) > tol * scale:
        lo, hi = hi, hi * 2
        if hi > 10 ** 7:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_bound(phase, BoxSpec(length, mid)) > tol * scale:
            lo = mid
        else:
            hi = mid
    return hi


def test_k2e_matches_kve():
    x = np.logspace(-6.0, 5.0, 20001)
    np.testing.assert_allclose(_k2e(x), kve(2, x), rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("t, length", [
    (0.5, 4.0), (1.0, 5.0), (2.0, 3.0), (0.5, 8.0), (3.0, 1.0)])
def test_boltzmann_head_matches_sum_over_modes(t, length):
    # cutoff 65 takes the split sum, whose head covers every n != 0
    j_max, _, m_wind = _plan(PhasePoint(t, 0.0), BoxSpec(length, 65))
    assert j_max >= 1
    head = _boltzmann_head(t, length, j_max, _shell_counts(m_wind))
    np.testing.assert_allclose(head, head_by_modes(t, length, j_max),
                               rtol=1e-13, atol=0.0)


def test_plan_keeps_exactly_the_winding_shells_inside_the_margin():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(300):
        t, length = 10 ** rng.uniform(-1, 3), 10 ** rng.uniform(-1.5, 2)
        try:
            j_max, _, m_wind = _plan(PhasePoint(t, 0.5), BoxSpec(length, 65))
        except BudgetExceeded:
            continue
        if j_max == 0:
            continue
        beta = j_max / t

        def excess(m):
            return math.sqrt(beta * beta + length * length * m) - beta

        if m_wind:
            assert excess(m_wind) <= _MARGIN
        assert excess(m_wind + 1) > _MARGIN
        checked += 1
    assert checked > 100


def test_suggest_cutoff_is_the_smallest_cutoff_within_tolerance():
    rng = np.random.default_rng(29)
    seeded = [(10 ** rng.uniform(-3, 3), rng.uniform(-1, 1),
               10 ** rng.uniform(0, 3), 10 ** rng.uniform(-10, -2))
              for _ in range(300)]
    # scales at the ends of the doubles, where 1 - |mu| vanishes next to
    # the gap of the first mode
    extreme = [(t, mu, length, tol) for t in (1e-12, 1.0, 1e102)
               for mu in (-1.0, 1.0) for length in (1e-50, 1e50, 1e102)
               for tol in (0.0, 1e-5, 1e300)]
    for t, mu, length, tol in seeded + extreme:
        phase = PhasePoint(t, mu)
        reference = doubling_cutoff(phase, length, tol)
        if reference is None:
            with pytest.raises(TailTooLarge, match="at cutoff 8388608 "):
                suggest_cutoff(phase, length, tol)
            continue
        cutoff = suggest_cutoff(phase, length, tol)
        assert cutoff == reference
        limit = tol * min(2.0 * zeta_int(3) * t ** 3 / math.pi ** 2,
                          9.0 * _density_floor(phase, BoxSpec(length, 2)))
        assert cutoff >= 2
        assert _tail_bound(phase, BoxSpec(length, cutoff)) <= limit
        if cutoff > 2:
            assert _tail_bound(phase, BoxSpec(length, cutoff - 1)) > limit


def test_suggest_cutoff_takes_few_bound_evaluations(monkeypatch):
    # the guess is the continuous inverse of the bound, so the search
    # confirms it with the bound at the guess and one below
    probes = []
    monkeypatch.setattr(oracle, "_tail_bound",
                        lambda *args: probes.append(1) or _tail_bound(*args))
    rng = np.random.default_rng(31)
    counts = []
    for _ in range(300):
        phase = PhasePoint(10 ** rng.uniform(-3, 3), rng.uniform(-1, 1))
        probes.clear()
        suggest_cutoff(phase, 10 ** rng.uniform(0, 3))
        counts.append(len(probes))
    assert max(counts) <= 2


def test_suggest_cutoff_searches_up_from_a_low_guess(monkeypatch):
    # a guess below the answer sends the search up: it gallops from the
    # guess and bisects the last step, in O(log cutoff) bound evaluations
    rng = np.random.default_rng(37)
    probes = []
    monkeypatch.setattr(oracle, "_tail_bound",
                        lambda *args: probes.append(1) or _tail_bound(*args))
    checked = 0
    for _ in range(80):
        phase = PhasePoint(10 ** rng.uniform(-3, 3), rng.uniform(-1, 1))
        length, tol = 10 ** rng.uniform(0, 3), 10 ** rng.uniform(-10, -2)
        answer = doubling_cutoff(phase, length, tol)
        if answer is None or answer <= 2:
            continue
        for guess in {2, max(answer // 3, 1), answer - 1}:
            monkeypatch.setattr(oracle, "_cutoff_guess",
                                lambda *args: guess)
            probes.clear()
            assert suggest_cutoff(phase, length, tol) == answer, guess
            assert len(probes) <= 2.0 * math.log2(answer) + 3.0, guess
            checked += 1
    assert checked > 150


@pytest.mark.parametrize("call", [
    lambda: mode_sum(PhasePoint(1.0, 0.5), BoxSpec(1e-200, 2)),
    lambda: mode_sum(PhasePoint(1.0, 0.5), BoxSpec(1e200, 2)),
    lambda: mode_sum(PhasePoint(1e103, 0.5), BoxSpec(50.0, 2)),
    lambda: suggest_cutoff(PhasePoint(1e103, 0.5), 50.0)],
    ids=["mode_sum-L-1e-200", "mode_sum-L-1e200", "mode_sum-t-1e103",
         "suggest_cutoff-t-1e103"])
def test_extreme_scales_raise_invalid_argument(call):
    # t^3 or L^3 outside the normal doubles: a typed error naming the
    # operation and its point, not a ZeroDivisionError or OverflowError
    with pytest.raises(InvalidArgument,
                       match=r"^(mode_sum|suggest_cutoff) at t = .*, "
                             r"mu = 0\.5, L = .*: t\^3 and L\^3"):
        call()


@pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf],
                         ids=["nan", "negative", "minus-inf"])
@pytest.mark.parametrize("call", [
    lambda tol: suggest_cutoff(PhasePoint(1.0, 0.5), 50.0, tol),
    lambda tol: mode_sum(PhasePoint(1.0, 0.5), BoxSpec(50.0, 8), tol)],
    ids=["suggest_cutoff", "mode_sum"])
def test_invalid_tail_tolerance_raises_invalid_argument(call, tol):
    # a NaN limit passed every tail check (cutoff 2, a tail bound 23 times
    # n1_fv); a negative one walked to the search cap and TailTooLarge
    with pytest.raises(InvalidArgument,
                       match=r"^(mode_sum|suggest_cutoff) at t = 1\.0, "
                             r"mu = 0\.5, L = 50\.0: tail_rel_tol must be "
                             r">= 0"):
        call(tol)


def test_zero_and_infinite_tail_tolerance_are_accepted():
    # 0 asks for a tail bound of exactly 0, met where the bound underflows;
    # inf waives the check
    phase = PhasePoint(1.0, 0.5)
    cutoff = suggest_cutoff(phase, 50.0, 0.0)
    assert _tail_bound(phase, BoxSpec(50.0, cutoff)) == 0.0
    assert _tail_bound(phase, BoxSpec(50.0, cutoff - 1)) > 0.0
    assert suggest_cutoff(phase, 50.0, math.inf) == 2
    with pytest.raises(TailTooLarge):
        mode_sum(phase, BoxSpec(50.0, 8), 0.0)
    assert mode_sum(phase, BoxSpec(50.0, 8), math.inf).tail_bound > 0.0


def test_shell_counts_small():
    counts = _shell_counts(9)
    # r3(0..9) = 1, 6, 12, 8, 6, 24, 24, 0, 12, 30
    assert counts.tolist() == [1, 6, 12, 8, 6, 24, 24, 0, 12, 30]


def test_shell_counts_match_brute_force_up_to_2000():
    # every lattice vector with |n|^2 <= 2000 binned by |n|^2; the float64
    # table holds the same integers for every max_m
    axis = np.arange(-44, 45) ** 2
    norms = (axis[:, None, None] + axis[None, :, None]
             + axis[None, None, :]).ravel()
    r3 = np.bincount(norms[norms <= 2000], minlength=2001)
    for max_m in range(2001):
        counts = _shell_counts(max_m)
        assert counts.dtype == np.float64
        assert np.array_equal(counts, r3[:max_m + 1]), max_m


def per_sign_density(s, t, vol, head, gap, counts):
    """(1/L^3) sum over n != 0 of 1/(e^{x_n} - 1), x_n = (gap_n + 1 - s)/t,
    for one sign s = +-mu at a time: the Boltzmann head plus the remainder
    over the direct shells, as mode_sum evaluated each charge before both
    shared one pass."""
    energy = gap + (1.0 - s)
    rest = _bose(energy / t) * np.exp(-len(head) / t * energy)
    weights = np.exp(-(1.0 - s) / t * np.arange(1, len(head) + 1))
    return float(np.dot(weights, head)) + float(np.dot(counts, rest)) / vol


def per_sign_mode_sum(phase, box):
    """(n1_fv, n2_fv, q_tilde_fv, tail_bound) with per_sign_density at +mu
    and -mu on mode_sum's plan, shells and head."""
    t, mu, length = phase.t, phase.mu, box.box_length
    j_max, m_direct, m_wind = _plan(phase, box)
    shells = _shell_counts(max(m_direct, m_wind))
    head = _boltzmann_head(t, length, j_max, shells[:m_wind + 1])
    k = 2.0 * math.pi / length * np.sqrt(np.arange(1, m_direct + 1,
                                                   dtype=float))
    gap = _gap(k * k)
    counts = shells[1:m_direct + 1].copy()
    n1, n2 = (per_sign_density(s, t, length ** 3, head, gap, counts)
              for s in (mu, -mu))
    return n1, n2, n1 - n2, _tail_bound(phase, box)


def test_mode_sum_matches_the_per_sign_formula_bit_for_bit():
    # seeded boxes, t from 0.05 to 50; mu at +-1, +-0.0 and drawn values.
    # A third each: direct boxes, split ones, and split ones with t L
    # below 5, whose few Boltzmann terms leave the most to the remainder
    rng = np.random.default_rng(2525)
    kinds = {"direct": 0, "split": 0}
    for i in range(270):
        t = 10 ** rng.uniform(math.log10(0.05), math.log10(50.0))
        mu = ([1.0, -1.0, 0.0, -0.0][i % 4] if i % 2
              else rng.uniform(-1.0, 1.0))
        length = 10 ** rng.uniform(0.0, 2.5)
        cutoff = int(rng.integers(65, 1200))
        if i % 3 == 0:
            cutoff = int(rng.integers(1, 65))
        elif i % 3 == 1:
            length = rng.uniform(1.0, 5.0) / min(t, 5.0)
        phase, box = PhasePoint(t, mu), BoxSpec(length, cutoff)
        res = mode_sum(phase, box, tail_rel_tol=math.inf)
        got = (res.n1_fv, res.n2_fv, res.q_tilde_fv, res.tail_bound)
        want = per_sign_mode_sum(phase, box)
        assert [v.hex() for v in got] == [v.hex() for v in want], (
            t, mu, length, cutoff)
        kinds["split" if cutoff ** 2 > _DIRECT_SHELLS else "direct"] += 1
    assert kinds["direct"] >= 90 and kinds["split"] >= 180


def test_mode_sum_peak_allocation_near_the_shell_budget():
    # 182418 direct shells, within 10% of _MAX_SHELLS: the (2, m) rows of
    # both charges peak at ~9.5 doubles per shell, as the one-charge
    # passes did
    phase, box = PhasePoint(1.0, 0.5), BoxSpec(9e4, 1000)
    _, m_direct, _ = _plan(phase, box)
    assert 0.9 * _MAX_SHELLS < m_direct <= _MAX_SHELLS
    tracemalloc.start()
    try:
        mode_sum(phase, box, tail_rel_tol=math.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * m_direct


def test_split_sum_within_tail_bound_of_truncated_sum():
    # a box above the direct budget whose tail is not negligible: the split
    # sum takes every mode, the explicit sum stops at the cutoff
    phase = PhasePoint(1.0, 0.5)
    box = BoxSpec(20.0, 79)
    assert box.mode_cutoff ** 2 > _DIRECT_SHELLS
    res = mode_sum(phase, box)
    truncated = explicit_shell_sum(phase, box)
    for split, trunc in zip((res.n1_fv, res.n2_fv), truncated):
        assert 0.0 < split - trunc <= res.tail_bound


@pytest.mark.parametrize("t, mu, length, cutoff", [
    (1.0, 1.0, 10.0, 75), (0.5, -1.0, 20.0, 75), (2.0, -0.4, 6.0, 89),
    (0.8, 0.95, 15.0, 90)])
def test_split_sum_matches_explicit_shell_sum(t, mu, length, cutoff):
    phase = PhasePoint(t, mu)
    box = BoxSpec(length, cutoff)
    assert cutoff ** 2 > _DIRECT_SHELLS
    # the tail beyond the cutoff is below 1e-16 of the densities
    res = mode_sum(phase, box, tail_rel_tol=1e-16)
    n1, n2 = explicit_shell_sum(phase, box)
    assert res.n1_fv == pytest.approx(n1, rel=1e-12)
    assert res.n2_fv == pytest.approx(n2, rel=1e-12)
    assert res.q_tilde_fv == res.n1_fv - res.n2_fv


def test_split_sum_odd_in_mu():
    box = BoxSpec(40.0, 300)
    for mu in (0.37, 0.9, 1.0):
        plus = mode_sum(PhasePoint(2.0, mu), box)
        minus = mode_sum(PhasePoint(2.0, -mu), box)
        assert minus.q_tilde_fv == -plus.q_tilde_fv
        assert (minus.n1_fv, minus.n2_fv) == (plus.n2_fv, plus.n1_fv)


def test_modes_used_matches_independent_count():
    for cutoff in (65, 128, 300):
        c2 = cutoff * cutoff
        count = sum(2 * math.isqrt(c2 - x * x - y * y) + 1
                    for x in range(-cutoff, cutoff + 1)
                    for y in range(-cutoff, cutoff + 1)
                    if x * x + y * y <= c2) - 1
        res = mode_sum(PhasePoint(5.0, 0.3), BoxSpec(50.0, cutoff),
                       tail_rel_tol=1e6)
        assert res.modes_used == count
    # and against the shell degeneracies, on both sides of the budget
    for cutoff in (1, 2, 7, 64, 65, 447):
        assert _lattice_points(cutoff) == \
            int(_shell_counts(cutoff * cutoff)[1:].sum())


def test_lattice_points_matches_shell_counts_for_every_cutoff():
    # one convolution up to 300^2, independent of the wedge count
    enclosed = np.cumsum(_shell_counts(300 ** 2))
    for cutoff in range(1, 301):
        assert _lattice_points(cutoff) == enclosed[cutoff * cutoff] - 1


@pytest.mark.parametrize("cutoff, count", [
    (2606, 74133019436), (5210, 592381811972),
    (16384, 18422493908316)])
def test_lattice_points_large_cutoffs(cutoff, count):
    assert _lattice_points(cutoff) == count


def test_lattice_points_matches_wedge_count_up_to_600():
    for cutoff in range(1, 601):
        assert _lattice_points(cutoff) == wedge_count(cutoff), cutoff


def test_lattice_points_matches_wedge_count_up_to_the_budget():
    boundary = [c for c in boundary_cutoffs(_MAX_CUTOFF) if c > 600]
    # the Pell-like runs: c^2 - 2 s^2 = +-1, +-2 and c^2 - 3 s^2 = 1, -2, -3
    assert {1393, 1970, 3363, 8119, 11482, 19601} <= set(boundary)
    assert {989, 1351, 2340, 3691, 5042, 8733, 13775, 18817} <= set(boundary)
    rng = np.random.default_rng(2606)
    sample = rng.integers(601, _MAX_CUTOFF + 1, size=3).tolist()
    # 4096 is the last cutoff counted in float32
    for cutoff in boundary + sample + [4095, 4096, 4097, _MAX_CUTOFF]:
        assert _lattice_points(cutoff) == wedge_count(cutoff), cutoff


@pytest.mark.parametrize("disabled", ["X86_V4", "X86_V4 X86_V3"])
def test_lattice_points_on_narrower_simd_loops(disabled):
    # the float32 square roots are correctly rounded on every dispatch, so
    # the AVX2 and SSE loops give the same counts
    features = pytest.importorskip(
        "numpy._core._multiarray_umath").__cpu_features__
    if not all(features.get(name) for name in disabled.split()):
        pytest.skip(f"{disabled} is not dispatched on this machine")
    code = ("from numpy._core._multiarray_umath import __cpu_features__ as f\n"
            "from relbec.oracle import _lattice_points\n"
            "assert not f['X86_V4']\n"
            "print([_lattice_points(c) for c in (1302, 2603, 4096)])")
    out = run_python("-c", code, env={"NPY_DISABLE_CPU_FEATURES": disabled},
                     check=True, capture_output=True, text=True).stdout
    assert out.split("\n")[0] == "[9245307476, 73877279362, 287851423224]"


def test_lattice_points_memory_does_not_grow_with_cutoff_squared():
    tracemalloc.start()
    try:
        _lattice_points(1 << 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_mode_sum_memory_at_criterion_7_box():
    phase = PhasePoint(5.0, 0.9)
    box = BoxSpec(400.0, suggest_cutoff(phase, 400.0))
    tracemalloc.start()
    try:
        res = mode_sum(phase, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20
    q_quad = thermal_charge_density(phase).q_tilde
    assert abs(res.q_tilde_fv - q_quad) < 1e-3 * abs(q_quad)


def test_mode_sum_runs_at_the_cutoff_budget():
    phase = PhasePoint(5.0, 0.5)
    assert suggest_cutoff(phase, 2300.0) <= _MAX_CUTOFF
    res = mode_sum(phase, BoxSpec(2300.0, _MAX_CUTOFF))
    ball = 4.0 * math.pi / 3.0 * _MAX_CUTOFF ** 3
    assert abs(res.modes_used / ball - 1.0) < 1e-8
    # one above the budget fails before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=f"budgets are cutoff "
                           f"{_MAX_CUTOFF},"):
            mode_sum(phase, BoxSpec(2300.0, _MAX_CUTOFF + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("t, length, cutoff", [
    (100.0, 1000.0, 260_152),  # cutoff above the mode-count budget
    (1e4, 1000.0, 10_000),     # too many Boltzmann terms
    (50.0, 0.05, 1000)])       # too many winding shells
def test_mode_sum_over_budget_raises_before_allocating(t, length, cutoff):
    # the error names its operation and its point
    match = "^" + re.escape(f"mode_sum at t = {t}, mu = 0.5, L = {length} "
                            f"with cutoff {cutoff}: needs J = ")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=match):
            mode_sum(PhasePoint(t, 0.5), BoxSpec(length, cutoff))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_condensate_mode_rejects_bad_temperature():
    with pytest.raises(NonPositiveTemperature):
        condensate_mode(0.5, 0.0)
    with pytest.raises(InvalidArgument):
        condensate_mode(0.5, math.nan)
    with pytest.raises(InvalidArgument):
        condensate_mode(math.nan, 1.0)


def test_mode_sum_zero_mu_cancels_exactly():
    res = mode_sum(PhasePoint(1.0, 0.0), BoxSpec(15.0, 40), tail_rel_tol=1.0)
    assert res.q_tilde_fv == 0.0
    assert res.n1_fv == res.n2_fv > 0.0


def test_mode_sum_reference_box():
    res = mode_sum(PhasePoint(1.0, 0.5), BoxSpec(20.0, 15), tail_rel_tol=10.0)
    assert res.n1_fv == pytest.approx(FV_N1_REF, rel=1e-12)
    assert res.n2_fv == pytest.approx(FV_N2_REF, rel=1e-12)
    assert res.q_tilde_fv == res.n1_fv - res.n2_fv


def test_mode_sum_matches_brute_force():
    phase = PhasePoint(0.8, 0.6)
    box = BoxSpec(9.0, 6)
    res = mode_sum(phase, box, tail_rel_tol=10.0)
    n1, n2 = brute_force_sum(phase, box)
    assert res.n1_fv == pytest.approx(n1, rel=1e-12)
    assert res.n2_fv == pytest.approx(n2, rel=1e-12)


def test_mode_sum_counts_modes():
    res = mode_sum(PhasePoint(1.0, 0.0), BoxSpec(9.0, 2), tail_rel_tol=1e6)
    # shells 1..4: 6 + 12 + 8 + 6 = 32 lattice vectors
    assert res.modes_used == 32


def test_mode_sum_tail_guard():
    # the error names its operation and its point
    with pytest.raises(TailTooLarge, match=r"^mode_sum at t = 1\.0, "
                       r"mu = 0\.5, L = 50\.0 with cutoff 8: tail bound"):
        mode_sum(PhasePoint(1.0, 0.5), BoxSpec(50.0, 8))


def test_suggest_cutoff_error_names_its_point():
    # at L = 1e8 even cutoff 2^23 leaves modes below k ~ 0.5 out
    with pytest.raises(TailTooLarge, match=r"^suggest_cutoff at t = 1\.0, "
                       r"mu = 0\.5, L = 100000000\.0: no affordable cutoff.*"
                       r"at cutoff 8388608 "):
        suggest_cutoff(PhasePoint(1.0, 0.5), 1e8)


def test_suggested_cutoffs_pass_mode_sum_at_low_temperature():
    # the density scale is capped by a lower bound on the summed
    # densities, so the tail check of mode_sum never rejects the cutoff
    for t in (1e-3, 2e-3, 5e-3, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 5.0):
        for mu in (-0.99, -0.9, 0.0, 0.5, 0.9, 0.99):
            for length in (20.0, 50.0, 100.0, 200.0, 400.0):
                phase = PhasePoint(t, mu)
                box = BoxSpec(length, suggest_cutoff(phase, length))
                res = mode_sum(phase, box)
                assert res.tail_bound <= 1e-4 * (res.n1_fv + res.n2_fv)


def test_density_floor_bounds_the_box_densities():
    rng = np.random.default_rng(11)
    for _ in range(200):
        phase = PhasePoint(10 ** rng.uniform(-3, 2.5), rng.uniform(-1, 1))
        length = 10 ** rng.uniform(0, 3)
        # cutoff 65 takes the split sum, over every n != 0
        res = mode_sum(phase, BoxSpec(length, 65), tail_rel_tol=math.inf)
        assert _density_floor(phase, BoxSpec(length, 65)) <= \
            res.n1_fv + res.n2_fv


@pytest.mark.parametrize("t, mu, lengths, cutoffs", [
    (5.0, 0.9, (50.0, 100.0, 200.0, 400.0), [653, 1304, 2606, 5210]),
    (1.0, -0.9, (50.0, 100.0, 200.0, 400.0), [135, 268, 535, 1068]),
    (0.5, 0.0, (50.0, 100.0, 200.0, 400.0), [67, 132, 262, 522]),
    (1e-3, 1.0, (50.0,), [10])])
def test_suggest_cutoff_keeps_its_values(t, mu, lengths, cutoffs):
    phase = PhasePoint(t, mu)
    assert [suggest_cutoff(phase, length) for length in lengths] == cutoffs


def test_low_temperature_tail_bound_does_not_overflow():
    # e^{mu/t} alone leaves the double range below t ~ 1.4e-3
    phase = PhasePoint(1e-3, 1.0)
    res = mode_sum(phase, BoxSpec(50.0, suggest_cutoff(phase, 50.0)))
    assert 0.0 < res.tail_bound < 1e-4 * (res.n1_fv + res.n2_fv)
    # a cutoff inside the occupied modes: an infinite bound, a typed error
    with pytest.raises(TailTooLarge):
        mode_sum(PhasePoint(1e-3, 0.9), BoxSpec(50.0, 2))


def test_mode_sum_monotone_in_mu():
    box = BoxSpec(12.0, 30)
    qs = [mode_sum(PhasePoint(1.0, mu), box, tail_rel_tol=1.0).q_tilde_fv
          for mu in (-0.5, 0.0, 0.4, 0.8)]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_mode_sum_charge_conjugation():
    box = BoxSpec(12.0, 30)
    plus = mode_sum(PhasePoint(1.0, 0.7), box, tail_rel_tol=1.0)
    minus = mode_sum(PhasePoint(1.0, -0.7), box, tail_rel_tol=1.0)
    assert minus.q_tilde_fv == -plus.q_tilde_fv
    assert minus.n1_fv == plus.n2_fv


def test_thermodynamic_limit_convergence():
    phase = PhasePoint(1.0, 0.5)
    q_exact = thermal_charge_density(phase).q_tilde
    devs = []
    for length in (50.0, 100.0, 200.0):
        cutoff = suggest_cutoff(phase, length)
        res = mode_sum(phase, BoxSpec(length, cutoff))
        devs.append(abs(res.q_tilde_fv - q_exact))
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] / abs(q_exact) < 1e-3


def test_condensate_mode_symmetry():
    n1_0, n2_0, q0 = condensate_mode(0.0, 1.0)
    assert n1_0 == n2_0 == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
    assert q0 == 0.0


def test_condensate_mode_cold_limit():
    # at fixed mu the particle mode freezes into the condensate
    mu = low_t_mu_asymptote(2.0, 0.05)
    n1_0, n2_0, q0 = condensate_mode(mu, 0.05)
    assert q0 == pytest.approx(2.0, abs=1e-10)
    assert n2_0 < 1e-15


def test_condensate_mode_divergence_guard():
    with pytest.raises(DivergentCondensateMode):
        condensate_mode(1.0, 1.0)


def test_condensate_mode_exact_solve_matches_asymptote():
    # invert the two-term zero-mode equation for mu and compare with the
    # low-T closed form; agreement degrades only like t e^{-2/t}
    for t in (0.2, 0.1):
        q0_target = 1.0

        def resid(mu):
            n1_0, n2_0, q0 = condensate_mode(mu, t)
            return q0 - q0_target

        mu_exact = brentq(resid, 0.01, 0.999999, xtol=1e-15)
        mu_asym = low_t_mu_asymptote(q0_target, t)
        assert abs(mu_exact - mu_asym) < 50.0 * t * math.exp(-2.0 / t)
