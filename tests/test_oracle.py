import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import kve

from relbec import (BoxSpec, BudgetExceeded, DivergentCondensateMode,
                    InvalidArgument, NonPositiveTemperature, PhasePoint,
                    TailTooLarge, condensate_mode, low_t_mu_asymptote,
                    mode_sum, suggest_cutoff,
                    thermal_charge_density)
from relbec import oracle
from relbec.limits import zeta_int
from relbec.oracle import (_DIRECT_SHELLS, _MARGIN, _MAX_SHELLS,
                           _boltzmann_head, _cut_bound, _density_floor, _k2e,
                           _lattice_tail, _plan, _shell_counts, _tail_bound)
from relbec.statistics import _bose, _gap

# 20-digit finite-volume reference (t=1, mu=0.5, L=20, |n| <= 15)
FV_N1_REF = 0.13717411487013
FV_N2_REF = 0.043976902989337


def wedge_count(cutoff):
    """Lattice vectors 0 < |n| <= cutoff, counted over the 1/48 wedge with
    one square root per pair y > z >= 1 of the points x > y > z: a
    reference for modes_used and the shell table, independent of both.

    modes = 6 c + 12 Q + 8 (6 D + 3 E + F): 6 c vectors on the axes; Q
    vectors (x, y) with x, y >= 1 in each quarter of the three coordinate
    discs; and, with x, y, z >= 1, F patterns {a, a, a}, E patterns
    {a, a, b} with b != a and D vectors with x > y > z. D sums
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


def explicit_shell_sum(phase, length, c):
    """Bose occupations summed over every lattice vector 0 < |n| <= c in a
    box of side length, one x-slab at a time, without grouping into
    shells."""
    dk = 2.0 * math.pi / length
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
    vol = length ** 3
    return s1 / vol, s2 / vol


def tail_bound_at(phase, length, radius):
    """_tail_bound of the sum truncated at |n| <= radius, which may lie past
    the largest mode_cutoff a BoxSpec takes: the bound reads only the
    box's side and its cutoff."""
    return _tail_bound(phase, SimpleNamespace(box_length=length,
                                              mode_cutoff=radius))


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
    """A cutoff search independent of suggest_cutoff's: double from 2 until
    the tail bound meets the limit, then bisect. None where the doubling
    passes 64, the largest cutoff of a direct box."""
    t = phase.t
    scale = min(2.0 * zeta_int(3) * t ** 3 / math.pi ** 2,
                9.0 * _density_floor(phase, BoxSpec(length, 2)))
    lo, hi = 1, 2
    while _tail_bound(phase, BoxSpec(length, hi)) > tol * scale:
        lo, hi = hi, hi * 2
        if hi > 64:
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
    split = 0
    for t, mu, length, tol in seeded + extreme:
        phase = PhasePoint(t, mu)
        reference = doubling_cutoff(phase, length, tol)
        # where no cutoff up to 64 will do, the split box's 65
        if reference is None:
            reference = 65
        cutoff = suggest_cutoff(phase, length, tol)
        assert cutoff == reference
        if cutoff == 65:
            split += 1
            continue
        limit = tol * min(2.0 * zeta_int(3) * t ** 3 / math.pi ** 2,
                          9.0 * _density_floor(phase, BoxSpec(length, 2)))
        assert cutoff >= 2
        assert _tail_bound(phase, BoxSpec(length, cutoff)) <= limit
        if cutoff > 2:
            assert _tail_bound(phase, BoxSpec(length, cutoff - 1)) > limit
    assert 50 < split < len(seeded)


def test_suggest_cutoff_takes_few_bound_evaluations(monkeypatch):
    # one probe at 64, then a bisection of the cutoffs 2 to 64
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
    assert max(counts) <= 7
    assert min(counts) == 1


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
    # n1_fv); a negative one rejected every cutoff
    with pytest.raises(InvalidArgument,
                       match=r"^(mode_sum|suggest_cutoff) at t = 1\.0, "
                             r"mu = 0\.5, L = 50\.0: tail_rel_tol must be "
                             r">= 0"):
        call(tol)


def test_zero_and_infinite_tail_tolerance_are_accepted():
    # 0 asks for a tail bound of exactly 0, met where the bound underflows,
    # at a cutoff up to 64 in a small box and by the split sum in a large
    # one; inf waives the check
    phase = PhasePoint(1.0, 0.5)
    cutoff = suggest_cutoff(phase, 0.5, 0.0)
    assert cutoff <= 64
    assert _tail_bound(phase, BoxSpec(0.5, cutoff)) == 0.0
    assert _tail_bound(phase, BoxSpec(0.5, cutoff - 1)) > 0.0
    assert suggest_cutoff(phase, 50.0, 0.0) == 65
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
    shared one pass. Also the head's weights and their head part."""
    energy = gap + (1.0 - s)
    rest = _bose(energy / t) * np.exp(-len(head) / t * energy)
    weights = np.exp(-(1.0 - s) / t * np.arange(1, len(head) + 1))
    head_part = float(np.add.reduce(weights * head))
    return (head_part + float(np.add.reduce(counts * rest)) / vol, weights,
            head_part)


def per_sign_mode_sum(phase, box):
    """(n1_fv, n2_fv, q_tilde_fv, tail_bound) with per_sign_density at +mu
    and -mu on mode_sum's plan, shells and head; the tail bound of the
    cutoff for a direct box, of the two margins for a split one."""
    t, mu, length = phase.t, phase.mu, box.box_length
    j_max, m_direct, m_wind = _plan(phase, box)
    shells = _shell_counts(max(m_direct, m_wind))
    head = _boltzmann_head(t, length, j_max, shells[:m_wind + 1])
    k = 2.0 * math.pi / length * np.sqrt(np.arange(1, m_direct + 1,
                                                   dtype=float))
    gap = _gap(k * k)
    counts = shells[1:m_direct + 1].copy()
    (n1, w1, h1), (n2, w2, h2) = (
        per_sign_density(s, t, length ** 3, head, gap, counts)
        for s in (mu, -mu))
    if box.mode_cutoff ** 2 <= _DIRECT_SHELLS:
        tail = _tail_bound(phase, box)
    else:
        tail = _cut_bound(phase, length, (j_max, m_direct, m_wind),
                          [w1, w2], [h1, h2])
    return n1, n2, n1 - n2, tail


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
        cutoff = 65
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
    phase, box = PhasePoint(1.0, 0.5), BoxSpec(9e4, 65)
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
    # a box whose tail past |n| = 79 is not negligible: the split sum takes
    # every mode, the explicit sum stops at 79, and the tail bound there
    # bounds the modes between
    phase, length = PhasePoint(1.0, 0.5), 20.0
    res = mode_sum(phase, BoxSpec(length, 65))
    truncated = explicit_shell_sum(phase, length, 79)
    for split, trunc in zip((res.n1_fv, res.n2_fv), truncated):
        assert 0.0 < split - trunc <= tail_bound_at(phase, length, 79)


@pytest.mark.parametrize("t, mu, length, radius", [
    (1.0, 1.0, 10.0, 75), (0.5, -1.0, 20.0, 75), (2.0, -0.4, 6.0, 89),
    (0.8, 0.95, 15.0, 90)])
def test_split_sum_matches_explicit_shell_sum(t, mu, length, radius):
    phase = PhasePoint(t, mu)
    res = mode_sum(phase, BoxSpec(length, 65))
    # the tail beyond the radius is below 1e-16 of the densities
    assert (tail_bound_at(phase, length, radius)
            <= 1e-16 * (res.n1_fv + res.n2_fv))
    n1, n2 = explicit_shell_sum(phase, length, radius)
    assert res.n1_fv == pytest.approx(n1, rel=1e-12)
    assert res.n2_fv == pytest.approx(n2, rel=1e-12)
    assert res.q_tilde_fv == res.n1_fv - res.n2_fv


def test_split_sum_odd_in_mu():
    box = BoxSpec(40.0, 65)
    for mu in (0.37, 0.9, 1.0):
        plus = mode_sum(PhasePoint(2.0, mu), box)
        minus = mode_sum(PhasePoint(2.0, -mu), box)
        assert minus.q_tilde_fv == -plus.q_tilde_fv
        assert (minus.n1_fv, minus.n2_fv) == (plus.n2_fv, plus.n1_fv)


def seeded_split_boxes(seed, count):
    """count seeded boxes whose suggested cutoff is 65, (phase, L) with
    t = 10^U(-1.3, 1.7), mu = U(-1, 1) (1 - 1e-9) and L = 10^U(0, 3.5)."""
    rng = np.random.default_rng(seed)
    boxes = []
    while len(boxes) < count:
        phase = PhasePoint(10 ** rng.uniform(-1.3, 1.7),
                           rng.uniform(-1.0, 1.0) * (1.0 - 1e-9))
        length = 10 ** rng.uniform(0.0, 3.5)
        if suggest_cutoff(phase, length) == 65:
            boxes.append((phase, length))
    return boxes


def test_split_tail_bound_bounds_what_the_margins_leave_out(monkeypatch):
    # against the sum at twice the margin; at margin 8 the cuts move the
    # densities in most boxes, at 40 in few. The bound is on the modes left
    # out, not on the rounding of the sum: two dot products over different
    # shells may differ in their last bit, so 2 ulp are allowed
    checked = moved = 0
    for phase, length in seeded_split_boxes(2627, 320):
        box = BoxSpec(length, 65)
        monkeypatch.setattr(oracle, "_MARGIN", 80.0)
        try:
            wide = mode_sum(phase, box)
        except BudgetExceeded:
            continue
        for margin in (8.0, _MARGIN):
            monkeypatch.setattr(oracle, "_MARGIN", margin)
            res = mode_sum(phase, box, tail_rel_tol=math.inf)
            for narrow, full in ((res.n1_fv, wide.n1_fv),
                                 (res.n2_fv, wide.n2_fv)):
                assert abs(narrow - full) <= (res.tail_bound
                                              + 2.0 * math.ulp(narrow)), (
                    phase, length, margin)
                moved += narrow != full
        checked += 1
    assert checked >= 300 and moved > 100


def test_split_tail_bound_is_negligible_on_the_bench_boxes():
    for t in (0.5, 1.0, 5.0):
        for mu in (-0.9, 0.0, 0.9):
            for length in (50.0, 100.0, 200.0):
                phase = PhasePoint(t, mu)
                res = mode_sum(phase, BoxSpec(length,
                                              suggest_cutoff(phase, length)))
                assert 0.0 < res.tail_bound <= 1e-12 * (res.n1_fv + res.n2_fv)


def test_lattice_tail_bounds_the_lattice_sum():
    # sum over |n| >= R of e^{-b (|n| - R)}, one x-slab at a time over a
    # cube that holds each term above e^{-30}
    for m in (0, 1, 4, 24, 99):
        radius = math.sqrt(m + 1.0)
        for rate in (0.5, 1.0, 5.0, 30.0):
            half = int(radius + 30.0 / rate) + 2
            axis = np.arange(-half, half + 1.0) ** 2
            yz = (axis[:, None] + axis[None, :]).ravel()
            total = 0.0
            for x2 in axis:
                lengths = np.sqrt(yz[x2 + yz > m] + x2)
                total += np.exp(-rate * (lengths - radius)).sum()
            assert total <= _lattice_tail(radius, rate), (m, rate)


def test_box_with_t_l_1e5_sums_within_the_budgets():
    phase, length = PhasePoint(5.0, 0.9), 2e4
    res = mode_sum(phase, BoxSpec(length, suggest_cutoff(phase, length)))
    q_quad = thermal_charge_density(phase).q_tilde
    assert abs(res.q_tilde_fv - q_quad) <= 1e-10 * abs(q_quad)


def test_modes_used_matches_independent_count():
    # one isqrt per lattice line along z, on both sides of the direct
    # boxes' range
    for cutoff in (1, 2, 7, 64, 65):
        c2 = cutoff * cutoff
        count = sum(2 * math.isqrt(c2 - x * x - y * y) + 1
                    for x in range(-cutoff, cutoff + 1)
                    for y in range(-cutoff, cutoff + 1)
                    if x * x + y * y <= c2) - 1
        res = mode_sum(PhasePoint(5.0, 0.3), BoxSpec(50.0, cutoff),
                       tail_rel_tol=math.inf)
        assert res.modes_used == count


def test_lattice_points_matches_shell_counts_for_every_cutoff():
    # the lattice points 0 < |n| <= c enclosed by the shell table, against
    # modes_used of every box; the split box's is a constant
    enclosed = np.cumsum(_shell_counts(65 ** 2))
    assert enclosed[65 ** 2] - 1 == 1149650
    for cutoff in range(1, 66):
        res = mode_sum(PhasePoint(1.0, 0.5), BoxSpec(20.0, cutoff),
                       tail_rel_tol=math.inf)
        assert res.modes_used == enclosed[cutoff * cutoff] - 1, cutoff


def test_lattice_points_matches_wedge_count_up_to_600():
    # modes_used of every direct box and of the split box, and the shell
    # table's enclosed counts out to |n| = 600, past the 447 of a table at
    # the shell budget
    for cutoff in range(1, 66):
        res = mode_sum(PhasePoint(1.0, 0.5), BoxSpec(20.0, cutoff),
                       tail_rel_tol=math.inf)
        assert res.modes_used == wedge_count(cutoff), cutoff
    assert wedge_count(65) == 1149650
    enclosed = np.cumsum(_shell_counts(600 ** 2))
    for cutoff in range(1, 601):
        assert enclosed[cutoff * cutoff] - 1 == wedge_count(cutoff), cutoff


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
    # 65, the split box, is the largest cutoff
    phase = PhasePoint(5.0, 0.5)
    assert suggest_cutoff(phase, 2300.0) == 65
    assert mode_sum(phase, BoxSpec(2300.0, 65)).modes_used == 1149650
    # one above it fails before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgument, match="^mode_cutoff must be an "
                           "integer from 1 to 65, got 66$"):
            mode_sum(phase, BoxSpec(2300.0, 66))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("t, length", [
    (1e4, 1000.0),   # too many Boltzmann terms
    (50.0, 0.05)])   # too many winding shells
def test_mode_sum_over_budget_raises_before_allocating(t, length):
    # the error names its operation and its point
    match = "^" + re.escape(f"mode_sum at t = {t}, mu = 0.5, L = {length} "
                            f"with cutoff 65: needs J = ")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=match):
            mode_sum(PhasePoint(t, 0.5), BoxSpec(length, 65))
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


def test_tail_guard_names_what_would_help():
    # a direct box over its tolerance is mended by a larger cutoff; a
    # split box sums every mode, and only a looser tail_rel_tol passes
    with pytest.raises(TailTooLarge, match="; raise mode_cutoff$"):
        mode_sum(PhasePoint(1.0, 0.5), BoxSpec(50.0, 8))
    with pytest.raises(TailTooLarge, match="; raise tail_rel_tol$"):
        mode_sum(PhasePoint(1.0, 1.0), BoxSpec(10.0, 65), tail_rel_tol=1e-16)
    assert mode_sum(PhasePoint(1.0, 1.0), BoxSpec(10.0, 65),
                    tail_rel_tol=1e-14).tail_bound > 0.0


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
    (5.0, 0.9, (50.0, 100.0, 200.0, 400.0), [65, 65, 65, 65]),
    (1.0, -0.9, (5.0, 10.0, 20.0, 40.0), [15, 28, 55, 65]),
    (0.5, 0.0, (5.0, 10.0, 20.0, 40.0), [8, 15, 28, 54]),
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


def test_condensate_mode_occupation_past_the_doubles():
    # n2_0 ~ t/(1 + mu) ~ 9e315 was inf
    with pytest.raises(InvalidArgument, match=r"^condensate_mode at "
                       r"mu = -0\.9999999999999999, t = 1e\+300: "):
        condensate_mode(-(1.0 - 1e-16), 1e300)
    n1_0, n2_0, q0 = condensate_mode(0.5, 1e300)
    assert n1_0 == pytest.approx(2e300, rel=1e-15)
    assert n2_0 == pytest.approx(2e300 / 3.0, rel=1e-15)
    assert q0 == pytest.approx(4e300 / 3.0, rel=1e-15)


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
