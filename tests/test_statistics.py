import math
import re
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relbec import (InvalidArgument, PhasePoint, charge_integrand,
                    momentum_profile, quadrature, statistics)
from relbec.quadrature import _weighted_occupations
from relbec.statistics import _TINY, _bose, _gap, _momentum_occupations, _shift

# high-precision scalar evaluation of k^2 [n1(k) - n2(k)] at
# k = 1, t = 1, mu = 0.5 (frozen from a 30-digit evaluation)
CI_REF = 0.496017838297


def test_gap_condensation_point():
    # omega = gap + 1 - mu vanishes at k = 0, mu = 1; omega_bar = 2
    assert _gap(0.0) + (1.0 - 1.0) == 0.0
    assert _gap(0.0) + (1.0 + 1.0) == 2.0


def test_gap_symmetric_at_zero_mu():
    assert _gap(0.0) + 1.0 == 1.0


def test_gap_exact_sqrt():
    # k = sqrt(3): sqrt(k^2 + 1) - 1 = 1, so omega = 1.5, omega_bar = 2.5
    k = math.sqrt(3.0)
    gap = _gap(k * k)
    assert gap + (1.0 - 0.5) == pytest.approx(1.5, abs=1e-14)
    assert gap + (1.0 + 0.5) == pytest.approx(2.5, abs=1e-14)


def test_gap_without_cancellation():
    # sqrt(k^2 + 1) - 1 would round to 0 here; the gap keeps k^2/2
    assert _gap(1e-20) == 5e-21
    ksq = np.array([0.0, 1e-20, 3.0, 1e6])
    np.testing.assert_array_equal(_gap(ksq), [_gap(v) for v in ksq])


@given(k=st.floats(0.0, 50.0), mu=st.floats(-1.0, 1.0))
def test_dispersion_identity(k, mu):
    omega = _gap(k * k) + (1.0 - mu)
    omega_bar = _gap(k * k) + (1.0 + mu)
    assert omega * omega_bar == pytest.approx(k * k + 1.0 - mu * mu,
                                              rel=1e-12, abs=1e-12)
    assert omega + omega_bar == pytest.approx(2.0 * math.sqrt(k * k + 1.0),
                                              rel=1e-13)


def test_occupation_log2():
    x = np.array([2.0 * math.log(2.0)]) / 2.0
    assert _bose(x)[0] == pytest.approx(1.0, rel=1e-14)


def test_occupation_unit_energy():
    assert _bose(np.array([1.0]))[0] == pytest.approx(1.0 / (math.e - 1.0),
                                                      rel=1e-14)


def test_occupation_tiny_energy_series():
    # e^{-x}/(-expm1(-x)) keeps full precision as x -> 0 with no series:
    # at x = 3e-9 it is the same double as the Laurent series
    # 1/x - 1/2 + x/12
    assert _bose(np.array([1e-12]))[0] == pytest.approx(1e12 - 0.5,
                                                        rel=1e-12)
    x = 3e-9
    assert _bose(np.array([x]))[0] == 1.0 / x - 0.5 + x / 12.0


def test_occupation_huge_exponent():
    assert _bose(np.array([800.0]))[0] == math.exp(-800.0)


def test_occupation_writes_in_place():
    # x = 0 -> inf, tiny, moderate and large exponents, on a 2-d array
    x = np.array([[0.0, 1e-12, 1.0], [30.0, 650.0, 720.0]])
    out = _bose(x)
    expected = [[math.inf, 1e12 - 0.5, 1.0 / math.expm1(1.0)],
                [1.0 / math.expm1(30.0), 1.0 / math.expm1(650.0),
                 math.exp(-720.0)]]
    np.testing.assert_allclose(out, expected, rtol=1e-14)


def test_occupation_all_above_overflow():
    # exponents beyond the overflow of e^x, down to subnormal and zero
    # results: the same doubles as where the array also holds small ones
    x = np.array([[700.5, 720.0, 745.0], [746.0, 2000.0, 1e6]])
    out = _bose(x)
    mixed = _bose(np.append(x.ravel(), 1.0))
    np.testing.assert_array_equal(out.ravel(), mixed[:-1])
    assert out[0, 2] > 0.0 and out[1, 2] == 0.0


# Largest distance in ulp of _bose from the exact occupation where that is
# a normal double: 2, measured on 100000 log-uniform x with numpy's
# AVX-512, AVX2 and baseline exp/expm1 loops
OCCUPATION_ULP = 2


def test_occupation_matches_mpmath():
    # seeded x over [5e-324, 1e3] plus the edges where a naive form fails:
    # e^x - 1 loses digits below 1e-8, e^x nears overflow from 700, the
    # results are subnormal from 708 to 745 and 0.0 from 746
    rng = np.random.default_rng(2002)
    x = np.concatenate([
        [0.0, 5e-324, 1e-8, math.nextafter(1e-8, 0.0), 700.0, 746.0,
         2000.0],
        np.arange(708.0, 746.0), rng.uniform(708.0, 746.0, 100),
        np.exp(rng.uniform(math.log(5e-324), math.log(1e3), 4000))])
    got = _bose(x)
    assert got[0] == math.inf
    bits = got.view(np.int64)
    smallest = mpmath.mpf(2) ** -1074
    with mpmath.workdps(40):
        for xi, g, gbits in zip(x[1:].tolist(), got[1:].tolist(),
                                bits[1:].tolist()):
            exact = 1 / mpmath.expm1(mpmath.mpf(xi))
            ref = float(exact)
            if exact < smallest / 2:
                assert g == 0.0, xi
            elif ref == math.inf:
                assert g == math.inf, xi
            elif ref >= _TINY:
                ulps = abs(gbits - int(np.float64(ref).view(np.int64)))
                assert ulps <= OCCUPATION_ULP, (xi, g, ref)
            else:  # subnormal: within one unit of the smallest subnormal
                assert abs(g - ref) <= 5e-324, (xi, g, ref)


def test_charge_integrand_vanishes_at_zero_mu():
    assert charge_integrand(1.0, PhasePoint(1.0, 0.0)) == 0.0


def test_charge_integrand_reference_point():
    assert charge_integrand(1.0, PhasePoint(1.0, 0.5)) == pytest.approx(
        CI_REF, rel=1e-11)


def test_charge_integrand_limit_at_condensation_point():
    # k^2 n1(k) -> 2t as k -> 0 when mu = 1; confirmed by extrapolation
    f = PhasePoint(0.5, 1.0)
    at_zero = charge_integrand(0.0, f)
    assert at_zero == 2.0 * f.t
    v3 = charge_integrand(1e-3, f)
    v4 = charge_integrand(1e-4, f)
    # Richardson in k^2: limit = v4 + (v4 - v3) * h4/(h3 - h4)
    extrap = v4 + (v4 - v3) * 1e-8 / (1e-6 - 1e-8)
    assert extrap == pytest.approx(at_zero, rel=1e-6)


@pytest.mark.parametrize("k, named", [
    (1e200, "1e+200"), (-1e200, "-1e+200"), (math.inf, "inf"),
    (math.nan, "nan"), (np.array([1.0, 2e154, 3.0]), "2e+154"),
    (np.array([[0.5], [-math.inf]]), "-inf")])
def test_charge_integrand_rejects_momenta_without_finite_square(k, named):
    # k^2 overflowed (a RuntimeWarning) or was nan, and the integrand nan
    message = f"k^2 must be a finite double, got k = {named}"
    with pytest.raises(InvalidArgument, match=re.escape(message) + "$"):
        charge_integrand(k, PhasePoint(1.0, 0.5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_charge_integrand_at_the_largest_squarable_momenta():
    for k in (1.3e154, -1.3e154, statistics._MAX_K):
        assert math.isfinite(charge_integrand(k, PhasePoint(1.0, 0.5)))
    above = math.nextafter(statistics._MAX_K, math.inf)
    assert math.isinf(above * above)
    with pytest.raises(InvalidArgument):
        charge_integrand(above, PhasePoint(1.0, 0.5))
    values = charge_integrand(np.array([0.0, 1.0, 1.3e154]),
                              PhasePoint(1.0, 0.5))
    assert np.isfinite(values).all()


@pytest.mark.parametrize("mu", [1.0, -1.0])
@pytest.mark.parametrize("k", [2.77e-295, 1e-155, 5e-324])
def test_charge_integrand_gapless_underflow(k, mu):
    # k^2 (or the gap k^2/(E + 1)) underflows while the occupation is
    # infinite: the integrand still takes its limit +-2t
    t = 1.0
    assert charge_integrand(k, PhasePoint(t, mu)) == pytest.approx(
        math.copysign(2.0 * t, mu), rel=1e-12)


@pytest.mark.parametrize("mu", [0.5, 1.0, -1.0])
def test_public_kernel_callers_at_subnormal_temperature(mu):
    # the exponents (gap + 1 -+ mu)/t overflow to inf, a RuntimeWarning
    # unless silenced: every occupation is 0.0 but k^2 n_> -> 2t as k -> 0
    # at |mu| = 1
    t = 1e-310
    limit = 2.0 * t if abs(mu) == 1.0 else 0.0
    assert charge_integrand(1e-160, PhasePoint(t, mu)) == pytest.approx(
        math.copysign(limit, mu), rel=1e-10, abs=0.0)
    prof = momentum_profile(PhasePoint(t, mu), 1.0, 4)
    near, far = ((prof.n1_of_k, prof.n2_of_k) if mu > 0.0
                 else (prof.n2_of_k, prof.n1_of_k))
    np.testing.assert_array_equal(near, [limit, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(far, 0.0)


@pytest.mark.parametrize("t", [1e-9, 1.0, 1e6])
def test_weighted_occupations_gapless_underflow(t):
    # the momentum front end, at momenta whose gap underflows
    k = np.array([0.0, 5e-324, 2.77e-295, 1e-155, 1e-3, 1.0, 30.0])
    rows = _momentum_occupations(k, PhasePoint(t, 1.0))
    assert rows.shape == (3, len(k))
    assert np.all(np.isfinite(rows))
    np.testing.assert_allclose(rows[0, :4], 2.0 * t, rtol=1e-12)
    np.testing.assert_allclose(rows[2], rows[0] - rows[1], rtol=1e-12,
                               atol=1e-300)
    mirror = _momentum_occupations(k, PhasePoint(t, -1.0))
    np.testing.assert_array_equal(mirror[0], rows[1])
    np.testing.assert_array_equal(mirror[1], rows[0])
    np.testing.assert_array_equal(mirror[2], -rows[2])


def eos_nodes():
    """The nodes of thermal_charge_density's level-0 pass in v, the same
    at every (t, mu), and those of its panels bisected once."""
    a, b = quadrature._EDGES[:-1], quadrature._EDGES[1:]
    mid = (a + b) / 2.0
    bisected = quadrature._layout(np.concatenate([a, mid]),
                                  np.concatenate([mid, b]))[1]
    return np.concatenate([quadrature._LEVEL0_NODES, bisected])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weighted_occupations_keep_one_sign():
    # the occupations are positive where |mu| <= 1, so the kernel's rows
    # keep one sign on the pass's own nodes: w n1, w n2 >= 0 and
    # w (n1 - n2) of the sign of mu, at every t the EOS accepts; their
    # factors are in [0, 1], the difference row's that of the near branch
    rng = np.random.default_rng(1717)
    ts = [1e-12, quadrature._MAX_T] + (10.0 ** rng.uniform(
        -12.0, math.log10(quadrature._MAX_T), 2000)).tolist()
    fixed = [1.0, -1.0, 0.0, -0.0, 1.0 - 1e-16, -(1.0 - 1e-16)]
    v = eos_nodes()
    for t in ts:
        for mu in fixed + rng.uniform(-1.0, 1.0, 6).tolist():
            rows, factors = _weighted_occupations(v, PhasePoint(t, mu))
            assert np.isfinite(rows).all(), (t, mu)
            assert (rows[:2] >= 0.0).all(), (t, mu)
            assert (rows[2] * math.copysign(1.0, mu) >= 0.0).all(), (t, mu)
            assert len(factors) == 3 and all(0.0 <= x <= 1.0 for x in factors)
            near = 0 if mu >= 0.0 else 1
            assert factors[2] == factors[near] >= factors[1 - near], (t, mu)
            if mu == 0.0:
                assert not rows[2].any(), t


# Largest error of a row of the EOS kernel against the exact factor-free
# row w e^{-v^2}/(1 - e^{-x}) (and the difference row's), in units of
# (1 + v^2) eps |exact|: 3.5 on 32400 samples of 6 seeds drawn as below
# (4.1 on the earlier draws, with the factors in the rows), with numpy's
# AVX-512 loops. Both branches shift the one row -v^2 by a
# corrected scalar, so neither carries the rounding of its exponent
# x = v^2 + (1 -+ mu)/t, only that of v^2.
V_ROW_ERROR = 6.0
# The same for the momentum front end, in units of (1 + x_>) eps |exact|,
# x_> the exponent of the smaller gap: 2.4 on the same samples. The far
# branch, x_< = x_> + 2|mu|/t, is derived from the near one and carries
# the rounding of x_>, not that of x_< (up to 600 of these units).
ROW_ERROR = 4.0
# Largest error of the EOS kernel's factors e^{-a} and e^{-a} e^{-d}
# against the exact ones, in units of eps |exact|, plus one subnormal
# spacing: 1.15 on the same draws, and within one spacing where subnormal
FACTOR_ERROR = 3.0


def assert_rows_match_mpmath(front):
    """The rows of the EOS kernel (front "v"), or of the momentum front
    end at the momenta of the same nodes (front "k"), against 40-digit
    values at seeded (t, mu): of the first 150 points two thirds at t in
    [1e-3, 1e-2] near |mu| = 1, where the far branch's exponent is 200 to
    2000, and 30 more with (1 - |mu|)/t in [600, 746], where e^{-a} is
    tiny or subnormal. The EOS rows leave their factors out: every one is
    a normal double, held to the bound at every node, and the factors are
    checked on their own. The momentum rows carry them, and a subnormal
    row keeps too few bits for a relative bound."""
    rng = np.random.default_rng(2121)
    nodes = eos_nodes()
    eps = np.finfo(float).eps
    far_checked = band_checked = 0
    floor = 0.0 if front == "v" else _TINY
    with mpmath.workdps(40):
        for i in range(180):
            if i >= 150:
                t = float(10.0 ** rng.uniform(-4.0, -2.9))
                mu = float(rng.choice([-1.0, 1.0])
                           * (1.0 - rng.uniform(600.0, 746.0) * t))
            elif i % 3:
                t = float(10.0 ** rng.uniform(-3.0, -2.0))
                mu = float(rng.choice([-1.0, 1.0])
                           * (1.0 - 10.0 ** rng.uniform(-8.0, -1.0)))
            else:
                t = float(10.0 ** rng.uniform(-3.0, 3.0))
                mu = float(rng.uniform(-1.0, 1.0))
            v = rng.choice(nodes, 10, replace=False)
            k = np.sqrt(v * v * t * (v * v * t + 2.0))
            a = (1 - abs(mpmath.mpf(mu))) / t
            d = 2 * abs(mpmath.mpf(mu)) / t
            if front == "v":
                rows, factors = _weighted_occupations(v, PhasePoint(t, mu))
                exact = [mpmath.exp(-a), mpmath.exp(-a - d), mpmath.exp(-a)]
                if mu < 0.0:
                    exact[:2] = exact[1::-1]
                for got, e in zip(factors, exact):
                    assert abs(got - e) <= FACTOR_ERROR * eps * e + 5e-324, (
                        t, mu)
            else:
                rows = _momentum_occupations(k, PhasePoint(t, mu))
            far = 1 if mu >= 0.0 else 0
            for vj, kj, got in zip(v.tolist(), k.tolist(), rows.T.tolist()):
                if front == "v":
                    ysq = mpmath.mpf(vj) ** 2
                    g = ysq * t
                    p = 2 * ysq * (g + 1) * mpmath.sqrt(g + 2) / (
                        mpmath.mpf(t) + 2) ** 1.5 * mpmath.exp(-ysq)
                    x1, x2 = ysq + (1 - mpmath.mpf(mu)) / t, ysq + (
                        1 + mpmath.mpf(mu)) / t
                    d1, d2 = -mpmath.expm1(-x1), -mpmath.expm1(-x2)
                    exact = (p / d1, p / d2, mpmath.sign(mu) * p
                             * -mpmath.expm1(-d) / (d1 * d2))
                    bound = V_ROW_ERROR * (1 + ysq) * eps
                else:
                    w = mpmath.mpf(kj) ** 2
                    energy = mpmath.sqrt(w + 1)
                    x1, x2 = (energy - mu) / t, (energy + mu) / t
                    bound = ROW_ERROR * (1 + min(x1, x2)) * eps
                    n1, n2 = 1 / mpmath.expm1(x1), 1 / mpmath.expm1(x2)
                    exact = (w * n1, w * n2, w * (n1 - n2))
                for row, (g, e) in enumerate(zip(got, exact)):
                    if abs(e) >= floor:
                        assert abs(g - e) <= bound * abs(e), (t, mu, vj, row)
                        far_checked += row == far and max(x1, x2) > 200
                        band_checked += i >= 150
    assert far_checked > 500
    assert band_checked > (800 if front == "v" else 0)


def test_weighted_occupations_match_mpmath():
    assert_rows_match_mpmath("v")


def test_momentum_occupations_match_mpmath():
    assert_rows_match_mpmath("k")


def shift_draws(n, seed):
    """Seeded (p, q, t) of the shifts the kernel takes: 2|mu| with q = 0,
    and 1 -+ |mu| as an exact two-term sum, at t = 10^U(-2, 3) and |mu|
    uniform, within 10^U(-16, -1) of 1, or 10^U(-320, -1)."""
    rng = np.random.default_rng(seed)
    ts = 10.0 ** rng.uniform(-2.0, 3.0, n)
    kinds = rng.integers(0, 3, n)
    spread = rng.integers(0, 3, n)
    mus = np.where(spread == 0, rng.uniform(0.0, 1.0, n),
                   np.where(spread == 1, 1.0 - 10.0 ** rng.uniform(-16, -1, n),
                            10.0 ** rng.uniform(-320.0, -1.0, n)))
    for t, m, kind in zip(ts.tolist(), mus.tolist(), kinds.tolist()):
        if kind == 0:
            yield 2.0 * m, 0.0, t
        elif kind == 1:
            p = 1.0 - m
            yield p, 1.0 - p - m, t
        else:
            p = 1.0 + m
            yield p, 1.0 - p + m, t


def test_shift_residual_is_the_exact_one():
    # the corrected pair is the one from the exact rational residual
    # (p + q)/t - p/t, rounded once, on every draw: the two-product's
    # remainder is exact, down to numerators of 1e-320
    checked = 0
    for p, q, t in shift_draws(100_000, 1616):
        a = p / t
        e, m = math.exp(-a), math.expm1(-a)
        if not e:
            continue
        r = e * float((Fraction(p) + Fraction(q)) / Fraction(t)
                      - Fraction(a))
        assert _shift(p, q, t) == (e - r, m - r), (p, q, t)
        checked += 1
    assert checked > 99_000


def test_shift_past_the_split_drops_the_residual():
    # t * (2^27 + 1) overflows past ~1.3e300, where e^{-a} is 1.0 to the
    # double: the plain pair, without an overflow
    for t in (statistics._SPLIT_MAX, 1e301, sys.float_info.max):
        for p in (2.0, 1.0 - 0.3, 0.0):
            assert _shift(p, 0.0, t) == (math.exp(-p / t), math.expm1(-p / t))
    below = math.nextafter(statistics._SPLIT_MAX, 0.0)
    assert math.isfinite(below * statistics._SPLIT)
    assert all(math.isfinite(x) for x in _shift(2.0, 0.0, below))


def test_cube_root_of_four_is_the_nearest_double():
    # b = 2^{2/3}/(t + 2) of the EOS weight
    with mpmath.workdps(40):
        exact = mpmath.cbrt(4)
        assert quadrature._CBRT_4 == float(exact)
        assert abs(quadrature._CBRT_4 - exact) <= math.ulp(1.5) / 2


@settings(max_examples=200)
@given(k=st.floats(0.0, 30.0), t=st.floats(0.05, 20.0),
       mu=st.floats(0.0, 1.0))
def test_charge_integrand_antisymmetric_in_mu(k, t, mu):
    plus = charge_integrand(k, PhasePoint(t, mu))
    minus = charge_integrand(k, PhasePoint(t, -mu))
    assert minus == pytest.approx(-plus, rel=1e-13, abs=1e-300)


@given(k=st.floats(0.01, 20.0), t=st.floats(0.1, 10.0),
       mu=st.floats(-0.99, 0.97))
def test_charge_integrand_monotone_in_mu(k, t, mu):
    lo = charge_integrand(k, PhasePoint(t, mu))
    hi = charge_integrand(k, PhasePoint(t, mu + 0.02))
    assert hi > lo


@settings(max_examples=200)
@given(k=st.floats(0.0, 30.0), t=st.floats(0.05, 10.0),
       mu=st.floats(0.01, 1.0))
# k^2 is subnormal here: the rows are the correctly rounded 2.9781e-319
# and 1.5e-323, whose ratio 5.0e-5 is above the bound 4.54e-5
@example(k=9.866775989168195e-157, t=0.05, mu=0.25)
def test_pointwise_ratio_bound(k, t, mu):
    # n2/n1 = occ(omega_bar)/occ(omega) <= e^{-2 mu / t}
    n1, n2, _ = _momentum_occupations(np.array([k]), PhasePoint(t, mu))[:, 0]
    if n1 == 0.0:  # k^2 = 0: both rows vanish
        return
    if n2 < _TINY:
        # a subnormal k^2 n2 keeps too few bits for a relative bound
        assert 0.0 <= n2 <= n1
    else:
        assert n2 / n1 <= math.exp(-2.0 * mu / t) * (1.0 + 1e-12)


def test_momentum_profile_symmetric_at_zero_mu():
    prof = momentum_profile(PhasePoint(1.0, 0.0), 10.0, 64)
    np.testing.assert_array_equal(prof.n1_of_k, prof.n2_of_k)


def test_momentum_profile_particles_dominate():
    # mu solving q/m^3 = 0.1 at t = 1.5 (frozen from the EOS inversion)
    prof = momentum_profile(PhasePoint(1.5, 0.185192516853), 10.0, 256)
    inner = slice(1, None)
    assert np.all(prof.n1_of_k[inner] > prof.n2_of_k[inner])
    # both curves peak at intermediate momentum
    for curve in (prof.n1_of_k, prof.n2_of_k):
        peak = int(np.argmax(curve))
        assert 0 < peak < len(curve) - 1


def test_momentum_profile_ratio_grows_with_temperature():
    # same q = 0.1, hotter gas: antiparticle fraction larger at every k
    cold = momentum_profile(PhasePoint(1.0, 0.467493666505), 8.0, 128)
    hot = momentum_profile(PhasePoint(2.0, 0.0960086659727), 8.0, 128)
    inner = slice(1, None)
    assert np.all(hot.n2_of_k[inner] / hot.n1_of_k[inner]
                  > cold.n2_of_k[inner] / cold.n1_of_k[inner])


def test_momentum_profile_validation():
    with pytest.raises(ValueError):
        momentum_profile(PhasePoint(1.0, 0.0), -1.0, 16)
    with pytest.raises(ValueError):
        momentum_profile(PhasePoint(1.0, 0.0), 1.0, 1)


@pytest.mark.parametrize("k_max", [math.inf, math.nan, 1e200])
def test_momentum_profile_rejects_k_max_without_finite_square(k_max):
    # k_max^2 = inf would give nan rows
    with pytest.raises(InvalidArgument, match="k_max must be"):
        momentum_profile(PhasePoint(1.0, 0.1), k_max, 3)


@pytest.mark.parametrize("mu", [0.0, 0.5, -0.5, 1.0, -1.0])
def test_momentum_profile_rejects_rows_past_the_doubles(mu):
    # every row is at most t (E + 1) at k_max; at t = 1e200, k_max = 1e150
    # that is ~1e350, where the rows were inf, or a warning at mu = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgument, match=r"^momentum_profile at "
                           r"t = 1e\+200, mu = .*, k_max = 1e\+150: "):
            momentum_profile(PhasePoint(1e200, mu), 1e150, 3)


def test_momentum_profile_is_finite_or_an_error_up_to_the_largest_double():
    # below |mu| = 1 every row is 0.0 at k = 0: the 2t limit of |mu| = 1
    # must not reach |mu| = 1 - 2^-53, where (1 - |mu|)/t is subnormal
    # from t ~ 5e291
    ts = np.append(10.0 ** np.linspace(-300.0, 308.0, 120),
                   [5e-324, 1e-310, sys.float_info.max])
    below = 1.0 - 2.0 ** -53
    mus = (0.0, 0.5, -0.5, 1.0, -1.0, below, -below)
    k_maxes = (1e-3, 1.0, 1e3, 1e100, 1e150)
    raised = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in ts.tolist():
            for mu in mus:
                for k_max in k_maxes:
                    try:
                        prof = momentum_profile(PhasePoint(t, mu), k_max, 5)
                    except InvalidArgument:
                        raised += 1
                        continue
                    assert np.isfinite(prof.n1_of_k).all(), (t, mu, k_max)
                    assert np.isfinite(prof.n2_of_k).all(), (t, mu, k_max)
                    if abs(mu) < 1.0:
                        assert prof.n1_of_k[0] == prof.n2_of_k[0] == 0.0, (
                            t, mu, k_max)
        # (1e103, 10) is past the EOS's range but keeps its finite rows
        prof = momentum_profile(PhasePoint(1e103, 0.5), 10.0, 3)
    assert 0 < raised < 0.2 * len(ts) * len(mus) * len(k_maxes)
    assert np.isfinite(prof.n1_of_k).all() and prof.n1_of_k[-1] > 1e104


@pytest.mark.parametrize("call", [
    lambda: charge_integrand(0.0, PhasePoint(1.7e308, 0.5)),
    lambda: charge_integrand(1e-20, PhasePoint(1e300, 1.0 - 2.0 ** -53)),
    lambda: momentum_profile(PhasePoint(1e300, -(1.0 - 2.0 ** -53)), 1.0, 3),
], ids=["charge_integrand-half", "charge_integrand-below-one",
        "momentum_profile-below-minus-one"])
def test_subnormal_shift_below_the_condensation_point_raises(call):
    # (1 - |mu|)/t subnormal at |mu| < 1: n overflows near k = 0, where
    # k^2 n tends to 0, and the 2t limit of |mu| = 1 does not hold
    with pytest.raises(InvalidArgument, match=r"^momentum occupations at "
                       r"t = 1(\.7)?e\+30\d, mu = -?0\.\d+: "):
        call()


@pytest.mark.parametrize("samples", [2.5, 3.0, "3"])
def test_momentum_profile_takes_an_integer_count(samples):
    with pytest.raises(InvalidArgument, match="samples must be an integer"):
        momentum_profile(PhasePoint(1.0, 0.1), 4.0, samples)
    assert len(momentum_profile(PhasePoint(1.0, 0.1), 4.0,
                                np.int64(3)).k_grid) == 3
