import json
import math
import pathlib
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import k0e, k1e, zeta

from conftest import run_python
from relbec import (InvalidArgument, NonConvergence, PhasePoint,
                    QuadratureConfig, charge_integrand,
                    critical_temperature, quadrature, statistics,
                    thermal_charge_density)

# frozen 30-digit reference values
I_DIFF_REF = 2.13416596598701       # integral of the difference integrand, t=1 mu=0.5
Q_TILDE_REF = 0.108118110876819     # the same with the 1/2pi^2 measure


def bose_density_series(t, mu, j_max=20000):
    """Independent oracle: n1 as a Bessel-K2 sum.

    n1 = (1/2pi^2) sum_j (t/j) e^{j mu/t} K2(j/t), with K2 obtained by
    upward recurrence from K0 and K1 and the exponential factors combined
    before evaluation so large j/t stays finite.
    """
    total = 0.0
    for j in range(1, j_max + 1):
        x = j / t
        k2e = k0e(x) + 2.0 / x * k1e(x)
        term = (t / j) * math.exp(j * (mu - 1.0) / t) * k2e
        total += term
        if term < 1e-17 * max(total, 1e-30):
            break
    return total / (2.0 * math.pi ** 2)


def quad_charge_reference(t, mu):
    """Independent oracle: q_tilde from scipy's QUADPACK on the difference
    integrand k^2 (a - b)/((1 - a)(1 - b)), a = e^{-(E-mu)/t},
    b = e^{-(E+mu)/t}, split at every decade of k up to where E - 1 = 60 t."""
    if mu < 0.0:
        return -quad_charge_reference(t, -mu)

    def f(k):
        e = math.sqrt(k * k + 1.0)
        xa = (k * k / (e + 1.0) + (1.0 - mu)) / t
        xb = xa + 2.0 * mu / t
        return (k * k * math.exp(-xa) * -math.expm1(-2.0 * mu / t)
                / (-math.expm1(-xa) * -math.expm1(-xb)))

    k_max = math.sqrt((1.0 + 60.0 * t) ** 2 - 1.0)
    edges = [0.0] + [10.0 ** e for e in range(-6, 9) if 10.0 ** e < k_max]
    edges.append(k_max)
    total = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(edges[:-1], edges[1:]))
    return total / (2.0 * math.pi ** 2)


def quad_density_reference(t, mu):
    """Independent oracle: n1 from scipy's QUADPACK on k^2/(e^x - 1),
    x = (E - mu)/t, split as quad_charge_reference splits; n2 is the
    same at -mu."""
    def f(k):
        x = (k * k / (math.sqrt(k * k + 1.0) + 1.0) + (1.0 - mu)) / t
        return k * k / math.expm1(x) if x > 0.0 else 2.0 * t

    k_max = math.sqrt((1.0 + 60.0 * t) ** 2 - 1.0)
    edges = [0.0] + [10.0 ** e for e in range(-6, 9) if 10.0 ** e < k_max]
    edges.append(k_max)
    total = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(edges[:-1], edges[1:]))
    return total / (2.0 * math.pi ** 2)


def record_kernel_calls(monkeypatch):
    """The node counts of the kernel calls quadrature makes, through the
    module global it looks the kernel up by."""
    calls = []
    kernel = quadrature._weighted_occupations

    def recorder(k, phase):
        calls.append(len(k))
        return kernel(k, phase)

    monkeypatch.setattr(quadrature, "_weighted_occupations", recorder)
    return calls


def momentum_route(phase):
    """charge_integrand, which takes momenta, as an integrand over
    v = sqrt(gap/t): k^2 (n1 - n2) dk/dv at k = sqrt(g (g + 2)),
    g = v^2 t, with dk/dv = 2 v t (g + 1)/k."""
    t = phase.t

    def f(v):
        g = v * v * t
        k = np.sqrt(g * (g + 2.0))
        return charge_integrand(k, phase) * (2.0 * v * t * (g + 1.0) / k)

    return f


def levels(f, config=QuadratureConfig(), factor=1.0):
    """The level loop on one integrand f in v, at scale 1 and with the
    given factor."""
    return quadrature._levels(lambda v: (f(v), (factor,)), config, 1.0)


# The level loop on closed-form integrands in v, each within the tail
# envelope (v/V)^5 e^{-(v^2 - V^2)} past V = sqrt(50), at scale 1.
def test_gamma_three():
    # the integral of v^5 e^{-v^2} is Gamma(3)/2; its tail is the bound's
    (val,), (err,) = levels(lambda v: v ** 5 * np.exp(-v * v))
    assert val == pytest.approx(1.0, rel=1e-12)
    assert err < 1e-10


def test_gaussian_half_line():
    (val,), _ = levels(lambda v: np.exp(-v * v))
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)


def test_factor_is_the_last_product():
    # a value is the sum times scale, then times its factor: a subnormal
    # value is the product of the normal sum and its factor, rounded once
    def f(v):
        return v ** 5 * np.exp(-v * v)

    (one,), _ = levels(f)
    for factor in (4.5e-309, 1e-315, 5e-324, 0.0):
        (val,), (err,) = levels(f, factor=factor)
        assert val == one * factor and err <= factor


def test_tolerance_is_on_the_returned_values():
    # _ABS_TOL bounds the returned value's error, after its factor: a
    # spike the first level cannot meet at factor 1 is met there at a
    # factor that takes its error below 1e-14
    calls = []

    def spike(v):
        calls.append(1)
        return np.exp(-v * v) / np.sqrt(np.abs(v - 2.345) + 1e-8)

    cfg = QuadratureConfig(rel_tol=1e-13)
    (big,), _ = levels(spike, cfg)
    assert len(calls) > 1
    calls.clear()
    (small,), (err,) = levels(spike, cfg, factor=1e-20)
    assert len(calls) == 1 and err <= quadrature._ABS_TOL
    assert small == pytest.approx(big * 1e-20, rel=1e-6)


def test_error_estimate_honest():
    # the returned error bounds the true one, up to the rounding of the
    # sum, at every tolerance and on integrands of either sign and none
    root_pi = math.sqrt(math.pi)
    integrands = [(lambda v: v ** 5 * np.exp(-v * v), 1.0),
                  (lambda v: v ** 4 * np.exp(-v * v), 3.0 * root_pi / 8.0),
                  (lambda v: np.exp(-v * v), root_pi / 2.0),
                  (lambda v: (v * v - 2.0) * np.exp(-v * v),
                   -3.0 * root_pi / 4.0),
                  (lambda v: (v * v - 1.5) * v * v * np.exp(-v * v), 0.0)]
    for rel_tol in [1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-13]:
        cfg = QuadratureConfig(rel_tol=rel_tol)
        for i, (f, exact) in enumerate(integrands):
            (val,), (err,) = levels(f, cfg)
            assert abs(val - exact) <= err + 4e-16 * max(abs(exact), 1.0), (
                rel_tol, i, val, err)


def test_tail_factor_is_the_envelope_integral():
    # (V^4 + 2 V^2 + 2)/(2 V^5) at V^2 = 50, against the integral of the
    # envelope (v/V)^5 e^{-(v^2 - V^2)} over [V, inf) at 30 digits
    with mpmath.workdps(30):
        big_v = mpmath.sqrt(50)
        exact = mpmath.quad(lambda v: (v / big_v) ** 5
                            * mpmath.exp(-(v * v - 50)), [big_v, mpmath.inf])
    assert quadrature._V_CUT == math.sqrt(50.0)
    assert quadrature._TAIL_FACTOR == pytest.approx(float(exact), rel=1e-15)
    assert quadrature._TAIL_FACTOR == pytest.approx(0.0736, rel=1e-3)


def test_tail_bound_is_honest_on_the_eos_rows():
    # the kernel's rows integrated from V to 12 (where e^{-(v^2 - V^2)} is
    # e^{-94}) stay within |row(V)| _TAIL_FACTOR, at seeded (t, mu) over
    # the whole range and at |mu| = 1; at t >> 1 the measure is ~2 v^5
    # and the occupation Boltzmann, so the bound is met to its rounding
    x, w = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(quadrature._V_CUT, 12.0, 101)
    half = (edges[1:] - edges[:-1]) / 2.0
    v = ((edges[:-1] + edges[1:]) / 2.0 + np.outer(x, half)).T.ravel()
    weights = (np.outer(half, w)).ravel()
    rng = np.random.default_rng(3131)
    ts = 10.0 ** rng.uniform(-12.0, math.log10(quadrature._MAX_T), 340)
    mus = rng.uniform(-1.0, 1.0, 340)
    mus[::8] = np.sign(mus[::8])
    checked = 0
    for t, mu in zip(ts.tolist(), mus.tolist()):
        if (1.0 - abs(mu)) / t > quadrature._DEAD_X:
            continue
        phase = PhasePoint(t, mu)
        # a row's factor scales its tail and its bound alike
        at_cut = quadrature._weighted_occupations(
            np.array([quadrature._V_CUT]), phase)[0][:, 0]
        tails = quadrature._weighted_occupations(v, phase)[0] @ weights
        bound = np.abs(at_cut) * quadrature._TAIL_FACTOR
        assert (np.abs(tails) <= bound * (1.0 + 1e-12)).all(), (t, mu)
        checked += 1
    assert checked >= 300


@pytest.mark.parametrize("rel_tol", [0.0, -1e-10, math.nan, math.inf, 1.0])
def test_quadrature_config_validation(rel_tol):
    with pytest.raises(InvalidArgument, match="^rel_tol must be"):
        QuadratureConfig(rel_tol=rel_tol)


@pytest.mark.parametrize("f", [lambda v: np.exp(-60.0 * v * v),
                               lambda v: v ** 5 * np.exp(-v * v)],
                         ids=["nan-bound", "inf-bound"])
def test_nan_tail_bound_is_non_convergence(monkeypatch, f):
    # an infinite tail factor times f(V) = 0 (e^-3000) is a nan bound,
    # times f(V) > 0 an inf one; neither is below its tolerance, so the
    # first level raises
    monkeypatch.setattr(quadrature, "_TAIL_FACTOR", math.inf)
    calls = []
    with pytest.raises(NonConvergence, match="tail bound not below"):
        levels(lambda k: calls.append(1) or f(k))
    assert len(calls) == 1


def test_non_convergence_on_budget(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_LEVELS", 2)
    cfg = QuadratureConfig(rel_tol=1e-14)

    def spike(v):
        return np.exp(-v * v) / np.sqrt(np.abs(v - 2.345) + 1e-14)

    with pytest.raises(NonConvergence, match="budget exhausted"):
        levels(spike, cfg)


def test_level0_nodes_are_one_array_at_every_phase_point(monkeypatch):
    # 28 edges below v = 1, 10 above it and V: 38 panels of 15 nodes and
    # V, built once; the kernel receives that very array at every (t, mu)
    # that makes a pass, down to the subnormal t of |mu| = 1
    edges = quadrature._EDGES
    assert len(edges) == 39 and (np.diff(edges) > 0.0).all()
    assert edges[0] == 0.0 and edges[-1] == quadrature._V_CUT
    nodes = quadrature._LEVEL0_NODES
    assert nodes.shape == (571,) and nodes[-1] == quadrature._V_CUT
    assert (np.diff(nodes[:-1]) > 0.0).all() and nodes[0] > 3e-15
    assert not nodes.flags.writeable
    seen = []
    kernel = quadrature._weighted_occupations

    def recorder(v, phase):
        seen.append(v)
        return kernel(v, phase)

    monkeypatch.setattr(quadrature, "_weighted_occupations", recorder)
    rng = np.random.default_rng(1313)
    ts = [5e-324, 1e-300, quadrature._MAX_T] + (10.0 ** rng.uniform(
        -12.0, math.log10(quadrature._MAX_T), 300)).tolist()
    for t in ts:
        for mu in (1.0, -1.0, float(rng.uniform(-1.0, 1.0))):
            seen.clear()
            thermal_charge_density(PhasePoint(t, mu))
            assert all(v is nodes for v in seen) and len(seen) <= 1, (t, mu)


def test_level0_rows_are_constants_of_the_row_function(monkeypatch):
    # the level-0 rows v^2, v^2 e^{-v^2} and expm1(-v^2) are made once at
    # import by the row function every refined level calls, read-only like
    # the nodes; the kernel takes them only when handed the nodes themselves
    nodes, rows = quadrature._LEVEL0_NODES, quadrature._LEVEL0_ROWS
    assert not rows.flags.writeable and not nodes.flags.writeable
    with pytest.raises(ValueError):
        rows[1, 0] = 0.0
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    copy = np.array(nodes)
    assert copy.flags.writeable and copy.tobytes() == nodes.tobytes()
    assert rows.tobytes() == quadrature._v_rows(copy).tobytes()
    row_calls = []
    row_function = quadrature._v_rows
    monkeypatch.setattr(quadrature, "_v_rows",
                        lambda v: row_calls.append(v) or row_function(v))
    # and the kernel gives the same rows from either
    rng = np.random.default_rng(1818)
    for t, mu in zip((10.0 ** rng.uniform(-12.0, 6.0, 50)).tolist(),
                     rng.uniform(-1.0, 1.0, 50).tolist()):
        phase = PhasePoint(t, mu)
        row_calls.clear()
        rows, factors = quadrature._weighted_occupations(nodes, phase)
        assert row_calls == []
        copy_rows, copy_factors = quadrature._weighted_occupations(copy,
                                                                    phase)
        assert len(row_calls) == 1 and row_calls[0] is copy
        assert rows.tobytes() == copy_rows.tobytes()
        assert factors == copy_factors


def test_kronrod_constants_are_double_roundings():
    # G7/K15 from its definition at 40 digits: the Gauss nodes are the
    # roots of P7, its weights 2/((1 - x^2) P7'(x)^2); the 4 Kronrod nodes
    # and the 8 Kronrod weights make the 15-point rule exact on x^0 ...
    # x^22 (the odd powers hold by symmetry). Newton starts from the
    # literals rounded to 2 digits.
    with mpmath.workdps(40):
        p7 = mpmath.taylor(lambda x: mpmath.legendre(7, x), 0, 7)[::-1]
        xg = sorted((r.real for r in mpmath.polyroots(p7, extraprec=60)
                     if r.real > 0), reverse=True) + [mpmath.mpf(0)]
        wg = [2 / ((1 - x * x) * mpmath.diff(
            lambda y: mpmath.legendre(7, y), x) ** 2) for x in xg]

        def moments(*v):
            nodes = [v[0], xg[0], v[1], xg[1], v[2], xg[2], v[3]]
            weights = v[4:11]
            return [2 * sum(w * x ** (2 * j) for w, x in zip(weights, nodes))
                    + (v[11] if j == 0 else 0) - mpmath.mpf(2) / (2 * j + 1)
                    for j in range(12)]

        seed = [round(v, 2) for v in quadrature._XK[:-1:2].tolist()
                + quadrature._WK.tolist()]
        v = mpmath.findroot(moments, seed)
        assert max(abs(r) for r in moments(*v)) < mpmath.mpf(10) ** -35
        xk = [v[0], xg[0], v[1], xg[1], v[2], xg[2], v[3], xg[3]]
        wk = list(v[4:])
        # QUADPACK's dqk15 prints the first node to 33 digits
        assert abs(xk[0] - mpmath.mpf("0.991455371120812639206854697526329")
                   ) < mpmath.mpf(10) ** -32
        assert quadrature._XK.tolist() == [float(x) for x in xk]
        assert quadrature._WK.tolist() == [float(w) for w in wk]
        assert quadrature._WG.tolist() == [float(w) for w in wg]


def test_gauss_kronrod_returns_kronrod_and_embedded_difference():
    # K = h (y @ wk) and |K - G| = |h (y @ (wk - wg))| on rough, smooth
    # and sign-changing rows; a third of the rows change sign inside a
    # panel, where |K| is below the panel's integral of |y|
    rng = np.random.default_rng(5)
    y = np.empty((2, 60, 15))
    y[:, :20] = rng.uniform(0.0, 1.0, (2, 20, 15)) ** 8
    c = rng.uniform(0.1, 5.0, (2, 20, 1))
    y[:, 20:40] = np.exp(-c * (1.0 + quadrature._NODES))
    root = rng.uniform(-0.9, 0.9, (2, 20, 1))
    y[:, 40:] = (quadrature._NODES - root) * np.exp(-c * quadrature._NODES)
    y[1] *= -1.0
    assert ((y[:, 40:] > 0.0).any(axis=-1) & (y[:, 40:] < 0.0).any(axis=-1)
            ).all()
    h = rng.uniform(1e-3, 1.0, 60)
    wk = np.concatenate([quadrature._WK[:-1], quadrature._WK[::-1]])
    wg = np.zeros(15)
    wg[1::2] = np.concatenate([quadrature._WG[:-1], quadrature._WG[::-1]])
    kron, err = quadrature._gauss_kronrod(y, h)
    # both up to the rounding of a 15-term sum, in units of the panel's
    # integral of |y|: the matrix product may sum in another order
    scale = 1e-15 * h * (np.abs(y) @ wk)
    assert (np.abs(kron - h * (y @ wk)) <= scale).all()
    assert (np.abs(err - np.abs(h * (y @ (wk - wg)))) <= scale).all()
    assert (err >= 0.0).all()


def test_charge_difference_integral_reference():
    # charge_integrand (the momentum route) through the v pass
    (val,), _ = levels(momentum_route(PhasePoint(1.0, 0.5)))
    assert val == pytest.approx(I_DIFF_REF, rel=1e-10)


def test_thermal_charge_density_zero_mu():
    d = thermal_charge_density(PhasePoint(1.0, 0.0))
    assert d.q_tilde == 0.0
    assert d.n1 == d.n2 > 0.0


def test_thermal_charge_density_reference():
    d = thermal_charge_density(PhasePoint(1.0, 0.5))
    assert d.q_tilde == pytest.approx(Q_TILDE_REF, rel=1e-9)
    assert d.n1 == pytest.approx(0.16067639369943, rel=1e-10)
    assert d.n2 == pytest.approx(0.052558282822611, rel=1e-10)


def test_ultra_relativistic_charge():
    d = thermal_charge_density(PhasePoint(50.0, 0.3))
    assert d.q_tilde == pytest.approx(247.729781, rel=1e-7)


@pytest.mark.parametrize("t", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("mu", [0.2, 0.65, 0.95])
def test_route_consistency(t, mu):
    cfg = QuadratureConfig()
    phase = PhasePoint(t, mu)
    d = thermal_charge_density(phase, cfg)
    (val,), _ = levels(momentum_route(phase), cfg)
    diff = val / (2.0 * math.pi ** 2)
    assert abs(diff - d.q_tilde) <= 10.0 * cfg.rel_tol * (d.n1 + d.n2)


@pytest.mark.parametrize("t", [10.0 ** e for e in range(-9, 7)])
@pytest.mark.parametrize("mu", [-1.0, -0.9, 1e-3, 0.5, 0.999, 1.0])
def test_difference_route_matches_n1_minus_n2(t, mu):
    cfg = QuadratureConfig()
    d = thermal_charge_density(PhasePoint(t, mu), cfg)
    tol = 10.0 * (cfg.rel_tol * (d.n1 + d.n2)
                  + quadrature._ABS_TOL / (2.0 * math.pi ** 2))
    assert abs((d.n1 - d.n2) - d.q_tilde) <= tol


# Points between t = 1.4e3 and 1e6 where independent n1 and n2
# integrations once disagreed with the difference integrand.
@pytest.mark.parametrize("t,mu", [(5000.0, 0.7), (1e4, -0.8),
                                  (6610.0, 0.7234), (9.4e5, 3e-4)])
def test_high_t_charge_matches_quadpack(t, mu):
    d = thermal_charge_density(PhasePoint(t, mu))
    assert d.q_tilde == pytest.approx(quad_charge_reference(t, mu), rel=1e-8)


@settings(max_examples=100, deadline=None)
@given(log_t=st.floats(-12.0, -2.0))
def test_condensation_point_density_nonrelativistic(log_t):
    # large-argument expansion of the Bessel-K2 series at mu = 1:
    # n1 = zeta(3/2) (t/2pi)^{3/2} [1 + 15t/8 z(5/2)/z(3/2)
    #      + 105t^2/128 z(7/2)/z(3/2) + O(t^3)]; the O(t^3) term is below
    # 1.3e-7 of n1 for t <= 1e-2
    t = 10.0 ** log_t
    z = zeta(1.5)
    series = 1.0 + 15.0 * t / 8.0 * zeta(2.5) / z \
        + 105.0 * t * t / 128.0 * zeta(3.5) / z
    expected = z * (t / (2.0 * math.pi)) ** 1.5 * series
    assert thermal_charge_density(PhasePoint(t, 1.0)).n1 == pytest.approx(
        expected, rel=1e-6)


# 30-digit K2-series values at 45 (t, mu), t in [1e-3, 3], |mu| <= 0.95,
# recorded by tests/record_eos_reference.py
EOS_REFERENCE = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "eos_reference.json")
    .read_text())


def test_eos_matches_the_30_digit_reference():
    # every component at the default tolerance, including low t, where the
    # exponents' shift (1 -+ mu)/t is in the hundreds: within 1e-13
    # relative where the reference is a normal double, and below that
    # within 1e-13 of the smallest normal double, absolute; there every
    # component is also within one subnormal spacing, 5e-324
    normal = subnormal = 0
    for ref in EOS_REFERENCE:
        d = thermal_charge_density(PhasePoint(ref["t"], ref["mu"]))
        for name in ("n1", "n2", "q_tilde"):
            exact = Fraction(ref[name])
            error = abs(Fraction(getattr(d, name)) - exact)
            if abs(exact) >= statistics._TINY:
                assert error <= 1e-13 * abs(exact), (ref, name)
                normal += 1
            else:
                assert error <= 1e-13 * statistics._TINY, (ref, name)
                assert error <= 5e-324, (ref, name)
                subnormal += exact != 0
    assert len(EOS_REFERENCE) == 45 and normal >= 100 and subnormal >= 5


@pytest.mark.parametrize("t,mu", [(0.5, 0.3), (1.0, 0.8), (2.0, 0.5),
                                  (0.7, -0.6)])
def test_bessel_series_oracle(t, mu):
    d = thermal_charge_density(PhasePoint(t, mu))
    assert d.n1 == pytest.approx(bose_density_series(t, mu), rel=1e-9)
    assert d.n2 == pytest.approx(bose_density_series(t, -mu), rel=1e-9)


def test_monotone_in_mu_and_t():
    qs = [thermal_charge_density(PhasePoint(1.0, mu)).q_tilde
          for mu in (-0.8, -0.3, 0.0, 0.4, 0.9)]
    assert all(a < b for a, b in zip(qs, qs[1:]))
    qs = [thermal_charge_density(PhasePoint(t, 0.5)).q_tilde
          for t in (0.5, 1.0, 2.0, 5.0)]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def assert_conjugate(t, mu, cfg):
    # mu -> -mu swaps the branches and flips the difference row's sign,
    # and the pass treats every row alike: the doubles swap exactly (==
    # takes 0.0 and -0.0 as equal)
    plus = thermal_charge_density(PhasePoint(t, mu), cfg)
    minus = thermal_charge_density(PhasePoint(t, -mu), cfg)
    assert (minus.n1, minus.n2, minus.q_tilde) == (
        plus.n2, plus.n1, -plus.q_tilde), (t, mu, cfg.rel_tol)


@pytest.mark.parametrize("t,mu", [(0.5, 0.2), (1.0, 0.9), (3.0, 0.4)])
def test_antisymmetry(t, mu):
    for rel_tol in (1e-10, 1e-12):
        assert_conjugate(t, mu, QuadratureConfig(rel_tol=rel_tol))


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-12])
def test_antisymmetry_over_the_range(rel_tol):
    cfg = QuadratureConfig(rel_tol=rel_tol)
    rng = np.random.default_rng(1515)
    mus = [1.0, 1.0 - 1e-12] + rng.uniform(-1.0, 1.0, 6).tolist()
    for t in 10.0 ** rng.uniform(-12.0, 6.0, 30):
        for mu in mus:
            assert_conjugate(float(t), mu, cfg)


@pytest.mark.parametrize("t,mu", [(0.5, 0.4), (1.0, 0.7), (5.0, 0.9)])
def test_integrated_ratio_bound(t, mu):
    d = thermal_charge_density(PhasePoint(t, mu))
    assert d.n2 / d.n1 <= math.exp(-2.0 * mu / t)


def test_one_kernel_call_of_571_nodes_per_eos(monkeypatch):
    # at the default tolerances the initial panels converge everywhere:
    # one call, on the same 571-node layout at every t, and none where
    # every k^2 n of both branches underflows to 0.0
    calls = record_kernel_calls(monkeypatch)
    rng = np.random.default_rng(12)
    points = []
    for i in range(600):
        t = float(10.0 ** rng.uniform(-12.0, 6.0))
        sign = float(rng.choice([-1.0, 1.0]))
        if i % 3 == 0:
            mu = sign
        elif i % 3 == 1:
            mu = sign * (1.0 - float(10.0 ** rng.uniform(-12.0, 0.0)))
        else:
            mu = float(rng.uniform(-1.0, 1.0))
        points.append((t, mu))
    for t, mu in points:
        calls.clear()
        thermal_charge_density(PhasePoint(t, mu))
        both_dead = (1.0 - abs(mu)) / t > quadrature._DEAD_X
        assert calls == ([] if both_dead else [571]), (t, mu)


def dead_branch_points(n=2000, seed=1919):
    """(t, mu) with (1 - |mu|)/t, for half of them, or (1 + |mu|)/t, for
    the other half, within 10% of _DEAD_X or one ulp of t either side of
    it; a quarter of the mu are +-1, +-0.0 or +-(1 - 1e-16)."""
    rng = np.random.default_rng(seed)
    fixed = [1.0, -1.0, 0.0, -0.0, 1.0 - 1e-16, -(1.0 - 1e-16)]
    points = []
    for i in range(n):
        mu = (fixed[i // 4 % len(fixed)] if i % 4 == 0
              else float(rng.uniform(-1.0, 1.0)))
        bound = 1.0 - abs(mu) if i % 2 and abs(mu) < 1.0 else 1.0 + abs(mu)
        t = bound / quadrature._DEAD_X
        if i % 3:
            t /= float(rng.uniform(0.9, 1.1))
        else:
            t = math.nextafter(t, math.inf if i % 6 else 0.0)
        points.append((t, mu))
    return points


# momenta of the kernel comparison: 0, the smallest subnormal, k^2
# underflowing, and up to k^2 = 1e300
SHORTCUT_MOMENTA = np.concatenate([[0.0, 5e-324, 1e-200, 1e-20],
                                   np.geomspace(1e-10, 1e3, 40),
                                   [1e10, 1e100, 1e150]])


def shortcut_changes(points, full_pass):
    """The points whose EOS doubles, at two tolerances, or kernel rows (as
    int64; on SHORTCUT_MOMENTA and on the EOS's level-0 nodes) and row
    factors change once full_pass() has turned the EOS's dead-branch skip
    off."""
    def outputs(t, mu):
        phase = PhasePoint(t, mu)
        eos = [thermal_charge_density(phase, QuadratureConfig(rel_tol=tol))
               for tol in (1e-10, 1e-13)]
        rows, factors = quadrature._weighted_occupations(
            quadrature._LEVEL0_NODES, phase)
        rows = np.concatenate([
            statistics._momentum_occupations(SHORTCUT_MOMENTA, phase), rows],
            axis=1)
        return ([(d.n1.hex(), d.n2.hex(), d.q_tilde.hex()) for d in eos],
                rows.view(np.int64).tolist(), [x.hex() for x in factors])

    shortcut = [outputs(t, mu) for t, mu in points]
    full_pass()
    return [p for p, out in zip(points, shortcut) if outputs(*p) != out]


def test_dead_branch_shortcut_matches_the_full_pass(monkeypatch):
    # where (1 - |mu|)/t exceeds _DEAD_X the EOS makes no pass and returns
    # 0.0: every double must be the full pass's. Where only (1 + |mu|)/t
    # exceeds it the kernel's far row underflows to 0.0 by itself, with no
    # skip: those points and the live ones are the controls
    points = dead_branch_points()
    both = sum((1.0 - abs(mu)) / t > quadrature._DEAD_X for t, mu in points)
    one = sum((1.0 + abs(mu)) / t > quadrature._DEAD_X
              for t, mu in points) - both
    assert min(both, one, len(points) - both - one) > 300

    def full_pass():
        monkeypatch.setattr(quadrature, "_DEAD_X", math.inf)

    assert shortcut_changes(points, full_pass) == []


@pytest.mark.parametrize("disabled", ["X86_V4", "X86_V4 X86_V3"])
def test_dead_branch_shortcut_on_narrower_simd_loops(disabled):
    # the EOS's skip is exact only where np.exp(-x) is 0.0 and np.expm1(-x)
    # is -1.0 above _DEAD_X, on whichever loop numpy dispatches
    features = pytest.importorskip(
        "numpy._core._multiarray_umath").__cpu_features__
    if not all(features.get(name) for name in disabled.split()):
        pytest.skip(f"{disabled} is not dispatched on this machine")
    code = ("import math\n"
            "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
            "from relbec import quadrature\n"
            "import test_quadrature as tq\n"
            "assert not f['X86_V4']\n"
            "def full_pass():\n"
            "    quadrature._DEAD_X = math.inf\n"
            "print(tq.shortcut_changes(tq.dead_branch_points(), full_pass))")
    out = run_python("-c", code, env={"NPY_DISABLE_CPU_FEATURES": disabled},
                     check=True, capture_output=True, text=True).stdout
    assert out.split("\n")[0] == "[]"


@pytest.mark.parametrize("t,mu", [(0.33261043826842085, -0.9990346810866676),
                                  (0.7897165516066401, 0.9999999997426147)])
def test_second_level_matches_quadpack(monkeypatch, t, mu):
    # drawn from seeded sweeps: at rel_tol = 1e-12 some initial panels
    # are bisected, so the totals carry the converged panels across levels
    calls = record_kernel_calls(monkeypatch)
    # the refined levels' nodes are not the level-0 array: each takes the
    # row function
    row_calls = []
    row_function = quadrature._v_rows
    monkeypatch.setattr(quadrature, "_v_rows",
                        lambda v: row_calls.append(len(v)) or row_function(v))
    d = thermal_charge_density(PhasePoint(t, mu),
                               QuadratureConfig(rel_tol=1e-12))
    assert len(calls) >= 2 and calls[0] == 571
    assert row_calls == calls[1:]
    assert d.n1 == pytest.approx(quad_density_reference(t, mu), rel=1e-11)
    assert d.n2 == pytest.approx(quad_density_reference(t, -mu), rel=1e-11)
    assert d.q_tilde == pytest.approx(quad_charge_reference(t, mu), rel=1e-11)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mu", [-1.0, -0.5, 0.0, 1e-300, 0.5, 1.0])
def test_largest_temperature_is_finite(mu):
    # at the bound one pass neither overflows nor warns
    d = thermal_charge_density(PhasePoint(quadrature._MAX_T, mu))
    assert all(math.isfinite(v) for v in (d.n1, d.n2, d.q_tilde))
    assert d.n1 > 0.0 and d.n2 > 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t", [math.nextafter(quadrature._MAX_T, math.inf),
                               1e103, 1e308])
def test_temperature_above_the_doubles_raises(t):
    with pytest.raises(InvalidArgument) as exc:
        thermal_charge_density(PhasePoint(t, 0.5))
    assert f"t = {t}, mu = 0.5" in str(exc.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_critical_temperature_above_the_doubles_raises():
    # the upper end of the bracket, t ~ 1.4e134, is past the bound
    with pytest.raises(InvalidArgument, match="thermal_charge_density"):
        critical_temperature(1e200)
