"""Record tests/golden/eos_reference.json: 30-digit n1, n2 and q_tilde at
seeded and chosen phase points, from the Bessel-K2 series

    n1 = (1/2pi^2) sum_j (t/j) e^{j (mu - 1)/t} [e^{j/t} K2(j/t)],

n2 the same at -mu, summed at 40 digits and kept to 30. Every point has
t in [1e-3, 3] and |mu| <= 0.95, where the series needs at most ~5300
terms (a term falls by e^{-(1 - |mu|)/t} per j). Run from the root of a
checkout (needs mpmath, a declared test dependency; takes about a minute):

    python tests/record_eos_reference.py

tests/test_quadrature.py reads the file without mpmath.
"""
import json
import math
import pathlib

import mpmath
import numpy as np

OUT = pathlib.Path(__file__).parent / "golden" / "eos_reference.json"
DIGITS = 30
# Chosen points: low t, where the shift (1 -+ |mu|)/t is hundreds and its
# rounding once moved every node's exponent; near |mu| = 0.95; mu = 0;
# and the subnormal band, (1 - |mu|)/t from 690 to 713, where n1 or n2 is
# a subnormal double (at (1e-3, 0.287) e^{-(1 - |mu|)/t} is itself one)
CHOSEN = [(1e-3, 0.4), (1e-3, -0.6), (1.5e-3, 0.95), (2e-3, -0.5),
          (3e-3, 0.1), (5e-3, -0.95), (0.01, 0.5), (0.01, -0.01),
          (0.03, 0.9), (0.1, 0.0), (1.0, 0.5), (3.0, -0.95),
          (1e-3, 0.29), (1e-3, 0.3), (1e-3, 0.31), (1e-3, -0.295),
          (1e-3, 0.287)]
SEEDED = 28


def points():
    """The chosen points, then SEEDED draws t = 10^U(-3, log10 3),
    mu = U(-0.95, 0.95)."""
    rng = np.random.default_rng(2009)
    ts = 10.0 ** rng.uniform(-3.0, math.log10(3.0), SEEDED)
    mus = rng.uniform(-0.95, 0.95, SEEDED)
    return CHOSEN + list(zip(ts.tolist(), mus.tolist()))


def branch(t, mu):
    """The K2 series of one branch at the doubles t and mu, exactly as
    given, summed until a term is below 10^-45 of the total."""
    t, mu = mpmath.mpf(t), mpmath.mpf(mu)
    total = mpmath.mpf(0)
    for j in range(1, 100001):
        x = j / t
        term = t / j * mpmath.exp(j * (mu - 1) / t) * (
            mpmath.besselk(2, x) * mpmath.exp(x))
        total += term
        if term < total * mpmath.mpf(10) ** -45:
            return total / (2 * mpmath.pi ** 2), j
    raise RuntimeError(f"K2 series did not converge at t = {t}, mu = {mu}")


def main():
    records = []
    with mpmath.workdps(40):
        for t, mu in points():
            n1, j1 = branch(t, mu)
            n2, j2 = branch(t, -mu)
            records.append({
                "t": t, "mu": mu, "terms": max(j1, j2),
                "n1": mpmath.nstr(n1, DIGITS),
                "n2": mpmath.nstr(n2, DIGITS),
                "q_tilde": mpmath.nstr(n1 - n2, DIGITS)})
            print(t, mu, max(j1, j2), records[-1]["n1"])
    OUT.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
