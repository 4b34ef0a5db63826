"""How fast does memory build up as the bath coupling grows?

Sweeps the Ohmic damping constant over four decades and prints both
quantifiers.  The first one (divisibility of the mean propagator) rises
smoothly from almost zero to almost one; the second one (regression
theorem) stays sizable even for weak coupling once the temperature is
finite, which is the surprise the quantifiers were built to expose.

The equal-time covariances of the strict Ohmic bath at ħ > 0 depend
logarithmically on the frequency cutoff, so the package emits a
CutoffSensitive warning and reports the drift; the run prints it
alongside the numbers instead of hiding it.
"""
from __future__ import annotations

import warnings

import numpy as np

from nonmarkov import CutoffSensitive, ModelParams, OhmicSD, quantify


def main() -> None:
    p = ModelParams(omega0=1.0, beta=1.0, hbar=1.0, cutoff=1e3)
    grid = np.geomspace(0.01, 10.0, 7)

    print("Ohmic bath, βω₀ = 1, ħ = 1, covariance cutoff Λ = 10³ω₀")
    print(f"{'D':>8} {'n1_qq':>10} {'n1_qp':>10} {'n2_qq':>10} "
          f"{'n2_qp':>10} {'cutoff drift':>13}")
    for d in grid:
        sd = OhmicSD(float(d))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffSensitive)
            report = quantify(p, sd, which="both")
        drift = report.diagnostics["n2_pp"].cutoff_drift
        print(f"{d:8.3g} {report.n1[0, 0]:10.5f} {report.n1[0, 1]:10.5f} "
              f"{report.n2[0, 0]:10.5f} {report.n2[0, 1]:10.5f} "
              f"{drift:13.2e}")

    print()
    print("n1 falls to zero with the coupling; n2 does not fall as fast:")
    print("even a weakly coupled oscillator remembers a bath that was")
    print("prepared in equilibrium with it.")


if __name__ == "__main__":
    main()
