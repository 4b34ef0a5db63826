"""Memory is not a monotone function of the peaked bath's parameters.

The paper's abstract claims that for a peaked spectral density there is
no monotonic relation between the quantifier and the system-bath
coupling strength, the sharpness of the peak or the resonance frequency
of the bath.  This demo scans the divisibility quantifier n1_qq along
each of the three axes in turn, the other two held at D = 0.75 ω₀²,
Γ = 0.63 ω₀ and Ω = ω₀, and names the interior maximum of each scan.
It then scans the quantum regression quantifier n2_qq (β = ħ = 1, by
Matsubara sums) along the same axes and reports whether each of those
scans has an interior maximum too.

Each maximum is bracketed by the grid and then located by a bounded
search in the logarithm of the parameter between the grid neighbours
of the largest sample.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

from nonmarkov import (ModelParams, PeakedSD, divisibility_quantifier,
                       regression_quantifier)

BASE = {"coupling": 0.75, "width": 0.63, "resonance": 1.0}
# (parameter, label, scan range in units of ω₀)
AXES = (("coupling", "D/ω₀²", 0.05, 5.0),
        ("width", "Γ/ω₀", 0.01, 5.0),
        ("resonance", "Ω/ω₀", 0.2, 5.0))


QUANTIFIERS = {"n1_qq": divisibility_quantifier,
               "n2_qq": regression_quantifier}


def entry(name: str, p: ModelParams, key: str, value: float) -> float:
    matrix, _ = QUANTIFIERS[name](p, PeakedSD(**{**BASE, key: value}))
    return float(matrix[0, 0])


def scan(name: str, p: ModelParams, key: str, label: str, lo: float,
         hi: float) -> bool:
    """Print the scan of one entry along one axis and its interior
    maximum; False when the scan peaks at an end instead."""
    fixed = ", ".join(f"{k} = {v:g}" for k, v in BASE.items() if k != key)
    print(f"Peaked bath, {name} along the {key} ({fixed})")
    print(f"{label:>9} {name:>9}")
    grid = np.geomspace(lo, hi, 17)
    values = [entry(name, p, key, float(x)) for x in grid]
    for x, v in zip(grid, values):
        print(f"{x:9.3g} {v:9.5f}  {'#' * int(round(40 * v))}")

    best = int(np.argmax(values))
    if not 0 < best < len(grid) - 1:
        print(f"no interior maximum: largest {name} = {values[best]:.4f} "
              f"at the {'low' if best == 0 else 'high'} end\n")
        return False
    found = minimize_scalar(
        lambda u: -entry(name, p, key, math.exp(u)), method="bounded",
        bounds=(math.log(grid[best - 1]), math.log(grid[best + 1])),
        options={"xatol": 1e-5})
    print(f"interior maximum {name} = {-found.fun:.4f} at "
          f"{label} = {math.exp(found.x):.4g}\n")
    return True


def main() -> None:
    # n1 depends on neither β nor ħ; n2 is quantum at β = ħ = 1
    p = ModelParams(omega0=1.0, beta=1.0, hbar=1.0)
    for key, label, lo, hi in AXES:
        if not scan("n1_qq", p, key, label, lo, hi):
            raise SystemExit(f"the n1_qq scan of the {key} peaks at its end")
    peaked = [key for key, label, lo, hi in AXES
              if scan("n2_qq", p, key, label, lo, hi)]
    print(f"n2_qq has an interior maximum along {len(peaked)} of the 3 "
          f"axes: {', '.join(peaked) or 'none'}")


if __name__ == "__main__":
    main()
