"""Memory is not a monotone function of the peaked bath's parameters.

The paper's abstract claims that for a peaked spectral density there is
no monotonic relation between the quantifier and the system-bath
coupling strength, the sharpness of the peak or the resonance frequency
of the bath.  This demo scans the divisibility quantifier n1_qq along
each of the three axes in turn, the other two held at D = 0.75 ω₀²,
Γ = 0.63 ω₀ and Ω = ω₀, and names the interior maximum of each scan.

Each maximum is bracketed by the grid and then located by a bounded
search in the logarithm of the parameter between the grid neighbours
of the largest sample.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

from nonmarkov import ModelParams, PeakedSD, divisibility_quantifier

BASE = {"coupling": 0.75, "width": 0.63, "resonance": 1.0}
# (parameter, label, scan range in units of ω₀)
AXES = (("coupling", "D/ω₀²", 0.05, 5.0),
        ("width", "Γ/ω₀", 0.01, 5.0),
        ("resonance", "Ω/ω₀", 0.2, 5.0))


def n1_qq(p: ModelParams, key: str, value: float) -> float:
    matrix, _ = divisibility_quantifier(p, PeakedSD(**{**BASE, key: value}))
    return float(matrix[0, 0])


def main() -> None:
    p = ModelParams(omega0=1.0, beta=1.0)
    for key, label, lo, hi in AXES:
        fixed = ", ".join(f"{k} = {v:g}" for k, v in BASE.items()
                          if k != key)
        print(f"Peaked bath, scan of the {key} ({fixed})")
        print(f"{label:>9} {'n1_qq':>9}")
        grid = np.geomspace(lo, hi, 17)
        qq = [n1_qq(p, key, float(x)) for x in grid]
        for x, v in zip(grid, qq):
            print(f"{x:9.3g} {v:9.5f}  {'#' * int(round(40 * v))}")

        best = int(np.argmax(qq))
        if not 0 < best < len(grid) - 1:
            raise SystemExit(f"the {key} scan peaks at its end")
        found = minimize_scalar(
            lambda u: -n1_qq(p, key, math.exp(u)), method="bounded",
            bounds=(math.log(grid[best - 1]), math.log(grid[best + 1])),
            options={"xatol": 1e-5})
        print(f"interior maximum n1_qq = {-found.fun:.4f} at "
              f"{label} = {math.exp(found.x):.4g}\n")


if __name__ == "__main__":
    main()
