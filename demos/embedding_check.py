"""A peaked bath is secretly one extra oscillator.

The peaked spectral density is exactly what the system sees when it
couples to a single auxiliary mode that is itself Ohmically damped.
That gives an independent oracle: integrate the coupled 4-dimensional
ordinary differential equation and compare its position response with
the package's Fourier-space susceptibility transformed back to time.
No quadrature is shared between the two routes.  `chi_time` itself takes
the exponential of the same drift matrix the ODE integrates, so it is
printed alongside.
"""
from __future__ import annotations

import numpy as np

from nonmarkov import (
    ModelParams,
    PeakedSD,
    chi_time,
    embedding_response,
    embedding_static_sum,
)
from nonmarkov.response import _chi_time_transform


def main() -> None:
    coupling, width, resonance = 0.05, 0.05, 1.0
    p = ModelParams(omega0=1.0, beta=1.0)
    sd = PeakedSD(coupling=coupling, width=width, resonance=resonance)

    ts = np.linspace(0.0, 50.0, 11)
    ode = embedding_response(coupling, width, resonance, 1.0, ts)

    print("χ_qq(t): Fourier inversion vs damped two-oscillator ODE")
    print(f"{'t':>5} {'transform':>12} {'embedding':>12} {'|diff|':>10} "
          f"{'e^(At)':>12}")
    worst = 0.0
    for t, ref in zip(ts, ode):
        val = _chi_time_transform(p, sd, float(t))[0, 0] if t > 0.0 else 0.0
        worst = max(worst, abs(val - ref))
        print(f"{t:5.1f} {val:12.6f} {ref:12.6f} {abs(val - ref):10.2e} "
              f"{chi_time(p, sd, float(t))[0, 0]:12.6f}")

    print(f"\nlargest pointwise difference: {worst:.2e}")

    # the long-time integral of χ_qq must equal the static
    # susceptibility 1/ω₀² no matter which route computes it
    static = embedding_static_sum(coupling, width, resonance, 1.0)
    print(f"∫₀^∞ χ_qq dt from the embedding: {static:.8f} "
          f"(static susceptibility 1/ω₀² = 1)")


if __name__ == "__main__":
    main()
