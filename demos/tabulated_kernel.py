"""Feeding the package measured data instead of a formula.

The peaked spectral density has a closed-form memory kernel, which
makes it the perfect end-to-end test of the tabulated pathway: sample
J(ω) on a grid, hand the bare numbers to TabulatedSD, and let the
package reconstruct γ̃(ω) with the closed-form dispersion
(Kramers–Kronig) transform of the interpolated table.  The script
compares kernel values and both quantifiers against the analytic
original.
"""
from __future__ import annotations

import numpy as np

from nonmarkov import (
    ModelParams,
    PeakedSD,
    TabulatedSD,
    divisibility_quantifier,
    regression_quantifier,
)


def main() -> None:
    analytic = PeakedSD(coupling=1.0, width=0.5, resonance=2.0)

    # J ~ D²Γ/ω³ for large ω, so by ω = 40 the table has decayed to
    # ~1e-5 of its maximum and truncation is harmless
    grid = np.linspace(0.0, 40.0, 4001)
    sampled = TabulatedSD(grid, analytic.j(grid))

    print("memory kernel from a 4001-point table of the peaked J(ω)")
    print(f"{'ω':>5} {'Re γ̃ table':>12} {'Re γ̃ exact':>12} "
          f"{'Im γ̃ table':>12} {'Im γ̃ exact':>12}")
    omega = np.array([0.3, 1.0, 1.9, 2.1, 3.0, 6.0])
    tab = sampled.gamma_tilde_vec(omega)
    ref = analytic.gamma_tilde_vec(omega)
    for w, t, r in zip(omega, tab, ref):
        print(f"{w:5.2f} {t.real:12.6f} {r.real:12.6f} "
              f"{t.imag:12.6f} {r.imag:12.6f}")
    worst = max(np.abs(tab.real - ref.real).max(),
                np.abs(tab.imag - ref.imag).max())
    print(f"largest absolute kernel deviation: {worst:.2e}\n")

    p = ModelParams(omega0=1.0, beta=1.0, hbar=0.0)
    m_tab, _ = regression_quantifier(p, sampled)
    m_ref, _ = regression_quantifier(p, analytic)
    print("classical regression quantifier, table vs closed form:")
    print(f"  n2_qq {m_tab[0, 0]:.6f} vs {m_ref[0, 0]:.6f}")
    print(f"  n2_qp {m_tab[0, 1]:.6f} vs {m_ref[0, 1]:.6f}")
    print(f"  n2_pp {m_tab[1, 1]:.6f} vs {m_ref[1, 1]:.6f}")

    d_tab, _ = divisibility_quantifier(p, sampled)
    d_ref, _ = divisibility_quantifier(p, analytic)
    print("divisibility quantifier, table vs closed form:")
    print(f"  n1_qq {d_tab[0, 0]:.6f} vs {d_ref[0, 0]:.6f}")


if __name__ == "__main__":
    main()
