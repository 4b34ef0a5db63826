"""The closed-form memory kernel of tabulated spectral densities.

Im γ̃ is checked against the principal-value quadrature of the
dispersion integral, γ̃′ against the analytic peaked kernel and against
finite differences of γ̃, and values against the batch they arrive in.
n1 on smooth tables, which used to raise ``DerivativeUnstable``, must
now give distances in [0, 1].
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nonmarkov import cli, spectral
from nonmarkov.errors import DerivativeUnstable
from nonmarkov.quadrature import principal_value
from nonmarkov.quantifiers import quantify
from nonmarkov.response import ModelParams
from nonmarkov.spectral import PeakedSD, TabulatedSD

PEAKED = PeakedSD(coupling=1.0, width=0.5, resonance=2.0)
# A small exclusion radius keeps the principal value accurate when the
# pole sits on a knot, where the interpolant's second derivative jumps;
# a negligible absolute floor lets it resolve |Im γ̃| ≈ 1e-7 at ω ≈ 1e-7.
PV_ABS_TOL = 1e-20


def peaked_table(n, top=40.0):
    w = np.linspace(0.0, top, n)
    j = PEAKED.j(w)
    j[0] = 0.0
    return TabulatedSD(w, j)


def exp_table(n, top):
    w = np.linspace(0.0, top, n)
    return TabulatedSD(w, 0.4 * w * np.exp(-w / 4.0))


def noisy_cli_table():
    """The 2%-noise table of the CLI tests."""
    rng = np.random.default_rng(41)
    w = np.linspace(0.0, 70.0, 3001)
    j = np.abs(0.4 * w * np.exp(-w / 4.0)
               * (1.0 + 0.02 * rng.standard_normal(w.size)))
    j[0] = j[-1] = 0.0
    return TabulatedSD(w, j)


def alternating_table():
    """The ±25% alternating table of the spectral tests."""
    w = np.arange(0.0, 12.0 + 1e-9, 0.1)
    j = w * np.exp(-w) * (1.0 + 0.25 * (-1.0) ** np.arange(w.size))
    j[0] = j[-1] = 0.0
    return TabulatedSD(w, j)


TABLES = {
    "peaked-201": lambda: peaked_table(201),
    "exp-301": lambda: exp_table(301, 48.0),
    "exp-3001": lambda: exp_table(3001, 70.0),
}


def pv_im(sd, w):
    """Im γ̃ at w > 0 by principal-value quadrature of the folded
    dispersion integral ∫₀ [J(ν)/ν]·2ω/(ν²−ω²) dν."""
    half = 1.25 * max(sd.frequencies[-1], w) + 1.0
    val = principal_value(
        lambda nu: sd._ratio(nu) * 2.0 * w / (nu * nu - w * w) + 0.0j,
        pole=w, a=0.0, b=half, radius=1e-5, abs_tol=PV_ABS_TOL)
    return -val.real / math.pi


def probe_frequencies(sd):
    """Small ω, knots, midpoints and frequencies past the table end."""
    f = sd.frequencies
    n, top = f.size, f[-1]
    knots = f[[1, 2, n // 10, n // 4, n // 2, n - 2]]
    mids = 0.5 * (knots + f[[2, 3, n // 10 + 1, n // 4 + 1, n // 2 + 1,
                             n - 1]])
    return np.concatenate([[1e-7, 1e-5, 1e-3], knots, mids,
                           [1.01 * top, 1.7 * top, 2.5 * top]])


@pytest.mark.parametrize("name", sorted(TABLES))
def test_im_matches_principal_value(name):
    sd = TABLES[name]()
    omega = probe_frequencies(sd)
    gam = sd.gamma_tilde_vec(omega)
    for w, g in zip(omega, gam):
        assert abs(g.imag - pv_im(sd, w)) <= 1e-7 * abs(g), w


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(power=st.integers(1, 3), scale=st.floats(0.3, 5.0),
       gauss=st.booleans(), n=st.integers(20, 300),
       where=st.floats(0.0, 1.0), kind=st.sampled_from(
           ["knot", "mid", "any", "small"]))
@example(power=3, scale=1.84375, gauss=True, n=236, where=0.0, kind="small")
def test_im_matches_principal_value_on_random_tables(power, scale, gauss, n,
                                                     where, kind):
    """J = ω^k·exp(−(ω/ωc)^p) on a random grid, p = 1 or 2."""
    top = scale * (6.0 if gauss else 30.0)
    w = np.linspace(0.0, top, n)
    p = 2.0 if gauss else 1.0
    sd = TabulatedSD(w, w ** power * np.exp(-(w / scale) ** p))
    k = 1 + int(where * (n - 3))
    omega = {"knot": w[k], "mid": 0.5 * (w[k] + w[k + 1]),
             "any": 2.0 * top * max(where, 1e-3),
             "small": 10.0 ** (-7.0 + 5.0 * where)}[kind]
    g = complex(sd.gamma_tilde_vec(omega))
    assert abs(g.imag - pv_im(sd, omega)) <= 1e-7 * abs(g)


def fine_peaked_table():
    grid = np.arange(0.0, 30.0 + 1e-9, 0.0025)
    vals = PEAKED.j(grid)
    vals[0] = 0.0
    return TabulatedSD(grid, vals)


def test_derivative_matches_analytic_peaked_kernel():
    tab = fine_peaked_table()
    omega = np.array([0.3, 0.8, 1.0, 1.3, 2.6, 5.0])
    ref = PEAKED.gamma_tilde_prime_vec(omega)
    assert np.all(np.abs(tab.gamma_tilde_prime_vec(omega) - ref)
                  <= 1e-5 * np.abs(ref))


def test_derivative_matches_central_difference_of_kernel():
    tab = peaked_table(241)
    # midpoints between knots, where γ̃ is smooth on the stencil's scale;
    # a fourth-order stencil keeps both truncation and rounding small
    omega = (np.array([0, 2, 7, 11, 12, 15, 40, 100, 150, 239]) + 0.5) / 6.0
    step = 4e-3
    g = tab.gamma_tilde_vec
    diff = (8.0 * (g(omega + step) - g(omega - step))
            - (g(omega + 2.0 * step) - g(omega - 2.0 * step))) / (12.0 * step)
    prime = tab.gamma_tilde_prime_vec(omega)
    assert np.all(np.abs(prime - diff) <= 1e-6 * np.abs(prime) + 1e-9)


def test_derivative_at_zero_is_the_finite_part():
    # Im γ̃′ ≈ (J″(0)/π)·log ω + const as ω → 0; the value at 0 is const
    tab = peaked_table(241)
    slope = 2.0 * tab._interp.c[1, 0] / math.pi
    at_zero = tab.gamma_tilde_prime_vec(0.0)
    assert at_zero.real == 0.0
    for w in (1e-6, 1e-8):
        im = tab.gamma_tilde_prime_vec(w).imag
        assert im - slope * math.log(w) == pytest.approx(at_zero.imag,
                                                         abs=1e-8)


def test_derivative_below_the_normal_squares_keeps_its_log_form():
    # below |ω| = 1e-150, ω² and E(ω) leave the normal floats; the
    # difference quotient of the kernel gave NaN there (0/0).  The
    # bound is that of the finite part above.
    tab = peaked_table(241)
    slope = 2.0 * tab._interp.c[1, 0] / math.pi
    at_zero = tab.gamma_tilde_prime_vec(0.0).imag
    w = np.array([1e-320, 1e-300, 1e-200, 1e-160, 9.99e-151, 1.001e-150,
                  1e-140, 1e-100])
    for sign in (1.0, -1.0):
        im = tab.gamma_tilde_prime_vec(sign * w).imag
        assert im - slope * np.log(w) == pytest.approx(
            np.full(w.size, at_zero), abs=1e-8)


def test_kernel_below_the_normal_squares_is_its_zero_limit():
    # at the smallest subnormal ω/top underflowed to 0, and γ̃ was NaN
    tab = peaked_table(241)
    g0 = tab.gamma_tilde_vec(0.0)
    w = np.array([5e-324, 1e-320, 1e-200, 9.99e-151])
    for sign in (1.0, -1.0):
        g = tab.gamma_tilde_vec(sign * w)
        assert np.all(g.imag == 0.0)
        assert g.real == pytest.approx(np.full(w.size, g0.real), rel=1e-15)


def test_kernel_is_finite_at_the_table_end():
    # J(top) ≠ 0 makes Im γ̃ log-singular at top, where the finite part
    # is returned; with J(top) = 0, Im γ̃ is continuous there
    ends_high = exp_table(301, 48.0)
    assert ends_high.values[-1] > 0.0
    assert np.isfinite(ends_high.gamma_tilde_vec(48.0))
    assert np.isfinite(ends_high.gamma_tilde_prime_vec(48.0))
    w = np.linspace(0.0, 48.0, 301)
    j = 0.4 * w * np.exp(-w / 4.0)
    j[-1] = 0.0
    ends_zero = TabulatedSD(w, j)
    at, near = ends_zero.gamma_tilde_vec(np.array([48.0, 48.0 + 1e-9]))
    assert np.isfinite(ends_zero.gamma_tilde_prime_vec(48.0))
    assert abs(at - near) < 1e-7 * abs(at)


def _bits(a):
    return np.ascontiguousarray(a).view(np.float64)


@pytest.mark.parametrize("n, top", [(301, 48.0), (3001, 70.0)])
def test_values_do_not_depend_on_the_batch(n, top):
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, top, n)
    omega = np.concatenate([rng.uniform(-2.5 * top, 2.5 * top, 200),
                            grid[1:40], [1e-7, 0.0, 2.0 * top]])
    whole = exp_table(n, top)
    gam, prime = whole.gamma_tilde_vec(omega), whole.gamma_tilde_prime_vec(
        omega)

    single = exp_table(n, top)
    one_by_one = [single.gamma_tilde_vec(w) for w in omega[::-1]][::-1]
    assert np.array_equal(_bits(gam), _bits(one_by_one))
    one_by_one = [single.gamma_tilde_prime_vec(w) for w in omega]
    assert np.array_equal(_bits(prime), _bits(one_by_one))

    shuffled = exp_table(n, top)
    shuffled.gamma_tilde_vec(rng.uniform(0.0, top, 500))
    perm = rng.permutation(omega.size)
    out = np.empty_like(gam)
    out[perm] = shuffled.gamma_tilde_vec(omega[perm])
    assert np.array_equal(_bits(out), _bits(gam))
    assert np.array_equal(
        _bits(shuffled.gamma_tilde_prime_vec(omega.reshape(-1, 2)).ravel()),
        _bits(prime))


def test_memo_is_capped_and_refills_identically():
    sd = exp_table(41, 48.0)
    omega = np.array([0.7, 3.3, 47.9])
    first = sd.gamma_tilde_prime_vec(omega)
    sd.gamma_tilde_vec(np.linspace(0.01, 90.0, spectral._MEMO_CAP + 10))
    keys, _ = sd._memo
    assert keys.size <= spectral._MEMO_CAP + 10
    assert not np.isin(omega, keys).any()
    assert np.array_equal(_bits(sd.gamma_tilde_prime_vec(omega)),
                          _bits(first))


def test_memo_overflow_keeps_the_hits_of_its_batch():
    # a batch that overflows the memo mixes points the memo held with
    # new ones; every value must still be the one a fresh table gives
    sd = exp_table(41, 48.0)
    sd.gamma_tilde_vec(np.linspace(0.01, 40.0, spectral._MEMO_CAP - 5))
    batch = np.array([0.01, 7.5, 41.0, 45.0, 46.0, 47.0, 48.5, 49.5, 50.5,
                      51.5])
    assert np.array_equal(_bits(sd.gamma_tilde_vec(batch)),
                          _bits(exp_table(41, 48.0).gamma_tilde_vec(batch)))


def power_table(k, n):
    """J = 0.4·ω·(ω/2)^(k−1)·e^(−ω/2) on n knots over [0, 50]."""
    w = np.linspace(0.0, 50.0, n)
    return TabulatedSD(w, 0.4 * w * (w / 2.0) ** (k - 1) * np.exp(-w / 2.0))


@st.composite
def table_batches(draw):
    """(k, n) of a table and up to 64 frequencies from 0, 1e-160, the
    knots, top, 2·top and its neighbours, and [0, 3·top], each of either
    sign, in the order drawn."""
    k, n = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from(
        [41, 201, 301]))
    knots = np.linspace(0.0, 50.0, n)
    top = knots[-1]
    marks = [0.0, 1e-160, top, 2.0 * top, np.nextafter(2.0 * top, 0.0),
             np.nextafter(2.0 * top, np.inf), 2.0 * top * (1.0 - 1e-12),
             2.0 * top * (1.0 + 1e-12)]
    points = st.one_of(st.sampled_from(marks), st.sampled_from(list(knots)),
                       st.floats(0.0, 3.0 * top))
    omega = draw(st.lists(st.tuples(points, st.sampled_from([1.0, -1.0])),
                          min_size=1, max_size=64))
    return k, n, np.array([sign * w for w, sign in omega])


@settings(max_examples=25, deadline=None, database=None)
@given(table_batches())
def test_batch_values_are_the_one_by_one_values(case):
    # a value may not depend on its batch, on its neighbours in it, or on
    # what the memo held when it came: a fresh table one frequency at a
    # time, and one whose memo an unrelated batch overflowed, give the
    # batch's bits
    k, n, omega = case
    batch = power_table(k, n)
    gam, prime = batch.gamma_tilde_vec(omega), batch.gamma_tilde_prime_vec(
        omega)
    single = power_table(k, n)
    assert np.array_equal(_bits(gam), _bits(
        [single.gamma_tilde_vec(w) for w in omega]))
    assert np.array_equal(_bits(prime), _bits(
        [single.gamma_tilde_prime_vec(w) for w in omega]))
    full = power_table(k, n)
    full.gamma_tilde_vec(np.linspace(125.0, 200.0, spectral._MEMO_CAP + 1))
    assert full._memo[0].size > spectral._MEMO_CAP
    assert np.array_equal(_bits(full.gamma_tilde_vec(omega)), _bits(gam))
    assert np.array_equal(_bits(full.gamma_tilde_prime_vec(omega)),
                          _bits(prime))


def test_roughness_check_separates_smooth_from_noisy_tables():
    smooth = [peaked_table(201), peaked_table(241), exp_table(301, 48.0),
              exp_table(3001, 70.0)]
    for sd in smooth:
        assert sd._roughness_gap() < 0.05
    for sd in (alternating_table(), noisy_cli_table()):
        assert sd._roughness_gap() > 0.5
        with pytest.raises(DerivativeUnstable, match="every-other-knot"):
            sd.gamma_tilde_prime_vec(np.array([2.5]))


SMOOTH_N1 = {
    "exp-3001": lambda: exp_table(3001, 70.0),
    "peaked-201": lambda: peaked_table(201),
    "peaked-241": lambda: peaked_table(241),
}


@pytest.mark.parametrize("name", sorted(SMOOTH_N1))
def test_n1_on_smooth_tables(name):
    report = quantify(ModelParams(omega0=1.0, beta=1.0, hbar=0.0),
                      SMOOTH_N1[name](), which="n1")
    assert np.all((report.n1 >= 0.0) & (report.n1 <= 1.0))
    assert report.n1[0, 0] > 0.0


def test_n1_on_sampled_peaked_table_tracks_the_analytic_bath():
    p = ModelParams(omega0=1.0, beta=1.0, hbar=0.0)
    tab = quantify(p, peaked_table(241), which="n1").n1
    ref = quantify(p, PEAKED, which="n1").n1
    assert np.all(np.abs(tab - ref) < 1e-3)


@pytest.mark.parametrize("name", sorted(SMOOTH_N1))
def test_n1_on_smooth_tables_from_the_cli(name, tmp_path, capsys):
    sd = SMOOTH_N1[name]()
    path = tmp_path / "table.txt"
    np.savetxt(path, np.column_stack([sd.frequencies, sd.values]),
               fmt="%.17g")
    rc = cli.main(["--mode", "quantify", "--sd", f"tabulated:{path}",
                   "--hbar", "0", "--quantifier", "n1"])
    out = capsys.readouterr().out
    assert rc == 0
    values = dict(line.split(" = ") for line in out.splitlines()
                  if line.startswith("n1_"))
    assert set(values) == {"n1_qq", "n1_qp", "n1_pp"}
    assert all(0.0 <= float(v) <= 1.0 for v in values.values())
