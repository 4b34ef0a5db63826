"""End-to-end checks of the command line driver: exit codes, CSV output,
configuration precedence and the built-in oracle comparisons."""
from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from nonmarkov import cli, quantifiers, response
from nonmarkov.errors import CutoffSensitive, NumericsError
from nonmarkov.oracle import LangevinResult
from nonmarkov.quantifiers import quantify
from nonmarkov.response import ModelParams, propagate_means
from nonmarkov.spectral import OhmicSD, PeakedSD, TabulatedSD


@pytest.fixture(scope="session")
def smooth_table(tmp_path_factory) -> Path:
    """Dense exponential-cutoff table, well resolved for interpolation."""
    path = tmp_path_factory.mktemp("tables") / "smooth.txt"
    w = np.linspace(0.0, 70.0, 3001)
    j = 0.4 * w * np.exp(-w / 4.0)
    np.savetxt(path, np.column_stack([w, j]))
    return path


@pytest.fixture(scope="session")
def jagged_table(tmp_path_factory) -> Path:
    """The same table with 2% multiplicative noise; the derivative of
    the interpolant is garbage at the sample spacing."""
    path = tmp_path_factory.mktemp("tables") / "jagged.txt"
    rng = np.random.default_rng(41)
    w = np.linspace(0.0, 70.0, 3001)
    j = 0.4 * w * np.exp(-w / 4.0)
    j *= 1.0 + 0.02 * rng.standard_normal(w.size)
    j = np.abs(j)
    j[0] = 0.0
    j[-1] = 0.0
    np.savetxt(path, np.column_stack([w, j]))
    return path


# a valid value other than the default for every setting
SETTING_SAMPLES = {
    "mode": "means", "sd": "peaked", "d": "0.3", "gamma": "0.7",
    "omega-big": "1.5", "beta": "2.5", "hbar": "0", "cutoff": "50",
    "param": "hbar", "range": "0:1:3", "quantifier": "n2", "aq": "0.25",
    "ap": "-0.5", "seed": "7", "out": "x.csv",
}


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def stdout_values(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


class TestQuantifyMode:
    def test_prints_all_columns(self, capsys):
        rc = cli.main(["--mode", "quantify", "--sd", "ohmic", "--d", "0.5",
                       "--quantifier", "n1"])
        assert rc == 0
        values = stdout_values(capsys.readouterr().out)
        assert set(values) == {"n1_qq", "n1_qp", "n1_pp", "cutoff_drift"}
        for key in ("n1_qq", "n1_qp", "n1_pp"):
            assert 0.0 <= float(values[key]) <= 1.0

    def test_matches_library_call(self, capsys):
        rc = cli.main(["--mode", "quantify", "--sd", "ohmic", "--d", "1",
                       "--quantifier", "n1"])
        assert rc == 0
        values = stdout_values(capsys.readouterr().out)
        report = quantify(ModelParams(omega0=1.0, beta=1.0, hbar=1.0),
                          OhmicSD(1.0), which="n1")
        assert math.isclose(float(values["n1_qq"]), report.n1[0, 0],
                            abs_tol=1e-9)
        assert math.isclose(float(values["n1_qp"]), report.n1[0, 1],
                            abs_tol=1e-9)

    def test_writes_single_row_csv(self, tmp_path, capsys):
        out = tmp_path / "point.csv"
        rc = cli.main(["--mode", "quantify", "--sd", "ohmic", "--d", "0.5",
                       "--quantifier", "n1", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["error"] == ""
        assert 0.0 <= float(rows[0]["n1_qq"]) <= 1.0

    def test_failure_replaces_an_old_csv_with_an_error_row(self, tmp_path,
                                                           capsys):
        out = tmp_path / "point.csv"
        out.write_text("stale,junk\n", encoding="utf-8")
        # a peaked bath whose resonance doubles cannot resolve (the guard)
        rc = cli.main(["--mode", "quantify", "--sd", "peaked", "--d", "1e-6",
                       "--quantifier", "n1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("numerical failure: ")
        rows = read_csv(out)
        assert len(rows) == 1
        assert list(rows[0]) == ["n1_qq", "n1_qp", "n1_pp", "cutoff_drift",
                                 "error"]
        assert all(rows[0][key] == "" for key in list(rows[0])[:-1])
        assert rows[0]["error"] == err.split(": ", 1)[1].strip()


class TestSweepMode:
    def test_ohmic_coupling_sweep_is_monotone(self, tmp_path, capsys):
        out = tmp_path / "dsweep.csv"
        rc = cli.main(["--mode", "sweep", "--sd", "ohmic", "--param", "d",
                       "--range", "0.01:10:4:log", "--quantifier", "n1",
                       "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        rows = read_csv(out)
        qq = [float(r["n1_qq"]) for r in rows]
        assert len(qq) == 4
        assert all(a < b for a, b in zip(qq, qq[1:]))
        assert all(r["error"] == "" for r in rows)

    def test_peaked_width_sweep_peaks_inside(self, tmp_path, capsys):
        out = tmp_path / "gsweep.csv"
        rc = cli.main(["--mode", "sweep", "--sd", "peaked", "--d", "0.75",
                       "--omega-big", "1.0", "--param", "gamma",
                       "--range", "0.05:4:5:log", "--quantifier", "n1",
                       "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        qq = [float(r["n1_qq"]) for r in read_csv(out)]
        best = qq.index(max(qq))
        assert 0 < best < len(qq) - 1

    def test_identical_runs_produce_identical_bytes(self, tmp_path, capsys):
        args = ["--mode", "sweep", "--sd", "ohmic", "--param", "beta",
                "--range", "0.5:2:2", "--quantifier", "n1"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_beta_sweep_searches_the_resonances_once(self, tmp_path,
                                                     monkeypatch, capsys):
        # the breakpoints depend on ω₀ and the bath only, not on β; a
        # table takes the quadrature pass for n1, n2 and the covariances
        table = tmp_path / "peaked.txt"
        w = np.linspace(0.0, 40.0, 201)
        np.savetxt(table, np.column_stack(
            [w, 0.5 * w / ((w * w - 4.0) ** 2 + 0.25 * w * w)]))
        calls = []
        search = TabulatedSD.feature_frequencies
        monkeypatch.setattr(TabulatedSD, "feature_frequencies",
                            lambda sd, w0: calls.append(w0) or search(sd, w0))
        response._feature_frequencies.cache_clear()
        rc = cli.main(["--mode", "sweep", "--sd", f"tabulated:{table}",
                       "--param", "beta", "--range", "0.5:2:4", "--out",
                       str(tmp_path / "b.csv")])
        capsys.readouterr()
        assert rc == 0
        assert len(read_csv(tmp_path / "b.csv")) == 4
        assert calls == [1.0]

    def test_cold_quantum_n2_sweep_has_no_failed_rows(self, tmp_path,
                                                       capsys):
        # βħ ≳ 2 once overflowed the tail fit of the windowed pass, which
        # the pass over [0, ∞) replaced; these rows now take the Matsubara
        # sums, and the sweep must still end with no failed row
        out = tmp_path / "cold.csv"
        rc = cli.main(["--mode", "sweep", "--sd", "peaked", "--param",
                       "beta", "--range", "1:2.614:8", "--hbar", "1",
                       "--quantifier", "n2", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 8
        for row in rows:
            assert row["error"] == ""
            for key in ("n2_qq", "n2_qp", "n2_pp"):
                assert 0.0 <= float(row[key]) <= 1.0

    def test_log_sweep_writes_plot_script(self, tmp_path, capsys):
        out = tmp_path / "plotme.csv"
        rc = cli.main(["--mode", "sweep", "--sd", "ohmic", "--param", "d",
                       "--range", "0.1:1:2:log", "--quantifier", "n1",
                       "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        script = (tmp_path / "plotme.gp").read_text(encoding="utf-8")
        assert "set datafile separator ','" in script
        assert "set logscale x" in script
        assert "plotme.csv" in script

    def test_tabulated_spectrum_quantifier(self, smooth_table, capsys):
        rc = cli.main(["--mode", "quantify",
                       "--sd", f"tabulated:{smooth_table}",
                       "--hbar", "0", "--quantifier", "n2"])
        assert rc == 0
        values = stdout_values(capsys.readouterr().out)
        assert 0.05 < float(values["n2_qq"]) < 1.0
        assert 0.0 <= float(values["n2_qp"]) <= 1.0

    def test_noisy_table_yields_sentinel_rows_and_exit_3(
            self, jagged_table, tmp_path, capsys):
        out = tmp_path / "noisy.csv"
        rc = cli.main(["--mode", "sweep",
                       "--sd", f"tabulated:{jagged_table}",
                       "--param", "beta", "--range", "0.5:2:2",
                       "--quantifier", "n1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "numerical failure at beta" in err
        rows = read_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert row["n1_qq"] == ""
            assert row["error"] != ""


class TestTabulatedSweepReuse:
    """A β or ħ sweep reads its table once and reuses the kernel."""

    def _sweep(self, table, out):
        return cli.main(["--mode", "sweep", "--sd", f"tabulated:{table}",
                         "--param", "beta", "--range", "0.5:2:3",
                         "--hbar", "1", "--quantifier", "both",
                         "--out", str(out)])

    def test_table_is_read_once_and_rows_match_fresh_builds(
            self, tmp_path, monkeypatch, capsys):
        w = np.linspace(0.0, 40.0, 201)
        j = PeakedSD(coupling=1.0, width=0.5, resonance=2.0).j(w)
        j[0] = 0.0
        table = tmp_path / "peaked.txt"
        np.savetxt(table, np.column_stack([w, j]))

        loads = []
        load = TabulatedSD.from_file.__func__

        def counting(cls, path):
            loads.append(path)
            return load(cls, path)

        monkeypatch.setattr(TabulatedSD, "from_file", classmethod(counting))
        reused = tmp_path / "reused.csv"
        assert self._sweep(table, reused) == 0
        assert len(loads) == 1

        # every point quantified on a table read afresh
        batch_reports = cli._batch_reports
        monkeypatch.setattr(
            cli, "_batch_reports",
            lambda points, which: batch_reports(
                [(p, TabulatedSD.from_file(table)) for p, _ in points], which))
        fresh = tmp_path / "fresh.csv"
        assert self._sweep(table, fresh) == 0
        # the sweep's own read, then one read per point: a table is keyed
        # by its identity, so each point computes its own n1 and n2
        assert len(loads) == 1 + 1 + 3
        capsys.readouterr()
        assert reused.read_bytes() == fresh.read_bytes()


def per_point_reports(points, which):
    """``quantifiers._batch_reports`` as one quantify call per point."""
    reports = []
    for point in points:
        try:
            reports.append(quantify(*point, which=which))
        except NumericsError as exc:
            reports.append(exc)
    return reports


def spy_rows(monkeypatch):
    """The list of (quantifier, ħ) of every row that reaches a kernel:
    the closed forms, the Matsubara sums or the pass."""
    seen = []
    closed = quantifiers._closed_forms
    sums = quantifiers._quantum_sums
    single = quantifiers._quantifier_matrix
    monkeypatch.setattr(
        quantifiers, "_closed_forms", lambda rows, prefix: seen.extend(
            (prefix, r.p.hbar) for r in rows) or closed(rows, prefix))
    monkeypatch.setattr(
        quantifiers, "_quantum_sums", lambda rows: seen.extend(
            ("n2", r.p.hbar) for r in rows) or sums(rows))
    monkeypatch.setattr(
        quantifiers, "_quantifier_matrix",
        lambda p, sd, prefix, *rest: seen.append((prefix, p.hbar))
        or single(p, sd, prefix, *rest))
    return seen


class TestSweepSharesN1:
    """A β or ħ sweep computes n1 once; its CSV is the same, byte for
    byte, as the rows built from quantify at every point."""

    @pytest.fixture(scope="class")
    def peaked_table(self, tmp_path_factory) -> Path:
        path = tmp_path_factory.mktemp("tables") / "peaked201.txt"
        w = np.linspace(0.0, 40.0, 201)
        j = PeakedSD(coupling=1.0, width=0.5, resonance=2.0).j(w)
        np.savetxt(path, np.column_stack([w, j]))
        return path

    @pytest.mark.parametrize("which", ["both", "n1"])
    @pytest.mark.parametrize("param, grid", [("beta", "0.5:2:3"),
                                             ("hbar", "0:1:3")])
    @pytest.mark.parametrize("bath", ["ohmic", "peaked", "table"])
    def test_rows_match_per_point_quantify(self, bath, param, grid, which,
                                           peaked_table, tmp_path,
                                           monkeypatch, capsys):
        sd = f"tabulated:{peaked_table}" if bath == "table" else bath
        args = ["--mode", "sweep", "--sd", sd, "--param", param,
                "--range", grid, "--quantifier", which]

        def sweep(out):
            # the quantum Ohmic n2 rows warn that c_pp is cutoff-limited
            with (pytest.warns(CutoffSensitive)
                  if bath == "ohmic" and which == "both"
                  else warnings.catch_warnings()):
                assert cli.main(args + ["--out", str(out)]) == 0
            return out.read_bytes()

        with monkeypatch.context() as m:
            seen = spy_rows(m)
            shared = sweep(tmp_path / "shared.csv")
        # one n1 row for the sweep, and every point's own n2: the ħ grid
        # starts at ħ = 0, the one classical row
        hbars = [1.0] * 3 if param == "beta" else [0.0, 0.5, 1.0]
        assert seen == [("n1", hbars[0])] + (
            [("n2", h) for h in hbars] if which == "both" else [])

        monkeypatch.setattr(cli, "_batch_reports", per_point_reports)
        per_point = sweep(tmp_path / "per_point.csv")
        capsys.readouterr()
        assert shared == per_point

    @pytest.mark.parametrize("which", ["both", "n1", "n2"])
    @pytest.mark.parametrize("bath", [
        ["--sd", "ohmic", "--d", "0.7"],
        ["--sd", "peaked", "--d", "0.75", "--gamma", "0.63",
         "--omega-big", "1"],
        # refused by the closed forms' guard (the mode at ω ≈ 1)
        ["--sd", "peaked", "--d", "1e-6", "--gamma", "0.5",
         "--omega-big", "2"]], ids=["ohmic", "peaked", "refused"])
    def test_classical_beta_sweep_quantifies_once(self, bath, which,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        # n1 and classical n2 do not depend on β, so one row computes
        # the report of every row, and a failing one fails every row
        # with its message
        refused = "1e-6" in bath
        args = ["--mode", "sweep", *bath, "--param", "beta", "--range",
                "0.3:5:4:log", "--hbar", "0", "--quantifier", which]
        shared = tmp_path / "shared.csv"
        with monkeypatch.context() as m:
            seen = spy_rows(m)
            assert cli.main(args + ["--out", str(shared)]) == 3 * refused
        # a refused n1 leaves n2 uncomputed
        wanted = [q for q in ("n1", "n2") if which in (q, "both")]
        assert seen == [(q, 0.0) for q in wanted][:1 if refused else 2]

        monkeypatch.setattr(cli, "_batch_reports", per_point_reports)
        per_point = tmp_path / "per_point.csv"
        assert cli.main(args + ["--out", str(per_point)]) == 3 * refused
        capsys.readouterr()
        assert shared.read_bytes() == per_point.read_bytes()
        errors = {row["error"] for row in read_csv(shared)}
        assert len(read_csv(shared)) == 4 and len(errors) == 1
        assert ("the mode of the drift matrix" in errors.pop()) == refused


class TestBatchedSweeps:
    """A sweep hands its grid to ``quantifiers._batch_reports`` as one
    batch; every row keeps its own route, value and failure, so the CSV
    is the same, byte for byte, as the one built point by point."""

    @staticmethod
    def _sweeps(args, tmp_path, monkeypatch):
        """The exit code and rows of the batched sweep, after checking
        that the per-point sweep exits alike with the same bytes."""
        batched, per_point = tmp_path / "batched.csv", tmp_path / "point.csv"
        with warnings.catch_warnings(record=True):
            code = cli.main(["--mode", "sweep", *args, "--out", str(batched)])
            with monkeypatch.context() as m:
                m.setattr(cli, "_batch_reports", per_point_reports)
                assert cli.main(["--mode", "sweep", *args,
                                 "--out", str(per_point)]) == code
        assert batched.read_bytes() == per_point.read_bytes()
        return code, read_csv(batched)

    @staticmethod
    def _panels(p, sd):
        return quantify(p, sd, "n2").diagnostics["n2_qq"].panels

    @pytest.mark.parametrize("args", [
        ["--param", "gamma", "--range", "0.2:2:8", "--hbar", "0"],
        ["--param", "omega-big", "--range", "1:3:8", "--hbar", "1"]],
        ids=["gamma", "omega-big"])
    def test_each_drift_row_is_built_once(self, args, tmp_path, monkeypatch,
                                          capsys):
        # n1 and n2 of a row, each guarded and solved, share one build of
        # its eigenvalues and one of its Lyapunov operators: each of the
        # 8 drift matrices reaches eigvals and _lyapunov once
        built = {"ops": [], "lam": []}
        lyapunov, eigvals = quantifiers._lyapunov, np.linalg.eigvals

        def ops(a):
            built["ops"] += [m.tobytes() for m in a]
            return lyapunov(a)

        def lam(a):
            if a.ndim == 3:  # the batch's stacks, not a lone matrix
                built["lam"] += [m.tobytes() for m in a]
            return eigvals(a)

        args = ["--sd", "peaked", *args, "--quantifier", "both"]
        with monkeypatch.context() as m:
            m.setattr(quantifiers, "_lyapunov", ops)
            m.setattr(np.linalg, "eigvals", lam)
            assert cli.main(["--mode", "sweep", *args, "--out",
                             str(tmp_path / "spied.csv")]) == 0
        assert len(built["ops"]) == len(set(built["ops"])) == 8
        assert sorted(built["lam"]) == sorted(built["ops"])
        code, rows = self._sweeps(args, tmp_path, monkeypatch)
        capsys.readouterr()
        assert code == 0 and len(rows) == 8

    def test_guard_refuses_the_first_row_alone(self, tmp_path, monkeypatch,
                                              capsys):
        code, rows = self._sweeps(["--sd", "peaked", "--param", "d",
                                   "--range", "1e-6:1:3"], tmp_path,
                                  monkeypatch)
        capsys.readouterr()
        assert code == 3
        assert "the mode of the drift matrix" in rows[0]["error"]
        for row in rows[1:]:
            assert row["error"] == ""
            assert 0.0 < float(row["n1_qq"]) < 1.0

    def test_ohmic_sums_and_stiff_passes_in_one_grid(self, tmp_path,
                                                     monkeypatch, capsys):
        # D = 20 and 30 take the Matsubara sums, the stiff 40 and 50 the
        # pass, each on its own Λ-cut covariances, which warn row by row
        # in grid order
        points = [(ModelParams(1.0, 1.0, 1.0), OhmicSD(d))
                  for d in (20.0, 30.0, 40.0, 50.0)]
        warned = []
        for run in (lambda: [quantify(*point) for point in points],
                    lambda: quantifiers._batch_reports(points, "both")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", CutoffSensitive)
                run()
            warned.append([str(w.message) for w in caught])
        assert len(warned[0]) == 4 and warned[1] == warned[0]
        with warnings.catch_warnings(record=True):
            assert [self._panels(*point) > 0 for point in points] == [
                False, False, True, True]
        code, rows = self._sweeps(["--sd", "ohmic", "--param", "d",
                                   "--range", "20:50:4", "--hbar", "1"],
                                  tmp_path, monkeypatch)
        capsys.readouterr()
        assert code == 0 and len(rows) == 4
        assert all(row["error"] == "" for row in rows)

    def test_beta_grid_across_the_term_cap(self, tmp_path, monkeypatch,
                                           capsys):
        # 636 terms at β = 200 take the sums; 1132 and more, the pass
        routes = [self._panels(ModelParams(1.0, float(beta), 1.0),
                               PeakedSD(1.0, 0.5, 2.0)) > 0
                  for beta in np.geomspace(200.0, 2000.0, 5)]
        assert routes == [False] + [True] * 4
        code, rows = self._sweeps(["--sd", "peaked", "--param", "beta",
                                   "--range", "200:2000:5:log", "--hbar", "1"],
                                  tmp_path, monkeypatch)
        capsys.readouterr()
        assert code == 0 and len(rows) == 5

    @staticmethod
    def _singular(monkeypatch):
        # the Lyapunov operator of the coupling 0.75 is zero
        lyapunov = quantifiers._lyapunov

        def singular(a):
            op, wide = lyapunov(a)
            hit = a[:, 1, 2] == 0.75
            op[hit], wide[hit] = 0.0, 0.0
            return op, wide
        monkeypatch.setattr(quantifiers, "_lyapunov", singular)
        return "n1_qq: the Lyapunov operator of the drift matrix is singular"

    @staticmethod
    def _non_finite(monkeypatch):
        # the products of the coupling 0.75 overflow
        products = quantifiers._n1_products

        def overflowing(rows, a, ops):
            value = products(rows, a, ops)
            value[a[:, 1, 2] == 0.75, 2, 1] = math.inf
            return value
        monkeypatch.setattr(quantifiers, "_n1_products", overflowing)
        return "n1_qp: an inner product of the closed form is not finite"

    @pytest.mark.parametrize("spoil", ["_singular", "_non_finite"])
    def test_a_failing_row_fails_alone(self, spoil, tmp_path, monkeypatch,
                                       capsys):
        message = getattr(self, spoil)(monkeypatch)
        code, rows = self._sweeps(["--sd", "peaked", "--param", "d",
                                   "--range", "0.5:1:3"], tmp_path,
                                  monkeypatch)
        capsys.readouterr()
        assert code == 3
        assert rows[1]["error"].startswith(message)
        assert rows[1]["n1_qq"] == rows[1]["n2_qq"] == ""
        for row in (rows[0], rows[2]):
            assert row["error"] == "" and 0.0 < float(row["n1_qp"]) < 1.0


class TestMeansMode:
    def test_rows_match_direct_propagation(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc = cli.main(["--mode", "means", "--sd", "ohmic", "--d", "0.2",
                       "--aq", "1.0", "--ap", "0.5",
                       "--range", "0:10:21", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 21
        p = ModelParams(omega0=1.0, beta=1.0)
        sd = OhmicSD(0.2)
        for row in rows[::5]:
            t = float(row["t"])
            q, pm = propagate_means(p, sd, 1.0, 0.5, t)
            assert math.isclose(float(row["q_mean"]), q, abs_tol=1e-9)
            assert math.isclose(float(row["p_mean"]), pm, abs_tol=1e-9)

    def test_default_output_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["--mode", "means", "--sd", "ohmic", "--d", "0.2",
                       "--range", "0:1:3"])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "nonmarkov_means.csv").exists()
        assert (tmp_path / "nonmarkov_means.gp").exists()

    def test_failing_time_yields_sentinel_row_and_exit_3(self, smooth_table,
                                                         tmp_path, capsys):
        # a table's χ(t) comes from the transforms of χ̃, and no window
        # within the panel cap bounds their tail at t = 1e4
        out = tmp_path / "m.csv"
        rc = cli.main(["--mode", "means", "--sd", f"tabulated:{smooth_table}",
                       "--range", "0:1e4:2", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "numerical failure at t = 10000 (1 of 2 grid points)" in err
        rows = read_csv(out)
        assert [row["t"] for row in rows] == ["0", "10000"]
        assert rows[0]["q_mean"] != "" and rows[0]["error"] == ""
        assert rows[1]["q_mean"] == rows[1]["p_mean"] == ""
        assert "t = 10000" in rows[1]["error"]
        assert out.with_suffix(".gp").exists()


class TestConfiguration:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
        rc = cli.main(["--mode", "quantify", "--config", str(cfg)])
        assert rc == 2
        assert "config error: key 'bogus'" in capsys.readouterr().err

    def test_bad_quantifier_exits_2(self, capsys):
        rc = cli.main(["--mode", "quantify", "--quantifier", "n3"])
        assert rc == 2
        assert "key 'quantifier'" in capsys.readouterr().err

    def test_bad_mode_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = juggle\n", encoding="utf-8")
        rc = cli.main(["--config", str(cfg)])
        assert rc == 2
        assert "key 'mode'" in capsys.readouterr().err

    def test_malformed_range_exits_2(self, capsys):
        rc = cli.main(["--mode", "sweep", "--sd", "ohmic", "--param", "d",
                       "--range", "1:2"])
        assert rc == 2
        rc = cli.main(["--mode", "sweep", "--sd", "ohmic", "--param", "d",
                       "--range", "0:5:3:log"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("key", list(cli._SETTINGS))
    def test_flag_and_config_line_agree(self, key, tmp_path):
        value = SETTING_SAMPLES[key]
        mode = [] if key == "mode" else ["--mode", "quantify"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        parser = cli._build_parser()
        by_flag = cli._settings_from(
            parser.parse_args(mode + [f"--{key}", value]))
        by_file = cli._settings_from(
            parser.parse_args(mode + ["--config", str(cfg)]))
        assert by_flag == by_file
        assert by_flag[key] != cli._SETTINGS[key][1]

    @pytest.mark.parametrize("flags, key", [
        (["--mode", "quantify", "--beta", "abc"], "beta"),
        (["--mode", "quantify", "--seed", "1.5"], "seed"),
        (["--mode", "juggle"], "mode"),
        (["--mode", "quantify", "--param", "width"], "param"),
    ])
    def test_bad_flag_value_names_its_key(self, flags, key, capsys):
        assert cli.main(flags) == 2
        assert f"config error: key '{key}'" in capsys.readouterr().err

    def test_bad_sweep_value_is_named_by_the_model(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["--mode", "sweep", "--param", "beta",
                       "--range=-1:1:3", "--out", str(out)])
        assert rc == 2
        assert ("config error: key 'beta': beta must be > 0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_value_starting_with_a_dash_reaches_the_model(self, tmp_path,
                                                          capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["--mode", "sweep", "--param", "beta",
                       "--range", "-1:1:3", "--out", str(out)])
        assert rc == 2
        assert ("config error: key 'beta': beta must be > 0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_negative_kick_as_a_separate_value(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc = cli.main(["--mode", "means", "--aq", "-1e-3", "--range",
                       "0:5:6", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        row = read_csv(out)[-1]
        q, pm = propagate_means(ModelParams(omega0=1.0, beta=1.0),
                                OhmicSD(1.0), -1e-3, 1.0, 5.0)
        assert math.isclose(float(row["q_mean"]), q, abs_tol=1e-9)
        assert math.isclose(float(row["p_mean"]), pm, abs_tol=1e-9)

    @pytest.mark.parametrize("flag, key", [("--aq", "aq"), ("--ap", "ap")])
    @pytest.mark.parametrize("kick", ["nan", "inf", "-inf"])
    def test_non_finite_kick_exits_2(self, flag, key, kick, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc = cli.main(["--mode", "means", "--sd", "ohmic", "--range", "0:2:3",
                       flag, kick, "--out", str(out)])
        assert rc == 2
        assert f"config error: key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:nan:3", "0:inf:3"])
    def test_non_finite_time_range_exits_2(self, grid, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc = cli.main(["--mode", "means", "--sd", "peaked", "--range", grid,
                       "--out", str(out)])
        assert rc == 2
        assert "config error: key 'range'" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_parameter_rules(self, smooth_table, capsys):
        # width only makes sense for the peaked family
        rc = cli.main(["--mode", "sweep", "--sd", "ohmic",
                       "--param", "gamma", "--range", "0.1:1:3"])
        assert rc == 2
        # tabulated data has no overall coupling knob
        rc = cli.main(["--mode", "sweep",
                       "--sd", f"tabulated:{smooth_table}",
                       "--param", "d", "--range", "0.1:1:3"])
        assert rc == 2
        # sweeping requires a grid
        rc = cli.main(["--mode", "sweep", "--sd", "ohmic", "--param", "d"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flags, key", [
        (["--beta", "-1"], "beta"),
        (["--hbar", "-1"], "hbar"),
        (["--cutoff", "0.5"], "cutoff"),
        (["--sd", "peaked", "--quantifier", "n2", "--cutoff", "inf"],
         "cutoff"),
        (["--beta", "inf", "--hbar", "0"], "beta"),
        (["--hbar", "inf"], "hbar"),
    ])
    def test_bad_model_parameter_names_its_key(self, flags, key, capsys):
        rc = cli.main(["--mode", "quantify"] + flags)
        assert rc == 2
        assert f"config error: key '{key}': {key} " in capsys.readouterr().err

    @pytest.mark.parametrize("flag, name", [("--gamma", "width"),
                                            ("--omega-big", "resonance")])
    def test_infinite_peak_shape_names_it(self, flag, name, capsys):
        rc = cli.main(["--mode", "quantify", "--sd", "peaked",
                       "--quantifier", "n2", flag, "inf"])
        assert rc == 2
        assert f"config error: key 'sd': {name} must be finite" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [
        ("--omega-big", "1e-300", "resonance"),
        ("--gamma", "1e200", "width"),
        ("--d", "1e200", "coupling"),
    ])
    def test_peak_shape_out_of_the_floats_names_it(self, flag, value, name,
                                                  capsys):
        rc = cli.main(["--mode", "quantify", "--sd", "peaked", flag, value])
        assert rc == 2
        assert f"config error: key 'sd': {name} must be finite" in \
            capsys.readouterr().err

    def test_overflowing_counter_term_names_the_coupling(self, capsys):
        rc = cli.main(["--mode", "quantify", "--sd", "peaked", "--d", "1e150",
                       "--omega-big", "1e-5"])
        assert rc == 2
        assert "config error: key 'sd': coupling " in capsys.readouterr().err

    def test_huge_ohmic_coupling_prints_its_true_n1(self, tmp_path, capsys):
        # every norm of Ohmic D = 1e300 on the quadrature pass is below
        # 1e-14, but the closed form has its values, and no power of D
        out = tmp_path / "point.csv"
        rc = cli.main(["--mode", "quantify", "--sd", "ohmic", "--d", "1e300",
                       "--quantifier", "n1", "--out", str(out)])
        assert rc == 0
        printed = stdout_values(capsys.readouterr().out)
        assert [printed[k] for k in ("n1_qq", "n1_qp", "n1_pp")] == [
            "1.000000000", "0.707106781", "0.000000000"]
        (row,) = read_csv(out)
        assert [float(row[k]) for k in ("n1_qq", "n1_qp", "n1_pp")] == \
            pytest.approx([1.0, math.sqrt(0.5), 1e-300], rel=1e-11, abs=0.0)
        out = tmp_path / "dsweep.csv"
        rc = cli.main(["--mode", "sweep", "--sd", "ohmic", "--param", "d",
                       "--range", "1:1e300:2", "--quantifier", "n1",
                       "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        first, last = read_csv(out)
        assert first["error"] == "" and float(first["n1_qq"]) > 0.5
        assert last["error"] == "" and float(last["n1_pp"]) == 1e-300

    def test_huge_ohmic_damping_is_a_numerical_failure(self, tmp_path,
                                                       capsys):
        # quantum n2, whose covariance quadrature fails (classical n2
        # and n1 are closed forms there)
        rc = cli.main(["--mode", "quantify", "--sd", "ohmic", "--d", "1e300",
                       "--hbar", "1", "--quantifier", "n2",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: covariance quadrature ")
        assert "not finite and > 0" in err

    def test_unknown_sd_exits_2(self, capsys):
        rc = cli.main(["--mode", "quantify", "--sd", "mystery"])
        assert rc == 2
        assert "key 'sd'" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 0.2  # overridden below\nquantifier = n1\n",
                       encoding="utf-8")
        rc = cli.main(["--mode", "quantify", "--config", str(cfg),
                       "--d", "1.0"])
        assert rc == 0
        with_config = stdout_values(capsys.readouterr().out)
        rc = cli.main(["--mode", "quantify", "--sd", "ohmic", "--d", "1.0",
                       "--quantifier", "n1"])
        assert rc == 0
        plain = stdout_values(capsys.readouterr().out)
        assert with_config == plain

    def test_warning_filters_are_left_as_found(self, tmp_path, capsys):
        before = list(warnings.filters)
        rc = cli.main(["--mode", "quantify", "--quantifier", "n2",
                       "--out", str(tmp_path / "q.csv")])
        capsys.readouterr()
        assert rc == 0
        assert warnings.filters == before

    def test_parser_is_built_once_and_keeps_no_value(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "_mode_quantify",
                            lambda settings: seen.append(settings) or 0)
        assert cli.main(["--mode", "quantify", "--d", "0.3"]) == 0
        assert cli.main(["--mode", "quantify"]) == 0
        assert seen[0]["d"] == 0.3
        assert seen[1]["d"] == cli._SETTINGS["d"][1]
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("mode", ["quantify", "means", "oracle-check"])
    def test_every_mode_checks_the_cutoff_first(self, mode, monkeypatch,
                                                capsys):
        # oracle-check is classical and ignores ħ and the cutoff, but a
        # bad cutoff is named there as in the other modes
        def refuse(*args, **kwargs):
            raise AssertionError("work ran before the settings were checked")

        for name in ("langevin_means", "quantify", "propagate_means"):
            monkeypatch.setattr(cli, name, refuse)
        assert cli.main(["--mode", mode, "--hbar", "5",
                         "--cutoff", "0.5"]) == 2
        assert "config error: key 'cutoff'" in capsys.readouterr().err

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--help"])
        assert info.value.code == 0
        assert "--omega-big" in capsys.readouterr().out


def oracle_check() -> int:
    """``oracle-check`` with its defaults; its Ohmic quantum-n2 case warns
    that the momentum variance is cutoff-limited."""
    with pytest.warns(CutoffSensitive):
        return cli.main(["--mode", "oracle-check"])


class TestOracleCheckMode:
    def test_consistent_implementations_pass(self, capsys):
        rc = oracle_check()
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("-> pass") == 3
        assert "langevin vs propagation" in out
        assert "embedding vs frequency-domain response" in out
        closed = out.splitlines()[2]
        assert closed.startswith("closed forms vs quadrature (n1, classical "
                                 "n2, quantum n2 by Matsubara sums): worst "
                                 "|dn²| = ")
        assert closed.endswith(" bath (tolerance 1e-07) -> pass") or \
            closed.endswith(" bath at ħ = 1 (tolerance 1e-07) -> pass")
        assert float(closed.split("= ")[1].split()[0]) <= 1e-7

    def test_a_wrong_matsubara_sum_is_caught(self, monkeypatch, capsys):
        # quantum n2 of each bath by Matsubara sums, against its pass, with
        # ⟨S, T⟩ scaled on that bath's drift matrix alone (2×2 Ohmic, 4×4
        # peaked); a stand-in ensemble skips the Monte Carlo run the line
        # ignores
        times = np.linspace(0.0, 20.0, 2001)
        zeros, ones = np.zeros_like(times), np.ones_like(times)
        monkeypatch.setattr(cli, "langevin_means", lambda cfg: LangevinResult(
            times, zeros, zeros, ones, ones))
        products = quantifiers._n2_quantum_products
        for bath, size in (("Ohmic", 2), ("peaked", 4)):
            def off(rows, a, ops, size=size):
                value = products(rows, a, ops)
                if a.shape[-1] == size:
                    value[:, 0] *= 0.999
                return value

            monkeypatch.setattr(quantifiers, "_n2_quantum_products", off)
            assert oracle_check() == 4
            assert capsys.readouterr().out.splitlines()[2].endswith(
                f" on the {bath} bath at ħ = 1 (tolerance 1e-07) -> FAIL")

    def test_corrupted_kernel_is_caught(self, monkeypatch, capsys):
        class WrongSignSD(PeakedSD):
            def gamma_tilde_vec(self, omega):
                return np.conj(super().gamma_tilde_vec(omega))

        monkeypatch.setattr(
            cli, "_embedding_oracle_sd",
            lambda: WrongSignSD(coupling=0.05, width=0.05, resonance=1.0))
        rc = oracle_check()
        out = capsys.readouterr().out
        assert rc == 4
        assert "FAIL" in out
        assert "langevin vs propagation" in out
        # the closed forms read the drift matrix, the pass the kernel
        closed = out.splitlines()[2]
        assert " on the peaked bath" in closed
        assert closed.endswith(" (tolerance 1e-07) -> FAIL")

    def test_nan_z_score_fails(self, monkeypatch, capsys):
        # every comparison with NaN is false, so a NaN z-score must not
        # read as the worst one staying under the tolerance
        times = np.linspace(0.0, 20.0, 2001)
        zeros, ones = np.zeros_like(times), np.ones_like(times)
        monkeypatch.setattr(cli, "langevin_means", lambda cfg: LangevinResult(
            times, zeros, zeros, ones, ones))
        monkeypatch.setattr(cli, "propagate_means",
                            lambda *args: (math.nan, math.nan))
        assert oracle_check() == 4
        assert "worst |z| = nan at t = 0.01" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, key", [
        (["--aq", "nan"], "aq"), (["--ap", "inf"], "ap"),
        (["--beta", "-1"], "beta"), (["--beta", "inf"], "beta"),
        (["--seed", "-1"], "seed"),
    ])
    def test_bad_setting_is_named_before_the_ensemble(self, flags, key,
                                                      monkeypatch, capsys):
        # a NaN kick made every z-score NaN, and NaN > worst compares false,
        # so the check passed without checking anything
        def refuse(cfg):
            raise AssertionError("the ensemble ran")

        monkeypatch.setattr(cli, "langevin_means", refuse)
        assert cli.main(["--mode", "oracle-check", *flags]) == 2
        assert f"config error: key '{key}'" in capsys.readouterr().err
