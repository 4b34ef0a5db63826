"""Batch driver: single evaluations, parameter sweeps, mean-value time
series and built-in oracle comparisons, with CSV output and a companion
plot script.

Units: the system frequency is the unit (ω₀ ≡ 1) and ħ defaults to 1;
every model number on the command line is one of the dimensionless
combinations D/ω₀ (or D/ω₀² for the peaked coupling), Γ/ω₀, Ω/ω₀, βω₀.

Exit codes: 0 success, 2 configuration error, 3 numerical failure in at
least one grid point, 4 oracle mismatch.
"""
from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import CutoffSensitive, NumericsError
from .oracle import LangevinConfig, embedding_response, langevin_means
from .quantifiers import (_ENTRY, _KEYS, QuantifierReport, _pass_quantifiers,
                          quantify)
from .response import ModelParams, _chi_time_transform, propagate_means
from .spectral import OhmicSD, PeakedSD, TabulatedSD

_MODES = ("quantify", "sweep", "means", "oracle-check")
# the swept parameters that build a new spectral density per grid point
_SD_KEYS = ("d", "gamma", "omega-big")

# Every setting once, as key: (type, default, allowed values, help).  The
# parser, the config-file reader and _coerce all read this table.
_SETTINGS = {
    "mode": (str, None, _MODES, " | ".join(_MODES)),
    "sd": (str, "ohmic", None, "ohmic | peaked | tabulated:<path>"),
    "d": (float, 1.0, None, "Ohmic damping D/ω₀ or peaked coupling D/ω₀²"),
    "gamma": (float, 0.5, None, "peaked width Γ/ω₀"),
    "omega-big": (float, 2.0, None, "peaked resonance Ω/ω₀"),
    "beta": (float, 1.0, None, "inverse temperature βω₀"),
    "hbar": (float, 1.0, None, "ħ (0 = classical)"),
    "cutoff": (float, None, None, "frequency cutoff Λ/ω₀ for covariances"),
    "param": (str, None, _SD_KEYS + ("beta", "hbar"),
              "swept parameter: d, gamma, omega-big, beta or hbar"),
    "range": (str, None, None,
              "start:stop:steps[:log|linear]; the time grid in means mode"),
    "quantifier": (str, "both", ("n1", "n2", "both"), "n1 | n2 | both"),
    "aq": (float, 1.0, None, "kick amplitude on q"),
    "ap": (float, 1.0, None, "kick amplitude on p"),
    "seed": (int, 20260815, None, "Monte Carlo seed"),
    "out": (str, None, None, "CSV output path"),
}


class ConfigError(Exception):
    """Bad configuration; the message names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"key '{key}': {message}")
        self.key = key


def _parse_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config",
                              f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SETTINGS:
            raise ConfigError(key, f"unknown key in {path}:{lineno}")
        values[key] = value.strip()
    return values


def _coerce(key: str, text: str):
    """A flag or config-file value as its setting's type, checked against
    the setting's allowed values."""
    kind, _, choices, _ = _SETTINGS[key]
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(key, f"expected {kind.__name__}, "
                               f"got {text!r}") from None
    if choices and value not in choices:
        raise ConfigError(key, f"must be one of {', '.join(choices)}, "
                               f"got {value!r}")
    return value


def _parse_range(text: str):
    """'start:stop:steps[:log|linear]' -> (grid array, is_log)."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError("range", f"expected start:stop:steps[:log], "
                                   f"got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise ConfigError("range", f"non-numeric field in {text!r}") from None
    scale = parts[3] if len(parts) == 4 else "linear"
    if scale not in ("log", "linear"):
        raise ConfigError("range", f"scale must be log or linear, "
                                   f"got {scale!r}")
    if steps < 2:
        raise ConfigError("range", "steps must be >= 2")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError("range", f"endpoints must be finite, got {text!r}")
    if scale == "log":
        if start <= 0.0 or stop <= 0.0:
            raise ConfigError("range", "log range endpoints must be > 0")
        return np.geomspace(start, stop, steps), True
    return np.linspace(start, stop, steps), False


def _build_sd(settings):
    kind = settings["sd"]
    try:
        if kind == "ohmic":
            return OhmicSD(settings["d"])
        if kind == "peaked":
            return PeakedSD(coupling=settings["d"], width=settings["gamma"],
                            resonance=settings["omega-big"])
        if kind.startswith("tabulated:"):
            return TabulatedSD.from_file(kind.split(":", 1)[1])
    except (ValueError, OSError) as exc:
        raise ConfigError("sd", str(exc)) from exc
    raise ConfigError("sd", f"must be ohmic, peaked or tabulated:<path>, "
                            f"got {kind!r}")


def _model(settings) -> ModelParams:
    try:
        return ModelParams(omega0=1.0, beta=settings["beta"],
                           hbar=settings["hbar"], cutoff=settings["cutoff"])
    except ValueError as exc:
        # ModelParams names the parameter at fault first: beta, hbar or cutoff
        raise ConfigError(str(exc).split()[0], str(exc)) from exc


def _settings_from(args) -> dict:
    """The table's defaults, overridden by the config file and then by
    the flags; every given value goes through _coerce."""
    given = _parse_config_file(args.config) if args.config else {}
    for key in _SETTINGS:
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            given[key] = flag
    settings = {key: row[1] for key, row in _SETTINGS.items()}
    settings.update((key, _coerce(key, text)) for key, text in given.items())
    if settings["mode"] is None:
        raise ConfigError("mode", f"required: one of {', '.join(_MODES)}")
    for key in ("aq", "ap"):
        if not math.isfinite(settings[key]):
            raise ConfigError(key, f"kick must be finite, got {settings[key]}")
    return settings


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _quantifier_columns(which: str):
    return [f"{name}_{key}" for name in ("n1", "n2")
            if which in (name, "both") for key in _KEYS]


def _report_cells(report):
    """The requested entries (qq, qp, pp of n1, then of n2) and the
    largest cutoff drift, both read from the report."""
    cells = [c for m in (report.n1, report.n2) if m is not None
             for c in m[_ENTRY]]
    drift = max((d.cutoff_drift for d in report.diagnostics.values()),
                default=0.0)
    return cells, drift


def _csv_cells(cells, drift):
    """CSV text of what ``_report_cells`` returns."""
    return [_fmt(c) for c in cells] + [_fmt(drift)]


def _write_plot_script(csv_path: Path, n_cols: int, logx: bool,
                       xlabel: str) -> None:
    """Companion gnuplot text referencing the CSV by file name."""
    script = csv_path.with_suffix(".gp")
    using = ", ".join(
        f"'{csv_path.name}' using 1:{i} with lines"
        for i in range(2, 2 + n_cols))
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{xlabel}'",
    ]
    if logx:
        lines.append("set logscale x")
    lines.append(f"plot {using}")
    script.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _mode_quantify(settings) -> int:
    """Print the report; with --out, also a one-row CSV, whose row is
    empty cells and the message when the quantifier fails (exit 3)."""
    p = _model(settings)
    sd = _build_sd(settings)
    which = settings["quantifier"]
    cols = _quantifier_columns(which)
    header = cols + ["cutoff_drift", "error"]
    try:
        report = quantify(p, sd, which=which)
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        row, code = [""] * (len(header) - 1) + [str(exc)], 3
    else:
        cells, drift = _report_cells(report)
        for name, value in zip(cols, cells):
            print(f"{name} = {value:.9f}")
        print(f"cutoff_drift = {drift:.3e}")
        row, code = _csv_cells(cells, drift) + [""], 0
    if settings["out"]:
        with open(settings["out"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerow(row)
    return code


def _write_grid(out: Path, header, grid, row, n_plotted: int,
                is_log: bool) -> int:
    """CSV of one row per grid value, flushed as it goes, and its plot
    script over the first n_plotted value columns.

    header[0] names the grid column and the plot's x axis.  A point
    writes [value] + row(value) + [""]; a NumericsError writes the
    value, empty cells and the message instead.  Returns 3 when any
    point failed (reported on stderr), 0 otherwise.
    """
    failures = []
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        fh.flush()
        for value in grid:
            try:
                cells = [_fmt(value)] + row(float(value)) + [""]
            except NumericsError as exc:
                failures.append((float(value), str(exc)))
                cells = ([_fmt(value)] + [""] * (len(header) - 2)
                         + [str(exc)])
            writer.writerow(cells)
            fh.flush()
    _write_plot_script(out, n_plotted, is_log, header[0])
    if failures:
        value, msg = failures[0]
        print(f"numerical failure at {header[0]} = {value:g} "
              f"({len(failures)} of {len(grid)} grid points): {msg}",
              file=sys.stderr)
        return 3
    return 0


def _validate_sweep(settings):
    """The swept parameter, its grid, and every grid point built as a
    (model, spectral density) pair keyed by its grid value, so a bad
    value is named by the model's own check before any row runs.  A β
    or ħ sweep shares the settings' one spectral density, so a table is
    read once and its kernel memo serves every point; a swept spectral
    parameter builds one per point."""
    param, kind = settings["param"], settings["sd"]
    if param is None:
        raise ConfigError("param", "a sweep requires --param")
    if param in ("gamma", "omega-big") and kind != "peaked":
        raise ConfigError("param", f"'{param}' is only defined for the "
                                   "peaked spectral density")
    if param == "d" and kind.startswith("tabulated:"):
        raise ConfigError("param", "'d' cannot be swept for a tabulated "
                                   "spectral density")
    if settings["range"] is None:
        raise ConfigError("range", "a sweep requires --range")
    grid, is_log = _parse_range(settings["range"])
    values = grid.tolist()
    points = [{**settings, param: value} for value in values]
    models = [_model(point) for point in points]
    if param in _SD_KEYS:
        sds = [_build_sd(point) for point in points]
    else:
        sds = [_build_sd(settings)] * len(points)
    return param, grid, is_log, dict(zip(values, zip(models, sds)))


def _sweep_reports(param, which, points):
    """The report of each grid value as a function of it.  n1 depends
    on neither β nor ħ, so a β or ħ sweep computes it once, at the first
    point, and every row joins it to its own n2.  Classical n2 does not
    depend on β either, so a β sweep at ħ = 0 computes the whole report
    once and serves every row from it.  A failed shared report fails
    every row with its message, as it would point by point."""
    first = next(iter(points.values()))
    classical = param == "beta" and first[0].hbar == 0.0
    if not classical and (param in _SD_KEYS or which == "n2"):
        return lambda v: quantify(*points[v], which=which)
    shared = which if classical else "n1"
    try:
        once = quantify(*first, which=shared)
    except NumericsError as exc:
        once = exc

    def report(v):
        if isinstance(once, NumericsError):
            raise once.with_traceback(None)
        if shared == which:
            return once
        n2 = quantify(*points[v], which="n2")
        return QuantifierReport(n1=once.n1, n2=n2.n2,
                                diagnostics={**once.diagnostics,
                                             **n2.diagnostics})
    return report


def _mode_sweep(settings) -> int:
    param, grid, is_log, points = _validate_sweep(settings)
    which = settings["quantifier"]
    cols = _quantifier_columns(which)
    header = [param] + cols + ["cutoff_drift", "error"]
    report = _sweep_reports(param, which, points)
    return _write_grid(
        Path(settings["out"] or "nonmarkov_sweep.csv"), header, grid,
        lambda v: _csv_cells(*_report_cells(report(v))), len(cols), is_log)


def _mode_means(settings) -> int:
    p = _model(settings)
    sd = _build_sd(settings)
    grid, is_log = _parse_range(settings["range"] or "0:20:201")
    if (grid < 0.0).any():
        raise ConfigError("range", "times must be >= 0")
    aq, ap = settings["aq"], settings["ap"]
    return _write_grid(
        Path(settings["out"] or "nonmarkov_means.csv"),
        ["t", "q_mean", "p_mean", "error"], grid,
        lambda t: [_fmt(x) for x in propagate_means(p, sd, aq, ap, t)],
        2, is_log)


def _langevin_oracle_case(settings):
    """Classical strict-Ohmic comparison set for the oracle check."""
    try:
        return LangevinConfig(damping=0.2, omega0=1.0, beta=settings["beta"],
                              dt=0.01, t_max=20.0, n_traj=10 ** 5,
                              seed=settings["seed"], kick_q=settings["aq"],
                              kick_p=settings["ap"])
    except ValueError as exc:
        # LangevinConfig names the field at fault first (the seed, here)
        raise ConfigError(str(exc).split()[0], str(exc)) from exc


def _embedding_oracle_sd():
    """Peaked comparison set for the oracle check."""
    return PeakedSD(coupling=0.05, width=0.05, resonance=1.0)


def _closed_form_deviation(p, sd, which) -> float:
    """Worst |Δn²| over the quantifiers which ('both' or 'n2') between
    the closed forms (the Matsubara sums for quantum n2) and the
    quadrature pass, as squares (a vanishing entry carries √(rounding));
    NaN, with the message on stderr, when either fails."""
    try:
        closed = quantify(p, sd, which=which)
        passed = _pass_quantifiers(p, sd)
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return math.nan
    return max(float(np.abs(c ** 2 - q ** 2).max())
               for c, q in zip((closed.n1, closed.n2), passed)
               if c is not None)


def _mode_oracle_check(settings) -> int:
    # every input is checked as in the other modes before the ensemble
    # runs; the oracle itself is classical, at ħ = 0 and the default cutoff
    _model(settings)
    p = _model({**settings, "hbar": 0.0, "cutoff": None})
    case = _langevin_oracle_case(settings)
    res = langevin_means(case)
    sd = OhmicSD(case.damping)
    idx = np.linspace(1, len(res.times) - 1, 20, dtype=int)
    means = np.array([propagate_means(p, sd, case.kick_q, case.kick_p,
                                      float(res.times[i])) for i in idx])
    z = np.maximum(np.abs(res.q_mean[idx] - means[:, 0]) / res.q_se[idx],
                   np.abs(res.p_mean[idx] - means[:, 1]) / res.p_se[idx])
    # argmax stops at a NaN, which then fails the comparison
    worst = np.argmax(z)
    langevin_ok = z[worst] < 3.0
    print(f"langevin vs propagation: worst |z| = {z[worst]:.2f} at "
          f"t = {res.times[idx[worst]]:g} (tolerance 3 standard errors) -> "
          f"{'pass' if langevin_ok else 'FAIL'}")

    # the transforms of χ̃, not the drift matrix that the embedding
    # integrates; t = 0, where both are zero, is left out
    sd_peaked = _embedding_oracle_sd()
    ts = np.linspace(0.0, 50.0, 26)[1:]
    emb = embedding_response(sd_peaked.coupling, sd_peaked.width,
                             sd_peaked.resonance, 1.0, ts)
    dev = np.array([abs(_chi_time_transform(p, sd_peaked, float(t))[0, 0] - e)
                    for t, e in zip(ts, emb)])
    worst = np.argmax(dev)
    embedding_ok = dev[worst] < 1e-3
    print(f"embedding vs frequency-domain response: worst |dev| = "
          f"{dev[worst]:.3e} at t = {ts[worst]:g} (tolerance 1e-03) -> "
          f"{'pass' if embedding_ok else 'FAIL'}")

    # n1 and classical n2 in closed form, and quantum n2 by Matsubara
    # sums, against the quadrature pass; the Ohmic quantum c_pp stops at
    # the cutoff and may warn that it is cutoff-limited
    quantum = _model({**settings, "hbar": 1.0, "cutoff": None})
    cases = {"Ohmic bath": (p, sd, "both"),
             "peaked bath": (p, sd_peaked, "both"),
             "Ohmic bath at ħ = 1": (quantum, sd, "n2"),
             "peaked bath at ħ = 1": (quantum, sd_peaked, "n2")}
    dev = np.array([_closed_form_deviation(*case) for case in cases.values()])
    worst = np.argmax(dev)
    closed_ok = dev[worst] <= 1e-7
    print(f"closed forms vs quadrature (n1, classical n2, quantum n2 by "
          f"Matsubara sums): worst |dn²| = {dev[worst]:.3e} on the "
          f"{list(cases)[worst]} (tolerance 1e-07) -> "
          f"{'pass' if closed_ok else 'FAIL'}")

    return 0 if langevin_ok and embedding_ok and closed_ok else 4


# built once: parse_args returns a fresh namespace and keeps no state
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nonmarkov",
        description="Non-Markovianity quantifiers for damped harmonic "
                    "motion: single evaluations, parameter sweeps, mean "
                    "evolutions and built-in oracle checks (ω₀ ≡ 1).")
    for key, (_, _, _, text) in _SETTINGS.items():
        ap.add_argument(f"--{key}", help=text)
    ap.add_argument("--config", help="key = value file; flags override")
    return ap


def _join_values(argv) -> list[str]:
    """argv with every '--<key> <value>' of a setting or --config joined
    into '--<key>=<value>'.  argparse takes a separate value that starts
    with '-' for a flag unless it is a plain number, so '--aq -1e-3' or
    '--range -1:1:3' would otherwise stop at its usage line."""
    flags = {f"--{key}" for key in _SETTINGS} | {"--config"}
    out: list[str] = []
    for token in argv:
        if out and out[-1] in flags:
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(
        _join_values(sys.argv[1:] if argv is None else argv))
    with warnings.catch_warnings():
        warnings.simplefilter("once", CutoffSensitive)
        try:
            settings = _settings_from(args)
            mode = settings["mode"]
            if mode == "quantify":
                return _mode_quantify(settings)
            if mode == "sweep":
                return _mode_sweep(settings)
            if mode == "means":
                return _mode_means(settings)
            return _mode_oracle_check(settings)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
