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
import sys
import warnings
from pathlib import Path

import numpy as np

from .correlations import covariance0_drift
from .errors import CutoffSensitive, NumericsError
from .oracle import LangevinConfig, embedding_response, langevin_means
from .quantifiers import quantify
from .response import ModelParams, chi_time, propagate_means
from .spectral import OhmicSD, PeakedSD, TabulatedSD

_MODES = ("quantify", "sweep", "means", "oracle-check")
_QUANTIFIERS = ("n1", "n2", "both")
_SWEEPABLE = ("d", "gamma", "omega-big", "beta", "hbar")

_FLOAT_KEYS = ("d", "gamma", "omega-big", "beta", "hbar", "cutoff",
               "aq", "ap")
_INT_KEYS = ("seed",)
_STR_KEYS = ("mode", "sd", "param", "range", "quantifier", "out")
_ALL_KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS

_DEFAULTS = {
    "sd": "ohmic",
    "d": 1.0,
    "gamma": 0.5,
    "omega-big": 2.0,
    "beta": 1.0,
    "hbar": 1.0,
    "cutoff": None,
    "aq": 1.0,
    "ap": 1.0,
    "seed": 20260815,
    "quantifier": "both",
    "param": None,
    "range": None,
    "out": None,
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
        if key not in _ALL_KEYS:
            raise ConfigError(key, f"unknown key in {path}:{lineno}")
        values[key] = value.strip()
    return values


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    if key in _FLOAT_KEYS:
        try:
            return float(value)
        except ValueError:
            raise ConfigError(key, f"not a number: {value!r}") from None
    if key in _INT_KEYS:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(key, f"not an integer: {value!r}") from None
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
    if scale == "log":
        if start <= 0.0 or stop <= 0.0:
            raise ConfigError("range", "log range endpoints must be > 0")
        return np.geomspace(start, stop, steps), True
    return np.linspace(start, stop, steps), False


def _build_sd(settings, *, d=None, gamma=None, omega_big=None):
    kind = settings["sd"]
    d = settings["d"] if d is None else d
    gamma = settings["gamma"] if gamma is None else gamma
    omega_big = settings["omega-big"] if omega_big is None else omega_big
    try:
        if kind == "ohmic":
            return OhmicSD(d)
        if kind == "peaked":
            return PeakedSD(coupling=d, width=gamma, resonance=omega_big)
        if kind.startswith("tabulated:"):
            return TabulatedSD.from_file(kind.split(":", 1)[1])
    except (ValueError, OSError) as exc:
        raise ConfigError("sd", str(exc)) from exc
    raise ConfigError("sd", f"must be ohmic, peaked or tabulated:<path>, "
                            f"got {kind!r}")


def _model(settings, *, beta=None, hbar=None) -> ModelParams:
    beta = settings["beta"] if beta is None else beta
    hbar = settings["hbar"] if hbar is None else hbar
    try:
        return ModelParams(omega0=1.0, beta=beta, hbar=hbar,
                           cutoff=settings["cutoff"])
    except ValueError as exc:
        # ModelParams names the parameter at fault first: beta, hbar or cutoff
        raise ConfigError(str(exc).split()[0], str(exc)) from exc


def _settings_from(args) -> dict:
    settings = dict(_DEFAULTS)
    settings["mode"] = None
    if args.config:
        settings.update(_parse_config_file(args.config))
    for key in ("mode", "sd", "d", "gamma", "omega-big", "beta", "hbar",
                "cutoff", "param", "range", "quantifier", "aq", "ap",
                "seed", "out"):
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            settings[key] = flag
    for key in list(settings):
        settings[key] = _coerce(key, settings[key])
    if settings["mode"] not in _MODES:
        raise ConfigError("mode", f"must be one of {', '.join(_MODES)}, "
                                  f"got {settings['mode']!r}")
    if settings["quantifier"] not in _QUANTIFIERS:
        raise ConfigError("quantifier",
                          f"must be n1, n2 or both, "
                          f"got {settings['quantifier']!r}")
    return settings


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".12g")


def _quantifier_columns(which: str):
    cols = []
    if which in ("n1", "both"):
        cols += ["n1_qq", "n1_qp", "n1_pp"]
    if which in ("n2", "both"):
        cols += ["n2_qq", "n2_qp", "n2_pp"]
    return cols


def _report_cells(report, which, p, sd):
    cells = []
    if which in ("n1", "both"):
        cells += [report.n1[0, 0], report.n1[0, 1], report.n1[1, 1]]
    if which in ("n2", "both"):
        cells += [report.n2[0, 0], report.n2[0, 1], report.n2[1, 1]]
    tail = max((d.tail_ratio for d in report.diagnostics.values()),
               default=0.0)
    flagged = any(d.flagged for d in report.diagnostics.values())
    drift = covariance0_drift(p, sd) if which in ("n2", "both") else 0.0
    return cells, tail, flagged, drift


def _write_plot_script(csv_path: Path, value_cols, logx: bool,
                       xlabel: str) -> None:
    """Companion gnuplot text referencing the CSV by file name."""
    script = csv_path.with_suffix(".gp")
    using = ", ".join(
        f"'{csv_path.name}' using 1:{i} with lines"
        for i in range(2, 2 + len(value_cols)))
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
    p = _model(settings)
    sd = _build_sd(settings)
    which = settings["quantifier"]
    try:
        report = quantify(p, sd, which=which)
        cells, tail, flagged, drift = _report_cells(report, which, p, sd)
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    cols = _quantifier_columns(which)
    for name, value in zip(cols, cells):
        print(f"{name} = {value:.9f}")
    print(f"tail_ratio_max = {tail:.3e}")
    print(f"flagged = {flagged}")
    print(f"cutoff_drift = {drift:.3e}")
    if settings["out"]:
        path = Path(settings["out"])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(cols + ["tail_ratio_max", "flagged",
                                    "cutoff_drift", "error"])
            writer.writerow([_fmt(c) for c in cells]
                            + [_fmt(tail), str(int(flagged)), _fmt(drift),
                               ""])
    return 0


def _sweep_point(settings, param, value, sd):
    """Quantify one grid point.  `sd` serves every point of a β or ħ
    sweep, so a table is read once and its kernel memo is kept; a swept
    spectral parameter builds a new spectral density."""
    overrides = {}
    sd_over = {}
    if param == "beta":
        overrides["beta"] = value
    elif param == "hbar":
        overrides["hbar"] = value
    elif param == "d":
        sd_over["d"] = value
    elif param == "gamma":
        sd_over["gamma"] = value
    else:
        sd_over["omega_big"] = value
    p = _model(settings, **overrides)
    if sd_over:
        sd = _build_sd(settings, **sd_over)
    which = settings["quantifier"]
    report = quantify(p, sd, which=which)
    return _report_cells(report, which, p, sd)


def _validate_sweep(settings):
    param = settings["param"]
    if param not in _SWEEPABLE:
        raise ConfigError("param", f"must be one of {', '.join(_SWEEPABLE)}, "
                                   f"got {param!r}")
    kind = settings["sd"]
    if param in ("gamma", "omega-big") and kind != "peaked":
        raise ConfigError("param", f"'{param}' is only defined for the "
                                   "peaked spectral density")
    if param == "d" and kind.startswith("tabulated:"):
        raise ConfigError("param", "'d' cannot be swept for a tabulated "
                                   "spectral density")
    if settings["range"] is None:
        raise ConfigError("range", "a sweep requires --range")
    grid, is_log = _parse_range(settings["range"])
    positive_required = param in ("gamma", "omega-big", "beta")
    if positive_required and (grid <= 0.0).any():
        raise ConfigError("range", f"'{param}' values must be > 0")
    if param in ("d", "hbar") and (grid < 0.0).any():
        raise ConfigError("range", f"'{param}' values must be >= 0")
    return param, grid, is_log


def _mode_sweep(settings) -> int:
    param, grid, is_log = _validate_sweep(settings)
    sd = _build_sd(settings)  # validates the fixed parameters up front
    _model(settings)
    which = settings["quantifier"]
    out = Path(settings["out"] or "nonmarkov_sweep.csv")

    cols = _quantifier_columns(which)
    header = [param] + cols + ["tail_ratio_max", "flagged", "cutoff_drift",
                               "error"]
    failures = []

    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        fh.flush()
        for value in grid:
            try:
                cells, tail, flagged, drift = _sweep_point(
                    settings, param, float(value), sd)
                row = ([_fmt(value)] + [_fmt(c) for c in cells]
                       + [_fmt(tail), str(int(flagged)), _fmt(drift), ""])
            except NumericsError as exc:
                failures.append((float(value), str(exc)))
                row = ([_fmt(value)] + [""] * len(cols)
                       + ["", "", "", str(exc)])
            writer.writerow(row)
            fh.flush()
    _write_plot_script(out, cols, is_log, param)
    if failures:
        value, msg = failures[0]
        print(f"numerical failure at {param} = {value:g} "
              f"({len(failures)} of {len(grid)} grid points): {msg}",
              file=sys.stderr)
        return 3
    return 0


def _mode_means(settings) -> int:
    p = _model(settings)
    sd = _build_sd(settings)
    grid, is_log = _parse_range(settings["range"] or "0:20:201")
    if (grid < 0.0).any():
        raise ConfigError("range", "times must be >= 0")
    out = Path(settings["out"] or "nonmarkov_means.csv")
    aq, ap = settings["aq"], settings["ap"]

    failures = []
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "q_mean", "p_mean", "error"])
        fh.flush()
        for t in grid:
            try:
                q, pm = propagate_means(p, sd, aq, ap, float(t))
                writer.writerow([_fmt(t), _fmt(q), _fmt(pm), ""])
            except NumericsError as exc:
                failures.append((float(t), str(exc)))
                writer.writerow([_fmt(t), "", "", str(exc)])
            fh.flush()
    _write_plot_script(out, ["q_mean", "p_mean"], is_log, "t")
    if failures:
        t, msg = failures[0]
        print(f"numerical failure at t = {t:g} "
              f"({len(failures)} of {len(grid)} grid points): {msg}",
              file=sys.stderr)
        return 3
    return 0


def _langevin_oracle_case(settings):
    """Classical strict-Ohmic comparison set for the oracle check."""
    return {
        "damping": 0.2,
        "config": LangevinConfig(damping=0.2, omega0=1.0,
                                 beta=settings["beta"], dt=0.01, t_max=20.0,
                                 n_traj=10 ** 5, seed=settings["seed"],
                                 kick_q=settings["aq"],
                                 kick_p=settings["ap"]),
    }


def _embedding_oracle_sd():
    """Peaked comparison set for the oracle check."""
    return PeakedSD(coupling=0.05, width=0.05, resonance=1.0)


def _mode_oracle_check(settings) -> int:
    ok = True

    case = _langevin_oracle_case(settings)
    res = langevin_means(case["config"])
    p = ModelParams(omega0=1.0, beta=settings["beta"])
    sd = OhmicSD(case["damping"])
    idx = np.linspace(1, len(res.times) - 1, 20, dtype=int)
    worst_z, worst_t = 0.0, 0.0
    for i in idx:
        t = float(res.times[i])
        mq, mp = propagate_means(p, sd, settings["aq"], settings["ap"], t)
        zq = abs(res.q_mean[i] - mq) / res.q_se[i]
        zp = abs(res.p_mean[i] - mp) / res.p_se[i]
        if max(zq, zp) > worst_z:
            worst_z, worst_t = max(zq, zp), t
    passed = worst_z < 3.0
    ok &= passed
    print(f"langevin vs propagation: worst |z| = {worst_z:.2f} at "
          f"t = {worst_t:g} (tolerance 3 standard errors) -> "
          f"{'pass' if passed else 'FAIL'}")

    sd_peaked = _embedding_oracle_sd()
    ts = np.linspace(0.0, 50.0, 26)
    emb = embedding_response(sd_peaked.coupling, sd_peaked.width,
                             sd_peaked.resonance, 1.0, ts)
    worst_dev, worst_et = 0.0, 0.0
    for t, e in zip(ts, emb):
        dev = abs(chi_time(p, sd_peaked, float(t))[0, 0] - e)
        if dev > worst_dev:
            worst_dev, worst_et = dev, float(t)
    passed = worst_dev < 1e-3
    ok &= passed
    print(f"embedding vs frequency-domain response: worst |dev| = "
          f"{worst_dev:.3e} at t = {worst_et:g} (tolerance 1e-03) -> "
          f"{'pass' if passed else 'FAIL'}")

    return 0 if ok else 4


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nonmarkov",
        description="Non-Markovianity quantifiers for damped harmonic "
                    "motion: single evaluations, parameter sweeps, mean "
                    "evolutions and built-in oracle checks (ω₀ ≡ 1).")
    ap.add_argument("--mode", choices=_MODES)
    ap.add_argument("--sd", help="ohmic | peaked | tabulated:<path>")
    ap.add_argument("--d", type=float,
                    help="Ohmic damping D/ω₀ or peaked coupling D/ω₀²")
    ap.add_argument("--gamma", type=float, help="peaked width Γ/ω₀")
    ap.add_argument("--omega-big", type=float,
                    help="peaked resonance Ω/ω₀")
    ap.add_argument("--beta", type=float, help="inverse temperature βω₀")
    ap.add_argument("--hbar", type=float, help="ħ (0 = classical)")
    ap.add_argument("--cutoff", type=float,
                    help="frequency cutoff Λ/ω₀ for covariances")
    ap.add_argument("--param", help="swept parameter: d, gamma, "
                                    "omega-big, beta or hbar")
    ap.add_argument("--range", help="start:stop:steps[:log|linear]; the "
                                    "time grid in means mode")
    ap.add_argument("--quantifier", help="n1 | n2 | both")
    ap.add_argument("--aq", type=float, help="kick amplitude on q")
    ap.add_argument("--ap", type=float, help="kick amplitude on p")
    ap.add_argument("--seed", type=int, help="Monte Carlo seed")
    ap.add_argument("--out", help="CSV output path")
    ap.add_argument("--config", help="key = value file; flags override")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
