"""The package names that the benchmark harness in ``perfbench/`` binds.

The harness imports ``cli``, ``correlations`` and ``errors``, reads the
covariance cache statistics around every call, patches and unpatches
``NumericsError.__init__``, and under ``--trace 1`` wraps the functions
and methods that ``perfbench/tracing.py`` lists.  A renamed or removed
name fails the benchmark run as a whole, so each one is pinned here.
The harness file is read, never edited.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from nonmarkov import cli, correlations, errors, spectral
from nonmarkov.quantifiers import quantify
from nonmarkov.response import ModelParams
from nonmarkov.spectral import OhmicSD

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worker_entry_point():
    # the worker imports cli, correlations and errors, then calls cli.main
    assert callable(cli.main)


def test_traced_functions_resolve(tracing):
    for layer, attr, _, _ in tracing.FUNCTIONS:
        module = importlib.import_module(f"nonmarkov.{layer}")
        assert callable(getattr(module, attr, None)), f"{layer}.{attr}"


def test_traced_methods_exist(tracing):
    for cls_name, attr, _, _ in tracing.METHODS:
        cls = getattr(spectral, cls_name)
        assert callable(getattr(cls, attr, None)), f"{cls_name}.{attr}"
    assert isinstance(spectral.TabulatedSD.__dict__["from_file"],
                      classmethod)


def test_tracer_installs_and_restores(tracing):
    before = {(layer, attr): getattr(importlib.import_module(
        f"nonmarkov.{layer}"), attr) for layer, attr, _, _ in tracing.FUNCTIONS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()
    for (layer, attr), orig in before.items():
        assert getattr(importlib.import_module(f"nonmarkov.{layer}"),
                       attr) is orig


def test_covariance_cache_statistics_are_readable():
    info = correlations._covariance0_cached.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_numerics_error_init_is_inherited():
    # the harness sets its own __init__ on the class and deletes it after
    assert "__init__" not in errors.NumericsError.__dict__


def test_every_diagnostic_counts_panels():
    report = quantify(ModelParams(omega0=1.0, beta=1.0), OhmicSD(0.5))
    assert len(report.diagnostics) == 8
    for entry in report.diagnostics.values():
        assert isinstance(entry.panels, int)
