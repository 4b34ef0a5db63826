"""One workload process: set-up, then a closed loop of timed `cli.main`
calls, each followed by its reference check.

Started by run.py in a fresh interpreter with PYTHONPATH=src.  It prints
"ready" when set-up is done; with --role setup it then exits, otherwise
it runs the loop and prints one JSON line with the raw figures.

The loop issues one call at a time and stops at the first unit boundary
after the timed calls have taken --seconds in total (or after exactly
--calls calls, which replays a prefix of another run).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import resource
import shutil
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from nonmarkov import cli, correlations, errors  # set-up: imports
from workloads import Workload

PREPARED_UNITS = 2


class FailureProbe:
    """Notes the type and raising layer of every `NumericsError` built
    while active, keyed by message, so that a CLI error row or exit code
    3 can be traced back to its exception.  It costs nothing until an
    exception is constructed."""

    def __init__(self):
        self.by_message = {}

    def __enter__(self):
        probe = self

        def __init__(exc, *args):
            Exception.__init__(exc, *args)
            probe.by_message[str(exc)] = (type(exc).__name__,
                                          _raising_layer(sys._getframe(1)))

        errors.NumericsError.__init__ = __init__
        return self

    def __exit__(self, *exc_info):
        del errors.NumericsError.__init__

    def lookup(self, message):
        return self.by_message.get(message, ("unknown", "unknown"))


def _raising_layer(frame):
    """'module.function' of the innermost package frame outside errors."""
    while frame is not None:
        mod = frame.f_globals.get("__name__", "")
        if mod.startswith("nonmarkov.") and mod != "nonmarkov.errors":
            return f"{mod.split('.', 1)[1]}.{frame.f_code.co_name}"
        frame = frame.f_back
    return "unknown"


def _escaped_layer(exc):
    last = "unknown"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        mod = frame.f_globals.get("__name__", "")
        if mod.startswith("nonmarkov."):
            last = f"{mod.split('.', 1)[1]}.{frame.f_code.co_name}"
    return last


def execute(call):
    """One timed call into the package; returns (seconds, rc, escaped,
    stderr text).  Output streams are captured so the CLI's printing
    stays inside the timed region without reaching the protocol pipe."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    escaped, rc = None, None
    with contextlib.redirect_stdout(sink_out), \
            contextlib.redirect_stderr(sink_err):
        start = time.perf_counter()
        try:
            rc = cli.main(call.argv)
        except Exception as exc:  # a crash must not end the run
            escaped = exc
        seconds = time.perf_counter() - start
    return seconds, rc, escaped, sink_err.getvalue()


def evaluate(call, rc, escaped, err_text, probe):
    """Per-op failure records (None for a good op) of one call."""
    rows = []
    if call.out.exists():
        with open(call.out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    good = [(i, r) for i, r in enumerate(rows[:call.ops]) if not r["error"]]
    misses = call.check(good)
    cmd = " ".join(call.argv)
    records = []
    for i in range(call.ops):
        if i < len(rows) and rows[i]["error"]:
            kind, (etype, layer) = "error row", probe.lookup(rows[i]["error"])
            detail = rows[i]["error"]
        elif i in misses:
            kind, etype, layer, detail = ("tolerance", "-", "-", misses[i])
        elif i < len(rows):
            records.append(None)
            continue
        elif escaped is not None:
            kind, etype = "escaped", type(escaped).__name__
            layer, detail = _escaped_layer(escaped), str(escaped)
        else:
            message = err_text.strip().splitlines()[-1] if err_text.strip() \
                else ""
            etype, layer = probe.lookup(message.partition(": ")[2])
            kind, detail = f"exit {rc}", message
        records.append({"kind": kind, "type": etype, "layer": layer,
                        "detail": detail, "input": cmd})
    return records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--role", choices=("setup", "run"), default="run")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--calls", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = Workload(args.workload, args.seed, workdir)
    workload.prepare(PREPARED_UNITS)
    execute(workload.warmup())
    print("ready", flush=True)
    if args.role == "setup":
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

        @contextlib.contextmanager
        def paused():
            tracer.paused = True
            try:
                yield
            finally:
                tracer.paused = False

        workload.reference = paused
        tracer.install()

    cache = correlations._covariance0_cached
    hits = misses = 0
    durations, failures = [], []
    attempted = wrong = 0
    busy = 0.0
    i = 0
    with FailureProbe() as probe:
        while True:
            call = workload.call(i)
            before = cache.cache_info()
            seconds, rc, escaped, err_text = execute(call)
            after = cache.cache_info()
            hits += after.hits - before.hits
            misses += after.misses - before.misses
            durations.append(seconds)
            busy += seconds
            records = evaluate(call, rc, escaped, err_text, probe)
            attempted += len(records)
            for rec in records:
                if rec is not None:
                    failures.append(rec)
                    wrong += rec["kind"] == "tolerance"
            i += 1
            if args.calls is not None:
                if i >= args.calls:
                    break
            elif call.unit_end and busy >= args.seconds:
                break
    if tracer is not None:
        tracer.restore()

    summary = Counter((f["kind"], f["type"], f["layer"]) for f in failures)
    first_input = {}
    for f in failures:
        first_input.setdefault((f["kind"], f["type"], f["layer"]),
                               (f["input"], f["detail"]))
    result = {
        "durations": durations,
        "attempted": attempted,
        "failed": len(failures),
        "wrong": wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "failures": [
            {"kind": k, "type": t, "layer": layer, "count": n,
             "input": first_input[(k, t, layer)][0],
             "detail": first_input[(k, t, layer)][1]}
            for (k, t, layer), n in sorted(summary.items())],
    }
    if tracer is not None:
        if args.spans:
            tracer.write(args.spans)
        result["layers"] = tracer.aggregate()
        result["panels"] = tracer.panels
        result["nonzero_tab_points"] = tracer.nonzero_tab_points
        result["cache_hits"], result["cache_misses"] = hits, misses
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
