"""Benchmark of the nonmarkov package through its command-line entry point.

    python3 perfbench/run.py --workload {sweep,tabulated,means} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Each workload runs in a fresh interpreter
with PYTHONPATH=src (perfbench/worker.py), which makes its timed calls to
`nonmarkov.cli.main` in-process, one at a time, and checks every op
against an independent reference.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:

  ops_per_s    good ops ÷ time inside timed calls
  call_p50_s   median wall time of one cli.main call
  setup_s      median of SETUP_SAMPLES set-ups: interpreter start,
               imports, seeded inputs and one untimed warm-up call
  peak_rss_mb  peak resident set of the workload process

--trace 1 reports the per-layer metrics: the same loop with every layer's
public functions wrapped in spans (perfbench/tracing.py), plus the
tracing overhead against an untraced replay of the first calls.  Spans
are written to perfbench/out/spans-<workload>.jsonl.

`correct` is false when any op returned a number outside its reference
tolerance; `failed` also counts ops that raised, gave an error row or a
non-zero exit.  Lines before the JSON give the failure ratio, the tail
call time and every failure's type, layer and first input.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
WORKLOADS = ("sweep", "tabulated", "means")


class BenchError(Exception):
    pass


def _read_line(proc, deadline):
    """One line of a child's unbuffered stdout, within the deadline."""
    fd = proc.stdout.fileno()
    data = b""
    while not data.endswith(b"\n"):
        wait = deadline - time.monotonic()
        if wait <= 0 or not select.select([fd], [], [], wait)[0]:
            raise BenchError("workload process timed out")
        chunk = os.read(fd, 1)
        if not chunk:
            raise BenchError(f"workload process ended early "
                             f"(exit {proc.wait()})")
        data += chunk
    return data.decode().strip()


def _child(args, extra, workdir, deadline):
    """Start a worker; return (seconds to 'ready', its JSON or None)."""
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir), *extra]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=env)
    try:
        if _read_line(proc, deadline) != "ready":
            raise BenchError("workload process did not report set-up")
        setup = time.monotonic() - start
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(),
                                              0.1))
    except (BenchError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def _tail(durations):
    """Highest whole percentile with at least ten calls beyond it."""
    n = len(durations)
    if n < 20:
        return None
    pct = int(100 * (n - 10) // n)
    return pct, statistics.quantiles(durations, n=100)[pct - 1]


def _layer_metrics(traced, overhead, names):
    """Per-layer values by name: `<span>.<stat>` from the aggregated spans,
    plus the counts the tracer and the worker keep outside the spans."""
    from tracing import FROM_FILE, FUNCTIONS, METHODS

    layers = traced["layers"]
    known = {f[2] for f in FUNCTIONS + METHODS} | {FROM_FILE}

    def stat(name):
        span, _, key = name.rpartition(".")
        if span not in known:
            raise BenchError(f"metric {name}: no span {span} is traced")
        return layers.get(span, {}).get(key, 0)

    pv_calls = stat("quadrature.principal_value.calls")
    points = traced["nonzero_tab_points"]
    extras = {
        "spectral.tabulated.dispersion_hit_ratio":
            1.0 - pv_calls / points if points else 0.0,
        "quantifiers.quantify.panels": traced["panels"],
        "correlations.covariance0.cache_hits": traced["cache_hits"],
        "correlations.covariance0.cache_misses": traced["cache_misses"],
        "quadrature.principal_value.share":
            stat("quadrature.principal_value.self_s")
            / max(stat("cli.main.wall_s"), 1e-12),
        "trace.overhead": overhead,
    }
    return {n: extras[n] if n in extras else stat(n) for n in names}


def _select(spec, values):
    metrics = {}
    for m in spec:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return metrics


def run(args):
    if not (Path("src") / "nonmarkov" / "__init__.py").is_file():
        raise BenchError("src/nonmarkov not found: run from the repository "
                         "root of a checkout")
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = HERE / "out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for k in range(0 if args.trace else SETUP_SAMPLES - 1):
            setups.append(_child(args, ["--role", "setup"], work / f"s{k}",
                                 deadline)[0])
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(out_dir / f"spans-{args.workload}.jsonl")]
        setup, res = _child(args, extra, work / "run", deadline)
        setups.append(setup)
        if args.trace:
            # untraced replay of the first calls, about half the time
            durations, k, total = res["durations"], 0, 0.0
            while k < len(durations) and (k == 0 or total + durations[k]
                                          <= args.seconds / 2):
                total += durations[k]
                k += 1
            _, twin = _child(args, ["--calls", str(k)], work / "twin",
                             deadline)
            overhead = total / sum(twin["durations"]) - 1.0
            values = _layer_metrics(res, overhead,
                                    [m["name"] for m in spec["per_layer"]])
            metrics = _select(spec["per_layer"], values)
        else:
            durations = res["durations"]
            good = res["attempted"] - res["failed"]
            values = {
                "ops_per_s": good / sum(durations),
                "call_p50_s": statistics.median(durations),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            metrics = _select(spec["end_to_end"], values)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    durations = res["durations"]
    print(f"workload {args.workload}, seed {args.seed}: {len(durations)} "
          f"calls, {res['attempted']} ops, failed_ratio "
          f"{res['failed'] / max(res['attempted'], 1):.4f}")
    print(f"call times: min {min(durations):.6g} s, median "
          f"{statistics.median(durations):.6g} s, max {max(durations):.6g} s")
    tail = _tail(durations)
    if tail:
        print(f"call_tail_s: p{tail[0]} = {tail[1]:.6g} s over "
              f"{len(durations)} calls")
    else:
        print(f"call_tail_s: omitted, {len(durations)} calls (< 20)")
    for f in res["failures"]:
        print(f"failure x{f['count']}: {f['kind']}, {f['type']} in "
              f"{f['layer']}: {f['detail'][:160]} | input: {f['input']}")
    return {"correct": res["wrong"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
