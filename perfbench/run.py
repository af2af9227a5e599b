"""Benchmark of spimmwave: set-up, run time, time to a target Monte-Carlo
stderr and memory end to end, and per-module layer metrics from a traced run.

Usage, from the repository root:
    python3 perfbench/run.py --workload mc-small-array --seed 1 --seconds 20 --trace 0

Each run generates its workload's specs from --seed, measures set-up in
fresh processes, runs one untimed repetition whose outputs are checked,
then repeats the workload for --seconds and reports medians. --trace 0
prints the end-to-end metrics; --trace 1 alternates untraced and traced
repetitions and prints the per-layer metrics. The last line of standard
output is one JSON object; the metric names and units are those declared
in BENCHMARK.json. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from workloads import WORKLOADS, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

TARGET_STDERR = 0.01  # bits; s_to_stderr is the time for the worst point to reach it
SETUP_PROBES = 5
MIN_REPS = 3
PROBE_BATCHES = 9
LOGDET_CALLS = 200
MC_BATCH = 16_384  # MonteCarloSpec's default chunk of draws


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="how long the repeated, timed part of the run lasts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads():
    """Thread count of the OpenBLAS library numpy loaded, or None if unreadable."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_context() -> dict:
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_sha": git_sha(), "platform": platform.platform()}


def measure_setup(workload) -> tuple[list, list]:
    """Wall seconds of fresh set-up processes, and their `spimmwave.cli` import seconds."""
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *workload.spec_files],
                             capture_output=True, text=True, check=True, timeout=120)
        walls.append(time.perf_counter() - start)
        imports.append(float(out.stdout.split()[-1]))
    return walls, imports


def numerics_probes(n_r: int, seed: int) -> dict:
    """Kernel timings on the workload's receive-array size."""
    from spimmwave import hermitian_logdet, make_rng

    rng = make_rng(seed, 1)
    a = rng.standard_normal((n_r, n_r)) + 1j * rng.standard_normal((n_r, n_r))
    hpd = a @ a.conj().T + n_r * np.eye(n_r)
    logdet_us, normal_ns = [], []
    for batch in range(PROBE_BATCHES):
        start = time.perf_counter()
        for _ in range(LOGDET_CALLS):
            hermitian_logdet(hpd)
        logdet_us.append((time.perf_counter() - start) / LOGDET_CALLS * 1e6)
        start = time.perf_counter()
        make_rng(seed, batch).standard_normal((MC_BATCH, n_r))
        normal_ns.append((time.perf_counter() - start) / (MC_BATCH * n_r) * 1e9)
    return {"numerics.logdet_us": statistics.median(logdet_us),
            "numerics.normal_ns_per_sample": statistics.median(normal_ns)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spimmwave" / "__init__.py").is_file():
        print(f"error: no spimmwave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spimmwave import conditions, experiments

    from checks import Tally, check_closed_forms, check_monte_carlo
    from tracing import Tracer, layer_metrics

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    workload = make_workload(args.workload, args.seed, WORK)
    specs = [experiments.spec_from_dict(data) for data in workload.specs]

    def run_once():
        """One repetition: each spec through run_experiment, then the crossover grid."""
        start = time.perf_counter()
        rows = [experiments.run_experiment(spec) for spec in specs]
        roots = [conditions.gamma_crossover(m, n0, g1) for m, n0, g1 in workload.crossovers]
        wall = time.perf_counter() - start
        digest = hashlib.sha256(repr(roots).encode())
        for spec in specs:
            digest.update(Path(spec.outputs.csv).read_bytes())
        return wall, rows, digest.hexdigest()

    context = run_context()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    setup_walls, import_times = measure_setup(workload)

    tally = Tally()
    _, rows, reference = run_once()  # warm-up; its outputs are the ones checked
    for spec, spec_rows in zip(specs, rows):
        tally.run("closed-form check", check_closed_forms, spec, spec_rows, args.seed)
        if spec.mc is not None:
            tally.run("monte-carlo check", check_monte_carlo, spec, spec_rows)

    tracer = Tracer()
    untraced, traced, layers = [], [], []

    def repetition(traced_run: bool) -> bool:
        try:
            if traced_run:
                first = len(tracer.spans)
                with tracer.installed():
                    wall, _, digest = run_once()
                traced.append(wall)
                layers.append(layer_metrics(tracer.spans[first:]))
                tracer.rep += 1
            else:
                wall, _, digest = run_once()
                untraced.append(wall)
        except Exception:  # counted as a failed attempt; the run stops repeating
            tally.record(False, "repetition raised:\n" + traceback.format_exc())
            return False
        tally.record(digest == reference, "repeat with the same seed changed the output bytes")
        return True

    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(untraced) < MIN_REPS:
        if not repetition(False) or (args.trace and not repetition(True)):
            break
    if not untraced or (args.trace and not traced):
        print("\n".join(tally.failures), file=sys.stderr)
        return 1

    wall_s = statistics.median(untraced)
    if args.trace:
        metrics = {name: statistics.median(rep[name] for rep in layers) for name in layers[0]}
        metrics.update(numerics_probes(workload.n_r, args.seed))
        metrics["cli.import_s"] = statistics.median(import_times)
        metrics["trace.overhead_s"] = statistics.median(traced) - wall_s
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"context": context, "missing": tracer.missing, "spans": tracer.spans}),
            encoding="utf-8")
        print(f"spans {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}; "
              f"targets missing: {', '.join(tracer.missing) or 'none'}")
    else:
        spim_stderr = [r.mc_stderr for spec_rows in rows for r in spec_rows
                       if r.method == "monte-carlo" and r.variant != "mmwave"]
        # closed forms are exact: they reach any target stderr in their run time
        worst = max(spim_stderr) / TARGET_STDERR if spim_stderr else 1.0
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "wall_s": wall_s,
            "s_to_stderr": wall_s * worst ** 2,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "check_pass_ratio": 1.0 - tally.failed / tally.attempted,
        }

    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    print(f"repetitions untraced {len(untraced)} traced {len(traced)}")
    for name in units:
        print(f"{name:32s} {metrics[name]:.6g} {units[name]}")
    print(f"{'failure_ratio':32s} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} checks)")
    if tally.failures:
        print("\n".join(tally.failures), file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
