"""The benchmark's workloads: experiment specs generated from a seed.

Every workload is a list of spec dicts run through `run_experiment`, plus,
for `closed-form`, a grid of `gamma_crossover` queries. The seed sets the
spec seed (channel draws) and the Monte-Carlo seed; sizes and grids are
fixed so that every seed does the same amount of work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

N_TX = 64
PAPER_GAMMA_GRID = [round(0.05 * i, 2) for i in range(1, 20)]
MARGIN_GAMMA_GRID = [round(0.02 * i, 2) for i in range(1, 50)]
CROSSOVER_M = (2, 3, 4, 6, 8, 12, 16)
CROSSOVER_N0 = (0.05, 0.1, 0.5, 1.0)

WORKLOADS = ("mc-small-array", "mc-large-array", "closed-form")


@dataclass(frozen=True)
class Workload:
    n_r: int  # receive array size, used by the numerics probes
    specs: tuple  # spec dicts, each with outputs.csv set
    crossovers: tuple  # (m, n0, g1) queries for gamma_crossover
    spec_files: tuple  # the same specs as JSON files, for the set-up probe


def _spec_dicts(name: str, seed: int) -> list[dict]:
    if name == "mc-small-array":
        # the shape of the paper's headline figure: two beams, SNR axis, MC oracle
        return [dict(
            experiment="snr-sweep", grid=[-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0],
            channel=dict(n_tx=N_TX, n_rx=8, m=2, gains=[0.6, 0.4]),
            trials=3, mc=dict(n_samples=20_000, seed=seed), seed=seed)]
    if name == "mc-large-array":
        # n_rx = 64 is the largest receive array the dense determinant path accepts
        return [dict(
            experiment="gamma-sweep", grid=[0.5, 0.8],
            channel=dict(n_tx=N_TX, n_rx=64, m=[1, 2, 4, 8]), noise=dict(n0=0.1),
            trials=2, mc=dict(n_samples=1_500, seed=seed), seed=seed)]
    if name == "closed-form":
        return [
            dict(experiment="gamma-sweep", grid=PAPER_GAMMA_GRID,
                 channel=dict(n_tx=N_TX, n_rx=8, m=[1, 2, 4, 8]), noise=dict(n0=0.1),
                 trials=30, seed=seed),
            dict(experiment="margin-map", grid=MARGIN_GAMMA_GRID,
                 channel=dict(n_tx=N_TX), noise=dict(n0=[0.05, 0.1, 0.5]), seed=seed),
        ]
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")


def make_workload(name: str, seed: int, work_dir: Path) -> Workload:
    """Generate the workload's specs for `seed` and write them under `work_dir`."""
    specs = _spec_dicts(name, seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, spec in enumerate(specs):
        stem = f"{name}-seed{seed}-{i}"
        spec["outputs"] = dict(csv=str(work_dir / f"{stem}.csv"))
        path = work_dir / f"{stem}.json"
        path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
        files.append(str(path))
    crossovers = ()
    if name == "closed-form":
        crossovers = tuple((m, n0, float(N_TX)) for m in CROSSOVER_M for n0 in CROSSOVER_N0)
    n_r = max(spec.get("channel", {}).get("n_rx", 8) for spec in specs)
    return Workload(n_r, tuple(specs), crossovers, tuple(files))
