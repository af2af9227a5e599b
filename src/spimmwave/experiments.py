"""Declarative experiment runner: sweeps, canned presets, CSV and plot scripts.

A spec is a flat JSON object mirroring ExperimentSpec; unknown keys are
rejected with the offending field path. Runs are deterministic given the
seed: channel draws use one stream per trial, and output rows are emitted
in a fixed (axis, method, variant) order regardless of execution order.
The snr, w1 and gamma sweeps score their beams through one function,
_sweep_rows: an snr or w1 sweep calls it once, with its spim and single-beam
(mmwave) systems, and a gamma sweep once per beam count. Each call draws the
angles once, by channel._draw_angles on the trial streams, makes one
spim_rate call over every (grid point, trial) pair, which takes the
Dirichlet gaps once for the whole grid and scores it in blocks of whole
grid points, and reduces each (method, variant) block to its rows in one
pass over the trial axis; an snr or w1 sweep adds its shannon rows in one
mmwave_rate call. A q-function grid is scored in
one dirichlet_gain call per array size, and a margin map in one spim_margin
call. Monte-Carlo points share their draws along the sweep axis (common
random numbers). A sweep builds and checks one batched ChannelRealization
of all its trials and steers them in groups of points // (gain rows)
trials, at least one, each group at every grid point by one build_abf and
one effective_channel call: an snr sweep shares one gain row across its
points, so a group holds up to points trials, and a w1 or gamma sweep,
whose gains change along the grid, steers one trial per call. A group's
channels then hold no more entries than one trial's channel at every
point. The trials go in blocks of n_tx // m, m the sweep's largest beam
count, so a block's beams hold no more entries than that channel either,
and memory does not grow with the trial count. A system whose sets need
no draws (one pattern, or two rank-one patterns: montecarlo._seed_free) is
answered in one estimator call per block; any other takes one call per
trial. Each call covers every grid point, on the
seed derived from (mc seed, trial, system), or from (mc seed, beam count,
trial, 0) in gamma sweeps; a block's call passes its first trial's seed,
which the exact answer never reads, so no random stream changes.
Trials keep independent streams, so a row's combined stderr still holds;
rows along an axis are positively correlated, so their differences carry
less Monte-Carlo error than their stderrs suggest.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .beamforming import build_abf, effective_channel
from .capacity import CovarianceSet, dirichlet_gain, mmwave_rate, spim_rate
from .channel import (DEFAULT_AOA_RANGE, DEFAULT_AOD_RANGE, ChannelRealization, _draw_angles,
                      min_angle_separation)
from .conditions import _B_MAX_CAP, spim_margin
from .errors import ParameterError, SpecValidationError
from .montecarlo import MonteCarloSpec, _seed_free, mc_mutual_information

METHOD_SHANNON = "shannon"
METHOD_GENERAL_M = "general-m"
METHOD_MONTE_CARLO = "monte-carlo"
METHOD_MARGIN = "margin"
METHOD_Q_FUNCTION = "q-function"

METHOD_TAGS = (METHOD_SHANNON, METHOD_GENERAL_M, METHOD_MONTE_CARLO, METHOD_MARGIN,
               METHOD_Q_FUNCTION)

CSV_COLUMNS = ("axis", "method", "variant", "value", "value_std", "mc_stderr", "seed", "trials")

EXPERIMENT_KINDS = ("snr-sweep", "w1-sweep", "gamma-sweep", "margin-map", "q-function")


@dataclass
class ChannelParams:
    n_tx: int = 64
    n_rx: int = 8
    m: object = 2  # beam count, or a list of counts for gamma sweeps
    gains: list | None = None
    normalize: bool = False
    aod_range: tuple = DEFAULT_AOD_RANGE
    aoa_range: tuple = DEFAULT_AOA_RANGE
    asymptotic: bool = False


@dataclass
class NoiseParams:
    n0: object = None  # scalar, or a list for margin maps


@dataclass
class MarginParams:
    b_max: int = 6
    relax_integer: bool = True


@dataclass
class OutputParams:
    csv: str | None = None
    plot_script: str | None = None


@dataclass
class ExperimentSpec:
    experiment: str
    grid: list
    channel: ChannelParams = field(default_factory=ChannelParams)
    noise: NoiseParams | None = None
    trials: int = 100
    mc: MonteCarloSpec | None = None
    seed: int = 0
    margin: MarginParams = field(default_factory=MarginParams)
    outputs: OutputParams = field(default_factory=OutputParams)


@dataclass(frozen=True)
class ResultRow:
    axis: float
    method: str
    variant: str
    value: float
    value_std: float | None
    mc_stderr: float | None
    seed: int
    trials: int


def _coerce(cls, data, path: str):
    if not isinstance(data, dict):
        raise SpecValidationError(path, f"expected an object, got {type(data).__name__}")
    names = [f.name for f in fields(cls)]
    for key in data:
        if key not in names:
            raise SpecValidationError(f"{path}.{key}", "unknown key")
    try:
        return cls(**data)
    except (TypeError, ParameterError) as exc:
        name = getattr(exc, "field", None)
        raise SpecValidationError(f"{path}.{name}" if name else path, str(exc)) from exc


def load_spec(path, *, seed: int | None = None, trials: int | None = None,
              mc_samples: int | None = None) -> ExperimentSpec:
    """Parse a JSON experiment file, apply the overrides that are set, and validate it."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(str(path), f"invalid JSON: {exc}") from exc
    _override(data, seed, trials, mc_samples)
    return spec_from_dict(data)


def _override(data, seed: int | None, trials: int | None, mc_samples: int | None) -> None:
    """Write the overrides that are not None into a spec dict, before it is validated.

    mc_samples applies only to a spec with an mc section.
    """
    if not isinstance(data, dict):
        return  # spec_from_dict rejects it
    for key, value in (("seed", seed), ("trials", trials)):
        if value is not None:
            data[key] = value
    if mc_samples is not None and isinstance(data.get("mc"), dict):
        data["mc"]["n_samples"] = mc_samples


def spec_from_dict(data: dict) -> ExperimentSpec:
    if not isinstance(data, dict):
        raise SpecValidationError("<root>", "spec must be a JSON object")
    nested = {"channel": (ChannelParams, "channel"), "noise": (NoiseParams, "noise"),
              "mc": (MonteCarloSpec, "mc"), "margin": (MarginParams, "margin"),
              "outputs": (OutputParams, "outputs")}
    prepared = dict(data)
    for key, (cls, path) in nested.items():
        # null means "not set" only where the default is None; elsewhere it is no object
        if key in prepared and (prepared[key] is not None or key not in ("noise", "mc")):
            prepared[key] = _coerce(cls, prepared[key], path)
    spec = _coerce(ExperimentSpec, prepared, "<root>")
    validate_spec(spec)
    return spec


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A JSON number that converts to a finite float (NaN fails the comparison)."""
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _is_count(x) -> bool:
    return _is_int(x) and x >= 1


def _is_list_of(value, test) -> bool:
    return isinstance(value, (list, tuple)) and all(test(v) for v in value)


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _require(ok: bool, path: str, message: str) -> None:
    if not ok:
        raise SpecValidationError(path, message)


def _validate_types(spec: ExperimentSpec) -> None:
    """Every field has its JSON type, so the runners never see a string or a float count."""
    kind = spec.experiment
    ch = spec.channel
    _require(_is_list_of(spec.grid, _is_number), "grid", "must be a list of finite numbers")
    _require(_is_count(spec.trials), "trials", "must be an integer >= 1")
    _require(_is_int(spec.seed), "seed", "must be an integer")
    _require(_is_count(ch.n_tx), "channel.n_tx", "must be an integer >= 1")
    _require(_is_count(ch.n_rx) or (kind == "q-function" and _is_list_of(ch.n_rx, _is_count)),
             "channel.n_rx", f"must be a single integer >= 1 for {kind}")
    _require(_is_count(ch.m) or (kind == "gamma-sweep" and _is_list_of(ch.m, _is_count)),
             "channel.m", f"must be a single integer >= 1 for {kind}")
    _require(ch.gains is None or _is_list_of(ch.gains, _is_number),
             "channel.gains", "must be a list of finite numbers")
    for name in ("aod_range", "aoa_range"):
        value = getattr(ch, name)
        _require(_is_list_of(value, _is_number) and len(value) == 2
                 and -0.5 <= value[0] < value[1] <= 0.5,
                 f"channel.{name}", "must be an increasing pair of numbers in [-0.5, 0.5]")
    for path, value in (("channel.normalize", ch.normalize), ("channel.asymptotic", ch.asymptotic),
                        ("margin.relax_integer", spec.margin.relax_integer)):
        _require(isinstance(value, bool), path, "must be true or false")
    if spec.noise is not None:
        n0 = spec.noise.n0
        _require(n0 is None or _is_number(n0)
                 or (kind == "margin-map" and _is_list_of(n0, _is_number)),
                 "noise.n0", "must be a finite number, or a list of them for margin-map")
    _require(_is_int(spec.margin.b_max) and 0 <= spec.margin.b_max <= _B_MAX_CAP,
             "margin.b_max", f"must be an integer in [0, {_B_MAX_CAP}]")
    for name in ("csv", "plot_script"):
        value = getattr(spec.outputs, name)
        _require(value is None or isinstance(value, str), f"outputs.{name}", "must be a path")


def validate_spec(spec: ExperimentSpec) -> None:
    kind = spec.experiment
    _require(kind in EXPERIMENT_KINDS, "experiment", f"must be one of {EXPERIMENT_KINDS}")
    _validate_types(spec)
    grid = list(spec.grid)
    ch = spec.channel
    _require(len(grid) > 0, "grid", "must be non-empty")
    _require(all(b > a for a, b in zip(grid, grid[1:])), "grid", "must be strictly increasing")
    if kind in ("gamma-sweep", "margin-map"):
        _require(all(0.0 < g < 1.0 for g in grid), "grid", "decay values must lie in (0, 1)")
    if kind in ("w1-sweep", "gamma-sweep"):
        n0 = None if spec.noise is None else spec.noise.n0
        _require(_is_number(n0) and n0 > 0, "noise.n0", f"{kind} needs one noise level > 0")
    if kind == "snr-sweep":
        _require(spec.noise is None, "noise", "snr-sweep takes its noise axis from the grid")
        _require(all(0 < _noise_from_snr(snr) < math.inf for snr in grid),
                 "grid", "SNR values must give a finite noise power > 0")
        _require(ch.gains is not None, "channel.gains", "snr-sweep needs explicit path gains")
        _require(len(ch.gains) == ch.m, "channel.gains", f"expected {ch.m} entries")
    elif kind == "w1-sweep":
        _require(ch.m == 2, "channel.m", "w1-sweep is a two-beam experiment")
        _require(all(0.5 <= w < 1.0 for w in grid), "grid", "w1 values must lie in [0.5, 1)")
    elif kind == "gamma-sweep":
        _require(ch.gains is None, "channel.gains", "gamma-sweep derives gains from the axis")
        _require(len(set(_as_list(ch.m))) == len(_as_list(ch.m)), "channel.m",
                 "beam counts must be distinct")
    elif kind == "margin-map":
        _require(spec.noise is not None and spec.noise.n0 is not None,
                 "noise.n0", "margin-map needs one or more noise levels")
        n0s = _as_list(spec.noise.n0)
        _require(all(n0 >= 0 for n0 in n0s), "noise.n0", "noise levels must be >= 0")
        labels = [_n0_label(n0) for n0 in n0s]
        _require(len(set(labels)) == len(labels), "noise.n0",
                 f"noise levels must have distinct row labels, got {labels}")
    elif kind == "q-function":
        _require(spec.noise is None, "noise", "q-function uses no noise model")
    if kind in ("snr-sweep", "w1-sweep", "gamma-sweep"):
        # the test channel._draw_angles makes, so every spec that validates can draw its angles
        floor = min_angle_separation(ch.n_tx, ch.n_rx)
        span = (max(_as_list(ch.m)) - 1) * floor
        for name in ("aod_range", "aoa_range"):
            lo, hi = getattr(ch, name)
            _require(not span > hi - lo, f"channel.{name}", f"the largest beam count at separation "
                     f"{floor} needs a span of {span}, more than {(lo, hi)} holds")


def _noise_from_snr(snr_db: float) -> float:
    """Linear noise power 10^(-snr_db/10); inf where that overflows."""
    try:
        return 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        return math.inf


def _mix_seed(*parts: int) -> int:
    out = 0
    for p in parts:
        out = (out * 1_000_003 + int(p) + 0x9E3779B9) & 0x7FFFFFFFFFFFFFFF
    return out


def _rows(spec: ExperimentSpec, axes, method: str, variant: str, values,
          stderrs=None) -> list[ResultRow]:
    """One row per point of (points, trials) values: mean, ddof=1 spread, combined MC stderr.

    Each statistic is one reduction over the trial axis of a C-contiguous
    block, which gives every row the bits of the same call on its own trials.
    """
    values = np.ascontiguousarray(values)
    trials = values.shape[-1]
    means = np.mean(values, axis=-1)
    stds = np.std(values, axis=-1, ddof=1) if trials > 1 else np.zeros(len(values))
    errs = ([None] * len(values) if stderrs is None
            else np.sqrt(np.sum(np.ascontiguousarray(stderrs) ** 2, axis=-1)) / trials)
    return [ResultRow(axis, method, variant, float(mean), float(std),
                      None if err is None else float(err), spec.seed, trials)
            for axis, mean, std, err in zip(axes, means, stds, errs)]


def _gains(spec: ExperimentSpec, w) -> np.ndarray:
    """Rows of path gains as floats, each divided by its sum where the channel asks to normalize."""
    w = np.asarray(w, dtype=np.float64)
    return w / w.sum(axis=-1, keepdims=True) if spec.channel.normalize else w


def _sweep_rows(spec: ExperimentSpec, axes, w, n0, beam_counts: tuple,
                key: tuple) -> list[ResultRow]:
    """The general-m rows of one sweep, and its monte-carlo rows where the spec has an mc section.

    w holds the (points, m) gains from _gains, or one (1, m) row every point
    shares, and n0 the (points,) noise floors. The paths are put
    strongest-first, the stable order a channel drawn with these gains holds;
    the runners keep it the same at every point (snr gains are fixed, w1 >= 0.5
    keeps w1 first, and decay gains never rise, so their order is the
    identity). One spim_rate call scores every (point, trial) pair; its rows
    take the variant of beam_counts[0]. Each (count, variant) pair of
    beam_counts gives one monte-carlo block: switching among the first count
    steered beams, each one equiprobable pattern, the system spim_rate scores.
    The sweep's channels are one ChannelRealization of shape (trials, W, m),
    W the gain rows of w, built and checked once; the drawn angles and the
    validated gains need no second check. Its trials are steered in groups of
    max(1, points // W), each group at every point by one build_abf and one
    effective_channel call on the realization's _take of those trials, so a
    call's channels hold at most (points, n_r, n_tx) entries: an snr sweep
    steers up to points trials a call, a w1 or gamma sweep one. The beams
    are kept in a (points, block, m, n_r) array for a block of
    max(1, n_tx // m) trials, no more entries than that (points, n_r, n_tx)
    channel, and a group never crosses a block's end. A count whose sets
    need no draws (_seed_free) estimates all points of the block's trials in
    one call, on the seed of its first trial, which it never reads; any other
    count estimates all points of one trial in one call, on the draws of the
    seed _mix_seed(mc.seed, *key, t, i) of pair i. The sets of one call share a noise floor, so each point's
    beams are scaled by 1/sqrt(N0) and sampled at n0 = 1: the rate depends
    only on G G^H / N0.
    """
    ch = spec.channel
    m = w.shape[-1]
    order = np.argsort(-w[0], kind="stable")
    aod, aoa = _draw_angles([(spec.seed, t) for t in range(spec.trials)], m, ch.n_tx, ch.n_rx,
                            ch.aod_range, ch.aoa_range)
    w, aod, aoa = w[:, order], aod[:, order], aoa[:, order]
    rates = spim_rate(w[:, None, :], np.full(m, float(ch.n_tx)), aoa, ch.n_rx, n0[:, None])
    rows = _rows(spec, axes, METHOD_GENERAL_M, beam_counts[0][1], rates)
    if spec.mc is None:
        return rows
    mode = "asymptotic" if ch.asymptotic else "exact"
    scale = np.sqrt(n0)[:, None, None]
    out = np.empty((len(beam_counts), 2, len(n0), spec.trials))
    size = max(1, ch.n_tx // m)  # a block's beams hold no more entries than one channel
    group = max(1, len(n0) // len(w))  # nor do a group's channels: group * len(w) <= points
    real = ChannelRealization(ch.n_tx, ch.n_rx, aod[:, None], aoa[:, None], w)
    for start in range(0, spec.trials, size):
        block = out[..., start:start + size]  # a view: the calls write their trials' pairs
        trials = range(start, start + block.shape[-1])
        beams = np.empty((len(n0), len(trials), m, ch.n_rx), dtype=np.complex128)
        for j in range(0, len(trials), group):
            chan = real._take(slice(start + j, start + min(j + group, len(trials))))
            eff = effective_channel(chan, build_abf(chan, m), mode) / scale
            beams[:, j:j + group] = eff.transpose(1, 0, 3, 2)
        for i, (count, _) in enumerate(beam_counts):
            # a seed-free set reads no seed, so one call answers the whole block
            calls = [(slice(None), start)] if _seed_free(count, 1) else enumerate(trials)
            for j, t in calls:
                covs = CovarianceSet(1.0, beams[:, j, :count, :, None])
                block[i, :, :, j] = np.moveaxis(mc_mutual_information(covs, MonteCarloSpec(
                    spec.mc.n_samples, seed=_mix_seed(spec.mc.seed, *key, t, i))), -1, 0)
    for (_, variant), (values, stderrs) in zip(beam_counts, out):
        rows += _rows(spec, axes, METHOD_MONTE_CARLO, variant, values, stderrs)
    return rows


def _run_se_sweep(spec: ExperimentSpec) -> list[ResultRow]:
    """Shared implementation of snr-sweep and w1-sweep: one call per system scores every point."""
    ch = spec.channel
    axes = [float(x) for x in spec.grid]
    if spec.experiment == "snr-sweep":
        n0 = np.array([_noise_from_snr(snr) for snr in axes])
        w = _gains(spec, [ch.gains])  # one row, shared by every point
    else:
        n0 = np.full(len(axes), float(spec.noise.n0))
        w = _gains(spec, [[w1, 1.0 - w1] for w1 in axes])
    shannon = mmwave_rate(w.max(axis=-1), float(ch.n_tx), n0)  # the strongest path alone
    return (_rows(spec, axes, METHOD_SHANNON, "mmwave",
                  np.broadcast_to(shannon[:, None], (len(axes), spec.trials)))
            + _sweep_rows(spec, axes, w, n0, ((ch.m, "spim"), (1, "mmwave")), ()))


def _run_gamma_sweep(spec: ExperimentSpec) -> list[ResultRow]:
    """One sweep per beam count m, on the decay gains gamma ** arange(m)."""
    gammas = [float(gamma) for gamma in spec.grid]
    n0 = np.full(len(gammas), float(spec.noise.n0))
    rows = []
    for m in _as_list(spec.channel.m):
        w = _gains(spec, [gamma ** np.arange(m) for gamma in gammas])
        rows += _sweep_rows(spec, gammas, w, n0, ((m, f"m={m}"),), (m,))
    return rows


def _n0_label(n0: float) -> str:
    """Variant label of a margin-map noise level; validate_spec keeps them distinct."""
    return f"n0={n0:g}"


def _run_margin_map(spec: ExperimentSpec) -> list[ResultRow]:
    """One spim_margin call scores the whole (noise level, decay) map."""
    gammas = [float(gamma) for gamma in spec.grid]
    levels = _as_list(spec.noise.n0)
    margins = spim_margin(gammas, np.array(levels, dtype=np.float64)[:, None],
                          float(spec.channel.n_tx), spec.margin.b_max, spec.margin.relax_integer)
    return [ResultRow(gamma, METHOD_MARGIN, _n0_label(n0), float(margin), None, None, spec.seed, 1)
            for n0, row in zip(levels, margins) for gamma, margin in zip(gammas, row)]


def _run_q_function(spec: ExperimentSpec) -> list[ResultRow]:
    """One dirichlet_gain call per receive-array size scores the whole grid."""
    grid = np.asarray(spec.grid, dtype=np.float64)
    rows = []
    for n_rx in _as_list(spec.channel.n_rx):
        rows += [ResultRow(float(delta), METHOD_Q_FUNCTION, f"nr={n_rx}", float(gain),
                           None, None, spec.seed, 1)
                 for delta, gain in zip(grid, dirichlet_gain(grid, n_rx))]
    return rows


_RUNNERS = {
    "snr-sweep": _run_se_sweep,
    "w1-sweep": _run_se_sweep,
    "gamma-sweep": _run_gamma_sweep,
    "margin-map": _run_margin_map,
    "q-function": _run_q_function,
}


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Execute a validated spec, write its outputs if set, and return its rows sorted."""
    validate_spec(spec)
    rows = sorted(_RUNNERS[spec.experiment](spec), key=lambda r: (r.axis, r.method, r.variant))
    if spec.outputs.csv:
        write_csv(rows, spec.outputs.csv)
    if spec.outputs.plot_script:
        write_plot_script(spec, Path(spec.outputs.csv or "results.csv").name,
                          spec.outputs.plot_script)
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_csv(rows, path) -> None:
    """UTF-8 CSV, '.' decimal separator, fixed column order, deterministic bytes.

    The float columns go through _fmt; csv writes the str and int ones as
    str(value), as _fmt would.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows((_fmt(row.axis), row.method, row.variant, _fmt(row.value),
                          _fmt(row.value_std), _fmt(row.mc_stderr), row.seed, row.trials)
                         for row in rows)  # in CSV_COLUMNS order


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Render %(title)s from %(csv_name)s."""
import collections
import csv
import math

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open("%(csv_name)s", encoding="utf-8")))
series = collections.defaultdict(list)
for row in rows:
    series[(row["method"], row["variant"])].append((float(row["axis"]), float(row["value"])))

fig, ax = plt.subplots(figsize=(7, 4.5))
for (method, variant), points in sorted(series.items()):
    points.sort()
    xs = [p[0] for p in points]
    ys = [%(y_expr)s for p in points]
    ax.plot(xs, ys, marker="o", markersize=3, label=f"{method} {variant}".strip())
ax.set_xlabel(%(x_label)r)
ax.set_ylabel(%(y_label)r)
ax.grid(alpha=0.3)
ax.legend(fontsize=8)
fig.savefig("%(png_name)s", dpi=150, bbox_inches="tight")
print("wrote %(png_name)s")
'''

_AXIS_LABELS = {
    "snr-sweep": ("SNR [dB]", "spectral efficiency [bits/s/Hz]"),
    "w1-sweep": ("strongest-path share w1", "spectral efficiency [bits/s/Hz]"),
    "gamma-sweep": ("gain decay factor", "spectral efficiency [bits/s/Hz]"),
    "margin-map": ("gain decay factor", "log2 feasible beam count"),
    "q-function": ("normalized angle difference", "beam overlap gain"),
}


def write_plot_script(spec: ExperimentSpec, csv_name: str, path) -> None:
    """Emit a standalone matplotlib script next to the data; the package itself never plots."""
    x_label, y_label = _AXIS_LABELS[spec.experiment]
    y_expr = "math.log2(p[1])" if spec.experiment == "margin-map" else "p[1]"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    script = _PLOT_TEMPLATE % {
        "title": spec.experiment,
        "csv_name": csv_name,
        "y_expr": y_expr,
        "x_label": x_label,
        "y_label": y_label,
        "png_name": Path(csv_name).with_suffix(".png").name,
    }
    path.write_text(script, encoding="utf-8")


def _preset_specs() -> dict:
    snr_grid = [float(v) for v in range(-10, 21, 2)]
    w1_grid = [round(0.5 + 0.02 * i, 2) for i in range(25)]
    gamma_grid = [round(0.05 * i, 2) for i in range(1, 20)]
    dense_gamma = [round(0.02 * i, 2) for i in range(1, 50)]
    q_grid = [round(-1.0 + 0.01 * i, 2) for i in range(201)]
    return {
        "snr-sweep-imbalanced": dict(
            experiment="snr-sweep", grid=snr_grid,
            channel=dict(gains=[0.9, 0.1]), mc=dict()),
        "snr-sweep-balanced": dict(
            experiment="snr-sweep", grid=snr_grid,
            channel=dict(gains=[0.6, 0.4]), mc=dict()),
        "w1-sweep-low-noise": dict(
            experiment="w1-sweep", grid=w1_grid, noise=dict(n0=0.1), mc=dict()),
        "w1-sweep-high-noise": dict(
            experiment="w1-sweep", grid=w1_grid, noise=dict(n0=1.0), mc=dict()),
        "gamma-sweep": dict(
            experiment="gamma-sweep", grid=gamma_grid,
            channel=dict(m=[1, 2, 4, 8]), noise=dict(n0=0.1), mc=dict()),
        "margin-map": dict(
            experiment="margin-map", grid=dense_gamma,
            noise=dict(n0=[0.05, 0.1, 0.5])),
        "q-function": dict(
            experiment="q-function", grid=q_grid, channel=dict(n_rx=[2, 4, 8])),
    }


PRESET_IDS = tuple(sorted(_preset_specs()))


def reproduce(preset: str, out_dir, *, seed: int | None = None, trials: int | None = None,
              mc_samples: int | None = None, asymptotic: bool = False) -> list[ResultRow]:
    """Run a canned experiment and write <preset>.csv plus plot_<preset>.py."""
    presets = _preset_specs()
    if preset not in presets:
        raise ParameterError(
            f"unknown preset {preset!r}; valid ids: {', '.join(sorted(presets))}", field="preset")
    data = presets[preset]
    out_dir = Path(out_dir)
    data.setdefault("outputs", {})
    data["outputs"]["csv"] = str(out_dir / f"{preset}.csv")
    data["outputs"]["plot_script"] = str(out_dir / f"plot_{preset}.py")
    _override(data, seed, trials, mc_samples)
    if asymptotic:
        data.setdefault("channel", {})["asymptotic"] = True
    spec = spec_from_dict(data)
    return run_experiment(spec)
