"""Spec parsing, sweep execution, CSV contract, and the CLI surface."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spimmwave import (
    CovarianceSet,
    MonteCarloSpec,
    SpecValidationError,
    build_abf,
    dirichlet_gain,
    effective_channel,
    make_rng,
    mc_mutual_information,
    mmwave_rate,
    sample_channel,
    spim_margin,
    spim_rate,
)
from spimmwave import channel, experiments, montecarlo
from spimmwave.cli import main
from spimmwave.experiments import (
    CSV_COLUMNS,
    EXPERIMENT_KINDS,
    METHOD_TAGS,
    PRESET_IDS,
    ChannelParams,
    ExperimentSpec,
    MarginParams,
    NoiseParams,
    OutputParams,
    load_spec,
    reproduce,
    run_experiment,
    spec_from_dict,
    write_csv,
)
from spimmwave.numerics import _rekeyed

README = Path(__file__).resolve().parents[1] / "README.md"


def tiny_snr_spec(**overrides):
    data = {
        "experiment": "snr-sweep",
        "grid": [0.0, 10.0],
        "channel": {"gains": [0.9, 0.1]},
        "trials": 2,
        "mc": {"n_samples": 2000},
        "seed": 5,
    }
    data.update(overrides)
    return spec_from_dict(data)


def test_unknown_keys_rejected_with_field_path():
    with pytest.raises(SpecValidationError, match="channel.bandwidth"):
        spec_from_dict({"experiment": "q-function", "grid": [0.0, 0.1],
                        "channel": {"bandwidth": 3}})
    with pytest.raises(SpecValidationError, match="frequency"):
        spec_from_dict({"experiment": "q-function", "grid": [0.0, 0.1], "frequency": 60})
    # the Monte-Carlo chunk size is fixed, not a spec option
    with pytest.raises(SpecValidationError, match="unknown key") as info:
        spec_from_dict({"experiment": "snr-sweep", "grid": [0.0], "channel": {"gains": [0.6, 0.4]},
                        "mc": {"batch": 16384}})
    assert info.value.field == "mc.batch"


def test_grid_must_increase():
    with pytest.raises(SpecValidationError, match="grid"):
        spec_from_dict({"experiment": "q-function", "grid": [0.2, 0.1]})
    with pytest.raises(SpecValidationError, match="grid"):
        spec_from_dict({"experiment": "q-function", "grid": [0.1, math.nan]})
    with pytest.raises(SpecValidationError, match="grid"):
        spec_from_dict({"experiment": "q-function", "grid": []})


def test_experiment_kind_validated():
    with pytest.raises(SpecValidationError, match="experiment"):
        spec_from_dict({"experiment": "ber-sweep", "grid": [1.0]})


def test_noise_field_rules():
    with pytest.raises(SpecValidationError, match="noise"):
        spec_from_dict({"experiment": "snr-sweep", "grid": [0.0, 10.0],
                        "channel": {"gains": [0.9, 0.1]}, "noise": {"n0": 0.1}})
    with pytest.raises(SpecValidationError, match="unknown key") as info:
        spec_from_dict({"experiment": "w1-sweep", "grid": [0.6, 0.7],
                        "noise": {"snr_db": 10.0}})
    assert info.value.field == "noise.snr_db"
    # json.load accepts NaN and overflows 1e999 to inf; neither is a noise level
    for kind, grid in (("w1-sweep", [0.6, 0.7]), ("gamma-sweep", [0.5, 0.6])):
        for noise in ({}, None, {"n0": None}, {"n0": 0}, {"n0": -0.1}, {"n0": [0.1]},
                      {"n0": math.nan}, {"n0": json.loads("1e999")}, {"n0": -math.inf}):
            data = {"experiment": kind, "grid": grid}
            if noise is not None:
                data["noise"] = noise
            with pytest.raises(SpecValidationError) as info:
                spec_from_dict(data)
            assert info.value.field == "noise.n0"
    with pytest.raises(SpecValidationError, match="grid"):
        spec_from_dict({"experiment": "snr-sweep", "grid": [-4000.0, 0.0],
                        "channel": {"gains": [0.9, 0.1]}})


WRONG_TYPES = {
    "trials": ({"trials": "3"}, "trials"),
    "n_tx": ({"channel": {"gains": [0.6, 0.4], "n_tx": "64"}}, "channel.n_tx"),
    "grid": ({"grid": "ab"}, "grid"),
    "seed": ({"seed": 1.5}, "seed"),
    "aod_range": ({"channel": {"gains": [0.6, 0.4], "aod_range": [0.3]}}, "channel.aod_range"),
    "gains": ({"channel": {"gains": [0.6, "x"]}}, "channel.gains"),
    # ranges fail at spec time, not at the first draw
    "aoa_range-outside": ({"channel": {"gains": [0.6, 0.4], "aoa_range": [-0.6, 0.25]}},
                          "channel.aoa_range"),
    "aoa_range-decreasing": ({"channel": {"gains": [0.6, 0.4], "aoa_range": [0.2, 0.1]}},
                             "channel.aoa_range"),
    "aod_range-empty": ({"channel": {"gains": [0.6, 0.4], "aod_range": [0.1, 0.1]}},
                        "channel.aod_range"),
    "margin-map-n0": ({"experiment": "margin-map", "grid": [0.5], "channel": {},
                       "noise": {"n0": "x"}}, "noise.n0"),
    "grid-huge-int": ({"grid": [0, 10 ** 400]}, "grid"),
    "asymptotic": ({"channel": {"gains": [0.6, 0.4], "asymptotic": "false"}},
                   "channel.asymptotic"),
    "mc-n_samples": ({"mc": {"n_samples": 2000.5}}, "mc.n_samples"),
    # 8 angles at the (64, 8) separation floor 1/256 need a span of 7/256 = 0.02734375
    "aoa_range-too-narrow": ({"experiment": "gamma-sweep", "grid": [0.5],
                              "channel": {"m": [8], "n_tx": 64, "aoa_range": [0.0, 0.01]},
                              "noise": {"n0": 0.1}}, "channel.aoa_range"),
    "aod_range-too-narrow": ({"channel": {"gains": [0.6, 0.4], "aod_range": [0.0, 0.001]}},
                             "channel.aod_range"),
}


@pytest.mark.parametrize("override, field", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_wrong_field_type_names_the_field(override, field, tmp_path):
    data = {"experiment": "snr-sweep", "grid": [0.0, 10.0],
            "channel": {"gains": [0.6, 0.4]}, "trials": 1}
    data.update(override)
    with pytest.raises(SpecValidationError) as info:
        spec_from_dict(data)
    assert info.value.field == field
    # the CLI reports it in one line instead of a traceback
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", str(spec_path)]) == 2


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)
COUNTS = st.integers(0, 4) | JSON
NUMBERS = st.lists(st.integers(-30, 30) | st.floats(-30, 30), max_size=4)


def json_object(cls, required=(), **values):
    """Objects keyed by cls's field names, plus the odd unknown key, or any JSON value.

    Fields without a strategy in values take counts, so that most examples
    get past the type checks and reach the checks that read several fields.
    """
    keys = {f.name: values.get(f.name, COUNTS) for f in fields(cls)}
    return st.fixed_dictionaries(
        {name: keys.pop(name) for name in required},
        optional={**keys, "extra": JSON}) | JSON


SPECS = json_object(
    ExperimentSpec, required=("experiment", "grid"),
    experiment=st.sampled_from(EXPERIMENT_KINDS),
    grid=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3, unique=True).map(sorted)
    | NUMBERS,
    channel=json_object(ChannelParams, m=COUNTS | NUMBERS, gains=NUMBERS | JSON,
                        n_rx=COUNTS | NUMBERS, aod_range=NUMBERS, normalize=JSON,
                        asymptotic=JSON),
    noise=json_object(NoiseParams, n0=st.floats(-1, 2) | NUMBERS | JSON),
    mc=json_object(MonteCarloSpec, n_samples=st.integers(0, 3000) | JSON),
    margin=json_object(MarginParams, relax_integer=JSON),
    outputs=json_object(OutputParams, csv=st.text(max_size=4) | JSON))


@settings(max_examples=400)
@given(SPECS)
def test_any_json_gives_a_spec_or_a_spec_validation_error(data):
    try:
        spec = spec_from_dict(data)
    except SpecValidationError:
        return
    assert isinstance(spec, ExperimentSpec)


@pytest.mark.parametrize("key", ["channel", "margin", "outputs"])
def test_null_section_is_rejected(key):
    with pytest.raises(SpecValidationError) as info:
        spec_from_dict({"experiment": "q-function", "grid": [0.0], key: None})
    assert info.value.field == key


MARGIN_MAP_RULES = {
    "b_max-over-cap": ({"margin": {"b_max": 17}}, "margin.b_max"),
    "b_max-huge": ({"margin": {"b_max": 40}}, "margin.b_max"),
    "n0-negative": ({"noise": {"n0": [0.1, -0.1]}}, "noise.n0"),
    "n0-negative-scalar": ({"noise": {"n0": -0.1}}, "noise.n0"),
    "n0-repeated-label": ({"noise": {"n0": [0.1, 0.1000001]}}, "noise.n0"),
}


@pytest.mark.parametrize("override, field", MARGIN_MAP_RULES.values(),
                         ids=MARGIN_MAP_RULES.keys())
def test_margin_map_rules_name_the_field(override, field):
    data = {"experiment": "margin-map", "grid": [0.5], "noise": {"n0": [0.1, 0.5]}}
    data.update(override)
    with pytest.raises(SpecValidationError) as info:
        spec_from_dict(data)
    assert info.value.field == field


def test_gamma_sweep_rejects_repeated_beam_counts():
    with pytest.raises(SpecValidationError, match="channel.m"):
        spec_from_dict({"experiment": "gamma-sweep", "grid": [0.5], "channel": {"m": [2, 4, 2]},
                        "noise": {"n0": 0.1}})


def test_snr_sweep_rows_and_tags():
    spec = tiny_snr_spec()
    rows = run_experiment(spec)
    keys = [(row.axis, row.method, row.variant) for row in rows]
    assert keys == sorted(keys)
    assert {row.method for row in rows} == {"shannon", "general-m", "monte-carlo"}
    # two beams get the one closed form every beam count gets, one row per point
    closed = [row for row in rows if row.method == "general-m"]
    assert [(row.axis, row.variant) for row in closed] == [(0.0, "spim"), (10.0, "spim")]
    spim_mc = [row for row in rows if row.method == "monte-carlo" and row.variant == "spim"]
    assert len(spim_mc) == 2
    # two rank-one patterns are answered exactly: no draws, stderr 0
    assert all(row.mc_stderr == 0 for row in spim_mc)
    # one beam is one Gaussian: its MC row is the exact Shannon rate of the steered beam
    mm_mc = [row for row in rows if row.method == "monte-carlo" and row.variant == "mmwave"]
    assert len(mm_mc) == 2
    ch = spec.channel
    beams = [effective_channel(chan, build_abf(chan, 2), "exact")[:, 0] for chan in (
        sample_channel(make_rng(spec.seed, t), ch.n_tx, ch.n_rx, 2, gains=ch.gains)
        for t in range(spec.trials))]
    for row in mm_mc:
        n0 = 10 ** (-row.axis / 10)
        exact = np.mean([np.log2(1 + np.vdot(b, b).real / n0) for b in beams])
        assert row.mc_stderr == 0
        assert abs(row.value - exact) <= 1e-12
    assert all(row.mc_stderr is None for row in closed)
    assert all(row.trials == 2 for row in rows)


def test_snr_sweep_without_mc_skips_monte_carlo():
    spec = tiny_snr_spec(mc=None)
    rows = run_experiment(spec)
    assert all(row.method != "monte-carlo" for row in rows)


def test_w1_sweep_grid_validation():
    with pytest.raises(SpecValidationError, match="grid"):
        spec_from_dict({"experiment": "w1-sweep", "grid": [0.3, 0.6],
                        "noise": {"n0": 0.1}})


def test_gamma_sweep_emits_variant_per_beam_count():
    spec = spec_from_dict({"experiment": "gamma-sweep", "grid": [0.3, 0.8],
                           "channel": {"m": [1, 2, 4]}, "noise": {"n0": 0.1},
                           "trials": 1})
    rows = run_experiment(spec)
    variants = {row.variant for row in rows}
    assert variants == {"m=1", "m=2", "m=4"}
    assert all(row.method == "general-m" for row in rows)


def test_gamma_sweep_with_monte_carlo():
    spec = spec_from_dict({"experiment": "gamma-sweep", "grid": [0.6],
                           "channel": {"m": [1, 2]}, "noise": {"n0": 0.1},
                           "trials": 1, "mc": {"n_samples": 2000}})
    rows = run_experiment(spec)
    mc_variants = {r.variant for r in rows if r.method == "monte-carlo"}
    assert mc_variants == {"m=1", "m=2"}
    # sampled and closed-form values agree loosely even at tiny sample counts
    closed = {r.variant: r.value for r in rows if r.method == "general-m"}
    sampled = {r.variant: r.value for r in rows if r.method == "monte-carlo"}
    for variant in mc_variants:
        assert sampled[variant] == pytest.approx(closed[variant], abs=1.0)


def test_monte_carlo_rows_sample_the_beams_the_closed_form_scores():
    # three beams are three equiprobable patterns in both rows; a power-of-two
    # alphabet keeps two of them, and its row sat 0.08 and 0.51 bits below
    spec = spec_from_dict({"experiment": "gamma-sweep", "grid": [0.5, 0.9],
                           "channel": {"m": [3], "n_rx": 64, "asymptotic": True},
                           "noise": {"n0": 0.01}, "seed": 3, "trials": 4,
                           "mc": {"n_samples": 6000}})
    rows = run_experiment(spec)
    closed = {r.axis: r.value for r in rows if r.method == "general-m"}
    sampled = [r for r in rows if r.method == "monte-carlo"]
    assert len(sampled) == 2
    for row in sampled:
        assert abs(row.value - closed[row.axis]) <= 4 * row.mc_stderr + 0.01


@pytest.mark.parametrize("data", [
    {"experiment": "snr-sweep", "grid": [-5.0, 5.0, 15.0], "channel": {"gains": [0.6, 0.4]}},
    {"experiment": "w1-sweep", "grid": [0.5, 0.7, 0.9], "noise": {"n0": 0.1},
     "channel": {"asymptotic": True}},
    {"experiment": "gamma-sweep", "grid": [0.2, 0.6, 0.9], "channel": {"m": [1, 3]},
     "noise": {"n0": 0.1}},
    # trials in blocks of n_tx // m, the last one short: 4 + 4 + 2, and at m = 1, 2 and 3
    # blocks of 8, 4 and 2 over 9 trials
    {"experiment": "snr-sweep", "grid": [-5.0, 15.0], "trials": 10,
     "channel": {"n_tx": 8, "gains": [0.6, 0.4]}},
    {"experiment": "gamma-sweep", "grid": [0.3, 0.8], "trials": 9,
     "channel": {"n_tx": 8, "m": [1, 2, 3]}, "noise": {"n0": 0.1}},
    # an snr sweep steers groups of points // 1 trials within a block: blocks of 4 split
    # into groups of 3 + 1, and the short last block of 2 is one group; a w1 sweep, whose
    # gains change along the grid, steers one trial per call
    {"experiment": "snr-sweep", "grid": [-5.0, 5.0, 15.0], "trials": 10,
     "channel": {"n_tx": 8, "gains": [0.6, 0.4]}},
    {"experiment": "snr-sweep", "grid": [-5.0, 5.0, 15.0], "trials": 10,
     "channel": {"n_tx": 8, "gains": [0.6, 0.4], "asymptotic": True}},
    {"experiment": "w1-sweep", "grid": [0.5, 0.7, 0.9], "trials": 9, "noise": {"n0": 0.1},
     "channel": {"n_tx": 8}},
])
def test_monte_carlo_rows_equal_per_point_calls(data, monkeypatch):
    # a beam count that needs no draws (m <= 2) takes one call per block of trials over all
    # grid points, any other one call per trial, on the seed _mix_seed(mc.seed, t, i), or
    # _mix_seed(mc.seed, m, t, 0) in gamma sweeps; each row equals the estimator called point
    # by point and trial by trial on those seeds, with beams scaled to n0 = 1; a 700-draw
    # chunk makes every sampled call pool several chunks
    monkeypatch.setattr(montecarlo, "_CHUNK", 700)
    spec = spec_from_dict(dict({"trials": 2}, **data, seed=3,
                               mc={"n_samples": 2000, "seed": 9}))
    rows = [r for r in run_experiment(spec) if r.method == "monte-carlo"]
    mode = "asymptotic" if spec.channel.asymptotic else "exact"
    n_tx = spec.channel.n_tx
    systems = len(spec.channel.m) if spec.experiment == "gamma-sweep" else 2
    assert len(rows) == systems * len(spec.grid)
    for row in rows:
        if spec.experiment == "gamma-sweep":
            m = beams = int(row.variant[2:])
            gains, n0 = row.axis ** np.arange(m), 0.1
        else:
            m, beams = 2, 2 if row.variant == "spim" else 1
            gains = [0.6, 0.4] if spec.experiment == "snr-sweep" else [row.axis, 1 - row.axis]
            n0 = 10.0 ** (-row.axis / 10.0) if spec.experiment == "snr-sweep" else 0.1
        estimates = []
        for t in range(spec.trials):
            chan = sample_channel(make_rng(3, t), n_tx, 8, m, gains=gains)
            eff = effective_channel(chan, build_abf(chan, m), mode) / math.sqrt(n0)
            key = (m, t, 0) if spec.experiment == "gamma-sweep" else (t, 2 - beams)
            covs = CovarianceSet(1.0, eff[:, :beams].T[:, :, None])
            estimates.append(mc_mutual_information(covs, MonteCarloSpec(
                2000, seed=experiments._mix_seed(9, *key))))
        values, stderrs = np.array(estimates).T
        assert row.value == float(np.mean(values)), row
        assert row.mc_stderr == float(np.sqrt(np.sum(stderrs ** 2)) / spec.trials), row


def test_sweeps_draw_each_channel_once(monkeypatch):
    draws, rates = [], []

    def counting(log, fn):
        def counted(*args, **kwargs):
            log.append(args)
            return fn(*args, **kwargs)
        return counted

    def logged(keys):
        for key in keys:
            draws.append(key)
            yield key

    # each channel draw reads one trial stream, the key (seed, t), re-keyed where the draw is
    monkeypatch.setattr(channel, "_rekeyed", lambda keys: _rekeyed(logged(keys)))
    monkeypatch.setattr(experiments, "spim_rate", counting(rates, spim_rate))
    spec = spec_from_dict({"experiment": "gamma-sweep", "grid": [0.3, 0.6, 0.9],
                           "channel": {"m": [1, 2, 4]}, "noise": {"n0": 0.1},
                           "trials": 3, "seed": 4})
    run_experiment(spec)
    assert len(draws) == 3 * 3  # trials x beam counts, not x grid points
    assert draws == [(4, t) for _ in range(3) for t in range(3)]
    assert len(rates) == 3  # one per beam count, over every grid point and trial
    draws.clear()
    rates.clear()
    run_experiment(spec_from_dict({"experiment": "w1-sweep", "grid": [0.5, 0.7, 0.9],
                                   "noise": {"n0": 0.1}, "trials": 2}))
    assert len(draws) == 2
    assert draws == [(0, 0), (0, 1)]
    assert len(rates) == 1


@pytest.mark.parametrize("grid", [[0.0], [-10.0, 0.0, 5.0, 20.0]])
def test_sweeps_make_one_call_per_sweep_whatever_the_grid(grid, monkeypatch):
    calls = {"spim_rate": [], "mmwave_rate": [], "effective_channel": [],
             "mc_mutual_information": []}
    for name, log in calls.items():
        def counted(*args, _fn=getattr(experiments, name), _log=log, **kwargs):
            _log.append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    mc = {"n_samples": 1000}
    run_experiment(spec_from_dict({"experiment": "snr-sweep", "grid": grid, "trials": 3,
                                   "channel": {"gains": [0.6, 0.4]}, "mc": mc}))
    # one closed-form call per system over every point; the Monte-Carlo beams of both
    # systems are steered in groups of len(grid) trials, the 3 trials here in 3 calls or in
    # 1, and both systems need no draws (K <= 2 rank-one patterns), so each is estimated
    # once per block of 64 // 2 = 32 trials: here one block
    assert [len(log) for log in calls.values()] == [1, 1, math.ceil(3 / len(grid)), 2]
    for log in calls.values():
        log.clear()
    gammas = [0.2 * (i + 1) for i in range(len(grid))]
    run_experiment(spec_from_dict({"experiment": "gamma-sweep", "grid": gammas,
                                   "channel": {"m": [1, 2, 4]}, "noise": {"n0": 0.1},
                                   "trials": 2, "mc": mc}))
    # m = 1 and m = 2 need no draws, one call per block; m = 4 samples, one call per trial
    assert [len(log) for log in calls.values()] == [3, 0, 2 * 3, 1 + 1 + 2]


@pytest.mark.parametrize("data", [
    {"experiment": "snr-sweep", "grid": [-5.0, 5.0, 15.0], "trials": 10,
     "channel": {"gains": [0.6, 0.4]}},
    {"experiment": "snr-sweep", "grid": [-5.0, 5.0, 15.0], "trials": 10,
     "channel": {"n_tx": 8, "gains": [0.6, 0.4], "asymptotic": True}},
    {"experiment": "w1-sweep", "grid": [0.5, 0.7, 0.9], "trials": 9, "noise": {"n0": 0.1}},
    {"experiment": "gamma-sweep", "grid": [0.3, 0.8], "trials": 5,
     "channel": {"m": [1, 2, 4]}, "noise": {"n0": 0.1}},
])
def test_monte_carlo_steers_no_more_realizations_than_grid_points(data, monkeypatch):
    # each sweep builds and checks one realization; each effective_channel call steers at
    # most as many realizations as the grid has points, so its (..., n_rx, n_tx) channel holds
    # no more entries than one trial's channel at every point: whole blocks of trials would
    # hold up to n_tx // m times that. A w1 or gamma sweep, whose gains change along the grid,
    # steers one trial per call
    built, steered = [], []
    post_init = channel.ChannelRealization.__post_init__

    def counted_init(real):
        built.append(real)
        post_init(real)

    def counted_steer(chan, *args):
        steered.append(math.prod(chan.gains.shape[:-1]))
        return effective_channel(chan, *args)

    monkeypatch.setattr(channel.ChannelRealization, "__post_init__", counted_init)
    monkeypatch.setattr(experiments, "effective_channel", counted_steer)
    spec = spec_from_dict(dict(data, mc={"n_samples": 1000}))
    run_experiment(spec)
    sweeps = len(spec.channel.m) if spec.experiment == "gamma-sweep" else 1
    points = len(spec.grid)
    assert len(built) == sweeps
    assert max(steered) == points
    if spec.experiment == "snr-sweep":  # one gain row: groups of up to points trials
        assert sum(steered) == spec.trials
    else:
        assert steered == [points] * (sweeps * spec.trials)


def test_monte_carlo_memory_stays_that_of_one_block():
    # a block of n_tx // m = 32 trials keeps its beams, (points, 32, 2, n_rx), no more entries
    # than one trial's (points, n_rx, n_tx) channel; at n_rx = 256 the beams dominate, and
    # ten blocks' worth of trials must peak as one block's worth does
    def spec(trials):
        return spec_from_dict({"experiment": "snr-sweep", "grid": [0.0, 10.0], "trials": trials,
                               "channel": {"n_rx": 256, "gains": [0.6, 0.4]},
                               "mc": {"n_samples": 1000}})

    run_experiment(spec(32))  # untraced: warms numpy's caches
    peaks = []
    for trials in (32, 320):
        tracemalloc.start()
        try:
            run_experiment(spec(trials))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("normalize", [False, True])
def test_snr_sweep_out_of_order_gains_equal_fresh_channels(normalize):
    # the runner sorts one draw's angles by gain; each closed-form and shannon row
    # must equal the mean over channels drawn afresh with those gains
    gains = [0.2, 0.7, 0.2, 0.5]
    grid = [-4.0, 6.0]
    spec = spec_from_dict({"experiment": "snr-sweep", "grid": grid, "trials": 3,
                           "channel": {"m": 4, "gains": gains, "normalize": normalize},
                           "seed": 4})
    rows = {(r.axis, r.method): r.value for r in run_experiment(spec)}
    scaled = np.asarray(gains) / sum(gains) if normalize else gains
    fresh = [sample_channel(make_rng(4, t), 64, 8, 4, gains=scaled) for t in range(3)]
    for snr in grid:
        n0 = 10.0 ** (-snr / 10.0)
        rates = [spim_rate(c.gains, np.full(4, 64.0), c.aoa, 8, n0) for c in fresh]
        assert rows[(snr, "general-m")] == float(np.mean(rates))
        shannon = [mmwave_rate(c.gains[0], 64.0, n0) for c in fresh]
        assert rows[(snr, "shannon")] == float(np.mean(shannon))


@pytest.mark.parametrize("normalize", [False, True])
def test_gamma_sweep_closed_form_equals_fresh_channels(normalize):
    # the closed form reads the unit-gain draws without rebuilding them; each row's value
    # and value_std must be np.mean and np.std(ddof=1) of spim_rate over channels drawn
    # afresh with the gains (at 3 trials a ddof-0 spread reads sqrt(2/3) of that)
    grid = [0.05, 0.5, 0.9999999999999999]
    spec = spec_from_dict({"experiment": "gamma-sweep", "grid": grid, "trials": 3,
                           "channel": {"m": [1, 3, 8], "normalize": normalize},
                           "noise": {"n0": 0.1}, "seed": 4})
    rows = {(r.axis, r.variant): r for r in run_experiment(spec)}
    for m in (1, 3, 8):
        for gamma in grid:
            gains = gamma ** np.arange(m)
            if normalize:
                gains = gains / np.sum(gains)
            fresh = [sample_channel(make_rng(4, t), 64, 8, m, gains=gains) for t in range(3)]
            rates = [spim_rate(c.gains, np.full(m, 64.0), c.aoa, 8, 0.1) for c in fresh]
            row = rows[(gamma, f"m={m}")]
            assert row.value == float(np.mean(rates))
            assert row.value_std == float(np.std(rates, ddof=1))


@pytest.mark.parametrize("normalize", [False, True])
def test_w1_sweep_equals_fresh_channels(normalize):
    # the only sweep whose gains change per point: each general-m and shannon row must equal
    # the mean over channels drawn afresh with that point's gains
    grid = [0.5, 0.62, 0.7, 0.93]
    spec = spec_from_dict({"experiment": "w1-sweep", "grid": grid, "trials": 3,
                           "channel": {"normalize": normalize, "aod_range": [-0.4, 0.2],
                                       "aoa_range": [-0.1, 0.45]},
                           "noise": {"n0": 0.3}, "seed": 7})
    rows = {(r.axis, r.method): r.value for r in run_experiment(spec)}
    assert len(rows) == 2 * len(grid)
    for w1 in grid:
        gains = np.array([w1, 1.0 - w1])
        if normalize:
            gains = gains / np.sum(gains)
        fresh = [sample_channel(make_rng(7, t), 64, 8, 2, gains=gains, aod_range=(-0.4, 0.2),
                                aoa_range=(-0.1, 0.45)) for t in range(3)]
        rates = [spim_rate(c.gains, np.full(2, 64.0), c.aoa, 8, 0.3) for c in fresh]
        assert rows[(w1, "general-m")] == float(np.mean(rates))
        shannon = [mmwave_rate(c.gains[0], 64.0, 0.3) for c in fresh]
        assert rows[(w1, "shannon")] == float(np.mean(shannon))


def test_snr_sweep_with_one_beam_keeps_both_monte_carlo_rows():
    # at m = 1 both systems switch among one beam: each monte-carlo row is the exact
    # Shannon rate of the steered beam, and neither is dropped for sharing the count
    spec = tiny_snr_spec(channel={"m": 1, "gains": [0.8]}, trials=3)
    rows = [r for r in run_experiment(spec) if r.method == "monte-carlo"]
    assert sorted((r.axis, r.variant) for r in rows) == [
        (0.0, "mmwave"), (0.0, "spim"), (10.0, "mmwave"), (10.0, "spim")]
    beams = [effective_channel(chan, build_abf(chan, 1), "exact")[:, 0] for chan in (
        sample_channel(make_rng(spec.seed, t), 64, 8, 1, gains=[0.8]) for t in range(3))]
    for row in rows:
        n0 = 10 ** (-row.axis / 10)
        exact = np.mean([np.log2(1 + np.vdot(b, b).real / n0) for b in beams])
        assert row.mc_stderr == 0
        assert abs(row.value - exact) <= 1e-12


def test_each_sweep_stage_has_one_call_site():
    # the snr, w1 and gamma sweeps draw, score and sample their beams through one function
    names = ("spim_rate", "mc_mutual_information", "effective_channel", "_draw_angles")
    tree = ast.parse(Path(experiments.__file__).read_text(encoding="utf-8"))
    sites = {name: 0 for name in names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in sites:
            sites[ast.unparse(node.func)] += 1
    assert sites == {name: 1 for name in names}


def test_gamma_sweep_runs_on_large_array_with_monte_carlo():
    spec = spec_from_dict({"experiment": "gamma-sweep", "grid": [0.6],
                           "channel": {"n_rx": 128, "m": [1, 2, 4]}, "noise": {"n0": 0.1},
                           "trials": 1, "mc": {"n_samples": 1000}})
    rows = run_experiment(spec)
    assert {r.method for r in rows} == {"general-m", "monte-carlo"}
    assert len(rows) == 6
    assert all(math.isfinite(r.value) for r in rows)


@pytest.mark.parametrize("gains", [[0.6, 0.4], [0.5, 0.25, 0.15, 0.1]], ids=["m=2", "m=4"])
def test_snr_sweep_with_four_beams_uses_general_form(gains):
    spec = spec_from_dict({"experiment": "snr-sweep", "grid": [10.0],
                           "channel": {"m": len(gains), "gains": gains}, "trials": 1})
    rows = run_experiment(spec)
    assert [(row.method, row.variant) for row in rows] == [("general-m", "spim"),
                                                           ("shannon", "mmwave")]


def test_margin_map_matches_direct_margin_calls():
    spec = spec_from_dict({"experiment": "margin-map", "grid": [0.2, 0.5, 0.9],
                           "noise": {"n0": [0.1, 0.5]},
                           "margin": {"relax_integer": False}})
    rows = run_experiment(spec)
    for row in rows:
        n0 = float(row.variant.split("=")[1])
        expected = spim_margin(row.axis, n0, 64.0, relax_integer=False)
        assert row.value == expected
        assert row.method == "margin"


@pytest.mark.parametrize("relax", [True, False])
def test_margin_map_is_one_search_over_every_noise_level(relax, monkeypatch):
    # noise-free and noisy levels share the search; each row is its level's spim_margin
    searches = []

    def counted(*args, _fn=experiments.spim_margin):
        searches.append(args)
        return _fn(*args)

    monkeypatch.setattr(experiments, "spim_margin", counted)
    gammas, levels = [0.02, 0.2, 0.45, 0.7, 0.9, 0.99], [0, 0.05, 0.5]
    rows = run_experiment(spec_from_dict({
        "experiment": "margin-map", "grid": gammas, "noise": {"n0": levels},
        "margin": {"relax_integer": relax, "b_max": 9}}))
    assert len(searches) == 1
    expected = [(gamma, f"n0={n0:g}", float(margin)) for n0 in levels
                for gamma, margin in zip(gammas, spim_margin(gammas, n0, 64.0, 9, relax))]
    assert sorted((row.axis, row.variant, row.value) for row in rows) == sorted(expected)
    assert len({row.value for row in rows}) > 3


@pytest.mark.parametrize("trials", [1, 2, 7, 8, 9, 30, 129])
def test_rows_equal_per_point_statistics(trials):
    # one reduction over the trial axis gives each row the bits of its own 1-D calls,
    # also for a block laid out trials-first
    rng = np.random.default_rng(trials)
    values, stderrs = rng.standard_normal((2, 19, trials)) * [[[3.0]], [[0.1]]]
    spec = tiny_snr_spec()
    for block, errs in ((values, stderrs), (values.T.copy().T, stderrs.T.copy().T)):
        rows = experiments._rows(spec, range(19), "monte-carlo", "spim", block, errs)
        for row, point, point_errs in zip(rows, values, stderrs):
            assert row.value == float(np.mean(point))
            assert row.value_std == (float(np.std(point, ddof=1)) if trials > 1 else 0.0)
            assert row.mc_stderr == float(np.sqrt(np.sum(point_errs ** 2)) / trials)
            assert row.trials == trials
    assert all(row.mc_stderr is None
               for row in experiments._rows(spec, range(19), "general-m", "spim", values))


def test_q_function_runner_equals_scalar_dirichlet_gain_calls():
    # one kernel call per array size scores the grid; each value is its scalar call's
    grid = sorted(set([round(-1.0 + 0.01 * i, 2) for i in range(201)]
                      + list(np.random.default_rng(3).uniform(-2.0, 2.0, 50))
                      + [-1.0 + 1e-9, 1e-12, 0.5 - 1e-13]))
    spec = spec_from_dict({"experiment": "q-function", "grid": grid,
                           "channel": {"n_rx": [1, 2, 4, 8, 64]}})
    rows = run_experiment(spec)
    assert len(rows) == 5 * len(grid)
    for row in rows:
        assert row.value == dirichlet_gain(row.axis, int(row.variant[3:]))


def test_q_function_makes_one_dirichlet_gain_call_per_array_size(monkeypatch):
    calls = []

    def counted(delta_theta, n_r, _fn=experiments.dirichlet_gain):
        calls.append(n_r)
        return _fn(delta_theta, n_r)

    monkeypatch.setattr(experiments, "dirichlet_gain", counted)
    rows = run_experiment(spec_from_dict({"experiment": "q-function", "grid": [-0.5, 0.0, 0.3],
                                          "channel": {"n_rx": [2, 4, 8]}}))
    assert calls == [2, 4, 8]
    assert len(rows) == 9


def test_q_function_rows():
    spec = spec_from_dict({"experiment": "q-function", "grid": [-0.5, 0.0, 0.125],
                           "channel": {"n_rx": [2, 8]}})
    rows = run_experiment(spec)
    assert len(rows) == 6
    for row in rows:
        n_rx = int(row.variant.split("=")[1])
        assert row.value == dirichlet_gain(row.axis, n_rx)


def test_csv_golden_header_and_determinism(tmp_path):
    spec = tiny_snr_spec()
    rows = run_experiment(spec)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_csv(rows, path_a)
    write_csv(run_experiment(tiny_snr_spec()), path_b)
    text = path_a.read_text(encoding="utf-8")
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_seed_changes_results(tmp_path):
    rows_a = run_experiment(tiny_snr_spec(seed=5))
    rows_b = run_experiment(tiny_snr_spec(seed=6))
    values_a = [r.value for r in rows_a if r.method == "monte-carlo"]
    values_b = [r.value for r in rows_b if r.method == "monte-carlo"]
    assert values_a != values_b


def test_reproduce_unknown_id_lists_valid_ones(tmp_path):
    with pytest.raises(Exception, match="gamma-sweep"):
        reproduce("mystery", tmp_path)


def test_reproduce_writes_data_and_plot_script(tmp_path):
    rows = reproduce("q-function", tmp_path)
    assert (tmp_path / "q-function.csv").exists()
    script = (tmp_path / "plot_q-function.py").read_text(encoding="utf-8")
    assert "matplotlib" in script and "q-function.csv" in script
    assert len(rows) == 3 * 201


def test_reproduce_accepts_overrides(tmp_path):
    rows = reproduce("margin-map", tmp_path, seed=9)
    assert all(row.seed == 9 for row in rows)


def test_cli_run_and_reruns_are_identical(tmp_path):
    spec_path = tmp_path / "spec.json"
    csv_path = tmp_path / "out.csv"
    spec_path.write_text(json.dumps({
        "experiment": "snr-sweep", "grid": [0.0, 6.0],
        "channel": {"gains": [0.6, 0.4]}, "trials": 2,
        "mc": {"n_samples": 2000}, "seed": 1,
        "outputs": {"csv": str(csv_path)},
    }), encoding="utf-8")
    assert main(["run", str(spec_path)]) == 0
    first = csv_path.read_bytes()
    assert main(["run", str(spec_path)]) == 0
    assert csv_path.read_bytes() == first
    assert main(["run", str(spec_path), "--seed", "2"]) == 0
    assert csv_path.read_bytes() != first


def test_cli_run_overrides_fail_like_reproduce(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "experiment": "snr-sweep", "grid": [0.0], "channel": {"gains": [0.6, 0.4]},
        "mc": {"n_samples": 2000}}), encoding="utf-8")
    assert main(["run", str(spec_path), "--mc-samples", "10"]) == 2
    run_error = capsys.readouterr().err
    assert run_error.startswith("error: mc.n_samples: ")
    assert main(["reproduce", "snr-sweep-balanced", "--out", str(tmp_path),
                 "--mc-samples", "10"]) == 2
    assert capsys.readouterr().err == run_error
    assert main(["run", str(spec_path), "--trials", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: trials: ")
    # a spec without Monte-Carlo ignores the sample override
    spec_path.write_text(json.dumps({"experiment": "q-function", "grid": [0.0]}),
                         encoding="utf-8")
    assert main(["run", str(spec_path), "--mc-samples", "10"]) == 0


def test_snr_sweep_at_extreme_snr_gives_finite_rows():
    # at 160 dB, w g / N0 > 2^53: the closed forms used to factor a singular self pair
    rows = run_experiment(tiny_snr_spec(grid=[20.0, 160.0], channel={"gains": [0.6, 0.4]}))
    assert len(rows) == 8  # shannon, general-m and two monte-carlo rows per point
    assert all(math.isfinite(row.value) and math.isfinite(row.value_std) for row in rows)


def test_cli_run_subnormal_noise_fails_in_one_line_naming_n0(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    csv_path = tmp_path / "out.csv"
    spec_path.write_text(json.dumps({
        "experiment": "gamma-sweep", "grid": [0.5], "channel": {"m": [1]},
        "noise": {"n0": 1e-320}, "trials": 2, "outputs": {"csv": str(csv_path)},
    }), encoding="utf-8")
    assert main(["run", str(spec_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n0 ") and err.count("\n") == 1
    assert not csv_path.exists()


def test_cli_snr_sweep_subnormal_point_fails_in_one_line_naming_its_n0(tmp_path, capsys):
    # the closed forms score every point in one call; the error names the failing
    # point's noise level as one number, not the sweep's array of them
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "experiment": "snr-sweep", "grid": [0.0, 3200.0], "trials": 2,
        "channel": {"gains": [0.6, 0.4]},
    }), encoding="utf-8")
    assert main(["run", str(spec_path)]) == 2
    err = capsys.readouterr().err
    n0 = 10.0 ** (-3200.0 / 10.0)
    assert err.startswith(f"error: n0 = {n0} is too small") and err.count("\n") == 1, err


def test_cli_rejects_invalid_spec(tmp_path):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text('{"experiment": "snr-sweep"}', encoding="utf-8")
    assert main(["run", str(spec_path)]) == 2


def test_cli_reports_unwritable_output(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "experiment": "q-function", "grid": [0.0, 0.1],
        "outputs": {"csv": str(blocker / "sub" / "out.csv")},
    }), encoding="utf-8")
    assert main(["run", str(spec_path)]) == 2


def test_cli_check_conditions(capsys):
    assert main(["check-conditions", "--gains", "0.6,0.4", "--n0", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "two-path margin" in out and "+1" in out
    assert "noise-free limit" in out and "holds" in out


def test_cli_check_conditions_subnormal_gain(capsys):
    assert main(["check-conditions", "--gains", "1,1e-310", "--n0", "0",
                 "--array-gain", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("tau=0.25 ") == 2 and "nan" not in out


def test_cli_check_conditions_many_paths(capsys):
    assert main(["check-conditions", "--gains", "1.0,0.8,0.6,0.5", "--n0", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "geometric mean" in out


def test_cli_check_conditions_threshold_beyond_float_range(capsys):
    # the noise penalty exp(4 * 1 * (1 + 1000)) is beyond the double range
    assert main(["check-conditions", "--gains", "1,0.001", "--n0", "1", "--array-gain", "1"]) == 0
    out = capsys.readouterr().out
    assert "tau=inf" in out and "does not hold" in out


def test_cli_check_conditions_bad_gain_token_names_the_flag(capsys):
    assert main(["check-conditions", "--gains", "1,abc", "--n0", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: --gains") and "'abc'" in captured.err


@pytest.mark.parametrize("flag, value", [("--array-gain", "nan"), ("--array-gain", "inf"),
                                         ("--array-gain", "0"), ("--array-gain", "-1"),
                                         ("--n0", "nan"), ("--n0", "-0.1"),
                                         ("--gains", "0.6")])
def test_cli_check_conditions_bad_flag_prints_nothing_first(flag, value, capsys):
    args = {"--gains": "1,0.5", "--n0": "0.1", flag: value}
    assert main(["check-conditions", *[x for item in args.items() for x in item]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {flag} ")


def test_cli_reproduce_preset(tmp_path, capsys):
    assert main(["reproduce", "q-function", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "q-function.csv").exists()


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    env = dict(os.environ, PYTHONPATH=str(Path(experiments.__file__).resolve().parents[1]))
    code = "import sys, spimmwave.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_public_names_resolve():
    import spimmwave
    assert len(set(spimmwave.__all__)) == len(spimmwave.__all__)
    for name in spimmwave.__all__:
        assert getattr(spimmwave, name) is not None, name


def test_preset_ids_are_documented():
    assert set(PRESET_IDS) == {
        "gamma-sweep", "margin-map", "q-function", "snr-sweep-balanced",
        "snr-sweep-imbalanced", "w1-sweep-high-noise", "w1-sweep-low-noise"}


def test_method_tags_are_documented():
    # README's CSV schema lists every method tag, in the order METHOD_TAGS holds them
    text = README.read_text(encoding="utf-8")
    sentence = text[text.index("`method` is one of"):].split(". `variant`")[0]
    listed = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", sentence))
    assert tuple(listed[1:]) == METHOD_TAGS


@pytest.mark.parametrize("preset", PRESET_IDS)
def test_presets_emit_each_row_once_under_documented_tags(preset, tmp_path):
    rows = reproduce(preset, tmp_path, trials=2, mc_samples=1000)
    assert {row.method for row in rows} <= set(METHOD_TAGS)
    keys = [(row.axis, row.method, row.variant) for row in rows]
    assert len(set(keys)) == len(keys)


def test_load_spec_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"experiment": "q-function", "grid": [0.0, 0.25]}),
                    encoding="utf-8")
    spec = load_spec(path)
    assert spec.experiment == "q-function"
    with pytest.raises(SpecValidationError, match="invalid JSON"):
        path.write_text("{not json", encoding="utf-8")
        load_spec(path)
