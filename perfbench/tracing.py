"""In-memory spans around the public functions the experiment runners call.

The tracer swaps each target attribute for a timing wrapper while it is
installed and puts the original back afterwards, so the package itself is
never edited. Targets are looked up by name: a name a later version drops
or moves records zero calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

EXP = "spimmwave.experiments"

# (span name, module, attribute). The runners bind these names in the
# experiments module, so that is where calls are intercepted;
# gamma_crossover is called by the benchmark through its own module.
TARGETS = (
    ("experiments.run", EXP, "run_experiment"),
    ("experiments.csv_write", EXP, "write_csv"),
    ("channel.sample", EXP, "sample_channel"),
    ("beamforming", EXP, "build_abf"),
    ("beamforming", EXP, "effective_channel"),
    ("beamforming", EXP, "pattern_alphabet"),
    ("capacity.covariance", EXP, "covariances"),
    ("capacity.closed_form", EXP, "spim_rate"),
    ("capacity.closed_form", EXP, "spim_rate_two_path"),
    ("capacity.closed_form", EXP, "mmwave_rate"),
    ("capacity.closed_form", EXP, "total_rate_approx"),
    ("montecarlo", EXP, "mc_mutual_information"),
    ("conditions.margin", EXP, "spim_margin"),
    ("conditions.crossover", "spimmwave.conditions", "gamma_crossover"),
)


def _mc_counts(args, kwargs, result) -> dict:
    """Samples requested, pattern count and stderr of one estimator call."""
    covs = args[0] if args else kwargs.get("covs")
    spec = args[1] if len(args) > 1 else kwargs.get("spec")
    return {"samples": getattr(spec, "n_samples", 0), "k": getattr(covs, "k", 0),
            "stderr": getattr(result, "stderr", 0.0)}


class Tracer:
    """Records (name, start, end, parent) spans; `installed()` turns it on."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.rep = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "fn": fn.__name__, "rep": self.rep,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if name == "montecarlo":
                span.update(_mc_counts(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        saved = []
        self.missing = []
        try:
            for name, module_name, attr in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer counts and seconds from the spans of one repetition."""
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    child_time: defaultdict = defaultdict(float)
    for span in spans:
        duration = span["end"] - span["start"]
        calls[span["name"]] += 1
        busy[span["name"]] += duration
        if span["parent"] is not None:
            child_time[span["parent"]] += duration
    runs_self = sum(s["end"] - s["start"] - child_time[s["id"]]
                    for s in spans if s["name"] == "experiments.run")
    mc = [s for s in spans if s["name"] == "montecarlo"]
    samples = sum(s.get("samples", 0) for s in mc)
    mc_s = busy["montecarlo"]
    return {
        "channel.sample_calls": calls["channel.sample"],
        "channel.sample_s": busy["channel.sample"],
        "beamforming.calls": calls["beamforming"],
        "beamforming.s": busy["beamforming"],
        "capacity.covariance_calls": calls["capacity.covariance"],
        "capacity.covariance_s": busy["capacity.covariance"],
        "capacity.closed_form_calls": calls["capacity.closed_form"],
        "capacity.closed_form_s": busy["capacity.closed_form"],
        "montecarlo.calls": len(mc),
        "montecarlo.s": mc_s,
        "montecarlo.samples": samples,
        "montecarlo.samples_per_s": samples / mc_s if mc_s > 0 else 0.0,
        "montecarlo.max_stderr": max((s.get("stderr", 0.0) for s in mc), default=0.0),
        "montecarlo.useful_ratio": (sum(s.get("k", 0) >= 2 for s in mc) / len(mc)
                                    if mc else 0.0),
        "conditions.margin_calls": calls["conditions.margin"],
        "conditions.margin_s": busy["conditions.margin"],
        "conditions.crossover_calls": calls["conditions.crossover"],
        "conditions.crossover_s": busy["conditions.crossover"],
        "experiments.self_s": runs_self,
        "experiments.csv_write_s": busy["experiments.csv_write"],
    }
