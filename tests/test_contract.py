"""The boundary contract over the public surface: a malformed argument fails by name.

Each row of ROWS holds one public callable and the keyword arguments of a
valid call. Its numeric arguments map to the malformed kinds that are valid
values for them: an empty list or a two-entry array where the argument
broadcasts, a two-entry array where the valid call holds two paths, and an
int beyond the float range where the argument is an integer with no bound.
The valid calls with paths hold one path where they can, so a two-entry
array there is a path count the other arguments do not share. The test
replaces one argument at a time by each kind of MALFORMED: the call either
returns, which only a valid kind may, or raises a SpimmwaveError whose
field is that argument. Any other exception escapes and fails the test.
The complex arrays factors, eff and hermitian_logdet's m are numeric
arguments too, read by numerics.require_complex; none of the kinds has
their rank, so every kind must fail. Object arguments take the values of
OBJECTS, none of them valid. effective_channel's abf and the objects the
package builds for its own closed forms (a CovarianceSet, a MonteCarloSpec)
are taken as given, as README says.
"""

from typing import Callable, NamedTuple

import numpy as np
import pytest

import spimmwave
from spimmwave import (
    ChannelRealization,
    CovarianceSet,
    MonteCarloSpec,
    SpimmwaveError,
    asymptotic_covariances,
    build_abf,
    build_channel,
    conditional_symbol_rate,
    covariances,
    dirichlet_gain,
    effective_channel,
    gamma_crossover,
    geometric_mean_threshold,
    hermitian_logdet,
    make_rng,
    mc_mutual_information,
    min_angle_separation,
    mmwave_rate,
    pattern_alphabet,
    sample_channel,
    spim_margin,
    spim_rate,
    steering_vector,
    total_rate_approx,
    two_path_margin,
)

MALFORMED = {
    "str": "0.5",  # numpy would parse it
    "ragged": [0.1, [0.2]],
    "none": None,
    "huge-int": 10**400,
    "complex": 0.5 + 0.5j,
    "empty": [],
    "pair": np.array([0.5, 0.5]),
    "unprintable": [10**5000, [1]],  # unreadable, and repr raises: too many digits to print
}
OBJECTS = {"none": None, "tuple": (1, 2), "str": "a"}

SCALAR = frozenset()  # every malformed kind must fail
PATHS = frozenset({"pair"})  # two paths are valid where the valid call holds two
ARRAY = frozenset({"empty", "pair"})  # an empty or two-entry batch is valid
SEED = frozenset({"huge-int"})  # an integer with no bound

CHANNEL = ChannelRealization(64, 8, aod=[0.1, -0.1], aoa=[0.2, -0.2], gains=[0.6, 0.4])
COVS = asymptotic_covariances([0.6, 0.4], [64.0, 64.0], [0.1, -0.1], 8, 0.1)


class Row(NamedTuple):
    call: Callable
    kwargs: dict
    numeric: dict = {}  # argument -> the malformed kinds that are valid values for it
    objects: tuple = ()  # arguments that take an object of the package


PATH_ARGS = dict(w=[0.6], g=[64.0], theta=[0.1], n_r=8, n0=0.1)  # one path
ROWS = {
    "mmwave_rate": Row(mmwave_rate, dict(w1=0.6, g1=64.0, n0=0.1),
                       dict(w1=ARRAY, g1=ARRAY, n0=ARRAY)),
    "spim_rate": Row(spim_rate, PATH_ARGS,
                     dict(w=SCALAR, g=SCALAR, theta=SCALAR, n_r=SCALAR, n0=ARRAY)),
    "asymptotic_covariances": Row(asymptotic_covariances, PATH_ARGS,
                                  dict(w=SCALAR, g=SCALAR, theta=SCALAR, n_r=SCALAR, n0=SCALAR)),
    "CovarianceSet": Row(CovarianceSet, dict(n0=0.1, factors=np.ones((2, 8, 1))),
                         dict(n0=SCALAR, factors=SCALAR)),
    "covariances": Row(covariances, dict(eff=np.ones((8, 2)), alphabet=pattern_alphabet(2, 1),
                                         n0=0.1), dict(eff=SCALAR, n0=SCALAR)),
    "dirichlet_gain": Row(dirichlet_gain, dict(delta_theta=0.1, n_r=8),
                          dict(delta_theta=ARRAY, n_r=SCALAR)),
    "spim_margin": Row(spim_margin, dict(gamma=0.5, n0=0.1, g1=64.0, b_max=6),
                       dict(gamma=ARRAY, n0=ARRAY, g1=SCALAR, b_max=SCALAR)),
    "gamma_crossover": Row(gamma_crossover, dict(m=2, n0=0.1, g1=64.0),
                           dict(m=SCALAR, n0=SCALAR, g1=SCALAR)),
    "geometric_mean_threshold": Row(geometric_mean_threshold,
                                    dict(w=[0.6, 0.4], g=[64.0, 64.0], n0=0.1),
                                    dict(w=PATHS, g=PATHS, n0=SCALAR)),
    "two_path_margin": Row(two_path_margin, dict(w1=0.6, w2=0.4), dict(w1=SCALAR, w2=SCALAR)),
    "steering_vector": Row(steering_vector, dict(angle=0.1, n=8), dict(angle=ARRAY, n=SCALAR)),
    "min_angle_separation": Row(min_angle_separation, dict(n_tx=64, n_rx=8),
                                dict(n_tx=SCALAR, n_rx=SCALAR)),
    "ChannelRealization": Row(ChannelRealization,
                              dict(n_tx=64, n_rx=8, aod=[0.1], aoa=[0.2], gains=[0.6]),
                              dict(n_tx=SCALAR, n_rx=SCALAR, aod=SCALAR, aoa=SCALAR,
                                   gains=SCALAR)),
    "sample_channel": Row(sample_channel,
                          dict(rng=make_rng(0), n_tx=64, n_rx=8, n_paths=1, gains=[0.6],
                               aod_range=(-0.35, 0.35), aoa_range=(-0.25, 0.25)),
                          dict(n_tx=SCALAR, n_rx=SCALAR, n_paths=SCALAR, gains=SCALAR,
                               aod_range=SCALAR, aoa_range=SCALAR), ("rng",)),
    "make_rng": Row(make_rng, dict(seed=1, stream=2), dict(seed=SEED, stream=SEED)),
    "MonteCarloSpec": Row(MonteCarloSpec, dict(n_samples=2000, seed=1),
                          dict(n_samples=SCALAR, seed=SEED)),
    "pattern_alphabet": Row(pattern_alphabet, dict(m=2, n_s=1), dict(m=SCALAR, n_s=SCALAR)),
    "build_abf": Row(build_abf, dict(channel=CHANNEL, m=2), dict(m=SCALAR), ("channel",)),
    "effective_channel": Row(effective_channel, dict(channel=CHANNEL, abf=np.ones((64, 2))),
                             objects=("channel",)),
    "hermitian_logdet": Row(hermitian_logdet, dict(m=np.eye(2)), dict(m=SCALAR)),
    # no numeric argument: each takes only objects of the package, as README says
    "build_channel": Row(build_channel, dict(real=CHANNEL)),
    "conditional_symbol_rate": Row(conditional_symbol_rate, dict(covs=COVS)),
    "total_rate_approx": Row(total_rate_approx, dict(covs=COVS)),
    "mc_mutual_information": Row(mc_mutual_information, dict(covs=COVS, spec=MonteCarloSpec())),
}
# the public names that are not called with arguments to check: result and container
# types, whose fields are filled by the package, and the exceptions
NOT_ROWS = {"McEstimate", "PatternAlphabet", "ThresholdResult", "DimensionError", "NoRootError",
            "NotPositiveDefiniteError", "ParameterError", "SpecValidationError",
            "SpimmwaveError"}

CASES = [pytest.param(row, arg, MALFORMED[kind], kind in valid, id=f"{row}-{arg}-{kind}")
         for row, spec in ROWS.items() for arg, valid in spec.numeric.items()
         for kind in MALFORMED]
CASES += [pytest.param(row, arg, value, False, id=f"{row}-{arg}-object-{kind}")
          for row, spec in ROWS.items() for arg in spec.objects
          for kind, value in OBJECTS.items()]


@pytest.mark.parametrize("row", ROWS)
def test_valid_call_returns(row):
    ROWS[row].call(**ROWS[row].kwargs)


@pytest.mark.parametrize("row, arg, value, valid", CASES)
def test_malformed_argument_fails_by_name(row, arg, value, valid):
    call, kwargs = ROWS[row].call, dict(ROWS[row].kwargs, **{arg: value})
    try:
        call(**kwargs)
    except SpimmwaveError as exc:
        assert exc.field == arg, f"{row}({arg}={value!r}) named {exc.field!r}: {exc}"
    else:
        assert valid, f"{row} returned for {arg}={value!r}"


def test_every_public_name_has_a_row():
    # a new public name joins the table, or the list of types the package fills itself
    assert set(ROWS) | NOT_ROWS == set(spimmwave.__all__)
    assert not set(ROWS) & NOT_ROWS
