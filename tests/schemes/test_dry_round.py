"""A dry round prices a split scheme's round without training it.

:meth:`~repro.schemes.split_common.SplitFederatedScheme.dry_round`
resolves the stages the sync round describes on the scheme's own
runtime.  For SL, SplitFed and GSFL at every cut of the fast preset,
under the static and the contended medium, it equals the first trained
round's ``des_s`` and trace bit for bit.  What a dry round cannot price
the same way (client dynamics, barrier-free aggregation) it refuses.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.dynamics import DynamicsConfig
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario
from repro.schemes.base import MEDIUM_POLICIES

SCHEMES = ("SL", "SplitFed", "GSFL")


@pytest.fixture(scope="module", params=MEDIUM_POLICIES)
def built(request):
    scenario = fast_scenario(with_wireless=True)
    scenario.scheme = replace(scenario.scheme, medium=request.param)
    return scenario.build()


@pytest.mark.parametrize("cut", range(1, 8))
@pytest.mark.parametrize("name", SCHEMES)
def test_dry_round_equals_first_trained_round(built, name, cut):
    assert built.profile.num_layers == 8  # every cut of micro_cnn
    dry = make_scheme(name, built, cut_layer=cut)
    seconds = dry.dry_round()
    trained = make_scheme(name, built, cut_layer=cut)
    trained.run(1)
    assert seconds == trained.round_timings[0].des_s
    assert dry.recorder.events == trained.recorder.events
    assert dry.history.points == []  # nothing evaluated


def test_dry_round_trains_nothing(built):
    scheme = make_scheme("GSFL", built)
    before = scheme.model.state_dict()
    scheme.dry_round()
    after = scheme.model.state_dict()
    assert all((before[k] == after[k]).all() for k in before)


def test_dry_round_refuses_client_dynamics():
    scenario = fast_scenario(with_wireless=True)
    scenario.dynamics = DynamicsConfig(participation=0.5)
    scheme = make_scheme("GSFL", scenario.build())
    with pytest.raises(ValueError, match="a dry round prices a fleet without client dynamics"):
        scheme.dry_round()


@pytest.mark.parametrize("name", ["SplitFed", "GSFL"])
def test_dry_round_refuses_async(name):
    scenario = fast_scenario(with_wireless=True)
    scenario.scheme = replace(scenario.scheme, aggregation="async")
    scheme = make_scheme(name, scenario.build())
    with pytest.raises(ValueError, match="under sync aggregation"):
        scheme.dry_round()
