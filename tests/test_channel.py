"""The unified ChannelConfig API.

Three layers under test:

* :class:`repro.phy.channel.ChannelConfig` itself — validation, cache
  namespacing, the picklable jitter callable;
* the :class:`~repro.net.scenario.Scenario` integration — the ambient
  :func:`use_channel` selection must pick the right medium class;
* the runtime plumbing — result-cache version token, process-pool ambient
  transport, ``RunSettings.channel`` validation, campaign spec validation.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.net.scenario import Scenario
from repro.phy.channel import (
    DEFAULT_CHANNEL,
    ChannelConfig,
    GaussianJitter,
    channel_names,
    current_channel,
    resolve_channel,
    use_channel,
)
from repro.phy.medium import Medium, SinrMedium


def _two_node_scenario(**kwargs) -> Scenario:
    s = Scenario(seed=7, **kwargs)
    s.add_wireless_node("S0", position=(0.0, 0.0))
    s.add_wireless_node("R0", position=(30.0, 0.0))
    return s


# ------------------------------------------------------------ the config --


def test_registry_lists_both_models():
    assert channel_names() == ["pairwise", "sinr"]


def test_unknown_model_is_a_readable_keyerror():
    with pytest.raises(KeyError, match="unknown channel model"):
        ChannelConfig(model="freespace")
    with pytest.raises(KeyError, match="known models"):
        resolve_channel("freespace")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"noise_floor": 0.0},
        {"noise_floor": -1e-9},
        {"path_loss_exponent": 0.0},
        {"capture_margin": 0.5},
        {"default_ber": 1.0},
        {"default_ber": -0.1},
        {"rssi_jitter_db": -1.0},
        {"ranges": (99.0, 55.0)},
        {"ranges": (0.0, 99.0)},
    ],
)
def test_invalid_knobs_raise_at_construction(kwargs):
    with pytest.raises(ValueError):
        ChannelConfig(**kwargs)


def test_cache_key_namespaces_only_non_reference_models():
    assert ChannelConfig(model="pairwise").cache_key == ""
    assert ChannelConfig().cache_key == ""  # inheriting config: no namespace
    assert ChannelConfig(model="sinr").cache_key == "channel=sinr"


def test_resolve_inherits_ambient_model_but_keeps_own_knobs():
    pinned = ChannelConfig(ranges=(55.0, 99.0))
    assert resolve_channel(pinned).model == "pairwise"
    with use_channel("sinr"):
        resolved = resolve_channel(pinned)
        assert resolved.model == "sinr"
        assert resolved.ranges == (55.0, 99.0)
        # A bare model name keeps the ambient config's knobs.
        assert resolve_channel("sinr") is current_channel()
    assert current_channel() == DEFAULT_CHANNEL


def test_gaussian_jitter_pickles_and_matches_the_old_closure():
    jitter = GaussianJitter(2.0)
    clone = pickle.loads(pickle.dumps(jitter))
    assert clone == jitter
    # Draw-identical to the lambda it replaced: one gauss() per call.
    assert jitter(random.Random(11)) == random.Random(11).gauss(0.0, 2.0)
    assert ChannelConfig().jitter() is None
    assert ChannelConfig(rssi_jitter_db=1.5).jitter() == GaussianJitter(1.5)


# -------------------------------------------------- Scenario integration --


def test_default_scenario_stays_on_the_pairwise_medium(recwarn):
    s = _two_node_scenario()
    assert type(s.medium) is Medium
    assert s.channel.model == "pairwise"
    assert not [w for w in recwarn.list if w.category is DeprecationWarning]


def test_ambient_selection_builds_the_sinr_medium():
    with use_channel("sinr"):
        s = _two_node_scenario()
        assert type(s.medium) is SinrMedium
        assert s.channel.model == "sinr"
    # Inheriting configs pin their knobs but follow the ambient model.
    with use_channel("sinr"):
        s = _two_node_scenario(channel=ChannelConfig(ranges=(55.0, 99.0)))
        assert type(s.medium) is SinrMedium
    s = _two_node_scenario(channel=ChannelConfig(ranges=(55.0, 99.0)))
    assert type(s.medium) is Medium


def test_explicit_model_overrides_the_ambient_selection():
    with use_channel("sinr"):
        s = _two_node_scenario(channel=ChannelConfig(model="pairwise"))
        assert type(s.medium) is Medium


# ------------------------------------------------------ runtime plumbing --


def test_cache_version_token_namespaces_the_sinr_channel():
    from repro.runtime.cache import code_version_token

    reference = code_version_token()
    with use_channel("sinr"):
        assert code_version_token() != reference
    with use_channel("pairwise"):
        assert code_version_token() == reference


def test_pool_ships_the_ambient_channel_to_workers():
    """ContextVars do not cross process boundaries; the pool must carry the
    non-default ambient selection explicitly or workers would silently run
    pairwise while the parent caches under the sinr namespace."""
    from repro.runtime.pool import _ambient_selection

    assert _ambient_selection() is None  # reference defaults: no payload
    with use_channel("sinr"):
        channel = _ambient_selection()
        assert channel is not None and channel.model == "sinr"


def test_run_settings_validate_the_channel_name():
    from repro.experiments.common import RunSettings

    assert RunSettings(channel="sinr").channel == "sinr"
    assert RunSettings().channel is None
    with pytest.raises(KeyError, match="unknown channel model"):
        RunSettings(channel="freespace")


def test_campaign_spec_validates_channel_values():
    from repro.campaign.spec import SpecError, spec_from_dict

    data = {
        "campaign": {
            "name": "x",
            "builder": "hidden_node",
            "seeds": [1],
            "duration_s": 0.1,
        },
        "sweep": {"channel": ["sinr", "freespace"]},
    }
    with pytest.raises(SpecError, match="unknown channel model"):
        spec_from_dict(data, source="<test>")
    data["sweep"]["channel"] = ["sinr", "pairwise"]
    spec = spec_from_dict(data, source="<test>")
    assert spec.sweep["channel"] == ["sinr", "pairwise"]
