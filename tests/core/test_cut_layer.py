"""What a cut costs, as :class:`~repro.nn.profile.ModelProfile` prices it."""

from __future__ import annotations

import pytest

from repro import nn


@pytest.fixture(scope="module")
def profile():
    model = nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, seed=0),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(8, 16, 3, padding=1, seed=1),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(16 * 4 * 4, 10, seed=2),
    )
    return nn.profile_model(model, (3, 16, 16))


def cuts(profile):
    return range(1, profile.num_layers)


class TestCutCosts:
    def test_client_flops_monotone_in_cut(self, profile):
        fwd = [profile.client_forward_flops(cut) for cut in cuts(profile)]
        assert fwd == sorted(fwd)

    def test_client_plus_server_constant(self, profile):
        for cut in cuts(profile):
            assert (
                profile.client_forward_flops(cut) + profile.server_forward_flops(cut)
                == profile.total_forward_flops
            )
            assert (
                profile.client_model_bytes(cut) + profile.server_model_bytes(cut)
                == profile.total_param_bytes
            )

    def test_client_model_grows_with_the_cut(self, profile):
        client = [profile.client_model_bytes(cut) for cut in cuts(profile)]
        server = [profile.server_model_bytes(cut) for cut in cuts(profile)]
        assert client == sorted(client) and server == sorted(server, reverse=True)

    def test_smashed_payload_scales_with_the_batch(self, profile):
        for cut in cuts(profile):
            assert profile.smashed_bytes(cut, 8) == 8 * profile.smashed_bytes(cut, 1) > 0

    def test_pooling_cut_shrinks_smashed_payload(self, profile):
        # cut after pool (layer 3) carries 4x less than cut before it
        assert profile.smashed_bytes(3, 1) < profile.smashed_bytes(2, 1)

    def test_only_interior_cuts_are_priced(self, profile):
        for cut in (0, profile.num_layers):
            with pytest.raises(ValueError):
                profile.client_forward_flops(cut)
