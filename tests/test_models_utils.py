"""Model zoo, registry and utility-module tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.models import (
    available_models,
    build_model,
    deepthin_cnn,
    default_cut_layer,
    micro_cnn,
    mlp,
)
from repro.nn.tensor import Tensor
from repro.utils.rng import new_rng, spawn_rngs
from repro.utils.validation import (
    check_in_choices,
    check_non_negative,
    check_positive,
    check_positive_finite,
    check_probability,
)


class TestModels:
    def test_deepthin_forward_shape(self):
        model = deepthin_cnn(num_classes=43, image_size=20, seed=0)
        out = model(Tensor(np.zeros((2, 3, 20, 20))))
        assert out.shape == (2, 43)

    def test_micro_cnn_forward_shape(self):
        model = micro_cnn(num_classes=10, image_size=16, seed=0)
        assert model(Tensor(np.zeros((3, 3, 16, 16)))).shape == (3, 10)

    def test_mlp_forward_shape(self):
        model = mlp(num_classes=7, input_shape=(3, 8, 8), hidden=(32,), seed=0)
        assert model(Tensor(np.zeros((4, 3, 8, 8)))).shape == (4, 7)

    def test_image_size_validation(self):
        with pytest.raises(ValueError):
            deepthin_cnn(image_size=18)
        with pytest.raises(ValueError):
            micro_cnn(image_size=10)

    def test_mlp_needs_hidden_layer(self):
        with pytest.raises(ValueError):
            mlp(hidden=())

    def test_models_are_profileable(self):
        for name, shape in (("deepthin", (3, 20, 20)), ("micro_cnn", (3, 16, 16))):
            model = build_model(name, image_size=shape[1])
            prof = nn.profile_model(model, shape)
            assert prof.total_params == model.num_parameters()

    def test_default_cuts_are_valid(self):
        for name in available_models():
            kwargs = {}
            if name in ("deepthin", "micro_cnn"):
                kwargs["image_size"] = 16
            model = build_model(name, **kwargs)
            cut = default_cut_layer(name)
            assert 1 <= cut <= len(model) - 1

    def test_registry_unknown_name(self):
        with pytest.raises(ValueError):
            build_model("resnet152")
        with pytest.raises(ValueError):
            default_cut_layer("resnet152")

    def test_same_seed_same_weights(self):
        a = deepthin_cnn(seed=5)
        b = deepthin_cnn(seed=5)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = deepthin_cnn(seed=1)
        b = deepthin_cnn(seed=2)
        assert any(
            not np.allclose(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
        )


class TestRngUtils:
    def test_new_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert new_rng(gen) is gen

    def test_new_rng_from_seed_deterministic(self):
        assert new_rng(3).random() == new_rng(3).random()

    def test_spawn_rngs_independent_and_stable(self):
        a1, a2 = spawn_rngs(7, 2)
        b1, b2 = spawn_rngs(7, 2)
        assert a1.random() == b1.random()
        assert a2.random() == b2.random()
        # children differ from each other
        assert spawn_rngs(7, 2)[0].random() != spawn_rngs(7, 2)[1].random()

    def test_spawn_rngs_validation(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)
        assert spawn_rngs(0, 0) == []


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)

    @pytest.mark.parametrize("value", [1e-300, 5.0, 1e300])
    def test_check_positive_finite_accepts(self, value):
        assert check_positive_finite("x", value) == value

    @pytest.mark.parametrize(
        "value", [0.0, -1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_check_positive_finite_rejects(self, value):
        with pytest.raises(ValueError, match="x must be > 0 and finite"):
            check_positive_finite("x", value)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_check_non_negative_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be >= 0, got nan"):
            check_non_negative("x", float("nan"))

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", 1.1)

    def test_check_in_choices(self):
        assert check_in_choices("mode", "a", {"a", "b"}) == "a"
        with pytest.raises(ValueError, match="mode"):
            check_in_choices("mode", "z", {"a", "b"})
