"""Architecture configuration: every constraint ``ModelConfig.validate`` checks."""

import dataclasses

import pytest

from abanet.config import PROFILES, CapsuleConfig, EncoderBlockConfig, mini_profile
from abanet.errors import ConfigError


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_profiles_are_valid(name):
    PROFILES[name]().validate()


@pytest.mark.parametrize("changes,message", [
    ({"num_heads": 3}, "not divisible by num_heads"),
    ({"capsules": CapsuleConfig(3, 4, 2, 4, 1)}, "primary capsules"),
    ({"capsules": CapsuleConfig(2, 4, 4, 4, 1)}, "digit capsules"),
    ({"capsules": CapsuleConfig(2, 4, 2, 4, 0)}, "routing_iterations"),
    ({"embedding_encoder": EncoderBlockConfig(1, 4, 1)},
     "embedding_encoder.kernel must be odd"),
    ({"model_encoder": EncoderBlockConfig(1, 2, 1)},
     "model_encoder.kernel must be odd"),
    ({"embedding_encoder": EncoderBlockConfig(-1, 3, 1)}, "nonnegative"),
    ({"model_encoder": EncoderBlockConfig(1, 3, -1)}, "nonnegative"),
    ({"survival_end": 0.0}, "survival_end"),
    ({"survival_end": 1.5}, "survival_end"),
    ({"dropout_word": 1.0}, "dropout_word"),
    ({"dropout_char": -0.1}, "dropout_char"),
    ({"dropout_layer": 1.0}, "dropout_layer"),
    ({"dtype": "float16"}, "dtype must be"),
    ({"char_kernel": 4}, "char_kernel"),
    ({"char_kernel": 9}, "char_kernel"),
    ({"max_span_len": 0}, "max_span_len"),
    ({"d": 9, "num_heads": 3, "capsules": CapsuleConfig(3, 3, 3, 3, 1)},
     "width d must be even"),
    ({"provider_width": 7}, "provider_width must be even"),
    ({"num_heads": 0}, "num_heads must be >= 1"),
    ({"provider_layers": 0}, "provider_layers must be >= 1"),
    ({"batch_size": 0}, "batch_size must be >= 1"),
    ({"l2_decay": -1e-7}, "l2_decay must be >= 0"),
    ({"warmup_steps": -1}, "warmup_steps must be >= 0"),
    ({"embedding_encoder": EncoderBlockConfig(1, -1, 1)},
     "embedding_encoder.kernel must be odd and >= 1"),
    ({"char_kernel": -1}, "char_kernel=-1 must be odd, >= 1"),
    ({"learning_rate": -1.0}, "learning_rate must be positive and finite"),
    ({"learning_rate": float("nan")}, "learning_rate must be positive and finite"),
])
def test_each_constraint_is_rejected(changes, message):
    config = dataclasses.replace(mini_profile(), **changes)
    with pytest.raises(ConfigError, match=message):
        config.validate()
