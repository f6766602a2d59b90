"""Architecture configuration: the model hyperparameters and the named profiles."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError


@dataclass
class EncoderBlockConfig:
    """Geometry of one encoder stack (convolution sublayers, then
    self-attention and feed-forward, per block)."""
    num_conv_layers: int
    kernel: int
    num_blocks: int


@dataclass
class CapsuleConfig:
    primary_count: int
    primary_dim: int
    digit_count: int
    digit_dim: int
    routing_iterations: int


@dataclass
class ModelConfig:
    """All architecture/training hyperparameters.

    The defaults are the published ones; ``mini_profile`` shrinks every
    width until a full-model finite-difference check is affordable.
    """

    d: int = 128
    num_heads: int = 8
    ffn_hidden: int = 128
    embedding_encoder: EncoderBlockConfig = field(
        default_factory=lambda: EncoderBlockConfig(5, 7, 1))
    model_encoder: EncoderBlockConfig = field(
        default_factory=lambda: EncoderBlockConfig(2, 5, 4))
    capsules: CapsuleConfig = field(
        default_factory=lambda: CapsuleConfig(16, 8, 16, 8, 3))

    # embedding layer
    word_dim: int = 300
    char_emb_dim: int = 16
    char_out_dim: int = 64
    char_kernel: int = 3
    max_word_len: int = 16
    pos_dim: int = 16
    ner_dim: int = 8
    rule_dim: int = 4
    pos_vocab: int = 64
    ner_vocab: int = 32
    rule_vocab: int = 8
    provider_layers: int = 4
    provider_width: int = 128
    lstm_hidden: int = 128

    # regularization
    dropout_word: float = 0.1
    dropout_char: float = 0.05
    dropout_layer: float = 0.1
    survival_end: float = 0.9
    l2_decay: float = 3e-7

    # attention
    use_adaptive_scale: bool = True

    # head / optimization
    max_span_len: int = 30
    unanswerable: bool = False
    batch_size: int = 25
    learning_rate: float = 1e-3
    warmup_steps: int = 100

    # float width of every parameter and activation: "float64" or "float32"
    dtype: str = "float64"

    @property
    def feature_dim(self) -> int:
        return self.pos_dim + self.ner_dim + self.rule_dim

    @property
    def word_component_dim(self) -> int:
        return self.word_dim + self.feature_dim

    @property
    def selected_dim(self) -> int:
        """Width after the top-3 granularity selection (3 stacked levels)."""
        return 3 * self.d

    @property
    def fused_dim(self) -> int:
        return 4 * self.selected_dim

    def validate(self) -> None:
        caps = self.capsules
        for name in ("num_heads", "provider_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d % self.num_heads:
            raise ConfigError(
                f"width d={self.d} not divisible by num_heads={self.num_heads}")
        if caps.primary_count * caps.primary_dim != self.d:
            raise ConfigError(
                f"primary capsules {caps.primary_count}x{caps.primary_dim} "
                f"do not tile width d={self.d}")
        if caps.digit_count * caps.digit_dim != self.d:
            raise ConfigError(
                f"digit capsules {caps.digit_count}x{caps.digit_dim} "
                f"do not tile width d={self.d}")
        if caps.routing_iterations < 1:
            raise ConfigError("routing_iterations must be >= 1")
        for name, enc in (("embedding_encoder", self.embedding_encoder),
                          ("model_encoder", self.model_encoder)):
            if enc.kernel % 2 == 0:
                raise ConfigError(f"{name}.kernel must be odd, got {enc.kernel}")
            if enc.num_conv_layers < 0 or enc.num_blocks < 0:
                raise ConfigError(f"{name} sizes must be nonnegative")
        if not 0.0 < self.survival_end <= 1.0:
            raise ConfigError(
                f"survival_end must be in (0, 1], got {self.survival_end}")
        for name in ("dropout_word", "dropout_char", "dropout_layer"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {rate}")
        if self.char_kernel % 2 == 0 or self.char_kernel > self.max_word_len:
            raise ConfigError(
                f"char_kernel={self.char_kernel} must be odd and fit within "
                f"max_word_len={self.max_word_len}")
        if self.max_span_len < 1:
            raise ConfigError("max_span_len must be >= 1")
        if self.d % 2:
            raise ConfigError("width d must be even for positional encoding")
        if self.provider_width % 2:
            raise ConfigError(
                "provider_width must be even for its two heads and positional encoding")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be 'float64' or 'float32', got {self.dtype!r}")


def paper_profile() -> ModelConfig:
    return ModelConfig()


def mini_profile() -> ModelConfig:
    return ModelConfig(
        d=8,
        num_heads=2,
        ffn_hidden=8,
        embedding_encoder=EncoderBlockConfig(1, 3, 1),
        model_encoder=EncoderBlockConfig(1, 3, 1),
        capsules=CapsuleConfig(2, 4, 2, 4, 1),
        word_dim=16,
        char_emb_dim=4,
        char_out_dim=8,
        char_kernel=3,
        max_word_len=8,
        pos_dim=4,
        ner_dim=2,
        rule_dim=2,
        pos_vocab=20,
        ner_vocab=10,
        rule_vocab=5,
        provider_layers=4,
        provider_width=8,
        lstm_hidden=4,
        batch_size=10,
        learning_rate=5e-3,
        warmup_steps=20,
    )


PROFILES = {"paper": paper_profile, "mini": mini_profile}

