"""Lean tape records: each backward keeps only what it reads.

Every lean record is checked against the keep-everything record it
replaced (tests/tape_reference.py): outputs and every gradient must be
equal bit for bit, over packs that include a 1-token segment, in float64
and float32.  Whole encoder stacks and whole training steps built from the
references must match too, and the live tape of a paper-profile training
forward must stay under a fixed byte bound.
"""

import tracemalloc

import numpy as np
import pytest

import abanet.encoder as encoder
import abanet.model as model_module
from abanet.config import PROFILES, EncoderBlockConfig
from abanet.data import Example, build_vocabs, gen_synthetic
from abanet.encoder import (
    feed_forward,
    multi_head_self_attention,
    residual_sublayer,
    run_encoder_stack,
)
from abanet.model import Adam, Model, train_step
from abanet.params import ParamStore
from abanet.tensor import (
    Tape,
    Tensor,
    depthwise_conv1d,
    dropout,
    layer_norm,
    matmul,
)

from tape_reference import (
    chain_feed_forward,
    keep_all_depthwise_conv1d,
    keep_all_dropout,
    keep_all_layer_norm,
    keep_all_residual_sublayer,
    keep_all_self_attention,
    mul,
    reduce_sum,
)
from test_encoder import MINI_CAPS, build_mini_stack

DTYPES = [np.float64, np.float32]
# A pack with a 1-token segment in the middle.
LENGTHS = (5, 1, 7)
N = sum(LENGTHS)


def tensors(rng, dtype, *shapes):
    return [Tensor(rng.normal(size=shape), dtype=dtype) for shape in shapes]


def run(op, inputs, seed):
    """Output and the gradient of every input for a fixed random
    projection of the output; the sweep keeps every gradient it makes."""
    with Tape() as tape:
        out = op()
        g = np.random.default_rng(seed).normal(size=out.shape)
        loss = reduce_sum(mul(out, Tensor(g, dtype=out.data.dtype)))
    grads = tape.gradients(loss)
    return [out.data] + [grads.get(id(t)) for t in inputs]


def assert_same(lean, reference, dtype):
    """Lean and reference results are equal arrays of the input width, or
    both None where no gradient reaches an input."""
    assert len(lean) == len(reference)
    for index, (got, want) in enumerate(zip(lean, reference)):
        if want is None:
            assert got is None, index
            continue
        assert got.dtype == want.dtype == dtype, index
        np.testing.assert_array_equal(got, want, err_msg=str(index))


@pytest.mark.parametrize("dtype", DTYPES)
class TestRecordsMatchKeepAll:
    @pytest.mark.parametrize("lengths", [LENGTHS, None])
    def test_self_attention(self, dtype, lengths):
        rng = np.random.default_rng(1)
        inputs = tensors(rng, dtype, (N, 8), *[(8, 8)] * 4)
        assert_same(run(lambda: multi_head_self_attention(inputs[0], lengths, 2,
                                                          *inputs[1:]), inputs, 0),
                    run(lambda: keep_all_self_attention(inputs[0], lengths, 2,
                                                        *inputs[1:]), inputs, 0),
                    dtype)

    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize("lengths", [LENGTHS, None])
    def test_depthwise_conv1d(self, dtype, kernel, lengths):
        rng = np.random.default_rng(2)
        inputs = tensors(rng, dtype, (N, 6), (kernel, 6))
        assert_same(run(lambda: depthwise_conv1d(*inputs, lengths), inputs, 1),
                    run(lambda: keep_all_depthwise_conv1d(*inputs, lengths), inputs, 1),
                    dtype)

    def test_layer_norm(self, dtype):
        rng = np.random.default_rng(3)
        inputs = tensors(rng, dtype, (N, 6), (6,), (6,))
        assert_same(run(lambda: layer_norm(*inputs), inputs, 2),
                    run(lambda: keep_all_layer_norm(*inputs), inputs, 2), dtype)

    def test_feed_forward(self, dtype):
        """Against the five-record chain; about half the hidden units are
        negative before the ReLU."""
        rng = np.random.default_rng(4)
        inputs = tensors(rng, dtype, (N, 6), (6, 10), (10,), (10, 6), (6,))
        assert_same(run(lambda: feed_forward(*inputs), inputs, 3),
                    run(lambda: chain_feed_forward(*inputs), inputs, 3), dtype)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_dropout(self, dtype, rate):
        rng = np.random.default_rng(5)
        inputs = tensors(rng, dtype, (N, 6))
        lean, reference = (
            run(lambda: drop(inputs[0], rate, np.random.default_rng(7)), inputs, 4)
            for drop in (dropout, keep_all_dropout))
        assert_same(lean, reference, dtype)
        if rate:
            assert 0 < np.count_nonzero(lean[0] == 0) < lean[0].size

    @pytest.mark.parametrize("training,rate", [(False, 0.0), (True, 0.0), (True, 0.3)])
    def test_residual_sublayer(self, dtype, training, rate):
        """x + dropout(f(layernorm(x))); survival 1 at index 0 keeps the
        branch in training, and evaluation scales it by 0.5."""
        rng = np.random.default_rng(6)
        x, w, gain, bias = inputs = tensors(rng, dtype, (N, 6), (6, 6), (6,), (6,))
        results = []
        for sublayer in (residual_sublayer, keep_all_residual_sublayer):
            def op():
                return sublayer(x, lambda h: matmul(h, w),
                                layer_index=0 if training else 1,
                                total_layers=1, survival_end=0.5, gain=gain, bias=bias,
                                training=training, rng=np.random.default_rng(8),
                                dropout_rate=rate)
            results.append(run(op, inputs, 5))
        assert_same(*results, dtype)


def with_references(monkeypatch):
    """Route the encoder and the model's dropout through the references."""
    for module, name, reference in (
            (encoder, "layer_norm", keep_all_layer_norm),
            (encoder, "depthwise_conv1d", keep_all_depthwise_conv1d),
            (encoder, "multi_head_self_attention", keep_all_self_attention),
            (encoder, "feed_forward", chain_feed_forward),
            (encoder, "residual_sublayer", keep_all_residual_sublayer),
            (model_module, "dropout", keep_all_dropout)):
        monkeypatch.setattr(module, name, reference)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("training", [False, True])
def test_encoder_stack_matches_keep_all(monkeypatch, dtype, training):
    """A two-block stack on a pack with a 1-token segment, with dropout
    and stochastic depth in training: output and every parameter's
    gradient equal the references'.  In training the seeds skip some
    sublayers and keep others."""
    store = ParamStore(dtype)
    rng = np.random.default_rng(9)
    block = EncoderBlockConfig(num_conv_layers=2, kernel=3, num_blocks=2)
    build_mini_stack(store, "enc", rng, block)
    x = Tensor(rng.normal(size=(N, 8)), dtype=dtype)
    inputs = [x] + [t for _, t in store.items()]

    def op():
        return run_encoder_stack(x, LENGTHS, store, "enc", num_heads=2, block=block,
                                 caps=MINI_CAPS, survival_end=0.3, dropout_rate=0.2,
                                 training=training, rng=np.random.default_rng(10))

    lean = run(op, inputs, 6)
    with monkeypatch.context() as patch:
        with_references(patch)
        reference = run(op, inputs, 6)
    assert_same(lean, reference, dtype)
    skipped = sum(grad is None for grad in lean)
    assert 0 < skipped < len(lean) - 1 if training else skipped == 0


@pytest.mark.parametrize("profile", ["mini", "paper"])
def test_training_and_predict_match_keep_all(monkeypatch, profile):
    """Three train steps give equal losses and equal parameter bytes, and
    predict gives equal p_begin and p_end bytes afterwards."""
    examples = gen_synthetic("copy-locate", 6, 0)
    runs = []
    for patched in (False, True):
        with monkeypatch.context() as patch:
            if patched:
                with_references(patch)
            model = Model(PROFILES[profile](), *build_vocabs(examples), seed=0)
            optimizer = Adam(model.store, 1e-3)
            rng = np.random.default_rng(0)
            losses = [train_step(model, examples[i:i + 2], optimizer, rng)
                      for i in (0, 2, 4)]
            params = [t.data.tobytes() for _, t in model.store.items()]
            spans = [(p.p_begin.tobytes(), p.p_end.tobytes())
                     for p in map(model.predict, examples[:2])]
            runs.append((losses, params, spans))
    (losses, params, spans), (want_losses, want_params, want_spans) = runs
    assert losses == want_losses
    assert params == want_params
    assert spans == want_spans


# Live bytes that a paper float64 training forward leaves behind for the
# pack below, measured with tracemalloc: 210.8 MB with the keep-everything
# records, 132.7 MB with the lean ones.  Putting back the [h, n_s, n_s]
# attention probabilities reads 156.6 MB, and putting back float64 dropout
# scales in place of the bool masks 144.8 MB.  The bound, 66% of the
# keep-everything figure, lies between the lean figure and both of those.
TAPE_BOUND_MB = 138.5


def memory_pack():
    """Two examples of 120 passage tokens and 10 question tokens each."""
    rng = np.random.default_rng(0)
    pool = [f"w{i}" for i in range(400)]
    n = 120
    examples = []
    for index in range(2):
        examples.append(Example(
            id=f"mem-{index}", passage=[pool[i] for i in rng.integers(0, 400, n)],
            question=[pool[i] for i in rng.integers(0, 400, 10)],
            pos=[int(v) for v in rng.integers(0, 8, n)],
            ner=[int(v) for v in rng.integers(0, 4, n)],
            rule=[int(v) for v in rng.integers(0, 2, n)],
            answer_begin=40, answer_end=42,
            subtokens=[int(v) for v in rng.integers(1, 4, n)]))
    return examples


def test_training_forward_tape_stays_under_its_byte_bound():
    examples = memory_pack()
    model = Model(PROFILES["paper"](), *build_vocabs(examples), seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            result = model.forward(examples, training=True, rng=np.random.default_rng(0))
        live_mb = (tracemalloc.get_traced_memory()[0] - base) / 1e6
    finally:
        tracemalloc.stop()
    assert len(tape) > 0 and result.p_begin.shape == (240,)
    assert live_mb <= TAPE_BOUND_MB, (live_mb, TAPE_BOUND_MB)
