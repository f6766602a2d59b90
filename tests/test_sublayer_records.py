"""One tape record per encoder sublayer.

The ``capsule`` and ``self_attention`` branches, each recorded on its own,
are checked against the op chains they replaced (tests/tape_reference.py),
over packs that include a 1-token segment: the capsule branch bit for bit,
the attention branch, whose one [d, 3d] projection GEMM sums in another
order, within 1e-12 relative in float64.  The fused sublayer record, layer
norm, branch and residual in one, equals the keep-everything ``layer_norm``
→ branch → ``add`` records bit for bit, and its gradient matches finite
differences.  A training forward records each kept sublayer as that one
record, and a non-finite capsule output is named by its record.
"""

import dataclasses
import math

import numpy as np
import pytest

import abanet.model as model_module
from abanet.config import CapsuleConfig, EncoderBlockConfig, mini_profile
from abanet.data import build_vocabs, gen_synthetic
from abanet.encoder import _branch, _sublayers, build_encoder_stack, residual_sublayer
from abanet.model import Model
from abanet.params import ParamStore
from abanet.tensor import Tape, Tensor

from tape_reference import (
    chain_conv_pri_dig_layer,
    chain_self_attention,
    conv_pri_dig_layer,
    grad_check,
    keep_all_branch,
    keep_all_sublayer,
    mul,
    multi_head_self_attention,
    reduce_sum,
)
from test_lean_records import DTYPES, LENGTHS, N, assert_same, run, tensors

# Tolerance of the attention record against its chain, by float width.
ATTENTION_RTOL = {np.float64: 1e-12, np.float32: 1e-5}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("iterations", [1, 3])
@pytest.mark.parametrize("lengths", [LENGTHS, None])
@pytest.mark.parametrize("d,kernel,caps", [
    (8, 3, (2, 4, 2, 4)), (128, 7, (16, 8, 16, 8))])
def test_capsule_record_equals_the_chain(dtype, iterations, lengths, d, kernel, caps):
    """Output and the gradients of x and of all three weights."""
    caps = CapsuleConfig(*caps, iterations)
    rng = np.random.default_rng(d + iterations)
    inputs = tensors(rng, dtype, (N, d), (kernel, d), (d, d),
                     (caps.primary_count, caps.digit_count,
                      caps.primary_dim, caps.digit_dim))
    with Tape() as tape:
        conv_pri_dig_layer(*inputs, caps, lengths)
    assert [name for name, _, _, _ in tape._records] == ["capsule"]
    assert_same(run(lambda: conv_pri_dig_layer(*inputs, caps, lengths), inputs, 7),
                run(lambda: chain_conv_pri_dig_layer(*inputs, caps, lengths), inputs, 7),
                dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lengths", [LENGTHS, None])
@pytest.mark.parametrize("d,num_heads", [(8, 2), (128, 8)])
def test_self_attention_record_matches_the_chain(dtype, lengths, d, num_heads):
    """Output and the gradients of x and of all four projections, each
    within the width's tolerance of the chain's, relative to its largest
    entry, and in the input's width."""
    rng = np.random.default_rng(d)
    x, *weights = inputs = tensors(rng, dtype, (N, d), *[(d, d)] * 4)
    for w in weights:
        w.data = w.data / math.sqrt(d)   # a Python float keeps float32 weights float32
    with Tape() as tape:
        multi_head_self_attention(x, lengths, num_heads, *weights)
    assert [name for name, _, _, _ in tape._records] == ["self_attention"]
    fused = run(lambda: multi_head_self_attention(x, lengths, num_heads, *weights),
                inputs, 8)
    chain = run(lambda: chain_self_attention(x, lengths, num_heads, *weights),
                inputs, 8)
    for index, (got, want) in enumerate(zip(fused, chain)):
        assert got.dtype == want.dtype == dtype, index
        assert np.abs(got - want).max() <= ATTENTION_RTOL[dtype] * np.abs(want).max(), index


# One block of a mini stack: a capsule, an attention and an FFN sublayer.
BLOCK = EncoderBlockConfig(num_conv_layers=1, kernel=3, num_blocks=1)
SUBLAYERS = dict(_sublayers("enc", BLOCK))
RECORD = {"conv": "capsule", "attn": "self_attention", "ffn": "feed_forward"}
# Stochastic-depth settings by mode: sublayer index 0 of 1 always keeps the
# branch; index 1 of 1 keeps it with probability survival_end.
MODES = {
    "eval": dict(training=False, layer_index=1, survival_end=0.5, dropout_rate=0.0),
    "train": dict(training=True, layer_index=0, survival_end=0.5, dropout_rate=0.0),
    "dropout": dict(training=True, layer_index=0, survival_end=0.5, dropout_rate=0.3),
    "skip": dict(training=True, layer_index=1, survival_end=1e-9, dropout_rate=0.3),
}


def sublayer_inputs(kind, dtype, iterations, seed):
    """x on the (5, 1, 7) pack and sublayer ``kind`` of a mini block in
    ``dtype``, with gains and biases drawn away from 1 and 0: (x, gain,
    bias, store, caps)."""
    caps = CapsuleConfig(2, 4, 2, 4, iterations)
    store = ParamStore(dtype)
    rng = np.random.default_rng(seed)
    build_encoder_stack(store, "enc", d=8, ffn_hidden=10, block=BLOCK, caps=caps, rng=rng)
    gain, bias = (store.get(f"{SUBLAYERS[kind]}.ln.{part}") for part in ("gain", "bias"))
    gain.data = (1.0 + 0.5 * rng.normal(size=8)).astype(dtype)
    bias.data = (0.5 * rng.normal(size=8)).astype(dtype)
    return Tensor(rng.normal(size=(N, 8)), dtype=dtype), gain, bias, store, caps


def options(mode, gain, bias):
    """``residual_sublayer``'s keyword arguments in ``mode``, with a fresh rng."""
    return dict(total_layers=1, gain=gain, bias=bias, rng=np.random.default_rng(3),
                **MODES[mode])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("iterations", [1, 3])
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("kind", list(RECORD))
def test_sublayer_record_equals_keep_all(kind, mode, iterations, dtype):
    """The one record against the keep-everything layer norm, the branch's
    reference records (the capsule chain, the keep-everything attention
    record, whose sums match the fused one's, and the feed-forward chain)
    and the residual ``add``: output and the gradients of x, gain, bias and
    every weight are equal arrays of the input width."""
    x, gain, bias, store, caps = sublayer_inputs(kind, dtype, iterations, 21)
    branch_args = (kind, SUBLAYERS[kind], store, LENGTHS, 2, caps)
    results = []
    for fused, branch in ((residual_sublayer, _branch), (keep_all_sublayer, keep_all_branch)):
        record, f, weights = branch(*branch_args)
        results.append(run(lambda: fused(x, record, f, weights, **options(mode, gain, bias)),
                           [x, gain, bias, *weights], 9))
    assert_same(*results, dtype)
    with Tape() as tape:
        residual_sublayer(x, *_branch(*branch_args), **options(mode, gain, bias))
    names = [name for name, _, _, _ in tape._records]
    assert names == ([] if mode == "skip" else [RECORD[kind]]), names
    if mode == "skip":
        assert all(grad is None for grad in results[0][2:])


@pytest.mark.parametrize("kind", list(RECORD))
def test_sublayer_record_gradient_matches_finite_differences(kind):
    """Float64, one routing iteration (the count where the routing gradient
    is exact), training with dropout: the gradients of x, gain, bias and
    every weight against central differences."""
    x, gain, bias, store, caps = sublayer_inputs(kind, np.float64, 1, 22)
    record, f, weights = _branch(kind, SUBLAYERS[kind], store, LENGTHS, 2, caps)
    checked = ParamStore()
    for index, tensor in enumerate([x, gain, bias, *weights]):
        checked.register(f"input{index}", tensor)
    w = Tensor(np.random.default_rng(23).normal(size=x.shape))

    def loss():
        out = residual_sublayer(x, record, f, weights, **options("dropout", gain, bias))
        return reduce_sum(mul(out, w))

    report = grad_check(loss, checked, epsilon=1e-5, tolerance=1e-6)
    assert report.passed, report.lines()


def record_names_by_stack(monkeypatch, model, examples, **forward_kwargs):
    """The record names of each encoder stack that one forward runs, as
    (prefix, block config, names) in call order."""
    tape = Tape()
    stacks = []
    run_stack = model_module.run_encoder_stack

    def recorded(*args, **kwargs):
        start = len(tape)
        out = run_stack(*args, **kwargs)
        stacks.append((args[3], kwargs["block"], start, len(tape)))
        return out

    monkeypatch.setattr(model_module, "run_encoder_stack", recorded)
    with tape:
        model.forward(examples, **forward_kwargs)
    names = [name for name, _, _, _ in tape._records]
    return [(prefix, block, names[start:stop]) for prefix, block, start, stop in stacks]


def test_training_forward_records_one_record_per_sublayer(monkeypatch):
    """With every sublayer kept, each block of each recorded stack is its
    positional ``add_const``, then one record per sublayer, named by its
    branch: no layer norm, residual, squash, reshape, convolution, routing
    or projection matmul of its own."""
    config = dataclasses.replace(mini_profile(), survival_end=1.0)
    examples = gen_synthetic("copy-locate", 3, 0)
    model = Model(config, *build_vocabs(examples), seed=0)
    stacks = record_names_by_stack(monkeypatch, model, examples, training=True,
                                   rng=np.random.default_rng(0))
    assert {prefix for prefix, _, names in stacks if names} == {"embenc", "modenc"}
    for prefix, block, names in stacks:
        if prefix == "provider.enc":   # frozen: records nothing
            assert names == []
            continue
        kinds = ["capsule"] * block.num_conv_layers + ["self_attention", "feed_forward"]
        want = ["add_const"] + kinds
        assert names == want * block.num_blocks, prefix


def test_first_nonfinite_names_the_capsule_record():
    """Pointwise weights of 1e200 overflow the primary squash's |s|^2 in
    the first capsule sublayer; the earlier records stay finite."""
    config = dataclasses.replace(mini_profile(), survival_end=1.0)
    examples = gen_synthetic("copy-locate", 3, 0)
    model = Model(config, *build_vocabs(examples), seed=0)
    pointwise = model.store.get("embenc.block0.conv0.pw")
    pointwise.data = np.full_like(pointwise.data, 1e200)
    with np.errstate(all="ignore"), Tape() as tape:
        model.forward(examples, training=True, rng=np.random.default_rng(0))
    width = config.capsules.digit_count * config.capsules.digit_dim
    passage_rows = sum(len(e.passage) for e in examples)
    assert tape.first_nonfinite() == f"capsule[{passage_rows}, {width}]"
