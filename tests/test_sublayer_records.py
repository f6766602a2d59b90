"""One tape record per encoder sublayer branch.

The ``capsule`` and ``self_attention`` records are checked against the
op chains they replaced (tests/tape_reference.py), over packs that include
a 1-token segment: the capsule record bit for bit, the attention record,
whose one [d, 3d] projection GEMM sums in another order, within 1e-12
relative in float64.  A training forward records each kept sublayer as
``layer_norm``, one branch record and ``residual``, and a non-finite
capsule output is named by its record.
"""

import dataclasses
import math

import numpy as np
import pytest

import abanet.model as model_module
from abanet.config import CapsuleConfig, mini_profile
from abanet.data import build_vocabs, gen_synthetic
from abanet.encoder import conv_pri_dig_layer, multi_head_self_attention
from abanet.model import Model
from abanet.tensor import Tape

from tape_reference import chain_conv_pri_dig_layer, chain_self_attention
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


def test_training_forward_records_three_records_per_sublayer(monkeypatch):
    """With every sublayer kept, each block of each recorded stack is its
    positional ``add_const``, then ``layer_norm``, the branch record and
    ``residual`` per sublayer: no squash, reshape, convolution, routing or
    projection matmul of its own."""
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
        want = (["add_const"] + [name for kind in kinds
                                 for name in ("layer_norm", kind, "residual")])
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
