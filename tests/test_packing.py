"""Packs: the token-mixing ops and the whole model on ragged sequences
joined into one, against the same op or model run on each sequence alone;
one train step per pack; and every function the benchmark traces still
reached through the module attribute it patches."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from abanet import encoder as encoder_module
from abanet import model as model_module
from abanet.attention import bidirectional_attention
from abanet.config import CapsuleConfig, EncoderBlockConfig, mini_profile, paper_profile
from abanet.data import Example, build_vocabs, gen_synthetic
from abanet.embedding import bilstm_encode, lstm_run
from abanet.encoder import (
    build_encoder_stack,
    positional_encoding,
    run_encoder_stack,
)
from abanet.metrics import evaluate_pairs
from abanet.model import Adam, Model, batch_loss, evaluate, span_nll, train_step
from abanet.params import ParamStore
from abanet.tensor import (
    Tape,
    Tensor,
    add_const,
    reshape,
    segment_softmax,
)

from tape_reference import (
    capture_tapes,
    depthwise_conv1d,
    fd_gradient,
    mul,
    multi_head_self_attention,
    reduce_sum,
    relative_error,
)

PASSAGE_LENGTHS = (1, 7, 3, 12)
QUESTION_LENGTHS = (1, 1, 2, 1)


def output_and_grads(run, inputs, weight):
    """Output of ``run()`` and the gradients of sum(out * weight) w.r.t. inputs."""
    with Tape() as tape:
        out = run()
        loss = reduce_sum(mul(out, Tensor(weight)))
    grads = tape.gradients(loss)
    return out.data, [grads.get(id(t), np.zeros_like(t.data)) for t in inputs]


def segment_by_segment(op, x, params, lengths, weight):
    """The one-segment reference: ``op`` on each segment of ``x`` alone,
    outputs and input gradients joined, parameter gradients summed."""
    outs, dxs, dparams = [], [], [np.zeros_like(p.data) for p in params]
    start = 0
    for length in lengths:
        part = Tensor(x.data[start:start + length])
        out, (dx, *grads) = output_and_grads(
            lambda: op(part, None), (part,) + params, weight[start:start + length])
        outs.append(out)
        dxs.append(dx)
        dparams = [total + g for total, g in zip(dparams, grads)]
        start += length
    return np.concatenate(outs), [np.concatenate(dxs)] + dparams


def lstm_weights(rng, d, h, dtype=np.float64):
    return (Tensor(rng.normal(size=(d, 4 * h)) * 0.3, dtype=dtype),
            Tensor(rng.normal(size=(h, 4 * h)) * 0.3, dtype=dtype),
            Tensor(rng.normal(size=4 * h) * 0.1, dtype=dtype))


def small_stack(rng, dtype):
    store = ParamStore(dtype)
    block = EncoderBlockConfig(num_conv_layers=1, kernel=5, num_blocks=2)
    caps = CapsuleConfig(2, 4, 2, 4, 1)
    build_encoder_stack(store, "enc", d=8, ffn_hidden=8, block=block,
                        caps=caps, rng=rng)
    params = tuple(t for _, t in store.trainable())
    return (lambda x, lengths: run_encoder_stack(
        x, lengths, store, "enc", num_heads=2, block=block, caps=caps)), params


def packed_op(name, rng, dtype=np.float64):
    """(op(x, lengths), parameters in ``dtype``, input width, output width)
    of one case."""
    if name == "self_attention":
        weights = tuple(Tensor(rng.normal(size=(8, 8)) / np.sqrt(8), dtype=dtype)
                        for _ in range(4))
        return (lambda x, lengths: multi_head_self_attention(x, lengths, 2, *weights),
                weights, 8, 8)
    if name == "depthwise_conv":
        kernel = Tensor(rng.normal(size=(5, 8)), dtype=dtype)
        return lambda x, lengths: depthwise_conv1d(x, kernel, lengths), (kernel,), 8, 8
    if name in ("lstm_fwd", "lstm_bwd"):
        weights = lstm_weights(rng, 6, 4, dtype)
        reverse = name == "lstm_bwd"
        return (lambda x, lengths: lstm_run(x, *weights, reverse=reverse,
                                            lengths=lengths), weights, 6, 4)
    if name == "stacked_bilstm":
        first = (lstm_weights(rng, 6, 4, dtype), lstm_weights(rng, 6, 4, dtype))
        second = (lstm_weights(rng, 8, 4, dtype), lstm_weights(rng, 8, 4, dtype))
        params = tuple(t for layer in (first, second) for d in layer for t in d)
        return (lambda x, lengths: bilstm_encode(
            bilstm_encode(x, *first, lengths), *second, lengths), params, 6, 8)
    if name == "positional_encoding":
        return (lambda x, lengths: add_const(
            x, positional_encoding(x.shape[0], 8, lengths)), (), 8, 8)
    if name == "span_softmax":
        return (lambda x, lengths: segment_softmax(reshape(x, (x.shape[0],)), lengths),
                (), 1, None)
    if name == "encoder_stack":
        op, params = small_stack(rng, dtype)
        return op, params, 8, 8
    raise KeyError(name)


CASES = ["self_attention", "depthwise_conv", "lstm_fwd", "lstm_bwd", "stacked_bilstm",
         "positional_encoding", "span_softmax", "encoder_stack"]


class TestPackedOps:
    @pytest.mark.parametrize("lengths", [PASSAGE_LENGTHS, QUESTION_LENGTHS])
    @pytest.mark.parametrize("name", CASES)
    def test_matches_each_segment_alone(self, name, lengths):
        """Output and every input gradient to 1e-12 relative in float64."""
        rng = np.random.default_rng(len(name) * 100 + len(lengths) + sum(lengths))
        op, params, width, out_width = packed_op(name, rng)
        n = sum(lengths)
        x = Tensor(rng.normal(size=(n, width)))
        weight = rng.normal(size=(n,) if out_width is None else (n, out_width))
        got, got_grads = output_and_grads(lambda: op(x, lengths), (x,) + params, weight)
        want, want_grads = segment_by_segment(op, x, params, lengths, weight)
        labels = ["output", "d x"] + [f"d param {k}" for k in range(len(params))]
        for label, a, e in zip(labels, [got] + got_grads, [want] + want_grads):
            assert a.shape == e.shape, label
            assert np.abs(a - e).max() <= 1e-12 * np.abs(e).max(), label

    @pytest.mark.parametrize("name", CASES)
    def test_float32_stays_float32(self, name):
        rng = np.random.default_rng(7)
        op, params, width, out_width = packed_op(name, rng, np.float32)
        n = sum(PASSAGE_LENGTHS)
        x = Tensor(rng.normal(size=(n, width)), dtype=np.float32)
        weight = rng.normal(size=(n,) if out_width is None else (n, out_width))
        out, grads = output_and_grads(lambda: op(x, PASSAGE_LENGTHS),
                                      (x,) + params, weight.astype(np.float32))
        assert [a.dtype for a in [out] + grads] == [np.float32] * (len(grads) + 1)

    def test_bidirectional_attention_matches_each_pair_alone(self):
        rng = np.random.default_rng(31)
        n, m = sum(PASSAGE_LENGTHS), sum(QUESTION_LENGTHS)
        hos_p = Tensor(rng.normal(size=(n, 6)))
        hos_q = Tensor(rng.normal(size=(m, 6)))
        w = Tensor(rng.normal(size=18))
        weight = rng.normal(size=(n, 24))
        got, got_grads = output_and_grads(
            lambda: bidirectional_attention(hos_p, hos_q, w, PASSAGE_LENGTHS,
                                            QUESTION_LENGTHS),
            (hos_p, hos_q, w), weight)
        outs, dps, dqs, dw = [], [], [], np.zeros(18)
        p_start = q_start = 0
        for p_len, q_len in zip(PASSAGE_LENGTHS, QUESTION_LENGTHS):
            p = Tensor(hos_p.data[p_start:p_start + p_len])
            q = Tensor(hos_q.data[q_start:q_start + q_len])
            out, (dp, dq, dw_part) = output_and_grads(
                lambda: bidirectional_attention(p, q, w), (p, q, w),
                weight[p_start:p_start + p_len])
            outs.append(out)
            dps.append(dp)
            dqs.append(dq)
            dw += dw_part
            p_start, q_start = p_start + p_len, q_start + q_len
        want = [np.concatenate(outs), np.concatenate(dps), np.concatenate(dqs), dw]
        for label, a, e in zip(("output", "d p", "d q", "d w"), [got] + got_grads, want):
            assert np.abs(a - e).max() <= 1e-12 * np.abs(e).max(), label

    @pytest.mark.parametrize("reverse", [False, True])
    def test_packed_lstm_matches_finite_differences(self, reverse):
        """Two segments: the gradient across the boundary is exactly zero,
        and every gradient matches central differences."""
        rng = np.random.default_rng(41 + reverse)
        x = Tensor(rng.normal(size=(5, 3)))
        weights = lstm_weights(rng, 3, 4)
        weight = rng.normal(size=(5, 4))

        def build():
            out = lstm_run(x, *weights, reverse=reverse, lengths=(2, 3))
            return reduce_sum(mul(out, Tensor(weight)))

        with Tape() as tape:
            loss = build()
        grads = tape.gradients(loss)
        for t in (x,) + weights:
            numeric = fd_gradient(build, t, 1e-6)
            assert relative_error(grads[id(t)], numeric).max() < 1e-6
        # Rows of the first segment only feed the first segment's outputs.
        first_only = Tensor(np.where(np.arange(5)[:, None] < 2, 0.0, weight))
        with Tape() as tape:
            out = lstm_run(x, *weights, reverse=reverse, lengths=(2, 3))
            loss = reduce_sum(mul(out, first_only))
        assert not tape.gradients(loss)[id(x)][:2].any()


def ragged_examples(seed=0):
    """Four examples with passages of 1, 7, 3 and 12 tokens; two carry
    sub-token counts and two do not."""
    rng = np.random.default_rng(seed)
    words = [f"w{i:02d}" for i in range(30)]
    out = []
    for k, (n, m) in enumerate(zip(PASSAGE_LENGTHS, QUESTION_LENGTHS)):
        begin = int(rng.integers(n))
        out.append(Example(
            id=f"ragged-{k}",
            passage=[words[i] for i in rng.choice(30, size=n, replace=False)],
            question=[words[i] for i in rng.choice(30, size=m, replace=False)],
            pos=rng.integers(0, 5, size=n).tolist(),
            ner=rng.integers(0, 5, size=n).tolist(),
            rule=rng.integers(0, 5, size=n).tolist(),
            answer_begin=begin, answer_end=min(n - 1, begin + 1),
            subtokens=None if k % 2 else rng.integers(1, 4, size=n).tolist()))
    return out


def per_example_grads(model, examples, training):
    """The per-example path that packing replaced: for each example, a
    forward of the pack [example] and the gradient of its own loss."""
    return [pack_grads(model, [example], training) for example in examples]


def pack_grads(model, pack, training):
    """A pack's forward and the gradient of its mean span loss per parameter."""
    with Tape() as tape:
        result = model.forward(pack, training=training, rng=np.random.default_rng(0))
        loss = batch_loss(span_nll(result.p_begin, result.p_end,
                                   [e.answer_begin for e in pack],
                                   [e.answer_end for e in pack], result.p_lengths))
    grads = tape.gradients(loss)
    return result, {name: grads.get(id(t)) for name, t in model.store.trainable()}


def assert_within(got, want, rtol, label):
    assert got.shape == want.shape, label
    assert np.abs(got - want).max() <= rtol * np.abs(want).max(), label


@pytest.mark.parametrize("profile", [mini_profile, paper_profile])
@pytest.mark.parametrize("training", [False, True])
def test_pack_matches_packs_of_one(profile, training):
    """Every example's p_begin/p_end, and every parameter gradient of the
    mean loss, to 1e-10; training mode runs without dropout or skipped
    sublayers, so both paths compute the same function."""
    config = profile()
    if training:
        config = dataclasses.replace(config, dropout_word=0.0, dropout_char=0.0,
                                     dropout_layer=0.0, survival_end=1.0)
    examples = ragged_examples()
    model = Model(config, *build_vocabs(examples), seed=0)
    packed, grads = pack_grads(model, examples, training)
    singles = per_example_grads(model, examples, training)
    assert packed.p_lengths == PASSAGE_LENGTHS
    start = 0
    for k, (single, _) in enumerate(singles):
        stop = start + PASSAGE_LENGTHS[k]
        assert_within(packed.p_begin.data[start:stop], single.p_begin.data, 1e-10,
                      f"p_begin {k}")
        assert_within(packed.p_end.data[start:stop], single.p_end.data, 1e-10,
                      f"p_end {k}")
        start = stop
    assert len(grads) > 50
    for name, got in grads.items():
        parts = [single_grads[name] for _, single_grads in singles]
        if got is None:
            assert all(part is None for part in parts), name
            continue
        want = sum(part for part in parts if part is not None) / len(examples)
        assert_within(got, want, 1e-10, name)


def test_packed_evaluate_matches_per_example_predict():
    """Packs of 10 and 3 decode the spans one predict per example gives."""
    examples = gen_synthetic("marker-span", 13, 1)
    model = Model(mini_profile(), *build_vocabs(examples), seed=0)
    optimizer = Adam(model.store, 5e-3)
    rng = np.random.default_rng(0)
    for _ in range(3):
        train_step(model, examples[:10], optimizer, rng)
    predictions = [model.predict(example) for example in examples]
    packed = []
    for start in (0, 10):
        pack = examples[start:start + 10]
        packed += model.decode(pack, model.forward(pack))
    for got, want in zip(packed, predictions, strict=True):
        assert (got.begin, got.end, got.text) == (want.begin, want.end, want.text)
        np.testing.assert_allclose(got.p_begin, want.p_begin, rtol=1e-10)
        np.testing.assert_allclose(got.p_end, want.p_end, rtol=1e-10)
    assert evaluate(model, examples) == evaluate_pairs(
        [(p.text, e.answer_text) for p, e in zip(predictions, examples)])


def test_pack_of_ten_records_about_as_much_as_a_pack_of_one(monkeypatch):
    """A train step's tape grows with the layers, not with the batch: a
    layer that fell back to a per-example loop would multiply its records."""
    config = dataclasses.replace(mini_profile(), survival_end=1.0)
    examples = gen_synthetic("copy-locate", 10, 0)
    model = Model(config, *build_vocabs(examples), seed=0)
    optimizer = Adam(model.store, 1e-3)
    tapes = capture_tapes(monkeypatch)
    rng = np.random.default_rng(0)
    train_step(model, examples[:1], optimizer, rng)
    train_step(model, examples, optimizer, rng)
    one, ten = map(len, tapes)
    assert ten <= 1.2 * one, (one, ten)


# The functions the benchmark's trace wraps, by the module attribute it
# replaces; a call that bypasses the attribute would read as zero time.
TRACED = {
    model_module: ("span_logits", "span_nll", "batch_loss", "decode_span",
                   "embed_words", "embed_features", "embed_chars", "highway",
                   "bilstm_encode", "contextual_mix", "assemble_hos",
                   "adaptive_scale", "select_top3", "bidirectional_attention",
                   "run_encoder_stack", "backward"),
    encoder_module: ("conv_pri_dig_layer", "dynamic_routing",
                     "multi_head_self_attention", "feed_forward", "layer_norm"),
}


def test_traced_functions_are_reached_through_their_attribute(monkeypatch):
    """One packed mini train step and one predict call every traced function
    through its module attribute, and each of them calls every traced
    encoder function, so a fused path that called a local copy could not
    zero ``encoder.routing_ms`` on any workload.  Encoder stacks get their
    prefix as the fourth positional argument, which the trace names spans
    by.  The train step sweeps once through ``backward``, whose tape the
    trace counts records on, and calls the store's ``accumulate`` and the
    optimizer's ``step`` once each through the attributes the trace wraps."""
    calls = Counter()
    prefixes = set()
    examples = gen_synthetic("copy-locate", 4, 0)
    model = Model(mini_profile(), *build_vocabs(examples), seed=0)
    optimizer = Adam(model.store, 1e-3)
    owners = [(module, module.__name__, names) for module, names in TRACED.items()]
    owners += [(model.store, "ParamStore", ("accumulate",)), (optimizer, "Adam", ("step",))]
    for owner, label, names in owners:
        for name in names:
            def counted(*args, _key=(label, name),
                        _original=getattr(owner, name), **kwargs):
                calls[_key] += 1
                if _key[1] == "run_encoder_stack":
                    prefixes.add(args[3])
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
    counts = []
    for operation in (
            lambda: train_step(model, examples[:3], optimizer,
                               np.random.default_rng(0)),
            lambda: model.predict(examples[3])):
        calls.clear()
        operation()
        counts.append(Counter(calls))
    train = counts[0]
    assert train[(model_module.__name__, "backward")] == 1
    assert train[("ParamStore", "accumulate")] == train[("Adam", "step")] == 1
    reached = [{key for key, count in c.items() if count} for c in counts]
    traced = {(module.__name__, name) for module, names in TRACED.items()
              for name in names}
    assert not traced - set.union(*reached), traced - set.union(*reached)
    encoder_names = {(encoder_module.__name__, name) for name in TRACED[encoder_module]}
    for keys in reached:
        assert not encoder_names - keys, encoder_names - keys
    assert prefixes == {"embenc", "modenc", "provider.enc"}
