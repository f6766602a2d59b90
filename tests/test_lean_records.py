"""Lean tape records: each backward keeps only what it reads.

Every lean record is checked against the keep-everything record it
replaced (tests/tape_reference.py): outputs and every gradient must be
equal bit for bit, over packs that include a 1-token segment, in float64
and float32.  Whole encoder stacks and whole training steps built from the
references must match too.  The arrays each record's backward keeps are
counted at paper widths, and the live tape of a paper-profile training
forward must stay under a fixed byte bound.
"""

import tracemalloc
import types

import numpy as np
import pytest

import abanet.encoder as encoder
import abanet.model as model_module
from abanet.config import PROFILES, EncoderBlockConfig
from abanet.data import Example, build_vocabs, gen_synthetic
from abanet.embedding import embed_chars, embed_words
from abanet.encoder import build_encoder_stack, residual_sublayer, run_encoder_stack
from abanet.model import Adam, Model, train_step
from abanet.params import ParamStore
from abanet.tensor import Tape, Tensor, matmul, record_op

from tape_reference import (
    chain_assemble_hos,
    chain_feed_forward,
    feed_forward,
    keep_all_branch,
    keep_all_depthwise_conv1d,
    keep_all_embed_chars,
    keep_all_embed_words,
    keep_all_layer_norm,
    keep_all_residual_sublayer,
    keep_all_self_attention,
    keep_all_sublayer,
    layer_norm,
    mul,
    multi_head_self_attention,
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
        x, k = inputs = tensors(rng, dtype, (N, 6), (kernel, 6))

        def conv(helper):
            out, backward = helper(x.data, k.data, lengths)
            return record_op("depthwise_conv1d", out, inputs, backward)

        assert_same(run(lambda: conv(encoder.depthwise_conv1d), inputs, 1),
                    run(lambda: conv(keep_all_depthwise_conv1d), inputs, 1), dtype)

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

    def test_char_cnn(self, dtype):
        """Over random character ids, with an all-PAD word whose window
        positions tie for every maximum."""
        rng = np.random.default_rng(7)
        char_ids = rng.integers(0, 9, size=(N, 6))
        char_ids[3] = 1
        inputs = tensors(rng, dtype, (9, 4), (3 * 4, 5))
        assert_same(run(lambda: embed_chars(char_ids, *inputs, kernel=3), inputs, 7),
                    run(lambda: keep_all_embed_chars(char_ids, *inputs, kernel=3),
                        inputs, 7),
                    dtype)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_dropout(self, dtype, rate):
        """The masks that ``embed_words`` and ``embed_chars`` draw inside
        against the lookup and the char CNN, each followed by a dropout
        record of its own.  The word lookup gives the table no gradient
        either way."""
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 9, size=N)
        char_ids = rng.integers(0, 9, size=(N, 6))
        table, char_table, filters = inputs = tensors(rng, dtype, (9, 6), (9, 4),
                                                      (3 * 4, 5))
        for ops, args, options in (
                ((embed_words, keep_all_embed_words), (ids, table), {}),
                ((embed_chars, keep_all_embed_chars), (char_ids, char_table, filters),
                 {"kernel": 3})):
            lean, reference = (
                run(lambda: op(*args, rate=rate, rng=np.random.default_rng(7),
                               **options), inputs, 4)
                for op in ops)
            assert_same(lean, reference, dtype)
            if rate:
                assert 0 < np.count_nonzero(lean[0] == 0) < lean[0].size

    @pytest.mark.parametrize("training,rate", [(False, 0.0), (True, 0.0), (True, 0.3)])
    def test_residual_sublayer(self, dtype, training, rate):
        """x + dropout(f(layernorm(x))); survival 1 at index 0 keeps the
        branch in training, and evaluation scales it by 0.5."""
        rng = np.random.default_rng(6)
        x, w, gain, bias = inputs = tensors(rng, dtype, (N, 6), (6, 6), (6,), (6,))
        options = dict(layer_index=0 if training else 1, total_layers=1,
                       survival_end=0.5, gain=gain, bias=bias, training=training,
                       dropout_rate=rate)
        assert_same(
            run(lambda: residual_sublayer(
                x, "matmul", lambda h, w: (h @ w, lambda g, h: (g @ w.T, h.T @ g)), [w],
                rng=np.random.default_rng(8), **options), inputs, 5),
            run(lambda: keep_all_residual_sublayer(
                x, lambda h: matmul(h, w), rng=np.random.default_rng(8), **options),
                inputs, 5),
            dtype)


def with_references(monkeypatch):
    """Route the encoder, the word and char dropout and the HOS stack
    through the references: every sublayer runs as a keep-everything
    layer norm, the branch's reference records (the capsule chain with its
    keep-everything convolution, the keep-everything attention record, the
    feed-forward chain) and an ``add``; each dropout of the embedding tier
    is a record of its own after the lookup or the keep-everything char
    CNN; and the HOS stack is six ``matmul`` records and a ``stack``."""
    for module, name, reference in (
            (encoder, "_branch", keep_all_branch),
            (encoder, "residual_sublayer", keep_all_sublayer),
            (encoder, "depthwise_conv1d", keep_all_depthwise_conv1d),
            (model_module, "embed_words", keep_all_embed_words),
            (model_module, "embed_chars", keep_all_embed_chars),
            (model_module, "assemble_hos", chain_assemble_hos)):
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


def base_array(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory, through views and strided windows."""
    owner = a
    while getattr(a, "base", None) is not None:
        a = a.base
        if isinstance(a, np.ndarray):
            owner = a
    return owner


def kept_arrays(record) -> list[np.ndarray]:
    """The distinct base arrays that a tape record's backward reaches
    through its closure cells, nested closures, Tensors, lists and tuples,
    leaving out the arrays of the record's parents, which the tape keeps
    anyway."""
    _, _, parents, backward = record
    parent_ids = {id(base_array(p.data)) for p in parents}
    found, seen, todo = {}, set(), [backward]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = base_array(obj)
            if id(base) not in parent_ids:
                found[id(base)] = base
        elif isinstance(obj, Tensor):
            todo.append(obj.data)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, types.FunctionType):
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
    return list(found.values())


# Bytes per token that each record's backward keeps at paper widths, in
# float64.  The three sublayer records keep the layer norm's mean and std
# and the bool dropout mask (144); the capsule record also keeps routing's
# couplings, final s and squash scales (3,472 in all); char_cnn keeps its
# int windows, each maximum's position and its bool dropout mask (704).
# Keeping the array each one rebuilds added, per token, 3,072 for
# attention's qkv, 1,024 for the capsule projection and for the
# feed-forward hidden activation, and 5,376 for the char windows.
KEPT_BYTES_PER_TOKEN = {"capsule": 3472, "self_attention": 144,
                        "feed_forward": 144, "char_cnn": 704}


def test_records_keep_no_rebuildable_array():
    """One paper-width block (one conv sublayer) over a 140-token pack of
    two segments, with every sublayer kept and dropout on, and the paper
    char CNN over 140 words with the paper's char dropout."""
    cfg = PROFILES["paper"]()
    n, d, caps = 140, cfg.d, cfg.capsules
    positions = cfg.max_word_len - cfg.char_kernel + 1
    rng = np.random.default_rng(11)
    store = ParamStore(np.float64)
    block = EncoderBlockConfig(num_conv_layers=1, kernel=cfg.model_encoder.kernel,
                               num_blocks=1)
    build_encoder_stack(store, "enc", d=d, ffn_hidden=cfg.ffn_hidden, block=block,
                        caps=caps, rng=rng)
    x = Tensor(rng.normal(size=(n, d)))
    with Tape() as tape:
        run_encoder_stack(x, (60, 80), store, "enc", num_heads=cfg.num_heads,
                          block=block, caps=caps, survival_end=1.0,
                          dropout_rate=cfg.dropout_layer, training=True, rng=rng)
        embed_chars(rng.integers(0, 40, size=(n, cfg.max_word_len)),
                    Tensor(rng.normal(size=(40, cfg.char_emb_dim))),
                    Tensor(rng.normal(size=(cfg.char_kernel * cfg.char_emb_dim,
                                            cfg.char_out_dim))),
                    kernel=cfg.char_kernel, rate=cfg.dropout_char, rng=rng)
    kept = {record[0]: kept_arrays(record) for record in tape._records
            if record[0] in KEPT_BYTES_PER_TOKEN}
    assert set(kept) == set(KEPT_BYTES_PER_TOKEN)

    def floats(name):
        return [a.shape for a in kept[name] if a.dtype.kind == "f"]

    # No qkv, no hidden activation, no projection in either layout, and no
    # gathered windows, whose base is [n, positions, kernel, char_dim].
    assert not [s for s in floats("self_attention") if s[-1] == 3 * d]
    assert (n, cfg.ffn_hidden) not in floats("feed_forward")
    assert not {(n, d), (n, caps.primary_count, caps.primary_dim)} & set(floats("capsule"))
    assert not [s for s in floats("char_cnn") if s[:2] == (n, positions)
                or s[0] == n * positions]
    for name, arrays in kept.items():
        assert sum(a.nbytes for a in arrays) <= n * KEPT_BYTES_PER_TOKEN[name], name


# Live bytes that a paper float64 training forward leaves behind for the
# pack below, measured with tracemalloc: 210.8 MB with the keep-everything
# records, 132.7 MB with lean records under the six-record capsule chain
# and the five-record attention chain, 122.1 MB with one lean record per
# sublayer branch between its layer norm and residual records, and 86.7 MB
# with one record per sublayer.  Putting back, in that layout, the primary
# capsules or the depthwise output in the capsule record reads 93.9 MB;
# the layer norm's output in the sublayer record, 99.9 MB; the [h, n_s,
# n_s] probabilities in the attention record, 110.7 MB.  Rebuilding in the
# backward attention's qkv, the capsule projection, the feed-forward hidden
# activation and the char windows brings it to 65.7 MB.  Putting back one
# of them reads 75.3 MB for qkv, 72.9 MB for the capsule projection,
# 68.4 MB for the hidden activation and 67.1 MB for the char windows.  Run
# after other tests, which leave positional tables cached, each figure
# reads about 0.3 MB less (65.3 MB lean, 66.8 MB with the char windows).
# Drawing the word and char dropout inside the lookup and the char CNN, and
# recording the HOS stack as one record in place of six matmuls and a stack,
# brings it to 63.2 MB.  The bound lies between that figure and the 65.7 MB
# before it, and all of those above, in either case.
TAPE_BOUND_MB = 64.5


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
