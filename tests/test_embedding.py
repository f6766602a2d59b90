"""Embedding layers: vocab, word/char/feature lookups, highway, BiLSTM,
mixtures, and the fused embedding records against their op chains."""

import numpy as np
import pytest

from abanet.data import char_id_matrix
from abanet.embedding import (
    ContextualProvider,
    UNK_ID,
    PAD_ID,
    Vocabulary,
    bilstm_encode,
    contextual_mix,
    embed_chars,
    embed_features,
    embed_words,
    highway,
    load_embedding_file,
    lstm_bias_init,
    lstm_run,
)
from abanet.errors import ConfigError, DataError, ShapeError
from abanet.tensor import Tape, Tensor, concat, matmul

from tape_reference import (
    add,
    chain_embed_chars,
    chain_embed_features,
    chain_highway,
    fd_gradient,
    mul,
    reduce_sum,
    sigmoid,
    slice_axis,
    tanh,
    tape_grads,
)


class TestVocabulary:
    def test_reserved_ids(self):
        vocab = Vocabulary(["cat", "dog"])
        assert vocab.id("<unk>") == UNK_ID == 0
        assert vocab.id("<pad>") == PAD_ID == 1
        assert vocab.id("cat") == 2
        assert vocab.id("missing") == UNK_ID

    def test_ids_dense_and_stable(self):
        vocab = Vocabulary()
        first = vocab.add("x")
        again = vocab.add("x")
        assert first == again == 2
        assert [vocab.token(i) for i in range(len(vocab))] == ["<unk>", "<pad>", "x"]

    def test_json_round_trip(self):
        vocab = Vocabulary(["alpha", "beta"])
        clone = Vocabulary.from_json(vocab.to_json())
        assert clone.tokens == vocab.tokens


class TestEmbedWords:
    def test_unk_rows_identical(self):
        table = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        out = embed_words(np.array([0, 0]), table)
        np.testing.assert_array_equal(out.data[0], out.data[1])
        np.testing.assert_array_equal(out.data[0], table.data[0])

    def test_width_300_shape(self):
        table = Tensor(np.zeros((7, 300)))
        assert embed_words(np.array([2, 3, 4]), table).shape == (3, 300)

    def test_out_of_range_id(self):
        table = Tensor(np.zeros((3, 2)))
        with pytest.raises(DataError, match="word id out of range"):
            embed_words(np.array([5]), table)

    def test_fixed_table_receives_no_gradient(self):
        table = Tensor(np.ones((3, 2)))

        def build():
            return reduce_sum(embed_words(np.array([0, 1]), table))

        (g,) = tape_grads(build, [table])
        assert g is None

    def test_dropout_records_nothing(self):
        """Dropped-out rows are still a constant: no record, no gradient;
        each element is 0 or twice the table's at rate 0.5."""
        table = Tensor(np.random.default_rng(1).normal(size=(4, 50)))
        with Tape() as tape:
            out = embed_words(np.array([2, 3]), table, 0.5, np.random.default_rng(0))
        assert len(tape) == 0
        kept = out.data != 0.0
        assert 0 < kept.sum() < kept.size
        np.testing.assert_array_equal(out.data[kept], 2.0 * table.data[[2, 3]][kept])

    def test_dropout_without_rng_rejected(self):
        with pytest.raises(ConfigError, match="needs an rng"):
            embed_words(np.array([0]), Tensor(np.ones((3, 2))), 0.1)


def naive_char_cnn(char_ids, table, filters, kernel):
    """Loop oracle: embed, convolve (valid), max-pool per word."""
    n, c_max = char_ids.shape
    d_char = filters.shape[1]
    out = np.empty((n, d_char))
    for word in range(n):
        embedded = table[char_ids[word]]                 # [c_max, e]
        positions = c_max - kernel + 1
        acts = np.empty((positions, d_char))
        for p in range(positions):
            window = embedded[p:p + kernel].reshape(-1)  # [kernel*e]
            acts[p] = window @ filters
        out[word] = acts.max(axis=0)
    return out


class TestEmbedChars:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.table = Tensor(rng.normal(size=(10, 4)))
        self.filters = Tensor(rng.normal(size=(3 * 4, 6)))

    def test_all_pad_word_is_deterministic_baseline(self):
        pads = np.full((2, 5), PAD_ID)
        out = embed_chars(pads, self.table, self.filters, kernel=3)
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_anagrams_identical_at_kernel_one(self):
        rng = np.random.default_rng(5)
        filters1 = Tensor(rng.normal(size=(4, 6)))
        a = np.array([[2, 3, 4, 5]])
        b = np.array([[5, 3, 2, 4]])
        out_a = embed_chars(a, self.table, filters1, kernel=1)
        out_b = embed_chars(b, self.table, filters1, kernel=1)
        np.testing.assert_allclose(out_a.data, out_b.data)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 10, size=(4, 7))
        out = embed_chars(ids, self.table, self.filters, kernel=3)
        expected = naive_char_cnn(ids, self.table.data, self.filters.data, 3)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_word_shorter_than_kernel(self):
        with pytest.raises(ConfigError, match="shorter than char kernel"):
            embed_chars(np.zeros((1, 2), dtype=int), self.table, self.filters,
                        kernel=3)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        ids = rng.integers(0, 10, size=(3, 6))
        w = rng.normal(size=(3, 6))

        def build():
            out = embed_chars(ids, self.table, self.filters, kernel=3)
            return reduce_sum(mul(out, Tensor(w)))

        for t in (self.table, self.filters):
            (g,) = tape_grads(build, [t])
            f = fd_gradient(build, t, 1e-5)
            np.testing.assert_allclose(g, f, atol=1e-6)

    def test_dropout_gradient(self):
        """At rate 0.3 with one mask (a fresh rng of the same seed on every
        call) the backward scales the gradient by the mask first."""
        rng = np.random.default_rng(9)
        ids = rng.integers(0, 10, size=(5, 6))
        w = rng.normal(size=(5, 6))

        def chars():
            return embed_chars(ids, self.table, self.filters, kernel=3, rate=0.3,
                               rng=np.random.default_rng(4))

        def build():
            return reduce_sum(mul(chars(), Tensor(w)))

        dropped = chars().data == 0.0
        assert 0 < dropped.sum() < dropped.size
        for t in (self.table, self.filters):
            (g,) = tape_grads(build, [t])
            f = fd_gradient(build, t, 1e-5)
            np.testing.assert_allclose(g, f, atol=1e-6)

    def test_dropout_without_rng_rejected(self):
        with pytest.raises(ConfigError, match="needs an rng"):
            embed_chars(np.zeros((1, 4), dtype=int), self.table, self.filters,
                        kernel=3, rate=0.1)


class TestEmbedFeatures:
    def test_width_is_sum_of_dims(self):
        pos = Tensor(np.zeros((5, 16)))
        ner = Tensor(np.zeros((4, 8)))
        rule = Tensor(np.zeros((3, 4)))
        out = embed_features(np.zeros(6, int), np.zeros(6, int), np.zeros(6, int),
                             pos, ner, rule)
        assert out.shape == (6, 28)

    def test_zero_tables_give_zero(self):
        out = embed_features(np.array([1]), np.array([2]), np.array([0]),
                             Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))),
                             Tensor(np.zeros((3, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 6)))

    def test_concat_order_by_one_hot_probes(self):
        """POS occupies the first block, NER the second, rule the third."""
        pos = Tensor(np.eye(3, 2) * 7)
        ner = Tensor(np.eye(3, 2) * 11)
        rule = Tensor(np.eye(3, 2) * 13)
        out = embed_features(np.array([0]), np.array([0]), np.array([0]),
                             pos, ner, rule).data[0]
        np.testing.assert_array_equal(out, [7, 0, 11, 0, 13, 0])

    def test_out_of_range(self):
        with pytest.raises(DataError, match="ner id out of range"):
            embed_features(np.array([0]), np.array([9]), np.array([0]),
                           Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))),
                           Tensor(np.zeros((3, 2))))


def make_highway_layers(rng, d, gate_bias=0.0):
    layers = []
    for _ in range(2):
        layers.append((
            Tensor(rng.normal(size=(d, d)) * 0.3),
            Tensor(rng.normal(size=d) * 0.1),
            Tensor(rng.normal(size=(d, d)) * 0.3),
            Tensor(np.full(d, gate_bias)),
        ))
    return layers


class TestHighway:
    def test_saturated_carry_gate_is_identity(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 6)))
        layers = make_highway_layers(rng, 6, gate_bias=-30.0)
        out = highway(x, layers)
        assert np.abs(out.data - x.data).max() < 1e-6

    def test_saturated_transform_gate_uses_t_path_only(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 6)))
        layers = make_highway_layers(rng, 6, gate_bias=30.0)
        out = highway(x, layers)
        h = x
        for wt, bt, _, _ in layers:
            h = Tensor(np.tanh(h.data @ wt.data + bt.data))
        np.testing.assert_allclose(out.data, h.data, atol=1e-9)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError, match="square"):
            highway(Tensor(np.zeros((2, 3))),
                    [(Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)),
                      Tensor(np.zeros((3, 3))), Tensor(np.zeros(3)))])

    def test_gradient_at_d6(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(3, 6)))
        layers = make_highway_layers(rng, 6)
        w = rng.normal(size=(3, 6))

        def build():
            return reduce_sum(mul(highway(x, layers), Tensor(w)))

        for t in [x] + [t for layer in layers for t in layer]:
            (g,) = tape_grads(build, [t])
            f = fd_gradient(build, t, 1e-5)
            np.testing.assert_allclose(g, f, atol=1e-6)


def make_lstm_weights(rng, d, h, scale=0.4, dtype=np.float64):
    w = Tensor(rng.normal(size=(d, 4 * h)) * scale, dtype=dtype)
    u = Tensor(rng.normal(size=(h, 4 * h)) * scale, dtype=dtype)
    b = Tensor(lstm_bias_init(h), dtype=dtype)
    return w, u, b


def composite_lstm_run(x, w, u, b, *, reverse=False):
    """The per-timestep chain of tape ops that the fused ``lstm_run`` replaced."""
    n = x.shape[0]
    h = u.shape[0]
    order = range(n - 1, -1, -1) if reverse else range(n)
    h_prev = Tensor(np.zeros((1, h)))
    c_prev = Tensor(np.zeros((1, h)))
    outputs = [None] * n
    for t in order:
        xt = slice_axis(x, 0, t, 1)
        z = add(add(matmul(xt, w), matmul(h_prev, u)), b)
        i = sigmoid(slice_axis(z, 1, 0, h))
        f = sigmoid(slice_axis(z, 1, h, h))
        g = tanh(slice_axis(z, 1, 2 * h, h))
        o = sigmoid(slice_axis(z, 1, 3 * h, h))
        c_prev = add(mul(f, c_prev), mul(i, g))
        h_prev = mul(o, tanh(c_prev))
        outputs[t] = h_prev
    return concat(outputs, axis=0)


def composite_bilstm_encode(x, layers):
    out = x
    for fwd, bwd in layers:
        out = concat([composite_lstm_run(out, *fwd),
                      composite_lstm_run(out, *bwd, reverse=True)], axis=1)
    return out


def output_and_grads(run, inputs, weight):
    """Output of ``run()`` and the gradients of sum(out * weight) w.r.t. inputs."""
    with Tape() as tape:
        out = run()
        loss = reduce_sum(mul(out, Tensor(weight)))
    grads = tape.gradients(loss)
    return out.data, [grads[id(t)] for t in inputs], tape


# A pack of three segments (1, 6 and 3 tokens), two of whose words are
# empty, so their character rows are all PAD.
PACK_TOKENS = [["a"], ["the", "", "cat", "sat", "on", "mattress"], ["ox", "", "yz"]]


def fused_and_chain_inputs(rng, dtype):
    """Inputs of the three fused embedding records over ``PACK_TOKENS``, as
    (name, fused, chain, tensors, output width), with float tensors of
    ``dtype``."""
    tokens = [token for segment in PACK_TOKENS for token in segment]
    chars = Vocabulary(sorted(set("".join(tokens))))
    char_ids = char_id_matrix(tokens, chars, max_word_len=6)
    n, kernel, e, d_char = len(tokens), 3, 4, 5
    table = Tensor(rng.normal(size=(len(chars), e)), dtype=dtype)
    filters = Tensor(rng.normal(size=(kernel * e, d_char)), dtype=dtype)
    feature_tables = [Tensor(rng.normal(size=(v, w)), dtype=dtype)
                      for v, w in ((5, 3), (4, 2), (3, 2))]
    feature_ids = [rng.integers(0, t.shape[0], size=n) for t in feature_tables]
    x = Tensor(rng.normal(size=(n, 8)), dtype=dtype)
    layers = [tuple(Tensor(t.data, dtype=dtype) for t in layer)
              for layer in make_highway_layers(rng, 8, gate_bias=0.5)]
    return [
        ("char_cnn",
         lambda: embed_chars(char_ids, table, filters, kernel=kernel),
         lambda: chain_embed_chars(char_ids, table, filters, kernel=kernel),
         (table, filters), d_char),
        ("features",
         lambda: embed_features(*feature_ids, *feature_tables),
         lambda: chain_embed_features(*feature_ids, *feature_tables),
         tuple(feature_tables), 7),
        ("highway", lambda: highway(x, layers), lambda: chain_highway(x, layers),
         (x,) + tuple(t for layer in layers for t in layer), 8),
    ]


class TestFusedEmbeddingRecords:
    """Each embedding record against the op chain it replaced."""

    RECORDS = {"char_cnn": 1, "features": 1, "highway": 2}

    @pytest.mark.parametrize("index", range(3), ids=list(RECORDS))
    def test_matches_chain(self, index):
        rng = np.random.default_rng(50 + index)
        name, fused, chain, inputs, width = fused_and_chain_inputs(rng, np.float64)[index]
        probe = rng.normal(size=(sum(map(len, PACK_TOKENS)), width))
        got, got_grads, tape = output_and_grads(fused, inputs, probe)
        assert [rec[0] for rec in tape._records][:-2] == [name] * self.RECORDS[name]
        want, want_grads, _ = output_and_grads(chain, inputs, probe)
        np.testing.assert_array_equal(got, want)
        for k, (a, e) in enumerate(zip(got_grads, want_grads)):
            assert a.shape == e.shape, k
            assert np.abs(a - e).max() <= 1e-12 * np.abs(e).max(), k

    @pytest.mark.parametrize("index", range(3), ids=list(RECORDS))
    def test_float32_stays_float32(self, index):
        rng = np.random.default_rng(60 + index)
        _, fused, _, inputs, width = fused_and_chain_inputs(rng, np.float32)[index]
        probe = rng.normal(size=(sum(map(len, PACK_TOKENS)), width)).astype(np.float32)
        out, grads, _ = output_and_grads(fused, inputs, probe)
        assert out.dtype == np.float32
        assert [g.dtype for g in grads] == [np.float32] * len(inputs)


class TestBiLstm:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 7, 140])
    def test_matches_composite_reference(self, n, reverse):
        rng = np.random.default_rng(200 + n + reverse)
        x = Tensor(rng.normal(size=(n, 128)))
        weights = make_lstm_weights(rng, 128, 128, scale=0.1)
        g = rng.normal(size=(n, 128))
        inputs = (x,) + weights
        got, got_grads, tape = output_and_grads(
            lambda: lstm_run(x, *weights, reverse=reverse), inputs, g)
        assert [rec[0] for rec in tape._records].count("lstm") == 1
        want, want_grads, _ = output_and_grads(
            lambda: composite_lstm_run(x, *weights, reverse=reverse), inputs, g)
        names = ["output", "d x", "d w", "d u", "d b"]
        for name, a, e in zip(names, [got] + got_grads, [want] + want_grads):
            assert a.shape == e.shape, name
            assert np.abs(a - e).max() <= 1e-12 * np.abs(e).max(), name

    def test_stacked_matches_composite_reference(self):
        """Two BiLSTM layers, the second reading the first's output."""
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(9, 128)))
        layers = [(make_lstm_weights(rng, 128, 128, scale=0.1),
                   make_lstm_weights(rng, 128, 128, scale=0.1)),
                  (make_lstm_weights(rng, 256, 128, scale=0.1),
                   make_lstm_weights(rng, 256, 128, scale=0.1))]
        inputs = (x,) + tuple(t for layer in layers for d in layer for t in d)
        g = rng.normal(size=(9, 256))
        got, got_grads, tape = output_and_grads(
            lambda: bilstm_encode(bilstm_encode(x, *layers[0]), *layers[1]), inputs, g)
        assert [rec[0] for rec in tape._records].count("lstm") == 4
        want, want_grads, _ = output_and_grads(
            lambda: composite_bilstm_encode(x, layers), inputs, g)
        for k, (a, e) in enumerate(zip([got] + got_grads, [want] + want_grads)):
            assert np.abs(a - e).max() <= 1e-12 * np.abs(e).max(), k

    @pytest.mark.parametrize("reverse", [False, True])
    def test_float32_stays_float32(self, reverse):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(6, 5)), dtype=np.float32)
        weights = make_lstm_weights(rng, 5, 4, dtype=np.float32)
        out, grads, _ = output_and_grads(
            lambda: lstm_run(x, *weights, reverse=reverse), (x,) + weights,
            rng.normal(size=(6, 4)).astype(np.float32))
        assert out.dtype == np.float32
        assert [gr.dtype for gr in grads] == [np.float32] * 4

    def test_single_step_halves_equal_with_shared_weights(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 4)))
        weights = make_lstm_weights(rng, 4, 3)
        out = bilstm_encode(x, weights, weights)
        np.testing.assert_allclose(out.data[:, :3], out.data[:, 3:])

    def test_reversal_swaps_halves_with_shared_weights(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 4))
        weights = make_lstm_weights(rng, 4, 3)
        fwd_then_bwd = bilstm_encode(Tensor(x), weights, weights).data
        reversed_out = bilstm_encode(Tensor(x[::-1].copy()), weights, weights).data
        np.testing.assert_allclose(reversed_out[::-1, 3:], fwd_then_bwd[:, :3],
                                   atol=1e-12)
        np.testing.assert_allclose(reversed_out[::-1, :3], fwd_then_bwd[:, 3:],
                                   atol=1e-12)

    def test_output_shape_stacked(self):
        """A second layer reads the first's [n, 2h] output."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(6, 4)))
        layer1 = (make_lstm_weights(rng, 4, 3), make_lstm_weights(rng, 4, 3))
        layer2 = (make_lstm_weights(rng, 6, 3), make_lstm_weights(rng, 6, 3))
        out = bilstm_encode(bilstm_encode(x, *layer1), *layer2)
        assert out.shape == (6, 6)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(0)
        layer = (make_lstm_weights(rng, 4, 3), make_lstm_weights(rng, 4, 3))
        with pytest.raises(DataError, match="empty sequence"):
            bilstm_encode(Tensor(np.zeros((0, 4))), *layer)

    def test_gradient_n3_d4_h3(self):
        rng = np.random.default_rng(33)
        x = Tensor(rng.normal(size=(3, 4)))
        fwd = make_lstm_weights(rng, 4, 3)
        bwd = make_lstm_weights(rng, 4, 3)
        w = rng.normal(size=(3, 6))

        def build():
            return reduce_sum(mul(bilstm_encode(x, fwd, bwd), Tensor(w)))

        for t in (x,) + fwd + bwd:
            (g,) = tape_grads(build, [t])
            f = fd_gradient(build, t, 1e-5)
            np.testing.assert_allclose(g, f, atol=1e-6)

    def test_forget_bias_init(self):
        b = lstm_bias_init(3)
        np.testing.assert_array_equal(b, [0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0])


def constant_provider(layers):
    arrays = [np.asarray(layer) for layer in layers]

    def run(expanded):
        return [a[:expanded.shape[0]] for a in arrays]

    return ContextualProvider(run=run)


def loop_contextual_mix(provider, token_ids, theta, subtoken_counts):
    """The per-layer slice/mul/add loop that the one ``contextual_mix``
    record replaced, pooling sub-tokens with a dense [n, T] averaging
    matrix."""
    expanded = np.repeat(token_ids, subtoken_counts)
    averaging = np.zeros((len(subtoken_counts), expanded.shape[0]))
    offset = 0
    for row, count in enumerate(subtoken_counts):
        averaging[row, offset:offset + count] = 1.0 / count
        offset += count
    mixed = None
    for index, layer in enumerate(provider.run(expanded)):
        term = mul(slice_axis(theta, 0, index, 1), Tensor(averaging @ layer))
        mixed = term if mixed is None else add(mixed, term)
    return mixed


class TestContextualMix:
    @pytest.mark.parametrize("width", [8, 128])
    @pytest.mark.parametrize("n", [1, 7, 140])
    def test_matches_layer_loop(self, n, width):
        """Output and theta gradient against the loop, to 1e-12 relative;
        the mix is one record whose only parent is theta."""
        rng = np.random.default_rng(n * 1000 + width)
        counts = rng.integers(1, 4, size=n)
        provider = constant_provider(
            [rng.normal(size=(counts.sum(), width)) for _ in range(4)])
        theta = Tensor(rng.normal(size=4))
        probe = Tensor(rng.normal(size=(n, width)))
        results = []
        for mix in (contextual_mix, loop_contextual_mix):
            with Tape() as tape:
                out = mix(provider, np.arange(n), theta, counts)
                records = list(tape._records)
                loss = reduce_sum(mul(out, probe))
            results.append((out.data, tape.gradients(loss)[id(theta)], records))
        (out, grad, records), (ref_out, ref_grad, _) = results
        for actual, expected in ((out, ref_out), (grad, ref_grad)):
            scale = np.abs(expected).max()
            np.testing.assert_allclose(actual, expected, rtol=1e-12,
                                       atol=1e-12 * scale)
        ((name, _, parents, _),) = records
        assert name == "contextual_mix"
        assert parents == (theta,)

    def test_one_hot_theta_selects_layer(self):
        rng = np.random.default_rng(4)
        layers = [rng.normal(size=(3, 5)) for _ in range(4)]
        provider = constant_provider(layers)
        theta = Tensor(np.array([0.0, 0.0, 1.0, 0.0]))
        out = contextual_mix(provider, np.arange(3), theta, np.ones(3, dtype=np.int64))
        np.testing.assert_allclose(out.data, layers[2], atol=1e-12)

    def test_opposite_layers_cancel(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(3, 5))
        provider = constant_provider([base, -base])
        out = contextual_mix(provider, np.arange(3), Tensor(np.array([0.5, 0.5])),
                             np.ones(3, dtype=np.int64))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_subtoken_hand_average(self):
        """A word spanning 3 provider rows contributes their mean."""
        layer = np.arange(24, dtype=float).reshape(6, 4)

        def run(expanded):
            assert expanded.shape[0] == 6
            return [layer]

        provider = ContextualProvider(run=run)
        out = contextual_mix(provider, np.array([7, 8, 9]), Tensor(np.array([1.0])),
                             np.array([3, 1, 2]))
        expected = np.stack([layer[0:3].mean(0), layer[3], layer[4:6].mean(0)])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_float32_layers_pool_in_float32(self):
        """Sub-token means of float32 layers are formed in float32: with a
        float64 unit theta every output is a float32 value, where a float64
        mean of three float32 rows mostly is not."""
        rng = np.random.default_rng(12)
        layer = rng.normal(size=(30, 16)).astype(np.float32)
        out = contextual_mix(constant_provider([layer]), np.arange(10),
                             Tensor(np.ones(1)), np.full(10, 3)).data
        wide = layer.astype(np.float64).reshape(10, 3, 16).mean(axis=1)
        assert not np.array_equal(wide, wide.astype(np.float32))
        np.testing.assert_array_equal(out, out.astype(np.float32))
        np.testing.assert_allclose(out, wide, rtol=1e-6, atol=1e-6)

    def test_linear_in_theta(self):
        rng = np.random.default_rng(11)
        provider = constant_provider([rng.normal(size=(4, 3)) for _ in range(3)])
        ids = np.arange(4)
        t1 = rng.normal(size=3)
        t2 = rng.normal(size=3)
        a, b = 0.7, -1.3
        ones = np.ones(4, dtype=np.int64)
        mixed = contextual_mix(provider, ids, Tensor(a * t1 + b * t2), ones).data
        separate = (a * contextual_mix(provider, ids, Tensor(t1), ones).data
                    + b * contextual_mix(provider, ids, Tensor(t2), ones).data)
        np.testing.assert_allclose(mixed, separate, atol=1e-9)

    def test_theta_gradient(self):
        rng = np.random.default_rng(6)
        provider = constant_provider([rng.normal(size=(4, 4)) for _ in range(3)])
        theta = Tensor(rng.normal(size=3))
        w = rng.normal(size=(3, 4))

        def build():
            out = contextual_mix(provider, np.arange(3), theta, np.array([2, 1, 1]))
            return reduce_sum(mul(out, Tensor(w)))

        (g,) = tape_grads(build, [theta])
        f = fd_gradient(build, theta, 1e-5)
        np.testing.assert_allclose(g, f, atol=1e-8)


class TestEmbeddingFile:
    def test_loader_fills_known_tokens_only(self, tmp_path):
        vocab = Vocabulary(["cat", "dog"])
        path = tmp_path / "vectors.txt"
        path.write_text("cat 1.0 2.0\nbird 9.0 9.0\n")
        table = load_embedding_file(str(path), vocab, 2)
        np.testing.assert_array_equal(table[vocab.id("cat")], [1.0, 2.0])
        np.testing.assert_array_equal(table[vocab.id("dog")], [0.0, 0.0])

    def test_loader_rejects_bad_width(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("cat 1.0\n")
        with pytest.raises(DataError, match="vectors.txt:1"):
            load_embedding_file(str(path), Vocabulary(["cat"]), 2)
