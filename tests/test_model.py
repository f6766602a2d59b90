"""Span head (per-segment distributions, gold-span likelihood, decoding),
float32 purity of a whole model step, float32 serving of a float64-trained
model, models of both widths in one process, the provider and passage caches,
the rebind-only parameter contract, full-model gradients, the Adam update
and its moments created on first use, the freeing backward sweep, the
update reading the sweep's gradients after the tape is freed, the
training step's non-finite-loss check, garbage-collection state and cyclic
garbage, determinism and learning, the one batch_loss record with its
weight decay matching the per-parameter chain, the
passage-length check of a forward, the record names and census of a
training tape, and the model without level mixing."""

import ast
import dataclasses
import gc
import hashlib
import json
import pathlib
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from abanet import model as model_module
from abanet.config import PROFILES, mini_profile
from abanet.data import build_vocabs, gen_synthetic
from abanet.errors import DataError, NumericsError
from abanet.model import (
    Adam,
    Model,
    batch_loss,
    decode_span,
    fit,
    span_logits,
    span_nll,
    train_step,
)
from abanet.params import ParamStore
from abanet.tensor import Tape, Tensor

from tape_reference import add, mul, mul_const, reduce_sum, relative_error


def loop_decode_span(p_begin, p_end, max_len, unanswerable_mode=False):
    """The per-begin loop that the windowed argmax replaced."""
    n = p_begin.shape[0]
    best = (0, 0)
    best_score = -1.0
    for i in range(n):
        window = p_end[i:min(n, i + max_len)]
        j = i + int(np.argmax(window))
        score = float(p_begin[i] * p_end[j])
        if score > best_score:
            best, best_score = (i, j), score
    answerable = not (unanswerable_mode and best == (n - 1, n - 1))
    return best[0], best[1], best_score, answerable


def random_distribution(rng, n):
    p = rng.random(n)
    return p / p.sum()


class TestDecodeSpan:
    @pytest.mark.parametrize("n,max_len", [(1, 1), (1, 15), (5, 15), (30, 1),
                                           (30, 4), (200, 15), (200, 200)])
    def test_matches_loop_on_random_inputs(self, n, max_len):
        rng = np.random.default_rng(n * 1000 + max_len)
        for _ in range(20):
            p_begin = random_distribution(rng, n)
            p_end = random_distribution(rng, n)
            assert (decode_span(p_begin, p_end, max_len)
                    == loop_decode_span(p_begin, p_end, max_len))

    @pytest.mark.parametrize("max_len", [1, 2, 3, 8])
    def test_exact_ties_match_loop(self, max_len):
        """Coarse values force equal products across begins and ends."""
        rng = np.random.default_rng(max_len)
        for _ in range(50):
            p_begin = rng.integers(1, 3, size=8) / 4.0
            p_end = rng.integers(1, 3, size=8) / 4.0
            assert (decode_span(p_begin, p_end, max_len)
                    == loop_decode_span(p_begin, p_end, max_len))

    def test_uniform_picks_earliest_begin_and_end(self):
        p = np.full(6, 1.0 / 6.0)
        assert decode_span(p, p, 3)[:2] == (0, 0)

    def test_end_stays_inside_window(self):
        p_begin = np.array([0.7, 0.1, 0.1, 0.1])
        p_end = np.array([0.05, 0.05, 0.1, 0.8])
        begin, end, score, _ = decode_span(p_begin, p_end, 2)
        assert (begin, end) == (2, 3)
        assert score == pytest.approx(0.1 * 0.8)
        assert decode_span(p_begin, p_end, 4)[:2] == (0, 3)

    def test_unanswerable_convention(self):
        p_begin = np.array([0.1, 0.1, 0.8])
        p_end = np.array([0.1, 0.1, 0.8])
        assert decode_span(p_begin, p_end, 3) == (2, 2, pytest.approx(0.64), True)
        assert decode_span(p_begin, p_end, 3, unanswerable_mode=True)[3] is False
        answerable = decode_span(p_begin[::-1].copy(), p_end, 3,
                                 unanswerable_mode=True)
        assert answerable[:2] == (0, 2) and answerable[3] is True

    def test_float32_inputs(self):
        rng = np.random.default_rng(4)
        p_begin = random_distribution(rng, 50).astype(np.float32)
        p_end = random_distribution(rng, 50).astype(np.float32)
        assert (decode_span(p_begin, p_end, 15)
                == loop_decode_span(p_begin, p_end, 15))


def span_inputs(rng, n, d=3):
    return (Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, d))),
            Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(2 * d, 1))),
            Tensor(rng.normal(size=(2 * d, 1))))


class TestSpanLogits:
    def test_distributions_sum_to_one(self):
        b1, b2, b3, w1, w2 = span_inputs(np.random.default_rng(1), 6)
        p_begin, p_end = span_logits(b1, b2, b3, w1, w2, None)
        assert p_begin.shape == p_end.shape == (6,)
        np.testing.assert_allclose(p_begin.data.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(p_end.data.sum(), 1.0, atol=1e-12)

    def test_begin_and_end_read_their_block_pairs(self):
        b1, b2, b3, w1, w2 = span_inputs(np.random.default_rng(2), 5)
        p_begin, p_end = span_logits(b1, b2, b3, w1, w2, None)
        begin = (np.concatenate([b1.data, b2.data], axis=1) @ w1.data)[:, 0]
        end = (np.concatenate([b2.data, b3.data], axis=1) @ w2.data)[:, 0]
        np.testing.assert_allclose(p_begin.data, np.exp(begin) / np.exp(begin).sum(),
                                   rtol=1e-12)
        np.testing.assert_allclose(p_end.data, np.exp(end) / np.exp(end).sum(),
                                   rtol=1e-12)

    def test_each_segment_is_its_own_distribution(self):
        """A pack's scores are softmaxed within each passage segment."""
        b1, b2, b3, w1, w2 = span_inputs(np.random.default_rng(3), 6)
        lengths = (2, 3, 1)
        packed = span_logits(b1, b2, b3, w1, w2, lengths)
        start = 0
        for length in lengths:
            part = [Tensor(b.data[start:start + length]) for b in (b1, b2, b3)]
            for got, want in zip(packed, span_logits(*part, w1, w2)):
                np.testing.assert_array_equal(got.data[start:start + length],
                                              want.data)
            start += length


class TestSpanNll:
    def test_value(self):
        p_begin = Tensor(np.array([0.1, 0.6, 0.3]))
        p_end = Tensor(np.array([0.2, 0.3, 0.5]))
        nll = span_nll(p_begin, p_end, 1, 2)
        assert nll.shape == (1,)
        np.testing.assert_allclose(nll.data, -np.log(0.6) - np.log(0.5), rtol=1e-14)

    def test_packed_golds_count_from_their_segment(self):
        p_begin = Tensor(np.array([0.1, 0.9, 1.0, 0.3, 0.7]))
        p_end = Tensor(np.array([0.4, 0.6, 1.0, 0.2, 0.8]))
        nll = span_nll(p_begin, p_end, [1, 0, 0], [0, 0, 1], (2, 1, 2))
        np.testing.assert_allclose(
            nll.data, -np.log([0.9 * 0.4, 1.0 * 1.0, 0.3 * 0.8]), rtol=1e-14)

    @pytest.mark.parametrize("gold", [(-1, 0), (0, 3), (3, 3)])
    def test_out_of_range_gold_rejected(self, gold):
        p = Tensor(np.full(3, 1.0 / 3.0))
        with pytest.raises(DataError, match="outside"):
            span_nll(p, p, *gold)

    @pytest.mark.parametrize("gold", [([2, 0], [0, 0]), ([0, 0], [1, 1])])
    def test_gold_past_its_segment_rejected(self, gold):
        p = Tensor(np.array([0.5, 0.5, 1.0]))
        with pytest.raises(DataError, match="outside"):
            span_nll(p, p, *gold, (2, 1))


FLOAT32 = dataclasses.replace(mini_profile(), dtype="float32")


def test_float32_model_forward_and_backward_stay_float32():
    examples = gen_synthetic("copy-locate", 4, 0)
    model = Model(FLOAT32, *build_vocabs(examples), seed=0)
    assert all(t.data.dtype == np.float32 for _, t in model.store.items())
    example = examples[0]
    with Tape() as tape:
        result = model.forward([example], training=True,
                               rng=np.random.default_rng(0))
        loss = span_nll(result.p_begin, result.p_end,
                        example.answer_begin, example.answer_end)
    upcast = [(i, name) for i, (name, out, _, _) in enumerate(tape._records)
              if out.data.dtype != np.float32]
    assert not upcast, upcast[:5]
    grads = tape.gradients(loss)
    assert all(g.dtype == np.float32 for g in grads.values())


def test_word_vectors_take_the_model_width():
    examples = gen_synthetic("copy-locate", 4, 0)
    vocabs = build_vocabs(examples)
    vectors = np.ones((len(vocabs[0]), FLOAT32.word_dim))
    model = Model(FLOAT32, *vocabs, seed=0, word_vectors=vectors)
    table = model.store.get("word.table").data
    assert table.dtype == np.float32 and not np.shares_memory(table, vectors)
    assert model.predict(examples[0]).p_begin.dtype == np.float32


def test_float64_trained_model_serves_in_float32():
    """A model trained by ``fit`` in float64 and loaded into a float32 model
    predicts the same spans, with distributions within 1e-4 relative."""
    examples = gen_synthetic("copy-locate", 50, 0)
    vocabs = build_vocabs(examples)
    trained = Model(mini_profile(), *vocabs, seed=0)
    fit(trained, examples, epochs=8, seed=0)
    served = Model(FLOAT32, *vocabs, seed=1)
    served.store.load_state_dict(trained.store.state_dict())
    agree = 0
    for example in examples:
        want, got = trained.predict(example), served.predict(example)
        assert got.p_begin.dtype == got.p_end.dtype == np.float32
        agree += (got.begin, got.end) == (want.begin, want.end)
        for name in ("p_begin", "p_end"):
            a, e = getattr(got, name), getattr(want, name)
            assert np.max(np.abs(a - e) / e) <= 1e-4, name
    assert agree >= 0.99 * len(examples), agree


def test_both_widths_predict_in_turn_in_one_process():
    """A float32 and a float64 model share the process: each keeps its
    width, and the float64 one predicts the bits it predicts alone."""
    examples = gen_synthetic("copy-locate", 6, 0)
    vocabs = build_vocabs(examples)
    alone = [Model(mini_profile(), *vocabs, seed=0).predict(e) for e in examples]
    narrow = Model(FLOAT32, *vocabs, seed=0)
    wide = Model(mini_profile(), *vocabs, seed=0)
    for example, want in zip(examples, alone):
        got32, got64 = narrow.predict(example), wide.predict(example)
        assert got32.p_begin.dtype == got32.p_end.dtype == np.float32
        assert got64.p_begin.dtype == got64.p_end.dtype == np.float64
        assert_same_prediction(got64, want)


def mini_model(seed=0):
    examples = gen_synthetic("copy-locate", 4, seed)
    return Model(mini_profile(), *build_vocabs(examples), seed=seed), examples


# sha256 of the ordered (name, shape, dtype) list of a model's parameters
# at each profile, for the vocabularies of four copy-locate examples.
STORE_LAYOUT_SHA256 = {
    "mini": "255839f9338a9a20d0019d9153b637946fa4b4681cebe98ddb662742025f871e",
    "paper": "a18ae3f75e9d54275d2d105e5258547a7fa7c6d73bf9c35f6db9a93be675d01a",
}


@pytest.mark.parametrize("profile", sorted(STORE_LAYOUT_SHA256))
def test_parameter_layout_is_pinned(profile):
    """Every parameter's name, place in the order, shape and width.  A
    reorder alone would change the init draws and the order of Adam's
    updates and of the l2 sum."""
    examples = gen_synthetic("copy-locate", 4, 0)
    model = Model(PROFILES[profile](), *build_vocabs(examples))
    layout = json.dumps([[name, list(tensor.shape), str(tensor.data.dtype)]
                         for name, tensor in model.store.items()])
    assert (hashlib.sha256(layout.encode()).hexdigest()
            == STORE_LAYOUT_SHA256[profile])


class TestProviderCache:
    """Least-recently-used eviction under a byte budget of two entries."""

    def setup_method(self):
        self.keys = [np.array([2, 3, k]) for k in (4, 5, 6)]
        entry = mini_model()[0]._provider_run(self.keys[0])
        self.model, _ = mini_model()
        self.budget = 2 * sum(layer.nbytes for layer in entry)

    def cached(self):
        return [np.frombuffer(k, dtype=np.int64)[-1]
                for k in self.model._provider_cache.entries]

    def test_oldest_entry_is_evicted_first(self):
        self.model._provider_cache.budget = self.budget
        for key in self.keys:
            self.model._provider_run(key)
        assert self.cached() == [5, 6]
        assert self.model._provider_cache.nbytes == self.budget

    def test_hit_refreshes_recency(self):
        self.model._provider_cache.budget = self.budget
        a, b, c = self.keys
        first = self.model._provider_run(a)
        self.model._provider_run(b)
        assert self.model._provider_run(a) is first
        self.model._provider_run(c)
        assert self.cached() == [4, 6]

    def test_entry_over_budget_is_not_stored(self):
        """An entry larger than the whole budget is returned but not
        stored, and the entries already cached stay."""
        cache = self.model._provider_cache
        cache.budget = self.budget
        for key in self.keys[:2]:
            self.model._provider_run(key)
        cache.put(b"too large", [], self.budget + 1)
        assert self.cached() == [4, 5] and cache.nbytes == self.budget
        cache.budget = self.budget // 4
        layers = self.model._provider_run(self.keys[2])
        assert self.cached() == [4, 5] and cache.nbytes == self.budget
        for got, want in zip(layers, mini_model()[0]._provider_run(self.keys[2]),
                             strict=True):
            np.testing.assert_array_equal(got, want)

    def test_cached_layers_are_read_only(self):
        """Writing into a returned layer raises, so the next hit returns
        the values the provider computed."""
        layers = self.model.provider.run(self.keys[0])
        want = [layer.copy() for layer in layers]
        for layer in layers:
            with pytest.raises(ValueError, match="read-only"):
                layer[0, 0] = 1e3
        again = self.model.provider.run(self.keys[0])
        assert again is layers
        for got, expected in zip(again, want, strict=True):
            np.testing.assert_array_equal(got, expected)

    def test_invalidate_empties(self):
        """A rebound frozen array empties the cache at its next lookup."""
        cache = self.model._provider_cache
        first = self.model._provider_run(self.keys[0])
        for key in self.keys[1:]:
            self.model._provider_run(key)
        assert len(cache.entries) == 3
        table = self.model.store.get("provider.table")
        table.data = table.data.copy()
        assert cache.get(self.keys[1].tobytes()) is None
        assert not cache.entries and cache.nbytes == 0
        again = self.model._provider_run(self.keys[0])
        assert again is not first and len(cache.entries) == 1
        for old, new in zip(first, again):
            np.testing.assert_array_equal(old, new)

    @pytest.mark.parametrize("change", ["rebind", "load"])
    def test_direct_run_reads_the_current_frozen_arrays(self, change):
        """``provider.run`` called outside a forward, after the frozen
        arrays were rebound or loaded, returns the layers of the model
        the new arrays came from."""
        examples = gen_synthetic("copy-locate", 4, 0)
        vocabs = build_vocabs(examples)
        model, source = (Model(mini_profile(), *vocabs, seed=seed) for seed in (0, 5))
        ids = model.word_vocab.ids(examples[0].passage)
        stale = model.provider.run(ids)
        if change == "load":
            model.store.load_state_dict(source.store.state_dict())
        else:
            trainable = dict(model.store.trainable())
            for name, tensor in model.store.items():
                if name not in trainable:
                    tensor.data = source.store.get(name).data
        layers = model.provider.run(ids)
        assert layers is not stale
        for got, want in zip(layers, source.provider.run(ids), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_loaded_frozen_weights_are_used(self):
        """After ``load_state_dict`` the provider runs on the loaded frozen
        weights: the model predicts the bits of the model it was loaded
        from, with the contextual level among the selected three."""
        examples = gen_synthetic("copy-locate", 4, 0)
        vocabs = build_vocabs(examples)
        models = [Model(mini_profile(), *vocabs, seed=seed) for seed in (0, 5)]
        for model in models:
            model.store.get("alpha").data = np.array([0.3, 0.2, 0.0, 0.25, 0.0, 0.0])
        model, source = models
        model.predict(examples[0])
        model.store.load_state_dict(source.store.state_dict())
        for example in examples:
            got = model.predict(example)
            assert_same_prediction(got, source.predict(example))
        assert model.forward(examples[:1]).selected_levels == (0, 1, 3)

    def test_survives_a_training_step(self):
        """Adam rebinds only trainable arrays, so cached provider layers
        are reused after a step."""
        model, examples = mini_model()
        model.predict(examples[0])
        before = {key: layers for key, (layers, _) in model._provider_cache.entries.items()}
        train_step(model, examples[:2], Adam(model.store, 1e-2),
                   np.random.default_rng(0))
        model.predict(examples[0])
        assert before and all(model._provider_cache.get(key) is layers
                              for key, layers in before.items())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_budget_holds_the_copy_locate_working_set(self, seed):
        """Training on 50 copy-locate examples at the paper profile, the
        traffic that reads the provider cache, fits its budget: no
        sequence is evicted, and a second pass hits every one."""
        examples = gen_synthetic("copy-locate", 50, seed)
        model = Model(PROFILES["paper"](), *build_vocabs(examples), seed=seed)
        sequences = [model.word_vocab.ids(tokens) for e in examples
                     for tokens in (e.passage, e.question)]
        first = {ids.tobytes(): model._provider_run(ids) for ids in sequences}
        cache = model._provider_cache
        assert cache.entries.keys() == first.keys()
        assert cache.nbytes <= cache.budget == model_module.CACHE_BYTES
        assert all(model._provider_run(ids) is first[ids.tobytes()]
                   for ids in sequences)


def count_sequence_reprs(model, monkeypatch):
    """Count the model's ``_sequence_repr`` calls: two per uncached forward,
    one (the question) per passage-cache hit."""
    calls = []
    original = model._sequence_repr

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(model, "_sequence_repr", counted)
    return calls


def assert_same_prediction(got, want):
    np.testing.assert_array_equal(got.p_begin, want.p_begin)
    np.testing.assert_array_equal(got.p_end, want.p_end)
    assert (got.begin, got.end, got.score) == (want.begin, want.end, want.score)


class TestPassageCache:
    def test_repeated_passage_is_a_hit_matching_a_cold_model(self, monkeypatch):
        """A second question on a cached passage skips the passage's
        sequence representation and predicts the bits a cold model does."""
        model, examples = mini_model()
        first = examples[0]
        other = dataclasses.replace(first, question=examples[1].passage[:3])
        calls = count_sequence_reprs(model, monkeypatch)
        model.predict(first)
        assert calls == [10, 1] and len(model._passage_cache.entries) == 1
        hits = [model.predict(first), model.predict(other)]
        assert calls == [10, 1, 1, 3] and len(model._passage_cache.entries) == 1
        for example, hit in zip((first, other), hits):
            assert_same_prediction(hit, mini_model()[0].predict(example))

    def test_key_covers_every_passage_input(self):
        """Passages differing only in characters behind one unknown-word id,
        or in one feature or sub-token count, are separate entries."""
        model, examples = mini_model()
        base = examples[0]
        n = len(base.passage)
        bumped = [1] + [0] * (n - 1)
        variants = [
            base,
            dataclasses.replace(base, passage=["31w"] + base.passage[1:]),
            dataclasses.replace(base, passage=["52w"] + base.passage[1:]),
            dataclasses.replace(base, pos=list(np.add(base.pos, bumped))),
            dataclasses.replace(base, ner=list(np.add(base.ner, bumped))),
            dataclasses.replace(base, rule=list(np.add(base.rule, bumped))),
            dataclasses.replace(base, subtokens=[2] + [1] * (n - 1)),
        ]
        ids = [model.word_vocab.ids(v.passage) for v in variants[1:3]]
        np.testing.assert_array_equal(*ids)
        predictions = [model.predict(v) for v in variants]
        assert len(model._passage_cache.entries) == len(variants)
        for variant, prediction in zip(variants, predictions):
            assert_same_prediction(prediction, mini_model()[0].predict(variant))

    def test_train_step_between_predicts_matches_a_reloaded_model(self):
        model, examples = mini_model()
        before = model.predict(examples[0])
        train_step(model, examples[:2], Adam(model.store, 1e-2),
                   np.random.default_rng(0))
        after = model.predict(examples[0])
        assert not np.array_equal(after.p_begin, before.p_begin)
        fresh = Model(mini_profile(), model.word_vocab, model.char_vocab, seed=1)
        fresh.store.load_state_dict(
            {name: array.copy() for name, array in model.store.state_dict().items()})
        assert_same_prediction(after, fresh.predict(examples[0]))

    def test_predict_after_a_step_misses(self, monkeypatch):
        """An optimizer step rebinds the parameters, so the next predict of
        a cached passage computes it again."""
        model, examples = mini_model()
        calls = count_sequence_reprs(model, monkeypatch)
        model.predict(examples[0])
        train_step(model, examples[:2], Adam(model.store, 1e-2),
                   np.random.default_rng(0))
        model.predict(examples[0])
        assert len(calls) == 6 and calls[:2] == calls[-2:] == [10, 1]
        assert len(model._passage_cache.entries) == 1

    def test_rebinding_a_parameter_invalidates(self, monkeypatch):
        model, examples = mini_model()
        calls = count_sequence_reprs(model, monkeypatch)
        model.predict(examples[0])
        projection = model.store.get("hos.word")
        projection.data = 1.5 * projection.data
        changed = model.predict(examples[0])
        assert calls == [10, 1, 10, 1] and len(model._passage_cache.entries) == 1
        cold, _ = mini_model()
        cold.store.get("hos.word").data = projection.data
        assert_same_prediction(changed, cold.predict(examples[0]))

    def test_training_and_taped_forwards_bypass(self, monkeypatch):
        """Neither a training forward nor an eval forward under a tape reads
        or fills the cache; the taped one still gives every passage-side
        parameter its gradient after the passage was cached."""
        model, examples = mini_model()
        example = examples[0]
        model.predict(example)
        cached = dict(model._passage_cache.entries)
        calls = count_sequence_reprs(model, monkeypatch)
        for other in (example, examples[1]):
            model.forward([other], training=True, rng=np.random.default_rng(0))
            with Tape():
                model.forward([other], training=True, rng=np.random.default_rng(0))
            with Tape():
                model.forward([other])
        assert calls == [10, 1] * 3 + [7, 1] * 3
        assert model._passage_cache.entries.keys() == cached.keys()
        assert all(model._passage_cache.entries[k] is v for k, v in cached.items())

        with Tape() as tape:
            result = model.forward([example])
            loss = span_nll(result.p_begin, result.p_end,
                            example.answer_begin, example.answer_end)
        grads = tape.gradients(loss)
        for name in ("lambda.p", "char.filters", "embed.proj", "highway.l0.wt",
                     "hos.word", "hos.char", "hos.embed"):
            g = grads.get(id(model.store.get(name)))
            assert g is not None and np.abs(g).max() > 0.0, name

    def test_least_recently_used_goes_first(self):
        model, examples = mini_model()
        base = examples[0]
        passages = {k: dataclasses.replace(base, passage=base.passage[k:]
                                           + base.passage[:k]) for k in (1, 2, 3)}
        sizer, _ = mini_model()
        sizer.predict(passages[1])
        ((selected, _), entry_bytes), = sizer._passage_cache.entries.values()
        assert entry_bytes == selected.nbytes == sizer._passage_cache.nbytes
        model._passage_cache.budget = 2 * entry_bytes

        def cached():
            ids = {model.word_vocab.ids(e.passage).tobytes(): k
                   for k, e in passages.items()}
            return [ids[key[0]] for key in model._passage_cache.entries]

        for k in (1, 2, 3):
            model.predict(passages[k])
        assert cached() == [2, 3]
        assert model._passage_cache.nbytes == 2 * entry_bytes
        for k in (1, 2, 1, 3):
            model.predict(passages[k])
        assert cached() == [1, 3]

    def test_invalidate_empties_both_caches(self):
        """Loading a state rebinds every array, frozen ones included, so
        each cache misses and empties at its next lookup."""
        model, examples = mini_model()
        for example in examples:
            model.predict(example)
        caches = (model._provider_cache, model._passage_cache)
        assert caches[0].entries and len(caches[1].entries) == 4
        model.store.load_state_dict(model.store.state_dict())
        for cache in caches:
            assert cache.get(next(iter(cache.entries))) is None
            assert not cache.entries and cache.nbytes == 0


class TestRebindOnly:
    """The passage cache detects a changed parameter by the identity of its
    array, so every owner must rebind ``data`` rather than write into it."""

    @staticmethod
    def snapshot(store):
        return {name: (t.data, t.data.copy()) for name, t in store.items()}

    @staticmethod
    def assert_rebound(store, before):
        changed = 0
        for name, tensor in store.items():
            old, values = before[name]
            np.testing.assert_array_equal(old, values, name)   # untouched
            if not np.array_equal(tensor.data, values):
                assert tensor.data is not old, name
                changed += 1
        return changed

    def test_adam_step_rebinds(self):
        model, examples = mini_model()
        before = self.snapshot(model.store)
        train_step(model, examples[:2], Adam(model.store, 1e-2),
                   np.random.default_rng(0))
        assert self.assert_rebound(model.store, before) > 50

    def test_load_state_dict_rebinds(self):
        model, _ = mini_model()
        before = self.snapshot(model.store)
        model.store.load_state_dict(
            {name: array + 1.0 for name, array in model.store.state_dict().items()})
        assert self.assert_rebound(model.store, before) == len(before)

    def test_load_state_dict_copies(self):
        """Editing the loaded dict in place afterwards reaches neither the
        parameters nor a cached passage."""
        model, examples = mini_model()
        state = {name: array + 1.0 for name, array in model.store.state_dict().items()}
        model.store.load_state_dict(state)
        loaded = model.predict(examples[0])
        expected = {name: array.copy() for name, array in state.items()}
        for array in state.values():
            array += 1.0
        assert_same_prediction(model.predict(examples[0]), loaded)
        for name, tensor in model.store.items():
            np.testing.assert_array_equal(tensor.data, expected[name], name)

    def test_state_dict_is_read_only(self):
        """Writing into a state_dict array raises instead of changing the
        model behind the passage cache; a round trip through
        ``load_state_dict`` still reproduces the model."""
        model, examples = mini_model()
        before = model.predict(examples[0])
        state = model.store.state_dict()
        with pytest.raises(ValueError):
            state["hos.word"][...] += 1.0
        assert_same_prediction(model.predict(examples[0]), before)
        fresh = Model(mini_profile(), model.word_vocab, model.char_vocab, seed=1)
        fresh.store.load_state_dict(state)
        assert_same_prediction(fresh.predict(examples[0]), before)

    def test_replaced_array_is_not_pinned(self):
        model, examples = mini_model()
        model.predict(examples[0])
        tensor = model.store.get("embed.proj")
        old = weakref.ref(tensor.data)
        tensor.data = tensor.data + 1.0
        gc.collect()
        assert old() is None
        changed = model.predict(examples[0])
        cold, _ = mini_model()
        cold.store.get("embed.proj").data = tensor.data
        assert_same_prediction(changed, cold.predict(examples[0]))


def test_frozen_provider_stays_off_the_training_tape():
    """A cache miss in training mode records nothing that reads a frozen
    parameter; each side's mix is one record over theta alone, so the
    sweep forms no gradient for the pooled [L, n*w] provider layers."""
    model, examples = mini_model()
    assert not model._provider_cache.entries
    frozen = {id(t) for _, t in model.store.items()}
    frozen -= {id(t) for _, t in model.store.trainable()}
    pack = examples[:1]
    with Tape() as tape:
        result = model.forward(pack, training=True, rng=np.random.default_rng(0))
        loss = batch_loss(span_nll(result.p_begin, result.p_end,
                                   [e.answer_begin for e in pack],
                                   [e.answer_end for e in pack], result.p_lengths))
    assert model._provider_cache.entries
    leaks = [name for name, _, parents, _ in tape._records
             if any(id(p) in frozen for p in parents)]
    assert not leaks, leaks[:5]
    theta = model.store.get("theta")
    mixes = [parents for name, _, parents, _ in tape._records if name == "contextual_mix"]
    assert len(mixes) == 2 and all(parents == (theta,) for parents in mixes)
    config = model.config
    pooled = {(config.provider_layers, len(rows) * config.provider_width)
              for e in pack for rows in (e.passage, e.question)}
    shapes = [g.shape for g in tape.gradients(loss).values()]
    assert not pooled & set(shapes), shapes


def test_question_tokens_leave_tag_zero_rows_untrained():
    """Questions carry no POS/NER/rule tags, so a backward on a pack whose
    passages never use tag 0 leaves row 0 of each tag table without
    gradient, while the rows the passages use get one."""
    model, examples = mini_model()
    untagged = [dataclasses.replace(e, pos=[1] * len(e.passage), ner=[2] * len(e.passage),
                                    rule=[1] * len(e.passage)) for e in examples]
    with Tape() as tape:
        result = model.forward(untagged, training=True, rng=np.random.default_rng(0))
        loss = batch_loss(span_nll(result.p_begin, result.p_end,
                                   [e.answer_begin for e in untagged],
                                   [e.answer_end for e in untagged], result.p_lengths))
    grads = tape.gradients(loss)
    for table, used in (("feat.pos", 1), ("feat.ner", 2), ("feat.rule", 1)):
        grad = grads[id(model.store.get(table))]
        assert np.abs(grad[used]).max() > 0.0, table
        np.testing.assert_array_equal(grad[0], 0.0, table)


# Every record name a model tape may hold: the tape ops of tensor.py and
# the fused records of the layers.
TAPE_OPS = {"add_const", "matmul", "reshape", "concat", "segment_softmax"}
FUSED_RECORDS = {"char_cnn", "features", "highway", "lstm", "contextual_mix",
                 "capsule", "self_attention", "feed_forward", "assemble_hos",
                 "select_top3", "bidirectional_attention", "span_nll", "batch_loss"}


def package_record_names():
    """The names that the package's ``record_op`` calls record under: each
    literal first argument and, for ``residual_sublayer``'s call, which
    records under the ``name`` it is given, the record names of
    ``encoder._branch``'s table, each the first entry of a row."""
    names = set()
    for path in (pathlib.Path(__file__).resolve().parents[1] / "src" / "abanet").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "record_op"):
                first = node.args[0]
                if isinstance(first, ast.Constant):
                    names.add(first.value)
                else:
                    assert first.id == "name", ast.dump(first)
            if isinstance(node, ast.FunctionDef) and node.name == "_branch":
                names |= {row.elts[0].value for table in ast.walk(node)
                          if isinstance(table, ast.Dict) for row in table.values}
    return names


def test_train_step_tape_holds_only_the_package_vocabulary(monkeypatch):
    """A packed mini train step records only tape ops and fused records,
    and each side's embedding tier is two highway records, one char CNN
    record and, on the passage side only, one feature record, so no op
    chain creeps back in."""
    assert package_record_names() == TAPE_OPS | FUSED_RECORDS
    model, examples = mini_model()
    tapes = []
    backward = model_module.backward

    def captured(tape, *args, **kwargs):
        tapes.append(tape)
        return backward(tape, *args, **kwargs)

    monkeypatch.setattr(model_module, "backward", captured)
    train_step(model, examples, Adam(model.store, 1e-3), np.random.default_rng(0))
    records = tapes[0]._records
    assert {name for name, _, _, _ in records} <= TAPE_OPS | FUSED_RECORDS
    p_rows = sum(len(e.passage) for e in examples)
    q_rows = sum(len(e.question) for e in examples)
    assert p_rows != q_rows
    tier = Counter((name, out.shape[0]) for name, out, _, _ in records
                   if name in ("char_cnn", "features", "highway"))
    want = Counter({(name, n): count for n in (p_rows, q_rows)
                    for name, count in (("highway", 2), ("char_cnn", 1))})
    want[("features", p_rows)] = 1
    assert tier == want


# The record census of a packed mini train step on ten copy-locate examples
# with no skipped sublayer: a later fold, or an op chain creeping back,
# shows up here as one changed count.
MINI_STEP_CENSUS = {
    "add_const": 5, "assemble_hos": 2, "batch_loss": 1, "bidirectional_attention": 1,
    "capsule": 5, "char_cnn": 2, "concat": 8, "contextual_mix": 2, "features": 1,
    "feed_forward": 5, "highway": 4, "lstm": 4, "matmul": 7, "reshape": 6,
    "segment_softmax": 4, "select_top3": 2, "self_attention": 5, "span_nll": 1,
}


def test_mini_train_step_record_census(monkeypatch):
    config = dataclasses.replace(mini_profile(), survival_end=1.0)
    examples = gen_synthetic("copy-locate", 10, 0)
    model = Model(config, *build_vocabs(examples), seed=0)
    censuses = []
    backward = model_module.backward

    def counted(tape, *args, **kwargs):
        censuses.append(Counter(name for name, _, _, _ in tape._records))
        return backward(tape, *args, **kwargs)

    monkeypatch.setattr(model_module, "backward", counted)
    train_step(model, examples, Adam(model.store, 1e-3), np.random.default_rng(0))
    assert censuses == [Counter(MINI_STEP_CENSUS)]
    assert sum(MINI_STEP_CENSUS.values()) == 65


def test_train_step_computes_no_gradient_for_a_constant(monkeypatch):
    """The leaves of a packed mini train step's sweep that are not
    parameters (each side's dropped-out word lookup and the questions'
    zero feature block) get only views of a gradient they reach through
    a ``concat``: no array is computed for them."""
    model, examples = mini_model()
    sweeps = []
    gradients = Tape.gradients

    def swept(tape, loss):
        grads = gradients(tape, loss)
        sweeps.append(grads)
        return grads

    monkeypatch.setattr(Tape, "gradients", swept)
    train_step(model, examples, Adam(model.store, 1e-3), np.random.default_rng(0))
    params = {id(t) for _, t in model.store.items()}
    leaves = [g for key, g in sweeps[0].items() if key not in params]
    assert len(sweeps) == 1 and len(leaves) == 3
    assert all(g.base is not None for g in leaves)


@pytest.mark.parametrize("selected", [(0, 1, 2), (3, 4, 5)])
def test_full_model_gradient_matches_finite_differences(selected):
    """Eval-mode span loss on one copy-locate example at the mini profile:
    three seeded elements of every trainable parameter.

    Only the three selected HOS levels reach the loss, so alpha is set to
    select either the initial levels (word, char, embed) or the other
    three (contextual, block, bilstm), whose paths cover the encoder
    stack and the BiLSTM.
    """
    model, examples = mini_model()
    example = examples[0]
    alpha = model.store.get("alpha")
    alpha.data = np.where(np.isin(np.arange(alpha.size), selected), 0.5, 0.0)

    def loss():
        result = model.forward([example], training=False)
        return batch_loss(span_nll(result.p_begin, result.p_end,
                                   example.answer_begin, example.answer_end))

    assert model.forward([example]).selected_levels == selected
    with Tape() as tape:
        value = loss()
    grads = tape.gradients(value)
    rng = np.random.default_rng(0)
    step = 1e-6
    worst = {}
    for name, tensor in model.store.trainable():
        base = tensor.data
        picks = rng.choice(base.size, size=min(3, base.size), replace=False)
        analytic = grads.get(id(tensor), np.zeros_like(base)).ravel()[picks]
        numeric = np.empty(len(picks))
        for k, idx in enumerate(picks):
            values = []
            for sign in (1.0, -1.0):
                probe = base.copy()
                probe.ravel()[idx] += sign * step
                tensor.data = probe
                values.append(float(loss().data))
            tensor.data = base
            numeric[k] = (values[0] - values[1]) / (2.0 * step)
        worst[name] = float(relative_error(analytic, numeric, 1e-3).max())
    assert len(worst) > 50
    assert max(worst.values()) < 1e-5, max(worst.items(), key=lambda kv: kv[1])


def test_adam_two_steps_with_warmup_match_hand_computation():
    store = ParamStore()
    p = store.register("p", Tensor(np.array([1.0, -2.0])))
    frozen = store.register("frozen", Tensor(np.array([3.0])), trainable=False)
    idle = store.register("idle", Tensor(np.array([4.0])))
    adam = Adam(store, learning_rate=0.1, warmup_steps=2)
    assert adam._m == {} and adam._v == {}

    g1 = np.array([0.5, -1.0])
    p.grad = g1
    frozen.grad = np.array([1.0])
    adam.step()
    # Step 1: rate 0.1 * 1/2; bias-corrected moments are g1 and g1**2.
    p1 = np.array([1.0, -2.0]) - 0.05 * g1 / (np.abs(g1) + 1e-8)
    np.testing.assert_allclose(p.data, p1, rtol=1e-12)
    assert p.grad is None and frozen.grad is None
    assert frozen.data[0] == 3.0 and idle.data[0] == 4.0
    # Moments exist for the parameter that had a gradient, and only for it.
    assert set(adam._m) == set(adam._v) == {"p"}

    p.grad = np.array([0.25, 0.5])
    adam.step()
    # Step 2: full rate 0.1; m2 = 0.9 m1 + 0.1 g2, v2 = 0.999 v1 + 0.001 g2**2,
    # bias corrections 1 - 0.9**2 = 0.19 and 1 - 0.999**2 = 0.001999.
    m2 = np.array([0.07, -0.04])
    v2 = np.array([0.00031225, 0.001249])
    p2 = p1 - 0.1 * (m2 / 0.19) / (np.sqrt(v2 / 0.001999) + 1e-8)
    np.testing.assert_allclose(p.data, p2, rtol=1e-12)
    assert adam.step_count == 2


class ArrayRebindingAdam(Adam):
    """The update before in-place moments: new m, v, bias-corrected and
    update arrays for every parameter on every step.  Moments start from
    zero at a parameter's first gradient, as in ``Adam``."""

    def step(self) -> None:
        self.step_count += 1
        rate = self.learning_rate
        if self.warmup_steps > 0:
            rate *= min(1.0, self.step_count / self.warmup_steps)
        for name, tensor in self.store.trainable():
            grad = tensor.grad
            if grad is None:
                continue
            if name not in self._m:
                self._m[name] = self._v[name] = np.zeros_like(tensor.data)
            m = self._m[name] = (self.beta1 * self._m[name]
                                 + (1.0 - self.beta1) * grad)
            v = self._v[name] = (self.beta2 * self._v[name]
                                 + (1.0 - self.beta2) * grad * grad)
            m_hat = m / (1.0 - self.beta1 ** self.step_count)
            v_hat = v / (1.0 - self.beta2 ** self.step_count)
            tensor.data = tensor.data - rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
        self.store.zero_grads()


def test_adam_matches_array_rebinding_update_over_five_steps():
    """Five mini train steps with warmup.  Each step's gradients drive both
    the in-place update, on a copy of the trainable parameters, and the
    array-rebinding update, on the model; after every step each parameter
    agrees to 1e-15 relative to its largest entry.  Left to follow their
    own trajectories the two drift further (2.6e-15 by the fifth step),
    because a one-ulp difference in a parameter changes the next gradients."""
    model, examples = mini_model()
    trainable = dict(model.store.trainable())
    initial = {name: tensor.data for name, tensor in trainable.items()}
    copy = ParamStore()
    for name, tensor in trainable.items():
        copy.register(name, Tensor(tensor.data.copy()))
    in_place = Adam(copy, 1e-2, warmup_steps=3)

    class Paired(ArrayRebindingAdam):
        def step(self):
            for name, tensor in trainable.items():
                copy.get(name).grad = tensor.grad
            in_place.step()
            super().step()

    optimizer = Paired(model.store, 1e-2, warmup_steps=3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        train_step(model, examples, optimizer, rng)
        for name, tensor in trainable.items():
            got, want = copy.get(name).data, tensor.data
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), name
    assert in_place.step_count == 5
    assert sum(not np.array_equal(tensor.data, initial[name])
               for name, tensor in trainable.items()) > 50


class ZeroStartAdam(Adam):
    """The optimizer before lazy moments: zero moments for every trainable
    parameter from construction on."""

    def __init__(self, store, *args, **kwargs):
        super().__init__(store, *args, **kwargs)
        for name, tensor in store.trainable():
            self._m[name] = np.zeros_like(tensor.data)
            self._v[name] = np.zeros_like(tensor.data)


def test_adam_late_first_gradient_matches_zero_start_bit_for_bit():
    """A parameter whose first gradient arrives at step 3 gets the bits of
    moments held at zero since construction, warmup and bias corrections
    included; a parameter that never gets a gradient never gets moments."""
    rng = np.random.default_rng(0)
    init = {name: rng.standard_normal(shape) for name, shape in
            (("early", (3, 4)), ("late", (5,)), ("never", (2,)))}
    optimizers = []
    for kind in (Adam, ZeroStartAdam):
        store = ParamStore()
        for name, data in init.items():
            store.register(name, Tensor(data.copy()))
        optimizers.append(kind(store, 1e-2, warmup_steps=2))
    lazy, reference = optimizers
    for step in range(1, 7):
        grads = {"early": rng.standard_normal((3, 4))}
        if step >= 3:
            grads["late"] = rng.standard_normal(5)
        for optimizer in optimizers:
            for name, grad in grads.items():
                optimizer.store.get(name).grad = grad.copy()
            optimizer.step()
        assert set(lazy._m) == set(lazy._v) == set(grads)
        for name in init:
            assert (lazy.store.get(name).data.tobytes()
                    == reference.store.get(name).data.tobytes()), (step, name)
    for name in ("early", "late"):
        assert lazy._m[name].tobytes() == reference._m[name].tobytes()
        assert lazy._v[name].tobytes() == reference._v[name].tobytes()
    assert lazy.store.get("never").data.tobytes() == init["never"].tobytes()


def test_adam_set_up_allocates_no_moments():
    """Building an optimizer for a ``paper`` model allocates under 1 MB
    (the zero-start moments took about 26 MB), and one training step
    creates moments of twice the bytes of the parameters it updated."""
    examples = gen_synthetic("copy-locate", 4, 0)
    model = Model(PROFILES["paper"](), *build_vocabs(examples), seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        optimizer = Adam(model.store, 1e-3)
        set_up_mb = (tracemalloc.get_traced_memory()[0] - base) / 1e6
    finally:
        tracemalloc.stop()
    assert set_up_mb < 1.0, set_up_mb
    before = {name: tensor.data for name, tensor in model.store.trainable()}
    train_step(model, examples[:2], optimizer, np.random.default_rng(0))
    # Adam rebinds exactly the parameters that had a gradient.
    updated = {name: tensor.data for name, tensor in model.store.trainable()
               if tensor.data is not before[name]}
    assert len(updated) > 50 and set(optimizer._m) == set(optimizer._v) == set(updated)
    moment_bytes = sum(m.nbytes for m in [*optimizer._m.values(), *optimizer._v.values()])
    assert moment_bytes == 2 * sum(data.nbytes for data in updated.values())


def keep_all_gradients(tape, loss):
    """The sweep before gradient freeing: every gradient stays in the map."""
    grads = {id(loss): np.ones_like(loss.data)}
    for _, out, parents, backward in reversed(tape._records):
        g = grads.get(id(out))
        if g is None:
            continue
        for parent, pg in zip(parents, backward(g)):
            if pg is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return grads


def test_freeing_sweep_keeps_leaf_gradients():
    """One mini training batch: the freeing sweep returns exactly the leaf
    gradients of a keep-everything sweep, and nothing else, twice."""
    model, examples = mini_model()
    rng = np.random.default_rng(0)
    batch = examples[:2]
    with Tape() as tape:
        result = model.forward(batch, training=True, rng=rng)
        nlls = span_nll(result.p_begin, result.p_end,
                        [e.answer_begin for e in batch],
                        [e.answer_end for e in batch], result.p_lengths)
        loss = batch_loss(nlls, model.store, model.config.l2_decay)
    recorded = {id(out) for _, out, _, _ in tape._records}
    reference = keep_all_gradients(tape, loss)
    leaves = {key: g for key, g in reference.items() if key not in recorded}
    trainable = [id(t) for _, t in model.store.trainable()]
    assert len(trainable) > 50
    assert set(trainable) <= set(leaves)
    for sweep in range(2):
        grads = tape.gradients(loss)
        assert not recorded & set(grads), sweep
        assert set(grads) == set(leaves), sweep
        for key, g in leaves.items():
            np.testing.assert_array_equal(grads[key], g)


def test_update_reads_the_sweep_gradients_after_the_tape_is_freed(monkeypatch):
    """In a mini training step the tape is freed before ``Adam.step``, each
    trainable gradient slot holds the very array the sweep returned, and
    the update leaves the bytes of every one of them unchanged."""
    model, examples = mini_model()
    held, tapes = {}, []
    sweep = model_module.backward

    def checked_backward(tape, loss, params):
        grads = sweep(tape, loss, params)
        tapes.append(weakref.ref(tape))
        for name, tensor in params.trainable():
            assert tensor.grad is grads.get(id(tensor)), name
            if tensor.grad is not None:
                held[name] = (tensor.grad, tensor.grad.tobytes())
        return grads

    class FreedTapeAdam(Adam):
        def step(self):
            assert tapes and tapes[0]() is None
            super().step()

    monkeypatch.setattr(model_module, "backward", checked_backward)
    train_step(model, examples[:2], FreedTapeAdam(model.store, 1e-2),
               np.random.default_rng(0))
    assert len(held) > 50
    for name, (grad, before) in held.items():
        assert grad.tobytes() == before, name


def test_non_finite_loss_raises_before_any_update():
    """A NaN span weight makes the step raise NumericsError naming the
    first non-finite record, the begin logits' matmul, and leaves the step
    count, every parameter, every grad slot and Adam's (absent) moments as
    they were."""
    model, examples = mini_model()
    pack = examples[:2]
    model.store.get("span.w1").data = np.full((2 * model.config.d, 1), np.nan)
    arrays = {name: tensor.data for name, tensor in model.store.items()}
    optimizer = Adam(model.store, 1e-3)
    rows = sum(len(e.passage) for e in pack)
    with pytest.raises(NumericsError, match=(
            r"non-finite loss at optimizer step 1; "
            rf"first non-finite tensor: matmul\[{rows}, 1\]$")):
        train_step(model, pack, optimizer, np.random.default_rng(0))
    assert optimizer.step_count == 0
    assert not optimizer._m and not optimizer._v
    for name, tensor in model.store.items():
        assert tensor.data is arrays[name], name
        assert tensor.grad is None, name


class TestTrainStepGarbageCollection:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("fails", [False, True])
    def test_state_restored(self, enabled, fails):
        """A step leaves the collector as it found it, also after a
        NumericsError, and when collection started disabled."""
        model, examples = mini_model()
        if fails:
            model.store.get("span.w1").data = np.full((2 * model.config.d, 1), np.nan)
        optimizer = Adam(model.store, 1e-3)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            if fails:
                with pytest.raises(NumericsError, match="non-finite loss"):
                    train_step(model, examples[:2], optimizer,
                               np.random.default_rng(0))
            else:
                train_step(model, examples[:2], optimizer, np.random.default_rng(0))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_step_leaves_no_cyclic_garbage(self):
        """A step, run with automatic collection on, leaves no reference
        cycle for a later collection to free."""
        model, examples = mini_model()
        optimizer = Adam(model.store, 1e-3)
        rng = np.random.default_rng(0)
        train_step(model, examples[:2], optimizer, rng)   # first-call caches
        gc.collect()
        train_step(model, examples[2:], optimizer, rng)
        assert gc.collect() == 0


class TestDeterminism:
    def test_training_is_bit_identical(self):
        runs = []
        for _ in range(2):
            model, examples = mini_model(seed=3)
            optimizer = Adam(model.store, 1e-3)
            rng = np.random.default_rng(3)
            losses = [train_step(model, examples[:2], optimizer, rng),
                      train_step(model, examples[2:], optimizer, rng)]
            runs.append((losses, model.store.state_dict()))
        (losses_a, state_a), (losses_b, state_b) = runs
        assert losses_a == losses_b
        assert state_a.keys() == state_b.keys()
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name], name)

    def test_predict_is_bit_identical(self):
        model, examples = mini_model(seed=3)
        first, second = (model.predict(examples[0]) for _ in range(2))
        np.testing.assert_array_equal(first.p_begin, second.p_begin)
        np.testing.assert_array_equal(first.p_end, second.p_end)


def test_fit_learns_marker_span():
    """Twelve epochs at the mini profile: the loss falls and EM rises."""
    examples = gen_synthetic("marker-span", 20, 0)
    model = Model(mini_profile(), *build_vocabs(examples), seed=0)
    history = fit(model, examples, epochs=12, seed=0)
    assert [entry["epoch"] for entry in history] == list(range(1, 13))
    first, last = history[0], history[-1]
    assert first["em"] == 0.0
    assert last["loss"] < 0.8 * first["loss"], (first, last)
    assert last["em"] >= 0.3, last


def chain_l2_penalty(store, decay):
    """The per-parameter mul/sum/add chain that the L2 term of the one
    ``batch_loss`` record replaced."""
    total = None
    for _, tensor in store.trainable():
        term = reduce_sum(mul(tensor, tensor))
        total = term if total is None else add(total, term)
    return mul_const(total, decay)


def test_l2_penalty_is_one_record_matching_the_chain():
    """The L2 term of batch_loss, over zero example losses: its value and
    every trainable gradient match the per-parameter chain; frozen provider
    weights stay out; no decay means no term."""
    model, _ = mini_model()
    store = model.store
    nlls = Tensor(np.zeros(1))
    with Tape() as tape:
        value = batch_loss(nlls, store, 3e-4)
    grads, records = tape.gradients(value), len(tape)
    with Tape() as tape:
        ref_value = chain_l2_penalty(store, 3e-4)
    ref_grads = tape.gradients(ref_value)
    assert records == 1
    np.testing.assert_allclose(value.data, ref_value.data, rtol=1e-12)
    trainable = {id(t) for _, t in store.trainable()}
    assert set(grads) == trainable | {id(nlls)}
    for key in trainable:
        np.testing.assert_allclose(grads[key], ref_grads[key], rtol=1e-12, atol=0.0)
    with Tape() as tape:
        batch_loss(nlls, store, 0.0)
    ((_, _, parents, _),) = tape._records
    assert parents == (nlls,)


def chain_batch_loss(nlls, store=None, decay=0.0):
    """The sum/scale/add chain that the one batch_loss record replaced."""
    loss = mul_const(reduce_sum(nlls), 1.0 / nlls.shape[0])
    if store is None or decay <= 0.0:
        return loss
    return add(loss, chain_l2_penalty(store, decay))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("with_store,decay", [(False, 0.0), (True, 0.0), (True, 3e-4)])
def test_batch_loss_is_one_record_equal_to_the_chain(dtype, with_store, decay):
    """One record whose parents are the losses and, with a positive decay,
    every trainable weight.  The value and the gradients of the losses and
    of every weight equal the chain's bit for bit, with and without a
    penalty, and the frozen provider weights get no gradient."""
    config = dataclasses.replace(mini_profile(), dtype=dtype)
    examples = gen_synthetic("copy-locate", 4, 0)
    store = Model(config, *build_vocabs(examples)).store if with_store else None
    nlls = Tensor(np.random.default_rng(3).random(5).astype(dtype))
    results = []
    for loss_of in (batch_loss, chain_batch_loss):
        with Tape() as tape:
            loss = loss_of(nlls, store, decay)
        results.append((loss.data, tape.gradients(loss), tape._records))
    (value, grads, records), (ref_value, ref_grads, _) = results
    ((name, _, parents, _),) = records
    assert name == "batch_loss"
    weights = [] if decay <= 0.0 else [t for _, t in store.trainable()]
    assert parents == (nlls, *weights)
    assert value.dtype == ref_value.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(value, ref_value)
    assert grads.keys() == ref_grads.keys() == {id(nlls)} | {id(w) for w in weights}
    for key, ref_grad in ref_grads.items():
        np.testing.assert_array_equal(grads[key], ref_grad)


class TestForwardChecksPassageLengths:
    """A forward names the example whose per-token entries do not match
    its passage, in a pack whose totals still add up and on its own, and
    the malformed example in the middle of a pack, with the field."""

    @staticmethod
    def entries(example, name):
        values = getattr(example, name)
        return [1] * len(example.passage) if values is None else values

    @pytest.mark.parametrize("name", ["pos", "ner", "rule", "subtokens"])
    def test_entry_shifted_to_the_next_example(self, name):
        model, examples = mini_model()
        first, second = examples[:2]
        head, tail = self.entries(first, name), self.entries(second, name)
        pack = [dataclasses.replace(first, **{name: head[:-1]}),
                dataclasses.replace(second, **{name: head[-1:] + tail})]
        with pytest.raises(DataError, match=f"{first.id}.*{name} has"):
            model.forward(pack)

    @pytest.mark.parametrize("name", ["pos", "ner", "rule", "subtokens"])
    def test_lone_example(self, name):
        model, examples = mini_model()
        example = examples[0]
        short = dataclasses.replace(example, **{name: self.entries(example, name)[1:]})
        with pytest.raises(DataError, match=f"{example.id}.*{name} has"):
            model.forward([short], training=True, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("name,bad", [
        ("passage", lambda e, cfg: dict(passage=[], pos=[], ner=[], rule=[])),
        ("question", lambda e, cfg: dict(question=[])),
        ("pos", lambda e, cfg: dict(pos=e.pos[:-1] + [cfg.pos_vocab])),
        ("ner", lambda e, cfg: dict(ner=[-1] + e.ner[1:])),
        ("rule", lambda e, cfg: dict(rule=e.rule[:-1] + [cfg.rule_vocab])),
        ("subtokens", lambda e, cfg: dict(subtokens=[1] * (len(e.passage) - 1) + [0])),
    ])
    @pytest.mark.parametrize("training", [False, True])
    def test_malformed_example_in_the_middle_is_named(self, name, bad, training):
        model, examples = mini_model()
        first, middle, last = examples[:3]
        pack = [first, dataclasses.replace(middle, **bad(middle, model.config)), last]
        with pytest.raises(DataError, match=f"'{middle.id}': .*{name}"):
            model.forward(pack, training=training, rng=np.random.default_rng(0))


class TestWithoutAdaptiveScale:
    def test_identity_lambda_predicts_bit_identically(self):
        """Mixing by an identity matrix is exact, so switching it off changes
        no output bit at the mini profile."""
        examples = gen_synthetic("copy-locate", 4, 0)
        vocabs = build_vocabs(examples)
        predictions = []
        for flag in (True, False):
            config = dataclasses.replace(mini_profile(), use_adaptive_scale=flag)
            model = Model(config, *vocabs, seed=0)
            for name in ("lambda.p", "lambda.q"):
                np.testing.assert_array_equal(model.store.get(name).data, np.eye(6))
            predictions.append(model.predict(examples[0]))
        on, off = predictions
        np.testing.assert_array_equal(on.p_begin, off.p_begin)
        np.testing.assert_array_equal(on.p_end, off.p_end)

    @pytest.mark.parametrize("flag", [True, False])
    def test_lambda_gets_a_gradient_only_when_mixing(self, flag):
        examples = gen_synthetic("copy-locate", 4, 0)
        config = dataclasses.replace(mini_profile(), use_adaptive_scale=flag,
                                     l2_decay=0.0)
        model = Model(config, *build_vocabs(examples), seed=0)
        optimizer = Adam(model.store, 1e-3)
        graded = {}
        optimizer.step = lambda: graded.update(
            (name, t.grad is not None) for name, t in model.store.trainable())
        train_step(model, examples[:2], optimizer, np.random.default_rng(0))
        assert graded["lambda.p"] is graded["lambda.q"] is flag
        assert graded["alpha"]

    def test_unselected_branches_get_no_gradient(self):
        """With mixing off, the levels outside the top 3 (contextual, block,
        bilstm) get all-zero rows, and the sweep skips their branches."""
        examples = gen_synthetic("copy-locate", 4, 0)
        config = dataclasses.replace(mini_profile(), use_adaptive_scale=False,
                                     l2_decay=0.0)
        model = Model(config, *build_vocabs(examples), seed=0)
        assert model.forward(examples[:1]).selected_levels == (0, 1, 2)
        optimizer = Adam(model.store, 1e-3)
        graded = {}
        optimizer.step = lambda: graded.update(
            (name, t.grad is not None) for name, t in model.store.trainable())
        train_step(model, examples[:2], optimizer, np.random.default_rng(0))
        skipped = [name for name in graded if name == "theta"
                   or name.startswith(("embenc.", "bilstm."))
                   or name in ("hos.contextual", "hos.block", "hos.bilstm")]
        assert len(skipped) > 20
        assert not any(graded[name] for name in skipped)
        assert all(graded[name] for name in graded if name not in skipped
                   and not name.startswith("lambda."))
