"""Span head (masked distributions, gold-span likelihood, decoding),
float32 purity of a whole model step, the provider cache, full-model
gradients, the Adam update, the freeing backward sweep, the training
step's garbage-collection state, determinism and learning."""

import gc

import numpy as np
import pytest

from abanet import model as model_module
from abanet.config import mini_profile
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
from abanet.params import ParamStore, relative_error
from abanet.tensor import Tape, Tensor, set_default_dtype


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

    def test_masked_positions_get_zero(self):
        b1, b2, b3, w1, w2 = span_inputs(np.random.default_rng(3), 6)
        mask = np.array([True, True, False, True, False, True])
        for p in span_logits(b1, b2, b3, w1, w2, mask):
            np.testing.assert_array_equal(p.data[~mask], 0.0)
            np.testing.assert_allclose(p.data[mask].sum(), 1.0, atol=1e-12)


class TestSpanNll:
    def test_value(self):
        p_begin = Tensor(np.array([0.1, 0.6, 0.3]))
        p_end = Tensor(np.array([0.2, 0.3, 0.5]))
        nll = span_nll(p_begin, p_end, 1, 2)
        np.testing.assert_allclose(nll.data, -np.log(0.6) - np.log(0.5), rtol=1e-14)

    @pytest.mark.parametrize("gold", [(-1, 0), (0, 3), (3, 3)])
    def test_out_of_range_gold_rejected(self, gold):
        p = Tensor(np.full(3, 1.0 / 3.0))
        with pytest.raises(DataError, match="outside"):
            span_nll(p, p, *gold)

    @pytest.mark.parametrize("gold", [(1, 2), (0, 1)])
    def test_masked_gold_rejected(self, gold):
        p = Tensor(np.array([0.5, 0.0, 0.5]))
        mask = np.array([True, False, True])
        with pytest.raises(DataError, match="masked"):
            span_nll(p, p, *gold, mask=mask)


def test_float32_model_forward_and_backward_stay_float32():
    set_default_dtype(np.float32)
    try:
        examples = gen_synthetic("copy-locate", 4, 0)
        model = Model(mini_profile(), *build_vocabs(examples), seed=0)
        example = examples[0]
        with Tape() as tape:
            result = model.forward(example, training=True,
                                   rng=np.random.default_rng(0))
            loss = span_nll(result.p_begin, result.p_end,
                            example.answer_begin, example.answer_end)
        upcast = [(i, name) for i, (name, out, _, _) in enumerate(tape._records)
                  if out.data.dtype != np.float32]
        assert not upcast, upcast[:5]
        grads = tape.gradients(loss)
        assert all(g.dtype == np.float32 for g in grads.values())
    finally:
        set_default_dtype(np.float64)


def mini_model(seed=0):
    examples = gen_synthetic("copy-locate", 4, seed)
    return Model(mini_profile(), *build_vocabs(examples), seed=seed), examples


class TestProviderCache:
    """Least-recently-used eviction under a byte budget of two entries."""

    def setup_method(self):
        self.model, _ = mini_model()
        self.keys = [np.array([2, 3, k]) for k in (4, 5, 6)]
        entry = self.model._provider_run(self.keys[0])
        self.model.invalidate_caches()
        self.budget = 2 * sum(layer.nbytes for layer in entry)

    def cached(self):
        return [np.frombuffer(k, dtype=np.int64)[-1]
                for k in self.model._provider_cache]

    def test_oldest_entry_is_evicted_first(self, monkeypatch):
        monkeypatch.setattr(model_module, "PROVIDER_CACHE_BYTES", self.budget)
        for key in self.keys:
            self.model._provider_run(key)
        assert self.cached() == [5, 6]
        assert self.model._provider_cache_bytes == self.budget

    def test_hit_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr(model_module, "PROVIDER_CACHE_BYTES", self.budget)
        a, b, c = self.keys
        first = self.model._provider_run(a)
        self.model._provider_run(b)
        assert self.model._provider_run(a) is first
        self.model._provider_run(c)
        assert self.cached() == [4, 6]

    def test_invalidate_empties(self):
        for key in self.keys:
            self.model._provider_run(key)
        assert len(self.model._provider_cache) == 3
        self.model.invalidate_caches()
        assert not self.model._provider_cache
        assert self.model._provider_cache_bytes == 0


def test_frozen_provider_stays_off_the_training_tape():
    """A cache miss in training mode records nothing that reads a frozen
    parameter; the provider's layers enter the tape as constants."""
    model, examples = mini_model()
    assert not model._provider_cache
    frozen = {id(t) for _, t in model.store.items()}
    frozen -= {id(t) for _, t in model.store.trainable()}
    with Tape() as tape:
        model.forward(examples[0], training=True, rng=np.random.default_rng(0))
    assert model._provider_cache
    leaks = [name for name, _, parents, _ in tape._records
             if any(id(p) in frozen for p in parents)]
    assert not leaks, leaks[:5]


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
        result = model.forward(example, training=False)
        return span_nll(result.p_begin, result.p_end,
                        example.answer_begin, example.answer_end)

    assert model.forward(example).selected_levels == selected
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

    g1 = np.array([0.5, -1.0])
    p.grad = g1
    frozen.grad = np.array([1.0])
    adam.step()
    # Step 1: rate 0.1 * 1/2; bias-corrected moments are g1 and g1**2.
    p1 = np.array([1.0, -2.0]) - 0.05 * g1 / (np.abs(g1) + 1e-8)
    np.testing.assert_allclose(p.data, p1, rtol=1e-12)
    assert p.grad is None and frozen.grad is None
    assert frozen.data[0] == 3.0 and idle.data[0] == 4.0

    p.grad = np.array([0.25, 0.5])
    adam.step()
    # Step 2: full rate 0.1; m2 = 0.9 m1 + 0.1 g2, v2 = 0.999 v1 + 0.001 g2**2,
    # bias corrections 1 - 0.9**2 = 0.19 and 1 - 0.999**2 = 0.001999.
    m2 = np.array([0.07, -0.04])
    v2 = np.array([0.00031225, 0.001249])
    p2 = p1 - 0.1 * (m2 / 0.19) / (np.sqrt(v2 / 0.001999) + 1e-8)
    np.testing.assert_allclose(p.data, p2, rtol=1e-12)
    assert adam.step_count == 2


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
    with Tape() as tape:
        nlls = []
        for example in examples[:2]:
            result = model.forward(example, training=True, rng=rng)
            nlls.append(span_nll(result.p_begin, result.p_end,
                                 example.answer_begin, example.answer_end))
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


class TestTrainStepGarbageCollection:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("fails", [False, True])
    def test_state_restored(self, enabled, fails):
        """Also after a NumericsError, and when collection started disabled."""
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
