"""Span head (masked distributions, gold-span likelihood, decoding) and
float32 purity of a whole model step."""

import numpy as np
import pytest

from abanet.config import mini_profile
from abanet.data import build_vocabs, gen_synthetic
from abanet.errors import DataError
from abanet.model import Model, decode_span, span_logits, span_nll
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
