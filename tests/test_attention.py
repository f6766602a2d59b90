"""Multi-granularity attention: stacking, mixing, selection, cross-attention."""

import numpy as np
import pytest
from mpmath import mp, mpf

from abanet import attention
from abanet import model as model_module
from abanet.attention import (
    COMPONENT_NAMES,
    adaptive_scale,
    assemble_hos,
    bidirectional_attention,
    select_top3,
)
from abanet.config import mini_profile
from abanet.data import build_vocabs, gen_synthetic
from abanet.errors import ConfigError, ShapeError
from abanet.model import Adam, Model, train_step
from abanet.params import ParamStore
from abanet.tensor import (
    Tape,
    Tensor,
    add_const,
    concat,
    matmul,
    reshape,
)

from tape_reference import (
    add,
    chain_assemble_hos,
    dropout,
    fd_gradient,
    grad_check,
    mul,
    reduce_sum,
    slice_axis,
    softmax,
    stack,
    tape_grads,
    transpose,
)

PAPER_WIDTHS = {"word": 328, "char": 64, "embed": 128, "contextual": 128,
                "block": 128, "bilstm": 256}


def make_raw_and_projections(rng, n, d, widths=None):
    widths = widths or PAPER_WIDTHS
    raw = {name: Tensor(rng.normal(size=(n, widths[name])))
           for name in COMPONENT_NAMES}
    projections = {name: Tensor(rng.normal(size=(widths[name], d)) * 0.1)
                   for name in COMPONENT_NAMES}
    return raw, projections


def make_hos(rng, n, d):
    return Tensor(rng.normal(size=(len(COMPONENT_NAMES), n, d)))


def list_adaptive_scale(components, mixing):
    """The per-level list mix that the one [G, n*d] matmul replaced."""
    n, d = components[0].shape
    rows = concat([reshape(c, (1, c.size)) for c in components], axis=0)
    mixed = matmul(mixing, rows)
    return [reshape(slice_axis(mixed, 0, g, 1), (n, d))
            for g in range(len(components))]


def list_select_top3(components, alpha):
    """The slice/mul/concat chain that the one select_top3 record replaced."""
    weights = softmax(alpha)
    ranked = np.argsort(-weights.data, kind="stable")
    chosen = tuple(sorted(int(i) for i in ranked[:3]))
    parts = [mul(slice_axis(weights, 0, g, 1), components[g]) for g in chosen]
    return concat(parts, axis=1), chosen


def chain_bidirectional_attention(hos_p, hos_q, w, p_lengths=None, q_lengths=None,
                                  *, training=False, rng=None, dropout_rate=0.0):
    """The tape chain that the one bidirectional_attention record replaced:
    trilinear similarity, dropout over the packed [n, m] shape, row and
    column softmax under a block mask of 0 and -inf added to the
    similarity, M, S and the concatenated output."""
    width = hos_p.shape[1]
    w_p = reshape(slice_axis(w, 0, 0, width), (width, 1))
    w_q = reshape(slice_axis(w, 0, width, width), (width, 1))
    w_pq = slice_axis(w, 0, 2 * width, width)
    similarity = add(
        add(matmul(hos_p, w_p), transpose(matmul(hos_q, w_q))),
        matmul(mul(hos_p, w_pq), transpose(hos_q)))
    if training:
        similarity = dropout(similarity, dropout_rate, rng)
    if p_lengths is not None:
        p_seg = np.repeat(np.arange(len(p_lengths)), p_lengths)
        q_seg = np.repeat(np.arange(len(q_lengths)), q_lengths)
        similarity = add_const(
            similarity, np.where(p_seg[:, None] == q_seg[None, :], 0.0, -np.inf))
    rows = softmax(similarity, axis=1)
    cols = softmax(similarity, axis=0)
    m_summary = matmul(rows, hos_q)
    s_summary = matmul(matmul(rows, transpose(cols)), hos_p)
    return concat([hos_p, m_summary, mul(hos_p, m_summary),
                   mul(hos_p, s_summary)], axis=1)


def hand_similarity(p, q, w):
    """H[i, j] = w . [p_i ; q_j ; p_i*q_j], one pair at a time."""
    return np.array([[w @ np.concatenate([p_i, q_j, p_i * q_j]) for q_j in q]
                     for p_i in p])


def attend(p, q, w, *args, **kwargs):
    """bidirectional_attention on arrays, returning an array."""
    return bidirectional_attention(Tensor(p), Tensor(q), Tensor(w), *args,
                                   **kwargs).data


def assert_relatively_close(actual, expected, tol=1e-12):
    """Elementwise within tol, relative to the largest magnitude of expected."""
    scale = np.abs(expected).max()
    np.testing.assert_allclose(actual, expected, rtol=tol, atol=tol * scale)


class TestAssembleHos:
    def test_paper_widths_project_to_common_d(self):
        rng = np.random.default_rng(0)
        raw, projections = make_raw_and_projections(rng, n=5, d=128)
        hos = assemble_hos(raw, projections)
        assert hos.shape == (6, 5, 128)

    def test_missing_component_named(self):
        rng = np.random.default_rng(0)
        raw, projections = make_raw_and_projections(rng, n=3, d=8,
                                                    widths={n: 8 for n in COMPONENT_NAMES})
        del raw["contextual"]
        with pytest.raises(ShapeError, match="contextual"):
            assemble_hos(raw, projections)

    def test_token_count_mismatch(self):
        rng = np.random.default_rng(0)
        widths = {n: 8 for n in COMPONENT_NAMES}
        raw, projections = make_raw_and_projections(rng, n=3, d=8, widths=widths)
        raw["char"] = Tensor(rng.normal(size=(4, 8)))
        with pytest.raises(ShapeError, match="token counts"):
            assemble_hos(raw, projections)

    def test_zero_component_stays_zero(self):
        """Projections carry no bias, so zero in means zero out."""
        rng = np.random.default_rng(0)
        widths = {n: 8 for n in COMPONENT_NAMES}
        raw, projections = make_raw_and_projections(rng, n=3, d=8, widths=widths)
        raw["bilstm"] = Tensor(np.zeros((3, 8)))
        hos = assemble_hos(raw, projections)
        np.testing.assert_array_equal(hos.data[5], np.zeros((3, 8)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mix", [True, False])
    def test_record_matches_chain(self, dtype, mix):
        """The one record against six ``matmul`` records and a ``stack``,
        under ``select_top3`` with and without the λ mix: output and every
        gradient equal bit for bit.  Unmixed, each of the three levels left
        out sends no gradient to its representation or its projection."""
        rng = np.random.default_rng(27)
        widths = {"word": 12, "char": 4, "embed": 8, "contextual": 8, "block": 8,
                  "bilstm": 10}
        raw, projections = (
            {name: Tensor(t.data, dtype=dtype) for name, t in tensors.items()}
            for tensors in make_raw_and_projections(rng, n=5, d=8, widths=widths))
        mixing, alpha = (Tensor(rng.normal(size=shape), dtype=dtype)
                         for shape in ((6, 6), (6,)))
        probe = Tensor(rng.normal(size=(5, 24)), dtype=dtype)
        inputs = [*raw.values(), *projections.values()]
        results = []
        for assemble in (assemble_hos, chain_assemble_hos):
            def build():
                hos = assemble(raw, projections)
                results.append(hos.data)
                if mix:
                    hos = adaptive_scale(hos, mixing)
                return reduce_sum(mul(select_top3(hos, alpha)[0], probe))

            results.append(tape_grads(build, inputs))
        out, grads, want_out, want_grads = results
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, want_out)
        for got, want in zip(grads, want_grads):
            if want is None:
                assert got is None
            else:
                assert got.dtype == dtype
                np.testing.assert_array_equal(got, want)
        assert sum(g is None for g in grads) == (0 if mix else 6)


class TestAdaptiveScale:
    def test_identity_matrix_is_identity_map(self):
        rng = np.random.default_rng(1)
        hos = make_hos(rng, n=4, d=8)
        mixed = adaptive_scale(hos, Tensor(np.eye(6)))
        np.testing.assert_array_equal(mixed.data, hos.data)

    def test_paper_literal_collapses_to_first_component(self):
        rng = np.random.default_rng(2)
        hos = make_hos(rng, n=4, d=8)
        first_column = np.zeros((6, 6))
        first_column[:, 0] = 1.0
        mixed = adaptive_scale(hos, Tensor(first_column))
        for scaled in mixed.data:
            np.testing.assert_array_equal(scaled, hos.data[0])

    def test_hand_mix_two_levels(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        hos = Tensor(np.stack([a, b] * 3))
        matrix = np.zeros((6, 6))
        matrix[0, 0], matrix[0, 1] = 2.0, -0.5
        matrix[1, 0], matrix[1, 1] = 0.25, 1.5
        mixed = adaptive_scale(hos, Tensor(matrix))
        np.testing.assert_allclose(mixed.data[0], 2.0 * a - 0.5 * b, atol=1e-12)
        np.testing.assert_allclose(mixed.data[1], 0.25 * a + 1.5 * b, atol=1e-12)

    def test_wrong_matrix_shape(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError, match="mixing matrix"):
            adaptive_scale(make_hos(rng, 2, 4), Tensor(np.eye(5)))

    def test_gradient_through_mixing(self):
        rng = np.random.default_rng(4)
        hos = make_hos(rng, n=3, d=4)
        mixing = Tensor(rng.normal(size=(6, 6)))
        w = rng.normal(size=(3, 4))
        probe = Tensor(np.stack([w * (level + 1) for level in range(6)]))

        def build():
            return reduce_sum(mul(adaptive_scale(hos, mixing), probe))

        for t in (mixing, hos):
            (g,) = tape_grads(build, [t])
            f = fd_gradient(build, t, 1e-5)
            np.testing.assert_allclose(g, f, atol=1e-6)


class TestSelectTop3:
    def test_dominant_logits_selected(self):
        rng = np.random.default_rng(5)
        components = Tensor(rng.normal(size=(6, 2, 4)))
        alpha = Tensor(np.array([10.0, 10.0, 10.0, -10.0, -10.0, -10.0]))
        _, chosen = select_top3(components, alpha)
        assert chosen == (0, 1, 2)

    def test_uniform_alpha_tie_breaks_low_indices(self):
        rng = np.random.default_rng(5)
        components = Tensor(rng.normal(size=(6, 2, 4)))
        _, chosen = select_top3(components, Tensor(np.zeros(6)))
        assert chosen == (0, 1, 2)

    def test_concat_order_is_ascending_index(self):
        components = Tensor(np.stack([np.full((1, 2), float(i)) for i in range(6)]))
        alpha = Tensor(np.array([0.0, 5.0, 0.0, 7.0, 0.0, 6.0]))
        selected, chosen = select_top3(components, alpha)
        assert chosen == (1, 3, 5)
        weights = np.exp([0.0, 5.0, 0.0, 7.0, 0.0, 6.0])
        weights /= weights.sum()
        expected = np.concatenate(
            [np.full((1, 2), i * weights[i]) for i in (1, 3, 5)], axis=1)
        np.testing.assert_allclose(selected.data, expected, atol=1e-12)

    def test_paper_scale_width(self):
        rng = np.random.default_rng(6)
        components = Tensor(rng.normal(size=(6, 3, 128)))
        selected, _ = select_top3(components, Tensor(np.zeros(6)))
        assert selected.shape == (3, 384)

    def test_too_few_levels(self):
        with pytest.raises(ConfigError, match="at least 3"):
            select_top3(Tensor(np.zeros((2, 1, 2))), Tensor(np.zeros(2)))

    def test_unselected_components_get_zero_gradient(self):
        rng = np.random.default_rng(7)
        components = Tensor(rng.normal(size=(6, 2, 3)))
        alpha = Tensor(np.array([3.0, 2.0, 1.0, -1.0, -2.0, -3.0]))

        def build():
            selected, _ = select_top3(components, alpha)
            return reduce_sum(mul(selected, selected))

        (grad,) = tape_grads(build, [components])
        for level in (0, 1, 2):
            assert np.abs(grad[level]).min() > 0.0
        np.testing.assert_array_equal(grad[3:], 0.0)

    def test_alpha_gradient(self):
        rng = np.random.default_rng(8)
        components = Tensor(rng.normal(size=(6, 2, 3)))
        alpha = Tensor(np.array([3.0, 2.5, 2.0, -1.0, -2.0, -3.0]))
        w = rng.normal(size=(2, 9))

        def build():
            selected, _ = select_top3(components, alpha)
            return reduce_sum(mul(selected, Tensor(w)))

        (g,) = tape_grads(build, [alpha])
        f = fd_gradient(build, alpha, 1e-6)
        np.testing.assert_allclose(g, f, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_softmax_weights(self, dtype, monkeypatch):
        """Weights from segment_softmax give the output and the gradients
        that the plain softmax gave, bit for bit."""
        rng = np.random.default_rng(9)
        hos = Tensor(rng.normal(size=(6, 5, 4)).astype(dtype))
        alpha = Tensor(rng.normal(size=6).astype(dtype))
        probe = Tensor(rng.normal(size=(5, 12)).astype(dtype))
        results = []
        for weights_of in (attention.segment_softmax, softmax):
            monkeypatch.setattr(attention, "segment_softmax", weights_of)
            with Tape() as tape:
                selected, chosen = attention.select_top3(hos, alpha)
                loss = reduce_sum(mul(selected, probe))
            grads = tape.gradients(loss)
            results.append((chosen, (selected.data, grads[id(hos)], grads[id(alpha)])))
        (chosen, arrays), (ref_chosen, ref_arrays) = results
        assert chosen == ref_chosen
        assert arrays[0].dtype == dtype
        for actual, expected in zip(arrays, ref_arrays):
            np.testing.assert_array_equal(actual, expected)


class TestStackedLevels:
    """The [G, n, d] path against the per-level list path it replaced."""

    @pytest.mark.parametrize("mix", [True, False])
    @pytest.mark.parametrize("d", [8, 128])
    @pytest.mark.parametrize("n", [1, 7, 140])
    def test_matches_list_path(self, n, d, mix):
        rng = np.random.default_rng(n * 1000 + d)
        levels = [Tensor(rng.normal(size=(n, d))) for _ in COMPONENT_NAMES]
        mixing = Tensor(rng.normal(size=(6, 6)))
        alpha = Tensor(rng.normal(size=6))
        probe = Tensor(rng.normal(size=(n, 3 * d)))

        def stacked():
            hos = stack(levels)
            return select_top3(adaptive_scale(hos, mixing) if mix else hos, alpha)

        def listed():
            parts = list_adaptive_scale(levels, mixing) if mix else levels
            return list_select_top3(parts, alpha)

        results = []
        for build in (stacked, listed):
            with Tape() as tape:
                selected, chosen = build()
                loss = reduce_sum(mul(selected, probe))
            grads = tape.gradients(loss)
            level_grads = np.stack([grads.get(id(t), np.zeros((n, d)))
                                    for t in levels])
            results.append((selected.data, chosen, level_grads,
                            grads.get(id(mixing)), grads[id(alpha)]))
        new, old = results
        assert new[1] == old[1]
        for actual, expected in zip(new[2:], old[2:]):
            if expected is None:
                assert actual is None
            else:
                assert_relatively_close(actual, expected)
        assert_relatively_close(new[0], old[0])

    def test_record_counts(self):
        rng = np.random.default_rng(26)
        widths = {name: 8 for name in COMPONENT_NAMES}
        raw, projections = make_raw_and_projections(rng, n=4, d=8, widths=widths)
        counts = []
        for op in (lambda: assemble_hos(raw, projections),
                   lambda: adaptive_scale(make_hos(rng, 4, 8), Tensor(np.eye(6))),
                   lambda: select_top3(make_hos(rng, 4, 8), Tensor(np.zeros(6)))):
            with Tape() as tape:
                op()
            counts.append(len(tape))
        assert counts == [1, 3, 2]


class TestTrilinearSimilarity:
    """H[i, j] = w . [p_i ; q_j ; p_i*q_j], read through the output."""

    def test_zero_weight_zero_similarity(self):
        """H = 0: both softmaxes are uniform, so M is the question mean and
        S the passage mean."""
        rng = np.random.default_rng(9)
        p, q = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        out = attend(p, q, np.zeros(12))
        np.testing.assert_allclose(out[:, 4:8], np.tile(q.mean(axis=0), (3, 1)),
                                   atol=1e-12)
        np.testing.assert_allclose(out[:, 12:], p * p.mean(axis=0), atol=1e-12)

    def test_all_ones_closed_form(self):
        """All-ones weights and passage against question rows of ones and
        zeros: H = [3, 1], so M = 1 / (1 + e^-2)."""
        out = attend(np.ones((1, 1)), np.array([[1.0], [0.0]]), np.ones(3))
        assert out[0, 1] == pytest.approx(1.0 / (1.0 + np.exp(-2.0)), abs=1e-12)

    def test_hand_evaluation_2x2(self):
        rng = np.random.default_rng(10)
        p = rng.normal(size=(2, 3))
        q = rng.normal(size=(2, 3))
        w = rng.normal(size=9)
        h = hand_similarity(p, q, w)
        rows = np.exp(h) / np.exp(h).sum(axis=1, keepdims=True)
        cols = np.exp(h) / np.exp(h).sum(axis=0, keepdims=True)
        m_summary, s_summary = rows @ q, rows @ cols.T @ p
        expected = np.concatenate([p, m_summary, p * m_summary, p * s_summary], axis=1)
        np.testing.assert_allclose(attend(p, q, w), expected, atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError, match="widths disagree"):
            attend(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(9))
        with pytest.raises(ShapeError, match="widths disagree"):
            attend(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(12))

    def test_gradient(self):
        rng = np.random.default_rng(11)
        p = Tensor(rng.normal(size=(3, 4)))
        q = Tensor(rng.normal(size=(2, 4)))
        w = Tensor(rng.normal(size=12))
        probe = rng.normal(size=(3, 16))

        def build():
            return reduce_sum(mul(bidirectional_attention(p, q, w), Tensor(probe)))

        for t in (p, q, w):
            (g,) = tape_grads(build, [t])
            f = fd_gradient(build, t, 1e-5)
            np.testing.assert_allclose(g, f, atol=1e-6)


class TestDirectionalAttention:
    def test_single_question_token_broadcasts(self):
        rng = np.random.default_rng(12)
        q = rng.normal(size=(1, 5))
        out = attend(rng.normal(size=(4, 5)), q, rng.normal(size=15))
        for i in range(4):
            np.testing.assert_allclose(out[i, 5:10], q[0], atol=1e-12)

    def test_masked_question_columns_get_zero_attention(self):
        """A pack of two: each passage segment reads only its own question,
        and S reads only its own passage."""
        rng = np.random.default_rng(13)
        p, q, w = rng.normal(size=(3, 2)), rng.normal(size=(4, 2)), rng.normal(size=6)
        lengths = ((2, 1), (1, 3))
        base = attend(p, q, w, *lengths)
        bumped_q = q.copy()
        bumped_q[1:] += 10.0
        moved = attend(p, bumped_q, w, *lengths)
        np.testing.assert_array_equal(moved[:2], base[:2])
        assert (moved[2:] != base[2:]).any()
        bumped_p = p.copy()
        bumped_p[2] += 10.0
        moved = attend(bumped_p, q, w, *lengths)
        np.testing.assert_array_equal(moved[:2], base[:2])

    def test_p2q_hand_computation_2x2(self):
        rng = np.random.default_rng(14)
        p, q, w = rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), rng.normal(size=9)
        h = hand_similarity(p, q, w)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        rows = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(attend(p, q, w)[:, 3:6], rows @ q, atol=1e-12)

    def test_single_pair_returns_passage_vector(self):
        rng = np.random.default_rng(15)
        p, q = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        out = attend(p, q, rng.normal(size=12))
        np.testing.assert_allclose(out, np.concatenate([p, q, p * q, p * p], axis=1),
                                   atol=1e-12)

    def test_row_col_product_is_stochastic(self):
        """R.C^T has unit row sums, so a passage of ones gives S = 1."""
        rng = np.random.default_rng(16)
        out = attend(np.ones((5, 1)), rng.normal(size=(3, 1)), rng.normal(size=3))
        np.testing.assert_allclose(out[:, 3], 1.0, atol=1e-9)

    def test_q2p_extended_precision_2x2(self):
        """S for a 2x2 case against an mpmath evaluation of H, both
        softmaxes and (R.C^T).P."""
        mp.dps = 50
        p = np.array([[1.0, 2.0], [-3.0, 0.5]])
        q = np.array([[0.4, -0.2], [1.5, 0.3]])
        w = np.array([0.3, -1.2, 0.7, 0.1, -0.5, 0.25])

        def mp_softmax(values):
            exps = [mp.e ** v for v in values]
            total = sum(exps)
            return [x / total for x in exps]

        mpw = [mpf(x) for x in w]
        h = [[sum(mpw[k] * mpf(p[i, k]) + mpw[2 + k] * mpf(q[j, k])
                  + mpw[4 + k] * mpf(p[i, k]) * mpf(q[j, k]) for k in range(2))
              for j in range(2)] for i in range(2)]
        rows = [mp_softmax(h[i]) for i in range(2)]              # row-normalized
        cols_t = [mp_softmax([h[0][j], h[1][j]]) for j in range(2)]
        cols = [[cols_t[j][i] for j in range(2)] for i in range(2)]
        rc = [[sum(rows[i][k] * cols[j][k] for k in range(2)) for j in range(2)]
              for i in range(2)]
        expected = [[sum(rc[i][j] * mpf(p[j, f]) for j in range(2))
                     for f in range(2)] for i in range(2)]
        expected = np.array([[float(x) for x in row] for row in expected])
        np.testing.assert_allclose(attend(p, q, w)[:, 6:], p * expected, atol=1e-12)

    def test_empty_question_rejected(self):
        with pytest.raises(ShapeError, match="nonempty segments"):
            attend(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros(6), (1, 1), (3, 0))

    def test_empty_passage_rejected(self):
        with pytest.raises(ShapeError, match="nonempty segments"):
            attend(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros(6), (2, 0), (1, 2))


class TestFuseOutput:
    def test_paper_width(self):
        rng = np.random.default_rng(17)
        out = attend(rng.normal(size=(2, 384)), rng.normal(size=(3, 384)),
                     rng.normal(size=1152) * 0.01)
        assert out.shape == (2, 1536)

    def test_zero_passage_keeps_only_m_block(self):
        """P = 0: H[i, j] = q_j . w_q for every row, so M is that softmax's
        average of the question, and the P blocks are zero."""
        rng = np.random.default_rng(18)
        q, w = rng.normal(size=(2, 3)), rng.normal(size=9)
        out = attend(np.zeros((2, 3)), q, w)
        weights = np.exp(q @ w[3:6]) / np.exp(q @ w[3:6]).sum()
        np.testing.assert_array_equal(out[:, :3], np.zeros((2, 3)))
        np.testing.assert_allclose(out[:, 3:6], np.tile(weights @ q, (2, 1)),
                                   atol=1e-12)
        np.testing.assert_array_equal(out[:, 6:], np.zeros((2, 6)))

    def test_shape_mismatch(self):
        """Passage and question packs must have one segment per example."""
        with pytest.raises(ShapeError, match="2 passage segments but 1 question"):
            attend(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(9), (1, 1), (2,))
        with pytest.raises(ShapeError, match="1 passage segments but 2 question"):
            attend(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(9), None, (1, 1))

    def test_passage_permutation_permutes_rows(self):
        rng = np.random.default_rng(19)
        hos_p = rng.normal(size=(5, 4))
        hos_q = rng.normal(size=(3, 4))
        w = rng.normal(size=12)
        perm = np.array([3, 0, 4, 1, 2])
        base = attend(hos_p, hos_q, w)
        permuted = attend(hos_p[perm], hos_q, w)
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


def random_pack(rng, width, dtype=np.float64):
    segments = int(rng.integers(1, 5))
    p_lengths = [int(k) for k in rng.integers(1, 9, size=segments)]
    q_lengths = [int(k) for k in rng.integers(1, 5, size=segments)]
    hos_p = Tensor(rng.normal(size=(sum(p_lengths), width)), dtype=dtype)
    hos_q = Tensor(rng.normal(size=(sum(q_lengths), width)), dtype=dtype)
    w = Tensor(rng.normal(size=3 * width), dtype=dtype)
    return hos_p, hos_q, w, p_lengths, q_lengths


class TestFusedRecord:
    """The one bidirectional_attention record against the chain it replaced."""

    @pytest.mark.parametrize("training", [False, True])
    def test_matches_chain_on_random_packs(self, training):
        rng = np.random.default_rng(40 + training)
        for _ in range(40):
            width = int(rng.integers(1, 7))
            hos_p, hos_q, w, p_lengths, q_lengths = random_pack(rng, width)
            n, m = hos_p.shape[0], hos_q.shape[0]
            probe = Tensor(rng.normal(size=(n, 4 * width)))
            seed = int(rng.integers(2**31))
            results = []
            for attention in (bidirectional_attention, chain_bidirectional_attention):
                stream = np.random.default_rng(seed)
                with Tape() as tape:
                    out = attention(hos_p, hos_q, w, p_lengths, q_lengths,
                                    training=training, rng=stream, dropout_rate=0.3)
                    loss = reduce_sum(mul(out, probe))
                grads = tape.gradients(loss)
                results.append([out.data] + [grads[id(t)] for t in (hos_p, hos_q, w)])
                if attention is bidirectional_attention:
                    drawn = np.random.default_rng(seed)
                    if training:
                        drawn.random((n, m))
                    assert stream.bit_generator.state == drawn.bit_generator.state
            for label, got, want in zip(("output", "d hos_p", "d hos_q", "d w"),
                                        *results):
                assert got.shape == want.shape, label
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), label

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(42)
        hos_p, hos_q, w, p_lengths, q_lengths = random_pack(rng, 4, np.float32)
        with Tape() as tape:
            out = bidirectional_attention(
                hos_p, hos_q, w, p_lengths, q_lengths, training=True,
                rng=np.random.default_rng(0), dropout_rate=0.3)
            loss = reduce_sum(out)
        grads = tape.gradients(loss)
        dtypes = [out.data.dtype] + [grads[id(t)].dtype for t in (hos_p, hos_q, w)]
        assert dtypes == [np.float32] * 4

    def test_training_without_rng_rejected(self):
        rng = np.random.default_rng(43)
        hos_p, hos_q, w, p_lengths, q_lengths = random_pack(rng, 3)
        with pytest.raises(ConfigError, match="needs an rng"):
            bidirectional_attention(hos_p, hos_q, w, p_lengths, q_lengths,
                                    training=True, dropout_rate=0.1)


class TestEndToEndGradient:
    def test_grad_check_through_attention(self):
        """Trilinear -> M/S -> O at n=3, m=2, d_h=6 passes at 1e-3."""
        store = ParamStore()
        rng = np.random.default_rng(23)
        hos_p = store.register("hos_p", Tensor(rng.normal(size=(3, 6))))
        hos_q = store.register("hos_q", Tensor(rng.normal(size=(2, 6))))
        w = store.register("w", Tensor(rng.normal(size=18)))
        probe = rng.normal(size=(3, 24))

        def f():
            out = bidirectional_attention(hos_p, hos_q, w)
            return reduce_sum(mul(out, Tensor(probe)))

        report = grad_check(f, store, epsilon=1e-3, tolerance=1e-3)
        assert report.passed, report.lines()

    def test_train_step_records_attention_once(self, monkeypatch):
        """A packed mini train step records bidirectional attention as one
        record, with no slice or transpose record anywhere on its tape."""
        examples = gen_synthetic("copy-locate", 4, 0)
        model = Model(mini_profile(), *build_vocabs(examples), seed=0)
        names = []
        backward = model_module.backward

        def traced(tape, *args, **kwargs):
            names.extend(name for name, _, _, _ in tape._records)
            return backward(tape, *args, **kwargs)

        monkeypatch.setattr(model_module, "backward", traced)
        train_step(model, examples, Adam(model.store, 1e-3),
                   np.random.default_rng(0))
        assert names.count("bidirectional_attention") == 1
        assert "slice" not in names and "transpose" not in names

    def test_normalization_under_random_masks(self):
        """Random packs: both softmaxes normalise within their block, so a
        feature that is 1 on every question token is 1 in M, and one that
        is 1 on every passage token is 1 in S."""
        rng = np.random.default_rng(24)
        for _ in range(50):
            hos_p, hos_q, w, p_lengths, q_lengths = random_pack(rng, 4)
            hos_p.data[:, 0] = 1.0
            hos_q.data[:, 0] = 1.0
            out = bidirectional_attention(hos_p, hos_q, w, p_lengths, q_lengths).data
            np.testing.assert_allclose(out[:, 4], 1.0, atol=1e-12)
            np.testing.assert_allclose(out[:, 12], 1.0, atol=1e-12)
