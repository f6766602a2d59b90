"""Multi-granularity attention: stacking, mixing, selection, cross-attention."""

import numpy as np
import pytest
from mpmath import mp, mpf

from abanet.attention import (
    COMPONENT_NAMES,
    HistoryOfSemantic,
    adaptive_scale,
    assemble_hos,
    bidirectional_attention,
    fuse_output,
    lambda_init_matrix,
    p2q_attention,
    q2p_attention,
    select_top3,
    trilinear_similarity,
)
from abanet.errors import ConfigError, ShapeError
from abanet.params import ParamStore, fd_gradient, grad_check
from abanet.tensor import Tape, Tensor, masked_softmax, mul, reduce_sum

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
    return HistoryOfSemantic(
        [Tensor(rng.normal(size=(n, d))) for _ in COMPONENT_NAMES])


def tape_grads(build, tensors):
    with Tape() as tape:
        loss = build()
    grads = tape.gradients(loss)
    return [grads.get(id(t)) for t in tensors]


class TestAssembleHos:
    def test_paper_widths_project_to_common_d(self):
        rng = np.random.default_rng(0)
        raw, projections = make_raw_and_projections(rng, n=5, d=128)
        hos = assemble_hos(raw, projections)
        assert [c.shape for c in hos.components] == [(5, 128)] * 6

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
        np.testing.assert_array_equal(hos.components[5].data, np.zeros((3, 8)))


class TestAdaptiveScale:
    def test_identity_matrix_is_identity_map(self):
        rng = np.random.default_rng(1)
        hos = make_hos(rng, n=4, d=8)
        mixed = adaptive_scale(hos, Tensor(lambda_init_matrix("identity", 6)))
        for original, scaled in zip(hos.components, mixed):
            np.testing.assert_array_equal(scaled.data, original.data)

    def test_paper_literal_collapses_to_first_component(self):
        rng = np.random.default_rng(2)
        hos = make_hos(rng, n=4, d=8)
        mixed = adaptive_scale(hos, Tensor(lambda_init_matrix("paper", 6)))
        for scaled in mixed:
            np.testing.assert_array_equal(scaled.data, hos.components[0].data)

    def test_hand_mix_two_levels(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        hos = HistoryOfSemantic([Tensor(a), Tensor(b)] * 3)
        matrix = np.zeros((6, 6))
        matrix[0, 0], matrix[0, 1] = 2.0, -0.5
        matrix[1, 0], matrix[1, 1] = 0.25, 1.5
        mixed = adaptive_scale(hos, Tensor(matrix))
        np.testing.assert_allclose(mixed[0].data, 2.0 * a - 0.5 * b, atol=1e-12)
        np.testing.assert_allclose(mixed[1].data, 0.25 * a + 1.5 * b, atol=1e-12)

    def test_wrong_matrix_shape(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError, match="mixing matrix"):
            adaptive_scale(make_hos(rng, 2, 4), Tensor(np.eye(5)))

    def test_unknown_init_mode(self):
        with pytest.raises(ConfigError, match="lambda init"):
            lambda_init_matrix("ones", 6)

    def test_gradient_through_mixing(self):
        rng = np.random.default_rng(4)
        hos = make_hos(rng, n=3, d=4)
        mixing = Tensor(rng.normal(size=(6, 6)))
        w = rng.normal(size=(3, 4))

        def build():
            mixed = adaptive_scale(hos, mixing)
            total = None
            for level, part in enumerate(mixed):
                term = reduce_sum(mul(part, Tensor(w * (level + 1))))
                total = term if total is None else total + term
            return total

        for t in [mixing] + hos.components:
            (g,) = tape_grads(build, [t])
            f = fd_gradient(build, t, 1e-5)
            np.testing.assert_allclose(g, f, atol=1e-6)


class TestSelectTop3:
    def test_dominant_logits_selected(self):
        rng = np.random.default_rng(5)
        components = [Tensor(rng.normal(size=(2, 4))) for _ in range(6)]
        alpha = Tensor(np.array([10.0, 10.0, 10.0, -10.0, -10.0, -10.0]))
        _, chosen = select_top3(components, alpha)
        assert chosen == (0, 1, 2)

    def test_uniform_alpha_tie_breaks_low_indices(self):
        rng = np.random.default_rng(5)
        components = [Tensor(rng.normal(size=(2, 4))) for _ in range(6)]
        _, chosen = select_top3(components, Tensor(np.zeros(6)))
        assert chosen == (0, 1, 2)

    def test_concat_order_is_ascending_index(self):
        components = [Tensor(np.full((1, 2), float(i))) for i in range(6)]
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
        components = [Tensor(rng.normal(size=(3, 128))) for _ in range(6)]
        selected, _ = select_top3(components, Tensor(np.zeros(6)))
        assert selected.shape == (3, 384)

    def test_too_few_levels(self):
        with pytest.raises(ConfigError, match="at least 3"):
            select_top3([Tensor(np.zeros((1, 2)))] * 2, Tensor(np.zeros(2)))

    def test_unselected_components_get_zero_gradient(self):
        rng = np.random.default_rng(7)
        components = [Tensor(rng.normal(size=(2, 3))) for _ in range(6)]
        alpha = Tensor(np.array([3.0, 2.0, 1.0, -1.0, -2.0, -3.0]))

        def build():
            selected, _ = select_top3(components, alpha)
            return reduce_sum(mul(selected, selected))

        grads = tape_grads(build, components)
        for level in (0, 1, 2):
            assert grads[level] is not None
        for level in (3, 4, 5):
            assert grads[level] is None

    def test_alpha_gradient(self):
        rng = np.random.default_rng(8)
        components = [Tensor(rng.normal(size=(2, 3))) for _ in range(6)]
        alpha = Tensor(np.array([3.0, 2.5, 2.0, -1.0, -2.0, -3.0]))
        w = rng.normal(size=(2, 9))

        def build():
            selected, _ = select_top3(components, alpha)
            return reduce_sum(mul(selected, Tensor(w)))

        (g,) = tape_grads(build, [alpha])
        f = fd_gradient(build, alpha, 1e-6)
        np.testing.assert_allclose(g, f, atol=1e-6)


class TestTrilinearSimilarity:
    def test_zero_weight_zero_similarity(self):
        rng = np.random.default_rng(9)
        out = trilinear_similarity(Tensor(rng.normal(size=(3, 4))),
                                   Tensor(rng.normal(size=(2, 4))),
                                   Tensor(np.zeros(12)))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_all_ones_closed_form(self):
        d = 5
        out = trilinear_similarity(Tensor(np.ones((1, d))), Tensor(np.ones((1, d))),
                                   Tensor(np.ones(3 * d)))
        assert out.data[0, 0] == pytest.approx(3 * d, abs=1e-12)

    def test_hand_evaluation_2x2(self):
        rng = np.random.default_rng(10)
        p = rng.normal(size=(2, 3))
        q = rng.normal(size=(2, 3))
        w = rng.normal(size=9)
        out = trilinear_similarity(Tensor(p), Tensor(q), Tensor(w)).data
        for i in range(2):
            for j in range(2):
                expected = float(w @ np.concatenate([p[i], q[j], p[i] * q[j]]))
                assert out[i, j] == pytest.approx(expected, abs=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError, match="widths disagree"):
            trilinear_similarity(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                                 Tensor(np.zeros(9)))

    def test_gradient(self):
        rng = np.random.default_rng(11)
        p = Tensor(rng.normal(size=(3, 4)))
        q = Tensor(rng.normal(size=(2, 4)))
        w = Tensor(rng.normal(size=12))
        probe = rng.normal(size=(3, 2))

        def build():
            return reduce_sum(mul(trilinear_similarity(p, q, w), Tensor(probe)))

        for t in (p, q, w):
            (g,) = tape_grads(build, [t])
            f = fd_gradient(build, t, 1e-5)
            np.testing.assert_allclose(g, f, atol=1e-6)


class TestDirectionalAttention:
    def test_single_question_token_broadcasts(self):
        rng = np.random.default_rng(12)
        similarity = Tensor(rng.normal(size=(4, 1)))
        hos_q = Tensor(rng.normal(size=(1, 5)))
        m_summary, rows = p2q_attention(similarity, hos_q)
        np.testing.assert_allclose(rows.data, 1.0, atol=1e-12)
        for i in range(4):
            np.testing.assert_allclose(m_summary.data[i], hos_q.data[0], atol=1e-12)

    def test_masked_question_columns_get_zero_attention(self):
        rng = np.random.default_rng(13)
        similarity = Tensor(rng.normal(size=(3, 4)))
        hos_q = Tensor(rng.normal(size=(4, 2)))
        mask = np.array([True, False, True, False])
        _, rows = p2q_attention(similarity, hos_q, mask)
        assert (rows.data[:, ~mask] == 0.0).all()
        np.testing.assert_allclose(rows.data.sum(axis=1), 1.0, atol=1e-6)

    def test_p2q_hand_computation_2x2(self):
        rng = np.random.default_rng(14)
        h = rng.normal(size=(2, 2))
        hos_q = rng.normal(size=(2, 3))
        m_summary, _ = p2q_attention(Tensor(h), Tensor(hos_q))
        e = np.exp(h - h.max(axis=1, keepdims=True))
        rows = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(m_summary.data, rows @ hos_q, atol=1e-12)

    def test_single_pair_returns_passage_vector(self):
        rng = np.random.default_rng(15)
        hos_p = Tensor(rng.normal(size=(1, 4)))
        similarity = Tensor(rng.normal(size=(1, 1)))
        s_summary, _ = q2p_attention(similarity, hos_p, masked_softmax(similarity))
        np.testing.assert_allclose(s_summary.data, hos_p.data, atol=1e-12)

    def test_row_col_product_is_stochastic(self):
        rng = np.random.default_rng(16)
        similarity = Tensor(rng.normal(size=(5, 3)))
        hos_p = Tensor(np.ones((5, 1)))
        s_summary, _ = q2p_attention(similarity, hos_p, masked_softmax(similarity))
        np.testing.assert_allclose(s_summary.data, 1.0, atol=1e-9)

    def test_q2p_extended_precision_2x2(self):
        """S for a 2x2 case against an mpmath evaluation of Eq-style algebra."""
        mp.dps = 50
        h = np.array([[0.3, -1.2], [2.0, 0.7]])
        hos_p = np.array([[1.0, 2.0], [-3.0, 0.5]])

        def mp_softmax(values):
            exps = [mp.e ** mpf(v) for v in values]
            total = sum(exps)
            return [x / total for x in exps]

        rows = [mp_softmax(h[i]) for i in range(2)]          # row-normalized
        cols_t = [mp_softmax(h[:, j]) for j in range(2)]     # per question column
        cols = [[cols_t[j][i] for j in range(2)] for i in range(2)]
        rc = [[sum(rows[i][k] * cols[j][k] for k in range(2)) for j in range(2)]
              for i in range(2)]
        expected = [[sum(rc[i][j] * mpf(hos_p[j, f]) for j in range(2))
                     for f in range(2)] for i in range(2)]
        expected = np.array([[float(x) for x in row] for row in expected])

        similarity = Tensor(h)
        s_summary, _ = q2p_attention(similarity, Tensor(hos_p),
                                     masked_softmax(similarity))
        np.testing.assert_allclose(s_summary.data, expected, atol=1e-12)

    def test_empty_question_rejected(self):
        with pytest.raises(ShapeError, match="empty question"):
            p2q_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))),
                          np.zeros(3, dtype=bool))

    def test_empty_passage_rejected(self):
        similarity = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match="empty passage"):
            q2p_attention(similarity, Tensor(np.zeros((2, 2))),
                          masked_softmax(similarity), np.zeros(2, dtype=bool))


class TestFuseOutput:
    def test_paper_width(self):
        rng = np.random.default_rng(17)
        parts = [Tensor(rng.normal(size=(2, 384))) for _ in range(3)]
        assert fuse_output(*parts).shape == (2, 1536)

    def test_zero_passage_keeps_only_m_block(self):
        rng = np.random.default_rng(18)
        m_summary = Tensor(rng.normal(size=(2, 3)))
        s_summary = Tensor(rng.normal(size=(2, 3)))
        fused = fuse_output(Tensor(np.zeros((2, 3))), m_summary, s_summary).data
        np.testing.assert_array_equal(fused[:, :3], np.zeros((2, 3)))
        np.testing.assert_array_equal(fused[:, 3:6], m_summary.data)
        np.testing.assert_array_equal(fused[:, 6:], np.zeros((2, 6)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="fuse_output"):
            fuse_output(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                        Tensor(np.zeros((2, 3))))

    def test_passage_permutation_permutes_rows(self):
        rng = np.random.default_rng(19)
        hos_p = rng.normal(size=(5, 4))
        hos_q = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=12))
        perm = np.array([3, 0, 4, 1, 2])
        base = bidirectional_attention(Tensor(hos_p), hos_q, w).fused.data
        permuted = bidirectional_attention(Tensor(hos_p[perm]), hos_q, w).fused.data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


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
            return reduce_sum(mul(out.fused, Tensor(probe)))

        report = grad_check(f, store, epsilon=1e-3, tolerance=1e-3)
        assert report.passed, report.lines()

    def test_row_softmax_is_recorded_once(self):
        """q2p reuses p2q's row softmax: one row and one column softmax."""
        rng = np.random.default_rng(25)
        with Tape() as tape:
            bidirectional_attention(
                Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=(3, 6))),
                Tensor(rng.normal(size=18)))
        names = [name for name, _, _, _ in tape._records]
        assert names.count("masked_softmax") == 2

    def test_normalization_under_random_masks(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            n, m = rng.integers(2, 7, size=2)
            p_mask = rng.random(n) < 0.7
            q_mask = rng.random(m) < 0.7
            p_mask[rng.integers(n)] = True
            q_mask[rng.integers(m)] = True
            out = bidirectional_attention(
                Tensor(rng.normal(size=(n, 4))), Tensor(rng.normal(size=(m, 4))),
                Tensor(rng.normal(size=12)), p_mask, q_mask)
            np.testing.assert_allclose(out.rows.data.sum(axis=1), 1.0, atol=1e-6)
            np.testing.assert_allclose(out.cols.data.sum(axis=0), 1.0, atol=1e-6)
            assert (out.rows.data[:, ~q_mask] == 0).all()
            assert (out.cols.data[~p_mask, :] == 0).all()
