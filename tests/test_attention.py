"""Multi-granularity attention: stacking, mixing, selection, cross-attention."""

import numpy as np
import pytest
from mpmath import mp, mpf

from abanet.attention import (
    COMPONENT_NAMES,
    adaptive_scale,
    assemble_hos,
    bidirectional_attention,
    block_mask,
    fuse_output,
    lambda_init_matrix,
    p2q_attention,
    q2p_attention,
    select_top3,
    trilinear_similarity,
)
from abanet.errors import ConfigError, ShapeError
from abanet.params import ParamStore, fd_gradient, grad_check
from abanet.tensor import (
    Tape,
    Tensor,
    concat,
    masked_softmax,
    matmul,
    mul,
    reduce_sum,
    reshape,
    slice_axis,
    stack,
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
    weights = masked_softmax(alpha)
    ranked = np.argsort(-weights.data, kind="stable")
    chosen = tuple(sorted(int(i) for i in ranked[:3]))
    parts = [mul(slice_axis(weights, 0, g, 1), components[g]) for g in chosen]
    return concat(parts, axis=1), chosen


def assert_relatively_close(actual, expected, tol=1e-12):
    """Elementwise within tol, relative to the largest magnitude of expected."""
    scale = np.abs(expected).max()
    np.testing.assert_allclose(actual, expected, rtol=tol, atol=tol * scale)


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


class TestAdaptiveScale:
    def test_identity_matrix_is_identity_map(self):
        rng = np.random.default_rng(1)
        hos = make_hos(rng, n=4, d=8)
        mixed = adaptive_scale(hos, Tensor(lambda_init_matrix("identity", 6)))
        np.testing.assert_array_equal(mixed.data, hos.data)

    def test_paper_literal_collapses_to_first_component(self):
        rng = np.random.default_rng(2)
        hos = make_hos(rng, n=4, d=8)
        mixed = adaptive_scale(hos, Tensor(lambda_init_matrix("paper", 6)))
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

    def test_unknown_init_mode(self):
        with pytest.raises(ConfigError, match="lambda init"):
            lambda_init_matrix("ones", 6)

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
        assert counts == [7, 3, 2]


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
        """A pack of two: each passage segment attends to its own question."""
        rng = np.random.default_rng(13)
        similarity = Tensor(rng.normal(size=(3, 4)))
        hos_q = Tensor(rng.normal(size=(4, 2)))
        mask = block_mask((2, 1), (1, 3), 3, 4)
        np.testing.assert_array_equal(mask, [[True, False, False, False],
                                             [True, False, False, False],
                                             [False, True, True, True]])
        _, rows = p2q_attention(similarity, hos_q, mask)
        assert (rows.data[~mask] == 0.0).all()
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
                          np.zeros((2, 3), dtype=bool))

    def test_empty_passage_rejected(self):
        similarity = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match="empty passage"):
            q2p_attention(similarity, Tensor(np.zeros((2, 2))),
                          masked_softmax(similarity),
                          np.array([[True, True, False], [True, True, False]]))


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
        """Random packs: both softmaxes normalise within their block and are
        zero off it, so passage segments never mix."""
        rng = np.random.default_rng(24)
        for _ in range(50):
            segments = int(rng.integers(1, 4))
            p_lengths = rng.integers(1, 5, size=segments)
            q_lengths = rng.integers(1, 4, size=segments)
            n, m = int(p_lengths.sum()), int(q_lengths.sum())
            out = bidirectional_attention(
                Tensor(rng.normal(size=(n, 4))), Tensor(rng.normal(size=(m, 4))),
                Tensor(rng.normal(size=12)), p_lengths, q_lengths)
            np.testing.assert_allclose(out.rows.data.sum(axis=1), 1.0, atol=1e-6)
            np.testing.assert_allclose(out.cols.data.sum(axis=0), 1.0, atol=1e-6)
            p_seg = np.repeat(np.arange(segments), p_lengths)
            q_seg = np.repeat(np.arange(segments), q_lengths)
            off = p_seg[:, None] != q_seg[None, :]
            assert (out.rows.data[off] == 0).all()
            assert (out.cols.data[off] == 0).all()
