"""Encoder blocks: positional signal, capsule routing, attention, stochastic depth."""

import math

import numpy as np
import pytest
from mpmath import mp, mpf

import abanet.encoder as encoder
from abanet.config import CapsuleConfig, EncoderBlockConfig
from abanet.encoder import (
    build_encoder_stack,
    conv_pri_dig_layer,
    dynamic_routing,
    multi_head_self_attention,
    positional_encoding,
    residual_sublayer,
    run_encoder_stack,
    squash,
    survival_probability,
)
from abanet.errors import ConfigError, ShapeError
from abanet.params import ParamStore, fd_gradient, grad_check
from abanet.tensor import (
    Tape,
    Tensor,
    concat,
    layer_norm,
    masked_softmax,
    matmul,
    mul,
    mul_const,
    reduce_sum,
    set_default_dtype,
    slice_axis,
    transpose,
)

MINI_BLOCK = EncoderBlockConfig(num_conv_layers=1, kernel=3, num_blocks=1)
MINI_CAPS = CapsuleConfig(2, 4, 2, 4, 1)


def tape_grads(build, tensors):
    with Tape() as tape:
        loss = build()
    grads = tape.gradients(loss)
    return [grads.get(id(t)) for t in tensors]


class TestPositionalEncoding:
    def test_position_zero_alternates(self):
        table = positional_encoding(3, 6)
        np.testing.assert_array_equal(table[0], [0, 1, 0, 1, 0, 1])

    def test_deterministic(self):
        np.testing.assert_array_equal(positional_encoding(5, 8),
                                      positional_encoding(5, 8))

    def test_direct_formula_n4_d4(self):
        table = positional_encoding(4, 4)
        for pos in range(4):
            for i in range(2):
                angle = pos / (10000.0 ** (2 * i / 4))
                assert table[pos, 2 * i] == pytest.approx(math.sin(angle), abs=1e-12)
                assert table[pos, 2 * i + 1] == pytest.approx(math.cos(angle), abs=1e-12)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            positional_encoding(4, 5)

    def test_cached_table_is_read_only(self):
        table = positional_encoding(6, 8)
        assert table.shape == (6, 8)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        np.testing.assert_array_equal(positional_encoding(6, 8), table)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 140])
    def test_rows_do_not_depend_on_length(self, n):
        longest = positional_encoding(300, 16)
        np.testing.assert_array_equal(positional_encoding(n, 16), longest[:n])


class TestSquash:
    def test_zero_maps_to_zero(self):
        out = squash(Tensor(np.zeros((2, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))

    def test_unit_vector_halves(self):
        v = np.zeros((1, 4))
        v[0, 1] = 1.0
        out = squash(Tensor(v)).data
        assert np.linalg.norm(out) == pytest.approx(0.5, abs=1e-9)
        cos = out @ v[0] / (np.linalg.norm(out) * 1.0)
        assert cos == pytest.approx(1.0, abs=1e-9)

    def test_norm_formula_and_bound(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=(50, 6)) * rng.uniform(0.01, 20, size=(50, 1))
        out = squash(Tensor(v)).data
        norms = np.linalg.norm(out, axis=-1)
        sq = (v * v).sum(axis=-1)
        np.testing.assert_allclose(norms, sq / (1.0 + sq), atol=1e-6)
        assert (norms < 1.0).all()
        cosines = (out * v).sum(-1) / (norms * np.linalg.norm(v, axis=-1))
        np.testing.assert_allclose(cosines, 1.0, atol=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(15)
        v = Tensor(rng.normal(size=(2, 3, 4)))
        w = rng.normal(size=(2, 3, 4))

        def build():
            return reduce_sum(mul(squash(v), Tensor(w)))

        (g,) = tape_grads(build, [v])
        f = fd_gradient(build, v, 1e-5)
        np.testing.assert_allclose(g, f, atol=1e-6)

    def test_gradient_finite_at_zero_vector(self):
        """At 0 the gradient is sqrt(eps) * identity; a step well below
        sqrt(eps) resolves it by finite differences."""
        v = Tensor(np.zeros((2, 3)))
        w = np.random.default_rng(16).normal(size=(2, 3))

        def build():
            return reduce_sum(mul(squash(v), Tensor(w)))

        (g,) = tape_grads(build, [v])
        assert np.isfinite(g).all()
        f = fd_gradient(build, v, 1e-9)
        np.testing.assert_allclose(g, f, rtol=1e-4)
        np.testing.assert_allclose(g, w * 1e-6, rtol=1e-4)


def mp_routing_oracle(primary, transform, iterations):
    """Extended-precision hand simulation of routing-by-agreement (n=1)."""
    mp.dps = 50
    pc, dc, pd, dd = transform.shape
    u_hat = [[[sum(mpf(float(primary[i, p])) * mpf(float(transform[i, j, p, q]))
                   for p in range(pd)) for q in range(dd)]
              for j in range(dc)] for i in range(pc)]
    b = [[mpf(0)] * dc for _ in range(pc)]
    v = None
    for step in range(iterations):
        c = []
        for i in range(pc):
            exps = [mp.e ** bij for bij in b[i]]
            total = sum(exps)
            c.append([e / total for e in exps])
        s = [[sum(c[i][j] * u_hat[i][j][q] for i in range(pc))
              for q in range(dd)] for j in range(dc)]
        v = []
        for j in range(dc):
            sq = sum(x * x for x in s[j])
            scale = mp.sqrt(sq) / (1 + sq) if sq > 0 else mpf(0)
            v.append([x * scale for x in s[j]])
        if step + 1 < iterations:
            for i in range(pc):
                for j in range(dc):
                    b[i][j] += sum(u_hat[i][j][q] * v[j][q] for q in range(dd))
    return np.array([[float(x) for x in row] for row in v])


def einsum_routing_reference(primary, transform, iterations, g):
    """The [n, i, j, q] einsum routing the matmul layout replaced.

    Returns the output, the per-iteration couplings [n, i, j] and the
    frozen-coupling gradients of sum(v * g) wrt primary and transform.
    """
    u_hat = np.einsum("nip,ijpq->nijq", primary, transform)
    logits = np.zeros(u_hat.shape[:3])
    log = []
    for step in range(iterations):
        weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
        couplings = weights / weights.sum(axis=-1, keepdims=True)
        log.append(couplings)
        v, squash_grad = encoder._squash((u_hat * couplings[..., None]).sum(axis=1))
        if step + 1 < iterations:
            logits = logits + np.einsum("nijq,njq->nij", u_hat, v)
    du_hat = couplings[..., None] * squash_grad(g)[:, None]
    return (v, log, np.einsum("nijq,ijpq->nip", du_hat, transform),
            np.einsum("nip,nijq->ijpq", primary, du_hat))


class TestDynamicRouting:
    def test_single_iteration_couplings_uniform(self):
        rng = np.random.default_rng(3)
        primary = Tensor(rng.normal(size=(2, 16, 8)))
        transform = Tensor(rng.normal(size=(16, 16, 8, 8)) * 0.1)
        log = []
        dynamic_routing(primary, transform, 1, coupling_log=log)
        assert len(log) == 1
        np.testing.assert_allclose(log[0], 1.0 / 16.0, atol=1e-9)

    def test_couplings_sum_to_one_every_iteration(self):
        rng = np.random.default_rng(5)
        primary = Tensor(rng.normal(size=(3, 4, 2)))
        transform = Tensor(rng.normal(size=(4, 5, 2, 3)))
        log = []
        dynamic_routing(primary, transform, 3, coupling_log=log)
        assert len(log) == 3
        for couplings in log:
            np.testing.assert_allclose(couplings.sum(axis=-1), 1.0, atol=1e-6)

    def test_matches_extended_precision_hand_simulation(self):
        rng = np.random.default_rng(11)
        primary_data = rng.normal(size=(1, 2, 2))
        transform_data = rng.normal(size=(2, 2, 2, 2))
        out = dynamic_routing(Tensor(primary_data), Tensor(transform_data), 3)
        expected = mp_routing_oracle(primary_data[0], transform_data, 3)
        np.testing.assert_allclose(out.data[0], expected, atol=1e-9)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigError, match="iteration"):
            dynamic_routing(Tensor(np.zeros((1, 2, 2))),
                            Tensor(np.zeros((2, 2, 2, 2))), 0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="dynamic_routing"):
            dynamic_routing(Tensor(np.zeros((1, 3, 2))),
                            Tensor(np.zeros((2, 2, 2, 2))), 1)

    def test_gradient_single_iteration(self):
        rng = np.random.default_rng(21)
        primary = Tensor(rng.normal(size=(2, 2, 4)))
        transform = Tensor(rng.normal(size=(2, 2, 4, 4)) * 0.3)
        w = rng.normal(size=(2, 2, 4))

        def build():
            return reduce_sum(mul(dynamic_routing(primary, transform, 1), Tensor(w)))

        for t in (primary, transform):
            (g,) = tape_grads(build, [t])
            f = fd_gradient(build, t, 1e-5)
            np.testing.assert_allclose(g, f, atol=1e-6)

    def test_gradient_three_iterations_freezes_final_couplings(self):
        """Beyond one iteration the tape gradient is that of
        v = squash(sum_i c_ij u_hat_ij) with c frozen at the last couplings."""
        rng = np.random.default_rng(23)
        primary = Tensor(rng.normal(size=(2, 3, 4)))
        transform = Tensor(rng.normal(size=(3, 2, 4, 4)) * 0.5)
        w = rng.normal(size=(2, 2, 4))
        log = []
        dynamic_routing(primary, transform, 3, coupling_log=log)
        frozen = log[-1]

        def frozen_routing():
            u_hat = np.einsum("nip,ijpq->nijq", primary.data, transform.data)
            s = (u_hat * frozen[..., None]).sum(axis=1)
            sq = (s * s).sum(axis=-1, keepdims=True)
            return Tensor((s * np.sqrt(sq) / (1.0 + sq) * w).sum())

        def build():
            return reduce_sum(mul(dynamic_routing(primary, transform, 3), Tensor(w)))

        for t in (primary, transform):
            (g,) = tape_grads(build, [t])
            f = fd_gradient(frozen_routing, t, 1e-6)
            np.testing.assert_allclose(g, f, atol=1e-8)
            # The couplings do depend on the inputs: the full derivative differs.
            assert np.abs(fd_gradient(build, t, 1e-6) - g).max() > 1e-3

    @pytest.mark.parametrize("n", [1, 7, 140])
    @pytest.mark.parametrize("iterations", [1, 3])
    def test_matches_einsum_reference(self, n, iterations):
        rng = np.random.default_rng(100 + n + iterations)
        primary = Tensor(rng.normal(size=(n, 16, 8)))
        transform = Tensor(rng.normal(size=(16, 16, 8, 8)) * 0.2)
        g = rng.normal(size=(n, 16, 8))
        log = []
        with Tape() as tape:
            out = dynamic_routing(primary, transform, iterations, coupling_log=log)
            loss = reduce_sum(mul(out, Tensor(g)))
        grads = tape.gradients(loss)
        v, couplings, dprimary, dtransform = einsum_routing_reference(
            primary.data, transform.data, iterations, g)
        assert len(log) == iterations
        pairs = [("output", out.data, v),
                 ("d primary", grads[id(primary)], dprimary),
                 ("d transform", grads[id(transform)], dtransform)]
        pairs += [(f"couplings {k}", a, b)
                  for k, (a, b) in enumerate(zip(log, couplings))]
        for name, got, want in pairs:
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


class TestConvPriDigLayer:
    def _weights(self, rng, d, kernel, caps):
        return (Tensor(rng.normal(size=(kernel, d)) * 0.3),
                Tensor(rng.normal(size=(d, d)) * 0.3),
                Tensor(rng.normal(size=(caps.primary_count, caps.digit_count,
                                        caps.primary_dim, caps.digit_dim)) * 0.2))

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_output_width_128(self, n):
        rng = np.random.default_rng(n)
        caps = CapsuleConfig(16, 8, 16, 8, 3)
        dw, pw, tr = self._weights(rng, 128, 7, caps)
        out = conv_pri_dig_layer(Tensor(rng.normal(size=(n, 128))), dw, pw, tr, caps)
        assert out.shape == (n, 128)

    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(2)
        dw, pw, tr = self._weights(rng, 8, 3, MINI_CAPS)
        out = conv_pri_dig_layer(Tensor(np.zeros((4, 8))), dw, pw, tr, MINI_CAPS)
        np.testing.assert_array_equal(out.data, np.zeros((4, 8)))

    def test_width_mismatch(self):
        rng = np.random.default_rng(2)
        dw, pw, tr = self._weights(rng, 8, 3, MINI_CAPS)
        with pytest.raises(ShapeError, match="tile"):
            conv_pri_dig_layer(Tensor(np.zeros((4, 6))),
                               Tensor(np.zeros((3, 6))), Tensor(np.zeros((6, 6))),
                               tr, MINI_CAPS)

    def test_gradient_reduced_dims(self):
        rng = np.random.default_rng(31)
        dw, pw, tr = self._weights(rng, 8, 3, MINI_CAPS)
        x = Tensor(rng.normal(size=(3, 8)))
        w = rng.normal(size=(3, 8))

        def build():
            return reduce_sum(mul(conv_pri_dig_layer(x, dw, pw, tr, MINI_CAPS),
                                  Tensor(w)))

        for t in (x, dw, pw, tr):
            (g,) = tape_grads(build, [t])
            f = fd_gradient(build, t, 1e-5)
            np.testing.assert_allclose(g, f, atol=1e-5)


class TestFloat32:
    def test_outputs_and_gradients_stay_float32(self):
        """Fused primitives keep float32 inputs float32, forward and backward."""
        set_default_dtype(np.float32)
        try:
            rng = np.random.default_rng(8)
            x, gain, bias, dw, pw = (Tensor(rng.normal(size=shape)) for shape in
                                     ((3, 8), (8,), (8,), (3, 8), (8, 8)))
            primary = Tensor(rng.normal(size=(3, 2, 4)))
            transform = Tensor(rng.normal(size=(2, 2, 4, 4)) * 0.5)
            caps = CapsuleConfig(2, 4, 2, 4, 3)
            attn = [Tensor(rng.normal(size=(8, 8))) for _ in range(4)]
            cases = {
                "layer_norm": (lambda: layer_norm(x, gain, bias), (x, gain, bias)),
                "squash": (lambda: squash(primary), (primary,)),
                "dynamic_routing": (lambda: dynamic_routing(primary, transform, 3),
                                    (primary, transform)),
                "conv_pri_dig_layer": (
                    lambda: conv_pri_dig_layer(x, dw, pw, transform, caps),
                    (x, dw, pw, transform)),
                "self_attention": (
                    lambda: multi_head_self_attention(x, np.arange(3) < 2, 2, *attn),
                    (x, *attn)),
            }
            for name, (op, inputs) in cases.items():
                with Tape() as tape:
                    out = op()
                    loss = reduce_sum(mul(out, Tensor(rng.normal(size=out.shape))))
                grads = tape.gradients(loss)
                dtypes = [out.data.dtype] + [grads[id(t)].dtype for t in inputs]
                assert dtypes == [np.float32] * len(dtypes), name
        finally:
            set_default_dtype(np.float64)

    @pytest.mark.parametrize("training", [True, False])
    def test_encoder_stack_stays_float32(self, training):
        """Constants (positional table, survival and attention scales) must
        not promote a float32 stack to float64."""
        set_default_dtype(np.float32)
        try:
            store = ParamStore()
            rng = np.random.default_rng(9)
            build_mini_stack(store, "enc", rng)
            x = Tensor(rng.normal(size=(5, 8)))
            with Tape() as tape:
                out = run_encoder_stack(x, None, store, "enc", num_heads=2,
                                        block=MINI_BLOCK, caps=MINI_CAPS,
                                        dropout_rate=0.1, training=training,
                                        rng=np.random.default_rng(0))
                loss = reduce_sum(mul(out, Tensor(rng.normal(size=out.shape))))
            records = [(name, o.data.dtype) for name, o, _, _ in tape._records]
            assert records and all(dt == np.float32 for _, dt in records), records
            grads = tape.gradients(loss)
            assert all(g.dtype == np.float32 for g in grads.values())
        finally:
            set_default_dtype(np.float64)


def composite_self_attention(x, mask, num_heads, wq, wk, wv, wo):
    """The per-head tape composite that the fused record replaced."""
    n, d = x.shape
    head_dim = d // num_heads
    q, k, v = matmul(x, wq), matmul(x, wk), matmul(x, wv)
    key_mask = None if mask is None else np.broadcast_to(
        np.asarray(mask, dtype=bool)[None, :], (n, n))
    heads = []
    for h in range(num_heads):
        start = h * head_dim
        qh = slice_axis(q, 1, start, head_dim)
        kh = slice_axis(k, 1, start, head_dim)
        vh = slice_axis(v, 1, start, head_dim)
        scores = mul_const(matmul(qh, transpose(kh)),
                           np.asarray(1.0 / np.sqrt(head_dim)))
        attention = masked_softmax(scores, mask=key_mask, axis=-1)
        heads.append(matmul(attention, vh))
    return matmul(concat(heads, axis=1), wo)


class TestMultiHeadSelfAttention:
    def _proj(self, rng, d):
        return tuple(Tensor(rng.normal(size=(d, d)) * 0.5) for _ in range(4))

    @pytest.mark.parametrize("n", [1, 7, 140, 200])
    @pytest.mark.parametrize("num_heads,d", [(8, 128), (2, 16)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_composite_reference(self, n, num_heads, d, masked):
        rng = np.random.default_rng(1000 + n + d + masked)
        x = Tensor(rng.normal(size=(n, d)))
        weights = tuple(Tensor(rng.normal(size=(d, d)) / np.sqrt(d))
                        for _ in range(4))
        # The mask hides the last quarter of the keys.
        mask = np.arange(n) < n - n // 4 if masked else None
        g = rng.normal(size=(n, d))
        results = []
        for attend in (multi_head_self_attention, composite_self_attention):
            with Tape() as tape:
                out = attend(x, mask, num_heads, *weights)
                loss = reduce_sum(mul(out, Tensor(g)))
            grads = tape.gradients(loss)
            results.append([out.data] + [grads[id(t)] for t in (x, *weights)])
            if attend is multi_head_self_attention:
                names = [name for name, _, _, _ in tape._records]
                assert names.count("self_attention") == 1
                assert names.count("matmul") == 4
        for name, got, want in zip(("out", "x", "wq", "wk", "wv", "wo"), *results):
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    def test_fully_masked_keys_rejected(self):
        rng = np.random.default_rng(3)
        wq, wk, wv, wo = self._proj(rng, 4)
        with pytest.raises(ShapeError, match="fully masked"):
            multi_head_self_attention(Tensor(rng.normal(size=(3, 4))),
                                      np.zeros(3, dtype=bool), 2, wq, wk, wv, wo)

    def test_single_position_is_value_projection(self):
        rng = np.random.default_rng(1)
        wq, wk, wv, wo = self._proj(rng, 4)
        x = Tensor(rng.normal(size=(1, 4)))
        out = multi_head_self_attention(x, None, 2, wq, wk, wv, wo)
        expected = (x.data @ wv.data) @ wo.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_masked_keys_do_not_leak(self):
        """Perturbing a masked position changes only its own output row."""
        rng = np.random.default_rng(6)
        wq, wk, wv, wo = self._proj(rng, 4)
        x = rng.normal(size=(5, 4))
        mask = np.array([True, True, False, True, True])
        base = multi_head_self_attention(Tensor(x), mask, 2, wq, wk, wv, wo).data
        bumped = x.copy()
        bumped[2] += 100.0
        moved = multi_head_self_attention(Tensor(bumped), mask, 2, wq, wk, wv, wo).data
        keep = np.array([0, 1, 3, 4])
        np.testing.assert_allclose(moved[keep], base[keep], atol=1e-9)

    def test_hand_computation_one_head(self):
        rng = np.random.default_rng(9)
        wq, wk, wv, wo = self._proj(rng, 2)
        x = rng.normal(size=(2, 2))
        out = multi_head_self_attention(Tensor(x), None, 1, wq, wk, wv, wo).data

        q, k, v = x @ wq.data, x @ wk.data, x @ wv.data
        scores = q @ k.T / math.sqrt(2.0)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out, (weights @ v) @ wo.data, atol=1e-12)

    def test_indivisible_width_rejected(self):
        rng = np.random.default_rng(0)
        wq, wk, wv, wo = self._proj(rng, 4)
        with pytest.raises(ConfigError, match="divisible"):
            multi_head_self_attention(Tensor(np.zeros((2, 4))), None, 3,
                                      wq, wk, wv, wo)

    def test_gradient(self):
        rng = np.random.default_rng(17)
        wq, wk, wv, wo = self._proj(rng, 4)
        x = Tensor(rng.normal(size=(3, 4)))
        mask = np.array([True, True, False])
        w = rng.normal(size=(3, 4))

        def build():
            out = multi_head_self_attention(x, mask, 2, wq, wk, wv, wo)
            return reduce_sum(mul(out, Tensor(w)))

        for t in (x, wq, wk, wv, wo):
            (g,) = tape_grads(build, [t])
            f = fd_gradient(build, t, 1e-5)
            np.testing.assert_allclose(g, f, atol=1e-6)


class _FixedRng:
    """Deterministic stand-in for a Generator in branch-choice tests."""

    def __init__(self, value):
        self.value = value

    def random(self, shape=None):
        if shape is None:
            return self.value
        return np.full(shape, self.value)


class TestResidualSublayer:
    def _norm(self, d):
        return Tensor(np.ones(d)), Tensor(np.zeros(d))

    def test_survival_probability_endpoints(self):
        assert survival_probability(10, 10, 0.9) == pytest.approx(0.9)
        assert survival_probability(0, 10, 0.9) == pytest.approx(1.0)
        assert survival_probability(5, 10, 0.9) == pytest.approx(0.95)

    def test_invalid_survival(self):
        with pytest.raises(ConfigError):
            survival_probability(1, 2, 0.0)
        with pytest.raises(ConfigError):
            survival_probability(1, 2, 1.5)

    def test_zero_branch_is_identity_both_modes(self):
        gain, bias = self._norm(4)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        zero = lambda h: mul(h, Tensor(np.zeros((3, 4))))
        for training, rng in ((False, None), (True, _FixedRng(0.0))):
            out = residual_sublayer(x, zero, layer_index=1, total_layers=2,
                                    survival_end=0.9, gain=gain, bias=bias,
                                    training=training, rng=rng)
            np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_training_skip_and_keep(self):
        gain, bias = self._norm(4)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4)))
        bump = lambda h: h + 1.0
        kept = residual_sublayer(x, bump, layer_index=2, total_layers=2,
                                 survival_end=0.9, gain=gain, bias=bias,
                                 training=True, rng=_FixedRng(0.5))
        skipped = residual_sublayer(x, bump, layer_index=2, total_layers=2,
                                    survival_end=0.9, gain=gain, bias=bias,
                                    training=True, rng=_FixedRng(0.95))
        assert not np.allclose(kept.data, x.data)
        np.testing.assert_array_equal(skipped.data, x.data)

    def test_eval_scales_branch_by_survival(self):
        gain, bias = self._norm(4)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 4)))
        constant = Tensor(np.full((2, 4), 3.0))
        out = residual_sublayer(x, lambda h: mul(h, Tensor(np.zeros((2, 4)))) + constant,
                                layer_index=2, total_layers=2, survival_end=0.9,
                                gain=gain, bias=bias, training=False)
        np.testing.assert_allclose(out.data - x.data, 0.9 * 3.0, atol=1e-12)


def build_mini_stack(store, prefix, rng, block=MINI_BLOCK):
    build_encoder_stack(store, prefix, d=8, num_heads=2, ffn_hidden=8,
                        block=block, caps=MINI_CAPS, rng=rng)


class TestEncoderStack:
    def test_paper_embedding_encoder_shape(self):
        store = ParamStore()
        block = EncoderBlockConfig(num_conv_layers=5, kernel=7, num_blocks=1)
        caps = CapsuleConfig(16, 8, 16, 8, 3)
        build_encoder_stack(store, "enc", d=128, num_heads=8, ffn_hidden=128,
                            block=block, caps=caps,
                            rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(9, 128)))
        out = run_encoder_stack(x, None, store, "enc", num_heads=8, block=block,
                                caps=caps)
        assert out.shape == (9, 128)

    def test_paper_model_encoder_shape(self):
        store = ParamStore()
        block = EncoderBlockConfig(num_conv_layers=2, kernel=5, num_blocks=4)
        caps = CapsuleConfig(16, 8, 16, 8, 3)
        build_encoder_stack(store, "enc", d=128, num_heads=8, ffn_hidden=128,
                            block=block, caps=caps,
                            rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(5, 128)))
        out = run_encoder_stack(x, None, store, "enc", num_heads=8, block=block,
                                caps=caps)
        assert out.shape == (5, 128)

    def test_empty_stack_is_identity(self):
        store = ParamStore()
        block = EncoderBlockConfig(num_conv_layers=1, kernel=3, num_blocks=0)
        x = Tensor(np.random.default_rng(2).normal(size=(4, 8)))
        out = run_encoder_stack(x, None, store, "enc", num_heads=2, block=block,
                                caps=MINI_CAPS)
        np.testing.assert_array_equal(out.data, x.data)

    def test_evaluation_deterministic(self):
        store = ParamStore()
        rng = np.random.default_rng(3)
        build_mini_stack(store, "enc", rng)
        x = Tensor(rng.normal(size=(6, 8)))
        first = run_encoder_stack(x, None, store, "enc", num_heads=2,
                                  block=MINI_BLOCK, caps=MINI_CAPS).data
        second = run_encoder_stack(x, None, store, "enc", num_heads=2,
                                   block=MINI_BLOCK, caps=MINI_CAPS).data
        np.testing.assert_array_equal(first, second)

    def test_global_sublayer_indexing(self, monkeypatch):
        """Sublayer indices run 1..L continuously across blocks."""
        seen = []
        original = survival_probability

        def spy(layer_index, total_layers, survival_end):
            seen.append((layer_index, total_layers))
            return original(layer_index, total_layers, survival_end)

        monkeypatch.setattr(encoder, "survival_probability", spy)
        store = ParamStore()
        rng = np.random.default_rng(4)
        block = EncoderBlockConfig(num_conv_layers=2, kernel=3, num_blocks=3)
        build_encoder_stack(store, "enc", d=8, num_heads=2, ffn_hidden=8,
                            block=block, caps=MINI_CAPS, rng=rng)
        x = Tensor(rng.normal(size=(4, 8)))
        run_encoder_stack(x, None, store, "enc", num_heads=2, block=block,
                          caps=MINI_CAPS)
        assert seen == [(l, 12) for l in range(1, 13)]

    def test_collect_blocks_returns_each_output(self):
        store = ParamStore()
        rng = np.random.default_rng(5)
        block = EncoderBlockConfig(num_conv_layers=1, kernel=3, num_blocks=4)
        build_encoder_stack(store, "enc", d=8, num_heads=2, ffn_hidden=8,
                            block=block, caps=MINI_CAPS, rng=rng)
        x = Tensor(rng.normal(size=(3, 8)))
        outputs = run_encoder_stack(x, None, store, "enc", num_heads=2,
                                    block=block, caps=MINI_CAPS,
                                    collect_blocks=True)
        assert len(outputs) == 4
        assert all(o.shape == (3, 8) for o in outputs)
        final = run_encoder_stack(x, None, store, "enc", num_heads=2,
                                  block=block, caps=MINI_CAPS)
        np.testing.assert_array_equal(outputs[-1].data, final.data)

    def test_single_block_gradient_check(self):
        store = ParamStore()
        rng = np.random.default_rng(40)
        build_mini_stack(store, "enc", rng)
        x = rng.normal(size=(4, 8))
        w = rng.normal(size=(4, 8))

        def f():
            out = run_encoder_stack(Tensor(x), None, store, "enc", num_heads=2,
                                    block=MINI_BLOCK, caps=MINI_CAPS)
            return reduce_sum(mul(out, Tensor(w)))

        report = grad_check(f, store, epsilon=1e-3, tolerance=1e-3)
        assert report.passed, report.lines()
