"""Tensor core: arithmetic, composite ops, tape backward, gradient checks."""

import zlib

import numpy as np
import pytest

from abanet.errors import ConfigError, ShapeError
from abanet.params import ParamStore, normal_init, ones_init, zeros_init
from abanet.tensor import (
    Tape,
    Tensor,
    add_const,
    backward,
    concat,
    dropout_mask,
    matmul,
    no_grad,
    recording,
    reshape,
)

from tape_reference import (
    add,
    depthwise_conv1d,
    dropout,
    exp,
    fd_gradient,
    gather_rows,
    grad_check,
    layer_norm,
    log,
    mul,
    mul_const,
    reduce_max,
    reduce_sum,
    relu,
    sigmoid,
    slice_axis,
    softmax,
    stack,
    sub,
    tanh,
    transpose,
)


def tape_grads(build, tensors):
    """Run ``build()`` under a tape and return gradients for ``tensors``."""
    with Tape() as tape:
        loss = build()
    grads = tape.gradients(loss)
    return [grads.get(id(t), np.zeros_like(t.data)) for t in tensors]


class TestMatmul:
    def test_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = matmul(Tensor(np.eye(2)), x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        weights = rng.normal(size=(3, 2))

        def build():
            return reduce_sum(mul(matmul(a, b), Tensor(weights)))

        ga, gb = tape_grads(build, [a, b])
        fa = fd_gradient(build, a, 1e-5)
        fb = fd_gradient(build, b, 1e-5)
        assert np.abs(ga - fa).max() / np.abs(fa).max() < 1e-4
        assert np.abs(gb - fb).max() / np.abs(fb).max() < 1e-4

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestMaskedSoftmax:
    def test_uniform_on_equal_logits(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)

    def test_against_high_precision_oracle(self):
        # mpmath at 50 digits: exp(i) / sum(exp([1,2,3]))
        expected = [0.090030573170380457998,
                    0.24472847105479765247,
                    0.66524095577482188953]
        out = softmax(Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, expected, rtol=1e-14)

    def test_random_masks_normalise(self):
        """Nonnegative and slice-sum 1 along either axis, for random logits."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(1, 9)
            x = Tensor(rng.normal(size=(4, n)) * 5)
            for axis in (0, -1):
                out = softmax(x, axis=axis).data
                assert (out >= 0).all()
                np.testing.assert_allclose(out.sum(axis=axis), 1.0, atol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 5)))
        w = rng.normal(size=(2, 5))
        for axis in (0, -1):
            def build():
                return reduce_sum(mul(softmax(x, axis=axis), Tensor(w)))

            (gx,) = tape_grads(build, [x])
            fx = fd_gradient(build, x, 1e-5)
            np.testing.assert_allclose(gx, fx, atol=1e-7)


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        x = Tensor(np.full((3, 4), 2.5))
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_zero_gain_gives_bias(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 6)))
        bias = rng.normal(size=6)
        out = layer_norm(x, Tensor(np.zeros(6)), Tensor(bias))
        np.testing.assert_allclose(out.data, np.broadcast_to(bias, (5, 6)))

    def test_row_statistics(self):
        """Pre-affine output has per-row mean 0 and variance 1."""
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(4, 8)) * 3 + 1)
        out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        direct = (x.data - x.data.mean(-1, keepdims=True))
        direct /= np.sqrt(x.data.var(-1, keepdims=True) + 1e-6)
        np.testing.assert_allclose(out, direct, atol=1e-12)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-5)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 6)))
        gain = Tensor(rng.normal(size=6))
        bias = Tensor(rng.normal(size=6))
        w = rng.normal(size=(3, 6))

        def build():
            return reduce_sum(mul(layer_norm(x, gain, bias), Tensor(w)))

        for t in (x, gain, bias):
            (g,) = tape_grads(build, [t])
            f = fd_gradient(build, t, 1e-5)
            np.testing.assert_allclose(g, f, atol=1e-6)


def naive_separable_conv(x, dw, pw):
    """Triple-nested-loop oracle for the separable convolution."""
    n, d = x.shape
    k = dw.shape[0]
    f = pw.shape[1]
    pad = k // 2
    mid = np.zeros((n, d))
    for t in range(n):
        for c in range(d):
            acc = 0.0
            for tau in range(k):
                src = t + tau - pad
                if 0 <= src < n:
                    acc += x[src, c] * dw[tau, c]
            mid[t, c] = acc
    out = np.zeros((n, f))
    for t in range(n):
        for j in range(f):
            for c in range(d):
                out[t, j] += mid[t, c] * pw[c, j]
    return out


def separable_conv(x, dw, pw):
    """Depthwise convolution followed by a 1x1 channel mix, as the capsule
    layer composes them."""
    return matmul(depthwise_conv1d(x, dw), pw)


class TestDepthwiseSeparableConv:
    def test_impulse_kernel_is_identity(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(6, 4)))
        dw = np.zeros((5, 4))
        dw[2, :] = 1.0  # unit impulse at center tap
        out = separable_conv(x, Tensor(dw), Tensor(np.eye(4)))
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_paper_scale_shape(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(20, 128)))
        out = separable_conv(
            x, Tensor(rng.normal(size=(7, 128))), Tensor(rng.normal(size=(128, 128))))
        assert out.shape == (20, 128)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(3)
        for n, d, f, k in [(5, 3, 2, 3), (9, 4, 4, 5), (4, 2, 3, 7), (1, 3, 3, 3)]:
            x = rng.normal(size=(n, d))
            dw = rng.normal(size=(k, d))
            pw = rng.normal(size=(d, f))
            out = separable_conv(Tensor(x), Tensor(dw), Tensor(pw))
            np.testing.assert_allclose(out.data, naive_separable_conv(x, dw, pw),
                                       atol=1e-6)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            depthwise_conv1d(Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 2))))

    def test_gradient(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(5, 3)))
        dw = Tensor(rng.normal(size=(3, 3)))
        pw = Tensor(rng.normal(size=(3, 2)))
        w = rng.normal(size=(5, 2))

        def build():
            return reduce_sum(mul(separable_conv(x, dw, pw), Tensor(w)))

        for t in (x, dw, pw):
            (g,) = tape_grads(build, [t])
            f = fd_gradient(build, t, 1e-5)
            np.testing.assert_allclose(g, f, atol=1e-6)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        store = ParamStore()
        w = store.create("w", (3, 4), rng=np.random.default_rng(0))
        with Tape() as tape:
            loss = reduce_sum(w)
        backward(tape, loss, store)
        np.testing.assert_array_equal(store.grad("w"), np.ones((3, 4)))

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.zeros((2, 2)))
        with Tape() as tape:
            y = mul(w, w)
        with pytest.raises(ShapeError, match="scalar"):
            tape.gradients(y)

    def test_tied_weight_matches_untied_duplicate_oracle(self):
        """Gradient of a shared weight equals the sum over independent copies."""
        rng = np.random.default_rng(21)
        w_data = rng.normal(size=(4, 4))
        x_data = rng.normal(size=(2, 4))

        tied = ParamStore()
        w = tied.register("w", Tensor(w_data))
        with Tape() as tape:
            h = tanh(matmul(Tensor(x_data), tied.get("w")))
            out = matmul(h, tied.get("w"))
            loss = reduce_sum(mul(out, out))
        backward(tape, loss, tied)

        untied = ParamStore()
        w1 = untied.register("w1", Tensor(w_data.copy()))
        w2 = untied.register("w2", Tensor(w_data.copy()))
        with Tape() as tape:
            h = tanh(matmul(Tensor(x_data), w1))
            out = matmul(h, w2)
            loss = reduce_sum(mul(out, out))
        backward(tape, loss, untied)

        np.testing.assert_allclose(
            tied.grad("w"), untied.grad("w1") + untied.grad("w2"), atol=1e-12)

    def test_recording_follows_the_active_tape(self):
        assert not recording()
        with Tape():
            assert recording()
            with no_grad():
                assert not recording()
            assert recording()
        assert not recording()

    def test_stack_skips_all_zero_rows(self):
        """An all-zero row of the stacked gradient reaches no parent, so the
        branch behind it is not swept."""
        rng = np.random.default_rng(8)
        a, b, c = (Tensor(rng.normal(size=(2, 3))) for _ in range(3))
        weights = np.zeros((3, 2, 3))
        weights[0] = rng.normal(size=(2, 3))
        weights[2, 1, 0] = -0.0   # a negative zero is still zero
        with Tape() as tape:
            upstream = tanh(b)
            loss = reduce_sum(mul(stack([a, upstream, c]), Tensor(weights)))
        grads = tape.gradients(loss)
        np.testing.assert_array_equal(grads[id(a)], weights[0])
        assert id(b) not in grads and id(c) not in grads

    def test_gradient_accumulates_across_backwards(self):
        store = ParamStore()
        w = store.create("w", (2,), rng=np.random.default_rng(0))
        for _ in range(2):
            with Tape() as tape:
                loss = reduce_sum(w)
            backward(tape, loss, store)
        np.testing.assert_array_equal(store.grad("w"), 2 * np.ones(2))


class TestElementwiseGradients:
    """Every differentiable primitive passes finite-difference checks."""

    CASES = [
        ("exp", lambda t: exp(t)),
        ("log", lambda t: log(add_const(mul(t, t), 1.0))),
        ("tanh", lambda t: tanh(t)),
        ("sigmoid", lambda t: sigmoid(t)),
        ("relu", lambda t: relu(add_const(t, 0.05))),
        ("max", lambda t: reduce_max(t, axis=1)),
        ("transpose", lambda t: transpose(t)),
        ("reshape", lambda t: reshape(t, (t.size,))),
        ("slice", lambda t: slice_axis(t, 1, 1, 2)),
        ("sub", lambda t: sub(t, tanh(t))),
    ]

    @pytest.mark.parametrize("name,fn", CASES, ids=[c[0] for c in CASES])
    def test_primitive(self, name, fn):
        # str hashes change per process; crc32 gives every run the same inputs.
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x = Tensor(rng.normal(size=(3, 4)))
        w = rng.normal(size=(3, 4))

        def build():
            out = fn(x)
            weights = Tensor(np.resize(w, out.shape))
            return reduce_sum(mul(out, weights))

        (g,) = tape_grads(build, [x])
        f = fd_gradient(build, x, 1e-3)
        denom = np.maximum(np.maximum(np.abs(g), np.abs(f)), 1e-3)
        assert (np.abs(g - f) / denom).max() < 1e-3

    def test_concat_and_gather(self):
        rng = np.random.default_rng(17)
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2, 2)))
        table = Tensor(rng.normal(size=(5, 3)))
        ids = np.array([0, 3, 3, 1])
        w = rng.normal(size=(4, 8))

        def build():
            rows = gather_rows(table, ids)          # [4, 3]
            joined = concat([a, b], axis=1)         # [2, 5]
            flat = reshape(joined, (1, 10))
            more = concat([rows, rows], axis=1)     # [4, 6]
            pad = matmul(more, Tensor(np.ones((6, 8))))
            return add(reduce_sum(mul(pad, Tensor(w))), reduce_sum(flat))

        for t in (a, b, table):
            (g,) = tape_grads(build, [t])
            f = fd_gradient(build, t, 1e-5)
            np.testing.assert_allclose(g, f, atol=1e-6)

    def test_gather_out_of_range(self):
        with pytest.raises(ShapeError, match="out of range"):
            gather_rows(Tensor(np.zeros((3, 2))), np.array([0, 5]))


class TestGradCheck:
    def test_quadratic_matches_closed_form(self):
        store = ParamStore()
        rng = np.random.default_rng(4)
        w = store.create("w", (6,), rng=rng)

        report = grad_check(lambda: reduce_sum(mul(w, w)), store)
        assert report.passed
        assert report.max_rel_error < 1e-5

    def test_reports_per_parameter(self):
        store = ParamStore()
        rng = np.random.default_rng(8)
        a = store.create("a", (3,), rng=rng)
        b = store.create("b", (2,), rng=rng)
        report = grad_check(
            lambda: add(reduce_sum(mul(a, a)), reduce_sum(exp(b))), store)
        assert set(report.per_param) == {"a", "b"}
        assert report.passed

    def test_detects_broken_backward(self):
        """A deliberately wrong backward rule is flagged."""
        from abanet.tensor import record_op

        store = ParamStore()
        w = store.create("w", (4,), rng=np.random.default_rng(1))

        def broken_square(t):
            out = t.data * t.data
            return record_op("broken_square", out, (t,), lambda g: (g * t.data,))

        report = grad_check(lambda: reduce_sum(broken_square(w)), store)
        assert not report.passed

    def test_refuses_a_float32_parameter(self):
        store = ParamStore(np.float32)
        w = store.create("w", (3,), rng=np.random.default_rng(2))
        with pytest.raises(ConfigError, match="float64 parameters; w is float32"):
            grad_check(lambda: reduce_sum(mul(w, w)), store)


class TestWidth:
    """A tensor keeps its array's float width; constants follow the
    tensor they combine with; a store creates parameters in its own width."""

    @pytest.mark.parametrize("data,dtype", [
        (np.ones(2, dtype=np.float32), np.float32),
        (np.ones(2), np.float64),
        (np.arange(2), np.float64),
        (np.array([True, False]), np.float64),
        ([1, 2], np.float64),
        (1.5, np.float64),
    ])
    def test_wrapped_width(self, data, dtype):
        assert Tensor(data).data.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constants_take_the_tensor_width(self, dtype):
        t = Tensor(np.array([0.25, 2.0], dtype=dtype))
        for c in (1, 0.5, np.float64(3.0), np.ones(2)):
            assert add_const(t, c).data.dtype == dtype
            assert mul_const(t, c).data.dtype == dtype

    def test_add_const_refuses_a_widening_constant(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\) widens input \(3,\)"):
            add_const(Tensor(np.zeros(3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_store_creates_in_its_width(self, dtype):
        w = ParamStore(dtype).create("w", (2, 3), rng=np.random.default_rng(0))
        assert w.data.dtype == dtype


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        out = dropout(x, 0.0, np.random.default_rng(0))
        assert out is x

    def test_preserves_expectation(self):
        rng = np.random.default_rng(123)
        x = Tensor(np.ones((200, 50)))
        out = dropout(x, 0.3, rng)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))

    def test_mask_without_rng_rejected(self):
        with pytest.raises(ConfigError, match="needs an rng"):
            dropout_mask((3,), 0.1, None)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.create("w", (1,), rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            store.create("w", (1,), rng=np.random.default_rng(0))

    @pytest.mark.parametrize("init", [None, normal_init(0.2)], ids=["xavier", "normal"])
    def test_drawing_without_an_rng_names_the_parameter(self, init):
        """Without an rng a drawing initialiser raises; it must not fall
        back to one fixed stream, which tied same-shaped parameters."""
        store = ParamStore()
        with pytest.raises(ConfigError, match="'w' draws .* without an rng"):
            store.create("w", (3, 3), init)
        assert list(store.items()) == []

    def test_constant_initialisers_need_no_rng(self):
        store = ParamStore()
        store.create("zeros", (2,), zeros_init)
        store.create("ones", (2,), ones_init)
        store.create("eye", (2, 2), lambda r, s: np.eye(2))
        np.testing.assert_array_equal(store.get("zeros").data, np.zeros(2))
        np.testing.assert_array_equal(store.get("ones").data, np.ones(2))
        np.testing.assert_array_equal(store.get("eye").data, np.eye(2))

    def test_register_rejects_another_width(self):
        store = ParamStore(np.float32)
        with pytest.raises(ConfigError, match="float64.*float32"):
            store.register("w", Tensor(np.ones(2)))
        assert store.register("v", Tensor(np.ones(2, dtype=np.float32))).data.dtype \
            == np.float32
        assert [name for name, _ in store.items()] == ["v"]

    def test_state_dict_round_trip(self):
        store = ParamStore()
        rng = np.random.default_rng(6)
        store.create("a", (2, 3), rng=rng)
        store.create("b", (4,), rng=rng)
        state = {k: v.copy() for k, v in store.state_dict().items()}
        store.get("a").data = np.zeros((2, 3))
        store.load_state_dict(state)
        np.testing.assert_array_equal(store.get("a").data, state["a"])
