"""Encoder blocks: positional signal, capsule routing, attention, stochastic depth."""

import math

import numpy as np
import pytest
from mpmath import mp, mpf

import abanet.encoder as encoder
from abanet.attention import select_top3
from abanet.config import CapsuleConfig, EncoderBlockConfig, paper_profile
from abanet.data import Example, build_vocabs
from abanet.encoder import (
    _squash,
    build_encoder_stack,
    positional_encoding,
    residual_sublayer,
    run_encoder_stack,
    survival_probability,
)
from abanet.errors import ConfigError, ShapeError
from abanet.model import Model, batch_loss
from abanet.params import ParamStore
from abanet.tensor import (
    Tape,
    Tensor,
    add_const,
    concat,
    matmul,
    record_op,
)

from tape_reference import (
    add,
    conv_pri_dig_layer,
    dynamic_routing,
    fd_gradient,
    grad_check,
    layer_norm,
    mul,
    mul_const,
    multi_head_self_attention,
    reduce_sum,
    relative_error,
    slice_axis,
    softmax,
    squash,
    stack,
    tape_grads,
    transpose,
)

MINI_BLOCK = EncoderBlockConfig(num_conv_layers=1, kernel=3, num_blocks=1)
MINI_CAPS = CapsuleConfig(2, 4, 2, 4, 1)


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


def reshape_copy_routing_backward(primary, transform, couplings, ds):
    """The routing backward before d u_hat was written into its own buffer:
    a broadcast product, then a reshape that copies it.

    ``couplings`` are the last iteration's, laid out [n, i, j]; ``ds`` is
    the squash gradient of the output gradient, [n, j, q].
    """
    pc, dc, pd, dd = transform.shape
    n = primary.shape[0]
    du_hat = (couplings.transpose(1, 0, 2)[..., None]
              * ds[None]).reshape(pc, n, dc * dd)
    t_rows = transform.transpose(0, 1, 3, 2).reshape(pc, dc * dd, pd)
    dprimary = np.matmul(du_hat, t_rows).transpose(1, 0, 2)
    dtransform = np.matmul(primary.transpose(1, 2, 0), du_hat)
    return dprimary, dtransform.reshape(pc, pd, dc, dd).transpose(0, 2, 1, 3)


def full_u_hat_routing(primary: np.ndarray, transform: np.ndarray, iterations: int,
                       coupling_log: list | None = None):
    """The routing forward before the closed-form step 0, kept verbatim:
    u_hat built [n, j, i, q] by one batched matmul, every step (the first
    included) a softmax shifted by each (n, i) maximum over the strided j
    axis, and the agreement added into a new logits array.  Same signature,
    result and backward as ``encoder.dynamic_routing``."""
    if iterations < 1:
        raise ConfigError(f"routing needs at least one iteration, got {iterations}")
    pc, dc, pd, dd = transform.shape
    if primary.ndim != 3 or primary.shape[1:] != (pc, pd):
        raise ShapeError(
            f"dynamic_routing: primary {primary.shape} does not match "
            f"transform {transform.shape}")
    n = primary.shape[0]
    u_hat = np.empty((n, dc, pc, dd), dtype=np.result_type(primary, transform))
    # [i, 1, n, p] @ [i, j, p, q] written straight into the [n, j, i, q] buffer.
    np.matmul(primary.transpose(1, 0, 2)[:, None], transform,
              out=u_hat.transpose(2, 1, 0, 3))
    logits = np.zeros(u_hat.shape[:3], dtype=u_hat.dtype)
    for step in range(iterations):
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        couplings = weights / weights.sum(axis=1, keepdims=True)
        if coupling_log is not None:
            coupling_log.append(couplings.transpose(0, 2, 1).copy())
        v, squash_grad = _squash(np.matmul(couplings[:, :, None, :], u_hat)[:, :, 0])
        if step + 1 < iterations:
            logits = logits + np.matmul(u_hat, v[..., None])[..., 0]

    def bw(g, primary):
        # du_hat laid out [i, n, j*q]: both gradients are then batched over i.
        # The product is written straight into a C-contiguous [i, n, j, q]
        # buffer, so the flattening reshape is a view, not a copy.
        ds = squash_grad(g)
        buf = np.empty((pc, n, dc, dd), dtype=np.result_type(couplings, ds))
        np.multiply(couplings.transpose(2, 0, 1)[..., None], ds[None], out=buf)
        du_hat = buf.reshape(pc, n, dc * dd)
        t_rows = transform.transpose(0, 1, 3, 2).reshape(pc, dc * dd, pd)
        dprimary = np.matmul(du_hat, t_rows).transpose(1, 0, 2)
        dtransform = np.matmul(primary.transpose(1, 2, 0), du_hat)
        return (dprimary,
                dtransform.reshape(pc, pd, dc, dd).transpose(0, 2, 1, 3))

    return v, bw


def routing_run(routing, primary, transform, iterations, g):
    """Output, coupling log and both gradients of sum(routing(...) * g) for
    a numpy routing, recorded as one op."""
    log = []
    with Tape() as tape:
        v, backward = routing(primary.data, transform.data, iterations,
                              coupling_log=log)
        out = record_op("dynamic_routing", v, (primary, transform),
                        lambda grad: backward(grad, primary.data))
        loss = reduce_sum(mul(out, Tensor(g)))
    grads = tape.gradients(loss)
    return out.data, log, grads[id(primary)], grads[id(transform)]


def assert_runs_match(got, want, rtol):
    (v, log, dprimary, dtransform), (v0, log0, dprimary0, dtransform0) = got, want
    assert len(log) == len(log0)
    pairs = [("output", v, v0), ("d primary", dprimary, dprimary0),
             ("d transform", dtransform, dtransform0)]
    pairs += [(f"couplings {k}", a, b) for k, (a, b) in enumerate(zip(log, log0))]
    for name, a, b in pairs:
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.isfinite(a).all(), name
        assert np.abs(a - b).max() <= rtol * np.abs(b).max(), name


def paper_capsule_inputs(rng, n, scale=0.2, dtype=np.float64):
    """Squashed paper-sized primary capsules (16 x 8), a 16 x 8 -> 16 x 8
    transform and an output weighting, all in ``dtype``."""
    primary = _squash(rng.normal(size=(n, 16, 8)))[0]
    return (Tensor(primary, dtype=dtype),
            Tensor(rng.normal(size=(16, 16, 8, 8)) * scale, dtype=dtype),
            rng.normal(size=(n, 16, 8)).astype(dtype))


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


    @pytest.mark.parametrize("n", [1, 7, 140])
    @pytest.mark.parametrize("iterations", [1, 3])
    def test_backward_matches_reshape_copy_bit_for_bit(self, n, iterations,
                                                        monkeypatch):
        rng = np.random.default_rng(200 + n + iterations)
        primary = Tensor(rng.normal(size=(n, 16, 8)))
        transform = Tensor(rng.normal(size=(16, 16, 8, 8)) * 0.2)
        g = rng.normal(size=(n, 16, 8))
        squash_grads = []
        squash = encoder._squash

        def recorded_squash(s):
            v, grad = squash(s)
            squash_grads.append(grad)
            return v, grad

        monkeypatch.setattr(encoder, "_squash", recorded_squash)
        log = []
        with Tape() as tape:
            out = dynamic_routing(primary, transform, iterations, coupling_log=log)
            loss = reduce_sum(mul(out, Tensor(g)))
        grads = tape.gradients(loss)
        want = reshape_copy_routing_backward(primary.data, transform.data, log[-1],
                                             squash_grads[-1](g))
        for got, expected in zip((grads[id(primary)], grads[id(transform)]), want):
            np.testing.assert_array_equal(got, expected)


class TestRoutingMatchesFullUHat:
    """The closed-form step 0, the per-capsule u_hat GEMMs and the shared
    softmax shift against ``full_u_hat_routing``."""

    @pytest.mark.parametrize("n", [1, 7, 140, 194])
    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_float64(self, n, iterations):
        rng = np.random.default_rng(400 + 3 * n + iterations)
        primary, transform, g = paper_capsule_inputs(rng, n)
        assert_runs_match(
            routing_run(encoder.dynamic_routing, primary, transform, iterations, g),
            routing_run(full_u_hat_routing, primary, transform, iterations, g),
            1e-12)

    @pytest.mark.parametrize("n", [1, 7, 140, 194])
    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_float32_stays_float32(self, n, iterations):
        rng = np.random.default_rng(500 + 3 * n + iterations)
        primary, transform, g = paper_capsule_inputs(rng, n, dtype=np.float32)
        got = routing_run(encoder.dynamic_routing, primary, transform, iterations, g)
        want = routing_run(full_u_hat_routing, primary, transform, iterations, g)
        v, log, dprimary, dtransform = got
        assert all(a.dtype == np.float32 for a in (v, dprimary, dtransform, *log))
        assert_runs_match(got, want, 1e-5)

    @pytest.mark.parametrize("dtype,scale,rtol", [(np.float64, 300.0, 1e-12),
                                                  (np.float32, 40.0, 1e-3)])
    def test_wide_logits_shift_each_row(self, dtype, scale, rtol):
        """After step 0 the logits spread wider than exp's whole range, so
        one shared shift would zero whole rows; the per-(n, i) shift keeps
        every coupling finite and matching.  Float32 logits of a few
        hundred round to about 1e-5 absolute, so at 3 iterations both
        routings sit up to 1e-4 from the float64 result, and from each
        other."""
        rng = np.random.default_rng(7)
        primary, transform, g = paper_capsule_inputs(rng, 140, scale, dtype)
        u_hat = np.einsum("nip,ijpq->nijq", primary.data, transform.data)
        v = full_u_hat_routing(primary.data, transform.data, 1)[0]
        logits = np.einsum("nijq,njq->nij", u_hat, v)
        spread = logits.max() - logits.max(axis=-1).min()
        assert spread > -np.log(np.finfo(dtype).smallest_subnormal)
        for iterations in (2, 3):
            assert_runs_match(
                routing_run(encoder.dynamic_routing, primary, transform, iterations, g),
                routing_run(full_u_hat_routing, primary, transform, iterations, g),
                rtol)

    def test_single_iteration_gradient_matches_finite_differences(self):
        """The one-iteration backward (uniform couplings, exact) at paper
        capsule sizes, n = 3: 64 seeded elements of each input, central
        differences at 1e-6."""
        rng = np.random.default_rng(29)
        primary, transform, g = paper_capsule_inputs(rng, 3, scale=0.5)

        def loss():
            return reduce_sum(mul(dynamic_routing(primary, transform, 1), Tensor(g)))

        with Tape() as tape:
            out = loss()
        grads = tape.gradients(out)
        for t in (primary, transform):
            base, analytic = t.data, grads[id(t)]
            picks = rng.choice(t.size, size=64, replace=False)
            numeric = np.empty(len(picks))
            for k, index in enumerate(picks):
                values = []
                for step in (1e-6, -1e-6):
                    probe = base.copy()
                    probe.flat[index] += step
                    t.data = probe
                    values.append(float(loss().data))
                numeric[k] = (values[0] - values[1]) / 2e-6
            t.data = base
            assert relative_error(analytic.flat[picks], numeric).max() < 1e-6


def test_paper_predict_matches_full_u_hat_routing(monkeypatch):
    """One paper-profile predict on a 140-token passage gives the span and,
    within 1e-12 relative, the p_begin/p_end it gives with
    ``full_u_hat_routing`` in place of ``dynamic_routing``."""
    rng = np.random.default_rng(5)
    words = [f"w{k:03d}" for k in range(400)]
    example = Example(
        id="routing-140", passage=[words[i] for i in rng.choice(400, 140)],
        question=[words[i] for i in rng.choice(400, 10)],
        pos=rng.integers(0, 8, size=140).tolist(),
        ner=rng.integers(0, 4, size=140).tolist(),
        rule=rng.integers(0, 2, size=140).tolist(), answer_begin=3, answer_end=5)
    model = Model(paper_profile(), *build_vocabs([example]), seed=0)
    got = model.predict(example)
    model.store.load_state_dict(model.store.state_dict())  # empties both caches
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return full_u_hat_routing(*args, **kwargs)

    monkeypatch.setattr(encoder, "dynamic_routing", counted)
    want = model.predict(example)
    assert len(calls) >= 24 and set(calls) == {3}
    assert (got.begin, got.end) == (want.begin, want.end)
    np.testing.assert_allclose(got.p_begin, want.p_begin, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.p_end, want.p_end, rtol=1e-12, atol=0)


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


def f32(data) -> Tensor:
    return Tensor(data, dtype=np.float32)


class TestFloat32:
    def test_outputs_and_gradients_stay_float32(self):
        """Fused primitives keep float32 inputs float32, forward and backward."""
        rng = np.random.default_rng(8)
        x, gain, bias, dw, pw = (f32(rng.normal(size=shape)) for shape in
                                 ((3, 8), (8,), (8,), (3, 8), (8, 8)))
        primary = f32(rng.normal(size=(3, 2, 4)))
        transform = f32(rng.normal(size=(2, 2, 4, 4)) * 0.5)
        caps = CapsuleConfig(2, 4, 2, 4, 3)
        attn = [f32(rng.normal(size=(8, 8))) for _ in range(4)]
        hos, alpha = f32(rng.normal(size=(6, 3, 8))), f32(rng.normal(size=6))
        decayed = ParamStore(np.float32)
        weights = [decayed.register(f"w{i}", f32(rng.normal(size=shape)))
                   for i, shape in enumerate(((3, 8), (8,)))]
        nlls = f32(rng.random(4))
        cases = {
            "layer_norm": (lambda: layer_norm(x, gain, bias), (x, gain, bias)),
            "squash": (lambda: squash(primary), (primary,)),
            "dynamic_routing": (lambda: dynamic_routing(primary, transform, 3),
                                (primary, transform)),
            "conv_pri_dig_layer": (
                lambda: conv_pri_dig_layer(x, dw, pw, transform, caps),
                (x, dw, pw, transform)),
            "self_attention": (
                lambda: multi_head_self_attention(x, (2, 1), 2, *attn),
                (x, *attn)),
            "stack": (lambda: stack([x, dw]), (x, dw)),
            "select_top3": (lambda: select_top3(hos, alpha)[0], (hos, alpha)),
            "batch_loss": (lambda: batch_loss(nlls, decayed, 3e-7), (nlls, *weights)),
        }
        for name, (op, inputs) in cases.items():
            with Tape() as tape:
                out = op()
                loss = reduce_sum(mul(out, f32(rng.normal(size=out.shape))))
            grads = tape.gradients(loss)
            dtypes = [out.data.dtype] + [grads[id(t)].dtype for t in inputs]
            assert dtypes == [np.float32] * len(dtypes), name

    @pytest.mark.parametrize("training", [True, False])
    def test_encoder_stack_stays_float32(self, training):
        """Constants (positional table, survival and attention scales) must
        not promote a float32 stack to float64."""
        store = ParamStore(np.float32)
        rng = np.random.default_rng(9)
        build_mini_stack(store, "enc", rng)
        x = f32(rng.normal(size=(5, 8)))
        with Tape() as tape:
            out = run_encoder_stack(x, None, store, "enc", num_heads=2,
                                    block=MINI_BLOCK, caps=MINI_CAPS,
                                    dropout_rate=0.1, training=training,
                                    rng=np.random.default_rng(0))
            loss = reduce_sum(mul(out, f32(rng.normal(size=out.shape))))
        records = [(name, o.data.dtype) for name, o, _, _ in tape._records]
        assert records and all(dt == np.float32 for _, dt in records), records
        grads = tape.gradients(loss)
        assert all(g.dtype == np.float32 for g in grads.values())


def composite_self_attention(x, lengths, num_heads, wq, wk, wv, wo):
    """The per-head tape composite that the fused record replaced, over a
    pack through a block-diagonal [n, n] mask of 0 and -inf added to the
    scores."""
    n, d = x.shape
    head_dim = d // num_heads
    q, k, v = matmul(x, wq), matmul(x, wk), matmul(x, wv)
    key_mask = None
    if lengths is not None:
        segment = np.repeat(np.arange(len(lengths)), lengths)
        key_mask = np.where(segment[:, None] == segment[None, :], 0.0, -np.inf)
    heads = []
    for h in range(num_heads):
        start = h * head_dim
        qh = slice_axis(q, 1, start, head_dim)
        kh = slice_axis(k, 1, start, head_dim)
        vh = slice_axis(v, 1, start, head_dim)
        scores = mul_const(matmul(qh, transpose(kh)),
                           np.asarray(1.0 / np.sqrt(head_dim)))
        if key_mask is not None:
            scores = add_const(scores, key_mask)
        attention = softmax(scores, axis=-1)
        heads.append(matmul(attention, vh))
    return matmul(concat(heads, axis=1), wo)


class TestMultiHeadSelfAttention:
    def _proj(self, rng, d):
        return tuple(Tensor(rng.normal(size=(d, d)) * 0.5) for _ in range(4))

    @pytest.mark.parametrize("n", [1, 7, 140, 200])
    @pytest.mark.parametrize("num_heads,d", [(8, 128), (2, 16)])
    @pytest.mark.parametrize("packed", [False, True])
    def test_matches_composite_reference(self, n, num_heads, d, packed):
        rng = np.random.default_rng(1000 + n + d + packed)
        x = Tensor(rng.normal(size=(n, d)))
        weights = tuple(Tensor(rng.normal(size=(d, d)) / np.sqrt(d))
                        for _ in range(4))
        # A packed input ends in a segment of a quarter of the rows.
        lengths = None
        if packed:
            lengths = [length for length in (n - n // 4, n // 4) if length]
        g = rng.normal(size=(n, d))
        results = []
        for attend in (multi_head_self_attention, composite_self_attention):
            with Tape() as tape:
                out = attend(x, lengths, num_heads, *weights)
                loss = reduce_sum(mul(out, Tensor(g)))
            grads = tape.gradients(loss)
            results.append([out.data] + [grads[id(t)] for t in (x, *weights)])
            if attend is multi_head_self_attention:
                names = [name for name, _, _, _ in tape._records]
                assert names.count("self_attention") == 1
                assert names.count("matmul") == 0
        for name, got, want in zip(("out", "x", "wq", "wk", "wv", "wo"), *results):
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    def test_fully_masked_keys_rejected(self):
        """A segment with no keys, or lengths that miss rows, is refused."""
        rng = np.random.default_rng(3)
        wq, wk, wv, wo = self._proj(rng, 4)
        for lengths in ((3, 0), (2,), (2, 2)):
            with pytest.raises(ShapeError, match="nonempty segments"):
                multi_head_self_attention(Tensor(rng.normal(size=(3, 4))),
                                          lengths, 2, wq, wk, wv, wo)

    def test_single_position_is_value_projection(self):
        rng = np.random.default_rng(1)
        wq, wk, wv, wo = self._proj(rng, 4)
        x = Tensor(rng.normal(size=(1, 4)))
        out = multi_head_self_attention(x, None, 2, wq, wk, wv, wo)
        expected = (x.data @ wv.data) @ wo.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_masked_keys_do_not_leak(self):
        """Perturbing a token changes only the rows of its own segment."""
        rng = np.random.default_rng(6)
        wq, wk, wv, wo = self._proj(rng, 4)
        x = rng.normal(size=(5, 4))
        lengths = (2, 1, 2)
        base = multi_head_self_attention(Tensor(x), lengths, 2, wq, wk, wv, wo).data
        bumped = x.copy()
        bumped[2] += 100.0
        moved = multi_head_self_attention(Tensor(bumped), lengths, 2,
                                          wq, wk, wv, wo).data
        keep = np.array([0, 1, 3, 4])
        np.testing.assert_array_equal(moved[keep], base[keep])
        assert not np.allclose(moved[2], base[2])

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
        w = rng.normal(size=(3, 4))

        def build():
            out = multi_head_self_attention(x, (2, 1), 2, wq, wk, wv, wo)
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
        zero = lambda h: (h * np.zeros((3, 4)), lambda g, h: (g * np.zeros((3, 4)),))
        for training, rng in ((False, None), (True, _FixedRng(0.0))):
            out = residual_sublayer(x, "zero", zero, [], layer_index=1, total_layers=2,
                                    survival_end=0.9, gain=gain, bias=bias,
                                    training=training, rng=rng)
            np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_training_skip_and_keep(self):
        gain, bias = self._norm(4)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4)))
        bump = lambda h: (h + 1.0, lambda g, h: (g,))
        kept = residual_sublayer(x, "bump", bump, [], layer_index=2, total_layers=2,
                                 survival_end=0.9, gain=gain, bias=bias,
                                 training=True, rng=_FixedRng(0.5))
        skipped = residual_sublayer(x, "bump", bump, [], layer_index=2, total_layers=2,
                                    survival_end=0.9, gain=gain, bias=bias,
                                    training=True, rng=_FixedRng(0.95))
        assert not np.allclose(kept.data, x.data)
        np.testing.assert_array_equal(skipped.data, x.data)

    def test_eval_scales_branch_by_survival(self):
        gain, bias = self._norm(4)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 4)))
        constant = np.full((2, 4), 3.0)
        out = residual_sublayer(x, "constant",
                                lambda h: (h * np.zeros((2, 4)) + constant,
                                           lambda g, h: (g * 0.0,)), [],
                                layer_index=2, total_layers=2, survival_end=0.9,
                                gain=gain, bias=bias, training=False)
        np.testing.assert_allclose(out.data - x.data, 0.9 * 3.0, atol=1e-12)


def build_mini_stack(store, prefix, rng, block=MINI_BLOCK):
    build_encoder_stack(store, prefix, d=8, ffn_hidden=8,
                        block=block, caps=MINI_CAPS, rng=rng)


class TestEncoderStack:
    def test_paper_embedding_encoder_shape(self):
        store = ParamStore()
        block = EncoderBlockConfig(num_conv_layers=5, kernel=7, num_blocks=1)
        caps = CapsuleConfig(16, 8, 16, 8, 3)
        build_encoder_stack(store, "enc", d=128, ffn_hidden=128,
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
        build_encoder_stack(store, "enc", d=128, ffn_hidden=128,
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
        build_encoder_stack(store, "enc", d=8, ffn_hidden=8,
                            block=block, caps=MINI_CAPS, rng=rng)
        x = Tensor(rng.normal(size=(4, 8)))
        run_encoder_stack(x, None, store, "enc", num_heads=2, block=block,
                          caps=MINI_CAPS)
        assert seen == [(l, 12) for l in range(1, 13)]

    def test_collect_blocks_returns_each_output(self):
        store = ParamStore()
        rng = np.random.default_rng(5)
        block = EncoderBlockConfig(num_conv_layers=1, kernel=3, num_blocks=4)
        build_encoder_stack(store, "enc", d=8, ffn_hidden=8,
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


def written_out_stack(x, lengths, store, *, training, rng, dropout_rate):
    """A 2-block stack of two conv sublayers, attention and FFN each,
    written out as one ``residual_sublayer`` call per sublayer; returns
    both block outputs."""
    def sublayer(h, index, name, record, f, *suffixes):
        return residual_sublayer(
            h, record, f, [store.get(f"{name}.{suffix}") for suffix in suffixes],
            layer_index=index, total_layers=8, survival_end=0.5,
            gain=store.get(f"{name}.ln.gain"), bias=store.get(f"{name}.ln.bias"),
            training=training, rng=rng, dropout_rate=dropout_rate)

    def capsule(h, *weights):
        return encoder.conv_pri_dig_layer(h, *weights, MINI_CAPS, lengths)

    blocks = []
    out = x
    for b, first in ((0, 1), (1, 5)):
        out = add_const(out, positional_encoding(*out.shape, lengths))
        out = sublayer(out, first, f"enc.block{b}.conv0", "capsule", capsule,
                       "dw", "pw", "caps")
        out = sublayer(out, first + 1, f"enc.block{b}.conv1", "capsule", capsule,
                       "dw", "pw", "caps")
        out = sublayer(out, first + 2, f"enc.block{b}.attn", "self_attention",
                       lambda h, *weights: encoder.multi_head_self_attention(
                           h, lengths, 2, *weights), "wq", "wk", "wv", "wo")
        out = sublayer(out, first + 3, f"enc.block{b}.ffn", "feed_forward",
                       encoder.feed_forward, "w1", "b1", "w2", "b2")
        blocks.append(out)
    return blocks


class TestStackMatchesWrittenOutBlocks:
    """``run_encoder_stack``'s one loop against the blocks written out."""

    @pytest.mark.parametrize("training", [False, True])
    def test_outputs_and_gradients_are_equal(self, training):
        store = ParamStore()
        block = EncoderBlockConfig(num_conv_layers=2, kernel=3, num_blocks=2)
        build_mini_stack(store, "enc", np.random.default_rng(11), block)
        data = np.random.default_rng(12)
        x = Tensor(data.normal(size=(5, 8)))
        weights = [Tensor(data.normal(size=(5, 8))) for _ in range(2)]
        lengths = (3, 2)
        params = [tensor for _, tensor in store.items()]

        def run(stack):
            with Tape() as tape:
                blocks = stack(np.random.default_rng(13))
                loss = add(*(reduce_sum(mul(out, w)) for out, w in zip(blocks, weights)))
            grads = tape.gradients(loss)
            return blocks, [grads.get(id(t)) for t in (x, *params)]

        got, got_grads = run(lambda rng: run_encoder_stack(
            x, lengths, store, "enc", num_heads=2, block=block, caps=MINI_CAPS,
            survival_end=0.5, dropout_rate=0.2, training=training, rng=rng,
            collect_blocks=True))
        want, want_grads = run(lambda rng: written_out_stack(
            x, lengths, store, training=training, rng=rng, dropout_rate=0.2))
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.data, w.data)
        final = run_encoder_stack(x, lengths, store, "enc", num_heads=2, block=block,
                                  caps=MINI_CAPS, survival_end=0.5,
                                  dropout_rate=0.2, training=training,
                                  rng=np.random.default_rng(13))
        np.testing.assert_array_equal(final.data, got[-1].data)
        skipped = [g is None for g in got_grads]
        assert skipped == [g is None for g in want_grads]
        assert any(skipped) == training   # stochastic depth drops a sublayer
        for g, w in zip(got_grads, want_grads):
            if g is not None:
                np.testing.assert_array_equal(g, w)
