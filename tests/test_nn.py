import numpy as np
import pytest

from socnav import nn
from socnav.gradcheck import grad_check


def f64_store():
    return nn.ParamStore(dtype=np.float64)


class TestDense:
    def test_identity_passthrough(self, rng):
        store = f64_store()
        nn.add_dense(store, "d", 4, 4, rng)
        store.blocks["d.W"][...] = np.eye(4)
        store.blocks["d.b"][...] = 0.0
        x = np.abs(rng.normal(size=(5, 4)))
        y, _ = nn.dense_fwd(store, "d", x, relu=True)
        np.testing.assert_array_equal(y, x)

    def test_dead_relu_region(self, rng):
        store = f64_store()
        nn.add_dense(store, "d", 3, 3, rng)
        store.blocks["d.W"][...] = np.eye(3)
        x = -np.abs(rng.normal(size=(4, 3))) - 0.1
        y, cache = nn.dense_fwd(store, "d", x, relu=True)
        assert np.all(y == 0.0)
        store.zero_grads()
        dx = nn.dense_bwd(store, cache, np.ones_like(y))
        assert np.all(dx == 0.0)

    def test_shape_mismatch(self, rng):
        store = f64_store()
        nn.add_dense(store, "d", 3, 2, rng)
        with pytest.raises(ValueError, match="width"):
            nn.dense_fwd(store, "d", rng.normal(size=(4, 5)))

    def test_gradcheck(self, rng):
        store = f64_store()
        nn.add_dense(store, "d", 6, 3, rng)
        x = rng.normal(size=(7, 6))
        t = rng.normal(size=(7, 3))

        def loss(s):
            s.zero_grads()
            y, c = nn.dense_fwd(s, "d", x, relu=True)
            L, dy = nn.mse_loss(y, t)
            nn.dense_bwd(s, c, dy)
            return L

        assert grad_check(loss, store, max_coords=100).max_rel_err < 1e-5


class TestLayerNorm:
    def test_constant_input_returns_bias(self, rng):
        store = f64_store()
        nn.add_layer_norm(store, "ln", 5)
        store.blocks["ln.b"][...] = rng.normal(size=5)
        x = np.full((3, 5), 2.7)
        y, _ = nn.layer_norm_fwd(store, "ln", x)
        np.testing.assert_allclose(y, np.broadcast_to(store["ln.b"], (3, 5)),
                                   atol=1e-12)

    def test_moments(self, rng):
        store = f64_store()
        nn.add_layer_norm(store, "ln", 64)
        g = rng.uniform(0.5, 2.0, size=64)
        b = rng.normal(size=64)
        store.blocks["ln.g"][...] = g
        store.blocks["ln.b"][...] = b
        x = rng.normal(size=(2000, 64)) * 3 + 1
        y, _ = nn.layer_norm_fwd(store, "ln", x)
        assert y.mean() == pytest.approx(b.mean(), abs=5e-3)
        centered = y - b
        assert (centered ** 2).mean() == pytest.approx((g ** 2).mean(), rel=5e-2)

    def test_gradcheck(self, rng):
        store = f64_store()
        nn.add_layer_norm(store, "ln", 6)
        store.blocks["ln.g"][...] = rng.normal(size=6)
        store.blocks["ln.b"][...] = rng.normal(size=6)
        x = rng.normal(size=(4, 6))
        t = rng.normal(size=(4, 6))

        def loss(s):
            s.zero_grads()
            y, c = nn.layer_norm_fwd(s, "ln", x)
            L, dy = nn.mse_loss(y, t)
            nn.layer_norm_bwd(s, c, dy)
            return L

        assert grad_check(loss, store, max_coords=100).max_rel_err < 1e-5


class TestAttention:
    def _store(self, rng, dim=8):
        store = f64_store()
        nn.add_attention(store, "att", dim, rng)
        return store

    def test_single_token_is_value_projection(self, rng):
        store = self._store(rng)
        x = rng.normal(size=(2, 1, 8))
        v_in = rng.normal(size=(2, 1, 8))
        out, cache = nn.attention_fwd(store, "att", x, x, v_in, num_heads=2)
        probs = cache[4]
        np.testing.assert_array_equal(probs, np.ones_like(probs))
        want = v_in @ store["att.out.W"] + store["att.out.b"]
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        store = self._store(rng)
        q = rng.normal(size=(3, 7, 8))
        _, cache = nn.attention_fwd(store, "att", q, q, q, 2, causal=True)
        probs = cache[4]
        np.testing.assert_allclose(probs.sum(-1), 1.0, atol=1e-12)

    def test_causal_jacobian_exactly_zero(self, rng):
        store = self._store(rng)
        x = rng.normal(size=(1, 6, 8))
        base, _ = nn.attention_fwd(store, "att", x, x, x, 2, causal=True)
        x2 = x.copy()
        x2[:, 4:, :] = rng.normal(size=(1, 2, 8)) * 100
        out, _ = nn.attention_fwd(store, "att", x2, x2, x2, 2, causal=True)
        assert np.array_equal(base[:, :4], out[:, :4])

    def test_padded_keys_get_zero_weight(self, rng):
        store = self._store(rng)
        x = rng.normal(size=(2, 5, 8))
        valid = np.array([[False, False, True, True, True], [True] * 5])
        _, cache = nn.attention_fwd(store, "att", x, x, x, 2, valid=valid)
        probs = cache[4]
        assert np.all(probs[0, :, :, :2] == 0.0)

    def test_head_split_error(self, rng):
        store = self._store(rng, dim=8)
        x = rng.normal(size=(1, 2, 8))
        with pytest.raises(ValueError, match="divisible"):
            nn.attention_fwd(store, "att", x, x, x, num_heads=3)

    @pytest.mark.parametrize("keys", [1, 2, 5, 6, 7])
    def test_short_row_reductions_give_numpy_bytes(self, rng, keys):
        # rows shorter than SHORT_ROW keys (the predictor's spatial blocks have
        # 6) reduce with elementwise ops over the key columns; the row max and
        # both row sums must match numpy's reductions bit for bit, with masked
        # keys, fully masked rows and signed zeros present
        scores = rng.normal(size=(64, 4, 6, keys)).astype(np.float32)
        scores[::3, ..., keys // 2] = 0.0
        scores[::4, ..., -1] = -0.0
        scores[::5, ..., :keys - 1] = -np.inf
        scores[1::7] = -np.inf
        probs = np.exp(scores)
        signed = probs * rng.normal(size=probs.shape).astype(np.float32)
        for ufunc, x, want in ((np.maximum, scores, scores.max(axis=-1, keepdims=True)),
                               (np.add, probs, probs.sum(axis=-1, keepdims=True)),
                               (np.add, signed, signed.sum(axis=-1, keepdims=True))):
            got = nn._reduce_keys(ufunc, x)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        assert keys < nn.SHORT_ROW

    def test_gradcheck_with_masks(self, rng):
        store = self._store(rng)
        q = rng.normal(size=(2, 4, 8))
        k = rng.normal(size=(2, 4, 8))
        v = rng.normal(size=(2, 4, 8))
        valid = np.array([[False, True, True, True], [True] * 4])
        t = rng.normal(size=(2, 4, 8))

        def loss(s):
            s.zero_grads()
            y, c = nn.attention_fwd(s, "att", q, k, v, 2, causal=True, valid=valid)
            L, dy = nn.mse_loss(y, t)
            nn.attention_bwd(s, c, dy)
            return L

        assert grad_check(loss, store, max_coords=120).max_rel_err < 1e-5


class TestEncoderBlock:
    def test_gradcheck(self, rng):
        store = f64_store()
        nn.add_encoder_block(store, "blk", 8, 12, rng)
        x = rng.normal(size=(2, 5, 8))
        t = rng.normal(size=(2, 5, 8))
        valid = np.array([[False, True, True, True, True], [True] * 5])

        def loss(s):
            s.zero_grads()
            y, c = nn.encoder_block_fwd(s, "blk", x, 2, causal=True, valid=valid)
            L, dy = nn.mse_loss(y, t)
            nn.encoder_block_bwd(s, c, dy)
            return L

        assert grad_check(loss, store, max_coords=300,
                          rng=np.random.default_rng(0)).max_rel_err < 1e-4

    def test_linear_path_gradcheck_is_tight(self, rng):
        # a plain dense layer is exactly linear in its weights: finite
        # differences agree to near machine precision
        store = f64_store()
        nn.add_dense(store, "lin", 4, 3, rng)
        x = rng.normal(size=(6, 4))
        dy_fixed = rng.normal(size=(6, 3))

        def loss(s):
            s.zero_grads()
            y, c = nn.dense_fwd(s, "lin", x)
            nn.dense_bwd(s, c, dy_fixed)
            return float((y * dy_fixed).sum())

        assert grad_check(loss, store, max_coords=30).max_rel_err < 1e-8


# -- reference forms: batched 3-D dense and five-term layer-norm backward ---

# float32 agreement bound, fixed before comparing: O(1) inputs, so an
# absolute floor covers entries that cancel to near zero
F32_TOL = dict(rtol=1e-5, atol=1e-5)

# (input shape, output width) of dense layers in the policy and predictor
# layouts at reduced size (D = 16, B = 4, K = W = 5, m + 1 = 3)
DENSE_LAYOUTS = {
    "policy-rtg-embed": ((4, 5, 1), 16),
    "policy-tokens": ((4, 15, 16), 16),
    "policy-head": ((4, 5, 16), 2),
    "predictor-spatial-embed": ((4, 5, 3, 9), 16),
    "predictor-spatial": ((20, 3, 16), 16),
    "predictor-merge": ((4, 5, 32), 16),
    "predictor-head": ((4, 32), 8),
}
# token layouts (batch, sequence, D) seen by layer norm and attention
TOKEN_LAYOUTS = {"policy": (4, 15, 16), "predictor-spatial": (20, 3, 16),
                 "predictor-temporal": (4, 5, 16)}


def dense_3d_reference(W, b, x, dy, relu):
    """The batched-matmul dense layer: (y, dx, dW, db)."""
    pre = x @ W + b
    y = np.maximum(pre, 0.0) if relu else pre
    if relu:
        dy = dy * (pre > 0)
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    return y, (dy @ W.T).reshape(x.shape), x2.T @ dy2, dy2.sum(axis=0)


def layer_norm_five_term_reference(g, b, x, dy):
    """Layer norm with the variance/mean chain-rule backward: (y, dx, dg, db)."""
    d = x.shape[-1]
    xc = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + nn.LN_EPS)
    xhat = xc * inv_std
    axes = tuple(range(dy.ndim - 1))
    dxhat = dy * g
    dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv_std ** 3
    dmu = -dxhat.sum(axis=-1, keepdims=True) * inv_std \
        + dvar * (-2.0) * xc.mean(axis=-1, keepdims=True)
    dx = dxhat * inv_std + dvar * (2.0 / d) * xc + dmu / d
    return g * xhat + b, dx, (dy * xhat).sum(axis=axes), dy.sum(axis=axes)


def f32(rng, shape):
    return rng.normal(size=shape).astype(np.float32)


class TestAgainstReferences:
    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    @pytest.mark.parametrize("layout", DENSE_LAYOUTS)
    def test_dense_matches_3d_reference(self, rng, layout, relu):
        shape, dout = DENSE_LAYOUTS[layout]
        store = nn.ParamStore()
        nn.add_dense(store, "d", shape[-1], dout, rng)
        store.blocks["d.b"][...] = f32(rng, dout)
        x = f32(rng, shape)
        # a strided gradient, as the policy hands its embeddings
        dy = f32(rng, (*shape[:-1], 3 * dout))[..., ::3]
        y, cache = nn.dense_fwd(store, "d", x, relu=relu)
        store.zero_grads()
        dx = nn.dense_bwd(store, cache, dy)
        ref = dense_3d_reference(store["d.W"], store["d.b"], x, dy, relu)
        for got, want in zip((y, dx, store.grads["d.W"], store.grads["d.b"]), ref):
            assert got.dtype == np.float32 and got.shape == want.shape
            np.testing.assert_allclose(got, want, **F32_TOL)

    @pytest.mark.parametrize("layout", TOKEN_LAYOUTS)
    def test_layer_norm_matches_five_term_reference(self, rng, layout):
        shape = TOKEN_LAYOUTS[layout]
        store = nn.ParamStore()
        nn.add_layer_norm(store, "ln", shape[-1])
        store.blocks["ln.g"][...] = 1.0 + 0.5 * f32(rng, shape[-1])
        store.blocks["ln.b"][...] = f32(rng, shape[-1])
        x = f32(rng, shape) * 3 + 1
        dy = f32(rng, shape)
        y, cache = nn.layer_norm_fwd(store, "ln", x)
        store.zero_grads()
        dx = nn.layer_norm_bwd(store, cache, dy)
        ref = layer_norm_five_term_reference(store["ln.g"], store["ln.b"], x, dy)
        for got, want in zip((y, dx, store.grads["ln.g"], store.grads["ln.b"]), ref):
            assert got.dtype == np.float32 and got.shape == want.shape
            np.testing.assert_allclose(got, want, **F32_TOL)

    @pytest.mark.parametrize("layout", TOKEN_LAYOUTS)
    def test_unmasked_attention_equals_all_valid_mask(self, rng, layout):
        B, T, D = TOKEN_LAYOUTS[layout]
        store = nn.ParamStore()
        nn.add_attention(store, "att", D, rng)
        q, k, v = (np.maximum(f32(rng, (B, T, D)), 0.0) for _ in range(3))
        dy = f32(rng, (B, T, D))
        runs = []
        for valid in (None, np.ones((B, T), dtype=bool)):
            out, cache = nn.attention_fwd(store, "att", q, k, v, 2, valid=valid)
            store.zero_grads()
            grads = nn.attention_bwd(store, cache, dy)
            runs.append((out, cache[4], *grads, *(g.copy() for g in store.grads.values())))
        for unmasked, masked in zip(*runs):
            assert np.array_equal(unmasked, masked)


def backward_twice(store, backward, cache, dy):
    """Run `backward` twice on one cache; both runs must give the same bytes
    and leave dy as it was."""
    before = dy.copy()
    runs = []
    for _ in range(2):
        store.zero_grads()
        dx = backward(store, cache, dy)
        runs.append([*(dx if isinstance(dx, tuple) else (dx,)),
                     *(g.copy() for g in store.grads.values())])
    assert np.array_equal(dy, before)
    for first, second in zip(*runs):
        assert first.tobytes() == second.tobytes()


class TestBackwardIsRepeatable:
    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    def test_dense(self, rng, relu):
        store = nn.ParamStore()
        nn.add_dense(store, "d", 16, 16, rng)
        y, cache = nn.dense_fwd(store, "d", f32(rng, (4, 15, 16)), relu=relu)
        backward_twice(store, nn.dense_bwd, cache, f32(rng, y.shape))

    def test_layer_norm(self, rng):
        store = nn.ParamStore()
        nn.add_layer_norm(store, "ln", 16)
        y, cache = nn.layer_norm_fwd(store, "ln", f32(rng, (20, 3, 16)))
        backward_twice(store, nn.layer_norm_bwd, cache, f32(rng, y.shape))

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_attention(self, rng, masked):
        store = nn.ParamStore()
        nn.add_attention(store, "att", 16, rng)
        x = f32(rng, (4, 5, 16))
        valid = np.array([[False, True, True, True, True]] * 4) if masked else None
        y, cache = nn.attention_fwd(store, "att", x, x, x, 2, causal=masked, valid=valid)
        backward_twice(store, nn.attention_bwd, cache, f32(rng, y.shape))

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_encoder_block(self, rng, masked):
        store = nn.ParamStore()
        nn.add_encoder_block(store, "blk", 16, 24, rng)
        valid = np.array([[False, True, True, True, True]] * 4) if masked else None
        y, cache = nn.encoder_block_fwd(store, "blk", f32(rng, (4, 5, 16)), 2,
                                        causal=masked, valid=valid)
        backward_twice(store, nn.encoder_block_bwd, cache, f32(rng, y.shape))


class TestMseLoss:
    def test_perfect_prediction(self, rng):
        x = rng.normal(size=(4, 3))
        loss, grad = nn.mse_loss(x, x.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_constant_predictor_equals_variance(self, rng):
        t = rng.normal(size=1000)
        pred = np.full(1000, t.mean())
        loss, _ = nn.mse_loss(pred, t)
        assert loss == pytest.approx(t.var(), rel=1e-12)


class TestLamb:
    def test_zero_gradient_no_change(self, rng):
        store = nn.ParamStore()
        store.add("w", rng.normal(size=(4, 4)))
        before = store["w"].copy()
        store.zero_grads()
        nn.lamb_step(store, lr=5e-4)
        np.testing.assert_array_equal(store["w"], before)

    def test_quadratic_bowl_strictly_decreasing(self, rng):
        store = nn.ParamStore(dtype=np.float64)
        store.add("w", rng.normal(size=16) * 2)
        norms = []
        for _ in range(200):
            store.zero_grads()
            store.grads["w"][...] = 2.0 * store["w"]
            nn.lamb_step(store, lr=5e-4)
            norms.append(float(np.linalg.norm(store["w"])))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_trust_ratio_clipped(self):
        store = nn.ParamStore(dtype=np.float64)
        store.add("w", np.full(4, 1e6))       # huge weight norm
        store.grads["w"][...] = 1e-12          # tiny update
        nn.lamb_step(store, lr=1.0, trust_clip=10.0)
        # |delta| = lr * trust * |update|, trust capped at 10
        delta = np.abs(store["w"] - 1e6).max()
        assert delta <= 10.0 * 1.0 * 1e-5 + 1e-9

    def test_nonfinite_gradient_names_block(self, rng):
        store = nn.ParamStore()
        store.add("good", rng.normal(size=3))
        store.add("bad.W", rng.normal(size=3))
        store.grads["bad.W"][1] = np.nan
        with pytest.raises(nn.OptimizerError, match="bad.W"):
            nn.lamb_step(store, lr=1e-3)

    def test_decoupled_weight_decay_shrinks(self):
        store = nn.ParamStore(dtype=np.float64)
        store.add("w", np.ones(4))
        store.zero_grads()
        nn.lamb_step(store, lr=1e-2, weight_decay=0.1)
        assert np.all(store["w"] < 1.0)


class TestParamStore:
    def test_duplicate_name_rejected(self, rng):
        store = nn.ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", np.zeros(2))

    def test_checkpoint_roundtrip_bytes(self, rng):
        store = nn.ParamStore()
        store.add("a", rng.normal(size=(3, 4)).astype(np.float32))
        store.add("b", rng.normal(size=7).astype(np.float32))
        store.m["a"][...] = 0.5
        store.step = 42
        data = store.to_bytes(extra={"tag": "x"})
        loaded, extra, _ = nn.ParamStore.from_bytes(data)
        assert extra == {"tag": "x"}
        assert loaded.step == 42
        assert np.array_equal(loaded["a"], store["a"])
        assert np.array_equal(loaded.m["a"], store.m["a"])
        assert loaded.to_bytes(extra={"tag": "x"}) == data

    def test_astype_roundtrip(self, rng):
        store = nn.ParamStore()
        store.add("a", rng.normal(size=4).astype(np.float32))
        d64 = store.astype(np.float64)
        assert d64["a"].dtype == np.float64
        np.testing.assert_array_equal(d64["a"].astype(np.float32), store["a"])

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            nn.ParamStore.from_bytes(b"garbage-bytes-here")
