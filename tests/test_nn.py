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
