import numpy as np
import pytest

from socnav import nn
from socnav.core import PED_PART_DIM, ROBOT_PART_DIM
from socnav.dataset import Trajectory, compute_rtg
from socnav.features import SPATIAL_TOKEN_DIM, Windows, canonicalize_joint
from socnav.gradcheck import grad_check
from socnav.rtgp import RtgPredictor
from socnav.trainer import rtgp_batch_from


def small_net(num_peds=2, window=4):
    return RtgPredictor(num_peds=num_peds, window=window, hidden_dim=16,
                        num_heads=2, ffn_dim=16, head_hidden=8)


def fake_episode(rng, net, steps=6):
    states = rng.normal(size=(steps, net.joint_dim))
    states[:, 0] = np.abs(states[:, 0])
    actions = rng.normal(size=(steps, 2)) * 0.5
    rewards = rng.normal(size=steps) * 0.1
    return states, actions, rewards


class TestFeatures:
    def test_canonical_sort_is_permutation_invariant(self, rng):
        m = 4
        joint = rng.normal(size=(3, ROBOT_PART_DIM + m * PED_PART_DIM))
        canon = canonicalize_joint(joint, m)
        perm = rng.permutation(m)
        blocks = joint[:, ROBOT_PART_DIM:].reshape(3, m, PED_PART_DIM)
        joint_p = np.concatenate(
            [joint[:, :ROBOT_PART_DIM], blocks[:, perm, :].reshape(3, -1)], axis=1)
        np.testing.assert_array_equal(canonicalize_joint(joint_p, m), canon)

    def test_canonical_sorts_by_distance(self, rng):
        m = 3
        joint = rng.normal(size=(ROBOT_PART_DIM + m * PED_PART_DIM,))
        canon = canonicalize_joint(joint, m)
        d = canon[ROBOT_PART_DIM:].reshape(m, PED_PART_DIM)[:, 5]
        assert np.all(np.diff(d) >= 0)

    def test_window_front_padding_and_prev_transition(self, rng):
        net = small_net()
        states, actions, rewards = fake_episode(rng, net, steps=3)
        batch = net.window_batch([(states, actions, rewards)], [1])
        spatial, valid, current = (batch.slots("spatial")[0], batch.rows[0] > 0,
                                   batch.slots("tokens")[0, -1, :net.joint_dim])
        assert valid.tolist() == [False, False, True, True]
        assert np.all(spatial[:2] == 0.0)
        # first real step is the episode start: zero previous action/reward
        assert np.all(spatial[2, 0, ROBOT_PART_DIM:] == 0.0)
        # second real step carries the previous transition
        np.testing.assert_array_equal(
            spatial[3, 0, ROBOT_PART_DIM:ROBOT_PART_DIM + 2], actions[0])
        assert spatial[3, 0, ROBOT_PART_DIM + 2] == rewards[0]
        np.testing.assert_array_equal(current, canonicalize_joint(states, 2)[1])


class TestForward:
    def test_zero_params_give_zero_estimate(self, rng):
        net = small_net()
        store = net.init_store(0, dtype=np.float64)
        for name in store.blocks:
            store.blocks[name][...] = 0.0
        states, actions, rewards = fake_episode(rng, net)
        batch = net.window_batch([(states, actions, rewards)], [3])
        rhat = net.predict_batch(store, batch)
        assert rhat[0] == 0.0

    def test_embed_output_width(self, rng):
        net = small_net()
        store = net.init_store(0, dtype=np.float64)
        states, actions, rewards = fake_episode(rng, net)
        batch = net.window_batch([(states, actions, rewards)], [3])
        from socnav import nn
        f, _ = nn.dense_fwd(store, "embed_s", batch.tables["spatial"], relu=True)
        assert f.shape[-1] == net.hidden

    def test_param_count_matches_shape_audit(self):
        for peds, window in [(2, 4), (5, 10)]:
            net = RtgPredictor(num_peds=peds, window=window)
            D, F = net.hidden, net.ffn
            dense = lambda i, o: i * o + o
            block = 3 * dense(D, D) + dense(D, D) + 2 * D + dense(D, F) + dense(F, D)
            expected = (dense(SPATIAL_TOKEN_DIM, D) + dense(net.temporal_dim, D)
                        + net.window * D
                        + 4 * block + dense(2 * D, D) + dense(net.joint_dim, D)
                        + dense(2 * D, net.head_hidden) + dense(net.head_hidden, 1))
            assert net.init_store(0).num_params() == expected

    def test_deterministic(self, rng):
        net = small_net()
        store = net.init_store(0)
        states, actions, rewards = fake_episode(rng, net)
        batch = net.window_batch([(states, actions, rewards)], [5])
        r1 = net.predict_batch(store, batch)
        r2 = net.predict_batch(store, batch)
        assert np.array_equal(r1, r2)

    def test_pedestrian_permutation_invariance_exact(self, rng):
        net = small_net()
        store = net.init_store(1)
        states, actions, rewards = fake_episode(rng, net)
        batch = net.window_batch([(states, actions, rewards)], [5])
        base = net.predict_batch(store, batch)
        m = net.num_peds
        blocks = states[:, ROBOT_PART_DIM:].reshape(len(states), m, PED_PART_DIM)
        states_p = np.concatenate(
            [states[:, :ROBOT_PART_DIM], blocks[:, ::-1, :].reshape(len(states), -1)],
            axis=1)
        batch_p = net.window_batch([(states_p, actions, rewards)], [5])
        swapped = net.predict_batch(store, batch_p)
        assert np.array_equal(base, swapped)

    def test_future_steps_do_not_change_estimate(self, rng):
        # estimate at step t is built from the window ending at t only
        net = small_net()
        store = net.init_store(1)
        states, actions, rewards = fake_episode(rng, net, steps=6)
        r_then = net.predict(store, states[:4], actions[:4], rewards[:4], end=3)
        states2 = states.copy()
        states2[4:] += 100.0
        r_now = net.predict(store, states2, actions, rewards, end=3)
        assert r_then == r_now

    def test_padded_slots_do_not_leak(self, rng):
        net = small_net()
        store = net.init_store(1)
        states, actions, rewards = fake_episode(rng, net)
        batch = net.window_batch([(states, actions, rewards)], [0])
        base = net.predict_batch(store, batch)
        tables = {name: table.copy() for name, table in batch.tables.items()}
        tables["spatial"][0, :3] += 123.0   # spatial tokens of padded slots
        tables["tokens"][0] -= 7.0          # temporal tokens of padded slots
        out = net.predict_batch(store, Windows(tables, batch.rows))
        assert np.array_equal(base, out)


class TestLoss:
    def test_perfect_prediction_zero_loss(self, rng):
        net = small_net()
        store = net.init_store(2, dtype=np.float64)
        states, actions, rewards = fake_episode(rng, net)
        batch = net.window_batch([(states, actions, rewards)] * 2, [2, 4])
        rhat = net.predict_batch(store, batch)
        loss, _ = net.loss_and_grad(store, batch, rhat)
        assert loss == 0.0

    def test_constant_predictor_loss_is_variance(self, rng):
        net = small_net()
        store = net.init_store(2, dtype=np.float64)
        for name in store.blocks:
            store.blocks[name][...] = 0.0
        store.blocks["head2.b"][...] = 0.7   # constant output 0.7
        states, actions, rewards = fake_episode(rng, net, steps=8)
        batch = net.window_batch([(states, actions, rewards)] * 5, [1, 3, 4, 6, 7])
        targets = rng.normal(size=5)
        loss, rhat = net.loss_and_grad(store, batch, targets)
        np.testing.assert_allclose(rhat, 0.7, atol=1e-12)
        assert loss == pytest.approx(((targets - 0.7) ** 2).mean(), rel=1e-12)

    def test_empty_batch_rejected(self):
        net = small_net()
        store = net.init_store(0)
        with pytest.raises(ValueError, match="empty"):
            net.loss_and_grad(store, Windows(
                {"spatial": np.zeros((1, 3, 9)), "tokens": np.zeros((1, 23))},
                rows=np.zeros((0, 4), np.intp)), [])

    def test_full_gradcheck(self, rng):
        net = small_net()
        store = net.init_store(3, dtype=np.float64)
        episodes = [fake_episode(rng, net) for _ in range(3)]
        batch = net.window_batch(episodes, [5, 2, 0])
        targets = rng.normal(size=3)

        def loss(s):
            L, _ = net.loss_and_grad(s, batch, targets)
            return L

        rep = grad_check(loss, store, max_coords=250, rng=np.random.default_rng(5))
        assert rep.max_rel_err < 1e-4

    def test_every_block_gets_a_gradient_on_a_padded_batch(self, rng):
        # a parameter block whose gradient is exactly zero changes no output
        net = small_net()
        store = net.init_store(3)
        batch = net.window_batch([fake_episode(rng, net) for _ in range(3)], [5, 2, 0])
        assert (batch.rows == 0).any()
        net.loss_and_grad(store, batch, rng.normal(size=3))
        assert [name for name, g in store.grads.items() if not g.any()] == []

    def test_gradcheck_through_shared_step_rows(self, rng):
        # overlapping windows of one episode read the same step rows, padded
        # slots read the shared zero row, and repeated windows carry counts
        net = small_net()
        store = net.init_store(3, dtype=np.float64)
        a, b = fake_episode(rng, net, steps=8), fake_episode(rng, net, steps=5)
        batch = net.window_batch([a, a, a, a, b, b], [7, 5, 2, 0, 4, 1])
        assert len(batch.tables["spatial"]) == 1 + 8 + 5
        assert (batch.rows == 0).any()
        counts = np.array([2, 1, 3, 1, 1, 2])
        targets = rng.normal(size=6)

        def loss(s):
            L, _ = net.loss_and_grad(s, batch, targets, counts)
            return L

        rep = grad_check(loss, store, max_coords=250, rng=np.random.default_rng(6))
        assert rep.max_rel_err < 1e-4

    def test_steps_no_window_reads_take_no_row(self, rng):
        # two far-apart windows of one episode encode their 2W steps, not
        # the whole span between them, and predict as they do alone
        net = small_net()
        store = net.init_store(8)
        episode = fake_episode(rng, net, steps=30)
        ends = [net.window - 1, 29]
        batch = net.window_batch([episode, episode], ends)
        assert len(batch.tables["spatial"]) == 1 + 2 * net.window
        rhat = net.predict_batch(store, batch)
        for i, end in enumerate(ends):
            assert rhat[i] == pytest.approx(net.predict(store, *episode, end=end),
                                            abs=2e-6)


def per_slot_layout(batch):
    """The same windows with one row per real slot in every table, as if
    no two slots shared a step (padded slots read the padding row 0)."""
    B, W = batch.rows.shape
    rows = np.where(batch.rows > 0, np.arange(1, B * W + 1).reshape(B, W), 0)
    return Windows({name: np.concatenate([table[:1], batch.slots(name).reshape(
        B * W, *table.shape[1:])]) for name, table in batch.tables.items()}, rows)


class TestDistinctWindows:
    def test_weighted_distinct_batch_matches_duplicated(self, rng):
        # grouping repeated draws and sharing step rows changes float32
        # summation order only: loss and every gradient block agree with one
        # per-slot window per draw within a bound fixed in advance
        net = small_net(window=5)
        trajs = []
        for steps in (9, 4):
            states, actions, rewards = fake_episode(rng, net, steps=steps)
            trajs.append(Trajectory(states=states, actions=actions, rewards=rewards,
                                    rtg=compute_rtg(rewards, 0.99), outcome="timeout",
                                    duration=1.0, seed=steps))
        draws = ([(trajs[0], int(e)) for e in rng.integers(0, 9, size=40)]
                 + [(trajs[1], int(e)) for e in rng.integers(0, 4, size=16)])
        distinct, targets, counts = rtgp_batch_from(draws, net)
        assert len(counts) < len(draws) == counts.sum()

        results = []
        for batch, tgt, cnt in ((distinct, targets, counts),
                                (per_slot_layout(net.window_batch(
                                    [(t.states, t.actions, t.rewards) for t, _ in draws],
                                    [e for _, e in draws])),
                                 np.array([t.rtg[e] for t, e in draws]), None)):
            store = net.init_store(7)
            loss, _ = net.loss_and_grad(store, batch, tgt, cnt)
            results.append((loss, {k: g.copy() for k, g in store.grads.items()}))
        (loss_d, grads_d), (loss_full, grads_full) = results
        np.testing.assert_allclose(loss_d, loss_full, rtol=1e-5, atol=1e-5)
        for name, g in grads_full.items():
            assert grads_d[name].dtype == np.float32
            np.testing.assert_allclose(grads_d[name], g, rtol=1e-5, atol=1e-5,
                                       err_msg=name)


class TestPredictSequence:
    def test_matches_single_predictions_bitwise(self, rng):
        net = small_net()
        store = net.init_store(4)
        states, actions, rewards = fake_episode(rng, net, steps=5)
        seq = net.predict_sequence(store, states, actions, rewards)
        for t in range(5):
            # batched and single-sample forwards share code and batch layout
            one = net.predict(store, states[:t + 1], actions[:t + 1],
                              rewards[:t + 1], end=t)
            assert seq[t] == pytest.approx(one, abs=2e-6)


class AllSlotsPredictor(RtgPredictor):
    """Reference window part: merge and spatial2 run on every slot, padded
    ones included (reading the padding row's encoding), and the slot
    gradients reach the step rows through np.add.at."""

    def forward(self, store, fs_rows, temporal, rows):
        dt = store.dtype
        temporal = np.ascontiguousarray(temporal, dtype=dt)
        current = np.ascontiguousarray(temporal[:, -1, :self.joint_dim])
        valid = rows > 0
        S, M1, _ = fs_rows.shape
        B, W = rows.shape
        D = self.hidden
        summary = fs_rows.mean(axis=1)[rows]
        te, c_et = nn.dense_fwd(store, "embed_t", temporal, relu=True)
        ft, c_t1 = nn.encoder_block_fwd(store, "temporal1", te + store["pos"], self.heads,
                                        causal=True, valid=valid)
        merged, c_m = nn.dense_fwd(store, "merge", np.concatenate([summary, ft], axis=-1),
                                   relu=True)
        tok2 = fs_rows[rows]
        tok2 += merged[:, :, None, :]
        s2_flat, c_s2 = nn.encoder_block_fwd(store, "spatial2",
                                             tok2.reshape(B * W, M1, D), self.heads)
        s2 = s2_flat.reshape(B, W, M1, D).mean(axis=2)
        fst, c_t2 = nn.encoder_block_fwd(store, "temporal2", s2, self.heads,
                                         causal=True, valid=valid)
        nvalid = valid.sum(axis=1, keepdims=True).astype(dt)
        avg = (fst * valid[..., None]).sum(axis=1) / nvalid
        cur_emb, c_ec = nn.dense_fwd(store, "embed_cur", current, relu=True)
        h1, c_h1 = nn.dense_fwd(store, "head1", np.concatenate([avg, cur_emb], axis=-1),
                                relu=True)
        out, c_h2 = nn.dense_fwd(store, "head2", h1)
        return out[:, 0], (S, M1, rows, valid, nvalid, c_et, c_t1, c_m,
                           c_s2, c_t2, c_ec, c_h1, c_h2)

    def backward(self, store, cache, drhat):
        (S, M1, rows, valid, nvalid, c_et, c_t1, c_m, c_s2,
         c_t2, c_ec, c_h1, c_h2) = cache
        B, W = rows.shape
        D = self.hidden
        dh1 = nn.dense_bwd(store, c_h2, drhat[:, None].astype(store.dtype))
        dhin = nn.dense_bwd(store, c_h1, dh1)
        nn.dense_bwd(store, c_ec, dhin[:, D:])
        dfst = valid[..., None] * (dhin[:, None, :D] / nvalid[:, :, None])
        ds2 = nn.encoder_block_bwd(store, c_t2, dfst)
        ds2_tok = np.broadcast_to(ds2[:, :, None, :] / M1, (B, W, M1, D))
        dfs = nn.encoder_block_bwd(store, c_s2, np.ascontiguousarray(
            ds2_tok.reshape(B * W, M1, D))).reshape(B, W, M1, D)
        dcat = nn.dense_bwd(store, c_m, dfs.sum(axis=2))
        dx_t = nn.encoder_block_bwd(store, c_t1, np.ascontiguousarray(dcat[..., D:]))
        store.accumulate("pos", dx_t.sum(axis=0))
        nn.dense_bwd(store, c_et, dx_t * valid[..., None])
        dfs += dcat[:, :, None, :D] / M1
        dfs_rows = np.zeros((S, M1, D), dtype=dfs.dtype)
        np.add.at(dfs_rows, rows.reshape(-1), dfs.reshape(B * W, M1, D))
        return dfs_rows


# (net, episode lengths, windows drawn): the tests' shapes and the published
# ones (5 pedestrians, W = 20, D = 128), where about a quarter of the slots
# are front padding
REAL_SLOT_SHAPES = {
    "small": (dict(num_peds=2, window=4, hidden_dim=16, num_heads=2, ffn_dim=16,
                   head_hidden=8), (9, 3, 6), 24),
    "published": (dict(num_peds=5, window=20), (52, 25, 31), 64),
}


class TestRealSlotsOnly:
    @pytest.fixture(params=list(REAL_SLOT_SHAPES))
    def setup(self, request, rng):
        kwargs, lengths, draws = REAL_SLOT_SHAPES[request.param]
        net, ref = RtgPredictor(**kwargs), AllSlotsPredictor(**kwargs)
        episodes = [fake_episode(rng, net, steps=n) for n in lengths]
        picks = rng.integers(0, len(episodes), size=draws)
        ends = [int(rng.integers(0, lengths[i])) for i in picks]
        batch = net.window_batch([episodes[i] for i in picks], ends)
        assert not (batch.rows > 0).all()
        return net, ref, net.init_store(11), episodes, batch, rng.normal(size=draws)

    def test_forward_bytes_match_all_slots(self, setup):
        net, ref, store, episodes, batch, _ = setup
        assert net.predict_batch(store, batch).tobytes() == \
            ref.predict_batch(store, batch).tobytes()
        for episode in episodes:
            assert net.predict_sequence(store, *episode).tobytes() == \
                ref.predict_sequence(store, *episode).tobytes()
            # a window alone, as acting predicts it, down to one real slot
            for end in range(3):
                assert net.predict(store, *episode, end=end) == \
                    ref.predict(store, *episode, end=end)

    def test_gradients_close_to_all_slots(self, setup):
        # the GEMMs sum over fewer rows: float32 rounding differs, nothing more
        net, ref, store, _, batch, targets = setup
        grads = []
        for model in (net, ref):
            loss, rhat = model.loss_and_grad(store, batch, targets)
            grads.append((loss, {k: g.copy() for k, g in store.grads.items()}))
        (loss, got), (loss_ref, want) = grads
        assert loss == loss_ref
        for name, g in want.items():
            np.testing.assert_allclose(got[name], g, rtol=1e-5,
                                       atol=1e-5 * np.abs(g).max(), err_msg=name)

