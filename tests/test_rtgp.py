import numpy as np
import pytest

from socnav.core import PED_PART_DIM, ROBOT_PART_DIM
from socnav.dataset import Trajectory, compute_rtg
from socnav.features import canonicalize_joint
from socnav.gradcheck import grad_check
from socnav.rtgp import RtgPredictor, WindowBatch
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
        spatial, valid, current = (batch.spatial[batch.rows[0]], batch.valid[0],
                                   batch.current[0])
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
        rhat, _ = net.forward(store, *batch)
        assert rhat[0] == 0.0

    def test_embed_output_width(self, rng):
        net = small_net()
        store = net.init_store(0, dtype=np.float64)
        states, actions, rewards = fake_episode(rng, net)
        batch = net.window_batch([(states, actions, rewards)], [3])
        from socnav import nn
        f, _ = nn.dense_fwd(store, "embed_s",
                            np.asarray(batch[0], dtype=np.float64), relu=True)
        assert f.shape[-1] == net.hidden

    def test_param_count_matches_shape_audit(self):
        for peds, window in [(2, 4), (5, 10)]:
            net = RtgPredictor(num_peds=peds, window=window)
            store = net.init_store(0)
            assert store.num_params() == net.expected_param_count()

    def test_deterministic(self, rng):
        net = small_net()
        store = net.init_store(0)
        states, actions, rewards = fake_episode(rng, net)
        batch = net.window_batch([(states, actions, rewards)], [5])
        r1, _ = net.forward(store, *batch)
        r2, _ = net.forward(store, *batch)
        assert np.array_equal(r1, r2)

    def test_pedestrian_permutation_invariance_exact(self, rng):
        net = small_net()
        store = net.init_store(1)
        states, actions, rewards = fake_episode(rng, net)
        batch = net.window_batch([(states, actions, rewards)], [5])
        base, _ = net.forward(store, *batch)
        m = net.num_peds
        blocks = states[:, ROBOT_PART_DIM:].reshape(len(states), m, PED_PART_DIM)
        states_p = np.concatenate(
            [states[:, :ROBOT_PART_DIM], blocks[:, ::-1, :].reshape(len(states), -1)],
            axis=1)
        batch_p = net.window_batch([(states_p, actions, rewards)], [5])
        swapped, _ = net.forward(store, *batch_p)
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
        batch = [a.copy() for a in net.window_batch([(states, actions, rewards)], [0])]
        base, _ = net.forward(store, *batch)
        batch[0][0, :3] += 123.0   # spatial tokens of padded slots
        batch[1][0, :3] -= 7.0     # temporal tokens of padded slots
        out, _ = net.forward(store, *batch)
        assert np.array_equal(base, out)


class TestLoss:
    def test_perfect_prediction_zero_loss(self, rng):
        net = small_net()
        store = net.init_store(2, dtype=np.float64)
        states, actions, rewards = fake_episode(rng, net)
        batch = net.window_batch([(states, actions, rewards)] * 2, [2, 4])
        rhat, _ = net.forward(store, *batch)
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
            net.loss_and_grad(store, WindowBatch(
                spatial=np.zeros((1, 3, 9)), temporal=np.zeros((0, 4, 23)),
                valid=np.zeros((0, 4), bool), current=np.zeros((0, 20)),
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


    def test_gradcheck_through_shared_step_rows(self, rng):
        # overlapping windows of one episode read the same step rows, padded
        # slots read the shared zero row, and repeated windows carry counts
        net = small_net()
        store = net.init_store(3, dtype=np.float64)
        a, b = fake_episode(rng, net, steps=8), fake_episode(rng, net, steps=5)
        batch = net.window_batch([a, a, a, a, b, b], [7, 5, 2, 0, 4, 1])
        assert len(batch.spatial) == 1 + 8 + 5
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
        assert len(batch.spatial) == 1 + 2 * net.window
        rhat, _ = net.forward(store, *batch)
        for i, end in enumerate(ends):
            assert rhat[i] == pytest.approx(net.predict(store, *episode, end=end),
                                            abs=2e-6)


def per_slot_layout(batch):
    """The same windows with one spatial row per slot, as if no two slots
    shared a step (padded slots keep their all-zero token sets)."""
    B, W = batch.rows.shape
    spatial = batch.spatial[batch.rows].reshape(B * W, *batch.spatial.shape[1:])
    return batch._replace(spatial=spatial, rows=np.arange(B * W).reshape(B, W))


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
