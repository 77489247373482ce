import math

import numpy as np
import pytest

from socnav.dataset import Trajectory, compute_rtg
from socnav.features import clip_action_norm
from socnav.gradcheck import grad_check
from socnav.policy import (Actor, DtPolicy, TokenSequence, squash_bwd, squash_fwd,
                           tokenize)
from socnav.rtgp import RtgPredictor
from socnav.trainer import policy_batch_from


def small_policy(num_peds=2, context=4):
    return DtPolicy(num_peds=num_peds, context=context, hidden_dim=16,
                    num_heads=2, ffn_dim=16, num_blocks=2, v_max=1.0)


def fake_episode(rng, jd, steps=6):
    states = rng.normal(size=(steps, jd))
    actions = rng.normal(size=(steps, 2)) * 0.5
    rewards = rng.normal(size=steps) * 0.1
    return states, actions, rewards


def random_batch(rng, pol, B=3):
    K = pol.context
    rtg = rng.normal(size=(B, K))
    states = rng.normal(size=(B, K, pol.joint_dim))
    actions = rng.normal(size=(B, K, 2)) * 0.5
    sv = np.ones((B, K), dtype=bool)
    sv[0, :2] = False
    av = sv.copy()
    av[1, -1] = False
    return rtg, states, actions, sv, av


class TestSquash:
    def test_norm_bounded(self, rng):
        # mathematically |a| = tanh(|z|) < 1; in floats tanh saturates to
        # exactly 1.0, so the bound is met up to one rounding step
        z = rng.normal(size=(1000, 2)) * 20
        a, _ = squash_fwd(z, 1.0)
        assert np.all(np.linalg.norm(a, axis=-1) <= 1.0 + 1e-12)
        moderate, _ = squash_fwd(z / 10, 1.0)
        assert np.all(np.linalg.norm(moderate, axis=-1) < 1.0)

    def test_identity_near_origin(self):
        z = np.array([[1e-8, -2e-8]])
        a, _ = squash_fwd(z, 1.0)
        np.testing.assert_allclose(a, z, rtol=1e-6)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(20):
            z = rng.normal(size=(1, 2)) * rng.uniform(0.1, 3)
            da = rng.normal(size=(1, 2))
            _, cache = squash_fwd(z, 1.0)
            dz = squash_bwd(cache, da, 1.0)
            h = 1e-6
            for i in range(2):
                zp, zm = z.copy(), z.copy()
                zp[0, i] += h
                zm[0, i] -= h
                ap, _ = squash_fwd(zp, 1.0)
                am, _ = squash_fwd(zm, 1.0)
                num = ((ap - am) / (2 * h) * da).sum()
                assert num == pytest.approx(dz[0, i], rel=1e-4, abs=1e-8)


class TestForward:
    def test_outputs_bounded_for_any_params(self, rng):
        pol = small_policy()
        store = pol.init_store(0, dtype=np.float64)
        for name in store.blocks:   # exaggerate the parameters
            store.blocks[name][...] = rng.normal(size=store[name].shape) * 5
        batch = random_batch(rng, pol)
        a_hat, _ = pol.forward(store, *batch)
        assert np.all(np.linalg.norm(a_hat, axis=-1) <= 1.0)

    def test_causality_exact(self, rng):
        pol = small_policy()
        store = pol.init_store(1)
        rtg, states, actions, sv, av = random_batch(rng, pol)
        base, _ = pol.forward(store, rtg, states, actions, sv, av)
        rtg2, st2, ac2 = rtg.copy(), states.copy(), actions.copy()
        rtg2[:, 2:] += 9.0
        st2[:, 2:] += 9.0
        ac2[:, 2:] += 9.0
        out, _ = pol.forward(store, rtg2, st2, ac2, sv, av)
        assert np.array_equal(base[:, :2], out[:, :2])

    def test_param_count_matches_shape_audit(self):
        pol = DtPolicy(num_peds=5, context=20)
        store = pol.init_store(0)
        assert store.num_params() == pol.expected_param_count()

    def test_action_token_not_visible_to_own_step(self, rng):
        # prediction at step u reads the state token, which precedes the
        # action token of the same step in the causal order
        pol = small_policy()
        store = pol.init_store(2)
        rtg, states, actions, sv, av = random_batch(rng, pol)
        base, _ = pol.forward(store, rtg, states, actions, sv, av)
        ac2 = actions.copy()
        ac2[:, -1] = 77.0   # mutate the final action token
        out, _ = pol.forward(store, rtg, states, ac2, sv, av)
        assert np.array_equal(base[:, -1], out[:, -1])


class TestLoss:
    def test_zero_when_targets_equal_output(self, rng):
        pol = small_policy()
        store = pol.init_store(3, dtype=np.float64)
        batch = random_batch(rng, pol)
        a_hat, _ = pol.forward(store, *batch)
        loss, _ = pol.loss_and_grad(store, batch, a_hat.copy())
        assert loss == 0.0

    def test_unit_actions_zero_policy(self, rng):
        pol = small_policy()
        store = pol.init_store(0, dtype=np.float64)
        for name in store.blocks:
            store.blocks[name][...] = 0.0
        B, K = 2, pol.context
        batch = (np.zeros((B, K)), np.zeros((B, K, pol.joint_dim)),
                 np.zeros((B, K, 2)), np.ones((B, K), bool), np.ones((B, K), bool))
        targets = np.zeros((B, K, 2))
        targets[..., 0] = 1.0
        loss, _ = pol.loss_and_grad(store, batch, targets)
        assert loss == 1.0

    def test_matches_naive_loop(self, rng):
        pol = small_policy()
        store = pol.init_store(4, dtype=np.float64)
        batch = random_batch(rng, pol)
        targets = rng.normal(size=(3, pol.context, 2)) * 0.5
        loss, a_hat = pol.loss_and_grad(store, batch, targets)
        total, count = 0.0, 0
        sv = batch[3]
        for b in range(3):
            for k in range(pol.context):
                if sv[b, k]:
                    total += ((a_hat[b, k] - targets[b, k]) ** 2).sum()
                    count += 1
        assert loss == pytest.approx(total / count, abs=1e-12)

    def test_batch_order_invariant_exactly(self, rng):
        pol = small_policy()
        store = pol.init_store(5, dtype=np.float64)
        batch = random_batch(rng, pol)
        targets = rng.normal(size=(3, pol.context, 2))
        l1, _ = pol.loss_and_grad(store, batch, targets)
        perm = [2, 0, 1]
        batch_p = tuple(x[perm] for x in batch)
        l2, _ = pol.loss_and_grad(store, batch_p, targets[perm])
        assert l1 == l2

    def test_empty_batch_rejected(self, rng):
        pol = small_policy()
        store = pol.init_store(0)
        with pytest.raises(ValueError, match="empty"):
            pol.loss_and_grad(store, (np.zeros((0, 4)),) * 5, np.zeros((0, 4, 2)))

    def test_full_gradcheck(self, rng):
        pol = small_policy()
        store = pol.init_store(6, dtype=np.float64)
        batch = random_batch(rng, pol)
        targets = rng.normal(size=(3, pol.context, 2)) * 0.5

        def loss(s):
            L, _ = pol.loss_and_grad(s, batch, targets)
            return L

        rep = grad_check(loss, store, max_coords=250, rng=np.random.default_rng(8))
        assert rep.max_rel_err < 1e-4

    def test_weighted_distinct_batch_matches_duplicated(self, rng):
        # one window per distinct draw weighted by its count: the loss and
        # every gradient block agree with the batch holding each draw, within
        # a float32 bound fixed in advance
        pol = small_policy(context=5)
        trajs = []
        for steps in (9, 4):
            states, actions, rewards = fake_episode(rng, pol.joint_dim, steps=steps)
            trajs.append(Trajectory(states=states, actions=actions, rewards=rewards,
                                    rtg=compute_rtg(rewards, 0.99), outcome="timeout",
                                    duration=1.0, seed=steps))
        draws = ([(trajs[0], int(e)) for e in rng.integers(0, 9, size=40)]
                 + [(trajs[1], int(e)) for e in rng.integers(0, 4, size=16)])
        batch, targets, counts = policy_batch_from(draws, pol, [t.rtg for t, _ in draws])
        assert len(counts) < len(draws) == counts.sum()
        full = tokenize([(t.states, t.actions, t.rtg) for t, _ in draws],
                        [e for _, e in draws], context=5, num_peds=pol.num_peds)
        full_targets = clip_action_norm(full.actions, pol.v_max)

        head = rng.normal(size=(pol.hidden, 2)) * 0.1   # a zero head has no gradient below it
        results = []
        for args in ((batch, targets, counts), (full, full_targets)):
            store = pol.init_store(9)
            store.blocks["head.W"][...] = head
            loss, _ = pol.loss_and_grad(store, *args)
            results.append((loss, {k: g.copy() for k, g in store.grads.items()}))
        (loss_d, grads_d), (loss_full, grads_full) = results
        np.testing.assert_allclose(loss_d, loss_full, rtol=1e-5, atol=1e-5)
        for name, g in grads_full.items():
            assert grads_d[name].dtype == np.float32
            np.testing.assert_allclose(grads_d[name], g, rtol=1e-5, atol=1e-5,
                                       err_msg=name)


class TestTokenize:
    def test_labels_mode_copies_stored_returns(self, rng):
        pol = small_policy()
        states, actions, _ = fake_episode(rng, pol.joint_dim)
        rewards = rng.normal(size=6) * 0.1
        rtg = compute_rtg(rewards, 0.99)
        seq = tokenize([(states, actions, rtg)], [5], context=4, num_peds=2)
        np.testing.assert_array_equal(seq.rtg[0], rtg[2:6])

    def test_short_window_front_padded(self, rng):
        pol = small_policy()
        states, actions, rewards = fake_episode(rng, pol.joint_dim, steps=2)
        seq = tokenize([(states, actions, compute_rtg(rewards, 0.99))], [1],
                       context=5, num_peds=2)
        assert seq.step_valid.tolist() == [[False, False, False, True, True]]
        assert seq.rtg.shape == (1, 5)

    def test_rtg_slot_precedes_action_slot(self, rng):
        # interleaving in field order: rtg, state, action per step
        pol = small_policy()
        states, actions, _ = fake_episode(rng, pol.joint_dim, steps=4)
        seq = tokenize([(states, actions, np.arange(4.0))], [3], context=4, num_peds=2)
        assert TokenSequence._fields[:3] == ("rtg", "states", "actions")
        assert seq.rtg.tolist() == [[0.0, 1.0, 2.0, 3.0]]

    def test_bad_source_and_empty_window(self, rng):
        # the conditioning source is the actor's choice; "labels" has no
        # online values and is rejected with the unknown ones
        pol = small_policy()
        for source in ("labels", "quantum"):
            with pytest.raises(ValueError, match="rtg_source"):
                Actor(pol, pol.init_store(0), rtg_source=source)
        states, actions, rewards = fake_episode(rng, 20, steps=2)
        with pytest.raises(ValueError, match="window"):
            tokenize([(states, actions, rewards)], [5], context=4, num_peds=2)


class TestActor:
    def _setup(self, rng, mode="fixed"):
        pol = small_policy()
        ps = pol.init_store(9)
        rtgp = RtgPredictor(num_peds=2, window=3, hidden_dim=16, num_heads=2,
                            ffn_dim=16, head_hidden=8)
        rs = rtgp.init_store(10)
        actor = Actor(pol, ps, rtg_source=mode, rtgp=rtgp, rtgp_store=rs)
        return pol, actor

    def _play(self, rng, actor, steps):
        """Act and observe `steps` times; returns the episode history."""
        states, actions, rewards = fake_episode(rng, actor.policy.joint_dim, steps)
        actor.begin_episode()
        for t in range(steps):
            a = actor.act(states[t])
            actor.observe(a, rewards[t])
            actions[t] = a
        return states, actions, rewards

    def test_deterministic(self, rng):
        _, actor = self._setup(rng, "rtgp")
        obs = rng.normal(size=20)
        actor.begin_episode()
        a1 = actor.act(obs.copy())
        actor.begin_episode()
        a2 = actor.act(obs.copy())
        assert np.array_equal(a1, a2)

    def test_no_crash_at_episode_start_and_bounded(self, rng):
        pol, actor = self._setup(rng, "rtgp")
        actor.begin_episode()
        for t in range(6):
            obs = rng.normal(size=20)
            a = actor.act(obs)
            assert np.linalg.norm(a) <= pol.v_max
            actor.observe(a, 0.1)

    def test_fixed_mode_all_slots_at_start(self, rng):
        _, actor = self._setup(rng, "fixed")
        actor.begin_episode()
        actor.act(rng.normal(size=20))
        assert actor.ctx.rtg == [2.0]

    def test_fixed_mode_decrements_by_rewards(self, rng):
        _, actor = self._setup(rng, "fixed")
        _, _, rewards = self._play(rng, actor, steps=4)
        want = [2.0 - math.fsum(rewards[:u]) for u in range(4)]
        assert actor.ctx.rtg == want

    def test_rtgp_mode_slots_equal_predictor_bitwise(self, rng):
        _, actor = self._setup(rng, "rtgp")
        states, actions, rewards = self._play(rng, actor, steps=5)
        for u in range(5):
            assert actor.ctx.rtg[u] == actor.rtgp.predict(
                actor.rtgp_store, states, actions, rewards, u)

    def test_rtgp_mode_requires_predictor(self, rng):
        pol = small_policy()
        ps = pol.init_store(0)
        with pytest.raises(ValueError, match="predictor"):
            Actor(pol, ps, rtg_source="rtgp")

    def test_labels_replay_after_memorization(self, rng, tiny_dataset):
        # memorize two short trajectories, then replay with label
        # conditioning and teacher-forced context: actions match the data
        # within the squash tolerance
        from socnav.nn import lamb_step
        from socnav.trainer import policy_batch_from
        trajs = [t for t in tiny_dataset[0] if t.num_steps >= 3][:2]
        pol = DtPolicy(num_peds=2, context=6, hidden_dim=32, num_heads=2,
                       ffn_dim=32, num_blocks=1, v_max=1.0)
        store = pol.init_store(11)
        pairs = [(t, e) for t in trajs for e in range(t.num_steps)]
        rng_l = np.random.default_rng(0)
        for it in range(800):
            picks = rng_l.integers(0, len(pairs), size=16)
            te = [pairs[i] for i in picks]
            batch, targets, counts = policy_batch_from(te, pol, [t.rtg for t, _ in te])
            loss, _ = pol.loss_and_grad(store, batch, targets, counts)
            lamb_step(store, 2e-3)
        assert loss < 0.05
        traj = trajs[0]
        misses = 0.0
        for end in range(traj.num_steps):
            batch = tokenize([(traj.states, traj.actions[:end], traj.rtg)], [end],
                             context=6, num_peds=2)
            a_hat, _ = pol.forward(store, *batch)
            want = clip_action_norm(traj.actions[end], 1.0)
            misses = max(misses, float(np.linalg.norm(a_hat[0, -1] - want)))
        assert misses < 0.3
