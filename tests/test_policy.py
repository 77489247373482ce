import math

import numpy as np
import pytest

from socnav import features, nn
from socnav import policy as policy_module
from socnav.config import Config
from socnav.dataset import Trajectory, compute_rtg, rollout
from socnav.env import CrowdEnv
from socnav.features import SPATIAL_TOKEN_DIM, Windows, clip_action_norm
from socnav.gradcheck import grad_check
from socnav.policy import Actor, DtPolicy, EpisodeContext, squash_bwd, squash_fwd, tokenize
from socnav.rtgp import RtgPredictor
from socnav.trainer import build_models, policy_batch_from, rtgp_batch_from


def small_policy(num_peds=2, context=4):
    return DtPolicy(num_peds=num_peds, context=context, hidden_dim=16,
                    num_heads=2, ffn_dim=16, num_blocks=2, v_max=1.0)


def fake_episode(rng, jd, steps=6):
    states = rng.normal(size=(steps, jd))
    actions = rng.normal(size=(steps, 2)) * 0.5
    rewards = rng.normal(size=steps) * 0.1
    return states, actions, rewards


def slot_windows(valid, rtg, joint, action):
    """Windows over gathered (B, K, ...) slot values: each real slot reads
    its own row, padded slots the padding row 0."""
    B, K = valid.shape
    rows = np.where(valid, np.arange(1, B * K + 1).reshape(B, K), 0)
    return Windows({name: np.concatenate([np.zeros((1, *x.shape[2:])),
                                          x.reshape(B * K, *x.shape[2:])])
                    for name, x in (("rtg", rtg), ("joint", joint), ("action", action))},
                   rows)


def gathered(batch):
    """Copies of a policy batch's slot values, in slot_windows's order."""
    return [batch.slots(name).copy() for name in ("rtg", "joint", "action")]


def random_batch(rng, pol, B=3):
    K = pol.context
    rtg = rng.normal(size=(B, K))
    states = rng.normal(size=(B, K, pol.joint_dim))
    actions = rng.normal(size=(B, K, 2)) * 0.5
    valid = np.ones((B, K), dtype=bool)
    valid[0, :2] = False
    return slot_windows(valid, rtg, states, actions)


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
        a_hat, _ = pol.forward(store, batch)
        assert np.all(np.linalg.norm(a_hat, axis=-1) <= 1.0)

    def test_causality_exact(self, rng):
        pol = small_policy()
        store = pol.init_store(1)
        batch = random_batch(rng, pol)
        base, _ = pol.forward(store, batch)
        rtg2, st2, ac2 = gathered(batch)
        rtg2[:, 2:] += 9.0
        st2[:, 2:] += 9.0
        ac2[:, 2:] += 9.0
        out, _ = pol.forward(store, slot_windows(batch.rows > 0, rtg2, st2, ac2))
        assert np.array_equal(base[:, :2], out[:, :2])

    def test_param_count_matches_shape_audit(self):
        pol = DtPolicy(num_peds=5, context=20)
        D, F = pol.hidden, pol.ffn
        dense = lambda i, o: i * o + o
        block = 3 * dense(D, D) + dense(D, D) + 2 * D + dense(D, F) + dense(F, D)
        expected = (dense(1, D) + dense(pol.joint_dim, D) + dense(2, D)
                    + pol.context * D + pol.num_blocks * block + dense(D, 2))
        assert pol.init_store(0).num_params() == expected

    def test_action_token_not_visible_to_own_step(self, rng):
        # prediction at step u reads the state token, which precedes the
        # action token of the same step in the causal order; so the final
        # action token, which an acting window zero-fills, reaches no
        # decoded action at all, and needs no mask of its own
        pol = small_policy()
        store = pol.init_store(2)
        batch = random_batch(rng, pol)
        base, _ = pol.forward(store, batch)
        rtg, states, ac2 = gathered(batch)
        ac2[:, -1] = 77.0   # mutate the final action token
        out, _ = pol.forward(store, slot_windows(batch.rows > 0, rtg, states, ac2))
        assert base.tobytes() == out.tobytes()


class TestLoss:
    def test_every_block_gets_a_gradient_on_a_padded_batch(self, rng):
        # a parameter block whose gradient is exactly zero changes no output;
        # the zero-initialised head would zero every gradient behind it
        pol = small_policy()
        store = pol.init_store(3)
        store.blocks["head.W"][...] = rng.normal(size=store["head.W"].shape)
        batch = random_batch(rng, pol)
        assert not (batch.rows > 0).all()
        pol.loss_and_grad(store, batch, rng.normal(size=(3, pol.context, 2)) * 0.5)
        assert [name for name, g in store.grads.items() if not g.any()] == []

    def test_zero_when_targets_equal_output(self, rng):
        pol = small_policy()
        store = pol.init_store(3, dtype=np.float64)
        batch = random_batch(rng, pol)
        a_hat, _ = pol.forward(store, batch)
        loss, _ = pol.loss_and_grad(store, batch, a_hat.copy())
        assert loss == 0.0

    def test_unit_actions_zero_policy(self, rng):
        pol = small_policy()
        store = pol.init_store(0, dtype=np.float64)
        for name in store.blocks:
            store.blocks[name][...] = 0.0
        B, K = 2, pol.context
        batch = slot_windows(np.ones((B, K), bool), np.zeros((B, K)),
                             np.zeros((B, K, pol.joint_dim)), np.zeros((B, K, 2)))
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
        sv = batch.rows > 0
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
        batch_p = batch.take(perm)
        l2, _ = pol.loss_and_grad(store, batch_p, targets[perm])
        assert l1 == l2

    def test_empty_batch_rejected(self, rng):
        pol = small_policy()
        store = pol.init_store(0)
        with pytest.raises(ValueError, match="empty"):
            pol.loss_and_grad(store, slot_windows(np.zeros((0, 4), bool), np.zeros((0, 4)),
                                                  np.zeros((0, 4, pol.joint_dim)),
                                                  np.zeros((0, 4, 2))),
                              np.zeros((0, 4, 2)))

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
        full_targets = clip_action_norm(full.slots("action"), pol.v_max)

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
        np.testing.assert_array_equal(seq.slots("rtg")[0], rtg[2:6])

    def test_short_window_front_padded(self, rng):
        pol = small_policy()
        states, actions, rewards = fake_episode(rng, pol.joint_dim, steps=2)
        seq = tokenize([(states, actions, compute_rtg(rewards, 0.99))], [1],
                       context=5, num_peds=2)
        assert (seq.rows > 0).tolist() == [[False, False, False, True, True]]
        assert seq.slots("rtg").shape == (1, 5)

    def test_rtg_slot_precedes_action_slot(self, rng):
        # interleaving in table order: rtg, state, action per step
        pol = small_policy()
        states, actions, _ = fake_episode(rng, pol.joint_dim, steps=4)
        seq = tokenize([(states, actions, np.arange(4.0))], [3], context=4, num_peds=2)
        assert tuple(seq.tables) == ("rtg", "joint", "action")
        assert seq.slots("rtg").tolist() == [[0.0, 1.0, 2.0, 3.0]]

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
        assert actor.ctx.history("rtg").tolist() == [2.0]

    def test_fixed_mode_decrements_by_rewards(self, rng):
        _, actor = self._setup(rng, "fixed")
        _, _, rewards = self._play(rng, actor, steps=4)
        want = [2.0 - math.fsum(rewards[:u]) for u in range(4)]
        assert actor.ctx.history("rtg").tolist() == want

    def test_rtgp_mode_slots_equal_predictor_bitwise(self, rng):
        _, actor = self._setup(rng, "rtgp")
        states, actions, rewards = self._play(rng, actor, steps=5)
        for u in range(5):
            assert actor.ctx.history("rtg")[u] == actor.rtgp.predict(
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
            # the window's last action token is read by no decoded action
            batch = tokenize([(traj.states, traj.actions, traj.rtg)], [end],
                             context=6, num_peds=2)
            a_hat, _ = pol.forward(store, batch)
            want = clip_action_norm(traj.actions[end], 1.0)
            misses = max(misses, float(np.linalg.norm(a_hat[0, -1] - want)))
        assert misses < 0.3


# -- acting against the whole-window decision -------------------------------


class WholeWindowActor(Actor):
    """Reference: the earlier decision, which reads no step table. Every
    decision builds both windows from the raw history again (tokenize,
    window_batch) and runs the whole predictor forward over its window;
    its actions and conditioning go to the lists `actions` and `rtg`."""

    def begin_episode(self):
        super().begin_episode()
        self.actions, self.rtg = [], []

    def observe(self, action, rew):
        super().observe(action, rew)
        self.actions.append(np.asarray(action, dtype=np.float64))

    def act(self, obs_joint):
        ctx = self.ctx
        t = ctx.begin_step(np.asarray(obs_joint, dtype=np.float64))
        if self.rtg_source == "fixed":
            self.rtg.append(self.fixed_target - math.fsum(ctx.rewards))
        else:
            batch = self.rtgp.window_batch([(ctx.states, self.actions, ctx.rewards)], [t])
            steps, _ = self.rtgp.encode(self.rtgp_store, batch.tables["spatial"])
            rhat, _ = self.rtgp.forward(self.rtgp_store, steps, batch.slots("tokens"),
                                        batch.rows)
            self.rtg.append(float(rhat[0]))
        # the current step's action slot is zero: no action is decided yet
        batch = tokenize([(ctx.states, self.actions + [np.zeros(2)], self.rtg)], [t],
                         self.policy.context, self.policy.num_peds)
        a_hat, _ = self.policy.forward(self.policy_store, batch)
        action = a_hat[0, -1].astype(np.float64)
        norm = float(np.hypot(action[0], action[1]))
        if norm > self.policy.v_max:
            action *= self.policy.v_max / norm
        return action


def acting_pair(cfg, mode, seed, head_scale):
    """An Actor and the reference over the same seeded stores; the policy
    head is drawn at `head_scale` (init_store zeroes it, and a zero head
    acts the same at every step)."""
    policy, rtgp = build_models(cfg)
    rng = np.random.default_rng(seed)
    ps, rs = policy.init_store(seed), rtgp.init_store(seed + 1)
    head = ps.blocks["head.W"]
    head[...] = head_scale * nn.xavier_uniform(rng, *head.shape)
    kwargs = dict(rtg_source=mode, rtgp=rtgp, rtgp_store=rs)
    return Actor(policy, ps, **kwargs), WholeWindowActor(policy, ps, **kwargs)


def lockstep_episode(env, actor, reference, seed):
    """One rollout acted by `actor`, with `reference` deciding every step
    alongside from the same history; both must agree byte for byte."""
    def act(env, obs):
        action = actor.act(obs.joint)
        assert action.tobytes() == reference.act(obs.joint).tobytes()
        return action

    def observe(action, reward):
        actor.observe(action, reward)
        reference.observe(action, reward)

    actor.begin_episode()
    reference.begin_episode()
    traj, _ = rollout(env, act, seed, gamma=0.99, observe=observe)
    assert actor.ctx.history("rtg").tobytes() == np.array(reference.rtg).tobytes()
    return traj


def acting_config(shape, num_peds, context=5, window=5):
    net = {} if shape == "published" else {
        "hidden_dim": 16, "num_heads": 2, "ffn_dim": 16, "rtgp_window": window,
        "policy_context": context, "policy_blocks": 1, "head_hidden": 8}
    return Config.from_dict({"sim": {"num_peds": num_peds}, "net": net})


class TestActingMatchesWholeWindow:
    @pytest.mark.parametrize("mode", ["rtgp", "fixed"])
    @pytest.mark.parametrize("num_peds", [0, 2])
    def test_tiny_episodes_longer_than_the_window(self, mode, num_peds):
        cfg = acting_config("tiny", num_peds)
        actor, reference = acting_pair(cfg, mode, seed=5, head_scale=0.2)
        env = CrowdEnv(cfg.sim)
        for seed in (40, 41):
            traj = lockstep_episode(env, actor, reference, seed)
            assert traj.num_steps > cfg.net.rtgp_window

    @pytest.mark.parametrize("mode", ["rtgp", "fixed"])
    @pytest.mark.parametrize("context, window", [(4, 6), (6, 4)])
    def test_context_and_window_differ_over_tables_grown_twice(self, mode, context, window):
        cfg = acting_config("tiny", 2, context=context, window=window)
        actor, reference = acting_pair(cfg, mode, seed=5, head_scale=0.2)
        traj = lockstep_episode(CrowdEnv(cfg.sim), actor, reference, seed=43)
        # the step tables start at FIRST_ROWS rows and doubled at least twice
        assert traj.num_steps >= 2 * EpisodeContext.FIRST_ROWS
        assert {len(table) for table in actor.ctx.tables.values()} == {
            len(actor.ctx.tables["rtg"])}
        assert len(actor.ctx.tables["rtg"]) >= 4 * EpisodeContext.FIRST_ROWS

    @pytest.mark.parametrize("num_peds", [0, 5])
    def test_published_shape_episode_longer_than_the_window(self, num_peds):
        cfg = acting_config("published", num_peds)
        actor, reference = acting_pair(cfg, "rtgp", seed=6, head_scale=0.05)
        traj = lockstep_episode(CrowdEnv(cfg.sim), actor, reference, seed=42)
        assert traj.num_steps > cfg.net.rtgp_window

    @pytest.mark.parametrize("mode", ["rtgp", "fixed"])
    def test_update_between_episodes_drops_the_store(self, mode, tiny_cfg):
        # the fine-tuning pattern: an episode, one LAMB step on both stores,
        # and the next episode from the same start under the new parameters
        actor, reference = acting_pair(tiny_cfg, mode, seed=7, head_scale=0.2)
        env = CrowdEnv(tiny_cfg.sim)
        first = lockstep_episode(env, actor, reference, seed=43)
        rtg_before = actor.ctx.history("rtg").copy()
        draws = [(first, end) for end in range(first.num_steps)]
        actor.rtgp.loss_and_grad(actor.rtgp_store, *rtgp_batch_from(draws, actor.rtgp))
        actor.policy.loss_and_grad(actor.policy_store, *policy_batch_from(
            draws, actor.policy, [first.rtg] * len(draws)))
        nn.lamb_step(actor.rtgp_store, 1e-2)
        nn.lamb_step(actor.policy_store, 1e-2)
        second = lockstep_episode(env, actor, reference, seed=43)
        if mode == "rtgp":
            assert actor.ctx.history("rtg")[0] != rtg_before[0]
        assert second.actions[0].tobytes() != first.actions[0].tobytes()


class TestActingWork:
    @pytest.mark.parametrize("mode", ["rtgp", "fixed"])
    def test_each_decision_featurizes_one_step(self, mode, tiny_cfg, monkeypatch):
        # one canonical state row per decision, and in rtgp mode that one
        # step alone through embed_s; fixed mode encodes nothing; no
        # decision builds step tables
        canon_rows, embed_s, table_builds = [], [], []
        canonicalize, dense_fwd = features.canonicalize_joint, nn.dense_fwd
        window_tables = features.window_tables

        def counting_window_tables(*args, **kwargs):
            table_builds.append(1)
            return window_tables(*args, **kwargs)

        def counting_canonicalize(joint, num_peds):
            canon_rows.append(joint.size // joint.shape[-1])
            return canonicalize(joint, num_peds)

        def counting_dense_fwd(store, name, x, *args, **kwargs):
            if name == "embed_s":
                embed_s.append(x)
            return dense_fwd(store, name, x, *args, **kwargs)

        monkeypatch.setattr(features, "canonicalize_joint", counting_canonicalize)
        monkeypatch.setattr(policy_module, "canonicalize_joint", counting_canonicalize)
        monkeypatch.setattr(nn, "dense_fwd", counting_dense_fwd)
        monkeypatch.setattr(features, "window_tables", counting_window_tables)
        monkeypatch.setattr(policy_module, "window_tables", counting_window_tables)

        actor, _ = acting_pair(tiny_cfg, mode, seed=8, head_scale=0.2)
        per_decision = []

        def act(env, obs):
            canon_rows.clear()
            embed_s.clear()
            table_builds.clear()
            action = actor.act(obs.joint)
            per_decision.append((list(canon_rows), [x.shape for x in embed_s],
                                 len(table_builds)))
            return action

        actor.begin_episode()
        traj, _ = rollout(CrowdEnv(tiny_cfg.sim), act, 44, gamma=0.99, observe=actor.observe)
        assert traj.num_steps > tiny_cfg.net.rtgp_window
        step = (tiny_cfg.sim.num_peds + 1, SPATIAL_TOKEN_DIM)
        want = ([1], [(1, *step)], 0) if mode == "rtgp" else ([1], [], 0)
        assert per_decision == [want] * traj.num_steps

    def test_predictor_forward_reads_one_window_of_steps(self, tiny_cfg, monkeypatch):
        # the forward gets the padding row and the window's own encodings,
        # not the episode's whole table, whose step means would grow with t
        step_rows = []
        forward = RtgPredictor.forward

        def recording_forward(self, store, steps, temporal, rows):
            step_rows.append(len(steps))
            return forward(self, store, steps, temporal, rows)

        monkeypatch.setattr(RtgPredictor, "forward", recording_forward)
        actor, _ = acting_pair(tiny_cfg, "rtgp", seed=8, head_scale=0.2)
        actor.begin_episode()
        traj, _ = rollout(CrowdEnv(tiny_cfg.sim), lambda env, obs: actor.act(obs.joint), 44,
                          gamma=0.99, observe=actor.observe)
        window = tiny_cfg.net.rtgp_window
        assert step_rows == [min(t + 1, window) + 1 for t in range(traj.num_steps)]
