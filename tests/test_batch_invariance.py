"""Each network's output for a window does not depend on the batch.

nn.dense_fwd owns the rule (see its docstring): a window's return estimate
and its actions are the same bytes computed alone, among any subset of a
batch, or in the whole batch, and so acting's conditioning is the return
estimate fine-tuning's slow update gives the same window.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socnav import nn, trainer
from socnav.config import Config
from socnav.dataset import generate_dataset, rollout
from socnav.env import CrowdEnv
from socnav.policy import Actor

from conftest import tiny_config


def window_draws(trajs, size, seed):
    rng = np.random.default_rng(seed)
    return [(trajs[i], e) for i, e in trainer.sample_windows(trajs, size, rng)]


def seeded_stores(policy, rtgp, seed):
    """Both networks' stores; the policy head, which init_store zeroes, is
    drawn, so the actions differ from window to window."""
    ps, rs = policy.init_store(seed), rtgp.init_store(seed + 1)
    head = ps.blocks["head.W"]
    head[...] = 0.2 * nn.xavier_uniform(np.random.default_rng(seed), *head.shape)
    return ps, rs


def published_config(num_peds, **net):
    return Config.from_dict({"sim": {"num_peds": num_peds}, "net": net})


class Batches:
    """One configuration's networks, stores and whole-batch outputs."""

    def __init__(self, cfg, trajs, size, seed):
        self.policy, self.rtgp = trainer.build_models(cfg)
        self.ps, self.rs = seeded_stores(self.policy, self.rtgp, seed)
        draws = window_draws(trajs, size, seed)
        self.windows, _, _ = trainer.rtgp_batch_from(draws, self.rtgp)
        self.tokens, _, _ = trainer.policy_batch_from(draws, self.policy,
                                                      [t.rtg for t, _ in draws])
        self.rhat = self.rtgp.predict_batch(self.rs, self.windows)
        self.actions, _ = self.policy.forward(self.ps, self.tokens)

    def check(self, rtgp_idx, policy_idx):
        part = self.rtgp.predict_batch(self.rs, self.windows.take(rtgp_idx))
        assert part.tobytes() == self.rhat[rtgp_idx].tobytes()
        part, _ = self.policy.forward(self.ps, self.tokens.take(policy_idx))
        assert part.tobytes() == self.actions[policy_idx].tobytes()


@pytest.fixture(scope="module")
def tiny_batches(tiny_cfg, tiny_dataset):
    trajs, _, _ = tiny_dataset
    return Batches(tiny_cfg, trajs, 48, seed=6)


def subset(n):
    return st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)


class TestNetworksAreBatchInvariant:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tiny_windows_alone_in_a_subset_and_in_the_batch(self, tiny_batches, data):
        b = tiny_batches
        b.check(data.draw(subset(len(b.rhat))), data.draw(subset(len(b.actions))))

    def test_tiny_every_window_alone(self, tiny_batches):
        b = tiny_batches
        assert len(b.rhat) == len(b.actions)
        for i in range(len(b.rhat)):
            b.check([i], [i])

    @pytest.mark.parametrize("num_peds, context", [(0, 20), (5, 20), (5, 5)])
    def test_published_shape_windows(self, num_peds, context, tmp_path):
        # at context 5 the policy head's (5 B, 128) x (128, 2) product has
        # row counts that are not whole 4-row kernel blocks
        cfg = published_config(num_peds, policy_context=context)
        trajs, _ = generate_dataset(3, seed=17, sim_cfg=cfg.sim, gamma=cfg.train.gamma,
                                    out_path=tmp_path / "published.jsonl")
        b = Batches(cfg, trajs, 24, seed=9)
        n = len(b.rhat)
        assert n == len(b.actions) > 8
        for idx in ([0], [n - 1], [3, 1], list(range(0, n, 3)), list(range(n - 1, 0, -2))):
            b.check(idx, idx)


class TestActingMatchesTheSlowUpdate:
    """Acting's conditioning is RtgPredictor.predict_sequence of the
    finished episode, the estimate fine-tuning gives the policy."""

    @pytest.mark.parametrize("cfg", [tiny_config(num_peds=0), tiny_config(num_peds=2),
                                     published_config(0), published_config(5)],
                             ids=["tiny-0", "tiny-2", "published-0", "published-5"])
    def test_conditioning_equals_predict_sequence(self, cfg):
        policy, rtgp = trainer.build_models(cfg)
        ps, rs = seeded_stores(policy, rtgp, seed=4)
        actor = Actor(policy, ps, rtg_source="rtgp", rtgp=rtgp, rtgp_store=rs)
        env = CrowdEnv(cfg.sim)
        for seed in (50, 51):
            actor.begin_episode()
            traj, _ = rollout(env, lambda env, obs: actor.act(obs.joint), seed,
                              gamma=cfg.train.gamma, observe=actor.observe)
            assert traj.num_steps > cfg.net.rtgp_window
            want = rtgp.predict_sequence(rs, traj.states, traj.actions, traj.rewards)
            assert actor.history("rtg").tobytes() == want.tobytes()
