"""The benchmark's workloads, each driving socnav's public API.

A workload has a set-up (`build`, repeated to take its median, then one
`warm_up` that absorbs first-call costs) and a unit of work that the
harness repeats until the run's time is up. Every input of a unit is
derived from the workload seed and the unit index, so the same seed gives
the same units and the same output digests.

Functions are looked up through their modules (`trainer.evaluate`,
`dataset.generate_dataset`) so the tracer's patches apply to them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter

import numpy as np

from socnav import dataset, nn, trainer
from socnav.config import Config, NetConfig, SimConfig, TrainConfig
from socnav.env import ActionBoundsError, CrowdEnv
from socnav.policy import Actor

# operations that fail loudly; the harness counts them against attempts
FAILURES = (trainer.TrainingAborted, nn.OptimizerError, ActionBoundsError)

# seed-derivation tags
DATA, UNIT, WARM = 1, 2, 3

OFFLINE_EPISODES = 16     # offline dataset for pretrain / finetune
EVAL_EPISODES = 2         # greedy episodes per eval unit, one parameter draw each unit
GEN_EPISODES = 5          # generated episodes per gen-dense unit
GEN_PEDS = 10             # 20 peds collide at step 1 in every scenario tried
WARM_DECISIONS = 100      # fixed-size warm-up for eval / gen-dense


def derive(seed: int, *keys: int) -> int:
    """Independent 32-bit seed for (workload seed, tag, index...)."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def make_config(tiny: bool, num_peds: int = 5) -> Config:
    """Published shapes, or a tiny config for the self-test."""
    if not tiny:
        cfg = Config()
    else:
        cfg = Config(sim=SimConfig(timeout=5.0),
                     net=NetConfig(hidden_dim=16, num_heads=2, ffn_dim=16,
                                   rtgp_window=4, policy_context=4, policy_blocks=1,
                                   head_hidden=16, embed_dim=16),
                     train=TrainConfig(batch_size=8))
    cfg.sim.num_peds = num_peds
    cfg.train.pretrain_iters = 1
    return cfg.validate()


def store_bytes(*stores) -> bytes:
    return b"".join(s.to_bytes() for s in stores)


def stores_finite(*stores) -> bool:
    return all(np.isfinite(b).all() for s in stores for b in s.blocks.values())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """Interface the harness drives; `op` names the unit that op_ms times."""

    name = ""
    op = ""
    failures = FAILURES

    def __init__(self, seed: int, tiny: bool, work_dir: str):
        self.seed = seed
        self.tiny = tiny
        self.work_dir = work_dir

    def build(self):
        """Repeatable part of set-up; its median over repeats is reported."""

    def warm_up(self):
        """Run once after the builds; absorbs first-call costs."""

    def inputs(self, i: int):
        """Untimed inputs of unit i."""
        return derive(self.seed, UNIT, i)

    def run(self, inputs):
        raise NotImplementedError

    def ops(self, out) -> tuple[int, int, int]:
        """(timed ops, attempted ops, failed ops) of one finished unit."""
        raise NotImplementedError

    def check(self, out) -> list[str]:
        """Output-check failures of one unit (empty when correct)."""
        return []

    def digest(self, out) -> str:
        raise NotImplementedError

    def named_metric(self, op_ms: float) -> tuple[str, float, str]:
        """op_ms under the stage metric's own name and unit."""
        raise NotImplementedError


class _OfflineData(Workload):
    """Shared set-up of the training stages: the offline dataset."""

    def build(self):
        self.cfg = make_config(self.tiny)
        path = os.path.join(self.work_dir, "offline.jsonl")
        dataset.generate_dataset(OFFLINE_EPISODES, derive(self.seed, DATA),
                                 self.cfg.sim, self.cfg.train.gamma, path)
        self.offline, _ = dataset.load_trajectories(path)

    def warm_up(self):
        res = trainer.pretrain_offline(self.offline, self.cfg,
                                       seed=derive(self.seed, WARM))
        self.policy_store, self.rtgp_store = res.policy_store, res.rtgp_store


class Pretrain(_OfflineData):
    name = "pretrain"
    op = "pretraining iteration (policy + predictor update)"

    def run(self, inputs):
        return trainer.pretrain_offline(self.offline, self.cfg, seed=inputs)

    def named_metric(self, op_ms):
        return "pretrain_iter_s", op_ms / 1e3, "s"

    def ops(self, out):
        return out.iterations, out.iterations, 0

    def check(self, out):
        bad = []
        if out.iterations != self.cfg.train.pretrain_iters:
            bad.append(f"ran {out.iterations} iterations")
        if not all(map(math.isfinite, out.policy_losses + out.rtgp_losses)):
            bad.append("non-finite loss")
        if not stores_finite(out.policy_store, out.rtgp_store):
            bad.append("non-finite parameters")
        return bad

    def digest(self, out):
        return sha256(store_bytes(out.policy_store, out.rtgp_store))


class Finetune(_OfflineData):
    name = "finetune"
    op = "online fine-tuning episode"

    def inputs(self, i):
        # every unit fine-tunes copies of the warm-up's pretrained stores
        return derive(self.seed, UNIT, i), self.policy_store.copy(), self.rtgp_store.copy()

    def run(self, inputs):
        seed, ps, rs = inputs
        return trainer.finetune_online(ps, rs, self.offline, self.cfg, seed=seed,
                                       episodes=1, rtg_mode="rtgp")

    def named_metric(self, op_ms):
        return "finetune_episode_s", op_ms / 1e3, "s"

    def ops(self, out):
        discarded = sum(e.outcome == "discarded" for e in out.episodes)
        return len(out.episodes), len(out.episodes), discarded

    def check(self, out):
        bad = []
        if len(out.episodes) != 1:
            bad.append(f"logged {len(out.episodes)} episodes")
        if not stores_finite(out.policy_store, out.rtgp_store):
            bad.append("non-finite parameters")
        return bad

    def digest(self, out):
        log = json.dumps([vars(e) for e in out.episodes], sort_keys=True).encode()
        return sha256(store_bytes(out.policy_store, out.rtgp_store) + log)


class Eval(Workload):
    name = "eval"
    op = "environment step of greedy return-conditioned rollouts"

    def build(self):
        self.cfg = make_config(self.tiny)
        self.policy, self.rtgp = trainer.build_models(self.cfg)
        self.env = CrowdEnv(self.cfg.sim)

    def _draw(self, seed: int):
        # init_store zeroes head.W and a zero head never moves the robot
        rng = np.random.default_rng(seed)
        ps = self.policy.init_store(int(rng.integers(2 ** 31)))
        rs = self.rtgp.init_store(int(rng.integers(2 ** 31)))
        head = ps.blocks["head.W"]
        head[...] = nn.xavier_uniform(rng, *head.shape)
        return ps, rs

    def warm_up(self):
        # one decision from each of a fixed number of fresh scenarios
        ps, rs = self._draw(derive(self.seed, WARM))
        actor = Actor(self.policy, ps, rtg_source="rtgp", rtgp=self.rtgp, rtgp_store=rs)
        for k in range(WARM_DECISIONS):
            obs = self.env.reset(derive(self.seed, WARM, k))
            actor.begin_episode()
            actor.act(obs.joint)

    def inputs(self, i):
        seed = derive(self.seed, UNIT, i)
        return (seed, *self._draw(seed))

    def run(self, inputs):
        seed, ps, rs = inputs
        report, _ = trainer.evaluate(ps, rs, self.cfg, num_episodes=EVAL_EPISODES,
                                     seed=seed, rtg_mode="rtgp")
        return report

    def named_metric(self, op_ms):
        return "eval_step_ms", op_ms, "ms"

    def ops(self, out):
        steps = sum(e["steps"] for e in out.per_episode)
        return steps, out.num_episodes, 0

    def check(self, out):
        counts = Counter(e["outcome"] for e in out.per_episode)
        bad = []
        if sum(counts.values()) != out.num_episodes or out.num_episodes != EVAL_EPISODES:
            bad.append(f"outcome counts {dict(counts)} != {out.num_episodes} episodes")
        for outcome, rate in (("success", out.success_rate),
                              ("collision", out.collision_rate),
                              ("timeout", out.timeout_rate)):
            if rate != counts[outcome] / out.num_episodes:
                bad.append(f"{outcome} rate {rate} disagrees with the episode log")
        return bad

    def digest(self, out):
        return sha256(out.to_json().encode())


class GenDense(Workload):
    name = "gen-dense"
    op = "reference-ORCA episode generated, written and read back"

    def build(self):
        self.cfg = make_config(self.tiny, num_peds=GEN_PEDS)
        self.env = CrowdEnv(self.cfg.sim)
        self.path = os.path.join(self.work_dir, "gen.jsonl")

    def warm_up(self):
        # one reference step from each of a fixed number of fresh scenarios
        for k in range(WARM_DECISIONS):
            self.env.reset(derive(self.seed, WARM, k))
            self.env.step(self.env.robot_orca_action())

    def run(self, inputs):
        trajs, _ = dataset.generate_dataset(GEN_EPISODES, inputs, self.cfg.sim,
                                            self.cfg.train.gamma, self.path)
        loaded, header = dataset.load_trajectories(self.path)
        return trajs, loaded, header

    def named_metric(self, op_ms):
        return "gen_episodes_per_s", 1e3 / op_ms, "1/s"

    def ops(self, out):
        return len(out[0]), GEN_EPISODES, 0

    def check(self, out):
        trajs, loaded, header = out
        gamma = self.cfg.train.gamma
        bad = []
        if not (len(trajs) == len(loaded) == header["count"] == GEN_EPISODES):
            bad.append(f"{len(trajs)} generated, {len(loaded)} loaded")
        for k, (a, b) in enumerate(zip(trajs, loaded)):
            same = all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
                       for f in ("states", "actions", "rewards", "rtg"))
            same = same and (a.outcome, a.duration, a.seed) == (b.outcome, b.duration, b.seed)
            if not same:
                bad.append(f"episode {k}: loaded trajectory differs from the generated one")
            if b.rtg.tobytes() != dataset.compute_rtg(b.rewards, gamma).tobytes():
                bad.append(f"episode {k}: rtg != compute_rtg(rewards)")
        return bad

    def digest(self, out):
        with open(self.path, "rb") as fh:
            return sha256(fh.read())


WORKLOADS = {w.name: w for w in (Pretrain, Finetune, Eval, GenDense)}
