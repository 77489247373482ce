"""Training pipeline: offline pre-training, online fine-tuning, evaluation.

Offline phase: alternating minibatch updates of the policy (conditioned on
stored Monte-Carlo return labels) and the return predictor (regressed onto
the same labels), with early stopping on a loss plateau. The environment
is never touched.

Online phase, per episode: roll out the current policy with live return
conditioning, insert the finished trajectory into the hybrid buffer,
sample trajectories by priority, update the return predictor once per
sampled trajectory (fast timescale, transition minibatches), then update
the policy once (slow timescale, context windows re-conditioned with
fresh return predictions).

Every update cuts its batch into shards (at most SHARDS) that run on at
most two threads, each shard accumulating gradients into its own
buffers. The shard plan depends only on the batch and the shard sums are
added in shard order, so the bytes do not depend on how many threads ran.

Evaluation runs greedy rollouts on a disjoint seed range and reports the
standard metrics plus sampling efficiency: mean return divided by the
number of environment transitions consumed during training.
"""

from __future__ import annotations

import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import Config
from .dataset import Trajectory, atomic_write, dumps_lossless, rollout, stats_of
from .env import CrowdEnv
from .features import clip_action_norm
from .nn import ParamStore, lamb_step, mse_loss, read_header
from .policy import Actor, DtPolicy, action_loss, tokenize, valid_weight
from .replay import HybridBuffer
from .rtgp import RtgPredictor

REPORT_SCHEMA = 1
ITERS_PER_EPOCH = 50
# every update is cut into SHARDS shards (fewer when the batch has under
# MIN_SHARD_WINDOWS windows a shard, where a shard's per-call overhead
# outweighs its arithmetic) run on at most MAX_WORKERS threads, whatever
# the machine, so its bytes depend only on the batch
SHARDS = 4
MIN_SHARD_WINDOWS = 8
MAX_WORKERS = 2

# stage seed offsets (one global seed reproduces each stage independently)
SEED_DATA = 1_000_000
SEED_MODEL_INIT = 2_000_000
SEED_PRETRAIN = 3_000_000
SEED_FINETUNE = 4_000_000
SEED_EVAL = 9_000_000


class TrainingAborted(RuntimeError):
    """Loss went non-finite; carries the last finite parameter stores."""

    def __init__(self, message, policy_store, rtgp_store):
        super().__init__(message)
        self.policy_store = policy_store
        self.rtgp_store = rtgp_store


def build_models(cfg: Config) -> tuple[DtPolicy, RtgPredictor]:
    net, sim = cfg.net, cfg.sim
    policy = DtPolicy(num_peds=sim.num_peds, context=net.policy_context,
                      hidden_dim=net.hidden_dim, num_heads=net.num_heads,
                      ffn_dim=net.ffn_dim, num_blocks=net.policy_blocks,
                      v_max=sim.v_max)
    rtgp = RtgPredictor(num_peds=sim.num_peds, window=net.rtgp_window,
                        hidden_dim=net.hidden_dim, num_heads=net.num_heads,
                        ffn_dim=net.ffn_dim, head_hidden=net.head_hidden)
    return policy, rtgp


# -- batch assembly ---------------------------------------------------------


def sample_windows(trajs, size: int, rng: np.random.Generator):
    """`size` (trajectory index, end step) pairs: all trajectories are
    drawn uniformly with replacement first, then one end step per pick."""
    picks = [int(i) for i in rng.integers(0, len(trajs), size=size)]
    return [(i, int(rng.integers(0, trajs[i].num_steps))) for i in picks]


def distinct_windows(windows):
    """The distinct entries of `windows`, in first-draw order, and how many
    times each was drawn. An entry is (objects..., end step); the objects
    compare by identity, so the same trajectory drawn twice is one key."""
    groups = {}
    for window in windows:
        key = (*map(id, window[:-1]), window[-1])
        groups.setdefault(key, [window, 0])[1] += 1
    return [w for w, _ in groups.values()], np.array([c for _, c in groups.values()])


def policy_batch_from(trajs_ends, policy: DtPolicy, rtg_sequences):
    """Stack the distinct context windows of a policy update.

    rtg_sequences holds the per-step conditioning array of each window's
    trajectory (stored labels or predictor outputs), indexed like
    trajs_ends. The targets are the windows' logged actions clipped
    inside the squash; padded slots stay zero. Returns (batch, targets,
    counts): a window drawn several times appears once, weighted by its
    count in the loss.
    """
    windows, counts = distinct_windows(
        [(traj, rtg, end) for (traj, end), rtg in zip(trajs_ends, rtg_sequences,
                                                      strict=True)])
    batch = tokenize([(traj.states, traj.actions, rtg) for traj, rtg, _ in windows],
                     [end for *_, end in windows], policy.context, policy.num_peds)
    return batch, clip_action_norm(batch.slots("action"), policy.v_max), counts


def rtgp_batch_from(trajs_ends, rtgp: RtgPredictor):
    """The distinct history windows among trajs_ends, their return-to-go
    targets and their draw counts."""
    windows, counts = distinct_windows(trajs_ends)
    episodes = [(t.states, t.actions, t.rewards) for t, _ in windows]
    targets = np.array([t.rtg[e] for t, e in windows])
    return rtgp.window_batch(episodes, [e for _, e in windows]), targets, counts


# -- sharded updates ----------------------------------------------------------

_pool: ThreadPoolExecutor | None = None


def _training_pool() -> ThreadPoolExecutor:
    """The process's training threads, made on first use: MAX_WORKERS or
    the CPUs this process may run on, whichever is fewer. numpy releases
    the interpreter lock in its GEMMs and large ufuncs, so shards of one
    update overlap."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(min(MAX_WORKERS, len(os.sched_getaffinity(0))),
                                   thread_name_prefix="socnav-train")
    return _pool


def pool_map(fn, items) -> list:
    """[fn(item) for item in items] on the training threads. Waits for
    every call, then returns the results in item order or raises the
    first failure in item order."""
    futures = [_training_pool().submit(fn, item) for item in items]
    wait(futures)
    return [f.result() for f in futures]


def _sharded(store: ParamStore, order, shard_fn) -> np.ndarray:
    """Cut the windows `order` into contiguous shards (see SHARDS) and run
    shard_fn(view, idx) -> outputs on each, where view is a gradient view
    of store (ParamStore.grad_view). store.grads become the views' sums,
    added in shard order; returns the outputs concatenated in `order`."""
    def run(idx):
        view = store.grad_view()
        return view.grads, shard_fn(view, idx)

    shards = max(1, min(SHARDS, len(order) // MIN_SHARD_WINDOWS))
    results = pool_map(run, np.array_split(order, shards))
    store.zero_grads()
    for grads, _ in results:
        for name, g in grads.items():
            store.grads[name] += g
    return np.concatenate([out for _, out in results])


def policy_update(policy: DtPolicy, store: ParamStore, batch, targets, counts) -> float:
    """Loss of one policy update (see policy.action_loss); store.grads
    get its gradients. Every shard is normalised by the whole batch's
    weight, so the loss is the exact sum of per-window terms however the
    batch is cut."""
    wsum = valid_weight(batch.rows > 0, counts)
    a_hat = _sharded(store, np.arange(len(counts)), lambda view, idx: policy.loss_and_grad(
        view, batch.take(idx), targets[idx], counts[idx], wsum=wsum)[1])
    return action_loss(a_hat, targets, batch.rows > 0, counts, wsum)[0]


def rtgp_update(rtgp: RtgPredictor, store: ParamStore, batch, targets, counts) -> float:
    """Loss of one return-predictor update (see nn.mse_loss); store.grads
    get its gradients. Windows are cut in the order of their end step's
    row (by episode, then step), so a shard's overlapping windows share
    most of the step rows it encodes."""
    order = np.argsort(batch.rows[:, -1], kind="stable")
    total = counts.sum()
    rhat = _sharded(store, order, lambda view, idx: rtgp.loss_and_grad(
        view, batch.take(idx), targets[idx], counts[idx], total=total)[1])
    return mse_loss(rhat, targets[order], counts[order], total)[0]


# -- offline pre-training ---------------------------------------------------


@dataclass
class PretrainResult:
    policy_store: ParamStore
    rtgp_store: ParamStore
    policy_losses: list
    rtgp_losses: list
    iterations: int
    env_transitions: int = 0   # offline phase never touches the environment


def _plateaued(epoch_losses, patience: int, delta: float) -> bool:
    if len(epoch_losses) < patience + 1:
        return False
    recent_best = min(epoch_losses[-patience:])
    earlier_best = min(epoch_losses[:-patience])
    return earlier_best - recent_best < delta


def pretrain_offline(trajectories: list[Trajectory], cfg: Config,
                     seed: int | None = None) -> PretrainResult:
    """Alternating policy / return-predictor updates on the offline data."""
    if not trajectories:
        raise ValueError("pretraining needs a non-empty dataset")
    train = cfg.train
    seed = cfg.seed if seed is None else seed
    policy, rtgp = build_models(cfg)
    policy_store = policy.init_store(seed + SEED_MODEL_INIT)
    rtgp_store = rtgp.init_store(seed + SEED_MODEL_INIT + 1)
    rng = np.random.default_rng(seed + SEED_PRETRAIN)

    policy_losses, rtgp_losses = [], []
    epoch_pol, epoch_rtg = [], []
    iters = 0
    for it in range(train.pretrain_iters):
        trajs_ends = [(trajectories[i], e) for i, e in
                      sample_windows(trajectories, train.batch_size, rng)]
        pol_loss = policy_update(policy, policy_store, *policy_batch_from(
            trajs_ends, policy, [t.rtg for t, _ in trajs_ends]))

        trajs_ends = [(trajectories[i], e) for i, e in
                      sample_windows(trajectories, train.batch_size, rng)]
        rtg_loss = rtgp_update(rtgp, rtgp_store, *rtgp_batch_from(trajs_ends, rtgp))

        if not (math.isfinite(pol_loss) and math.isfinite(rtg_loss)):
            raise TrainingAborted(f"non-finite loss at iteration {it}",
                                  policy_store, rtgp_store)
        lamb_step(policy_store, train.learning_rate)
        lamb_step(rtgp_store, train.learning_rate)
        policy_losses.append(pol_loss)
        rtgp_losses.append(rtg_loss)
        iters = it + 1

        if iters % ITERS_PER_EPOCH == 0:
            epoch_pol.append(float(np.mean(policy_losses[-ITERS_PER_EPOCH:])))
            epoch_rtg.append(float(np.mean(rtgp_losses[-ITERS_PER_EPOCH:])))
            if (_plateaued(epoch_pol, train.pretrain_patience, train.plateau_delta)
                    and _plateaued(epoch_rtg, train.pretrain_patience,
                                   train.plateau_delta)):
                break

    return PretrainResult(policy_store=policy_store, rtgp_store=rtgp_store,
                          policy_losses=policy_losses, rtgp_losses=rtgp_losses,
                          iterations=iters)


# -- online fine-tuning ------------------------------------------------------


@dataclass
class EpisodeLog:
    seed: int
    outcome: str
    steps: int
    duration: float
    episode_return: float
    sampled: int
    fast_updates: int
    slow_updates: int
    policy_loss: float
    rtgp_loss: float | None      # mean of the fast updates' losses; None when fixed


@dataclass
class FinetuneResult:
    policy_store: ParamStore
    rtgp_store: ParamStore
    episodes: list
    env_transitions: int
    rtg_mode: str


def run_policy_episode(env: CrowdEnv, actor: Actor, seed: int, gamma: float,
                       record_world: bool = False):
    """One greedy rollout of the conditioned policy; returns the labelled
    trajectory and the world-coordinate log (empty unless requested)."""
    actor.begin_episode()
    return rollout(env, lambda e, obs: actor.act(obs.joint), seed, gamma,
                   record_world=record_world, observe=actor.observe)


def finetune_online(policy_store: ParamStore, rtgp_store: ParamStore,
                    offline: list[Trajectory], cfg: Config,
                    seed: int | None = None, episodes: int | None = None,
                    rtg_mode: str | None = None) -> FinetuneResult:
    """Hybrid-replay fine-tuning with dual-timescale updates.

    rtg_mode "rtgp" is the full method; "fixed" is the fixed-target
    conditioning ablation (the return predictor is neither queried nor
    updated, and policy updates condition on stored return labels, which
    is how a fixed-target method trains online).
    """
    train, sim = cfg.train, cfg.sim
    seed = cfg.seed if seed is None else seed
    episodes = train.finetune_episodes if episodes is None else episodes
    rtg_mode = train.rtg_mode if rtg_mode is None else rtg_mode

    policy, rtgp = build_models(cfg)
    env = CrowdEnv(sim)
    buffer = HybridBuffer(offline, capacity=train.buffer_capacity)
    rng = np.random.default_rng(seed + SEED_FINETUNE)
    actor = Actor(policy, policy_store, rtg_source=rtg_mode, rtgp=rtgp,
                  rtgp_store=rtgp_store, fixed_target=train.fixed_rtg_target)

    logs = []
    env_transitions = 0
    for e in range(episodes):
        ep_seed = seed + SEED_FINETUNE + 1 + e
        traj, _ = run_policy_episode(env, actor, ep_seed, train.gamma)
        env_transitions += traj.num_steps
        buffer.insert(traj)

        sampled = buffer.sample_trajectories(train.sampled_trajs, rng)
        rtg_losses = []
        if rtg_mode == "rtgp":
            # fast timescale: one predictor update per sampled trajectory
            for k, tau in enumerate(sampled):
                ends = rng.integers(0, tau.num_steps, size=train.batch_size)
                trajs_ends = [(tau, int(u)) for u in ends]
                rtg_loss = rtgp_update(rtgp, rtgp_store, *rtgp_batch_from(trajs_ends, rtgp))
                if not math.isfinite(rtg_loss):
                    raise TrainingAborted(f"non-finite predictor loss at episode {e}, "
                                          f"fast update {k}", policy_store, rtgp_store)
                lamb_step(rtgp_store, train.learning_rate)
                rtg_losses.append(rtg_loss)
            # the slow update conditions on fresh predictions (post fast updates),
            # made once per distinct trajectory: sampling draws with replacement
            distinct = {id(t): t for t in sampled}
            fresh = dict(zip(distinct, pool_map(
                lambda t: rtgp.predict_sequence(rtgp_store, t.states, t.actions, t.rewards),
                distinct.values())))
            sequences = [fresh[id(t)] for t in sampled]
        else:
            sequences = [t.rtg for t in sampled]

        # slow timescale: one policy update on windows from the sampled trajectories
        windows = sample_windows(sampled, train.batch_size, rng)
        pol_loss = policy_update(policy, policy_store, *policy_batch_from(
            [(sampled[i], u) for i, u in windows], policy, [sequences[i] for i, _ in windows]))
        if not math.isfinite(pol_loss):
            raise TrainingAborted(f"non-finite policy loss at episode {e}",
                                  policy_store, rtgp_store)
        lamb_step(policy_store, train.learning_rate)

        logs.append(EpisodeLog(seed=ep_seed, outcome=traj.outcome,
                               steps=traj.num_steps, duration=traj.duration,
                               episode_return=traj.episode_return,
                               sampled=len(sampled), fast_updates=len(rtg_losses),
                               slow_updates=1, policy_loss=pol_loss,
                               rtgp_loss=(math.fsum(rtg_losses) / len(rtg_losses)
                                          if rtg_losses else None)))
    return FinetuneResult(policy_store=policy_store, rtgp_store=rtgp_store,
                          episodes=logs, env_transitions=env_transitions,
                          rtg_mode=rtg_mode)


# -- evaluation --------------------------------------------------------------


@dataclass
class EvalReport:
    """Evaluation metrics over a seeded episode batch."""

    success_rate: float
    collision_rate: float
    timeout_rate: float
    mean_nav_time: float | None
    mean_return: float
    sampling_efficiency: float | None   # mean_return / train_transitions
    train_transitions: int
    num_episodes: int
    rtg_mode: str
    per_episode: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"schema": REPORT_SCHEMA, **asdict(self)}

    def to_json(self) -> str:
        return dumps_lossless(self.to_dict()) + "\n"


def sampling_efficiency(mean_return: float, train_transitions: int) -> float | None:
    """Mean evaluation return per environment transition consumed in training."""
    if train_transitions <= 0:
        return None
    return mean_return / train_transitions


# -- checkpoint bundle (policy + return predictor in one file) ---------------

BUNDLE_MAGIC = b"SOCNAV-BUNDLE-1\n"


def save_bundle(path, policy_store: ParamStore, rtgp_store: ParamStore,
                meta: dict | None = None):
    """One file holding both parameter stores plus run metadata; the bytes
    are a pure function of the contents."""
    p = policy_store.to_bytes(extra={"role": "policy"})
    r = rtgp_store.to_bytes(extra={"role": "rtgp"})
    header = json.dumps({"format": 1, "meta": meta or {},
                         "policy_len": len(p), "rtgp_len": len(r)},
                        sort_keys=True).encode()
    with atomic_write(path, "wb") as fh:
        fh.write(BUNDLE_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(p)
        fh.write(r)


def load_bundle(path):
    """Read a bundle; a truncated file, a header field that disagrees with
    what save_bundle writes or bytes after the predictor stream raise
    ValueError naming the path and the byte offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        header, off = read_header(data, 0, BUNDLE_MAGIC, "checkpoint bundle",
                                  ("meta", "policy_len", "rtgp_len"))
        if not isinstance(header["meta"], dict):
            raise ValueError(f"checkpoint bundle header at byte offset "
                             f"{len(BUNDLE_MAGIC) + 8} has meta {header['meta']!r}, "
                             f"not an object")
        stores = []
        for role in ("policy", "rtgp"):
            store, extra, end = ParamStore.from_bytes(data, off)
            if not (isinstance(extra, dict) and extra.get("role") == role):
                raise ValueError(f"{role} stream at byte offset {off} has extra "
                                 f"{extra!r}, not role {role!r}")
            stated = header[f"{role}_len"]
            if stated != end - off:
                raise ValueError(f"{role} stream at byte offset {off} spans {end - off} "
                                 f"bytes, not the header's {role}_len {stated!r}")
            stores.append(store)
            off = end
        if off != len(data):
            raise ValueError(f"{len(data) - off} unexpected bytes after the "
                             f"predictor stream at byte offset {off}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return *stores, header["meta"]


def evaluate(policy_store: ParamStore, rtgp_store: ParamStore | None, cfg: Config,
             num_episodes: int, seed: int | None = None,
             rtg_mode: str | None = None, train_transitions: int = 0,
             record_world: bool = False) -> tuple[EvalReport, list]:
    """Greedy seeded rollouts on the evaluation seed range (disjoint from
    training seeds by construction)."""
    train = cfg.train
    seed = cfg.seed if seed is None else seed
    rtg_mode = train.rtg_mode if rtg_mode is None else rtg_mode
    policy, rtgp = build_models(cfg)
    env = CrowdEnv(cfg.sim)
    actor = Actor(policy, policy_store, rtg_source=rtg_mode, rtgp=rtgp,
                  rtgp_store=rtgp_store, fixed_target=train.fixed_rtg_target)

    trajs, worlds = [], []
    for e in range(num_episodes):
        traj, world = run_policy_episode(env, actor, seed + SEED_EVAL + e, train.gamma,
                                         record_world=record_world)
        trajs.append(traj)
        if record_world:
            worlds.append(world)

    stats = stats_of(trajs)
    report = EvalReport(
        success_rate=stats.success_rate, collision_rate=stats.collision_rate,
        timeout_rate=stats.timeout_rate, mean_nav_time=stats.mean_nav_time,
        mean_return=stats.mean_return,
        sampling_efficiency=sampling_efficiency(stats.mean_return, train_transitions),
        train_transitions=train_transitions, num_episodes=num_episodes,
        rtg_mode=rtg_mode,
        per_episode=[{"seed": t.seed, "outcome": t.outcome, "steps": t.num_steps,
                      "duration": t.duration, "return": t.episode_return}
                     for t in trajs])
    return report, worlds
