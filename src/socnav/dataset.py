"""Episodes as labelled trajectories: rollouts, return-to-go labels, persistence.

Trajectories are stored as JSON Lines: a header line carrying the schema
version, config hash and discount factor, then one trajectory per line.
Floats are written as the shortest repr that reads back to the same
double, so load(save(T)) reproduces every value bit for bit, -0.0 with its
sign. Files written before this encoder spelled floats with 17
significant digits: their bytes differ, their values do not.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .config import ConfigError, SimConfig
from .core import Status
from .env import CrowdEnv

SCHEMA_VERSION = 1
# terminal status of an episode -> its stored outcome label
OUTCOMES = {Status.GOAL: "success", Status.COLLISION: "collision",
            Status.TIMEOUT: "timeout"}


class DatasetFormatError(ValueError):
    """A dataset file failed to parse; the message names the line."""


def compute_rtg(rewards, gamma: float) -> np.ndarray:
    """Discounted suffix sums: G_t = r_t + gamma * G_{t+1}, G_last = r_last."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must be in (0, 1]")
    rewards = np.asarray(rewards, dtype=np.float64)
    out = np.empty_like(rewards)
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


@dataclass
class Trajectory:
    """One finished episode with return-to-go labels."""

    states: np.ndarray    # (T, joint_dim)
    actions: np.ndarray   # (T, 2)
    rewards: np.ndarray   # (T,)
    rtg: np.ndarray       # (T,)
    outcome: str
    duration: float
    seed: int

    def __post_init__(self):
        T = len(self.states)
        if not (len(self.actions) == len(self.rewards) == len(self.rtg) == T):
            raise ValueError("trajectory arrays must share one length")
        if self.outcome not in OUTCOMES.values():
            raise ValueError(f"unknown outcome {self.outcome!r}")

    @property
    def num_steps(self) -> int:
        return len(self.rewards)

    @property
    def success(self) -> bool:
        return self.outcome == "success"

    @property
    def episode_return(self) -> float:
        return float(self.rtg[0]) if self.num_steps else 0.0


def rollout(env: CrowdEnv, act_fn, seed: int, gamma: float, record_world: bool = False,
            observe=None) -> tuple[Trajectory, list]:
    """Run one episode and label it; act_fn maps (env, observation) -> action.

    `states[t]` is the observation the action `actions[t]` was chosen from.
    `observe`, when given, is called with (action, reward) after each step,
    before act_fn chooses the next action. Returns the trajectory and the
    world log: (robot_xy, peds_xy) per step including the initial
    placement when `record_world`, else empty.
    """
    obs = env.reset(seed)
    states, actions, rewards = [], [], []
    world_log = [env.world_positions()] if record_world else []
    while env.status is Status.RUNNING:
        action = np.asarray(act_fn(env, obs), dtype=float)
        states.append(obs.joint.copy())
        outcome = env.step(action)
        if observe is not None:
            observe(action, outcome.reward)
        actions.append(action.copy())
        rewards.append(outcome.reward)
        obs = outcome.observation
        if record_world:
            world_log.append(env.world_positions())
    rewards = np.asarray(rewards, dtype=np.float64)
    traj = Trajectory(states=np.asarray(states, dtype=np.float64),
                      actions=np.asarray(actions, dtype=np.float64),
                      rewards=rewards, rtg=compute_rtg(rewards, gamma),
                      outcome=OUTCOMES[env.status], duration=env.time, seed=seed)
    return traj, world_log


@dataclass
class DatasetStats:
    """Aggregate metrics of a trajectory file."""

    success_rate: float
    collision_rate: float
    timeout_rate: float
    mean_nav_time: float | None   # successful episodes only; None without successes
    mean_return: float            # mean discounted episode return, all episodes
    capacity: int                 # stored trajectory count

    def to_dict(self) -> dict:
        return asdict(self)


# -- writing ---------------------------------------------------------------


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open `path + ".tmp"` for writing and move it over `path` once the
    block completes. If the block raises, the temporary file is removed
    and `path` keeps its previous content."""
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# -- lossless JSON --------------------------------------------------------


def _plain(x):
    # numpy arrays and scalars become the lists and Python numbers they hold
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"cannot serialize {type(x)!r}")


def dumps_lossless(x) -> str:
    """Serialize to compact JSON whose floats read back bit for bit.

    Each float is written as its shortest round-trip repr. NaN and
    infinities raise ValueError; objects other than JSON types and
    numpy arrays or scalars raise TypeError.
    """
    return json.dumps(x, allow_nan=False, separators=(",", ":"), default=_plain)


def _traj_to_obj(t: Trajectory) -> dict:
    return {"seed": t.seed, "outcome": t.outcome, "duration": t.duration,
            "states": t.states, "actions": t.actions,
            "rewards": t.rewards, "rtg": t.rtg}


def _traj_from_obj(obj: dict, line_no: int) -> Trajectory:
    try:
        return Trajectory(states=np.asarray(obj["states"], dtype=np.float64),
                          actions=np.asarray(obj["actions"], dtype=np.float64),
                          rewards=np.asarray(obj["rewards"], dtype=np.float64),
                          rtg=np.asarray(obj["rtg"], dtype=np.float64),
                          outcome=obj["outcome"], duration=float(obj["duration"]),
                          seed=int(obj["seed"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"line {line_no}: bad trajectory record ({exc})") from exc


def save_trajectories(path, trajectories, gamma: float, config_hash: str = ""):
    header = {"schema": SCHEMA_VERSION, "kind": "trajectories",
              "config_hash": config_hash, "gamma": gamma,
              "count": len(trajectories)}
    with atomic_write(path) as fh:
        fh.write(dumps_lossless(header) + "\n")
        for t in trajectories:
            fh.write(dumps_lossless(_traj_to_obj(t)) + "\n")


def load_trajectories(path):
    """Returns (trajectories, header). Raises DatasetFormatError with the
    offending line number on corrupt input."""
    trajectories = []
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise DatasetFormatError("line 1: empty dataset file")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"line 1: bad header ({exc})") from exc
        if header.get("schema") != SCHEMA_VERSION or header.get("kind") != "trajectories":
            raise DatasetFormatError("line 1: unsupported schema")
        line_no = 1
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"line {line_no}: bad JSON ({exc})") from exc
            trajectories.append(_traj_from_obj(obj, line_no))
    if len(trajectories) != header.get("count"):
        raise DatasetFormatError(f"line {line_no + 1}: header count {header.get('count')} "
                                 f"but {len(trajectories)} trajectories read")
    return trajectories, header


# -- generation ------------------------------------------------------------


def generate_dataset(num_episodes: int, seed: int, sim_cfg: SimConfig,
                     gamma: float, out_path, config_hash: str = "",
                     max_capacity: int = 100_000):
    """Roll out the reference controller with an invisible robot and write
    the labelled trajectories plus a `.stats.json` sidecar.

    Episode i uses scenario seed `seed + i`; the file is a pure function
    of (num_episodes, seed, sim_cfg, gamma). More transitions than
    `max_capacity` (the replay buffer's size) raise ConfigError before
    anything is written.
    """
    if sim_cfg.robot_visible:
        raise ValueError("dataset generation requires an invisible robot")
    env = CrowdEnv(sim_cfg)
    trajectories = [rollout(env, lambda e, o: e.robot_orca_action(), seed + i, gamma)[0]
                    for i in range(num_episodes)]
    check_capacity(trajectories, max_capacity)
    save_trajectories(out_path, trajectories, gamma=gamma, config_hash=config_hash)
    stats = stats_of(trajectories)
    with atomic_write(str(out_path) + ".stats.json") as fh:
        fh.write(dumps_lossless(stats.to_dict()) + "\n")
    return trajectories, stats


def check_capacity(trajectories, capacity: int) -> int:
    """The trajectories' transition count; ConfigError when it exceeds the
    replay buffer's capacity."""
    transitions = sum(t.num_steps for t in trajectories)
    if transitions > capacity:
        raise ConfigError(f"{len(trajectories)} episodes hold {transitions} transitions, "
                          f"more than the replay capacity of {capacity}")
    return transitions


def stats_of(trajectories) -> DatasetStats:
    if not trajectories:
        raise ValueError("no trajectories to summarize")
    n = len(trajectories)
    n_success = sum(t.outcome == "success" for t in trajectories)
    n_collision = sum(t.outcome == "collision" for t in trajectories)
    n_timeout = n - n_success - n_collision
    times = [t.duration for t in trajectories if t.outcome == "success"]
    mean_time = float(np.mean(times)) if times else None
    mean_return = float(np.mean([t.episode_return for t in trajectories]))
    return DatasetStats(success_rate=n_success / n, collision_rate=n_collision / n,
                        timeout_rate=n_timeout / n, mean_nav_time=mean_time,
                        mean_return=mean_return, capacity=n)


def dataset_stats(path) -> DatasetStats:
    trajectories, _ = load_trajectories(path)
    if not trajectories:
        raise DatasetFormatError("line 2: dataset has a header but no trajectories")
    return stats_of(trajectories)
