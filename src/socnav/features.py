"""Featurization shared by the return predictor and the policy.

Joint observations are canonicalized by sorting the pedestrian blocks by
distance to the robot (nearest first, stable order on ties) before any
network consumes them. This makes every model output exactly invariant
to pedestrian labelling while the spatial attention still treats the
blocks as a set.

Both networks read fixed-width windows of episode steps, front-padded
before the episode start, as one kind of batch: `Windows`, named step
tables plus the row each slot reads. Row 0 of every table is the
all-zero padding row and a slot is real where its row is above 0;
`slot_steps` is the one plan of which step each slot reads.
`window_tables` builds a training batch: it stacks each episode's span
of steps once however many windows hold them, and `Windows.take` keeps
the read rows, for batches and shards alike; the networks only say how
to build a step. Acting keeps one such table per value for its episode
(row u + 1 step u, policy.EpisodeContext) and reads its windows from it
by row. The predictor's step token at time u carries the previous
transition's action and reward (zeros at the episode start), which keeps
training and rollout inputs identically distributed: the current step's
action does not exist yet when the return estimate is needed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import PED_PART_DIM, ROBOT_PART_DIM

SPATIAL_TOKEN_DIM = ROBOT_PART_DIM + 3          # robot part + prev action + prev reward


def temporal_token_dim(num_peds: int) -> int:
    return ROBOT_PART_DIM + PED_PART_DIM * num_peds + 3


def canonicalize_joint(joint: np.ndarray, num_peds: int) -> np.ndarray:
    """Sort pedestrian blocks of joint vectors by distance, nearest first.

    joint: (..., 6 + 7m). The distance field is column 5 of each block.
    """
    if num_peds == 0:
        return joint
    lead = joint[..., :ROBOT_PART_DIM]
    peds = joint[..., ROBOT_PART_DIM:].reshape(*joint.shape[:-1], num_peds, PED_PART_DIM)
    order = np.argsort(peds[..., 5], axis=-1, kind="stable")
    peds = np.take_along_axis(peds, order[..., None], axis=-2)
    return np.concatenate([lead, peds.reshape(*joint.shape[:-1],
                                              num_peds * PED_PART_DIM)], axis=-1)


def slot_steps(ends, width: int) -> np.ndarray:
    """(B, width) step each slot of the windows ending at steps `ends`
    (inclusive) reads, -1 at front padding: in a table whose row u + 1
    holds step u, step + 1 is the slot's row and padding reads row 0."""
    return np.maximum(np.asarray(ends)[:, None] + np.arange(1 - width, 1), -1)


class Windows(NamedTuple):
    """A batch of windows over shared step tables.

    tables: name -> (S, ...) per-step values, row 0 the all-zero padding
    row; rows: (B, width) the row each slot reads, 0 at front padding.
    """

    tables: dict
    rows: np.ndarray

    def slots(self, name: str) -> np.ndarray:
        """Table `name` gathered at every slot: (B, width, ...)."""
        return self.tables[name][self.rows]

    def take(self, idx) -> "Windows":
        """Windows idx of the batch over only the rows they read and the
        padding row, which stays row 0: the rule for batches and shards."""
        rows = self.rows[idx]
        read = np.union1d(0, rows)
        return Windows({name: table[read] for name, table in self.tables.items()},
                       np.searchsorted(read, rows))


def window_tables(episodes, ends, width: int, build) -> Windows:
    """The step tables a batch of `width`-slot windows reads.

    Window i ends at step ends[i] (inclusive) of episodes[i], a tuple of
    per-step sequences whose first is the states. Windows of one episode
    (the same objects) share its steps: `build(episode, lo, hi)` returns a
    dict of named per-step arrays of steps lo..hi, from its earliest
    window's first slot to its latest end. Each table stacks every
    episode's span once, in order, after one all-zero padding row 0 of
    its dtype, and `Windows.take` keeps the read rows, as for a shard.
    """
    if len(episodes) != len(ends):
        raise ValueError(f"{len(episodes)} episodes for {len(ends)} window ends")
    if len(ends) == 0:
        raise ValueError("empty batch")
    groups = {}
    for i, episode in enumerate(episodes):
        groups.setdefault(tuple(map(id, episode)), (episode, []))[1].append(i)
    ends = np.asarray(ends)
    rows = np.empty((len(ends), width), dtype=np.intp)
    parts = {}
    first = 1
    for episode, members in groups.values():
        e = ends[members]
        earliest, hi = int(e.min()), int(e.max())
        if earliest < 0 or hi >= len(episode[0]):
            raise ValueError("empty or out-of-range window")
        lo = max(0, earliest + 1 - width)
        span = hi + 1 - lo
        steps = slot_steps(e, width)
        rows[members] = np.where(steps >= 0, steps - lo + first, 0)
        for name, table in build(episode, lo, hi).items():
            if len(table) != span:
                raise ValueError(f"table {name!r} holds {len(table)} rows for the "
                                 f"{span} steps {lo}..{hi}")
            parts.setdefault(name, []).append(table)
        first += span
    tables = {name: np.concatenate([np.zeros((1, *t[0].shape[1:]), dtype=t[0].dtype), *t])
              for name, t in parts.items()}
    del parts   # free the spans before take copies out the read rows
    return Windows(tables, rows).take(slice(None))


def history_window(states, actions, rewards, lo: int, hi: int, num_peds: int):
    """Step tokens of episode steps lo..hi (inclusive).

    states/actions/rewards are per-episode arrays or lists; only rows up
    to `hi` are read, so actions and rewards may stop before `hi`. Returns:
      spatial:  (n, m+1, SPATIAL_TOKEN_DIM) one robot + m ped tokens per step
      temporal: (n, temporal_token_dim)     flat step tokens
    """
    joint = canonicalize_joint(np.asarray(states[lo:hi + 1], dtype=np.float64), num_peds)
    n, jd = joint.shape
    temporal = np.zeros((n, temporal_token_dim(num_peds)))
    temporal[:, :jd] = joint
    # step u carries transition u - 1; the episode's first step has none
    first = max(lo, 1)
    temporal[first - lo:, jd:jd + 2] = np.reshape(actions[first - 1:hi], (-1, 2))
    temporal[first - lo:, jd + 2] = rewards[first - 1:hi]
    spatial = np.zeros((n, num_peds + 1, SPATIAL_TOKEN_DIM))
    spatial[:, 0, :ROBOT_PART_DIM] = temporal[:, :ROBOT_PART_DIM]
    spatial[:, 0, ROBOT_PART_DIM:] = temporal[:, jd:]
    spatial[:, 1:, :PED_PART_DIM] = joint[:, ROBOT_PART_DIM:].reshape(
        n, num_peds, PED_PART_DIM)
    return spatial, temporal


def clip_action_norm(actions: np.ndarray, v_max: float):
    """Radially clip actions to 0.999 * v_max (regression targets must stay
    strictly inside the squashed policy's range)."""
    actions = np.asarray(actions, dtype=np.float64)
    norm = np.linalg.norm(actions, axis=-1, keepdims=True)
    limit = 0.999 * v_max
    scale = np.where(norm > limit, limit / np.maximum(norm, 1e-12), 1.0)
    return actions * scale
