"""Featurization shared by the return predictor and the policy.

Joint observations are canonicalized by sorting the pedestrian blocks by
distance to the robot (nearest first, stable order on ties) before any
network consumes them. This makes every model output exactly invariant
to pedestrian labelling while the spatial attention still treats the
blocks as a set.

Both networks read fixed-width windows of episode steps, front-padded
before the episode start. `window_rows` is the one place that decides
which steps a batch of windows reads: each read step becomes one row,
built once however many windows hold it, and row 0 is the shared
padding. The predictor's step token at time u carries the previous
transition's action and reward (zeros at the episode start), which keeps
training and rollout inputs identically distributed: the current step's
action does not exist yet when the return estimate is needed.
"""

from __future__ import annotations

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


def window_rows(episodes, ends, width: int):
    """Which episode steps a batch of `width`-slot windows reads.

    Window i ends at step ends[i] (inclusive) of episodes[i], a tuple of
    per-step sequences whose first is the states. Windows of one episode
    (the same objects) share its steps. Returns (reads, rows): per distinct
    episode (episode, lo, read), where read[k] says whether some window
    holds step lo + k; and rows (B, width), the row each slot reads when
    the read steps of all episodes are stacked in order after one shared
    front-padding row 0.
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
    slot_steps = np.arange(1 - width, 1)
    reads = []
    first = 1
    for episode, members in groups.values():
        e = ends[members]
        earliest, hi = int(e.min()), int(e.max())
        if earliest < 0 or hi >= len(episode[0]):
            raise ValueError("empty or out-of-range window")
        lo = max(0, earliest + 1 - width)
        steps = e[:, None] + slot_steps
        real = steps >= 0
        read = np.zeros(hi + 1 - lo, dtype=bool)
        read[steps[real] - lo] = True
        row_of = np.cumsum(read) - 1 + first
        rows[members] = np.where(real, row_of[np.maximum(steps - lo, 0)], 0)
        reads.append((episode, lo, read))
        first = int(row_of[-1]) + 1   # step hi is read: it ends a window
    return reads, rows


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


def clip_action_norm(actions: np.ndarray, v_max: float, frac: float = 0.999):
    """Radially clip actions to frac * v_max (regression targets must stay
    strictly inside the squashed policy's range)."""
    actions = np.asarray(actions, dtype=np.float64)
    norm = np.linalg.norm(actions, axis=-1, keepdims=True)
    limit = frac * v_max
    scale = np.where(norm > limit, limit / np.maximum(norm, 1e-12), 1.0)
    return actions * scale
