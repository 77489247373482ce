"""Featurization shared by the return predictor and the policy.

Joint observations are canonicalized by sorting the pedestrian blocks by
distance to the robot (nearest first, stable order on ties) before any
network consumes them. This makes every model output exactly invariant
to pedestrian labelling while the spatial attention still treats the
blocks as a set.

History windows are front-padded to a fixed length with a validity mask;
the step token at time u carries the previous transition's action and
reward (zeros at the episode start), which keeps training and rollout
inputs identically distributed: the current step's action does not exist
yet when the return estimate is needed.
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


def window_slots(end: int, width: int) -> tuple[slice, int]:
    """The episode steps that fill the `width`-slot window ending at step
    `end` (inclusive), and the number of front-padding slots before them."""
    lo = max(0, end - width + 1)
    return slice(lo, end + 1), width - (end + 1 - lo)


def history_window(states, actions, rewards, end: int, width: int, num_peds: int):
    """Fixed-width history ending at step `end` (inclusive).

    states/actions/rewards are per-episode arrays or lists; only the
    window's rows are read, so actions and rewards may stop at `end`.
    Slots before the episode start are front-padding. Returns:
      spatial:  (width, m+1, SPATIAL_TOKEN_DIM) one robot + m ped tokens per step
      temporal: (width, temporal_token_dim)     flat step tokens
      valid:    (width,) bool
      current:  (joint_dim,) canonical joint state at `end`
    """
    if end < 0 or end >= len(states):
        raise ValueError("empty or out-of-range window")
    steps, pad = window_slots(end, width)
    # a step's previous transition sits in its slot of the window ending one step earlier
    prev, prev_pad = window_slots(end - 1, width)
    joint = canonicalize_joint(np.asarray(states[steps], dtype=np.float64), num_peds)
    jd = joint.shape[-1]
    temporal = np.zeros((width, temporal_token_dim(num_peds)))
    temporal[pad:, :jd] = joint
    temporal[prev_pad:, jd:jd + 2] = np.reshape(actions[prev], (-1, 2))
    temporal[prev_pad:, jd + 2] = rewards[prev]
    spatial = np.zeros((width, num_peds + 1, SPATIAL_TOKEN_DIM))
    spatial[:, 0, :ROBOT_PART_DIM] = temporal[:, :ROBOT_PART_DIM]
    spatial[:, 0, ROBOT_PART_DIM:] = temporal[:, jd:]
    spatial[:, 1:, :PED_PART_DIM] = temporal[:, ROBOT_PART_DIM:jd].reshape(
        width, num_peds, PED_PART_DIM)
    return spatial, temporal, np.arange(width) >= pad, joint[-1]


def clip_action_norm(actions: np.ndarray, v_max: float, frac: float = 0.999):
    """Radially clip actions to frac * v_max (regression targets must stay
    strictly inside the squashed policy's range)."""
    actions = np.asarray(actions, dtype=np.float64)
    norm = np.linalg.norm(actions, axis=-1, keepdims=True)
    limit = frac * v_max
    scale = np.where(norm > limit, limit / np.maximum(norm, 1e-12), 1.0)
    return actions * scale
