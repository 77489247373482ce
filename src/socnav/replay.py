"""Hybrid offline-online experience buffer with return-based priorities.

The buffer is a union of the frozen offline dataset and a FIFO online
store bounded so total transitions stay within the configured capacity.
Sampling draws whole trajectories with replacement, proportional to
min-max normalized episode return plus a floor, doubled for successful
episodes; the trainer cuts windows uniformly within a drawn trajectory.

Priorities are computed at sampling time from the stored trajectories'
returns and success flags, normalized against the current min/max. The
dual-timescale update counts live in the trainer.
"""

from __future__ import annotations

import numpy as np

from .dataset import Trajectory, check_capacity

PRIORITY_EPSILON = 0.01
SUCCESS_MULTIPLIER = 2.0


class HybridBuffer:
    """Union of the offline dataset and a capacity-bounded online store."""

    def __init__(self, offline: list[Trajectory], capacity: int = 100_000,
                 epsilon: float = PRIORITY_EPSILON):
        # offline entries first, then the online store oldest first
        self.trajectories: list[Trajectory] = list(offline)
        self.num_offline = len(self.trajectories)
        self.epsilon = epsilon

        self._online_budget = capacity - check_capacity(self.trajectories, capacity)
        self._online_transitions = 0

    def __len__(self):
        return len(self.trajectories)

    @property
    def num_online(self) -> int:
        return len(self.trajectories) - self.num_offline

    def insert(self, traj: Trajectory):
        """Append a finished online trajectory, evicting oldest first when
        the online transition budget overflows. Offline entries are never
        touched."""
        if traj.num_steps == 0:
            raise ValueError("cannot insert an incomplete (empty) trajectory")
        self.trajectories.append(traj)
        self._online_transitions += traj.num_steps
        while self._online_transitions > self._online_budget and self.num_online > 1:
            evicted = self.trajectories.pop(self.num_offline)
            self._online_transitions -= evicted.num_steps

    def weights(self) -> np.ndarray:
        """Unnormalized priorities for every stored trajectory."""
        g = np.array([t.episode_return for t in self.trajectories])
        g_min, g_max = g.min(), g.max()
        if g_max > g_min:
            w = (g - g_min) / (g_max - g_min) + self.epsilon
        else:
            w = np.full(len(g), self.epsilon)
        w = np.where([t.success for t in self.trajectories], SUCCESS_MULTIPLIER * w, w)
        return w

    def probabilities(self) -> np.ndarray:
        w = self.weights()
        return w / w.sum()

    def sample_trajectories(self, batch: int, rng: np.random.Generator):
        """Draw trajectories with replacement, proportional to priority."""
        if len(self) == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.choice(len(self), size=batch, replace=True, p=self.probabilities())
        return [self.trajectories[int(i)] for i in idx]
