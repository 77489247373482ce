"""Hybrid offline-online experience buffer with return-based priorities.

The buffer is a union of the frozen offline dataset and a FIFO online
store bounded so total transitions stay within the configured capacity.
Sampling draws whole trajectories with replacement, proportional to
min-max normalized episode return plus a floor, doubled for successful
episodes; the trainer cuts windows uniformly within a drawn trajectory.

Priorities derive from two cached per-trajectory features (return and
success), recorded once at insert time; normalization against the
current min/max happens vectorized at sampling time. The dual-timescale
update counts live in the trainer.
"""

from __future__ import annotations

import numpy as np

from .dataset import Trajectory

PRIORITY_EPSILON = 0.01
SUCCESS_MULTIPLIER = 2.0


class HybridBuffer:
    """Union of the offline dataset and a capacity-bounded online store."""

    def __init__(self, offline: list[Trajectory], capacity: int = 100_000,
                 epsilon: float = PRIORITY_EPSILON):
        self.offline = tuple(offline)
        self.online: list[Trajectory] = []
        self.capacity = capacity
        self.epsilon = epsilon

        offline_transitions = sum(t.num_steps for t in self.offline)
        if offline_transitions > capacity:
            raise ValueError(f"offline dataset ({offline_transitions} transitions) "
                             f"exceeds capacity {capacity}")
        self._online_budget = capacity - offline_transitions
        self._online_transitions = 0
        self._returns = [t.episode_return for t in self.offline]
        self._success = [t.success for t in self.offline]

    def __len__(self):
        return len(self.offline) + len(self.online)

    @property
    def num_online(self) -> int:
        return len(self.online)

    def trajectory(self, index: int) -> Trajectory:
        if index < len(self.offline):
            return self.offline[index]
        return self.online[index - len(self.offline)]

    def insert(self, traj: Trajectory):
        """Append a finished online trajectory, evicting oldest first when
        the online transition budget overflows. Offline entries are never
        touched."""
        if traj.num_steps == 0:
            raise ValueError("cannot insert an incomplete (empty) trajectory")
        self.online.append(traj)
        self._returns.append(traj.episode_return)
        self._success.append(traj.success)
        self._online_transitions += traj.num_steps
        noff = len(self.offline)
        while self._online_transitions > self._online_budget and len(self.online) > 1:
            evicted = self.online.pop(0)
            self._online_transitions -= evicted.num_steps
            del self._returns[noff]
            del self._success[noff]

    def weights(self) -> np.ndarray:
        """Unnormalized priorities for every stored trajectory."""
        g = np.asarray(self._returns)
        g_min, g_max = g.min(), g.max()
        if g_max > g_min:
            w = (g - g_min) / (g_max - g_min) + self.epsilon
        else:
            w = np.full(len(g), self.epsilon)
        w = np.where(np.asarray(self._success), SUCCESS_MULTIPLIER * w, w)
        return w

    def probabilities(self) -> np.ndarray:
        w = self.weights()
        return w / w.sum()

    def sample_trajectories(self, batch: int, rng: np.random.Generator):
        """Draw trajectories with replacement, proportional to priority."""
        if len(self) == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.choice(len(self), size=batch, replace=True, p=self.probabilities())
        return [self.trajectory(int(i)) for i in idx]
