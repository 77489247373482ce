"""The collision-avoidance controller: velocity half-planes, the
constrained velocity program, and a crossing episode without contact."""

import itertools

import numpy as np

from socnav.config import OrcaConfig, SimConfig
from socnav.core import AgentState, point_to_segment_dist
from socnav.dataset import rollout
from socnav.env import CrowdEnv
from socnav.orca import orca_action, orca_halfplanes, solve_velocity

A = AgentState(px=-2, py=0, vx=0, vy=0, radius=0.3, gx=2, gy=0, v_pref=1.0)
B = AgentState(px=2, py=0, vx=0, vy=0, radius=0.3, gx=-2, gy=0, v_pref=1.0)
cfg = OrcaConfig()

print("== head-on pair ==")
# one pass builds every agent's half-planes: A's against B, B's against A
planes, _ = orca_halfplanes([A, B], 2, cfg)
print(f"one half-plane per neighbor: point {planes[0].point}, "
      f"normal {planes[0].normal}")
va, vb = orca_action([A, B], 2, cfg)
print(f"actions: A {va}, B {vb} (each yields half the adjustment)")

print("\n== velocity program ==")
pref = np.array([1.0, 0.0])
v = solve_velocity(planes, pref, max_speed=1.0)
print(f"preferred {pref} -> constrained {v}, "
      f"constraint slack {planes[0].normal @ (v - planes[0].point):+.2e}")

print("\n== five pedestrians crossing, tracking worst separation ==")
# agents move linearly within a step, so a pair's separation sweeps the
# segment between its values at consecutive world snapshots
sim = SimConfig()
env = CrowdEnv(sim)
worst = np.inf
for seed in range(10):
    _, world = rollout(env, lambda e, o: e.robot_orca_action(), seed=seed, gamma=0.99,
                       record_world=True)
    for (_, p0), (_, p1) in zip(world, world[1:]):
        for i, j in itertools.combinations(range(len(p0)), 2):
            gap = point_to_segment_dist(p0[j] - p0[i], p1[j] - p1[i]) - 2 * sim.ped_radius
            worst = min(worst, gap)
print(f"closest pedestrian-pedestrian surface gap over 10 episodes: "
      f"{worst:.4f} m (never negative: no contact)")
