"""Tour of the crowd environment: scenarios, the robot-centric frame,
the reward branches, and a full seeded episode."""

import numpy as np

from socnav.config import SimConfig
from socnav.core import reward, sample_scenario, to_robot_frame
from socnav.dataset import rollout
from socnav.env import CrowdEnv

print("== scenario sampling ==")
scn = sample_scenario(seed=7, num_peds=5)
print(f"robot: {scn.robot_start} -> {scn.robot_goal}")
for i, (s, g) in enumerate(zip(scn.ped_starts, scn.ped_goals)):
    print(f"  ped {i}: ({s[0]:+.2f}, {s[1]:+.2f}) -> ({g[0]:+.2f}, {g[1]:+.2f})")

print("\n== reward branches ==")
for d_min, d_goal in [(-0.01, 5.0), (0.1, 5.0), (0.5, 0.2), (0.5, 5.0)]:
    print(f"  clearance {d_min:+.2f} m, goal distance {d_goal:.1f} m "
          f"-> reward {reward(d_min, d_goal, 0.3):+.2f}")

print("\n== robot-centric frame is translation invariant ==")
env = CrowdEnv(SimConfig())
env.reset(7)
obs = env.observe()
print(f"joint state ({obs.joint.shape[0]} values), goal distance "
      f"{obs.robot_part[0]:.3f} m")
for ped in env.peds:
    ped.px += 3.0
    ped.py += 7.0
env.robot.px += 3.0
env.robot.py += 7.0
env.robot.gx += 3.0
env.robot.gy += 7.0
shifted = env.observe()
print(f"after shifting the whole world by (3, 7): max observation change = "
      f"{np.abs(shifted.joint - obs.joint).max():.2e}")

print("\n== a full episode under the reference controller ==")
env = CrowdEnv(SimConfig())
traj, _ = rollout(env, lambda e, o: e.robot_orca_action(), seed=7, gamma=0.99)
print(f"outcome: {traj.outcome} after {traj.num_steps} steps "
      f"({traj.duration:.2f} s), discounted return {traj.episode_return:+.4f}")
