"""Crowd-navigation environment.

One instance simulates a single episode at a time: pedestrians run the
reciprocal-avoidance controller (blind to the robot unless
`robot_visible`), the robot applies externally chosen velocity actions,
and all agents advance simultaneously by dt. Distances for collision and
discomfort are measured over the motion segment of each step, so grazing
passes between sampling instants are not missed.

A single instance is not thread-safe; run independent instances in
parallel instead.
"""

from __future__ import annotations

import math

import numpy as np

from . import orca
from .config import REGOAL_MIN_DIST, SimConfig
from .core import (AgentState, RobotFrameState, Status, StepOutcome,
                   point_to_segment_dist, reward, sample_scenario, to_robot_frame)


class ActionBoundsError(ValueError):
    """Robot action exceeded the configured speed limit."""


class CrowdEnv:
    """Circle-crossing crowd simulation with an externally controlled robot."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.robot: AgentState | None = None
        self.peds: list[AgentState] = []
        self.time = 0.0
        self.status = Status.RUNNING
        self._regoal_rng: np.random.Generator | None = None

    def reset(self, seed: int) -> RobotFrameState:
        cfg = self.cfg
        scenario = sample_scenario(seed, cfg.num_peds, arena_radius=cfg.arena_radius,
                                   perturbation=cfg.perturbation)
        self.robot = AgentState(px=scenario.robot_start[0], py=scenario.robot_start[1],
                                vx=0.0, vy=0.0, radius=cfg.robot_radius,
                                gx=scenario.robot_goal[0], gy=scenario.robot_goal[1],
                                v_pref=cfg.v_pref, heading=0.0)
        self.peds = [AgentState(px=s[0], py=s[1], vx=0.0, vy=0.0,
                                radius=cfg.ped_radius, gx=g[0], gy=g[1],
                                v_pref=cfg.ped_v_pref, heading=0.0)
                     for s, g in zip(scenario.ped_starts, scenario.ped_goals)]
        self.time = 0.0
        self.status = Status.RUNNING
        self._regoal_rng = np.random.default_rng([scenario.seed, 0x5E60])
        return self.observe()

    def observe(self) -> RobotFrameState:
        return to_robot_frame(self.peds, self.robot)

    def world_positions(self):
        """(robot_xy, peds_xy) snapshot in world coordinates."""
        peds = np.array([[p.px, p.py] for p in self.peds]).reshape(len(self.peds), 2)
        return np.array([self.robot.px, self.robot.py]), peds

    def ped_actions(self) -> np.ndarray:
        """(num_peds, 2) controller velocities; pedestrians see the robot
        only if visible."""
        world = list(self.peds)
        if self.cfg.robot_visible:
            world.append(self.robot)
        return orca.orca_action(world, len(self.peds), self.cfg.ped_orca, dt=self.cfg.dt)

    def robot_orca_action(self) -> np.ndarray:
        """Reference controller for the robot (used as the behavior policy)."""
        world = [self.robot] + list(self.peds)
        return orca.orca_action(world, 1, self.cfg.robot_orca, dt=self.cfg.dt)[0]

    def step(self, action) -> StepOutcome:
        if self.status is not Status.RUNNING:
            raise RuntimeError("step() called on a finished episode")
        action = np.asarray(action, dtype=float)
        speed = float(np.hypot(action[0], action[1]))
        if speed > self.cfg.v_max + 1e-9:
            raise ActionBoundsError(
                f"action speed {speed:.6f} exceeds v_max {self.cfg.v_max}")

        cfg = self.cfg
        ped_vels = self.ped_actions()

        # clearance to the nearest pedestrian over this step's motion segments
        robot = self.robot
        ped_state = np.array([(p.px, p.py, p.radius) for p in self.peds]).reshape(-1, 3)
        rel0 = ped_state[:, :2] - np.array([robot.px, robot.py])
        rel1 = rel0 + (ped_vels - action) * cfg.dt
        gaps = point_to_segment_dist(rel0, rel1) - ped_state[:, 2] - robot.radius
        d_min = float(gaps.min()) if len(gaps) else math.inf

        # simultaneous holonomic update, in place
        robot.vx, robot.vy = action[0], action[1]
        robot.advance(cfg.dt)
        for ped, (vx, vy) in zip(self.peds, ped_vels.tolist()):
            ped.vx, ped.vy = vx, vy
            ped.advance(cfg.dt)
        self.time += cfg.dt
        self._reassign_reached_goals()

        d_goal = self.robot.dist_to_goal()
        r = reward(d_min, d_goal, self.robot.radius)
        if d_min <= 0.0:
            self.status = Status.COLLISION
        elif d_goal <= self.robot.radius:
            self.status = Status.GOAL
        elif self.time >= cfg.timeout - 1e-12:
            self.status = Status.TIMEOUT
        return StepOutcome(observation=self.observe(), reward=r,
                           status=self.status, d_min=d_min, d_goal=d_goal)

    def _reassign_reached_goals(self):
        """Pedestrians at their goal get a fresh destination on the arena circle,
        rejected while closer than REGOAL_MIN_DIST (SimConfig.validate keeps one open)."""
        for ped in self.peds:
            if ped.dist_to_goal() > ped.radius:
                continue
            while True:
                theta = self._regoal_rng.uniform(0.0, 2.0 * math.pi)
                g = self.cfg.arena_radius * np.array([math.cos(theta), math.sin(theta)])
                if math.hypot(g[0] - ped.px, g[1] - ped.py) >= REGOAL_MIN_DIST:
                    break
            ped.gx, ped.gy = float(g[0]), float(g[1])
