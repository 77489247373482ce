"""Agent state, scenario sampling, the robot-centric transform and the reward.

The environment is the circle-crossing crowd task: the robot travels from
(0, -4) to (0, 4) through pedestrians that cross a radius-4 circle. All
geometry is planar and holonomic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

ROBOT_START = (0.0, -4.0)
ROBOT_GOAL = (0.0, 4.0)


class Status(enum.Enum):
    RUNNING = "running"
    GOAL = "goal"
    COLLISION = "collision"
    TIMEOUT = "timeout"


@dataclass
class AgentState:
    """Planar agent: position, velocity, size, goal, preferred speed, heading."""

    px: float
    py: float
    vx: float
    vy: float
    radius: float
    gx: float
    gy: float
    v_pref: float
    heading: float = 0.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be > 0")
        if self.v_pref <= 0:
            raise ValueError("v_pref must be > 0")

    @property
    def pos(self) -> np.ndarray:
        return np.array([self.px, self.py])

    def dist_to_goal(self) -> float:
        return math.hypot(self.gx - self.px, self.gy - self.py)

    def moved(self, dt: float) -> "AgentState":
        """State after holding the current velocity for dt seconds."""
        heading = self.heading
        if self.vx != 0.0 or self.vy != 0.0:
            heading = math.atan2(self.vy, self.vx)
        return replace(self, px=self.px + self.vx * dt, py=self.py + self.vy * dt,
                       heading=heading)


@dataclass
class Scenario:
    """One sampled episode layout. The seed fully determines every field."""

    robot_start: tuple
    robot_goal: tuple
    ped_starts: np.ndarray   # (m, 2)
    ped_goals: np.ndarray    # (m, 2)
    seed: int
    arena_radius: float


def sample_scenario(seed: int, num_peds: int, arena_radius: float = 4.0,
                    perturbation: float = 0.5) -> Scenario:
    """Sample a circle-crossing scenario.

    Pedestrian i starts at angle 2*pi*i/m on the arena circle, plus uniform
    per-axis noise in [-perturbation, perturbation]; its goal is the antipode
    of the unperturbed start plus a fresh draw from the same noise law.
    """
    if num_peds < 0:
        raise ValueError("num_peds must be >= 0")
    rng = np.random.default_rng(seed)
    starts = np.zeros((num_peds, 2))
    goals = np.zeros((num_peds, 2))
    for i in range(num_peds):
        angle = 2.0 * math.pi * i / num_peds
        anchor = arena_radius * np.array([math.cos(angle), math.sin(angle)])
        starts[i] = anchor + rng.uniform(-perturbation, perturbation, size=2)
        goals[i] = -anchor + rng.uniform(-perturbation, perturbation, size=2)
    return Scenario(robot_start=ROBOT_START, robot_goal=ROBOT_GOAL,
                    ped_starts=starts, ped_goals=goals, seed=seed,
                    arena_radius=arena_radius)


ROBOT_PART_DIM = 6
PED_PART_DIM = 7


def joint_dim(num_peds: int) -> int:
    return ROBOT_PART_DIM + PED_PART_DIM * num_peds


@dataclass
class RobotFrameState:
    """Joint state in the robot-centric frame.

    The world is rotated so the goal direction is the positive x-axis and
    translated so the robot sits at the origin; absolute world coordinates
    never appear in the output.

    robot_part: [d_goal, vx, vy, v_pref, radius, heading]   (frame-relative)
    ped_parts:  rows [px, py, vx, vy, radius, dist, radius + robot_radius]
    """

    robot_part: np.ndarray
    ped_parts: np.ndarray

    @property
    def joint(self) -> np.ndarray:
        return np.concatenate([self.robot_part, self.ped_parts.ravel()])


def to_robot_frame(peds: list[AgentState], robot: AgentState) -> RobotFrameState:
    """Rotate/translate the world into the robot-centric frame.

    Degenerate case: if the robot sits exactly on its goal the rotation
    angle is taken as 0 (only reachable after goal termination).
    """
    dgx, dgy = robot.gx - robot.px, robot.gy - robot.py
    d_goal = math.hypot(dgx, dgy)
    alpha = math.atan2(dgy, dgx) if d_goal > 0.0 else 0.0
    cos_a, sin_a = math.cos(alpha), math.sin(alpha)

    def rot(x, y):
        return cos_a * x + sin_a * y, -sin_a * x + cos_a * y

    rvx, rvy = rot(robot.vx, robot.vy)
    heading = math.atan2(math.sin(robot.heading - alpha),
                         math.cos(robot.heading - alpha))
    robot_part = np.array([d_goal, rvx, rvy, robot.v_pref, robot.radius, heading])

    ped_parts = np.zeros((len(peds), PED_PART_DIM))
    for i, ped in enumerate(peds):
        if ped.radius <= 0:
            raise ValueError("pedestrian radius must be > 0")
        px, py = rot(ped.px - robot.px, ped.py - robot.py)
        vx, vy = rot(ped.vx, ped.vy)
        dist = math.hypot(ped.px - robot.px, ped.py - robot.py)
        ped_parts[i] = (px, py, vx, vy, ped.radius, dist, ped.radius + robot.radius)
    return RobotFrameState(robot_part=robot_part, ped_parts=ped_parts)


def reward(d_min: float, d_goal: float, robot_radius: float) -> float:
    """Step reward: collision penalty, discomfort ramp, goal bonus, else zero.

    The branches are evaluated in this order; d_min is the robot's clearance
    to the nearest pedestrian (surface to surface) and d_goal its distance
    to the goal.
    """
    if robot_radius <= 0:
        raise ValueError("robot_radius must be > 0")
    if d_min <= 0.0:
        return -0.25
    if d_min < 0.2:
        return d_min - 0.2
    if d_goal <= robot_radius:
        return 2.0
    return 0.0


@dataclass
class StepOutcome:
    """Result of one environment step."""

    observation: RobotFrameState
    reward: float
    status: Status
    d_min: float
    d_goal: float


def point_to_segment_dist(p0: np.ndarray, p1: np.ndarray):
    """Minimum distance from the origin to the segment p0 -> p1.

    Segments may be stacked along leading axes ((..., 2) inputs give a
    (...) result); a single segment gives a float.
    """
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(p1, dtype=float) - p0
    dd = np.vecdot(d, d)
    # a zero-length segment keeps t = 0, its start point
    t = np.divide(-np.vecdot(p0, d), dd, out=np.zeros(np.shape(dd)), where=dd != 0.0)
    t = np.minimum(1.0, np.maximum(0.0, t))
    c = p0 + t[..., None] * d
    return np.hypot(c[..., 0], c[..., 1])
