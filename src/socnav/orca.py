"""Optimal reciprocal collision avoidance.

Per neighbor, a truncated velocity-obstacle cone for the configured time
horizon yields one half-plane of permitted velocities (taking half the
needed velocity change, so paired agents share the avoidance effort). The
new velocity is the feasible point closest to the preferred velocity,
found by an incremental two-constraint linear program over the max-speed
disc; when the constraints admit no common point a fallback program
minimizes the largest violation instead. The half-planes of every agent
that acts in one step are built together in one array pass; the linear
program runs per agent.

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import OrcaConfig
from .core import AgentState

_EPS = 1e-5  # parallel-line threshold in the linear programs


@dataclass
class HalfPlane:
    """Permitted-velocity half-plane.

    Feasible velocities v satisfy normal . (v - point) >= 0: the unit
    normal points from the boundary into the allowed side, along the
    velocity adjustment u that exits the obstacle cone.
    """

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        n = math.hypot(self.normal[0], self.normal[1])
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"half-plane normal must be unit length, got {n}")

    def violation(self, v: np.ndarray) -> float:
        """Positive when v lies outside the permitted side."""
        return float(self.normal @ (self.point - v))


def orca_halfplanes(world: list[AgentState], count: int, cfg: OrcaConfig,
                    dt: float = 0.25) -> list[list[HalfPlane]]:
    """Permitted-velocity half-planes of agents 0..count-1 of `world`.

    Agent i gets one half-plane per other agent of `world` within
    cfg.neighbor_dist (center distance), in world order. Its own radius
    is inflated by cfg.safety_space. Agents already in contact fall back
    to a cone truncated at the step time dt.

    All count x (len(world) - 1) pairs are handled at once; masks pick
    each pair's branch. Dot products use np.vecdot, which rounds exactly
    as a 2-vector `@` does.
    """
    m = len(world)
    if count == 0 or m < 2:
        return [[] for _ in range(count)]
    state = np.array([(a.px, a.py, a.vx, a.vy, a.radius) for a in world])
    pos, vel, radius = state[:, :2], state[:, 2:4], state[:, 4]
    # agent i's neighbors: every other agent, in world order
    agent = np.repeat(np.arange(count), m - 1)
    other = np.tile(np.arange(m - 1), count)
    other += other >= agent

    rel_pos = pos[other] - pos[agent]
    dist_sq = np.vecdot(rel_pos, rel_pos)
    near = dist_sq <= cfg.neighbor_dist ** 2
    agent, other, rel_pos, dist_sq = agent[near], other[near], rel_pos[near], dist_sq[near]
    rel_vel = vel[agent] - vel[other]
    combined = radius[agent] + cfg.safety_space + radius[other]
    combined_sq = combined * combined
    u = np.empty_like(rel_pos)
    normal = np.empty_like(rel_pos)

    is_apart = dist_sq > combined_sq
    apart = np.flatnonzero(is_apart)
    inv_horizon = 1.0 / cfg.time_horizon
    # w points from the cone's cutoff-circle center to the relative velocity
    w = rel_vel[apart] - inv_horizon * rel_pos[apart]
    w_len_sq = np.vecdot(w, w)
    dot1 = np.vecdot(w, rel_pos[apart])
    cut = (dot1 < 0.0) & (dot1 * dot1 > combined_sq[apart] * w_len_sq)

    # closest exit is through the cutoff circle
    k = apart[cut]
    w_len = np.sqrt(w_len_sq[cut])
    normal[k] = _unit(w[cut], w_len, rel_pos[k])
    u[k] = (combined[k] * inv_horizon - w_len)[:, None] * normal[k]

    # closest exit is through one of the cone legs
    k = apart[~cut]
    rp, c, d_sq = rel_pos[k], combined[k], dist_sq[k]
    leg = np.sqrt(d_sq - combined_sq[k])
    left = _det(rp, w[~cut]) > 0.0
    x, y = rp[:, 0], rp[:, 1]
    direction = np.where(left[:, None],
                         np.stack([x * leg - y * c, x * c + y * leg], axis=1) / d_sq[:, None],
                         -np.stack([x * leg + y * c, -x * c + y * leg], axis=1)
                         / d_sq[:, None])
    dot2 = np.vecdot(rel_vel[k], direction)
    u[k] = dot2[:, None] * direction - rel_vel[k]
    normal[k] = np.stack([-direction[:, 1], direction[:, 0]], axis=1)

    # already overlapping: push apart within one step
    k = np.flatnonzero(~is_apart)
    inv_dt = 1.0 / dt
    w = rel_vel[k] - inv_dt * rel_pos[k]
    w_len = np.hypot(w[:, 0], w[:, 1])
    normal[k] = _unit(w, w_len, rel_pos[k])
    u[k] = (combined[k] * inv_dt - w_len)[:, None] * normal[k]

    point = vel[agent] + 0.5 * u
    planes = [HalfPlane(point=p, normal=n) for p, n in zip(point, normal)]
    bounds = np.searchsorted(agent, np.arange(count + 1)).tolist()
    return [planes[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _unit(w: np.ndarray, w_len: np.ndarray, rel_pos: np.ndarray) -> np.ndarray:
    """Rows of w over their lengths; a zero-length row (relative velocity
    exactly at the cone center) escapes straight back along -rel_pos,
    or along +x when the agents coincide."""
    unit = np.empty_like(w)
    ok = w_len > 1e-12
    unit[ok] = w[ok] / w_len[ok, None]
    bad = np.flatnonzero(~ok)
    if len(bad):
        back = rel_pos[bad]
        n = np.hypot(back[:, 0], back[:, 1])
        unit[bad] = np.where((n < 1e-12)[:, None], np.array([1.0, 0.0]),
                             -back / np.where(n < 1e-12, 1.0, n)[:, None])
    return unit


def _det(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _direction(plane: HalfPlane) -> np.ndarray:
    # boundary direction such that the feasible side lies to its left
    return np.array([plane.normal[1], -plane.normal[0]])


def solve_velocity(planes: list[HalfPlane], v_pref: np.ndarray,
                   max_speed: float) -> np.ndarray:
    """Velocity closest to v_pref satisfying all half-planes and the speed disc.

    If the constraints are jointly infeasible within the disc, returns the
    velocity minimizing the maximum constraint violation instead (always
    defined).
    """
    if max_speed <= 0:
        raise ValueError("max_speed must be > 0")
    v_pref = np.asarray(v_pref, dtype=float)
    result, fail = _lp2(planes, max_speed, v_pref, direction_opt=False)
    if fail < len(planes):
        result = _lp3(planes, fail, max_speed, result)
    return result


def orca_action(world: list[AgentState], count: int, cfg: OrcaConfig,
                dt: float = 0.25) -> np.ndarray:
    """Full controller for agents 0..count-1 of `world`: half-planes
    against all other agents, then one LP per agent. Returns (count, 2)
    velocities.

    Agent i's preferred velocity is v_pref toward its goal, rotated by
    i * cfg.symmetry_bias radians so exactly symmetric scenarios resolve
    deterministically.
    """
    planes = orca_halfplanes(world, count, cfg, dt=dt)
    out = np.empty((count, 2))
    for i, agent in enumerate(world[:count]):
        to_goal = np.array([agent.gx - agent.px, agent.gy - agent.py])
        dist = float(np.hypot(to_goal[0], to_goal[1]))
        if dist > 1e-12:
            pref = agent.v_pref * to_goal / dist
        else:
            pref = np.zeros(2)
        bias = cfg.symmetry_bias * i
        if bias != 0.0:
            c, s = math.cos(bias), math.sin(bias)
            pref = np.array([c * pref[0] - s * pref[1], s * pref[0] + c * pref[1]])
        out[i] = solve_velocity(planes[i], pref, cfg.max_speed)
    return out


def _lp1(planes, index, radius, opt, direction_opt):
    """Optimize along the boundary of plane `index` subject to planes < index.

    Returns None when that boundary has no feasible interval.
    """
    plane = planes[index]
    d = _direction(plane)
    p = plane.point
    pd = float(p @ d)
    disc = pd * pd + radius * radius - float(p @ p)
    if disc < 0.0:
        return None  # boundary entirely outside the speed disc
    sqrt_disc = math.sqrt(disc)
    t_left, t_right = -pd - sqrt_disc, -pd + sqrt_disc

    for j in range(index):
        other = planes[j]
        # feasibility along the line: b + t*a >= 0
        a = float(other.normal @ d)
        b = float(other.normal @ (p - other.point))
        if abs(a) <= _EPS:
            if b < 0.0:
                return None
            continue
        t = -b / a
        if a > 0.0:
            t_left = max(t_left, t)
        else:
            t_right = min(t_right, t)
        if t_left > t_right:
            return None

    if direction_opt:
        t = t_right if float(opt @ d) > 0.0 else t_left
    else:
        t = float(d @ (opt - p))
        t = min(t_right, max(t_left, t))
    return p + t * d


def _lp2(planes, radius, opt, direction_opt):
    """Incremental LP over the disc. Returns (result, first failing index)."""
    if direction_opt:
        result = opt * radius  # opt is a unit direction here
    elif float(opt @ opt) > radius * radius:
        result = opt / float(np.hypot(opt[0], opt[1])) * radius
    else:
        result = opt.copy()

    for i, plane in enumerate(planes):
        if plane.violation(result) > 0.0:
            candidate = _lp1(planes, i, radius, opt, direction_opt)
            if candidate is None:
                return result, i
            result = candidate
    return result, len(planes)


def _lp3(planes, begin, radius, result):
    """Fallback: progressively minimize the largest constraint violation."""
    distance = 0.0
    for i in range(begin, len(planes)):
        if planes[i].violation(result) > distance:
            d_i = _direction(planes[i])
            proj = []
            for j in range(i):
                d_j = _direction(planes[j])
                det = _det(d_i, d_j)
                if abs(det) <= _EPS:
                    if float(d_i @ d_j) > 0.0:
                        continue  # same direction: j is dominated by i
                    point = 0.5 * (planes[i].point + planes[j].point)
                else:
                    point = planes[i].point + (
                        _det(d_j, planes[i].point - planes[j].point) / det) * d_i
                direction = d_j - d_i
                direction = direction / float(np.hypot(direction[0], direction[1]))
                proj.append(HalfPlane(point=point,
                                      normal=np.array([-direction[1], direction[0]])))
            temp = result
            result, fail = _lp2(proj, radius, planes[i].normal, direction_opt=True)
            if fail < len(proj):
                result = temp
            distance = planes[i].violation(result)
    return result
