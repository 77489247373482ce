import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socnav.config import OrcaConfig, SimConfig
from socnav.core import AgentState, Status, point_to_segment_dist
from socnav.dataset import rollout
from socnav.env import CrowdEnv
from socnav.orca import HalfPlane, orca_action, orca_halfplanes, solve_velocity


def agent(px, py, gx, gy, vx=0.0, vy=0.0, radius=0.3, v_pref=1.0):
    # float fields, as the simulator sets them (an int coordinate would
    # make the reference's rel_pos an int array, whose negation has no -0.0)
    return AgentState(px=float(px), py=float(py), vx=float(vx), vy=float(vy),
                      radius=float(radius), gx=float(gx), gy=float(gy),
                      v_pref=float(v_pref))


def brute_force_best(planes, pref, max_speed):
    """Boundary-enumeration oracle for the feasible LP case.

    The optimum is either the preferred velocity itself or lies on the
    boundary of the feasible set, which consists of half-plane boundary
    lines and the speed circle; each candidate curve is swept densely.
    """
    def feasible(v, tol=1e-9):
        if v[0] ** 2 + v[1] ** 2 > max_speed ** 2 + tol:
            return False
        return all(p.normal @ (v - p.point) >= -tol for p in planes)

    if feasible(pref):
        return np.asarray(pref, dtype=float)
    best, best_d = None, np.inf

    def consider(points):
        nonlocal best, best_d
        if len(points) == 0:
            return
        ok = np.ones(len(points), dtype=bool)
        ok &= (points ** 2).sum(axis=1) <= max_speed ** 2 + 1e-9
        for p in planes:
            ok &= (points - p.point) @ p.normal >= -1e-9
        if not ok.any():
            return
        cand = points[ok]
        d = np.linalg.norm(cand - pref, axis=1)
        i = int(d.argmin())
        if d[i] < best_d:
            best_d, best = d[i], cand[i]

    # a disc chord reaches parameter 2*max_speed from an interior anchor
    ts = np.linspace(-2 * max_speed, 2 * max_speed, 80_001)
    for p in planes:
        direction = np.array([p.normal[1], -p.normal[0]])
        consider(p.point + ts[:, None] * direction)
    thetas = np.linspace(0.0, 2 * math.pi, 80_001)
    consider(max_speed * np.stack([np.cos(thetas), np.sin(thetas)], axis=1))
    return best


def ref_halfplanes(agent, neighbors, cfg, dt=0.25, branches=None):
    """Reference: one neighbor at a time, in scalar arithmetic.

    `orca_halfplanes` must reproduce these planes bit for bit. When
    `branches` is a list, the branch each neighbor took is appended.
    """
    def det(a, b):
        return float(a[0] * b[1] - a[1] * b[0])

    def fallback_dir(rel_pos):
        n = float(np.hypot(rel_pos[0], rel_pos[1]))
        if n < 1e-12:
            return np.array([1.0, 0.0])
        return -rel_pos / n

    def took(name):
        if branches is not None:
            branches.append(name)

    inv_horizon = 1.0 / cfg.time_horizon
    planes = []
    for other in neighbors:
        rel_pos = np.array([other.px - agent.px, other.py - agent.py])
        dist_sq = float(rel_pos @ rel_pos)
        if dist_sq > cfg.neighbor_dist ** 2:
            took("out of range")
            continue
        rel_vel = np.array([agent.vx - other.vx, agent.vy - other.vy])
        combined = agent.radius + cfg.safety_space + other.radius
        combined_sq = combined * combined

        if dist_sq > combined_sq:
            w = rel_vel - inv_horizon * rel_pos
            w_len_sq = float(w @ w)
            dot1 = float(w @ rel_pos)
            if dot1 < 0.0 and dot1 * dot1 > combined_sq * w_len_sq:
                w_len = math.sqrt(w_len_sq)
                took("cutoff" if w_len > 1e-12 else "cutoff fallback")
                unit_w = w / w_len if w_len > 1e-12 else fallback_dir(rel_pos)
                u = (combined * inv_horizon - w_len) * unit_w
                normal = unit_w
            else:
                leg = math.sqrt(dist_sq - combined_sq)
                if det(rel_pos, w) > 0.0:
                    took("left leg")
                    direction = np.array([rel_pos[0] * leg - rel_pos[1] * combined,
                                          rel_pos[0] * combined + rel_pos[1] * leg]) / dist_sq
                else:
                    took("right leg")
                    direction = -np.array([rel_pos[0] * leg + rel_pos[1] * combined,
                                           -rel_pos[0] * combined + rel_pos[1] * leg]) / dist_sq
                dot2 = float(rel_vel @ direction)
                u = dot2 * direction - rel_vel
                normal = np.array([-direction[1], direction[0]])
        else:
            inv_dt = 1.0 / dt
            w = rel_vel - inv_dt * rel_pos
            w_len = float(np.hypot(w[0], w[1]))
            if w_len > 1e-12:
                took("overlap")
            else:
                took("overlap coincident" if not rel_pos.any() else "overlap fallback")
            unit_w = w / w_len if w_len > 1e-12 else fallback_dir(rel_pos)
            u = (combined * inv_dt - w_len) * unit_w
            normal = unit_w

        planes.append(HalfPlane(point=np.array([agent.vx, agent.vy]) + 0.5 * u,
                                normal=normal))
    return planes


def ref_world_planes(world, count, cfg, dt=0.25, branches=None):
    return [ref_halfplanes(world[i], world[:i] + world[i + 1:], cfg, dt, branches)
            for i in range(count)]


def ref_orca_action(index, world, cfg, dt=0.25):
    """Reference controller of one agent: reference planes, then the LP."""
    agent = world[index]
    planes = ref_halfplanes(agent, world[:index] + world[index + 1:], cfg, dt)
    to_goal = np.array([agent.gx - agent.px, agent.gy - agent.py])
    dist = float(np.hypot(to_goal[0], to_goal[1]))
    pref = agent.v_pref * to_goal / dist if dist > 1e-12 else np.zeros(2)
    bias = cfg.symmetry_bias * index
    if bias != 0.0:
        c, s = math.cos(bias), math.sin(bias)
        pref = np.array([c * pref[0] - s * pref[1], s * pref[0] + c * pref[1]])
    return solve_velocity(planes, pref, cfg.max_speed)


def assert_same_planes(got, want):
    """Per agent: the same planes in the same order, equal to the last bit."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for pg, pw in zip(g, w):
            assert pg.point.tobytes() == pw.point.tobytes()
            assert pg.normal.tobytes() == pw.normal.tobytes()


GRID = st.integers(-24, 24).map(lambda k: 0.25 * k)
COORD = st.floats(-12.0, 12.0, allow_nan=False, allow_infinity=False)


@st.composite
def crowds(draw):
    """(world, count, cfg, dt) with 1-12 agents, drawn so that every
    branch occurs: coincident agents, equal velocities, overlaps,
    neighbors at neighbor_dist and 1e-9 either side of it, and relative
    velocities at (or 1e-13 short of) the center of a pair's cone."""
    cfg = OrcaConfig(time_horizon=draw(st.sampled_from([2.5, 5.0, 8.0])),
                     neighbor_dist=draw(st.sampled_from([3.0, 10.0])),
                     safety_space=draw(st.sampled_from([0.0, 0.05])))
    dt = draw(st.sampled_from([0.25, 0.1]))
    world = []
    for i in range(draw(st.integers(1, 12))):
        base = world[draw(st.integers(0, i - 1))] if i else None
        where = draw(st.sampled_from(["grid", "float", "copy", "near", "ring"])) if i else "grid"
        if where == "grid":
            px, py = draw(GRID), draw(GRID)
        elif where == "float":
            px, py = draw(COORD), draw(COORD)
        elif where == "copy":
            px, py = base.px, base.py
        elif where == "near":
            px, py = base.px + draw(GRID) / 32, base.py + draw(GRID) / 32
        else:
            r = cfg.neighbor_dist + draw(st.sampled_from([-1e-9, 0.0, 1e-9]))
            px, py = (base.px + r, base.py) if draw(st.booleans()) else (base.px, base.py - r)
        how = (draw(st.sampled_from(["zero", "grid", "float", "copy", "cutoff center",
                                     "overlap center"])) if i else "grid")
        if how == "zero":
            vx, vy = 0.0, 0.0
        elif how == "grid":
            vx, vy = draw(GRID) / 8, draw(GRID) / 8
        elif how == "float":
            vx, vy = draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))
        elif how == "copy":
            vx, vy = base.vx, base.vy
        else:
            # relative velocity toward base at the cone's cutoff center
            # (just short of it) or at the overlap cone's center
            k = (1.0 - 1e-13) / cfg.time_horizon if how == "cutoff center" else 1.0 / dt
            vx, vy = base.vx + k * (base.px - px), base.vy + k * (base.py - py)
        world.append(agent(px, py, draw(GRID), draw(GRID), vx=vx, vy=vy,
                           radius=draw(st.sampled_from([0.2, 0.3, 0.45]))))
    return world, draw(st.integers(0, len(world))), cfg, dt


# worlds that between them reach every branch of the half-plane construction
BRANCH_WORLDS = {
    "neighbor_dist boundary": [agent(0, 0, 5, 0), agent(10, 0, 0, 0),
                               agent(10.000000001, 0, 0, 0), agent(0, 9.999999999, 0, 0)],
    "stationary head-on": [agent(-2, 0, 2, 0), agent(2, 0, -2, 0)],
    "relative velocity at the cutoff center": [agent(0, 0, 5, 0, vx=0.4 - 1e-13),
                                               agent(2, 0, 0, 0)],
    "closing, offset one way": [agent(-2, 0, 2, 0, vx=0.5), agent(2, 0.1, -2, 0, vx=-0.5)],
    "closing, offset the other way": [agent(-2, 0, 2, 0, vx=0.5),
                                      agent(2, -0.1, -2, 0, vx=-0.5)],
    "overlapping": [agent(0, 0, 5, 0), agent(0.3, 0, 0, 0)],
    "overlapping, closing at rel_pos / dt": [agent(0, 0, 5, 0, vx=1.0), agent(0.25, 0, 0, 0)],
    "coincident, equal velocities": [agent(1, 1, 5, 0, vx=0.3), agent(1, 1, 0, 0, vx=0.3)],
}
BRANCHES = {"out of range", "cutoff", "cutoff fallback", "left leg", "right leg",
            "overlap", "overlap fallback", "overlap coincident"}


class TestHalfPlanes:
    def test_branch_worlds_reach_every_branch(self):
        cfg = OrcaConfig()
        seen = set()
        for world in BRANCH_WORLDS.values():
            ref_world_planes(world, len(world), cfg, branches=(taken := []))
            seen.update(taken)
        assert seen == BRANCHES

    @pytest.mark.parametrize("name", BRANCH_WORLDS)
    def test_branch_worlds_match_reference_bitwise(self, name):
        world = BRANCH_WORLDS[name]
        for count in range(len(world) + 1):
            assert_same_planes(orca_halfplanes(world, count, OrcaConfig()),
                               ref_world_planes(world, count, OrcaConfig()))

    @settings(max_examples=400, deadline=None, database=None)
    @given(crowds())
    def test_matches_reference_bitwise(self, case):
        world, count, cfg, dt = case
        assert_same_planes(orca_halfplanes(world, count, cfg, dt=dt),
                           ref_world_planes(world, count, cfg, dt=dt))

    def test_no_neighbors(self):
        a = agent(0, 0, 5, 0)
        assert orca_halfplanes([a], 1, OrcaConfig()) == [[]]
        assert orca_halfplanes([a, a], 0, OrcaConfig()) == []

    def test_out_of_range_neighbor(self):
        a = agent(0, 0, 5, 0)
        b = agent(10, 0, 0, 0)
        cfg = OrcaConfig(neighbor_dist=5.0)
        assert orca_halfplanes([a, b], 1, cfg) == [[]]

    def test_one_plane_per_neighbor(self):
        a = agent(0, 0, 5, 0)
        others = [agent(2, 0, 0, 0), agent(0, 2, 0, 0), agent(-2, 0, 0, 0)]
        (planes,) = orca_halfplanes([a] + others, 1, OrcaConfig())
        assert len(planes) == 3
        for p in planes:
            assert abs(np.linalg.norm(p.normal) - 1.0) < 1e-9

    def test_symmetric_pair_mirror(self):
        # mirroring a stationary head-on pair through the y axis mirrors the
        # constraint (projection lands on the cutoff circle, which preserves
        # the symmetry exactly)
        cfg = OrcaConfig()
        a = agent(-2, 0, 2, 0)
        b = agent(2, 0, -2, 0)
        (pa,), (pb,) = orca_halfplanes([a, b], 2, cfg)
        np.testing.assert_allclose(pa.point, [-pb.point[0], pb.point[1]], atol=1e-12)
        np.testing.assert_allclose(pa.normal, [-pb.normal[0], pb.normal[1]], atol=1e-12)

    def test_axis_tie_breaks_rightward(self):
        # closing along the cone axis is the exact-tie case; both agents
        # project onto their own right leg, giving point-symmetric planes
        # (each dodges to its own right, so the pair passes cleanly)
        cfg = OrcaConfig()
        a = agent(-2, 0, 2, 0, vx=0.5)
        b = agent(2, 0, -2, 0, vx=-0.5)
        (pa,), (pb,) = orca_halfplanes([a, b], 2, cfg)
        np.testing.assert_allclose(pb.point, -pa.point, atol=1e-12)
        np.testing.assert_allclose(pb.normal, -pa.normal, atol=1e-12)

    def test_overlapping_agents_fallback(self):
        a = agent(0, 0, 5, 0)
        b = agent(0.3, 0, 0, 0)   # center distance < combined radius
        (planes,) = orca_halfplanes([a, b], 1, OrcaConfig(), dt=0.25)
        assert len(planes) == 1
        # constraint must push the agents apart (allowed side away from b)
        assert planes[0].normal[0] < 0

    def test_safety_space_inflates_own_radius(self):
        a = agent(0, 0, 5, 0)
        b = agent(1.0, 0, 0, 0)
        slim = orca_halfplanes([a, b], 1, OrcaConfig(safety_space=0.0))[0][0]
        fat = orca_halfplanes([a, b], 1, OrcaConfig(safety_space=0.2))[0][0]
        # a larger effective radius forbids more of velocity space
        assert fat.violation(np.array([1.0, 0.0])) > slim.violation(np.array([1.0, 0.0]))

    def test_unit_normal_validation(self):
        with pytest.raises(ValueError):
            HalfPlane(point=np.zeros(2), normal=np.array([1.0, 1.0]))


class TestSolveVelocity:
    def test_no_constraints_returns_pref(self):
        v = solve_velocity([], np.array([1.0, 0.0]), 1.0)
        np.testing.assert_allclose(v, [1.0, 0.0])

    def test_pref_projected_onto_disc(self):
        v = solve_velocity([], np.array([2.0, 0.0]), 1.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_single_constraint_matches_grid_oracle(self):
        # preferred velocity excluded by one half-plane: result sits on the
        # boundary with minimal distance, checked against a 0.001-step sweep
        plane = HalfPlane(point=np.array([0.3, 0.0]), normal=np.array([-1.0, 0.0]))
        pref = np.array([1.0, 0.0])
        v = solve_velocity([plane], pref, 1.0)
        assert abs(plane.normal @ (v - plane.point)) < 1e-9  # on the boundary
        ts = np.arange(-2.0, 2.0, 0.001)
        cand = plane.point + ts[:, None] * np.array([plane.normal[1], -plane.normal[0]])
        cand = cand[(cand ** 2).sum(axis=1) <= 1.0]
        best = np.linalg.norm(cand - pref, axis=1).min()
        assert np.linalg.norm(v - pref) <= best + 1e-3

    def test_feasible_solution_satisfies_all_planes(self, rng):
        for _ in range(200):
            witness = rng.uniform(-0.6, 0.6, size=2)
            planes = []
            for _ in range(rng.integers(1, 6)):
                n = rng.normal(size=2)
                n /= np.linalg.norm(n)
                point = witness - n * rng.uniform(0.0, 0.5)
                planes.append(HalfPlane(point=point, normal=n))
            pref = rng.uniform(-1.2, 1.2, size=2)
            v = solve_velocity(planes, pref, 1.0)
            for p in planes:
                assert p.normal @ (v - p.point) >= -1e-9
            assert np.linalg.norm(v) <= 1.0 + 1e-9

    def test_matches_boundary_oracle(self, rng):
        # randomized feasible instances; oracle sweeps the boundary curves
        for _ in range(60):
            witness = rng.uniform(-0.5, 0.5, size=2)
            planes = []
            for _ in range(rng.integers(1, 5)):
                n = rng.normal(size=2)
                n /= np.linalg.norm(n)
                planes.append(HalfPlane(point=witness - n * rng.uniform(0.0, 0.4),
                                        normal=n))
            pref = rng.uniform(-1.2, 1.2, size=2)
            v = solve_velocity(planes, pref, 1.0)
            want = brute_force_best(planes, pref, 1.0)
            assert want is not None
            assert np.linalg.norm(v - want) < 1e-2

    def test_infeasible_fallback_minimizes_max_violation(self):
        # two opposing constraints with empty intersection: the fallback
        # settles on the midline between the two boundaries
        p1 = HalfPlane(point=np.array([0.2, 0.0]), normal=np.array([1.0, 0.0]))
        p2 = HalfPlane(point=np.array([-0.2, 0.0]), normal=np.array([-1.0, 0.0]))
        v = solve_velocity([p1, p2], np.array([0.9, 0.0]), 1.0)
        assert v[0] == pytest.approx(0.0, abs=1e-9)
        v1 = p1.violation(v)
        v2 = p2.violation(v)
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_bad_max_speed(self):
        with pytest.raises(ValueError):
            solve_velocity([], np.zeros(2), 0.0)


class TestOrcaAction:
    def test_lone_agent_heads_to_goal(self):
        world = [agent(0, 0, 5, 0)]
        (v,) = orca_action(world, 1, OrcaConfig())
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-12)

    def test_speed_bounded(self, rng):
        cfg = OrcaConfig()
        for _ in range(50):
            world = [agent(*rng.uniform(-3, 3, 2), *rng.uniform(-3, 3, 2),
                           vx=rng.normal(), vy=rng.normal()) for _ in range(4)]
            for v in orca_action(world, len(world), cfg):
                assert np.linalg.norm(v) <= cfg.max_speed + 1e-9

    def test_label_swap_symmetry(self):
        # swapping the two agents of a mirror-symmetric scenario mirrors the
        # action (deadlock bias disabled for exactness)
        cfg = OrcaConfig(symmetry_bias=0.0)
        a = agent(-2, 0, 2, 0)
        b = agent(2, 0, -2, 0)
        va, vb = orca_action([a, b], 2, cfg)
        np.testing.assert_allclose(va, [-vb[0], vb[1]], atol=1e-12)

    def test_agent_at_goal_stays(self):
        world = [agent(1, 1, 1, 1)]
        (v,) = orca_action(world, 1, OrcaConfig())
        np.testing.assert_allclose(v, [0.0, 0.0], atol=1e-12)

    def test_constraints_respected_in_traffic(self, rng):
        cfg = OrcaConfig()
        for _ in range(50):
            world = [agent(*rng.uniform(-2, 2, 2), *rng.uniform(-2, 2, 2),
                           vx=rng.normal() * 0.3, vy=rng.normal() * 0.3)
                     for _ in range(4)]
            (planes,) = orca_halfplanes(world, 1, cfg)
            (v,) = orca_action(world, 1, cfg)
            feas = all(p.normal @ (v - p.point) >= -1e-9 for p in planes)
            if feas:
                for p in planes:
                    assert p.normal @ (v - p.point) >= -1e-9

    def test_shape_and_empty(self):
        world = [agent(0, 0, 5, 0), agent(2, 0, 0, 0)]
        assert orca_action(world, 0, OrcaConfig()).shape == (0, 2)
        assert orca_action(world, 2, OrcaConfig()).shape == (2, 2)

    @settings(max_examples=100, deadline=None, database=None)
    @given(crowds())
    def test_matches_per_agent_reference_bitwise(self, case):
        # row i is agent i's own controller: its planes, its preferred
        # velocity rotated by i * symmetry_bias, then the LP
        world, count, cfg, dt = case
        got = orca_action(world, count, cfg, dt=dt)
        for i in range(count):
            assert got[i].tobytes() == ref_orca_action(i, world, cfg, dt=dt).tobytes()


def min_ped_ped_gap(world_log, radius):
    """Closest pedestrian surface gap over a recorded episode. Agents move
    linearly within a step, so a pair's separation sweeps the segment
    between its values at consecutive snapshots."""
    worst = math.inf
    for (_, p0), (_, p1) in zip(world_log, world_log[1:]):
        for i, j in itertools.combinations(range(len(p0)), 2):
            gap = point_to_segment_dist(p0[j] - p0[i], p1[j] - p1[i]) - 2 * radius
            worst = min(worst, gap)
    return worst


class TestPedPedSafety:
    def test_no_pedestrian_collisions_over_seeded_episodes(self):
        sim = SimConfig()
        env = CrowdEnv(sim)
        worst = math.inf
        for seed in range(20):
            _, world = rollout(env, lambda e, o: e.robot_orca_action(), seed=seed,
                               gamma=0.99, record_world=True)
            worst = min(worst, min_ped_ped_gap(world, sim.ped_radius))
        assert worst > 0.0

    def test_visible_robot_never_hit_when_stationary(self):
        sim = SimConfig(robot_visible=True)
        env = CrowdEnv(sim)
        for seed in range(20):
            env.reset(seed)
            worst = math.inf
            while env.status is Status.RUNNING:
                out = env.step(np.zeros(2))
                worst = min(worst, out.d_min)
            assert worst > 0.0
