import math

import numpy as np
import pytest

from socnav.config import OrcaConfig, SimConfig
from socnav.core import AgentState, Status
from socnav.dataset import rollout
from socnav.env import CrowdEnv
from socnav.orca import HalfPlane, orca_action, orca_halfplanes, solve_velocity


def agent(px, py, gx, gy, vx=0.0, vy=0.0, radius=0.3, v_pref=1.0):
    return AgentState(px=px, py=py, vx=vx, vy=vy, radius=radius,
                      gx=gx, gy=gy, v_pref=v_pref)


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


class TestHalfPlanes:
    def test_no_neighbors(self):
        a = agent(0, 0, 5, 0)
        assert orca_halfplanes(a, [], OrcaConfig()) == []

    def test_out_of_range_neighbor(self):
        a = agent(0, 0, 5, 0)
        b = agent(10, 0, 0, 0)
        cfg = OrcaConfig(neighbor_dist=5.0)
        assert orca_halfplanes(a, [b], cfg) == []

    def test_one_plane_per_neighbor(self):
        a = agent(0, 0, 5, 0)
        others = [agent(2, 0, 0, 0), agent(0, 2, 0, 0), agent(-2, 0, 0, 0)]
        planes = orca_halfplanes(a, others, OrcaConfig())
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
        pa = orca_halfplanes(a, [b], cfg)[0]
        pb = orca_halfplanes(b, [a], cfg)[0]
        np.testing.assert_allclose(pa.point, [-pb.point[0], pb.point[1]], atol=1e-12)
        np.testing.assert_allclose(pa.normal, [-pb.normal[0], pb.normal[1]], atol=1e-12)

    def test_axis_tie_breaks_rightward(self):
        # closing along the cone axis is the exact-tie case; both agents
        # project onto their own right leg, giving point-symmetric planes
        # (each dodges to its own right, so the pair passes cleanly)
        cfg = OrcaConfig()
        a = agent(-2, 0, 2, 0, vx=0.5)
        b = agent(2, 0, -2, 0, vx=-0.5)
        pa = orca_halfplanes(a, [b], cfg)[0]
        pb = orca_halfplanes(b, [a], cfg)[0]
        np.testing.assert_allclose(pb.point, -pa.point, atol=1e-12)
        np.testing.assert_allclose(pb.normal, -pa.normal, atol=1e-12)

    def test_overlapping_agents_fallback(self):
        a = agent(0, 0, 5, 0)
        b = agent(0.3, 0, 0, 0)   # center distance < combined radius
        planes = orca_halfplanes(a, [b], OrcaConfig(), dt=0.25)
        assert len(planes) == 1
        # constraint must push the agents apart (allowed side away from b)
        assert planes[0].normal[0] < 0

    def test_safety_space_inflates_own_radius(self):
        a = agent(0, 0, 5, 0)
        b = agent(1.0, 0, 0, 0)
        slim = orca_halfplanes(a, [b], OrcaConfig(safety_space=0.0))[0]
        fat = orca_halfplanes(a, [b], OrcaConfig(safety_space=0.2))[0]
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
        v = orca_action(0, world, OrcaConfig())
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-12)

    def test_speed_bounded(self, rng):
        cfg = OrcaConfig()
        for _ in range(50):
            world = [agent(*rng.uniform(-3, 3, 2), *rng.uniform(-3, 3, 2),
                           vx=rng.normal(), vy=rng.normal()) for _ in range(4)]
            v = orca_action(0, world, cfg)
            assert np.linalg.norm(v) <= cfg.max_speed + 1e-9

    def test_label_swap_symmetry(self):
        # swapping the two agents of a mirror-symmetric scenario mirrors the
        # action (deadlock bias disabled for exactness)
        cfg = OrcaConfig(symmetry_bias=0.0)
        a = agent(-2, 0, 2, 0)
        b = agent(2, 0, -2, 0)
        va = orca_action(0, [a, b], cfg)
        vb = orca_action(1, [a, b], cfg)
        np.testing.assert_allclose(va, [-vb[0], vb[1]], atol=1e-12)

    def test_agent_at_goal_stays(self):
        world = [agent(1, 1, 1, 1)]
        v = orca_action(0, world, OrcaConfig())
        np.testing.assert_allclose(v, [0.0, 0.0], atol=1e-12)

    def test_constraints_respected_in_traffic(self, rng):
        cfg = OrcaConfig()
        for _ in range(50):
            world = [agent(*rng.uniform(-2, 2, 2), *rng.uniform(-2, 2, 2),
                           vx=rng.normal() * 0.3, vy=rng.normal() * 0.3)
                     for _ in range(4)]
            me = world[0]
            planes = orca_halfplanes(me, world[1:], cfg)
            v = orca_action(0, world, cfg)
            feas = all(p.normal @ (v - p.point) >= -1e-9 for p in planes)
            if feas:
                for p in planes:
                    assert p.normal @ (v - p.point) >= -1e-9


class TestPedPedSafety:
    def test_no_pedestrian_collisions_over_seeded_episodes(self):
        sim = SimConfig()
        env = CrowdEnv(sim)
        worst = math.inf
        for seed in range(20):
            rollout(env, lambda e, o: e.robot_orca_action(), seed=seed, gamma=0.99)
            worst = min(worst, env.min_ped_ped_clearance)
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
