import math

import numpy as np
import pytest

from socnav.core import (AgentState, Status, point_to_segment_dist, reward,
                         sample_scenario, to_robot_frame)


def make_agent(px, py, gx, gy, vx=0.0, vy=0.0, radius=0.3, v_pref=1.0, heading=0.0):
    return AgentState(px=px, py=py, vx=vx, vy=vy, radius=radius,
                      gx=gx, gy=gy, v_pref=v_pref, heading=heading)


class TestReward:
    def test_collision_branch(self):
        assert reward(-0.01, 5.0, 0.3) == -0.25

    def test_discomfort_branch(self):
        assert reward(0.1, 5.0, 0.3) == pytest.approx(-0.1)

    def test_goal_branch(self):
        assert reward(0.5, 0.2, 0.3) == 2.0

    def test_otherwise_branch(self):
        assert reward(0.5, 5.0, 0.3) == 0.0

    def test_boundaries_exact(self):
        # d_min = 0 is a collision; d_min = 0.2 leaves the discomfort band
        assert reward(0.0, 5.0, 0.3) == -0.25
        assert reward(0.2, 5.0, 0.3) == 0.0
        assert reward(0.2, 0.3, 0.3) == 2.0
        # goal boundary is inclusive
        assert reward(0.5, 0.3, 0.3) == 2.0

    def test_branch_order_discomfort_wins_over_goal(self):
        # inside the discomfort band while touching the goal
        assert reward(0.15, 0.1, 0.3) == pytest.approx(-0.05)

    def test_dense_grid_matches_piecewise_oracle(self, rng):
        d_min = rng.uniform(-0.5, 1.5, size=20_000)
        d_g = rng.uniform(0.0, 9.0, size=20_000)
        got = np.array([reward(a, b, 0.3) for a, b in zip(d_min, d_g)])
        want = np.where(d_min <= 0, -0.25,
                        np.where(d_min < 0.2, d_min - 0.2,
                                 np.where(d_g <= 0.3, 2.0, 0.0)))
        assert np.array_equal(got, want)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            reward(0.5, 1.0, 0.0)


class TestScenario:
    def test_robot_endpoints_fixed(self):
        s = sample_scenario(42, 5)
        assert s.robot_start == (0.0, -4.0)
        assert s.robot_goal == (0.0, 4.0)

    def test_zero_noise_antipode(self):
        s = sample_scenario(7, 5, perturbation=0.0)
        np.testing.assert_allclose(s.ped_starts[0], [4.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(s.ped_goals[0], [-4.0, 0.0], atol=1e-12)

    def test_same_seed_bit_identical(self):
        a = sample_scenario(9, 5)
        b = sample_scenario(9, 5)
        assert np.array_equal(a.ped_starts, b.ped_starts)
        assert np.array_equal(a.ped_goals, b.ped_goals)

    def test_noise_bounded(self):
        s = sample_scenario(3, 8, perturbation=0.5)
        for i in range(8):
            angle = 2 * math.pi * i / 8
            anchor = 4.0 * np.array([math.cos(angle), math.sin(angle)])
            assert np.all(np.abs(s.ped_starts[i] - anchor) <= 0.5)

    def test_zero_peds(self):
        s = sample_scenario(0, 0)
        assert s.ped_starts.shape == (0, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_scenario(0, -1)


class TestRobotFrame:
    def test_goal_distance_and_ped_distance(self):
        robot = make_agent(0, -4, 0, 4)
        ped = make_agent(1, -1, 0, 0)
        obs = to_robot_frame([ped], robot)
        assert obs.robot_part[0] == pytest.approx(8.0)
        assert obs.ped_parts[0, 5] == pytest.approx(math.hypot(1.0, 3.0))

    def test_radius_sum_from_parts(self):
        robot = make_agent(0, 0, 1, 1, radius=0.3)
        ped = make_agent(2, 2, 0, 0, radius=0.3)
        obs = to_robot_frame([ped], robot)
        assert obs.ped_parts[0, 6] == obs.ped_parts[0, 4] + 0.3
        assert obs.ped_parts[0, 6] == pytest.approx(0.6)

    def test_translation_invariance(self, rng):
        # absolute position must not appear in the output
        for _ in range(50):
            shift = rng.uniform(-10, 10, size=2)
            robot = make_agent(*rng.uniform(-4, 4, 2), *rng.uniform(-4, 4, 2),
                               vx=rng.normal(), vy=rng.normal(), heading=rng.normal())
            peds = [make_agent(*rng.uniform(-4, 4, 2), 0, 0,
                               vx=rng.normal(), vy=rng.normal()) for _ in range(3)]
            base = to_robot_frame(peds, robot)
            robot2 = make_agent(robot.px + shift[0], robot.py + shift[1],
                                robot.gx + shift[0], robot.gy + shift[1],
                                vx=robot.vx, vy=robot.vy, heading=robot.heading)
            peds2 = [make_agent(p.px + shift[0], p.py + shift[1], p.gx, p.gy,
                                vx=p.vx, vy=p.vy) for p in peds]
            moved = to_robot_frame(peds2, robot2)
            np.testing.assert_allclose(moved.joint, base.joint, atol=1e-12)

    def test_rotation_invariance(self, rng):
        for _ in range(50):
            beta = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(beta), math.sin(beta)

            def rot(x, y):
                return c * x - s * y, s * x + c * y

            robot = make_agent(1.0, -2.0, 3.0, 0.5, vx=0.4, vy=-0.2, heading=0.7)
            peds = [make_agent(*rng.uniform(-4, 4, 2), 0, 0,
                               vx=rng.normal(), vy=rng.normal()) for _ in range(2)]
            base = to_robot_frame(peds, robot)
            robot2 = make_agent(*rot(robot.px, robot.py), *rot(robot.gx, robot.gy),
                                vx=rot(robot.vx, robot.vy)[0],
                                vy=rot(robot.vx, robot.vy)[1],
                                heading=robot.heading + beta)
            peds2 = [make_agent(*rot(p.px, p.py), 0, 0,
                                vx=rot(p.vx, p.vy)[0], vy=rot(p.vx, p.vy)[1])
                     for p in peds]
            moved = to_robot_frame(peds2, robot2)
            np.testing.assert_allclose(moved.joint, base.joint, atol=1e-12)

    def test_degenerate_goal_is_defined(self):
        robot = make_agent(1.0, 1.0, 1.0, 1.0)
        obs = to_robot_frame([], robot)
        assert np.all(np.isfinite(obs.robot_part))
        assert obs.robot_part[0] == 0.0

    def test_joint_length(self):
        robot = make_agent(0, 0, 1, 1)
        peds = [make_agent(2, 2, 0, 0) for _ in range(4)]
        assert to_robot_frame(peds, robot).joint.shape == (6 + 7 * 4,)

    def test_bad_ped_radius(self):
        robot = make_agent(0, 0, 1, 1)
        with pytest.raises(ValueError):
            make_agent(2, 2, 0, 0, radius=-1)
        assert to_robot_frame([], robot) is not None


def ref_point_to_segment_dist(p0, p1) -> float:
    """Reference: one segment in scalar arithmetic."""
    d = p1 - p0
    dd = float(d @ d)
    if dd == 0.0:
        return float(np.hypot(p0[0], p0[1]))
    t = -float(p0 @ d) / dd
    t = min(1.0, max(0.0, t))
    c = p0 + t * d
    return float(np.hypot(c[0], c[1]))


class TestSegmentDistance:
    def test_point(self):
        assert point_to_segment_dist(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 5.0

    def test_crossing_segment(self):
        # segment passes through a point at distance 1 from origin
        d = point_to_segment_dist(np.array([-2.0, 1.0]), np.array([2.0, 1.0]))
        assert d == pytest.approx(1.0)

    def test_clamps_to_endpoint(self):
        d = point_to_segment_dist(np.array([2.0, 0.0]), np.array([3.0, 0.0]))
        assert d == pytest.approx(2.0)

    def test_stacked_segments_match_scalar_reference(self, rng):
        p0 = rng.normal(size=(200, 2))
        p1 = p0 + rng.normal(size=(200, 2)) * rng.choice([0.0, 1e-170, 0.1, 2.0], (200, 1))
        p1[:5] = p0[:5]                 # zero-length segments
        p1[5:10] = -p0[5:10]            # through the origin
        got = point_to_segment_dist(p0, p1)
        assert got.shape == (200,)
        want = np.array([ref_point_to_segment_dist(a, b) for a, b in zip(p0, p1)])
        assert got.tobytes() == want.tobytes()
        for a, b, w in zip(p0, p1, want):
            one = point_to_segment_dist(a, b)
            assert isinstance(one, float) and np.float64(one).tobytes() == w.tobytes()
        assert point_to_segment_dist(np.zeros((0, 2)), np.zeros((0, 2))).shape == (0,)


class TestAgentState:
    def test_heading_updates_with_motion(self):
        a = make_agent(0, 0, 1, 1, vx=0.0, vy=1.0)
        a.advance(0.25)
        assert a.heading == pytest.approx(math.pi / 2)
        assert (a.px, a.py) == (0.0, 0.25)

    def test_heading_kept_when_stationary(self):
        a = make_agent(0, 0, 1, 1, vx=0.0, vy=0.0, heading=0.4)
        a.advance(0.25)
        assert a.heading == 0.4

    def test_invariants(self):
        with pytest.raises(ValueError):
            make_agent(0, 0, 1, 1, v_pref=0.0)

    def test_status_enum_values(self):
        assert {s.value for s in Status} == {"running", "goal", "collision", "timeout"}
