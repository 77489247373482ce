import math
from dataclasses import replace

import numpy as np
import pytest

from socnav.config import SimConfig
from socnav.core import Status, point_to_segment_dist
from socnav.dataset import rollout
from socnav.env import ActionBoundsError, CrowdEnv


def no_ped_cfg():
    return SimConfig(num_peds=0)


class TestKinematics:
    def test_straight_step(self):
        env = CrowdEnv(no_ped_cfg())
        env.reset(0)
        out = env.step(np.array([0.0, 1.0]))
        assert env.robot.px == pytest.approx(0.0)
        assert env.robot.py == pytest.approx(-3.75)
        assert out.reward == 0.0
        assert out.status is Status.RUNNING

    def test_action_bounds_rejected(self):
        env = CrowdEnv(no_ped_cfg())
        env.reset(0)
        with pytest.raises(ActionBoundsError):
            env.step(np.array([1.0, 1.0]))

    def test_simultaneous_update(self):
        cfg = SimConfig(num_peds=1, perturbation=0.0)
        env = CrowdEnv(cfg)
        env.reset(0)
        ped_before = env.peds[0].pos
        env.step(np.array([0.0, 1.0]))
        assert not np.array_equal(env.peds[0].pos, ped_before)

    def test_heading_follows_velocity(self):
        env = CrowdEnv(no_ped_cfg())
        env.reset(0)
        env.step(np.array([0.0, 1.0]))
        assert env.robot.heading == pytest.approx(np.pi / 2)


class TestTermination:
    def test_goal_reached(self):
        env = CrowdEnv(no_ped_cfg())
        env.reset(0)
        while env.status is Status.RUNNING:
            out = env.step(np.array([0.0, 1.0]))
        assert out.status is Status.GOAL
        assert out.reward == 2.0
        assert out.d_goal <= env.robot.radius

    def test_timeout_at_limit(self):
        cfg = no_ped_cfg()
        env = CrowdEnv(cfg)
        env.reset(0)
        steps = 0
        while env.status is Status.RUNNING:
            out = env.step(np.zeros(2))
            steps += 1
        assert out.status is Status.TIMEOUT
        assert steps == cfg.max_steps == 100
        assert env.time == pytest.approx(25.0)

    def test_collision_terminal_with_penalty(self):
        cfg = SimConfig(num_peds=1, perturbation=0.0)
        env = CrowdEnv(cfg)
        env.reset(0)
        # pedestrian 0 starts at (4, 0) heading to (-4, 0); drive into it
        out = None
        for _ in range(100):
            d = env.peds[0].pos - env.robot.pos
            d = d / np.linalg.norm(d)
            out = env.step(d * 1.0)
            if env.status is not Status.RUNNING:
                break
        assert out.status is Status.COLLISION
        assert out.reward == -0.25
        assert out.d_min <= 0.0

    def test_step_after_done_rejected(self):
        env = CrowdEnv(no_ped_cfg())
        env.reset(0)
        while env.status is Status.RUNNING:
            env.step(np.array([0.0, 1.0]))
        with pytest.raises(RuntimeError):
            env.step(np.zeros(2))


class TestDeterminism:
    def test_bit_identical_rollouts(self):
        cfg = SimConfig()
        env1, env2 = CrowdEnv(cfg), CrowdEnv(cfg)
        r1, _ = rollout(env1, lambda e, o: e.robot_orca_action(), seed=11, gamma=0.99)
        r2, _ = rollout(env2, lambda e, o: e.robot_orca_action(), seed=11, gamma=0.99)
        assert r1.outcome == r2.outcome
        assert r1.duration == r2.duration
        assert np.array_equal(r1.states, r2.states)
        assert np.array_equal(r1.actions, r2.actions)
        assert r1.rewards.tobytes() == r2.rewards.tobytes()

    def test_episode_length_bounded(self):
        cfg = SimConfig()
        env = CrowdEnv(cfg)
        for seed in range(5):
            traj, _ = rollout(env, lambda e, o: e.robot_orca_action(), seed=seed,
                              gamma=0.99)
            assert traj.num_steps <= cfg.max_steps

    def test_regoal_on_arena_circle_and_apart(self):
        cfg = SimConfig(num_peds=1, perturbation=0.0)
        env = CrowdEnv(cfg)
        env.reset(0)
        # park the pedestrian on its goal; the next step must re-target it
        ped = env.peds[0]
        env.peds[0] = type(ped)(px=ped.gx, py=ped.gy, vx=0.0, vy=0.0,
                                radius=ped.radius, gx=ped.gx, gy=ped.gy,
                                v_pref=ped.v_pref)
        env.step(np.zeros(2))
        moved = env.peds[0]
        assert np.hypot(moved.gx, moved.gy) == pytest.approx(cfg.arena_radius)
        assert np.hypot(moved.gx - moved.px, moved.gy - moved.py) >= 2.0 - 0.3

    def test_regoal_deterministic_per_seed(self):
        cfg = SimConfig(num_peds=3)
        goals = []
        for _ in range(2):
            env = CrowdEnv(cfg)
            rollout(env, lambda e, o: e.robot_orca_action(), seed=2, gamma=0.99)
            goals.append([(p.gx, p.gy) for p in env.peds])
        assert goals[0] == goals[1]


class TestObservation:
    def test_observation_matches_world(self):
        cfg = SimConfig(num_peds=2, perturbation=0.0)
        env = CrowdEnv(cfg)
        obs = env.reset(0)
        assert obs.robot_part[0] == pytest.approx(8.0)
        assert obs.ped_parts.shape == (2, 7)

    def test_world_positions_snapshot(self):
        cfg = SimConfig(num_peds=3)
        env = CrowdEnv(cfg)
        env.reset(1)
        robot, peds = env.world_positions()
        assert robot.shape == (2,)
        assert peds.shape == (3, 2)

    def test_invisible_robot_ignored_by_peds(self):
        cfg = SimConfig(num_peds=1, perturbation=0.0, robot_visible=False)
        env = CrowdEnv(cfg)
        env.reset(0)
        # robot parked in the pedestrian's path has no effect on its action
        v_blind = env.ped_actions()[0]
        env.robot.px, env.robot.py = env.peds[0].px - 1.0, env.peds[0].py
        v_blind2 = env.ped_actions()[0]
        assert np.array_equal(v_blind, v_blind2)

    def test_visible_robot_influences_peds(self):
        cfg = SimConfig(num_peds=1, perturbation=0.0, robot_visible=True)
        env = CrowdEnv(cfg)
        env.reset(0)
        v_far = env.ped_actions()[0]
        env.robot.px, env.robot.py = env.peds[0].px - 1.0, env.peds[0].py
        v_near = env.ped_actions()[0]
        assert not np.array_equal(v_far, v_near)

    def test_rollout_records_world_log(self):
        cfg = SimConfig(num_peds=2)
        env = CrowdEnv(cfg)
        traj, world_log = rollout(env, lambda e, o: e.robot_orca_action(), seed=3,
                                  gamma=0.99, record_world=True)
        assert len(world_log) == traj.num_steps + 1

    def test_ped_actions_one_row_per_pedestrian(self):
        env = CrowdEnv(SimConfig(num_peds=3))
        env.reset(0)
        assert env.ped_actions().shape == (3, 2)
        env = CrowdEnv(no_ped_cfg())
        env.reset(0)
        assert env.ped_actions().shape == (0, 2)


def ref_clearance(env, action):
    """Reference: the robot's clearance over this step, one pedestrian at a time."""
    d_min = math.inf
    robot_new = replace(env.robot, vx=action[0], vy=action[1])
    for ped, vel in zip(env.peds, env.ped_actions()):
        rel0 = np.array([ped.px - robot_new.px, ped.py - robot_new.py])
        rel1 = rel0 + (np.array([vel[0], vel[1]]) - action) * env.cfg.dt
        gap = point_to_segment_dist(rel0, rel1) - ped.radius - robot_new.radius
        d_min = min(d_min, gap)
    return d_min


class TestClearance:
    @pytest.mark.parametrize("num_peds,visible", [(1, False), (5, True), (10, False)])
    def test_matches_per_pedestrian_loop_bitwise(self, num_peds, visible):
        env = CrowdEnv(SimConfig(num_peds=num_peds, robot_visible=visible))
        steps = 0
        for seed in range(4):
            env.reset(seed)
            while env.status is Status.RUNNING:
                # half the reference speed, plus a still step now and then
                action = np.zeros(2) if steps % 7 == 0 else 0.5 * env.robot_orca_action()
                want = ref_clearance(env, action)
                got = env.step(action).d_min
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                steps += 1
        assert steps > 100

    def test_no_pedestrians_is_infinite(self):
        env = CrowdEnv(no_ped_cfg())
        env.reset(0)
        assert env.step(np.array([0.0, 1.0])).d_min == math.inf
