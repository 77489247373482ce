import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from socnav.config import ConfigError, SimConfig
from socnav.dataset import (DatasetFormatError, Trajectory, atomic_write, compute_rtg,
                            dataset_stats, dumps_lossless, generate_dataset,
                            load_trajectories, rollout, save_trajectories, stats_of)
from socnav.env import CrowdEnv
from socnav.plotting import (PlotError, plot_trajectories, read_positions_log,
                             write_positions_log)


def suffix_sum_oracle(rewards, gamma):
    """Independent reverse-scan oracle for return-to-go labels."""
    out = [0.0] * len(rewards)
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


class TestComputeRtg:
    def test_three_step_example(self):
        got = compute_rtg([0.0, 0.0, 2.0], 0.99)
        want = suffix_sum_oracle([0.0, 0.0, 2.0], 0.99)
        assert got.tolist() == want
        np.testing.assert_allclose(got, [1.9602, 1.98, 2.0], rtol=1e-12)

    def test_single_reward(self):
        assert compute_rtg([0.7], 0.5).tolist() == [0.7]

    def test_undiscounted(self):
        assert compute_rtg([1.0, 1.0, 1.0], 1.0).tolist() == [3.0, 2.0, 1.0]

    def test_empty(self):
        assert compute_rtg([], 0.99).tolist() == []

    def test_recursion_exact(self, rng):
        for _ in range(100):
            r = rng.normal(size=rng.integers(1, 80))
            g = compute_rtg(r, 0.99)
            for t in range(len(r) - 1):
                assert g[t] == r[t] + 0.99 * g[t + 1]
            assert g[-1] == r[-1]

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            compute_rtg([1.0], 0.0)
        with pytest.raises(ValueError):
            compute_rtg([1.0], 1.5)


def make_traj(rng, steps=5, outcome="success", num_peds=2, seed=0):
    rewards = rng.normal(size=steps) * 0.1
    if outcome == "success":
        rewards[-1] = 2.0
    elif outcome == "collision":
        rewards[-1] = -0.25
    else:
        rewards[-1] = 0.0
    return Trajectory(states=rng.normal(size=(steps, 6 + 7 * num_peds)),
                      actions=rng.normal(size=(steps, 2)) * 0.5,
                      rewards=rewards, rtg=compute_rtg(rewards, 0.99),
                      outcome=outcome, duration=steps * 0.25, seed=seed)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def float_trajectories(draw):
    """Trajectories whose every float is any finite double."""
    steps, width = draw(st.integers(1, 4)), draw(st.integers(1, 5))

    def block(*shape):
        return draw(hnp.arrays(np.float64, shape, elements=FINITE))

    return Trajectory(states=block(steps, width), actions=block(steps, 2),
                      rewards=block(steps), rtg=block(steps),
                      outcome=draw(st.sampled_from(["success", "collision", "timeout"])),
                      duration=draw(FINITE), seed=draw(st.integers(0, 2**63 - 1)))


class TestTrajectory:
    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            Trajectory(states=rng.normal(size=(3, 20)),
                       actions=rng.normal(size=(2, 2)),
                       rewards=np.zeros(3), rtg=np.zeros(3),
                       outcome="success", duration=1.0, seed=0)

    def test_unknown_outcome_rejected(self, rng):
        with pytest.raises(ValueError):
            make_traj(rng, outcome="exploded")

    def test_episode_return_is_first_label(self, rng):
        t = make_traj(rng, steps=7)
        assert t.episode_return == t.rtg[0]


class TestSerialization:
    def test_roundtrip_field_for_field(self, tmp_path, rng):
        trajs = [make_traj(rng, steps=rng.integers(1, 20),
                           outcome=o, seed=i)
                 for i, o in enumerate(["success", "collision", "timeout"] * 3)]
        path = tmp_path / "t.jsonl"
        save_trajectories(path, trajs, gamma=0.99, config_hash="abc")
        loaded, header = load_trajectories(path)
        assert header["gamma"] == 0.99
        assert header["config_hash"] == "abc"
        assert len(loaded) == len(trajs)
        for a, b in zip(trajs, loaded):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.actions, b.actions)
            assert np.array_equal(a.rewards, b.rewards)
            assert np.array_equal(a.rtg, b.rtg)
            assert (a.outcome, a.duration, a.seed) == (b.outcome, b.duration, b.seed)

    def test_empty_file_is_error(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_trajectories(path)

    @pytest.mark.parametrize("header", ["[1, 2]", '"x"', "3", "null"])
    def test_header_not_an_object_names_line(self, tmp_path, header):
        path = tmp_path / "h.jsonl"
        path.write_text(header + "\n")
        with pytest.raises(DatasetFormatError, match="line 1: header is a"):
            load_trajectories(path)

    def test_corrupt_record_names_line(self, tmp_path, rng):
        path = tmp_path / "c.jsonl"
        save_trajectories(path, [make_traj(rng), make_traj(rng)], gamma=0.99)
        lines = path.read_text().splitlines()
        lines[2] = '{"seed": 1, "outcome": "success"}'   # missing arrays
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_trajectories(path)

    @pytest.mark.parametrize("field, value", [
        ("states", [0.5, 0.5, 0.5]),
        ("states", [[[0.5]], [[0.5]], [[0.5]]]),
        ("actions", [[0.1, 0.2, 0.3]] * 3),
        ("actions", [0.1, 0.2, 0.3]),
        ("rewards", [[0.0], [0.0], [1.0]]),
        ("rtg", [[0.5], [0.5], [1.0]]),
    ], ids=["states-1d", "states-3d", "actions-3-wide", "actions-1d",
            "rewards-2d", "rtg-2d"])
    def test_malformed_shape_names_line(self, tmp_path, rng, field, value):
        # each record loads as arrays of the right length; only the shape is wrong
        path = tmp_path / "s.jsonl"
        save_trajectories(path, [make_traj(rng, steps=3), make_traj(rng, steps=3)],
                          gamma=0.99)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record[field] = value
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError,
                           match=r"line 3: bad trajectory record \(trajectory shapes"):
            load_trajectories(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["states", "actions", "rewards", "rtg"])
    def test_non_finite_value_names_line(self, tmp_path, rng, field, value):
        # json reads NaN and infinities; a dataset holding one is refused at load
        path = tmp_path / "n.jsonl"
        save_trajectories(path, [make_traj(rng, steps=3), make_traj(rng, steps=3)],
                          gamma=0.99)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        values = np.array(record[field])
        values.flat[values.size // 2] = float(value)
        record[field] = values.tolist()
        lines[2] = json.dumps(record)
        assert value in lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=r"line 3: bad trajectory record "
                           rf"\(non-finite value in trajectory {field}\)"):
            load_trajectories(path)

    def test_bad_json_names_line(self, tmp_path, rng):
        path = tmp_path / "b.jsonl"
        save_trajectories(path, [make_traj(rng)], gamma=0.99)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_trajectories(path)

    def test_lossless_float_format(self):
        vals = [0.1, 1 / 3, 1e-17, -2.5e300, 123456.789]
        out = json.loads(dumps_lossless(vals))
        assert out == vals

    @pytest.mark.parametrize("arr", [
        np.array([-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-300, 1e300, -1e300]),
        np.array([[0.1, -0.0, 1 / 3], [1e-300, 5e-324, -2.5e300]]),
        np.arange(24.0).reshape(2, 3, 4) / 7,
        np.zeros(0), np.zeros((3, 0)), np.zeros((0, 2)),
        np.array([[1.0, 2.0], [3.0, 4.0]])[:, ::-1],   # non-contiguous view
    ])
    def test_float64_array_bytes_match_element_path(self, arr):
        # a float64 array and an object array of the same values
        # write the same bytes, and every value reads back to its bits
        text = dumps_lossless(arr)
        assert text == dumps_lossless(arr.astype(object))
        back = np.array(json.loads(text), dtype=np.float64)
        assert back.tobytes() == arr.tobytes()

    @settings(deadline=None, database=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0),
                      elements=FINITE))
    @example(np.array(-0.0))
    def test_float64_array_round_trip_bit_for_bit(self, arr):
        back = np.array(json.loads(dumps_lossless(arr)), dtype=np.float64)
        assert back.tobytes() == arr.tobytes()
        if arr.size:   # JSON keeps no shape for an empty array
            assert back.shape == arr.shape

    # one file per test, overwritten by every example
    @settings(deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(float_trajectories())
    @example(Trajectory(states=np.array([[-0.0, 5e-324], [1e300, -1e300]]),
                        actions=np.array([[-0.0, -0.0], [0.0, -5e-324]]),
                        rewards=np.array([-0.0, 1e-300]), rtg=np.array([-1e300, -0.0]),
                        outcome="timeout", duration=-0.0, seed=0))
    def test_trajectory_round_trip_bit_for_bit(self, tmp_path, traj):
        path = tmp_path / "t.jsonl"
        save_trajectories(path, [traj], gamma=0.99)
        (back,), _ = load_trajectories(path)
        for name in ("states", "actions", "rewards", "rtg"):
            assert getattr(back, name).tobytes() == getattr(traj, name).tobytes()
        assert np.float64(back.duration).tobytes() == np.float64(traj.duration).tobytes()
        assert (back.outcome, back.seed) == (traj.outcome, traj.seed)

    def test_missing_last_line_names_line_and_counts(self, tmp_path, rng):
        path = tmp_path / "cut.jsonl"
        save_trajectories(path, [make_traj(rng) for _ in range(3)], gamma=0.99)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(DatasetFormatError,
                           match="line 4: header count 3 but 2 trajectories read"):
            load_trajectories(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_raises(self, bad):
        for arr in (np.array([1.0, bad]), np.array([[1.0], [bad]])):
            with pytest.raises(ValueError, match="Out of range float"):
                dumps_lossless(arr)
            with pytest.raises(ValueError, match="Out of range float"):
                dumps_lossless(arr.astype(object))


class TestAtomicWrite:
    OLD = b"previous contents\n"

    def _check_untouched(self, tmp_path, target):
        assert target.read_bytes() == self.OLD
        assert sorted(tmp_path.iterdir()) == [target]

    def test_raise_part_way_keeps_old_target(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_bytes(self.OLD)
        with pytest.raises(RuntimeError):
            with atomic_write(target) as fh:
                fh.write("half of the new")
                fh.flush()
                raise RuntimeError("interrupted")
        self._check_untouched(tmp_path, target)

    def test_completed_write_replaces_target(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(self.OLD)
        with atomic_write(target, "wb") as fh:
            fh.write(b"new")
        assert target.read_bytes() == b"new"
        assert sorted(tmp_path.iterdir()) == [target]

    def test_writers_fail_without_partial_output(self, tmp_path, rng):
        # the second record cannot be serialized, after the first was written
        bad = make_traj(rng)
        bad.rewards[0] = np.nan
        target = tmp_path / "t.jsonl"
        target.write_bytes(self.OLD)
        with pytest.raises(ValueError, match="Out of range float"):
            save_trajectories(target, [make_traj(rng), bad], gamma=0.99)
        self._check_untouched(tmp_path, target)
        with pytest.raises(TypeError):
            write_positions_log(target, [{"episode": 0}, {"episode": object()}])
        self._check_untouched(tmp_path, target)

    def test_plot_render_fails_without_partial_figure(self, tmp_path):
        # the second step lacks its pedestrian, after the first was rendered
        log = tmp_path / "pos.jsonl"
        write_positions_log(log, [{"episode": 0, "dt": 0.25,
                                   "robot": [[0.0, 0.0], [0.1, 0.0]],
                                   "peds": [[[1.0, 1.0]], []]}])
        out = tmp_path / "plots"
        out.mkdir()
        target = out / "episode_0000.svg"
        target.write_bytes(self.OLD)
        with pytest.raises(PlotError, match="step 1"):
            plot_trajectories(read_positions_log(log), out)
        self._check_untouched(out, target)


def toward_goal(env, obs):
    return np.array([0.0, 1.0])


def into_ped(env, obs):
    d = env.peds[0].pos - env.robot.pos
    return d / np.linalg.norm(d)


def stand_still(env, obs):
    return np.zeros(2)


class TestRollout:
    @pytest.mark.parametrize("num_peds, act_fn, outcome", [
        (0, toward_goal, "success"),
        (1, into_ped, "collision"),
        (0, stand_still, "timeout")], ids=["goal", "collision", "timeout"])
    def test_terminal_status_labels_trajectory(self, num_peds, act_fn, outcome):
        env = CrowdEnv(SimConfig(num_peds=num_peds, perturbation=0.0))
        traj, world_log = rollout(env, act_fn, seed=5, gamma=0.9)
        assert traj.outcome == outcome
        assert traj.duration == env.time
        assert traj.seed == 5
        assert traj.rtg.tobytes() == compute_rtg(traj.rewards, 0.9).tobytes()
        assert traj.states.shape == (traj.num_steps, env.observe().joint.size)
        assert traj.actions.shape == (traj.num_steps, 2)
        assert world_log == []


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path, tiny_cfg):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        generate_dataset(3, seed=77, sim_cfg=tiny_cfg.sim, gamma=0.99, out_path=p1)
        generate_dataset(3, seed=77, sim_cfg=tiny_cfg.sim, gamma=0.99, out_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_requires_invisible_robot(self, tmp_path, tiny_cfg):
        import dataclasses
        cfg = dataclasses.replace(tiny_cfg.sim, robot_visible=True)
        with pytest.raises(ValueError, match="invisible"):
            generate_dataset(1, seed=0, sim_cfg=cfg, gamma=0.99,
                             out_path=tmp_path / "x.jsonl")

    def test_capacity_guard(self, tmp_path, tiny_cfg):
        with pytest.raises(ValueError, match="capacity"):
            generate_dataset(11, seed=0, sim_cfg=tiny_cfg.sim, gamma=0.99,
                             out_path=tmp_path / "x.jsonl", max_capacity=10)

    def test_capacity_counts_transitions_before_writing(self, tmp_path, tiny_cfg):
        # 3 episodes fit a capacity of 10 episodes but not of 10 transitions
        out = tmp_path / "x.jsonl"
        with pytest.raises(ConfigError, match=r"3 episodes hold \d+ transitions.* 10$"):
            generate_dataset(3, seed=0, sim_cfg=tiny_cfg.sim, gamma=0.99,
                             out_path=out, max_capacity=10)
        assert list(tmp_path.iterdir()) == []

    def test_rtg_labels_match_oracle_exactly(self, tiny_dataset):
        trajs, _, _ = tiny_dataset
        for t in trajs:
            assert t.rtg.tolist() == suffix_sum_oracle(t.rewards.tolist(), 0.99)

    def test_stats_sidecar_written(self, tiny_dataset):
        _, stats, path = tiny_dataset
        with open(str(path) + ".stats.json") as fh:
            sidecar = json.load(fh)
        assert sidecar["capacity"] == stats.capacity
        assert sidecar["success_rate"] == stats.success_rate


class TestStats:
    def test_arithmetic_example(self, rng):
        trajs = [make_traj(rng, steps=40, outcome="success"),
                 make_traj(rng, steps=48, outcome="success"),
                 make_traj(rng, steps=10, outcome="collision")]
        trajs[0].duration = 10.0
        trajs[1].duration = 12.0
        s = stats_of(trajs)
        assert s.success_rate == pytest.approx(2 / 3)
        assert s.collision_rate == pytest.approx(1 / 3)
        assert s.mean_nav_time == pytest.approx(11.0)
        assert s.capacity == 3

    def test_rates_sum_to_one(self, tiny_dataset):
        _, stats, _ = tiny_dataset
        total = stats.success_rate + stats.collision_rate + stats.timeout_rate
        assert abs(total - 1.0) < 1e-12

    def test_file_stats_match_streaming_recomputation(self, tiny_dataset):
        trajs, stats, path = tiny_dataset
        # independent single-pass recomputation from the file
        n = succ = coll = 0
        time_sum = 0.0
        ret_sum = 0.0
        with open(path) as fh:
            fh.readline()
            for line in fh:
                rec = json.loads(line)
                n += 1
                ret_sum += rec["rtg"][0]
                if rec["outcome"] == "success":
                    succ += 1
                    time_sum += rec["duration"]
                elif rec["outcome"] == "collision":
                    coll += 1
        file_stats = dataset_stats(path)
        assert file_stats.success_rate == succ / n
        assert file_stats.collision_rate == coll / n
        if succ:
            assert file_stats.mean_nav_time == pytest.approx(time_sum / succ)
        assert file_stats.mean_return == pytest.approx(ret_sum / n)
        assert file_stats.capacity == n == stats.capacity

    def test_stats_of_empty_is_error(self):
        with pytest.raises(ValueError):
            stats_of([])

    def test_header_only_file_is_error(self, tmp_path):
        path = tmp_path / "h.jsonl"
        save_trajectories(path, [], gamma=0.99)
        with pytest.raises(DatasetFormatError):
            dataset_stats(path)

    def test_outcome_consistent_with_final_reward(self, tiny_dataset):
        trajs, _, _ = tiny_dataset
        for t in trajs:
            last = t.rewards[-1]
            if t.outcome == "collision":
                assert last == -0.25
            elif t.outcome == "success":
                assert last == 2.0 or -0.2 < last < 0.0
            else:
                assert last != -0.25 and last != 2.0
