import pytest

from socnav.plotting import (PlotError, episode_csv, episode_svg,
                             plot_trajectories, read_positions_log,
                             write_positions_log)


def straight_log():
    # robot rides straight from start to goal; two idle pedestrians
    steps = 9
    robot = [[0.0, -4.0 + t] for t in range(steps)]
    peds = [[[2.0, 0.0], [-2.0, 0.0]] for _ in range(steps)]
    return {"episode": 0, "seed": 5, "dt": 1.0, "robot": robot, "peds": peds}


class TestSvg:
    def test_straight_path_segment(self):
        svg = episode_svg(straight_log())
        # start (0,-4) maps to (224, 384); goal (0,4) to (224, 64) at 40 px/m
        assert "224.0000,384.0000" in svg
        assert "224.0000,64.0000" in svg
        assert svg.count("<polyline") == 3      # robot + 2 pedestrians
        assert "goal" in svg

    def test_timestamps_present_per_step(self):
        svg = episode_svg(straight_log())
        assert svg.count("<title>") == 9
        assert "<title>t=3.0000s</title>" in svg

    def test_missing_positions_names_episode(self):
        with pytest.raises(PlotError, match="episode 4"):
            episode_svg({"episode": 4, "robot": [], "peds": []})

    def test_ragged_pedestrians_error(self):
        rec = straight_log()
        rec["peds"][3] = [[1.0, 1.0]]   # lost one pedestrian at step 3
        with pytest.raises(PlotError, match="step 3"):
            episode_svg(rec)


class TestCsv:
    def test_row_count_steps_times_agents(self):
        csv = episode_csv(straight_log())
        rows = csv.strip().splitlines()
        assert rows[0] == "episode,step,time,agent,x,y"
        assert len(rows) - 1 == 9 * 3

    def test_coordinates_raw(self):
        csv = episode_csv(straight_log())
        assert "0,0,0.0000,robot,0.0000,-4.0000" in csv
        assert "0,8,8.0000,robot,0.0000,4.0000" in csv


class TestFiles:
    def test_byte_identical_rerender(self, tmp_path):
        log = tmp_path / "pos.jsonl"
        write_positions_log(log, [straight_log()])
        out1 = tmp_path / "p1"
        out2 = tmp_path / "p2"
        w1 = plot_trajectories(read_positions_log(log), out1)
        w2 = plot_trajectories(read_positions_log(log), out2)
        for a, b in zip(sorted(w1), sorted(w2)):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_log_roundtrip(self, tmp_path):
        log = tmp_path / "pos.jsonl"
        write_positions_log(log, [straight_log(), straight_log() | {"episode": 1}])
        episodes = read_positions_log(log)
        assert len(episodes) == 2
        assert episodes[1]["episode"] == 1

    def test_corrupt_log_line(self, tmp_path):
        log = tmp_path / "pos.jsonl"
        log.write_text("{broken\n")
        with pytest.raises(PlotError, match="line 1"):
            read_positions_log(log)

    def test_log_line_not_an_object(self, tmp_path):
        log = tmp_path / "pos.jsonl"
        write_positions_log(log, [straight_log()])
        log.write_text(log.read_text() + "[1]\n")
        with pytest.raises(PlotError, match="line 2: episode record is a list"):
            read_positions_log(log)
