"""Trajectory figures: hand-written SVG plus raw-coordinate CSV.

SVG is generated by pure string formatting (no plotting library), so
re-rendering the same log is byte-identical and figure diffs stay
reviewable as text. Each robot step carries a <title> timestamp;
coarse time labels are drawn every two seconds of simulated time.
"""

from __future__ import annotations

import json
import os

from .core import ROBOT_GOAL
from .dataset import atomic_write, dumps_lossless

PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b",
           "#e377c2", "#17becf", "#bcbd22"]
ROBOT_COLOR = "#000000"


class PlotError(ValueError):
    """Episode log unusable for plotting; message names the episode."""


def write_positions_log(path, episodes):
    """Persist per-step world positions, one JSON line per episode.

    episodes: list of dicts {episode, seed, dt, robot: [[x, y]...],
    peds: [[[x, y] * m]...]} with one entry per step including the
    initial placement; a step's entry may be a numpy array.
    """
    with atomic_write(path) as fh:
        for ep in episodes:
            fh.write(dumps_lossless(ep) + "\n")


def read_positions_log(path):
    episodes = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise PlotError(f"line {line_no}: bad episode record ({exc})") from exc
                if not isinstance(record, dict):
                    raise PlotError(f"line {line_no}: episode record is a "
                                    f"{type(record).__name__}, not an object")
                episodes.append(record)
    return episodes


def worlds_to_log(worlds, seeds, dt):
    """Convert evaluate()'s world snapshots into positions-log records; the
    snapshot arrays go in as they are."""
    out = []
    for i, snapshots in enumerate(worlds):
        out.append({
            "episode": i,
            "seed": int(seeds[i]),
            "dt": dt,
            "robot": [robot for robot, _ in snapshots],
            "peds": [peds for _, peds in snapshots],
        })
    return out


def _f(x: float) -> str:
    return format(float(x), ".4f")


def _svg_point(x, y, scale=40.0, half=5.6):
    # world (meters, y up) -> svg pixels (y down)
    return (x + half) * scale, (half - y) * scale


def _tracks(record: dict):
    """A record's robot positions and per-step pedestrian positions (empty
    steps when it has none); they must cover the same steps."""
    robot = record.get("robot")
    if not robot:
        raise PlotError(f"episode {record.get('episode')}: missing robot positions")
    peds = record.get("peds") or [[] for _ in robot]
    if len(peds) != len(robot):
        raise PlotError(f"episode {record.get('episode')}: {len(peds)} steps of "
                        f"pedestrian positions, {len(robot)} of robot positions")
    return robot, peds


def episode_svg(record: dict) -> str:
    """Render one episode: robot path with timestamps, pedestrian paths,
    goal marker."""
    robot, peds = _tracks(record)
    dt = float(record.get("dt", 0.25))
    steps = len(robot)
    num_peds = len(peds[0])

    size = int(11.2 * 40)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="#ffffff"/>']

    # arena circle
    cx, cy = _svg_point(0, 0)
    parts.append(f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(4 * 40)}" '
                 'fill="none" stroke="#dddddd" stroke-dasharray="6,6"/>')

    # pedestrian paths
    for p in range(num_peds):
        color = PALETTE[p % len(PALETTE)]
        pts = []
        for t in range(steps):
            if len(peds[t]) != num_peds:
                raise PlotError(f"episode {record.get('episode')}: "
                                f"missing pedestrian positions at step {t}")
            x, y = _svg_point(*peds[t][p])
            pts.append(f"{_f(x)},{_f(y)}")
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5" opacity="0.7"/>')

    # robot path with per-step timestamps
    pts = [f"{_f(px)},{_f(py)}" for px, py in (_svg_point(*r) for r in robot)]
    parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                 f'stroke="{ROBOT_COLOR}" stroke-width="2.5"/>')
    label_every = max(1, round(2.0 / dt))
    for t, (rx, ry) in enumerate(robot):
        x, y = _svg_point(rx, ry)
        parts.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="2.5" '
                     f'fill="{ROBOT_COLOR}"><title>t={_f(t * dt)}s</title></circle>')
        if t % label_every == 0:
            parts.append(f'<text x="{_f(x + 5)}" y="{_f(y - 5)}" '
                         f'font-size="11" fill="#333333">{_f(t * dt)}s</text>')

    gx, gy = _svg_point(*ROBOT_GOAL)
    parts.append(f'<circle cx="{_f(gx)}" cy="{_f(gy)}" r="8" fill="none" '
                 'stroke="#ff8c00" stroke-width="2.5"/>')
    parts.append(f'<text x="{_f(gx + 10)}" y="{_f(gy + 4)}" font-size="12" '
                 'fill="#ff8c00">goal</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def episode_csv(record: dict) -> str:
    """episode,step,time,agent,x,y; one row per agent per step."""
    robot, peds = _tracks(record)
    dt = float(record.get("dt", 0.25))
    ep = record.get("episode", 0)
    rows = ["episode,step,time,agent,x,y"]
    for t, (rx, ry) in enumerate(robot):
        rows.append(f"{ep},{t},{_f(t * dt)},robot,{_f(rx)},{_f(ry)}")
        for p, (px, py) in enumerate(peds[t]):
            rows.append(f"{ep},{t},{_f(t * dt)},ped{p},{_f(px)},{_f(py)}")
    return "\n".join(rows) + "\n"


def figure_paths(out_dir, episode: int) -> tuple[str, str]:
    """The SVG and CSV figure paths plot_trajectories writes for an episode."""
    stem = os.path.join(out_dir, f"episode_{episode:04d}")
    return stem + ".svg", stem + ".csv"


def plot_trajectories(episodes, out_dir):
    """Render every record of a positions log (read_positions_log) into
    out_dir, replacing figures already there; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for record in episodes:
        svg_path, csv_path = figure_paths(out_dir, record.get("episode", 0))
        with atomic_write(svg_path) as fh:
            fh.write(episode_svg(record))
        with atomic_write(csv_path) as fh:
            fh.write(episode_csv(record))
        written.extend([svg_path, csv_path])
    return written
