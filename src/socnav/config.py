"""Configuration objects for the simulator, networks and training loops.

All configs are plain dataclasses serializable to/from a single JSON
document, so a run is fully described by one file plus a seed (no CLI
flag overrides a field; only the evaluation episode count lies outside
it). The canonical JSON form (sorted keys) is hashed to tag artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields


RTG_MODES = ("rtgp", "fixed")   # online return conditioning: predictor | fixed target
REGOAL_MIN_DIST = 2.0   # m, a pedestrian's next goal is at least this far from it


class ConfigError(ValueError):
    """Configuration or usage error: an invalid config, or an input that does not fit it."""


@dataclass
class OrcaConfig:
    """Parameters of the reciprocal collision-avoidance controller."""

    time_horizon: float = 5.0      # s, velocity-obstacle truncation
    neighbor_dist: float = 10.0    # m, ignore agents farther than this
    safety_space: float = 0.0      # m, inflation of the agent's own radius
    max_speed: float = 1.0         # m/s
    symmetry_bias: float = 1e-3    # rad per agent index, breaks exact head-on deadlocks

    def validate(self):
        if self.time_horizon <= 0:
            raise ConfigError("orca.time_horizon must be > 0")
        if self.safety_space < 0:
            raise ConfigError("orca.safety_space must be >= 0")
        if self.max_speed <= 0:
            raise ConfigError("orca.max_speed must be > 0")
        if self.neighbor_dist <= 0:
            raise ConfigError("orca.neighbor_dist must be > 0")


@dataclass
class SimConfig:
    """Crowd environment constants.

    The circle-crossing scenario: the robot starts at (0, -4) and heads to
    (0, 4); pedestrians start on a radius-4 circle and cross to the far
    side, with uniform per-axis position noise of +-perturbation meters.
    """

    num_peds: int = 5
    dt: float = 0.25               # s per step
    v_max: float = 1.0             # m/s, robot action bound
    robot_radius: float = 0.3      # m
    ped_radius: float = 0.3       # m
    v_pref: float = 1.0            # m/s, robot preferred speed
    ped_v_pref: float = 0.8        # m/s, pedestrian preferred speed (calibrated)
    timeout: float = 25.0          # s
    robot_visible: bool = False    # pedestrians react to the robot only if True
    perturbation: float = 0.5      # m, uniform noise bound on start/goal
    arena_radius: float = 4.0      # m, crossing circle radius
    ped_orca: OrcaConfig = field(default_factory=lambda: OrcaConfig(
        time_horizon=2.5, safety_space=0.05))
    robot_orca: OrcaConfig = field(default_factory=lambda: OrcaConfig(
        time_horizon=8.0, safety_space=0.02))

    def validate(self):
        if self.num_peds < 0:
            raise ConfigError("sim.num_peds must be >= 0")
        if self.dt <= 0:
            raise ConfigError("sim.dt must be > 0")
        if self.v_max <= 0 or self.v_pref <= 0 or self.ped_v_pref <= 0:
            raise ConfigError("sim speeds must be > 0")
        if self.robot_radius <= 0 or self.ped_radius <= 0:
            raise ConfigError("sim radii must be > 0")
        if self.timeout <= 0:
            raise ConfigError("sim.timeout must be > 0")
        if self.perturbation < 0:
            raise ConfigError("sim.perturbation must be >= 0")
        # a pedestrian re-goals within ped_radius of a goal at least
        # R - sqrt(2) * perturbation out, so `near` or more from the centre
        R = self.arena_radius
        near = max(0.0, R - math.sqrt(2.0) * self.perturbation - self.ped_radius)
        if not R + near > REGOAL_MIN_DIST:   # the circle's farthest point from it
            raise ConfigError(f"sim.arena_radius {R} leaves a pedestrian at its goal "
                              f"no new goal {REGOAL_MIN_DIST} m away")
        self.ped_orca.validate()
        self.robot_orca.validate()
        if self.robot_orca.max_speed > self.v_max:
            raise ConfigError(f"sim.robot_orca.max_speed {self.robot_orca.max_speed} "
                              f"exceeds the action bound sim.v_max {self.v_max}")


@dataclass
class NetConfig:
    """Shapes of the return predictor and the policy transformer."""

    hidden_dim: int = 128
    num_heads: int = 4
    ffn_dim: int = 128
    rtgp_window: int = 20          # history steps fed to the return predictor
    policy_context: int = 20       # K, steps of (rtg, state, action) triples
    policy_blocks: int = 3
    head_hidden: int = 256         # penultimate width of the return head
    embed_dim: int = 128           # token embedding width

    def validate(self):
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError("net.hidden_dim must be divisible by net.num_heads")
        for name in ("hidden_dim", "num_heads", "ffn_dim", "rtgp_window",
                     "policy_context", "policy_blocks", "head_hidden", "embed_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"net.{name} must be >= 1")


@dataclass
class TrainConfig:
    """Training hyperparameters. Defaults follow the published values;
    the desk-scale fields bound what the test suite actually runs."""

    learning_rate: float = 5e-4
    batch_size: int = 256              # windows per update, either network, both phases
    gamma: float = 0.99
    buffer_capacity: int = 100_000     # transitions, online portion bounded by the remainder
    # Desk-scale knobs
    offline_episodes: int = 2000       # dataset size used for pre-training
    finetune_episodes: int = 500
    pretrain_iters: int = 1500         # minibatch updates per network
    pretrain_patience: int = 10        # epochs without improvement before early stop
    plateau_delta: float = 1e-4
    sampled_trajs: int = 4             # trajectories sampled per online episode
    rtg_mode: str = "rtgp"             # rollout conditioning: rtgp | fixed
    fixed_rtg_target: float = 2.0

    def validate(self):
        if not (0 < self.gamma <= 1):
            raise ConfigError("train.gamma must be in (0, 1]")
        if self.learning_rate <= 0:
            raise ConfigError("train.learning_rate must be > 0")
        for name in ("batch_size", "buffer_capacity", "offline_episodes",
                     "finetune_episodes", "pretrain_iters", "pretrain_patience",
                     "sampled_trajs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"train.{name} must be >= 1")
        if self.rtg_mode not in RTG_MODES:
            raise ConfigError("train.rtg_mode must be one of " + "|".join(RTG_MODES))


@dataclass
class Config:
    """Top-level bundle written to and read from JSON."""

    sim: SimConfig = field(default_factory=SimConfig)
    net: NetConfig = field(default_factory=NetConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def validate(self):
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        self.sim.validate()
        self.net.validate()
        self.train.validate()
        return self

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def hash(self) -> str:
        canon = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @classmethod
    def load(cls, path) -> "Config":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(raw, source=str(path))

    @classmethod
    def from_dict(cls, raw: dict, source: str = "<dict>") -> "Config":
        if not isinstance(raw, dict):
            raise ConfigError(f"{source}: top level must be an object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"{source}: unknown keys {sorted(unknown)}")
        cfg = cls(
            sim=_build(SimConfig, raw.get("sim", {}), "sim", source),
            net=_build(NetConfig, raw.get("net", {}), "net", source),
            train=_build(TrainConfig, raw.get("train", {}), "train", source),
            seed=raw.get("seed", 0),
        )
        cfg.validate()
        return cfg


# JSON value types each annotated field type accepts; an int is a valid float
FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _build(cls, raw, section, source):
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: '{section}' must be an object")
    known = {f.name: f for f in fields(cls)}
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"{source}: unknown keys in '{section}': {sorted(unknown)}")
    kwargs = {}
    for name, value in raw.items():
        kind = known[name].type
        if kind == "OrcaConfig":
            value = _build(OrcaConfig, value, f"{section}.{name}", source)
        elif isinstance(value, bool) != (kind == "bool") or not isinstance(
                value, FIELD_TYPES[kind]):
            raise ConfigError(f"{source}: {section}.{name} must be {kind}, "
                              f"got {type(value).__name__} {value!r}")
        elif kind == "float" and not -sys.float_info.max <= value <= sys.float_info.max:
            # also an int beyond float range, which is kept as given, not converted
            got = "an int beyond float range" if isinstance(value, int) else repr(value)
            raise ConfigError(f"{source}: {section}.{name} must be finite, got {got}")
        kwargs[name] = value
    return cls(**kwargs)
