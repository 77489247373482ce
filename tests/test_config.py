import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from socnav.config import Config, ConfigError, NetConfig, OrcaConfig, SimConfig, TrainConfig

# every module's source except the config's own
READERS = "".join(p.read_text() for p in
                  sorted((Path(__file__).resolve().parents[1] / "src" / "socnav").glob("*.py"))
                  if p.name != "config.py")


class TestValidation:
    def test_defaults_valid(self):
        Config().validate()

    def test_table_defaults(self):
        cfg = Config()
        assert cfg.train.learning_rate == 5e-4
        assert cfg.train.batch_size == 256
        assert cfg.train.gamma == 0.99
        assert cfg.train.buffer_capacity == 100_000
        assert cfg.sim.timeout == 25.0
        assert cfg.sim.v_max == 1.0

    def test_bad_gamma(self):
        cfg = Config()
        cfg.train.gamma = 0.0
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("field, value", [("sampled_trajs", 0),
                                              ("rtg_mode", "labels")])
    def test_bad_train_value(self, field, value):
        cfg = Config()
        setattr(cfg.train, field, value)
        with pytest.raises(ConfigError, match=field):
            cfg.validate()

    def test_heads_must_divide_hidden(self):
        cfg = Config()
        cfg.net.hidden_dim = 10
        cfg.net.num_heads = 4
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            Config.from_dict({"nope": 1})
        with pytest.raises(ConfigError, match="unknown"):
            Config.from_dict({"sim": {"dt": 0.25, "warp": 9}})

    @pytest.mark.parametrize("key", ["policy_batch", "rtgp_fast_batch", "max_episodes"])
    def test_removed_train_keys_rejected(self, key):
        # train.batch_size is the one minibatch setting; the fine-tuning
        # episode count has no separate cap
        with pytest.raises(ConfigError, match=f"unknown keys in 'train': \\['{key}'\\]"):
            Config.from_dict({"train": {key: 8}})

    @pytest.mark.parametrize("raw, field", [
        ({"seed": "abc"}, "seed"),
        ({"seed": -5}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": 1.0}, "seed"),
        ({"train": {"batch_size": "8"}}, "train.batch_size"),
        ({"train": {"batch_size": 8.0}}, "train.batch_size"),
        ({"train": {"gamma": "0.9"}}, "train.gamma"),
        ({"train": {"rtg_mode": 1}}, "train.rtg_mode"),
        ({"sim": {"num_peds": 2.5}}, "sim.num_peds"),
        ({"sim": {"num_peds": True}}, "sim.num_peds"),
        ({"sim": {"robot_visible": 1}}, "sim.robot_visible"),
        ({"sim": {"dt": None}}, "sim.dt"),
        ({"sim": {"robot_orca": {"max_speed": [1.0]}}}, "sim.robot_orca.max_speed"),
        ({"net": {"hidden_dim": False}}, "net.hidden_dim"),
        ({"sim": {"dt": float("nan")}}, "sim.dt"),
        ({"train": {"learning_rate": float("inf")}}, "train.learning_rate"),
        ({"sim": {"robot_orca": {"time_horizon": -float("inf")}}},
         "sim.robot_orca.time_horizon"),
        ({"sim": {"dt": 10**400}}, "sim.dt"),
        ({"train": {"learning_rate": 10**400}}, "train.learning_rate"),
    ])
    def test_wrong_type_or_negative_seed_names_the_field(self, raw, field):
        with pytest.raises(ConfigError, match=re.escape(field)):
            Config.from_dict(raw)

    @pytest.mark.parametrize("raw, field", [
        ({"train": {"pretrain_patience": 0}}, "train.pretrain_patience"),
        ({"train": {"pretrain_patience": -2}}, "train.pretrain_patience"),
        ({"sim": {"arena_radius": 0.5}}, "sim.arena_radius"),
        ({"sim": {"arena_radius": -1.0}}, "sim.arena_radius"),
        ({"sim": {"arena_radius": 1.15, "perturbation": 0.0}}, "sim.arena_radius"),
    ])
    def test_values_that_would_hang_or_crash_name_the_field(self, raw, field):
        # pretraining's early stop needs an epoch of patience; a pedestrian
        # at its goal must have a new goal on the circle REGOAL_MIN_DIST away
        with pytest.raises(ConfigError, match=re.escape(field)):
            Config.from_dict(raw)

    def test_arena_radius_leaving_a_new_goal_accepted(self):
        # at perturbation 0 a pedestrian re-goals within ped_radius of the
        # circle, so its farthest goal is 2 * 1.2 - 0.3 = 2.1 m away
        Config.from_dict({"sim": {"arena_radius": 1.2, "perturbation": 0.0}})
        Config.from_dict({"train": {"pretrain_patience": 1}})

    def test_int_accepted_for_float_field(self):
        cfg = Config.from_dict({"train": {"gamma": 1, "learning_rate": 1},
                                "sim": {"robot_visible": True}})
        assert (cfg.train.gamma, cfg.train.learning_rate, cfg.sim.robot_visible) == (1, 1, True)

    def test_orca_validation(self):
        cfg = Config()
        cfg.sim.robot_orca.time_horizon = 0.0
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_reference_controller_faster_than_action_bound_rejected(self):
        # the reference controller's actions must pass the env's speed check
        with pytest.raises(ConfigError, match="robot_orca.max_speed 1.0 exceeds"):
            Config.from_dict({"sim": {"v_max": 0.8}}).validate()
        Config.from_dict({"sim": {"v_max": 0.8,
                                  "robot_orca": {"max_speed": 0.8}}}).validate()


class TestIO:
    def test_roundtrip(self, tmp_path):
        cfg = Config()
        cfg.seed = 17
        cfg.sim.num_peds = 3
        path = tmp_path / "c.json"
        path.write_text(cfg.to_json() + "\n")
        loaded = Config.load(path)
        assert loaded.seed == 17
        assert loaded.sim.num_peds == 3
        assert loaded.hash() == cfg.hash()

    def test_hash_changes_with_content(self):
        a, b = Config(), Config()
        b.train.gamma = 0.95
        assert a.hash() != b.hash()

    def test_nested_orca_from_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            {"sim": {"robot_orca": {"safety_space": 0.07}}}))
        cfg = Config.load(path)
        assert cfg.sim.robot_orca.safety_space == 0.07
        assert cfg.sim.ped_orca.safety_space == 0.05   # default preserved

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError):
            Config.load(path)


class TestFieldReaders:
    # NetConfig.embed_dim has no reader; it stays until the benchmark's tiny
    # config, which sets it, stops passing it
    UNREAD = {"embed_dim"}

    @pytest.mark.parametrize("name", [f"{cls.__name__}.{f.name}" for cls in
                                      (SimConfig, OrcaConfig, NetConfig, TrainConfig)
                                      for f in fields(cls)])
    def test_every_field_has_a_reader(self, name):
        field = name.split(".")[1]
        read = re.search(rf"\.{field}\b", READERS) is not None
        assert read != (field in self.UNREAD), name
