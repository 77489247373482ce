import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from socnav import trainer
from socnav.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from socnav.config import Config
from socnav.core import joint_dim
from socnav.dataset import load_trajectories
from socnav.nn import ParamStore


TINY_CONFIG = {
    "sim": {"num_peds": 2},
    "net": {"hidden_dim": 16, "num_heads": 2, "ffn_dim": 16,
            "rtgp_window": 4, "policy_context": 4, "policy_blocks": 1,
            "head_hidden": 8},
    "train": {"pretrain_iters": 8, "batch_size": 4,
              "sampled_trajs": 2, "offline_episodes": 4,
              "finetune_episodes": 2},
    "seed": 3,
}


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


def run(*argv):
    return main(list(argv))


def tree(root: Path) -> dict:
    """Every path under root, mapped to its bytes (None for a directory)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Paths of the tiny config, its dataset and pretrained bundle, a
    bundle fine-tuned in the fixed mode, and a three-episode positions log."""
    d = tmp_path_factory.mktemp("inputs")
    paths = {"cfg": str(d / "cfg.json"), "data": str(d / "d.jsonl"),
             "pre": str(d / "pre.ckpt"), "fixed": str(d / "fixed.ckpt"),
             "log": str(d / "pos.jsonl")}
    Path(paths["cfg"]).write_text(json.dumps(TINY_CONFIG))
    for argv in (["gen-data", "--out", paths["data"]],
                 ["pretrain", "--data", paths["data"], "--out", paths["pre"]],
                 ["eval", "--ckpt", paths["pre"], "--episodes", "3",
                  "--report", str(d / "r.json"), "--positions-log", paths["log"]]):
        assert run("--config", paths["cfg"], *argv) == EXIT_OK
    write_bundle(paths["fixed"], paths["cfg"], meta={"rtg_mode": "fixed"})
    return paths


class TestExitCodes:
    def test_bad_config_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"gamma": 7}}')
        rc = run("--config", str(bad), "gen-data", "--out", str(tmp_path / "d.jsonl"))
        assert rc == EXIT_CONFIG

    def test_unknown_key_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"simulation": {}}')
        rc = run("--config", str(bad), "gen-data", "--out", str(tmp_path / "d.jsonl"))
        assert rc == EXIT_CONFIG

    def test_missing_input_is_3(self, tmp_path):
        rc = run("pretrain", "--data", str(tmp_path / "absent.jsonl"),
                 "--out", str(tmp_path / "c.ckpt"))
        assert rc == EXIT_RUNTIME

    @pytest.mark.parametrize("command, flag", [
        (["gen-data", "--out", "d.jsonl"], ["--episodes", "2"]),
        (["pipeline", "--out", "run"], ["--episodes", "2"]),
        (["pipeline", "--out", "run"], ["--finetune-episodes", "2"]),
        (["finetune", "--ckpt", "c.ckpt", "--data", "d.jsonl", "--out", "f.ckpt"],
         ["--episodes", "2"]),
        (["finetune", "--ckpt", "c.ckpt", "--data", "d.jsonl", "--out", "f.ckpt"],
         ["--rtg-mode", "fixed"]),
        (["eval", "--ckpt", "c.ckpt", "--report", "r.json"], ["--rtg-mode", "fixed"])],
        ids=["gen-data-episodes", "pipeline-episodes", "pipeline-finetune-episodes",
             "finetune-episodes", "finetune-rtg-mode", "eval-rtg-mode"])
    def test_override_flag_removed(self, tiny_config_file, tmp_path, monkeypatch, capsys,
                                   command, flag):
        # the return conditioning and every episode count except the
        # evaluation count are set in the config only
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            run("--config", tiny_config_file, *command, *flag)
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_reference_faster_than_v_max_is_2_before_any_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sim": {"v_max": 0.8}}')
        rc = run("--config", str(bad), "gen-data", "--out", str(tmp_path / "d.jsonl"))
        assert rc == EXIT_CONFIG
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize("config, argv, field", [
        ('{"seed": "abc"}', [], "seed"),
        ('{"train": {"batch_size": "8"}}', [], "train.batch_size"),
        ('{"sim": {"num_peds": 2.5}}', [], "sim.num_peds"),
        ("{}", ["--seed", "-5000000"], "seed")],
        ids=["seed-str", "batch-str", "peds-float", "negative-seed-flag"])
    def test_wrong_type_or_negative_seed_is_2_naming_the_field(
            self, tmp_path, capsys, config, argv, field):
        path = tmp_path / "cfg.json"
        path.write_text(config)
        rc = run("--config", str(path), *argv, "gen-data", "--out", str(tmp_path / "d.jsonl"))
        assert rc == EXIT_CONFIG
        assert f"error: {field}" in capsys.readouterr().err.replace(f"{path}: ", "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_safety_space_flag_removed(self, tmp_path):
        # the robot controller's safety space is set in the config only
        with pytest.raises(SystemExit) as exc:
            run("gen-data", "--safety-space", "0.02", "--out", str(tmp_path / "d.jsonl"))
        assert exc.value.code == EXIT_CONFIG

    def test_gen_data_ok(self, tiny_config_file, tmp_path):
        rc = run("--config", tiny_config_file, "gen-data", "--out", str(tmp_path / "d.jsonl"))
        assert rc == EXIT_OK
        assert len(load_trajectories(tmp_path / "d.jsonl")[0]) == 4   # train.offline_episodes
        assert (tmp_path / "d.jsonl.stats.json").exists()


    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("command, field", [
        (["gen-data", "--out", "d.jsonl"], "offline_episodes"),
        (["finetune", "--ckpt", "c.ckpt", "--data", "d.jsonl", "--out", "f.ckpt"],
         "finetune_episodes"),
        (["eval", "--ckpt", "c.ckpt", "--report", "r.json", "--episodes"], None),
        (["pipeline", "--out", "run"], "offline_episodes"),
        (["pipeline", "--out", "run"], "finetune_episodes"),
        (["pipeline", "--out", "run", "--eval-episodes"], None)],
        ids=["gen-data", "finetune", "eval", "pipeline", "pipeline-finetune",
             "pipeline-eval"])
    def test_count_below_one_is_2_before_any_file(self, command, field, count,
                                                  tiny_config_file, tmp_path, monkeypatch,
                                                  capsys):
        # every count is a config field except the evaluation count, a flag
        monkeypatch.chdir(tmp_path)
        if field is None:
            before = sorted(tmp_path.iterdir())
            with pytest.raises(SystemExit) as exc:
                run("--config", tiny_config_file, *command, str(count))
            assert exc.value.code == EXIT_CONFIG
            assert "must be at least 1" in capsys.readouterr().err
        else:
            cfg = with_overrides(tiny_config_file, tmp_path / "count.json", "train",
                                 **{field: count})
            before = sorted(tmp_path.iterdir())
            assert run("--config", cfg, *command) == EXIT_CONFIG
            assert f"train.{field} must be >= 1" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before


class TestFinetuneCapacity:
    def test_dataset_over_buffer_capacity_is_2_naming_both_numbers(
            self, tiny_config_file, tmp_path, capsys):
        # a dataset written under a larger capacity than the fine-tuning config's
        data, ckpt, out = (str(tmp_path / n) for n in ("d.jsonl", "c.ckpt", "f.ckpt"))
        assert run("--config", tiny_config_file, "gen-data", "--out", data) == EXIT_OK
        write_bundle(ckpt, tiny_config_file)
        transitions = sum(t.num_steps for t in load_trajectories(data)[0])
        assert transitions > 100
        cfg = json.loads(open(tiny_config_file).read())
        cfg["train"]["buffer_capacity"] = 100
        small = tmp_path / "small.json"
        small.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run("--config", str(small), "finetune", "--ckpt", ckpt, "--data", data,
                   "--out", out) == EXIT_CONFIG
        assert (f"4 episodes hold {transitions} transitions, more than the replay "
                f"capacity of 100") in capsys.readouterr().err
        assert not (tmp_path / "f.ckpt").exists()


def with_overrides(cfg_file, path, section, **values) -> str:
    """A copy of the config file with `values` set in `section`; returns its path."""
    cfg = json.loads(open(cfg_file).read())
    cfg[section].update(values)
    path.write_text(json.dumps(cfg))
    return str(path)


def write_bundle(path, cfg_file, pad_block=False, meta=None):
    """Freshly initialized stores of the config's models, with `meta`;
    `pad_block` writes the predictor in its earlier layout, with a zero
    `pad` vector after `embed_t`."""
    policy, rtgp = trainer.build_models(Config.load(cfg_file).validate())
    rtgp_store = rtgp.init_store(1)
    if pad_block:
        blocks, rtgp_store = rtgp_store.blocks, ParamStore(dtype=rtgp_store.dtype)
        for name, block in blocks.items():
            rtgp_store.add(name, block)
            if name == "embed_t.b":
                rtgp_store.add("pad", np.zeros_like(block))
    trainer.save_bundle(path, policy.init_store(0), rtgp_store, meta=meta)


class TestBundleShapes:
    @pytest.mark.parametrize("bundle_net, pad_block, run_net, message", [
        ({"policy_blocks": 2}, False, {},
         "policy block 'block1.q.W' is shape (16, 16) in the checkpoint and missing "
         "in the config's model"),
        ({}, False, {"policy_blocks": 2},
         "policy block 'block1.q.W' is missing in the checkpoint and shape (16, 16) "
         "in the config's model"),
        ({"head_hidden": 4}, False, {},
         "rtgp block 'head1.W' is shape (32, 4) in the checkpoint and shape (32, 8) "
         "in the config's model"),
        ({}, True, {},
         "rtgp block 'pad' is shape (16,) in the checkpoint and missing in the "
         "config's model")],
        ids=["extra", "missing", "reshaped", "pad-layout"])
    @pytest.mark.parametrize("command", ["finetune", "eval"])
    def test_mismatch_is_2_naming_the_block(self, tiny_config_file, tmp_path, capsys,
                                            bundle_net, pad_block, run_net, message,
                                            command):
        ckpt = str(tmp_path / "c.ckpt")
        write_bundle(ckpt, with_overrides(tiny_config_file, tmp_path / "b.json", "net",
                                          **bundle_net), pad_block)
        cfg = with_overrides(tiny_config_file, tmp_path / "r.json", "net", **run_net)
        argv = {"finetune": ["finetune", "--ckpt", ckpt, "--data", str(tmp_path / "d.jsonl"),
                             "--out", str(tmp_path / "f.ckpt")],
                "eval": ["eval", "--ckpt", ckpt, "--episodes", "1",
                         "--report", str(tmp_path / "report.json")]}[command]
        before = sorted(tmp_path.iterdir())
        assert run("--config", cfg, *argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_matching_bundle_evaluates(self, tiny_config_file, tmp_path):
        ckpt = str(tmp_path / "c.ckpt")
        write_bundle(ckpt, tiny_config_file)
        assert run("--config", tiny_config_file, "eval", "--ckpt", ckpt, "--episodes", "1",
                   "--report", str(tmp_path / "r.json")) == EXIT_OK

    def test_meta_not_an_object_is_3_naming_it(self, tiny_config_file, tmp_path, capsys):
        ckpt = str(tmp_path / "c.ckpt")
        write_bundle(ckpt, tiny_config_file, meta=[1])
        assert run("--config", tiny_config_file, "eval", "--ckpt", ckpt, "--episodes", "1",
                   "--report", str(tmp_path / "r.json")) == EXIT_RUNTIME
        assert (f"{ckpt}: checkpoint bundle header at byte offset 24 has meta [1], "
                "not an object") in capsys.readouterr().err


class TestRtgMode:
    @pytest.mark.parametrize("bundle_mode, run_mode", [("fixed", "rtgp"), ("rtgp", "fixed")])
    @pytest.mark.parametrize("command", ["finetune", "eval"])
    def test_mismatch_is_2_naming_both_modes(self, tiny_config_file, tmp_path, capsys,
                                             bundle_mode, run_mode, command):
        ckpt = str(tmp_path / "c.ckpt")
        write_bundle(ckpt, tiny_config_file, meta={"rtg_mode": bundle_mode})
        cfg = with_overrides(tiny_config_file, tmp_path / "r.json", "train",
                             rtg_mode=run_mode)
        argv = {"finetune": ["finetune", "--ckpt", ckpt, "--data", str(tmp_path / "d.jsonl"),
                             "--out", str(tmp_path / "f.ckpt")],
                "eval": ["eval", "--ckpt", ckpt, "--episodes", "1",
                         "--report", str(tmp_path / "report.json")]}[command]
        before = sorted(tmp_path.iterdir())
        assert run("--config", cfg, *argv) == EXIT_CONFIG
        assert (f"fine-tuned in rtg_mode '{bundle_mode}', the config's train.rtg_mode "
                f"is '{run_mode}'") in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_each_mode_is_its_own_config(self, tiny_config_file, tmp_path):
        # the fixed-target ablation fine-tunes one pretrained bundle under a
        # config that differs only in train.rtg_mode; the hashes tell the
        # bundles apart, and each evaluates under its own config only
        data, pre = str(tmp_path / "d.jsonl"), str(tmp_path / "pre.ckpt")
        assert run("--config", tiny_config_file, "gen-data", "--out", data) == EXIT_OK
        assert run("--config", tiny_config_file, "pretrain", "--data", data,
                   "--out", pre) == EXIT_OK
        cfgs = {"rtgp": tiny_config_file,
                "fixed": with_overrides(tiny_config_file, tmp_path / "fixed.json", "train",
                                        rtg_mode="fixed")}
        metas = {}
        for mode, cfg in cfgs.items():
            ckpt = str(tmp_path / f"{mode}.ckpt")
            assert run("--config", cfg, "finetune", "--ckpt", pre, "--data", data,
                       "--out", ckpt) == EXIT_OK
            metas[mode] = trainer.load_bundle(ckpt)[2]
            assert metas[mode]["rtg_mode"] == mode
            assert metas[mode]["config_hash"] == Config.load(cfg).hash()
            for other, other_cfg in cfgs.items():
                assert run("--config", other_cfg, "eval", "--ckpt", ckpt, "--episodes", "1",
                           "--report", str(tmp_path / f"{mode}-{other}.json")) == (
                    EXIT_OK if other == mode else EXIT_CONFIG)
        assert metas["rtgp"]["config_hash"] != metas["fixed"]["config_hash"]


class TestDatasetMismatch:
    @pytest.mark.parametrize("section, values, message", [
        ("sim", {"num_peds": 3},
         f"states are {joint_dim(3)} wide, the config's 2 pedestrians need {joint_dim(2)}"),
        ("train", {"gamma": 0.9},
         "return labels use gamma 0.9, the config's train.gamma is 0.99")],
        ids=["num_peds", "gamma"])
    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_mismatch_is_2_naming_both_values(self, tiny_config_file, tmp_path, capsys,
                                              section, values, message, command):
        # a dataset written under another config
        other = with_overrides(tiny_config_file, tmp_path / "other.json", section, **values)
        data, ckpt, out = (str(tmp_path / n) for n in ("d.jsonl", "c.ckpt", "o.ckpt"))
        assert run("--config", other, "gen-data", "--out", data) == EXIT_OK
        argv = ["--data", data, "--out", out]
        if command == "finetune":
            write_bundle(ckpt, tiny_config_file)
            argv += ["--ckpt", ckpt]
        capsys.readouterr()
        assert run("--config", tiny_config_file, command, *argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)


BLAS_WARNING = "warning: OPENBLAS_NUM_THREADS and OMP_NUM_THREADS are unset"


class TestBlasThreads:
    @pytest.fixture()
    def stages(self, tiny_config_file, tmp_path):
        """argv of pipeline, pretrain and finetune on one tiny dataset."""
        data, ckpt = str(tmp_path / "d.jsonl"), str(tmp_path / "c.ckpt")
        assert run("--config", tiny_config_file, "gen-data", "--out", data) == EXIT_OK
        write_bundle(ckpt, tiny_config_file)
        return {"pipeline": ["pipeline", "--out", str(tmp_path / "run"),
                             "--eval-episodes", "1"],
                "pretrain": ["pretrain", "--data", data, "--out", str(tmp_path / "p.ckpt")],
                "finetune": ["finetune", "--ckpt", ckpt, "--data", data,
                             "--out", str(tmp_path / "f.ckpt")]}

    @staticmethod
    def warnings(monkeypatch, capsys, argv, env, cpus) -> int:
        """How often one command warns under these variables and usable CPUs."""
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        trainer._training_pool()   # sized by the real CPUs before they are faked
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        capsys.readouterr()
        assert run(*argv) == EXIT_OK
        return capsys.readouterr().err.count(BLAS_WARNING)

    @pytest.mark.parametrize("command", ["pipeline", "pretrain", "finetune"])
    def test_one_warning_when_unset_on_two_cpus(self, tiny_config_file, stages,
                                                monkeypatch, capsys, command):
        assert self.warnings(monkeypatch, capsys, ["--config", tiny_config_file,
                                                   *stages[command]], {}, {0, 1}) == 1

    @pytest.mark.parametrize("env, cpus", [
        ({"OPENBLAS_NUM_THREADS": "1"}, {0, 1}),
        ({"OMP_NUM_THREADS": "1"}, {0, 1}),
        ({}, {0})], ids=["openblas-set", "omp-set", "one-cpu"])
    def test_no_warning_when_set_or_on_one_cpu(self, tiny_config_file, stages,
                                               monkeypatch, capsys, env, cpus):
        assert self.warnings(monkeypatch, capsys, ["--config", tiny_config_file,
                                                   *stages["pretrain"]], env, cpus) == 0

    def test_manifest_and_bundles_record_the_setting(self, tiny_config_file, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        assert run("--config", tiny_config_file, "pipeline", "--out", str(out),
                   "--eval-episodes", "1") == EXIT_OK
        want = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}
        assert json.loads((out / "manifest.json").read_text())["blas_threads"] == want
        for name in ("pretrained.ckpt", "finetuned.ckpt"):
            assert trainer.load_bundle(out / name)[2]["blas_threads"] == want


class TestOverwriteGuard:
    def test_refuses_then_force(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "d.jsonl")
        assert run("--config", tiny_config_file, "gen-data", "--out", out) == EXIT_OK
        assert run("--config", tiny_config_file, "gen-data", "--out", out) == EXIT_CONFIG
        assert run("--config", tiny_config_file, "--force", "gen-data",
                   "--out", out) == EXIT_OK

    def test_plot_refuses_then_force(self, inputs, tmp_path):
        # one existing figure refuses the whole log; --force renders it again
        out = tmp_path / "plots"
        assert run("plot", "--log", inputs["log"], "--out", str(out)) == EXIT_OK
        rendered = tree(out)
        (out / "episode_0001.csv").write_text("old")
        assert run("plot", "--log", inputs["log"], "--out", str(out)) == EXIT_CONFIG
        assert tree(out) == rendered | {"episode_0001.csv": b"old"}
        assert run("--force", "plot", "--log", inputs["log"], "--out", str(out)) == EXIT_OK
        assert tree(out) == rendered


# case: (files already in {out}, config overrides, argv, error message); the
# argv and message name the inputs fixture's paths and the output directory
REFUSALS = {
    # an existing output, without --force
    "gen-data-sidecar": (["d.jsonl.stats.json"], {}, ["gen-data", "--out", "{out}/d.jsonl"],
                         "refusing to overwrite {out}/d.jsonl.stats.json"),
    "pretrain": (["p.ckpt"], {}, ["pretrain", "--data", "{data}", "--out", "{out}/p.ckpt"],
                 "refusing to overwrite {out}/p.ckpt"),
    "finetune": (["f.ckpt"], {}, ["finetune", "--ckpt", "{pre}", "--data", "{data}",
                                  "--out", "{out}/f.ckpt"],
                 "refusing to overwrite {out}/f.ckpt"),
    "eval-positions": (["pos.jsonl"], {}, ["eval", "--ckpt", "{pre}", "--episodes", "1",
                                           "--report", "{out}/r.json",
                                           "--positions-log", "{out}/pos.jsonl"],
                       "refusing to overwrite {out}/pos.jsonl"),
    "plot-last-figure": (["episode_0002.svg"], {},
                         ["plot", "--log", "{log}", "--out", "{out}"],
                         "refusing to overwrite {out}/episode_0002.svg"),
    "pipeline-figure": (["plots/episode_0001.csv"], {},
                        ["pipeline", "--out", "{out}", "--eval-episodes", "2"],
                        "refusing to overwrite {out}/plots/episode_0001.csv"),
    "pipeline-dry-run": (["manifest.json"], {}, ["pipeline", "--out", "{out}", "--dry-run"],
                         "refusing to overwrite {out}/manifest.json"),
    # an input that does not fit the config
    "dataset-width": ([], {"sim": {"num_peds": 3}},
                      ["pretrain", "--data", "{data}", "--out", "{out}/p.ckpt"],
                      f"states are {joint_dim(2)} wide, the config's 3 pedestrians "
                      f"need {joint_dim(3)}"),
    "dataset-gamma": ([], {"train": {"gamma": 0.9}},
                      ["finetune", "--ckpt", "{pre}", "--data", "{data}",
                       "--out", "{out}/f.ckpt"],
                      "return labels use gamma 0.99, the config's train.gamma is 0.9"),
    "bundle-block": ([], {"net": {"policy_blocks": 2}},
                     ["eval", "--ckpt", "{pre}", "--episodes", "1",
                      "--report", "{out}/r.json"],
                     "policy block 'block1.q.W' is missing in the checkpoint"),
    "bundle-rtg-mode": ([], {}, ["finetune", "--ckpt", "{fixed}", "--data", "{data}",
                                 "--out", "{out}/f.ckpt"],
                        "fine-tuned in rtg_mode 'fixed', the config's train.rtg_mode "
                        "is 'rtgp'"),
    # a config value that would crash or hang a stage
    "patience-0": ([], {"train": {"pretrain_patience": 0}},
                   ["pipeline", "--out", "{out}", "--eval-episodes", "2"],
                   "train.pretrain_patience must be >= 1"),
    "patience-neg": ([], {"train": {"pretrain_patience": -2}},
                     ["pretrain", "--data", "{data}", "--out", "{out}/p.ckpt"],
                     "train.pretrain_patience must be >= 1"),
    # (commands that run no env: without the check they write, not hang)
    "arena-small": ([], {"sim": {"arena_radius": 0.5}},
                    ["pretrain", "--data", "{data}", "--out", "{out}/p.ckpt"],
                    "sim.arena_radius 0.5"),
    "arena-neg": ([], {"sim": {"arena_radius": -1}},
                  ["pipeline", "--out", "{out}", "--dry-run"],
                  "sim.arena_radius -1"),
    "visible-gen-data": ([], {"sim": {"robot_visible": True}},
                         ["gen-data", "--out", "{out}/d.jsonl"],
                         "sim.robot_visible must be false"),
    "visible-pipeline": ([], {"sim": {"robot_visible": True}},
                         ["pipeline", "--out", "{out}", "--eval-episodes", "2"],
                         "sim.robot_visible must be false"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_is_2_and_writes_nothing(inputs, tmp_path, capsys, case):
    leftovers, overrides, argv, message = REFUSALS[case]
    out = tmp_path / "out"
    out.mkdir()
    for name in leftovers:
        (out / name).parent.mkdir(exist_ok=True)
        (out / name).write_text("old")
    cfg = json.loads(Path(inputs["cfg"]).read_text())
    for section, values in overrides.items():
        cfg[section].update(values)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    before = tree(out)
    assert run("--config", str(tmp_path / "cfg.json"),
               *(a.format(out=out, **inputs) for a in argv)) == EXIT_CONFIG
    assert message.format(out=out) in capsys.readouterr().err
    assert tree(out) == before


class TestStages:
    def test_full_stage_chain(self, tiny_config_file, tmp_path):
        data = str(tmp_path / "d.jsonl")
        ckpt = str(tmp_path / "pre.ckpt")
        ft = str(tmp_path / "ft.ckpt")
        report = str(tmp_path / "rep.json")
        poslog = str(tmp_path / "pos.jsonl")
        plots = str(tmp_path / "plots")

        assert run("--config", tiny_config_file, "gen-data", "--out", data) == EXIT_OK
        assert run("--config", tiny_config_file, "pretrain", "--data", data,
                   "--out", ckpt) == EXIT_OK
        assert run("--config", tiny_config_file, "finetune", "--ckpt", ckpt,
                   "--data", data, "--out", ft) == EXIT_OK
        assert run("--config", tiny_config_file, "eval", "--ckpt", ft,
                   "--episodes", "2", "--report", report,
                   "--positions-log", poslog) == EXIT_OK
        assert run("plot", "--log", poslog, "--out", plots) == EXIT_OK

        rep = json.loads(open(report).read())
        assert rep["num_episodes"] == 2
        assert rep["train_transitions"] > 0
        assert rep["sampling_efficiency"] == pytest.approx(
            rep["mean_return"] / rep["train_transitions"], abs=1e-12)

    def test_chained_stages_match_pipeline_bytes(self, tiny_config_file, tmp_path):
        # the subcommands and `pipeline` run the same stage code, and the
        # config `pipeline` writes describes its run
        pipe = tmp_path / "run"
        assert run("--config", tiny_config_file, "pipeline", "--out", str(pipe),
                   "--eval-episodes", "2") == EXIT_OK
        st = tmp_path / "stages"
        st.mkdir()
        chain = [
            ["gen-data", "--out", f"{st}/dataset.jsonl"],
            ["pretrain", "--data", f"{st}/dataset.jsonl", "--out", f"{st}/pretrained.ckpt"],
            ["finetune", "--ckpt", f"{st}/pretrained.ckpt", "--data",
             f"{st}/dataset.jsonl", "--out", f"{st}/finetuned.ckpt"],
            ["eval", "--ckpt", f"{st}/finetuned.ckpt", "--episodes", "2", "--report",
             f"{st}/eval_report.json", "--positions-log", f"{st}/eval_positions.jsonl"],
        ]
        for argv in chain:
            assert run("--config", str(pipe / "config.json"), *argv) == EXIT_OK
        names = sorted(p.name for p in st.iterdir())
        assert names == ["dataset.jsonl", "dataset.jsonl.stats.json", "eval_positions.jsonl",
                         "eval_report.json", "finetuned.ckpt", "pretrained.ckpt"]
        for name in names:
            assert (st / name).read_bytes() == (pipe / name).read_bytes(), name

    def test_stats_command(self, tiny_config_file, tmp_path, capsys):
        data = str(tmp_path / "d.jsonl")
        run("--config", with_overrides(tiny_config_file, tmp_path / "three.json", "train",
                                       offline_episodes=3), "gen-data", "--out", data)
        assert run("stats", "--data", data) == EXIT_OK
        out = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert out["capacity"] == 3


class TestPipeline:
    def test_dry_run_writes_manifest_only(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "run")
        rc = run("--config", tiny_config_file, "pipeline", "--out", out,
                 "--dry-run")
        assert rc == EXIT_OK
        manifest = json.loads(open(f"{out}/manifest.json").read())
        assert manifest["dry_run"] is True
        assert manifest["artifacts"] == []
        import os
        assert sorted(os.listdir(out)) == ["manifest.json"]

    def test_dry_run_keeps_a_finished_runs_manifest(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "run")
        manifest = tmp_path / "run" / "manifest.json"
        assert run("--config", tiny_config_file, "pipeline", "--out", out,
                   "--dry-run") == EXIT_OK
        # the real run after a dry run writes over the dry run's manifest
        assert run("--config", tiny_config_file, "pipeline", "--out", out,
                   "--eval-episodes", "2") == EXIT_OK
        finished = manifest.read_bytes()
        assert json.loads(finished)["dry_run"] is False
        assert run("--config", tiny_config_file, "pipeline", "--out", out,
                   "--dry-run") == EXIT_CONFIG
        assert manifest.read_bytes() == finished
        assert run("--config", tiny_config_file, "--force", "pipeline", "--out", out,
                   "--dry-run") == EXIT_OK
        assert json.loads(manifest.read_text())["dry_run"] is True

    def test_non_finite_config_is_2_before_any_file(self, tmp_path, capsys):
        # json accepts NaN; a NaN step length once made gen-data run forever
        path = tmp_path / "nan.json"
        path.write_text('{"sim": {"dt": NaN}}')
        out = tmp_path / "run"
        assert run("--config", str(path), "pipeline", "--out", str(out),
                   "--dry-run") == EXIT_CONFIG
        assert "sim.dt must be finite" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_int_beyond_float_range_is_2_before_any_file(self, tmp_path, capsys):
        # an int is accepted for a float field; one too large for a float
        # once made gen-data exit 3 with OverflowError
        path = tmp_path / "huge.json"
        path.write_text('{"sim": {"dt": 1%s}}' % ("0" * 400))
        out = tmp_path / "data.jsonl"
        assert run("--config", str(path), "gen-data", "--out", str(out)) == EXIT_CONFIG
        assert "sim.dt must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["policy_batch", "rtgp_fast_batch", "max_episodes"])
    def test_removed_train_key_is_2_before_any_file(self, tiny_config_file, tmp_path,
                                                    capsys, key):
        cfg = json.loads(open(tiny_config_file).read())
        cfg["train"][key] = 4
        path = tmp_path / "old.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run("--config", str(path), "pipeline", "--out", str(out),
                   "--eval-episodes", "2") == EXIT_CONFIG
        assert f"unknown keys in 'train': ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    def test_pipeline_produces_manifest_with_artifacts(self, tiny_config_file,
                                                       tmp_path):
        out = str(tmp_path / "run")
        rc = run("--config", tiny_config_file, "pipeline", "--out", out,
                 "--eval-episodes", "2")
        assert rc == EXIT_OK
        manifest = json.loads(open(f"{out}/manifest.json").read())
        assert manifest["dry_run"] is False
        for artifact in manifest["artifacts"]:
            import os
            assert os.path.exists(artifact), artifact
        assert manifest["stages"]["eval"]["success_rate"] >= 0.0

    def test_labels_config_is_2_before_any_work(self, tiny_config_file, tmp_path):
        cfg = json.loads(open(tiny_config_file).read())
        cfg["train"]["rtg_mode"] = "labels"
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run("--config", str(path), "pipeline", "--out", str(out)) == EXIT_CONFIG
        assert not (out / "dataset.jsonl").exists()
        assert not (out / "pretrained.ckpt").exists()

    def test_pipeline_artifacts_byte_identical(self, tiny_cfg, tmp_path):
        # every artifact except the wall-clock stamped manifest is a pure
        # function of (config, seed)
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(tiny_cfg.to_json() + "\n")
        files = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("--config", str(cfg_path), "pipeline", "--out", str(out),
                       "--eval-episodes", "4") == EXIT_OK
            files.append({p.relative_to(out): p.read_bytes()
                          for p in out.rglob("*")
                          if p.is_file() and p.name != "manifest.json"})
        assert len(files[0]) > 5
        assert files[0] == files[1]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
    def test_pinned_to_one_cpu_matches_unpinned(self, tiny_cfg, tmp_path):
        # one training thread instead of two runs the same shards in the
        # same order: the bytes do not depend on how many CPUs there are;
        # the batches are large enough to cut into every shard
        cfg = json.loads(tiny_cfg.to_json())
        cfg["train"]["batch_size"] = 48
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(cfg) + "\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                           os.environ.get("PYTHONPATH")]))}
        pin = "os.sched_setaffinity(0, {%d})\n" % min(os.sched_getaffinity(0))
        files = []
        for name, prelude in (("pinned", pin), ("unpinned", "")):
            out = tmp_path / name
            script = ("import os, sys\n" + prelude
                      + "from socnav.cli import main\nsys.exit(main(sys.argv[1:]))\n")
            proc = subprocess.run([sys.executable, "-c", script, "--config", str(cfg_path),
                                   "pipeline", "--out", str(out), "--eval-episodes", "2"],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == EXIT_OK, proc.stderr
            files.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                          if p.is_file() and p.name != "manifest.json"})
        assert len(files[0]) > 5
        assert files[0] == files[1]

    @pytest.mark.parametrize("leftover", ["dataset.jsonl.stats.json",
                                          "plots/episode_0000.svg",
                                          "plots/episode_0001.csv"])
    def test_pipeline_guards_sidecar_and_figures_before_any_work(
            self, tiny_config_file, tmp_path, leftover):
        out = tmp_path / "run"
        (out / "plots").mkdir(parents=True)
        (out / leftover).write_text("old")
        assert run("--config", tiny_config_file, "pipeline", "--out", str(out),
                   "--eval-episodes", "2") == EXIT_CONFIG
        assert not (out / "dataset.jsonl").exists()
        assert (out / leftover).read_text() == "old"

    def test_dataset_over_buffer_capacity_is_2_before_any_file(
            self, tiny_config_file, tmp_path, capsys):
        cfg = json.loads(open(tiny_config_file).read())
        cfg["train"]["buffer_capacity"] = 100
        path = tmp_path / "small.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run("--config", str(path), "pipeline", "--out", str(out),
                   "--eval-episodes", "2") == EXIT_CONFIG
        assert "capacity of 100" in capsys.readouterr().err
        assert sorted(p.name for p in out.rglob("*")) == []

    def test_pipeline_refuses_rerun_without_force(self, tiny_config_file,
                                                  tmp_path):
        out = str(tmp_path / "run")
        assert run("--config", tiny_config_file, "pipeline", "--out", out,
                   "--eval-episodes", "2") == EXIT_OK
        assert run("--config", tiny_config_file, "pipeline", "--out", out,
                   "--eval-episodes", "2") == EXIT_CONFIG
