import json

import pytest

from socnav import trainer
from socnav.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from socnav.config import Config
from socnav.dataset import load_trajectories


@pytest.fixture()
def tiny_config_file(tmp_path):
    cfg = {
        "sim": {"num_peds": 2},
        "net": {"hidden_dim": 16, "num_heads": 2, "ffn_dim": 16,
                "rtgp_window": 4, "policy_context": 4, "policy_blocks": 1,
                "head_hidden": 8},
        "train": {"pretrain_iters": 8, "policy_batch": 4, "rtgp_fast_batch": 4,
                  "sampled_trajs": 2, "offline_episodes": 4,
                  "finetune_episodes": 2},
        "seed": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_bad_config_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"gamma": 7}}')
        rc = run("--config", str(bad), "gen-data", "--episodes", "1",
                 "--out", str(tmp_path / "d.jsonl"))
        assert rc == EXIT_CONFIG

    def test_unknown_key_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"simulation": {}}')
        rc = run("--config", str(bad), "gen-data", "--episodes", "1",
                 "--out", str(tmp_path / "d.jsonl"))
        assert rc == EXIT_CONFIG

    def test_missing_input_is_3(self, tmp_path):
        rc = run("pretrain", "--data", str(tmp_path / "absent.jsonl"),
                 "--out", str(tmp_path / "c.ckpt"))
        assert rc == EXIT_RUNTIME

    @pytest.mark.parametrize("command", [
        ["finetune", "--ckpt", "c.ckpt", "--data", "d.jsonl", "--out", "f.ckpt"],
        ["eval", "--ckpt", "c.ckpt", "--report", "r.json"]],
        ids=["finetune", "eval"])
    def test_labels_rtg_mode_is_2(self, command):
        with pytest.raises(SystemExit) as exc:
            run(*command, "--rtg-mode", "labels")
        assert exc.value.code == EXIT_CONFIG

    def test_reference_faster_than_v_max_is_2_before_any_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sim": {"v_max": 0.8}}')
        rc = run("--config", str(bad), "gen-data", "--episodes", "5",
                 "--out", str(tmp_path / "d.jsonl"))
        assert rc == EXIT_CONFIG
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_safety_space_flag_removed(self, tmp_path):
        # the robot controller's safety space is set in the config only
        with pytest.raises(SystemExit) as exc:
            run("gen-data", "--episodes", "1", "--safety-space", "0.02",
                "--out", str(tmp_path / "d.jsonl"))
        assert exc.value.code == EXIT_CONFIG

    def test_gen_data_ok(self, tiny_config_file, tmp_path):
        rc = run("--config", tiny_config_file, "gen-data", "--episodes", "2",
                 "--out", str(tmp_path / "d.jsonl"))
        assert rc == EXIT_OK
        assert (tmp_path / "d.jsonl").exists()
        assert (tmp_path / "d.jsonl.stats.json").exists()


    @pytest.mark.parametrize("count", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ["gen-data", "--out", "d.jsonl", "--episodes"],
        ["finetune", "--ckpt", "c.ckpt", "--data", "d.jsonl", "--out", "f.ckpt",
         "--episodes"],
        ["eval", "--ckpt", "c.ckpt", "--report", "r.json", "--episodes"],
        ["pipeline", "--out", "run", "--episodes"],
        ["pipeline", "--out", "run", "--finetune-episodes"],
        ["pipeline", "--out", "run", "--eval-episodes"]],
        ids=["gen-data", "finetune", "eval", "pipeline", "pipeline-finetune",
             "pipeline-eval"])
    def test_count_below_one_is_2_before_any_file(self, command, count, tiny_config_file,
                                                  tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            run("--config", tiny_config_file, *command, count)
        assert exc.value.code == EXIT_CONFIG
        assert sorted(tmp_path.iterdir()) == before


class TestFinetuneCapacity:
    def test_dataset_over_buffer_capacity_is_2_naming_both_numbers(
            self, tiny_config_file, tmp_path, capsys):
        # a dataset written under a larger capacity than the fine-tuning config's
        data, ckpt, out = (str(tmp_path / n) for n in ("d.jsonl", "c.ckpt", "f.ckpt"))
        assert run("--config", tiny_config_file, "gen-data", "--episodes", "4",
                   "--out", data) == EXIT_OK
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


def with_net(cfg_file, path, **net) -> str:
    """A copy of the config file with `net` overrides; returns its path."""
    cfg = json.loads(open(cfg_file).read())
    cfg["net"].update(net)
    path.write_text(json.dumps(cfg))
    return str(path)


def write_bundle(path, cfg_file):
    """Freshly initialized stores of the config's models."""
    policy, rtgp = trainer.build_models(Config.load(cfg_file).validate())
    trainer.save_bundle(path, policy.init_store(0), rtgp.init_store(1))


class TestBundleShapes:
    @pytest.mark.parametrize("bundle_net, run_net, message", [
        ({"policy_blocks": 2}, {},
         "policy block 'block1.q.W' is shape (16, 16) in the checkpoint and missing "
         "in the config's model"),
        ({}, {"policy_blocks": 2},
         "policy block 'block1.q.W' is missing in the checkpoint and shape (16, 16) "
         "in the config's model"),
        ({"head_hidden": 4}, {},
         "rtgp block 'head1.W' is shape (32, 4) in the checkpoint and shape (32, 8) "
         "in the config's model")],
        ids=["extra", "missing", "reshaped"])
    @pytest.mark.parametrize("command", ["finetune", "eval"])
    def test_mismatch_is_2_naming_the_block(self, tiny_config_file, tmp_path, capsys,
                                            bundle_net, run_net, message, command):
        ckpt = str(tmp_path / "c.ckpt")
        write_bundle(ckpt, with_net(tiny_config_file, tmp_path / "b.json", **bundle_net))
        cfg = with_net(tiny_config_file, tmp_path / "r.json", **run_net)
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


class TestOverwriteGuard:
    def test_refuses_then_force(self, tiny_config_file, tmp_path):
        out = str(tmp_path / "d.jsonl")
        assert run("--config", tiny_config_file, "gen-data", "--episodes", "2",
                   "--out", out) == EXIT_OK
        assert run("--config", tiny_config_file, "gen-data", "--episodes", "2",
                   "--out", out) == EXIT_CONFIG
        assert run("--config", tiny_config_file, "--force", "gen-data",
                   "--episodes", "2", "--out", out) == EXIT_OK


class TestStages:
    def test_full_stage_chain(self, tiny_config_file, tmp_path):
        data = str(tmp_path / "d.jsonl")
        ckpt = str(tmp_path / "pre.ckpt")
        ft = str(tmp_path / "ft.ckpt")
        report = str(tmp_path / "rep.json")
        poslog = str(tmp_path / "pos.jsonl")
        plots = str(tmp_path / "plots")

        assert run("--config", tiny_config_file, "gen-data", "--episodes", "4",
                   "--out", data) == EXIT_OK
        assert run("--config", tiny_config_file, "pretrain", "--data", data,
                   "--out", ckpt) == EXIT_OK
        assert run("--config", tiny_config_file, "finetune", "--ckpt", ckpt,
                   "--data", data, "--episodes", "2", "--out", ft) == EXIT_OK
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
        # the subcommands and `pipeline` run the same stage code
        pipe = tmp_path / "run"
        assert run("--config", tiny_config_file, "pipeline", "--out", str(pipe),
                   "--eval-episodes", "2") == EXIT_OK
        st = tmp_path / "stages"
        st.mkdir()
        chain = [
            ["gen-data", "--episodes", "4", "--out", f"{st}/dataset.jsonl"],
            ["pretrain", "--data", f"{st}/dataset.jsonl", "--out", f"{st}/pretrained.ckpt"],
            ["finetune", "--ckpt", f"{st}/pretrained.ckpt", "--data",
             f"{st}/dataset.jsonl", "--episodes", "2", "--out", f"{st}/finetuned.ckpt"],
            ["eval", "--ckpt", f"{st}/finetuned.ckpt", "--episodes", "2", "--report",
             f"{st}/eval_report.json", "--positions-log", f"{st}/eval_positions.jsonl"],
        ]
        for argv in chain:
            assert run("--config", tiny_config_file, *argv) == EXIT_OK
        names = sorted(p.name for p in st.iterdir())
        assert names == ["dataset.jsonl", "dataset.jsonl.stats.json", "eval_positions.jsonl",
                         "eval_report.json", "finetuned.ckpt", "pretrained.ckpt"]
        for name in names:
            assert (st / name).read_bytes() == (pipe / name).read_bytes(), name

    def test_stats_command(self, tiny_config_file, tmp_path, capsys):
        data = str(tmp_path / "d.jsonl")
        run("--config", tiny_config_file, "gen-data", "--episodes", "3",
            "--out", data)
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
